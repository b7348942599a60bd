//! ANSI terminal rendering: the colored sibling of
//! [`crate::render_text`]. Produces 24-bit color escape sequences for
//! backgrounds and foregrounds, so the examples can show the paper's
//! light-blue highlights as actual colors in a terminal.

use crate::geom::Rect;
use crate::layout::{LayoutBox, LayoutItem, LayoutTree};
use crate::render_text::{
    canvas_dims, fill_cells, frame_cells, text_cells, MAX_CANVAS_COLS, MAX_CANVAS_ROWS,
};
use alive_core::value::Color;

/// One styled cell of the ANSI canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    ch: char,
    fg: Option<Color>,
    bg: Option<Color>,
}

impl Cell {
    const BLANK: Cell = Cell {
        ch: ' ',
        fg: None,
        bg: None,
    };
}

/// A canvas of styled cells.
#[derive(Debug, Clone)]
pub struct AnsiCanvas {
    width: usize,
    height: usize,
    cells: Vec<Cell>,
}

impl AnsiCanvas {
    /// A blank canvas, clipped to [`MAX_CANVAS_COLS`] ×
    /// [`MAX_CANVAS_ROWS`].
    pub fn new(width: usize, height: usize) -> Self {
        let (width, height) = (width.min(MAX_CANVAS_COLS), height.min(MAX_CANVAS_ROWS));
        AnsiCanvas {
            width,
            height,
            cells: vec![Cell::BLANK; width * height],
        }
    }

    fn idx(&self, x: i32, y: i32) -> Option<usize> {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            Some(y as usize * self.width + x as usize)
        } else {
            None
        }
    }

    fn put(&mut self, x: i32, y: i32, ch: char, fg: Option<Color>) {
        if let Some(i) = self.idx(x, y) {
            self.cells[i].ch = ch;
            if fg.is_some() {
                self.cells[i].fg = fg;
            }
        }
    }

    fn fill_bg(&mut self, rect: Rect, bg: Color) {
        fill_cells(rect, self.width, self.height, |x, y| {
            if let Some(i) = self.idx(x, y) {
                self.cells[i].bg = Some(bg);
            }
        });
    }

    /// Serialize to a string with ANSI 24-bit color escapes. Runs of
    /// identical style share one escape sequence; every line ends with
    /// a reset so terminal state never leaks.
    pub fn to_ansi(&self) -> String {
        let mut out = String::new();
        for row in 0..self.height {
            self.write_row_ansi(row, &mut out);
            out.push('\n');
        }
        out
    }

    /// One row as an ANSI-escaped string (no trailing newline).
    fn write_row_ansi(&self, row: usize, out: &mut String) {
        let mut current: (Option<Color>, Option<Color>) = (None, None);
        let mut line = String::new();
        let cells = &self.cells[row * self.width..(row + 1) * self.width];
        // Trim trailing blank cells per line.
        let end = cells
            .iter()
            .rposition(|c| *c != Cell::BLANK)
            .map(|i| i + 1)
            .unwrap_or(0);
        for cell in &cells[..end] {
            let style = (cell.fg, cell.bg);
            if style != current {
                line.push_str("\x1b[0m");
                if let Some(fg) = cell.fg {
                    line.push_str(&format!("\x1b[38;2;{};{};{}m", fg.r, fg.g, fg.b));
                }
                if let Some(bg) = cell.bg {
                    line.push_str(&format!("\x1b[48;2;{};{};{}m", bg.r, bg.g, bg.b));
                }
                current = style;
            }
            line.push(cell.ch);
        }
        if current != (None, None) || !line.is_empty() {
            line.push_str("\x1b[0m");
        }
        out.push_str(&line);
    }

    fn row_cells(&self, row: usize) -> &[Cell] {
        &self.cells[row * self.width..(row + 1) * self.width]
    }
}

/// Render a layout tree with ANSI colors.
pub fn render_to_ansi(tree: &LayoutTree) -> String {
    let (w, h) = canvas_dims(tree.size());
    let mut canvas = AnsiCanvas::new(w, h);
    draw(&mut canvas, tree, tree.root(), None);
    canvas.to_ansi()
}

/// A retained ANSI framebuffer for partial terminal repaint.
///
/// [`AnsiFramebuffer::render`] returns an escape string that, printed
/// right after the previous frame's output, updates the terminal:
/// the first frame (and any frame after a size change or
/// [`AnsiFramebuffer::reset`]) paints the whole view; steady-state
/// frames move the cursor up to each changed row, erase it, and
/// repaint just that row.
///
/// The caller owns the terminal protocol: the cursor must still sit on
/// the line just below the previously printed frame. Anything else
/// printed in between (log lines, prompts) invalidates that assumption
/// — call [`AnsiFramebuffer::reset`] first and a full frame is emitted.
#[derive(Debug, Clone, Default)]
pub struct AnsiFramebuffer {
    previous: Option<AnsiCanvas>,
    rows_repainted: u64,
    cells_repainted: u64,
}

impl AnsiFramebuffer {
    /// A fresh framebuffer; the first render paints fully.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the retained frame (e.g. after unrelated terminal
    /// output); the next render paints the whole view.
    pub fn reset(&mut self) {
        self.previous = None;
    }

    /// Distinct rows rewritten by the most recent render.
    pub fn rows_repainted(&self) -> u64 {
        self.rows_repainted
    }

    /// Cells covered by the rows rewritten in the most recent render.
    pub fn cells_repainted(&self) -> u64 {
        self.cells_repainted
    }

    /// Render the next frame, returning the terminal update string.
    pub fn render(&mut self, tree: &LayoutTree) -> String {
        let (w, h) = canvas_dims(tree.size());
        let mut canvas = AnsiCanvas::new(w, h);
        draw(&mut canvas, tree, tree.root(), None);

        let out = match &self.previous {
            Some(prev) if prev.width == w && prev.height == h => {
                let mut out = String::new();
                // Cursor starts on the line below the old frame; walk
                // changed rows top-to-bottom with relative moves.
                let mut cursor_row = h; // rows are 0-based; h = below
                let mut rows = 0u64;
                for row in 0..h {
                    if prev.row_cells(row) == canvas.row_cells(row) {
                        continue;
                    }
                    rows += 1;
                    let up = cursor_row - row;
                    out.push_str(&format!("\x1b[{up}A\r\x1b[2K"));
                    canvas.write_row_ansi(row, &mut out);
                    out.push('\n');
                    cursor_row = row + 1;
                }
                if cursor_row < h {
                    out.push_str(&format!("\x1b[{}B", h - cursor_row));
                }
                self.rows_repainted = rows;
                self.cells_repainted = rows * w as u64;
                out
            }
            _ => {
                self.rows_repainted = h as u64;
                self.cells_repainted = (w * h) as u64;
                canvas.to_ansi()
            }
        };
        self.previous = Some(canvas);
        out
    }
}

fn draw(canvas: &mut AnsiCanvas, tree: &LayoutTree, node: &LayoutBox, inherited_fg: Option<Color>) {
    if let Some(bg) = node.style.background {
        canvas.fill_bg(node.rect, bg);
    }
    let fg = node.style.foreground.or(inherited_fg);
    let (width, height) = (canvas.width, canvas.height);
    if node.style.border > 0 {
        let glyphs = ['─', '│', '┌', '┐', '└', '┘'];
        frame_cells(node.rect, glyphs, width, height, |x, y, ch| {
            canvas.put(x, y, ch, fg)
        });
    }
    for item in tree.items(node) {
        match item {
            LayoutItem::Text {
                rect,
                text,
                font_size,
            } => {
                let text = tree.text(text);
                text_cells(*rect, text, *font_size, width, height, |x, y, ch| {
                    canvas.put(x, y, ch, fg)
                });
            }
            LayoutItem::Child(child) => {
                if let Some(child) = tree.boxes().get(*child) {
                    draw(canvas, tree, child, fg);
                }
            }
        }
    }
}

/// Strip ANSI escape sequences — useful for asserting on colored output.
pub fn strip_ansi(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\x1b' {
            // Skip to the terminating `m` of the CSI sequence.
            for esc in chars.by_ref() {
                if esc == 'm' {
                    break;
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout;
    use alive_core::boxtree::{BoxItem, BoxNode};
    use alive_core::{Attr, Value};

    fn colored_box() -> BoxNode {
        let mut inner = BoxNode::new(None);
        inner.items.push(BoxItem::attr(
            Attr::Background,
            Value::Color(Color::new(170, 210, 240)),
        ));
        inner.items.push(BoxItem::attr(
            Attr::Foreground,
            Value::Color(Color::new(220, 50, 47)),
        ));
        inner.items.push(BoxItem::leaf(Value::str("hi")));
        let mut root = BoxNode::new(None);
        root.push_child(inner);
        root
    }

    #[test]
    fn emits_color_escapes_and_resets() {
        let ansi = render_to_ansi(&layout(&colored_box()));
        assert!(ansi.contains("\x1b[48;2;170;210;240m"), "{ansi:?}");
        assert!(ansi.contains("\x1b[38;2;220;50;47m"), "{ansi:?}");
        assert!(ansi.trim_end().ends_with("\x1b[0m"), "{ansi:?}");
    }

    #[test]
    fn stripped_output_matches_plain_renderer_text() {
        let tree = layout(&colored_box());
        let plain = strip_ansi(&render_to_ansi(&tree));
        assert_eq!(plain, "hi\n");
    }

    #[test]
    fn border_uses_box_drawing_chars() {
        let mut b = BoxNode::new(None);
        b.items
            .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
        b.items.push(BoxItem::leaf(Value::str("x")));
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let ansi = strip_ansi(&render_to_ansi(&layout(&root)));
        assert_eq!(ansi, "┌─┐\n│x│\n└─┘\n");
    }

    #[test]
    fn strip_ansi_is_identity_on_plain_text() {
        assert_eq!(strip_ansi("plain\ntext"), "plain\ntext");
        assert_eq!(strip_ansi("\x1b[0m\x1b[38;2;0;0;0mz\x1b[0m"), "z");
    }

    fn three_rows(mid: &str) -> BoxNode {
        let mut root = BoxNode::new(None);
        root.items.push(BoxItem::leaf(Value::str("top row")));
        root.items.push(BoxItem::leaf(Value::str(mid)));
        root.items.push(BoxItem::leaf(Value::str("bottom!")));
        root
    }

    #[test]
    fn framebuffer_first_frame_is_full() {
        let tree = layout(&three_rows("mid one"));
        let mut fb = AnsiFramebuffer::new();
        let first = fb.render(&tree);
        assert_eq!(first, render_to_ansi(&tree));
        assert_eq!(fb.rows_repainted(), 3);
    }

    #[test]
    fn framebuffer_repaints_only_changed_rows() {
        let mut fb = AnsiFramebuffer::new();
        fb.render(&layout(&three_rows("mid one")));
        let update = fb.render(&layout(&three_rows("mid TWO")));
        // One changed row: cursor up 2 (from below row 2 to row 1),
        // erase, rewrite, newline, then back down to the bottom.
        assert_eq!(fb.rows_repainted(), 1);
        assert!(update.starts_with("\x1b[2A\r\x1b[2K"), "{update:?}");
        assert!(update.contains("mid TWO"));
        assert!(!update.contains("top row"), "unchanged rows not resent");
        assert!(update.ends_with("\x1b[1B"), "{update:?}");

        // An identical frame sends nothing at all.
        let idle = fb.render(&layout(&three_rows("mid TWO")));
        assert_eq!(idle, "");
        assert_eq!(fb.rows_repainted(), 0);
    }

    #[test]
    fn framebuffer_resets_to_full_frames() {
        let tree = layout(&three_rows("mid one"));
        let mut fb = AnsiFramebuffer::new();
        fb.render(&tree);
        fb.reset();
        assert_eq!(fb.render(&tree), render_to_ansi(&tree));
        assert_eq!(fb.rows_repainted(), 3);

        // A size change also forces a full frame.
        let mut bigger = three_rows("mid one");
        bigger.items.push(BoxItem::leaf(Value::str("fourth")));
        let big_tree = layout(&bigger);
        assert_eq!(fb.render(&big_tree), render_to_ansi(&big_tree));
        assert_eq!(fb.rows_repainted(), 4);
    }
}
