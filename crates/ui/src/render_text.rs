//! Text rendering of a laid-out display.
//!
//! Renders a [`LayoutTree`] onto a character canvas: text leaves are
//! drawn at their rectangles, boxes with a `border` get `+--+` frames,
//! and colored backgrounds get a light shading. This is the
//! screen-substitute for the paper's browser view — deterministic, so
//! tests can assert on it, and human-readable, so the examples can show
//! the mortgage calculator actually rendering.
//!
//! A frame paints into one [`Canvas`], clipped to [`MAX_CANVAS_COLS`] ×
//! [`MAX_CANVAS_ROWS`], and every paint loop walks only the cells inside
//! that clip, so a hostile `box.width := 100000` or
//! `box.font_size := 50000` costs no more than a full clip.

use crate::geom::{Point, Rect, Size};
use crate::layout::{LayoutBox, LayoutItem, LayoutTree};

/// Character used to shade boxes with a background color.
const SHADE: char = '░';

/// Widest canvas a frame paints, in cells. Layout sizes come from
/// client code and may be far larger; a painted frame shows the
/// top-left `MAX_CANVAS_COLS × MAX_CANVAS_ROWS` cells of its layout, so
/// one canvas holds at most 16 MiB of cells. (The largest first frame
/// of the scenario corpus is 44 × 367.)
pub const MAX_CANVAS_COLS: usize = 2048;

/// Tallest canvas a frame paints, in cells (see [`MAX_CANVAS_COLS`]).
pub const MAX_CANVAS_ROWS: usize = 2048;

/// The canvas a layout of `size` paints: its size, clipped.
pub(crate) fn canvas_dims(size: Size) -> (usize, usize) {
    (
        (size.w.max(0) as usize).min(MAX_CANVAS_COLS),
        (size.h.max(0) as usize).min(MAX_CANVAS_ROWS),
    )
}

/// Columns (or rows) `from..to` that fall inside `0..limit`.
fn clip(from: i32, to: i32, limit: usize) -> std::ops::Range<i32> {
    from.max(0)..to.min(limit as i32)
}

/// Visit the cells of a `rect` fill inside a `width × height` canvas.
pub(crate) fn fill_cells(rect: Rect, width: usize, height: usize, mut put: impl FnMut(i32, i32)) {
    for y in clip(rect.top(), rect.bottom(), height) {
        for x in clip(rect.left(), rect.right(), width) {
            put(x, y);
        }
    }
}

/// Frame glyphs: horizontal edge, vertical edge, then the top-left,
/// top-right, bottom-left and bottom-right corners.
pub(crate) type FrameGlyphs = [char; 6];

/// Visit the cells of `rect`'s one-cell frame inside a `width × height`
/// canvas: edges first, then corners, so corners win.
pub(crate) fn frame_cells(
    rect: Rect,
    glyphs: FrameGlyphs,
    width: usize,
    height: usize,
    mut put: impl FnMut(i32, i32, char),
) {
    if rect.size.is_empty() {
        return;
    }
    let [h_edge, v_edge, tl, tr, bl, br] = glyphs;
    let (l, t, r, b) = (rect.left(), rect.top(), rect.right() - 1, rect.bottom() - 1);
    for x in clip(l, rect.right(), width) {
        put(x, t, h_edge);
        put(x, b, h_edge);
    }
    for y in clip(t, rect.bottom(), height) {
        put(l, y, v_edge);
        put(r, y, v_edge);
    }
    for (x, y, ch) in [(l, t, tl), (r, t, tr), (l, b, bl), (r, b, br)] {
        put(x, y, ch);
    }
}

/// Visit the cells of a text block inside a `width × height` canvas.
/// Scaled text repeats each character into a `scale × scale` block, a
/// cheap stand-in for larger fonts; lines stack downwards.
pub(crate) fn text_cells(
    rect: Rect,
    text: &str,
    scale: i32,
    width: usize,
    height: usize,
    mut put: impl FnMut(i32, i32, char),
) {
    let scale = scale.max(1);
    let step = |origin: i32, n: usize| {
        origin.saturating_add(i32::try_from(n).unwrap_or(i32::MAX).saturating_mul(scale))
    };
    for (row, line) in text.split('\n').enumerate() {
        let top = step(rect.top(), row);
        if top >= height as i32 {
            break;
        }
        for (col, ch) in line.chars().enumerate() {
            let left = step(rect.left(), col);
            if left >= width as i32 {
                break;
            }
            for y in clip(top, top.saturating_add(scale), height) {
                for x in clip(left, left.saturating_add(scale), width) {
                    put(x, y, ch);
                }
            }
        }
    }
}

/// A character canvas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl Canvas {
    /// A blank canvas of the given size, clipped to [`MAX_CANVAS_COLS`]
    /// × [`MAX_CANVAS_ROWS`].
    pub fn new(width: usize, height: usize) -> Self {
        let (width, height) = (width.min(MAX_CANVAS_COLS), height.min(MAX_CANVAS_ROWS));
        Canvas {
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    /// The canvas a layout paints into: its size, clipped.
    fn for_tree(tree: &LayoutTree) -> Self {
        let (width, height) = canvas_dims(tree.size());
        Canvas::new(width, height)
    }

    /// Canvas width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Canvas height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Set one cell, ignoring out-of-bounds writes.
    pub fn put(&mut self, x: i32, y: i32, ch: char) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.cells[y as usize * self.width + x as usize] = ch;
        }
    }

    /// Read one cell (`None` out of bounds).
    pub fn get(&self, x: i32, y: i32) -> Option<char> {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            Some(self.cells[y as usize * self.width + x as usize])
        } else {
            None
        }
    }

    /// The canvas as newline-joined rows, right-trimmed (as
    /// `str::trim_end` trims), with fully blank trailing rows dropped —
    /// written straight into one exactly sized `String`.
    pub fn to_text(&self) -> String {
        let rows = (0..self.height).map(|row| {
            let cells = &self.cells[row * self.width..(row + 1) * self.width];
            let end = cells
                .iter()
                .rposition(|c| !c.is_whitespace())
                .map_or(0, |i| i + 1);
            &cells[..end]
        });
        // A blank canvas still shows one (empty) row.
        let shown = rows
            .clone()
            .rposition(|row| !row.is_empty())
            .map_or(self.height.min(1), |last| last + 1);
        let bytes: usize = rows
            .clone()
            .take(shown)
            .map(|row| row.iter().map(|c| c.len_utf8()).sum::<usize>() + 1)
            .sum();
        let mut out = String::with_capacity(bytes);
        for row in rows.take(shown) {
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

/// Render a layout tree to text.
pub fn render_to_text(tree: &LayoutTree) -> String {
    let mut canvas = Canvas::for_tree(tree);
    paint(&mut canvas, tree, tree.root(), None);
    canvas.to_text()
}

/// A retained character frame for damage-driven repaint.
///
/// Holds the previous frame's canvas; [`TextFrame::render_damaged`]
/// repaints only the cells inside the given damage rectangles and
/// re-serializes, so steady-state frames touch a handful of cells
/// instead of the whole screen. Output is byte-identical to
/// [`render_to_text`] as long as the damage covers everything that
/// changed (which [`crate::diff::damage_rects`] guarantees).
///
/// No production path paints through this (a live session paints every
/// new frame with [`render_to_text`]); it stays because the benchmark's
/// traced loop (`benchmark/src/traced.rs`) still compiles against it.
#[derive(Debug, Clone, Default)]
pub struct TextFrame {
    canvas: Option<Canvas>,
    /// Cell-generation stamps for counting distinct repainted cells.
    stamp: Vec<u32>,
    generation: u32,
    cells_repainted: u64,
}

impl TextFrame {
    /// An empty frame; the first render is necessarily full.
    pub fn new() -> Self {
        Self::default()
    }

    /// Repaint the whole frame from scratch and retain it.
    pub fn render_full(&mut self, tree: &LayoutTree) -> String {
        let mut canvas = Canvas::for_tree(tree);
        paint(&mut canvas, tree, tree.root(), None);
        let cells = canvas.width() * canvas.height();
        self.cells_repainted = cells as u64;
        self.stamp = vec![0; cells];
        self.generation = 0;
        let text = canvas.to_text();
        self.canvas = Some(canvas);
        text
    }

    /// Repaint only the damaged cells of the retained frame.
    ///
    /// Returns `None` when there is no retained frame or the layout
    /// size changed — the caller must fall back to
    /// [`TextFrame::render_full`]. (A size change moves every cell's
    /// screen position, so a full repaint is the honest cost.)
    pub fn render_damaged(&mut self, tree: &LayoutTree, damage: &[Rect]) -> Option<String> {
        let canvas = self.canvas.as_mut()?;
        if (canvas.width(), canvas.height()) != canvas_dims(tree.size()) {
            return None;
        }
        // Clear the damaged cells, counting each distinct cell once.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        let mut repainted = 0u64;
        let (width, height) = (canvas.width(), canvas.height());
        for rect in damage {
            fill_cells(*rect, width, height, |x, y| {
                canvas.put(x, y, ' ');
                let i = y as usize * width + x as usize;
                if self.stamp[i] != self.generation {
                    self.stamp[i] = self.generation;
                    repainted += 1;
                }
            });
        }
        self.cells_repainted = repainted;
        // Redraw everything that intersects the damage, clipped to it:
        // cells outside the damage are unchanged by construction, and
        // cells inside see every overlapping draw in z-order.
        paint(canvas, tree, tree.root(), Some(damage));
        Some(canvas.to_text())
    }

    /// Distinct cells repainted by the most recent render call.
    pub fn cells_repainted(&self) -> u64 {
        self.cells_repainted
    }

    /// Drop the retained frame (forces the next render to be full).
    pub fn invalidate(&mut self) {
        self.canvas = None;
    }
}

/// Paint `node` and its descendants in z-order: shading, then the frame
/// of a box with a `border`, then text and children in item order. With
/// `damage`, only cells inside one of the damage rectangles are written
/// and draws that miss them all are skipped; `None` paints every cell.
fn paint(canvas: &mut Canvas, tree: &LayoutTree, node: &LayoutBox, damage: Option<&[Rect]>) {
    let touches = |area: Rect| {
        damage.is_none_or(|damage| {
            damage.iter().any(|d| {
                area.left() < d.right()
                    && d.left() < area.right()
                    && area.top() < d.bottom()
                    && d.top() < area.bottom()
            })
        })
    };
    let put = |canvas: &mut Canvas, x: i32, y: i32, ch: char| {
        if damage.is_none_or(|damage| damage.iter().any(|d| d.contains(Point::new(x, y)))) {
            canvas.put(x, y, ch);
        }
    };
    let (width, height) = (canvas.width(), canvas.height());
    let rect = node.rect;
    if touches(rect) {
        if node.style.background.is_some() {
            fill_cells(rect, width, height, |x, y| put(canvas, x, y, SHADE));
        }
        if node.style.border > 0 {
            let glyphs = ['-', '|', '+', '+', '+', '+'];
            frame_cells(rect, glyphs, width, height, |x, y, ch| {
                put(canvas, x, y, ch)
            });
        }
    }
    for item in tree.items(node) {
        match item {
            LayoutItem::Text {
                rect,
                text,
                font_size,
            } => {
                if touches(*rect) {
                    let text = tree.text(text);
                    text_cells(*rect, text, *font_size, width, height, |x, y, ch| {
                        put(canvas, x, y, ch)
                    });
                }
            }
            // Always recurse: children can overflow a parent whose rect
            // was clamped by a width/height override.
            LayoutItem::Child(child) => {
                if let Some(child) = tree.boxes().get(*child) {
                    paint(canvas, tree, child, damage);
                }
            }
        }
    }
}

/// Render zoomed out by an integer factor — §5: "The live view is
/// automatically scaled down to fit on a smaller portion of the screen,
/// but we support interactive zooming to allow programmers to inspect
/// the effect of detail adjustments."
///
/// Each `zoom × zoom` cell block collapses to one output cell: box
/// glyphs win over text, text wins over background shading, shading
/// wins over blanks — so the page's *structure* stays legible at a
/// glance even when the text does not.
pub fn render_zoomed_out(tree: &LayoutTree, zoom: usize) -> String {
    let zoom = zoom.max(1);
    let mut full = Canvas::for_tree(tree);
    paint(&mut full, tree, tree.root(), None);
    let out_w = full.width().div_ceil(zoom);
    let out_h = full.height().div_ceil(zoom);
    let mut out = Canvas::new(out_w, out_h);
    for oy in 0..out_h {
        for ox in 0..out_w {
            let mut best = ' ';
            let mut best_rank = 0u8;
            for dy in 0..zoom {
                for dx in 0..zoom {
                    let ch = full
                        .get((ox * zoom + dx) as i32, (oy * zoom + dy) as i32)
                        .unwrap_or(' ');
                    let rank = match ch {
                        ' ' => 0,
                        '░' => 1,
                        '+' | '-' | '|' => 3,
                        _ => 2,
                    };
                    if rank > best_rank {
                        best_rank = rank;
                        best = match rank {
                            3 => '▫',
                            2 => '▪',
                            _ => ch,
                        };
                    }
                }
            }
            out.put(ox as i32, oy as i32, best);
        }
    }
    out.to_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout;
    use alive_core::boxtree::{BoxItem, BoxNode};
    use alive_core::{Attr, Value};

    fn render(node: &BoxNode) -> String {
        render_to_text(&layout(node))
    }

    #[test]
    fn renders_stacked_text() {
        let mut root = BoxNode::new(None);
        root.items.push(BoxItem::leaf(Value::str("hello")));
        root.items.push(BoxItem::leaf(Value::str("world")));
        assert_eq!(render(&root), "hello\nworld\n");
    }

    #[test]
    fn renders_border() {
        let mut inner = BoxNode::new(None);
        inner
            .items
            .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
        inner.items.push(BoxItem::leaf(Value::str("x")));
        let mut root = BoxNode::new(None);
        root.push_child(inner);
        assert_eq!(render(&root), "+-+\n|x|\n+-+\n");
    }

    #[test]
    fn renders_background_shading() {
        let mut inner = BoxNode::new(None);
        inner.items.push(BoxItem::attr(
            Attr::Background,
            Value::Color(alive_core::Color::new(170, 210, 240)),
        ));
        inner
            .items
            .push(BoxItem::attr(Attr::Width, Value::Number(3.0)));
        inner
            .items
            .push(BoxItem::attr(Attr::Height, Value::Number(1.0)));
        let mut root = BoxNode::new(None);
        root.push_child(inner);
        assert_eq!(render(&root), "░░░\n");
    }

    #[test]
    fn scaled_text_doubles_cells() {
        let mut root = BoxNode::new(None);
        root.items
            .push(BoxItem::attr(Attr::FontSize, Value::Number(2.0)));
        root.items.push(BoxItem::leaf(Value::str("a")));
        assert_eq!(render(&root), "aa\naa\n");
    }

    #[test]
    fn zoomed_out_view_shrinks_but_keeps_structure() {
        // Two bordered boxes stacked; at zoom 2 they remain two distinct
        // structures at half size.
        let mut a = BoxNode::new(None);
        a.items
            .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
        a.items.push(BoxItem::leaf(Value::str("alpha")));
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::leaf(Value::str("beta one")));
        b.items.push(BoxItem::leaf(Value::str("beta two")));
        let mut root = BoxNode::new(None);
        root.push_child(a);
        root.push_child(b);
        let tree = layout(&root);
        let full = render_to_text(&tree);
        let zoomed = render_zoomed_out(&tree, 2);
        assert!(zoomed.lines().count() < full.lines().count());
        assert!(zoomed.contains('▫'), "borders survive: {zoomed}");
        assert!(zoomed.contains('▪'), "text survives as blocks: {zoomed}");
        // Zoom 1 == plain text modulo glyph substitution size.
        let zoom1 = render_zoomed_out(&tree, 1);
        assert_eq!(zoom1.lines().count(), full.lines().count());
    }

    #[test]
    fn canvas_bounds_are_safe() {
        let mut c = Canvas::new(2, 2);
        c.put(-1, 0, 'x');
        c.put(5, 5, 'x');
        assert_eq!(c.get(-1, 0), None);
        assert_eq!(c.get(0, 0), Some(' '));
        assert_eq!(c.width(), 2);
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn text_frame_partial_repaint_is_byte_identical() {
        use crate::diff::{damage_rects, diff_displays};

        let build = |mid: &str| {
            let mut root = BoxNode::new(None);
            root.items.push(BoxItem::leaf(Value::str("header")));
            let mut inner = BoxNode::new(None);
            inner
                .items
                .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
            inner.items.push(BoxItem::leaf(Value::str(mid)));
            root.push_child(inner);
            root.items.push(BoxItem::leaf(Value::str("footer")));
            root
        };
        let old = build("aa");
        let new = build("zz");
        let old_tree = layout(&old);
        let new_tree = layout(&new);

        let mut frame = TextFrame::new();
        let full_first = frame.render_full(&old_tree);
        assert_eq!(full_first, render_to_text(&old_tree));

        let damage = damage_rects(&old_tree, &new_tree, &diff_displays(&old, &new));
        let partial = frame
            .render_damaged(&new_tree, &damage)
            .expect("same size, retained frame");
        assert_eq!(partial, render_to_text(&new_tree));
        // Only the bordered box (4x3) was repainted, not the screen.
        assert!(
            frame.cells_repainted() < 6 * 5,
            "repainted {} cells",
            frame.cells_repainted()
        );
        assert!(frame.cells_repainted() >= 4 * 3);
    }

    #[test]
    fn text_frame_refuses_size_changes() {
        let mut one = BoxNode::new(None);
        one.items.push(BoxItem::leaf(Value::str("x")));
        let mut two = BoxNode::new(None);
        two.items.push(BoxItem::leaf(Value::str("x")));
        two.items.push(BoxItem::leaf(Value::str("y")));
        let mut frame = TextFrame::new();
        frame.render_full(&layout(&one));
        assert!(frame.render_damaged(&layout(&two), &[]).is_none());
        frame.invalidate();
        assert!(frame.render_damaged(&layout(&one), &[]).is_none());
    }
}
