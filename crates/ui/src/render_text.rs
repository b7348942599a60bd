//! Text rendering of a laid-out display.
//!
//! Renders a [`LayoutTree`] onto a character canvas: text leaves are
//! drawn at their rectangles, boxes with a `border` get `+--+` frames,
//! and colored backgrounds get a light shading. This is the
//! screen-substitute for the paper's browser view — deterministic, so
//! tests can assert on it, and human-readable, so the examples can show
//! the mortgage calculator actually rendering.

use crate::geom::{Point, Rect};
use crate::layout::{LayoutBox, LayoutItem, LayoutTree};

/// Character used to shade boxes with a background color.
const SHADE: char = '░';

/// A character canvas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl Canvas {
    /// A blank canvas of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        Canvas {
            width,
            height,
            cells: vec![' '; width * height],
        }
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

    /// The canvas as newline-joined rows, right-trimmed.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.cells.len() + self.height);
        for row in 0..self.height {
            let line: String = self.cells[row * self.width..(row + 1) * self.width]
                .iter()
                .collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        // Trim fully blank trailing rows.
        while out.ends_with("\n\n") {
            out.pop();
        }
        out
    }
}

/// Render a layout tree to text.
pub fn render_to_text(tree: &LayoutTree) -> String {
    let size = tree.size();
    let mut canvas = Canvas::new(size.w.max(0) as usize, size.h.max(0) as usize);
    draw_box(&mut canvas, &tree.root, None);
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
        let size = tree.size();
        let (w, h) = (size.w.max(0) as usize, size.h.max(0) as usize);
        let mut canvas = Canvas::new(w, h);
        draw_box(&mut canvas, &tree.root, None);
        self.cells_repainted = (w * h) as u64;
        self.stamp = vec![0; w * h];
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
        let size = tree.size();
        let canvas = self.canvas.as_mut()?;
        if canvas.width() != size.w.max(0) as usize || canvas.height() != size.h.max(0) as usize {
            return None;
        }
        // Clear the damaged cells, counting each distinct cell once.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        let mut repainted = 0u64;
        for rect in damage {
            for y in rect.top().max(0)..rect.bottom().min(canvas.height() as i32) {
                for x in rect.left().max(0)..rect.right().min(canvas.width() as i32) {
                    canvas.put(x, y, ' ');
                    let i = y as usize * canvas.width() + x as usize;
                    if self.stamp[i] != self.generation {
                        self.stamp[i] = self.generation;
                        repainted += 1;
                    }
                }
            }
        }
        self.cells_repainted = repainted;
        // Redraw everything that intersects the damage, clipped to it:
        // cells outside the damage are unchanged by construction, and
        // cells inside see every overlapping draw in z-order.
        draw_box(canvas, &tree.root, Some(damage));
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
/// of a box with a `border`, then text and children. With `clip`, only cells inside one of the
/// damage rectangles are written and draws that miss them all are
/// skipped; `None` paints every cell.
fn draw_box(canvas: &mut Canvas, node: &LayoutBox, clip: Option<&[Rect]>) {
    let touches = |area: Rect| {
        clip.is_none_or(|damage| {
            damage.iter().any(|d| {
                area.left() < d.right()
                    && d.left() < area.right()
                    && area.top() < d.bottom()
                    && d.top() < area.bottom()
            })
        })
    };
    let put = |canvas: &mut Canvas, x: i32, y: i32, ch: char| {
        if clip.is_none_or(|damage| damage.iter().any(|d| d.contains(Point::new(x, y)))) {
            canvas.put(x, y, ch);
        }
    };
    let rect = node.rect;
    if touches(rect) {
        if node.style.background.is_some() {
            for y in rect.top()..rect.bottom() {
                for x in rect.left()..rect.right() {
                    put(canvas, x, y, SHADE);
                }
            }
        }
        if node.style.border > 0 && !rect.size.is_empty() {
            let (l, t, r, b) = (rect.left(), rect.top(), rect.right() - 1, rect.bottom() - 1);
            for x in l..=r {
                put(canvas, x, t, '-');
                put(canvas, x, b, '-');
            }
            for y in t..=b {
                put(canvas, l, y, '|');
                put(canvas, r, y, '|');
            }
            for (x, y) in [(l, t), (r, t), (l, b), (r, b)] {
                put(canvas, x, y, '+');
            }
        }
    }
    for item in &node.items {
        match item {
            LayoutItem::Text {
                rect,
                lines,
                font_size,
            } => {
                if !touches(*rect) {
                    continue;
                }
                // Scaled text repeats each character into a scale×scale
                // block, a cheap stand-in for larger fonts.
                let scale = (*font_size).max(1);
                for (row, line) in lines.iter().enumerate() {
                    for (col, ch) in line.chars().enumerate() {
                        for dy in 0..scale {
                            for dx in 0..scale {
                                let x = rect.left() + (col as i32) * scale + dx;
                                let y = rect.top() + (row as i32) * scale + dy;
                                put(canvas, x, y, ch);
                            }
                        }
                    }
                }
            }
            // Always recurse: children can overflow a parent whose rect
            // was clamped by a width/height override.
            LayoutItem::Child(child) => draw_box(canvas, child, clip),
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
    let full = {
        let size = tree.size();
        let mut canvas = Canvas::new(size.w.max(0) as usize, size.h.max(0) as usize);
        draw_box(&mut canvas, &tree.root, None);
        canvas
    };
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
