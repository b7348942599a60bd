//! Box-tree layout.
//!
//! The paper deliberately does not formalize visual layout ("We do not
//! formalize the visual layout of box trees", §4); this module is the
//! deterministic substrate standing in for TouchDevelop's browser
//! renderer. Boxes stack vertically by default and horizontally when
//! `box.horizontal := true` — "nested boxes, akin to TeX and HTML" (§1).
//!
//! Layout is two-pass: a bottom-up *measure* pass computes content
//! sizes, then a top-down *place* pass assigns rectangles. Attributes
//! used: `margin`, `padding`, `border`, `width`, `height`, `font_size`,
//! `horizontal`, `background`, `foreground`.

use crate::geom::{Point, Rect, Size};
use alive_core::boxtree::{BoxItem, BoxNode};
use alive_core::expr::BoxSourceId;
use alive_core::value::Color;
use alive_core::{Attr, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Visual style resolved from a box's attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Style {
    /// Outer spacing.
    pub margin: i32,
    /// Inner spacing.
    pub padding: i32,
    /// Border thickness (0 or 1 in the text backend).
    pub border: i32,
    /// Integer text scale (1 = normal).
    pub font_size: i32,
    /// Horizontal stacking instead of vertical.
    pub horizontal: bool,
    /// Background fill, if set.
    pub background: Option<Color>,
    /// Text color, if set.
    pub foreground: Option<Color>,
    /// Fixed width override.
    pub width: Option<i32>,
    /// Fixed height override.
    pub height: Option<i32>,
    /// Whether the box has a tap handler (hit-testing cares).
    pub tappable: bool,
    /// Whether the box has an edit handler.
    pub editable: bool,
}

impl Default for Style {
    fn default() -> Self {
        Style {
            margin: 0,
            padding: 0,
            border: 0,
            font_size: 1,
            horizontal: false,
            background: None,
            foreground: None,
            width: None,
            height: None,
            tappable: false,
            editable: false,
        }
    }
}

impl Style {
    /// Resolve a style from a box's attribute items (rightmost wins,
    /// which [`BoxNode::attr`] already implements).
    pub fn from_box(node: &BoxNode) -> Style {
        let num = |attr: Attr| match node.attr(attr) {
            Some(Value::Number(n)) => Some(n.round().max(0.0) as i32),
            _ => None,
        };
        let color = |attr: Attr| match node.attr(attr) {
            Some(Value::Color(c)) => Some(*c),
            _ => None,
        };
        Style {
            margin: num(Attr::Margin).unwrap_or(0),
            padding: num(Attr::Padding).unwrap_or(0),
            border: num(Attr::Border).unwrap_or(0).min(1),
            font_size: num(Attr::FontSize).unwrap_or(1).max(1),
            horizontal: matches!(node.attr(Attr::Horizontal), Some(Value::Bool(true))),
            background: color(Attr::Background),
            foreground: color(Attr::Foreground),
            width: num(Attr::Width),
            height: num(Attr::Height),
            tappable: node.attr(Attr::OnTap).is_some(),
            editable: node.attr(Attr::OnEdit).is_some(),
        }
    }
}

/// One laid-out item inside a box.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutItem {
    /// A posted leaf rendered as text.
    Text {
        /// Where the text sits (border-box of the text block).
        rect: Rect,
        /// The lines of text (pre-split).
        lines: Vec<String>,
        /// Text scale inherited from the box.
        font_size: i32,
    },
    /// A nested box.
    Child(LayoutBox),
}

/// A laid-out box: its rectangle, style, and laid-out contents.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutBox {
    /// Path of child indices from the root box.
    pub path: Vec<usize>,
    /// The `boxed` statement that created this box, for navigation.
    pub source: Option<BoxSourceId>,
    /// The border box (everything but the margin).
    pub rect: Rect,
    /// Resolved style.
    pub style: Style,
    /// Contents in order.
    pub items: Vec<LayoutItem>,
}

impl LayoutBox {
    /// Total number of boxes in this subtree.
    pub fn box_count(&self) -> usize {
        1 + self
            .items
            .iter()
            .map(|i| match i {
                LayoutItem::Child(c) => c.box_count(),
                LayoutItem::Text { .. } => 0,
            })
            .sum::<usize>()
    }

    /// Visit every box, pre-order.
    pub fn walk(&self, visit: &mut dyn FnMut(&LayoutBox)) {
        visit(self);
        for item in &self.items {
            if let LayoutItem::Child(c) = item {
                c.walk(visit);
            }
        }
    }
}

/// A complete layout of a display.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutTree {
    /// The laid-out top-level box.
    pub root: LayoutBox,
}

impl LayoutTree {
    /// Overall size of the laid-out display.
    pub fn size(&self) -> Size {
        Size::new(
            self.root.rect.right() + self.root.style.margin,
            self.root.rect.bottom() + self.root.style.margin,
        )
    }

    /// Find the laid-out box for a box-tree path.
    pub fn by_path(&self, path: &[usize]) -> Option<&LayoutBox> {
        let mut node = &self.root;
        for &i in path {
            node = self.nth_child(node, i)?;
        }
        Some(node)
    }

    fn nth_child<'t>(&self, node: &'t LayoutBox, i: usize) -> Option<&'t LayoutBox> {
        node.items
            .iter()
            .filter_map(|item| match item {
                LayoutItem::Child(c) => Some(c),
                LayoutItem::Text { .. } => None,
            })
            .nth(i)
    }
}

/// Lay out a box tree. The root box is placed at the origin (its margin
/// included).
pub fn layout(root: &BoxNode) -> LayoutTree {
    let measured = measure(root);
    let style = Style::from_box(root);
    let root_box = place(
        root,
        &measured,
        Point::new(style.margin, style.margin),
        Vec::new(),
    );
    LayoutTree { root: root_box }
}

/// Per-frame counters from an incremental layout pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Boxes whose measure pass actually ran this frame.
    pub nodes_measured: u64,
    /// Boxes skipped because their subtree was pointer-identical to a
    /// previously measured one (memo splices keep subtrees shared).
    pub nodes_reused: u64,
}

/// A measured subtree held by the cache, pinned so its pointer key
/// stays valid.
struct CacheEntry {
    /// Keeps the box subtree allocation alive while the entry exists:
    /// the cache is keyed by `Arc::as_ptr`, and a recycled allocation at
    /// the same address would otherwise alias a stale measurement.
    _keeper: Arc<BoxNode>,
    measured: Arc<Measured>,
}

/// Pointer-keyed cache for the bottom-up measure pass.
///
/// Box trees are immutable once built, and `measure` depends only on
/// the subtree's own content (no inherited inputs affect sizing), so a
/// subtree that is pointer-identical to one measured last frame must
/// measure identically — the `Arc` pointer alone is a sound cache key as
/// long as the allocation cannot be recycled, which each entry's keeper
/// `Arc` guarantees. Eviction is two-generation, like the render memo
/// cache: entries not reused for one whole frame are dropped.
///
/// No production path uses this cache (a live session lays out every
/// new frame with [`layout`]); it stays because the benchmark's traced
/// loop (`benchmark/src/traced.rs`) still compiles against it.
#[derive(Default)]
pub struct LayoutCache {
    current: HashMap<usize, CacheEntry>,
    previous: HashMap<usize, CacheEntry>,
    stats: LayoutStats,
}

impl std::fmt::Debug for LayoutCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayoutCache")
            .field("current", &self.current.len())
            .field("previous", &self.previous.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl LayoutCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached subtree measurements (both generations).
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Whether the cache holds no measurements.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.previous.is_empty()
    }

    /// Drop all cached measurements (e.g. after a code update).
    pub fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }

    fn begin_frame(&mut self) {
        // Anything not reused during the previous frame dies here.
        self.previous = std::mem::take(&mut self.current);
        self.stats = LayoutStats::default();
    }

    fn lookup(&mut self, key: usize) -> Option<Arc<Measured>> {
        if let Some(entry) = self.current.get(&key) {
            self.stats.nodes_reused += entry.measured.boxes;
            return Some(Arc::clone(&entry.measured));
        }
        if let Some(entry) = self.previous.remove(&key) {
            self.stats.nodes_reused += entry.measured.boxes;
            let measured = Arc::clone(&entry.measured);
            self.current.insert(key, entry);
            return Some(measured);
        }
        None
    }
}

/// Lay out a box tree, reusing measurements of subtrees that are
/// pointer-identical to ones measured on an earlier call.
///
/// Output is byte-identical to [`layout`] — only the measure pass is
/// skipped for shared subtrees; the cheap top-down place pass always
/// runs in full. Returns the tree plus this frame's reuse counters.
///
/// No production path calls this (a live session lays out every new
/// frame with [`layout`]); it stays because the benchmark's traced loop
/// (`benchmark/src/traced.rs`) still compiles against it.
pub fn layout_incremental(cache: &mut LayoutCache, root: &BoxNode) -> (LayoutTree, LayoutStats) {
    cache.begin_frame();
    let measured = measure_items(root, &mut |child| measure_cached(cache, child));
    cache.stats.nodes_measured += 1; // the root itself
    let style = Style::from_box(root);
    let root_box = place(
        root,
        &measured,
        Point::new(style.margin, style.margin),
        Vec::new(),
    );
    (LayoutTree { root: root_box }, cache.stats)
}

fn measure_cached(cache: &mut LayoutCache, node: &Arc<BoxNode>) -> Arc<Measured> {
    let key = Arc::as_ptr(node) as usize;
    if let Some(measured) = cache.lookup(key) {
        return measured;
    }
    let measured = Arc::new(measure_items(node, &mut |child| {
        measure_cached(cache, child)
    }));
    cache.stats.nodes_measured += 1;
    cache.current.insert(
        key,
        CacheEntry {
            _keeper: Arc::clone(node),
            measured: Arc::clone(&measured),
        },
    );
    measured
}

/// Measured sizes for one box subtree.
struct Measured {
    /// Size of the border box (without margin).
    inner: Size,
    /// Outer size (border box + margin on all sides).
    outer: Size,
    /// Boxes in this subtree, including self (for reuse accounting).
    boxes: u64,
    items: Vec<MeasuredItem>,
}

enum MeasuredItem {
    Text {
        size: Size,
        lines: Vec<String>,
        font_size: i32,
    },
    Child(Arc<Measured>),
}

fn text_lines(value: &Value) -> Vec<String> {
    value
        .display_text()
        .split('\n')
        .map(str::to_string)
        .collect()
}

fn measure(node: &BoxNode) -> Measured {
    measure_items(node, &mut |child| Arc::new(measure(child)))
}

fn measure_items(
    node: &BoxNode,
    measure_child: &mut dyn FnMut(&Arc<BoxNode>) -> Arc<Measured>,
) -> Measured {
    let style = Style::from_box(node);
    let mut items = Vec::new();
    let mut boxes = 1u64;
    let mut main = 0i32; // along the stacking axis
    let mut cross = 0i32;
    for item in &node.items {
        let size = match item {
            BoxItem::Leaf(v, _) => {
                let lines = text_lines(v);
                let w = lines
                    .iter()
                    .map(|l| l.chars().count() as i32)
                    .max()
                    .unwrap_or(0)
                    * style.font_size;
                let h = lines.len() as i32 * style.font_size;
                let size = Size::new(w, h);
                items.push(MeasuredItem::Text {
                    size,
                    lines,
                    font_size: style.font_size,
                });
                size
            }
            BoxItem::Child(child) => {
                let measured = measure_child(child);
                let size = measured.outer;
                boxes += measured.boxes;
                items.push(MeasuredItem::Child(measured));
                size
            }
            BoxItem::Attr(..) => continue,
        };
        if style.horizontal {
            main += size.w;
            cross = cross.max(size.h);
        } else {
            main += size.h;
            cross = cross.max(size.w);
        }
    }
    let content = if style.horizontal {
        Size::new(main, cross)
    } else {
        Size::new(cross, main)
    };
    let chrome = 2 * (style.padding + style.border);
    let mut inner = Size::new(content.w + chrome, content.h + chrome);
    if let Some(w) = style.width {
        inner.w = w;
    }
    if let Some(h) = style.height {
        inner.h = h;
    }
    let outer = Size::new(inner.w + 2 * style.margin, inner.h + 2 * style.margin);
    Measured {
        inner,
        outer,
        boxes,
        items,
    }
}

fn place(node: &BoxNode, measured: &Measured, origin: Point, path: Vec<usize>) -> LayoutBox {
    let style = Style::from_box(node);
    let rect = Rect {
        origin,
        size: measured.inner,
    };
    let content_origin = Point::new(
        origin.x + style.padding + style.border,
        origin.y + style.padding + style.border,
    );
    let mut cursor = content_origin;
    let mut items = Vec::new();
    let mut child_index = 0usize;
    let mut measured_items = measured.items.iter();
    for item in &node.items {
        match item {
            BoxItem::Attr(..) => continue,
            BoxItem::Leaf(..) => {
                let Some(MeasuredItem::Text {
                    size,
                    lines,
                    font_size,
                }) = measured_items.next()
                else {
                    unreachable!("measure and place see the same items");
                };
                let text_rect = Rect {
                    origin: cursor,
                    size: *size,
                };
                items.push(LayoutItem::Text {
                    rect: text_rect,
                    lines: lines.clone(),
                    font_size: *font_size,
                });
                if style.horizontal {
                    cursor.x += size.w;
                } else {
                    cursor.y += size.h;
                }
            }
            BoxItem::Child(child) => {
                let Some(MeasuredItem::Child(child_measured)) = measured_items.next() else {
                    unreachable!("measure and place see the same items");
                };
                let child_style = Style::from_box(child);
                let child_origin =
                    Point::new(cursor.x + child_style.margin, cursor.y + child_style.margin);
                let mut child_path = path.clone();
                child_path.push(child_index);
                child_index += 1;
                let laid = place(child, child_measured, child_origin, child_path);
                if style.horizontal {
                    cursor.x += child_measured.outer.w;
                } else {
                    cursor.y += child_measured.outer.h;
                }
                items.push(LayoutItem::Child(laid));
            }
        }
    }
    LayoutBox {
        path,
        source: node.source,
        rect,
        style,
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_core::boxtree::BoxItem;

    fn leaf_box(text: &str) -> BoxNode {
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::leaf(Value::str(text)));
        b
    }

    fn with_attr(mut b: BoxNode, attr: Attr, v: Value) -> BoxNode {
        b.items.insert(0, BoxItem::attr(attr, v));
        b
    }

    #[test]
    fn vertical_stacking_is_default() {
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("aaaa"));
        root.push_child(leaf_box("bb"));
        let tree = layout(&root);
        let first = tree.by_path(&[0]).expect("first child");
        let second = tree.by_path(&[1]).expect("second child");
        assert_eq!(first.rect, Rect::new(0, 0, 4, 1));
        assert_eq!(second.rect, Rect::new(0, 1, 2, 1));
        assert_eq!(tree.root.rect.size, Size::new(4, 2));
    }

    #[test]
    fn horizontal_attribute_changes_axis() {
        let mut root = BoxNode::new(None);
        root.items
            .push(BoxItem::attr(Attr::Horizontal, Value::Bool(true)));
        root.push_child(leaf_box("aaaa"));
        root.push_child(leaf_box("bb"));
        let tree = layout(&root);
        let first = tree.by_path(&[0]).expect("first");
        let second = tree.by_path(&[1]).expect("second");
        assert_eq!(first.rect.origin, Point::new(0, 0));
        assert_eq!(second.rect.origin, Point::new(4, 0));
        assert_eq!(tree.root.rect.size, Size::new(6, 1));
    }

    #[test]
    fn margin_offsets_and_grows_parent() {
        let mut root = BoxNode::new(None);
        let child = with_attr(leaf_box("xx"), Attr::Margin, Value::Number(2.0));
        root.push_child(child);
        let tree = layout(&root);
        let child = tree.by_path(&[0]).expect("child");
        assert_eq!(child.rect.origin, Point::new(2, 2));
        // Outer size of the child = 2+2 margin on each axis + content.
        assert_eq!(tree.root.rect.size, Size::new(6, 5));
    }

    #[test]
    fn padding_and_border_inset_content() {
        let b = with_attr(
            with_attr(leaf_box("hi"), Attr::Padding, Value::Number(1.0)),
            Attr::Border,
            Value::Number(1.0),
        );
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let tree = layout(&root);
        let child = tree.by_path(&[0]).expect("child");
        // content 2x1 + 2*(padding 1 + border 1) = 6x5.
        assert_eq!(child.rect.size, Size::new(6, 5));
        let LayoutItem::Child(ref c) = tree.root.items[0] else {
            panic!()
        };
        let LayoutItem::Text { rect, .. } = &c.items[0] else {
            panic!()
        };
        assert_eq!(rect.origin, Point::new(2, 2));
    }

    #[test]
    fn font_size_scales_text() {
        let b = with_attr(leaf_box("ab"), Attr::FontSize, Value::Number(2.0));
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let tree = layout(&root);
        assert_eq!(
            tree.by_path(&[0]).expect("child").rect.size,
            Size::new(4, 2)
        );
    }

    #[test]
    fn width_height_overrides() {
        let b = with_attr(
            with_attr(leaf_box("hello"), Attr::Width, Value::Number(3.0)),
            Attr::Height,
            Value::Number(4.0),
        );
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let tree = layout(&root);
        assert_eq!(
            tree.by_path(&[0]).expect("child").rect.size,
            Size::new(3, 4)
        );
    }

    #[test]
    fn style_reads_handlers() {
        let mut b = leaf_box("x");
        b.items.push(BoxItem::attr(
            Attr::OnTap,
            Value::Prim(alive_core::Prim::MathFloor), // any function-ish value
        ));
        let style = Style::from_box(&b);
        assert!(style.tappable);
        assert!(!style.editable);
    }

    #[test]
    fn paths_match_box_tree_indices() {
        let mut inner = BoxNode::new(None);
        inner.push_child(leaf_box("deep"));
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("a"));
        root.push_child(inner);
        let tree = layout(&root);
        assert_eq!(tree.by_path(&[1, 0]).expect("nested").path, vec![1, 0]);
        assert!(tree.by_path(&[2]).is_none());
        assert_eq!(tree.root.box_count(), 4);
    }

    #[test]
    fn leaves_interleave_with_children() {
        let mut root = BoxNode::new(None);
        root.items.push(BoxItem::leaf(Value::str("top")));
        root.push_child(leaf_box("mid"));
        root.items.push(BoxItem::leaf(Value::str("bottom")));
        let tree = layout(&root);
        let LayoutItem::Text { rect: top, .. } = &tree.root.items[0] else {
            panic!()
        };
        let LayoutItem::Child(mid) = &tree.root.items[1] else {
            panic!()
        };
        let LayoutItem::Text { rect: bottom, .. } = &tree.root.items[2] else {
            panic!()
        };
        assert_eq!(top.origin.y, 0);
        assert_eq!(mid.rect.origin.y, 1);
        assert_eq!(bottom.origin.y, 2);
    }

    #[test]
    fn incremental_layout_matches_from_scratch() {
        let mut root = BoxNode::new(None);
        root.push_child(with_attr(
            leaf_box("aaaa"),
            Attr::Margin,
            Value::Number(1.0),
        ));
        let mut inner = BoxNode::new(None);
        inner.push_child(leaf_box("deep"));
        root.push_child(inner);
        let mut cache = LayoutCache::new();
        let (tree, stats) = layout_incremental(&mut cache, &root);
        assert_eq!(tree, layout(&root));
        // Cold cache: everything measured, nothing reused.
        assert_eq!(stats.nodes_measured, 4);
        assert_eq!(stats.nodes_reused, 0);
    }

    #[test]
    fn shared_subtrees_skip_the_measure_pass() {
        let mut inner = BoxNode::new(None);
        inner.push_child(leaf_box("deep"));
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("a"));
        root.push_child(inner);

        let mut cache = LayoutCache::new();
        let (first, _) = layout_incremental(&mut cache, &root);

        // Next frame: same children, shared by pointer (as the memo
        // cache produces), inside a freshly built root.
        let mut next = BoxNode::new(None);
        next.items.extend(root.items.iter().cloned());
        let (second, stats) = layout_incremental(&mut cache, &next);
        assert_eq!(first, second);
        assert_eq!(stats.nodes_measured, 1, "only the new root measures");
        assert_eq!(stats.nodes_reused, 3, "both subtrees splice from cache");
        assert_eq!(second, layout(&next), "incremental == from-scratch");
    }

    #[test]
    fn layout_cache_evicts_after_one_idle_frame() {
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("x"));
        let mut cache = LayoutCache::new();
        layout_incremental(&mut cache, &root);
        assert_eq!(cache.len(), 1);

        // A frame that shares nothing: the old entry survives one
        // rotation (previous generation), then dies.
        let mut other = BoxNode::new(None);
        other.push_child(leaf_box("y"));
        layout_incremental(&mut cache, &other);
        assert_eq!(cache.len(), 2);
        let mut third = BoxNode::new(None);
        third.push_child(leaf_box("z"));
        layout_incremental(&mut cache, &third);
        assert_eq!(cache.len(), 2, "the x entry was evicted");

        cache.clear();
        assert!(cache.is_empty());
    }
}
