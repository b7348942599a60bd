//! Box-tree layout.
//!
//! The paper deliberately does not formalize visual layout ("We do not
//! formalize the visual layout of box trees", §4); this module is the
//! deterministic substrate standing in for TouchDevelop's browser
//! renderer. Boxes stack vertically by default and horizontally when
//! `box.horizontal := true` — "nested boxes, akin to TeX and HTML" (§1).
//!
//! Layout is two-pass over one flat [`LayoutTree`]: a bottom-up
//! *measure* pass walks the box tree once, appending every box in
//! pre-order with its content size, and a top-down *place* pass is one
//! loop over those boxes that assigns rectangles. The tree lives in
//! three growing buffers — the boxes, their items (each box's
//! contiguous, in paint order) and one text arena that every posted
//! value is written into once — so a frame costs a few dozen
//! allocations however many boxes it has. Box paths are derived only
//! when asked for ([`LayoutTree::by_path`], [`LayoutTree::path_of`]).
//! Sizes are client-controlled, so every sum saturates instead of
//! overflowing; painters clip what they draw (see
//! [`crate::render_text::MAX_CANVAS_COLS`]).
//!
//! Attributes used: `margin`, `padding`, `border`, `width`, `height`,
//! `font_size`, `horizontal`, `background`, `foreground`.

use crate::geom::{Point, Rect, Size};
use alive_core::boxtree::{BoxItem, BoxNode};
use alive_core::expr::BoxSourceId;
use alive_core::value::Color;
use alive_core::{Attr, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
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
        }
    }
}

impl Style {
    /// Resolve a style from a box's attribute items in one pass over
    /// them: a later setting overwrites an earlier one, so the
    /// rightmost wins, as [`BoxNode::attr`] reads it. A setting of the
    /// wrong type resets the attribute to its default.
    pub fn from_box(node: &BoxNode) -> Style {
        let mut style = Style::default();
        for item in &node.items {
            let BoxItem::Attr(attr, value, _) = item else {
                continue;
            };
            let num = match value {
                Value::Number(n) => Some(n.round().max(0.0) as i32),
                _ => None,
            };
            let color = match value {
                Value::Color(c) => Some(*c),
                _ => None,
            };
            match attr {
                Attr::Margin => style.margin = num.unwrap_or(0),
                Attr::Padding => style.padding = num.unwrap_or(0),
                Attr::Border => style.border = num.unwrap_or(0).min(1),
                Attr::FontSize => style.font_size = num.unwrap_or(1).max(1),
                Attr::Width => style.width = num,
                Attr::Height => style.height = num,
                Attr::Horizontal => style.horizontal = matches!(value, Value::Bool(true)),
                Attr::Background => style.background = color,
                Attr::Foreground => style.foreground = color,
                Attr::OnTap => style.tappable = true,
                Attr::OnEdit => {}
            }
        }
        style
    }
}

/// One laid-out item inside a box.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutItem {
    /// A posted leaf rendered as text.
    Text {
        /// Where the text sits (border-box of the text block).
        rect: Rect,
        /// The text's bytes in the tree's text arena (read them with
        /// [`LayoutTree::text`]); lines are separated by `'\n'`.
        text: Range<usize>,
        /// Text scale inherited from the box.
        font_size: i32,
    },
    /// A nested box: its index in [`LayoutTree::boxes`].
    Child(usize),
}

/// A laid-out box: its rectangle, style, and where its contents sit in
/// the tree's buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutBox {
    /// Index of the enclosing box in [`LayoutTree::boxes`] (`None` for
    /// the root).
    pub(crate) parent: Option<usize>,
    /// The `boxed` statement that created this box, for navigation.
    pub source: Option<BoxSourceId>,
    /// The border box (everything but the margin).
    pub rect: Rect,
    /// Resolved style.
    pub style: Style,
    /// This box's items, in paint order, in the tree's item buffer.
    pub(crate) items: Range<usize>,
    /// One past the last box of this box's subtree: the subtree is the
    /// boxes from this one's index up to `end`, in pre-order.
    pub(crate) end: usize,
}

impl LayoutBox {
    /// Border box plus margin on every side.
    fn outer(&self) -> Size {
        let margins = self.style.margin.saturating_mul(2);
        Size::new(
            self.rect.size.w.saturating_add(margins),
            self.rect.size.h.saturating_add(margins),
        )
    }
}

/// A complete layout of a display: every box in pre-order (the root
/// first), every box's items, and the text they show.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutTree {
    boxes: Vec<LayoutBox>,
    items: Vec<LayoutItem>,
    text: String,
}

impl LayoutTree {
    /// Measure a box tree into fresh buffers, every rectangle still at
    /// the origin.
    fn measured(root: &BoxNode, cache: Option<&mut LayoutCache>) -> LayoutTree {
        let mut tree = LayoutTree {
            boxes: Vec::new(),
            items: Vec::new(),
            text: String::new(),
        };
        tree.measure(root, None, cache);
        tree
    }

    /// Overall size of the laid-out display.
    pub fn size(&self) -> Size {
        let root = self.root();
        Size::new(
            root.rect.right().saturating_add(root.style.margin),
            root.rect.bottom().saturating_add(root.style.margin),
        )
    }

    /// The top-level box.
    pub fn root(&self) -> &LayoutBox {
        &self.boxes[0]
    }

    /// Every box in pre-order: a box's subtree directly follows it, and
    /// siblings keep their box-tree order.
    pub fn boxes(&self) -> &[LayoutBox] {
        &self.boxes
    }

    /// A box's items, in paint order.
    pub fn items(&self, node: &LayoutBox) -> &[LayoutItem] {
        self.items.get(node.items.clone()).unwrap_or(&[])
    }

    /// The indices in [`LayoutTree::boxes`] of a box's nested boxes, in
    /// order.
    pub fn children<'t>(&'t self, node: &LayoutBox) -> impl Iterator<Item = usize> + 't {
        self.items(node).iter().filter_map(|item| match item {
            LayoutItem::Child(c) => Some(*c),
            LayoutItem::Text { .. } => None,
        })
    }

    /// The text of a [`LayoutItem::Text`] item.
    pub fn text(&self, range: &Range<usize>) -> &str {
        self.text.get(range.clone()).unwrap_or("")
    }

    /// Find the laid-out box for a box-tree path.
    pub fn by_path(&self, path: &[usize]) -> Option<&LayoutBox> {
        self.boxes.get(self.index_by_path(path)?)
    }

    /// The index in [`LayoutTree::boxes`] of the box at a box-tree path.
    pub(crate) fn index_by_path(&self, path: &[usize]) -> Option<usize> {
        let mut at = 0;
        for &i in path {
            at = self.children(self.boxes.get(at)?).nth(i)?;
        }
        (at < self.boxes.len()).then_some(at)
    }

    /// The box at `index` and every box of its subtree, in pre-order.
    pub(crate) fn subtree(&self, index: usize) -> &[LayoutBox] {
        let end = self.boxes.get(index).map_or(index, |b| b.end);
        self.boxes.get(index..end).unwrap_or(&[])
    }

    /// The box-tree path of the box at `index` in [`LayoutTree::boxes`]
    /// (child indices from the root; empty for the root).
    pub fn path_of(&self, index: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut at = index;
        while let Some(parent) = self.boxes.get(at).and_then(|b| b.parent) {
            let siblings = self.children(&self.boxes[parent]);
            path.push(siblings.take_while(|&c| c != at).count());
            at = parent;
        }
        path.reverse();
        path
    }

    /// Measure `node` and its subtree onto the end of the buffers, with
    /// every rectangle at the origin; returns the box's index. With a
    /// cache, subtrees it holds are spliced instead of measured.
    fn measure(
        &mut self,
        node: &BoxNode,
        parent: Option<usize>,
        mut cache: Option<&mut LayoutCache>,
    ) -> usize {
        let index = self.boxes.len();
        let style = Style::from_box(node);
        // Reserve this box's item slots first, so that they stay
        // contiguous while its children append their own after them.
        let first = self.items.len();
        let count = node
            .items
            .iter()
            .filter(|item| !matches!(item, BoxItem::Attr(..)))
            .count();
        self.items.resize(first + count, LayoutItem::Child(0));
        self.boxes.push(LayoutBox {
            parent,
            source: node.source,
            rect: Rect::default(),
            style,
            items: first..first + count,
            end: index + 1,
        });
        let mut main = 0i32; // along the stacking axis
        let mut cross = 0i32;
        let mut slot = first;
        for item in &node.items {
            let (laid, size) = match item {
                BoxItem::Leaf(value, _) => {
                    let start = self.text.len();
                    let _ = write!(self.text, "{value}");
                    let size = text_size(&self.text[start..], style.font_size);
                    let laid = LayoutItem::Text {
                        rect: Rect {
                            origin: Point::default(),
                            size,
                        },
                        text: start..self.text.len(),
                        font_size: style.font_size,
                    };
                    (laid, size)
                }
                BoxItem::Child(child) => {
                    let c = self.measure_child(child, index, cache.as_deref_mut());
                    (LayoutItem::Child(c), self.boxes[c].outer())
                }
                BoxItem::Attr(..) => continue,
            };
            self.items[slot] = laid;
            slot += 1;
            if style.horizontal {
                main = main.saturating_add(size.w);
                cross = cross.max(size.h);
            } else {
                main = main.saturating_add(size.h);
                cross = cross.max(size.w);
            }
        }
        let content = if style.horizontal {
            Size::new(main, cross)
        } else {
            Size::new(cross, main)
        };
        let chrome = style.padding.saturating_add(style.border).saturating_mul(2);
        let inner = Size::new(
            style.width.unwrap_or(content.w.saturating_add(chrome)),
            style.height.unwrap_or(content.h.saturating_add(chrome)),
        );
        let end = self.boxes.len();
        let laid = &mut self.boxes[index];
        laid.rect.size = inner;
        laid.end = end;
        index
    }

    fn measure_child(
        &mut self,
        child: &Arc<BoxNode>,
        parent: usize,
        cache: Option<&mut LayoutCache>,
    ) -> usize {
        let Some(cache) = cache else {
            return self.measure(child, Some(parent), None);
        };
        let key = Arc::as_ptr(child) as usize;
        if let Some(measured) = cache.lookup(key) {
            return self.append(measured, parent);
        }
        let measured = LayoutTree::measured(child, Some(cache));
        cache.stats.nodes_measured += 1;
        let index = self.append(&measured, parent);
        cache.current.insert(
            key,
            CacheEntry {
                _keeper: Arc::clone(child),
                measured,
            },
        );
        index
    }

    /// Copy a measured subtree onto the end of these buffers, rebasing
    /// every index into them, as a child of box `parent`. Returns the
    /// copy's root index.
    fn append(&mut self, src: &LayoutTree, parent: usize) -> usize {
        let box_base = self.boxes.len();
        let item_base = self.items.len();
        let text_base = self.text.len();
        self.text.push_str(&src.text);
        self.boxes.extend(src.boxes.iter().map(|b| LayoutBox {
            parent: Some(b.parent.map_or(parent, |p| p + box_base)),
            items: b.items.start + item_base..b.items.end + item_base,
            end: b.end + box_base,
            ..b.clone()
        }));
        self.items.extend(src.items.iter().map(|item| match item {
            LayoutItem::Text {
                rect,
                text,
                font_size,
            } => LayoutItem::Text {
                rect: *rect,
                text: text.start + text_base..text.end + text_base,
                font_size: *font_size,
            },
            LayoutItem::Child(c) => LayoutItem::Child(c + box_base),
        }));
        box_base
    }

    /// Assign every rectangle's origin, top-down: pre-order puts each
    /// parent before its children, so one loop places them all.
    fn place(&mut self) {
        let LayoutTree { boxes, items, .. } = self;
        let Some(root) = boxes.first_mut() else {
            return;
        };
        let margin = root.style.margin;
        root.rect.origin = Point::new(margin, margin);
        for index in 0..boxes.len() {
            let node = &boxes[index];
            let (style, slots) = (node.style, node.items.clone());
            let inset = style.padding.saturating_add(style.border);
            let mut cursor = Point::new(
                node.rect.left().saturating_add(inset),
                node.rect.top().saturating_add(inset),
            );
            for slot in slots {
                let advance = match &mut items[slot] {
                    LayoutItem::Text { rect, .. } => {
                        rect.origin = cursor;
                        rect.size
                    }
                    LayoutItem::Child(c) => {
                        let child = &mut boxes[*c];
                        let margin = child.style.margin;
                        child.rect.origin = Point::new(
                            cursor.x.saturating_add(margin),
                            cursor.y.saturating_add(margin),
                        );
                        child.outer()
                    }
                };
                if style.horizontal {
                    cursor.x = cursor.x.saturating_add(advance.w);
                } else {
                    cursor.y = cursor.y.saturating_add(advance.h);
                }
            }
        }
    }
}

/// Size of a text block: its widest line by its line count, each cell
/// scaled by the font size.
fn text_size(text: &str, font_size: i32) -> Size {
    let (mut lines, mut widest) = (0usize, 0usize);
    for line in text.split('\n') {
        lines += 1;
        widest = widest.max(line.chars().count());
    }
    let cells = |n: usize| {
        i32::try_from(n)
            .unwrap_or(i32::MAX)
            .saturating_mul(font_size)
    };
    Size::new(cells(widest), cells(lines))
}

fn layout_with(root: &BoxNode, cache: Option<&mut LayoutCache>) -> LayoutTree {
    let mut tree = LayoutTree::measured(root, cache);
    tree.place();
    tree
}

/// Lay out a box tree. The root box is placed at the origin (its margin
/// included).
pub fn layout(root: &BoxNode) -> LayoutTree {
    layout_with(root, None)
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
    /// The subtree measured on its own: its boxes in pre-order from
    /// index 0, every rectangle still at the origin.
    measured: LayoutTree,
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

    fn lookup(&mut self, key: usize) -> Option<&LayoutTree> {
        if let Some(entry) = self.previous.remove(&key) {
            self.current.insert(key, entry);
        }
        let entry = self.current.get(&key)?;
        self.stats.nodes_reused += entry.measured.boxes.len() as u64;
        Some(&entry.measured)
    }
}

/// Lay out a box tree, reusing measurements of subtrees that are
/// pointer-identical to ones measured on an earlier call.
///
/// Output is identical to [`layout`] — only the measure pass is
/// skipped for shared subtrees, whose measurements are copied in;
/// the cheap top-down place pass always runs in full. Returns the tree
/// plus this frame's reuse counters.
///
/// No production path calls this (a live session lays out every new
/// frame with [`layout`]); it stays because the benchmark's traced loop
/// (`benchmark/src/traced.rs`) still compiles against it.
pub fn layout_incremental(cache: &mut LayoutCache, root: &BoxNode) -> (LayoutTree, LayoutStats) {
    cache.begin_frame();
    let tree = layout_with(root, Some(cache));
    cache.stats.nodes_measured += 1; // the root itself
    (tree, cache.stats)
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
        assert_eq!(tree.root().rect.size, Size::new(4, 2));
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
        assert_eq!(tree.root().rect.size, Size::new(6, 1));
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
        assert_eq!(tree.root().rect.size, Size::new(6, 5));
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
        let LayoutItem::Child(c) = tree.items(tree.root())[0] else {
            panic!()
        };
        let LayoutItem::Text { rect, .. } = &tree.items(&tree.boxes()[c])[0] else {
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
    }

    #[test]
    fn paths_match_box_tree_indices() {
        let mut inner = BoxNode::new(None);
        inner.push_child(leaf_box("deep"));
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("a"));
        root.push_child(inner);
        let tree = layout(&root);
        let nested = tree.by_path(&[1, 0]).expect("nested");
        let index = tree
            .boxes()
            .iter()
            .position(|b| std::ptr::eq(b, nested))
            .expect("a box of the tree");
        assert_eq!(tree.path_of(index), vec![1, 0]);
        assert!(tree.by_path(&[2]).is_none());
        assert_eq!(tree.boxes().len(), 4);
    }

    #[test]
    fn leaves_interleave_with_children() {
        let mut root = BoxNode::new(None);
        root.items.push(BoxItem::leaf(Value::str("top")));
        root.push_child(leaf_box("mid"));
        root.items.push(BoxItem::leaf(Value::str("bottom")));
        let tree = layout(&root);
        let items = tree.items(tree.root());
        let LayoutItem::Text { rect: top, .. } = &items[0] else {
            panic!()
        };
        let LayoutItem::Child(mid) = items[1] else {
            panic!()
        };
        let mid = &tree.boxes()[mid];
        let LayoutItem::Text { rect: bottom, .. } = &items[2] else {
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
