//! Display diffing: which boxes changed between two renders?
//!
//! The paper's model rebuilds the whole box tree per refresh; a real
//! screen only wants to repaint what changed. This module computes the
//! structural difference between two displays and the corresponding
//! *damage rectangles*. The damage drives the retained-frame backends
//! ([`crate::render_text::TextFrame`], [`crate::render_ansi::AnsiFramebuffer`]):
//! only damaged cells are repainted per frame. The E4 discussion also
//! uses the same rectangles to quantify how little of the screen
//! changes per model update.
//!
//! Diffing exploits structural sharing: children are `Arc`-shared across
//! frames, so a subtree spliced unchanged from the render memo cache is
//! pointer-identical to last frame's and is skipped without descending.

use crate::geom::Rect;
use crate::layout::{LayoutBox, LayoutItem, LayoutTree};
use alive_core::boxtree::{BoxItem, BoxNode};
use std::sync::Arc;

/// One difference between two displays, located by box path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoxChange {
    /// A box exists in the new display but not the old.
    Added(Vec<usize>),
    /// A box existed in the old display but not the new.
    Removed(Vec<usize>),
    /// The box exists in both but its own content (leaves, attributes,
    /// or source statement) differs; children are reported separately.
    Changed(Vec<usize>),
}

impl BoxChange {
    /// The path the change is located at.
    pub fn path(&self) -> &[usize] {
        match self {
            BoxChange::Added(p) | BoxChange::Removed(p) | BoxChange::Changed(p) => p,
        }
    }
}

/// Compare two displays structurally. Children are matched by index
/// (the box tree is ordered); a box is `Changed` if its non-child items
/// or its source id differ.
pub fn diff_displays(old: &BoxNode, new: &BoxNode) -> Vec<BoxChange> {
    let mut out = Vec::new();
    diff_nodes(old, new, &mut Vec::new(), &mut out);
    out
}

/// A box's own content: its leaves and attribute settings, in order.
fn own_items(node: &BoxNode) -> impl Iterator<Item = &BoxItem> {
    node.items
        .iter()
        .filter(|i| !matches!(i, BoxItem::Child(_)))
}

fn diff_nodes(old: &BoxNode, new: &BoxNode, path: &mut Vec<usize>, out: &mut Vec<BoxChange>) {
    if old.source != new.source || !own_items(old).eq(own_items(new)) {
        out.push(BoxChange::Changed(path.clone()));
    }
    let mut old_children = old.children_shared();
    let mut new_children = new.children_shared();
    for i in 0.. {
        let change: fn(Vec<usize>) -> BoxChange = match (old_children.next(), new_children.next()) {
            // Pointer-identical subtrees (memo splices) cannot differ.
            (Some(o), Some(n)) if Arc::ptr_eq(o, n) => continue,
            (Some(o), Some(n)) => {
                path.push(i);
                diff_nodes(o, n, path, out);
                path.pop();
                continue;
            }
            (Some(_), None) => BoxChange::Removed,
            (None, Some(_)) => BoxChange::Added,
            (None, None) => break,
        };
        let mut p = path.clone();
        p.push(i);
        out.push(change(p));
    }
}

/// The screen rectangles a backend would repaint to go from the old
/// layout to the new one: the new bounds of every added/changed box
/// plus the old bounds of every removed/changed box (content may have
/// moved). Bounds are the box rect *plus* its text blocks — text can
/// overflow a `width`/`height`-overridden rect, and a partial repaint
/// that missed the overflow would leave stale cells behind.
pub fn damage_rects(
    old_tree: &LayoutTree,
    new_tree: &LayoutTree,
    changes: &[BoxChange],
) -> Vec<Rect> {
    let mut rects = Vec::new();
    // A changed box damages its own content; its children are diffed
    // and damaged separately. A box entering or leaving the display
    // damages its whole subtree at once.
    for change in changes {
        match change {
            BoxChange::Added(p) => rects.extend(subtree_bounds(new_tree, p)),
            BoxChange::Removed(p) => rects.extend(subtree_bounds(old_tree, p)),
            BoxChange::Changed(p) => {
                for tree in [old_tree, new_tree] {
                    rects.extend(tree.by_path(p).and_then(|b| own_bounds(tree, b)));
                }
            }
        }
    }
    // Also repaint anything whose rectangle moved even if its content
    // did not (relayout shifts siblings below a grown box).
    collect_moved(old_tree, 0, new_tree, 0, &mut rects);
    dedup_rects(rects)
}

/// Union of two rects (smallest rect containing both).
fn union(a: Rect, b: Rect) -> Rect {
    let left = a.left().min(b.left());
    let top = a.top().min(b.top());
    let right = a.right().max(b.right());
    let bottom = a.bottom().max(b.bottom());
    Rect::new(left, top, right - left, bottom - top)
}

/// Union of the non-empty rects, if any.
fn bounds(rects: impl Iterator<Item = Rect>) -> Option<Rect> {
    rects.filter(|r| !r.size.is_empty()).reduce(union)
}

/// The rectangles of a box's text items, in item order.
fn text_rects<'t>(tree: &'t LayoutTree, b: &'t LayoutBox) -> impl Iterator<Item = Rect> + 't {
    tree.items(b).iter().filter_map(|item| match item {
        LayoutItem::Text { rect, .. } => Some(*rect),
        LayoutItem::Child(_) => None,
    })
}

/// The cells a box's *own* drawing can touch: its rect plus its text
/// blocks (which may overflow the rect under size overrides). `None`
/// if it draws nothing.
fn own_bounds(tree: &LayoutTree, b: &LayoutBox) -> Option<Rect> {
    bounds(std::iter::once(b.rect).chain(text_rects(tree, b)))
}

/// The cells the whole subtree at `path` can touch: its boxes are
/// contiguous in pre-order.
fn subtree_bounds(tree: &LayoutTree, path: &[usize]) -> Option<Rect> {
    let subtree = tree.subtree(tree.index_by_path(path)?);
    bounds(subtree.iter().filter_map(|b| own_bounds(tree, b)))
}

/// Damage every box that sits at the same path in both layouts but
/// moved: the old and new bounds of a box whose rect changed, and the
/// old and new rects of a text block that shifted within an unmoved
/// box. Boxes pair up by child ordinal, as paths do.
fn collect_moved(
    old_tree: &LayoutTree,
    old: usize,
    new_tree: &LayoutTree,
    new: usize,
    rects: &mut Vec<Rect>,
) {
    let (Some(old_box), Some(new_box)) = (old_tree.boxes().get(old), new_tree.boxes().get(new))
    else {
        return;
    };
    if new_box.rect != old_box.rect {
        rects.extend(own_bounds(old_tree, old_box));
        rects.extend(own_bounds(new_tree, new_box));
    } else {
        // Even with an unmoved box rect, a text block after a
        // resized child shifts within the box. Content changes are
        // caught by the diff; here only positions can differ.
        for (o, n) in text_rects(old_tree, old_box).zip(text_rects(new_tree, new_box)) {
            if o != n {
                if !o.size.is_empty() {
                    rects.push(o);
                }
                if !n.size.is_empty() {
                    rects.push(n);
                }
            }
        }
    }
    for (o, n) in old_tree.children(old_box).zip(new_tree.children(new_box)) {
        collect_moved(old_tree, o, new_tree, n, rects);
    }
}

fn dedup_rects(mut rects: Vec<Rect>) -> Vec<Rect> {
    rects.sort_by_key(|r| (r.origin.y, r.origin.x, r.size.h, r.size.w));
    rects.dedup();
    // Drop rects fully contained in another.
    let containing = rects.clone();
    rects.retain(|r| {
        !containing.iter().any(|big| {
            big != r
                && big.left() <= r.left()
                && big.top() <= r.top()
                && big.right() >= r.right()
                && big.bottom() >= r.bottom()
        })
    });
    rects
}

/// Fraction of the (new) display area covered by damage — a 0.0–1.0
/// repaint ratio.
pub fn damage_ratio(new_tree: &LayoutTree, damage: &[Rect]) -> f64 {
    let total = new_tree.size();
    let total_area = f64::from(total.w.max(1)) * f64::from(total.h.max(1));
    let damaged: f64 = damage
        .iter()
        .map(|r| f64::from(r.size.w) * f64::from(r.size.h))
        .sum();
    (damaged / total_area).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout;
    use alive_core::{Attr, Value};

    fn leaf_box(text: &str) -> BoxNode {
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::leaf(Value::str(text)));
        b
    }

    fn root_of(children: Vec<BoxNode>) -> BoxNode {
        let mut root = BoxNode::new(None);
        for c in children {
            root.push_child(c);
        }
        root
    }

    #[test]
    fn identical_displays_have_no_diff() {
        let a = root_of(vec![leaf_box("x"), leaf_box("y")]);
        assert!(diff_displays(&a, &a.clone()).is_empty());
    }

    #[test]
    fn leaf_change_is_located_exactly() {
        let old = root_of(vec![leaf_box("x"), leaf_box("y")]);
        let new = root_of(vec![leaf_box("x"), leaf_box("z")]);
        assert_eq!(diff_displays(&old, &new), vec![BoxChange::Changed(vec![1])]);
    }

    #[test]
    fn attr_change_is_a_change() {
        let old = root_of(vec![leaf_box("x")]);
        let mut changed = leaf_box("x");
        changed
            .items
            .push(BoxItem::attr(Attr::Margin, Value::Number(2.0)));
        let new = root_of(vec![changed]);
        assert_eq!(diff_displays(&old, &new), vec![BoxChange::Changed(vec![0])]);
    }

    #[test]
    fn added_and_removed_children() {
        let old = root_of(vec![leaf_box("a"), leaf_box("b"), leaf_box("c")]);
        let new = root_of(vec![leaf_box("a")]);
        assert_eq!(
            diff_displays(&old, &new),
            vec![BoxChange::Removed(vec![1]), BoxChange::Removed(vec![2])]
        );
        let grown = diff_displays(&new, &old);
        assert_eq!(
            grown,
            vec![BoxChange::Added(vec![1]), BoxChange::Added(vec![2])]
        );
    }

    #[test]
    fn damage_covers_changed_rows_only() {
        let old = root_of(vec![leaf_box("aaaa"), leaf_box("bbbb"), leaf_box("cccc")]);
        let new = root_of(vec![leaf_box("aaaa"), leaf_box("BBBB"), leaf_box("cccc")]);
        let old_tree = layout(&old);
        let new_tree = layout(&new);
        let changes = diff_displays(&old, &new);
        let damage = damage_rects(&old_tree, &new_tree, &changes);
        assert_eq!(damage, vec![Rect::new(0, 1, 4, 1)]);
        let ratio = damage_ratio(&new_tree, &damage);
        assert!(
            (ratio - 1.0 / 3.0).abs() < 1e-9,
            "one of three rows: {ratio}"
        );
    }

    #[test]
    fn relayout_shift_damages_moved_siblings() {
        // The first box grows a margin; the second box moves down.
        let old = root_of(vec![leaf_box("top"), leaf_box("below")]);
        let mut grown = leaf_box("top");
        grown
            .items
            .insert(0, BoxItem::attr(Attr::Margin, Value::Number(1.0)));
        let new = root_of(vec![grown, leaf_box("below")]);
        let changes = diff_displays(&old, &new);
        let damage = damage_rects(&layout(&old), &layout(&new), &changes);
        // The "below" row's old position must be repainted even though
        // its content is unchanged.
        assert!(
            damage
                .iter()
                .any(|r| r.contains(crate::geom::Point::new(0, 1))),
            "{damage:?}"
        );
    }
}
