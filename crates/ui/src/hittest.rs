//! Hit-testing: mapping a screen point to a box path.
//!
//! This is how user taps reach the (TAP) transition: the user taps a
//! point, hit-testing finds the deepest box under it, and the system
//! invokes that box's `ontap` handler. It also implements the paper's
//! *nested selection* (§5): "the user can tap the same box multiple
//! times to select enclosing boxes" — [`hit_stack`] returns the whole
//! chain from root to the deepest box.

use crate::geom::Point;
use crate::layout::{LayoutItem, LayoutTree};

/// The deepest box containing `point`, as a box-tree path.
pub fn hit_test(tree: &LayoutTree, point: Point) -> Option<Vec<usize>> {
    hit_stack(tree, point).into_iter().next_back()
}

/// All boxes containing `point`, outermost first (each entry is a path).
/// Tapping repeatedly can walk up this chain to select enclosing boxes.
pub fn hit_stack(tree: &LayoutTree, point: Point) -> Vec<Vec<usize>> {
    hit_boxes(tree, point)
        .into_iter()
        .map(|index| tree.path_of(index))
        .collect()
}

/// Indices of all boxes containing `point`, outermost first: a pre-order
/// walk that skips the subtree of every box missing the point.
fn hit_boxes(tree: &LayoutTree, point: Point) -> Vec<usize> {
    let boxes = tree.boxes();
    let mut stack = Vec::new();
    let mut index = 0;
    while let Some(node) = boxes.get(index) {
        if node.rect.contains(point) {
            stack.push(index);
            index += 1;
        } else {
            index = node.end;
        }
    }
    stack
}

/// The deepest box under `point` that has a tap handler — where a user
/// tap actually lands. Inner boxes win over enclosing ones, like DOM
/// event targeting.
pub fn hit_test_tappable(tree: &LayoutTree, point: Point) -> Option<Vec<usize>> {
    hit_boxes(tree, point)
        .into_iter()
        .rev()
        .find(|&index| tree.boxes()[index].style.tappable)
        .map(|index| tree.path_of(index))
}

/// The text cell under `point`: the deepest box containing the point
/// that has a text item whose rect contains it, as `(box path, leaf
/// ordinal)`. The ordinal counts `Text` items within the box in item
/// order, which is exactly the order of `BoxNode::leaves()` — so the
/// result keys straight into
/// `BoxNode::leaf_with_provenance(ordinal)` for bidirectional
/// manipulation (select a rendered value, recover where it came from).
pub fn hit_test_leaf(tree: &LayoutTree, point: Point) -> Option<(Vec<usize>, usize)> {
    let mut found = None;
    for index in hit_boxes(tree, point) {
        let texts = tree
            .items(&tree.boxes()[index])
            .iter()
            .filter_map(|item| match item {
                LayoutItem::Text { rect, .. } => Some(rect),
                LayoutItem::Child(_) => None,
            });
        for (ordinal, rect) in texts.enumerate() {
            if rect.contains(point) {
                found = Some((index, ordinal));
            }
        }
    }
    found.map(|(index, ordinal)| (tree.path_of(index), ordinal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout;
    use alive_core::boxtree::{BoxItem, BoxNode};
    use alive_core::{Attr, Value};

    /// root(vertical): [a "aaaa"] [b: [c "cc"]] where b has ontap.
    fn sample() -> LayoutTree {
        let mut a = BoxNode::new(None);
        a.items.push(BoxItem::leaf(Value::str("aaaa")));
        let mut c = BoxNode::new(None);
        c.items.push(BoxItem::leaf(Value::str("cc")));
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::attr(
            Attr::OnTap,
            Value::Prim(alive_core::Prim::MathFloor),
        ));
        b.push_child(c);
        let mut root = BoxNode::new(None);
        root.push_child(a);
        root.push_child(b);
        layout(&root)
    }

    #[test]
    fn hit_finds_deepest_box() {
        let tree = sample();
        // Row 0 is box a; row 1 is c inside b.
        assert_eq!(hit_test(&tree, Point::new(0, 0)), Some(vec![0]));
        assert_eq!(hit_test(&tree, Point::new(0, 1)), Some(vec![1, 0]));
        assert_eq!(hit_test(&tree, Point::new(50, 50)), None);
    }

    #[test]
    fn hit_stack_supports_nested_selection() {
        let tree = sample();
        let stack = hit_stack(&tree, Point::new(0, 1));
        assert_eq!(stack, vec![Vec::<usize>::new(), vec![1], vec![1, 0]]);
    }

    #[test]
    fn leaf_hit_resolves_box_and_ordinal() {
        let tree = sample();
        // Row 0 is the only leaf of box a; row 1 is the only leaf of c.
        assert_eq!(hit_test_leaf(&tree, Point::new(0, 0)), Some((vec![0], 0)));
        assert_eq!(
            hit_test_leaf(&tree, Point::new(0, 1)),
            Some((vec![1, 0], 0))
        );
        assert_eq!(hit_test_leaf(&tree, Point::new(50, 50)), None);
    }

    #[test]
    fn tappable_targeting_bubbles_to_handler() {
        let tree = sample();
        // The point is inside c (no handler); the tap lands on b.
        assert_eq!(hit_test_tappable(&tree, Point::new(0, 1)), Some(vec![1]));
        // Box a has no handler anywhere in its chain.
        assert_eq!(hit_test_tappable(&tree, Point::new(0, 0)), None);
    }
}
