//! Box content — the paper's `B` (Figure 7) and display `D`.
//!
//! `B ::= ε | B v | B [a = v] | B ⟨B⟩` — a box's content is a sequence of
//! posted leaf values, attribute settings, and nested boxes. The display
//! is either box content or `⊥` (stale, awaiting a RENDER transition).

use crate::attr::Attr;
use crate::expr::BoxSourceId;
use crate::provenance::Provenance;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// One item in a box's content sequence.
///
/// Leaves and attributes carry optional [`Provenance`] — where the value
/// came from in the source — but provenance is **ignored by equality**:
/// two frames that render the same pixels compare equal even if one was
/// produced by an engine (smallstep) that tags nothing. This keeps the
/// three-way differential oracles and damage diffing value-based.
#[derive(Debug, Clone)]
pub enum BoxItem {
    /// `B v` — a posted leaf value, with the origin of the value.
    Leaf(Value, Option<Provenance>),
    /// `B [a = v]` — an attribute setting, with the origin of the value.
    Attr(Attr, Value, Option<Provenance>),
    /// `B ⟨B⟩` — a nested box. Children are reference-counted so that
    /// unchanged subtrees can be *shared* across frames: a memo-cache
    /// splice is an O(1) pointer copy, and downstream passes (layout,
    /// paint) can detect "nothing changed here" by pointer identity.
    Child(Arc<BoxNode>),
}

impl PartialEq for BoxItem {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BoxItem::Leaf(a, _), BoxItem::Leaf(b, _)) => a == b,
            (BoxItem::Attr(aa, av, _), BoxItem::Attr(ba, bv, _)) => aa == ba && av == bv,
            (BoxItem::Child(a), BoxItem::Child(b)) => a == b,
            _ => false,
        }
    }
}

impl BoxItem {
    /// A leaf with no provenance (tests and synthetic trees).
    pub fn leaf(value: Value) -> BoxItem {
        BoxItem::Leaf(value, None)
    }

    /// An attribute setting with no provenance (tests and synthetic
    /// trees).
    pub fn attr(attr: Attr, value: Value) -> BoxItem {
        BoxItem::Attr(attr, value, None)
    }

    /// The provenance carried by this item, if any.
    pub fn provenance(&self) -> Option<&Provenance> {
        match self {
            BoxItem::Leaf(_, p) | BoxItem::Attr(_, _, p) => p.as_ref(),
            BoxItem::Child(_) => None,
        }
    }
}

/// A box: its content sequence plus the identity of the `boxed`
/// statement that created it (None for the implicit top-level box).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BoxNode {
    /// The source `boxed` statement, for UI↔code navigation.
    pub source: Option<BoxSourceId>,
    /// Content in creation order.
    pub items: Vec<BoxItem>,
}

impl BoxNode {
    /// An empty box created by the given source statement.
    pub fn new(source: Option<BoxSourceId>) -> Self {
        BoxNode {
            source,
            items: Vec::new(),
        }
    }

    /// The current value of attribute `a`: rightmost setting wins, as in
    /// the sequence semantics of Fig. 7.
    pub fn attr(&self, attr: Attr) -> Option<&Value> {
        self.items.iter().rev().find_map(|item| match item {
            BoxItem::Attr(a, v, _) if *a == attr => Some(v),
            _ => None,
        })
    }

    /// Posted leaf values, in order.
    pub fn leaves(&self) -> impl Iterator<Item = &Value> {
        self.items.iter().filter_map(|item| match item {
            BoxItem::Leaf(v, _) => Some(v),
            _ => None,
        })
    }

    /// The `ordinal`-th posted leaf (what hit-testing resolves a text
    /// cell to) together with its provenance.
    pub fn leaf_with_provenance(&self, ordinal: usize) -> Option<(&Value, Option<&Provenance>)> {
        self.items
            .iter()
            .filter_map(|item| match item {
                BoxItem::Leaf(v, p) => Some((v, p.as_ref())),
                _ => None,
            })
            .nth(ordinal)
    }

    /// Nested child boxes, in order.
    pub fn children(&self) -> impl Iterator<Item = &BoxNode> {
        self.items.iter().filter_map(|item| match item {
            BoxItem::Child(b) => Some(&**b),
            _ => None,
        })
    }

    /// Nested child boxes as shared handles, in order — for passes that
    /// want to keep (or compare) the `Arc` identity of a subtree.
    pub fn children_shared(&self) -> impl Iterator<Item = &Arc<BoxNode>> {
        self.items.iter().filter_map(|item| match item {
            BoxItem::Child(b) => Some(b),
            _ => None,
        })
    }

    /// Append a child box, taking ownership and sharing it.
    pub fn push_child(&mut self, child: BoxNode) {
        self.items.push(BoxItem::Child(Arc::new(child)));
    }

    /// Follow a path of child indices (`[]` = self).
    pub fn descendant(&self, path: &[usize]) -> Option<&BoxNode> {
        let mut node = self;
        for &i in path {
            node = node.children().nth(i)?;
        }
        Some(node)
    }

    /// Total number of boxes in the tree, including self.
    pub fn box_count(&self) -> usize {
        1 + self.children().map(BoxNode::box_count).sum::<usize>()
    }

    /// Depth of the tree (a lone box has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().map(BoxNode::depth).max().unwrap_or(0)
    }

    /// Visit every box in the tree, pre-order, with its path.
    pub fn walk(&self, visit: &mut dyn FnMut(&[usize], &BoxNode)) {
        fn go(node: &BoxNode, path: &mut Vec<usize>, visit: &mut dyn FnMut(&[usize], &BoxNode)) {
            visit(path, node);
            for (i, child) in node.children().enumerate() {
                path.push(i);
                go(child, path, visit);
                path.pop();
            }
        }
        go(self, &mut Vec::new(), visit);
    }

    /// Paths of every box created by the given source statement — the
    /// "code → boxes" direction of Fig. 2 navigation (one statement in a
    /// loop yields many boxes).
    pub fn find_by_source(&self, source: BoxSourceId) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        self.walk(&mut |path, node| {
            if node.source == Some(source) {
                out.push(path.to_vec());
            }
        });
        out
    }
}

/// The display component `D ::= ⊥ | B` of the system state, extended
/// with a degraded third state for fault containment: the last *good*
/// box tree, kept on screen after a failed transition.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Display {
    /// `⊥` — stale; must be re-rendered before the user can interact.
    #[default]
    Invalid,
    /// Valid box content currently shown to the user. The box is the
    /// implicit top-level box of §4.3, behind a shared handle so a host
    /// can fan one frame out to many observers without copying.
    Valid(Arc<BoxNode>),
    /// The last good box content, shown while the machine is degraded
    /// by a contained fault. The user can still see (and interact with)
    /// this tree; the next successful transition replaces it.
    Stale(Arc<BoxNode>),
}

impl Display {
    /// The box content on screen, if any (valid or last-good stale).
    pub fn content(&self) -> Option<&BoxNode> {
        match self {
            Display::Invalid => None,
            Display::Valid(b) | Display::Stale(b) => Some(b),
        }
    }

    /// The box content as a shared handle — cloning the result is an
    /// O(1) refcount bump, so many observers can hold the same frame.
    pub fn content_shared(&self) -> Option<&Arc<BoxNode>> {
        match self {
            Display::Invalid => None,
            Display::Valid(b) | Display::Stale(b) => Some(b),
        }
    }

    /// Whether the display is valid (rendered and current).
    pub fn is_valid(&self) -> bool {
        matches!(self, Display::Valid(_))
    }

    /// Whether the display shows a last-good tree after a contained
    /// fault.
    pub fn is_stale(&self) -> bool {
        matches!(self, Display::Stale(_))
    }
}

impl fmt::Display for Display {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Display::Invalid => f.write_str("⊥"),
            Display::Valid(b) => write!(f, "{} boxes", b.box_count()),
            Display::Stale(b) => write!(f, "{} boxes (stale)", b.box_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(text: &str) -> BoxItem {
        BoxItem::leaf(Value::str(text))
    }

    fn sample() -> BoxNode {
        // root ⟨ a ⟨ c ⟩ ⟩ ⟨ b ⟩ with attrs on root.
        let mut c = BoxNode::new(Some(BoxSourceId(2)));
        c.items.push(leaf("c"));
        let mut a = BoxNode::new(Some(BoxSourceId(1)));
        a.items.push(leaf("a"));
        a.push_child(c);
        let mut b = BoxNode::new(Some(BoxSourceId(1)));
        b.items.push(leaf("b"));
        let mut root = BoxNode::new(None);
        root.items
            .push(BoxItem::attr(Attr::Margin, Value::Number(2.0)));
        root.push_child(a);
        root.push_child(b);
        root
    }

    #[test]
    fn rightmost_attr_wins() {
        let mut b = BoxNode::new(None);
        b.items
            .push(BoxItem::attr(Attr::Margin, Value::Number(1.0)));
        b.items
            .push(BoxItem::attr(Attr::Margin, Value::Number(9.0)));
        assert_eq!(b.attr(Attr::Margin), Some(&Value::Number(9.0)));
        assert_eq!(b.attr(Attr::Padding), None);
    }

    #[test]
    fn tree_metrics() {
        let root = sample();
        assert_eq!(root.box_count(), 4);
        assert_eq!(root.depth(), 3);
        assert_eq!(root.children().count(), 2);
    }

    #[test]
    fn descendant_paths() {
        let root = sample();
        let c = root.descendant(&[0, 0]).expect("c exists");
        assert_eq!(c.leaves().next(), Some(&Value::str("c")));
        assert!(root.descendant(&[5]).is_none());
        assert_eq!(root.descendant(&[]).map(BoxNode::box_count), Some(4));
    }

    #[test]
    fn find_by_source_handles_one_to_many() {
        let root = sample();
        let hits = root.find_by_source(BoxSourceId(1));
        assert_eq!(hits, vec![vec![0], vec![1]]);
        let hits2 = root.find_by_source(BoxSourceId(2));
        assert_eq!(hits2, vec![vec![0, 0]]);
        assert!(root.find_by_source(BoxSourceId(99)).is_empty());
    }

    #[test]
    fn display_states() {
        assert!(!Display::Invalid.is_valid());
        assert_eq!(Display::Invalid.content(), None);
        let d = Display::Valid(Arc::new(sample()));
        assert!(d.is_valid());
        assert_eq!(d.content().map(BoxNode::box_count), Some(4));
        assert_eq!(Display::Invalid.to_string(), "⊥");
    }
}
