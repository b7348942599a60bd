//! E10 — property-based tests over the core invariants:
//!
//! * arbitrary source mutations never crash a live session and always
//!   leave a well-typed, stable system (accept-or-reject totality);
//! * the Fig. 12 fix-up keeps exactly the well-typed store entries;
//! * layout geometry: children stay inside parents, siblings do not
//!   overlap, hit-testing agrees with rectangles;
//! * the pretty-printer is idempotent on generated expressions;
//! * batch text edits agree with one-at-a-time application.

use alive_testkit::{prop, prop_assert, prop_assert_eq, NoShrink, Rng};
use its_alive::core::boxtree::{BoxItem, BoxNode};
use its_alive::core::fixup::fixup_store;
use its_alive::core::state_typing::assert_well_typed;
use its_alive::core::store::Store;
use its_alive::core::{compile, Attr, Value};
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};
use its_alive::syntax::{apply_edits, parse_expr, pretty_expr, Span, TextEdit};
use its_alive::ui::{hit_test, layout, Point};

/// Tap the box at `path`, asserting the session did not refuse it.
fn tap(session: &mut LiveSession, path: &[usize]) {
    let effects = session.apply(SessionCommand::TapPath(path.to_vec()));
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "tap {path:?} refused: {effects:?}"
    );
}

// ---------------------------------------------------------------------
// Live-edit fuzzing
// ---------------------------------------------------------------------

const SEED_SRC: &str = r#"
global count : number = 0
global label : string = "taps"
page start() {
    init { count := count + 1; }
    render {
        boxed {
            post label ++ ": " ++ count;
            box.margin := 1;
            on tap { count := count + 10; }
        }
        for i in 0 .. 3 {
            boxed { post i; }
        }
    }
}
"#;

/// A random mutation of the seed source: insert, delete, or replace a
/// small region.
fn mutated_source(rng: &mut Rng) -> String {
    const INSERTIONS: &str = r#" {}();:=+-*/"abcdefg0123456789 boxed post global render"#;
    let mut src = SEED_SRC.to_string();
    let pos = rng.below(SEED_SRC.len());
    let len = rng.below(16);
    let ins: String = {
        let chars: Vec<char> = INSERTIONS.chars().collect();
        rng.choose(&chars).to_string()
    };
    let kind = rng.below(3) as u8;
    // Snap to a char boundary.
    let mut at = pos.min(src.len());
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    match kind {
        0 => src.insert_str(at, &ins), // insertion
        1 => {
            // deletion
            let mut end = (at + len).min(src.len());
            while !src.is_char_boundary(end) {
                end -= 1;
            }
            src.replace_range(at..end.max(at), "");
        }
        _ => {
            // replacement
            let mut end = (at + len).min(src.len());
            while !src.is_char_boundary(end) {
                end -= 1;
            }
            src.replace_range(at..end.max(at), &ins);
        }
    }
    src
}

/// Whatever the keystroke does, the session stays alive: the edit is
/// either applied (system now runs the new code) or rejected (old code
/// keeps running), and the state is well-typed either way.
#[test]
fn random_edits_never_kill_the_session() {
    prop::check(
        "random_edits_never_kill_the_session",
        prop::Config::with_cases(96),
        mutated_source,
        |mutated: &String| {
            let mut session = LiveSession::new(SEED_SRC).expect("seed compiles");
            tap(&mut session, &[0]);
            let before_view = session.live_view();

            // A source edit is total: applied, rejected, or quarantined
            // (accepted code that faulted at run time — e.g. a mutated
            // loop bound diverging — is auto-reverted).
            let effects = session.apply(SessionCommand::EditSource(mutated.clone()));
            assert_well_typed(session.system());
            prop_assert!(session.system().is_stable());
            if !matches!(effects[0], SessionEffect::EditApplied(_)) {
                // Rejected or quarantined: the old program must be
                // untouched (quarantine restores it wholesale).
                prop_assert_eq!(session.source(), SEED_SRC);
                prop_assert_eq!(session.live_view(), before_view.clone());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Fix-up soundness
// ---------------------------------------------------------------------

/// A random data value: numbers, strings, bools, and shallow
/// tuples/lists thereof. Finite numbers only — store equality is the
/// property under test, not NaN semantics.
fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    if depth == 0 || rng.chance(3, 5) {
        match rng.below(3) {
            0 => {
                let magnitude = rng.gen_f64() * 1e9 - 5e8;
                Value::Number(magnitude.trunc())
            }
            1 => Value::str(rng.string_in("abcxyz0189 _.!", 0, 12)),
            _ => Value::Bool(rng.gen_bool()),
        }
    } else {
        let n = rng.below(4);
        let items: Vec<Value> = (0..n).map(|_| arb_value(rng, depth - 1)).collect();
        if rng.gen_bool() {
            Value::tuple(items)
        } else {
            Value::list(items)
        }
    }
}

/// `C' : S ▷ S'` keeps exactly the entries whose value inhabits the
/// declared type; the kept store re-fixes to itself (idempotence).
#[test]
fn fixup_keeps_exactly_the_well_typed() {
    prop::check(
        "fixup_keeps_exactly_the_well_typed",
        prop::Config::with_cases(128),
        |rng| {
            let n = rng.below(6);
            NoShrink(
                (0..n)
                    .map(|_| {
                        let name = *rng.choose(&["count", "label", "ghost"]);
                        (name, arb_value(rng, 3))
                    })
                    .collect::<Vec<(&str, Value)>>(),
            )
        },
        |entries: &NoShrink<Vec<(&str, Value)>>| {
            let program = compile(SEED_SRC).expect("compiles");
            let mut store = Store::new();
            for (name, value) in &entries.0 {
                store.set(*name, value.clone());
            }
            let (fixed, report) = fixup_store(&program, &store);
            for (name, value) in fixed.iter() {
                let decl = program.global(name).expect("kept entries are declared");
                prop_assert!(value.has_type(&decl.ty));
            }
            prop_assert_eq!(fixed.len() + report.dropped_globals.len(), store.len());
            let (refixed, report2) = fixup_store(&program, &fixed);
            prop_assert_eq!(&refixed, &fixed, "fix-up is idempotent");
            prop_assert!(report2.dropped_globals.is_empty());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Layout geometry
// ---------------------------------------------------------------------

fn arb_box_tree(rng: &mut Rng, depth: usize) -> BoxNode {
    let mut node = BoxNode::new(None);
    node.items.push(BoxItem::attr(
        Attr::Margin,
        Value::Number(rng.below(3) as f64),
    ));
    node.items.push(BoxItem::attr(
        Attr::Padding,
        Value::Number(rng.below(3) as f64),
    ));
    if rng.gen_bool() {
        node.items
            .push(BoxItem::attr(Attr::Horizontal, Value::Bool(true)));
    }
    let text = rng.string_in("abcdefghijklmnopqrstuvwxyz", 0, 6);
    if !text.is_empty() {
        node.items.push(BoxItem::leaf(Value::str(text)));
    }
    if depth > 0 {
        for _ in 0..rng.below(4) {
            node.push_child(arb_box_tree(rng, depth - 1));
        }
    }
    node
}

/// Geometry invariants of the layout substrate.
#[test]
fn layout_geometry_is_sane() {
    prop::check(
        "layout_geometry_is_sane",
        prop::Config::with_cases(128),
        |rng| NoShrink(arb_box_tree(rng, 3)),
        |root: &NoShrink<BoxNode>| {
            let tree = layout(&root.0);
            for node in tree.boxes() {
                // Children (including their margins) stay inside the parent.
                let mut child_rects = Vec::new();
                for c in tree.children(node).map(|c| &tree.boxes()[c]) {
                    let m = c.style.margin;
                    let outer = c.rect;
                    assert!(outer.left() - m >= node.rect.left(), "left overflow");
                    assert!(outer.top() - m >= node.rect.top(), "top overflow");
                    assert!(outer.right() + m <= node.rect.right(), "right overflow");
                    assert!(outer.bottom() + m <= node.rect.bottom(), "bottom overflow");
                    child_rects.push(outer);
                }
                // Siblings never overlap.
                for (i, a) in child_rects.iter().enumerate() {
                    for b in child_rects.iter().skip(i + 1) {
                        let disjoint = a.right() <= b.left()
                            || b.right() <= a.left()
                            || a.bottom() <= b.top()
                            || b.bottom() <= a.top()
                            || a.size.is_empty()
                            || b.size.is_empty();
                        assert!(disjoint, "siblings overlap: {a} vs {b}");
                    }
                }
            }

            // Hit-testing agrees with rectangles: hitting a box's top-left
            // cell finds that box or one of its descendants.
            for (index, node) in tree.boxes().iter().enumerate() {
                if node.rect.size.is_empty() {
                    continue;
                }
                let p = Point::new(node.rect.left(), node.rect.top());
                let hit = hit_test(&tree, p).expect("inside the root");
                let path = tree.path_of(index);
                assert!(
                    hit.starts_with(&path[..]) || path.starts_with(&hit[..]),
                    "hit {hit:?} unrelated to box {:?}",
                    path
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Pretty-printer and text edits
// ---------------------------------------------------------------------

/// Well-formed expression source via a tiny grammar.
fn arb_expr_src(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 || rng.chance(2, 5) {
        match rng.below(4) {
            0 => rng.below(1000).to_string(),
            1 => "true".to_string(),
            2 => "false".to_string(),
            _ => format!("\"{}\"", rng.string_in("abcdefghijklmnopqrstuvwxyz", 1, 5)),
        }
    } else {
        let a = arb_expr_src(rng, depth - 1);
        match rng.below(6) {
            0 => format!("({a} + {})", arb_expr_src(rng, depth - 1)),
            1 => format!("({a} ++ {})", arb_expr_src(rng, depth - 1)),
            2 => format!("({a}, {})", arb_expr_src(rng, depth - 1)),
            3 => format!("({a}, {}).1", arb_expr_src(rng, depth - 1)),
            4 => format!("[{a}]"),
            _ => format!("-({a})"),
        }
    }
}

/// pretty ∘ parse is idempotent: printing a parsed expression and
/// re-parsing yields the same print.
#[test]
fn pretty_print_is_idempotent() {
    prop::check(
        "pretty_print_is_idempotent",
        prop::Config::with_cases(256),
        |rng| NoShrink(arb_expr_src(rng, 4)),
        |src: &NoShrink<String>| {
            let first = parse_expr(&src.0).expect("generated source parses");
            let printed = pretty_expr(&first);
            let second = parse_expr(&printed)
                .unwrap_or_else(|e| panic!("pretty output must parse: {printed:?}: {e}"));
            prop_assert_eq!(printed.clone(), pretty_expr(&second));
            Ok(())
        },
    );
}

/// Batch edit application agrees with right-to-left one-at-a-time
/// application.
#[test]
fn batch_edits_agree_with_sequential() {
    prop::check(
        "batch_edits_agree_with_sequential",
        prop::Config::with_cases(256),
        |rng| {
            let text = rng.string_in("abcdefghijklmnopqrstuvwxyz", 10, 40);
            let n = rng.below(5);
            let cuts: Vec<(usize, usize, String)> = (0..n)
                .map(|_| {
                    (
                        rng.below(40),
                        rng.below(5),
                        rng.string_in("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 0, 3),
                    )
                })
                .collect();
            (text, cuts)
        },
        |(text, cuts): &(String, Vec<(usize, usize, String)>)| {
            // Build non-overlapping edits by sorting and deduplicating.
            let mut edits: Vec<TextEdit> = Vec::new();
            let mut taken: Vec<(u32, u32)> = Vec::new();
            for (start, len, replacement) in cuts {
                let start = (*start).min(text.len()) as u32;
                let end = (start + *len as u32).min(text.len() as u32);
                if taken.iter().any(|&(s, e)| {
                    start < e && s < end
                        || (start == s && end == e)
                        || (start == s && (start == end || s == e))
                }) {
                    continue;
                }
                taken.push((start, end));
                edits.push(TextEdit::replace(Span::new(start, end), replacement));
            }
            let batch = apply_edits(text, &edits).expect("non-overlapping");
            // Sequentially, right to left so spans stay valid.
            let mut sequential = text.clone();
            let mut sorted = edits.clone();
            sorted.sort_by_key(|e| std::cmp::Reverse(e.span.start));
            for e in sorted {
                sequential
                    .replace_range(e.span.start as usize..e.span.end as usize, &e.replacement);
            }
            prop_assert_eq!(batch, sequential);
            Ok(())
        },
    );
}
