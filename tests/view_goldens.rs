//! View goldens: the painted bytes of the display substrate, pinned.
//!
//! Every frame the 20 corpus programs paint — the first frame plus a
//! fixed seeded stream of 64 tap-stream commands each (taps, back, box
//! edits and screen taps, picked from the last frame) through
//! `LiveSession::apply` — and, for 256 generated box trees, the plain
//! text, ANSI and zoomed-out paints, the hit-test answers at every cell,
//! and the damage rectangles plus the damage-driven repaint between
//! consecutive trees are hashed (FNV-1a) and compared with
//! `tests/data/view_goldens.txt`.
//!
//! The goldens were recorded before the layout moved to flat buffers,
//! so they pin the nested layout's output byte for byte. A change that
//! means to alter what is painted re-records them with
//! `cargo test --test view_goldens -- --ignored bless_view_goldens` and
//! says why in its change log.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use its_alive::core::boxtree::{BoxItem, BoxNode};
use its_alive::core::{Attr, Color, Prim, Value};
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};
use its_alive::ui::{
    damage_rects, diff_displays, hit_stack, hit_test_leaf, hit_test_tappable, layout,
    render_to_ansi, render_to_text, render_zoomed_out, Point, TextFrame,
};

const GOLDENS: &str = "tests/data/view_goldens.txt";

/// Commands per corpus program after its first frame.
const STEPS: usize = 64;

/// Generated trees.
const TREES: usize = 256;

/// No generated tree may lay out wider or taller than this: the painted
/// canvas is clipped there, and a golden must show the whole frame.
const CLIP: i32 = 2048;

/// Streaming FNV-1a (64-bit), fed through `fmt::Write` so values hash
/// without being formatted into a buffer first.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash one record, terminated so that adjacent records cannot run
    /// together.
    fn record(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Corpus frames
// ---------------------------------------------------------------------

fn handler_paths(tree: &BoxNode, attr: Attr) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    tree.walk(&mut |path, node| {
        if node.attr(attr).is_some() {
            out.push(path.to_vec());
        }
    });
    out
}

/// The next tap-stream command, picked from the last frame: `Back` when
/// a page is pushed, a box edit on an `onedit` box, a screen tap at a
/// cell of the painted view, or a tap on a tappable box.
fn next_command(
    rng: &mut alive_corpus::Rng,
    tree: &BoxNode,
    view: &str,
    pages: usize,
) -> SessionCommand {
    if pages > 1 && rng.below(2) == 0 {
        return SessionCommand::Back;
    }
    let editable = handler_paths(tree, Attr::OnEdit);
    if !editable.is_empty() && rng.below(5) == 0 {
        let path = rng.choose(&editable).clone();
        let text = rng.below(100).to_string();
        return SessionCommand::EditBox { path, text };
    }
    if rng.below(8) == 0 {
        let rows = view.lines().count().max(1) as u64;
        let cols = view
            .lines()
            .map(|l| l.chars().count())
            .max()
            .unwrap_or(0)
            .max(1) as u64;
        let (x, y) = (rng.below(cols) as i32, rng.below(rows) as i32);
        return SessionCommand::TapAt { x, y };
    }
    let tappable = handler_paths(tree, Attr::OnTap);
    if tappable.is_empty() {
        return SessionCommand::Frame;
    }
    SessionCommand::TapPath(rng.choose(&tappable).clone())
}

/// Hash one command's answer: every frame's view, every tap's hit, and
/// the kind of anything else. `last` keeps the latest frame's view and
/// tree.
fn hash_effects(h: &mut Fnv, effects: &[SessionEffect], last: &mut (String, Option<Arc<BoxNode>>)) {
    for effect in effects {
        match effect {
            SessionEffect::Frame(frame) => {
                h.record(&frame.view);
                *last = (frame.view.clone(), frame.tree.clone());
            }
            SessionEffect::Tap { hit } => h.record(if *hit { "tap hit" } else { "tap miss" }),
            SessionEffect::Refused(_) => h.record("refused"),
            _ => h.record("other"),
        }
    }
}

fn corpus_goldens(out: &mut Vec<(String, String)>) {
    for program in alive_corpus::corpus() {
        let name = program.spec.name();
        let mut session = LiveSession::new(&program.source).expect("corpus program starts");
        let mut h = Fnv::new();
        let mut last = (String::new(), None);
        let first = session.apply(SessionCommand::Frame);
        hash_effects(&mut h, &first, &mut last);
        let mut rng = alive_corpus::Rng::new(alive_corpus::fnv1a_64(name.as_bytes()));
        for _ in 0..STEPS {
            let tree = last.1.clone().expect("corpus programs always render");
            let pages = session.system().page_stack().len();
            let command = next_command(&mut rng, &tree, &last.0, pages);
            let effects = session.apply(command);
            hash_effects(&mut h, &effects, &mut last);
        }
        out.push((format!("corpus/{name}"), format!("{:016x}", h.0)));
    }
}

// ---------------------------------------------------------------------
// Generated box trees
// ---------------------------------------------------------------------

const COLORS: [Color; 3] = [
    Color::new(170, 210, 240),
    Color::new(220, 50, 47),
    Color::new(1, 2, 3),
];

/// Text leaves: multi-line, non-ASCII, trailing Unicode white space that
/// `trim_end` strips (U+00A0, U+3000), inner spaces, and empty text.
const TEXTS: [&str; 14] = [
    "a",
    "hello",
    "two\nlines",
    "x\n\nz",
    "héllo wörld",
    "日本語",
    "nbsp\u{a0}",
    "ideo\u{3000}",
    "\u{a0}lead",
    "tab\tin",
    "",
    " ",
    "wide text that overflows",
    "end \n",
];

fn arb_leaf(rng: &mut alive_testkit::Rng) -> Value {
    match rng.below(8) {
        0..=3 => Value::str(*rng.choose(&TEXTS)),
        4 => Value::Number(*rng.choose(&[0.0, 7.0, -3.0, 2.5, 1e20, 0.125])),
        5 => Value::Bool(rng.gen_bool()),
        6 => Value::tuple(vec![Value::Number(1.0), Value::str("a\nb")]),
        _ => match rng.below(2) {
            0 => Value::Color(*rng.choose(&COLORS)),
            _ => Value::list(vec![Value::Bool(false), Value::str("日")]),
        },
    }
}

fn arb_attr(rng: &mut alive_testkit::Rng) -> BoxItem {
    let number = |rng: &mut alive_testkit::Rng, max: usize| {
        // Mostly small whole numbers; sometimes a fraction that rounds,
        // a negative that clamps, or a string the layout ignores.
        match rng.below(10) {
            0 => Value::Number(-1.0),
            1 => Value::Number(1.5),
            2 => Value::str("3"),
            _ => Value::Number(rng.below(max + 1) as f64),
        }
    };
    match rng.below(12) {
        0 => BoxItem::attr(Attr::Margin, number(rng, 2)),
        1 => BoxItem::attr(Attr::Padding, number(rng, 2)),
        2 => BoxItem::attr(Attr::Border, number(rng, 2)),
        3 => BoxItem::attr(Attr::FontSize, Value::Number(rng.gen_range(1..4) as f64)),
        4 => BoxItem::attr(Attr::Horizontal, Value::Bool(rng.gen_bool())),
        5 => BoxItem::attr(Attr::Background, Value::Color(*rng.choose(&COLORS))),
        6 => BoxItem::attr(Attr::Foreground, Value::Color(*rng.choose(&COLORS))),
        // Sizes smaller than the content, so text and children overflow.
        7 => BoxItem::attr(Attr::Width, number(rng, 6)),
        8 => BoxItem::attr(Attr::Height, number(rng, 4)),
        9 | 10 => BoxItem::attr(Attr::OnTap, Value::Prim(Prim::MathFloor)),
        _ => BoxItem::attr(Attr::OnEdit, Value::Prim(Prim::MathFloor)),
    }
}

/// A random box: attributes, leaves and children interleaved in any
/// order (attributes may repeat; the rightmost wins), or an empty box.
fn arb_tree(rng: &mut alive_testkit::Rng, depth: usize) -> BoxNode {
    let mut node = BoxNode::new(None);
    if rng.chance(1, 8) {
        return node;
    }
    for _ in 0..rng.below(6) {
        match rng.below(3) {
            0 => node.items.push(arb_attr(rng)),
            1 => node.items.push(BoxItem::leaf(arb_leaf(rng))),
            _ if depth > 0 => node.push_child(arb_tree(rng, depth - 1)),
            _ => node.items.push(BoxItem::leaf(arb_leaf(rng))),
        }
    }
    node
}

/// A small edit of `tree` that shares every untouched child subtree by
/// pointer, as the render memo's splices do: replace a leaf or an
/// attribute, add or drop an item, or recurse into one child.
fn mutate(rng: &mut alive_testkit::Rng, tree: &BoxNode, depth: usize) -> BoxNode {
    let mut next = BoxNode::new(tree.source);
    next.items = tree.items.clone();
    let children: Vec<usize> = next
        .items
        .iter()
        .enumerate()
        .filter(|(_, item)| matches!(item, BoxItem::Child(_)))
        .map(|(i, _)| i)
        .collect();
    match rng.below(6) {
        0 | 1 if !children.is_empty() => {
            let at = *rng.choose(&children);
            if let BoxItem::Child(child) = &next.items[at] {
                let edited = mutate(rng, child, depth.saturating_sub(1));
                next.items[at] = BoxItem::Child(Arc::new(edited));
            }
        }
        2 if !next.items.is_empty() => {
            let at = rng.below(next.items.len());
            next.items.remove(at);
        }
        3 => {
            let at = rng.below(next.items.len() + 1);
            next.items.insert(at, arb_attr(rng));
        }
        4 if depth > 0 => {
            let at = rng.below(next.items.len() + 1);
            next.items
                .insert(at, BoxItem::Child(Arc::new(arb_tree(rng, depth - 1))));
        }
        _ => {
            let at = rng.below(next.items.len() + 1);
            next.items.insert(at, BoxItem::leaf(arb_leaf(rng)));
        }
    }
    next
}

fn generated_trees() -> Vec<BoxNode> {
    let mut rng = alive_testkit::Rng::new(0x7669_6577_2d67_6f6c);
    let mut trees: Vec<BoxNode> = Vec::with_capacity(TREES);
    for i in 0..TREES {
        let tree = match trees.last() {
            Some(prev) if i % 4 != 0 => mutate(&mut rng, prev, 3),
            _ => arb_tree(&mut rng, 3),
        };
        trees.push(tree);
    }
    trees
}

/// The golden line of one generated tree (and of the step from the
/// previous tree to it).
fn tree_golden(prev: Option<&BoxNode>, tree: &BoxNode, frame: &mut TextFrame) -> String {
    let laid = layout(tree);
    let size = laid.size();
    assert!(
        size.w <= CLIP && size.h <= CLIP,
        "golden trees stay inside the clip: {size}"
    );

    let mut text = Fnv::new();
    let plain = render_to_text(&laid);
    text.record(&plain);
    for zoom in [2, 3] {
        text.record(&render_zoomed_out(&laid, zoom));
    }
    let _ = write!(text, "{size}");

    let mut ansi = Fnv::new();
    ansi.record(&render_to_ansi(&laid));

    let mut hits = Fnv::new();
    for y in -1..=size.h {
        for x in -1..=size.w {
            let p = Point::new(x, y);
            let _ = write!(
                hits,
                "{:?}{:?}{:?};",
                hit_stack(&laid, p),
                hit_test_leaf(&laid, p),
                hit_test_tappable(&laid, p)
            );
        }
    }

    let mut damage = Fnv::new();
    match prev {
        Some(prev) => {
            let prev_laid = layout(prev);
            let rects = damage_rects(&prev_laid, &laid, &diff_displays(prev, tree));
            let _ = write!(damage, "{rects:?}");
            match frame.render_damaged(&laid, &rects) {
                Some(partial) => {
                    assert_eq!(partial, plain, "a damaged repaint equals a full paint");
                    damage.record(&partial);
                    let _ = write!(damage, "partial {}", frame.cells_repainted());
                }
                None => {
                    damage.record(&frame.render_full(&laid));
                    let _ = write!(damage, "full {}", frame.cells_repainted());
                }
            }
        }
        None => damage.record(&frame.render_full(&laid)),
    }

    format!(
        "text={:016x} ansi={:016x} hits={:016x} damage={:016x}",
        text.0, ansi.0, hits.0, damage.0
    )
}

fn tree_goldens(out: &mut Vec<(String, String)>) {
    let trees = generated_trees();
    let mut frame = TextFrame::new();
    for (i, tree) in trees.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| &trees[p]);
        out.push((format!("tree/{i:03}"), tree_golden(prev, tree, &mut frame)));
    }
}

// ---------------------------------------------------------------------
// The golden file
// ---------------------------------------------------------------------

fn render_goldens(entries: &[(String, String)]) -> String {
    let mut out =
        String::from("# View goldens: FNV-1a hashes of painted views (tests/view_goldens.rs).\n");
    for (name, hash) in entries {
        let _ = writeln!(out, "{name} {hash}");
    }
    out
}

fn all_goldens() -> Vec<(String, String)> {
    let mut entries = Vec::new();
    corpus_goldens(&mut entries);
    tree_goldens(&mut entries);
    entries
}

/// Re-record the golden file (run with
/// `cargo test --test view_goldens -- --ignored bless_view_goldens`).
#[test]
#[ignore = "bless: regenerates the view goldens"]
fn bless_view_goldens() {
    std::fs::create_dir_all("tests/data").expect("mkdir");
    std::fs::write(GOLDENS, render_goldens(&all_goldens())).expect("write the goldens");
}

#[test]
fn painted_views_match_the_goldens() {
    let entries = all_goldens();
    let actual = render_goldens(&entries);
    let expected = std::fs::read_to_string(GOLDENS).expect("the goldens are checked in");
    let mismatches: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} of {} views differ from {GOLDENS}:\n{}\nif the change in what is painted \
         is intended, regenerate them with:\n  cargo test --test view_goldens -- \
         --ignored bless_view_goldens",
        mismatches.len(),
        entries.len(),
        mismatches.join("\n")
    );
}
