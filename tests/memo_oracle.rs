//! The §5 render memo is invisible: a session with the memo on shows
//! byte-for-byte the frames of a session with it off.
//!
//! A seeded walk drives `LiveSession::new` and `LiveSession::with_memo`
//! in lockstep over every corpus program — taps, back, box edits,
//! source keystrokes, undo/redo, snapshot restores, and handler faults
//! injected by a [`FaultPlan`] — and compares `live_view` after every
//! command. Memo keys are built from the store's write stamps, so the
//! walk leans on the paths that copy stamps around: transition
//! rollback, `Restore`, and undo. Replay a failure with
//! `ALIVE_TESTKIT_SEED=<seed> cargo test --test memo_oracle`.

use std::cell::Cell;

use alive_testkit::{prop, prop_assert_eq, FaultPlan, Rng, Shrink};
use its_alive::core::boxtree::BoxNode;
use its_alive::core::{Attr, TransitionKind};
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};

/// One walk command. Targets are ordinals resolved against the frame
/// (or source) current when the command runs, so every tap lands on a
/// real handler.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Tap(usize),
    Back,
    EditBox(usize, u8),
    /// Insert a letter at the start of the Nth string literal.
    Keystroke(usize),
    /// A syntax error: rejected, the old program keeps running.
    BrokenKeystroke,
    Undo,
    Redo,
    Snapshot,
    Restore,
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Op> {
        Vec::new()
    }
}

/// `(handler ordinal, fuel)` throttles plus the command list. Handler
/// transitions run identically with and without the memo, so both
/// sessions fault on the same taps; a small budget lets a handler write
/// some globals before it runs dry and rolls back.
type Case = (Vec<(u64, u64)>, Vec<Op>);

fn arb_case(rng: &mut Rng) -> Case {
    let throttles = (0..rng.below(3))
        .map(|_| (rng.gen_range(1..10) as u64, rng.gen_range(1..40) as u64))
        .collect();
    let ops = (0..rng.gen_range(4..18))
        .map(|_| match rng.below(16) {
            0..=5 => Op::Tap(rng.below(1000)),
            6 => Op::Back,
            7 | 8 => Op::EditBox(rng.below(1000), rng.below(100) as u8),
            9 | 10 => Op::Keystroke(rng.below(1000)),
            11 => Op::BrokenKeystroke,
            12 => Op::Undo,
            13 => Op::Redo,
            14 => Op::Snapshot,
            _ => Op::Restore,
        })
        .collect();
    (throttles, ops)
}

fn handler_paths(tree: &BoxNode, attr: Attr) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    tree.walk(&mut |path, node| {
        if node.attr(attr).is_some() {
            out.push(path.to_vec());
        }
    });
    out
}

/// Byte offsets just past each string literal's opening quote (corpus
/// programs have no escaped quotes and no quotes in comments).
fn literal_starts(source: &str) -> Vec<usize> {
    source
        .match_indices('"')
        .map(|(i, _)| i + 1)
        .step_by(2)
        .collect()
}

/// Resolve an op against the current state into a session command.
fn command_for(op: &Op, session: &mut LiveSession, snapshot: &Option<String>) -> SessionCommand {
    let tree = session.display_tree();
    let pick = |attr: Attr, n: usize| {
        let paths = tree
            .as_deref()
            .map(|t| handler_paths(t, attr))
            .unwrap_or_default();
        (!paths.is_empty()).then(|| paths[n % paths.len()].clone())
    };
    match op {
        Op::Tap(n) => pick(Attr::OnTap, *n).map_or(SessionCommand::Frame, SessionCommand::TapPath),
        Op::Back => SessionCommand::Back,
        Op::EditBox(n, text) => {
            pick(Attr::OnEdit, *n).map_or(SessionCommand::Frame, |path| SessionCommand::EditBox {
                path,
                text: text.to_string(),
            })
        }
        Op::Keystroke(n) => {
            let source = session.source().to_string();
            let starts = literal_starts(&source);
            if starts.is_empty() {
                return SessionCommand::Frame;
            }
            let at = starts[n % starts.len()];
            let letter = char::from(b'a' + (n % 26) as u8);
            SessionCommand::EditSource(format!("{}{letter}{}", &source[..at], &source[at..]))
        }
        Op::BrokenKeystroke => {
            SessionCommand::EditSource(session.source().replacen("render {", "render {{", 1))
        }
        Op::Undo => SessionCommand::Undo,
        Op::Redo => SessionCommand::Redo,
        Op::Snapshot => SessionCommand::Snapshot,
        Op::Restore => snapshot
            .clone()
            .map_or(SessionCommand::Frame, SessionCommand::Restore),
    }
}

fn session_pair(source: &str, throttles: &[(u64, u64)]) -> (LiveSession, LiveSession) {
    let mut plain = LiveSession::new(source).expect("corpus program starts");
    let mut memo = LiveSession::with_memo(source).expect("corpus program starts");
    for session in [&mut plain, &mut memo] {
        let plan = throttles
            .iter()
            .fold(FaultPlan::new(), |plan, &(nth, fuel)| {
                plan.throttle_fuel(TransitionKind::Handler, nth, fuel)
            });
        session.system_mut().set_fault_injector(plan.shared());
    }
    (plain, memo)
}

#[test]
fn memo_session_matches_plain_session_on_every_corpus_program() {
    let memo_hits = Cell::new(0);
    let handler_faults = Cell::new(0);
    for (index, entry) in alive_corpus::corpus().into_iter().enumerate() {
        let name = entry.spec.name();
        prop::check(
            &format!("memo_oracle_{name}"),
            prop::Config::with_cases(4),
            // Every program runs from the same base seed; skipping
            // `index` draws gives each its own cases while
            // ALIVE_TESTKIT_SEED still replays the whole walk.
            |rng: &mut Rng| {
                for _ in 0..index {
                    rng.next_u64();
                }
                arb_case(rng)
            },
            |(throttles, ops): &Case| {
                let (mut plain, mut memo) = session_pair(&entry.source, throttles);
                prop_assert_eq!(plain.live_view(), memo.live_view());
                let mut snapshot = None;
                for (i, op) in ops.iter().enumerate() {
                    let command = command_for(op, &mut plain, &snapshot);
                    if let Op::Snapshot = op {
                        snapshot = plain.system().snapshot().ok();
                    }
                    plain.apply(command.clone());
                    memo.apply(command.clone());
                    let (want, got) = (plain.live_view(), memo.live_view());
                    if want != got {
                        return Err(format!(
                            "{name}: step {i} ({command:?}) diverged\n\
                             --- memo off ---\n{want}--- memo on ---\n{got}"
                        ));
                    }
                    prop_assert_eq!(plain.system().store(), memo.system().store());
                }
                let stats = memo.memo_stats().expect("memo on");
                memo_hits.set(memo_hits.get() + stats.hits);
                handler_faults.set(handler_faults.get() + memo.fault_log().total());
                Ok(())
            },
        );
    }
    // Not vacuous: the memo actually served frames, and injected
    // handler faults actually rolled transitions back.
    assert!(memo_hits.get() > 0, "the walk never hit the memo");
    assert!(handler_faults.get() > 0, "the walk never faulted a handler");
}

/// A handler that writes a global and then faults is rolled back; a
/// later handler that writes a different value must show up in the
/// memoized frame, not a subtree cached for the rolled-back write.
#[test]
fn memo_shows_the_write_after_a_rolled_back_write() {
    const APP: &str = r#"
global g : number = 0
page start() {
    init { g := 0; }
    render {
        boxed { post "g is " ++ g; }
        boxed { post "bad"; on tap { g := 1; list.nth([1], 9); } }
        boxed { post "good"; on tap { g := 2; } }
    }
}
"#;
    let mut plain = LiveSession::new(APP).expect("starts");
    let mut memo = LiveSession::with_memo(APP).expect("starts");
    let initial = memo.system().snapshot().expect("snapshots");
    for path in [vec![1], vec![2], vec![1], vec![2]] {
        for session in [&mut plain, &mut memo] {
            let effects = session.apply(SessionCommand::TapPath(path.clone()));
            assert!(
                !effects
                    .iter()
                    .any(|e| matches!(e, SessionEffect::Refused(_))),
                "tap is delivered: {effects:?}"
            );
        }
        assert_eq!(plain.live_view(), memo.live_view());
    }
    assert_eq!(memo.fault_log().total(), 2, "both bad taps faulted");
    assert!(
        memo.live_view().starts_with("g is 2\n"),
        "{}",
        memo.live_view()
    );

    // A restore rebuilds the store. Back-to-back restores of different
    // values must each reach the frame, so a rebuilt store must never
    // reuse a stamp the memo has already keyed a frame on.
    let two = memo.system().snapshot().expect("snapshots");
    for (snapshot, want) in [(&initial, "g is 0\n"), (&two, "g is 2\n")] {
        for session in [&mut plain, &mut memo] {
            session.apply(SessionCommand::Restore(snapshot.clone()));
        }
        assert_eq!(plain.live_view(), memo.live_view());
        assert!(memo.live_view().starts_with(want), "{}", memo.live_view());
    }
}

/// A render that reads a global the store lacks runs its initializer
/// (EP-GLOBAL-2), so a box that shows `label` depends on what `label`'s
/// initializer reads. Every tap on `count` must reach the memoized
/// frame, whether the initializer reads `count` directly or through a
/// helper function.
#[test]
fn memo_follows_the_reads_of_global_initializers() {
    for init in [r#""n=" ++ count"#, "describe()"] {
        let app = format!(
            r#"
global count : number = 0
global label : string = {init}
fun describe() : string pure {{ "n=" ++ count }}
page start() {{
    render {{
        boxed {{ post label; }}
        boxed {{ post "[ + ]"; on tap {{ count := count + 1; }} }}
    }}
}}
"#
        );
        let mut plain = LiveSession::new(&app).expect("starts");
        let mut memo = LiveSession::with_memo(&app).expect("starts");
        assert_eq!(plain.live_view(), memo.live_view(), "{init}: first frame");
        for n in 1..=3 {
            for session in [&mut plain, &mut memo] {
                session.apply(SessionCommand::TapPath(vec![1]));
            }
            let want = plain.live_view();
            assert!(want.starts_with(&format!("n={n}\n")), "{init}: {want}");
            assert_eq!(want, memo.live_view(), "{init}: after tap {n}");
        }
    }
}

/// Every `boxed` statement of every corpus program is cacheable, with
/// these read sets (by statement id; the same at every size). The walk
/// above would still pass if no box were cacheable, so this census is
/// what keeps the memo's hit rate on the corpus.
#[test]
fn corpus_boxes_stay_cacheable_with_their_read_sets() {
    const READS: [(&str, &[&[&str]]); 5] = [
        (
            "dashboard",
            &[
                &["metric_a", "metric_b"],
                &["samples"],
                &["metric_a", "metric_b"],
                &["metric_a", "metric_b"],
                &[],
            ],
        ),
        (
            "editor",
            &[&["edits", "lines"], &["lines"], &[], &[], &[], &[]],
        ),
        ("feed", &[&["hot", "taps"], &["hot", "scores"]]),
        (
            "form",
            &[
                &["fields"],
                &["fields"],
                &[],
                &["focus", "submitted"],
                &[],
                &[],
            ],
        ),
        ("game", &[&["cells", "moves", "score"], &["cells"]]),
    ];
    for entry in alive_corpus::corpus() {
        let name = entry.spec.name();
        let program = its_alive::core::compile(&entry.source).expect("compiles");
        let vm = program.vm().expect("the VM compiles it");
        let got: Vec<Vec<&str>> = vm
            .box_reads()
            .iter()
            .enumerate()
            .map(|(id, slots)| {
                let slots = slots
                    .as_deref()
                    .unwrap_or_else(|| panic!("{name}: statement {id} is not cacheable"));
                let mut names: Vec<&str> = slots
                    .iter()
                    .map(|&g| &*program.globals()[g as usize].name)
                    .collect();
                names.sort_unstable();
                names
            })
            .collect();
        let (_, want) = READS
            .iter()
            .find(|(kind, _)| name.starts_with(kind))
            .expect("a corpus kind");
        assert_eq!(
            got.len(),
            program.box_spans.len(),
            "{name}: every statement"
        );
        assert_eq!(&got, want, "{name}");
    }
}

/// The memo never compiles a program itself, so a memo session books
/// the same VM compiles as a plain one: at start, and after an edit,
/// whose first render already keys on the new program's read sets.
#[test]
fn memo_sessions_book_the_same_compiles() {
    let source = r#"
global count : number = 0
page start() {
    render {
        boxed { post "n=" ++ count; }
        boxed { post "[ + ]"; on tap { count := count + 1; } }
    }
}
"#;
    let compiles = |s: &LiveSession| s.metrics_snapshot().counter("eval.vm.compiles");
    let mut plain = LiveSession::new(source).expect("starts");
    let mut memo = LiveSession::with_memo(source).expect("starts");
    assert_eq!((compiles(&plain), compiles(&memo)), (1, 1), "at start");
    let edited = source.replacen("[ + ]", "[ add ]", 1);
    for session in [&mut plain, &mut memo] {
        let effects = session.apply(SessionCommand::EditSource(edited.clone()));
        assert!(
            matches!(effects.first(), Some(SessionEffect::EditApplied(_))),
            "{effects:?}"
        );
    }
    assert_eq!((compiles(&plain), compiles(&memo)), (2, 2), "after an edit");
    for session in [&mut plain, &mut memo] {
        session.apply(SessionCommand::TapPath(vec![1]));
    }
    assert_eq!(plain.live_view(), memo.live_view());
    // The tap changed `count`: the counter box recomputes, the button
    // is spliced from the first render after the edit.
    let stats = memo.memo_stats().expect("memo on");
    assert_eq!((stats.hits, stats.misses), (1, 3), "{stats:?}");
    assert_eq!(compiles(&memo), 2, "taps compile nothing");
}
