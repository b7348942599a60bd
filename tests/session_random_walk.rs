//! Random-walk fuzzing of whole sessions: arbitrary interleavings of
//! taps, box edits, back presses, code edits, undo, snapshot/restore —
//! the system must never panic, always settle to a stable, well-typed
//! state, and keep its display consistent with a from-scratch render.

use alive_testkit::{prop, prop_assert, prop_assert_eq, Rng, Shrink};
use its_alive::core::state_typing::assert_well_typed;
use its_alive::core::system::ActionError;
use its_alive::core::Attr;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect, SessionError};

#[derive(Debug, Clone, PartialEq)]
enum Action {
    Tap(usize, usize),
    EditBox(usize, String),
    Back,
    SourceTweak(u8),
    Undo,
    SnapshotRoundtrip,
}

impl Shrink for Action {
    fn shrink(&self) -> Vec<Action> {
        match self {
            Action::Tap(a, b) => (*a, *b)
                .shrink()
                .into_iter()
                .map(|(a, b)| Action::Tap(a, b))
                .collect(),
            Action::EditBox(p, t) => (*p, t.clone())
                .shrink()
                .into_iter()
                .map(|(p, t)| Action::EditBox(p, t))
                .collect(),
            Action::SourceTweak(w) => w.shrink().into_iter().map(Action::SourceTweak).collect(),
            Action::Back | Action::Undo | Action::SnapshotRoundtrip => Vec::new(),
        }
    }
}

fn arb_action(rng: &mut Rng) -> Action {
    match rng.below(6) {
        0 => Action::Tap(rng.below(8), rng.below(4)),
        1 => Action::EditBox(rng.below(8), rng.string_in("0123456789", 0, 3)),
        2 => Action::Back,
        3 => Action::SourceTweak(rng.below(4) as u8),
        4 => Action::Undo,
        _ => Action::SnapshotRoundtrip,
    }
}

const APP: &str = r#"
global score : number = 0
global label : string = "points"
page start() {
    init { }
    render {
        boxed {
            post label ++ ": " ++ score;
            on edited(t: string) { label := t; }
        }
        for i in 0 .. 3 {
            boxed {
                post "+" ++ (i + 1);
                on tap { score := score + i + 1; }
            }
        }
        boxed {
            post "open detail";
            on tap { push detail(score); }
        }
        boxed {
            remember local_hits : number = 0;
            post "widget " ++ local_hits;
            on tap { local_hits := local_hits + 1; }
        }
    }
}
page detail(n : number) {
    render {
        boxed { post "snapshot of " ++ n; on tap { pop; } }
    }
}
"#;

fn tweaked(src: &str, which: u8) -> String {
    match which {
        0 => src.replace("\": \"", "\" = \""),
        1 => src.replace("open detail", "details..."),
        2 => src.replace("score + i + 1", "score + (i + 1) * 2"),
        _ => src.replace("snapshot of ", "detail for "),
    }
}

/// Apply a user action: `Ok(true)` if it was delivered, `Ok(false)` if
/// it was refused as an undeliverable action — "the target does not
/// exist", a transiently invalid display, back at the root page: misses
/// are a legal thing for a user to do — and `Err` for any other refusal.
fn act(session: &mut LiveSession, command: SessionCommand) -> Result<bool, String> {
    match session.apply(command).first() {
        Some(SessionEffect::Refused(why)) if why.starts_with("action failed: ") => Ok(false),
        Some(SessionEffect::Refused(why)) => Err(why.clone()),
        _ => Ok(true),
    }
}

/// Drive one action against the session, mapping undeliverable actions
/// to clean no-ops and everything else that goes wrong to a hard
/// failure.
fn drive(session: &mut LiveSession, action: &Action) -> Result<(), String> {
    let result = match action {
        Action::Tap(a, b) => {
            // Try a one- or two-level path; misses are fine.
            act(session, SessionCommand::TapPath(vec![*a])).and_then(|hit| {
                if hit {
                    Ok(true)
                } else {
                    act(session, SessionCommand::TapPath(vec![*a, *b]))
                }
            })
        }
        Action::EditBox(p, t) => act(
            session,
            SessionCommand::EditBox {
                path: vec![*p],
                text: t.clone(),
            },
        ),
        // Back at the root page is a typed no-op, not a restart.
        Action::Back => act(session, SessionCommand::Back),
        Action::SourceTweak(w) => {
            let new_src = tweaked(session.source(), *w);
            // Total: applied, rejected, or quarantined — all fine.
            session.apply(SessionCommand::EditSource(new_src));
            Ok(true)
        }
        Action::Undo => {
            session.apply(SessionCommand::Undo);
            Ok(true)
        }
        Action::SnapshotRoundtrip => {
            let snap = session.system().snapshot().expect("store is function-free");
            let effects = session.apply(SessionCommand::Restore(snap));
            let Some(SessionEffect::Restored(report)) = effects.first() else {
                panic!("own snapshots parse: {effects:?}");
            };
            if !report.skipped.is_empty() {
                return Err(format!(
                    "own snapshot must restore fully, skipped {:?}",
                    report.skipped
                ));
            }
            Ok(true)
        }
    };
    result
        .map(drop)
        .map_err(|other| format!("action {action:?} failed hard: {other}"))
}

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

/// The refusal `apply` answers an undeliverable action with.
fn refused(error: ActionError) -> Vec<SessionEffect> {
    vec![SessionEffect::Refused(
        SessionError::Action(error).to_string(),
    )]
}

/// The incremental display must equal a fresh render of the same code +
/// model. Handler closures differ by construction context; compare the
/// observable structure instead: leaves + box counts per path.
fn assert_display_consistent(session: &mut LiveSession) -> Result<(), String> {
    let shown = session.display_tree().expect("renders");
    let mut fresh = its_alive::core::system::System::new(
        its_alive::core::compile(session.source()).expect("compiles"),
    );
    *fresh.debug_store_mut() = session.system().store().clone();
    *fresh.debug_widgets_mut() = session.system().widgets().clone();
    fresh.debug_set_pages(session.system().page_stack().to_vec());
    fresh.run_to_stable().expect("fresh render");
    let mut shown_leaves = Vec::new();
    shown.walk(&mut |path, node| {
        shown_leaves.push((
            path.to_vec(),
            node.leaves().map(|v| v.display_text()).collect::<Vec<_>>(),
        ));
    });
    let fresh_display = fresh.display().content().expect("valid").clone();
    let mut fresh_leaves = Vec::new();
    fresh_display.walk(&mut |path, node| {
        fresh_leaves.push((
            path.to_vec(),
            node.leaves().map(|v| v.display_text()).collect::<Vec<_>>(),
        ));
    });
    prop_assert_eq!(shown_leaves, fresh_leaves);
    Ok(())
}

#[test]
fn random_sessions_stay_alive_and_well_typed() {
    prop::check(
        "random_sessions_stay_alive_and_well_typed",
        prop::Config::with_cases(48),
        |rng| {
            let n = rng.gen_range(1..25);
            (0..n).map(|_| arb_action(rng)).collect::<Vec<Action>>()
        },
        |actions: &Vec<Action>| {
            let mut session = LiveSession::new(APP).expect("starts");
            for action in actions {
                drive(&mut session, action)?;
                prop_assert!(session.system().is_stable());
                assert_well_typed(session.system());
            }
            assert_display_consistent(&mut session)
        },
    );
}

// ---------------------------------------------------------------------
// Immortalized regressions and out-of-range action audits
// ---------------------------------------------------------------------

/// The formerly checked-in proptest regression
/// `cc 5da8… # shrinks to actions = [Tap(5, 0)]`: a tap on the last
/// rendered top-level box (the `remember` widget), and on every index
/// around and past the end of the tree, must be a clean no-op or a
/// typed `ActionError` — never a panic, and the display must stay
/// consistent with a from-scratch render.
#[test]
fn tap_out_of_range_is_safe() {
    for first in 4..=8usize {
        let mut session = LiveSession::new(APP).expect("starts");
        drive(&mut session, &Action::Tap(first, 0))
            .unwrap_or_else(|e| panic!("Tap({first}, 0): {e}"));
        assert!(session.system().is_stable(), "stable after Tap({first}, 0)");
        assert_well_typed(session.system());
        assert_display_consistent(&mut session).unwrap_or_else(|e| panic!("Tap({first}, 0): {e}"));
    }
}

/// `back` at the root page must be a typed error (no blind pop, no
/// hidden restart that would re-run init effects).
#[test]
fn back_at_root_is_a_typed_no_op() {
    let mut session = LiveSession::new(APP).expect("starts");
    let before = session.live_view();
    assert_eq!(
        session.apply(SessionCommand::Back),
        refused(ActionError::NoPageToPop),
        "expected NoPageToPop at root"
    );
    assert!(session.system().is_stable());
    assert_well_typed(session.system());
    assert_eq!(session.live_view(), before);

    // From a pushed page, back still works, and the second back is
    // again the typed no-op.
    tap(&mut session, &[4]); // open detail
    assert_eq!(
        session.system().current_page().map(|(n, _)| n),
        Some("detail")
    );
    let effects = session.apply(SessionCommand::Back);
    assert!(
        matches!(effects.as_slice(), [SessionEffect::Frame(_)]),
        "pops detail: {effects:?}"
    );
    assert_eq!(
        session.system().current_page().map(|(n, _)| n),
        Some("start")
    );
    assert_eq!(
        session.apply(SessionCommand::Back),
        refused(ActionError::NoPageToPop)
    );
}

/// An `EditBox` on a missing box or on a box without an `onedit`
/// handler must be refused with a typed `ActionError`, never a panic or
/// a state change.
#[test]
fn edit_box_out_of_range_is_a_typed_error() {
    let mut session = LiveSession::new(APP).expect("starts");
    let before = session.live_view();
    let edit_box = |path: usize| SessionCommand::EditBox {
        path: vec![path],
        text: "42".to_string(),
    };
    // Box 9 does not exist.
    assert_eq!(
        session.apply(edit_box(9)),
        refused(ActionError::NoSuchBox(vec![9])),
        "expected NoSuchBox"
    );
    // Box 1 exists but has no edit handler (it is tappable only).
    assert_eq!(
        session.apply(edit_box(1)),
        refused(ActionError::NoHandler(Attr::OnEdit)),
        "expected NoHandler"
    );
    assert!(session.system().is_stable());
    assert_well_typed(session.system());
    assert_eq!(session.live_view(), before);
}

/// The harness contract the whole suite leans on: the same seed must
/// produce identical action sequences, and a failing property must
/// shrink to the identical minimal counterexample, across two runs.
#[test]
fn testkit_is_deterministic_for_action_walks() {
    use std::cell::RefCell;

    let cfg = prop::Config::with_cases(16).seeded(0x5da8_2013);
    let gen = |rng: &mut Rng| {
        let n = rng.gen_range(1..25);
        (0..n).map(|_| arb_action(rng)).collect::<Vec<Action>>()
    };

    // Same seed ⇒ identical generated sequences.
    let first: RefCell<Vec<Vec<Action>>> = RefCell::new(Vec::new());
    let second: RefCell<Vec<Vec<Action>>> = RefCell::new(Vec::new());
    assert!(prop::check_captured(&cfg, gen, |actions: &Vec<Action>| {
        first.borrow_mut().push(actions.clone());
        Ok(())
    })
    .is_none());
    assert!(prop::check_captured(&cfg, gen, |actions: &Vec<Action>| {
        second.borrow_mut().push(actions.clone());
        Ok(())
    })
    .is_none());
    assert_eq!(first.borrow().len(), 16);
    assert_eq!(
        *first.borrow(),
        *second.borrow(),
        "same seed, same sequences"
    );

    // Same seed ⇒ identical failure and identical shrink. The property
    // "no walk ever taps" fails fast and shrinks to a single tap.
    let no_taps = |actions: &Vec<Action>| {
        prop_assert!(
            !actions.iter().any(|a| matches!(a, Action::Tap(..))),
            "walk contains a tap"
        );
        Ok(())
    };
    let a = prop::check_captured(&cfg, gen, no_taps).expect("must fail");
    let b = prop::check_captured(&cfg, gen, no_taps).expect("must fail");
    assert_eq!(a.case, b.case);
    assert_eq!(a.original, b.original);
    assert_eq!(a.minimal, b.minimal, "same seed, same shrink");
    assert_eq!(a.shrink_steps, b.shrink_steps);
    assert_eq!(a.message, b.message);
    assert_eq!(a.minimal, vec![Action::Tap(0, 0)], "fully shrunk");
}

/// Whether an `Undo` was answered with an applied history step.
fn undo_applied(session: &mut LiveSession) -> bool {
    match session.apply(SessionCommand::Undo).first() {
        Some(SessionEffect::Undo { outcome, .. }) => outcome.is_applied(),
        other => panic!("undo answered {other:?}"),
    }
}

/// `undo` past the start of history must report "nothing undone"
/// and leave the session untouched — never index blindly into the undo
/// stack.
#[test]
fn undo_past_start_of_history_is_safe() {
    let mut session = LiveSession::new(APP).expect("starts");
    let before = session.live_view();
    for _ in 0..3 {
        assert!(!undo_applied(&mut session), "nothing to undo");
        assert!(session.system().is_stable());
        assert_well_typed(session.system());
    }
    assert_eq!(session.live_view(), before);

    // One applied edit ⇒ exactly one undo, then safe no-ops again.
    let edited = session.source().replace("points", "pts");
    let effects = session.apply(SessionCommand::EditSource(edited));
    assert!(
        matches!(effects[0], SessionEffect::EditApplied(_)),
        "{effects:?}"
    );
    assert!(undo_applied(&mut session), "one real undo");
    assert!(!undo_applied(&mut session), "history exhausted");
    assert_eq!(session.source(), APP);
}
