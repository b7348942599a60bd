//! The UPDATE transition under adversarial code changes (§4.2, Fig. 12):
//! "Note that there is no requirement that C' is related in any way to
//! C" — arbitrary swaps must fix up state, never crash, and never leave
//! stale code.

use its_alive::core::compile;
use its_alive::core::state_typing::assert_well_typed;
use its_alive::core::system::System;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};

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

/// Submit `source` as a live edit; whether it was applied.
fn edit_applied(session: &mut LiveSession, source: &str) -> bool {
    matches!(
        session
            .apply(SessionCommand::EditSource(source.to_string()))
            .first(),
        Some(SessionEffect::EditApplied(_))
    )
}

const APP_A: &str = "
    global score : number = 3
    global name : string = \"ada\"
    page start() {
        init { score := score * 2; }
        render {
            boxed { post name ++ \": \" ++ score; on tap { score := score + 1; } }
        }
    }";

/// A completely unrelated program (different globals, extra page).
const APP_B: &str = "
    global inventory : list string = [\"sword\"]
    page start() {
        render {
            foreach item in inventory {
                boxed { post item; on tap { push detail(item); } }
            }
        }
    }
    page detail(which : string) {
        render { boxed { post \"detail of \" ++ which; on tap { pop; } } }
    }";

#[test]
fn swapping_to_an_unrelated_program_works() {
    let mut s = LiveSession::new(APP_A).expect("starts");
    let effects = s.apply(SessionCommand::EditSource(APP_B.to_string()));
    let SessionEffect::EditApplied(report) = &effects[0] else {
        panic!("applies: {effects:?}")
    };
    // The materialized global is gone (only `score` was ever assigned;
    // `name` lives lazily in its initializer, EP-GLOBAL-2, and never
    // entered the store). The start stack entry survives.
    assert_eq!(report.dropped_globals.len(), 1);
    assert_eq!(&*report.dropped_globals[0].0, "score");
    assert_eq!(report.kept_pages.len(), 1);
    assert_eq!(s.live_view(), "sword\n");
    assert_well_typed(s.system());
}

#[test]
fn swapping_back_and_forth_is_stable() {
    let mut s = LiveSession::new(APP_A).expect("starts");
    for round in 0..4 {
        let target = if round % 2 == 0 { APP_B } else { APP_A };
        assert!(edit_applied(&mut s, target));
        assert_well_typed(s.system());
        assert!(s.system().is_stable());
    }
    assert_eq!(s.update_counts(), (4, 0));
    // APP_A's init does NOT re-run on update: `score` was dropped by the
    // B→A fix-up and re-reads its initializer (3), not 6.
    assert!(s.live_view().contains("ada: 3"));
}

#[test]
fn update_while_on_a_page_the_new_code_lacks() {
    let mut s = LiveSession::new(APP_B).expect("starts");
    tap(&mut s, &[0]); // open detail
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("detail"));
    // The new code has no `detail` page: P-SKIP drops the stack entry
    // and the user lands back on start.
    let effects = s.apply(SessionCommand::EditSource(APP_A.to_string()));
    let SessionEffect::EditApplied(report) = &effects[0] else {
        panic!("applies: {effects:?}")
    };
    assert!(report
        .dropped_pages
        .iter()
        .any(|(name, _)| &**name == "detail"));
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("start"));
    assert_well_typed(s.system());
}

#[test]
fn retyping_a_global_drops_only_that_global() {
    let mut s = LiveSession::new(APP_A).expect("starts");
    tap(&mut s, &[0]); // score = 7
    let retyped = APP_A
        .replace(
            "global score : number = 3",
            "global score : string = \"lots\"",
        )
        .replace("score := score * 2;", "")
        .replace("score := score + 1;", "");
    let effects = s.apply(SessionCommand::EditSource(retyped));
    let SessionEffect::EditApplied(report) = &effects[0] else {
        panic!("applies: {effects:?}")
    };
    assert_eq!(report.dropped_globals.len(), 1, "{report:?}");
    // `name` was never assigned, so it is not in the store; it still
    // reads its initializer after the update (EP-GLOBAL-2).
    assert_eq!(report.kept_globals.len(), 0);
    assert_eq!(s.system().store().get("name"), None);
    assert!(s.live_view().contains("ada: lots"));
}

#[test]
fn every_transition_preserves_well_typedness() {
    // Step-by-step preservation over a whole session with navigation,
    // taps, and an update (the paper's preservation theorem, §4.3).
    let mut sys = System::new(compile(APP_B).expect("compiles"));
    loop {
        assert_well_typed(&sys);
        if sys.step().expect("steps") == its_alive::core::system::StepKind::Stable {
            break;
        }
    }
    sys.tap(&[0]).expect("tap");
    loop {
        assert_well_typed(&sys);
        if sys.step().expect("steps") == its_alive::core::system::StepKind::Stable {
            break;
        }
    }
    sys.update(compile(APP_A).expect("compiles"))
        .expect("updates");
    loop {
        assert_well_typed(&sys);
        if sys.step().expect("steps") == its_alive::core::system::StepKind::Stable {
            break;
        }
    }
    assert_well_typed(&sys);
}

#[test]
fn queue_and_display_are_empty_right_after_update() {
    // §4.2: "after applying rule (UPDATE), the display and the event
    // queue are empty ... the state contains no code."
    let mut sys = System::new(compile(APP_A).expect("compiles"));
    sys.run_to_stable().expect("starts");
    sys.update(compile(APP_B).expect("compiles"))
        .expect("updates");
    assert!(sys.queue().is_empty());
    assert!(!sys.display().is_valid());
    assert_well_typed(&sys); // includes the no-stale-closure scan
}
