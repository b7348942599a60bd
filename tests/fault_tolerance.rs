//! Fault-containment suite: the transactional-transition and
//! last-good-display guarantees, end to end through [`LiveSession`].
//!
//! Four mandated properties:
//!
//! 1. a faulting handler rolls the store back byte-identically;
//! 2. a type-correct edit whose render diverges is auto-reverted
//!    (quarantined) and counted as a rejection;
//! 3. the last good view survives a run of consecutive faults of
//!    mixed kinds;
//! 4. a 256-iteration random walk over taps, edits, undo, back, and
//!    deterministically injected faults never kills the session —
//!    `live_view()` always renders and handler faults never leak into
//!    the store.
//!
//! All walks run on the `alive-testkit` property harness: failures
//! print a seed, and `ALIVE_TESTKIT_SEED=<seed> cargo test` replays
//! the identical cases, fault injections included, because the
//! [`FaultPlan`] rules are part of the generated case.

use alive_testkit::{prop, prop_assert, prop_assert_eq, FaultPlan, Rng, Shrink};
use its_alive::core::prim::Prim;
use its_alive::core::state_typing::assert_well_typed;
use its_alive::core::system::SystemConfig;
use its_alive::core::{FaultKind, TransitionKind, Value};
use its_alive::live::{LiveSession, Registry, SessionCommand, SessionEffect};

/// A tight fuel budget (a.k.a. the configurable divergence bound from
/// [`SystemConfig`]): diverging renders are caught after thousands of
/// steps instead of the interactive default of millions, which keeps
/// the 256-case walk fast without changing any semantics.
fn fast_session(source: &str) -> Result<LiveSession, its_alive::live::SessionError> {
    LiveSession::observed(
        source,
        SystemConfig {
            fuel: 50_000,
            max_transitions: 500,
            ..SystemConfig::default()
        },
        false,
        &Registry::new(),
    )
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

/// Apply `command`; `Err` only if the session refused it for another
/// reason than an undeliverable user action (a miss, a transiently
/// invalid display, the root page's back button), which a walk takes as
/// a legal no-op.
fn drive_action(session: &mut LiveSession, command: SessionCommand) -> Result<(), String> {
    match session.apply(command).first() {
        Some(SessionEffect::Refused(why)) if !why.starts_with("action failed: ") => {
            Err(why.clone())
        }
        _ => Ok(()),
    }
}

/// Whether `effects` answer an edit that applied or was quarantined.
fn applied_or_quarantined(effects: &[SessionEffect]) -> bool {
    matches!(
        effects.first(),
        Some(SessionEffect::EditApplied(_) | SessionEffect::EditQuarantined { .. })
    )
}

const APP: &str = r#"
global count : number = 0
page start() {
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + math.abs(0 - 1); }
        }
        boxed {
            post "open detail";
            on tap { push detail(count); }
        }
    }
}
page detail(n : number) {
    render {
        boxed { post "detail of " ++ n; on tap { pop; } }
    }
}
"#;

// ---------------------------------------------------------------------
// 1. Store rollback after a faulting handler
// ---------------------------------------------------------------------

#[test]
fn faulting_handler_leaves_store_byte_identical() {
    let mut session = LiveSession::new(APP).expect("starts");
    tap(&mut session, &[0]); // count = 1, math.abs call #1

    let before_store = session.system().store().clone();
    let before_snap = session.system().snapshot().expect("snapshots");
    let before_view = session.live_view();

    // The plan counts from installation: the next math.abs evaluation
    // — the second tap's handler — is its call #1, and fails.
    let plan = FaultPlan::new().fail_prim(Prim::MathAbs, 1).shared();
    session.system_mut().set_fault_injector(plan.clone());

    tap(&mut session, &[0]); // delivered, though its handler faults
    assert_eq!(plan.lock().unwrap().injected(), 1);
    assert_eq!(session.fault_log().total(), 1);
    let fault = session.fault_log().latest().expect("logged");
    assert_eq!(fault.kind, FaultKind::Handler);
    assert_eq!(fault.page.as_deref(), Some("start"));

    // The transaction rolled back: the store is byte-identical (same
    // serialized snapshot, same in-memory value) and the view is the
    // last good one.
    assert_eq!(session.system().store(), &before_store);
    assert_eq!(
        session.system().snapshot().expect("snapshots"),
        before_snap,
        "snapshot is byte-identical after the handler fault"
    );
    assert_eq!(session.live_view(), before_view);

    // The event was consumed, not requeued: the session is alive and
    // the third tap commits normally.
    tap(&mut session, &[0]);
    assert_eq!(
        session.system().store().get("count"),
        Some(&Value::Number(2.0))
    );
    assert_eq!(session.fault_log().total(), 1, "no further faults");
}

// ---------------------------------------------------------------------
// 2. Auto-revert (quarantine) of a type-correct but diverging edit
// ---------------------------------------------------------------------

#[test]
fn diverging_render_edit_is_auto_reverted() {
    let mut session = fast_session(APP).expect("starts");
    tap(&mut session, &[0]); // count = 1
    let (applied_before, rejected_before) = session.update_counts();
    let good_view = session.live_view();

    // Type-correct — the type system cannot reject it — but the render
    // body diverges the moment it runs.
    let diverging = APP.replace(
        "post \"count is \" ++ count;",
        "while true { count; } post \"never\";",
    );
    let effects = session.apply(SessionCommand::EditSource(diverging));
    let Some(SessionEffect::EditQuarantined { fault, .. }) = effects.first() else {
        panic!("expected quarantine, got {effects:?}");
    };
    assert_eq!(fault.kind, FaultKind::Render);

    // Auto-reverted: the old source is live again, the model survived,
    // and the books count the edit as a rejection.
    assert_eq!(session.source(), APP);
    assert_eq!(session.live_view(), good_view);
    assert_eq!(
        session.system().store().get("count"),
        Some(&Value::Number(1.0))
    );
    assert_eq!(
        session.update_counts(),
        (applied_before, rejected_before + 1),
        "quarantine is reported like a rejection"
    );

    // Fully alive afterwards: a good edit applies and taps run.
    let fixed = APP.replace("count is", "n =");
    let effects = session.apply(SessionCommand::EditSource(fixed));
    assert!(
        matches!(effects[0], SessionEffect::EditApplied(_)),
        "{effects:?}"
    );
    tap(&mut session, &[0]);
    assert!(session.live_view().contains("n = 2"));
}

// ---------------------------------------------------------------------
// 3. Last good view across three consecutive faults of mixed kinds
// ---------------------------------------------------------------------

#[test]
fn last_good_view_survives_three_consecutive_faults() {
    let mut session = LiveSession::new(APP).expect("starts");
    tap(&mut session, &[0]); // count = 1
    let good_view = session.live_view();
    assert!(good_view.contains("count is 1"));

    // Counting from installation: faults 1 and 2 fail the handlers of
    // the next two taps (math.abs calls #1 and #2 the plan observes).
    // Handler faults re-instate the last good tree as Stale without a
    // re-render, so the first render the plan ever sees is the third
    // tap's — fault 3 lets that handler commit but starves the render.
    let plan = FaultPlan::new()
        .fail_prim(Prim::MathAbs, 1)
        .fail_prim(Prim::MathAbs, 2)
        .throttle_fuel(TransitionKind::Render, 1, 1)
        .shared();
    session.system_mut().set_fault_injector(plan.clone());

    // Fault 1 — handler: dropped event, store intact, same view.
    tap(&mut session, &[0]);
    assert_eq!(session.fault_log().total(), 1);
    assert_eq!(session.live_view(), good_view);

    // Fault 2 — handler again, on the (re-rendered) last good tree,
    // which stays interactive.
    tap(&mut session, &[0]);
    assert_eq!(session.fault_log().total(), 2);
    assert_eq!(session.live_view(), good_view);

    // Fault 3 — render: the handler commits (count = 2) but the render
    // is starved, so the *display* keeps the last good tree while the
    // store has moved on. That is exactly the stale-on-fault contract.
    tap(&mut session, &[0]);
    assert_eq!(session.fault_log().total(), 3);
    assert_eq!(
        session.fault_log().latest().map(|f| f.kind),
        Some(FaultKind::Render)
    );
    assert_eq!(
        session.system().store().get("count"),
        Some(&Value::Number(2.0))
    );
    assert_eq!(session.live_view(), good_view, "stale last-good view");

    let banner = session.fault_banner().expect("banner up");
    assert!(banner.contains("3 faults total"), "{banner}");

    // Recovery: the next tap invalidates, the handler and render both
    // succeed, and the display catches up with the store.
    tap(&mut session, &[0]);
    assert!(session.live_view().contains("count is 3"));
    assert_eq!(plan.lock().unwrap().injected(), 2);
    assert_eq!(plan.lock().unwrap().throttled(), 1);
}

// ---------------------------------------------------------------------
// 4. Random walk with injected faults: a live session never dies
// ---------------------------------------------------------------------

/// One deterministic fault-injection rule, as generated data so the
/// shrinker can drop rules while hunting a minimal counterexample.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// `math.abs` fails on its Nth evaluation.
    FailAbs(u64),
    /// `list.nth` fails on its Nth evaluation.
    FailNth(u64),
    /// The Nth transition of any kind runs with 1 fuel.
    Starve(u64),
}

impl Shrink for Rule {
    fn shrink(&self) -> Vec<Rule> {
        Vec::new()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Step {
    Tap(usize),
    Back,
    Undo,
    /// 0: benign rename; 1: syntax error (rejected); 2: diverging
    /// render (quarantined); 3: handler that faults on tap (applies
    /// cleanly, faults later).
    Edit(u8),
}

impl Shrink for Step {
    fn shrink(&self) -> Vec<Step> {
        match self {
            Step::Tap(p) => p.shrink().into_iter().map(Step::Tap).collect(),
            Step::Edit(w) => w.shrink().into_iter().map(Step::Edit).collect(),
            Step::Back | Step::Undo => Vec::new(),
        }
    }
}

fn arb_case(rng: &mut Rng) -> (Vec<Rule>, Vec<Step>) {
    let rules = (0..rng.below(4))
        .map(|_| {
            let n = rng.gen_range(1..12) as u64;
            match rng.below(3) {
                0 => Rule::FailAbs(n),
                1 => Rule::FailNth(n),
                _ => Rule::Starve(n),
            }
        })
        .collect();
    let steps = (0..rng.gen_range(1..10))
        .map(|_| match rng.below(6) {
            0 | 1 => Step::Tap(rng.below(4)),
            2 => Step::Back,
            3 => Step::Undo,
            _ => Step::Edit(rng.below(4) as u8),
        })
        .collect();
    (rules, steps)
}

fn edited(src: &str, which: u8) -> String {
    match which {
        0 => src.replace("open detail", "more..."),
        1 => src.replace("render {", "render {{"),
        2 => src.replace(
            "post \"count is \" ++ count;",
            "while true { count; } post \"never\";",
        ),
        _ => src.replace(
            "on tap { count := count + math.abs(0 - 1); }",
            "on tap { count := list.nth([1], 9); }",
        ),
    }
}

fn drive(session: &mut LiveSession, step: &Step) -> Result<(), String> {
    match step {
        Step::Tap(p) => drive_action(session, SessionCommand::TapPath(vec![*p]))
            .map_err(|e| format!("tap {p}: {e}")),
        Step::Back => drive_action(session, SessionCommand::Back).map_err(|e| format!("back: {e}")),
        Step::Undo => {
            session.apply(SessionCommand::Undo);
            Ok(())
        }
        Step::Edit(w) => {
            let new_src = edited(session.source(), *w);
            // Total by design: applied, rejected, or quarantined.
            session.apply(SessionCommand::EditSource(new_src));
            Ok(())
        }
    }
}

#[test]
fn random_walk_with_faults_never_kills_the_session() {
    prop::check(
        "random_walk_with_faults_never_kills_the_session",
        prop::Config::with_cases(256),
        arb_case,
        |(rules, steps): &(Vec<Rule>, Vec<Step>)| {
            let mut session = fast_session(APP).expect("starts");
            let mut plan = FaultPlan::new();
            for rule in rules {
                plan = match *rule {
                    Rule::FailAbs(n) => plan.fail_prim(Prim::MathAbs, n),
                    Rule::FailNth(n) => plan.fail_prim(Prim::ListNth, n),
                    Rule::Starve(n) => plan.throttle_any_fuel(n, 1),
                };
            }
            session.system_mut().set_fault_injector(plan.shared());

            for step in steps {
                let store_before = session.system().store().clone();
                let source_before = session.source().to_string();
                let faults_before = session.fault_log().total();

                drive(&mut session, step)?;

                // Never dies: the view always renders (a real tree or
                // the explicit degraded placeholder), the model stays
                // well-typed against the live program.
                let view = session.live_view();
                prop_assert!(!view.is_empty(), "live_view went blank");
                assert_well_typed(session.system());

                let new_faults = session.fault_log().total() - faults_before;
                let logged: Vec<_> = session.fault_log().iter().collect();
                let fresh = logged
                    .len()
                    .saturating_sub((session.fault_log().total() - new_faults) as usize);
                let all_handler = new_faults > 0
                    && logged[logged.len() - fresh..]
                        .iter()
                        .all(|f| f.kind == FaultKind::Handler);
                // Handler faults are transactional: if a non-edit step
                // produced only handler faults, nothing committed.
                if all_handler && !matches!(step, Step::Edit(_)) {
                    prop_assert_eq!(session.system().store(), &store_before);
                }
                // Quarantined edits revert source AND store.
                if matches!(step, Step::Edit(_)) && session.source() == source_before {
                    prop_assert_eq!(session.system().store(), &store_before);
                }
            }

            // Still alive at the end of the walk: a good edit applies
            // on top of whatever degraded state the walk produced.
            let effects = session.apply(SessionCommand::EditSource(APP.to_string()));
            prop_assert!(
                applied_or_quarantined(&effects),
                "final known-good edit neither applied nor quarantined: {:?}",
                effects
            );
            prop_assert!(!session.live_view().is_empty());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 5. The same walk over the whole scenario corpus
// ---------------------------------------------------------------------

/// Corpus-generic source mutators: every corpus program has a
/// `render {` to diverge, an `on tap {` to poison, and room for a
/// benign probe item — so the same four edit classes (benign /
/// rejected / quarantined / fault-on-tap) apply to all 20 programs.
fn edited_generic(src: &str, which: u8) -> String {
    match which {
        // Benign toggle: add (or remove) a self-checking example probe.
        0 => {
            let probe = "example walk_probe = 1 expect 1\n";
            if src.contains(probe) {
                src.replace(probe, "")
            } else {
                format!("{src}{probe}")
            }
        }
        // Syntax error: rejected, the old program keeps running.
        1 => src.replace("render {", "render {{"),
        // Diverging main render: type-correct, quarantined on arrival.
        2 => src.replacen("render {", "render { while true { 0; }", 1),
        // First tap handler faults when (and only when) tapped.
        _ => src.replacen("on tap {", "on tap { list.nth([1], 9); ", 1),
    }
}

#[test]
fn corpus_walk_with_faults_never_kills_any_scenario() {
    for entry in alive_corpus::corpus() {
        let name = entry.spec.name();
        let width = entry.spec.size.rows() + 4;
        let original = entry.source.clone();
        prop::check(
            &format!("corpus_fault_walk_{name}"),
            prop::Config::with_cases(6),
            arb_case,
            |(rules, steps): &(Vec<Rule>, Vec<Step>)| {
                let mut session = LiveSession::observed(
                    &original,
                    SystemConfig {
                        fuel: 500_000,
                        max_transitions: 500,
                        ..SystemConfig::default()
                    },
                    false,
                    &Registry::new(),
                )
                .unwrap_or_else(|e| panic!("{name} starts: {e}"));
                let mut plan = FaultPlan::new();
                for rule in rules {
                    plan = match *rule {
                        Rule::FailAbs(n) => plan.fail_prim(Prim::MathAbs, n),
                        Rule::FailNth(n) => plan.fail_prim(Prim::ListNth, n),
                        Rule::Starve(n) => plan.throttle_any_fuel(n, 1),
                    };
                }
                session.system_mut().set_fault_injector(plan.shared());

                for step in steps {
                    let store_before = session.system().store().clone();
                    let source_before = session.source().to_string();

                    // The corpus walk scales the tap fan to the program
                    // and swaps in the corpus-generic edits.
                    match step {
                        Step::Tap(p) => {
                            let p = p % width;
                            drive_action(&mut session, SessionCommand::TapPath(vec![p]))
                                .map_err(|e| format!("{name}: tap {p}: {e}"))?;
                        }
                        Step::Back => drive_action(&mut session, SessionCommand::Back)
                            .map_err(|e| format!("{name}: back: {e}"))?,
                        Step::Undo => {
                            session.apply(SessionCommand::Undo);
                        }
                        Step::Edit(w) => {
                            let new_src = edited_generic(session.source(), *w);
                            session.apply(SessionCommand::EditSource(new_src));
                        }
                    }

                    let view = session.live_view();
                    prop_assert!(!view.is_empty(), "{}: live_view went blank", name);
                    assert_well_typed(session.system());
                    // Quarantined edits revert source AND store.
                    if matches!(step, Step::Edit(_)) && session.source() == source_before {
                        prop_assert_eq!(session.system().store(), &store_before);
                    }
                }

                // Still alive: restoring the pristine corpus source
                // applies (or quarantines under an active fault rule).
                let effects = session.apply(SessionCommand::EditSource(original.clone()));
                prop_assert!(
                    applied_or_quarantined(&effects),
                    "{}: final known-good edit neither applied nor quarantined: {:?}",
                    name,
                    effects
                );
                prop_assert!(!session.live_view().is_empty());
                Ok(())
            },
        );
    }
}

/// The replay contract the walk leans on: the same seed generates the
/// identical (rules, steps) cases — so `ALIVE_TESTKIT_SEED` reproduces
/// a failure's fault injections exactly, not just its UI actions.
#[test]
fn fault_walk_cases_replay_byte_for_byte() {
    use std::cell::RefCell;

    type Case = (Vec<Rule>, Vec<Step>);
    let cfg = prop::Config::with_cases(16).seeded(0xFA17_2013);
    let capture = || {
        let seen: RefCell<Vec<Case>> = RefCell::new(Vec::new());
        let failed = prop::check_captured(&cfg, arb_case, |case: &Case| {
            seen.borrow_mut().push(case.clone());
            Ok(())
        });
        assert!(failed.is_none());
        seen.into_inner()
    };
    let first = capture();
    let second = capture();
    assert_eq!(first.len(), 16);
    assert_eq!(first, second, "same seed, same fault plans and steps");
}
