//! Seed-replayable canary walk with mid-canary fault injection — the
//! rollout counterpart of `concurrent_walk`.
//!
//! A fleet of hosted sessions runs a seeded burst of client traffic,
//! then an edit transaction stages a new version whose tap handler
//! calls `math.abs` — a primitive the base version never touches. A
//! [`FaultPlan`] installed on every canary makes that call fail, so
//! the staged version faults *only under traffic, only on canaries,
//! only by injection*. The transaction must auto-roll-back, and every
//! session — canary or not — must end byte-identical to a solo
//! [`LiveSession`] replaying the same command log under the base
//! version with no injector anywhere: the transaction, the injected
//! faults, and the rollout machinery leave no trace.
//!
//! Seed-replayable: `ALIVE_TESTKIT_SEED=0x… cargo test -p alive-serve`
//! reruns the identical walk.

use alive_core::system::SystemConfig;
use alive_core::Prim;
use alive_live::{LiveSession, SessionCommand, TxPhase};
use alive_obs::ManualClock;
use alive_serve::rollout::RolloutConfig;
use alive_serve::{HostConfig, SessionHost};
use alive_syntax::{Span, TextEdit};
use alive_testkit::{prop, FaultPlan, Rng};
use std::sync::Arc;

const SESSIONS: usize = 12;

const APP: &str = r#"
global count : number = 0
page start() {
    init { count := count + 1; }
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + 10; }
        }
    }
}
"#;

const TAP_STMT: &str = "count := count + 10;";
/// The staged handler calls a primitive the base version never does —
/// the injection point that makes the new version fault on canaries.
const BAD_TAP: &str = "count := count + math.abs(0 - 10);";

#[test]
fn injected_canary_faults_roll_back_to_solo_replay_byte_identity() {
    let seed = prop::seed_from_env();
    let mut rng = Rng::new(seed);
    let clock = Arc::new(ManualClock::with_auto_step(1));
    let window_us = 1_000_000;
    let host = SessionHost::with_clock(
        HostConfig {
            rollout: RolloutConfig {
                canary_percent: 25,
                observation_window_us: window_us,
                fault_threshold: 1,
            },
            system: SystemConfig {
                fuel: 10_000,
                max_transitions: 10_000,
                ..SystemConfig::default()
            },
            ..HostConfig::with_workers(4)
        },
        clock.clone(),
    );
    let ids: Vec<_> = (0..SESSIONS)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();

    // Phase 1: a seeded burst of concurrent traffic — tickets are
    // collected first so sibling sessions interleave on the worker
    // pool — while a per-session log records the ground truth.
    let mut logs: Vec<Vec<SessionCommand>> = vec![Vec::new(); SESSIONS];
    let mut tickets = Vec::new();
    for _ in 0..rng.gen_range(24..64) {
        let victim = rng.below(SESSIONS);
        let command = SessionCommand::TapPath(vec![0]);
        logs[victim].push(command.clone());
        tickets.push(host.submit(ids[victim], command).expect("live"));
    }
    for ticket in tickets {
        ticket.wait().expect("applied");
    }

    // The transaction: stage the handler that calls `math.abs`.
    let tx = host.tx_open(ids[0]).expect("opens");
    let at = APP.find(TAP_STMT).expect("handler present") as u32;
    host.tx_edit(
        tx,
        &[TextEdit::replace(
            Span::new(at, at + TAP_STMT.len() as u32),
            BAD_TAP,
        )],
    )
    .expect("stages");
    let phase = host.tx_commit(tx).expect("commit parks in the window");
    let TxPhase::Canary { canary, fleet } = phase else {
        panic!("expected a parked canary, got {phase:?}");
    };
    assert_eq!(fleet, SESSIONS);
    assert_eq!(canary, SESSIONS / 4, "25% canary slice");

    // The canary slice is deterministic: lowest session ids first.
    let canaries = &ids[..canary];

    // Arm every canary: its first `math.abs` call fails, so the very
    // first tap it answers under the staged version faults.
    let plans: Vec<_> = canaries
        .iter()
        .map(|&id| {
            let plan = FaultPlan::new().fail_prim(Prim::MathAbs, 1).shared();
            let installed = plan.clone();
            host.inspect_session(id, move |session| {
                session.system_mut().set_fault_injector(installed);
            })
            .expect("live");
            plan
        })
        .collect();

    // Phase 2: seeded mid-canary traffic over the whole fleet. Every
    // canary gets at least one tap (tripping the injected fault);
    // everyone's log keeps recording.
    let mut tickets = Vec::new();
    for (slot, &id) in ids.iter().enumerate() {
        for _ in 0..1 + rng.below(3) {
            let command = SessionCommand::TapPath(vec![0]);
            logs[slot].push(command.clone());
            tickets.push(host.submit(id, command).expect("live"));
        }
    }
    for ticket in tickets {
        ticket.wait().expect("applied");
    }
    for (i, plan) in plans.iter().enumerate() {
        assert!(
            plan.lock().expect("plan").injected() >= 1,
            "canary {i} tapped the staged handler, the injection fired (seed {seed:#x})"
        );
    }

    // Close the window: the status poll sees the fault spike and rolls
    // every canary back to its pre-transaction checkpoint, replaying
    // the phase-2 taps it answered mid-canary against the restored
    // base program.
    clock.advance_us(2 * window_us);
    let phase = host.tx_status(tx).expect("poll decides");
    let TxPhase::RolledBack { reverted, .. } = phase else {
        panic!("injected canary faults must roll back, got {phase:?} (seed {seed:#x})");
    };
    assert_eq!(
        reverted, canary,
        "every canary was restored (seed {seed:#x})"
    );

    // Disarm the canaries so the byte-identity inspection runs under
    // the same conditions as the solo replay (no injector anywhere).
    for &id in canaries {
        host.inspect_session(id, |session| session.system_mut().clear_fault_injector())
            .expect("live");
    }

    // Byte-identity: every session — canary and bystander alike — is
    // exactly a solo session that replayed the same log under the base
    // version with no transaction and no injector. The canaries' taps
    // that faulted mid-canary *apply* here: the journal replay runs
    // them against the restored handler, which is the solo behaviour.
    for (slot, &id) in ids.iter().enumerate() {
        let mut solo = LiveSession::new(APP).expect("starts");
        for command in &logs[slot] {
            solo.apply(command.clone());
        }
        let hosted = host
            .inspect_session(id, |session| {
                (session.source().to_string(), session.frame_snapshot())
            })
            .expect("live");
        assert_eq!(hosted.0, APP, "session {slot} left the base version");
        assert_eq!(
            hosted.1,
            solo.frame_snapshot(),
            "session {slot} diverged from its solo replay (seed {seed:#x})"
        );
        // What observers see, too: a canary's revert published its
        // restored frame, a bystander's last tap its own.
        assert_eq!(
            *host.latest_frame(id).expect("live").expect("settled"),
            solo.frame_snapshot(),
            "session {slot} published a frame its solo replay does not show (seed {seed:#x})"
        );
    }

    // Only canaries carry rollout scars — and only in monotone
    // counters, never in replayable state.
    for (slot, &id) in ids.iter().enumerate() {
        let snapshot = host.session_metrics(id).expect("live");
        let expected = u64::from(slot < canary);
        assert_eq!(snapshot.counter("session.fleet.updates"), expected);
        assert_eq!(snapshot.counter("session.fleet.reverts"), expected);
    }
    host.shutdown();
}
