//! Edit transactions with canary UPDATE fan-out and fault-spike
//! auto-rollback — the host-level acceptance suite.
//!
//! The headline property: committing a known-bad transaction against a
//! fleet of 100 sessions with a 10% canary slice touches **only** the
//! canaries — they fault, the transaction auto-rolls-back, every
//! updated session is restored byte-identical to its pre-transaction
//! state, and the other 90% never observe the bad version at all.

use alive_core::system::SystemConfig;
use alive_live::{LiveSession, SessionCommand, SessionEffect, TxPhase};
use alive_obs::ManualClock;
use alive_serve::rollout::RolloutConfig;
use alive_serve::{effect_for_error, names, HostConfig, HostError, SessionHost};
use alive_syntax::{Span, TextEdit};
use std::sync::Arc;

/// A small per-transition fuel budget: the tiny test app settles in a
/// handful of steps, and the known-bad `while true` payloads trip
/// divergence detection quickly instead of burning the (much larger)
/// default budget on every canary.
const FUEL: SystemConfig = SystemConfig {
    fuel: 10_000,
    max_transitions: 10_000,
    engine: alive_core::system::EvalEngine::Vm,
};

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

/// The render statement the bad transactions replace.
const RENDER_STMT: &str = "post \"count is \" ++ count;";
/// Type-checks, then exhausts its fuel on the first render — the
/// "known-bad" payload: a contained render fault on every canary.
const BAD_RENDER: &str = "while true { count; } post \"never\";";

/// A span-addressed edit replacing `needle` with `replacement` in `src`.
fn edit_replacing(src: &str, needle: &str, replacement: &str) -> TextEdit {
    let at = src.find(needle).expect("needle present") as u32;
    TextEdit::replace(Span::new(at, at + needle.len() as u32), replacement)
}

#[test]
fn bad_commit_faults_only_the_canaries_and_rolls_back_byte_identically() {
    let host = SessionHost::new(HostConfig {
        rollout: RolloutConfig {
            canary_percent: 10,
            observation_window_us: 0,
            fault_threshold: 1,
        },
        system: FUEL,
        ..HostConfig::with_workers(4)
    });
    let ids: Vec<_> = (0..100)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();
    assert_eq!(host.programs_compiled(), 1, "one compile for 100 sessions");

    // Give every session its own state so byte-identity is meaningful.
    for (i, &id) in ids.iter().enumerate() {
        for _ in 0..(i % 3) {
            host.apply(id, SessionCommand::TapPath(vec![0]))
                .expect("tap applies");
        }
    }
    let pre_frames: Vec<_> = ids
        .iter()
        .map(|&id| host.latest_frame(id).expect("live").expect("settled"))
        .collect();

    // Open against the fleet's version, stage the bad batch, commit.
    let tx = host.tx_open(ids[0]).expect("origin is live");
    host.tx_edit(tx, &[edit_replacing(APP, RENDER_STMT, BAD_RENDER)])
        .expect("stages");
    let phase = host.tx_commit(tx).expect("commit decides");
    let TxPhase::RolledBack { reverted, reason } = phase else {
        panic!("bad commit must roll back, got {phase:?}");
    };
    assert_eq!(reverted, 10, "exactly the 10% canary slice was updated");
    assert!(reason.contains("fault spike"), "reason names the spike");
    assert_eq!(
        host.tx_status(tx).expect("known"),
        TxPhase::RolledBack { reverted, reason }
    );

    // The batch was compiled exactly once for the whole fleet.
    assert_eq!(
        host.programs_compiled(),
        2,
        "base + staged, one compile each"
    );
    assert_eq!(host.version_count(), 2);

    // Only the canaries (the first 10 by id) ever ran the bad version:
    // their monotone per-session counters witness one fleet update, one
    // contained render fault, one revert. The other 90 saw nothing.
    for (i, &id) in ids.iter().enumerate() {
        let snapshot = host.session_metrics(id).expect("live");
        let updates = snapshot.counter("session.fleet.updates");
        let reverts = snapshot.counter("session.fleet.reverts");
        let faults = snapshot.counter("system.rollbacks");
        if i < 10 {
            assert_eq!(updates, 1, "canary {i} applied the update");
            assert_eq!(reverts, 1, "canary {i} was reverted");
            assert!(faults >= 1, "canary {i} observed the fault");
        } else {
            assert_eq!(updates, 0, "session {i} never saw the bad version");
            assert_eq!(reverts, 0, "session {i} had nothing to revert");
            assert_eq!(faults, 0, "session {i} never observed a fault");
        }
    }

    // Byte-identity: every session's published frame is exactly its
    // pre-transaction frame, and every session is back on the base
    // source — including the canaries that ran the bad version.
    for (&id, pre) in ids.iter().zip(&pre_frames) {
        let post = host.latest_frame(id).expect("live").expect("settled");
        assert_eq!(post.as_ref(), pre.as_ref(), "{id} frame changed");
        let source = host
            .inspect_session(id, |session| session.source().to_string())
            .expect("live");
        assert_eq!(source, APP, "{id} is not on the base version");
    }

    // And byte-identity against a fresh solo replay of the same
    // command log (sampled): the transaction left no trace at all.
    for (i, &id) in ids.iter().enumerate().step_by(9) {
        let mut solo = LiveSession::new(APP).expect("starts");
        for _ in 0..(i % 3) {
            solo.apply(SessionCommand::TapPath(vec![0]));
        }
        let solo_frame = solo.frame_snapshot();
        let hosted_frame = host
            .inspect_session(id, |session| session.frame_snapshot())
            .expect("live");
        assert_eq!(hosted_frame, solo_frame, "{id} diverged from solo replay");
    }

    let snapshot = host.shutdown();
    assert_eq!(snapshot.counter(names::ROLLBACKS_TOTAL), 1);
    assert_eq!(snapshot.counter(names::ROLLOUT_UPDATES), 10);
    assert_eq!(snapshot.counter(names::ROLLOUT_REVERTS), 10);
    assert_eq!(snapshot.gauge(names::ROLLOUT_CANARY_SESSIONS), 10);
    assert_eq!(snapshot.counter(names::TX_OPENED), 1);
    assert_eq!(snapshot.counter(names::TX_COMMITTED), 1);
    assert_eq!(snapshot.counter(names::TX_PROMOTED), 0);
}

#[test]
fn good_commit_promotes_the_whole_fleet_with_one_compile() {
    let host = SessionHost::new(HostConfig::with_workers(2));
    let ids: Vec<_> = (0..8)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();

    let tx = host.tx_open(ids[0]).expect("opens");
    host.tx_edit(tx, &[edit_replacing(APP, "count is", "n =")])
        .expect("stages");
    let phase = host.tx_commit(tx).expect("commit decides");
    assert_eq!(
        phase,
        TxPhase::Promoted {
            updated: 8,
            skipped: 0
        }
    );
    assert_eq!(host.programs_compiled(), 2, "the batch compiled once");

    // Every session renders the new version, from its own model state.
    for &id in &ids {
        let frame = host.latest_frame(id).expect("live").expect("settled");
        assert_eq!(frame.view, "n = 1\n");
        let snapshot = host.session_metrics(id).expect("live");
        assert_eq!(snapshot.counter("session.fleet.updates"), 1);
        assert_eq!(snapshot.counter("session.fleet.promotes"), 1);
        assert_eq!(snapshot.counter("session.fleet.reverts"), 0);
        assert_eq!(
            snapshot.counter("system.updates.shared"),
            1,
            "the session applied the host-compiled program without re-typechecking"
        );
    }

    // Terminal: the decision is sticky and re-commit is refused.
    assert_eq!(
        host.tx_status(tx).expect("known"),
        TxPhase::Promoted {
            updated: 8,
            skipped: 0
        }
    );
    assert!(matches!(
        host.tx_commit(tx),
        Err(HostError::TransactionClosed(_))
    ));

    let snapshot = host.shutdown();
    assert_eq!(snapshot.counter(names::TX_PROMOTED), 1);
    assert_eq!(snapshot.counter(names::ROLLBACKS_TOTAL), 0);
    assert_eq!(snapshot.counter(names::ROLLOUT_UPDATES), 8);
}

#[test]
fn rejected_commit_keeps_the_transaction_open_for_a_fix() {
    let host = SessionHost::new(HostConfig::with_workers(1));
    let id = host.create_session(APP).expect("compiles");

    let tx = host.tx_open(id).expect("opens");
    host.tx_edit(
        tx,
        &[TextEdit::replace(
            Span::new(0, APP.len() as u32),
            "not a program",
        )],
    )
    .expect("stages");
    assert!(matches!(host.tx_commit(tx), Err(HostError::Compile(_))));
    // Still open: stage a fix over the broken staged text and retry.
    assert_eq!(
        host.tx_status(tx).expect("known"),
        TxPhase::Open { edits: 1 }
    );
    host.tx_edit(
        tx,
        &[TextEdit::replace(
            Span::new(0, "not a program".len() as u32),
            APP.replace("count is", "n ="),
        )],
    )
    .expect("stages the fix");
    let phase = host.tx_commit(tx).expect("fixed commit decides");
    assert_eq!(
        phase,
        TxPhase::Promoted {
            updated: 1,
            skipped: 0
        }
    );
    let frame = host.latest_frame(id).expect("live").expect("settled");
    assert_eq!(frame.view, "n = 1\n");
    host.shutdown();
}

#[test]
fn observation_window_defers_the_decision_to_a_status_poll() {
    // Deterministic time: the rollout clock is the metrics clock.
    let clock = Arc::new(ManualClock::with_auto_step(1));
    let window_us = 60_000_000;
    let host = SessionHost::with_clock(
        HostConfig {
            rollout: RolloutConfig {
                canary_percent: 10,
                observation_window_us: window_us,
                fault_threshold: 1,
            },
            system: FUEL,
            ..HostConfig::with_workers(2)
        },
        clock.clone(),
    );
    let ids: Vec<_> = (0..10)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();
    let canary = ids[0];
    host.apply(canary, SessionCommand::TapPath(vec![0]))
        .expect("pre-transaction tap"); // count = 11

    // The staged version faults only under traffic: the tap handler
    // exhausts its fuel. The canary wave itself applies clean.
    let tx = host.tx_open(canary).expect("opens");
    host.tx_edit(
        tx,
        &[edit_replacing(
            APP,
            "count := count + 10;",
            "while true { count := count + 1; }",
        )],
    )
    .expect("stages");
    let phase = host.tx_commit(tx).expect("commit parks in the window");
    assert_eq!(
        phase,
        TxPhase::Canary {
            canary: 1,
            fleet: 10
        }
    );

    // Mid-window polls report the canary phase without deciding.
    assert_eq!(
        host.tx_status(tx).expect("known"),
        TxPhase::Canary {
            canary: 1,
            fleet: 10
        }
    );

    // Canary-directed client traffic trips the new handler: two
    // contained handler faults, journaled for the revert replay.
    for _ in 0..2 {
        host.apply(canary, SessionCommand::TapPath(vec![0]))
            .expect("tap flows to the canary");
    }
    // The rest of the fleet never ran the staged version.
    for &id in &ids[1..] {
        assert_eq!(
            host.session_metrics(id)
                .expect("live")
                .counter("session.fleet.updates"),
            0
        );
    }

    // Close the window; the poll probes the canary and rolls back.
    clock.advance_us(2 * window_us);
    let phase = host.tx_status(tx).expect("poll decides");
    let TxPhase::RolledBack { reverted, .. } = phase else {
        panic!("fault spike inside the window must roll back, got {phase:?}");
    };
    assert_eq!(reverted, 1);
    // The replay is not new traffic: the canary counts each of the
    // three commands it was sent once.
    let canary_metrics = host.session_metrics(canary).expect("live");
    assert_eq!(
        canary_metrics.counter("session.commands"),
        canary_metrics
            .histogram("host.cmd_latency_us")
            .expect("recorded")
            .count
    );

    // The canary replayed its journaled taps against the restored
    // program: byte-identical to a solo session that ran all three
    // taps under the base version (1 + 3×10 = 31).
    let mut solo = LiveSession::new(APP).expect("starts");
    for _ in 0..3 {
        solo.apply(SessionCommand::TapPath(vec![0]));
    }
    let hosted_frame = host
        .inspect_session(canary, |session| session.frame_snapshot())
        .expect("live");
    assert_eq!(hosted_frame, solo.frame_snapshot());
    assert_eq!(hosted_frame.view, "count is 31\n");
    // Observers see the same frame: the revert published it.
    assert_eq!(
        *host.latest_frame(canary).expect("live").expect("settled"),
        solo.frame_snapshot()
    );

    // A clean transaction through the same window promotes.
    let tx = host.tx_open(ids[1]).expect("opens");
    host.tx_edit(tx, &[edit_replacing(APP, "count is", "n =")])
        .expect("stages");
    assert_eq!(
        host.tx_commit(tx).expect("parks"),
        TxPhase::Canary {
            canary: 1,
            fleet: 10
        }
    );
    clock.advance_us(2 * window_us);
    assert_eq!(
        host.tx_status(tx).expect("poll decides"),
        TxPhase::Promoted {
            updated: 10,
            skipped: 0
        }
    );
    // Every session publishes the promoted version: the canary since
    // its update at commit, the rest since the promote wave.
    for &id in &ids {
        let frame = host.latest_frame(id).expect("live").expect("settled");
        let count = if id == canary { 31 } else { 1 };
        assert_eq!(frame.view, format!("n = {count}\n"), "{id}");
    }

    let snapshot = host.shutdown();
    assert_eq!(snapshot.counter(names::ROLLBACKS_TOTAL), 1);
    assert_eq!(snapshot.counter(names::TX_PROMOTED), 1);
}

#[test]
fn rollback_replays_a_repair_offered_before_the_commit() {
    let clock = Arc::new(ManualClock::with_auto_step(1));
    let window_us = 60_000_000;
    let host = SessionHost::with_clock(
        HostConfig {
            rollout: RolloutConfig {
                canary_percent: 10,
                observation_window_us: window_us,
                fault_threshold: 1,
            },
            system: FUEL,
            ..HostConfig::with_workers(2)
        },
        clock.clone(),
    );
    let ids: Vec<_> = (0..10)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();
    let canary = ids[0];
    // The same commands go to the canary and to a solo session.
    let manipulate = SessionCommand::ManipulateAt {
        path: vec![0],
        leaf: 0,
        value: "n = 1".to_string(),
    };
    let mut solo = LiveSession::new(APP).expect("starts");
    solo.apply(manipulate.clone());

    // The repair offer is parked on the base source, before the commit.
    let effects = host.apply(canary, manipulate).expect("live");
    assert!(
        matches!(effects[..], [SessionEffect::Repairs(_)]),
        "{effects:?}"
    );
    let tx = host.tx_open(canary).expect("opens");
    host.tx_edit(
        tx,
        &[edit_replacing(
            APP,
            "count := count + 10;",
            "while true { count := count + 1; }",
        )],
    )
    .expect("stages");
    assert_eq!(
        host.tx_commit(tx).expect("commit parks in the window"),
        TxPhase::Canary {
            canary: 1,
            fleet: 10
        }
    );

    // Inside the window: the repair (withdrawn, since the canary's
    // source moved on) and a tap whose new handler faults.
    for command in [
        SessionCommand::ApplyRepair(0),
        SessionCommand::TapPath(vec![0]),
    ] {
        host.apply(canary, command.clone()).expect("live");
        solo.apply(command);
    }

    clock.advance_us(2 * window_us);
    let phase = host.tx_status(tx).expect("poll decides");
    assert!(
        matches!(phase, TxPhase::RolledBack { reverted: 1, .. }),
        "{phase:?}"
    );

    // The revert restored the offer, so the replayed repair applied.
    let (source, frame) = host
        .inspect_session(canary, |session| {
            (session.source().to_string(), session.frame_snapshot())
        })
        .expect("live");
    assert_eq!(source, solo.source());
    assert_eq!(frame, solo.frame_snapshot());
    assert_eq!(frame.view, "n = 11\n");
    host.shutdown();
}

#[test]
fn diverged_sessions_are_left_out_of_the_fleet() {
    let host = SessionHost::new(HostConfig::with_workers(2));
    let ids: Vec<_> = (0..4)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();
    let tx = host.tx_open(ids[0]).expect("opens");
    host.tx_edit(tx, &[edit_replacing(APP, "count is", "n =")])
        .expect("stages");

    // One session edits away from the base version before the commit:
    // it is no longer subscribed to the transaction's base version, so
    // the rollout does not touch it at all.
    let diverged = APP.replace("count + 10", "count + 100");
    host.apply(ids[3], SessionCommand::EditSource(diverged.clone()))
        .expect("local edit applies");

    let phase = host.tx_commit(tx).expect("commit decides");
    assert_eq!(
        phase,
        TxPhase::Promoted {
            updated: 3,
            skipped: 0
        }
    );
    let source = host
        .inspect_session(ids[3], |session| session.source().to_string())
        .expect("live");
    assert_eq!(source, diverged, "the diverged session kept its own edit");
    host.shutdown();
}

#[test]
fn transaction_errors_are_typed() {
    let host = SessionHost::new(HostConfig::with_workers(1));
    let id = host.create_session(APP).expect("compiles");

    assert!(matches!(
        host.tx_edit(999, &[]),
        Err(HostError::UnknownTransaction(999))
    ));
    assert!(matches!(
        host.tx_commit(999),
        Err(HostError::UnknownTransaction(999))
    ));
    assert!(matches!(
        host.tx_status(999),
        Err(HostError::UnknownTransaction(999))
    ));

    // Malformed batches are refused with the staged text unchanged.
    let tx = host.tx_open(id).expect("opens");
    assert!(matches!(
        host.tx_edit(tx, &[TextEdit::delete(Span::new(0, 1_000_000))]),
        Err(HostError::Edit(_))
    ));
    assert_eq!(
        host.tx_status(tx).expect("known"),
        TxPhase::Open { edits: 0 }
    );

    // Abort is terminal.
    host.tx_abort(tx).expect("aborts");
    assert_eq!(host.tx_status(tx).expect("known"), TxPhase::Aborted);
    assert!(matches!(
        host.tx_edit(tx, &[]),
        Err(HostError::TransactionClosed(_))
    ));
    assert!(matches!(
        host.tx_abort(tx),
        Err(HostError::TransactionClosed(_))
    ));
    host.shutdown();
}

#[test]
fn tx_commands_flow_over_the_session_protocol() {
    // The same five commands a wire client sends — answered by the
    // host's fleet machinery, with effects from the shared vocabulary.
    let host = SessionHost::new(HostConfig::with_workers(2));
    let ids: Vec<_> = (0..4)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();

    let effects = host.apply(ids[0], SessionCommand::TxOpen).expect("applies");
    let [SessionEffect::Tx {
        tx,
        phase: TxPhase::Open { edits: 0 },
    }] = effects.as_slice()
    else {
        panic!("expected an open effect, got {effects:?}");
    };
    let tx = *tx;

    let effects = host
        .apply(
            ids[0],
            SessionCommand::TxEdit {
                tx,
                edits: vec![edit_replacing(APP, "count is", "n =")],
            },
        )
        .expect("applies");
    assert_eq!(
        effects,
        vec![SessionEffect::Tx {
            tx,
            phase: TxPhase::Open { edits: 1 }
        }]
    );

    let effects = host
        .apply(ids[0], SessionCommand::TxCommit(tx))
        .expect("applies");
    assert_eq!(
        effects,
        vec![SessionEffect::Tx {
            tx,
            phase: TxPhase::Promoted {
                updated: 4,
                skipped: 0
            }
        }]
    );

    // Unknown ids come back as refusals, not errors: the protocol
    // stays total for wire clients.
    let effects = host
        .apply(ids[0], SessionCommand::TxCommit(999))
        .expect("applies");
    assert!(matches!(effects[0], SessionEffect::Refused(_)));
    let effects = host
        .apply(ids[0], SessionCommand::TxAbort(tx))
        .expect("applies");
    assert!(matches!(effects[0], SessionEffect::Refused(_)));
    host.shutdown();
}

#[test]
fn overload_maps_to_the_typed_backpressure_effect() {
    // A host refusal becomes the wire's typed `overloaded` effect,
    // carrying the depth clients size their backoff from; other
    // errors stay prose refusals.
    let err = HostError::Timeout;
    assert!(matches!(effect_for_error(&err), SessionEffect::Refused(_)));
    let host = SessionHost::new(HostConfig {
        mailbox_capacity: 1,
        ..HostConfig::with_workers(1)
    });
    let id = host.create_session(APP).expect("compiles");
    // Race-free overload: stuff the mailbox faster than a single
    // worker can possibly drain by submitting from under a parked
    // drain is overkill here — with capacity 1 two back-to-back
    // submissions suffice often, so loop until the typed refusal.
    let error = loop {
        match host.submit(id, SessionCommand::TapPath(vec![0])) {
            Ok(_) => continue,
            Err(error) => break error,
        }
    };
    let SessionEffect::Overloaded { depth } = effect_for_error(&error) else {
        panic!("expected the typed backpressure effect");
    };
    assert_eq!(depth, 1, "the effect carries the configured capacity");
    assert_eq!(effect_for_error(&error).serialize(), "overloaded depth=1\n");
    host.shutdown();
}
