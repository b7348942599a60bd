//! The observability invariant suite — what "the numbers are true"
//! means, pinned as tests:
//!
//! 1. **Monotonicity.** Counters and histogram counts never decrease
//!    over a session's lifetime, whatever a 256-step random walk of
//!    commands does (edits, taps, undo, faults, quarantines).
//! 2. **Reconciliation.** `system.faults.*` counters equal the fault
//!    log's per-kind totals; `session.edits.*` equal the session's
//!    update bookkeeping — the metrics describe the same history the
//!    session itself reports, exactly.
//! 3. **Torn-read direction.** Snapshots taken while other threads
//!    record may under-count, never over-count: for every histogram,
//!    `buckets_total() >= count` in every snapshot ever observed.
//! 4. **Host additivity.** A host snapshot's counters are exactly the
//!    sum of its live sessions' counters, even when the sessions were
//!    driven concurrently from as many threads as there are CPUs.
//!
//! Every walk is seed-replayable: `ALIVE_TESTKIT_SEED=0x… cargo test`.

use alive_core::system::SystemConfig;
use alive_core::FaultKind;
use alive_live::{LiveSession, SessionCommand};
use alive_obs::{Histogram, HistogramSnapshot, ManualClock, MetricsSnapshot, Registry};
use alive_serve::{HostConfig, SessionHost};
use alive_testkit::{prop, prop_assert, prop_assert_eq, Rng};
use std::sync::atomic::{AtomicBool, Ordering};

const APP: &str = r#"
global count : number = 0
page start() {
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + 1; }
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

/// A session with a deterministic manual clock (auto-stepping so every
/// timed stage has a nonzero duration) and a tight divergence budget.
fn observed_session(registry: &Registry) -> LiveSession {
    LiveSession::observed(
        APP,
        SystemConfig {
            fuel: 50_000,
            max_transitions: 500,
            ..SystemConfig::default()
        },
        false,
        registry,
    )
    .expect("APP compiles")
}

/// Decode one walk step into a session command. Step 4 is a rejected
/// edit (parse error), step 5 a applied-or-noop toggle edit; both keep
/// the walk exercising every counter family.
fn command_for(step: u8, session: &LiveSession) -> SessionCommand {
    match step % 8 {
        0 => SessionCommand::Frame,
        1 => SessionCommand::TapPath(vec![0]),
        2 => SessionCommand::TapPath(vec![1]),
        3 => SessionCommand::Back,
        4 => SessionCommand::EditSource("not a program".to_string()),
        5 => {
            let source = session.source();
            let toggled = if source.contains("count is ") {
                source.replace("count is ", "count = ")
            } else {
                source.replace("count = ", "count is ")
            };
            SessionCommand::EditSource(toggled)
        }
        6 => SessionCommand::Undo,
        _ => SessionCommand::Redo,
    }
}

/// Every counter present in `before` is still present and no smaller in
/// `after`; histogram counts likewise.
fn assert_monotone(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Result<(), String> {
    for (name, &v) in &before.counters {
        prop_assert!(
            after.counter(name) >= v,
            "counter `{name}` decreased: {} -> {}",
            v,
            after.counter(name)
        );
    }
    for (name, h) in &before.histograms {
        let after_count = after.histogram(name).map_or(0, |h| h.count);
        prop_assert!(
            after_count >= h.count,
            "histogram `{name}` count decreased: {} -> {after_count}",
            h.count
        );
    }
    Ok(())
}

#[test]
fn counters_are_monotone_over_random_walks() {
    prop::check(
        "counters_are_monotone_over_random_walks",
        prop::Config::with_cases(8),
        |rng: &mut Rng| (0..256).map(|_| rng.below(256) as u8).collect::<Vec<u8>>(),
        |steps: &Vec<u8>| {
            let registry = Registry::with_clock(ManualClock::with_auto_step(3).shared());
            let mut session = observed_session(&registry);
            let mut previous = session.metrics_snapshot();
            for &step in steps {
                let command = command_for(step, &session);
                session.apply(command);
                let next = session.metrics_snapshot();
                assert_monotone(&previous, &next)?;
                previous = next;
            }
            // End-of-walk reconciliation: the metrics agree with the
            // session's own bookkeeping and fault log.
            let snapshot = session.metrics_snapshot();
            let (applied, rejected) = session.update_counts();
            prop_assert_eq!(snapshot.counter("session.edits.applied"), applied);
            prop_assert_eq!(
                snapshot.counter("session.edits.rejected")
                    + snapshot.counter("session.edits.quarantined"),
                rejected
            );
            prop_assert_eq!(snapshot.counter("session.commands"), steps.len() as u64);
            for (kind, name) in [
                (FaultKind::Init, "system.faults.init"),
                (FaultKind::Handler, "system.faults.handler"),
                (FaultKind::Render, "system.faults.render"),
                (FaultKind::CascadeOverflow, "system.faults.cascade_overflow"),
            ] {
                prop_assert_eq!(
                    snapshot.counter(name),
                    session.fault_log().total_by_kind(kind),
                    "fault counter `{name}` diverged from the fault log"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn fault_counters_reconcile_with_the_fault_log_by_kind() {
    use alive_core::prim::Prim;
    use alive_testkit::FaultPlan;

    let registry = Registry::with_clock(ManualClock::with_auto_step(5).shared());
    let mut session = LiveSession::observed(
        APP.replace("count + 1", "count + math.abs(0 - 1)").as_str(),
        SystemConfig {
            fuel: 50_000,
            max_transitions: 500,
            ..SystemConfig::default()
        },
        false,
        &registry,
    )
    .expect("compiles");

    // Two handler faults: math.abs fails on its 1st and 3rd call.
    let plan = FaultPlan::new()
        .fail_prim(Prim::MathAbs, 1)
        .fail_prim(Prim::MathAbs, 3)
        .shared();
    session.system_mut().set_fault_injector(plan);
    session.tap_path(&[0]).expect("tap delivered"); // faults (call 1)
    session.tap_path(&[0]).expect("tap delivered"); // commits (call 2)
    session.tap_path(&[0]).expect("tap delivered"); // faults (call 3)

    // One render fault: a type-correct but diverging edit, quarantined.
    let diverging = session.source().replace(
        "post \"count is \" ++ count;",
        "while true { count; } post \"never\";",
    );
    let outcome = session.edit_source(&diverging);
    assert!(
        matches!(outcome, alive_live::EditOutcome::Quarantined { .. }),
        "expected quarantine, got {outcome:?}"
    );

    let snapshot = session.metrics_snapshot();
    let log = session.fault_log();
    assert_eq!(log.total(), 3, "two handler faults + one render fault");
    for (kind, name) in [
        (FaultKind::Init, "system.faults.init"),
        (FaultKind::Handler, "system.faults.handler"),
        (FaultKind::Render, "system.faults.render"),
        (FaultKind::CascadeOverflow, "system.faults.cascade_overflow"),
    ] {
        assert_eq!(
            snapshot.counter(name),
            log.total_by_kind(kind),
            "fault counter `{name}` diverged from the fault log"
        );
    }
    assert_eq!(
        snapshot.counter("system.rollbacks"),
        log.total(),
        "every logged fault rolled a transaction back"
    );
    assert_eq!(snapshot.counter("session.edits.quarantined"), 1);
}

#[test]
fn host_snapshot_is_the_sum_of_sessions_under_concurrent_load() {
    const COMMANDS_PER_SESSION: usize = 50;
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let clock = ManualClock::with_auto_step(2).shared();
    let host = SessionHost::with_clock(HostConfig::with_workers(threads), clock);
    let ids: Vec<_> = (0..threads)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();

    // One driver thread per CPU hammers its own session while a reader
    // thread snapshots the host continuously, checking the torn-read
    // direction on every histogram it ever sees.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let host = &host;
        let stop = &stop;
        let reader = scope.spawn(move || {
            let mut snapshots_taken = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snapshot = host.metrics_snapshot();
                for (name, h) in &snapshot.histograms {
                    assert!(
                        h.buckets_total() >= h.count,
                        "torn read over-counted `{name}`: buckets {} < count {}",
                        h.buckets_total(),
                        h.count
                    );
                }
                snapshots_taken += 1;
            }
            snapshots_taken
        });
        for id in &ids {
            scope.spawn(move || {
                for step in 0..COMMANDS_PER_SESSION {
                    let command = if step % 3 == 0 {
                        SessionCommand::Frame
                    } else {
                        SessionCommand::TapPath(vec![0])
                    };
                    host.apply(*id, command).expect("session is live");
                }
            });
        }
        // Scope joins the drivers when they fall off the end; the
        // reader needs an explicit stop once they are done.
        while host.metrics_snapshot().counter("session.commands")
            < (threads * COMMANDS_PER_SESSION) as u64
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let snapshots_taken = reader.join().expect("reader lives");
        assert!(snapshots_taken > 0, "the reader observed live snapshots");
    });

    // Quiesced: the host snapshot must be the exact sum (counters) /
    // max (gauges) / bucket-wise sum (histograms) over its sessions.
    let host_snapshot = host.metrics_snapshot();
    let mut summed = MetricsSnapshot::default();
    for id in &ids {
        summed.merge(&host.session_metrics(*id).expect("live"));
    }
    for (name, &v) in &summed.counters {
        assert_eq!(
            host_snapshot.counter(name),
            v,
            "host counter `{name}` is not the sum over sessions"
        );
    }
    for (name, h) in &summed.histograms {
        assert_eq!(
            host_snapshot.histogram(name).map(|h| h.count),
            Some(h.count),
            "host histogram `{name}` is not the sum over sessions"
        );
    }
    assert_eq!(
        host_snapshot.counter("session.commands"),
        (threads * COMMANDS_PER_SESSION) as u64
    );
    assert_eq!(
        host_snapshot.counter(alive_serve::names::SESSIONS_CREATED),
        threads as u64
    );

    // 5. Worker time accounting. The shutdown snapshot is quiesced
    // (every worker joined), so the attribution identity is exact:
    // busy + parked + steal-scan == wall, and idle == parked +
    // steal-scan. Before the sharded scheduler, time spent blocked on
    // the shared ready-queue mutex was charged to idle — contention
    // masquerading as idleness; now every microsecond lands in exactly
    // one honest bucket (the ManualClock makes the arithmetic
    // deterministic, not merely approximate).
    let final_snapshot = host.shutdown();
    let busy = final_snapshot.counter(alive_serve::names::WORKER_BUSY_US);
    let parked = final_snapshot.counter(alive_serve::names::WORKER_PARKED_US);
    let scan = final_snapshot.counter(alive_serve::names::WORKER_STEAL_SCAN_US);
    let wall = final_snapshot.counter(alive_serve::names::WORKER_WALL_US);
    assert_eq!(
        busy + parked + scan,
        wall,
        "busy ({busy}) + parked ({parked}) + steal_scan ({scan}) must equal wall ({wall})"
    );
    assert_eq!(
        final_snapshot.counter(alive_serve::names::WORKER_IDLE_US),
        parked + scan,
        "idle must be exactly parked + steal-scan, never contention"
    );
    assert!(
        busy > 0,
        "the walk drained real work, so busy time is nonzero"
    );
}

/// 5b. **VM accounting.** `eval.vm.instructions` is monotone across any
/// random walk, ticks strictly upward whenever a VM run is recorded,
/// and at the end of the walk reconciles exactly with the system's own
/// [`alive_core::system::VmStats`] — the counter and the struct are two
/// views of the same execution history.
#[test]
fn vm_instruction_counter_is_monotone_and_reconciles() {
    use alive_core::metrics::names;

    prop::check(
        "vm_instruction_counter_is_monotone_and_reconciles",
        prop::Config::with_cases(8),
        |rng: &mut Rng| (0..256).map(|_| rng.below(256) as u8).collect::<Vec<u8>>(),
        |steps: &Vec<u8>| {
            let registry = Registry::with_clock(ManualClock::with_auto_step(3).shared());
            let mut session = observed_session(&registry);
            let snapshot = session.metrics_snapshot();
            let mut prev_instructions = snapshot.counter(names::VM_INSTRUCTIONS);
            let mut prev_runs = snapshot.counter(names::VM_RUNS);
            for &step in steps {
                let command = command_for(step, &session);
                session.apply(command);
                let next = session.metrics_snapshot();
                let instructions = next.counter(names::VM_INSTRUCTIONS);
                let runs = next.counter(names::VM_RUNS);
                prop_assert!(
                    instructions >= prev_instructions,
                    "eval.vm.instructions decreased: {prev_instructions} -> {instructions}"
                );
                prop_assert!(
                    runs == prev_runs || instructions > prev_instructions,
                    "a VM run was recorded without executing a single instruction"
                );
                prev_instructions = instructions;
                prev_runs = runs;
            }
            let snapshot = session.metrics_snapshot();
            let stats = session.system().vm_stats();
            prop_assert_eq!(
                snapshot.counter(names::VM_INSTRUCTIONS),
                stats.instructions,
                "counter and VmStats disagree on instructions executed"
            );
            prop_assert_eq!(snapshot.counter(names::VM_RUNS), stats.runs);
            prop_assert_eq!(snapshot.counter(names::VM_CACHE_HITS), stats.cache_hits);
            prop_assert!(stats.runs > 0, "the walk must actually run the VM");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Rollout accounting: the auto-rollback counter is evidence
// ---------------------------------------------------------------------

/// 6. **Rollback accounting.** `host.rollbacks_total` counts exactly
///    the known-bad transactions committed against the fleet — no good
///    commit, aborted transaction, or per-session quarantine bleeds into
///    it. This is the invariant that makes the counter usable as an
///    alerting signal: one tick, one bad deploy.
#[test]
fn host_rollbacks_total_equals_injected_bad_commits() {
    use alive_live::TxPhase;
    use alive_syntax::{Span, TextEdit};

    const INJECTED_BAD_COMMITS: usize = 3;
    let host = SessionHost::new(HostConfig {
        // Tight fuel so the injected divergence faults fast.
        system: SystemConfig {
            fuel: 10_000,
            max_transitions: 500,
            ..SystemConfig::default()
        },
        ..HostConfig::with_workers(2)
    });
    let ids: Vec<_> = (0..8)
        .map(|_| host.create_session(APP).expect("compiles"))
        .collect();

    let stage = |tx: u64, needle: &str, replacement: &str| {
        let base = host
            .inspect_session(ids[0], |session| session.source().to_string())
            .expect("live");
        let at = base.find(needle).expect("needle present") as u32;
        host.tx_edit(
            tx,
            &[TextEdit::replace(
                Span::new(at, at + needle.len() as u32),
                replacement,
            )],
        )
        .expect("stages");
    };

    // Each bad commit stages a distinct diverging render (distinct
    // source text, so each is its own version in the store), watches
    // its canary fault, and auto-rolls-back — one counter tick each.
    for i in 0..INJECTED_BAD_COMMITS {
        let tx = host.tx_open(ids[0]).expect("opens");
        stage(
            tx,
            "post \"count is \" ++ count;",
            &format!("while true {{ count; }} post \"bad {i}\";"),
        );
        let phase = host.tx_commit(tx).expect("commit decides");
        assert!(
            matches!(phase, TxPhase::RolledBack { .. }),
            "bad commit {i} must roll back, got {phase:?}"
        );
        assert_eq!(
            host.metrics_snapshot()
                .counter(alive_serve::names::ROLLBACKS_TOTAL),
            i as u64 + 1,
            "one rollback tick per bad commit"
        );
    }

    // Control arms: a good commit promotes, an abort never fans out —
    // neither moves the rollback counter.
    let tx = host.tx_open(ids[0]).expect("opens");
    stage(tx, "count is ", "count now ");
    assert!(matches!(
        host.tx_commit(tx).expect("commit decides"),
        TxPhase::Promoted { updated: 8, .. }
    ));
    let tx = host.tx_open(ids[0]).expect("opens");
    host.tx_abort(tx).expect("aborts");

    let snapshot = host.shutdown();
    assert_eq!(
        snapshot.counter(alive_serve::names::ROLLBACKS_TOTAL),
        INJECTED_BAD_COMMITS as u64,
        "host.rollbacks_total == injected bad commits"
    );
    // Cross-check against per-session evidence: total reverts are the
    // canary slices of the bad commits (1 canary per 8-session fleet),
    // and every revert belongs to some rollback.
    assert_eq!(
        snapshot.counter(alive_serve::names::ROLLOUT_REVERTS),
        INJECTED_BAD_COMMITS as u64
    );
    assert_eq!(
        snapshot.counter(alive_serve::names::TX_PROMOTED),
        1,
        "only the control commit promoted"
    );
}

// ---------------------------------------------------------------------
// Histogram algebra: quantile edges and merge laws
// ---------------------------------------------------------------------

#[test]
fn quantile_edges_empty_single_and_all_overflow() {
    let empty = Histogram::new().snapshot();
    assert_eq!(empty.p50_us(), None);
    assert_eq!(empty.mean_us(), None);

    let single = Histogram::new();
    single.record(42);
    let snap = single.snapshot();
    assert_eq!(snap.p50_us(), snap.p99_us(), "one sample, one answer");
    assert_eq!(snap.mean_us(), Some(42));

    // Every sample above the last finite bound: quantiles saturate at
    // that bound instead of inventing data beyond it.
    let overflow = Histogram::with_bounds(&[10, 20]);
    for _ in 0..100 {
        overflow.record(1_000_000);
    }
    let snap = overflow.snapshot();
    assert_eq!(snap.p50_us(), Some(20));
    assert_eq!(snap.p99_us(), Some(20));
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    prop::check(
        "histogram_merge_is_associative_and_commutative",
        prop::Config::with_cases(64),
        |rng: &mut Rng| {
            let gen_samples = |rng: &mut Rng| {
                let n = rng.below(40);
                (0..n).map(|_| rng.below(200_000) as u64).collect()
            };
            (gen_samples(rng), gen_samples(rng), gen_samples(rng))
        },
        |(xs, ys, zs): &(Vec<u64>, Vec<u64>, Vec<u64>)| {
            let snap = |samples: &[u64]| {
                let h = Histogram::new();
                for &s in samples {
                    h.record(s);
                }
                h.snapshot()
            };
            let (a, b, c) = (snap(xs), snap(ys), snap(zs));
            prop_assert_eq!(
                merged(&merged(&a, &b), &c),
                merged(&a, &merged(&b, &c)),
                "merge is not associative"
            );
            prop_assert_eq!(merged(&a, &b), merged(&b, &a), "merge is not commutative");
            // Merge of same-bounds snapshots preserves totals exactly.
            let ab = merged(&a, &b);
            prop_assert_eq!(ab.count, a.count + b.count);
            prop_assert_eq!(ab.buckets_total(), a.buckets_total() + b.buckets_total());
            Ok(())
        },
    );
}
