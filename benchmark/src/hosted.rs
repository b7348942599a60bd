//! The `hosted` workload: 1000 sessions (50 per corpus program) on a
//! `SessionHost` with one worker per CPU, fed by an open-loop Poisson
//! arrival process with 80/20 hot/cold session skew.
//!
//! Like the solo workloads, a run is a sequence of rounds: a fresh host
//! and sessions (the set-up `setup_s` times), then one of `PLANS`
//! seeded `ROUND_S`-second arrival schedules with its per-session
//! scripts, in turn. Every script is written beforehand by a solo replay
//! of the hosted mix, so each hosted command is valid when it runs and
//! has a known expected outcome, and each session's final hosted frame
//! must equal its solo replay's.

use crate::corpus::Entry;
use crate::gen::{Expect, Step};
use crate::solo::{self, Lane, Stream};
use crate::stats::{low_quartile, median, ratio, Metrics, Samples};
use alive_corpus::{fnv1a_64, Rng};
use alive_live::{LiveSession, MetricsSnapshot};
use alive_serve::{names, EffectTicket, HostConfig, HostError, SessionHost, SessionId};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sessions per corpus program.
const PER_PROGRAM: usize = 50;
/// Every fifth block of 20 sessions (one per program) is hot.
const HOT_BLOCK: usize = 5;
/// Share of arrivals that go to the hot 20% of sessions, in percent.
const HOT_SHARE: u64 = 80;
/// Seconds of arrival schedule per round.
const ROUND_S: f64 = 1.0;
/// Distinct schedules the rounds of an untraced run take turns at.
const PLANS: usize = 4;
/// The arrival rate the end-to-end latency is measured at, cmd/s.
const BASE_RATE: f64 = 1000.0;
/// The rate ladder the traced run climbs for goodput, cmd/s.
const LADDER: [f64; 3] = [1000.0, 2000.0, 3000.0];
/// The latency limit on p99 for a rung to count as served: one frame
/// at 60 Hz.
const P99_LIMIT_US: f64 = 16_000.0;
/// A rung has no growing backlog when this share of its commands
/// complete inside the schedule window.
const DRAINED_SHARE: f64 = 0.98;

/// One scheduled command: when it is due and which session it goes to.
struct Arrival {
    due_ns: u64,
    session: usize,
}

/// Poisson arrivals at `rate` over one round, each aimed at a session
/// with 80/20 hot/cold skew.
fn schedule(rng: &mut Rng, rate: f64, sessions: usize) -> Vec<Arrival> {
    let hot: Vec<usize> = (0..sessions)
        .filter(|i| (i / 20) % HOT_BLOCK == 0)
        .collect();
    let cold: Vec<usize> = (0..sessions)
        .filter(|i| (i / 20) % HOT_BLOCK != 0)
        .collect();
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential gaps; the uniform draw is in (0, 1].
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= ROUND_S {
            return arrivals;
        }
        let pool = if rng.below(100) < HOT_SHARE {
            &hot
        } else {
            &cold
        };
        arrivals.push(Arrival {
            due_ns: (t * 1e9) as u64,
            session: *rng.choose(pool),
        });
    }
}

/// A session's pre-written commands and the view its solo replay ended on.
struct Script {
    steps: Vec<Step>,
    final_view: String,
}

/// One rung of load: its arrivals and every session's script.
struct Plan {
    arrivals: Vec<Arrival>,
    scripts: Vec<Script>,
}

/// Write every session's script by replaying the hosted mix on a solo
/// session, as many commands as the schedule sends it. Traced runs
/// replay in lockstep with the traced frame loop, which yields the
/// per-layer numbers of the hosted mix.
fn plan(
    entries: &[Entry],
    seed: u64,
    index: usize,
    rate: f64,
    traced: bool,
    out: &mut solo::Outcome,
) -> Plan {
    let sessions = entries.len() * PER_PROGRAM;
    let mut rng = Rng::new(fnv1a_64(format!("{seed}/{index}/{rate}").as_bytes()));
    let arrivals = schedule(&mut rng, rate, sessions);
    let mut counts = vec![0usize; sessions];
    for arrival in &arrivals {
        counts[arrival.session] += 1;
    }
    let scripts = (0..sessions)
        .map(|index| {
            let entry_index = index % entries.len();
            let entry = &entries[entry_index];
            if counts[index] == 0 {
                return Script {
                    steps: Vec::new(),
                    final_view: entry.first_view.clone(),
                };
            }
            let session = LiveSession::with_shared_program(
                &entry.source,
                Arc::clone(&entry.program),
                Default::default(),
                false,
            );
            let mut lane = Lane::new(entry_index, &entry.source, session, traced);
            lane.log = Some(Vec::new());
            for _ in 0..counts[index] {
                solo::step(entry, &mut lane, Stream::Hosted, &mut rng, out);
            }
            Script {
                final_view: lane.session.live_view(),
                steps: lane.log.take().unwrap_or_default(),
            }
        })
        .collect();
    Plan { arrivals, scripts }
}

/// Start a host and its sessions, settled to their first frames.
fn start_host(entries: &[Entry]) -> (SessionHost, Vec<SessionId>) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = SessionHost::new(HostConfig::with_workers(workers));
    let ids = (0..entries.len() * PER_PROGRAM)
        .map(|i| {
            host.create_session(&entries[i % entries.len()].source)
                .expect("corpus programs compile")
        })
        .collect();
    (host, ids)
}

/// What the collector measured in one round.
#[derive(Default)]
pub struct Round {
    samples: Samples,
    by_size: [Samples; 4],
    /// Completions inside the schedule window.
    on_time: u64,
    failed: u64,
    /// Σ over commands of how far the generator ran behind schedule, µs.
    late_us: f64,
}

/// A submitted command on its way to the collector.
struct Sent {
    due_ns: u64,
    size: usize,
    expect: Expect,
    ticket: Result<EffectTicket, HostError>,
}

/// One round against a fresh host: one generator thread submits each
/// command at its due time, one collector thread waits for the replies
/// in submission order. Latency runs from the due time, so a stalled
/// generator cannot hide queueing; a reply that arrives before an
/// earlier one is stamped when the collector reaches it, so latencies
/// are upper bounds.
fn drive(entries: &[Entry], host: &SessionHost, ids: &[SessionId], plan: &Plan) -> Round {
    let (tx, rx) = mpsc::channel::<Sent>();
    let window_ns = (ROUND_S * 1e9) as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut cursor = vec![0usize; plan.scripts.len()];
            let mut late_us = 0f64;
            for arrival in &plan.arrivals {
                let due = Duration::from_nanos(arrival.due_ns);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                late_us += (start.elapsed().as_secs_f64() - due.as_secs_f64()) * 1e6;
                let step = &plan.scripts[arrival.session].steps[cursor[arrival.session]];
                cursor[arrival.session] += 1;
                let _ = tx.send(Sent {
                    due_ns: arrival.due_ns,
                    size: entries[arrival.session % entries.len()].size as usize,
                    expect: step.expect,
                    ticket: host.submit(ids[arrival.session], step.command.clone()),
                });
            }
            late_us
        });
        let collector = scope.spawn(move || {
            let mut round = Round::default();
            for sent in rx {
                let effects = sent.ticket.and_then(EffectTicket::wait);
                let done_ns = start.elapsed().as_nanos() as u64;
                let ok = effects
                    .as_deref()
                    .is_ok_and(|effects| sent.expect.holds(effects));
                round.failed += u64::from(!ok);
                let ns = done_ns.saturating_sub(sent.due_ns);
                round.on_time += u64::from(done_ns <= window_ns);
                round.samples.push(ns);
                round.by_size[sent.size].push(ns);
            }
            round
        });
        let late_us = generator.join().expect("generator thread");
        Round {
            late_us,
            ..collector.join().expect("collector thread")
        }
    })
}

/// Every hosted session's final frame must equal its solo replay's.
fn frames_match_scripts(host: &SessionHost, ids: &[SessionId], scripts: &[Script]) -> bool {
    ids.iter().zip(scripts).all(|(&id, script)| {
        let frame = host.latest_frame(id).ok().flatten();
        let same = frame.is_some_and(|frame| frame.view == script.final_view);
        if !same {
            eprintln!("{id}: hosted final frame differs from its solo replay");
        }
        same
    })
}

/// The result of a workload run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn run(entries: &[Entry], seed: u64, seconds: f64, traced: bool) -> Report {
    // Untraced runs measure at the base rate over several schedules;
    // traced runs climb the ladder, one schedule per rung.
    let rungs: Vec<Vec<(usize, f64)>> = if traced {
        LADDER.iter().map(|&rate| vec![(0, rate)]).collect()
    } else {
        vec![(0..PLANS).map(|index| (index, BASE_RATE)).collect()]
    };
    let mut solo_out = solo::Outcome::default();
    crate::alloc::set_counting(traced);
    let plans: Vec<Vec<Plan>> = rungs
        .iter()
        .map(|rung| {
            rung.iter()
                .map(|&(index, rate)| plan(entries, seed, index, rate, traced, &mut solo_out))
                .collect()
        })
        .collect();
    crate::alloc::set_counting(false);

    let mut correct = true;
    let mut setup = Vec::new();
    let mut rounds: Vec<Vec<Round>> = Vec::new();
    let mut snapshot = MetricsSnapshot::default();
    for rung_plans in &plans {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / plans.len() as f64);
        let mut rung = Vec::new();
        loop {
            let plan = &rung_plans[rung.len() % rung_plans.len()];
            let clock = Instant::now();
            let (host, ids) = start_host(entries);
            setup.push(clock.elapsed().as_secs_f64());
            let before = host.metrics_snapshot();
            rung.push(drive(entries, &host, &ids, plan));
            correct &= frames_match_scripts(&host, &ids, &plan.scripts);
            // Shutting down joins the workers: the snapshot is quiesced.
            snapshot.merge(&delta(&host.shutdown(), &before));
            if Instant::now() >= deadline {
                break;
            }
        }
        rounds.push(rung);
    }

    let base = &rounds[0];
    let attempted: u64 = rounds
        .iter()
        .flatten()
        .map(|r| r.samples.len() as u64)
        .sum();
    let failed: u64 = rounds.iter().flatten().map(|r| r.failed).sum();
    let late: f64 = rounds.iter().flatten().map(|r| r.late_us).sum();
    let service = snapshot.histogram(names::CMD_LATENCY_US);
    let means: Vec<String> = base
        .iter()
        .map(|r| format!("{:.0}", r.samples.mean_us()))
        .collect();
    eprintln!(
        "round means (us): {}; generator late {:.0} us and host apply {:.0} us on average",
        means.join(" "),
        ratio(late, attempted as f64),
        service.map_or(0.0, |h| ratio(h.sum as f64, h.count as f64)),
    );
    let mut metrics = Metrics::default();
    if traced {
        solo_out
            .tracer
            .report(solo_out.traced.total_ns(), &mut metrics);
        serve_metrics(&snapshot, &rounds, &mut metrics);
        let mut all = Samples::default();
        let mut by_size: [Samples; 4] = Default::default();
        for round in base {
            all.extend(&round.samples);
            for (pooled, size) in by_size.iter_mut().zip(&round.by_size) {
                pooled.extend(size);
            }
        }
        crate::e2e_diagnostics(&all, &by_size, &mut metrics);
    } else {
        let mean: Vec<f64> = base.iter().map(|r| r.samples.mean_us()).collect();
        let p90: Vec<f64> = base.iter().map(|r| r.samples.quantile_us(0.90)).collect();
        metrics.put("latency_mean_us", low_quartile(&mean), "us");
        metrics.put("latency_p90_us", low_quartile(&p90), "us");
        metrics.put("setup_s", median(&setup), "s");
        metrics.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    }
    Report {
        correct,
        attempted,
        failed: failed + solo_out.failed,
        metrics,
    }
}

/// The host's metrics accumulated between two snapshots.
fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = after.clone();
    for (name, value) in out.counters.iter_mut() {
        *value -= before.counter(name);
    }
    for (name, hist) in out.histograms.iter_mut() {
        if let Some(old) = before.histogram(name) {
            hist.sum -= old.sum;
            hist.count -= old.count;
            for (bucket, old) in hist.buckets.iter_mut().zip(&old.buckets) {
                *bucket -= old;
            }
        }
    }
    out
}

/// The `serve.*` per-layer metrics from the host's own snapshot and the
/// rounds at each ladder rung; zeros for runs without a host.
pub fn serve_metrics(snap: &MetricsSnapshot, rounds: &[Vec<Round>], out: &mut Metrics) {
    let service = snap.histogram(names::CMD_LATENCY_US);
    let service_mean = service.map_or(0.0, |h| ratio(h.sum as f64, h.count as f64));
    out.put("serve.service.mean_us", service_mean, "us");
    out.put(
        "serve.service.p90_us",
        service.and_then(|h| h.p90_us()).unwrap_or(0) as f64,
        "us",
    );
    let all = rounds.iter().flatten();
    let (total_ns, count) = all.fold((0u64, 0usize), |(ns, n), r| {
        (ns + r.samples.total_ns(), n + r.samples.len())
    });
    // Means add exactly, so the client's mean minus the host's is the
    // mean time a command spent outside `apply`: queueing and hand-offs.
    let e2e_mean = ratio(total_ns as f64 / 1000.0, count as f64);
    out.put("serve.queue.wait_mean_us", e2e_mean - service_mean, "us");
    let served = |rung: &Vec<Round>| {
        let mut pooled = Samples::default();
        let mut on_time = 0;
        for round in rung {
            pooled.extend(&round.samples);
            on_time += round.on_time;
        }
        pooled.len() > 0
            && pooled.quantile_us(0.99) <= P99_LIMIT_US
            && on_time as f64 >= DRAINED_SHARE * pooled.len() as f64
    };
    let goodput = LADDER
        .iter()
        .zip(rounds)
        .filter(|(_, rung)| served(rung))
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max);
    out.put("serve.goodput_cps", goodput, "1/s");
    let counter = |name: &str| snap.counter(name) as f64;
    let wall = counter(names::WORKER_WALL_US);
    out.put(
        "serve.scheduler.busy_ratio",
        ratio(counter(names::WORKER_BUSY_US), wall),
        "ratio",
    );
    out.put(
        "serve.scheduler.steal_scan_ratio",
        ratio(counter(names::WORKER_STEAL_SCAN_US), wall),
        "ratio",
    );
    out.put("serve.scheduler.steals", counter(names::STEALS), "count");
    out.put("serve.scheduler.parks", counter(names::PARKS), "count");
    out.put(
        "serve.scheduler.ready_queue_hwm",
        snap.gauge(names::READY_QUEUE_HWM) as f64,
        "count",
    );
    out.put(
        "serve.scheduler.mailbox_depth_hwm",
        snap.gauge(names::MAILBOX_DEPTH_HWM) as f64,
        "count",
    );
    out.put(
        "serve.scheduler.overloads",
        counter(names::OVERLOADS),
        "count",
    );
}
