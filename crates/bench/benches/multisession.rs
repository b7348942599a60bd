//! Multi-session host throughput: K sessions × M commands driven
//! through [`SessionHost`] at increasing worker counts, with a
//! byte-identity oracle (every hosted session's final frame must equal
//! a solo [`LiveSession`] replaying the same command log).
//!
//! Reports aggregate command throughput, session walks per second, and
//! p50/p99 per-command latency at 1, 4, and `available_parallelism`
//! workers to `BENCH_multisession.json` — each run carries a `speedup`
//! field (its throughput over the 1-worker run's), and
//! `speedup_at_max_workers` is the speedup of the run with the **most
//! workers actually benched** (an earlier revision keyed it to the
//! `num_cpus` run, which on a 1-CPU box compared the 1-worker run to
//! itself and reported 1.00 while the 4-worker run sat at 0.4×). The
//! report also embeds the max-workers run's [`MetricsSnapshot`] (wire
//! form).
//!
//! A second workload is the **load generator**: L sessions (default
//! 10 000) driven by a small pool of client threads with a skewed
//! command mix (20% of each client's sessions receive ~80% of its
//! commands) and pipelined submits, so mailboxes develop real depth
//! and the host's backpressure, stealing, and parking paths all run.
//! A submission refused with the typed `Overloaded` signal is retried
//! under a bounded budget with jittered completion-based backoff (the
//! client drains some of its own in-flight tickets — no wall-clock
//! sleeps); only commands that exhaust the budget are shed, reported
//! as `gave_up` (== `shed`) alongside `retries`. A sample of sessions
//! is replayed solo for the byte-identity oracle; and the quiesced
//! shutdown snapshot must satisfy the worker accounting identity
//! (busy + parked + steal-scan == wall) exactly.
//!
//! A third workload is the **scenario corpus**: one hosted session per
//! generated `alive-corpus` program (twenty distinct programs, so the
//! host's program cache keys per-program instead of sharing one
//! compile). Each session's script is written beforehand by a solo
//! session on the same program, which picks every tap from its last
//! frame and mixes `Examples` probes into the stream; the hosted
//! session's final frame must equal that solo session's.
//!
//! Env knobs (used by the CI smoke step):
//! * `ALIVE_BENCH_SESSIONS` — K, default 16
//! * `ALIVE_BENCH_COMMANDS` — M, default 200
//! * `ALIVE_BENCH_LOAD_SESSIONS` — L, default 10 000
//! * `ALIVE_BENCH_LOAD_COMMANDS` — total loadgen commands, default
//!   100 000

use alive_core::boxtree::BoxNode;
use alive_core::Attr;
use alive_live::{LiveSession, MetricsSnapshot, SessionCommand, SessionEffect};
use alive_serve::{names, HostConfig, HostError, SessionHost, SessionId};
use alive_testkit::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const APP_SRC: &str = r#"
global score : number = 0
page start() {
    init { }
    render {
        boxed {
            post "score: " ++ score;
        }
        for i in 0 .. 4 {
            boxed {
                post "+" ++ (i + 1);
                on tap { score := score + i + 1; }
            }
        }
        boxed {
            post "open detail";
            on tap { push detail(score); }
        }
    }
}
page detail(n : number) {
    render {
        boxed { post "at " ++ n; on tap { pop; } }
    }
}
"#;

/// The deterministic per-session command stream: mostly taps (the
/// steady-state load), some page navigation, a frame read every few
/// commands — the shape of an interactive user.
fn command_stream(session_index: usize, m: usize) -> Vec<SessionCommand> {
    let mut rng = Rng::new(0xBE9C_0000 ^ session_index as u64);
    (0..m)
        .map(|_| match rng.below(10) {
            0..=5 => SessionCommand::TapPath(vec![1 + rng.below(4)]),
            6 => SessionCommand::TapPath(vec![5]),
            7 => SessionCommand::Back,
            _ => SessionCommand::Frame,
        })
        .collect()
}

struct RunStats {
    workers: usize,
    seconds: f64,
    commands: usize,
    latencies_us: Vec<u64>,
}

impl RunStats {
    fn commands_per_sec(&self) -> f64 {
        self.commands as f64 / self.seconds
    }

    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[rank]
    }

    fn to_json(&self, k: usize, single_cps: f64) -> String {
        format!(
            concat!(
                "{{\"workers\":{},\"seconds\":{:.4},\"commands\":{},",
                "\"commands_per_sec\":{:.1},\"sessions_per_sec\":{:.2},",
                "\"speedup\":{:.2},\"p50_us\":{},\"p99_us\":{}}}"
            ),
            self.workers,
            self.seconds,
            self.commands,
            self.commands_per_sec(),
            k as f64 / self.seconds,
            self.commands_per_sec() / single_cps.max(1e-9),
            self.percentile_us(0.50),
            self.percentile_us(0.99),
        )
    }
}

/// Drive K sessions × M commands against a fresh host with `workers`
/// workers: one client thread per session applying its stream
/// synchronously (the latency of each apply is the user-visible
/// round-trip). Asserts the byte-identity oracle before returning the
/// run's stats and the host's snapshot of the timed load.
fn run(workers: usize, k: usize, m: usize) -> (RunStats, MetricsSnapshot) {
    let host = Arc::new(SessionHost::new(HostConfig::with_workers(workers)));
    let ids: Vec<_> = (0..k)
        .map(|_| host.create_session(APP_SRC).expect("app compiles"))
        .collect();
    assert_eq!(
        host.programs_compiled(),
        1,
        "K sessions must share one compile"
    );

    let started = Instant::now();
    let handles: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(index, &id)| {
            let host = Arc::clone(&host);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(m);
                for command in command_stream(index, m) {
                    let t0 = Instant::now();
                    host.apply(id, command).expect("host serves");
                    latencies.push(t0.elapsed().as_micros() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(k * m);
    for handle in handles {
        latencies_us.extend(handle.join().expect("client thread"));
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);
    // Snapshot before the oracle replay below so the artifact reflects
    // exactly the timed K×M load.
    let snapshot = host.metrics_snapshot();

    // Byte-identity oracle: every hosted session's final frame equals a
    // solo session replaying the same command log.
    for (index, &id) in ids.iter().enumerate() {
        let hosted = host.apply(id, SessionCommand::Frame).expect("host serves");
        let mut solo = LiveSession::new(APP_SRC).expect("solo starts");
        for command in command_stream(index, m) {
            solo.apply(command);
        }
        let local = solo.apply(SessionCommand::Frame);
        assert_eq!(
            hosted, local,
            "session {index}: hosted frame diverged from solo replay"
        );
        let (Some(SessionEffect::Frame(h)), Some(SessionEffect::Frame(l))) =
            (hosted.first(), local.first())
        else {
            panic!("session {index}: expected frames");
        };
        assert_eq!(h.view, l.view, "session {index}: view bytes differ");
    }

    latencies_us.sort_unstable();
    (
        RunStats {
            workers,
            seconds,
            commands: k * m,
            latencies_us,
        },
        snapshot,
    )
}

/// What one load-generator client did with its command budget.
struct ClientTally {
    /// Per-session logs of the commands the host actually admitted.
    logs: Vec<Vec<SessionCommand>>,
    /// Overload refusals the client answered with a backoff + retry.
    retries: u64,
    /// Commands dropped after the retry budget ran out — the only
    /// submissions that never reached a mailbox.
    gave_up: u64,
}

/// One load-generator client's work: drive its slice of sessions with
/// a skewed, pipelined command stream. A submission refused with the
/// typed [`HostError::Overloaded`] backpressure signal is retried with
/// a bounded budget: between attempts the client *drains a jittered
/// number of its own in-flight tickets* — completion-based backoff
/// (the host finishing work is what clears the mailbox), jittered by
/// the testkit PRNG so clients desynchronize, with no wall-clock
/// sleeps anywhere. Past the budget the command is dropped and
/// counted `gave_up`, exactly as a transport would give a client a
/// final 429.
fn loadgen_client(
    host: &SessionHost,
    ids: &[SessionId],
    commands: usize,
    seed: u64,
) -> ClientTally {
    /// In-flight tickets per client: deep enough to build real mailbox
    /// depth on hot sessions, bounded so a stalled host backs the
    /// client up instead of ballooning memory.
    const WINDOW: usize = 64;
    /// Submission attempts per command (1 + up to 3 retries).
    const ATTEMPTS: usize = 4;
    let mut rng = Rng::new(0x10AD_0000 ^ seed);
    // The skew: the first fifth of the slice is "hot" and receives
    // ~80% of this client's commands — a few busy sessions among many
    // mostly-idle ones, the shape a network host actually sees.
    let hot = (ids.len() / 5).max(1);
    let mut logs: Vec<Vec<SessionCommand>> = vec![Vec::new(); ids.len()];
    let mut window: VecDeque<alive_serve::EffectTicket> = VecDeque::with_capacity(WINDOW);
    let mut retries = 0u64;
    let mut gave_up = 0u64;
    for _ in 0..commands {
        let target = if rng.below(10) < 8 {
            rng.below(hot)
        } else {
            rng.below(ids.len())
        };
        let command = match rng.below(10) {
            0..=5 => SessionCommand::TapPath(vec![1 + rng.below(4)]),
            6 => SessionCommand::TapPath(vec![5]),
            7 => SessionCommand::Back,
            _ => SessionCommand::Frame,
        };
        for attempt in 0..ATTEMPTS {
            match host.submit(ids[target], command.clone()) {
                Ok(ticket) => {
                    logs[target].push(command.clone());
                    window.push_back(ticket);
                    if window.len() >= WINDOW {
                        if let Some(ticket) = window.pop_front() {
                            ticket.wait().expect("host serves");
                        }
                    }
                    break;
                }
                Err(HostError::Overloaded { .. }) if attempt + 1 < ATTEMPTS => {
                    // Jittered completion-based backoff: wait for 1–8
                    // of our own in-flight commands to finish before
                    // trying again. An empty window means the backlog
                    // is other clients' — retry immediately.
                    retries += 1;
                    for _ in 0..1 + rng.below(8) {
                        match window.pop_front() {
                            Some(ticket) => {
                                ticket.wait().expect("host serves");
                            }
                            None => break,
                        }
                    }
                }
                // Budget exhausted: the final refusal sheds the
                // command for good.
                Err(HostError::Overloaded { .. }) => gave_up += 1,
                Err(e) => panic!("loadgen submit failed: {e}"),
            }
        }
    }
    for ticket in window {
        ticket.wait().expect("host serves");
    }
    ClientTally {
        logs,
        retries,
        gave_up,
    }
}

/// The load-generator workload: L sessions served by `workers` workers
/// and driven from a small client pool with skew and pipelining (see
/// the module docs). Asserts the sampled byte-identity oracle and the
/// quiesced worker accounting identity, and returns the workload's
/// JSON report object.
fn run_loadgen(workers: usize) -> String {
    let sessions = env_usize("ALIVE_BENCH_LOAD_SESSIONS", 10_000).max(1);
    let total_commands = env_usize("ALIVE_BENCH_LOAD_COMMANDS", 100_000);

    let host = Arc::new(SessionHost::new(HostConfig::with_workers(workers)));
    let ids: Vec<SessionId> = (0..sessions)
        .map(|_| host.create_session(APP_SRC).expect("app compiles"))
        .collect();
    assert_eq!(
        host.programs_compiled(),
        1,
        "10k sessions must share one compile"
    );

    // Client pool: a handful of threads regardless of session count —
    // thousands of sessions, not thousands of drivers. The chunk size
    // decides the real client count (a tiny session count yields fewer
    // clients than the target, never empty chunks).
    let target_clients = workers.clamp(2, 16).min(sessions);
    let chunk = sessions.div_ceil(target_clients);
    let clients = sessions.div_ceil(chunk);
    let per_client = total_commands / clients;
    let started = Instant::now();
    let handles: Vec<_> = ids
        .chunks(chunk)
        .enumerate()
        .map(|(client, slice)| {
            let host = Arc::clone(&host);
            let slice = slice.to_vec();
            std::thread::spawn(move || loadgen_client(&host, &slice, per_client, client as u64))
        })
        .collect();
    let mut retries = 0u64;
    let mut gave_up = 0u64;
    let mut logs: Vec<(SessionId, Vec<SessionCommand>)> = Vec::new();
    for (client, handle) in handles.into_iter().enumerate() {
        let tally = handle.join().expect("client thread");
        retries += tally.retries;
        gave_up += tally.gave_up;
        let lo = client * chunk;
        logs.extend(
            tally
                .logs
                .into_iter()
                .enumerate()
                .map(|(i, log)| (ids[lo + i], log)),
        );
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);
    let submitted = (per_client * clients) as u64;
    // Shed = dropped for good. Retried-then-admitted commands are not
    // shed — the retry loop is exactly what keeps this at zero under
    // transient overload.
    let shed = gave_up;
    let applied = submitted - shed;

    // Sampled byte-identity oracle: the hottest and coldest session of
    // each client, replayed solo against the logs of what the host
    // actually admitted (per-session order is submission order because
    // each session has exactly one driving client).
    let mut oracle_sessions = 0usize;
    for client in 0..clients {
        let lo = client * chunk;
        let hi = (lo + chunk).min(sessions);
        for index in [lo, hi - 1] {
            let (id, log) = &logs[index];
            let hosted = host.apply(*id, SessionCommand::Frame).expect("host serves");
            let mut solo = LiveSession::new(APP_SRC).expect("solo starts");
            for command in log {
                solo.apply(command.clone());
            }
            let local = solo.apply(SessionCommand::Frame);
            assert_eq!(
                hosted, local,
                "loadgen session {index}: hosted frame diverged from solo replay"
            );
            oracle_sessions += 1;
            if lo == hi - 1 {
                break;
            }
        }
    }

    let snapshot = Arc::into_inner(host).expect("clients joined").shutdown();
    // Quiesced accounting identity: every worker microsecond is busy,
    // parked, or steal-scanning — contention can no longer hide in
    // idle because there is no shared ready-queue lock to contend on.
    let busy = snapshot.counter(names::WORKER_BUSY_US);
    let parked = snapshot.counter(names::WORKER_PARKED_US);
    let scan = snapshot.counter(names::WORKER_STEAL_SCAN_US);
    assert_eq!(
        busy + parked + scan,
        snapshot.counter(names::WORKER_WALL_US),
        "worker accounting identity violated"
    );
    assert_eq!(
        snapshot.counter(names::OVERLOADS),
        retries + gave_up,
        "every refused submit attempt (retried or dropped) is a counted overload"
    );
    let latency = snapshot.histogram(names::CMD_LATENCY_US);
    let p50 = latency.and_then(|h| h.p50_us()).unwrap_or(0);
    let p99 = latency.and_then(|h| h.p99_us()).unwrap_or(0);
    let steals = snapshot.counter(names::STEALS);
    let parks = snapshot.counter(names::PARKS);
    eprintln!(
        "loadgen: {sessions} sessions / {clients} clients: {:.1} commands/s, p50 {p50} µs, p99 {p99} µs, {steals} steals, {parks} parks, {retries} retries, {gave_up} gave up ({applied} commands in {seconds:.2}s)",
        applied as f64 / seconds,
    );
    format!(
        concat!(
            "{{\"sessions\":{},\"clients\":{},\"workers\":{},",
            "\"commands_submitted\":{},\"commands_applied\":{},\"shed\":{},",
            "\"retries\":{},\"gave_up\":{},",
            "\"seconds\":{:.4},\"commands_per_sec\":{:.1},",
            "\"p50_us\":{},\"p99_us\":{},\"steals\":{},\"parks\":{},",
            "\"hot_fraction\":0.2,\"hot_share\":0.8,\"oracle_sessions\":{}}}"
        ),
        sessions,
        clients,
        workers,
        submitted,
        applied,
        shed,
        retries,
        gave_up,
        seconds,
        applied as f64 / seconds,
        p50,
        p99,
        steals,
        parks,
        oracle_sessions,
    )
}

/// The corpus workload: one hosted session per generated scenario
/// program — twenty *distinct* programs, so the host's program cache
/// keys per-program (`programs_compiled == corpus size`, unlike the
/// K-sessions runs that share one compile). Each hosted session runs
/// the script a solo session wrote beforehand on the same program (see
/// [`corpus_script`]), and its final frame must equal that solo
/// session's. Every answer is counted as `refused` if it carries a
/// [`SessionEffect::Refused`]; scripts picked from frames never should.
fn run_corpus(workers: usize, m: usize) -> String {
    let corpus = alive_corpus::corpus();
    let host = Arc::new(SessionHost::new(HostConfig::with_workers(workers)));
    let sessions: Vec<(SessionId, Vec<SessionCommand>, Vec<SessionEffect>)> = corpus
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            let id = host
                .create_session(&entry.source)
                .expect("corpus programs compile");
            let (script, solo_frame) = corpus_script(index, &entry.source, m);
            (id, script, solo_frame)
        })
        .collect();
    assert_eq!(
        host.programs_compiled(),
        corpus.len() as u64,
        "each distinct corpus program compiles exactly once"
    );

    let started = Instant::now();
    let handles: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(index, (id, script, _))| {
            let host = Arc::clone(&host);
            let (id, script) = (*id, script.clone());
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(m);
                let mut probes = 0u64;
                let mut refused = 0u64;
                for command in script {
                    let probing = matches!(command, SessionCommand::Examples);
                    let t0 = Instant::now();
                    let effects = host.apply(id, command).expect("host serves");
                    latencies.push(t0.elapsed().as_micros() as u64);
                    if effects
                        .iter()
                        .any(|e| matches!(e, SessionEffect::Refused(_)))
                    {
                        refused += 1;
                    }
                    if probing {
                        let probed = effects
                            .iter()
                            .any(|e| matches!(e, SessionEffect::Examples(p) if !p.is_empty()));
                        assert!(probed, "corpus session {index}: examples probe was empty");
                        probes += 1;
                    }
                }
                (latencies, probes, refused)
            })
        })
        .collect();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(sessions.len() * m);
    let mut examples_probed = 0u64;
    let mut refused = 0u64;
    for handle in handles {
        let (latencies, probes, refusals) = handle.join().expect("client thread");
        latencies_us.extend(latencies);
        examples_probed += probes;
        refused += refusals;
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);

    // Byte-identity oracle over every corpus session.
    for (index, (id, _, solo_frame)) in sessions.iter().enumerate() {
        let hosted = host.apply(*id, SessionCommand::Frame).expect("host serves");
        assert_eq!(
            &hosted, solo_frame,
            "corpus session {index}: hosted frame diverged from the solo session"
        );
    }

    latencies_us.sort_unstable();
    let stats = RunStats {
        workers,
        seconds,
        commands: sessions.len() * m,
        latencies_us,
    };
    eprintln!(
        "corpus: {} programs x {m} commands: {:.1} commands/s, p50 {} µs, p99 {} µs, {examples_probed} example probes, {refused} refused ({:.2}s)",
        sessions.len(),
        stats.commands_per_sec(),
        stats.percentile_us(0.50),
        stats.percentile_us(0.99),
        seconds,
    );
    format!(
        concat!(
            "{{\"programs\":{},\"programs_compiled\":{},\"workers\":{},",
            "\"commands\":{},\"seconds\":{:.4},\"commands_per_sec\":{:.1},",
            "\"p50_us\":{},\"p99_us\":{},\"examples_probed\":{},",
            "\"refused\":{},\"oracle_sessions\":{}}}"
        ),
        sessions.len(),
        host.programs_compiled(),
        workers,
        stats.commands,
        seconds,
        stats.commands_per_sec(),
        stats.percentile_us(0.50),
        stats.percentile_us(0.99),
        examples_probed,
        refused,
        sessions.len(),
    )
}

/// One corpus session's deterministic script, written by a solo session
/// on `source` with the rule of the live-loop benchmark's `tap_step`:
/// half the commands tap a box of the last frame that has an `ontap`
/// handler (a frame read if none has), a tenth are `Back` while a page
/// is pushed (a tap otherwise), a fifth are `Examples` probes and a
/// fifth frame reads. Returns the script and the solo session's final
/// frame.
fn corpus_script(
    index: usize,
    source: &str,
    m: usize,
) -> (Vec<SessionCommand>, Vec<SessionEffect>) {
    let mut rng = Rng::new(0xC0_9035 ^ index as u64);
    let mut solo = LiveSession::new(source).expect("solo starts");
    let mut tree = solo.display_tree().expect("corpus programs render");
    let mut script = Vec::with_capacity(m);
    for _ in 0..m {
        let command = match rng.below(10) {
            5 if solo.system().page_stack().len() > 1 => SessionCommand::Back,
            0..=5 => {
                let tappable = tappable_paths(&tree);
                if tappable.is_empty() {
                    SessionCommand::Frame
                } else {
                    SessionCommand::TapPath(rng.choose(&tappable).clone())
                }
            }
            6 | 7 => SessionCommand::Examples,
            _ => SessionCommand::Frame,
        };
        for effect in solo.apply(command.clone()) {
            if let SessionEffect::Frame(frame) = effect {
                if let Some(frame_tree) = frame.tree {
                    tree = frame_tree;
                }
            }
        }
        script.push(command);
    }
    (script, solo.apply(SessionCommand::Frame))
}

/// Paths of the boxes in `tree` that carry an `ontap` handler.
fn tappable_paths(tree: &BoxNode) -> Vec<Vec<usize>> {
    let mut paths = Vec::new();
    tree.walk(&mut |path, node| {
        if node.attr(Attr::OnTap).is_some() {
            paths.push(path.to_vec());
        }
    });
    paths
}

/// Minimal JSON string escaping for the wire snapshot (names are
/// registry-sanitized, so only newlines and the JSON specials occur).
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let k = env_usize("ALIVE_BENCH_SESSIONS", 16);
    let m = env_usize("ALIVE_BENCH_COMMANDS", 200);
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut worker_counts = vec![1, 4, ncpu];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    // Warm up file caches / first-compile costs outside the timed runs.
    drop(run(1, 2.min(k), 8.min(m)));

    // `worker_counts` ascends, so the snapshot kept for the artifact is
    // the max-workers run's.
    let mut host_snapshot = MetricsSnapshot::default();
    let runs: Vec<RunStats> = worker_counts
        .iter()
        .map(|&workers| {
            let (stats, snapshot) = run(workers, k, m);
            host_snapshot = snapshot;
            eprintln!(
                "workers={:>2}: {:>8.1} commands/s, p50 {} µs, p99 {} µs ({} commands in {:.2}s)",
                stats.workers,
                stats.commands_per_sec(),
                stats.percentile_us(0.50),
                stats.percentile_us(0.99),
                stats.commands,
                stats.seconds,
            );
            stats
        })
        .collect();

    // The scaling headline: the run with the MOST workers benched,
    // against the 1-worker baseline. (An earlier revision looked up
    // the `workers == ncpu` run, which on a 1-CPU machine *was* the
    // baseline — it reported speedup 1.00 around a measured 0.4×
    // inversion. The max-workers run is the one the claim is about.)
    let single = runs
        .iter()
        .find(|r| r.workers == 1)
        .map_or(1.0, RunStats::commands_per_sec);
    let max_run = runs
        .iter()
        .max_by_key(|r| r.workers)
        .unwrap_or_else(|| unreachable!("worker_counts is never empty"));
    let max_workers = max_run.workers;
    let speedup = max_run.commands_per_sec() / single.max(1e-9);
    eprintln!("speedup at {max_workers} workers vs 1: {speedup:.2}x (oracle: byte-identical)");
    // The ≥2.5× bar only means anything on a machine with real
    // parallelism; a single-core runner measures scheduling overhead.
    if ncpu >= 4 && speedup < 2.5 {
        eprintln!(
            "WARNING: expected ≥2.5x speedup at {max_workers} workers, measured {speedup:.2}x"
        );
    }

    // The host's own snapshot goes into the artifact (wire form,
    // embedded as an escaped JSON string).
    let cmd_latency = host_snapshot.histogram("host.cmd_latency_us");
    let host_p50 = cmd_latency.and_then(|h| h.p50_us()).unwrap_or(0);
    let host_p99 = cmd_latency.and_then(|h| h.p99_us()).unwrap_or(0);

    // The load-generator workload: many sessions, few clients, skewed
    // traffic, pipelined submits — the shape of a network-facing host.
    let load = run_loadgen(ncpu);

    // The heterogeneous corpus workload: twenty distinct scenario
    // programs, one session each, example probes in the stream.
    let corpus = run_corpus(ncpu, m);

    let body: Vec<String> = runs.iter().map(|r| r.to_json(k, single)).collect();
    let report = format!(
        "{{\"sessions\":{},\"commands_per_session\":{},\"cpus\":{},\"max_workers\":{},\"speedup_at_max_workers\":{:.2},\"oracle\":\"byte-identical final frames vs solo replay\",\"runs\":[{}],\"loadgen\":{},\"corpus\":{},\"host_metrics\":{{\"cmd_latency_p50_us\":{},\"cmd_latency_p99_us\":{},\"snapshot_wire\":\"{}\"}}}}\n",
        k,
        m,
        ncpu,
        max_workers,
        speedup,
        body.join(","),
        load,
        corpus,
        host_p50,
        host_p99,
        json_escape(&host_snapshot.to_wire()),
    );
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_multisession.json");
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", out.display());
}
