//! Solo sessions driven in a closed loop on one thread: the `keystroke`,
//! `tap` and `tap_memo` workloads, and the solo replays that write the
//! `hosted` scripts.
//!
//! A solo run is a sequence of rounds. Each round starts one fresh
//! session per corpus program (the set-up `setup_s` times), then drives
//! `ROUND_COMMANDS` commands per session round-robin, drawn from the
//! round's own sub-seed of `--seed`. A run reports the first quartile of
//! its round latencies and the median set-up: on a shared machine,
//! neighbours slow it down in bursts of a second or more, and the low
//! quartile is a round no burst reached. Fresh sessions per round also
//! keep the load stationary: dashboard and editor taps append rows, and
//! a long-lived session drifts to ever larger frames.

use crate::corpus::Entry;
use crate::gen::{hosted_step, tap_step, Expect, KeyGen, Step};
use crate::stats::{low_quartile, median, Samples};
use crate::traced::{TracedSession, Tracer};
use alive_core::boxtree::BoxNode;
use alive_corpus::{fnv1a_64, Rng};
use alive_live::{LiveSession, SessionCommand, SessionEffect};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed commands per session per round.
pub const ROUND_COMMANDS: u32 = 64;

/// Which command stream a lane is driven with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Keystroke,
    Tap,
    Hosted,
}

/// One session and its generator state.
pub struct Lane {
    pub entry: usize,
    pub session: LiveSession,
    /// The lockstep rebuild of `session`, in traced runs.
    traced: Option<TracedSession>,
    /// The frame the session last returned.
    tree: Arc<BoxNode>,
    keys: KeyGen,
    /// Timed commands since the lane started.
    commands: u32,
    /// Every command applied, when recording.
    pub log: Option<Vec<Step>>,
}

impl Lane {
    pub fn new(entry: usize, source: &str, mut session: LiveSession, traced: bool) -> Lane {
        let tree = session.display_tree().expect("corpus programs render");
        let memo = session.memo_stats().is_some();
        let traced = traced.then(|| TracedSession::new(source, session.system().clone(), memo));
        Lane {
            entry,
            session,
            traced,
            tree,
            keys: KeyGen::new(source),
            commands: 0,
            log: None,
        }
    }

    fn pages(&self) -> usize {
        self.session.system().page_stack().len()
    }
}

/// Totals of a solo run (or of the replays behind hosted scripts).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every timed command, pooled over rounds.
    pub samples: Samples,
    /// Per corpus size, in `CorpusSize::all()` order.
    pub by_size: [Samples; 4],
    /// Per round: mean and p90 latency (µs) and set-up time (s).
    pub rounds: Vec<(f64, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Traced runs: time in the rebuilt session per timed command.
    pub traced: Samples,
    pub tracer: Tracer,
}

impl Outcome {
    /// Over rounds: the low quartiles of mean and p90 latency (µs) and
    /// the median set-up time (s).
    pub fn round_summary(&self) -> (f64, f64, f64) {
        let column = |f: fn(&(f64, f64, f64)) -> f64| self.rounds.iter().map(f).collect::<Vec<_>>();
        (
            low_quartile(&column(|r| r.0)),
            low_quartile(&column(|r| r.1)),
            median(&column(|r| r.2)),
        )
    }
}

/// Run identical rounds until `seconds` have passed (at least one), and
/// return the last round's lanes for the output checks.
pub fn run(
    entries: &[Entry],
    stream: Stream,
    memo: bool,
    traced: bool,
    seed: u64,
    seconds: f64,
) -> (Outcome, Vec<Lane>) {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let clock = Instant::now();
        let sessions: Vec<LiveSession> = entries
            .iter()
            .map(|entry| {
                let started = if memo {
                    LiveSession::with_memo(&entry.source)
                } else {
                    LiveSession::new(&entry.source)
                };
                started.unwrap_or_else(|e| panic!("{}: {e}", entry.name))
            })
            .collect();
        let setup_s = clock.elapsed().as_secs_f64();
        let mut lanes: Vec<Lane> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| {
                let mut lane = Lane::new(i, &entries[i].source, session, traced);
                lane.log = memo.then(Vec::new);
                lane
            })
            .collect();
        if stream == Stream::Keystroke {
            for lane in &mut lanes {
                warm(&entries[lane.entry], lane, &mut out);
            }
        }
        let mut rng = Rng::new(fnv1a_64(format!("{seed}/{}", out.rounds.len()).as_bytes()));
        let mut round = Samples::default();
        let mut turn = 0usize;
        while lanes.iter().any(|lane| lane.commands < ROUND_COMMANDS) {
            let lane = &mut lanes[turn % entries.len()];
            turn += 1;
            if lane.commands >= ROUND_COMMANDS {
                continue;
            }
            // A keystroke unit is a whole burst: bursts end on the
            // original source.
            loop {
                let ns = step(&entries[lane.entry], lane, stream, &mut rng, &mut out);
                round.push(ns);
                if stream != Stream::Keystroke || lane.keys.at_boundary() {
                    break;
                }
            }
        }
        out.rounds
            .push((round.mean_us(), round.quantile_us(0.90), setup_s));
        if Instant::now() >= deadline {
            return (out, lanes);
        }
    }
}

/// Generate and apply one timed command from the frame the lane last
/// returned, returning its latency in ns.
pub fn step(
    entry: &Entry,
    lane: &mut Lane,
    stream: Stream,
    rng: &mut Rng,
    out: &mut Outcome,
) -> u64 {
    let pages = lane.pages();
    let depth = lane.session.undo_depth();
    let step = match stream {
        Stream::Tap => tap_step(rng, &lane.tree, pages),
        Stream::Keystroke => lane.keys.next(rng, &entry.sites, &lane.tree, depth),
        Stream::Hosted => hosted_step(rng, &mut lane.keys, &entry.sites, &lane.tree, pages, depth),
    };
    apply(entry, lane, step, true, out)
}

/// Resubmit a keystroke lane's source once, untimed: fills the
/// incremental parse cache and gives `Undo` a history entry.
fn warm(entry: &Entry, lane: &mut Lane, out: &mut Outcome) {
    let step = Step {
        command: SessionCommand::EditSource(entry.source.clone()),
        expect: Expect::Frame,
    };
    apply(entry, lane, step, false, out);
}

/// Apply one step to a lane and its traced twin, check the outcome, and
/// return the session's `apply` time in ns (recorded when `timed`).
fn apply(entry: &Entry, lane: &mut Lane, step: Step, timed: bool, out: &mut Outcome) -> u64 {
    let command = step.command.clone();
    let started = Instant::now();
    let effects = lane.session.apply(command);
    let ns = started.elapsed().as_nanos() as u64;
    let mut ok = step.expect.holds(&effects);
    if !ok {
        eprintln!(
            "{}: unexpected outcome of {:?}: {effects:?}",
            entry.name, step.command
        );
    }
    if let Some(traced) = lane.traced.as_mut() {
        // Untimed commands leave no trace: restore the totals after.
        let saved = (!timed).then(|| out.tracer.clone());
        let started = Instant::now();
        let answer = traced.apply(&step.command, &mut out.tracer);
        let traced_ns = started.elapsed().as_nanos() as u64;
        let view = lane.session.live_view();
        if !answer.agrees(&effects) || traced.view() != Some(view.as_str()) {
            eprintln!(
                "{}: traced session diverged after {:?}: {answer:?}",
                entry.name, step.command
            );
            ok = false;
        }
        match saved {
            Some(saved) => out.tracer = saved,
            None => {
                out.traced.push(traced_ns);
                out.tracer.end_command(ns);
            }
        }
    }
    if let Some(SessionEffect::Frame(frame)) = effects.last() {
        if let Some(tree) = &frame.tree {
            lane.tree = Arc::clone(tree);
        }
    }
    out.failed += u64::from(!ok);
    if timed {
        lane.commands += 1;
        out.samples.push(ns);
        out.by_size[entry.size as usize].push(ns);
        out.attempted += 1;
    }
    if let Some(log) = lane.log.as_mut() {
        log.push(step);
    }
    ns
}

/// The final-view check: every session's view equals a from-scratch
/// layout and paint of its display tree.
pub fn views_match_from_scratch(entries: &[Entry], lanes: &mut [Lane]) -> bool {
    let mut all = true;
    for lane in lanes {
        let view = lane.session.live_view();
        let tree = lane.session.display_tree().expect("corpus programs render");
        if view != alive_ui::render_to_text(&alive_ui::layout(&tree)) {
            eprintln!(
                "{}: final view differs from a from-scratch render",
                entries[lane.entry].name
            );
            all = false;
        }
    }
    all
}

/// Replay each lane's log on a session without the render memo and
/// compare final views: the memo must not change what is shown.
pub fn memo_views_match_plain(entries: &[Entry], lanes: &mut [Lane]) -> bool {
    let mut all = true;
    for lane in lanes {
        let entry = &entries[lane.entry];
        let mut plain = LiveSession::new(&entry.source).expect("corpus programs compile");
        for step in lane.log.iter().flatten() {
            plain.apply(step.command.clone());
        }
        if plain.live_view() != lane.session.live_view() {
            eprintln!(
                "{}: memoized final view differs from the plain replay",
                entry.name
            );
            all = false;
        }
    }
    all
}
