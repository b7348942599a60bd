//! `alive-serve` — a concurrent multi-session host.
//!
//! The paper's live loop serves one programmer; the ROADMAP's north
//! star serves many. This crate is the bridge: a [`SessionHost`] owns N
//! [`LiveSession`]s and drives them from a **fixed worker pool**, with
//! three structural guarantees:
//!
//! * **Per-session mailboxes.** Each session has a FIFO command queue
//!   and is drained by at most one worker at a time (an atomic
//!   `scheduled` flag hands the session around), so commands for one
//!   session apply in submission order while different sessions run in
//!   parallel — the actor model, built from `std` parts only. Ready
//!   sessions flow through per-worker sharded run-queues with
//!   work-stealing and condvar parking (see `scheduler`), so adding
//!   workers adds throughput instead of contention, and mailboxes have
//!   a high-water capacity: past it, `submit` load-sheds with a typed
//!   [`HostError::Overloaded`] instead of queueing without bound.
//! * **Shared compiled programs.** Source text is compiled once per
//!   version and every session born from it shares the same
//!   `Arc<Program>` — parse, lower, and typecheck are per-version
//!   costs, not per-session costs.
//! * **Snapshot-consistent frame fan-out.** After every command the
//!   worker publishes the session's latest [`FrameSnapshot`] behind an
//!   `Arc`; any number of observers read whole frames (never torn
//!   ones) with a refcount bump, no copying and no session lock.
//!
//! Everything a frontend does travels as [`SessionCommand`] →
//! [`SessionEffect`] — the same total protocol the local frontends use,
//! so hosting changes *where* a session runs, not *what* it answers.
//! The host's own work on a session (an edit transaction's update,
//! revert, promote and fault probe) is a closure queued on the same
//! mailbox, so it lands between client commands, never inside one; one
//! fan-out queues it on every target before awaiting any answer.

#![warn(missing_docs)]
// Same fault-containment discipline as alive-core: the host must never
// abort the process, and a panic costs only the session it happened in
// (see `drain_session`). Failures are typed (`HostError`) or contained;
// locks recover from poisoning (session state is either taken out of
// the slot or intact).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod rollout;
mod scheduler;

use alive_core::system::SystemConfig;
use alive_core::Program;
use alive_live::{FrameSnapshot, LiveSession, SessionCommand, SessionEffect, TxPhase};
use alive_obs::{Clock, Counter, Gauge, Histogram, MetricsSnapshot, MonotonicClock, Registry};
use alive_syntax::{apply_edits, Diagnostics, EditError, TextEdit};
use rollout::{CanaryState, ProgramStore, RolloutConfig, Transaction, TxState};
use scheduler::Scheduler;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Metric names recorded by the host itself. Per-session names
/// (`session.*`, `system.*`, `frame.*`) are documented by
/// `alive_live::metrics::names` and `alive_core::metrics::names`; the
/// `host.*` names below cover what only the host can see: queueing,
/// worker utilization, and the program cache.
pub mod names {
    /// µs applying one command inside a worker, recorded per session
    /// (histograms add bucket-wise in the host snapshot).
    pub const CMD_LATENCY_US: &str = "host.cmd_latency_us";
    /// High-water mark of one session's mailbox depth (gauges keep the
    /// max in the host snapshot: the deepest mailbox ever seen).
    pub const MAILBOX_DEPTH_HWM: &str = "host.mailbox_depth_hwm";
    /// High-water mark of the ready queue (sessions awaiting a worker).
    pub const READY_QUEUE_HWM: &str = "host.ready_queue_hwm";
    /// Total µs workers spent draining session mailboxes.
    pub const WORKER_BUSY_US: &str = "host.worker_busy_us";
    /// Total µs workers spent parked on the scheduler condvar (no work
    /// anywhere). The cheap half of idle: a parked worker burns no CPU.
    pub const WORKER_PARKED_US: &str = "host.worker_parked_us";
    /// Total µs workers spent scanning run-queue shards for work
    /// (their own shard plus steal scans, successful or not).
    pub const WORKER_STEAL_SCAN_US: &str = "host.worker_steal_scan_us";
    /// Total µs of worker loop wall time. By construction
    /// `WORKER_BUSY_US + WORKER_PARKED_US + WORKER_STEAL_SCAN_US ==
    /// WORKER_WALL_US` — every worker microsecond is attributed to
    /// exactly one of the three (pinned by the obs invariant suite).
    pub const WORKER_WALL_US: &str = "host.worker_wall_us";
    /// Sessions claimed from another worker's run-queue shard.
    pub const STEALS: &str = "host.steals";
    /// Times a worker actually blocked on the scheduler condvar.
    pub const PARKS: &str = "host.parks";
    /// Submissions refused with [`crate::HostError::Overloaded`]
    /// because the session's mailbox was at its high-water capacity.
    pub const OVERLOADS: &str = "host.overloads";
    /// Program-cache lookups answered without compiling.
    pub const PROGRAM_CACHE_HITS: &str = "host.program_cache.hits";
    /// Program-cache lookups that compiled a new version without
    /// errors (lookups of a source that does not compile count as
    /// neither hits nor misses).
    pub const PROGRAM_CACHE_MISSES: &str = "host.program_cache.misses";
    /// Sessions created over the host's lifetime.
    pub const SESSIONS_CREATED: &str = "host.sessions_created";
    /// Edit transactions opened ([`crate::SessionHost::tx_open`]).
    pub const TX_OPENED: &str = "host.tx.opened";
    /// Edit transactions committed (the canary wave was fanned out).
    pub const TX_COMMITTED: &str = "host.tx.committed";
    /// Edit transactions promoted fleet-wide.
    pub const TX_PROMOTED: &str = "host.tx.promoted";
    /// Transactions auto-rolled-back by a canary fault spike — the
    /// rollout safety net's trip count, gated by the invariant suite.
    pub const ROLLBACKS_TOTAL: &str = "host.rollbacks_total";
    /// Fleet UPDATEs applied to sessions (canary + promote waves).
    pub const ROLLOUT_UPDATES: &str = "host.rollout.updates";
    /// Fleet reverts applied during auto-rollback.
    pub const ROLLOUT_REVERTS: &str = "host.rollout.reverts";
    /// High-water mark of one transaction's canary-wave size.
    pub const ROLLOUT_CANARY_SESSIONS: &str = "host.rollout.canary_sessions";
    /// Sessions dropped because serving one of their mailbox items
    /// panicked; the worker keeps draining other sessions.
    pub const SESSION_PANICS: &str = "host.session_panics";
}

/// Pre-resolved host-level handles. Session-level metrics live in each
/// session's own [`Registry`] (see [`Slot`]); everything here is what
/// only the host can observe.
#[derive(Debug, Clone)]
struct HostMetrics {
    registry: Registry,
    clock: Arc<dyn Clock>,
    ready_queue_hwm: Gauge,
    worker_busy_us: Counter,
    worker_parked_us: Counter,
    worker_steal_scan_us: Counter,
    worker_wall_us: Counter,
    steals: Counter,
    parks: Counter,
    overloads: Counter,
    program_cache_hits: Counter,
    program_cache_misses: Counter,
    sessions_created: Counter,
    tx_opened: Counter,
    tx_committed: Counter,
    tx_promoted: Counter,
    rollbacks_total: Counter,
    rollout_updates: Counter,
    rollout_reverts: Counter,
    rollout_canary_sessions: Gauge,
    session_panics: Counter,
}

impl HostMetrics {
    fn new(clock: Arc<dyn Clock>) -> Self {
        let registry = Registry::with_clock(Arc::clone(&clock));
        HostMetrics {
            ready_queue_hwm: registry.gauge(names::READY_QUEUE_HWM),
            worker_busy_us: registry.counter(names::WORKER_BUSY_US),
            worker_parked_us: registry.counter(names::WORKER_PARKED_US),
            worker_steal_scan_us: registry.counter(names::WORKER_STEAL_SCAN_US),
            worker_wall_us: registry.counter(names::WORKER_WALL_US),
            steals: registry.counter(names::STEALS),
            parks: registry.counter(names::PARKS),
            overloads: registry.counter(names::OVERLOADS),
            program_cache_hits: registry.counter(names::PROGRAM_CACHE_HITS),
            program_cache_misses: registry.counter(names::PROGRAM_CACHE_MISSES),
            sessions_created: registry.counter(names::SESSIONS_CREATED),
            tx_opened: registry.counter(names::TX_OPENED),
            tx_committed: registry.counter(names::TX_COMMITTED),
            tx_promoted: registry.counter(names::TX_PROMOTED),
            rollbacks_total: registry.counter(names::ROLLBACKS_TOTAL),
            rollout_updates: registry.counter(names::ROLLOUT_UPDATES),
            rollout_reverts: registry.counter(names::ROLLOUT_REVERTS),
            rollout_canary_sessions: registry.gauge(names::ROLLOUT_CANARY_SESSIONS),
            session_panics: registry.counter(names::SESSION_PANICS),
            clock,
            registry,
        }
    }
}

/// Identifies one hosted session for the lifetime of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Host configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Worker threads draining session mailboxes. Zero is clamped to 1.
    pub workers: usize,
    /// System configuration handed to every hosted session.
    pub system: SystemConfig,
    /// Mailbox high-water capacity: a `submit` that would grow a
    /// session's mailbox past this depth is refused with
    /// [`HostError::Overloaded`] instead of queueing — the
    /// load-shedding contract a network transport needs. The default
    /// (1024) is far above anything a well-behaved client queues; zero
    /// is clamped to 1 (a mailbox that admits nothing is not a host).
    pub mailbox_capacity: usize,
    /// Canary rollout policy for committed edit transactions.
    pub rollout: RolloutConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            system: SystemConfig::default(),
            mailbox_capacity: 1024,
            rollout: RolloutConfig::default(),
        }
    }
}

impl HostConfig {
    /// A config with an explicit worker count (other fields default).
    pub fn with_workers(workers: usize) -> Self {
        HostConfig {
            workers,
            ..HostConfig::default()
        }
    }
}

/// Errors surfaced by host entry points.
#[derive(Debug)]
pub enum HostError {
    /// The session id is unknown (never created, or removed).
    UnknownSession(SessionId),
    /// The session's source failed to compile.
    Compile(Diagnostics),
    /// The host's workers are gone (shut down mid-request).
    Stopped,
    /// The session's mailbox is at its high-water capacity; the
    /// command was refused, not queued. The typed load-shedding
    /// response: a transport maps this to "try again later" without
    /// the host ever queueing without bound.
    Overloaded {
        /// The overloaded session.
        session: SessionId,
        /// The mailbox depth at refusal time (== the configured
        /// [`HostConfig::mailbox_capacity`]).
        depth: usize,
    },
    /// A bounded wait ([`EffectTicket::wait_timeout`]) elapsed before
    /// the command was applied. The command is still queued and still
    /// runs; only the wait gave up.
    Timeout,
    /// The edit-transaction id is unknown (never opened on this host).
    UnknownTransaction(u64),
    /// The edit transaction has already been decided (promoted, rolled
    /// back, or aborted) or is mid-commit on another thread.
    TransactionClosed(u64),
    /// A staged edit batch is malformed against the staged text.
    Edit(EditError),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::UnknownSession(id) => write!(f, "unknown {id}"),
            HostError::Compile(ds) => write!(f, "source does not compile:\n{ds}"),
            HostError::Stopped => f.write_str("host is stopped"),
            HostError::Overloaded { session, depth } => {
                write!(f, "{session} overloaded: mailbox at capacity ({depth})")
            }
            HostError::Timeout => f.write_str("timed out waiting for effects"),
            HostError::UnknownTransaction(tx) => write!(f, "unknown transaction tx#{tx}"),
            HostError::TransactionClosed(tx) => {
                write!(f, "transaction tx#{tx} is not open")
            }
            HostError::Edit(e) => write!(f, "malformed edit batch: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

/// Lock recovering from poisoning: a worker that panicked (only
/// possible in test builds) either took the session out of its slot or
/// left it intact — the shared maps and queues themselves are always
/// structurally sound, so continuing is safe and required by the
/// no-panic discipline.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One client command in flight, with its reply channel.
struct Envelope {
    command: SessionCommand,
    reply: Sender<Vec<SessionEffect>>,
}

/// Host-originated work on one session: an edit transaction's update,
/// revert, promote or fault probe, or a test's inspection. It runs in
/// the session's mailbox order, so it serializes with client commands
/// (a fleet UPDATE lands between them, never inside one), and it gets
/// the slot so it can publish the frame it changed. `SessionHost::run_on`
/// builds every one.
type HostWork = Box<dyn FnOnce(&Slot, &mut LiveSession) + Send>;

/// Tally of one fleet UPDATE wave.
struct UpdateWave {
    /// Sessions the update applied to (checkpoint parked).
    applied: Vec<u64>,
    /// Sum of per-session fault-log growth across the wave — the
    /// immediate health signal a zero-window commit decides on.
    fault_delta: u64,
    /// Sum of post-update fault-log totals — the baseline an
    /// observation window measures its spike against.
    faults_after: u64,
    /// Sessions skipped (diverged from the base version, busy with
    /// another transaction's checkpoint, or removed mid-wave).
    skipped: usize,
}

/// The [`SessionEffect`] a transport should answer with when the host
/// refuses a submission: [`HostError::Overloaded`] becomes the typed
/// [`SessionEffect::Overloaded`] backpressure signal (carrying the
/// mailbox depth, so clients can size their retry behaviour); every
/// other error is a [`SessionEffect::Refused`] with prose.
pub fn effect_for_error(error: &HostError) -> SessionEffect {
    match error {
        HostError::Overloaded { depth, .. } => SessionEffect::Overloaded {
            depth: u64::try_from(*depth).unwrap_or(u64::MAX),
        },
        other => SessionEffect::Refused(other.to_string()),
    }
}

/// Everything a session's mailbox can hold: a client command or host
/// work. Host work bypasses the mailbox capacity: it is host-originated
/// and bounded (at most a few items per session per transaction phase),
/// so shedding it would only wedge a rollout that backpressure already
/// slowed.
enum WorkItem {
    Client(Envelope),
    Host(HostWork),
}

/// Per-session state: the mailbox, the session itself (present when no
/// worker holds it), the scheduling flag, and the published frame.
struct Slot {
    mailbox: Mutex<VecDeque<WorkItem>>,
    /// `Some` while parked; taken by the worker that drains the mailbox.
    session: Mutex<Option<LiveSession>>,
    /// True while the session sits in the ready queue or a worker's
    /// hands. At most one worker drains a session at a time, which is
    /// what makes the mailbox a total order per session.
    scheduled: AtomicBool,
    /// The most recent settled frame, whole-or-nothing for observers.
    latest: Mutex<Option<Arc<FrameSnapshot>>>,
    /// The session's current source version, kept in sync by the
    /// draining worker after every command. This is the host's view of
    /// "which version is this session on" — what transaction fleet
    /// membership is decided from — without taking the session itself.
    source: Mutex<Arc<str>>,
    /// The session's registry — the same one its `LiveSession` records
    /// into, so `SessionCommand::Metrics` and host snapshots agree.
    registry: Registry,
    /// Pre-resolved per-session handles (see [`names`]).
    cmd_latency: Histogram,
    mailbox_depth_hwm: Gauge,
}

impl Slot {
    /// Try to transition unscheduled → scheduled; true on success.
    fn try_schedule(&self) -> bool {
        self.scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Publish the session's current frame: host work that changes
    /// what the session shows calls this, as a client command publishes
    /// the frame among its effects.
    fn publish(&self, session: &mut LiveSession) {
        *lock(&self.latest) = Some(Arc::new(session.frame_snapshot()));
    }
}

/// A scripted-interleaving hook for the scheduling protocol's race
/// windows, called inside `drain_session` between the final mailbox
/// pop and the `scheduled` release. Tests park a drain here to land a
/// submit exactly in the lost-wakeup window — deterministically, with
/// rendezvous channels instead of sleeps.
type DrainParkHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Keep the slot's source-version tag in sync with the session: client
/// edits, undo/redo, and fleet updates/reverts all move it. Runs
/// *before* the reply for the item is sent, so a caller that acts on
/// the reply (opening a transaction right after an edit or a revert)
/// never reads a stale version tag.
fn sync_source(slot: &Slot, session: &LiveSession) {
    let mut source = lock(&slot.source);
    if **source != *session.source() {
        *source = Arc::from(session.source());
    }
}

struct HostInner {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    /// The versioned program store: one single-flight compile per
    /// distinct source text, shared by every session on that version.
    store: ProgramStore,
    /// Open and decided edit transactions, by id.
    txs: Mutex<HashMap<u64, Transaction>>,
    next_tx: AtomicU64,
    /// Sharded work-stealing run queues; replaces the old
    /// `Mutex<Receiver<u64>>` whose held-across-`recv_timeout` lock
    /// serialized every worker.
    scheduler: Scheduler,
    config: HostConfig,
    next_id: AtomicU64,
    /// Host-level metric handles and the host's one clock, which also
    /// times rollout observation windows.
    metrics: HostMetrics,
    /// See [`DrainParkHook`]; `None` outside protocol tests.
    drain_park_hook: Mutex<Option<DrainParkHook>>,
}

impl HostInner {
    fn slot(&self, id: u64) -> Option<Arc<Slot>> {
        lock(&self.slots).get(&id).cloned()
    }

    /// Send a session to the scheduler, tracking the run-queue length
    /// high-water mark.
    fn enqueue_ready(&self, id: u64) {
        let len = self.scheduler.enqueue(id);
        self.metrics
            .ready_queue_hwm
            .observe_max(i64::try_from(len).unwrap_or(i64::MAX));
    }

    /// Drain one session's mailbox to empty, then park the session.
    ///
    /// A panic while serving one item is contained here: the session
    /// is dropped and its slot removed, so its queued tickets answer
    /// [`HostError::Stopped`] and later submits
    /// [`HostError::UnknownSession`]. The slot keeps `scheduled` set,
    /// so nothing schedules it again, and the worker goes on draining
    /// other sessions.
    fn drain_session(&self, id: u64) {
        let Some(slot) = self.slot(id) else { return };
        let Some(mut session) = lock(&slot.session).take() else {
            // Unreachable by the scheduling protocol; recover by
            // unscheduling so the slot cannot wedge.
            slot.scheduled.store(false, Ordering::Release);
            return;
        };
        loop {
            let item = lock(&slot.mailbox).pop_front();
            let Some(item) = item else { break };
            let served = panic::catch_unwind(AssertUnwindSafe(|| {
                self.serve(&slot, &mut session, item);
            }));
            if served.is_err() {
                self.metrics.session_panics.inc();
                lock(&self.slots).remove(&id);
                lock(&slot.mailbox).clear();
                return;
            }
        }
        *lock(&slot.session) = Some(session);
        // Scripted-interleaving tests pause here: the mailbox has been
        // drained to empty but `scheduled` is still true, so a submit
        // landing now loses the CAS and must be rescued by the re-check
        // below.
        let hook = lock(&self.drain_park_hook).clone();
        if let Some(hook) = hook {
            hook(id);
        }
        slot.scheduled.store(false, Ordering::Release);
        // Close the lost-wakeup window: a submit that landed between
        // the final pop and the flag store saw `scheduled == true` and
        // did not enqueue — re-enqueue on its behalf.
        if !lock(&slot.mailbox).is_empty() && slot.try_schedule() {
            self.enqueue_ready(id);
        }
    }

    /// Serve one mailbox item against the drained session and send its
    /// reply (host work carries its own: see `SessionHost::run_on`).
    fn serve(&self, slot: &Slot, session: &mut LiveSession, item: WorkItem) {
        match item {
            WorkItem::Client(envelope) => {
                let started = self.metrics.clock.now_us();
                let effects = session.apply(envelope.command);
                slot.cmd_latency
                    .record(self.metrics.clock.now_us().saturating_sub(started));
                // Publish the last frame among the effects: observers
                // see whole settled frames, in per-session order.
                if let Some(frame) = effects.iter().rev().find_map(|effect| match effect {
                    SessionEffect::Frame(frame) => Some(frame.clone()),
                    _ => None,
                }) {
                    *lock(&slot.latest) = Some(Arc::new(frame));
                }
                sync_source(slot, session);
                // The submitter may have dropped its ticket; fine.
                let _ = envelope.reply.send(effects);
            }
            WorkItem::Host(work) => work(slot, session),
        }
    }
}

/// The worker loop: claim (own shard, then steal), drain, park when
/// the whole run queue is dry. Every microsecond of the loop is
/// attributed to exactly one of busy / steal-scan / parked using shared
/// timestamps, so `busy + parked + steal_scan == wall` holds as an
/// identity, not an approximation — contending for work can no longer
/// masquerade as idleness because there is no shared receiver lock to
/// contend on.
fn worker_loop(inner: &HostInner, worker: usize) {
    let metrics = &inner.metrics;
    loop {
        if inner.scheduler.is_shutdown() {
            return;
        }
        let scan_started = metrics.clock.now_us();
        let claim = inner.scheduler.try_claim(worker);
        let scan_ended = metrics.clock.now_us();
        let scan_us = scan_ended.saturating_sub(scan_started);
        metrics.worker_steal_scan_us.add(scan_us);
        match claim {
            Some(claim) => {
                if claim.stolen {
                    metrics.steals.inc();
                }
                inner.drain_session(claim.id);
                let now = metrics.clock.now_us();
                metrics.worker_busy_us.add(now.saturating_sub(scan_ended));
                metrics.worker_wall_us.add(now.saturating_sub(scan_started));
            }
            None => {
                let waited = inner.scheduler.park();
                let now = metrics.clock.now_us();
                metrics.worker_parked_us.add(now.saturating_sub(scan_ended));
                metrics.worker_wall_us.add(now.saturating_sub(scan_started));
                if waited {
                    metrics.parks.inc();
                }
            }
        }
    }
}

/// A pending reply to a submitted command. Dropping it abandons the
/// reply (the command still runs).
#[derive(Debug)]
pub struct EffectTicket {
    rx: Receiver<Vec<SessionEffect>>,
}

impl EffectTicket {
    /// Block until the command has been applied and return its effects.
    ///
    /// # Errors
    ///
    /// [`HostError::Stopped`] if the host shut down (or the session was
    /// removed) before the command ran.
    pub fn wait(self) -> Result<Vec<SessionEffect>, HostError> {
        self.rx.recv().map_err(|_| HostError::Stopped)
    }

    /// Like [`EffectTicket::wait`], but give up after `timeout`. On
    /// [`HostError::Timeout`] the command is still queued and will
    /// still run; only this wait abandoned it. Lets transports bound
    /// their worst-case stall on a wedged session.
    ///
    /// # Errors
    ///
    /// [`HostError::Timeout`] if the deadline passed first;
    /// [`HostError::Stopped`] if the host shut down (or the session
    /// was removed) before the command ran.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<SessionEffect>, HostError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => HostError::Timeout,
            RecvTimeoutError::Disconnected => HostError::Stopped,
        })
    }
}

/// A concurrent multi-session host: N live sessions behind per-session
/// mailboxes, drained by a fixed worker pool. See the crate docs for
/// the scheduling protocol.
pub struct SessionHost {
    inner: Arc<HostInner>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for SessionHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHost")
            .field("workers", &self.workers.len())
            .field("sessions", &self.session_count())
            .finish()
    }
}

impl SessionHost {
    /// Start a host with the given configuration (spawns the workers).
    /// Metrics run against real monotonic time; see
    /// [`SessionHost::with_clock`] for deterministic tests.
    pub fn new(config: HostConfig) -> Self {
        SessionHost::with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// Start a host whose metrics (host-level and per-session) and
    /// rollout observation windows all time against `clock` — an
    /// [`alive_obs::ManualClock`] with an auto-step makes every duration
    /// and snapshot deterministic.
    pub fn with_clock(config: HostConfig, clock: Arc<dyn Clock>) -> Self {
        let workers = config.workers.max(1);
        let mailbox_capacity = config.mailbox_capacity.max(1);
        let inner = Arc::new(HostInner {
            slots: Mutex::new(HashMap::new()),
            store: ProgramStore::new(),
            txs: Mutex::new(HashMap::new()),
            next_tx: AtomicU64::new(1),
            scheduler: Scheduler::new(workers),
            config: HostConfig {
                workers,
                mailbox_capacity,
                ..config
            },
            next_id: AtomicU64::new(1),
            metrics: HostMetrics::new(clock),
            drain_park_hook: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, worker))
            })
            .collect();
        SessionHost {
            inner,
            workers: handles,
        }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The number of live sessions.
    pub fn session_count(&self) -> usize {
        lock(&self.inner.slots).len()
    }

    /// How many distinct source versions have been compiled: the
    /// [`names::PROGRAM_CACHE_MISSES`] counter, which counts successful
    /// compiles only. With K sessions on one source this stays 1 — the
    /// host's whole point.
    pub fn programs_compiled(&self) -> u64 {
        self.inner.metrics.program_cache_misses.get()
    }

    /// How many distinct source versions the host has seen (compiled
    /// or failed) — the program store's version history length. Every
    /// committed transaction adds exactly one.
    pub fn version_count(&self) -> usize {
        self.inner.store.version_count()
    }

    /// The 1-based version number of `source` in the host's program
    /// store, if that exact text has been seen.
    pub fn version_of(&self, source: &str) -> Option<u64> {
        self.inner.store.version_of(source)
    }

    /// The shared compiled program for `source`, compiling it on first
    /// sight and answering from the per-version cache afterwards.
    ///
    /// The compile is **single-flight**: concurrent callers with the
    /// same new source produce exactly one compile (the losers block
    /// on the winner's cell, not on a recompile), so
    /// [`SessionHost::programs_compiled`] is one per version even
    /// under a thundering herd of `create_session` calls. Callers with
    /// *different* sources never block each other — the map lock is
    /// held only to fetch the cell, never across a compile.
    ///
    /// # Errors
    ///
    /// [`HostError::Compile`] with the program's diagnostics.
    pub fn program_for(&self, source: &str) -> Result<Arc<Program>, HostError> {
        let outcome = self.inner.store.lookup(source);
        match outcome.result {
            Ok(program) => {
                // A racing same-source caller that lost the init is a
                // hit: it waited for the winner, it did not compile.
                if outcome.compiled_here {
                    self.inner.metrics.program_cache_misses.inc();
                } else {
                    self.inner.metrics.program_cache_hits.inc();
                }
                Ok(program)
            }
            Err(diagnostics) => Err(HostError::Compile(diagnostics)),
        }
    }

    /// Create a session from source text, sharing the compiled program
    /// with every other session on the same version. The session is
    /// settled to its first frame before the id is returned, so
    /// [`SessionHost::latest_frame`] is immediately meaningful.
    ///
    /// # Errors
    ///
    /// [`HostError::Compile`] if the source does not compile.
    pub fn create_session(&self, source: &str) -> Result<SessionId, HostError> {
        let program = self.program_for(source)?;
        // Each session gets its own registry on the host's clock, so
        // per-session snapshots are independent and the host snapshot
        // is their merge — counters sum exactly across sessions.
        let registry = Registry::with_clock(Arc::clone(&self.inner.metrics.clock));
        let mut session = LiveSession::with_shared_program_observed(
            source,
            program,
            self.inner.config.system,
            false,
            &registry,
        );
        self.inner.metrics.sessions_created.inc();
        let first = Arc::new(session.frame_snapshot());
        let id = self.inner.next_id.fetch_add(1, Ordering::AcqRel);
        let slot = Arc::new(Slot {
            mailbox: Mutex::new(VecDeque::new()),
            session: Mutex::new(Some(session)),
            scheduled: AtomicBool::new(false),
            latest: Mutex::new(Some(first)),
            source: Mutex::new(Arc::from(source)),
            cmd_latency: registry.histogram(names::CMD_LATENCY_US),
            mailbox_depth_hwm: registry.gauge(names::MAILBOX_DEPTH_HWM),
            registry,
        });
        lock(&self.inner.slots).insert(id, slot);
        Ok(SessionId(id))
    }

    /// Remove a session. Commands still queued are abandoned (their
    /// tickets report [`HostError::Stopped`]); a worker currently
    /// holding the session finishes its drain first.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] if the id is not live.
    pub fn remove_session(&self, id: SessionId) -> Result<(), HostError> {
        lock(&self.inner.slots)
            .remove(&id.0)
            .map(|_| ())
            .ok_or(HostError::UnknownSession(id))
    }

    /// Queue a command on a session's mailbox and return a ticket for
    /// its effects. Commands submitted to the same session apply in
    /// submission order; different sessions proceed in parallel.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] if the id is not live;
    /// [`HostError::Overloaded`] if the session's mailbox is at its
    /// high-water capacity ([`HostConfig::mailbox_capacity`]) — the
    /// command is refused, not queued, so a slow session sheds load
    /// instead of growing an unbounded backlog.
    pub fn submit(
        &self,
        id: SessionId,
        command: SessionCommand,
    ) -> Result<EffectTicket, HostError> {
        // Transaction commands are host-level: they drive the fleet
        // state machine, not one session, so they are answered here
        // (synchronously — a commit with a zero observation window
        // runs the whole canary cycle before returning) instead of
        // being queued on the origin's mailbox.
        if matches!(
            command,
            SessionCommand::TxOpen
                | SessionCommand::TxEdit { .. }
                | SessionCommand::TxCommit(_)
                | SessionCommand::TxAbort(_)
                | SessionCommand::TxStatus(_)
        ) {
            let effects = self.handle_tx_command(id, command)?;
            let (reply, rx) = mpsc::channel();
            let _ = reply.send(effects);
            return Ok(EffectTicket { rx });
        }
        let slot = self.inner.slot(id.0).ok_or(HostError::UnknownSession(id))?;
        let (reply, rx) = mpsc::channel();
        {
            let mut mailbox = lock(&slot.mailbox);
            if mailbox.len() >= self.inner.config.mailbox_capacity {
                drop(mailbox);
                self.inner.metrics.overloads.inc();
                return Err(HostError::Overloaded {
                    session: id,
                    depth: self.inner.config.mailbox_capacity,
                });
            }
            mailbox.push_back(WorkItem::Client(Envelope { command, reply }));
            slot.mailbox_depth_hwm
                .observe_max(i64::try_from(mailbox.len()).unwrap_or(i64::MAX));
        }
        if slot.try_schedule() {
            self.inner.enqueue_ready(id.0);
        }
        Ok(EffectTicket { rx })
    }

    /// Submit a command and block for its effects — the synchronous
    /// convenience used by frontends that drive one session.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] / [`HostError::Stopped`].
    pub fn apply(
        &self,
        id: SessionId,
        command: SessionCommand,
    ) -> Result<Vec<SessionEffect>, HostError> {
        self.submit(id, command)?.wait()
    }

    /// The session's most recently published frame — the fan-out path.
    /// The returned `Arc` is a consistent whole-frame snapshot: workers
    /// publish frames atomically after each command, so observers never
    /// see a torn or mid-settle view, and a thousand observers share
    /// one allocation.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] if the id is not live.
    pub fn latest_frame(&self, id: SessionId) -> Result<Option<Arc<FrameSnapshot>>, HostError> {
        let slot = self.inner.slot(id.0).ok_or(HostError::UnknownSession(id))?;
        let frame = lock(&slot.latest).clone();
        Ok(frame)
    }

    // -----------------------------------------------------------------
    // Edit transactions: versioned, fleet-wide UPDATE with a staged
    // canary rollout (see the `rollout` module docs for the state
    // machine). All five entry points are also reachable over the wire
    // as `SessionCommand::Tx*` via `submit`.
    // -----------------------------------------------------------------

    /// Open an edit transaction against `origin`'s current source
    /// version. Edits staged on it address that version; at commit
    /// time every session still on it is the transaction's fleet.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] if `origin` is not live.
    pub fn tx_open(&self, origin: SessionId) -> Result<u64, HostError> {
        let slot = self
            .inner
            .slot(origin.0)
            .ok_or(HostError::UnknownSession(origin))?;
        let base = lock(&slot.source).clone();
        let tx = self.inner.next_tx.fetch_add(1, Ordering::AcqRel);
        lock(&self.inner.txs).insert(
            tx,
            Transaction {
                staged: base.to_string(),
                base,
                edits: 0,
                state: TxState::Open,
            },
        );
        self.inner.metrics.tx_opened.inc();
        Ok(tx)
    }

    /// Stage one batch of span-addressed edits on an open transaction.
    /// Spans address the staged text (base + every batch staged so
    /// far); no session sees anything until commit. Returns the total
    /// number of edits staged.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownTransaction`] /
    /// [`HostError::TransactionClosed`] / [`HostError::Edit`] (the
    /// staged text is unchanged on error).
    pub fn tx_edit(&self, tx: u64, edits: &[TextEdit]) -> Result<usize, HostError> {
        let mut txs = lock(&self.inner.txs);
        let transaction = txs.get_mut(&tx).ok_or(HostError::UnknownTransaction(tx))?;
        if !matches!(transaction.state, TxState::Open) {
            return Err(HostError::TransactionClosed(tx));
        }
        transaction.staged = apply_edits(&transaction.staged, edits).map_err(HostError::Edit)?;
        transaction.edits += edits.len();
        Ok(transaction.edits)
    }

    /// Abort an open transaction, discarding its staged edits. No
    /// session ever saw them.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownTransaction`] /
    /// [`HostError::TransactionClosed`].
    pub fn tx_abort(&self, tx: u64) -> Result<(), HostError> {
        let mut txs = lock(&self.inner.txs);
        let transaction = txs.get_mut(&tx).ok_or(HostError::UnknownTransaction(tx))?;
        if !matches!(transaction.state, TxState::Open) {
            return Err(HostError::TransactionClosed(tx));
        }
        transaction.state = TxState::Closed(TxPhase::Aborted);
        Ok(())
    }

    /// Commit a transaction: compile the staged source **once**
    /// (single-flight through the program store), fan the paper's
    /// Fig. 12 UPDATE to a canary slice of the fleet, and decide.
    ///
    /// With a zero observation window the decision is immediate: if
    /// the canaries' fault logs grew by at least the configured
    /// threshold, every updated session is rolled back to its
    /// pre-transaction checkpoint and the transaction closes
    /// [`TxPhase::RolledBack`]; otherwise the rest of the fleet is
    /// updated and the transaction closes [`TxPhase::Promoted`]. With
    /// a non-zero window the transaction parks in [`TxPhase::Canary`]
    /// — client traffic keeps flowing to the canaries — until a
    /// [`SessionHost::tx_status`] poll past the deadline probes their
    /// fault logs and decides the same way.
    ///
    /// Sessions that edited away from the base version are skipped,
    /// not updated (`TxPhase::Promoted { skipped, .. }`). Faults in
    /// the *promote* wave never roll the transaction back — the canary
    /// protects the fleet; per-session §4 containment handles the
    /// stragglers.
    ///
    /// # Errors
    ///
    /// [`HostError::Compile`] if the staged source does not compile —
    /// the transaction stays open so the client can stage a fix.
    /// [`HostError::UnknownTransaction`] /
    /// [`HostError::TransactionClosed`].
    pub fn tx_commit(&self, tx: u64) -> Result<TxPhase, HostError> {
        let (base, staged) = {
            let mut txs = lock(&self.inner.txs);
            let transaction = txs.get_mut(&tx).ok_or(HostError::UnknownTransaction(tx))?;
            if !matches!(transaction.state, TxState::Open) {
                return Err(HostError::TransactionClosed(tx));
            }
            transaction.state = TxState::Committing;
            (Arc::clone(&transaction.base), transaction.staged.clone())
        };
        let program = match self.program_for(&staged) {
            Ok(program) => program,
            Err(error) => {
                // Back to Open: a compile failure decides nothing.
                if let Some(transaction) = lock(&self.inner.txs).get_mut(&tx) {
                    transaction.state = TxState::Open;
                }
                return Err(error);
            }
        };
        self.inner.metrics.tx_committed.inc();
        let source: Arc<str> = Arc::from(staged.as_str());
        // The fleet: every session still on the base version, in id
        // order (deterministic canary choice).
        let mut fleet: Vec<u64> = lock(&self.inner.slots)
            .iter()
            .filter(|(_, slot)| **lock(&slot.source) == *base)
            .map(|(&id, _)| id)
            .collect();
        fleet.sort_unstable();
        if fleet.is_empty() {
            let phase = TxPhase::Promoted {
                updated: 0,
                skipped: 0,
            };
            self.close_tx(tx, phase.clone());
            return Ok(phase);
        }
        let config = self.inner.config.rollout;
        let percent = usize::from(config.canary_percent.clamp(1, 100));
        let canary_n = (fleet.len() * percent).div_ceil(100).clamp(1, fleet.len());
        self.inner
            .metrics
            .rollout_canary_sessions
            .observe_max(i64::try_from(canary_n).unwrap_or(i64::MAX));
        let wave = self.update_wave(&fleet[..canary_n], tx, &base, &source, &program);
        let canary = CanaryState {
            canary: wave.applied,
            rest: fleet[canary_n..].to_vec(),
            base,
            source,
            program,
            deadline_us: self
                .inner
                .metrics
                .clock
                .now_us()
                .saturating_add(config.observation_window_us),
            baseline_faults: wave.faults_after,
            skipped: wave.skipped,
            fleet: fleet.len(),
        };
        let phase = self.decide(tx, &canary, wave.fault_delta, false);
        if matches!(phase, TxPhase::Canary { .. }) {
            if let Some(transaction) = lock(&self.inner.txs).get_mut(&tx) {
                transaction.state = TxState::Canary(canary);
            }
        }
        Ok(phase)
    }

    /// Where a transaction stands — and, for one parked in its canary
    /// observation window whose deadline has passed, the poll that
    /// decides it: probe every canary's fault log; a fault spike at or
    /// past the threshold rolls the whole fleet's update back,
    /// otherwise the remaining sessions are updated and the
    /// transaction promotes.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownTransaction`].
    pub fn tx_status(&self, tx: u64) -> Result<TxPhase, HostError> {
        let pending = {
            let mut txs = lock(&self.inner.txs);
            let transaction = txs.get_mut(&tx).ok_or(HostError::UnknownTransaction(tx))?;
            match &transaction.state {
                TxState::Open | TxState::Committing => {
                    return Ok(TxPhase::Open {
                        edits: transaction.edits,
                    })
                }
                TxState::Deciding { canary, fleet } => {
                    return Ok(TxPhase::Canary {
                        canary: *canary,
                        fleet: *fleet,
                    })
                }
                TxState::Closed(phase) => return Ok(phase.clone()),
                TxState::Canary(canary)
                    if self.inner.metrics.clock.now_us() < canary.deadline_us =>
                {
                    return Ok(TxPhase::Canary {
                        canary: canary.canary.len(),
                        fleet: canary.fleet,
                    })
                }
                TxState::Canary(_) => {}
            }
            // Deadline passed: take the payload, leave a sentinel so a
            // racing poll neither re-decides nor sees a torn state.
            match std::mem::replace(&mut transaction.state, TxState::Committing) {
                TxState::Canary(canary) => {
                    transaction.state = TxState::Deciding {
                        canary: canary.canary.len(),
                        fleet: canary.fleet,
                    };
                    canary
                }
                other => {
                    // Unreachable (the state was Canary under the same
                    // lock); restore and report conservatively.
                    transaction.state = other;
                    return Ok(TxPhase::Open {
                        edits: transaction.edits,
                    });
                }
            }
        };
        // Probe the canaries' fault logs over their mailboxes: the
        // probe serializes after any in-flight client traffic.
        let faults: u64 = self
            .fan_out(&pending.canary, |_, session| session.fault_log().total())
            .into_iter()
            .map(|(_, total)| total)
            .sum();
        let delta = faults.saturating_sub(pending.baseline_faults);
        Ok(self.decide(tx, &pending, delta, true))
    }

    /// Decide a committed transaction on its canaries' `delta` new
    /// faults. At or past the threshold every canary is rolled back;
    /// otherwise the rest of the fleet is updated and the transaction
    /// promotes. Either way the transaction closes with the phase.
    ///
    /// `window_closed` says a status poll past the observation deadline
    /// is deciding. At commit it is false, and a clean canary wave with
    /// a non-zero window answers [`TxPhase::Canary`] without closing:
    /// the caller parks the transaction to be watched.
    fn decide(&self, tx: u64, canary: &CanaryState, delta: u64, window_closed: bool) -> TxPhase {
        let config = self.inner.config.rollout;
        let phase = if delta >= config.fault_threshold {
            let within = if window_closed {
                " inside the observation window"
            } else {
                ""
            };
            let reason = format!(
                "canary fault spike: {delta} new fault(s) across {} canary session(s){within}",
                canary.canary.len()
            );
            self.rollback(tx, &canary.canary, reason)
        } else if window_closed || config.observation_window_us == 0 {
            self.promote(tx, canary)
        } else {
            return TxPhase::Canary {
                canary: canary.canary.len(),
                fleet: canary.fleet,
            };
        };
        self.close_tx(tx, phase.clone());
        phase
    }

    /// Map protocol `Tx*` commands onto the host transaction API,
    /// answering with the same effect vocabulary a solo session uses.
    fn handle_tx_command(
        &self,
        origin: SessionId,
        command: SessionCommand,
    ) -> Result<Vec<SessionEffect>, HostError> {
        Ok(match command {
            SessionCommand::TxOpen => {
                let tx = self.tx_open(origin)?;
                vec![SessionEffect::Tx {
                    tx,
                    phase: TxPhase::Open { edits: 0 },
                }]
            }
            SessionCommand::TxEdit { tx, edits } => match self.tx_edit(tx, &edits) {
                Ok(edits) => vec![SessionEffect::Tx {
                    tx,
                    phase: TxPhase::Open { edits },
                }],
                Err(error) => vec![effect_for_error(&error)],
            },
            SessionCommand::TxCommit(tx) => match self.tx_commit(tx) {
                Ok(phase) => vec![SessionEffect::Tx { tx, phase }],
                Err(HostError::Compile(diagnostics)) => {
                    vec![SessionEffect::EditRejected(diagnostics)]
                }
                Err(error) => vec![effect_for_error(&error)],
            },
            SessionCommand::TxAbort(tx) => match self.tx_abort(tx) {
                Ok(()) => vec![SessionEffect::Tx {
                    tx,
                    phase: TxPhase::Aborted,
                }],
                Err(error) => vec![effect_for_error(&error)],
            },
            SessionCommand::TxStatus(tx) => match self.tx_status(tx) {
                Ok(phase) => vec![SessionEffect::Tx { tx, phase }],
                Err(error) => vec![effect_for_error(&error)],
            },
            // `submit` only routes Tx* commands here.
            _ => Vec::new(),
        })
    }

    /// Queue `work` on a session's mailbox, behind everything already
    /// queued there, and return the channel its answer arrives on. The
    /// work syncs the slot's source tag before it answers, as a client
    /// command does. `None` if the session is gone; the answer never
    /// arrives if the session is dropped first.
    fn run_on<R: Send + 'static>(
        &self,
        id: u64,
        work: impl FnOnce(&Slot, &mut LiveSession) -> R + Send + 'static,
    ) -> Option<Receiver<R>> {
        let slot = self.inner.slot(id)?;
        let (reply, rx) = mpsc::channel();
        let work: HostWork = Box::new(move |slot: &Slot, session: &mut LiveSession| {
            let answer = work(slot, session);
            sync_source(slot, session);
            // The caller may have given up; fine.
            let _ = reply.send(answer);
        });
        lock(&slot.mailbox).push_back(WorkItem::Host(work));
        if slot.try_schedule() {
            self.inner.enqueue_ready(id);
        }
        Some(rx)
    }

    /// Run `work` on every session in `ids`, queueing it on all of them
    /// before awaiting any answer, so the wave runs in parallel across
    /// workers. Answers come back in `ids` order; a session that is gone
    /// or dropped mid-wave gives none.
    fn fan_out<R: Send + 'static>(
        &self,
        ids: &[u64],
        work: impl FnOnce(&Slot, &mut LiveSession) -> R + Clone + Send + 'static,
    ) -> Vec<(u64, R)> {
        let pending: Vec<_> = ids
            .iter()
            .map(|&id| (id, self.run_on(id, work.clone())))
            .collect();
        pending
            .into_iter()
            .filter_map(|(id, rx)| Some((id, rx?.recv().ok()?)))
            .collect()
    }

    /// Fan a fleet UPDATE to `ids` and tally the outcome. Each session
    /// the update applied to publishes its new frame.
    fn update_wave(
        &self,
        ids: &[u64],
        tx: u64,
        base: &Arc<str>,
        source: &Arc<str>,
        program: &Arc<Program>,
    ) -> UpdateWave {
        let (base, source, program) = (Arc::clone(base), Arc::clone(source), Arc::clone(program));
        let answers = self.fan_out(ids, move |slot, session| {
            let faults_before = session.fault_log().total();
            if !session.fleet_update(tx, &base, &source, program) {
                return None;
            }
            let faults_after = session.fault_log().total();
            slot.publish(session);
            Some((faults_before, faults_after))
        });
        let mut applied = Vec::new();
        let (mut fault_delta, mut faults_after) = (0, 0);
        for (id, faults) in answers {
            // Diverged or busy: skipped, never updated.
            let Some((before, after)) = faults else {
                continue;
            };
            applied.push(id);
            fault_delta += after.saturating_sub(before);
            faults_after += after;
        }
        self.inner.metrics.rollout_updates.add(applied.len() as u64);
        UpdateWave {
            skipped: ids.len() - applied.len(),
            applied,
            fault_delta,
            faults_after,
        }
    }

    /// Roll a transaction's applied updates back: every session in
    /// `applied` restores the checkpoint its `fleet_update` parked
    /// (byte-identical pre-transaction state, mid-canary client
    /// traffic replayed) and publishes the restored frame.
    fn rollback(&self, tx: u64, applied: &[u64], reason: String) -> TxPhase {
        let reverted = self
            .fan_out(applied, move |slot, session| {
                let reverted = session.fleet_revert(tx);
                if reverted {
                    slot.publish(session);
                }
                reverted
            })
            .into_iter()
            .filter(|&(_, reverted)| reverted)
            .count();
        self.inner.metrics.rollbacks_total.inc();
        self.inner.metrics.rollout_reverts.add(reverted as u64);
        TxPhase::RolledBack { reverted, reason }
    }

    /// Promote a transaction: update the rest of the fleet, then drop
    /// every updated session's checkpoint — the new version is the
    /// fleet's baseline now.
    fn promote(&self, tx: u64, canary: &CanaryState) -> TxPhase {
        let wave = self.update_wave(
            &canary.rest,
            tx,
            &canary.base,
            &canary.source,
            &canary.program,
        );
        let updated: Vec<u64> = canary.canary.iter().chain(&wave.applied).copied().collect();
        self.fan_out(&updated, move |_, session| session.fleet_promote(tx));
        self.inner.metrics.tx_promoted.inc();
        TxPhase::Promoted {
            updated: updated.len(),
            skipped: canary.skipped + wave.skipped,
        }
    }

    /// Close a transaction with its terminal phase.
    fn close_tx(&self, tx: u64, phase: TxPhase) {
        if let Some(transaction) = lock(&self.inner.txs).get_mut(&tx) {
            transaction.state = TxState::Closed(phase);
        }
    }

    /// Run a closure against one hosted session, in its mailbox order
    /// (after everything already queued). Test instrumentation — fault
    /// injection and byte-identity assertions reach the session
    /// without adding protocol surface. Not part of the public API.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] / [`HostError::Stopped`].
    #[doc(hidden)]
    pub fn inspect_session<R: Send + 'static>(
        &self,
        id: SessionId,
        run: impl FnOnce(&mut LiveSession) -> R + Send + 'static,
    ) -> Result<R, HostError> {
        self.run_on(id.0, move |_, session| run(session))
            .ok_or(HostError::UnknownSession(id))?
            .recv()
            .map_err(|_| HostError::Stopped)
    }

    /// One hosted session's metrics snapshot — the same registry the
    /// session itself answers [`SessionCommand::Metrics`] from, read
    /// without queueing a command.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownSession`] if the id is not live.
    pub fn session_metrics(&self, id: SessionId) -> Result<MetricsSnapshot, HostError> {
        let slot = self.inner.slot(id.0).ok_or(HostError::UnknownSession(id))?;
        Ok(slot.registry.snapshot())
    }

    /// The host-wide snapshot: the host's own `host.*` metrics merged
    /// with every live session's snapshot. Counters add, gauges keep
    /// the maximum (high-water marks), histograms add bucket-wise — so
    /// for every session-sourced counter the host total is exactly the
    /// sum over live sessions.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.inner.metrics.registry.snapshot();
        // Clone the slot Arcs out so snapshotting (which takes each
        // registry's table lock) happens outside the slot-map lock.
        let slots: Vec<Arc<Slot>> = lock(&self.inner.slots).values().cloned().collect();
        for slot in slots {
            snapshot.merge(&slot.registry.snapshot());
        }
        snapshot
    }

    /// Stop the workers and join them. Queued commands that have not
    /// run are abandoned (tickets report [`HostError::Stopped`]).
    /// Shutdown is explicit signaling — a flag plus a condvar
    /// broadcast — so parked workers exit immediately rather than on
    /// the next poll tick.
    ///
    /// Returns the final host-wide metrics snapshot. Because every
    /// worker has joined, the snapshot is quiesced: no torn reads, and the worker time accounting
    /// (`host.worker_busy_us + host.worker_parked_us +
    /// host.worker_steal_scan_us == host.worker_wall_us`) holds as an
    /// exact identity.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.inner.scheduler.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.metrics_snapshot()
    }

    /// Install a scripted-interleaving hook for scheduling-protocol
    /// tests: called by the draining worker after the final mailbox pop
    /// (mailbox empty, `scheduled` still true) and before `scheduled`
    /// is released. Not part of the public API.
    #[doc(hidden)]
    pub fn set_drain_park_hook(&self, hook: Arc<dyn Fn(u64) + Send + Sync>) {
        *lock(&self.inner.drain_park_hook) = Some(hook);
    }
}

impl Drop for SessionHost {
    fn drop(&mut self) {
        self.inner.scheduler.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

// A host must be shareable across the threads that submit to it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionHost>();
    assert_send_sync::<FrameSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn host_serves_one_session_like_a_local_one() {
        let host = SessionHost::new(HostConfig::with_workers(2));
        let id = host.create_session(APP).expect("compiles");
        let mut solo = LiveSession::new(APP).expect("starts");

        let hosted = host.apply(id, SessionCommand::Frame).expect("applies");
        let local = solo.apply(SessionCommand::Frame);
        assert_eq!(hosted, local);

        let hosted = host
            .apply(id, SessionCommand::TapPath(vec![0]))
            .expect("applies");
        let local = solo.apply(SessionCommand::TapPath(vec![0]));
        assert_eq!(hosted, local);
        host.shutdown();
    }

    #[test]
    fn commands_on_one_session_apply_in_submission_order() {
        let host = SessionHost::new(HostConfig::with_workers(4));
        let id = host.create_session(APP).expect("compiles");
        // Queue a burst of taps without waiting, then read the frame:
        // count must reflect every tap exactly once, in order.
        let tickets: Vec<_> = (0..16)
            .map(|_| {
                host.submit(id, SessionCommand::TapPath(vec![0]))
                    .expect("live")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("applied");
        }
        let effects = host.apply(id, SessionCommand::Frame).expect("applies");
        let SessionEffect::Frame(frame) = &effects[0] else {
            panic!("expected frame");
        };
        assert_eq!(frame.view, format!("count is {}\n", 1 + 16 * 10));
        host.shutdown();
    }

    #[test]
    fn sessions_share_one_compiled_program_per_version() {
        let host = SessionHost::new(HostConfig::with_workers(1));
        let ids: Vec<_> = (0..8)
            .map(|_| host.create_session(APP).expect("compiles"))
            .collect();
        assert_eq!(host.session_count(), 8);
        assert_eq!(host.programs_compiled(), 1, "one compile for 8 sessions");
        let program = host.program_for(APP).expect("cached");
        // Every session's system points at the same allocation.
        for id in ids {
            let effects = host.apply(id, SessionCommand::Frame).expect("applies");
            assert!(matches!(effects[0], SessionEffect::Frame(_)));
        }
        assert!(Arc::ptr_eq(
            &program,
            &host.program_for(APP).expect("cached")
        ));
    }

    #[test]
    fn latest_frame_fans_out_without_copying() {
        let host = SessionHost::new(HostConfig::with_workers(1));
        let id = host.create_session(APP).expect("compiles");
        let first = host.latest_frame(id).expect("live").expect("settled");
        assert_eq!(first.view, "count is 1\n");
        // Two observers share the same snapshot allocation.
        let second = host.latest_frame(id).expect("live").expect("settled");
        assert!(Arc::ptr_eq(&first, &second));
        // A command moves the published frame forward.
        host.apply(id, SessionCommand::TapPath(vec![0]))
            .expect("applies");
        let third = host.latest_frame(id).expect("live").expect("settled");
        assert_eq!(third.view, "count is 11\n");
    }

    #[test]
    fn unknown_and_removed_sessions_are_typed_errors() {
        let host = SessionHost::new(HostConfig::with_workers(1));
        let bogus = SessionId(999);
        assert!(matches!(
            host.apply(bogus, SessionCommand::Frame),
            Err(HostError::UnknownSession(_))
        ));
        let id = host.create_session(APP).expect("compiles");
        host.remove_session(id).expect("removes");
        assert!(matches!(
            host.submit(id, SessionCommand::Frame),
            Err(HostError::UnknownSession(_))
        ));
        assert!(matches!(
            host.remove_session(id),
            Err(HostError::UnknownSession(id2)) if id2 == id
        ));
    }

    #[test]
    fn host_metrics_reconcile_with_session_history() {
        use alive_live::ManualClock;
        let clock = Arc::new(ManualClock::with_auto_step(7));
        let host = SessionHost::with_clock(HostConfig::with_workers(2), clock);
        let a = host.create_session(APP).expect("compiles");
        let b = host.create_session(APP).expect("compiles");
        for _ in 0..3 {
            host.apply(a, SessionCommand::TapPath(vec![0]))
                .expect("applies");
        }
        host.apply(b, SessionCommand::Frame).expect("applies");

        let snap_a = host.session_metrics(a).expect("live");
        let snap_b = host.session_metrics(b).expect("live");
        assert_eq!(snap_a.counter("session.commands"), 3);
        assert_eq!(snap_b.counter("session.commands"), 1);
        let latency = snap_a.histogram(names::CMD_LATENCY_US).expect("recorded");
        assert_eq!(latency.count, 3, "one latency sample per command");
        assert!(latency.sum > 0, "auto-step clock yields nonzero latencies");

        let host_snap = host.metrics_snapshot();
        assert_eq!(
            host_snap.counter("session.commands"),
            4,
            "host counters are the sum over live sessions"
        );
        assert_eq!(host_snap.counter(names::SESSIONS_CREATED), 2);
        assert_eq!(host_snap.counter(names::PROGRAM_CACHE_MISSES), 1);
        assert_eq!(host_snap.counter(names::PROGRAM_CACHE_HITS), 1);
        assert!(host_snap.gauge(names::MAILBOX_DEPTH_HWM) >= 1);
        assert!(host_snap.gauge(names::READY_QUEUE_HWM) >= 1);

        // The hosted session answers the same protocol command local
        // frontends use, from the same registry the host snapshots.
        let effects = host.apply(a, SessionCommand::Metrics).expect("applies");
        let SessionEffect::Metrics(wire) = &effects[0] else {
            panic!("expected a metrics effect");
        };
        assert_eq!(wire.counter("session.commands"), 4);
        host.shutdown();
    }

    /// Panic containment: a panic while one session's mailbox item is
    /// served drops that session and nothing else. The item's own ticket
    /// and the tickets queued behind it answer `Stopped`, later submits
    /// answer `UnknownSession`, the panic is counted in
    /// `host.session_panics`, and the host's only worker goes on serving
    /// the neighbour.
    #[test]
    fn a_panicking_session_is_dropped_and_its_worker_keeps_serving() {
        const DEADLINE: Duration = Duration::from_secs(30);
        let host = SessionHost::new(HostConfig::with_workers(1));
        let a = host.create_session(APP).expect("compiles");
        let b = host.create_session(APP).expect("compiles");

        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let inspect = scope.spawn(|| {
                host.inspect_session(a, move |_| {
                    let _ = entered_tx.send(());
                    let _ = release_rx.recv();
                    panic!("injected panic while serving session a");
                })
            });
            entered
                .recv_timeout(DEADLINE)
                .expect("the worker runs the inspect");
            // Queued on the same mailbox, behind the item that will panic.
            let queued = host.submit(a, SessionCommand::Frame).expect("live");
            release.send(()).expect("the worker waits in the inspect");
            assert!(matches!(
                inspect.join().expect("inspect thread"),
                Err(HostError::Stopped)
            ));
            assert!(matches!(
                queued.wait_timeout(DEADLINE),
                Err(HostError::Stopped)
            ));
        });

        let effects = host
            .submit(b, SessionCommand::Frame)
            .expect("live")
            .wait_timeout(Duration::from_secs(5))
            .expect("the worker survived the panic");
        let SessionEffect::Frame(frame) = &effects[0] else {
            panic!("expected frame");
        };
        assert_eq!(frame.view, "count is 1\n");
        assert!(matches!(
            host.submit(a, SessionCommand::Frame),
            Err(HostError::UnknownSession(id)) if id == a
        ));
        assert_eq!(host.shutdown().counter(names::SESSION_PANICS), 1);
    }

    #[test]
    fn racing_creates_on_one_source_compile_exactly_once() {
        // The thundering herd: sessions created from the same brand-new
        // source on many threads at once must produce one compile, not
        // one per loser of the insert race — the compile is
        // single-flighted through the version's cell.
        let host = Arc::new(SessionHost::new(HostConfig::with_workers(2)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let host = Arc::clone(&host);
                std::thread::spawn(move || host.create_session(APP).expect("compiles"))
            })
            .collect();
        for handle in handles {
            handle.join().expect("create threads");
        }
        assert_eq!(host.programs_compiled(), 1, "single-flight compile");
        assert_eq!(host.session_count(), 8);

        // Failed compiles are cached per version too (compilation is
        // deterministic): the error stays typed, and no compile count
        // accrues for it.
        assert!(matches!(
            host.create_session("not a program"),
            Err(HostError::Compile(_))
        ));
        assert!(matches!(
            host.create_session("not a program"),
            Err(HostError::Compile(_))
        ));
        assert_eq!(host.programs_compiled(), 1);
    }

    #[test]
    fn bad_source_is_a_compile_error_not_a_dead_host() {
        let host = SessionHost::new(HostConfig::with_workers(1));
        assert!(matches!(
            host.create_session("not a program"),
            Err(HostError::Compile(_))
        ));
        // A failed compile is not counted as a compiled program.
        assert_eq!(host.programs_compiled(), 0);
        // The host keeps serving.
        let id = host.create_session(APP).expect("compiles");
        assert_eq!(host.programs_compiled(), 1);
        assert!(host.apply(id, SessionCommand::Frame).is_ok());
    }
}
