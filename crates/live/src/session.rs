//! The live programming session — Section 3's developer experience.
//!
//! A [`LiveSession`] pairs the running [`System`] with the program's
//! *source text*. The programmer edits text; the session continuously
//! parses, type-checks, and — only when clean — applies the UPDATE
//! transition, so "the program keeps running while the programmer edits
//! their code". Ill-formed edits are rejected with diagnostics and the
//! previous program keeps running.
//!
//! # Degraded, not dead
//!
//! Runtime faults (divergence caught by fuel, partial primitives) are
//! *contained*, never fatal:
//!
//! * a faulting **handler** rolls back and drops its event — the model
//!   is untouched, the last good view stays up (tagged stale);
//! * a faulting **edit** (type-correct code whose init/render faults as
//!   soon as it runs) is **quarantined**: the session auto-reverts to
//!   the previous source and reports the fault like a rejection;
//! * every contained fault lands in a bounded [`FaultLog`], surfaced to
//!   tooling as a [`LiveSession::fault_banner`] over the last good view.
//!
//! Consequently [`LiveSession::live_view`] is total: whatever the user
//! code does, the session has something to show.

use crate::fault_log::FaultLog;
use crate::memo::{MemoCache, MemoStats};
use crate::metrics::SessionMetrics;
use crate::protocol::SessionCommand;
use alive_core::bigstep::RenderHook;
use alive_core::boxtree::{BoxNode, Display};
use alive_core::fixup::FixupReport;
use alive_core::system::{ActionError, System, SystemConfig};
use alive_core::{compile, Fault, FaultKind, IncrementalCompiler, Program};
use alive_obs::{Clock, MetricsSnapshot, Registry};
use alive_syntax::{apply_edits, Diagnostics, EditError, TextEdit};
use alive_ui::Point;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of submitting an edit to a live session.
#[derive(Debug)]
pub enum EditOutcome {
    /// The new code was accepted; the UPDATE transition ran with this
    /// fix-up, and the display was refreshed.
    Applied(FixupReport),
    /// The new code was rejected (parse, lower, or type errors); the
    /// old program keeps running and the source text is unchanged.
    Rejected(Diagnostics),
    /// The new code type-checked, but faulted as soon as it ran (a
    /// diverging or partial init/render). The session auto-reverted to
    /// the previous source — quarantine counts as a rejection, with the
    /// fault as the diagnostic.
    Quarantined {
        /// The fault the new code produced before being reverted.
        fault: Fault,
        /// The fix-up report of the rolled-back update.
        report: FixupReport,
    },
}

impl EditOutcome {
    /// Whether the edit was applied (and stayed applied).
    pub fn is_applied(&self) -> bool {
        matches!(self, EditOutcome::Applied(_))
    }

    /// Whether the edit was quarantined (applied, faulted, reverted).
    pub fn is_quarantined(&self) -> bool {
        matches!(self, EditOutcome::Quarantined { .. })
    }
}

/// The result of an undo/redo request — typed, so a frontend can tell a
/// real history step from a no-op (and report each honestly).
#[derive(Debug, Clone, PartialEq)]
pub enum UndoOutcome {
    /// The neighbouring history entry was applied as a regular UPDATE
    /// transition; source and display now reflect it.
    Applied,
    /// The history stack was empty; the session is unchanged. (Also the
    /// redo-side "nothing to redo".)
    NothingToUndo,
    /// The history entry ran but was quarantined: it faulted on its
    /// first transition and the session auto-reverted, keeping the
    /// entry on its stack. Carries the fault when one was recorded (a
    /// previously-applied source failing to even recompile is reported
    /// the same way, with no fault).
    Quarantined(Option<Box<Fault>>),
}

impl UndoOutcome {
    /// Whether the history step actually happened.
    pub fn is_applied(&self) -> bool {
        matches!(self, UndoOutcome::Applied)
    }
}

/// Outcome of a host-driven fleet UPDATE on one session
/// ([`LiveSession::fleet_update`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetUpdateOutcome {
    /// The UPDATE transition ran; the session now runs the new program
    /// with a pre-transaction checkpoint parked for revert/promote.
    Applied {
        /// Whether the new code faulted the moment it ran (its
        /// init/render, before any further traffic). The session keeps
        /// running the new program — degraded, banner up — so the host's
        /// rollout state machine, not the session, decides the revert.
        faulted: bool,
    },
    /// The session's source no longer matches the transaction's base
    /// version (it edited locally since the transaction opened); it was
    /// left untouched.
    Diverged,
    /// Another fleet transaction's checkpoint is still pending on this
    /// session; it was left untouched.
    Busy,
    /// The UPDATE transition itself refused (internal surprise — after a
    /// refresh the queue is drained, so this should not happen); the
    /// session was left untouched.
    Failed(String),
}

/// Pre-transaction state parked on a session between a fleet UPDATE and
/// the transaction's promote/revert decision — PR 2's checkpoint
/// machinery, extended to everything a revert must restore *plus* a
/// journal of the client commands answered while the canary was live
/// (re-applied after the revert, so the session converges to what a solo
/// replay of its full history produces).
#[derive(Debug)]
struct FleetCheckpoint {
    tx: u64,
    system: System,
    source: String,
    faults: FaultLog,
    undo_stack: Vec<String>,
    redo_stack: Vec<String>,
    updates_applied: u64,
    updates_rejected: u64,
    pending_txs: BTreeMap<u64, PendingTx>,
    next_tx: u64,
    journal: Vec<SessionCommand>,
    journal_overflow: bool,
}

/// Commands journaled per pending fleet checkpoint before the journal
/// stops recording ([`FleetCheckpoint::journal_overflow`]). Past the
/// bound a revert restores the checkpoint but skips the replay — the
/// session is still byte-identical to its *pre-transaction* state, just
/// not to a full-history solo replay. Observation windows are short;
/// 4096 commands inside one is a misbehaving client.
const FLEET_JOURNAL_CAPACITY: usize = 4096;

/// One open edit transaction staged on a solo session
/// ([`LiveSession::tx_open`]): the batched source so far.
#[derive(Debug, Clone)]
struct PendingTx {
    staged: String,
    edits: usize,
}

/// A typed failure from the solo transaction API.
#[derive(Debug)]
pub enum TxError {
    /// No open transaction with this id.
    UnknownTx(u64),
    /// A staged batch was malformed against the staged text.
    Edit(EditError),
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::UnknownTx(tx) => write!(f, "no open transaction tx#{tx}"),
            TxError::Edit(e) => write!(f, "bad transaction edit: {e}"),
        }
    }
}

impl std::error::Error for TxError {}

/// Observability counters for the frame pipeline: evaluation (memo, VM
/// cache), layout, paint, and the generation-keyed view memo. Per-frame
/// fields describe the *last* frame actually rendered; `frames` and
/// `view_hits` accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames rendered (view-memo misses).
    pub frames: u64,
    /// View reads answered from the generation-keyed string memo.
    pub view_hits: u64,
    /// `boxed` evaluations answered from the render memo cache
    /// (lifetime total; zero when the session runs without a memo).
    pub eval_hits: u64,
    /// `boxed` evaluations that ran and populated the memo cache.
    pub eval_misses: u64,
    /// Microseconds spent settling the system (evaluation) since the
    /// previous view read, up to the last frame.
    pub eval_us: u64,
    /// The slice of [`FrameStats::eval_us`] spent compiling bytecode
    /// (zero once the VM cache is warm).
    pub eval_compile_us: u64,
    /// The slice of [`FrameStats::eval_us`] spent actually executing —
    /// `eval_us` minus the compile slice.
    pub eval_exec_us: u64,
    /// Lifetime VM bytecode-cache hits (dispatches that reused the
    /// already-compiled program).
    pub vm_cache_hits: u64,
    /// Microseconds spent in layout last frame.
    pub layout_us: u64,
    /// Microseconds spent in paint last frame.
    pub paint_us: u64,
}

impl FrameStats {
    /// Fraction of `boxed` evaluations served by the memo cache, 0–1.
    pub fn eval_reuse(&self) -> f64 {
        let total = self.eval_hits + self.eval_misses;
        if total == 0 {
            0.0
        } else {
            self.eval_hits as f64 / total as f64
        }
    }
}

/// A live programming session: source text + running system + optional
/// render cache.
#[derive(Debug)]
pub struct LiveSession {
    source: String,
    system: System,
    memo: Option<MemoCache>,
    updates_applied: u64,
    updates_rejected: u64,
    /// Per-keystroke compiler with an item-granular parse cache.
    compiler: IncrementalCompiler,
    /// Previously applied sources, oldest first (for undo).
    undo_stack: Vec<String>,
    /// Sources undone from (for redo); cleared by a fresh edit.
    redo_stack: Vec<String>,
    /// Contained faults, newest last, bounded.
    faults: FaultLog,
    /// The last rendered view, keyed by
    /// [`System::display_generation`]: a read of an unchanged display
    /// is a string clone. Every new generation is laid out and painted
    /// from scratch.
    view: Option<(u64, String)>,
    /// Counters and stage timings of the frames rendered so far.
    frame: FrameStats,
    /// Observability handles, resolved at construction from the
    /// session's registry ([`LiveSession::with_shared_program_observed`]).
    metrics: SessionMetrics,
    /// The registry's clock, which frame timings are taken against.
    clock: Arc<dyn Clock>,
    /// Settle time (and its compile slice, the
    /// [`alive_core::system::VmStats::compile_us`] delta) accumulated by
    /// every [`LiveSession::refresh`] since the last
    /// [`LiveSession::live_view`]: a tap settles inside `tap_path`,
    /// before the frame is drawn.
    unframed_eval_us: u64,
    unframed_compile_us: u64,
    /// Pre-transaction checkpoint while a fleet UPDATE awaits its
    /// promote/revert decision. At most one — a session runs at most one
    /// fleet transaction at a time.
    fleet_checkpoint: Option<FleetCheckpoint>,
    /// Open solo edit transactions, staged source per id.
    pending_txs: BTreeMap<u64, PendingTx>,
    /// Next solo transaction id.
    next_tx: u64,
    /// Candidate repairs offered by the last direct-manipulation
    /// selection, together with the source snapshot they were computed
    /// against (applying one refuses if the source has moved on).
    pending_repairs: Option<crate::repair::PendingRepairs>,
    /// Babylonian live-example probes, cached per
    /// `(version, display generation)` so continuous evaluation costs
    /// nothing while neither code nor model changes.
    examples: crate::examples::ExampleCache,
}

impl LiveSession {
    /// Start a session from source text and run it to its first stable
    /// state (start page rendered). If the program's startup faults,
    /// the session still starts — degraded, with the fault logged. It
    /// records into a fresh [`Registry`] on the real clock;
    /// [`LiveSession::observed`] hands it one instead.
    ///
    /// # Errors
    ///
    /// Compilation diagnostics if the initial program is ill-formed.
    pub fn new(source: &str) -> Result<Self, SessionError> {
        Self::observed(source, SystemConfig::default(), false, &Registry::new())
    }

    /// Start a session with the §5 render cache enabled.
    ///
    /// # Errors
    ///
    /// See [`LiveSession::new`].
    pub fn with_memo(source: &str) -> Result<Self, SessionError> {
        Self::observed(source, SystemConfig::default(), true, &Registry::new())
    }

    /// Start a session around an already-compiled shared program — the
    /// host path: one compile per source version, shared across every
    /// session born from it. The caller vouches that `program` is the
    /// compilation of `source` (a mismatch shows up as confusing
    /// navigation spans, not unsoundness: the system only runs the
    /// program it is given).
    pub fn with_shared_program(
        source: &str,
        program: Arc<alive_core::Program>,
        config: SystemConfig,
        memo: bool,
    ) -> Self {
        Self::with_shared_program_observed(source, program, config, memo, &Registry::new())
    }

    /// [`LiveSession::with_shared_program`] recording into `registry`:
    /// system- and session-level metrics are resolved from it and every
    /// frame timing runs on its clock (a [`alive_obs::ManualClock`]
    /// makes the whole session's metrics deterministic). Every session
    /// is built here.
    pub fn with_shared_program_observed(
        source: &str,
        program: Arc<alive_core::Program>,
        config: SystemConfig,
        memo: bool,
        registry: &Registry,
    ) -> Self {
        let memo = memo.then(|| MemoCache::new(&program));
        let mut session = LiveSession {
            source: source.to_string(),
            system: System::with_shared_program(program, config, registry),
            memo,
            updates_applied: 0,
            updates_rejected: 0,
            compiler: IncrementalCompiler::new(),
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
            faults: FaultLog::new(),
            view: None,
            frame: FrameStats::default(),
            metrics: SessionMetrics::new(registry),
            clock: registry.clock(),
            unframed_eval_us: 0,
            unframed_compile_us: 0,
            fleet_checkpoint: None,
            pending_txs: BTreeMap::new(),
            next_tx: 1,
            pending_repairs: None,
            examples: crate::examples::ExampleCache::default(),
        };
        session.refresh();
        session
    }

    /// Start a session from source text that records into `registry`:
    /// compile, then [`LiveSession::with_shared_program_observed`].
    ///
    /// # Errors
    ///
    /// Compilation diagnostics if the program is ill-formed.
    pub fn observed(
        source: &str,
        config: SystemConfig,
        memo: bool,
        registry: &Registry,
    ) -> Result<Self, SessionError> {
        let program = compile(source).map_err(SessionError::Compile)?;
        Ok(Self::with_shared_program_observed(
            source,
            Arc::new(program),
            config,
            memo,
            registry,
        ))
    }

    /// The current source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The running system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the running system (for driving interactions).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Number of code updates applied / rejected so far. Quarantined
    /// edits count as rejections: they did not stay applied.
    pub fn update_counts(&self) -> (u64, u64) {
        (self.updates_applied, self.updates_rejected)
    }

    /// Render-cache statistics, if the cache is enabled.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(MemoCache::stats)
    }

    /// Frame-pipeline statistics: the stage timings of the last
    /// [`LiveSession::live_view`] frame, plus the memo, VM-cache and
    /// view-memo reuse counters.
    pub fn frame_stats(&self) -> FrameStats {
        let mut stats = self.frame;
        stats.vm_cache_hits = self.system.vm_stats().cache_hits;
        if let Some(memo) = self.memo_stats() {
            stats.eval_hits = memo.hits;
            stats.eval_misses = memo.misses;
        }
        stats
    }

    /// The session's observability handles.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// A point-in-time copy of every metric the session (and its
    /// system) has recorded — what [`crate::SessionCommand::Metrics`]
    /// answers with.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.registry().snapshot()
    }

    /// Evaluate the program's Babylonian live examples against the
    /// running model — every `example` item's body (and `expect`
    /// clause, when present), through the session's configured engine.
    /// Results are cached per `(program version, display generation)`:
    /// every state change is followed by a render that bumps the
    /// generation and every edit bumps the version, so the continuous
    /// re-evaluation the probes promise costs nothing while the program
    /// and model stand still.
    pub fn examples(&mut self) -> Vec<crate::examples::ExampleProbe> {
        self.examples.probes(&mut self.system)
    }

    /// Probe-cache counters: recomputations vs cache hits across
    /// [`LiveSession::examples`] calls.
    pub fn example_stats(&self) -> crate::examples::ExampleStats {
        self.examples.stats
    }

    /// The log of contained faults.
    pub fn fault_log(&self) -> &FaultLog {
        &self.faults
    }

    /// A one-line banner describing the latest fault, for display over
    /// the last good view. `None` when no fault has occurred.
    pub fn fault_banner(&self) -> Option<String> {
        self.faults.banner()
    }

    /// Run the system until it has nothing left to do, containing every
    /// fault on the way: faulting events are rolled back and dropped
    /// (recorded in the [`FaultLog`]), the display degrades to the last
    /// good tree. This never fails — a session is always settleable.
    pub fn refresh(&mut self) {
        let start = self.clock.now_us();
        let compile_before = self.system.vm_stats().compile_us;
        self.settle();
        self.unframed_eval_us += self.clock.now_us().saturating_sub(start);
        self.unframed_compile_us += self
            .system
            .vm_stats()
            .compile_us
            .saturating_sub(compile_before);
    }

    fn settle(&mut self) {
        let mut overflowed = false;
        // Each pass ends stable or in one contained fault. The system
        // counts the cascade across passes, so one that refills the
        // queue between faults still overflows.
        loop {
            let hook = self.memo.as_mut().map(|memo| memo as &mut dyn RenderHook);
            let Err(fault) = self.system.run_to_stable_with(hook) else {
                return;
            };
            let overflow = fault.kind == FaultKind::CascadeOverflow;
            self.faults.record(fault);
            if overflow {
                // Settle on so the containment tail renders; a second
                // overflow means STARTUP restarted the cascade.
                if overflowed {
                    return;
                }
                overflowed = true;
            } else if matches!(self.system.display(), Display::Invalid) {
                // `⊥` after a fault: no good tree to fall back to, and
                // retrying RENDER would fault forever.
                return;
            }
        }
    }

    /// Submit a full replacement source text — one keystroke's worth of
    /// the paper's continuous edit loop. Never fails: bad code is
    /// [`EditOutcome::Rejected`], faulting code is
    /// [`EditOutcome::Quarantined`] (auto-reverted).
    pub fn edit_source(&mut self, new_source: &str) -> EditOutcome {
        let outcome = self.swap_source(new_source);
        if outcome.is_applied() {
            self.redo_stack.clear();
        }
        outcome
    }

    /// Undo the most recent applied edit: restore the previous source
    /// via a regular UPDATE transition (the model is fixed up, not
    /// rolled back — undo is an edit like any other, as in the paper's
    /// model where code changes are transitions).
    ///
    /// The outcome says whether a history step happened:
    /// [`UndoOutcome::NothingToUndo`] if the stack was empty, and
    /// [`UndoOutcome::Quarantined`] if the undone code faulted against
    /// the current model (the session is unchanged in that case).
    pub fn undo(&mut self) -> UndoOutcome {
        let outcome = self.undo_inner();
        self.metrics.record_history(&outcome);
        outcome
    }

    fn undo_inner(&mut self) -> UndoOutcome {
        let Some(previous) = self.undo_stack.pop() else {
            return UndoOutcome::NothingToUndo;
        };
        let current = self.source.clone();
        match self.swap_source(&previous) {
            EditOutcome::Applied(_) => {
                // swap_source pushed `current` onto undo; it belongs on
                // redo instead.
                self.undo_stack.pop();
                self.redo_stack.push(current);
                UndoOutcome::Applied
            }
            EditOutcome::Quarantined { fault, .. } => {
                // The session was left as it was; keep the undo entry.
                self.undo_stack.push(previous);
                UndoOutcome::Quarantined(Some(Box::new(fault)))
            }
            EditOutcome::Rejected(_) => {
                self.undo_stack.push(previous);
                UndoOutcome::Quarantined(None)
            }
        }
    }

    /// Redo the most recently undone edit. Same outcomes as
    /// [`LiveSession::undo`].
    pub fn redo(&mut self) -> UndoOutcome {
        let outcome = self.redo_inner();
        self.metrics.record_history(&outcome);
        outcome
    }

    fn redo_inner(&mut self) -> UndoOutcome {
        let Some(next) = self.redo_stack.pop() else {
            return UndoOutcome::NothingToUndo;
        };
        match self.swap_source(&next) {
            EditOutcome::Applied(_) => UndoOutcome::Applied,
            EditOutcome::Quarantined { fault, .. } => {
                self.redo_stack.push(next);
                UndoOutcome::Quarantined(Some(Box::new(fault)))
            }
            EditOutcome::Rejected(_) => {
                self.redo_stack.push(next);
                UndoOutcome::Quarantined(None)
            }
        }
    }

    /// Number of edits that can currently be undone.
    pub fn undo_depth(&self) -> usize {
        self.undo_stack.len()
    }

    fn swap_source(&mut self, new_source: &str) -> EditOutcome {
        let outcome = self.swap_source_inner(new_source);
        // Mirrors `update_counts` exactly: metrics `applied` tracks the
        // applied count; `rejected + quarantined` the rejected count.
        self.metrics.record_edit(&outcome);
        outcome
    }

    fn swap_source_inner(&mut self, new_source: &str) -> EditOutcome {
        // `compile` type-checks, so UPDATE takes the pre-checked path.
        let program = match self.compiler.compile(new_source) {
            Ok(p) => Arc::new(p),
            Err(diags) => {
                self.updates_rejected += 1;
                return EditOutcome::Rejected(diags);
            }
        };
        // UPDATE requires a drained queue; settling also re-renders, so
        // the pre-edit state below is the freshest good state.
        self.refresh();
        // The edit transaction checkpoint: if the new code faults on
        // its first run, the whole session state rolls back to here.
        // (Cloning shares the program `Arc` and the injector, so this is
        // cheap relative to an update.)
        let checkpoint = self.system.clone();
        let report = match self.system.update_shared(program) {
            Ok(report) => report,
            Err(other) => {
                // After refresh() the queue is drained, so NotStable
                // (or anything else) here is an internal surprise —
                // report it as a rejection rather than dying.
                self.updates_rejected += 1;
                let mut diags = Diagnostics::new();
                diags.push(alive_syntax::Diagnostic::error(
                    alive_syntax::Span::DUMMY,
                    format!("update could not be applied: {other}"),
                ));
                return EditOutcome::Rejected(diags);
            }
        };
        if let Some(memo) = self.memo.as_mut() {
            memo.on_update(self.system.program(), self.system.version());
        }
        let old_source = std::mem::replace(&mut self.source, new_source.to_string());
        let faults_before = self.faults.total();
        self.refresh();
        if self.faults.total() > faults_before {
            // The new code faulted the moment it ran (UPDATE wiped the
            // display, so only the new version's init/render executed
            // here). Quarantine the edit: revert the machine and the
            // source, report like a rejection.
            let fault = self
                .faults
                .latest()
                .cloned()
                .unwrap_or_else(|| unreachable!("total() grew, so a fault was recorded"));
            self.system = checkpoint;
            self.source = old_source;
            // The probe cache may be keyed to the quarantined version.
            self.examples.invalidate();
            if let Some(memo) = self.memo.as_mut() {
                // The cache may hold entries keyed to the quarantined
                // version; rebuild it against the restored program.
                *memo = MemoCache::new(self.system.program());
            }
            self.updates_rejected += 1;
            return EditOutcome::Quarantined { fault, report };
        }
        self.undo_stack.push(old_source);
        self.updates_applied += 1;
        EditOutcome::Applied(report)
    }

    /// Apply span-addressed edits to the current source and submit the
    /// result.
    ///
    /// # Errors
    ///
    /// [`SessionError::Edit`] if the edits are malformed.
    pub fn apply_text_edits(&mut self, edits: &[TextEdit]) -> Result<EditOutcome, SessionError> {
        let new_source = apply_edits(&self.source, edits).map_err(SessionError::Edit)?;
        Ok(self.edit_source(&new_source))
    }

    /// Park the candidate repairs from a direct-manipulation selection
    /// (see [`crate::repair`]); replaces any earlier offer.
    pub(crate) fn set_pending_repairs(&mut self, pending: crate::repair::PendingRepairs) {
        self.pending_repairs = Some(pending);
    }

    /// The parked repair offer, if any.
    pub(crate) fn pending_repairs(&self) -> Option<&crate::repair::PendingRepairs> {
        self.pending_repairs.as_ref()
    }

    /// Withdraw the parked repair offer.
    pub(crate) fn clear_pending_repairs(&mut self) {
        self.pending_repairs = None;
    }

    // -----------------------------------------------------------------
    // Edit transactions (solo) — the degenerate single-session form of
    // the host's fleet transaction: batch edits against a staged copy of
    // the source, then commit them as ONE UPDATE transition (atomic: the
    // running program never sees a half-applied batch).
    // -----------------------------------------------------------------

    /// Open an edit transaction: stage a copy of the current source for
    /// batched edits. Returns the transaction id.
    pub fn tx_open(&mut self) -> u64 {
        let tx = self.next_tx;
        self.next_tx += 1;
        self.pending_txs.insert(
            tx,
            PendingTx {
                staged: self.source.clone(),
                edits: 0,
            },
        );
        tx
    }

    /// Stage one batch of span-addressed edits on an open transaction.
    /// Spans address the *staged* text (the result of every batch staged
    /// so far — see [`alive_syntax::apply_edit_batches`]); the running
    /// program is untouched until commit. Returns the total number of
    /// edits staged on the transaction.
    ///
    /// # Errors
    ///
    /// [`TxError::UnknownTx`] / [`TxError::Edit`]; the staged text is
    /// unchanged on error.
    pub fn tx_edit(&mut self, tx: u64, edits: &[TextEdit]) -> Result<usize, TxError> {
        let pending = self
            .pending_txs
            .get_mut(&tx)
            .ok_or(TxError::UnknownTx(tx))?;
        pending.staged = apply_edits(&pending.staged, edits).map_err(TxError::Edit)?;
        pending.edits += edits.len();
        Ok(pending.edits)
    }

    /// Commit an open transaction: submit the staged source as one
    /// UPDATE ([`LiveSession::edit_source`] semantics — rejection and
    /// quarantine included). The transaction closes on
    /// [`EditOutcome::Applied`] and [`EditOutcome::Quarantined`] (the
    /// batch was decided); it stays open on [`EditOutcome::Rejected`] so
    /// the client can stage a fix and retry.
    ///
    /// # Errors
    ///
    /// [`TxError::UnknownTx`] if no such transaction is open.
    pub fn tx_commit(&mut self, tx: u64) -> Result<EditOutcome, TxError> {
        let staged = self
            .pending_txs
            .get(&tx)
            .ok_or(TxError::UnknownTx(tx))?
            .staged
            .clone();
        let outcome = self.edit_source(&staged);
        if !matches!(outcome, EditOutcome::Rejected(_)) {
            self.pending_txs.remove(&tx);
        }
        Ok(outcome)
    }

    /// Abort an open transaction, discarding its staged edits. Returns
    /// whether the id named an open transaction.
    pub fn tx_abort(&mut self, tx: u64) -> bool {
        self.pending_txs.remove(&tx).is_some()
    }

    /// Number of edits staged on an open transaction, or `None` if the
    /// id is unknown.
    pub fn tx_edits(&self, tx: u64) -> Option<usize> {
        self.pending_txs.get(&tx).map(|p| p.edits)
    }

    // -----------------------------------------------------------------
    // Fleet UPDATE / revert — the host-driven half of a transaction's
    // canary rollout. `fleet_update` applies a host-compiled program and
    // parks a checkpoint; the host later calls `fleet_promote` (drop the
    // checkpoint) or `fleet_revert` (restore it, state intact).
    // -----------------------------------------------------------------

    /// Apply a host-compiled program as a Fig. 12 UPDATE, parking a
    /// pre-transaction checkpoint for the transaction's promote/revert
    /// decision. The caller vouches that `program` is the compilation of
    /// `new_source` and passed the typechecker (the host compiled it
    /// once for the whole fleet); `base_source` is the source version the
    /// transaction was opened against — a session that has since edited
    /// away from it reports [`FleetUpdateOutcome::Diverged`] and is left
    /// untouched.
    ///
    /// Unlike [`LiveSession::edit_source`], an immediately-faulting
    /// update is **not** auto-quarantined here: the session keeps
    /// running the new program degraded (banner up, last good view) and
    /// reports `faulted: true` — whether one canary fault rolls the
    /// whole fleet's transaction back is the host's call, not the
    /// session's. Fleet updates do not touch the undo/redo history:
    /// they are deploys, not local edits.
    pub fn fleet_update(
        &mut self,
        tx: u64,
        base_source: &str,
        new_source: &str,
        program: Arc<Program>,
    ) -> FleetUpdateOutcome {
        if self.fleet_checkpoint.is_some() {
            return FleetUpdateOutcome::Busy;
        }
        if self.source != base_source {
            return FleetUpdateOutcome::Diverged;
        }
        // UPDATE requires a drained queue; settling also renders, so the
        // checkpoint below is the freshest good pre-transaction state.
        self.refresh();
        let checkpoint = FleetCheckpoint {
            tx,
            system: self.system.clone(),
            source: self.source.clone(),
            faults: self.faults.clone(),
            undo_stack: self.undo_stack.clone(),
            redo_stack: self.redo_stack.clone(),
            updates_applied: self.updates_applied,
            updates_rejected: self.updates_rejected,
            pending_txs: self.pending_txs.clone(),
            next_tx: self.next_tx,
            journal: Vec::new(),
            journal_overflow: false,
        };
        if let Err(e) = self.system.update_shared(program) {
            return FleetUpdateOutcome::Failed(e.to_string());
        }
        if let Some(memo) = self.memo.as_mut() {
            memo.on_update(self.system.program(), self.system.version());
        }
        self.source = new_source.to_string();
        self.updates_applied += 1;
        let faults_before = self.faults.total();
        self.refresh();
        let faulted = self.faults.total() > faults_before;
        self.fleet_checkpoint = Some(checkpoint);
        self.metrics.record_fleet_update();
        FleetUpdateOutcome::Applied { faulted }
    }

    /// Roll a fleet UPDATE back: restore the parked checkpoint — system,
    /// source, fault log, history stacks, edit books, open solo
    /// transactions — then re-apply the journal of client commands the
    /// session answered while the canary was live, so the session ends
    /// byte-identical to a solo replay of its full command history under
    /// the old program. Returns `false` (session untouched) if no
    /// checkpoint for `tx` is pending.
    pub fn fleet_revert(&mut self, tx: u64) -> bool {
        match &self.fleet_checkpoint {
            Some(checkpoint) if checkpoint.tx == tx => {}
            _ => return false,
        }
        let Some(checkpoint) = self.fleet_checkpoint.take() else {
            return false;
        };
        self.system = checkpoint.system;
        self.source = checkpoint.source;
        // The probe cache may be keyed to the reverted version.
        self.examples.invalidate();
        self.faults = checkpoint.faults;
        self.undo_stack = checkpoint.undo_stack;
        self.redo_stack = checkpoint.redo_stack;
        self.updates_applied = checkpoint.updates_applied;
        self.updates_rejected = checkpoint.updates_rejected;
        self.pending_txs = checkpoint.pending_txs;
        self.next_tx = checkpoint.next_tx;
        if let Some(memo) = self.memo.as_mut() {
            // The cache holds entries keyed to the reverted version;
            // rebuild it against the restored program.
            *memo = MemoCache::new(self.system.program());
        }
        // The view memo is display-generation-keyed and the restored
        // system's generation rolls *backward* — a stale memo would
        // serve the canary frame for a restored generation. Forget it.
        self.view = None;
        self.refresh();
        // Replay the mid-canary traffic against the restored program.
        // The checkpoint is `None` now, so nothing re-journals.
        if !checkpoint.journal_overflow {
            for command in checkpoint.journal {
                let _ = self.apply(command);
            }
        }
        self.metrics.record_fleet_revert();
        true
    }

    /// Promote a fleet UPDATE: the transaction's observation window
    /// closed clean, so drop the parked checkpoint (and its journal) —
    /// the new program is this session's baseline now. Returns `false`
    /// if no checkpoint for `tx` is pending.
    pub fn fleet_promote(&mut self, tx: u64) -> bool {
        match &self.fleet_checkpoint {
            Some(checkpoint) if checkpoint.tx == tx => {
                self.fleet_checkpoint = None;
                self.metrics.record_fleet_promote();
                true
            }
            _ => false,
        }
    }

    /// Journal a client command while a fleet checkpoint is pending (the
    /// revert path replays the journal). Bounded: past
    /// `FLEET_JOURNAL_CAPACITY` the journal stops recording and a revert
    /// restores the bare checkpoint without replay.
    pub(crate) fn journal_for_fleet(&mut self, command: &SessionCommand) {
        if let Some(checkpoint) = self.fleet_checkpoint.as_mut() {
            if checkpoint.journal.len() >= FLEET_JOURNAL_CAPACITY {
                checkpoint.journal_overflow = true;
            } else {
                checkpoint.journal.push(command.clone());
            }
        }
    }

    /// The current display's box tree (refreshing first), or `None` if
    /// the session has no renderable view at all (its only render ever
    /// attempted faulted — there is no last good tree to fall back to).
    ///
    /// The tree comes back as a shared [`Arc`] handle: a host can fan
    /// one frame out to many observers with refcount bumps, no copying.
    pub fn display_tree(&mut self) -> Option<Arc<BoxNode>> {
        self.refresh();
        self.system.display().content_shared().cloned()
    }

    /// Render the current display as text — the live view. Total: a
    /// faulting program yields the last good view; a session with no
    /// good view at all yields a placeholder naming the fault.
    ///
    /// A read of an unchanged display generation returns the memoized
    /// string; a new generation is laid out and painted from scratch,
    /// byte-identical to `render_to_text(&layout(root))` by
    /// construction.
    pub fn live_view(&mut self) -> String {
        self.refresh();
        let eval_us = std::mem::take(&mut self.unframed_eval_us);
        let compile_us = std::mem::take(&mut self.unframed_compile_us);
        let generation = self.system.display_generation();
        let Some(root) = self.system.display().content() else {
            return match self.faults.latest() {
                Some(fault) => format!("(no view: {fault})\n"),
                None => "(no view)\n".to_string(),
            };
        };
        if let Some((drawn, text)) = &self.view {
            if *drawn == generation {
                self.frame.view_hits += 1;
                return text.clone();
            }
        }
        let layout_start = self.clock.now_us();
        let tree = alive_ui::layout(root);
        let paint_start = self.clock.now_us();
        let text = alive_ui::render_to_text(&tree);
        let paint_end = self.clock.now_us();
        self.frame.frames += 1;
        self.frame.eval_us = eval_us;
        self.frame.eval_compile_us = compile_us;
        self.frame.eval_exec_us = eval_us.saturating_sub(compile_us);
        self.frame.layout_us = paint_start.saturating_sub(layout_start);
        self.frame.paint_us = paint_end.saturating_sub(paint_start);
        self.metrics.record_frame(&self.frame_stats());
        self.view = Some((generation, text.clone()));
        text
    }

    /// Tap the screen at a point (hit-tested), then refresh.
    /// Returns whether a tappable box was hit. A faulting tap handler
    /// does not error: its event is dropped, the model kept, the fault
    /// logged.
    ///
    /// # Errors
    ///
    /// [`SessionError::Action`] if the tap cannot be delivered.
    pub fn tap_at(&mut self, x: i32, y: i32) -> Result<bool, SessionError> {
        self.refresh();
        let hit =
            alive_ui::tap_at(&mut self.system, Point::new(x, y)).map_err(SessionError::Action)?;
        self.refresh();
        Ok(hit)
    }

    /// Tap a box by its path in the box tree, then refresh. A faulting
    /// handler drops its event with the model kept (fault logged).
    ///
    /// # Errors
    ///
    /// [`SessionError::Action`] if the path or handler is missing.
    pub fn tap_path(&mut self, path: &[usize]) -> Result<(), SessionError> {
        self.refresh();
        self.system.tap(path).map_err(SessionError::Action)?;
        self.refresh();
        Ok(())
    }

    /// Press the back button, then refresh.
    ///
    /// At the root page this is a typed error, not a pop: popping the
    /// last page would empty the stack and the STARTUP transition would
    /// re-run `init` from scratch — a hidden restart, which is exactly
    /// what a live session promises never to do.
    ///
    /// # Errors
    ///
    /// [`SessionError::Action`] ([`ActionError::NoPageToPop`]) at the
    /// root page.
    pub fn back(&mut self) -> Result<(), SessionError> {
        if self.system.page_stack().len() <= 1 {
            return Err(SessionError::Action(ActionError::NoPageToPop));
        }
        self.system.back();
        self.refresh();
        Ok(())
    }

    /// Edit the text of the box at `path` (fires its `onedit` handler),
    /// then refresh. A faulting handler drops its event with the model
    /// kept (fault logged).
    ///
    /// # Errors
    ///
    /// [`SessionError::Action`] if the box has no edit handler.
    pub fn edit_box(&mut self, path: &[usize], text: &str) -> Result<(), SessionError> {
        self.refresh();
        self.system
            .edit_box(path, text)
            .map_err(SessionError::Action)?;
        self.refresh();
        Ok(())
    }
}

/// Errors surfaced by [`LiveSession`] entry points. Runtime faults are
/// *not* errors — they are contained and logged (see [`FaultLog`]).
#[derive(Debug)]
pub enum SessionError {
    /// The initial program did not compile.
    Compile(Diagnostics),
    /// A user action could not be delivered.
    Action(ActionError),
    /// Text edits were malformed.
    Edit(EditError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Compile(ds) => write!(f, "program does not compile:\n{ds}"),
            SessionError::Action(e) => write!(f, "action failed: {e}"),
            SessionError::Edit(e) => write!(f, "bad text edit: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_core::Value;

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
    fn session_starts_and_renders() {
        let mut s = LiveSession::new(APP).expect("starts");
        assert_eq!(s.live_view(), "count is 1\n");
        assert!(s.system().is_stable());
        assert!(s.fault_log().is_empty());
        assert_eq!(s.fault_banner(), None);
    }

    #[test]
    fn eval_us_covers_the_settle_inside_a_tap() {
        // Every clock read advances STEP µs, so each timed settle
        // measures at least STEP.
        const STEP: u64 = 7;
        let registry = Registry::with_clock(alive_obs::ManualClock::with_auto_step(STEP).shared());
        let mut s =
            LiveSession::observed(APP, SystemConfig::default(), false, &registry).expect("starts");
        s.live_view();
        s.tap_path(&[0]).expect("tap");
        assert_eq!(s.live_view(), "count is 11\n");
        // `tap_path` settles before and after the tap (the handler and
        // the re-render run there), and `live_view` settles once more:
        // the frame's eval time spans all three, not just the last.
        let stats = s.frame_stats();
        assert!(stats.eval_us >= 3 * STEP, "{stats:?}");
        assert_eq!(
            stats.eval_exec_us + stats.eval_compile_us,
            stats.eval_us,
            "{stats:?}"
        );
    }

    #[test]
    fn live_edit_keeps_model_state() {
        let mut s = LiveSession::new(APP).expect("starts");
        s.tap_path(&[0]).expect("tap");
        assert_eq!(s.live_view(), "count is 11\n");

        let outcome = s.edit_source(&APP.replace("count is ", "n = "));
        assert!(outcome.is_applied());
        // Model preserved across the code update; init did not re-run.
        assert_eq!(s.live_view(), "n = 11\n");
        assert_eq!(s.update_counts(), (1, 0));
    }

    #[test]
    fn broken_edit_is_rejected_and_old_code_runs() {
        let mut s = LiveSession::new(APP).expect("starts");
        // Mid-keystroke state: incomplete expression.
        let outcome = s.edit_source(&APP.replace("count + 10", "count + "));
        let EditOutcome::Rejected(diags) = outcome else {
            panic!("expected rejection");
        };
        assert!(diags.has_errors());
        assert_eq!(s.update_counts(), (0, 1));
        // Old program still runs, source unchanged.
        assert_eq!(s.live_view(), "count is 1\n");
        assert!(s.source().contains("count + 10"));
    }

    #[test]
    fn faulting_edit_is_quarantined_and_reverted() {
        let mut s = LiveSession::new(APP).expect("starts");
        s.tap_path(&[0]).expect("tap"); // count = 11
                                        // Type-correct, but the render diverges as soon as it runs.
        let diverging = APP.replace(
            "post \"count is \" ++ count;",
            "while true { count; } post \"never\";",
        );
        let outcome = s.edit_source(&diverging);
        let EditOutcome::Quarantined { fault, .. } = outcome else {
            panic!("expected quarantine, got {outcome:?}");
        };
        assert_eq!(fault.kind, alive_core::FaultKind::Render);
        // Auto-reverted: source and view are the pre-edit ones, the
        // model survived, and the books show a rejection.
        assert!(s.source().contains("post \"count is \""));
        assert_eq!(s.live_view(), "count is 11\n");
        assert_eq!(s.system().store().get("count"), Some(&Value::Number(11.0)));
        assert_eq!(s.update_counts(), (0, 1));
        assert_eq!(s.fault_log().len(), 1);
        // The session is fully alive: further edits and taps work.
        assert!(s.edit_source(&APP.replace("count is", "n =")).is_applied());
        s.tap_path(&[0]).expect("tap");
        assert_eq!(s.live_view(), "n = 21\n");
    }

    #[test]
    fn faulting_handler_drops_event_and_keeps_view() {
        let partial = APP.replace(
            "count := count + 10;",
            "count := count + 10; count := list.nth([1], 9);",
        );
        let mut s = LiveSession::new(&partial).expect("starts");
        assert_eq!(s.live_view(), "count is 1\n");
        // The tap handler faults: no session error, event dropped,
        // store rolled back, last good view still up (stale).
        s.tap_path(&[0]).expect("tap is delivered");
        assert_eq!(s.system().store().get("count"), Some(&Value::Number(1.0)));
        assert_eq!(s.live_view(), "count is 1\n");
        assert_eq!(s.fault_log().len(), 1);
        let banner = s.fault_banner().expect("fault logged");
        assert!(banner.contains("handler fault"), "{banner}");
        assert!(banner.contains("list.nth"), "{banner}");
        // Still interactive: tapping again faults again, alive still.
        s.tap_path(&[0]).expect("tap is delivered");
        assert_eq!(s.fault_log().len(), 2);
        assert_eq!(s.live_view(), "count is 1\n");
    }

    #[test]
    fn text_edits_apply_by_span() {
        let mut s = LiveSession::new(APP).expect("starts");
        let at = s.source().find("10").expect("found") as u32;
        let outcome = s
            .apply_text_edits(&[TextEdit::replace(
                alive_syntax::Span::new(at, at + 2),
                "100",
            )])
            .expect("edits apply");
        assert!(outcome.is_applied());
        s.tap_path(&[0]).expect("tap");
        assert_eq!(s.system().store().get("count"), Some(&Value::Number(101.0)));
    }

    #[test]
    fn memo_session_produces_identical_views() {
        let src = r#"
global items : list (string, number) = []
global sel : number = 0
page start() {
    init { items := web.listings(20); }
    render {
        boxed { post "selected " ++ sel; }
        foreach entry in items {
            boxed {
                post entry.1 ++ " $" ++ entry.2;
                on tap { sel := sel + 1; }
            }
        }
    }
}
"#;
        let mut plain = LiveSession::new(src).expect("starts");
        let mut memo = LiveSession::with_memo(src).expect("starts");
        assert_eq!(plain.live_view(), memo.live_view());
        for _ in 0..3 {
            plain.tap_path(&[1]).expect("tap");
            memo.tap_path(&[1]).expect("tap");
            assert_eq!(plain.live_view(), memo.live_view());
        }
        let stats = memo.memo_stats().expect("enabled");
        assert!(stats.hits > 0, "listing rows should be reused: {stats:?}");
    }

    #[test]
    fn undo_redo_are_update_transitions() {
        let mut s = LiveSession::new(APP).expect("starts");
        s.tap_path(&[0]).expect("tap"); // count = 11
        assert_eq!(s.undo_depth(), 0);
        assert!(!s.undo().is_applied(), "nothing to undo yet");

        let v1 = APP.replace("count is", "n =");
        let v2 = APP.replace("count is", "total:");
        assert!(s.edit_source(&v1).is_applied());
        assert!(s.edit_source(&v2).is_applied());
        assert_eq!(s.undo_depth(), 2);
        assert_eq!(s.live_view(), "total: 11\n");

        // Undo restores the previous code; the model stays at 11
        // (undo is just another UPDATE, not time travel).
        assert_eq!(s.undo(), UndoOutcome::Applied);
        assert_eq!(s.live_view(), "n = 11\n");
        assert_eq!(s.undo(), UndoOutcome::Applied);
        assert_eq!(s.live_view(), "count is 11\n");
        assert_eq!(s.undo(), UndoOutcome::NothingToUndo, "stack exhausted");

        // Redo walks forward again.
        assert_eq!(s.redo(), UndoOutcome::Applied);
        assert_eq!(s.live_view(), "n = 11\n");
        // A fresh edit clears the redo stack.
        let v3 = s.source().replace("n =", "N:");
        assert!(s.edit_source(&v3).is_applied());
        assert_eq!(s.redo(), UndoOutcome::NothingToUndo);
    }

    #[test]
    fn frame_stats_show_cross_frame_reuse() {
        let src = r#"
global sel : number = 0
global items : list (string, number) = []
page start() {
    init { items := web.listings(12); }
    render {
        boxed { post "selected " ++ sel; }
        foreach entry in items {
            boxed { post entry.1; on tap { sel := sel + 1; } }
        }
    }
}
"#;
        let mut s = LiveSession::with_memo(src).expect("starts");
        let before = s.live_view();
        // A repeated read of the unchanged display is a view-memo hit.
        let again = s.live_view();
        assert_eq!(before, again);
        assert!(s.frame_stats().view_hits >= 1, "{:?}", s.frame_stats());

        // Steady state: a tap changes one header row; the listing rows
        // are memo splices, so evaluation reuses them.
        s.tap_path(&[1]).expect("tap");
        let view = s.live_view();
        assert!(view.starts_with("selected 1"), "{view}");
        let stats = s.frame_stats();
        assert!(
            stats.eval_hits > 0,
            "memo splices feed the reuse: {stats:?}"
        );
    }

    #[test]
    fn a_new_frame_releases_the_previous_display() {
        let src = r#"
global n : number = 0
page start() {
    render {
        boxed { post "n = " ++ n; on tap { n := n + 1; } }
        boxed { post "second"; }
    }
}
"#;
        let mut s = LiveSession::new(src).expect("starts");
        s.live_view();
        let root = s.display_tree().expect("has a view");
        let children: Vec<std::sync::Weak<BoxNode>> =
            root.children_shared().map(Arc::downgrade).collect();
        assert_eq!(children.len(), 2);
        drop(root);
        s.tap_path(&[0]).expect("tap");
        assert_eq!(s.live_view(), "n = 1\nsecond\n");
        let pinned = children.iter().filter(|c| c.upgrade().is_some()).count();
        assert_eq!(
            pinned, 0,
            "{pinned} boxes of the previous frame are still pinned"
        );
    }

    #[test]
    fn an_applied_edit_is_type_checked_once() {
        let registry = Registry::new();
        let mut s =
            LiveSession::observed(APP, SystemConfig::default(), false, &registry).expect("starts");
        assert!(s.edit_source(&APP.replace("count is", "n =")).is_applied());
        let counters = s.metrics_snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        assert_eq!(count(alive_core::metrics::names::UPDATES), 1);
        assert_eq!(count(alive_core::metrics::names::UPDATES_SHARED), 1);
    }

    #[test]
    fn a_plain_session_records() {
        use crate::protocol::{format_metrics_snapshot, SessionEffect};
        use alive_core::metrics::names as system;
        let mut s = LiveSession::new(APP).expect("starts");
        s.apply(SessionCommand::TapPath(vec![0]));
        let effects = s.apply(SessionCommand::Metrics);
        let [SessionEffect::Metrics(snapshot)] = effects.as_slice() else {
            panic!("expected one metrics effect: {effects:?}");
        };
        assert_eq!(snapshot.counter(crate::metrics::names::COMMANDS), 2);
        assert!(snapshot.counter(crate::metrics::names::FRAMES_RENDERED) >= 1);
        assert_eq!(
            snapshot.counter(system::DISPLAY_SETS),
            s.system().display_generation()
        );
        assert_eq!(snapshot.counter(system::VM_COMPILES), 1);
        // One compile timer: the counter and the system's own books agree.
        assert_eq!(
            snapshot.counter(system::VM_COMPILE_US),
            s.system().vm_stats().compile_us
        );
        assert!(format_metrics_snapshot(snapshot).contains("session.commands"));
    }

    #[test]
    fn pipeline_view_is_byte_identical_to_from_scratch() {
        let mut s = LiveSession::with_memo(APP).expect("starts");
        for i in 0..4 {
            if i > 0 {
                s.tap_path(&[0]).expect("tap");
            }
            let view = s.live_view();
            let oracle = {
                let root = s.display_tree().expect("has a view");
                alive_ui::render_to_text(&alive_ui::layout(&root))
            };
            assert_eq!(view, oracle, "frame {i} diverged");
        }
    }

    #[test]
    fn overflow_tail_renders_memo_or_not() {
        // The init cascade pushes forever; containment must drop the
        // queue and the *tail* render must still land, memo on or off —
        // and with memo on it must go through the cache hook rather
        // than falling off the fast path.
        let loopy = r#"
page start() {
    init { push start(); }
    render { boxed { post "landed"; } }
}
"#;
        let config = SystemConfig {
            max_transitions: 40,
            ..SystemConfig::default()
        };
        for memo in [false, true] {
            let mut s =
                LiveSession::observed(loopy, config, memo, &Registry::new()).expect("starts");
            assert_eq!(
                s.fault_log().total_by_kind(FaultKind::CascadeOverflow),
                1,
                "memo {memo}: overflow was contained and logged"
            );
            // The machine settled: the containment tail rendered the page…
            assert!(s.system().is_stable(), "memo {memo}");
            assert_eq!(s.live_view(), "landed\n", "memo {memo}");
            // …and with memo on, that render went through the cache hook.
            if memo {
                let stats = s.memo_stats().expect("memo session");
                assert!(
                    stats.hits + stats.misses + stats.uncacheable > 0,
                    "tail render must hit the RenderHook: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn faults_that_refill_the_queue_are_contained() {
        // Each pass pushes and pops `chain` pages for just under the
        // default cascade budget, then pushes a `broken` page whose init
        // faults, and starts over. The budget spans the faults, so one
        // settle contains the whole cascade, memo on or off.
        let runaway = r#"
global xs : list number = []
page start() {
    render { boxed { post "home"; on tap { push chain(0); } } }
}
page chain(n : number) {
    init {
        pop;
        if n < 4990 { push chain(n + 1); } else { push broken(); push chain(0); }
    }
    render { boxed { post n; } }
}
page broken() {
    init { xs := [list.nth(xs, 3)]; }
    render { }
}
"#;
        let config = SystemConfig::default();
        let budget = config.max_transitions;
        for memo in [false, true] {
            let mut s =
                LiveSession::observed(runaway, config, memo, &Registry::new()).expect("starts");
            let runs = s.system().vm_stats().runs;
            s.tap_path(&[0]).expect("tap");
            assert!(s.system().is_stable(), "memo {memo}: settled");
            let log = s.fault_log();
            assert_eq!(
                log.total_by_kind(FaultKind::CascadeOverflow),
                1,
                "memo {memo}"
            );
            assert_eq!(log.total_by_kind(FaultKind::Init), 1, "memo {memo}");
            // A `chain` page is two transitions (push, pop) and one VM
            // run, so one budget is about `budget / 2` runs.
            let ran = s.system().vm_stats().runs - runs;
            assert!(ran < budget, "memo {memo}: {ran} VM runs");
        }
    }

    #[test]
    fn wide_list_literal_runs_on_the_vm() {
        let zeros = vec!["0"; 70_000].join(", ");
        let source = format!(
            "global xs : list number = [{zeros}]\n\
             page start() {{ render {{ boxed {{ post list.length(xs); }} }} }}\n"
        );
        let mut s = LiveSession::new(&source).expect("starts");
        assert!(s.fault_log().is_empty(), "{}", s.fault_log());
        assert!(s.system().vm_stats().runs > 0);
        assert_eq!(s.live_view(), "70000\n");
    }

    #[test]
    fn a_program_beyond_the_vm_starts_degraded() {
        let params: Vec<String> = (0..65_536).map(|i| format!("p{i} : number")).collect();
        let source = format!(
            "fun wide({}) : number {{ 0 }}\n\
             page start() {{ render {{ boxed {{ post \"never\"; }} }} }}\n",
            params.join(", ")
        );
        let s = LiveSession::new(&source).expect("compiles");
        let faults: Vec<&Fault> = s.fault_log().iter().collect();
        assert_eq!(faults.len(), 1, "{}", s.fault_log());
        let alive_core::RuntimeError::VmLimit(limit) = &faults[0].error else {
            panic!("expected a VM-limit fault: {}", faults[0]);
        };
        assert_eq!(limit.to_string(), "more than 65535 parameters (`wide`)");
        assert_eq!(s.system().vm_stats().runs, 0);
    }

    #[test]
    fn memo_cache_cleared_on_update() {
        let mut s = LiveSession::with_memo(APP).expect("starts");
        s.tap_path(&[0]).expect("tap");
        let outcome = s.edit_source(&APP.replace("count is", "total:"));
        assert!(outcome.is_applied());
        assert_eq!(s.live_view(), "total: 11\n");
    }
}
