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
use alive_syntax::{apply_edits, Diagnostics, TextEdit};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of submitting an edit to a live session; [`LiveSession::apply`]
/// reports it as an `Edit*` effect.
#[derive(Debug)]
pub(crate) enum EditOutcome {
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
    pub(crate) fn is_applied(&self) -> bool {
        matches!(self, EditOutcome::Applied(_))
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

/// The replayable state of a session: everything a solo replay of its
/// commands reproduces, so everything a rollback must restore. The rest
/// of a [`LiveSession`] derives from it (caches) or observes it
/// (instrumentation), and a [`FleetCheckpoint`] is a copy of it — a
/// field added here is checkpointed and restored with the others.
#[derive(Debug, Clone)]
struct SessionState {
    source: String,
    system: System,
    /// Previously applied sources, oldest first (for undo).
    undo_stack: Vec<String>,
    /// Sources undone from (for redo); cleared by a fresh edit.
    redo_stack: Vec<String>,
    /// Contained faults, newest last, bounded.
    faults: FaultLog,
    updates_applied: u64,
    updates_rejected: u64,
    /// Open solo edit transactions, staged source per id.
    pending_txs: BTreeMap<u64, PendingTx>,
    /// Next solo transaction id.
    next_tx: u64,
    /// Candidate repairs offered by the last direct-manipulation
    /// selection, together with the source snapshot they were computed
    /// against (applying one refuses if the source has moved on).
    pending_repairs: Option<crate::repair::PendingRepairs>,
}

/// The pre-transaction state parked on a session between a fleet UPDATE
/// and the transaction's promote/revert decision, plus a journal of the
/// client commands answered while the canary was live (re-applied after
/// the revert, so the session converges to what a solo replay of its
/// full history produces).
#[derive(Debug)]
struct FleetCheckpoint {
    tx: u64,
    state: SessionState,
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
/// ([`SessionCommand::TxOpen`]): the batched source so far.
#[derive(Debug, Clone)]
struct PendingTx {
    staged: String,
    edits: usize,
}

/// The refusal for a transaction id that names no open transaction.
pub(crate) fn no_open_tx(tx: u64) -> String {
    format!("no open transaction tx#{tx}")
}

/// A live programming session: its replayable state (source text,
/// running system, history), the caches derived from that state, its
/// instrumentation, and the pending fleet checkpoint, if any.
#[derive(Debug)]
pub struct LiveSession {
    state: SessionState,
    memo: Option<MemoCache>,
    /// Per-keystroke compiler with an item-granular parse cache.
    compiler: IncrementalCompiler,
    /// The last rendered view, keyed by
    /// [`System::display_generation`]: a read of an unchanged display
    /// is a string clone. Every new generation is laid out and painted
    /// from scratch.
    view: Option<(u64, String)>,
    /// Observability handles, resolved at construction from the
    /// session's registry ([`LiveSession::with_shared_program_observed`]).
    metrics: SessionMetrics,
    /// The registry's clock, which frame timings are taken against.
    clock: Arc<dyn Clock>,
    /// Settle time, and the render memo's `(hits, misses)`, accumulated
    /// by every `refresh` since the last [`LiveSession::live_view`]: a
    /// tap settles inside [`LiveSession::apply`], before the frame is
    /// drawn. A frame records them; a view-memo hit drops them.
    unframed_eval_us: u64,
    unframed_memo: (u64, u64),
    /// Pre-transaction checkpoint while a fleet UPDATE awaits its
    /// promote/revert decision. At most one — a session runs at most one
    /// fleet transaction at a time.
    fleet_checkpoint: Option<FleetCheckpoint>,
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
            state: SessionState {
                source: source.to_string(),
                system: System::with_shared_program(program, config, registry),
                undo_stack: Vec::new(),
                redo_stack: Vec::new(),
                faults: FaultLog::new(),
                updates_applied: 0,
                updates_rejected: 0,
                pending_txs: BTreeMap::new(),
                next_tx: 1,
                pending_repairs: None,
            },
            memo,
            compiler: IncrementalCompiler::new(),
            view: None,
            metrics: SessionMetrics::new(registry),
            clock: registry.clock(),
            unframed_eval_us: 0,
            unframed_memo: (0, 0),
            fleet_checkpoint: None,
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
        &self.state.source
    }

    /// The running system.
    pub fn system(&self) -> &System {
        &self.state.system
    }

    /// Mutable access to the running system (for driving interactions).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.state.system
    }

    /// Number of code updates applied / rejected so far. Quarantined
    /// edits count as rejections: they did not stay applied.
    pub fn update_counts(&self) -> (u64, u64) {
        (self.state.updates_applied, self.state.updates_rejected)
    }

    /// Render-cache statistics, if the cache is enabled.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(MemoCache::stats)
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
    /// Every call evaluates them afresh.
    pub fn examples(&mut self) -> Vec<crate::examples::ExampleProbe> {
        crate::examples::evaluate_examples(&mut self.state.system)
    }

    /// The log of contained faults.
    pub fn fault_log(&self) -> &FaultLog {
        &self.state.faults
    }

    /// A one-line banner describing the latest fault, for display over
    /// the last good view. `None` when no fault has occurred.
    pub fn fault_banner(&self) -> Option<String> {
        self.state.faults.banner()
    }

    /// Run the system until it has nothing left to do, containing every
    /// fault on the way: faulting events are rolled back and dropped
    /// (recorded in the [`FaultLog`]), the display degrades to the last
    /// good tree. This never fails — a session is always settleable.
    pub(crate) fn refresh(&mut self) {
        let start = self.clock.now_us();
        let memo_before = self.memo_stats();
        self.settle();
        self.unframed_eval_us += self.clock.now_us().saturating_sub(start);
        // Nothing resets the memo's counts inside a settle.
        if let (Some(before), Some(after)) = (memo_before, self.memo_stats()) {
            self.unframed_memo.0 += after.hits.saturating_sub(before.hits);
            self.unframed_memo.1 += after.misses.saturating_sub(before.misses);
        }
    }

    fn settle(&mut self) {
        let mut overflowed = false;
        // Each pass ends stable or in one contained fault. The system
        // counts the cascade across passes, so one that refills the
        // queue between faults still overflows.
        loop {
            let hook = self.memo.as_mut().map(|memo| memo as &mut dyn RenderHook);
            let Err(fault) = self.state.system.run_to_stable_with(hook) else {
                return;
            };
            let overflow = fault.kind == FaultKind::CascadeOverflow;
            self.state.faults.record(fault);
            if overflow {
                // Settle on so the containment tail renders; a second
                // overflow means STARTUP restarted the cascade.
                if overflowed {
                    return;
                }
                overflowed = true;
            } else if matches!(self.state.system.display(), Display::Invalid) {
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
    pub(crate) fn edit_source(&mut self, new_source: &str) -> EditOutcome {
        let outcome = self.swap_source(new_source);
        if outcome.is_applied() {
            self.state.redo_stack.clear();
        }
        outcome
    }

    /// Undo the most recent applied edit (with `redo`, redo the most
    /// recently undone one): restore the neighbouring source via a
    /// regular UPDATE transition (the model is fixed up, not rolled
    /// back — undo is an edit like any other, as in the paper's model
    /// where code changes are transitions).
    ///
    /// The outcome says whether a history step happened:
    /// [`UndoOutcome::NothingToUndo`] if the stack was empty, and
    /// [`UndoOutcome::Quarantined`] if the code faulted against the
    /// current model (the session is unchanged in that case).
    pub(crate) fn step_history(&mut self, redo: bool) -> UndoOutcome {
        let outcome = if redo { self.redo() } else { self.undo() };
        self.metrics.record_history(&outcome);
        outcome
    }

    fn undo(&mut self) -> UndoOutcome {
        let Some(previous) = self.state.undo_stack.pop() else {
            return UndoOutcome::NothingToUndo;
        };
        let current = self.state.source.clone();
        match self.swap_source(&previous) {
            EditOutcome::Applied(_) => {
                // swap_source pushed `current` onto undo; it belongs on
                // redo instead.
                self.state.undo_stack.pop();
                self.state.redo_stack.push(current);
                UndoOutcome::Applied
            }
            EditOutcome::Quarantined { fault, .. } => {
                // The session was left as it was; keep the undo entry.
                self.state.undo_stack.push(previous);
                UndoOutcome::Quarantined(Some(Box::new(fault)))
            }
            EditOutcome::Rejected(_) => {
                self.state.undo_stack.push(previous);
                UndoOutcome::Quarantined(None)
            }
        }
    }

    fn redo(&mut self) -> UndoOutcome {
        let Some(next) = self.state.redo_stack.pop() else {
            return UndoOutcome::NothingToUndo;
        };
        match self.swap_source(&next) {
            EditOutcome::Applied(_) => UndoOutcome::Applied,
            EditOutcome::Quarantined { fault, .. } => {
                self.state.redo_stack.push(next);
                UndoOutcome::Quarantined(Some(Box::new(fault)))
            }
            EditOutcome::Rejected(_) => {
                self.state.redo_stack.push(next);
                UndoOutcome::Quarantined(None)
            }
        }
    }

    /// Number of edits that can currently be undone.
    pub fn undo_depth(&self) -> usize {
        self.state.undo_stack.len()
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
                self.state.updates_rejected += 1;
                return EditOutcome::Rejected(diags);
            }
        };
        // UPDATE requires a drained queue; settling also re-renders, so
        // the pre-edit state below is the freshest good state.
        self.refresh();
        // The edit transaction checkpoint: if the new code faults on
        // its first run, the system rolls back to here. Only the system:
        // besides the fault it logs, a quarantined edit changes nothing
        // else but the source, which `install` hands back. (Cloning
        // shares the program `Arc` and the injector, so this is cheap
        // relative to an update, unlike copying the whole history.)
        let checkpoint = self.state.system.clone();
        let (report, old_source, fault) = match self.install(new_source, program) {
            Ok(installed) => installed,
            Err(other) => {
                // After refresh() the queue is drained, so NotStable
                // (or anything else) here is an internal surprise —
                // report it as a rejection rather than dying.
                self.state.updates_rejected += 1;
                let mut diags = Diagnostics::new();
                diags.push(alive_syntax::Diagnostic::error(
                    alive_syntax::Span::DUMMY,
                    format!("update could not be applied: {other}"),
                ));
                return EditOutcome::Rejected(diags);
            }
        };
        if let Some(fault) = fault {
            // The new code faulted the moment it ran (UPDATE wiped the
            // display, so only the new version's init/render executed
            // here). Quarantine the edit: revert the machine and the
            // source, report like a rejection.
            self.state.system = checkpoint;
            self.state.source = old_source;
            self.forget_derived();
            self.state.updates_rejected += 1;
            return EditOutcome::Quarantined { fault, report };
        }
        self.state.undo_stack.push(old_source);
        self.state.updates_applied += 1;
        EditOutcome::Applied(report)
    }

    /// UPDATE the running system to `program`, the compilation of
    /// `new_source`, swap the source in and settle under the new code.
    /// Returns the fix-up report, the replaced source and the fault the
    /// new code raised the moment it ran, if any — what a fault means is
    /// the caller's call. The queue must be drained (refresh first).
    fn install(
        &mut self,
        new_source: &str,
        program: Arc<Program>,
    ) -> Result<(FixupReport, String, Option<Fault>), ActionError> {
        let report = self.state.system.update_shared(program)?;
        if let Some(memo) = self.memo.as_mut() {
            memo.on_update(self.state.system.program(), self.state.system.version());
        }
        let old_source = std::mem::replace(&mut self.state.source, new_source.to_string());
        let faults_before = self.state.faults.total();
        self.refresh();
        let fault = if self.state.faults.total() > faults_before {
            self.state.faults.latest().cloned()
        } else {
            None
        };
        Ok((report, old_source, fault))
    }

    /// Drop every cache derived from the state: the render memo and the
    /// view memo. Every rollback calls it after restoring an older
    /// system, whose version and display generation roll *backward*: a
    /// kept cache could answer a restored key with the rolled-back
    /// code's boxes or frame.
    fn forget_derived(&mut self) {
        if let Some(memo) = self.memo.as_mut() {
            *memo = MemoCache::new(self.state.system.program());
        }
        self.view = None;
    }

    /// Park the candidate repairs from a direct-manipulation selection
    /// (see [`crate::repair`]); replaces any earlier offer.
    pub(crate) fn set_pending_repairs(&mut self, pending: crate::repair::PendingRepairs) {
        self.state.pending_repairs = Some(pending);
    }

    /// The parked repair offer, if any.
    pub(crate) fn pending_repairs(&self) -> Option<&crate::repair::PendingRepairs> {
        self.state.pending_repairs.as_ref()
    }

    /// Withdraw the parked repair offer.
    pub(crate) fn clear_pending_repairs(&mut self) {
        self.state.pending_repairs = None;
    }

    // -----------------------------------------------------------------
    // Edit transactions (solo) — the degenerate single-session form of
    // the host's fleet transaction: batch edits against a staged copy of
    // the source, then commit them as ONE UPDATE transition (atomic: the
    // running program never sees a half-applied batch).
    // -----------------------------------------------------------------

    /// Open an edit transaction: stage a copy of the current source for
    /// batched edits. Returns the transaction id.
    pub(crate) fn tx_open(&mut self) -> u64 {
        let tx = self.state.next_tx;
        self.state.next_tx += 1;
        self.state.pending_txs.insert(
            tx,
            PendingTx {
                staged: self.state.source.clone(),
                edits: 0,
            },
        );
        tx
    }

    /// Stage one batch of span-addressed edits on an open transaction.
    /// Spans address the *staged* text (the result of every batch staged
    /// so far), and the batch applies to it with
    /// [`alive_syntax::apply_edits`]; the running program is untouched
    /// until commit. Returns the total number of edits staged on the
    /// transaction, or the refusal; the staged text is unchanged on
    /// refusal.
    pub(crate) fn tx_edit(&mut self, tx: u64, edits: &[TextEdit]) -> Result<usize, String> {
        let pending = self
            .state
            .pending_txs
            .get_mut(&tx)
            .ok_or_else(|| no_open_tx(tx))?;
        pending.staged = apply_edits(&pending.staged, edits)
            .map_err(|e| format!("bad transaction edit: {e}"))?;
        pending.edits += edits.len();
        Ok(pending.edits)
    }

    /// Commit an open transaction: submit the staged source as one
    /// UPDATE ([`LiveSession::edit_source`] semantics — rejection and
    /// quarantine included). The transaction closes on
    /// [`EditOutcome::Applied`] and [`EditOutcome::Quarantined`] (the
    /// batch was decided); it stays open on [`EditOutcome::Rejected`] so
    /// the client can stage a fix and retry. `None` if no such
    /// transaction is open.
    pub(crate) fn tx_commit(&mut self, tx: u64) -> Option<EditOutcome> {
        let staged = self.state.pending_txs.get(&tx)?.staged.clone();
        let outcome = self.edit_source(&staged);
        if !matches!(outcome, EditOutcome::Rejected(_)) {
            self.state.pending_txs.remove(&tx);
        }
        Some(outcome)
    }

    /// Abort an open transaction, discarding its staged edits. Returns
    /// whether the id named an open transaction.
    pub(crate) fn tx_abort(&mut self, tx: u64) -> bool {
        self.state.pending_txs.remove(&tx).is_some()
    }

    /// Number of edits staged on an open transaction, or `None` if the
    /// id is unknown.
    pub(crate) fn tx_edits(&self, tx: u64) -> Option<usize> {
        self.state.pending_txs.get(&tx).map(|p| p.edits)
    }

    // -----------------------------------------------------------------
    // Fleet UPDATE / revert — the host-driven half of a transaction's
    // canary rollout. `fleet_update` applies a host-compiled program and
    // parks a checkpoint; the host later calls `fleet_promote` (drop the
    // checkpoint) or `fleet_revert` (restore it, state intact).
    // -----------------------------------------------------------------

    /// Apply a host-compiled program as a Fig. 12 UPDATE, parking a
    /// pre-transaction checkpoint for the transaction's promote/revert
    /// decision, and answer whether it applied. The caller vouches that
    /// `program` is the compilation of `new_source` and passed the
    /// typechecker (the host compiled it once for the whole fleet);
    /// `base_source` is the source version the transaction was opened
    /// against. The session is left untouched, answering `false`, if it
    /// has since edited away from that version, if another
    /// transaction's checkpoint is still pending on it, or if the
    /// UPDATE transition refuses.
    ///
    /// Unlike a [`SessionCommand::EditSource`], an immediately-faulting
    /// update is **not** auto-quarantined here: the session keeps
    /// running the new program degraded (banner up, last good view) and
    /// the fault lands in its [`FaultLog`], which the host reads around
    /// the call — whether one canary fault rolls the whole fleet's
    /// transaction back is the host's call, not the session's. Fleet
    /// updates do not touch the undo/redo history: they are deploys,
    /// not local edits.
    pub fn fleet_update(
        &mut self,
        tx: u64,
        base_source: &str,
        new_source: &str,
        program: Arc<Program>,
    ) -> bool {
        if self.fleet_checkpoint.is_some() || self.state.source != base_source {
            return false;
        }
        // UPDATE requires a drained queue; settling also renders, so the
        // checkpoint below is the freshest good pre-transaction state.
        self.refresh();
        let state = self.state.clone();
        if self.install(new_source, program).is_err() {
            return false;
        }
        self.state.updates_applied += 1;
        self.fleet_checkpoint = Some(FleetCheckpoint {
            tx,
            state,
            journal: Vec::new(),
            journal_overflow: false,
        });
        self.metrics.record_fleet_update();
        true
    }

    /// Roll a fleet UPDATE back: restore the parked pre-transaction
    /// state, then re-apply the journal of client commands the session
    /// answered while the canary was live, so the session ends
    /// byte-identical to a solo replay of its full command history under
    /// the old program. Returns `false` (session untouched) if no
    /// checkpoint for `tx` is pending.
    pub fn fleet_revert(&mut self, tx: u64) -> bool {
        let Some(checkpoint) = self.fleet_checkpoint.take_if(|c| c.tx == tx) else {
            return false;
        };
        self.state = checkpoint.state;
        self.forget_derived();
        self.refresh();
        // Replay the mid-canary traffic against the restored program,
        // through `execute`: `apply` counted these commands when the
        // client sent them.
        if !checkpoint.journal_overflow {
            for command in checkpoint.journal {
                let _ = self.execute(command);
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
        if self.fleet_checkpoint.take_if(|c| c.tx == tx).is_none() {
            return false;
        }
        self.metrics.record_fleet_promote();
        true
    }

    /// Book a command [`LiveSession::apply`] is about to run: count it,
    /// and journal it while a fleet checkpoint is pending (the revert
    /// path replays the journal). The journal is bounded: past
    /// `FLEET_JOURNAL_CAPACITY` it stops recording and a revert restores
    /// the bare checkpoint without replay.
    pub(crate) fn admit(&mut self, command: &SessionCommand) {
        self.metrics.record_command();
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
        self.state.system.display().content_shared().cloned()
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
        let memo = std::mem::take(&mut self.unframed_memo);
        let generation = self.state.system.display_generation();
        let Some(root) = self.state.system.display().content() else {
            return match self.state.faults.latest() {
                Some(fault) => format!("(no view: {fault})\n"),
                None => "(no view)\n".to_string(),
            };
        };
        if let Some((drawn, text)) = &self.view {
            if *drawn == generation {
                return text.clone();
            }
        }
        let layout_start = self.clock.now_us();
        let tree = alive_ui::layout(root);
        let paint_start = self.clock.now_us();
        let text = alive_ui::render_to_text(&tree);
        let paint_end = self.clock.now_us();
        self.metrics.record_frame(
            eval_us,
            paint_start.saturating_sub(layout_start),
            paint_end.saturating_sub(paint_start),
            memo,
        );
        self.view = Some((generation, text.clone()));
        text
    }

    /// Settle, deliver one user action (a tap, a text-box edit) to the
    /// system, then settle again. A faulting handler does not error: its
    /// event is dropped, the model kept, the fault logged.
    ///
    /// # Errors
    ///
    /// [`SessionError::Action`] if the action cannot be delivered (no
    /// such box, no handler).
    pub(crate) fn act<T>(
        &mut self,
        action: impl FnOnce(&mut System) -> Result<T, ActionError>,
    ) -> Result<T, SessionError> {
        self.refresh();
        let result = action(&mut self.state.system).map_err(SessionError::Action)?;
        self.refresh();
        Ok(result)
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
    pub(crate) fn back(&mut self) -> Result<(), SessionError> {
        if self.state.system.page_stack().len() <= 1 {
            return Err(SessionError::Action(ActionError::NoPageToPop));
        }
        self.state.system.back();
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
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Compile(ds) => write!(f, "program does not compile:\n{ds}"),
            SessionError::Action(e) => write!(f, "action failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionEffect;
    use alive_core::Value;

    /// Tap the box at `path` through [`LiveSession::apply`], asserting
    /// the session did not refuse it.
    fn tap(s: &mut LiveSession, path: &[usize]) {
        let effects = s.apply(SessionCommand::TapPath(path.to_vec()));
        assert!(
            !effects
                .iter()
                .any(|e| matches!(e, SessionEffect::Refused(_))),
            "tap {path:?} refused: {effects:?}"
        );
    }

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
        let eval_us = |s: &LiveSession| {
            let snapshot = s.metrics_snapshot();
            let h = snapshot.histogram(crate::metrics::names::FRAME_EVAL_US);
            h.map_or((0, 0), |h| (h.count, h.sum))
        };
        s.live_view();
        let (frames, sum) = eval_us(&s);
        tap(&mut s, &[0]);
        assert_eq!(s.live_view(), "count is 11\n");
        // The tap settles before and after delivering the event (the
        // handler and the re-render run there), and the frame it answers
        // with settles once more: the frame's eval time spans all three,
        // not just the last.
        let (frames_after, sum_after) = eval_us(&s);
        assert_eq!(frames_after, frames + 1, "the tap painted one frame");
        assert!(sum_after - sum >= 3 * STEP, "{}", sum_after - sum);
    }

    #[test]
    fn a_frame_command_charges_no_settle_to_the_next_frame() {
        // Every clock read advances STEP µs, and a settle reads the
        // clock twice, so each settle measures exactly STEP.
        const STEP: u64 = 7;
        let registry = Registry::with_clock(alive_obs::ManualClock::with_auto_step(STEP).shared());
        let mut s =
            LiveSession::observed(APP, SystemConfig::default(), false, &registry).expect("starts");
        let eval_us = |s: &LiveSession| {
            let snapshot = s.metrics_snapshot();
            let h = snapshot.histogram(crate::metrics::names::FRAME_EVAL_US);
            h.map_or((0, 0), |h| (h.count, h.sum))
        };
        s.apply(SessionCommand::Frame);
        let (frames, sum) = eval_us(&s);
        tap(&mut s, &[0]);
        // The tap frame's settles: before the event, after it, and the
        // one its frame effect runs. The `Frame` command settled once,
        // for its own frame, and left nothing behind.
        let (frames_after, sum_after) = eval_us(&s);
        assert_eq!(frames_after, frames + 1, "the tap painted one frame");
        assert_eq!(sum_after - sum, 3 * STEP);
    }

    #[test]
    fn live_edit_keeps_model_state() {
        let mut s = LiveSession::new(APP).expect("starts");
        tap(&mut s, &[0]);
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
        tap(&mut s, &[0]); // count = 11
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
        tap(&mut s, &[0]);
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
        tap(&mut s, &[0]); // tap is delivered
        assert_eq!(s.system().store().get("count"), Some(&Value::Number(1.0)));
        assert_eq!(s.live_view(), "count is 1\n");
        assert_eq!(s.fault_log().len(), 1);
        let banner = s.fault_banner().expect("fault logged");
        assert!(banner.contains("handler fault"), "{banner}");
        assert!(banner.contains("list.nth"), "{banner}");
        // Still interactive: tapping again faults again, alive still.
        tap(&mut s, &[0]); // tap is delivered
        assert_eq!(s.fault_log().len(), 2);
        assert_eq!(s.live_view(), "count is 1\n");
    }

    #[test]
    fn text_edits_apply_by_span() {
        let mut s = LiveSession::new(APP).expect("starts");
        let at = s.source().find("10").expect("found") as u32;
        let tx = s.tx_open();
        let edit = TextEdit::replace(alive_syntax::Span::new(at, at + 2), "100");
        s.tx_edit(tx, &[edit]).expect("edits apply");
        assert!(s.tx_commit(tx).expect("open").is_applied());
        tap(&mut s, &[0]);
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
            tap(&mut plain, &[1]);
            tap(&mut memo, &[1]);
            assert_eq!(plain.live_view(), memo.live_view());
        }
        let stats = memo.memo_stats().expect("enabled");
        assert!(stats.hits > 0, "listing rows should be reused: {stats:?}");
    }

    #[test]
    fn undo_redo_are_update_transitions() {
        let mut s = LiveSession::new(APP).expect("starts");
        tap(&mut s, &[0]); // count = 11
        assert_eq!(s.undo_depth(), 0);
        assert!(!s.step_history(false).is_applied(), "nothing to undo yet");

        let v1 = APP.replace("count is", "n =");
        let v2 = APP.replace("count is", "total:");
        assert!(s.edit_source(&v1).is_applied());
        assert!(s.edit_source(&v2).is_applied());
        assert_eq!(s.undo_depth(), 2);
        assert_eq!(s.live_view(), "total: 11\n");

        // Undo restores the previous code; the model stays at 11
        // (undo is just another UPDATE, not time travel).
        assert_eq!(s.step_history(false), UndoOutcome::Applied);
        assert_eq!(s.live_view(), "n = 11\n");
        assert_eq!(s.step_history(false), UndoOutcome::Applied);
        assert_eq!(s.live_view(), "count is 11\n");
        assert_eq!(
            s.step_history(false),
            UndoOutcome::NothingToUndo,
            "stack exhausted"
        );

        // Redo walks forward again.
        assert_eq!(s.step_history(true), UndoOutcome::Applied);
        assert_eq!(s.live_view(), "n = 11\n");
        // A fresh edit clears the redo stack.
        let v3 = s.source().replace("n =", "N:");
        assert!(s.edit_source(&v3).is_applied());
        assert_eq!(s.step_history(true), UndoOutcome::NothingToUndo);
    }

    /// A header that reads `sel`, then 12 listing rows that do not.
    const LISTINGS: &str = r#"
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

    #[test]
    fn frame_stats_show_cross_frame_reuse() {
        let mut s = LiveSession::with_memo(LISTINGS).expect("starts");
        let frames = |s: &LiveSession| {
            s.metrics_snapshot()
                .counter(crate::metrics::names::FRAMES_RENDERED)
        };
        let before = s.live_view();
        // A repeated read of the unchanged display is a view-memo hit:
        // no frame is rendered.
        let rendered = frames(&s);
        let again = s.live_view();
        assert_eq!(before, again);
        assert_eq!(frames(&s), rendered);

        // Steady state: a tap changes one header row; the listing rows
        // are memo splices, so evaluation reuses them.
        tap(&mut s, &[1]);
        let view = s.live_view();
        assert!(view.starts_with("selected 1"), "{view}");
        let stats = s.memo_stats().expect("memo session");
        assert!(stats.hits > 0, "memo splices feed the reuse: {stats:?}");
    }

    #[test]
    fn eval_reuse_pct_samples_each_frame_not_the_running_ratio() {
        let mut s = LiveSession::with_memo(LISTINGS).expect("starts");
        let reuse = |s: &LiveSession| {
            let snapshot = s.metrics_snapshot();
            let h = snapshot.histogram(crate::metrics::names::FRAME_EVAL_REUSE_PCT);
            h.map_or((0, 0), |h| (h.count, h.sum))
        };
        // The first frame evaluated all 13 boxes.
        s.live_view();
        assert_eq!(reuse(&s), (1, 0));
        // The tap frame evaluated the header again and spliced the 12
        // rows: 12 of 13 is 92%, in the 90–100 bucket. The running
        // ratio, 12 of 26 = 46%, would land in the 40–50 bucket.
        tap(&mut s, &[1]);
        assert_eq!(reuse(&s), (2, 92));
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
        tap(&mut s, &[0]);
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
                tap(&mut s, &[0]);
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
    fn hostile_sizes_paint_inside_the_clip() {
        use alive_ui::{MAX_CANVAS_COLS, MAX_CANVAS_ROWS};
        // Before the clip, the first asked for a 40 GB canvas, the
        // second for 20 GB and 2.5·10⁹ cell writes, and the third
        // overflowed `i32` while measuring.
        for attrs in [
            "box.width := 100000; box.height := 100000;",
            "box.font_size := 50000;",
            "box.margin := 2000000000;",
        ] {
            let source = format!("page start() {{ render {{ boxed {{ {attrs} post \"x\"; }} }} }}");
            let mut s = LiveSession::new(&source).expect("starts");
            let started = std::time::Instant::now();
            let effects = s.apply(SessionCommand::Frame);
            let elapsed = started.elapsed();
            let [SessionEffect::Frame(frame)] = &effects[..] else {
                panic!("{attrs}: expected one frame, got {effects:?}");
            };
            assert!(frame.view.lines().count() <= MAX_CANVAS_ROWS, "{attrs}");
            assert!(
                frame
                    .view
                    .lines()
                    .all(|line| line.chars().count() <= MAX_CANVAS_COLS),
                "{attrs}"
            );
            assert!(
                elapsed < std::time::Duration::from_secs(20),
                "{attrs}: the frame took {elapsed:?}"
            );
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
            tap(&mut s, &[0]);
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

    /// A session under a pending fleet UPDATE: `fleet_update` to a
    /// canary of the trace script's program that renders differently.
    fn under_fleet_update(tx: u64) -> LiveSession {
        use crate::trace::tests::APP as BASE;
        let canary = BASE.replace("count is ", "count = ");
        let program = Arc::new(compile(&canary).expect("canary compiles"));
        let mut s = LiveSession::new(BASE).expect("starts");
        assert!(s.fleet_update(tx, BASE, &canary, program));
        s
    }

    #[test]
    fn fleet_revert_replays_every_kind_of_command() {
        use crate::trace::tests::{every_state_changing_command, APP as BASE};
        let mut fleet = under_fleet_update(1);
        let mut solo = LiveSession::new(BASE).expect("starts");
        for command in every_state_changing_command() {
            fleet.apply(command.clone());
            solo.apply(command);
        }
        assert!(fleet.fleet_revert(1));
        // The revert restored the base program and replayed the journal:
        // the session is the one a solo replay of its commands reaches.
        assert_eq!(fleet.live_view(), solo.live_view());
        assert_eq!(fleet.source(), solo.source());
        assert_eq!(fleet.system().store(), solo.system().store());
        assert_eq!(fleet.system().page_stack(), solo.system().page_stack());
        assert_eq!(fleet.undo_depth(), solo.undo_depth());
        assert_eq!(fleet.update_counts(), solo.update_counts());
        assert_eq!(fleet.fault_log().total(), solo.fault_log().total());
    }

    #[test]
    fn fleet_revert_counts_each_client_command_once() {
        let mut fleet = under_fleet_update(1);
        tap(&mut fleet, &[0]);
        tap(&mut fleet, &[0]);
        assert!(fleet.fleet_revert(1));
        // The journal replay is not new client traffic.
        assert_eq!(
            fleet
                .metrics_snapshot()
                .counter(crate::metrics::names::COMMANDS),
            2
        );
    }

    #[test]
    fn fleet_revert_past_the_journal_capacity_restores_without_replay() {
        use crate::trace::tests::APP as BASE;
        let mut fleet = under_fleet_update(1);
        let mut base = LiveSession::new(BASE).expect("starts");
        // One state change, then enough queries to overflow the journal.
        tap(&mut fleet, &[0]);
        for _ in 0..FLEET_JOURNAL_CAPACITY {
            fleet.apply(SessionCommand::Source);
        }
        assert!(fleet.fleet_revert(1));
        // The bare pre-transaction state: the tap was not replayed.
        assert_eq!(fleet.live_view(), base.live_view());
        assert_eq!(fleet.source(), BASE);
        assert_eq!(fleet.system().store(), base.system().store());
        assert_eq!(fleet.system().page_stack(), base.system().page_stack());
        assert_eq!(fleet.undo_depth(), 0);
        assert_eq!(fleet.update_counts(), (0, 0));
        assert_eq!(fleet.fault_log().total(), 0);
    }

    #[test]
    fn fleet_revert_restores_a_repair_offer_parked_before_the_update() {
        use crate::protocol::SessionEffect;
        use crate::trace::tests::APP as BASE;
        let canary = BASE.replace("count is ", "count = ");
        let program = Arc::new(compile(&canary).expect("canary compiles"));
        let mut fleet = LiveSession::new(BASE).expect("starts");
        let mut solo = LiveSession::new(BASE).expect("starts");
        // The offer is parked against the base source, before the update.
        for s in [&mut fleet, &mut solo] {
            let effects = s.apply(SessionCommand::ManipulateAt {
                path: vec![0],
                leaf: 0,
                value: "n = 0".to_string(),
            });
            assert!(
                matches!(effects[..], [SessionEffect::Repairs(_)]),
                "{effects:?}"
            );
        }
        assert!(fleet.fleet_update(1, BASE, &canary, program));
        // The canary's source moved on, so it withdraws the offer; the
        // solo session applies it.
        fleet.apply(SessionCommand::ApplyRepair(0));
        let effects = solo.apply(SessionCommand::ApplyRepair(0));
        assert!(
            matches!(effects[0], SessionEffect::EditApplied(_)),
            "{effects:?}"
        );
        assert!(fleet.fleet_revert(1));
        // The revert restored the offer, so the replayed repair applies.
        assert_eq!(fleet.source(), solo.source());
        assert_eq!(fleet.live_view(), solo.live_view());
    }

    #[test]
    fn memo_cache_cleared_on_update() {
        let mut s = LiveSession::with_memo(APP).expect("starts");
        tap(&mut s, &[0]);
        let outcome = s.edit_source(&APP.replace("count is", "total:"));
        assert!(outcome.is_applied());
        assert_eq!(s.live_view(), "total: 11\n");
    }
}
