//! Session-level metrics: pre-resolved [`alive_obs`] handles for the
//! live loop around one [`crate::LiveSession`].
//!
//! Where the system's metrics ([`alive_core::metrics`]) count what the
//! transition machine does, the session's measure the developer
//! experience on top of it: edit outcomes, undo/redo outcomes, and the
//! frame pipeline's stage timings and memo reuse ratio — recorded into
//! histograms each time a frame is actually rendered.
//!
//! Both metric bundles resolve from the *same* [`Registry`], so one
//! [`alive_obs::MetricsSnapshot`] describes the whole session — that is
//! what [`crate::SessionCommand::Metrics`] returns over the wire.

use alive_obs::{Counter, Histogram, Registry};

use crate::session::{EditOutcome, UndoOutcome};

/// Metric names recorded by [`crate::LiveSession`]. Public so tests and
/// dashboards reference the same strings the session writes.
pub mod names {
    /// Edits accepted (and kept) as UPDATE transitions.
    pub const EDITS_APPLIED: &str = "session.edits.applied";
    /// Edits rejected by parse/lower/type checks.
    pub const EDITS_REJECTED: &str = "session.edits.rejected";
    /// Edits that type-checked, faulted, and were auto-reverted.
    pub const EDITS_QUARANTINED: &str = "session.edits.quarantined";
    /// Undo/redo steps that applied.
    pub const HISTORY_APPLIED: &str = "session.history.applied";
    /// Undo/redo steps that were quarantined (faulted, reverted).
    pub const HISTORY_QUARANTINED: &str = "session.history.quarantined";
    /// Undo/redo requests with an empty history stack.
    pub const HISTORY_NOOP: &str = "session.history.noop";
    /// Frames actually rendered (view-memo misses).
    pub const FRAMES_RENDERED: &str = "session.frames_rendered";
    /// Protocol commands applied via [`crate::LiveSession::apply`]. A
    /// fleet revert's journal replay is not counted: each client
    /// command counts once.
    pub const COMMANDS: &str = "session.commands";
    /// µs settling the system (evaluation) before each rendered frame.
    pub const FRAME_EVAL_US: &str = "frame.eval_us";
    /// µs in layout per rendered frame.
    pub const FRAME_LAYOUT_US: &str = "frame.layout_us";
    /// µs in paint per rendered frame.
    pub const FRAME_PAINT_US: &str = "frame.paint_us";
    /// Percent of `boxed` evaluations served by the memo per frame.
    pub const FRAME_EVAL_REUSE_PCT: &str = "frame.eval_reuse_pct";
    /// Fleet UPDATEs applied to this session (host-pushed, pre-compiled).
    pub const FLEET_UPDATES: &str = "session.fleet.updates";
    /// Fleet UPDATEs reverted by the host's canary auto-rollback.
    pub const FLEET_REVERTS: &str = "session.fleet.reverts";
    /// Fleet UPDATEs promoted (checkpoint dropped; the version stuck).
    pub const FLEET_PROMOTES: &str = "session.fleet.promotes";
}

/// Bucket bounds for percentage-valued histograms (reuse ratios).
const PCT_BOUNDS: &[u64] = &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

/// Pre-resolved handles for one live session.
#[derive(Debug, Clone)]
pub(crate) struct SessionMetrics {
    registry: Registry,
    edits_applied: Counter,
    edits_rejected: Counter,
    edits_quarantined: Counter,
    history_applied: Counter,
    history_quarantined: Counter,
    history_noop: Counter,
    frames_rendered: Counter,
    commands: Counter,
    fleet_updates: Counter,
    fleet_reverts: Counter,
    fleet_promotes: Counter,
    frame_eval_us: Histogram,
    frame_layout_us: Histogram,
    frame_paint_us: Histogram,
    frame_eval_reuse_pct: Histogram,
}

impl SessionMetrics {
    /// Resolve every handle from `registry` (get-or-create by name).
    pub(crate) fn new(registry: &Registry) -> Self {
        SessionMetrics {
            registry: registry.clone(),
            edits_applied: registry.counter(names::EDITS_APPLIED),
            edits_rejected: registry.counter(names::EDITS_REJECTED),
            edits_quarantined: registry.counter(names::EDITS_QUARANTINED),
            history_applied: registry.counter(names::HISTORY_APPLIED),
            history_quarantined: registry.counter(names::HISTORY_QUARANTINED),
            history_noop: registry.counter(names::HISTORY_NOOP),
            frames_rendered: registry.counter(names::FRAMES_RENDERED),
            commands: registry.counter(names::COMMANDS),
            fleet_updates: registry.counter(names::FLEET_UPDATES),
            fleet_reverts: registry.counter(names::FLEET_REVERTS),
            fleet_promotes: registry.counter(names::FLEET_PROMOTES),
            frame_eval_us: registry.histogram(names::FRAME_EVAL_US),
            frame_layout_us: registry.histogram(names::FRAME_LAYOUT_US),
            frame_paint_us: registry.histogram(names::FRAME_PAINT_US),
            frame_eval_reuse_pct: registry
                .histogram_with_bounds(names::FRAME_EVAL_REUSE_PCT, PCT_BOUNDS),
        }
    }

    /// The registry the handles live in (for snapshots).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Count one edit by its outcome — mirrors the bookkeeping of
    /// [`crate::LiveSession::update_counts`] exactly: `applied` matches
    /// the applied count, `rejected + quarantined` the rejected count.
    pub(crate) fn record_edit(&self, outcome: &EditOutcome) {
        match outcome {
            EditOutcome::Applied(_) => self.edits_applied.inc(),
            EditOutcome::Rejected(_) => self.edits_rejected.inc(),
            EditOutcome::Quarantined { .. } => self.edits_quarantined.inc(),
        }
    }

    /// Count one undo/redo step by its outcome.
    pub(crate) fn record_history(&self, outcome: &UndoOutcome) {
        match outcome {
            UndoOutcome::Applied => self.history_applied.inc(),
            UndoOutcome::NothingToUndo => self.history_noop.inc(),
            UndoOutcome::Quarantined(_) => self.history_quarantined.inc(),
        }
    }

    /// Count one protocol command.
    pub(crate) fn record_command(&self) {
        self.commands.inc();
    }

    /// Count one fleet UPDATE applied to this session.
    pub(crate) fn record_fleet_update(&self) {
        self.fleet_updates.inc();
    }

    /// Count one fleet UPDATE reverted by canary auto-rollback. The
    /// revert replays its journal of client commands without counting
    /// them in `session.commands` again, but the replayed work still
    /// counts in the frame and edit metrics, and nothing the rolled-back
    /// run recorded is taken back: they count what happened, not what
    /// persisted (same semantics as fault rollbacks in the system's
    /// metrics, [`alive_core::metrics`]).
    pub(crate) fn record_fleet_revert(&self) {
        self.fleet_reverts.inc();
    }

    /// Count one fleet UPDATE promoted (its checkpoint dropped).
    pub(crate) fn record_fleet_promote(&self) {
        self.fleet_promotes.inc();
    }

    /// Record one rendered frame: its stage times in µs, and the share
    /// of its `boxed` evaluations that the render memo served, from the
    /// memo's `(hits, misses)` in the settles the frame shows. Called
    /// only when a frame was actually rendered (view-memo hits describe
    /// no new work).
    pub(crate) fn record_frame(
        &self,
        eval_us: u64,
        layout_us: u64,
        paint_us: u64,
        (memo_hits, memo_misses): (u64, u64),
    ) {
        self.frames_rendered.inc();
        self.frame_eval_us.record(eval_us);
        self.frame_layout_us.record(layout_us);
        self.frame_paint_us.record(paint_us);
        // The ratio is only meaningful when the memo did any work.
        let evaluated = memo_hits + memo_misses;
        if evaluated > 0 {
            self.frame_eval_reuse_pct
                .record((memo_hits as f64 / evaluated as f64 * 100.0).round() as u64);
        }
    }
}
