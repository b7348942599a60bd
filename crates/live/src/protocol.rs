//! The session command/effect protocol — one total entry point for
//! everything a frontend (or a host) can ask of a [`LiveSession`].
//!
//! The paper's live loop is a conversation: the user acts (tap, back,
//! edit), the machine answers with a frame (or a banner over the last
//! good one). This module reifies that conversation as data:
//!
//! * [`SessionCommand`] — every request a frontend can make, as a plain
//!   serializable value (text wire format, [`SessionCommand::serialize`]
//!   / [`parse_commands`]);
//! * [`SessionEffect`] — every answer the session can give, also
//!   serializable ([`SessionEffect::serialize`]) so hosts can log or
//!   fan effects out to remote observers;
//! * [`LiveSession::apply`] — the single *total* dispatcher: every
//!   command produces effects, never an error. Failures travel inside
//!   [`SessionEffect::Refused`], exactly like faults travel inside
//!   banners.
//!
//! It is the only way to change a session (besides a host's
//! `fleet_*` calls): frontends, hosts, tests and examples all send
//! commands, so a networked host driving sessions over a wire sees
//! byte-identical frames to a local frontend — there is no privileged
//! side channel.

use crate::examples::ExampleProbe;
use crate::repair::CandidateRepair;
use crate::session::{no_open_tx, EditOutcome, LiveSession, UndoOutcome};
use alive_core::boxtree::BoxNode;
use alive_core::fixup::FixupReport;
use alive_core::persist::LoadReport;
use alive_core::Attr;
use alive_core::Fault;
use alive_obs::MetricsSnapshot;
use alive_syntax::{Diagnostics, Span, TextEdit};
use alive_ui::Point;
use std::fmt;
use std::sync::Arc;

/// A request a frontend (or host) makes of a live session.
///
/// Commands are plain data: no callbacks, no references into the
/// session. The text wire format round-trips via
/// [`SessionCommand::serialize`] and [`parse_commands`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionCommand {
    /// Render (settling first) and return the current frame.
    Frame,
    /// Tap the box under a point in layout coordinates.
    TapAt {
        /// Column, 0-based.
        x: i32,
        /// Row, 0-based.
        y: i32,
    },
    /// Tap the box at a child-index path.
    TapPath(Vec<usize>),
    /// Press the back button (pop the current page).
    Back,
    /// Edit a text box in place (fires its `onedit` handler).
    EditBox {
        /// Child-index path to the box.
        path: Vec<usize>,
        /// Replacement text.
        text: String,
    },
    /// Replace the whole source text — one keystroke of the paper's
    /// continuous edit loop.
    EditSource(String),
    /// Undo the most recent applied edit.
    Undo,
    /// Redo the most recently undone edit.
    Redo,
    /// Ask for the current source text.
    Source,
    /// Ask for a [`MetricsSnapshot`] of every metric the session (and
    /// its system) has recorded. Settles first, so the counters
    /// reconcile with the session's observable history (fault log,
    /// update counts, display generation).
    Metrics,
    /// Evaluate the program's Babylonian live examples (settling and
    /// rendering first, so probes see the current model) and return one
    /// probe per `example` item.
    Examples,
    /// Snapshot the model (persistent data) to its text format.
    Snapshot,
    /// Restore a model snapshot against the current code.
    Restore(String),
    /// Open an edit transaction: stage a copy of the current source for
    /// batched edits. Solo sessions answer with the new transaction id;
    /// a host opens a *fleet* transaction against this session's source
    /// version (see `alive-serve`).
    TxOpen,
    /// Stage one batch of span-addressed edits on an open transaction.
    /// Spans address the staged text (the result of every batch staged
    /// so far); the running program is untouched until commit.
    TxEdit {
        /// The open transaction.
        tx: u64,
        /// The batch (simultaneous, non-overlapping — the
        /// [`alive_syntax::apply_edits`] contract).
        edits: Vec<TextEdit>,
    },
    /// Commit an open transaction: compile the staged batch once and
    /// apply it as one atomic UPDATE (fleet-wide, with a canary
    /// rollout, when hosted).
    TxCommit(u64),
    /// Abort an open transaction, discarding its staged edits.
    TxAbort(u64),
    /// Ask an open transaction's status (hosted: also advances a canary
    /// whose observation window has elapsed).
    TxStatus(u64),
    /// Bidirectional manipulation: select the `leaf`-th text leaf of
    /// the box at `path` and ask for its rendered value to become
    /// `value`. Answers with ranked [`SessionEffect::Repairs`] (parked
    /// for [`SessionCommand::ApplyRepair`]), or a refusal. Resolved
    /// against the session's *current* display and source, never cached
    /// spans.
    ManipulateAt {
        /// Child-index path to the box.
        path: Vec<usize>,
        /// Ordinal of the text leaf within the box.
        leaf: usize,
        /// Desired value, textual form (number, `true`/`false`,
        /// `"quoted"` or bare string).
        value: String,
    },
    /// Apply candidate `n` of the pending repair offer as a live edit.
    ApplyRepair(usize),
    /// Direct manipulation of a box attribute: set `attr` of the box at
    /// `path` to the expression `value`, enshrining the change in code
    /// (the paper's margin example) — resolved against the current
    /// display and source at apply time.
    AttrEdit {
        /// Child-index path to the box.
        path: Vec<usize>,
        /// Attribute name (`margin`, `background`, ...); unknown names
        /// are refused, keeping `apply` total.
        attr: String,
        /// Replacement value expression, source form.
        value: String,
    },
}

/// Where an edit transaction stands — the payload of
/// [`SessionEffect::Tx`]. Solo sessions only ever report `Open`,
/// `Promoted` (their single session updated), `RolledBack` (the commit
/// quarantined) and `Aborted`; the canary phase is a fleet notion.
#[derive(Debug, Clone, PartialEq)]
pub enum TxPhase {
    /// Open, accumulating batches.
    Open {
        /// Edits staged so far.
        edits: usize,
    },
    /// Committed and fanned out to the canary slice; the observation
    /// window is running ([`SessionCommand::TxStatus`] advances it).
    Canary {
        /// Sessions updated in the canary slice.
        canary: usize,
        /// Sessions subscribed to the base version in total.
        fleet: usize,
    },
    /// Promoted to the whole fleet.
    Promoted {
        /// Sessions now running the new version.
        updated: usize,
        /// Subscribed sessions skipped (diverged/busy/removed mid-rollout).
        skipped: usize,
    },
    /// Rolled back; every updated session was restored to its
    /// pre-transaction state.
    RolledBack {
        /// Sessions restored from their checkpoints.
        reverted: usize,
        /// Why (the canary fault spike, or the immediate fault).
        reason: String,
    },
    /// Aborted by the client before commit.
    Aborted,
}

/// One settled frame, shareable across observers: the box tree is an
/// [`Arc`] handle and the struct itself is usually passed around inside
/// an `Arc` by hosts — fan-out is refcount bumps, never tree copies.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSnapshot {
    /// The display generation this frame was rendered under; two frames
    /// with equal generations are guaranteed identical.
    pub generation: u64,
    /// The plain-text live view (total: a faulting program yields its
    /// last good view, or a placeholder).
    pub view: String,
    /// The box tree behind the view, when the session has one.
    pub tree: Option<Arc<BoxNode>>,
    /// One-line banner describing the latest contained fault, if any.
    pub banner: Option<String>,
}

/// An answer from the session. Every command yields at least one
/// effect; state-changing commands end with a fresh
/// [`SessionEffect::Frame`] so observers never need a follow-up query.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEffect {
    /// A settled frame (view text, shared tree, fault banner).
    Frame(FrameSnapshot),
    /// A tap was delivered; `hit` says whether a handler ran.
    Tap {
        /// Whether a box with a handler was under the point.
        hit: bool,
    },
    /// The command could not be delivered (no such box, display stale,
    /// malformed snapshot…). The session is unchanged.
    Refused(String),
    /// An edit was applied; the UPDATE transition ran with this fix-up.
    EditApplied(FixupReport),
    /// An edit was rejected (parse/lower/type errors); the old program
    /// keeps running.
    EditRejected(Diagnostics),
    /// An edit type-checked but faulted as soon as it ran and was
    /// auto-reverted.
    EditQuarantined {
        /// The fault the new code produced before being reverted.
        fault: Box<Fault>,
        /// The fix-up report of the rolled-back update.
        report: FixupReport,
    },
    /// Outcome of an [`SessionCommand::Undo`] / [`SessionCommand::Redo`].
    Undo {
        /// `true` for redo, `false` for undo.
        redo: bool,
        /// What the history step did.
        outcome: UndoOutcome,
    },
    /// The current source text.
    Source(String),
    /// A snapshot of every metric the session has recorded.
    Metrics(MetricsSnapshot),
    /// Live-example probes, one per `example` item, in program order.
    /// An empty list means the program declares no examples.
    Examples(Vec<ExampleProbe>),
    /// A model snapshot in its text format.
    Snapshot(String),
    /// A snapshot was restored; entries that no longer type-check were
    /// skipped, with reasons.
    Restored(LoadReport),
    /// Progress of an edit transaction (see [`TxPhase`]).
    Tx {
        /// The transaction.
        tx: u64,
        /// Where it stands.
        phase: TxPhase,
    },
    /// Ranked candidate repairs answering a
    /// [`SessionCommand::ManipulateAt`] selection, best first. The
    /// offer is parked on the session; `ApplyRepair(n)` applies the
    /// `n`-th candidate.
    Repairs(Vec<CandidateRepair>),
    /// Backpressure: the host refused the command because the session's
    /// mailbox is at its high-water capacity. The typed sibling of
    /// [`SessionEffect::Refused`] — remote clients distinguish "try
    /// again later" (this) from "invalid request" (that) without parsing
    /// prose.
    Overloaded {
        /// The mailbox depth at refusal time (the configured capacity).
        depth: u64,
    },
}

impl LiveSession {
    /// Apply one command, returning its effects. **Total**: never
    /// panics, never errors — undeliverable commands come back as
    /// [`SessionEffect::Refused`], bad edits as
    /// [`SessionEffect::EditRejected`] / [`SessionEffect::EditQuarantined`].
    ///
    /// State-changing commands that succeed append a fresh
    /// [`SessionEffect::Frame`], so one round-trip always leaves the
    /// observer with the current view.
    pub fn apply(&mut self, command: SessionCommand) -> Vec<SessionEffect> {
        // Count the command and, while a fleet UPDATE awaits its
        // promote/revert decision, journal it so a revert can replay it
        // against the restored program.
        self.admit(&command);
        self.execute(command)
    }

    /// Run one command [`LiveSession::apply`] admitted. A fleet revert
    /// replays its journal through here, so a replayed command is
    /// neither counted nor journaled a second time.
    pub(crate) fn execute(&mut self, command: SessionCommand) -> Vec<SessionEffect> {
        match command {
            SessionCommand::Frame => vec![SessionEffect::Frame(self.frame_snapshot())],
            SessionCommand::TapAt { x, y } => {
                match self.act(|system| alive_ui::tap_at(system, Point::new(x, y))) {
                    Ok(hit) => vec![
                        SessionEffect::Tap { hit },
                        SessionEffect::Frame(self.frame_snapshot()),
                    ],
                    Err(e) => vec![SessionEffect::Refused(e.to_string())],
                }
            }
            SessionCommand::TapPath(path) => match self.act(|system| system.tap(&path)) {
                Ok(()) => vec![
                    SessionEffect::Tap { hit: true },
                    SessionEffect::Frame(self.frame_snapshot()),
                ],
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            },
            SessionCommand::Back => match self.back() {
                Ok(()) => vec![SessionEffect::Frame(self.frame_snapshot())],
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            },
            SessionCommand::EditBox { path, text } => {
                match self.act(|system| system.edit_box(&path, &text)) {
                    Ok(()) => vec![SessionEffect::Frame(self.frame_snapshot())],
                    Err(e) => vec![SessionEffect::Refused(e.to_string())],
                }
            }
            SessionCommand::EditSource(src) => {
                let outcome = self.edit_source(&src);
                self.edit_outcome_effects(outcome)
            }
            SessionCommand::Undo => self.history_effects(false),
            SessionCommand::Redo => self.history_effects(true),
            SessionCommand::Source => vec![SessionEffect::Source(self.source().to_string())],
            SessionCommand::Metrics => {
                // Settle (containing any pending faults) so the
                // snapshot reconciles with the session's history; no
                // render, so the query doesn't perturb frame metrics.
                self.refresh();
                vec![SessionEffect::Metrics(self.metrics_snapshot())]
            }
            SessionCommand::Examples => {
                // Settle and render first so the probes see the
                // current model.
                self.live_view();
                vec![SessionEffect::Examples(self.examples())]
            }
            SessionCommand::Snapshot => match self.system().snapshot() {
                Ok(snapshot) => vec![SessionEffect::Snapshot(snapshot)],
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            },
            SessionCommand::Restore(snapshot) => match self.system_mut().restore(&snapshot) {
                Ok(report) => vec![
                    SessionEffect::Restored(report),
                    SessionEffect::Frame(self.frame_snapshot()),
                ],
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            },
            SessionCommand::TxOpen => {
                let tx = self.tx_open();
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
                Err(why) => vec![SessionEffect::Refused(why)],
            },
            SessionCommand::TxCommit(tx) => match self.tx_commit(tx) {
                Some(EditOutcome::Applied(report)) => vec![
                    SessionEffect::EditApplied(report),
                    SessionEffect::Tx {
                        tx,
                        phase: TxPhase::Promoted {
                            updated: 1,
                            skipped: 0,
                        },
                    },
                    SessionEffect::Frame(self.frame_snapshot()),
                ],
                // The batch did not compile: the transaction stays open
                // for a fix, exactly like a rejected keystroke.
                Some(EditOutcome::Rejected(diags)) => vec![SessionEffect::EditRejected(diags)],
                Some(EditOutcome::Quarantined { fault, report }) => {
                    let reason = fault.to_string();
                    vec![
                        SessionEffect::EditQuarantined {
                            fault: Box::new(fault),
                            report,
                        },
                        SessionEffect::Tx {
                            tx,
                            phase: TxPhase::RolledBack {
                                reverted: 1,
                                reason,
                            },
                        },
                        SessionEffect::Frame(self.frame_snapshot()),
                    ]
                }
                None => vec![SessionEffect::Refused(no_open_tx(tx))],
            },
            SessionCommand::TxAbort(tx) => {
                if self.tx_abort(tx) {
                    vec![SessionEffect::Tx {
                        tx,
                        phase: TxPhase::Aborted,
                    }]
                } else {
                    vec![SessionEffect::Refused(no_open_tx(tx))]
                }
            }
            SessionCommand::TxStatus(tx) => match self.tx_edits(tx) {
                Some(edits) => vec![SessionEffect::Tx {
                    tx,
                    phase: TxPhase::Open { edits },
                }],
                None => vec![SessionEffect::Refused(no_open_tx(tx))],
            },
            SessionCommand::ManipulateAt { path, leaf, value } => {
                match self.repairs_at(&path, leaf, &value) {
                    Ok(repairs) => vec![SessionEffect::Repairs(repairs)],
                    Err(e) => vec![SessionEffect::Refused(e.to_string())],
                }
            }
            SessionCommand::ApplyRepair(index) => match self.apply_repair(index) {
                Ok(outcome) => self.edit_outcome_effects(outcome),
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            },
            SessionCommand::AttrEdit { path, attr, value } => match Attr::from_name(&attr) {
                None => vec![SessionEffect::Refused(format!(
                    "unknown attribute `{attr}`"
                ))],
                Some(a) => match self.attribute_edit_at(&path, a, &value) {
                    Ok(outcome) => self.edit_outcome_effects(outcome),
                    Err(e) => vec![SessionEffect::Refused(e.to_string())],
                },
            },
        }
    }

    /// The standard effect sequence for an [`EditOutcome`], shared by
    /// every command that ends in a source edit (keystroke, repair,
    /// attribute manipulation).
    fn edit_outcome_effects(&mut self, outcome: EditOutcome) -> Vec<SessionEffect> {
        match outcome {
            EditOutcome::Applied(report) => vec![
                SessionEffect::EditApplied(report),
                SessionEffect::Frame(self.frame_snapshot()),
            ],
            // Rejected edits leave the display untouched: no frame.
            EditOutcome::Rejected(diags) => vec![SessionEffect::EditRejected(diags)],
            EditOutcome::Quarantined { fault, report } => vec![
                SessionEffect::EditQuarantined {
                    fault: Box::new(fault),
                    report,
                },
                SessionEffect::Frame(self.frame_snapshot()),
            ],
        }
    }

    /// Settle and capture the current frame as a shareable snapshot.
    /// The tree comes from the display [`LiveSession::live_view`] just
    /// settled: settling once more would charge a no-op settle to the
    /// next painted frame.
    pub fn frame_snapshot(&mut self) -> FrameSnapshot {
        let view = self.live_view();
        FrameSnapshot {
            generation: self.system().display_generation(),
            tree: self.system().display().content_shared().cloned(),
            banner: self.fault_banner(),
            view,
        }
    }

    fn history_effects(&mut self, redo: bool) -> Vec<SessionEffect> {
        let outcome = self.step_history(redo);
        let applied = outcome.is_applied();
        let mut effects = vec![SessionEffect::Undo { redo, outcome }];
        if applied {
            effects.push(SessionEffect::Frame(self.frame_snapshot()));
        }
        effects
    }
}

/// Render a [`MetricsSnapshot`] in the standard human-readable form
/// shared by frontends (the repl's `:metrics`, the watch footer).
/// Deterministic: `BTreeMap` order, fixed quantiles. An empty snapshot
/// says so.
pub fn format_metrics_snapshot(snapshot: &MetricsSnapshot) -> String {
    if snapshot.is_empty() {
        return "metrics: (none recorded)".to_string();
    }
    let mut out = String::from("metrics snapshot:");
    if !snapshot.counters.is_empty() {
        out.push_str("\n  counters:");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("\n    {name:<32} {value}"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("\n  gauges:");
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("\n    {name:<32} {value}"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("\n  histograms:");
        for (name, h) in &snapshot.histograms {
            let quantile = |q: Option<u64>| match q {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "\n    {name:<32} count={} p50={} p90={} p99={}",
                h.count,
                quantile(h.p50_us()),
                quantile(h.p90_us()),
                quantile(h.p99_us()),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

/// A malformed line in the command wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ProtocolParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProtocolParseError {}

fn push_block(out: &mut String, keyword: &str, text: &str) {
    out.push_str(keyword);
    out.push(' ');
    out.push_str(&text.len().to_string());
    out.push('\n');
    out.push_str(text);
    out.push('\n');
}

impl SessionCommand {
    /// Serialize to the line-oriented wire format: one line per
    /// command, multi-line payloads as length-prefixed blocks. Session
    /// traces ([`crate::SessionTrace`]) are written in this format.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        match self {
            SessionCommand::Frame => out.push_str("frame\n"),
            SessionCommand::TapAt { x, y } => {
                out.push_str(&format!("tap-at {x} {y}\n"));
            }
            SessionCommand::TapPath(path) => {
                out.push_str("tap");
                for p in path {
                    out.push_str(&format!(" {p}"));
                }
                out.push('\n');
            }
            SessionCommand::Back => out.push_str("back\n"),
            SessionCommand::EditBox { path, text } => {
                out.push_str("editbox");
                for p in path {
                    out.push_str(&format!(" {p}"));
                }
                out.push_str(" -- ");
                out.push_str(&escape(text));
                out.push('\n');
            }
            SessionCommand::EditSource(src) => push_block(&mut out, "editsource", src),
            SessionCommand::Undo => out.push_str("undo\n"),
            SessionCommand::Redo => out.push_str("redo\n"),
            SessionCommand::Source => out.push_str("source\n"),
            SessionCommand::Metrics => out.push_str("metrics\n"),
            SessionCommand::Examples => out.push_str("examples\n"),
            SessionCommand::Snapshot => out.push_str("snapshot\n"),
            SessionCommand::Restore(snapshot) => push_block(&mut out, "restore", snapshot),
            SessionCommand::TxOpen => out.push_str("txopen\n"),
            SessionCommand::TxEdit { tx, edits } => {
                // Header line carries the edit count; each edit follows
                // on its own line (`start end -- escaped-replacement`).
                out.push_str(&format!("txedit {tx} {}\n", edits.len()));
                for edit in edits {
                    out.push_str(&format!(
                        "{} {} -- {}\n",
                        edit.span.start,
                        edit.span.end,
                        escape(&edit.replacement)
                    ));
                }
            }
            SessionCommand::TxCommit(tx) => out.push_str(&format!("txcommit {tx}\n")),
            SessionCommand::TxAbort(tx) => out.push_str(&format!("txabort {tx}\n")),
            SessionCommand::TxStatus(tx) => out.push_str(&format!("txstatus {tx}\n")),
            SessionCommand::ManipulateAt { path, leaf, value } => {
                out.push_str("poke");
                for p in path {
                    out.push_str(&format!(" {p}"));
                }
                out.push_str(&format!(" {leaf} -- "));
                out.push_str(&escape(value));
                out.push('\n');
            }
            SessionCommand::ApplyRepair(n) => out.push_str(&format!("repair {n}\n")),
            SessionCommand::AttrEdit { path, attr, value } => {
                out.push_str("attredit");
                for p in path {
                    out.push_str(&format!(" {p}"));
                }
                out.push_str(&format!(" {attr} -- "));
                out.push_str(&escape(value));
                out.push('\n');
            }
        }
        out
    }
}

/// Parse a sequence of commands from the wire format. Blank lines and
/// `#` comment lines between commands are ignored.
///
/// # Errors
///
/// [`ProtocolParseError`] pointing at the malformed line.
pub fn parse_commands(text: &str) -> Result<Vec<SessionCommand>, ProtocolParseError> {
    let mut commands = Vec::new();
    let mut rest = text;
    let mut line_no = 0usize;
    while !rest.is_empty() {
        let (line, after) = match rest.split_once('\n') {
            Some((l, a)) => (l, a),
            None => (rest, ""),
        };
        line_no += 1;
        let err = |message: String| ProtocolParseError {
            line: line_no,
            message,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            rest = after;
            continue;
        }
        let (keyword, args) = match trimmed.split_once(' ') {
            Some((k, a)) => (k, a.trim()),
            None => (trimmed, ""),
        };
        // Length-prefixed block commands consume payload bytes from
        // `after` directly (the payload is raw, not line-structured).
        let take_block = |after: &str| -> Result<(String, usize), ProtocolParseError> {
            let len: usize = args
                .parse()
                .map_err(|_| err(format!("bad length `{args}`")))?;
            if after.len() < len {
                return Err(err(format!(
                    "payload truncated: want {len} bytes, have {}",
                    after.len()
                )));
            }
            if !after.is_char_boundary(len) {
                return Err(err(format!("length {len} splits a UTF-8 character")));
            }
            Ok((after[..len].to_string(), len))
        };
        // Keywords without arguments refuse trailing text rather than
        // silently dropping it.
        let bare = |command: SessionCommand| {
            if args.is_empty() {
                Ok(command)
            } else {
                Err(err(format!("`{keyword}` takes no arguments, got `{args}`")))
            }
        };
        let mut consumed_payload = 0usize;
        let command = match keyword {
            "frame" => bare(SessionCommand::Frame)?,
            "tap-at" => {
                let mut parts = args.split_whitespace();
                let parse_coord = |part: Option<&str>| {
                    part.and_then(|p| p.parse::<i32>().ok())
                        .ok_or_else(|| err(format!("bad coordinates `{args}`")))
                };
                let x = parse_coord(parts.next())?;
                let y = parse_coord(parts.next())?;
                if parts.next().is_some() {
                    return Err(err(format!("trailing arguments in `{args}`")));
                }
                SessionCommand::TapAt { x, y }
            }
            "tap" => SessionCommand::TapPath(parse_usize_path(args).map_err(&err)?),
            "back" => bare(SessionCommand::Back)?,
            "editbox" => {
                let (path_part, text) = args
                    .split_once(" -- ")
                    .ok_or_else(|| err("editbox needs ` -- ` separator".to_string()))?;
                SessionCommand::EditBox {
                    path: parse_usize_path(path_part).map_err(&err)?,
                    text: unescape(text),
                }
            }
            "editsource" => {
                let (payload, len) = take_block(after)?;
                consumed_payload = len;
                SessionCommand::EditSource(payload)
            }
            "undo" => bare(SessionCommand::Undo)?,
            "redo" => bare(SessionCommand::Redo)?,
            "source" => bare(SessionCommand::Source)?,
            "metrics" => bare(SessionCommand::Metrics)?,
            "examples" => bare(SessionCommand::Examples)?,
            "snapshot" => bare(SessionCommand::Snapshot)?,
            "restore" => {
                let (payload, len) = take_block(after)?;
                consumed_payload = len;
                SessionCommand::Restore(payload)
            }
            "txopen" => bare(SessionCommand::TxOpen)?,
            "txedit" => {
                let mut parts = args.split_whitespace();
                let mut next_u64 = |what: &str| {
                    parts
                        .next()
                        .and_then(|p| p.parse::<u64>().ok())
                        .ok_or_else(|| err(format!("bad {what} in `{args}`")))
                };
                let tx = next_u64("transaction id")?;
                let count = usize::try_from(next_u64("edit count")?)
                    .map_err(|_| err(format!("bad edit count in `{args}`")))?;
                let mut edits = Vec::with_capacity(count.min(1024));
                let mut body = after;
                let mut consumed = 0usize;
                for _ in 0..count {
                    let (edit_line, rest_body) = body.split_once('\n').ok_or_else(|| {
                        err(format!("txedit payload truncated: want {count} edits"))
                    })?;
                    let (span_part, text) = edit_line.split_once(" -- ").ok_or_else(|| {
                        err(format!("txedit edit line needs ` -- `: `{edit_line}`"))
                    })?;
                    let mut span_parts = span_part.split_whitespace();
                    let mut coord = |what: &str| {
                        span_parts
                            .next()
                            .and_then(|p| p.parse::<u32>().ok())
                            .ok_or_else(|| err(format!("bad {what} in `{edit_line}`")))
                    };
                    let start = coord("span start")?;
                    let end = coord("span end")?;
                    edits.push(TextEdit {
                        span: Span::new(start, end),
                        replacement: unescape(text),
                    });
                    consumed += edit_line.len() + 1;
                    body = rest_body;
                }
                // Leave the final newline for the generic strip below.
                consumed_payload = consumed.saturating_sub(usize::from(count > 0));
                SessionCommand::TxEdit { tx, edits }
            }
            "poke" => {
                // `poke <path...> <leaf> -- <value>`: the last number
                // before the separator is the leaf ordinal.
                let (head, value) = args
                    .split_once(" -- ")
                    .ok_or_else(|| err("poke needs ` -- ` separator".to_string()))?;
                let mut nums = parse_usize_path(head).map_err(&err)?;
                let leaf = nums
                    .pop()
                    .ok_or_else(|| err("poke needs a leaf ordinal".to_string()))?;
                SessionCommand::ManipulateAt {
                    path: nums,
                    leaf,
                    value: unescape(value),
                }
            }
            "repair" => {
                let n: usize = args
                    .parse()
                    .map_err(|_| err(format!("bad repair index `{args}`")))?;
                SessionCommand::ApplyRepair(n)
            }
            "attredit" => {
                // `attredit <path...> <attr> -- <value>`: the last token
                // before the separator is the attribute name.
                let (head, value) = args
                    .split_once(" -- ")
                    .ok_or_else(|| err("attredit needs ` -- ` separator".to_string()))?;
                let mut tokens: Vec<&str> = head.split_whitespace().collect();
                let attr = tokens
                    .pop()
                    .ok_or_else(|| err("attredit needs an attribute name".to_string()))?;
                let path = parse_usize_path(&tokens.join(" ")).map_err(&err)?;
                SessionCommand::AttrEdit {
                    path,
                    attr: attr.to_string(),
                    value: unescape(value),
                }
            }
            "txcommit" | "txabort" | "txstatus" => {
                let tx: u64 = args
                    .parse()
                    .map_err(|_| err(format!("bad transaction id `{args}`")))?;
                match keyword {
                    "txcommit" => SessionCommand::TxCommit(tx),
                    "txabort" => SessionCommand::TxAbort(tx),
                    _ => SessionCommand::TxStatus(tx),
                }
            }
            other => return Err(err(format!("unknown command `{other}`"))),
        };
        commands.push(command);
        rest = &after[consumed_payload..];
        // A block payload is followed by one newline of its own.
        if consumed_payload > 0 {
            rest = rest.strip_prefix('\n').unwrap_or(rest);
            // Count the payload's lines so later errors still point at
            // the right place.
            line_no += commands
                .last()
                .map(|c| match c {
                    SessionCommand::EditSource(s) | SessionCommand::Restore(s) => {
                        s.matches('\n').count() + 1
                    }
                    SessionCommand::TxEdit { edits, .. } => edits.len(),
                    _ => 0,
                })
                .unwrap_or(0);
        }
    }
    Ok(commands)
}

fn parse_usize_path(args: &str) -> Result<Vec<usize>, String> {
    args.split_whitespace()
        .map(|p| p.parse().map_err(|_| format!("bad path element `{p}`")))
        .collect()
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl SessionEffect {
    /// Serialize to a line-oriented text form — the host→observer half
    /// of the wire. One-way by design: effects carry rendered payloads
    /// (views, banners, reports), so observers need no session of their
    /// own to display them.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        match self {
            SessionEffect::Frame(frame) => {
                out.push_str(&format!("frame generation={}", frame.generation));
                if frame.banner.is_some() {
                    out.push_str(" degraded");
                }
                out.push('\n');
                if let Some(banner) = &frame.banner {
                    out.push_str(&format!("banner {}\n", banner.replace('\n', " ")));
                }
                push_block(&mut out, "view", &frame.view);
            }
            SessionEffect::Tap { hit } => {
                out.push_str(if *hit { "tap hit\n" } else { "tap miss\n" });
            }
            SessionEffect::Refused(why) => {
                out.push_str(&format!("refused {}\n", why.replace('\n', " ")));
            }
            SessionEffect::EditApplied(report) => {
                out.push_str("edit applied");
                if report.dropped_anything() {
                    out.push_str(&format!(
                        " dropped-globals={} dropped-pages={}",
                        report.dropped_globals.len(),
                        report.dropped_pages.len()
                    ));
                }
                out.push('\n');
            }
            SessionEffect::EditRejected(diags) => {
                out.push_str(&format!("edit rejected\n{diags}"));
            }
            SessionEffect::EditQuarantined { fault, .. } => {
                out.push_str(&format!("edit quarantined {fault}\n"));
            }
            SessionEffect::Undo { redo, outcome } => {
                let op = if *redo { "redo" } else { "undo" };
                match outcome {
                    UndoOutcome::Applied => out.push_str(&format!("{op} applied\n")),
                    UndoOutcome::NothingToUndo => out.push_str(&format!("{op} empty\n")),
                    UndoOutcome::Quarantined(_) => {
                        out.push_str(&format!("{op} quarantined\n"));
                    }
                }
            }
            SessionEffect::Source(src) => push_block(&mut out, "sourcetext", src),
            SessionEffect::Metrics(snapshot) => {
                // The payload is the snapshot's own wire form, carried
                // as a length-prefixed block like views and sources —
                // `MetricsSnapshot::parse_wire` recovers it losslessly.
                push_block(&mut out, "metrics", &snapshot.to_wire());
            }
            SessionEffect::Examples(probes) => {
                out.push_str(&format!("examples count={}\n", probes.len()));
                for probe in probes {
                    out.push_str(&format!("example {}\n", escape(&probe.render_line())));
                }
            }
            SessionEffect::Snapshot(snapshot) => push_block(&mut out, "snapshot", snapshot),
            SessionEffect::Restored(report) => {
                out.push_str(&format!("restored skipped={}\n", report.skipped.len()));
            }
            SessionEffect::Tx { tx, phase } => match phase {
                TxPhase::Open { edits } => {
                    out.push_str(&format!("tx {tx} open edits={edits}\n"));
                }
                TxPhase::Canary { canary, fleet } => {
                    out.push_str(&format!("tx {tx} canary {canary}/{fleet}\n"));
                }
                TxPhase::Promoted { updated, skipped } => {
                    out.push_str(&format!(
                        "tx {tx} promoted updated={updated} skipped={skipped}\n"
                    ));
                }
                TxPhase::RolledBack { reverted, reason } => {
                    out.push_str(&format!(
                        "tx {tx} rolledback reverted={reverted} -- {}\n",
                        reason.replace('\n', " ")
                    ));
                }
                TxPhase::Aborted => out.push_str(&format!("tx {tx} aborted\n")),
            },
            SessionEffect::Repairs(repairs) => {
                out.push_str(&format!("repairs count={}\n", repairs.len()));
                for (i, r) in repairs.iter().enumerate() {
                    out.push_str(&format!(
                        "repair {i} rank={} {}..{} -- {} -- {}\n",
                        r.rank,
                        r.edit.span.start,
                        r.edit.span.end,
                        escape(&r.edit.replacement),
                        r.description.replace('\n', " ")
                    ));
                }
            }
            SessionEffect::Overloaded { depth } => {
                out.push_str(&format!("overloaded depth={depth}\n"));
            }
        }
        out
    }
}

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
    fn apply_is_total_over_every_command() {
        let mut s = LiveSession::new(APP).expect("starts");
        let commands = vec![
            SessionCommand::Frame,
            SessionCommand::TapPath(vec![0]),
            SessionCommand::TapPath(vec![9, 9]), // no such box
            SessionCommand::TapAt { x: 1, y: 0 },
            SessionCommand::TapAt { x: 500, y: 500 },
            SessionCommand::Back, // root page: refused
            SessionCommand::EditBox {
                path: vec![0],
                text: "x".to_string(),
            }, // label: no onedit — refused
            SessionCommand::EditSource(APP.replace("count is", "n =")),
            SessionCommand::EditSource("not a program".to_string()),
            SessionCommand::Undo,
            SessionCommand::Undo, // history exhausted
            SessionCommand::Redo,
            SessionCommand::Source,
            SessionCommand::Metrics,
            SessionCommand::Examples,
            SessionCommand::Snapshot,
            SessionCommand::Restore("#alive-store v1\n".to_string()),
            SessionCommand::Restore("garbage".to_string()),
            SessionCommand::TxOpen,
            SessionCommand::TxEdit {
                tx: 1,
                edits: vec![TextEdit::insert(0, "# staged\n")],
            },
            SessionCommand::TxEdit {
                tx: 99,
                edits: vec![],
            }, // unknown tx
            SessionCommand::TxStatus(1),
            SessionCommand::TxCommit(1),
            SessionCommand::TxCommit(1), // already committed
            SessionCommand::TxAbort(7),  // unknown tx
            SessionCommand::ManipulateAt {
                path: vec![0],
                leaf: 0,
                value: "99".to_string(),
            },
            SessionCommand::ManipulateAt {
                path: vec![9, 9],
                leaf: 0,
                value: "99".to_string(),
            }, // no such box
            SessionCommand::ApplyRepair(99), // out of range
            SessionCommand::ApplyRepair(0),
            SessionCommand::ApplyRepair(0), // offer consumed or absent
            SessionCommand::AttrEdit {
                path: vec![0],
                attr: "margin".to_string(),
                value: "2".to_string(),
            },
            SessionCommand::AttrEdit {
                path: vec![0],
                attr: "wobble".to_string(),
                value: "2".to_string(),
            }, // unknown attribute
        ];
        for command in commands {
            let effects = s.apply(command.clone());
            assert!(!effects.is_empty(), "no effects for {command:?}");
        }
    }

    #[test]
    fn frame_effect_matches_direct_calls() {
        let mut s = LiveSession::new(APP).expect("starts");
        let direct_view = s.live_view();
        let effects = s.apply(SessionCommand::Frame);
        let [SessionEffect::Frame(frame)] = effects.as_slice() else {
            panic!("expected one frame effect, got {effects:?}");
        };
        assert_eq!(frame.view, direct_view);
        assert!(frame.banner.is_none());
        let tree = frame.tree.as_ref().expect("renderable");
        assert!(Arc::ptr_eq(tree, &s.display_tree().expect("tree")));
    }

    #[test]
    fn tap_effects_end_with_the_new_frame() {
        let mut s = LiveSession::new(APP).expect("starts");
        let effects = s.apply(SessionCommand::TapPath(vec![0]));
        assert!(matches!(effects[0], SessionEffect::Tap { hit: true }));
        let SessionEffect::Frame(frame) = &effects[1] else {
            panic!("expected frame, got {:?}", effects[1]);
        };
        assert_eq!(frame.view, "count is 11\n");
    }

    #[test]
    fn refused_commands_leave_the_session_unchanged() {
        let mut s = LiveSession::new(APP).expect("starts");
        let before = s.live_view();
        let generation = s.system().display_generation();
        for effects in [
            s.apply(SessionCommand::TapPath(vec![42])),
            s.apply(SessionCommand::Back),
            s.apply(SessionCommand::EditSource("nope".to_string())),
        ] {
            assert!(matches!(
                effects[0],
                SessionEffect::Refused(_) | SessionEffect::EditRejected(_)
            ));
            assert_eq!(effects.len(), 1, "no frame on refusal: {effects:?}");
        }
        assert_eq!(s.live_view(), before);
        assert_eq!(s.system().display_generation(), generation);
    }

    #[test]
    fn undo_roundtrip_through_effects() {
        let mut s = LiveSession::new(APP).expect("starts");
        // Nothing to undo yet.
        let effects = s.apply(SessionCommand::Undo);
        assert_eq!(
            effects,
            vec![SessionEffect::Undo {
                redo: false,
                outcome: UndoOutcome::NothingToUndo
            }]
        );
        // Apply an edit, then undo it through the protocol.
        let edited = APP.replace("count is", "n =");
        let effects = s.apply(SessionCommand::EditSource(edited));
        assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
        let effects = s.apply(SessionCommand::Undo);
        assert!(matches!(
            effects[0],
            SessionEffect::Undo {
                redo: false,
                outcome: UndoOutcome::Applied
            }
        ));
        let SessionEffect::Frame(frame) = &effects[1] else {
            panic!("undo that applied must re-frame");
        };
        assert!(frame.view.starts_with("count is"));
    }

    #[test]
    fn command_wire_format_round_trips() {
        let commands = vec![
            SessionCommand::Frame,
            SessionCommand::TapAt { x: 3, y: 7 },
            SessionCommand::TapPath(vec![1, 0, 2]),
            SessionCommand::Back,
            SessionCommand::EditBox {
                path: vec![2, 1],
                text: "two\nlines \\ with a backslash".to_string(),
            },
            SessionCommand::EditSource("page start() {\n    render { }\n}\n".to_string()),
            SessionCommand::Undo,
            SessionCommand::Redo,
            SessionCommand::Source,
            SessionCommand::Metrics,
            SessionCommand::Examples,
            SessionCommand::Snapshot,
            SessionCommand::Restore("#alive-store v1\nnum count 3\n".to_string()),
            SessionCommand::TxOpen,
            SessionCommand::TxEdit {
                tx: 3,
                edits: vec![
                    TextEdit::replace(Span::new(4, 9), "two\nlines \\ and a backslash"),
                    TextEdit::insert(0, "lead"),
                    TextEdit::delete(Span::new(12, 14)),
                ],
            },
            SessionCommand::TxEdit {
                tx: 4,
                edits: vec![],
            },
            SessionCommand::TxStatus(3),
            SessionCommand::TxCommit(3),
            SessionCommand::TxAbort(4),
            SessionCommand::ManipulateAt {
                path: vec![1, 0],
                leaf: 2,
                value: "two\nlines".to_string(),
            },
            SessionCommand::ManipulateAt {
                path: vec![],
                leaf: 0,
                value: "root leaf".to_string(),
            },
            SessionCommand::ApplyRepair(1),
            SessionCommand::AttrEdit {
                path: vec![0, 2],
                attr: "margin".to_string(),
                value: "base + 2".to_string(),
            },
            SessionCommand::AttrEdit {
                path: vec![],
                attr: "background".to_string(),
                value: "colors.light_blue".to_string(),
            },
        ];
        let wire: String = commands.iter().map(SessionCommand::serialize).collect();
        let parsed = parse_commands(&wire).expect("parses");
        assert_eq!(parsed, commands);
    }

    #[test]
    fn parse_reports_malformed_lines() {
        assert!(parse_commands("warble\n").is_err());
        assert!(parse_commands("tap-at 1\n").is_err());
        assert!(parse_commands("tap one two\n").is_err());
        assert!(parse_commands("editsource 999\nshort\n").is_err());
        assert!(parse_commands("editbox 0 no separator\n").is_err());
        assert!(parse_commands("txedit nope 1\n").is_err());
        assert!(parse_commands("txedit 1 2\n0 1 -- x\n").is_err()); // truncated
        assert!(parse_commands("txedit 1 1\nno separator\n").is_err());
        assert!(parse_commands("txcommit many\n").is_err());
        assert!(parse_commands("poke 0 1\n").is_err()); // no separator
        assert!(parse_commands("poke a 0 -- x\n").is_err()); // bad path
        assert!(parse_commands("poke -- x\n").is_err()); // no leaf ordinal
        assert!(parse_commands("repair many\n").is_err());
        assert!(parse_commands("attredit 0 margin 4\n").is_err()); // no separator
        assert!(parse_commands("attredit q margin -- 4\n").is_err()); // bad path
        for keyword in [
            "frame", "back", "undo", "redo", "source", "metrics", "examples", "snapshot", "txopen",
        ] {
            // Trailing arguments are refused, never silently dropped.
            let err = parse_commands(&format!("{keyword} 3\n")).expect_err(keyword);
            assert!(err.message.contains(keyword), "{err}");
        }
        // Comments and blank lines are fine.
        let parsed = parse_commands("# a comment\n\nframe\n").expect("parses");
        assert_eq!(parsed, vec![SessionCommand::Frame]);
    }

    #[test]
    fn effects_serialize_without_panicking() {
        let mut s = LiveSession::new(APP).expect("starts");
        for command in [
            SessionCommand::Frame,
            SessionCommand::TapPath(vec![0]),
            SessionCommand::Back,
            SessionCommand::EditSource("bad".to_string()),
            SessionCommand::Undo,
            SessionCommand::Examples,
            SessionCommand::Snapshot,
            SessionCommand::TxOpen,
            SessionCommand::TxStatus(1),
            SessionCommand::TxAbort(1),
            SessionCommand::ManipulateAt {
                path: vec![0],
                leaf: 0,
                value: "n = 1".to_string(),
            },
            SessionCommand::ApplyRepair(99),
            SessionCommand::AttrEdit {
                path: vec![0],
                attr: "margin".to_string(),
                value: "3".to_string(),
            },
        ] {
            for effect in s.apply(command) {
                assert!(!effect.serialize().is_empty());
            }
        }
        // Repairs have a stable line-per-candidate wire form.
        let wire = SessionEffect::Repairs(vec![CandidateRepair {
            rank: 1,
            edit: TextEdit::replace(Span::new(4, 9), "\"a\nb\""),
            description: "change the string".to_string(),
        }])
        .serialize();
        assert_eq!(
            wire,
            "repairs count=1\nrepair 0 rank=1 4..9 -- \"a\\nb\" -- change the string\n"
        );
        // The typed backpressure and fleet-phase effects have stable
        // one-line wire forms.
        assert_eq!(
            SessionEffect::Overloaded { depth: 1024 }.serialize(),
            "overloaded depth=1024\n"
        );
        assert_eq!(
            SessionEffect::Tx {
                tx: 5,
                phase: TxPhase::Canary {
                    canary: 10,
                    fleet: 100
                }
            }
            .serialize(),
            "tx 5 canary 10/100\n"
        );
        assert_eq!(
            SessionEffect::Tx {
                tx: 5,
                phase: TxPhase::RolledBack {
                    reverted: 10,
                    reason: "fault\nspike".to_string()
                }
            }
            .serialize(),
            "tx 5 rolledback reverted=10 -- fault spike\n"
        );
    }

    #[test]
    fn examples_probe_the_live_model_through_the_protocol() {
        let app = format!(
            "{APP}example count = count\nexample doubled = count * 2 expect count + count\n"
        );
        let mut s = LiveSession::new(&app).expect("starts");
        // init ran: count = 1. Probes see the live model, not the
        // initializer.
        let effects = s.apply(SessionCommand::Examples);
        let [SessionEffect::Examples(probes)] = effects.as_slice() else {
            panic!("expected examples, got {effects:?}");
        };
        assert_eq!(probes.len(), 2);
        assert_eq!(probes[0].render_line(), "count = 1");
        assert_eq!(probes[1].render_line(), "doubled = 2 ok");
        let wire = SessionEffect::Examples(probes.clone()).serialize();
        assert_eq!(
            wire,
            "examples count=2\nexample count = 1\nexample doubled = 2 ok\n"
        );
        // A tap mutates the model; the probes follow continuously.
        s.apply(SessionCommand::TapPath(vec![0])); // count = 11
        let effects = s.apply(SessionCommand::Examples);
        let [SessionEffect::Examples(probes)] = effects.as_slice() else {
            panic!("expected examples, got {effects:?}");
        };
        assert_eq!(probes[0].render_line(), "count = 11");
        assert_eq!(probes[1].render_line(), "doubled = 22 ok");
        // A program with no examples answers with an empty (but
        // present) effect, never a refusal.
        let mut bare = LiveSession::new(APP).expect("starts");
        let effects = bare.apply(SessionCommand::Examples);
        assert_eq!(effects, vec![SessionEffect::Examples(Vec::new())]);
    }

    #[test]
    fn manipulate_then_repair_through_the_protocol() {
        let mut s = LiveSession::new(APP).expect("starts");
        // count = 1 after init; the label renders "count is 1". Select
        // it and ask for "n = 1".
        let effects = s.apply(SessionCommand::ManipulateAt {
            path: vec![0],
            leaf: 0,
            value: "n = 1".to_string(),
        });
        let [SessionEffect::Repairs(repairs)] = effects.as_slice() else {
            panic!("expected repairs, got {effects:?}");
        };
        // Best first: rank 1 rewrites the string-literal head of the
        // concatenation; rank 2 is the whole-expression fallback.
        assert!(repairs.len() >= 2, "{repairs:?}");
        assert_eq!(repairs[0].rank, 1);
        assert!(
            repairs[0].description.contains("change the string"),
            "{:?}",
            repairs[0]
        );
        assert_eq!(repairs.last().expect("fallback").rank, 2);
        let effects = s.apply(SessionCommand::ApplyRepair(0));
        assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
        let SessionEffect::Frame(frame) = &effects[1] else {
            panic!("applied repair must re-frame");
        };
        // The repair re-renders to exactly the requested value, and the
        // change is enshrined in code.
        assert_eq!(frame.view, "n = 1\n");
        assert!(s.source().contains(r#""n = " ++ count"#), "{}", s.source());
        // The offer was consumed with the applied edit.
        let effects = s.apply(SessionCommand::ApplyRepair(0));
        assert!(matches!(effects[0], SessionEffect::Refused(_)));
    }

    #[test]
    fn stale_repair_offers_are_refused_after_a_source_edit() {
        let mut s = LiveSession::new(APP).expect("starts");
        let effects = s.apply(SessionCommand::ManipulateAt {
            path: vec![0],
            leaf: 0,
            value: "n = 1".to_string(),
        });
        assert!(matches!(effects[0], SessionEffect::Repairs(_)));
        // The source moves on between selection and application: the
        // parked candidates address dead spans and must not fire.
        let edited = s.source().replace("count is", "total is");
        s.apply(SessionCommand::EditSource(edited));
        let effects = s.apply(SessionCommand::ApplyRepair(0));
        assert!(matches!(effects[0], SessionEffect::Refused(_)));
        assert_eq!(s.live_view(), "total is 1\n");
        // A fresh selection against the new source works again.
        let effects = s.apply(SessionCommand::ManipulateAt {
            path: vec![0],
            leaf: 0,
            value: "n = 1".to_string(),
        });
        assert!(matches!(effects[0], SessionEffect::Repairs(_)));
    }

    #[test]
    fn attredit_through_the_protocol_survives_source_drift() {
        let mut s = LiveSession::new(APP).expect("starts");
        // Shift every span first (a comment up top), then manipulate by
        // path: the command resolves against the *current* source.
        let edited = format!("// drifted\n{}", s.source());
        s.apply(SessionCommand::EditSource(edited));
        let effects = s.apply(SessionCommand::AttrEdit {
            path: vec![0],
            attr: "margin".to_string(),
            value: "2".to_string(),
        });
        assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
        let SessionEffect::Frame(frame) = &effects[1] else {
            panic!("applied attredit must re-frame");
        };
        // Margin 2 indents the label (and pads above it).
        assert!(frame.view.ends_with("  count is 1\n"), "{:?}", frame.view);
        assert!(s.source().contains("box.margin := 2;"));
    }

    #[test]
    fn solo_transactions_commit_atomically() {
        let mut s = LiveSession::new(APP).expect("starts");
        s.apply(SessionCommand::TapPath(vec![0])); // count = 11
        let effects = s.apply(SessionCommand::TxOpen);
        let [SessionEffect::Tx {
            tx,
            phase: TxPhase::Open { edits: 0 },
        }] = effects.as_slice()
        else {
            panic!("expected an open effect, got {effects:?}");
        };
        let tx = *tx;
        let at = APP.find("count is").expect("label") as u32;
        let effects = s.apply(SessionCommand::TxEdit {
            tx,
            edits: vec![TextEdit::replace(Span::new(at, at + 8), "n =")],
        });
        assert!(matches!(
            effects[0],
            SessionEffect::Tx {
                phase: TxPhase::Open { edits: 1 },
                ..
            }
        ));
        // Staging does not touch the running program.
        assert_eq!(s.live_view(), "count is 11\n");
        let effects = s.apply(SessionCommand::TxCommit(tx));
        assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
        assert!(matches!(
            effects[1],
            SessionEffect::Tx {
                phase: TxPhase::Promoted {
                    updated: 1,
                    skipped: 0
                },
                ..
            }
        ));
        assert_eq!(s.live_view(), "n = 11\n");
        // The transaction closed with its commit.
        let effects = s.apply(SessionCommand::TxCommit(tx));
        assert!(matches!(effects[0], SessionEffect::Refused(_)));
    }

    #[test]
    fn solo_transaction_commit_that_faults_rolls_back() {
        let mut s = LiveSession::new(APP).expect("starts");
        s.apply(SessionCommand::TapPath(vec![0])); // count = 11
        let effects = s.apply(SessionCommand::TxOpen);
        let [SessionEffect::Tx { tx, .. }] = effects.as_slice() else {
            panic!("expected an open effect");
        };
        let tx = *tx;
        let stmt = "post \"count is \" ++ count;";
        let at = APP.find(stmt).expect("render stmt") as u32;
        let effects = s.apply(SessionCommand::TxEdit {
            tx,
            edits: vec![TextEdit::replace(
                Span::new(at, at + stmt.len() as u32),
                "while true { count; } post \"never\";",
            )],
        });
        assert!(matches!(effects[0], SessionEffect::Tx { .. }));
        let effects = s.apply(SessionCommand::TxCommit(tx));
        assert!(matches!(effects[0], SessionEffect::EditQuarantined { .. }));
        assert!(matches!(
            effects[1],
            SessionEffect::Tx {
                phase: TxPhase::RolledBack { reverted: 1, .. },
                ..
            }
        ));
        // Byte-identical to the pre-transaction state, model intact.
        assert_eq!(s.live_view(), "count is 11\n");
        assert!(s.source().contains(stmt));
    }

    #[test]
    fn rejected_commit_keeps_the_transaction_open() {
        let mut s = LiveSession::new(APP).expect("starts");
        let effects = s.apply(SessionCommand::TxOpen);
        let [SessionEffect::Tx { tx, .. }] = effects.as_slice() else {
            panic!("expected an open effect");
        };
        let tx = *tx;
        // Stage a batch that will not compile.
        let end = APP.len() as u32;
        s.apply(SessionCommand::TxEdit {
            tx,
            edits: vec![TextEdit::replace(Span::new(0, end), "not a program")],
        });
        let effects = s.apply(SessionCommand::TxCommit(tx));
        assert!(matches!(effects[0], SessionEffect::EditRejected(_)));
        // Still open: a fixing batch can be staged and committed.
        let effects = s.apply(SessionCommand::TxStatus(tx));
        assert!(matches!(
            effects[0],
            SessionEffect::Tx {
                phase: TxPhase::Open { edits: 1 },
                ..
            }
        ));
        s.apply(SessionCommand::TxEdit {
            tx,
            edits: vec![TextEdit::replace(
                Span::new(0, "not a program".len() as u32),
                APP.replace("count is", "n ="),
            )],
        });
        let effects = s.apply(SessionCommand::TxCommit(tx));
        assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
        assert_eq!(s.live_view(), "n = 1\n");
    }
}
