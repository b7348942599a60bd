//! # alive-live
//!
//! The live programming environment of *its-alive* — the Section 3
//! features of the PLDI 2013 paper, built on the formal model in
//! `alive-core`:
//!
//! * **Live editing** ([`session::LiveSession`]): the program keeps
//!   running while the source is edited; accepted edits become UPDATE
//!   transitions, rejected edits leave the old program running.
//! * **UI↔code navigation** ([`navigation`]): tap a box to find its
//!   `boxed` statement; put the cursor in a `boxed` statement to find
//!   all boxes it created (one-to-many under loops), as in Figure 2.
//! * **Direct manipulation & value repairs** ([`repair`]): change a box
//!   attribute — or a rendered *value* — from the live view; the change
//!   is inverted through provenance into ranked candidate code edits.
//! * **Render memoization** ([`memo`]): the §5 optimization that reuses
//!   box subtrees whose inputs have not changed. Layout and paint run
//!   from scratch on every new display; an unchanged display is served
//!   from a generation-keyed view memo. The session records each
//!   painted frame's stage times and memo reuse in its registry
//!   ([`metrics`]).
//! * **Fault containment** ([`fault_log`], [`session`]): runtime faults
//!   degrade the session (last good view + fault banner) instead of
//!   killing it; faulting edits are quarantined and auto-reverted.
//!
//! Every change to a running session — a tap, a back press, a keystroke,
//! an undo — is a [`SessionCommand`] sent to [`LiveSession::apply`],
//! which answers with [`SessionEffect`]s (see [`protocol`]).
//!
//! # Example
//!
//! ```
//! use alive_live::{LiveSession, SessionCommand, SessionEffect};
//!
//! let mut session = LiveSession::new(r#"
//!     global n : number = 0
//!     page start() {
//!         init { n := 41; }
//!         render { boxed { post "n = " ++ n; } }
//!     }
//! "#).expect("program compiles");
//! assert_eq!(session.live_view(), "n = 41\n");
//!
//! // A live edit: the display refreshes, the model (n = 41) survives.
//! let edited = session.source().replace("n = ", "value: ");
//! let effects = session.apply(SessionCommand::EditSource(edited));
//! let [SessionEffect::EditApplied(_), SessionEffect::Frame(frame)] = effects.as_slice() else {
//!     panic!("the edit applies: {effects:?}");
//! };
//! assert_eq!(frame.view, "value: 41\n");
//! ```

#![warn(missing_docs)]
// Fault containment discipline: non-test code must never abort the
// process — failures are typed and contained. Tests may assert freely.
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

pub mod editor;
pub mod examples;
pub mod fault_log;
pub mod memo;
pub mod metrics;
pub mod navigation;
pub mod protocol;
pub mod repair;
pub mod session;
pub mod trace;

pub use editor::{highlight_line, split_view, Selection, SplitViewOptions};
pub use examples::{ExampleProbe, ProbeStatus};
pub use fault_log::{FaultLog, FAULT_LOG_CAPACITY};
pub use memo::{MemoCache, MemoStats};
pub use navigation::{box_source_at, boxes_for_cursor, boxes_for_source, span_for_box};
pub use protocol::{
    format_metrics_snapshot, parse_commands, FrameSnapshot, ProtocolParseError, SessionCommand,
    SessionEffect, TxPhase,
};
pub use repair::{
    attribute_edit, remove_attribute_edit, repairs_for, CandidateRepair, ManipulateError,
    RepairError,
};
// Re-exported so frontends can attach observability without a direct
// alive-obs dependency.
pub use alive_obs::{ManualClock, MetricsSnapshot, Registry};
pub use session::{LiveSession, SessionError, UndoOutcome};
pub use trace::SessionTrace;

// A live session must be able to live behind a host's per-session
// mailbox and be picked up by whichever worker thread drains it next.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<LiveSession>();
};
