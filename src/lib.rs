//! # its-alive
//!
//! A from-scratch Rust reproduction of *"It's Alive! Continuous
//! Feedback in UI Programming"* (Burckhardt et al., PLDI 2013): a live
//! programming system for an imperative UI language in which render
//! code is separated from state-mutating code by a type-and-effect
//! system, so the display can be rebuilt on every code edit without
//! restarting the program.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`syntax`] — lexer, parser, AST, pretty-printer, text edits;
//! * [`core`] — the formal model: type-and-effect system, small-step
//!   and big-step semantics, the system transition relation (STARTUP /
//!   TAP / BACK / THUNK / PUSH / POP / RENDER / UPDATE), state fix-up;
//! * [`ui`] — layout, text rendering, hit-testing;
//! * [`live`] — live sessions, UI↔code navigation, direct
//!   manipulation, render memoization;
//! * [`obs`] — zero-dependency metrics (counters, gauges, latency
//!   histograms, serializable snapshots);
//! * [`baseline`] — edit-compile-run, fix-and-continue, and
//!   retained-MVC baselines;
//! * [`apps`] — demo programs, including the paper's mortgage
//!   calculator.
//!
//! # Quick start
//!
//! ```
//! use its_alive::live::{LiveSession, SessionCommand, SessionEffect};
//!
//! let mut session = LiveSession::new(r#"
//!     global greeting : string = "hello"
//!     page start() {
//!         render { boxed { post greeting ++ ", world"; } }
//!     }
//! "#).expect("compiles");
//! assert_eq!(session.live_view(), "hello, world\n");
//!
//! // Edit the running program; the model survives, the view updates.
//! let edited = session.source().replace(", world", "!");
//! let effects = session.apply(SessionCommand::EditSource(edited));
//! assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
//! assert_eq!(session.live_view(), "hello!\n");
//! ```

#![warn(missing_docs)]

// The README's library sample compiles and runs as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use alive_apps as apps;
pub use alive_baseline as baseline;
pub use alive_core as core;
pub use alive_live as live;
pub use alive_obs as obs;
pub use alive_syntax as syntax;
pub use alive_ui as ui;
