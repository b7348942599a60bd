//! # alive-core
//!
//! The core of *its-alive*: a Rust reproduction of the formal model of
//! *"It's Alive! Continuous Feedback in UI Programming"* (PLDI 2013).
//!
//! The crate implements, in direct correspondence with the paper:
//!
//! * Figure 6 — types, values, expressions ([`types`], [`value`], [`expr`]);
//! * Figure 7 — system states `(C, D, S, P, Q)` ([`program`], [`boxtree`],
//!   [`store`], [`event`], [`system`]);
//! * Figure 8 — the three-mode evaluation relations `→p`, `→s`, `→r`
//!   ([`smallstep`] faithfully by substitution, [`bigstep`] efficiently
//!   with environments);
//! * Figure 9 — the global transitions STARTUP, TAP, BACK, THUNK, PUSH,
//!   POP, RENDER, and UPDATE ([`system`]);
//! * Figure 10/11 — the type and effect system and state typing
//!   ([`typeck`], [`state_typing`]);
//! * Figure 12 — the store and page-stack fix-up relations applied on a
//!   code update ([`fixup`]).
//!
//! # Example
//!
//! ```
//! use alive_core::compile;
//! use alive_core::system::System;
//!
//! let program = compile(r#"
//!     global count : number = 0
//!     page start() {
//!         init { count := count + 1; }
//!         render { boxed { post "count is " ++ count; } }
//!     }
//! "#).expect("program compiles");
//! let mut system = System::new(program);
//! system.run_to_stable().expect("reaches a stable state");
//! let display = system.display().content().expect("display is rendered");
//! assert_eq!(display.box_count(), 2);
//! ```

#![warn(missing_docs)]
// Fault containment discipline: non-test code must never abort the
// process — failures are typed (`RuntimeError`, `Fault`, `PersistError`)
// and contained. Tests may assert freely.
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

pub mod attr;
pub mod bigstep;
pub mod boxtree;
pub mod error;
pub mod event;
pub mod expr;
pub mod fault;
pub mod fixup;
pub mod incremental;
pub mod lower;
pub mod metrics;
pub mod persist;
pub mod pretty;
pub mod prim;
pub mod program;
pub mod provenance;
pub mod smallstep;
pub mod state_typing;
pub mod store;
pub mod system;
pub mod typeck;
pub mod types;
pub mod value;
pub mod vm;
pub mod widget;

pub use attr::Attr;
pub use boxtree::{BoxItem, BoxNode, Display};
pub use error::RuntimeError;
pub use event::{Event, EventQueue};
pub use expr::{BoxSourceId, Expr, ExprKind};
pub use fault::{Fault, FaultInjector, FaultKind, TransitionKind};
pub use incremental::IncrementalCompiler;
pub use prim::Prim;
pub use program::{Program, START_PAGE};
pub use provenance::Provenance;
pub use store::Store;
pub use types::{Effect, Name, Type};
pub use value::{Color, Value};
pub use widget::{WidgetKey, WidgetStore};

// Hostability is a compile-time property: the whole object graph behind
// a running system (values, closures, box trees, compiled programs) is
// `Arc`-shared and interior-mutability-free, so sessions can migrate
// across host worker threads. These assertions fail to compile the
// moment an `Rc`/`RefCell` sneaks back in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<system::System>();
    assert_send_sync::<boxtree::Display>();
    assert_send_sync::<program::Program>();
    assert_send_sync::<value::Value>();
    assert_send_sync::<boxtree::BoxNode>();
    assert_send_sync::<fault::Fault>();
};

use alive_syntax::Diagnostics;

/// Compile surface source text into a checked core [`Program`]:
/// parse → lower → type check.
///
/// # Errors
///
/// Returns all diagnostics if any stage reports an error. The rejected
/// program is never partially accepted — a live session keeps running
/// its previous code instead (paper §3).
pub fn compile(src: &str) -> Result<Program, Diagnostics> {
    let parsed = alive_syntax::parse_program(src);
    if parsed.diagnostics.has_errors() {
        return Err(parsed.diagnostics);
    }
    let mut diags = parsed.diagnostics;
    let lowered = lower::lower_program(&parsed.program);
    diags.extend(lowered.diagnostics.clone());
    if diags.has_errors() {
        return Err(diags);
    }
    diags.extend(typeck::check_program(&lowered.program));
    if diags.has_errors() {
        return Err(diags);
    }
    Ok(lowered.program)
}
