//! System-level metrics: pre-resolved [`alive_obs`] handles for the
//! transition machine.
//!
//! The handles are resolved once from a [`Registry`] by the
//! constructor of every [`crate::system::System`]; every transition
//! then records with single relaxed atomic ops on shared cells — no
//! name lookups, no locks on the hot path.
//!
//! Handles are `Arc`-shared across [`Clone`], deliberately: the system
//! is cloned as a *transaction checkpoint* (and a quarantine keeps a
//! checkpoint to restore), and a rolled-back transaction must keep its
//! fault and rollback counts — exactly the semantics of the fault log,
//! which also survives the rollback. Metrics count what *happened*, not
//! what *persisted*.

use std::sync::Arc;

use alive_obs::{Clock, Counter, Gauge, Histogram, Registry};

use crate::fault::FaultKind;
use crate::system::StepKind;

/// Metric names recorded by [`crate::system::System`]. Public so tests
/// and dashboards reference the same strings the machine writes.
pub mod names {
    /// STARTUP transitions performed.
    pub const TRANSITIONS_STARTUP: &str = "system.transitions.startup";
    /// THUNK transitions performed (handler thunks executed).
    pub const TRANSITIONS_THUNK: &str = "system.transitions.thunk";
    /// PUSH transitions performed (page inits run).
    pub const TRANSITIONS_PUSH: &str = "system.transitions.push";
    /// POP transitions performed.
    pub const TRANSITIONS_POP: &str = "system.transitions.pop";
    /// RENDER transitions performed (including hooked renders).
    pub const TRANSITIONS_RENDER: &str = "system.transitions.render";
    /// Successful UPDATE transitions (live code swaps).
    pub const UPDATES: &str = "system.updates";
    /// The subset of [`UPDATES`] applied from a pre-type-checked program
    /// ([`crate::system::System::update_shared`]): every live-session
    /// edit, whose incremental compile already type-checked it, and every
    /// fleet update, compiled once for the whole fleet.
    pub const UPDATES_SHARED: &str = "system.updates.shared";
    /// Transactions rolled back by a contained fault.
    pub const ROLLBACKS: &str = "system.rollbacks";
    /// Contained faults in page init code.
    pub const FAULTS_INIT: &str = "system.faults.init";
    /// Contained faults in handler code.
    pub const FAULTS_HANDLER: &str = "system.faults.handler";
    /// Contained faults in render code.
    pub const FAULTS_RENDER: &str = "system.faults.render";
    /// Contained event-cascade overflows.
    pub const FAULTS_CASCADE_OVERFLOW: &str = "system.faults.cascade_overflow";
    /// Runaway cascades contained (queue dropped, display degraded).
    pub const OVERFLOW_CONTAINMENTS: &str = "system.overflow_containments";
    /// Display reassignments — reconciles exactly with
    /// [`crate::system::System::display_generation`].
    pub const DISPLAY_SETS: &str = "system.display_sets";
    /// Transitions executed on the bytecode VM.
    pub const VM_RUNS: &str = "eval.vm.runs";
    /// VM dispatches that reused the already-compiled bytecode.
    pub const VM_CACHE_HITS: &str = "eval.vm.cache_hits";
    /// Bytecode compiles performed (once per program version).
    pub const VM_COMPILES: &str = "eval.vm.compiles";
    /// Cumulative microseconds spent compiling bytecode.
    pub const VM_COMPILE_US: &str = "eval.vm.compile_us";
    /// Cumulative VM instructions executed. Monotone across any walk —
    /// `alive-obs` invariant tests rely on this.
    pub const VM_INSTRUCTIONS: &str = "eval.vm.instructions";
    /// High-water bytes of the per-frame register arena (gauge,
    /// observe-max).
    pub const VM_ARENA_BYTES: &str = "eval.vm.arena_bytes";
    /// Size of the compiled program's symbol intern table (gauge).
    pub const VM_INTERN_SYMBOLS: &str = "eval.vm.intern_symbols";
    /// Per-run VM instruction counts (histogram).
    pub const VM_RUN_INSTRUCTIONS: &str = "eval.vm.run_instructions";
}

/// Pre-resolved counter handles for one system (shared by its clones).
#[derive(Debug, Clone)]
pub(crate) struct SystemMetrics {
    transitions_startup: Counter,
    transitions_thunk: Counter,
    transitions_push: Counter,
    transitions_pop: Counter,
    transitions_render: Counter,
    updates: Counter,
    updates_shared: Counter,
    rollbacks: Counter,
    faults_init: Counter,
    faults_handler: Counter,
    faults_render: Counter,
    faults_cascade_overflow: Counter,
    overflow_containments: Counter,
    display_sets: Counter,
    vm_runs: Counter,
    vm_cache_hits: Counter,
    vm_compiles: Counter,
    vm_compile_us: Counter,
    vm_instructions: Counter,
    vm_arena_bytes: Gauge,
    vm_intern_symbols: Gauge,
    vm_run_instructions: Histogram,
    /// The registry clock — compile timing flows through it so golden
    /// tests on a [`alive_obs::ManualClock`] stay deterministic.
    clock: Arc<dyn Clock>,
}

impl SystemMetrics {
    /// Resolve every handle from `registry` (get-or-create by name).
    pub(crate) fn new(registry: &Registry) -> Self {
        SystemMetrics {
            transitions_startup: registry.counter(names::TRANSITIONS_STARTUP),
            transitions_thunk: registry.counter(names::TRANSITIONS_THUNK),
            transitions_push: registry.counter(names::TRANSITIONS_PUSH),
            transitions_pop: registry.counter(names::TRANSITIONS_POP),
            transitions_render: registry.counter(names::TRANSITIONS_RENDER),
            updates: registry.counter(names::UPDATES),
            updates_shared: registry.counter(names::UPDATES_SHARED),
            rollbacks: registry.counter(names::ROLLBACKS),
            faults_init: registry.counter(names::FAULTS_INIT),
            faults_handler: registry.counter(names::FAULTS_HANDLER),
            faults_render: registry.counter(names::FAULTS_RENDER),
            faults_cascade_overflow: registry.counter(names::FAULTS_CASCADE_OVERFLOW),
            overflow_containments: registry.counter(names::OVERFLOW_CONTAINMENTS),
            display_sets: registry.counter(names::DISPLAY_SETS),
            vm_runs: registry.counter(names::VM_RUNS),
            vm_cache_hits: registry.counter(names::VM_CACHE_HITS),
            vm_compiles: registry.counter(names::VM_COMPILES),
            vm_compile_us: registry.counter(names::VM_COMPILE_US),
            vm_instructions: registry.counter(names::VM_INSTRUCTIONS),
            vm_arena_bytes: registry.gauge(names::VM_ARENA_BYTES),
            vm_intern_symbols: registry.gauge(names::VM_INTERN_SYMBOLS),
            vm_run_instructions: registry.histogram(names::VM_RUN_INSTRUCTIONS),
            clock: registry.clock(),
        }
    }

    /// Microseconds on the registry clock (deterministic under a
    /// manual clock).
    pub(crate) fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Count one performed transition ([`StepKind::Stable`] is the
    /// absence of a transition and is not counted).
    pub(crate) fn record_transition(&self, kind: StepKind) {
        match kind {
            StepKind::Startup => self.transitions_startup.inc(),
            StepKind::Thunk => self.transitions_thunk.inc(),
            StepKind::Push => self.transitions_push.inc(),
            StepKind::Pop => self.transitions_pop.inc(),
            StepKind::Render => self.transitions_render.inc(),
            StepKind::Stable => {}
        }
    }

    /// Count one contained, rolled-back fault of `kind`.
    pub(crate) fn record_fault(&self, kind: FaultKind) {
        self.rollbacks.inc();
        match kind {
            FaultKind::Init => self.faults_init.inc(),
            FaultKind::Handler => self.faults_handler.inc(),
            FaultKind::Render => self.faults_render.inc(),
            FaultKind::CascadeOverflow => self.faults_cascade_overflow.inc(),
        }
    }

    /// Count one contained cascade overflow (the queue was dropped;
    /// nothing was rolled back, so this is not a rollback).
    pub(crate) fn record_overflow_containment(&self) {
        self.overflow_containments.inc();
        self.faults_cascade_overflow.inc();
    }

    /// Count one successful UPDATE.
    pub(crate) fn record_update(&self) {
        self.updates.inc();
    }

    /// Count one successful UPDATE applied from a shared pre-checked
    /// program (always recorded alongside [`SystemMetrics::record_update`]).
    pub(crate) fn record_shared_update(&self) {
        self.updates_shared.inc();
    }

    /// Count one display reassignment.
    pub(crate) fn record_display_set(&self) {
        self.display_sets.inc();
    }

    /// Record one transition executed on the bytecode VM.
    pub(crate) fn record_vm_run(&self, stats: crate::vm::RunStats) {
        self.vm_runs.inc();
        self.vm_instructions.add(stats.instructions);
        self.vm_run_instructions.record(stats.instructions);
        self.vm_arena_bytes
            .observe_max(i64::try_from(stats.arena_bytes).unwrap_or(i64::MAX));
    }

    /// Record one reuse of already-compiled bytecode.
    pub(crate) fn record_vm_cache_hit(&self) {
        self.vm_cache_hits.inc();
    }

    /// Record one bytecode compile: its wall time and the resulting
    /// intern-table size.
    pub(crate) fn record_vm_compile(&self, compile_us: u64, intern_symbols: usize) {
        self.vm_compiles.inc();
        self.vm_compile_us.add(compile_us);
        self.vm_intern_symbols
            .set(i64::try_from(intern_symbols).unwrap_or(i64::MAX));
    }
}
