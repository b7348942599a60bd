//! The system model — the paper's Figure 9.
//!
//! A [`System`] is the state tuple `σ = (C, D, S, P, Q)` plus the global
//! transition relation `→g`:
//!
//! * **STARTUP** — empty page stack enqueues `[push start ()]`;
//! * **TAP** / **BACK** — user actions enqueue `[exec v]` / `[pop]` and
//!   invalidate the display;
//! * **THUNK** / **PUSH** / **POP** — event handling runs state code;
//! * **RENDER** — an invalid display is rebuilt from the top page's
//!   render body;
//! * **UPDATE** — new code replaces old, the store and page stack are
//!   fixed up (Fig. 12), and the display is invalidated.
//!
//! The system is *live*: in any unstable state some transition is
//! enabled, and in a stable state it waits for user actions or code
//! updates (§4.2).

use crate::attr::Attr;
use crate::bigstep::{self, Cost, DEFAULT_FUEL};
use crate::boxtree::{BoxNode, Display};
use crate::error::RuntimeError;
use crate::event::{Event, EventQueue};
use crate::fault::{Fault, FaultInjector, FaultKind, TransitionKind};
use crate::fixup::{fixup_pages, fixup_store, FixupReport};
use crate::metrics::SystemMetrics;
use crate::program::{Program, START_PAGE};
use crate::store::Store;
use crate::types::Name;
use crate::value::Value;
use alive_obs::Registry;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which transition a [`System::step`] performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// STARTUP — enqueued `[push start ()]`.
    Startup,
    /// THUNK — executed a handler thunk.
    Thunk,
    /// PUSH — ran a page's init body and pushed it.
    Push,
    /// POP — popped the current page (or did nothing on empty).
    Pop,
    /// RENDER — rebuilt the display.
    Render,
    /// No transition is enabled: the state is stable.
    Stable,
}

/// Errors surfaced by user-action entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionError {
    /// The display is stale (`⊥`); TAP's premise `[ontap = v] ∈ B` fails.
    DisplayInvalid,
    /// No box exists at the given path.
    NoSuchBox(Vec<usize>),
    /// The box at the path has no handler for this interaction.
    NoHandler(Attr),
    /// BACK was requested with no page to pop (already at the root).
    NoPageToPop,
    /// UPDATE requires a stable state.
    NotStable,
    /// The new program failed its checks (`C' ⊢ C'` does not hold).
    IllTyped(alive_syntax::Diagnostics),
}

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionError::DisplayInvalid => f.write_str("display is invalid (⊥)"),
            ActionError::NoSuchBox(p) => write!(f, "no box at path {p:?}"),
            ActionError::NoHandler(a) => write!(f, "box has no `{a}` handler"),
            ActionError::NoPageToPop => f.write_str("no page to pop (already at the root)"),
            ActionError::NotStable => f.write_str("code updates require a drained event queue"),
            ActionError::IllTyped(ds) => write!(f, "new code is ill-typed:\n{ds}"),
        }
    }
}

impl std::error::Error for ActionError {}

/// Which engine evaluates INIT/HANDLER/RENDER transitions and live
/// examples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EvalEngine {
    /// The register-based bytecode VM ([`crate::vm`]) — the production
    /// engine and the default. It is the only engine such a system runs:
    /// a program beyond the VM's limits faults every transition with
    /// [`RuntimeError::VmLimit`] instead of switching engines, and an
    /// entry the compiled program lacks (a handler closure from another
    /// program version) faults its transition with
    /// [`RuntimeError::Internal`].
    #[default]
    Vm,
    /// The bigstep tree walker only ([`crate::bigstep`]) — the
    /// reference engine the VM is differentially tested against.
    Bigstep,
}

/// Configuration of a [`System`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Step budget per transition (models divergence detection).
    pub fuel: u64,
    /// Safety bound on the transitions one input sets off, counted
    /// across the faults contained along the way: a longer event
    /// cascade is reported as divergence by [`System::run_to_stable`].
    pub max_transitions: u64,
    /// Which evaluation engine runs transitions.
    pub engine: EvalEngine,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            fuel: DEFAULT_FUEL,
            max_transitions: 10_000,
            engine: EvalEngine::Vm,
        }
    }
}

/// Cumulative bytecode-VM accounting for one system, read through
/// [`System::vm_stats`]. The system's `SystemMetrics` records the
/// `eval.vm.*` metrics from the same events, and the metrics invariant
/// suite reconciles the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Transitions executed on the VM.
    pub runs: u64,
    /// VM dispatches that reused already-compiled bytecode.
    pub cache_hits: u64,
    /// Bytecode compiles performed (once per program version; shared
    /// program `Arc`s share the compile across a whole fleet).
    pub compiles: u64,
    /// Cumulative microseconds spent compiling bytecode.
    pub compile_us: u64,
    /// Cumulative VM instructions executed.
    pub instructions: u64,
    /// High-water bytes of the per-frame register arena.
    pub arena_bytes: u64,
}

/// The system state `σ = (C, D, S, P, Q)` with its transitions.
#[derive(Debug, Clone)]
pub struct System {
    program: Arc<Program>,
    display: Display,
    store: Store,
    page_stack: Vec<(Name, Value)>,
    queue: EventQueue,
    config: SystemConfig,
    /// View-state slots (`remember`), cleared by UPDATE.
    widgets: crate::widget::WidgetStore,
    /// Incremented by every UPDATE; stamped into closures.
    version: u64,
    /// Accumulated cost over the system's lifetime.
    cost: Cost,
    /// Bumped every time `display` is reassigned (even to `⊥`), so
    /// downstream caches can key rendered output on it.
    display_generation: u64,
    /// The most recent successfully rendered box tree, kept so a
    /// faulting transition can leave *something* on screen
    /// ([`Display::Stale`]). Cleared by UPDATE (no stale code). Shared:
    /// degrading the display is a refcount bump, not a tree copy.
    last_good: Option<Arc<BoxNode>>,
    /// Deterministic fault injection, when a harness installed one.
    /// Shared (not deep-cloned) across [`Clone`], so a cloned system
    /// advances the same injection schedule. Mutex-guarded so a system
    /// (and its sessions) can move across host worker threads.
    injector: Option<Arc<Mutex<dyn FaultInjector>>>,
    /// Observability handles, resolved at construction. Shared (not
    /// forked) across [`Clone`] — a rolled-back transaction keeps its
    /// fault counts, exactly like the fault log keeps its entries.
    metrics: SystemMetrics,
    /// Pooled VM register/arena storage, reused across transitions.
    /// Clones start with a fresh pool (capacity is a cache, not state).
    scratch: crate::vm::Scratch,
    /// Cumulative VM accounting (runs, compiles, instructions, …).
    vm_stats: VmStats,
    /// Transitions performed since the last input (tap, edit, back,
    /// update, restore) or contained overflow — the cascade
    /// [`SystemConfig::max_transitions`] bounds.
    cascade: u64,
}

/// Lock an injector, recovering from poisoning: injector state is a
/// monotone counter bundle, so a poisoned lock is still usable and the
/// no-panic discipline of this crate forbids propagating the poison.
fn lock_injector<'a>(
    injector: &'a Mutex<dyn FaultInjector + 'static>,
) -> MutexGuard<'a, dyn FaultInjector + 'static> {
    injector.lock().unwrap_or_else(PoisonError::into_inner)
}

impl System {
    /// Create the initial system state `(C, ⊥, ε, ε, ε)`.
    pub fn new(program: Program) -> Self {
        System::with_config(program, SystemConfig::default())
    }

    /// Create a system with explicit configuration.
    pub fn with_config(program: Program, config: SystemConfig) -> Self {
        System::with_shared_program(Arc::new(program), config, &Registry::new())
    }

    /// Create a system around an already-compiled shared program,
    /// recording into `registry`. Hosts compile each source version once
    /// and hand every session the same `Arc` — parse, lower, and
    /// typecheck run once per version, not once per session. The metric
    /// handles exist before the first transition, so
    /// `system.display_sets` reconciles exactly with
    /// [`System::display_generation`].
    pub fn with_shared_program(
        program: Arc<Program>,
        config: SystemConfig,
        registry: &Registry,
    ) -> Self {
        System {
            program,
            display: Display::Invalid,
            store: Store::new(),
            page_stack: Vec::new(),
            queue: EventQueue::new(),
            config,
            widgets: crate::widget::WidgetStore::new(),
            version: 0,
            cost: Cost::default(),
            display_generation: 0,
            last_good: None,
            injector: None,
            metrics: SystemMetrics::new(registry),
            scratch: crate::vm::Scratch::new(),
            vm_stats: VmStats::default(),
            cascade: 0,
        }
    }

    /// Install a deterministic [`FaultInjector`] consulted before every
    /// transition and primitive application. Pass-through by default
    /// (no injector).
    pub fn set_fault_injector(&mut self, injector: Arc<Mutex<dyn FaultInjector>>) {
        self.injector = Some(injector);
    }

    /// Remove any installed fault injector.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Count one performed transition toward the current cascade and
    /// in the metrics.
    fn record_transition(&mut self, kind: StepKind) {
        self.cascade += 1;
        self.metrics.record_transition(kind);
    }

    /// The configuration this system runs under.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Cumulative bytecode-VM accounting (runs, compile and instruction
    /// counts) for this system.
    pub fn vm_stats(&self) -> VmStats {
        self.vm_stats
    }

    /// The compiled bytecode for the current program, or the
    /// [`RuntimeError::VmLimit`] the calling transition faults with when
    /// the program exceeds what the VM compiles. `None` on the
    /// [`EvalEngine::Bigstep`] engine. Books the compile or cache hit it
    /// observes.
    fn vm_program(&mut self) -> Option<Result<Arc<crate::vm::VmProgram>, RuntimeError>> {
        if self.config.engine != EvalEngine::Vm {
            return None;
        }
        let cached = self.program.vm_ready();
        let started_us = if cached { 0 } else { self.metrics.now_us() };
        let vmp = match self.program.try_vm() {
            Ok(vmp) => vmp,
            Err(limit) => return Some(Err(RuntimeError::VmLimit(limit))),
        };
        if cached {
            self.vm_stats.cache_hits += 1;
            self.metrics.record_vm_cache_hit();
        } else {
            self.vm_stats.compiles += 1;
            // Timed on the registry clock, so golden tests on a manual
            // clock stay deterministic.
            let compile_us = self.metrics.now_us().saturating_sub(started_us);
            self.vm_stats.compile_us += compile_us;
            self.metrics
                .record_vm_compile(compile_us, vmp.symbol_count());
        }
        Some(Ok(vmp))
    }

    /// Book one VM transition and unpack its outcome. An entry the
    /// compiled program lacks, which checked programs never produce,
    /// comes back as a runtime error, contained like any other.
    fn book_vm_run<T>(&mut self, run: crate::vm::VmRun<T>) -> (Result<T, RuntimeError>, Cost) {
        let stats = run.stats;
        self.vm_stats.runs += 1;
        self.vm_stats.instructions += stats.instructions;
        if stats.arena_bytes > self.vm_stats.arena_bytes {
            self.vm_stats.arena_bytes = stats.arena_bytes;
        }
        self.metrics.record_vm_run(stats);
        (run.result, run.cost)
    }

    /// The current code `C`.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current code as its shared handle — lets hosts verify (and
    /// reuse) program sharing across sessions via `Arc::ptr_eq`.
    pub fn program_shared(&self) -> &Arc<Program> {
        &self.program
    }

    /// The current display `D`.
    pub fn display(&self) -> &Display {
        &self.display
    }

    /// A counter bumped every time the display is reassigned — including
    /// invalidations and degradations, not just successful renders. Two
    /// reads under the same generation are guaranteed to see the same
    /// [`Display`], so a rendered string (or layout) cached against this
    /// number can be reused without inspecting the tree.
    pub fn display_generation(&self) -> u64 {
        self.display_generation
    }

    /// The single write path for `display`: every reassignment bumps the
    /// generation so [`System::display_generation`] never lies.
    fn set_display(&mut self, display: Display) {
        self.display = display;
        self.display_generation = self.display_generation.wrapping_add(1);
        self.metrics.record_display_set();
    }

    /// The store `S` (the model).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The page stack `P`, bottom first.
    pub fn page_stack(&self) -> &[(Name, Value)] {
        &self.page_stack
    }

    /// The event queue `Q`.
    pub fn queue(&self) -> &EventQueue {
        &self.queue
    }

    /// The `remember` view-state slots.
    pub fn widgets(&self) -> &crate::widget::WidgetStore {
        &self.widgets
    }

    /// The UPDATE counter (how many code swaps have happened).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total accumulated cost (steps, boxes, simulated latency).
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Fold external cost into this system's counter — used by harness
    /// code that replaces a system but accounts for a whole session
    /// (e.g. the restart baseline carrying cost across restarts).
    pub fn add_external_cost(&mut self, cost: Cost) {
        self.cost.absorb(cost);
    }

    /// The page currently on top of the stack.
    pub fn current_page(&self) -> Option<(&str, &Value)> {
        self.page_stack.last().map(|(n, v)| (&**n, v))
    }

    /// A state is *stable* iff the event queue is empty, the page stack
    /// is non-empty, and the display shows content — the system is
    /// waiting for the user.
    ///
    /// (The paper defines stability as "queue empty ∧ stack non-empty";
    /// rendering is the only transition left from such a state, so we
    /// fold it in: `run_to_stable` always leaves a displayable tree. A
    /// [`Display::Stale`] last-good tree counts: the machine is degraded
    /// by a contained fault but still alive and waiting.)
    pub fn is_stable(&self) -> bool {
        self.queue.is_empty() && !self.page_stack.is_empty() && self.display.content().is_some()
    }

    /// The fuel budget for the next transition of `kind`, consulting
    /// the installed [`FaultInjector`] if any.
    fn transition_fuel(&mut self, kind: TransitionKind) -> u64 {
        match &self.injector {
            Some(injector) => lock_injector(injector).fuel_for(kind, self.config.fuel),
            None => self.config.fuel,
        }
    }

    /// Build a [`Fault`] record for a failed transition.
    fn fault(
        &self,
        kind: FaultKind,
        page: Option<Name>,
        error: RuntimeError,
        cost: Cost,
        fuel_limit: u64,
    ) -> Fault {
        self.metrics.record_fault(kind);
        Fault {
            kind,
            page,
            error,
            fuel_spent: cost.steps,
            fuel_limit,
            version: self.version,
        }
    }

    /// After a rolled-back transition: show the last good tree (tagged
    /// stale), or `⊥` if nothing was ever rendered.
    fn degrade_display(&mut self) {
        let degraded = match &self.last_good {
            Some(tree) => Display::Stale(Arc::clone(tree)),
            None => Display::Invalid,
        };
        self.set_display(degraded);
    }

    /// Perform one enabled transition of `→g`, in the deterministic
    /// order: STARTUP, event handling, RENDER.
    ///
    /// Every transition is *transactional*: the mutable state it may
    /// touch (store, page stack, queue, `remember` slots) is
    /// snapshotted first and restored on error, so a fault can never
    /// leave the machine half-mutated. The faulting event is dropped
    /// (its effects rolled back) and the display falls back to the last
    /// good tree, tagged [`Display::Stale`].
    ///
    /// # Errors
    ///
    /// A structured [`Fault`] when user code fails (divergence via
    /// fuel, partial primitives). The machine survives: state is as it
    /// was before the transition and further transitions stay enabled.
    pub fn step(&mut self) -> Result<StepKind, Fault> {
        self.step_with(None)
    }

    /// [`System::step`], with a RENDER evaluated through `hook`.
    fn step_with(
        &mut self,
        hook: Option<&mut (dyn bigstep::RenderHook + '_)>,
    ) -> Result<StepKind, Fault> {
        // (STARTUP)
        if self.page_stack.is_empty() && self.queue.is_empty() {
            self.set_display(Display::Invalid);
            self.queue
                .enqueue(Event::Push(Arc::from(START_PAGE), Value::unit()));
            self.record_transition(StepKind::Startup);
            return Ok(StepKind::Startup);
        }
        // (THUNK) / (PUSH) / (POP)
        if let Some(event) = self.queue.dequeue() {
            self.set_display(Display::Invalid);
            // The transaction checkpoint: everything an event transition
            // may mutate, snapshotted *after* the event was consumed —
            // rollback drops the faulting event and all its effects.
            let checkpoint = (
                self.store.clone(),
                self.page_stack.clone(),
                self.queue.clone(),
                self.widgets.clone(),
            );
            let (kind, page, result, cost, fuel) = match event {
                Event::Exec(thunk, args) => {
                    let fuel = self.transition_fuel(TransitionKind::Handler);
                    let injector = self.injector.clone();
                    let mut guard = injector.as_deref().map(lock_injector);
                    let faults = guard.as_deref_mut().map(|g| g as &mut dyn FaultInjector);
                    let (result, cost) = match self.vm_program() {
                        Some(Ok(vmp)) => {
                            let run = crate::vm::transition_thunk(
                                &vmp,
                                &mut self.scratch,
                                &mut self.store,
                                &mut self.queue,
                                self.version,
                                fuel,
                                &thunk,
                                &args,
                                Some(&mut self.widgets),
                                faults,
                            );
                            self.book_vm_run(run)
                        }
                        Some(Err(limit)) => (Err(limit), Cost::default()),
                        None => bigstep::transition_thunk(
                            &self.program,
                            &mut self.store,
                            &mut self.queue,
                            self.version,
                            fuel,
                            &thunk,
                            args,
                            Some(&mut self.widgets),
                            faults,
                        ),
                    };
                    let page = self.page_stack.last().map(|(n, _)| n.clone());
                    (StepKind::Thunk, page, result.map(|_| ()), cost, fuel)
                }
                Event::Push(page_name, arg) => {
                    let fuel = self.transition_fuel(TransitionKind::Init);
                    let prepared = self
                        .program
                        .page(&page_name)
                        .map(|page| (bind_page_params(page, &arg), page.init.clone()));
                    let outcome = match prepared {
                        None => (
                            Err(RuntimeError::UnknownPage(page_name.clone())),
                            Cost::default(),
                        ),
                        Some((bindings, init)) => {
                            let injector = self.injector.clone();
                            let mut guard = injector.as_deref().map(lock_injector);
                            let faults = guard.as_deref_mut().map(|g| g as &mut dyn FaultInjector);
                            match self.vm_program() {
                                Some(Ok(vmp)) => {
                                    let run = crate::vm::transition_page_init(
                                        &vmp,
                                        &mut self.scratch,
                                        &mut self.store,
                                        &mut self.queue,
                                        self.version,
                                        fuel,
                                        &page_name,
                                        &bindings,
                                        Some(&mut self.widgets),
                                        faults,
                                    );
                                    self.book_vm_run(run)
                                }
                                Some(Err(limit)) => (Err(limit), Cost::default()),
                                None => bigstep::transition_state(
                                    &self.program,
                                    &mut self.store,
                                    &mut self.queue,
                                    self.version,
                                    fuel,
                                    bindings,
                                    &init,
                                    Some(&mut self.widgets),
                                    faults,
                                ),
                            }
                        }
                    };
                    let (result, cost) = outcome;
                    if result.is_ok() {
                        self.page_stack.push((page_name.clone(), arg));
                    }
                    (
                        StepKind::Push,
                        Some(page_name),
                        result.map(|_| ()),
                        cost,
                        fuel,
                    )
                }
                Event::Pop => {
                    // (POP): pops the top page, or does nothing if empty.
                    self.page_stack.pop();
                    self.record_transition(StepKind::Pop);
                    return Ok(StepKind::Pop);
                }
            };
            self.cost.absorb(cost);
            return match result {
                Ok(_) => {
                    self.record_transition(kind);
                    Ok(kind)
                }
                Err(error) => {
                    // Roll the transaction back: the event is dropped,
                    // every side effect (store writes, enqueued events,
                    // pushed pages, widget writes) is undone.
                    let (store, page_stack, queue, widgets) = checkpoint;
                    self.store = store;
                    self.page_stack = page_stack;
                    self.queue = queue;
                    self.widgets = widgets;
                    self.degrade_display();
                    let fault_kind = match kind {
                        StepKind::Push => FaultKind::Init,
                        _ => FaultKind::Handler,
                    };
                    Err(self.fault(fault_kind, page, error, cost, fuel))
                }
            };
        }
        // (RENDER) — only from `⊥`; a stale last-good tree stays until
        // something invalidates the display again.
        if matches!(self.display, Display::Invalid) {
            if let Some((page_name, _)) = self.page_stack.last() {
                let page_name = page_name.clone();
                return match self.render_transition(hook) {
                    Ok(()) => {
                        self.record_transition(StepKind::Render);
                        Ok(StepKind::Render)
                    }
                    Err((error, cost, fuel)) => {
                        self.degrade_display();
                        Err(self.fault(FaultKind::Render, Some(page_name), error, cost, fuel))
                    }
                };
            }
        }
        Ok(StepKind::Stable)
    }

    /// The RENDER transition body of [`System::step`] (and so of
    /// [`System::render_with_hook`]). On success the display is valid
    /// and `last_good` updated; on error the `remember` slots are
    /// rolled back and the error returned with the cost it burned (the
    /// display is left untouched for the caller to degrade).
    fn render_transition(
        &mut self,
        mut hook: Option<&mut (dyn bigstep::RenderHook + '_)>,
    ) -> Result<(), (RuntimeError, Cost, u64)> {
        let Some((page_name, arg)) = self.page_stack.last().cloned() else {
            return Err((
                RuntimeError::Internal("RENDER with an empty page stack"),
                Cost::default(),
                0,
            ));
        };
        if let Some(hook) = hook.as_deref_mut() {
            hook.begin_render(&self.store, self.version);
        }
        let fuel = self.transition_fuel(TransitionKind::Render);
        let Some(page) = self.program.page(&page_name) else {
            return Err((RuntimeError::UnknownPage(page_name), Cost::default(), fuel));
        };
        let bindings = bind_page_params(page, &arg);
        let render = page.render.clone();
        // RENDER's transaction checkpoint: render code cannot touch the
        // store, stack, or queue (enforced by mode and borrows), so only
        // the `remember` slots need snapshotting.
        let widgets_checkpoint = self.widgets.clone();
        self.widgets.begin_render();
        let injector = self.injector.clone();
        let mut guard = injector.as_deref().map(lock_injector);
        let faults = guard.as_deref_mut().map(|g| g as &mut dyn FaultInjector);
        let (result, cost) = match self.vm_program() {
            Some(Ok(vmp)) => {
                let run = crate::vm::transition_page_render(
                    &vmp,
                    &mut self.scratch,
                    &self.store,
                    self.version,
                    fuel,
                    &page_name,
                    &bindings,
                    hook,
                    Some(&mut self.widgets),
                    faults,
                );
                self.book_vm_run(run)
            }
            Some(Err(limit)) => (Err(limit), Cost::default()),
            None => bigstep::transition_render(
                &self.program,
                &self.store,
                self.version,
                fuel,
                bindings,
                &render,
                hook,
                Some(&mut self.widgets),
                faults,
            ),
        };
        drop(guard);
        self.cost.absorb(cost);
        match result {
            Ok(root) => {
                let root = Arc::new(root);
                self.last_good = Some(Arc::clone(&root));
                self.set_display(Display::Valid(root));
                Ok(())
            }
            Err(error) => {
                self.widgets = widgets_checkpoint;
                Err((error, cost, fuel))
            }
        }
    }

    /// Run transitions until the system is stable. Returns the kinds of
    /// transitions performed.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] from a transition, or — if the event cascade
    /// exceeds [`SystemConfig::max_transitions`] (e.g. pages that push
    /// pages forever) — a [`FaultKind::CascadeOverflow`] fault. The
    /// cascade is counted from the last input, not per call: a caller
    /// that settles on after each contained fault still meets the
    /// bound. On overflow the runaway queue is dropped so the machine
    /// stays usable: the next `run_to_stable` renders whatever the
    /// stack holds.
    pub fn run_to_stable(&mut self) -> Result<Vec<StepKind>, Fault> {
        self.run_to_stable_with(None)
    }

    /// [`System::run_to_stable`], with every RENDER evaluated through
    /// `hook` (the §5 reuse cache), which is told of each one first via
    /// [`bigstep::RenderHook::begin_render`].
    ///
    /// # Errors
    ///
    /// See [`System::run_to_stable`].
    pub fn run_to_stable_with(
        &mut self,
        mut hook: Option<&mut (dyn bigstep::RenderHook + '_)>,
    ) -> Result<Vec<StepKind>, Fault> {
        let mut kinds = Vec::new();
        while self.cascade < self.config.max_transitions {
            let kind = self.step_with(hook.as_deref_mut())?;
            if kind == StepKind::Stable {
                return Ok(kinds);
            }
            kinds.push(kind);
        }
        // Cascade overflow: contain it like any other fault — drop the
        // runaway events and fall back to the last good tree.
        Err(self.contain_overflow())
    }

    /// Contain a runaway event cascade: drop the queue, degrade the
    /// display to the last good tree, and return the structured
    /// [`FaultKind::CascadeOverflow`] fault. Used by
    /// [`System::run_to_stable`] when its transition budget runs out,
    /// and by external drivers (e.g. a memoizing render loop) that
    /// enforce the same bound while stepping the system themselves.
    pub fn contain_overflow(&mut self) -> Fault {
        self.queue.clear();
        self.cascade = 0;
        self.degrade_display();
        self.metrics.record_overflow_containment();
        let page = self.page_stack.last().map(|(n, _)| n.clone());
        Fault {
            kind: FaultKind::CascadeOverflow,
            page,
            error: RuntimeError::FuelExhausted,
            fuel_spent: self.config.max_transitions,
            fuel_limit: self.config.max_transitions,
            version: self.version,
        }
    }

    /// (TAP) — the user taps the box at `path` in the display. Requires
    /// a valid display (the rule's premise `[ontap = v] ∈ B`); enqueues
    /// the handler and invalidates the display.
    ///
    /// # Errors
    ///
    /// [`ActionError`] if the display is stale, the path is bad, or the
    /// box has no `ontap` handler.
    pub fn tap(&mut self, path: &[usize]) -> Result<(), ActionError> {
        let handler = self.interaction_handler(path, Attr::OnTap)?;
        self.accept_input();
        self.queue.enqueue(Event::Exec(handler, vec![]));
        Ok(())
    }

    /// Like [`System::tap`] but for the `onedit` handler, passing the
    /// edited text. Models the user editing a box's content.
    ///
    /// # Errors
    ///
    /// See [`System::tap`].
    pub fn edit_box(&mut self, path: &[usize], text: &str) -> Result<(), ActionError> {
        let handler = self.interaction_handler(path, Attr::OnEdit)?;
        self.accept_input();
        self.queue
            .enqueue(Event::Exec(handler, vec![Value::str(text)]));
        Ok(())
    }

    /// Take an input from outside: invalidate the display and start a
    /// new cascade with a fresh [`SystemConfig::max_transitions`] budget.
    fn accept_input(&mut self) {
        self.cascade = 0;
        self.set_display(Display::Invalid);
    }

    fn interaction_handler(&self, path: &[usize], attr: Attr) -> Result<Value, ActionError> {
        // A stale (last-good) tree stays interactive: the machine is
        // degraded, not dead. Only `⊥` refuses interactions.
        let Some(root) = self.display.content() else {
            return Err(ActionError::DisplayInvalid);
        };
        let node = root
            .descendant(path)
            .ok_or_else(|| ActionError::NoSuchBox(path.to_vec()))?;
        let handler = node
            .attr(attr)
            .cloned()
            .ok_or(ActionError::NoHandler(attr))?;
        // The rule's premise wants a callable `v`; a non-function here
        // means a corrupted tree — report it as a typed error instead of
        // letting the THUNK transition abort later.
        if !matches!(handler, Value::Closure(_) | Value::Prim(_)) {
            return Err(ActionError::NoHandler(attr));
        }
        Ok(handler)
    }

    /// (BACK) — the user presses the back button: enqueue `[pop]` and
    /// invalidate the display.
    pub fn back(&mut self) {
        self.accept_input();
        self.queue.enqueue(Event::Pop);
    }

    /// (UPDATE) — swap in new code. The store and page stack are fixed
    /// up per Fig. 12, the display is invalidated, and the version
    /// counter increments so that stale closures are detectable.
    ///
    /// The paper enables UPDATE only in stable states; we relax the
    /// premise to "the event queue is drained": a *degraded* machine
    /// (stale or even `⊥` display after a contained fault) must still
    /// accept the edit that fixes it, or fault containment would brick
    /// the session. In-flight events still block the update — running
    /// them against swapped code is exactly the staleness UPDATE's
    /// stability premise exists to prevent.
    ///
    /// ```
    /// use alive_core::{compile, Value};
    /// use alive_core::system::System;
    ///
    /// let code_v1 = "global n : number = 0
    ///     page start() {
    ///         init { n := 41; }
    ///         render { boxed { post n; } }
    ///     }";
    /// let mut system = System::new(compile(code_v1)?);
    /// system.run_to_stable()?;
    ///
    /// // A code change is just one more transition: the model survives,
    /// // init does NOT re-run, only the render code is re-executed.
    /// let code_v2 = code_v1.replace("post n;", "post \"n = \" ++ n;");
    /// let report = system.update(compile(&code_v2)?).expect("stable");
    /// assert!(report.kept_globals.iter().any(|g| &**g == "n"));
    /// system.run_to_stable()?;
    /// assert_eq!(system.store().get("n"), Some(&Value::Number(41.0)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ActionError::NotStable`] while events are in flight;
    /// [`ActionError::IllTyped`] if `C' ⊢ C'` fails (the old program
    /// keeps running).
    pub fn update(&mut self, new_program: Program) -> Result<FixupReport, ActionError> {
        if !self.queue.is_empty() {
            return Err(ActionError::NotStable);
        }
        let diags = crate::typeck::check_program(&new_program);
        if diags.has_errors() {
            return Err(ActionError::IllTyped(diags));
        }
        let report = self.update_checked(Arc::new(new_program));
        self.metrics.record_update();
        Ok(report)
    }

    /// The UPDATE transition with an *already type-checked* shared
    /// program — the path of every live-session edit (the session's
    /// incremental compile type-checked it) and of the fleet fan-out (a
    /// host that compiled a new version exactly once hands every
    /// subscribed session the same `Arc<Program>`). Only the parts of
    /// UPDATE that depend on this system's state run — the store and
    /// page-stack fix-ups — not the re-typecheck that [`System::update`]
    /// would pay. The caller vouches that `new_program` passed
    /// `check_program` (the same contract as
    /// [`System::with_shared_program`]); handing over an unchecked
    /// program shows up as runtime faults, never unsoundness — the
    /// machine still contains them.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotStable`] while events are in flight.
    pub fn update_shared(&mut self, new_program: Arc<Program>) -> Result<FixupReport, ActionError> {
        if !self.queue.is_empty() {
            return Err(ActionError::NotStable);
        }
        let report = self.update_checked(new_program);
        self.metrics.record_update();
        self.metrics.record_shared_update();
        Ok(report)
    }

    /// The shared tail of [`System::update`] / [`System::update_shared`]:
    /// fix up the model, swap the code, invalidate the view. The queue
    /// has been checked empty and the program type-checked by the caller.
    fn update_checked(&mut self, new_program: Arc<Program>) -> FixupReport {
        let (store, mut report) = fixup_store(&new_program, &self.store);
        let page_stack = fixup_pages(&new_program, &self.page_stack, &mut report);
        self.program = new_program;
        self.store = store;
        self.page_stack = page_stack;
        self.accept_input();
        self.queue.clear();
        // View state dies with the view's code (§4.2 discipline applied
        // to the `remember` extension) — and so does the last good tree:
        // keeping it would let a fault resurrect stale code's boxes.
        self.widgets.clear();
        self.last_good = None;
        self.version += 1;
        report
    }

    /// Evaluate live example `index` — its body, or with `expect` its
    /// `expect` clause — purely against the current model, on this
    /// system's engine. Books nothing: a probe is not a transition.
    ///
    /// Returns `None` when the program has no such example or clause;
    /// otherwise the value or the runtime error it raised
    /// ([`RuntimeError::VmLimit`] for a program beyond the VM).
    pub fn eval_example(
        &mut self,
        index: usize,
        expect: bool,
    ) -> Option<Result<Value, RuntimeError>> {
        let def = self.program.examples().get(index)?;
        let expr = if expect {
            def.expect.as_deref()?
        } else {
            &def.body
        };
        let fuel = self.config.fuel;
        Some(match self.config.engine {
            EvalEngine::Vm => match self.program.try_vm() {
                Ok(vmp) => {
                    crate::vm::run_example(
                        &vmp,
                        &mut self.scratch,
                        &self.store,
                        self.version,
                        fuel,
                        index,
                        expect,
                    )?
                    .result
                }
                Err(limit) => Err(RuntimeError::VmLimit(limit)),
            },
            EvalEngine::Bigstep => {
                bigstep::run_pure(&self.program, &self.store, self.version, fuel, expr)
                    .map(|(value, _)| value)
            }
        })
    }

    /// Snapshot the model (store) as persistent text — the "persistent
    /// data" half of the paper's program = code + data (§1).
    ///
    /// # Errors
    ///
    /// [`crate::persist::PersistError::Unpersistable`] if the store
    /// holds a value with no literal form (impossible for type-checked
    /// programs: T-C-GLOBAL keeps globals function-free).
    pub fn snapshot(&self) -> Result<String, crate::persist::PersistError> {
        crate::persist::save_store(&self.store)
    }

    /// Restore a model snapshot against the *current* code. Entries that
    /// no longer type-check are skipped (the persistence analogue of the
    /// Fig. 12 fix-up). The display is invalidated so the restored model
    /// is rendered.
    ///
    /// # Errors
    ///
    /// [`crate::persist::PersistError`] on malformed snapshot syntax.
    pub fn restore(
        &mut self,
        snapshot: &str,
    ) -> Result<crate::persist::LoadReport, crate::persist::PersistError> {
        let (store, report) = crate::persist::load_store(&self.program, snapshot)?;
        self.store = store;
        self.accept_input();
        Ok(report)
    }

    /// Perform the RENDER transition with a [`bigstep::RenderHook`]
    /// intercepting `boxed` evaluation — the §5 reuse optimization —
    /// after calling its [`bigstep::RenderHook::begin_render`].
    /// Does nothing (returns `false`) if the display is not `⊥`, the
    /// queue is non-empty, or the page stack is empty (i.e. RENDER is
    /// not the enabled transition).
    ///
    /// # Errors
    ///
    /// A contained [`Fault`] — transactional like [`System::step`]'s
    /// RENDER: `remember` slots roll back and the display degrades to
    /// the last good tree.
    pub fn render_with_hook(
        &mut self,
        hook: &mut dyn crate::bigstep::RenderHook,
    ) -> Result<bool, Fault> {
        if !matches!(self.display, Display::Invalid)
            || !self.queue.is_empty()
            || self.page_stack.is_empty()
        {
            return Ok(false);
        }
        // RENDER is the enabled transition, so this step is that RENDER.
        Ok(self.step_with(Some(hook))? == StepKind::Render)
    }

    /// Mutable access to the store, for tests that need to corrupt or
    /// probe the model directly. Not part of the semantic model: user
    /// code can only reach the store through the transitions.
    #[doc(hidden)]
    pub fn debug_store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Mutable access to the `remember` slots, for harness code that
    /// reconstructs equivalent systems. Not part of the semantic model.
    #[doc(hidden)]
    pub fn debug_widgets_mut(&mut self) -> &mut crate::widget::WidgetStore {
        &mut self.widgets
    }

    /// Replace the page stack wholesale — escape hatch for harness code
    /// modelling *other* systems (the fix-and-continue baseline). Not
    /// part of the semantic model.
    #[doc(hidden)]
    pub fn debug_set_pages(&mut self, pages: Vec<(Name, Value)>) {
        self.page_stack = pages;
        self.accept_input();
    }

    /// Convenience: the rendered box tree, rendering first if needed.
    ///
    /// # Errors
    ///
    /// Propagates contained [`Fault`]s from pending transitions.
    pub fn rendered(&mut self) -> Result<&BoxNode, Fault> {
        self.run_to_stable()?;
        self.display.content().ok_or(Fault {
            kind: FaultKind::Render,
            page: None,
            error: RuntimeError::Internal("stable state has no display content"),
            fuel_spent: 0,
            fuel_limit: self.config.fuel,
            version: self.version,
        })
    }
}

/// Bind a page's parameters from its argument tuple.
fn bind_page_params(page: &crate::program::PageDef, arg: &Value) -> Vec<(Name, Value)> {
    match arg {
        Value::Tuple(vs) if vs.len() == page.params.len() => page
            .params
            .iter()
            .zip(vs.iter())
            .map(|(p, v)| (p.name.clone(), v.clone()))
            .collect(),
        // Degenerate (ill-typed) argument: bind nothing; the evaluator
        // will report unbound locals if the body uses parameters.
        _ => Vec::new(),
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "System(v{}, display: {}, store: {} globals, stack: [{}], queue: {} events)",
            self.version,
            self.display,
            self.store.len(),
            self.page_stack
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.queue.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::value::Value;

    const COUNTER: &str = "
        global count : number = 0
        page start() {
            init { count := count + 1; }
            render {
                boxed {
                    post \"count is \" ++ count;
                    on tap { count := count + 10; }
                }
            }
        }";

    fn counter_system() -> System {
        System::new(compile(COUNTER).expect("compiles"))
    }

    #[test]
    fn hooked_renders_begin_once_each() {
        /// Counts `begin_render` calls and `boxed` entries; caches nothing.
        #[derive(Default)]
        struct Counting {
            begins: Vec<u64>,
            boxes: usize,
        }
        impl bigstep::RenderHook for Counting {
            fn begin_render(&mut self, _store: &Store, version: u64) {
                self.begins.push(version);
            }
            fn enter_boxed(
                &mut self,
                _id: crate::expr::BoxSourceId,
                _locals: &[(Name, Value)],
            ) -> Option<(Arc<BoxNode>, Value)> {
                self.boxes += 1;
                None
            }
            fn after_boxed(
                &mut self,
                _id: crate::expr::BoxSourceId,
                _locals: &[(Name, Value)],
                _node: &Arc<BoxNode>,
                _value: &Value,
            ) {
            }
        }
        let mut sys = counter_system();
        let mut hook = Counting::default();
        let kinds = sys.run_to_stable_with(Some(&mut hook)).expect("runs");
        assert_eq!(kinds.last(), Some(&StepKind::Render));
        assert_eq!(hook.begins, vec![0]);
        assert!(hook.boxes > 0, "the render went through the hook");
        sys.tap(&[0]).expect("tap");
        sys.run_to_stable_with(Some(&mut hook))
            .expect("handles tap");
        assert_eq!(hook.begins, vec![0, 0], "one begin per RENDER");
        // Hook-free settles never call it.
        sys.tap(&[0]).expect("tap");
        sys.run_to_stable().expect("handles tap");
        assert_eq!(hook.begins.len(), 2);
    }

    #[test]
    fn wide_literals_run_on_the_vm_like_bigstep() {
        // 600 elements span three register batches. The last element of
        // the list reads the local the literal is assigned to, so it
        // must still see the old value.
        let zeros = vec!["0"; 599].join(", ");
        let src = format!(
            "global out : list number = []
            page start() {{
                init {{ let xs = [7]; xs := [{zeros}, list.length(xs)]; out := xs; }}
                render {{ boxed {{ post list.length(out); post list.nth(out, 599); post ({zeros}, 5).600; }} }}
            }}"
        );
        let program = compile(&src).expect("compiles");
        let mut vm = System::new(program.clone());
        let mut walker = System::with_config(
            program,
            SystemConfig {
                engine: EvalEngine::Bigstep,
                ..SystemConfig::default()
            },
        );
        vm.run_to_stable().expect("vm runs");
        walker.run_to_stable().expect("bigstep runs");
        let frame = vm.rendered().expect("vm frame").clone();
        assert_eq!(&frame, walker.rendered().expect("bigstep frame"));
        let leaves: Vec<&Value> = frame.descendant(&[0]).expect("box").leaves().collect();
        assert_eq!(
            leaves,
            [
                &Value::Number(600.0),
                &Value::Number(1.0),
                &Value::Number(5.0)
            ]
        );
        assert!(vm.vm_stats().runs > 0);
    }

    #[test]
    fn startup_reaches_stable_render() {
        let mut sys = counter_system();
        assert!(!sys.is_stable());
        let kinds = sys.run_to_stable().expect("runs");
        assert_eq!(
            kinds,
            vec![StepKind::Startup, StepKind::Push, StepKind::Render]
        );
        assert!(sys.is_stable());
        assert_eq!(sys.store().get("count"), Some(&Value::Number(1.0)));
        let root = sys.display().content().expect("valid");
        assert_eq!(
            root.descendant(&[0]).expect("box").leaves().next(),
            Some(&Value::str("count is 1"))
        );
    }

    #[test]
    fn tap_runs_handler_and_rerenders() {
        let mut sys = counter_system();
        sys.run_to_stable().expect("starts");
        sys.tap(&[0]).expect("tap lands");
        assert!(!sys.display().is_valid(), "tap invalidates the display");
        let kinds = sys.run_to_stable().expect("handles tap");
        assert_eq!(kinds, vec![StepKind::Thunk, StepKind::Render]);
        assert_eq!(sys.store().get("count"), Some(&Value::Number(11.0)));
        let root = sys.display().content().expect("valid");
        assert_eq!(
            root.descendant(&[0]).expect("box").leaves().next(),
            Some(&Value::str("count is 11"))
        );
    }

    #[test]
    fn display_generation_tracks_every_reassignment() {
        let mut sys = counter_system();
        let g0 = sys.display_generation();
        sys.run_to_stable().expect("starts");
        let g1 = sys.display_generation();
        assert!(g1 > g0, "startup + render both reassign the display");
        // A stable system left alone keeps its generation: cached
        // rendered output stays valid.
        sys.run_to_stable().expect("idles");
        assert_eq!(sys.display_generation(), g1);
        // A tap invalidates (bump), the re-render validates (bump).
        sys.tap(&[0]).expect("tap");
        let g2 = sys.display_generation();
        assert!(g2 > g1);
        sys.run_to_stable().expect("re-renders");
        assert!(sys.display_generation() > g2);
    }

    #[test]
    fn tap_requires_valid_display() {
        let mut sys = counter_system();
        assert_eq!(sys.tap(&[0]), Err(ActionError::DisplayInvalid));
        sys.run_to_stable().expect("starts");
        assert_eq!(sys.tap(&[9]), Err(ActionError::NoSuchBox(vec![9])));
    }

    #[test]
    fn back_pops_and_startup_reenters() {
        let mut sys = counter_system();
        sys.run_to_stable().expect("starts");
        sys.back();
        let kinds = sys.run_to_stable().expect("pops and restarts");
        // Pop empties the stack; STARTUP pushes start again (re-running
        // init — the paper's model restarts an empty stack).
        assert_eq!(
            kinds,
            vec![
                StepKind::Pop,
                StepKind::Startup,
                StepKind::Push,
                StepKind::Render
            ]
        );
        assert_eq!(sys.store().get("count"), Some(&Value::Number(2.0)));
    }

    #[test]
    fn update_preserves_model_and_rerenders() {
        let mut sys = counter_system();
        sys.run_to_stable().expect("starts");
        sys.tap(&[0]).expect("tap");
        sys.run_to_stable().expect("handles");
        assert_eq!(sys.store().get("count"), Some(&Value::Number(11.0)));

        // Live edit: change the label text (the paper's I2-style tweak).
        let new_code = COUNTER.replace("count is ", "the count: ");
        let new_program = compile(&new_code).expect("new code compiles");
        let report = sys.update(new_program).expect("update applies");
        assert!(!report.dropped_anything());
        assert_eq!(sys.version(), 1);
        assert!(!sys.display().is_valid());

        let kinds = sys.run_to_stable().expect("re-renders");
        // Crucially: only RENDER runs. Init does NOT re-run; the model
        // (count = 11) is preserved.
        assert_eq!(kinds, vec![StepKind::Render]);
        assert_eq!(sys.store().get("count"), Some(&Value::Number(11.0)));
        let root = sys.display().content().expect("valid");
        assert_eq!(
            root.descendant(&[0]).expect("box").leaves().next(),
            Some(&Value::str("the count: 11"))
        );
    }

    #[test]
    fn update_requires_a_drained_queue() {
        let mut sys = counter_system();
        // Step once: STARTUP enqueues [push start ()] — an in-flight
        // event, so UPDATE is blocked.
        sys.step().expect("startup");
        assert!(!sys.queue().is_empty());
        let p = compile(COUNTER).expect("compiles");
        assert!(matches!(sys.update(p), Err(ActionError::NotStable)));
        // Drained (even pre-startup or degraded) states accept updates.
        sys.run_to_stable().expect("settles");
        let p = compile(COUNTER).expect("compiles");
        assert!(sys.update(p).is_ok());
    }

    #[test]
    fn ill_typed_update_is_rejected_and_old_code_keeps_running() {
        let mut sys = counter_system();
        sys.run_to_stable().expect("starts");
        let bad = "global g : number = 0
                   page start() { render { g := 1; } }";
        // The bad program fails `compile` already; build it via parse +
        // lower then feed to update to exercise the `C' ⊢ C'` premise.
        let parsed = alive_syntax::parse_program(bad);
        let lowered = crate::lower::lower_program(&parsed.program);
        let err = sys.update(lowered.program).expect_err("rejected");
        assert!(matches!(err, ActionError::IllTyped(_)));
        assert_eq!(sys.version(), 0);
        assert!(sys.is_stable(), "old program keeps running");
    }

    #[test]
    fn update_dropping_global_reinitializes_it() {
        let mut sys = counter_system();
        sys.run_to_stable().expect("starts");
        // Retype `count` as a string; fix-up drops the old value and the
        // initializer supplies the new one on first read (EP-GLOBAL-2).
        let retyped = "
            global count : string = \"zero\"
            page start() {
                init { count := count ++ \"!\"; }
                render { boxed { post count; } }
            }";
        let report = sys
            .update(compile(retyped).expect("compiles"))
            .expect("update applies");
        assert_eq!(report.dropped_globals.len(), 1);
        sys.run_to_stable().expect("re-renders");
        // Init does not re-run on update, so no "!" is appended; the
        // render reads the initializer value.
        let root = sys.display().content().expect("valid");
        let leaf = root.descendant(&[0]).expect("box").leaves().next().cloned();
        assert_eq!(leaf, Some(Value::str("zero")));
    }

    #[test]
    fn page_navigation_push_and_pop() {
        let two_pages = "
            global picked : number = 0
            page start() {
                render {
                    for i in 0 .. 3 {
                        boxed {
                            post i;
                            on tap { push detail(i); }
                        }
                    }
                }
            }
            page detail(n: number) {
                init { picked := n; }
                render {
                    boxed { post \"detail \" ++ n; on tap { pop; } }
                }
            }";
        let mut sys = System::new(compile(two_pages).expect("compiles"));
        sys.run_to_stable().expect("starts");
        assert_eq!(sys.current_page().map(|(n, _)| n), Some("start"));

        sys.tap(&[1]).expect("tap second entry");
        sys.run_to_stable().expect("navigates");
        assert_eq!(sys.current_page().map(|(n, _)| n), Some("detail"));
        assert_eq!(sys.store().get("picked"), Some(&Value::Number(1.0)));
        let root = sys.display().content().expect("valid");
        assert_eq!(
            root.descendant(&[0]).expect("box").leaves().next(),
            Some(&Value::str("detail 1"))
        );

        sys.tap(&[0]).expect("tap to pop");
        sys.run_to_stable().expect("pops");
        assert_eq!(sys.current_page().map(|(n, _)| n), Some("start"));
        assert_eq!(sys.page_stack().len(), 1);
    }

    #[test]
    fn edit_handler_receives_text() {
        let editable = "
            global term : string = \"30\"
            page start() {
                render {
                    boxed {
                        post term;
                        on edited(text: string) { term := text; }
                    }
                }
            }";
        let mut sys = System::new(compile(editable).expect("compiles"));
        sys.run_to_stable().expect("starts");
        sys.edit_box(&[0], "15").expect("edit lands");
        sys.run_to_stable().expect("handles edit");
        assert_eq!(sys.store().get("term"), Some(&Value::str("15")));
    }

    #[test]
    fn snapshot_and_restore_roundtrip_the_model() {
        let mut sys = counter_system();
        sys.run_to_stable().expect("starts");
        sys.tap(&[0]).expect("tap");
        sys.run_to_stable().expect("handles");
        let snapshot = sys.snapshot().expect("store is function-free");
        assert!(snapshot.contains("count := 11"), "{snapshot}");

        // A fresh system restores the model without re-running init.
        let mut fresh = counter_system();
        fresh.run_to_stable().expect("starts"); // count = 1
        let report = fresh.restore(&snapshot).expect("restores");
        assert_eq!(report.restored, vec!["count".to_string()]);
        fresh.run_to_stable().expect("re-renders");
        let root = fresh.display().content().expect("valid");
        assert_eq!(
            root.descendant(&[0]).expect("box").leaves().next(),
            Some(&Value::str("count is 11"))
        );
    }

    #[test]
    fn infinite_push_cascade_is_bounded() {
        let loopy = "
            page start() {
                init { push start(); }
                render { }
            }";
        let mut sys = System::with_config(
            compile(loopy).expect("compiles"),
            SystemConfig {
                fuel: DEFAULT_FUEL,
                max_transitions: 50,
                ..SystemConfig::default()
            },
        );
        let fault = sys.run_to_stable().expect_err("cascade overflows");
        // Cascade overflow is its own fault kind, distinguishable from
        // in-transition divergence, and carries the configured bound.
        assert_eq!(fault.kind, FaultKind::CascadeOverflow);
        assert_eq!(fault.error, RuntimeError::FuelExhausted);
        assert_eq!(fault.fuel_limit, 50);
        // Containment dropped the runaway queue: the machine recovers by
        // rendering the page the cascade left on top.
        assert!(sys.queue().is_empty());
        sys.run_to_stable().expect("machine survives the overflow");
        assert!(sys.is_stable());
    }

    #[test]
    fn the_cascade_budget_spans_faults_and_renews_per_input() {
        let src = "
            global xs : list number = []
            page start() {
                render {
                    boxed { post \"hop\"; on tap { push hop(0); } }
                    boxed { post \"spin\"; on tap { push spin(0); } }
                }
            }
            page hop(n : number) {
                init { pop; if n < 10 { push hop(n + 1); } }
                render { }
            }
            page spin(n : number) {
                init {
                    pop;
                    if n < 10 { push spin(n + 1); } else { push broken(); push spin(0); }
                }
                render { }
            }
            page broken() {
                init { xs := [list.nth(xs, 3)]; }
                render { }
            }";
        let mut sys = System::with_config(
            compile(src).expect("compiles"),
            SystemConfig {
                max_transitions: 50,
                ..SystemConfig::default()
            },
        );
        sys.run_to_stable().expect("starts");
        // A hop tap sets off 24 transitions: three taps stay within a
        // 50-transition budget because each input starts a new cascade.
        for _ in 0..3 {
            sys.tap(&[0]).expect("tap hop");
            sys.run_to_stable().expect("a hop cascade fits the budget");
        }
        // A spin cascade faults every 23 transitions and refills the
        // queue: settling on after each fault still overflows.
        sys.tap(&[1]).expect("tap spin");
        let mut kinds = Vec::new();
        while let Err(fault) = sys.run_to_stable() {
            kinds.push(fault.kind);
            if fault.kind == FaultKind::CascadeOverflow {
                break;
            }
        }
        assert_eq!(
            kinds,
            [FaultKind::Init, FaultKind::Init, FaultKind::CascadeOverflow]
        );
        sys.run_to_stable().expect("machine survives the overflow");
    }

    #[test]
    fn faulting_handler_rolls_back_the_store() {
        // `list.nth` out of range — the paper's partial-primitive
        // failure — after the handler already wrote the store.
        let partial = "
            global count : number = 0
            global xs : list number = []
            page start() {
                render {
                    boxed {
                        post count;
                        on tap { count := count + 1; count := list.nth(xs, 5); }
                    }
                }
            }";
        let mut sys = System::new(compile(partial).expect("compiles"));
        sys.run_to_stable().expect("starts");
        let before_store = sys.store().clone();
        let before_view = sys.display().content().expect("valid").clone();
        sys.tap(&[0]).expect("tap lands");
        let fault = sys.run_to_stable().expect_err("handler faults");
        assert_eq!(fault.kind, FaultKind::Handler);
        assert!(matches!(fault.error, RuntimeError::Prim(_)));
        // Transaction rollback: the half-applied `count := count + 1`
        // is undone; the store is byte-identical to the pre-event state.
        assert_eq!(sys.store(), &before_store);
        // The event was dropped and the last good tree is still shown.
        assert!(sys.queue().is_empty());
        assert!(sys.display().is_stale());
        assert_eq!(sys.display().content(), Some(&before_view));
        assert!(sys.is_stable(), "degraded but alive");
    }

    #[test]
    fn faulting_init_rolls_back_stack_and_store() {
        let faulty_detail = "
            global trace : number = 0
            page start() {
                render {
                    boxed { post \"go\"; on tap { push detail(); } }
                }
            }
            page detail() {
                init { trace := 1; trace := list.nth([0], 5); }
                render { post trace; }
            }";
        let mut sys = System::new(compile(faulty_detail).expect("compiles"));
        sys.run_to_stable().expect("starts");
        sys.tap(&[0]).expect("tap lands");
        // The tap's THUNK succeeds (it only enqueues the push); the
        // push's INIT faults.
        let fault = sys.run_to_stable().expect_err("init faults");
        assert_eq!(fault.kind, FaultKind::Init);
        assert_eq!(fault.page.as_deref(), Some("detail"));
        // Rollback: the page was not pushed, the store write undone.
        assert_eq!(sys.page_stack().len(), 1);
        assert_eq!(sys.current_page().map(|(n, _)| n), Some("start"));
        assert_eq!(sys.store().get("trace"), None);
        assert!(sys.is_stable(), "degraded but alive");
    }

    #[test]
    fn render_fault_keeps_last_good_view_and_recovers() {
        let sometimes = "
            global n : number = 0
            global xs : list number = [7]
            page start() {
                render {
                    boxed {
                        post list.nth(xs, n);
                        on tap { n := n + 1; }
                    }
                }
            }";
        let mut sys = System::new(compile(sometimes).expect("compiles"));
        sys.run_to_stable().expect("starts");
        let good = sys.display().content().expect("valid").clone();
        // Tap pushes n to 1; the re-render indexes out of range.
        sys.tap(&[0]).expect("tap lands");
        let fault = sys.run_to_stable().expect_err("render faults");
        assert_eq!(fault.kind, FaultKind::Render);
        // The handler's store write *committed* (it was a good
        // transition); only the render failed, and the last good tree
        // is still on screen.
        assert_eq!(sys.store().get("n"), Some(&Value::Number(1.0)));
        assert!(sys.display().is_stale());
        assert_eq!(sys.display().content(), Some(&good));
        // The stale tree stays interactive: tapping it again (n := 2)
        // still faults, then a model fix recovers the display.
        sys.tap(&[0]).expect("stale tree is interactive");
        assert!(sys.run_to_stable().is_err());
        sys.debug_store_mut().set("n", Value::Number(0.0));
        sys.back();
        sys.run_to_stable().expect("recovers");
        assert!(sys.display().is_valid());
    }

    #[test]
    fn injected_fuel_throttle_faults_the_chosen_transition() {
        use crate::fault::TransitionKind;
        use std::sync::Arc;

        #[derive(Debug)]
        struct ThrottleSecondRender {
            renders: u64,
        }
        impl crate::fault::FaultInjector for ThrottleSecondRender {
            fn fuel_for(&mut self, kind: TransitionKind, default_fuel: u64) -> u64 {
                if kind == TransitionKind::Render {
                    self.renders += 1;
                    if self.renders == 2 {
                        return 1;
                    }
                }
                default_fuel
            }
        }

        let mut sys = counter_system();
        sys.set_fault_injector(Arc::new(Mutex::new(ThrottleSecondRender { renders: 0 })));
        sys.run_to_stable().expect("first render has full fuel");
        sys.tap(&[0]).expect("tap");
        let fault = sys.run_to_stable().expect_err("second render throttled");
        assert_eq!(fault.kind, FaultKind::Render);
        assert_eq!(fault.error, RuntimeError::FuelExhausted);
        assert_eq!(fault.fuel_limit, 1);
        // Third render gets full fuel again: the machine recovers.
        sys.back();
        sys.run_to_stable().expect("recovers");
        assert!(sys.is_stable());
    }
}
