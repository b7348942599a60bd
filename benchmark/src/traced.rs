//! The traced frame loop: `LiveSession::apply` rebuilt from the public
//! pieces of each layer — `System`, `IncrementalParser`, `MemoCache`,
//! `LayoutCache`, `TextFrame` — with a span around every call into a
//! layer. It runs in lockstep with a real `LiveSession`, whose views it
//! must reproduce byte for byte after every command.

use crate::alloc;
use crate::stats::{ratio, Metrics};
use alive_core::bigstep::{self, RenderHook};
use alive_core::boxtree::{BoxNode, Display};
use alive_core::expr::BoxSourceId;
use alive_core::lower::lower_program;
use alive_core::system::{ActionError, StepKind, System};
use alive_core::typeck::check_program;
use alive_core::types::Name;
use alive_core::value::Value;
use alive_core::vm::{self, Scratch};
use alive_live::repair::parse_desired;
use alive_live::{repairs_for, CandidateRepair, ExampleProbe, MemoCache, ProbeStatus};
use alive_live::{SessionCommand, SessionEffect};
use alive_syntax::{apply_edits, IncrementalParser};
use alive_ui::{
    damage_rects, diff_displays, layout_incremental, LayoutCache, LayoutTree, TextFrame,
};
use std::sync::Arc;
use std::time::Instant;

/// The traced layers, in report order.
#[derive(Debug, Clone, Copy)]
enum Layer {
    Parse,
    Lower,
    Typeck,
    Update,
    Eval,
    Memo,
    Layout,
    Paint,
    Repair,
    Examples,
}

const LAYERS: [(Layer, &str); 10] = [
    (Layer::Parse, "syntax.parse"),
    (Layer::Lower, "core.lower"),
    (Layer::Typeck, "core.typeck"),
    (Layer::Update, "core.update"),
    (Layer::Eval, "core.eval"),
    (Layer::Memo, "live.memo"),
    (Layer::Layout, "ui.layout"),
    (Layer::Paint, "ui.paint"),
    (Layer::Repair, "live.repair"),
    (Layer::Examples, "live.examples"),
];

#[derive(Debug, Default, Clone, Copy)]
struct Span {
    /// Commands that entered the layer.
    calls: u64,
    ns: u64,
    allocs: u64,
}

/// Per-layer totals over the timed commands of a traced run.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    spans: [Span; 10],
    touched: [bool; 10],
    commands: u64,
    /// Σ untraced `LiveSession::apply` ns over the same commands.
    untraced_ns: u64,
    chunks_reused: u64,
    chunks_parsed: u64,
    vm_instructions: u64,
    vm_compile_us: u64,
    vm_cache_hits: u64,
    vm_compiles: u64,
    memo_hits: u64,
    memo_misses: u64,
    memo_uncacheable: u64,
    nodes_reused: u64,
    nodes_measured: u64,
    cells_repainted: u64,
    cells_total: u64,
    frames: u64,
    partial_frames: u64,
    repair_candidates: u64,
    example_hits: u64,
    /// Memo time recorded while a `core.eval` span was open; the eval
    /// span subtracts it so each nanosecond lands in one layer.
    nested_ns: u64,
    nested_allocs: u64,
}

/// A started span: wall clock and allocation count at entry.
struct Mark {
    at: Instant,
    allocs: u64,
}

impl Mark {
    fn start() -> Mark {
        Mark {
            allocs: alloc::allocations(),
            at: Instant::now(),
        }
    }

    /// `(ns, allocations)` since the mark.
    fn stop(&self) -> (u64, u64) {
        let ns = self.at.elapsed().as_nanos() as u64;
        (ns, alloc::allocations() - self.allocs)
    }
}

impl Tracer {
    fn add(&mut self, layer: Layer, ns: u64, allocs: u64) {
        let span = &mut self.spans[layer as usize];
        span.ns += ns;
        span.allocs += allocs;
        self.touched[layer as usize] = true;
    }

    /// Close one timed command whose untraced `apply` took `untraced_ns`.
    pub fn end_command(&mut self, untraced_ns: u64) {
        self.commands += 1;
        self.untraced_ns += untraced_ns;
        for (span, touched) in self.spans.iter_mut().zip(self.touched.iter_mut()) {
            span.calls += u64::from(std::mem::take(touched));
        }
    }

    /// Σ ns over every layer.
    fn layers_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.ns).sum()
    }

    /// The per-layer metrics, plus the trace's own coverage and overhead
    /// given the traced session's total time.
    pub fn report(&self, traced_ns: u64, out: &mut Metrics) {
        for (layer, name) in LAYERS {
            let span = self.spans[layer as usize];
            let calls = span.calls as f64;
            out.put(format!("{name}.calls"), calls, "count");
            out.put(
                format!("{name}.us_per_call"),
                ratio(span.ns as f64 / 1000.0, calls),
                "us",
            );
            out.put(
                format!("{name}.allocs_per_call"),
                ratio(span.allocs as f64, calls),
                "count",
            );
            let cmds = self.commands as f64;
            match layer {
                Layer::Parse => out.put(
                    "syntax.parse.chunk_reuse_ratio",
                    ratio(
                        self.chunks_reused as f64,
                        (self.chunks_reused + self.chunks_parsed) as f64,
                    ),
                    "ratio",
                ),
                Layer::Eval => {
                    out.put(
                        "core.eval.vm_instructions_per_cmd",
                        ratio(self.vm_instructions as f64, cmds),
                        "count",
                    );
                    out.put(
                        "core.eval.vm_compile_us",
                        ratio(self.vm_compile_us as f64, calls),
                        "us",
                    );
                    out.put(
                        "core.eval.vm_cache_hit_ratio",
                        ratio(
                            self.vm_cache_hits as f64,
                            (self.vm_cache_hits + self.vm_compiles) as f64,
                        ),
                        "ratio",
                    );
                }
                Layer::Memo => {
                    let looked = (self.memo_hits + self.memo_misses) as f64;
                    out.put(
                        "live.memo.hit_ratio",
                        ratio(self.memo_hits as f64, looked),
                        "ratio",
                    );
                    out.put(
                        "live.memo.uncacheable_ratio",
                        ratio(
                            self.memo_uncacheable as f64,
                            looked + self.memo_uncacheable as f64,
                        ),
                        "ratio",
                    );
                }
                Layer::Layout => out.put(
                    "ui.layout.reuse_ratio",
                    ratio(
                        self.nodes_reused as f64,
                        (self.nodes_reused + self.nodes_measured) as f64,
                    ),
                    "ratio",
                ),
                Layer::Paint => {
                    out.put(
                        "ui.paint.repaint_fraction",
                        ratio(self.cells_repainted as f64, self.cells_total as f64),
                        "ratio",
                    );
                    out.put(
                        "ui.paint.partial_ratio",
                        ratio(self.partial_frames as f64, self.frames as f64),
                        "ratio",
                    );
                }
                Layer::Repair => out.put(
                    "live.repair.candidates_per_call",
                    ratio(self.repair_candidates as f64, calls),
                    "count",
                ),
                Layer::Examples => out.put(
                    "live.examples.cache_hit_ratio",
                    ratio(self.example_hits as f64, calls),
                    "ratio",
                ),
                _ => {}
            }
        }
        let layers_ns = self.layers_ns() as f64;
        out.put(
            "live.session.residual_us_per_cmd",
            ratio(
                (self.untraced_ns as f64 - layers_ns) / 1000.0,
                self.commands as f64,
            ),
            "us",
        );
        out.put(
            "trace.coverage_ratio",
            ratio(layers_ns, traced_ns as f64),
            "ratio",
        );
        out.put(
            "trace.overhead_ratio",
            ratio(traced_ns as f64, self.untraced_ns as f64),
            "ratio",
        );
    }
}

/// The memo cache behind a timing wrapper: every lookup and insert is
/// timed and counted as `live.memo`, and later subtracted from the
/// enclosing `core.eval` span.
struct TimedHook<'a> {
    memo: &'a mut MemoCache,
    ns: u64,
    allocs: u64,
}

impl TimedHook<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut MemoCache) -> R) -> R {
        let mark = Mark::start();
        let result = f(self.memo);
        let (ns, allocs) = mark.stop();
        self.ns += ns;
        self.allocs += allocs;
        result
    }
}

impl RenderHook for TimedHook<'_> {
    fn enter_boxed(
        &mut self,
        id: BoxSourceId,
        locals: &[(Name, Value)],
    ) -> Option<(Arc<BoxNode>, Value)> {
        self.timed(|memo| memo.enter_boxed(id, locals))
    }

    fn after_boxed(
        &mut self,
        id: BoxSourceId,
        locals: &[(Name, Value)],
        node: &Arc<BoxNode>,
        value: &Value,
    ) {
        self.timed(|memo| memo.after_boxed(id, locals, node, value));
    }
}

/// How the rebuilt session answered a command — compared against the
/// real session's effects.
#[derive(Debug, PartialEq)]
pub enum Answer {
    Frame,
    Rejected,
    Quarantined,
    Refused,
    NothingToUndo,
    Repairs(Vec<CandidateRepair>),
    Examples(Vec<ExampleProbe>),
}

impl Answer {
    /// Whether the real session's effects say the same.
    pub fn agrees(&self, effects: &[SessionEffect]) -> bool {
        use alive_live::UndoOutcome;
        match (self, effects) {
            (Answer::Repairs(mine), [SessionEffect::Repairs(real)]) => mine == real,
            (Answer::Examples(mine), [SessionEffect::Examples(real)]) => mine == real,
            (Answer::Rejected, [SessionEffect::EditRejected(_)]) => true,
            (Answer::Refused, [SessionEffect::Refused(_)]) => true,
            (Answer::NothingToUndo, [SessionEffect::Undo { outcome, .. }]) => {
                *outcome == UndoOutcome::NothingToUndo
            }
            (
                Answer::Quarantined,
                [SessionEffect::EditQuarantined { .. }, SessionEffect::Frame(_)],
            ) => true,
            (Answer::Frame, [.., SessionEffect::Frame(_)]) => !effects
                .iter()
                .any(|e| matches!(e, SessionEffect::EditQuarantined { .. })),
            _ => false,
        }
    }
}

enum Edit {
    Applied,
    Rejected,
    Quarantined,
}

/// `LiveSession` rebuilt from public layer calls, for the commands the
/// workloads send.
pub struct TracedSession {
    source: String,
    system: System,
    memo: Option<MemoCache>,
    parser: IncrementalParser,
    undo: Vec<String>,
    redo: Vec<String>,
    pending_repairs: Option<(String, Vec<CandidateRepair>)>,
    examples: Option<((u64, u64), Vec<ExampleProbe>)>,
    scratch: Scratch,
    layout: LayoutCache,
    frame: TextFrame,
    prev: Option<(BoxNode, LayoutTree)>,
    view: Option<(u64, String)>,
    faults: u64,
}

impl TracedSession {
    /// Mirror a freshly started session: its settled system, an empty
    /// parse cache and frame pipeline.
    pub fn new(source: &str, system: System, memo: bool) -> TracedSession {
        let memo = memo.then(|| MemoCache::new(system.program()));
        let mut session = TracedSession {
            source: source.to_string(),
            system,
            memo,
            parser: IncrementalParser::new(),
            undo: Vec::new(),
            redo: Vec::new(),
            pending_repairs: None,
            examples: None,
            scratch: Scratch::new(),
            layout: LayoutCache::new(),
            frame: TextFrame::new(),
            prev: None,
            view: None,
            faults: 0,
        };
        session.render(&mut Tracer::default());
        session
    }

    /// The current view, when the last command left one rendered.
    pub fn view(&self) -> Option<&str> {
        match &self.view {
            Some((generation, text)) if *generation == self.system.display_generation() => {
                Some(text)
            }
            _ => None,
        }
    }

    /// Apply one command, mirroring `LiveSession::apply`.
    pub fn apply(&mut self, command: &SessionCommand, tr: &mut Tracer) -> Answer {
        match command {
            SessionCommand::Frame => self.render(tr),
            SessionCommand::TapPath(path) => self.interact(tr, |system| system.tap(path)),
            SessionCommand::EditBox { path, text } => {
                self.interact(tr, |system| system.edit_box(path, text))
            }
            SessionCommand::Back => {
                if self.system.page_stack().len() <= 1 {
                    return Answer::Refused;
                }
                self.interact(tr, |system| {
                    system.back();
                    Ok(())
                })
            }
            SessionCommand::EditSource(text) => {
                let answer = self.edit(text, tr);
                if answer == Answer::Frame {
                    self.redo.clear();
                }
                answer
            }
            SessionCommand::Undo => {
                let Some(previous) = self.undo.pop() else {
                    return Answer::NothingToUndo;
                };
                let current = self.source.clone();
                let answer = self.edit(&previous, tr);
                if answer == Answer::Frame {
                    self.undo.pop();
                    self.redo.push(current);
                } else {
                    self.undo.push(previous);
                }
                answer
            }
            SessionCommand::Redo => {
                let Some(next) = self.redo.pop() else {
                    return Answer::NothingToUndo;
                };
                let answer = self.edit(&next, tr);
                if answer != Answer::Frame {
                    self.redo.push(next);
                }
                answer
            }
            SessionCommand::ManipulateAt { path, leaf, value } => {
                self.manipulate(path, *leaf, value, tr)
            }
            SessionCommand::ApplyRepair(index) => {
                let Some((snapshot, repairs)) = &self.pending_repairs else {
                    return Answer::Refused;
                };
                if *snapshot != self.source {
                    self.pending_repairs = None;
                    return Answer::Refused;
                }
                let Some(candidate) = repairs.get(*index) else {
                    return Answer::Refused;
                };
                let Ok(text) = apply_edits(&self.source, std::slice::from_ref(&candidate.edit))
                else {
                    return Answer::Refused;
                };
                let answer = self.edit(&text, tr);
                if answer == Answer::Frame {
                    self.redo.clear();
                    self.pending_repairs = None;
                }
                answer
            }
            SessionCommand::Examples => {
                self.render(tr);
                Answer::Examples(self.probes(tr))
            }
            other => unimplemented!("the workloads never send {other:?}"),
        }
    }

    /// A model write: settle, deliver, settle — one `core.eval` span —
    /// then the frame.
    fn interact(
        &mut self,
        tr: &mut Tracer,
        deliver: impl FnOnce(&mut System) -> Result<(), ActionError>,
    ) -> Answer {
        let eval = EvalMark::start(tr);
        self.settle(tr);
        let delivered = deliver(&mut self.system);
        if delivered.is_ok() {
            self.settle(tr);
        }
        eval.stop(tr);
        match delivered {
            Ok(()) => self.render(tr),
            Err(_) => Answer::Refused,
        }
    }

    /// `refresh()` as its own `core.eval` span.
    fn eval_settle(&mut self, tr: &mut Tracer) {
        let eval = EvalMark::start(tr);
        self.settle(tr);
        eval.stop(tr);
    }

    /// `live_view()` + `display_tree()`: settle, then incremental layout
    /// and damage-driven paint unless this generation is already drawn.
    fn render(&mut self, tr: &mut Tracer) -> Answer {
        self.eval_settle(tr);
        let generation = self.system.display_generation();
        let Some(root) = self.system.display().content() else {
            // Corpus programs never lose their view; say so loudly.
            self.view = None;
            return Answer::Refused;
        };
        if self.view.as_ref().is_some_and(|(g, _)| *g == generation) {
            return Answer::Frame;
        }
        let mark = Mark::start();
        let (tree, stats) = layout_incremental(&mut self.layout, root);
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Layout, ns, allocs);
        tr.nodes_reused += stats.nodes_reused;
        tr.nodes_measured += stats.nodes_measured;

        let mark = Mark::start();
        let mut partial = false;
        let text = match &self.prev {
            Some((prev_root, prev_tree)) => {
                let changes = diff_displays(prev_root, root);
                let damage = damage_rects(prev_tree, &tree, &changes);
                match self.frame.render_damaged(&tree, &damage) {
                    Some(text) => {
                        partial = true;
                        text
                    }
                    None => self.frame.render_full(&tree),
                }
            }
            None => self.frame.render_full(&tree),
        };
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Paint, ns, allocs);
        let size = tree.size();
        tr.frames += 1;
        tr.partial_frames += u64::from(partial);
        tr.cells_repainted += self.frame.cells_repainted();
        tr.cells_total += (size.w.max(0) as u64) * (size.h.max(0) as u64);
        self.prev = Some((root.clone(), tree));
        self.view = Some((generation, text));
        self.eval_settle(tr);
        Answer::Frame
    }

    /// `edit_source()`: incremental compile (parse, lower, typecheck),
    /// settle, checkpoint, UPDATE, settle the new code — quarantining it
    /// if it faults on its first run.
    fn edit(&mut self, text: &str, tr: &mut Tracer) -> Answer {
        match self.swap(text, tr) {
            Edit::Applied => self.render(tr),
            Edit::Rejected => Answer::Rejected,
            Edit::Quarantined => {
                self.render(tr);
                Answer::Quarantined
            }
        }
    }

    fn swap(&mut self, text: &str, tr: &mut Tracer) -> Edit {
        let (reused, parsed) = (self.parser.reused, self.parser.parsed);
        let mark = Mark::start();
        self.parser.update(text);
        let mut diags = self.parser.diagnostics();
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Parse, ns, allocs);
        tr.chunks_reused += self.parser.reused - reused;
        tr.chunks_parsed += self.parser.parsed - parsed;
        if diags.has_errors() {
            return Edit::Rejected;
        }

        let mark = Mark::start();
        let lowered = self.parser.with_program(text, lower_program);
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Lower, ns, allocs);
        diags.extend(lowered.diagnostics.clone());
        if diags.has_errors() {
            return Edit::Rejected;
        }

        let mark = Mark::start();
        let checked = check_program(&lowered.program);
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Typeck, ns, allocs);
        if checked.has_errors() {
            return Edit::Rejected;
        }

        self.eval_settle(tr);
        let checkpoint = self.system.clone();
        let mark = Mark::start();
        let updated = self.system.update(lowered.program);
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Update, ns, allocs);
        if updated.is_err() {
            return Edit::Rejected;
        }
        if let Some(memo) = self.memo.as_mut() {
            let mark = Mark::start();
            memo.on_update(self.system.program(), self.system.version());
            let (ns, allocs) = mark.stop();
            tr.add(Layer::Memo, ns, allocs);
        }
        let old = std::mem::replace(&mut self.source, text.to_string());
        let faults = self.faults;
        self.eval_settle(tr);
        if self.faults > faults {
            self.system = checkpoint;
            self.source = old;
            self.examples = None;
            if let Some(memo) = self.memo.as_mut() {
                *memo = MemoCache::new(self.system.program());
            }
            return Edit::Quarantined;
        }
        self.undo.push(old);
        Edit::Applied
    }

    /// `repairs_at()`: invert the selected leaf's provenance into ranked
    /// repairs, parked for `ApplyRepair`.
    fn manipulate(&mut self, path: &[usize], leaf: usize, value: &str, tr: &mut Tracer) -> Answer {
        self.eval_settle(tr);
        let mark = Mark::start();
        let repairs = self
            .system
            .display()
            .content()
            .and_then(|tree| tree.descendant(path))
            .and_then(|node| node.leaf_with_provenance(leaf))
            .and_then(|(old, prov)| {
                Some(repairs_for(&self.source, prov?, old, &parse_desired(value)))
            })
            .unwrap_or_default();
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Repair, ns, allocs);
        tr.repair_candidates += repairs.len() as u64;
        if repairs.is_empty() {
            return Answer::Refused;
        }
        self.pending_repairs = Some((self.source.clone(), repairs.clone()));
        Answer::Repairs(repairs)
    }

    /// `examples()`: evaluate every live example against the model,
    /// cached per (program version, display generation).
    fn probes(&mut self, tr: &mut Tracer) -> Vec<ExampleProbe> {
        let mark = Mark::start();
        let key = (self.system.version(), self.system.display_generation());
        let probes = match &self.examples {
            Some((cached, probes)) if *cached == key => {
                tr.example_hits += 1;
                probes.clone()
            }
            _ => {
                let probes = evaluate_examples(&self.system, &mut self.scratch);
                self.examples = Some((key, probes.clone()));
                probes
            }
        };
        let (ns, allocs) = mark.stop();
        tr.add(Layer::Examples, ns, allocs);
        probes
    }

    /// `refresh()`: run the system to a stable state, containing faults;
    /// memo sessions render through the (timed) cache.
    fn settle(&mut self, tr: &mut Tracer) {
        let before = self.system.vm_stats();
        self.settle_inner(tr);
        let after = self.system.vm_stats();
        tr.vm_instructions += after.instructions - before.instructions;
        tr.vm_compile_us += after.compile_us - before.compile_us;
        tr.vm_cache_hits += after.cache_hits - before.cache_hits;
        tr.vm_compiles += after.compiles - before.compiles;
    }

    fn settle_inner(&mut self, tr: &mut Tracer) {
        if self.memo.is_none() {
            loop {
                match self.system.run_to_stable() {
                    Ok(_) => return,
                    Err(_) => {
                        self.faults += 1;
                        if matches!(self.system.display(), Display::Invalid) {
                            return;
                        }
                    }
                }
            }
        }
        let budget = self.system.config().max_transitions;
        let mut steps = 0u64;
        let mut contained_overflow = false;
        loop {
            let render_pending = matches!(self.system.display(), Display::Invalid)
                && self.system.queue().is_empty()
                && !self.system.page_stack().is_empty();
            if let (true, Some(memo)) = (render_pending, self.memo.as_mut()) {
                let before = memo.stats();
                let mark = Mark::start();
                memo.begin_render(self.system.store(), self.system.version());
                let (ns, allocs) = mark.stop();
                let mut hook = TimedHook { memo, ns, allocs };
                let rendered = self.system.render_with_hook(&mut hook);
                let (ns, allocs) = (hook.ns, hook.allocs);
                let after = hook.memo.stats();
                tr.memo_hits += after.hits - before.hits;
                tr.memo_misses += after.misses - before.misses;
                tr.memo_uncacheable += after.uncacheable - before.uncacheable;
                tr.add(Layer::Memo, ns, allocs);
                tr.nested_ns += ns;
                tr.nested_allocs += allocs;
                match rendered {
                    Ok(true) => continue,
                    Ok(false) => {}
                    Err(_) => {
                        self.faults += 1;
                        if matches!(self.system.display(), Display::Invalid) {
                            return;
                        }
                        continue;
                    }
                }
            }
            match self.system.step() {
                Ok(StepKind::Stable) => return,
                Ok(_) => {
                    steps += 1;
                    if steps > budget {
                        if contained_overflow {
                            return;
                        }
                        contained_overflow = true;
                        steps = 0;
                        self.system.contain_overflow();
                        self.faults += 1;
                    }
                }
                Err(_) => {
                    self.faults += 1;
                    if matches!(self.system.display(), Display::Invalid) {
                        return;
                    }
                }
            }
        }
    }
}

/// An open `core.eval` span, remembering how much memo time had been
/// recorded when it opened.
struct EvalMark {
    mark: Mark,
    nested_ns: u64,
    nested_allocs: u64,
}

impl EvalMark {
    fn start(tr: &Tracer) -> EvalMark {
        EvalMark {
            nested_ns: tr.nested_ns,
            nested_allocs: tr.nested_allocs,
            mark: Mark::start(),
        }
    }

    fn stop(self, tr: &mut Tracer) {
        let (ns, allocs) = self.mark.stop();
        let nested_ns = tr.nested_ns - self.nested_ns;
        let nested_allocs = tr.nested_allocs - self.nested_allocs;
        tr.add(
            Layer::Eval,
            ns.saturating_sub(nested_ns),
            allocs.saturating_sub(nested_allocs),
        );
    }
}

/// Evaluate every `example` item of the running program against its
/// model, on the VM when the program compiled to bytecode.
fn evaluate_examples(system: &System, scratch: &mut Scratch) -> Vec<ExampleProbe> {
    let program = system.program();
    let config = system.config();
    let vmp = (config.engine == alive_core::system::EvalEngine::Vm)
        .then(|| program.vm())
        .flatten();
    let mut eval = |index: usize, expect: bool| {
        if let Some(run) = vmp.as_ref().and_then(|vmp| {
            vm::run_example(
                vmp,
                scratch,
                system.store(),
                system.version(),
                config.fuel,
                index,
                expect,
            )
        }) {
            return run.result;
        }
        let def = &program.examples()[index];
        let expr = match (&def.expect, expect) {
            (Some(expected), true) => expected,
            _ => &def.body,
        };
        bigstep::run_pure(program, system.store(), system.version(), config.fuel, expr)
            .map(|(v, _)| v)
    };
    let mut out = Vec::with_capacity(program.examples().len());
    for (index, def) in program.examples().iter().enumerate() {
        let name = def.name.to_string();
        let probe = match eval(index, false) {
            Err(e) => ExampleProbe {
                name,
                value: e.to_string(),
                status: ProbeStatus::Fault,
            },
            Ok(value) => {
                let rendered = value.display_text();
                match &def.expect {
                    None => ExampleProbe {
                        name,
                        value: rendered,
                        status: ProbeStatus::Value,
                    },
                    Some(_) => match eval(index, true) {
                        Err(e) => ExampleProbe {
                            name,
                            value: e.to_string(),
                            status: ProbeStatus::Fault,
                        },
                        Ok(expected) if expected == value => ExampleProbe {
                            name,
                            value: rendered,
                            status: ProbeStatus::Pass,
                        },
                        Ok(expected) => ExampleProbe {
                            name,
                            value: rendered,
                            status: ProbeStatus::Fail {
                                expected: expected.display_text(),
                            },
                        },
                    },
                }
            }
        };
        out.push(probe);
    }
    out
}
