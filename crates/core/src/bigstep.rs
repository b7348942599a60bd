//! The reference evaluator: an environment/closure interpreter.
//!
//! This is the efficient refinement of the paper's small-step semantics
//! (Fig. 8); [`crate::smallstep`] implements the substitution machine
//! verbatim and the two are cross-checked by tests and the E7 ablation
//! bench. The production engine is the bytecode VM ([`crate::vm`]),
//! differentially tested against this one; a system runs this
//! evaluator only under [`crate::system::EvalEngine::Bigstep`]. The
//! evaluator runs in one of the three modes and *dynamically* refuses
//! wrong-mode operations, witnessing the static effect discipline: for
//! type-checked programs the dynamic checks never fire.
//!
//! There is one entry point per kind of run: [`run_pure`] for a live
//! example, and [`transition_state`], [`transition_thunk`] and
//! [`transition_render`] for Fig. 9's PUSH, THUNK and RENDER. Each
//! reports its cost even when the run fails and takes the render hook,
//! `remember` slots and fault injector as options (`None` when a caller
//! has none); all four start their run with one constructor.

use crate::boxtree::{BoxItem, BoxNode};
use crate::error::RuntimeError;
use crate::event::{Event, EventQueue};
use crate::expr::{Expr, ExprKind};
use crate::fault::FaultInjector;
use crate::prim::PrimCtx;
use crate::program::Program;
use crate::provenance::Provenance;
use crate::store::{Store, StoreView};
use crate::types::{Effect, Name};
use crate::value::{collect_env, CapturedEnv, Closure, Value};
use alive_syntax::ast::{BinOp, UnOp};
use std::fmt::Write as _;
use std::sync::Arc;

/// Default step budget for one transition's worth of evaluation.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Deterministic cost accounting for one or more evaluation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Expression evaluation steps taken.
    pub steps: u64,
    /// Boxes created by `boxed`.
    pub boxes_created: u64,
    /// Boxes spliced from the reuse cache instead of re-evaluated.
    pub boxes_reused: u64,
    /// Leaves posted by `post`.
    pub posts: u64,
    /// Simulated external latency and request counts.
    pub prim: PrimCtx,
}

impl Cost {
    /// Merge another cost record into this one.
    pub fn absorb(&mut self, other: Cost) {
        self.steps += other.steps;
        self.boxes_created += other.boxes_created;
        self.boxes_reused += other.boxes_reused;
        self.posts += other.posts;
        self.prim.simulated_ms += other.prim.simulated_ms;
        self.prim.web_requests += other.prim.web_requests;
    }
}

/// One local scope frame.
type Frame = Vec<(Name, Value)>;

/// The evaluator. Construct one per run via the `run_pure` and
/// `transition_*` entry points.
pub(crate) struct Evaluator<'a> {
    program: &'a Program,
    store: StoreView<'a>,
    queue: Option<&'a mut EventQueue>,
    mode: Effect,
    /// Render frames; `boxes[0]` is the implicit top-level box.
    boxes: Vec<BoxNode>,
    scopes: Vec<Frame>,
    fuel: u64,
    /// Code version stamped into closures (for the stale-code invariant).
    version: u64,
    cost: Cost,
    /// Optional interception of `boxed` evaluation (render runs only).
    hook: Option<&'a mut dyn RenderHook>,
    /// View-state slots (`remember`), when the host supplies them.
    widgets: Option<&'a mut crate::widget::WidgetStore>,
    /// Optional deterministic fault injection (primitive failures).
    faults: Option<&'a mut dyn FaultInjector>,
}

/// Interception points around `boxed` evaluation, used by the paper's
/// §5 box-tree reuse optimization ("reuse box tree elements that have
/// not changed").
pub trait RenderHook {
    /// Called by [`crate::system::System`] before each RENDER it
    /// evaluates through this hook, with the store and code version the
    /// frame renders against. Does nothing by default, so a wrapper
    /// around a cache that its owner already prepared adds no second
    /// preparation.
    fn begin_render(&mut self, _store: &Store, _version: u64) {}

    /// Called when entering `boxed e`. Returning `Some((node, value))`
    /// skips evaluating the body and splices the cached subtree in —
    /// an O(1) pointer copy, since children are `Arc`-shared.
    /// `locals` is the visible local environment, outermost first.
    fn enter_boxed(
        &mut self,
        id: crate::expr::BoxSourceId,
        locals: &[(Name, Value)],
    ) -> Option<(Arc<BoxNode>, Value)>;

    /// Called after a `boxed` body evaluated to `node` / `value`, so the
    /// hook can populate its cache. The node is already shared; caching
    /// it keeps the subtree pointer-identical on future splices.
    fn after_boxed(
        &mut self,
        id: crate::expr::BoxSourceId,
        locals: &[(Name, Value)],
        node: &Arc<BoxNode>,
        value: &Value,
    );
}

/// Evaluate `expr` in pure mode (`→p`): reads code and store only.
///
/// # Errors
///
/// Returns [`RuntimeError`] on divergence (fuel), partial primitives, or
/// — for programs that bypassed the type checker — dynamic type/effect
/// violations.
pub fn run_pure(
    program: &Program,
    store: &Store,
    version: u64,
    fuel: u64,
    expr: &Expr,
) -> Result<(Value, Cost), RuntimeError> {
    let mut ev = Evaluator::new(
        program,
        StoreView::Ref(store),
        Effect::Pure,
        Vec::new(),
        fuel,
        version,
    );
    let value = ev.eval(expr)?;
    Ok((value, ev.cost))
}

/// Transactional entry point for the PUSH transition's `init` body:
/// evaluate `expr` in state mode (`→s`), which may write globals,
/// enqueue navigation events and, given a
/// [`crate::widget::WidgetStore`], write `remember` slots. `bindings`
/// are the initial locals (page params). The cost is reported even when
/// the run fails (so a contained fault can record the fuel it burned),
/// and an optional [`FaultInjector`] can make primitives fail
/// deterministically.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_state(
    program: &Program,
    store: &mut Store,
    queue: &mut EventQueue,
    version: u64,
    fuel: u64,
    bindings: Vec<(Name, Value)>,
    expr: &Expr,
    widgets: Option<&mut crate::widget::WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + '_)>,
) -> (Result<Value, RuntimeError>, Cost) {
    let mut ev = Evaluator::new(
        program,
        StoreView::Mut(store),
        Effect::State,
        bindings,
        fuel,
        version,
    );
    ev.queue = Some(queue);
    ev.widgets = widgets;
    ev.faults = faults.map(|f| f as &mut dyn FaultInjector);
    let result = ev.eval(expr);
    (result, ev.cost)
}

/// Transactional entry point for the THUNK transition: call a handler
/// thunk `v ()` in state mode, with an optional
/// [`crate::widget::WidgetStore`] so handlers can write `remember`
/// slots. The cost is reported even on failure, and a [`FaultInjector`]
/// can be supplied.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_thunk(
    program: &Program,
    store: &mut Store,
    queue: &mut EventQueue,
    version: u64,
    fuel: u64,
    thunk: &Value,
    args: Vec<Value>,
    widgets: Option<&mut crate::widget::WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + '_)>,
) -> (Result<Value, RuntimeError>, Cost) {
    let mut ev = Evaluator::new(
        program,
        StoreView::Mut(store),
        Effect::State,
        Vec::new(),
        fuel,
        version,
    );
    ev.queue = Some(queue);
    ev.widgets = widgets;
    ev.faults = faults.map(|f| f as &mut dyn FaultInjector);
    let result = ev.apply(thunk.clone(), args, alive_syntax::Span::DUMMY);
    (result, ev.cost)
}

/// Transactional entry point for the RENDER transition: evaluate `expr`
/// in render mode (`→r`), which builds box content and may read but
/// not write the store. Both extras are optional: a [`RenderHook`] (the
/// §5 reuse cache) and a [`crate::widget::WidgetStore`] (the §7
/// `remember` view state, whose occurrence counters the caller resets
/// before each render pass). The cost is reported even on failure, and
/// a [`FaultInjector`] can be supplied.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_render(
    program: &Program,
    store: &Store,
    version: u64,
    fuel: u64,
    bindings: Vec<(Name, Value)>,
    expr: &Expr,
    hook: Option<&mut (dyn RenderHook + '_)>,
    widgets: Option<&mut crate::widget::WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + '_)>,
) -> (Result<BoxNode, RuntimeError>, Cost) {
    let mut ev = Evaluator::new(
        program,
        StoreView::Ref(store),
        Effect::Render,
        bindings,
        fuel,
        version,
    );
    ev.boxes.push(BoxNode::new(None));
    ev.hook = hook.map(|h| h as &mut dyn RenderHook);
    ev.widgets = widgets;
    ev.faults = faults.map(|f| f as &mut dyn FaultInjector);
    let result = ev.eval(expr).and_then(|_| {
        ev.boxes
            .pop()
            .ok_or(RuntimeError::Internal("top-level box frame missing"))
    });
    (result, ev.cost)
}

impl<'a> Evaluator<'a> {
    /// Start a run over `store` in `mode`, with `bindings` as its one
    /// scope and no queue, render frame, hook, widget store or fault
    /// injector: each entry point adds the ones its transition uses.
    fn new(
        program: &'a Program,
        store: StoreView<'a>,
        mode: Effect,
        bindings: Frame,
        fuel: u64,
        version: u64,
    ) -> Self {
        Evaluator {
            program,
            store,
            queue: None,
            mode,
            boxes: Vec::new(),
            scopes: vec![bindings],
            fuel,
            version,
            cost: Cost::default(),
            hook: None,
            widgets: None,
            faults: None,
        }
    }
}

impl Evaluator<'_> {
    /// The innermost open box frame (render mode keeps at least the
    /// implicit top-level frame alive for the whole run).
    fn parent_frame(&mut self) -> Result<&mut BoxNode, RuntimeError> {
        self.boxes
            .last_mut()
            .ok_or(RuntimeError::Internal("render frame missing"))
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.cost.steps += 1;
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Innermost-first local lookup. Names are interned per-program
    /// (`Name = Arc<str>`), so a binding introduced by the same program
    /// as the reference shares its allocation — `Arc::ptr_eq` settles
    /// almost every probe without touching the string bytes. The string
    /// compare remains as the fallback for names that cross program
    /// versions (e.g. closures captured before a live UPDATE).
    fn lookup_local(&self, name: &Name) -> Option<&Value> {
        self.scopes
            .iter()
            .rev()
            .find_map(|f| {
                f.iter()
                    .rev()
                    .find(|(n, _)| Arc::ptr_eq(n, name) || **n == **name)
            })
            .map(|(_, v)| v)
    }

    fn assign_local(&mut self, name: &Name, value: Value) -> Result<(), RuntimeError> {
        for frame in self.scopes.iter_mut().rev() {
            if let Some(slot) = frame
                .iter_mut()
                .rev()
                .find(|(n, _)| Arc::ptr_eq(n, name) || **n == **name)
            {
                slot.1 = value;
                return Ok(());
            }
        }
        Err(RuntimeError::UnknownLocal(name.clone()))
    }

    /// Provenance for the value just produced by `expr`: the literal's
    /// span, or the expression span plus a snapshot of its free locals.
    /// Called *after* the operand is evaluated so the snapshot sees any
    /// local mutations the operand performed — the VM reads the same
    /// registers at the corresponding `PostLeaf`/`SetAttr` instruction.
    fn provenance_of(&self, expr: &Expr) -> Option<Provenance> {
        if crate::provenance::is_literal_expr(expr) {
            return Some(Provenance::Literal(expr.span));
        }
        // Names that do not resolve (impossible once type-checked) are
        // skipped, as the VM compiler skips them.
        let names = crate::provenance::free_locals(expr);
        let found = names
            .iter()
            .filter(|n| self.lookup_local(n).is_some())
            .count();
        let mut pairs = names
            .into_iter()
            .filter_map(|n| self.lookup_local(&n).cloned().map(|v| (n, v)));
        Some(Provenance::Expr {
            span: expr.span,
            env: collect_env(found, || pairs.next()).unwrap_or_default(),
        })
    }

    /// Snapshot all visible bindings for closure capture, outermost
    /// first so later (inner) bindings shadow earlier ones on lookup.
    fn capture_env(&self) -> CapturedEnv {
        let len = self.scopes.iter().map(Vec::len).sum();
        let mut bindings = self.scopes.iter().flatten().cloned();
        collect_env(len, || bindings.next()).unwrap_or_default()
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, RuntimeError> {
        self.tick()?;
        match &expr.kind {
            ExprKind::Num(n) => Ok(Value::Number(*n)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::ColorLit(c) => Ok(Value::Color(*c)),
            ExprKind::Local(name) => self
                .lookup_local(name)
                .cloned()
                .ok_or_else(|| RuntimeError::UnknownLocal(name.clone())),
            ExprKind::Global(name) => match self.store.get(name) {
                Some(v) => Ok(v.clone()),
                // EP-GLOBAL-2: fall back to the initializer in the code.
                None => {
                    let g = self
                        .program
                        .global(name)
                        .ok_or_else(|| RuntimeError::UnknownGlobal(name.clone()))?;
                    let init = g.init.clone();
                    let saved = std::mem::take(&mut self.scopes);
                    let result = self.eval(&init);
                    self.scopes = saved;
                    result
                }
            },
            ExprKind::FunRef(name) => {
                let f = self
                    .program
                    .fun(name)
                    .ok_or_else(|| RuntimeError::UnknownFun(name.clone()))?;
                Ok(Value::Closure(Arc::new(Closure {
                    params: f.params.clone(),
                    effect: f.effect,
                    body: f.body.clone(),
                    env: CapturedEnv::default(),
                    version: self.version,
                })))
            }
            ExprKind::PrimRef(p) => Ok(Value::Prim(*p)),
            ExprKind::Tuple(elems) => {
                let vs: Result<Vec<Value>, _> = elems.iter().map(|e| self.eval(e)).collect();
                Ok(Value::tuple(vs?))
            }
            ExprKind::ListLit(elems) => {
                let vs: Result<Vec<Value>, _> = elems.iter().map(|e| self.eval(e)).collect();
                Ok(Value::list(vs?))
            }
            ExprKind::Proj(base, index) => {
                let v = self.eval(base)?;
                let Value::Tuple(vs) = &v else {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "tuple",
                        found: v.display_text(),
                    });
                };
                let i = *index as usize;
                if i >= 1 && i <= vs.len() {
                    Ok(vs[i - 1].clone())
                } else {
                    Err(RuntimeError::ProjOutOfRange {
                        index: *index,
                        len: vs.len(),
                    })
                }
            }
            ExprKind::Call(callee, args) => {
                let f = self.eval(callee)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.apply(f, argv, expr.span)
            }
            ExprKind::Lambda(lam) => Ok(Value::Closure(Arc::new(Closure {
                params: lam.params.clone(),
                effect: lam.effect,
                body: lam.body.clone(),
                env: self.capture_env(),
                version: self.version,
            }))),
            ExprKind::Let {
                name, value, body, ..
            } => {
                let v = self.eval(value)?;
                self.scopes.push(vec![(name.clone(), v)]);
                let result = self.eval(body);
                self.scopes.pop();
                result
            }
            ExprKind::Seq(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
            ExprKind::If(c, t, e) => {
                if self.eval_bool(c)? {
                    self.eval(t)
                } else {
                    self.eval(e)
                }
            }
            ExprKind::While(c, body) => {
                while self.eval_bool(c)? {
                    self.eval(body)?;
                }
                Ok(Value::unit())
            }
            ExprKind::ForRange { var, lo, hi, body } => {
                let lo = self.eval_number(lo)?;
                let hi = self.eval_number(hi)?;
                let mut i = lo;
                while i < hi {
                    self.scopes.push(vec![(var.clone(), Value::Number(i))]);
                    let result = self.eval(body);
                    self.scopes.pop();
                    result?;
                    i += 1.0;
                }
                Ok(Value::unit())
            }
            ExprKind::Foreach { var, list, body } => {
                let v = self.eval(list)?;
                let Value::List(items) = &v else {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "list",
                        found: v.display_text(),
                    });
                };
                for item in items.iter() {
                    self.scopes.push(vec![(var.clone(), item.clone())]);
                    let result = self.eval(body);
                    self.scopes.pop();
                    result?;
                }
                Ok(Value::unit())
            }
            ExprKind::LocalAssign(name, value) => {
                let v = self.eval(value)?;
                self.assign_local(name, v)?;
                Ok(Value::unit())
            }
            ExprKind::GlobalAssign(name, value) => {
                // ES-ASSIGN: state mode only.
                if self.mode != Effect::State {
                    return Err(RuntimeError::EffectViolation {
                        op: "g := e",
                        mode: self.mode,
                    });
                }
                if self.program.global(name).is_none() {
                    return Err(RuntimeError::UnknownGlobal(name.clone()));
                }
                let v = self.eval(value)?;
                self.store
                    .set(name, v)
                    .map_err(|()| RuntimeError::EffectViolation {
                        op: "g := e",
                        mode: self.mode,
                    })?;
                Ok(Value::unit())
            }
            ExprKind::PushPage(name, args) => {
                // ES-PUSH: state mode only; enqueues the event.
                if self.mode != Effect::State {
                    return Err(RuntimeError::EffectViolation {
                        op: "push",
                        mode: self.mode,
                    });
                }
                if self.program.page(name).is_none() {
                    return Err(RuntimeError::UnknownPage(name.clone()));
                }
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                let queue = self
                    .queue
                    .as_deref_mut()
                    .ok_or(RuntimeError::EffectViolation {
                        op: "push",
                        mode: Effect::Render,
                    })?;
                queue.enqueue(Event::Push(name.clone(), Value::tuple(argv)));
                Ok(Value::unit())
            }
            ExprKind::PopPage => {
                // ES-POP: state mode only; enqueues the event.
                if self.mode != Effect::State {
                    return Err(RuntimeError::EffectViolation {
                        op: "pop",
                        mode: self.mode,
                    });
                }
                let queue = self
                    .queue
                    .as_deref_mut()
                    .ok_or(RuntimeError::EffectViolation {
                        op: "pop",
                        mode: Effect::Render,
                    })?;
                queue.enqueue(Event::Pop);
                Ok(Value::unit())
            }
            ExprKind::Boxed(id, body) => {
                // ER-BOXED: evaluate the body into a fresh box.
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(RuntimeError::EffectViolation {
                        op: "boxed",
                        mode: self.mode,
                    });
                }
                // Give the render hook (the §5 reuse optimization) a
                // chance to supply a cached subtree.
                if self.hook.is_some() {
                    let locals = self.capture_env();
                    let cached = match self.hook.as_deref_mut() {
                        Some(hook) => hook.enter_boxed(*id, &locals),
                        None => None,
                    };
                    if let Some((node, value)) = cached {
                        self.cost.boxes_reused += node.box_count() as u64;
                        self.parent_frame()?.items.push(BoxItem::Child(node));
                        return Ok(value);
                    }
                }
                self.cost.boxes_created += 1;
                self.boxes.push(BoxNode::new(Some(*id)));
                let result = self.eval(body);
                let node = self
                    .boxes
                    .pop()
                    .ok_or(RuntimeError::Internal("boxed frame missing"))?;
                let value = result?;
                // Share the finished subtree once; the hook caches the
                // same Arc it will splice back, keeping reused subtrees
                // pointer-identical across frames.
                let node = Arc::new(node);
                if self.hook.is_some() {
                    let locals = self.capture_env();
                    if let Some(hook) = self.hook.as_deref_mut() {
                        hook.after_boxed(*id, &locals, &node, &value);
                    }
                }
                self.parent_frame()?.items.push(BoxItem::Child(node));
                Ok(value)
            }
            ExprKind::Post(value) => {
                // ER-POST.
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(RuntimeError::EffectViolation {
                        op: "post",
                        mode: self.mode,
                    });
                }
                let v = self.eval(value)?;
                let prov = self.provenance_of(value);
                self.cost.posts += 1;
                self.parent_frame()?.items.push(BoxItem::Leaf(v, prov));
                Ok(Value::unit())
            }
            ExprKind::SetAttr(attr, value) => {
                // ER-ATTR.
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(RuntimeError::EffectViolation {
                        op: "box.a := e",
                        mode: self.mode,
                    });
                }
                let v = self.eval(value)?;
                let prov = self.provenance_of(value);
                self.parent_frame()?
                    .items
                    .push(BoxItem::Attr(*attr, v, prov));
                Ok(Value::unit())
            }
            ExprKind::Remember {
                id,
                name,
                init,
                body,
                ..
            } => {
                if self.mode != Effect::Render {
                    return Err(RuntimeError::EffectViolation {
                        op: "remember",
                        mode: self.mode,
                    });
                }
                let Some(widgets) = self.widgets.as_deref_mut() else {
                    return Err(RuntimeError::EffectViolation {
                        op: "remember (no widget store)",
                        mode: self.mode,
                    });
                };
                let key = widgets.next_key(*id);
                if !widgets.contains(key) {
                    let initial = self.eval(init)?;
                    if let Some(widgets) = self.widgets.as_deref_mut() {
                        widgets.set(key, initial);
                    }
                }
                self.scopes
                    .push(vec![(name.clone(), Value::WidgetRef(key))]);
                let result = self.eval(body);
                self.scopes.pop();
                result
            }
            ExprKind::WidgetRead(name) => {
                let key = self.widget_key_of(name)?;
                let widgets = self
                    .widgets
                    .as_deref()
                    .ok_or(RuntimeError::EffectViolation {
                        op: "widget read (no widget store)",
                        mode: self.mode,
                    })?;
                widgets
                    .get(key)
                    .cloned()
                    .ok_or_else(|| RuntimeError::UnknownLocal(name.clone()))
            }
            ExprKind::WidgetWrite(name, value) => {
                if self.mode != Effect::State {
                    return Err(RuntimeError::EffectViolation {
                        op: "widget write",
                        mode: self.mode,
                    });
                }
                let key = self.widget_key_of(name)?;
                let v = self.eval(value)?;
                let widgets = self
                    .widgets
                    .as_deref_mut()
                    .ok_or(RuntimeError::EffectViolation {
                        op: "widget write (no widget store)",
                        mode: self.mode,
                    })?;
                widgets.set(key, v);
                Ok(Value::unit())
            }
            ExprKind::Binary(op, lhs, rhs) => {
                // Short-circuit logic first.
                match op {
                    BinOp::And => {
                        return Ok(Value::Bool(self.eval_bool(lhs)? && self.eval_bool(rhs)?))
                    }
                    BinOp::Or => {
                        return Ok(Value::Bool(self.eval_bool(lhs)? || self.eval_bool(rhs)?))
                    }
                    _ => {}
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                apply_binop(*op, &l, &r)
            }
            ExprKind::Unary(op, inner) => match op {
                UnOp::Neg => Ok(Value::Number(-self.eval_number(inner)?)),
                UnOp::Not => Ok(Value::Bool(!self.eval_bool(inner)?)),
            },
        }
    }

    /// Resolve a widget-bound local name to its slot key.
    fn widget_key_of(&self, name: &Name) -> Result<crate::widget::WidgetKey, RuntimeError> {
        match self.lookup_local(name) {
            Some(Value::WidgetRef(key)) => Ok(*key),
            Some(other) => Err(RuntimeError::TypeMismatch {
                expected: "widget slot reference",
                found: other.display_text(),
            }),
            None => Err(RuntimeError::UnknownLocal(name.clone())),
        }
    }

    fn eval_bool(&mut self, expr: &Expr) -> Result<bool, RuntimeError> {
        match self.eval(expr)? {
            Value::Bool(b) => Ok(b),
            v => Err(RuntimeError::TypeMismatch {
                expected: "bool",
                found: v.display_text(),
            }),
        }
    }

    fn eval_number(&mut self, expr: &Expr) -> Result<f64, RuntimeError> {
        match self.eval(expr)? {
            Value::Number(n) => Ok(n),
            v => Err(RuntimeError::TypeMismatch {
                expected: "number",
                found: v.display_text(),
            }),
        }
    }

    fn apply(
        &mut self,
        f: Value,
        args: Vec<Value>,
        span: alive_syntax::Span,
    ) -> Result<Value, RuntimeError> {
        let _ = span;
        self.tick()?;
        match f {
            Value::Closure(c) => {
                if c.params.len() != args.len() {
                    return Err(RuntimeError::ArityMismatch {
                        expected: c.params.len(),
                        found: args.len(),
                    });
                }
                // Enter the closure's environment: captured bindings plus
                // parameters. The caller's locals are not visible.
                let mut frame: Frame = c.env.to_vec();
                frame.extend(c.params.iter().zip(args).map(|(p, v)| (p.name.clone(), v)));
                let saved = std::mem::replace(&mut self.scopes, vec![frame]);
                let result = self.eval(&c.body);
                self.scopes = saved;
                result
            }
            Value::Prim(p) => {
                if let Some(injector) = self.faults.as_deref_mut() {
                    if let Some(err) = injector.before_prim(p) {
                        return Err(err.into());
                    }
                }
                let v = p.apply(&args, &mut self.cost.prim)?;
                Ok(v)
            }
            other => Err(RuntimeError::NotAFunction(other.display_text())),
        }
    }
}

/// Append the display text of one `++` operand to `out`: the writer
/// behind both `apply_binop`'s `Concat` and the VM's n-ary `Concat`, so
/// every engine builds the same bytes. Only strings, numbers, bools and
/// colors concatenate.
pub(crate) fn push_concat_operand(out: &mut String, v: &Value) -> Result<(), RuntimeError> {
    match v {
        Value::Str(s) => out.push_str(s),
        Value::Number(_) | Value::Bool(_) | Value::Color(_) => {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{v}");
        }
        other => {
            return Err(RuntimeError::TypeMismatch {
                expected: "string, number, bool, or color",
                found: other.display_text(),
            })
        }
    }
    Ok(())
}

/// Apply a (non-short-circuit) binary operator to values.
pub fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    let num = |v: &Value| match v {
        Value::Number(n) => Ok(*n),
        other => Err(RuntimeError::TypeMismatch {
            expected: "number",
            found: other.display_text(),
        }),
    };
    Ok(match op {
        Add => Value::Number(num(l)? + num(r)?),
        Sub => Value::Number(num(l)? - num(r)?),
        Mul => Value::Number(num(l)? * num(r)?),
        Div => Value::Number(num(l)? / num(r)?),
        Mod => Value::Number(num(l)?.rem_euclid(num(r)?)),
        Concat => {
            let mut text = String::new();
            push_concat_operand(&mut text, l)?;
            push_concat_operand(&mut text, r)?;
            Value::Str(Arc::from(text))
        }
        Eq => Value::Bool(l == r),
        Ne => Value::Bool(l != r),
        Lt => compare(l, r, std::cmp::Ordering::is_lt)?,
        Le => compare(l, r, std::cmp::Ordering::is_le)?,
        Gt => compare(l, r, std::cmp::Ordering::is_gt)?,
        Ge => compare(l, r, std::cmp::Ordering::is_ge)?,
        And => {
            let (a, b) = bools(l, r)?;
            Value::Bool(a && b)
        }
        Or => {
            let (a, b) = bools(l, r)?;
            Value::Bool(a || b)
        }
    })
}

/// An ordering operator over two numbers or two strings: whether their
/// ordering `holds`. NaN comparisons are false, as in IEEE.
fn compare(
    l: &Value,
    r: &Value,
    holds: impl FnOnce(std::cmp::Ordering) -> bool,
) -> Result<Value, RuntimeError> {
    let ordering = match (l, r) {
        (Value::Number(a), Value::Number(b)) => a.partial_cmp(b),
        (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
        _ => {
            return Err(RuntimeError::TypeMismatch {
                expected: "two numbers or two strings",
                found: format!("{} and {}", l.display_text(), r.display_text()),
            })
        }
    };
    Ok(Value::Bool(ordering.is_some_and(holds)))
}

/// The operands of a boolean operator.
fn bools(l: &Value, r: &Value) -> Result<(bool, bool), RuntimeError> {
    match (l, r) {
        (Value::Bool(a), Value::Bool(b)) => Ok((*a, *b)),
        _ => Err(RuntimeError::TypeMismatch {
            expected: "bool",
            found: format!("{} and {}", l.display_text(), r.display_text()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attr;
    use crate::lower::lower_program;
    use crate::typeck::check_program;
    use alive_syntax::parse_program;

    fn compile(src: &str) -> Program {
        let parsed = parse_program(src);
        assert!(parsed.is_ok(), "parse: {}", parsed.diagnostics.render(src));
        let lowered = lower_program(&parsed.program);
        assert!(
            lowered.is_ok(),
            "lower: {}",
            lowered.diagnostics.render(src)
        );
        let ds = check_program(&lowered.program);
        assert!(!ds.has_errors(), "typeck: {ds}");
        lowered.program
    }

    fn eval_fun(program: &Program, name: &str, args: Vec<Value>) -> Value {
        let f = program.fun(name).expect("function exists");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let bindings: Frame = f
            .params
            .iter()
            .zip(args)
            .map(|(p, v)| (p.name.clone(), v))
            .collect();
        let (v, _) = transition_state(
            program,
            &mut store,
            &mut queue,
            0,
            DEFAULT_FUEL,
            bindings,
            &f.body,
            None,
            None,
        );
        v.expect("evaluation succeeds")
    }

    const START: &str = "page start() { render { } }";

    #[test]
    fn arithmetic_and_locals() {
        let p = compile(&format!(
            "fun f(x: number): number pure {{
                 let y = x * 2;
                 let z = y + 1;
                 z - x
             }} {START}"
        ));
        assert_eq!(
            eval_fun(&p, "f", vec![Value::Number(10.0)]),
            Value::Number(11.0)
        );
    }

    #[test]
    fn while_loop_and_local_assign() {
        let p = compile(&format!(
            "fun sum_to(n: number): number pure {{
                 let acc = 0;
                 let i = 1;
                 while i <= n {{
                     acc := acc + i;
                     i := i + 1;
                 }}
                 acc
             }} {START}"
        ));
        assert_eq!(
            eval_fun(&p, "sum_to", vec![Value::Number(100.0)]),
            Value::Number(5050.0)
        );
    }

    #[test]
    fn recursion_through_global_functions() {
        let p = compile(&format!(
            "fun fact(n: number): number pure {{
                 if n <= 1 {{ 1 }} else {{ n * fact(n - 1) }}
             }} {START}"
        ));
        assert_eq!(
            eval_fun(&p, "fact", vec![Value::Number(10.0)]),
            Value::Number(3628800.0)
        );
    }

    #[test]
    fn closures_capture_by_value() {
        let p = compile(&format!(
            "fun f(): number pure {{
                 let x = 1;
                 let add_x = fn(y: number) -> y + x;
                 x := 100;
                 add_x(10)
             }} {START}"
        ));
        // Capture-by-value: the closure sees x = 1.
        assert_eq!(eval_fun(&p, "f", vec![]), Value::Number(11.0));
    }

    #[test]
    fn string_concat_coerces() {
        let p = compile(&format!(
            "fun f(): string pure {{ \"n=\" ++ 42 ++ \", b=\" ++ true }} {START}"
        ));
        assert_eq!(eval_fun(&p, "f", vec![]), Value::str("n=42, b=true"));
    }

    #[test]
    fn state_mode_writes_globals_and_enqueues() {
        let p = compile(
            "global count : number = 0
             page start() {
                 init { count := count + 1; push start(); }
                 render { post count; }
             }",
        );
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        store.set("count", Value::Number(41.0));
        let mut queue = EventQueue::new();
        transition_state(
            &p,
            &mut store,
            &mut queue,
            0,
            DEFAULT_FUEL,
            vec![],
            &page.init,
            None,
            None,
        )
        .0
        .expect("init runs");
        assert_eq!(store.get("count"), Some(&Value::Number(42.0)));
        assert_eq!(queue.len(), 1);
        assert!(matches!(queue.dequeue(), Some(Event::Push(..))));
    }

    #[test]
    fn global_read_falls_back_to_initializer() {
        // EP-GLOBAL-2: reading an unmaterialized global evaluates its init.
        let p = compile(&format!(
            "global base : number = 30 + 12
             fun f(): number pure {{ base }} {START}"
        ));
        assert_eq!(eval_fun(&p, "f", vec![]), Value::Number(42.0));
    }

    #[test]
    fn render_builds_box_tree() {
        let p = compile(
            "global items : list string = [\"a\", \"b\", \"c\"]
             page start() {
                 render {
                     boxed {
                         box.margin := 2;
                         post \"header\";
                     }
                     foreach x in items {
                         boxed { post x; }
                     }
                 }
             }",
        );
        let page = p.page("start").expect("page");
        let store = Store::new();
        let (root, cost) = transition_render(
            &p,
            &store,
            0,
            DEFAULT_FUEL,
            vec![],
            &page.render,
            None,
            None,
            None,
        );
        let root = root.expect("render runs");
        assert_eq!(root.box_count(), 5); // root + header + 3 items
        assert_eq!(cost.boxes_created, 4);
        let header = root.descendant(&[0]).expect("header box");
        assert_eq!(header.attr(Attr::Margin), Some(&Value::Number(2.0)));
        assert_eq!(header.leaves().next(), Some(&Value::str("header")));
        let b = root.descendant(&[2]).expect("second item");
        assert_eq!(b.leaves().next(), Some(&Value::str("b")));
    }

    #[test]
    fn render_cannot_write_globals_dynamically() {
        // Build an ill-effected expression directly (bypassing typeck).
        let p = compile(&format!("global g : number = 0 {START}"));
        let bad = Expr::new(
            ExprKind::GlobalAssign(
                Arc::from("g"),
                Box::new(Expr::new(ExprKind::Num(1.0), alive_syntax::Span::DUMMY)),
            ),
            alive_syntax::Span::DUMMY,
        );
        let store = Store::new();
        let err = transition_render(&p, &store, 0, DEFAULT_FUEL, vec![], &bad, None, None, None)
            .0
            .expect_err("must be refused");
        assert!(matches!(err, RuntimeError::EffectViolation { .. }));
    }

    #[test]
    fn state_cannot_create_boxes_dynamically() {
        let p = compile(START);
        let bad = Expr::new(
            ExprKind::Post(Box::new(Expr::new(
                ExprKind::Num(1.0),
                alive_syntax::Span::DUMMY,
            ))),
            alive_syntax::Span::DUMMY,
        );
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let err = transition_state(
            &p,
            &mut store,
            &mut queue,
            0,
            DEFAULT_FUEL,
            vec![],
            &bad,
            None,
            None,
        )
        .0
        .expect_err("must be refused");
        assert!(matches!(err, RuntimeError::EffectViolation { .. }));
    }

    #[test]
    fn divergence_exhausts_fuel() {
        let p = compile(&format!(
            "fun spin(): () pure {{ while true {{ }} }} {START}"
        ));
        let f = p.fun("spin").expect("fun");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let err = transition_state(
            &p,
            &mut store,
            &mut queue,
            0,
            10_000,
            vec![],
            &f.body,
            None,
            None,
        )
        .0
        .expect_err("must exhaust");
        assert_eq!(err, RuntimeError::FuelExhausted);
    }

    #[test]
    fn handlers_capture_loop_variables() {
        // The paper's listings loop: each entry's tap handler must see its
        // own listing.
        let p = compile(
            "global picked : string = \"\"
             global items : list string = [\"a\", \"b\"]
             page start() {
                 render {
                     foreach x in items {
                         boxed { on tap { picked := x; } }
                     }
                 }
             }",
        );
        let page = p.page("start").expect("page");
        let store = Store::new();
        let root = transition_render(
            &p,
            &store,
            0,
            DEFAULT_FUEL,
            vec![],
            &page.render,
            None,
            None,
            None,
        )
        .0
        .expect("render");
        let second = root.descendant(&[1]).expect("second box");
        let handler = second.attr(Attr::OnTap).expect("handler").clone();
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let (result, _) = transition_thunk(
            &p,
            &mut store,
            &mut queue,
            0,
            DEFAULT_FUEL,
            &handler,
            vec![],
            None,
            None,
        );
        result.expect("tap runs");
        assert_eq!(store.get("picked"), Some(&Value::str("b")));
    }

    #[test]
    fn for_range_iterates_half_open() {
        let p = compile(&format!(
            "fun f(): number pure {{
                 let acc = 0;
                 for i in 0 .. 5 {{ acc := acc + i; }}
                 acc
             }} {START}"
        ));
        assert_eq!(eval_fun(&p, "f", vec![]), Value::Number(10.0));
    }

    #[test]
    fn short_circuit_evaluation() {
        let p = compile(&format!(
            "fun f(): bool pure {{
                 let xs : list number = [];
                 list.is_empty(xs) || list.nth(xs, 0) > 0
             }} {START}"
        ));
        // Without short-circuit, list.nth would raise IndexOutOfRange.
        assert_eq!(eval_fun(&p, "f", vec![]), Value::Bool(true));
    }

    #[test]
    fn boxed_passes_value_through() {
        let p = compile(
            "fun pick(): number render { boxed { post 1; 42 } }
             page start() { render { post pick(); } }",
        );
        let page = p.page("start").expect("page");
        let store = Store::new();
        let root = transition_render(
            &p,
            &store,
            0,
            DEFAULT_FUEL,
            vec![],
            &page.render,
            None,
            None,
            None,
        )
        .0
        .expect("render");
        // The root has one child box and one leaf `42`.
        assert_eq!(root.box_count(), 2);
        assert_eq!(root.leaves().next(), Some(&Value::Number(42.0)));
    }
}
