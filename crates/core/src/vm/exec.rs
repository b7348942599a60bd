//! The bytecode executor: a register machine over [`Scratch`] windows.
//!
//! Each entry point mirrors one of [`crate::bigstep`]'s `transition_*`
//! functions and must be observationally identical to it: same
//! `Result`, same store/queue/widget effects in the same order, same
//! rendered frames byte for byte, and the same `Cost` fields that are
//! part of the semantics (`boxes_created`, `boxes_reused`, `posts`,
//! `prim`). Only `cost.steps`/fuel accounting differs — the VM ticks
//! per instruction rather than per AST node — which is why fault
//! injection for differential testing uses `before_prim`, never fuel
//! throttling.
//!
//! Every entry point returns a [`VmRun`]. An entry the compiled program
//! does not have (an unknown page, bindings that do not match its
//! parameters, a closure from another program version) ends the run
//! with [`RuntimeError::Internal`] before any state is touched; checked
//! programs never produce one, and a system contains it as a fault like
//! any other runtime error. Each entry point builds its run with
//! `Vm::new`, and every frame, the entry's own included, begins in
//! `Vm::enter`.

use std::sync::Arc;

use crate::bigstep::{apply_binop, Cost, RenderHook};
use crate::boxtree::{BoxItem, BoxNode};
use crate::error::RuntimeError;
use crate::event::{Event, EventQueue};
use crate::expr::{BoxSourceId, RememberId};
use crate::fault::FaultInjector;
use crate::store::{Store, StoreView};
use crate::types::{Effect, Name};
use crate::value::{collect_env, CapturedEnv, Closure, Value};
use crate::widget::WidgetStore;

use crate::provenance::Provenance;

use super::arena::Scratch;
use super::{GuardOp, Instr, PageEntry, ProvSpec, Reg, VmProgram};

/// Execution statistics for one VM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions dispatched (every opcode, including fuel-free ones).
    pub instructions: u64,
    /// High-water register-arena bytes on the scratch pool.
    pub arena_bytes: u64,
}

/// Result of one VM transition: the outcome plus cost and VM stats.
#[derive(Debug)]
pub struct VmRun<T> {
    /// The transition result, exactly as bigstep would report it.
    pub result: Result<T, RuntimeError>,
    /// Semantic cost accounting (see [`Cost`]).
    pub cost: Cost,
    /// VM-only execution statistics.
    pub stats: RunStats,
}

/// One in-flight VM run. Field shapes mirror `bigstep::Evaluator` so
/// the two engines see identical host state.
struct Vm<'a> {
    vmp: &'a VmProgram,
    scratch: &'a mut Scratch,
    store: StoreView<'a>,
    queue: Option<&'a mut EventQueue>,
    mode: Effect,
    /// Render frames; `boxes[0]` is the implicit top-level box.
    boxes: Vec<BoxNode>,
    fuel: u64,
    version: u64,
    cost: Cost,
    instructions: u64,
    hook: Option<&'a mut dyn RenderHook>,
    widgets: Option<&'a mut WidgetStore>,
    faults: Option<&'a mut dyn FaultInjector>,
}

const BAD_CODE: RuntimeError = RuntimeError::Internal("vm: malformed bytecode");

/// The fault of an entry the compiled program does not have.
const FOREIGN_ENTRY: RuntimeError =
    RuntimeError::Internal("vm: entry outside the compiled program");

impl<'a> Vm<'a> {
    /// Start a run over `store` in `mode`: a fresh scratch epoch, the
    /// pooled render spine (empty) and no queue, hook, widget store or
    /// fault injector. Each entry point adds the ones its transition
    /// uses.
    fn new(
        vmp: &'a VmProgram,
        scratch: &'a mut Scratch,
        store: StoreView<'a>,
        mode: Effect,
        fuel: u64,
        version: u64,
    ) -> Self {
        scratch.begin();
        let boxes = scratch.take_box_spine();
        Vm {
            vmp,
            scratch,
            store,
            queue: None,
            mode,
            boxes,
            fuel,
            version,
            cost: Cost::default(),
            instructions: 0,
            hook: None,
            widgets: None,
            faults: None,
        }
    }

    /// End the run: return the render spine to the pool and report the
    /// outcome with its cost and VM statistics.
    fn finish<T>(self, result: Result<T, RuntimeError>) -> VmRun<T> {
        let stats = RunStats {
            instructions: self.instructions,
            arena_bytes: self.scratch.hiwater_bytes(),
        };
        self.scratch.return_box_spine(self.boxes);
        VmRun {
            result,
            cost: self.cost,
            stats,
        }
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.cost.steps += 1;
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn parent_frame(&mut self) -> Result<&mut BoxNode, RuntimeError> {
        self.boxes
            .last_mut()
            .ok_or(RuntimeError::Internal("render frame missing"))
    }

    fn get_bool(&self, i: usize) -> Result<bool, RuntimeError> {
        match self.scratch.get(i)? {
            Value::Bool(b) => Ok(*b),
            v => Err(RuntimeError::TypeMismatch {
                expected: "bool",
                found: v.display_text(),
            }),
        }
    }

    fn sym_name(&self, sym: u32) -> Result<&Name, RuntimeError> {
        self.vmp.syms.get(sym as usize).ok_or(BAD_CODE)
    }

    /// Snapshot the `(symbol, register)` pairs `set` of the window at
    /// `base` in one allocation: a closure environment, a provenance
    /// environment, or the locals a render hook keys a box on.
    fn snapshot(&self, base: usize, set: &[(u32, Reg)]) -> Result<CapturedEnv, RuntimeError> {
        let mut pairs = set.iter().map(|&(sym, r)| {
            let name = self.vmp.syms.get(sym as usize)?;
            let v = self.scratch.get(base + r as usize).ok()?;
            Some((name.clone(), v.clone()))
        });
        collect_env(set.len(), || pairs.next().flatten()).ok_or(BAD_CODE)
    }

    /// Materialize a compile-time capture set into bigstep's
    /// `capture_env` shape (outermost first, shadowed included).
    fn capture_locals(&self, base: usize, cap: u32) -> Result<CapturedEnv, RuntimeError> {
        let set = self.vmp.captures.get(cap as usize).ok_or(BAD_CODE)?;
        self.snapshot(base, set)
    }

    /// Materialize a compile-time [`ProvSpec`] into a runtime
    /// [`Provenance`], reading the free-local registers *now* — after
    /// the operand evaluated — to match bigstep's lookup-after-eval
    /// snapshot order.
    fn materialize_prov(&self, base: usize, prov: u32) -> Result<Option<Provenance>, RuntimeError> {
        let spec = self.vmp.provs.get(prov as usize).ok_or(BAD_CODE)?;
        Ok(Some(match spec {
            ProvSpec::Literal(span) => Provenance::Literal(*span),
            ProvSpec::Expr { span, free } => Provenance::Expr {
                span: *span,
                env: self.snapshot(base, free)?,
            },
        }))
    }

    /// Run one chunk in the window at `base` until its `Ret`.
    fn exec(&mut self, chunk_idx: u32, base: usize) -> Result<Value, RuntimeError> {
        let vmp = self.vmp;
        let chunk = vmp.chunks.get(chunk_idx as usize).ok_or(BAD_CODE)?;
        let code = &chunk.code;
        let mut pc = 0usize;
        loop {
            let instr = *code.get(pc).ok_or(BAD_CODE)?;
            pc += 1;
            self.instructions += 1;
            // `Ret` and unconditional `Jump` are fuel-free: neither can
            // form a loop on its own, and charging only value-producing
            // instructions keeps trivial transitions (`render {}`) at
            // bigstep-comparable step counts.
            if !matches!(instr, Instr::Ret { .. } | Instr::Jump { .. }) {
                self.tick()?;
            }
            match instr {
                Instr::Const { dst, k } => {
                    let v = vmp.consts.get(k as usize).ok_or(BAD_CODE)?.clone();
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Move { dst, src } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Global { dst, g } => {
                    let slot = vmp.globals.get(g as usize).ok_or(BAD_CODE)?;
                    let v = match self.store.get(&slot.name) {
                        Some(v) => v.clone(),
                        // EP-GLOBAL-2: fall back to the initializer in
                        // the code, evaluated in an empty scope (a
                        // fresh window, like bigstep's scope swap).
                        None => self.run_init(slot.init_chunk)?,
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::SetGlobal { g, src } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    let slot = vmp.globals.get(g as usize).ok_or(BAD_CODE)?;
                    self.store
                        .set(&slot.name, v)
                        .map_err(|()| RuntimeError::EffectViolation {
                            op: "g := e",
                            mode: self.mode,
                        })?;
                }
                Instr::MakeClosure { dst, l } => {
                    let info = vmp.lambdas.get(l as usize).ok_or(BAD_CODE)?;
                    let v = Value::Closure(Arc::new(Closure {
                        params: info.params.clone(),
                        effect: info.effect,
                        body: info.body.clone(),
                        env: self.snapshot(base, &info.captures)?,
                        version: self.version,
                    }));
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::MakeTuple { dst, base: b, len } => {
                    let vs = self
                        .scratch
                        .slice(base + b as usize, len as usize)?
                        .to_vec();
                    self.scratch.set(base + dst as usize, Value::tuple(vs))?;
                }
                Instr::MakeList { dst, base: b, len } => {
                    let vs = self
                        .scratch
                        .slice(base + b as usize, len as usize)?
                        .to_vec();
                    self.scratch.set(base + dst as usize, Value::list(vs))?;
                }
                Instr::Flatten { dst, base: b, len } => {
                    let parts = self.scratch.slice(base + b as usize, len as usize)?;
                    let mut joined = Vec::new();
                    for part in parts {
                        match part {
                            Value::Tuple(vs) | Value::List(vs) => joined.extend(vs.iter().cloned()),
                            _ => return Err(BAD_CODE),
                        }
                    }
                    let v = match parts.first() {
                        Some(Value::Tuple(_)) => Value::tuple(joined),
                        _ => Value::list(joined),
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Proj { dst, src, index } => {
                    let v = match self.scratch.get(base + src as usize)? {
                        Value::Tuple(vs) => {
                            let i = index as usize;
                            match vs.get(i.wrapping_sub(1)) {
                                Some(v) if i >= 1 => v.clone(),
                                _ => {
                                    return Err(RuntimeError::ProjOutOfRange {
                                        index,
                                        len: vs.len(),
                                    })
                                }
                            }
                        }
                        v => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "tuple",
                                found: v.display_text(),
                            })
                        }
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Call {
                    dst,
                    callee,
                    base: b,
                    argc,
                } => {
                    let f = self.scratch.get(base + callee as usize)?.clone();
                    let v = self.call_value(f, base + b as usize, argc)?;
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::CallFun {
                    dst,
                    l,
                    base: b,
                    argc,
                } => {
                    let v = self.call_lambda(l, base + b as usize, argc, None)?;
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfFalse { cond, to } => {
                    if !self.get_bool(base + cond as usize)? {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfTrue { cond, to } => {
                    if self.get_bool(base + cond as usize)? {
                        pc = to as usize;
                    }
                }
                Instr::CheckBool { src } => {
                    self.get_bool(base + src as usize)?;
                }
                Instr::CheckNum { src } => match self.scratch.get(base + src as usize)? {
                    Value::Number(_) => {}
                    v => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "number",
                            found: v.display_text(),
                        })
                    }
                },
                Instr::Bin { op, dst, a, b } => {
                    let v = {
                        let av = self.scratch.get(base + a as usize)?;
                        let bv = self.scratch.get(base + b as usize)?;
                        apply_binop(op, av, bv)?
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Concat { dst, ops } => {
                    let ops = vmp.concats.get(ops as usize).ok_or(BAD_CODE)?;
                    // The dispatch above paid for the chain's first `++`.
                    for _ in 2..ops.len() {
                        self.instructions += 1;
                        self.tick()?;
                    }
                    let text = self.scratch.concat(base, ops)?;
                    self.scratch.set(base + dst as usize, Value::Str(text))?;
                }
                Instr::Neg { dst, src } => {
                    let v = match self.scratch.get(base + src as usize)? {
                        Value::Number(n) => Value::Number(-n),
                        v => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "number",
                                found: v.display_text(),
                            })
                        }
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Not { dst, src } => {
                    let v = Value::Bool(!self.get_bool(base + src as usize)?);
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::IterNext {
                    list,
                    idx,
                    var,
                    exit,
                } => {
                    let i = match self.scratch.get(base + idx as usize)? {
                        Value::Number(n) => *n,
                        _ => return Err(BAD_CODE),
                    };
                    let item = match self.scratch.get(base + list as usize)? {
                        Value::List(items) => items.get(i as usize).cloned(),
                        v => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "list",
                                found: v.display_text(),
                            })
                        }
                    };
                    match item {
                        Some(v) => {
                            self.scratch.set(base + var as usize, v)?;
                            self.scratch
                                .set(base + idx as usize, Value::Number(i + 1.0))?;
                        }
                        None => pc = exit as usize,
                    }
                }
                Instr::Guard { op } => self.guard(op)?,
                Instr::GuardWidget { src, key } => {
                    if self.mode != Effect::State {
                        return Err(RuntimeError::EffectViolation {
                            op: "widget write",
                            mode: self.mode,
                        });
                    }
                    let k = match self.scratch.get(base + src as usize)? {
                        Value::WidgetRef(k) => *k,
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "widget slot reference",
                                found: other.display_text(),
                            })
                        }
                    };
                    self.scratch.set(base + key as usize, Value::WidgetRef(k))?;
                }
                Instr::PushEvent {
                    page,
                    base: b,
                    argc,
                } => {
                    let name = vmp.page_names.get(page as usize).ok_or(BAD_CODE)?.clone();
                    let argv = self
                        .scratch
                        .slice(base + b as usize, argc as usize)?
                        .to_vec();
                    let queue = self
                        .queue
                        .as_deref_mut()
                        .ok_or(RuntimeError::EffectViolation {
                            op: "push",
                            mode: Effect::Render,
                        })?;
                    queue.enqueue(Event::Push(name, Value::tuple(argv)));
                }
                Instr::PopEvent => {
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
                }
                Instr::BoxEnter { id, cap, dst, skip } => {
                    // ER-BOXED, including the §5 reuse-hook splice.
                    if self.mode != Effect::Render || self.boxes.is_empty() {
                        return Err(RuntimeError::EffectViolation {
                            op: "boxed",
                            mode: self.mode,
                        });
                    }
                    let bid = BoxSourceId(id);
                    if self.hook.is_some() {
                        let locals = self.capture_locals(base, cap)?;
                        let cached = match self.hook.as_deref_mut() {
                            Some(hook) => hook.enter_boxed(bid, &locals),
                            None => None,
                        };
                        if let Some((node, value)) = cached {
                            self.cost.boxes_reused += node.box_count() as u64;
                            self.parent_frame()?.items.push(BoxItem::Child(node));
                            self.scratch.set(base + dst as usize, value)?;
                            pc = skip as usize;
                            continue;
                        }
                    }
                    self.cost.boxes_created += 1;
                    self.boxes.push(BoxNode::new(Some(bid)));
                }
                Instr::BoxExit { id, cap, src } => {
                    let node = self
                        .boxes
                        .pop()
                        .ok_or(RuntimeError::Internal("boxed frame missing"))?;
                    let value = self.scratch.get(base + src as usize)?.clone();
                    let node = Arc::new(node);
                    if self.hook.is_some() {
                        let locals = self.capture_locals(base, cap)?;
                        if let Some(hook) = self.hook.as_deref_mut() {
                            hook.after_boxed(BoxSourceId(id), &locals, &node, &value);
                        }
                    }
                    self.parent_frame()?.items.push(BoxItem::Child(node));
                }
                Instr::PostLeaf { src, prov } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    let p = self.materialize_prov(base, prov)?;
                    self.cost.posts += 1;
                    self.parent_frame()?.items.push(BoxItem::Leaf(v, p));
                }
                Instr::SetAttr { attr, src, prov } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    let p = self.materialize_prov(base, prov)?;
                    self.parent_frame()?.items.push(BoxItem::Attr(attr, v, p));
                }
                Instr::RememberBind { dst, id, done } => {
                    if self.mode != Effect::Render {
                        return Err(RuntimeError::EffectViolation {
                            op: "remember",
                            mode: self.mode,
                        });
                    }
                    let mode = self.mode;
                    let widgets =
                        self.widgets
                            .as_deref_mut()
                            .ok_or(RuntimeError::EffectViolation {
                                op: "remember (no widget store)",
                                mode,
                            })?;
                    let key = widgets.next_key(RememberId(id));
                    let exists = widgets.contains(key);
                    self.scratch
                        .set(base + dst as usize, Value::WidgetRef(key))?;
                    if exists {
                        pc = done as usize;
                    }
                }
                Instr::RememberInit { key, src } => {
                    let k = match self.scratch.get(base + key as usize)? {
                        Value::WidgetRef(k) => *k,
                        _ => return Err(BAD_CODE),
                    };
                    let v = self.scratch.get(base + src as usize)?.clone();
                    if let Some(widgets) = self.widgets.as_deref_mut() {
                        widgets.set(k, v);
                    }
                }
                Instr::WidgetGet { dst, src, name } => {
                    let k = match self.scratch.get(base + src as usize)? {
                        Value::WidgetRef(k) => *k,
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "widget slot reference",
                                found: other.display_text(),
                            })
                        }
                    };
                    let mode = self.mode;
                    let widgets = self
                        .widgets
                        .as_deref()
                        .ok_or(RuntimeError::EffectViolation {
                            op: "widget read (no widget store)",
                            mode,
                        })?;
                    let v = match widgets.get(k) {
                        Some(v) => v.clone(),
                        None => {
                            let n = self.sym_name(name)?.clone();
                            return Err(RuntimeError::UnknownLocal(n));
                        }
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::WidgetSet { key, val } => {
                    let k = match self.scratch.get(base + key as usize)? {
                        Value::WidgetRef(k) => *k,
                        _ => return Err(BAD_CODE),
                    };
                    let v = self.scratch.get(base + val as usize)?.clone();
                    let mode = self.mode;
                    let widgets =
                        self.widgets
                            .as_deref_mut()
                            .ok_or(RuntimeError::EffectViolation {
                                op: "widget write (no widget store)",
                                mode,
                            })?;
                    widgets.set(k, v);
                }
                Instr::Ret { src } => {
                    return Ok(self.scratch.get(base + src as usize)?.clone());
                }
            }
        }
    }

    /// Hoisted effect-mode checks (run before operand evaluation, like
    /// bigstep's check-then-evaluate order).
    fn guard(&mut self, op: GuardOp) -> Result<(), RuntimeError> {
        let violation = |op| RuntimeError::EffectViolation {
            op,
            mode: self.mode,
        };
        match op {
            GuardOp::AssignGlobal => {
                if self.mode != Effect::State {
                    return Err(violation("g := e"));
                }
            }
            GuardOp::Push => {
                if self.mode != Effect::State {
                    return Err(violation("push"));
                }
            }
            GuardOp::Post => {
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(violation("post"));
                }
            }
            GuardOp::Attr => {
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(violation("box.a := e"));
                }
            }
        }
        Ok(())
    }

    /// Run a global's initializer chunk in an empty scope.
    fn run_init(&mut self, init_chunk: u32) -> Result<Value, RuntimeError> {
        self.enter(init_chunk, |_, _| Ok(()))
    }

    /// Apply a first-class callable to `argc` arguments already
    /// evaluated into registers `args_at..` — bigstep's `apply`.
    fn call_value(&mut self, f: Value, args_at: usize, argc: u16) -> Result<Value, RuntimeError> {
        self.tick()?;
        match f {
            Value::Closure(c) => {
                if c.params.len() != argc as usize {
                    return Err(RuntimeError::ArityMismatch {
                        expected: c.params.len(),
                        found: argc as usize,
                    });
                }
                // Closures made by this program version always resolve
                // (every lambda body is registered at compile time); a
                // miss means a cross-version closure leaked past the
                // entry pre-checks, which arrow-free store/page/widget
                // types rule out for checked programs.
                let l = self
                    .vmp
                    .lambda_for(&c.body)
                    .ok_or(RuntimeError::Internal("vm: foreign closure"))?;
                self.call_lambda(l, args_at, argc, Some(&c.env))
            }
            other => self.apply_non_closure(&other, args_at, argc),
        }
    }

    /// Apply a callable that is not a closure to `argc` arguments in
    /// registers `args_at..`: a primitive, once the fault injector lets
    /// it run, or a `NotAFunction` refusal. `call_value` and
    /// `run_thunk` share it.
    fn apply_non_closure(
        &mut self,
        f: &Value,
        args_at: usize,
        argc: u16,
    ) -> Result<Value, RuntimeError> {
        match f {
            Value::Prim(p) => {
                if let Some(injector) = self.faults.as_deref_mut() {
                    if let Some(err) = injector.before_prim(*p) {
                        return Err(err.into());
                    }
                }
                let args = self.scratch.slice(args_at, argc as usize)?;
                Ok(p.apply(args, &mut self.cost.prim)?)
            }
            other => Err(RuntimeError::NotAFunction(other.display_text())),
        }
    }

    /// Invoke compiled lambda `l`: a frame seeded with env then args.
    fn call_lambda(
        &mut self,
        l: u32,
        args_at: usize,
        argc: u16,
        env: Option<&[(Name, Value)]>,
    ) -> Result<Value, RuntimeError> {
        let vmp = self.vmp;
        let info = vmp.lambdas.get(l as usize).ok_or(BAD_CODE)?;
        let chunk = vmp.chunks.get(info.chunk as usize).ok_or(BAD_CODE)?;
        let env_len = chunk.env_len as usize;
        let env = env.unwrap_or_default();
        if env.len() != env_len || argc != chunk.params {
            // The chunk's frame layout disagrees with the closure —
            // only possible for a foreign (cross-version) closure whose
            // captured environment has a different shape.
            return Err(RuntimeError::Internal("vm: foreign closure"));
        }
        self.enter(info.chunk, |scratch, base| {
            for (i, (_, v)) in env.iter().enumerate() {
                scratch.set(base + i, v.clone())?;
            }
            for i in 0..argc as usize {
                let v = scratch.get(args_at + i)?.clone();
                scratch.set(base + env_len + i, v)?;
            }
            Ok(())
        })
    }

    /// Begin a frame: push a window of `chunk_idx`'s registers, let
    /// `seed` fill its leading registers (given the window's base), run
    /// the chunk until its `Ret`, and pop the window. Every call, global
    /// initializer and entry body runs through here.
    fn enter(
        &mut self,
        chunk_idx: u32,
        seed: impl FnOnce(&mut Scratch, usize) -> Result<(), RuntimeError>,
    ) -> Result<Value, RuntimeError> {
        let chunk = self.vmp.chunks.get(chunk_idx as usize).ok_or(BAD_CODE)?;
        let base = self.scratch.push_window(chunk.regs);
        let result = seed(self.scratch, base).and_then(|()| self.exec(chunk_idx, base));
        self.scratch.pop_window(base);
        result
    }

    /// Run the entry body `pick` selects from `page`, seeded with the
    /// page's bindings — the VM half of `transition_state`/
    /// `transition_render` (no extra tick: the first instruction's tick
    /// mirrors the root node's). Bindings that do not line up with the
    /// compiled parameter slots (same names, same order) are a foreign
    /// entry.
    fn run_page(
        &mut self,
        page: &str,
        bindings: &[(Name, Value)],
        pick: fn(&PageEntry) -> u32,
    ) -> Result<Value, RuntimeError> {
        let entry = self.vmp.pages.get(page).ok_or(FOREIGN_ENTRY)?;
        let matches = entry.params.len() == bindings.len()
            && entry
                .params
                .iter()
                .zip(bindings)
                .all(|(p, (n, _))| Arc::ptr_eq(&p.name, n) || *p.name == **n);
        if !matches {
            return Err(FOREIGN_ENTRY);
        }
        self.enter(pick(entry), |scratch, base| {
            for (i, (_, v)) in bindings.iter().enumerate() {
                scratch.set(base + i, v.clone())?;
            }
            Ok(())
        })
    }

    /// Apply a handler thunk — bigstep's `apply` at the THUNK boundary.
    /// A closure from another program version, or more arguments than a
    /// frame holds, is a foreign entry, refused before the first tick.
    fn run_thunk(&mut self, thunk: &Value, args: &[Value]) -> Result<Value, RuntimeError> {
        let argc = u16::try_from(args.len()).map_err(|_| FOREIGN_ENTRY)?;
        let closure = match thunk {
            Value::Closure(c) => Some((c, self.own_lambda(c).ok_or(FOREIGN_ENTRY)?)),
            _ => None,
        };
        self.tick()?;
        if let Some((c, _)) = closure {
            if c.params.len() != args.len() {
                return Err(RuntimeError::ArityMismatch {
                    expected: c.params.len(),
                    found: args.len(),
                });
            }
        }
        let sbase = self.scratch.push_window(argc);
        let result = args
            .iter()
            .enumerate()
            .try_for_each(|(i, v)| self.scratch.set(sbase + i, v.clone()))
            .and_then(|()| match closure {
                Some((c, l)) => self.call_lambda(l, sbase, argc, Some(&c.env)),
                None => self.apply_non_closure(thunk, sbase, argc),
            });
        self.scratch.pop_window(sbase);
        result
    }

    /// The compiled lambda behind closure `c`, if this program version
    /// made it: its body is registered and its environment has the
    /// shape the lambda's frame expects.
    fn own_lambda(&self, c: &Closure) -> Option<u32> {
        let l = self.vmp.lambda_for(&c.body)?;
        let info = self.vmp.lambdas.get(l as usize)?;
        let chunk = self.vmp.chunks.get(info.chunk as usize)?;
        (c.env.len() == chunk.env_len as usize).then_some(l)
    }
}

/// VM counterpart of [`crate::bigstep::transition_thunk`].
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_thunk(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &mut Store,
    queue: &mut EventQueue,
    version: u64,
    fuel: u64,
    thunk: &Value,
    args: &[Value],
    widgets: Option<&mut WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + '_)>,
) -> VmRun<Value> {
    let mut vm = Vm::new(
        vmp,
        scratch,
        StoreView::Mut(store),
        Effect::State,
        fuel,
        version,
    );
    vm.queue = Some(queue);
    vm.widgets = widgets;
    vm.faults = faults.map(|f| f as &mut dyn FaultInjector);
    let result = vm.run_thunk(thunk, args);
    vm.finish(result)
}

/// VM counterpart of [`crate::bigstep::transition_state`] for a page
/// `init` body.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_page_init(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &mut Store,
    queue: &mut EventQueue,
    version: u64,
    fuel: u64,
    page: &str,
    bindings: &[(Name, Value)],
    widgets: Option<&mut WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + '_)>,
) -> VmRun<Value> {
    let mut vm = Vm::new(
        vmp,
        scratch,
        StoreView::Mut(store),
        Effect::State,
        fuel,
        version,
    );
    vm.queue = Some(queue);
    vm.widgets = widgets;
    vm.faults = faults.map(|f| f as &mut dyn FaultInjector);
    let result = vm.run_page(page, bindings, |entry| entry.init_chunk);
    vm.finish(result)
}

/// VM counterpart of [`crate::bigstep::run_pure`] for a live example
/// chunk: evaluate example `index`'s body (or, with `expect` set, its
/// `expect` clause) in pure mode against a read-only store. Returns
/// `None` — with no state touched — when the index is out of range or
/// the example has no `expect` clause.
pub fn run_example(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &Store,
    version: u64,
    fuel: u64,
    index: usize,
    expect: bool,
) -> Option<VmRun<Value>> {
    let slot = vmp.examples.get(index)?;
    let chunk = if expect {
        slot.expect_chunk?
    } else {
        slot.body_chunk
    };
    let mut vm = Vm::new(
        vmp,
        scratch,
        StoreView::Ref(store),
        Effect::Pure,
        fuel,
        version,
    );
    let result = vm.enter(chunk, |_, _| Ok(()));
    Some(vm.finish(result))
}

/// VM counterpart of [`crate::bigstep::transition_render`]. The widget
/// store's occurrence counters must be reset (`begin_render`) by the
/// caller, as with bigstep.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_page_render(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &Store,
    version: u64,
    fuel: u64,
    page: &str,
    bindings: &[(Name, Value)],
    hook: Option<&mut (dyn RenderHook + '_)>,
    widgets: Option<&mut WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + '_)>,
) -> VmRun<BoxNode> {
    let mut vm = Vm::new(
        vmp,
        scratch,
        StoreView::Ref(store),
        Effect::Render,
        fuel,
        version,
    );
    vm.boxes.push(BoxNode::new(None));
    vm.hook = hook.map(|h| h as &mut dyn RenderHook);
    vm.widgets = widgets;
    vm.faults = faults.map(|f| f as &mut dyn FaultInjector);
    let result = vm
        .run_page(page, bindings, |entry| entry.render_chunk)
        .and_then(|_| {
            vm.boxes
                .pop()
                .ok_or(RuntimeError::Internal("top-level box frame missing"))
        });
    vm.finish(result)
}
