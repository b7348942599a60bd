//! The bytecode compiler: one pass over a checked [`Program`],
//! destination-driven code generation with compile-time slot
//! resolution.
//!
//! The compile-time binding stack (`FnCompiler::binds`) is a flat list
//! of `(name, register)` pairs that mirrors bigstep's flattened scope
//! chain *exactly* — shadowed entries stay on the stack and lookups
//! resolve innermost-last — so closure capture lists and render-hook
//! locals come out byte-identical to the tree walker's `capture_env`.
//!
//! Tuple and list literals of any width compile: one wider than
//! [`LITERAL_BATCH`] registers is built batch by batch (`MakeTuple` /
//! `MakeList` per batch, then one `Flatten`). A left-associated `++`
//! chain compiles to one n-ary `Concat`, batched the same way when it
//! is wider than [`LITERAL_BATCH`]. What the compiler still
//! cannot express exactly — a signature or frame beyond the 16-bit
//! register file, or an unresolvable name in a program that bypassed
//! the type checker — aborts the whole compile with [`CompileError`].
//! The system then refuses every transition of that program with a
//! contained [`crate::error::RuntimeError::VmLimit`] fault; it never
//! approximates and never switches engines.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use alive_syntax::ast::{BinOp, UnOp};

use crate::expr::{Expr, ExprKind, LambdaExpr, ParamSig};
use crate::program::Program;
use crate::types::Name;
use crate::value::Value;

use super::{
    Chunk, ExampleSlot, GlobalSlot, GuardOp, Instr, LambdaInfo, PageEntry, ProvSpec, Reg, VmProgram,
};

/// Why a program is beyond what the VM can compile. User-visible as
/// the [`crate::error::RuntimeError::VmLimit`] fault every transition of
/// such a program reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// What the compiler could not express.
    pub reason: &'static str,
    /// The offending name, when there is one.
    pub name: Option<Name>,
}

impl CompileError {
    fn named(reason: &'static str, name: &Name) -> CompileError {
        CompileError {
            reason,
            name: Some(name.clone()),
        }
    }

    fn plain(reason: &'static str) -> CompileError {
        CompileError { reason, name: None }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{} (`{n}`)", self.reason),
            None => f.write_str(self.reason),
        }
    }
}

impl std::error::Error for CompileError {}

/// Jump-target placeholder patched by `FnCompiler::patch`.
const PENDING: u32 = u32::MAX;

/// Most elements one `MakeTuple`/`MakeList` reads, and most operands
/// one `Concat` joins: a wider literal or `++` chain is built in batches
/// of this many registers, so its width never hits the 16-bit register
/// file.
const LITERAL_BATCH: usize = 256;

/// Hash key for the small constant-dedup cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Unit,
    EmptyList,
    Bool(bool),
    Num(u64),
}

struct Builder<'p> {
    program: &'p Program,
    chunks: Vec<Chunk>,
    consts: Vec<Value>,
    const_cache: HashMap<ConstKey, u32>,
    lambdas: Vec<LambdaInfo>,
    captures: Vec<Arc<[(u32, Reg)]>>,
    concats: Vec<Box<[Reg]>>,
    provs: Vec<ProvSpec>,
    globals: Vec<GlobalSlot>,
    global_idx: HashMap<Name, u32>,
    page_names: Vec<Name>,
    page_name_idx: HashMap<Name, u32>,
    syms: Vec<Name>,
    sym_idx: HashMap<Name, u32>,
    fun_lambda: HashMap<Name, u32>,
    by_body: HashMap<usize, u32>,
}

impl Builder<'_> {
    fn sym(&mut self, n: &Name) -> u32 {
        if let Some(&s) = self.sym_idx.get(n) {
            return s;
        }
        let s = self.syms.len() as u32;
        self.syms.push(n.clone());
        self.sym_idx.insert(n.clone(), s);
        s
    }

    fn page_name(&mut self, n: &Name) -> u32 {
        if let Some(&p) = self.page_name_idx.get(n) {
            return p;
        }
        let p = self.page_names.len() as u32;
        self.page_names.push(n.clone());
        self.page_name_idx.insert(n.clone(), p);
        p
    }

    fn const_val(&mut self, v: Value) -> Result<u32, CompileError> {
        let key = match &v {
            Value::Number(n) => Some(ConstKey::Num(n.to_bits())),
            Value::Bool(b) => Some(ConstKey::Bool(*b)),
            Value::Tuple(t) if t.is_empty() => Some(ConstKey::Unit),
            Value::List(l) if l.is_empty() => Some(ConstKey::EmptyList),
            _ => None,
        };
        if let Some(k) = &key {
            if let Some(&i) = self.const_cache.get(k) {
                return Ok(i);
            }
        }
        let i = u32::try_from(self.consts.len())
            .map_err(|_| CompileError::plain("constant pool overflow"))?;
        self.consts.push(v);
        if let Some(k) = key {
            self.const_cache.insert(k, i);
        }
        Ok(i)
    }

    fn capture_set(&mut self, set: Vec<(u32, Reg)>) -> u32 {
        let i = self.captures.len() as u32;
        self.captures.push(set.into());
        i
    }

    fn concat_ops(&mut self, ops: Vec<Reg>) -> u32 {
        let i = self.concats.len() as u32;
        self.concats.push(ops.into());
        i
    }

    fn prov_spec(&mut self, spec: ProvSpec) -> u32 {
        let i = self.provs.len() as u32;
        self.provs.push(spec);
        i
    }
}

/// Compile one body into a chunk. `binds` seeds the binding stack;
/// its first `env_len` entries are closure-environment slots and the
/// next `params` entries are argument slots.
fn compile_chunk(
    b: &mut Builder<'_>,
    binds: Vec<(Name, Reg)>,
    env_len: usize,
    params: usize,
    body: &Expr,
) -> Result<u32, CompileError> {
    let first = binds.len() as u16;
    let mut f = FnCompiler {
        b,
        code: Vec::new(),
        binds,
        next: first,
        max: first,
    };
    let res = f.alloc()?;
    f.emit(body, Some(res))?;
    f.code.push(Instr::Ret { src: res });
    let FnCompiler { code, max, .. } = f;
    let idx = u32::try_from(b.chunks.len()).map_err(|_| CompileError::plain("chunk overflow"))?;
    b.chunks.push(Chunk {
        code,
        regs: max,
        env_len: env_len as u16,
        params: params as u16,
    });
    Ok(idx)
}

fn param_binds(owner: &Name, params: &[ParamSig]) -> Result<Vec<(Name, Reg)>, CompileError> {
    if params.len() > u16::MAX as usize {
        return Err(CompileError::named("more than 65535 parameters", owner));
    }
    Ok(params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i as Reg))
        .collect())
}

/// Does evaluating `e` assign to local `name` anywhere? Conservative
/// (counts shadowed assignments and assignments inside lambdas, which
/// cannot actually touch the caller's slot) — a false positive only
/// costs one extra register copy.
fn mutates(e: &Expr, name: &Name) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let ExprKind::LocalAssign(n, _) = &x.kind {
            if Arc::ptr_eq(n, name) || **n == **name {
                found = true;
            }
        }
    });
    found
}

/// The operands of the `++` chain rooted at `e`, left to right. `++` is
/// left-associative, so `a ++ b ++ c` is `(a ++ b) ++ c` and the chain
/// is the left spine; it is walked with a loop, whatever its length.
fn concat_chain(e: &Expr) -> Vec<&Expr> {
    let mut operands = Vec::new();
    let mut spine = e;
    while let ExprKind::Binary(BinOp::Concat, lhs, rhs) = &spine.kind {
        operands.push(&**rhs);
        spine = lhs;
    }
    operands.push(spine);
    operands.reverse();
    operands
}

/// May `e` be compiled directly into a destination register that holds
/// a *live binding*? True only when the generated code writes the
/// destination as its final step, so no read of the old value (by the
/// expression itself, a closure capture, or a render-hook capture list)
/// can observe a partial write. `&&`/`||` write the destination early
/// (the left operand's value is the short-circuit result), so they and
/// anything not explicitly listed get a temporary + move instead.
fn writes_only_at_end(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::ColorLit(_)
        | ExprKind::Local(_)
        | ExprKind::Global(_)
        | ExprKind::FunRef(_)
        | ExprKind::PrimRef(_)
        | ExprKind::Tuple(_)
        | ExprKind::ListLit(_)
        | ExprKind::Proj(..)
        | ExprKind::Call(..)
        | ExprKind::Lambda(_)
        | ExprKind::Unary(..)
        | ExprKind::WidgetRead(_) => true,
        ExprKind::Binary(op, ..) => !matches!(op, BinOp::And | BinOp::Or),
        ExprKind::If(_, t, els) => writes_only_at_end(t) && writes_only_at_end(els),
        ExprKind::Seq(_, b) => writes_only_at_end(b),
        ExprKind::Let { body, .. } => writes_only_at_end(body),
        _ => false,
    }
}

struct FnCompiler<'b, 'p> {
    b: &'b mut Builder<'p>,
    code: Vec<Instr>,
    /// The flat binding stack — bigstep's scope chain, flattened.
    binds: Vec<(Name, Reg)>,
    /// Register watermark: next free slot.
    next: u16,
    /// Frame size: high-water mark of `next`.
    max: u16,
}

impl FnCompiler<'_, '_> {
    fn alloc(&mut self) -> Result<Reg, CompileError> {
        let r = self.next;
        if r == u16::MAX {
            return Err(CompileError::plain("register overflow"));
        }
        self.next += 1;
        if self.next > self.max {
            self.max = self.next;
        }
        Ok(r)
    }

    fn alloc_n(&mut self, n: usize) -> Result<Reg, CompileError> {
        let base = self.next;
        let end = (base as usize)
            .checked_add(n)
            .filter(|&e| e < u16::MAX as usize)
            .ok_or(CompileError::plain("register overflow"))?;
        self.next = end as u16;
        if self.next > self.max {
            self.max = self.next;
        }
        Ok(base)
    }

    fn save(&self) -> u16 {
        self.next
    }

    fn restore(&mut self, w: u16) {
        self.next = w;
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn push(&mut self, i: Instr) {
        self.code.push(i);
    }

    /// Point the pending jump at `at` to the current pc.
    fn patch(&mut self, at: u32) {
        let to = self.here();
        if let Some(
            Instr::Jump { to: t }
            | Instr::JumpIfFalse { to: t, .. }
            | Instr::JumpIfTrue { to: t, .. }
            | Instr::IterNext { exit: t, .. }
            | Instr::BoxEnter { skip: t, .. }
            | Instr::RememberBind { done: t, .. },
        ) = self.code.get_mut(at as usize)
        {
            *t = to;
        }
    }

    /// Innermost-last slot lookup — the compile-time mirror of
    /// bigstep's `lookup_local`.
    fn resolve(&self, name: &Name) -> Option<Reg> {
        self.binds
            .iter()
            .rev()
            .find(|(n, _)| Arc::ptr_eq(n, name) || **n == **name)
            .map(|(_, r)| *r)
    }

    fn emit_const(&mut self, dst: Option<Reg>, v: Value) -> Result<(), CompileError> {
        if let Some(d) = dst {
            let k = self.b.const_val(v)?;
            self.push(Instr::Const { dst: d, k });
        }
        Ok(())
    }

    fn emit_unit(&mut self, dst: Option<Reg>) -> Result<(), CompileError> {
        self.emit_const(dst, Value::unit())
    }

    /// Emit `e` as an operand and return the register holding it. A
    /// bare local reference aliases its binding register (zero
    /// instructions) unless one of `hazards` — code that runs between
    /// this operand's evaluation point and its consumption — could
    /// assign that local.
    fn emit_operand(&mut self, e: &Expr, hazards: &[&Expr]) -> Result<Reg, CompileError> {
        if let ExprKind::Local(name) = &e.kind {
            let r = self
                .resolve(name)
                .ok_or_else(|| CompileError::named("unresolved local", name))?;
            if hazards.iter().all(|h| !mutates(h, name)) {
                return Ok(r);
            }
        }
        let tmp = self.alloc()?;
        self.emit(e, Some(tmp))?;
        Ok(tmp)
    }

    /// A destination register: the caller's, or a fresh temporary for
    /// instructions that must run even when their value is discarded.
    fn sink(&mut self, dst: Option<Reg>) -> Result<Reg, CompileError> {
        match dst {
            Some(d) => Ok(d),
            None => self.alloc(),
        }
    }

    /// Compile `e`, leaving its value in `dst` (if any). Every arm
    /// restores the register watermark it started with, so temporaries
    /// never leak across siblings.
    fn emit(&mut self, e: &Expr, dst: Option<Reg>) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Num(n) => self.emit_const(dst, Value::Number(*n)),
            ExprKind::Str(s) => self.emit_const(dst, Value::Str(s.clone())),
            ExprKind::Bool(v) => self.emit_const(dst, Value::Bool(*v)),
            ExprKind::ColorLit(c) => self.emit_const(dst, Value::Color(*c)),
            ExprKind::PrimRef(p) => self.emit_const(dst, Value::Prim(*p)),
            ExprKind::Local(name) => {
                let r = self
                    .resolve(name)
                    .ok_or_else(|| CompileError::named("unresolved local", name))?;
                if let Some(d) = dst {
                    if d != r {
                        self.push(Instr::Move { dst: d, src: r });
                    }
                }
                Ok(())
            }
            ExprKind::Global(name) => {
                let g = self
                    .b
                    .global_idx
                    .get(name)
                    .copied()
                    .ok_or_else(|| CompileError::named("unresolved global", name))?;
                let w = self.save();
                let d = self.sink(dst)?;
                self.push(Instr::Global { dst: d, g });
                self.restore(w);
                Ok(())
            }
            ExprKind::FunRef(name) => {
                let l = self
                    .b
                    .fun_lambda
                    .get(name)
                    .copied()
                    .ok_or_else(|| CompileError::named("unresolved function", name))?;
                if let Some(d) = dst {
                    self.push(Instr::MakeClosure { dst: d, l });
                }
                Ok(())
            }
            ExprKind::Lambda(lam) => {
                let Some(d) = dst else {
                    // A discarded lambda has no observable effect.
                    return Ok(());
                };
                let l = self.compile_lambda(lam)?;
                self.push(Instr::MakeClosure { dst: d, l });
                Ok(())
            }
            ExprKind::Tuple(elems) => {
                if elems.is_empty() {
                    return self.emit_unit(dst);
                }
                self.emit_literal(elems, dst, |dst, base, len| Instr::MakeTuple {
                    dst,
                    base,
                    len,
                })
            }
            ExprKind::ListLit(elems) => {
                if elems.is_empty() {
                    return self.emit_const(dst, Value::list(Vec::new()));
                }
                self.emit_literal(elems, dst, |dst, base, len| Instr::MakeList {
                    dst,
                    base,
                    len,
                })
            }
            ExprKind::Proj(base_e, index) => {
                let w = self.save();
                let src = self.emit_operand(base_e, &[])?;
                let d = self.sink(dst)?;
                self.push(Instr::Proj {
                    dst: d,
                    src,
                    index: *index,
                });
                self.restore(w);
                Ok(())
            }
            ExprKind::Call(callee, args) => self.emit_call(callee, args, dst),
            ExprKind::Let {
                name, value, body, ..
            } => {
                let w = self.save();
                let vreg = self.alloc()?;
                self.emit(value, Some(vreg))?;
                self.binds.push((name.clone(), vreg));
                let r = self.emit(body, dst);
                self.binds.pop();
                self.restore(w);
                r
            }
            ExprKind::Seq(a, b) => {
                self.emit(a, None)?;
                self.emit(b, dst)
            }
            ExprKind::If(c, t, els) => {
                let w = self.save();
                let creg = self.emit_operand(c, &[])?;
                let jf = self.here();
                self.push(Instr::JumpIfFalse {
                    cond: creg,
                    to: PENDING,
                });
                self.restore(w);
                self.emit(t, dst)?;
                let je = self.here();
                self.push(Instr::Jump { to: PENDING });
                self.patch(jf);
                self.emit(els, dst)?;
                self.patch(je);
                Ok(())
            }
            ExprKind::While(c, body) => {
                let head = self.here();
                let w = self.save();
                let creg = self.emit_operand(c, &[])?;
                let jf = self.here();
                self.push(Instr::JumpIfFalse {
                    cond: creg,
                    to: PENDING,
                });
                self.restore(w);
                self.emit(body, None)?;
                self.push(Instr::Jump { to: head });
                self.patch(jf);
                self.emit_unit(dst)
            }
            ExprKind::ForRange { var, lo, hi, body } => {
                let w = self.save();
                // Bounds evaluate once, before the loop variable binds,
                // in bigstep's order (lo checked before hi evaluates).
                let cnt = self.alloc()?;
                self.emit(lo, Some(cnt))?;
                self.push(Instr::CheckNum { src: cnt });
                let hi_r = self.alloc()?;
                self.emit(hi, Some(hi_r))?;
                self.push(Instr::CheckNum { src: hi_r });
                let one = self.alloc()?;
                let k1 = self.b.const_val(Value::Number(1.0))?;
                self.push(Instr::Const { dst: one, k: k1 });
                let tmp = self.alloc()?;
                // Bigstep's counter is loop-private: assigning the loop
                // variable in the body must not change iteration. Only
                // pay for a separate binding register when the body
                // actually assigns it.
                let var_r = if mutates(body, var) {
                    Some(self.alloc()?)
                } else {
                    None
                };
                let head = self.here();
                self.push(Instr::Bin {
                    op: BinOp::Lt,
                    dst: tmp,
                    a: cnt,
                    b: hi_r,
                });
                let jf = self.here();
                self.push(Instr::JumpIfFalse {
                    cond: tmp,
                    to: PENDING,
                });
                if let Some(vr) = var_r {
                    self.push(Instr::Move { dst: vr, src: cnt });
                }
                self.binds.push((var.clone(), var_r.unwrap_or(cnt)));
                let r = self.emit(body, None);
                self.binds.pop();
                r?;
                self.push(Instr::Bin {
                    op: BinOp::Add,
                    dst: cnt,
                    a: cnt,
                    b: one,
                });
                self.push(Instr::Jump { to: head });
                self.patch(jf);
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::Foreach { var, list, body } => {
                let w = self.save();
                let list_r = self.emit_operand(list, &[body])?;
                let idx = self.alloc()?;
                let k0 = self.b.const_val(Value::Number(0.0))?;
                self.push(Instr::Const { dst: idx, k: k0 });
                let var_r = self.alloc()?;
                let head = self.here();
                self.push(Instr::IterNext {
                    list: list_r,
                    idx,
                    var: var_r,
                    exit: PENDING,
                });
                self.binds.push((var.clone(), var_r));
                let r = self.emit(body, None);
                self.binds.pop();
                r?;
                self.push(Instr::Jump { to: head });
                self.patch(head);
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::LocalAssign(name, value) => {
                let r = self
                    .resolve(name)
                    .ok_or_else(|| CompileError::named("unresolved local", name))?;
                if writes_only_at_end(value) {
                    self.emit(value, Some(r))?;
                } else {
                    let w = self.save();
                    let tmp = self.alloc()?;
                    self.emit(value, Some(tmp))?;
                    self.push(Instr::Move { dst: r, src: tmp });
                    self.restore(w);
                }
                self.emit_unit(dst)
            }
            ExprKind::GlobalAssign(name, value) => {
                let g = self
                    .b
                    .global_idx
                    .get(name)
                    .copied()
                    .ok_or_else(|| CompileError::named("unresolved global", name))?;
                self.push(Instr::Guard {
                    op: GuardOp::AssignGlobal,
                });
                let w = self.save();
                let src = self.emit_operand(value, &[])?;
                self.push(Instr::SetGlobal { g, src });
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::PushPage(name, args) => {
                if self.b.program.page(name).is_none() {
                    return Err(CompileError::named("unresolved page", name));
                }
                let page = self.b.page_name(name);
                self.push(Instr::Guard { op: GuardOp::Push });
                let w = self.save();
                let base = self.alloc_n(args.len())?;
                for (i, a) in args.iter().enumerate() {
                    self.emit(a, Some(base + i as u16))?;
                }
                self.push(Instr::PushEvent {
                    page,
                    base,
                    argc: args.len() as u16,
                });
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::PopPage => {
                self.push(Instr::PopEvent);
                self.emit_unit(dst)
            }
            ExprKind::Boxed(id, body) => {
                let w = self.save();
                let d = self.sink(dst)?;
                let cap = self.capture_current();
                let be = self.here();
                self.push(Instr::BoxEnter {
                    id: id.0,
                    cap,
                    dst: d,
                    skip: PENDING,
                });
                self.emit(body, Some(d))?;
                self.push(Instr::BoxExit {
                    id: id.0,
                    cap,
                    src: d,
                });
                self.patch(be);
                self.restore(w);
                Ok(())
            }
            ExprKind::Post(value) => {
                self.push(Instr::Guard { op: GuardOp::Post });
                let w = self.save();
                let src = self.emit_operand(value, &[])?;
                let prov = self.prov_for(value);
                self.push(Instr::PostLeaf { src, prov });
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::SetAttr(attr, value) => {
                self.push(Instr::Guard { op: GuardOp::Attr });
                let w = self.save();
                let src = self.emit_operand(value, &[])?;
                let prov = self.prov_for(value);
                self.push(Instr::SetAttr {
                    attr: *attr,
                    src,
                    prov,
                });
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::Remember {
                id,
                name,
                init,
                body,
                ..
            } => {
                let w = self.save();
                let slot = self.alloc()?;
                let rb = self.here();
                self.push(Instr::RememberBind {
                    dst: slot,
                    id: id.0,
                    done: PENDING,
                });
                // The initializer runs with the binding not yet visible
                // (bigstep pushes the frame only after `set`).
                {
                    let w2 = self.save();
                    let tmp = self.alloc()?;
                    self.emit(init, Some(tmp))?;
                    self.push(Instr::RememberInit {
                        key: slot,
                        src: tmp,
                    });
                    self.restore(w2);
                }
                self.patch(rb);
                self.binds.push((name.clone(), slot));
                let r = self.emit(body, dst);
                self.binds.pop();
                self.restore(w);
                r
            }
            ExprKind::WidgetRead(name) => {
                let r = self
                    .resolve(name)
                    .ok_or_else(|| CompileError::named("unresolved local", name))?;
                let sym = self.b.sym(name);
                let w = self.save();
                let d = self.sink(dst)?;
                self.push(Instr::WidgetGet {
                    dst: d,
                    src: r,
                    name: sym,
                });
                self.restore(w);
                Ok(())
            }
            ExprKind::WidgetWrite(name, value) => {
                let r = self
                    .resolve(name)
                    .ok_or_else(|| CompileError::named("unresolved local", name))?;
                let w = self.save();
                let key = self.alloc()?;
                self.push(Instr::GuardWidget { src: r, key });
                let src = self.emit_operand(value, &[])?;
                self.push(Instr::WidgetSet { key, val: src });
                self.restore(w);
                self.emit_unit(dst)
            }
            ExprKind::Binary(op, lhs, rhs) => match op {
                BinOp::And | BinOp::Or => {
                    let w = self.save();
                    let d = self.sink(dst)?;
                    self.emit(lhs, Some(d))?;
                    let j = self.here();
                    // On short-circuit, `d` already holds the (checked)
                    // deciding boolean.
                    if *op == BinOp::And {
                        self.push(Instr::JumpIfFalse {
                            cond: d,
                            to: PENDING,
                        });
                    } else {
                        self.push(Instr::JumpIfTrue {
                            cond: d,
                            to: PENDING,
                        });
                    }
                    self.emit(rhs, Some(d))?;
                    self.push(Instr::CheckBool { src: d });
                    self.patch(j);
                    self.restore(w);
                    Ok(())
                }
                BinOp::Concat => self.emit_concat(&concat_chain(e), dst),
                _ => {
                    let w = self.save();
                    let a = self.emit_operand(lhs, &[rhs])?;
                    let b_r = self.emit_operand(rhs, &[])?;
                    let d = self.sink(dst)?;
                    self.push(Instr::Bin {
                        op: *op,
                        dst: d,
                        a,
                        b: b_r,
                    });
                    self.restore(w);
                    Ok(())
                }
            },
            ExprKind::Unary(op, inner) => {
                let w = self.save();
                let src = self.emit_operand(inner, &[])?;
                let d = self.sink(dst)?;
                match op {
                    UnOp::Neg => self.push(Instr::Neg { dst: d, src }),
                    UnOp::Not => self.push(Instr::Not { dst: d, src }),
                }
                self.restore(w);
                Ok(())
            }
        }
    }

    /// Build a non-empty tuple or list literal with `make`. One that
    /// fits a [`LITERAL_BATCH`] is made straight from its element
    /// registers. A wider one is made batch by batch into temporaries,
    /// which one `Flatten` joins into `dst`: every element is copied at
    /// most twice, whatever the width.
    fn emit_literal(
        &mut self,
        elems: &[Expr],
        dst: Option<Reg>,
        make: fn(Reg, Reg, u16) -> Instr,
    ) -> Result<(), CompileError> {
        let w = self.save();
        let wide = elems.len() > LITERAL_BATCH;
        let parts = if wide {
            elems.len().div_ceil(LITERAL_BATCH)
        } else {
            elems.len()
        };
        let base = self.alloc_n(parts)?;
        if wide {
            for (i, batch) in elems.chunks(LITERAL_BATCH).enumerate() {
                self.emit_literal(batch, Some(base + i as u16), make)?;
            }
        } else {
            for (i, el) in elems.iter().enumerate() {
                self.emit(el, Some(base + i as u16))?;
            }
        }
        let d = self.sink(dst)?;
        // `alloc_n` bounds `parts` by the register file.
        let len = parts as u16;
        self.push(if wide {
            Instr::Flatten { dst: d, base, len }
        } else {
            make(d, base, len)
        });
        self.restore(w);
        Ok(())
    }

    /// Build a `++` chain's string with one `Concat` over its operands.
    /// A local operand is read straight from its binding register unless
    /// a later operand may assign it, the hazard rule of `Bin`. A chain
    /// wider than [`LITERAL_BATCH`] is joined batch by batch into
    /// temporaries, which one more `Concat` joins into `dst`; a trailing
    /// one-operand batch is read directly, so every `Concat` joins at
    /// least two operands and the chain's `Concat`s replace exactly its
    /// `++`s.
    fn emit_concat(&mut self, operands: &[&Expr], dst: Option<Reg>) -> Result<(), CompileError> {
        let w = self.save();
        let mut regs = Vec::new();
        if operands.len() > LITERAL_BATCH {
            for batch in operands.chunks(LITERAL_BATCH) {
                let r = match batch {
                    [single] => self.emit_operand(single, &[])?,
                    _ => {
                        let t = self.alloc()?;
                        self.emit_concat(batch, Some(t))?;
                        t
                    }
                };
                regs.push(r);
            }
        } else {
            for (i, e) in operands.iter().enumerate() {
                let later = operands.get(i + 1..).unwrap_or_default();
                regs.push(self.emit_operand(e, later)?);
            }
        }
        let d = self.sink(dst)?;
        let ops = self.b.concat_ops(regs);
        self.push(Instr::Concat { dst: d, ops });
        self.restore(w);
        Ok(())
    }

    fn emit_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        dst: Option<Reg>,
    ) -> Result<(), CompileError> {
        // Direct-call fast path: a statically resolved function with
        // matching arity skips the intermediate closure allocation.
        if let ExprKind::FunRef(fname) = &callee.kind {
            let f = self
                .b
                .program
                .fun(fname)
                .ok_or_else(|| CompileError::named("unresolved function", fname))?;
            if f.params.len() == args.len() {
                let l = self
                    .b
                    .fun_lambda
                    .get(fname)
                    .copied()
                    .ok_or_else(|| CompileError::named("unresolved function", fname))?;
                let w = self.save();
                let base = self.alloc_n(args.len())?;
                for (i, a) in args.iter().enumerate() {
                    self.emit(a, Some(base + i as u16))?;
                }
                let d = self.sink(dst)?;
                self.push(Instr::CallFun {
                    dst: d,
                    l,
                    base,
                    argc: args.len() as u16,
                });
                self.restore(w);
                return Ok(());
            }
            // Arity mismatch: fall through to the generic call, which
            // reports `ArityMismatch` at runtime exactly like bigstep.
        }
        let w = self.save();
        let arg_refs: Vec<&Expr> = args.iter().collect();
        let creg = self.emit_operand(callee, &arg_refs)?;
        let base = self.alloc_n(args.len())?;
        for (i, a) in args.iter().enumerate() {
            self.emit(a, Some(base + i as u16))?;
        }
        let d = self.sink(dst)?;
        self.push(Instr::Call {
            dst: d,
            callee: creg,
            base,
            argc: args.len() as u16,
        });
        self.restore(w);
        Ok(())
    }

    /// The compile-time provenance record for a `post`/`box.a :=`
    /// operand: the literal's span, or the operand span plus its free
    /// locals resolved to registers — the mirror of bigstep's runtime
    /// `provenance_of`. Names that fail to resolve are skipped, exactly
    /// as bigstep skips names its `lookup_local` misses.
    fn prov_for(&mut self, value: &Expr) -> u32 {
        let spec = if crate::provenance::is_literal_expr(value) {
            ProvSpec::Literal(value.span)
        } else {
            let mut free = Vec::new();
            for name in crate::provenance::free_locals(value) {
                if let Some(r) = self.resolve(&name) {
                    let sym = self.b.sym(&name);
                    free.push((sym, r));
                }
            }
            ProvSpec::Expr {
                span: value.span,
                free: free.into(),
            }
        };
        self.b.prov_spec(spec)
    }

    /// The current binding stack as a `(symbol, register)` capture set —
    /// bigstep's `capture_env`, resolved at compile time.
    fn capture_current(&mut self) -> u32 {
        let mut set = Vec::with_capacity(self.binds.len());
        for i in 0..self.binds.len() {
            let Some((n, r)) = self.binds.get(i).cloned() else {
                break;
            };
            let sym = self.b.sym(&n);
            set.push((sym, r));
        }
        self.b.capture_set(set)
    }

    fn compile_lambda(&mut self, lam: &LambdaExpr) -> Result<u32, CompileError> {
        let ptr = Arc::as_ptr(&lam.body) as usize;
        if let Some(&l) = self.b.by_body.get(&ptr) {
            return Ok(l);
        }
        if self.binds.len() + lam.params.len() >= u16::MAX as usize {
            return Err(CompileError::plain("register overflow"));
        }
        let mut captures = Vec::with_capacity(self.binds.len());
        let mut sub_binds = Vec::with_capacity(self.binds.len() + lam.params.len());
        for i in 0..self.binds.len() {
            let Some((n, r)) = self.binds.get(i).cloned() else {
                break;
            };
            let sym = self.b.sym(&n);
            captures.push((sym, r));
            sub_binds.push((n, i as Reg));
        }
        let env_len = sub_binds.len();
        for (j, p) in lam.params.iter().enumerate() {
            sub_binds.push((p.name.clone(), (env_len + j) as Reg));
        }
        let idx = u32::try_from(self.b.lambdas.len())
            .map_err(|_| CompileError::plain("lambda overflow"))?;
        self.b.lambdas.push(LambdaInfo {
            chunk: u32::MAX,
            params: lam.params.clone(),
            effect: lam.effect,
            body: lam.body.clone(),
            captures: captures.into(),
        });
        self.b.by_body.insert(ptr, idx);
        let chunk = compile_chunk(self.b, sub_binds, env_len, lam.params.len(), &lam.body)?;
        if let Some(info) = self.b.lambdas.get_mut(idx as usize) {
            info.chunk = chunk;
        }
        Ok(idx)
    }
}

pub(crate) fn compile_program(p: &Program) -> Result<VmProgram, CompileError> {
    let mut b = Builder {
        program: p,
        chunks: Vec::new(),
        consts: Vec::new(),
        const_cache: HashMap::new(),
        lambdas: Vec::new(),
        captures: Vec::new(),
        concats: Vec::new(),
        provs: Vec::new(),
        globals: Vec::new(),
        global_idx: HashMap::new(),
        page_names: Vec::new(),
        page_name_idx: HashMap::new(),
        syms: Vec::new(),
        sym_idx: HashMap::new(),
        fun_lambda: HashMap::new(),
        by_body: HashMap::new(),
    };
    // Reserve global slots and function lambda entries first so
    // references resolve regardless of definition order (mutual
    // recursion, forward references).
    for g in p.globals() {
        let idx = b.globals.len() as u32;
        b.globals.push(GlobalSlot {
            name: g.name.clone(),
            init_chunk: u32::MAX,
        });
        b.global_idx.insert(g.name.clone(), idx);
        b.sym(&g.name);
    }
    for f in p.funs() {
        let idx =
            u32::try_from(b.lambdas.len()).map_err(|_| CompileError::plain("lambda overflow"))?;
        b.lambdas.push(LambdaInfo {
            chunk: u32::MAX,
            params: f.params.clone(),
            effect: f.effect,
            body: f.body.clone(),
            captures: Arc::from(Vec::new()),
        });
        b.fun_lambda.insert(f.name.clone(), idx);
        b.by_body.insert(Arc::as_ptr(&f.body) as usize, idx);
    }
    // Global initializers evaluate in an empty scope (EP-GLOBAL-2
    // clears the scope chain before running them).
    for i in 0..p.globals().len() {
        let Some(g) = p.globals().get(i) else { break };
        let init = g.init.clone();
        let chunk = compile_chunk(&mut b, Vec::new(), 0, 0, &init)?;
        if let Some(slot) = b.globals.get_mut(i) {
            slot.init_chunk = chunk;
        }
    }
    for f in p.funs() {
        let binds = param_binds(&f.name, &f.params)?;
        let chunk = compile_chunk(&mut b, binds, 0, f.params.len(), &f.body)?;
        if let Some(&l) = b.fun_lambda.get(&f.name) {
            if let Some(info) = b.lambdas.get_mut(l as usize) {
                info.chunk = chunk;
            }
        }
    }
    // Example bodies evaluate like global initializers: pure, in an
    // empty scope.
    let mut examples = Vec::new();
    for e in p.examples() {
        let body = e.body.clone();
        let body_chunk = compile_chunk(&mut b, Vec::new(), 0, 0, &body)?;
        let expect_chunk = match &e.expect {
            Some(expect) => {
                let expect = expect.clone();
                Some(compile_chunk(&mut b, Vec::new(), 0, 0, &expect)?)
            }
            None => None,
        };
        examples.push(ExampleSlot {
            body_chunk,
            expect_chunk,
        });
    }
    let mut pages = HashMap::new();
    for pg in p.pages() {
        let init_chunk = compile_chunk(
            &mut b,
            param_binds(&pg.name, &pg.params)?,
            0,
            pg.params.len(),
            &pg.init,
        )?;
        let render_chunk = compile_chunk(
            &mut b,
            param_binds(&pg.name, &pg.params)?,
            0,
            pg.params.len(),
            &pg.render,
        )?;
        pages.insert(
            pg.name.clone(),
            PageEntry {
                init_chunk,
                render_chunk,
                params: pg.params.clone(),
            },
        );
    }
    let mut vmp = VmProgram::new_empty();
    vmp.chunks = b.chunks;
    vmp.consts = b.consts;
    vmp.lambdas = b.lambdas;
    vmp.captures = b.captures;
    vmp.concats = b.concats;
    vmp.provs = b.provs;
    vmp.globals = b.globals;
    vmp.examples = examples;
    vmp.page_names = b.page_names;
    vmp.syms = b.syms;
    vmp.pages = pages;
    vmp.by_body = b.by_body;
    Ok(vmp)
}
