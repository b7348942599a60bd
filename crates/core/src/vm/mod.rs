//! Register-based bytecode VM for the eval hot path (ROADMAP item 3).
//!
//! [`crate::bigstep`] is a tree walker: every evaluation step re-matches
//! an `ExprKind`, every variable reference scans the environment chain,
//! and every call clones name/value pairs into fresh `Vec` frames. This
//! module compiles a checked [`Program`] once into a compact
//! register-based bytecode ([`VmProgram`]) and executes transitions on a
//! pooled register stack ([`Scratch`]):
//!
//! * **Interning** — global names, page names, and every local binding
//!   name are interned into `u32` symbol IDs at compile time; the
//!   instruction stream carries only integers.
//! * **Slot resolution** — local variable lookups are resolved to frame
//!   slot indices by the compiler, eliminating the `lookup_local` walk
//!   entirely. The compile-time binding stack mirrors bigstep's
//!   flattened scope chain exactly (shadowed entries included), so
//!   closure environments and render-hook capture lists are
//!   byte-identical to the tree walker's.
//! * **Arena frames** — per-frame `Value`s live in one contiguous
//!   register stack with an epoch reset per transition
//!   (`Scratch::begin`); the render spine (`Vec<BoxNode>`) is pooled
//!   the same way.
//!
//! # Relationship to the oracles
//!
//! The VM is the production engine, never a semantic fork: for every
//! transition it must produce the same `Result`, the same store/queue/
//! widget effects, and byte-identical rendered frames as the reference
//! engine [`crate::bigstep`], which in turn is cross-checked against the
//! substitution machine in [`crate::smallstep`].
//! `tests/vm_differential.rs` holds the three-way differential walk. A
//! system on the VM engine runs nothing else: a program beyond the
//! compiler's limits faults each transition with
//! [`crate::error::RuntimeError::VmLimit`], and an entry the compiled
//! program does not have (an unknown page, mismatched page bindings, a
//! handler closure from another program version) ends its run with
//! [`crate::error::RuntimeError::Internal`] before any state is touched
//! (see [`crate::system::EvalEngine`]). Each entry point returns a
//! [`VmRun`]; only [`run_example`] returns an `Option`, whose `None`
//! means the program has no such example.

mod arena;
mod compile;
mod exec;

pub use arena::Scratch;
pub use compile::CompileError;
pub use exec::{
    run_example, transition_page_init, transition_page_render, transition_thunk, RunStats, VmRun,
};

use std::collections::HashMap;
use std::sync::Arc;

use alive_syntax::ast::BinOp;
use alive_syntax::Span;

use crate::attr::Attr;
use crate::expr::Expr;
use crate::program::Program;
use crate::types::{Effect, Name};
use crate::value::Value;

/// A register index within the current frame window.
pub(crate) type Reg = u16;

/// One bytecode instruction. Register operands are frame-relative; the
/// executor adds the window base. Jump targets are absolute pcs within
/// the chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// `dst = consts[k]`.
    Const { dst: Reg, k: u32 },
    /// `dst = src`.
    Move { dst: Reg, src: Reg },
    /// `dst = store[globals[g]]`, running the interned initializer
    /// chunk on a store miss (EP-GLOBAL-2).
    Global { dst: Reg, g: u32 },
    /// `store[globals[g]] = src` (guarded by [`GuardOp::AssignGlobal`]).
    SetGlobal { g: u32, src: Reg },
    /// `dst = closure(lambdas[l])`, capturing registers listed in the
    /// lambda's capture set.
    MakeClosure { dst: Reg, l: u32 },
    /// `dst = (r[base], …, r[base+len-1])`.
    MakeTuple { dst: Reg, base: Reg, len: u16 },
    /// `dst = [r[base], …, r[base+len-1]]`.
    MakeList { dst: Reg, base: Reg, len: u16 },
    /// `dst = r[base] ++ … ++ r[base+len-1]`: join the batch tuples or
    /// lists of a wide literal into one of the same kind.
    Flatten { dst: Reg, base: Reg, len: u16 },
    /// `dst = src.index` (1-based tuple projection).
    Proj { dst: Reg, src: Reg, index: u32 },
    /// `dst = r[callee](r[base] … r[base+argc-1])`.
    Call {
        dst: Reg,
        callee: Reg,
        base: Reg,
        argc: u16,
    },
    /// Direct call of a statically resolved function — no intermediate
    /// closure value is allocated.
    CallFun {
        dst: Reg,
        l: u32,
        base: Reg,
        argc: u16,
    },
    /// Unconditional jump (fuel-free; cannot loop without a ticking
    /// condition instruction in between).
    Jump { to: u32 },
    /// Jump if `cond` is `false`; errors like `eval_bool` on non-bools.
    JumpIfFalse { cond: Reg, to: u32 },
    /// Jump if `cond` is `true`; errors like `eval_bool` on non-bools.
    JumpIfTrue { cond: Reg, to: u32 },
    /// Assert `src` is a bool (the `&&`/`||` right operand check).
    CheckBool { src: Reg },
    /// Assert `src` is a number (`for` bound checks).
    CheckNum { src: Reg },
    /// `dst = a op b` for non-short-circuit operators.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = r[o₁] ++ … ++ r[oₙ]` over the registers listed in
    /// `concats[ops]`: one left-associated `++` chain, built into one
    /// string. It ticks once and counts one instruction per `++` it
    /// replaces (n − 1), so fuel and instruction counts are those of the
    /// chain compiled one `Bin` per `++`.
    Concat { dst: Reg, ops: u32 },
    /// `dst = -src` (number-checked).
    Neg { dst: Reg, src: Reg },
    /// `dst = !src` (bool-checked).
    Not { dst: Reg, src: Reg },
    /// Foreach step: if `idx < len(list)` then `var = list[idx]; idx += 1`
    /// else jump to `exit`. Errors like bigstep on non-lists.
    IterNext {
        list: Reg,
        idx: Reg,
        var: Reg,
        exit: u32,
    },
    /// Effect-mode check, emitted *before* operand evaluation to match
    /// the tree walker's check-then-evaluate order.
    Guard { op: GuardOp },
    /// Widget-write guard: state-mode check plus `src` must hold a
    /// `WidgetRef`, which is copied to `key` so the slot key is pinned
    /// before the value expression runs (bigstep resolves it first).
    GuardWidget { src: Reg, key: Reg },
    /// Enqueue `Event::Push(pages[page], (args…))`.
    PushEvent { page: u32, base: Reg, argc: u16 },
    /// Enqueue `Event::Pop` (carries its own mode/queue checks).
    PopEvent,
    /// Open `boxed` frame `id`; on a render-hook cache hit, splice the
    /// cached subtree, write the cached value to `dst`, and jump `skip`.
    BoxEnter {
        id: u32,
        cap: u32,
        dst: Reg,
        skip: u32,
    },
    /// Close the current `boxed` frame; the body value is in `src`.
    BoxExit { id: u32, cap: u32, src: Reg },
    /// `post` the value in `src` as a leaf of the open box. `prov`
    /// indexes the program's [`ProvSpec`] table; the executor
    /// materializes it into a [`crate::provenance::Provenance`] by
    /// reading the listed registers *at this instruction* — after the
    /// operand ran, matching bigstep's lookup-after-eval order.
    PostLeaf { src: Reg, prov: u32 },
    /// `box.attr := src` on the open box (`prov` as in `PostLeaf`).
    SetAttr { attr: Attr, src: Reg, prov: u32 },
    /// `remember` slot bind: allocate the occurrence key for `id`, put
    /// its `WidgetRef` in `dst`, and jump `done` if the slot already
    /// holds a value (skipping the initializer).
    RememberBind { dst: Reg, id: u32, done: u32 },
    /// Store `src` into the widget slot referenced by `key` (the
    /// `remember` initializer commit).
    RememberInit { key: Reg, src: Reg },
    /// `dst = widgets[r[src]]`; `name` is the surface binding for the
    /// `UnknownLocal` error on a missing slot.
    WidgetGet { dst: Reg, src: Reg, name: u32 },
    /// `widgets[r[key]] = r[val]`.
    WidgetSet { key: Reg, val: Reg },
    /// Return `src` from the current chunk (fuel-free).
    Ret { src: Reg },
}

/// Mode checks hoisted before operand evaluation (ES-ASSIGN, ES-PUSH,
/// ER-POST, ER-ATTR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardOp {
    /// `g := e` requires state mode.
    AssignGlobal,
    /// `push p(…)` requires state mode (page existence is compile-time).
    Push,
    /// `post e` requires render mode with an open box.
    Post,
    /// `box.a := e` requires render mode with an open box.
    Attr,
}

/// Compile-time provenance for one `post`/`box.a :=` operand: the
/// literal's span, or the expression span plus its free locals resolved
/// to `(symbol, register)` pairs in [`crate::provenance::free_locals`]
/// order — the compile-time mirror of bigstep's `provenance_of`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProvSpec {
    /// The operand is a literal occurrence.
    Literal(Span),
    /// The operand is a computed expression with the given free locals.
    Expr {
        /// Span of the operand expression.
        span: Span,
        /// Free locals as `(symbol, frame register)`.
        free: Arc<[(u32, Reg)]>,
    },
}

/// One compiled body: a straight-line instruction vector plus its frame
/// shape. Frame layout is `[captured env | params | lets and temps]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunk {
    pub code: Vec<Instr>,
    /// Registers the frame window needs.
    pub regs: u16,
    /// Leading registers filled from a closure environment.
    pub env_len: u16,
    /// Registers after the environment filled from call arguments.
    pub params: u16,
}

/// Compile-time metadata for one lambda or named function.
#[derive(Debug, Clone)]
pub(crate) struct LambdaInfo {
    pub chunk: u32,
    pub params: Arc<[crate::expr::ParamSig]>,
    pub effect: Effect,
    /// The source body — closures built by the VM share this `Arc`, so
    /// bigstep can apply them and the executor can recognize its own
    /// closures by pointer.
    pub body: Arc<Expr>,
    /// `(symbol, register)` pairs to capture, in bigstep `capture_env`
    /// order (outermost first, shadowed entries included).
    pub captures: Arc<[(u32, Reg)]>,
}

/// One interned global: its name and initializer chunk.
#[derive(Debug, Clone)]
pub(crate) struct GlobalSlot {
    pub name: Name,
    pub init_chunk: u32,
}

/// One compiled live example: its pure body chunk (slot order matches
/// `Program::examples()`, so names live on the `Program` side).
#[derive(Debug, Clone)]
pub(crate) struct ExampleSlot {
    pub body_chunk: u32,
    /// The `expect` clause's chunk, when the example is self-checking.
    pub expect_chunk: Option<u32>,
}

/// Compiled entry points for one page.
#[derive(Debug, Clone)]
pub(crate) struct PageEntry {
    pub init_chunk: u32,
    pub render_chunk: u32,
    pub params: Arc<[crate::expr::ParamSig]>,
}

/// A whole program compiled to bytecode. Immutable and `Arc`-shared;
/// built once per program version via [`Program::vm`].
#[derive(Debug)]
pub struct VmProgram {
    pub(crate) chunks: Vec<Chunk>,
    pub(crate) consts: Vec<Value>,
    pub(crate) lambdas: Vec<LambdaInfo>,
    /// Render-hook capture sets for `boxed` sites.
    pub(crate) captures: Vec<Arc<[(u32, Reg)]>>,
    /// Operand registers of each `Concat`, left to right.
    pub(crate) concats: Vec<Box<[Reg]>>,
    /// Constant-provenance table indexed by the `prov` operand of
    /// `PostLeaf`/`SetAttr`.
    pub(crate) provs: Vec<ProvSpec>,
    pub(crate) globals: Vec<GlobalSlot>,
    pub(crate) examples: Vec<ExampleSlot>,
    pub(crate) page_names: Vec<Name>,
    /// The intern table: symbol ID → name.
    pub(crate) syms: Vec<Name>,
    pub(crate) pages: HashMap<Name, PageEntry>,
    /// `Arc::as_ptr` of a lambda/function body → lambda index, for
    /// dispatching closure calls without comparing expressions.
    pub(crate) by_body: HashMap<usize, u32>,
}

impl VmProgram {
    /// Compile `program` to bytecode.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on compiler capacity limits (a signature or
    /// frame beyond the 16-bit register file) or unresolvable names
    /// (programs that bypassed the type checker).
    pub fn compile(program: &Program) -> Result<VmProgram, CompileError> {
        compile::compile_program(program)
    }

    pub(crate) fn new_empty() -> VmProgram {
        VmProgram {
            chunks: Vec::new(),
            consts: Vec::new(),
            lambdas: Vec::new(),
            captures: Vec::new(),
            concats: Vec::new(),
            provs: Vec::new(),
            globals: Vec::new(),
            examples: Vec::new(),
            page_names: Vec::new(),
            syms: Vec::new(),
            pages: HashMap::new(),
            by_body: HashMap::new(),
        }
    }

    /// Number of interned symbols (names).
    pub fn symbol_count(&self) -> usize {
        self.syms.len()
    }

    /// The lambda index for a closure body created by this program (or
    /// by bigstep from the same program version), if any.
    pub(crate) fn lambda_for(&self, body: &Arc<Expr>) -> Option<u32> {
        self.by_body.get(&(Arc::as_ptr(body) as usize)).copied()
    }
}
