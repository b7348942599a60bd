//! Programs — the paper's code component `C` (Figure 7).
//!
//! `d ::= global g : τ = v | fun f : τ is e | page p(τ) init e1 render e2`

use crate::expr::{Expr, ParamSig};
use crate::types::{Effect, FnType, Name, Type};
use alive_syntax::Span;
use std::collections::HashMap;
use std::sync::Arc;

/// `global g : τ = e` — a global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Variable name.
    pub name: Name,
    /// Declared →-free type.
    pub ty: Type,
    /// Pure initializer expression.
    pub init: Arc<Expr>,
    /// Source span of the definition.
    pub span: Span,
}

/// `fun f : τ is e` — a global function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunDef {
    /// Function name.
    pub name: Name,
    /// Parameters.
    pub params: Arc<[ParamSig]>,
    /// Declared return type.
    pub ret: Type,
    /// Latent effect.
    pub effect: Effect,
    /// Body expression.
    pub body: Arc<Expr>,
    /// Source span of the definition.
    pub span: Span,
}

impl FunDef {
    /// The function's type `(τ1, ..., τn) →µ τ`.
    pub fn fn_type(&self) -> FnType {
        FnType {
            params: self.params.iter().map(|p| p.ty.clone()).collect(),
            effect: self.effect,
            ret: self.ret.clone(),
        }
    }
}

/// `page p(τ) init e1 render e2` — a page definition.
#[derive(Debug, Clone, PartialEq)]
pub struct PageDef {
    /// Page name.
    pub name: Name,
    /// Page parameters; the page argument value is the tuple of these.
    pub params: Arc<[ParamSig]>,
    /// Initialization body (state effect; runs once on push).
    pub init: Arc<Expr>,
    /// Render body (render effect; re-runs on every refresh).
    pub render: Arc<Expr>,
    /// Source span of the definition.
    pub span: Span,
}

impl PageDef {
    /// The type of the page's argument tuple (→-free by T-C-PAGE).
    pub fn arg_type(&self) -> Type {
        Type::tuple(self.params.iter().map(|p| p.ty.clone()).collect())
    }
}

/// `example e = body [expect e']` — a Babylonian live example: a pure
/// expression re-evaluated continuously while the program is edited,
/// with an optional self-checking expected value.
#[derive(Debug, Clone, PartialEq)]
pub struct ExampleDef {
    /// Example (probe) name.
    pub name: Name,
    /// The probed pure expression.
    pub body: Arc<Expr>,
    /// Optional expected value expression (pure).
    pub expect: Option<Arc<Expr>>,
    /// Source span of the definition.
    pub span: Span,
}

/// The name of the page every program starts on (rule STARTUP / T-SYS).
pub const START_PAGE: &str = "start";

/// A complete program `C`, after lowering from surface syntax.
#[derive(Debug, Clone, Default)]
pub struct Program {
    globals: Vec<GlobalDef>,
    funs: Vec<FunDef>,
    pages: Vec<PageDef>,
    examples: Vec<ExampleDef>,
    global_index: HashMap<Name, usize>,
    fun_index: HashMap<Name, usize>,
    page_index: HashMap<Name, usize>,
    /// Span of each `boxed` statement, indexed by [`crate::expr::BoxSourceId`].
    pub box_spans: Vec<Span>,
    /// Span of each `remember` statement, indexed by
    /// [`crate::expr::RememberId`].
    pub remember_spans: Vec<Span>,
    /// Lazily compiled bytecode for this program version, or the VM
    /// limit that refused it. Every mutator resets this cache.
    vm_cache: std::sync::OnceLock<Result<Arc<crate::vm::VmProgram>, crate::vm::CompileError>>,
}

impl Program {
    /// An empty program (no definitions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a global definition. Returns `false` (and ignores the
    /// definition) if the name is already taken in any namespace.
    pub fn add_global(&mut self, def: GlobalDef) -> bool {
        if self.is_defined(&def.name) {
            return false;
        }
        self.vm_cache = std::sync::OnceLock::new();
        self.global_index
            .insert(def.name.clone(), self.globals.len());
        self.globals.push(def);
        true
    }

    /// Add a function definition. Returns `false` on duplicate names.
    pub fn add_fun(&mut self, def: FunDef) -> bool {
        if self.is_defined(&def.name) {
            return false;
        }
        self.vm_cache = std::sync::OnceLock::new();
        self.fun_index.insert(def.name.clone(), self.funs.len());
        self.funs.push(def);
        true
    }

    /// Add a page definition. Returns `false` on duplicate names.
    pub fn add_page(&mut self, def: PageDef) -> bool {
        if self.is_defined(&def.name) {
            return false;
        }
        self.vm_cache = std::sync::OnceLock::new();
        self.page_index.insert(def.name.clone(), self.pages.len());
        self.pages.push(def);
        true
    }

    /// Add a live example definition. Returns `false` when another
    /// example already uses the name (examples have their own
    /// namespace: an example may legally probe a global of the same
    /// name).
    pub fn add_example(&mut self, def: ExampleDef) -> bool {
        if self.examples.iter().any(|e| e.name == def.name) {
            return false;
        }
        self.vm_cache = std::sync::OnceLock::new();
        self.examples.push(def);
        true
    }

    /// Whether any definition uses this name (T-C-* uniqueness).
    pub fn is_defined(&self, name: &str) -> bool {
        self.global_index.contains_key(name)
            || self.fun_index.contains_key(name)
            || self.page_index.contains_key(name)
    }

    /// Look up a global definition.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.global_index.get(name).map(|&i| &self.globals[i])
    }

    /// Look up a function definition.
    pub fn fun(&self, name: &str) -> Option<&FunDef> {
        self.fun_index.get(name).map(|&i| &self.funs[i])
    }

    /// Look up a page definition — the paper's `C(p) = (fi, fr)`.
    pub fn page(&self, name: &str) -> Option<&PageDef> {
        self.page_index.get(name).map(|&i| &self.pages[i])
    }

    /// All globals, in definition order.
    pub fn globals(&self) -> &[GlobalDef] {
        &self.globals
    }

    /// All functions, in definition order.
    pub fn funs(&self) -> &[FunDef] {
        &self.funs
    }

    /// All pages, in definition order.
    pub fn pages(&self) -> &[PageDef] {
        &self.pages
    }

    /// All live examples, in definition order.
    pub fn examples(&self) -> &[ExampleDef] {
        &self.examples
    }

    /// Allocate a fresh box-source id for a `boxed` statement at `span`.
    pub fn alloc_box_source(&mut self, span: Span) -> crate::expr::BoxSourceId {
        let id = crate::expr::BoxSourceId(self.box_spans.len() as u32);
        self.vm_cache = std::sync::OnceLock::new();
        self.box_spans.push(span);
        id
    }

    /// The span of a `boxed` statement, for navigation.
    pub fn box_span(&self, id: crate::expr::BoxSourceId) -> Option<Span> {
        self.box_spans.get(id.0 as usize).copied()
    }

    /// Allocate a fresh id for a `remember` statement at `span`.
    pub fn alloc_remember(&mut self, span: Span) -> crate::expr::RememberId {
        let id = crate::expr::RememberId(self.remember_spans.len() as u32);
        self.vm_cache = std::sync::OnceLock::new();
        self.remember_spans.push(span);
        id
    }

    /// The span of a `remember` statement.
    pub fn remember_span(&self, id: crate::expr::RememberId) -> Option<Span> {
        self.remember_spans.get(id.0 as usize).copied()
    }

    /// The program compiled to bytecode, compiling on first use and
    /// caching the result for the lifetime of this program version
    /// (mutators invalidate).
    ///
    /// # Errors
    ///
    /// The [`crate::vm::CompileError`] naming the VM limit the program
    /// exceeds; a `Vm`-engine system faults every transition with it.
    pub fn try_vm(&self) -> Result<Arc<crate::vm::VmProgram>, crate::vm::CompileError> {
        self.vm_cache
            .get_or_init(|| crate::vm::VmProgram::compile(self).map(Arc::new))
            .clone()
    }

    /// [`Program::try_vm`], with the refusal reason dropped.
    pub fn vm(&self) -> Option<Arc<crate::vm::VmProgram>> {
        self.try_vm().ok()
    }

    /// Whether the bytecode cache is already populated (successfully or
    /// not) — i.e. whether the next [`Program::vm`] call is free.
    pub fn vm_ready(&self) -> bool {
        self.vm_cache.get().is_some()
    }

    /// Total node count across all bodies (a size metric for benches).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        for g in &self.globals {
            n += g.init.node_count();
        }
        for f in &self.funs {
            n += f.body.node_count();
        }
        for p in &self.pages {
            n += p.init.node_count() + p.render.node_count();
        }
        for e in &self.examples {
            n += e.body.node_count();
            if let Some(expect) = &e.expect {
                n += expect.node_count();
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprKind;

    fn unit_expr() -> Arc<Expr> {
        Arc::new(Expr::unit(Span::DUMMY))
    }

    #[test]
    fn duplicate_names_rejected_across_namespaces() {
        let mut p = Program::new();
        assert!(p.add_global(GlobalDef {
            name: Arc::from("x"),
            ty: Type::Number,
            init: Arc::new(Expr::new(ExprKind::Num(0.0), Span::DUMMY)),
            span: Span::DUMMY,
        }));
        // A page named `x` clashes with the global `x`.
        assert!(!p.add_page(PageDef {
            name: Arc::from("x"),
            params: Arc::from(Vec::new()),
            init: unit_expr(),
            render: unit_expr(),
            span: Span::DUMMY,
        }));
        assert!(p.is_defined("x"));
        assert!(p.global("x").is_some());
        assert!(p.page("x").is_none());
    }

    #[test]
    fn page_arg_type_is_param_tuple() {
        let page = PageDef {
            name: Arc::from("detail"),
            params: Arc::from(vec![
                ParamSig::new("addr", Type::String),
                ParamSig::new("price", Type::Number),
            ]),
            init: unit_expr(),
            render: unit_expr(),
            span: Span::DUMMY,
        };
        assert_eq!(
            page.arg_type(),
            Type::tuple(vec![Type::String, Type::Number])
        );
        assert!(page.arg_type().is_arrow_free());
    }

    #[test]
    fn box_source_allocation() {
        let mut p = Program::new();
        let a = p.alloc_box_source(Span::new(1, 5));
        let b = p.alloc_box_source(Span::new(7, 9));
        assert_ne!(a, b);
        assert_eq!(p.box_span(a), Some(Span::new(1, 5)));
        assert_eq!(p.box_span(b), Some(Span::new(7, 9)));
        assert_eq!(p.box_span(crate::expr::BoxSourceId(99)), None);
    }
}
