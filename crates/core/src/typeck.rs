//! The type and effect system — the paper's Figure 10 (expression
//! typing `C; Γ ⊢µ e : τ`) and the program part of Figure 11 (`C ⊢ C`).
//!
//! Effects are checked exactly as in the paper: state operations
//! (`g := e`, `push`, `pop`) require mode `s`; render operations
//! (`boxed`, `post`, `box.a := e`) require mode `r`; pure code runs in
//! any mode (T-SUB). Globals and page arguments must be →-free so that
//! no closure — hence no stale code — survives an UPDATE (§4.2).

use crate::expr::{Expr, ExprKind, ParamSig};
use crate::prim::Prim;
use crate::program::{Program, START_PAGE};
use crate::types::{Effect, Name, Type};
use alive_syntax::ast::{BinOp, UnOp};
use alive_syntax::{Diagnostic, Diagnostics, Span};

/// A typing context Γ: lexically scoped local variable types.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    scopes: Vec<Vec<(Name, Type)>>,
}

impl TypeEnv {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter a scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    /// Leave the innermost scope.
    pub fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// Bind a name in the innermost scope.
    pub fn bind(&mut self, name: Name, ty: Type) {
        match self.scopes.last_mut() {
            Some(scope) => scope.push((name, ty)),
            None => self.scopes.push(vec![(name, ty)]),
        }
    }

    /// Look up a name, innermost binding first.
    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| &**n == name))
            .map(|(_, t)| t)
    }
}

/// Type-check a whole program (`C ⊢ C`, Fig. 11). Returns all
/// diagnostics; the program is accepted iff none are errors.
pub fn check_program(program: &Program) -> Diagnostics {
    let mut checker = Checker {
        program,
        diags: Diagnostics::new(),
    };
    checker.check();
    checker.diags
}

/// Infer the type of a closed expression in the given mode — exposed for
/// tests and tooling.
pub fn infer_expr(program: &Program, mode: Effect, expr: &Expr) -> Result<Type, Diagnostics> {
    let mut checker = Checker {
        program,
        diags: Diagnostics::new(),
    };
    let mut env = TypeEnv::new();
    let ty = checker.infer(&mut env, mode, expr, None);
    match ty {
        Some(t) if !checker.diags.has_errors() => Ok(t),
        _ => Err(checker.diags),
    }
}

struct Checker<'p> {
    program: &'p Program,
    diags: Diagnostics,
}

impl Checker<'_> {
    fn error(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::error(span, message));
    }

    fn check(&mut self) {
        // T-SYS: the start page must exist (and takes no arguments, since
        // STARTUP pushes the unit value).
        match self.program.page(START_PAGE) {
            None => self.error(
                Span::DUMMY,
                "program must define `page start()` (rule T-SYS)",
            ),
            Some(p) if !p.params.is_empty() => {
                self.error(p.span, "`page start` must take no parameters");
            }
            Some(_) => {}
        }

        for g in self.program.globals() {
            // T-C-GLOBAL: →-free type, pure initializer of that type.
            if !g.ty.is_arrow_free() {
                self.error(
                    g.span,
                    format!(
                        "global `{}` has type `{}`, but globals must be \
                         function-free (T-C-GLOBAL)",
                        g.name, g.ty
                    ),
                );
            }
            let mut env = TypeEnv::new();
            self.check_expect(&mut env, Effect::Pure, &g.init, &g.ty);
        }

        for e in self.program.examples() {
            // Examples are closed pure probes; an `expect` clause must
            // produce the same type as the probed body.
            let mut env = TypeEnv::new();
            let body_ty = self.infer(&mut env, Effect::Pure, &e.body, None);
            if let Some(expect) = &e.expect {
                match &body_ty {
                    Some(t) => {
                        let mut env = TypeEnv::new();
                        self.check_expect(&mut env, Effect::Pure, expect, t);
                    }
                    None => {
                        let mut env = TypeEnv::new();
                        self.infer(&mut env, Effect::Pure, expect, None);
                    }
                }
            }
        }

        for f in self.program.funs() {
            // T-C-FUN: body types under the declared effect and returns
            // the declared type.
            let mut env = TypeEnv::new();
            env.push_scope();
            for p in f.params.iter() {
                env.bind(p.name.clone(), p.ty.clone());
            }
            self.check_expect(&mut env, f.effect, &f.body, &f.ret);
        }

        for page in self.program.pages() {
            // T-C-PAGE: →-free argument; init : τ →s (); render : τ →r ().
            for p in page.params.iter() {
                if !p.ty.is_arrow_free() {
                    self.error(
                        page.span,
                        format!(
                            "page parameter `{}` has type `{}`, but page \
                             arguments must be function-free (T-C-PAGE)",
                            p.name, p.ty
                        ),
                    );
                }
            }
            let bind_params = |env: &mut TypeEnv| {
                env.push_scope();
                for p in page.params.iter() {
                    env.bind(p.name.clone(), p.ty.clone());
                }
            };
            let mut env = TypeEnv::new();
            bind_params(&mut env);
            self.check_expect(&mut env, Effect::State, &page.init, &Type::unit());
            let mut env = TypeEnv::new();
            bind_params(&mut env);
            self.check_expect(&mut env, Effect::Render, &page.render, &Type::unit());
        }

        self.lint_unused();
    }

    /// Warn (never reject) about globals and functions unreachable from
    /// any page — dead model state and dead code are prime suspects
    /// during a live editing session.
    fn lint_unused(&mut self) {
        use std::collections::HashSet;
        let mut used_globals: HashSet<Name> = HashSet::new();
        let mut used_funs: HashSet<Name> = HashSet::new();
        let mut pending: Vec<Name> = Vec::new();
        let scan = |root: &Expr,
                    used_globals: &mut HashSet<Name>,
                    used_funs: &mut HashSet<Name>,
                    pending: &mut Vec<Name>| {
            root.walk(&mut |e| match &e.kind {
                ExprKind::Global(g) | ExprKind::GlobalAssign(g, _) => {
                    used_globals.insert(g.clone());
                }
                ExprKind::FunRef(f) if used_funs.insert(f.clone()) => {
                    pending.push(f.clone());
                }
                _ => {}
            });
        };
        for page in self.program.pages() {
            scan(&page.init, &mut used_globals, &mut used_funs, &mut pending);
            scan(
                &page.render,
                &mut used_globals,
                &mut used_funs,
                &mut pending,
            );
        }
        // A probed definition is a used definition: live examples keep
        // the code they observe out of the dead-code lint.
        for e in self.program.examples() {
            scan(&e.body, &mut used_globals, &mut used_funs, &mut pending);
            if let Some(expect) = &e.expect {
                scan(expect, &mut used_globals, &mut used_funs, &mut pending);
            }
        }
        while let Some(name) = pending.pop() {
            if let Some(def) = self.program.fun(&name) {
                let body = def.body.clone();
                scan(&body, &mut used_globals, &mut used_funs, &mut pending);
            }
        }
        for g in self.program.globals() {
            if !used_globals.contains(&g.name) {
                self.diags.push(Diagnostic::warning(
                    g.span,
                    format!("global `{}` is never read or written by any page", g.name),
                ));
            }
        }
        for f in self.program.funs() {
            if !used_funs.contains(&f.name) {
                self.diags.push(Diagnostic::warning(
                    f.span,
                    format!("function `{}` is never called from any page", f.name),
                ));
            }
        }
    }

    /// Check `e` against an expected type (with subsumption).
    fn check_expect(&mut self, env: &mut TypeEnv, mode: Effect, expr: &Expr, expected: &Type) {
        if let Some(found) = self.infer(env, mode, expr, Some(expected)) {
            if !found.is_subtype_of(expected) {
                self.error(
                    expr.span,
                    format!("expected type `{expected}`, found `{found}`"),
                );
            }
        }
    }

    /// Require that the current mode is exactly `needed` for an
    /// effectful operation.
    fn require_mode(&mut self, span: Span, mode: Effect, needed: Effect, op: &str) {
        if mode != needed {
            self.error(
                span,
                format!("`{op}` requires {needed} mode, but this is {mode} code"),
            );
        }
    }

    /// Infer a type; `None` means an error was already reported. The
    /// `hint` propagates expected types inward (for empty list literals
    /// and lambda bodies).
    fn infer(
        &mut self,
        env: &mut TypeEnv,
        mode: Effect,
        expr: &Expr,
        hint: Option<&Type>,
    ) -> Option<Type> {
        let span = expr.span;
        match &expr.kind {
            ExprKind::Num(_) => Some(Type::Number),
            ExprKind::Str(_) => Some(Type::String),
            ExprKind::Bool(_) => Some(Type::Bool),
            ExprKind::ColorLit(_) => Some(Type::Color),
            ExprKind::Local(name) => match env.lookup(name) {
                Some(t) => Some(t.clone()),
                None => {
                    self.error(span, format!("unbound local `{name}`"));
                    None
                }
            },
            ExprKind::Global(name) => match self.program.global(name) {
                Some(g) => Some(g.ty.clone()),
                None => {
                    self.error(span, format!("unknown global `{name}`"));
                    None
                }
            },
            ExprKind::FunRef(name) => match self.program.fun(name) {
                Some(f) => Some(Type::Fn(std::sync::Arc::new(f.fn_type()))),
                None => {
                    self.error(span, format!("unknown function `{name}`"));
                    None
                }
            },
            ExprKind::PrimRef(p) => match p.sig() {
                Some(sig) => Some(Type::Fn(std::sync::Arc::new(sig))),
                None => {
                    self.error(
                        span,
                        format!(
                            "polymorphic primitive `{p}` can only be called \
                             directly, not used as a value"
                        ),
                    );
                    None
                }
            },
            ExprKind::Tuple(elems) => {
                let hints: Vec<Option<&Type>> = match hint {
                    Some(Type::Tuple(ts)) if ts.len() == elems.len() => {
                        ts.iter().map(Some).collect()
                    }
                    _ => vec![None; elems.len()],
                };
                let mut tys = Vec::with_capacity(elems.len());
                for (e, h) in elems.iter().zip(hints) {
                    tys.push(self.infer(env, mode, e, h)?);
                }
                Some(Type::tuple(tys))
            }
            ExprKind::ListLit(elems) => {
                let elem_hint = match hint {
                    Some(Type::List(t)) => Some(&**t),
                    _ => None,
                };
                if elems.is_empty() {
                    return match elem_hint {
                        Some(t) => Some(Type::list(t.clone())),
                        None => {
                            self.error(
                                span,
                                "cannot infer the element type of an empty list; \
                                 add a type annotation",
                            );
                            None
                        }
                    };
                }
                let first = self.infer(env, mode, &elems[0], elem_hint)?;
                for e in &elems[1..] {
                    let t = self.infer(env, mode, e, Some(&first))?;
                    if !t.is_subtype_of(&first) {
                        self.error(
                            e.span,
                            format!(
                                "list elements must have one type: expected \
                                 `{first}`, found `{t}`"
                            ),
                        );
                    }
                }
                Some(Type::list(first))
            }
            ExprKind::Proj(base, index) => {
                let base_ty = self.infer(env, mode, base, None)?;
                match &base_ty {
                    Type::Tuple(ts) => {
                        let i = *index as usize;
                        if i >= 1 && i <= ts.len() {
                            Some(ts[i - 1].clone())
                        } else {
                            self.error(
                                span,
                                format!("projection .{index} out of range for `{base_ty}`"),
                            );
                            None
                        }
                    }
                    _ => {
                        self.error(
                            base.span,
                            format!("projection requires a tuple, found `{base_ty}`"),
                        );
                        None
                    }
                }
            }
            ExprKind::Call(callee, args) => {
                // Polymorphic list primitives are typed structurally.
                if let ExprKind::PrimRef(p) = &callee.kind {
                    if p.sig().is_none() {
                        return self.infer_poly_prim(env, mode, span, *p, args);
                    }
                }
                let callee_ty = self.infer(env, mode, callee, None)?;
                let Type::Fn(sig) = &callee_ty else {
                    self.error(
                        callee.span,
                        format!("cannot call a value of type `{callee_ty}`"),
                    );
                    return None;
                };
                // T-APP + T-SUB: the latent effect must fit this mode.
                if !sig.effect.subeffect_of(mode) {
                    self.error(
                        span,
                        format!("cannot call a {} function from {} code", sig.effect, mode),
                    );
                }
                if args.len() != sig.params.len() {
                    self.error(
                        span,
                        format!(
                            "expected {} argument(s), found {}",
                            sig.params.len(),
                            args.len()
                        ),
                    );
                    return None;
                }
                for (arg, pty) in args.iter().zip(sig.params.iter()) {
                    self.check_expect(env, mode, arg, pty);
                }
                Some(sig.ret.clone())
            }
            ExprKind::Lambda(lam) => {
                env.push_scope();
                for p in lam.params.iter() {
                    env.bind(p.name.clone(), p.ty.clone());
                }
                let ret_hint = match hint {
                    Some(Type::Fn(sig)) if sig.params.len() == lam.params.len() => {
                        Some(sig.ret.clone())
                    }
                    _ => None,
                };
                let body_ty = self.infer(env, lam.effect, &lam.body, ret_hint.as_ref());
                env.pop_scope();
                let ret = body_ty?;
                Some(Type::func(
                    lam.params.iter().map(|p| p.ty.clone()).collect(),
                    lam.effect,
                    ret,
                ))
            }
            ExprKind::Let {
                name,
                ty,
                value,
                body,
            } => {
                let value_ty = match ty {
                    Some(declared) => {
                        self.check_expect(env, mode, value, declared);
                        Some(declared.clone())
                    }
                    None => self.infer(env, mode, value, None),
                };
                env.push_scope();
                if let Some(t) = value_ty {
                    env.bind(name.clone(), t);
                } else {
                    // Recovery: bind to unit so the body still checks.
                    env.bind(name.clone(), Type::unit());
                }
                let body_ty = self.infer(env, mode, body, hint);
                env.pop_scope();
                body_ty
            }
            ExprKind::Seq(a, b) => {
                self.infer(env, mode, a, None)?;
                self.infer(env, mode, b, hint)
            }
            ExprKind::If(c, t, e) => {
                self.check_expect(env, mode, c, &Type::Bool);
                let then_ty = self.infer(env, mode, t, hint)?;
                let else_ty = self.infer(env, mode, e, hint.or(Some(&then_ty)))?;
                if else_ty.is_subtype_of(&then_ty) {
                    Some(then_ty)
                } else if then_ty.is_subtype_of(&else_ty) {
                    Some(else_ty)
                } else {
                    self.error(
                        span,
                        format!("branches of `if` disagree: `{then_ty}` vs `{else_ty}`"),
                    );
                    None
                }
            }
            ExprKind::While(c, body) => {
                self.check_expect(env, mode, c, &Type::Bool);
                self.infer(env, mode, body, None)?;
                Some(Type::unit())
            }
            ExprKind::ForRange { var, lo, hi, body } => {
                self.check_expect(env, mode, lo, &Type::Number);
                self.check_expect(env, mode, hi, &Type::Number);
                env.push_scope();
                env.bind(var.clone(), Type::Number);
                self.infer(env, mode, body, None);
                env.pop_scope();
                Some(Type::unit())
            }
            ExprKind::Foreach { var, list, body } => {
                let list_ty = self.infer(env, mode, list, None)?;
                let Type::List(elem) = &list_ty else {
                    self.error(
                        list.span,
                        format!("`foreach` requires a list, found `{list_ty}`"),
                    );
                    return None;
                };
                env.push_scope();
                env.bind(var.clone(), (**elem).clone());
                self.infer(env, mode, body, None);
                env.pop_scope();
                Some(Type::unit())
            }
            ExprKind::LocalAssign(name, value) => {
                // Local mutation is mode-agnostic: it cannot escape the
                // model-view separation (locals die with the activation).
                let Some(declared) = env.lookup(name).cloned() else {
                    self.error(span, format!("unbound local `{name}`"));
                    return None;
                };
                self.check_expect(env, mode, value, &declared);
                Some(Type::unit())
            }
            ExprKind::GlobalAssign(name, value) => {
                // T-ASSIGN: only in state mode.
                self.require_mode(span, mode, Effect::State, "g := e");
                let Some(g) = self.program.global(name) else {
                    self.error(span, format!("unknown global `{name}`"));
                    return None;
                };
                let declared = g.ty.clone();
                self.check_expect(env, mode, value, &declared);
                Some(Type::unit())
            }
            ExprKind::PushPage(name, args) => {
                // T-PUSH: only in state mode; argument types match.
                self.require_mode(span, mode, Effect::State, "push");
                let Some(page) = self.program.page(name) else {
                    self.error(span, format!("unknown page `{name}`"));
                    return None;
                };
                let params: Vec<ParamSig> = page.params.to_vec();
                if args.len() != params.len() {
                    self.error(
                        span,
                        format!(
                            "page `{name}` takes {} argument(s), found {}",
                            params.len(),
                            args.len()
                        ),
                    );
                    return Some(Type::unit());
                }
                for (arg, p) in args.iter().zip(params.iter()) {
                    self.check_expect(env, mode, arg, &p.ty);
                }
                Some(Type::unit())
            }
            ExprKind::PopPage => {
                // T-POP: only in state mode.
                self.require_mode(span, mode, Effect::State, "pop");
                Some(Type::unit())
            }
            ExprKind::Boxed(_, body) => {
                // T-BOXED: render mode; the box's value is the body's.
                self.require_mode(span, mode, Effect::Render, "boxed");
                self.infer(env, Effect::Render, body, hint)
            }
            ExprKind::Post(value) => {
                // T-POST: render mode; any value type.
                self.require_mode(span, mode, Effect::Render, "post");
                self.infer(env, Effect::Render, value, None)?;
                Some(Type::unit())
            }
            ExprKind::SetAttr(attr, value) => {
                // T-ATTR: render mode; value must match Γa(a).
                self.require_mode(span, mode, Effect::Render, "box.a := e");
                let expected = attr.ty();
                self.check_expect(env, Effect::Render, value, &expected);
                Some(Type::unit())
            }
            ExprKind::Remember {
                name,
                ty,
                init,
                body,
                ..
            } => {
                // View-state slots exist only in render code; the slot
                // type must be →-free so no code hides in view state.
                self.require_mode(span, mode, Effect::Render, "remember");
                if !ty.is_arrow_free() {
                    self.error(
                        span,
                        format!(
                            "`remember {name}` has type `{ty}`, but view-state \
                             slots must be function-free"
                        ),
                    );
                }
                self.check_expect(env, Effect::Pure, init, ty);
                env.push_scope();
                env.bind(name.clone(), ty.clone());
                let body_ty = self.infer(env, mode, body, hint);
                env.pop_scope();
                body_ty
            }
            ExprKind::WidgetRead(name) => match env.lookup(name) {
                Some(t) => Some(t.clone()),
                None => {
                    self.error(span, format!("unbound view-state slot `{name}`"));
                    None
                }
            },
            ExprKind::WidgetWrite(name, value) => {
                // Only handlers (state code) may mutate view state; the
                // view itself stays a function of model + view-state.
                self.require_mode(span, mode, Effect::State, "widget slot assignment");
                let Some(declared) = env.lookup(name).cloned() else {
                    self.error(span, format!("unbound view-state slot `{name}`"));
                    return None;
                };
                self.check_expect(env, mode, value, &declared);
                Some(Type::unit())
            }
            ExprKind::Binary(op, lhs, rhs) => self.infer_binary(env, mode, span, *op, lhs, rhs),
            ExprKind::Unary(op, inner) => match op {
                UnOp::Neg => {
                    self.check_expect(env, mode, inner, &Type::Number);
                    Some(Type::Number)
                }
                UnOp::Not => {
                    self.check_expect(env, mode, inner, &Type::Bool);
                    Some(Type::Bool)
                }
            },
        }
    }

    fn infer_binary(
        &mut self,
        env: &mut TypeEnv,
        mode: Effect,
        span: Span,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Option<Type> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => {
                self.check_expect(env, mode, lhs, &Type::Number);
                self.check_expect(env, mode, rhs, &Type::Number);
                Some(Type::Number)
            }
            And | Or => {
                self.check_expect(env, mode, lhs, &Type::Bool);
                self.check_expect(env, mode, rhs, &Type::Bool);
                Some(Type::Bool)
            }
            Concat => {
                for side in [lhs, rhs] {
                    let t = self.infer(env, mode, side, None)?;
                    if !matches!(t, Type::String | Type::Number | Type::Bool | Type::Color) {
                        self.error(
                            side.span,
                            format!(
                                "`++` concatenates strings, numbers, bools, and \
                                 colors; found `{t}`"
                            ),
                        );
                    }
                }
                Some(Type::String)
            }
            Eq | Ne => {
                let lt = self.infer(env, mode, lhs, None)?;
                let rt = self.infer(env, mode, rhs, Some(&lt))?;
                if !(rt.is_subtype_of(&lt) || lt.is_subtype_of(&rt)) {
                    self.error(span, format!("cannot compare `{lt}` with `{rt}`"));
                } else if !lt.is_arrow_free() {
                    self.error(span, "cannot compare functions for equality");
                }
                Some(Type::Bool)
            }
            Lt | Le | Gt | Ge => {
                let lt = self.infer(env, mode, lhs, None)?;
                match lt {
                    Type::Number => self.check_expect(env, mode, rhs, &Type::Number),
                    Type::String => self.check_expect(env, mode, rhs, &Type::String),
                    other => {
                        self.error(
                            lhs.span,
                            format!("ordering requires numbers or strings, found `{other}`"),
                        );
                        self.infer(env, mode, rhs, None)?;
                    }
                }
                Some(Type::Bool)
            }
        }
    }

    /// Structural typing for the polymorphic `list` primitives.
    fn infer_poly_prim(
        &mut self,
        env: &mut TypeEnv,
        mode: Effect,
        span: Span,
        prim: Prim,
        args: &[Expr],
    ) -> Option<Type> {
        if args.len() != prim.arity() {
            self.error(
                span,
                format!(
                    "`{prim}` takes {} argument(s), found {}",
                    prim.arity(),
                    args.len()
                ),
            );
            return None;
        }
        let list_ty = self.infer(env, mode, &args[0], None)?;
        let Type::List(elem) = &list_ty else {
            self.error(
                args[0].span,
                format!("`{prim}` requires a list, found `{list_ty}`"),
            );
            return None;
        };
        let elem = (**elem).clone();
        match prim {
            Prim::ListLength => Some(Type::Number),
            Prim::ListIsEmpty => Some(Type::Bool),
            Prim::ListReverse => Some(list_ty.clone()),
            Prim::ListNth => {
                self.check_expect(env, mode, &args[1], &Type::Number);
                Some(elem)
            }
            Prim::ListAppend => {
                self.check_expect(env, mode, &args[1], &elem);
                Some(list_ty.clone())
            }
            Prim::ListSet => {
                self.check_expect(env, mode, &args[1], &Type::Number);
                self.check_expect(env, mode, &args[2], &elem);
                Some(list_ty.clone())
            }
            Prim::ListConcat => {
                self.check_expect(env, mode, &args[1], &list_ty);
                Some(list_ty.clone())
            }
            // `infer` sends only the primitives without a signature here.
            other => {
                self.error(span, format!("`{other}` is not a polymorphic primitive"));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use alive_syntax::parse_program;

    fn check(src: &str) -> Diagnostics {
        let parsed = parse_program(src);
        assert!(parsed.is_ok(), "parse: {}", parsed.diagnostics.render(src));
        let lowered = lower_program(&parsed.program);
        assert!(
            lowered.is_ok(),
            "lower: {}",
            lowered.diagnostics.render(src)
        );
        check_program(&lowered.program)
    }

    fn check_ok(src: &str) {
        let ds = check(src);
        assert!(!ds.has_errors(), "unexpected type errors: {ds}");
    }

    fn check_err(src: &str, needle: &str) {
        let ds = check(src);
        assert!(
            ds.has_errors(),
            "expected a type error containing {needle:?}"
        );
        let text = ds.to_string();
        assert!(
            text.contains(needle),
            "expected error containing {needle:?}, got:\n{text}"
        );
    }

    const START: &str = "page start() { render { } }";

    #[test]
    fn requires_start_page() {
        let ds = check("global g : number = 0");
        assert!(ds.to_string().contains("page start"));
        check_ok(START);
    }

    #[test]
    fn start_page_takes_no_params() {
        check_err("page start(x: number) { render { } }", "no parameters");
    }

    #[test]
    fn global_types_check() {
        check_ok(&format!("global g : number = 1 + 2 {START}"));
        check_err(
            &format!("global g : number = \"hi\" {START}"),
            "expected type `number`",
        );
    }

    #[test]
    fn globals_must_be_arrow_free() {
        check_err(
            &format!("global h : fn() state -> () = fn() state {{ pop; }} {START}"),
            "function-free",
        );
    }

    #[test]
    fn render_cannot_write_globals() {
        check_err(
            "global g : number = 0
             page start() { render { g := 1; } }",
            "requires state mode",
        );
    }

    #[test]
    fn render_cannot_push_or_pop() {
        check_err("page start() { render { pop; } }", "requires state mode");
        check_err(
            "page start() { render { push start(); } }",
            "requires state mode",
        );
    }

    #[test]
    fn init_cannot_create_boxes() {
        check_err(
            "page start() { init { boxed { } } render { } }",
            "requires render mode",
        );
        check_err(
            "page start() { init { post 1; } render { } }",
            "requires render mode",
        );
    }

    #[test]
    fn handlers_can_write_globals() {
        check_ok(
            "global count : number = 0
             page start() {
                 render {
                     boxed { on tap { count := count + 1; } }
                 }
             }",
        );
    }

    #[test]
    fn render_functions_callable_only_from_render() {
        check_ok(
            "fun show(n: number): () render { boxed { post n; } }
             page start() { render { show(1); } }",
        );
        check_err(
            "fun show(n: number): () render { boxed { post n; } }
             page start() { init { show(1); } render { } }",
            "cannot call a render function from state code",
        );
    }

    #[test]
    fn pure_functions_callable_everywhere() {
        check_ok(
            "fun double(n: number): number pure { n * 2 }
             global g : number = double(2)
             page start() {
                 init { g := double(3); }
                 render { post double(4); }
             }",
        );
    }

    #[test]
    fn state_functions_not_callable_from_render() {
        check_err(
            "global g : number = 0
             fun bump(): () state { g := g + 1; }
             page start() { render { bump(); } }",
            "cannot call a state function from render code",
        );
    }

    #[test]
    fn attr_types_enforced() {
        check_ok("page start() { render { boxed { box.margin := 4; } } }");
        check_err(
            "page start() { render { boxed { box.margin := \"wide\"; } } }",
            "expected type `number`",
        );
        check_ok("page start() { render { boxed { box.background := colors.red; } } }");
    }

    #[test]
    fn page_arguments_checked_at_push() {
        check_ok(
            "page start() { render { boxed { on tap { push detail(\"a\", 1); } } } }
             page detail(addr: string, price: number) { render { post addr; } }",
        );
        check_err(
            "page start() { render { boxed { on tap { push detail(1); } } } }
             page detail(addr: string) { render { } }",
            "expected type `string`",
        );
        check_err(
            "page start() { render { boxed { on tap { push detail(); } } } }
             page detail(addr: string) { render { } }",
            "takes 1 argument",
        );
    }

    #[test]
    fn projection_bounds() {
        check_ok(
            "fun f(t: (string, number)): number pure { t.2 }
             page start() { render { } }",
        );
        check_err(
            "fun f(t: (string, number)): number pure { t.3 }
             page start() { render { } }",
            "out of range",
        );
    }

    #[test]
    fn empty_list_needs_annotation() {
        check_ok(&format!("global xs : list number = [] {START}"));
        check_err(
            "fun f(): number pure { let xs = []; 0 }
             page start() { render { } }",
            "empty list",
        );
    }

    #[test]
    fn poly_list_prims() {
        check_ok(&format!(
            "global xs : list string = [\"a\"]
             global n : number = list.length(xs)
             global s : string = list.nth(xs, 0)
             global ys : list string = list.append(xs, \"b\")
             {START}"
        ));
        check_err(
            &format!(
                "global xs : list string = [\"a\"]
                 global ys : list string = list.append(xs, 1)
                 {START}"
            ),
            "expected type `string`",
        );
    }

    #[test]
    fn web_is_state_effect() {
        check_ok(
            "global listings : list (string, number) = []
             page start() {
                 init { listings := web.listings(10); }
                 render { post list.length(listings); }
             }",
        );
        check_err(
            "page start() { render { post web.listings(10); } }",
            "cannot call a state function from render code",
        );
    }

    #[test]
    fn concat_coerces_but_checks() {
        check_ok(&format!("global s : string = \"n=\" ++ 42 ++ true {START}"));
        check_err(
            &format!("global s : string = \"x\" ++ (1, 2) {START}"),
            "`++` concatenates",
        );
    }

    #[test]
    fn if_branches_must_agree() {
        check_ok(&format!(
            "fun f(b: bool): number pure {{ if b {{ 1 }} else {{ 2 }} }} {START}"
        ));
        check_err(
            &format!("fun f(b: bool): number pure {{ if b {{ 1 }} else {{ \"x\" }} }} {START}"),
            "branches of `if` disagree",
        );
    }

    #[test]
    fn cannot_compare_functions() {
        check_err(
            &format!(
                "fun f(): bool pure {{
                     let g = fn(x: number) -> x;
                     let h = fn(x: number) -> x;
                     g == h
                 }} {START}"
            ),
            "cannot compare functions",
        );
    }

    #[test]
    fn handler_effect_mismatch_rejected() {
        // A render-effect lambda cannot be installed as a (state) handler.
        check_err(
            "page start() { render { boxed {
                 box.ontap := fn() render { post 1; };
             } } }",
            "expected type",
        );
    }

    #[test]
    fn unused_definitions_warn_but_do_not_reject() {
        let ds = check(
            "global used : number = 0
             global dead : number = 0
             fun live_fn(): number pure { used }
             fun dead_fn(): number pure { 1 }
             fun indirectly_live(): number pure { 2 }
             fun caller(): number pure { indirectly_live() }
             page start() {
                 init { used := live_fn() + caller(); }
                 render { post used; }
             }",
        );
        assert!(!ds.has_errors(), "warnings only: {ds}");
        let text = ds.to_string();
        assert!(text.contains("global `dead` is never"), "{text}");
        assert!(text.contains("function `dead_fn` is never"), "{text}");
        assert!(!text.contains("`used`"), "{text}");
        assert!(!text.contains("`live_fn`"), "{text}");
        assert!(!text.contains("`indirectly_live`"), "{text}");
        // compile() accepts programs with warnings.
        assert!(crate::compile(
            "global dead : number = 0
             page start() { render { } }"
        )
        .is_ok());
    }

    #[test]
    fn boxed_value_passthrough() {
        // boxed e has the type of e (T-BOXED).
        check_ok(
            "fun measure(): number render { boxed { post 1; 42 } }
             page start() { render { measure(); } }",
        );
    }
}
