//! Lowering from surface syntax to the core language.
//!
//! Lowering resolves names (locals vs globals vs functions), identifies
//! primitives and attributes, expands `on <event>` sugar into handler
//! attribute assignments, converts blocks to `let`/`seq` chains, and
//! allocates [`crate::expr::BoxSourceId`]s for every `boxed` statement.

use crate::attr::Attr;
use crate::expr::{Expr, ExprKind, LambdaExpr, ParamSig};
use crate::prim::Prim;
use crate::program::{ExampleDef, FunDef, GlobalDef, PageDef, Program};
use crate::types::{Effect, Name, Type};
use crate::value::Color;
use alive_syntax::ast;
use alive_syntax::{Diagnostic, Diagnostics, Span};
use std::collections::HashSet;
use std::sync::Arc;

/// Result of lowering: a core program plus any diagnostics.
#[derive(Debug, Clone)]
pub struct LowerResult {
    /// The lowered program (partial if there were errors).
    pub program: Program,
    /// Problems found during lowering.
    pub diagnostics: Diagnostics,
}

impl LowerResult {
    /// Whether lowering succeeded without errors.
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// Lower a parsed surface program to a core [`Program`].
pub fn lower_program(ast: &ast::Program) -> LowerResult {
    let mut lowerer = Lowerer {
        program: Program::new(),
        diags: Diagnostics::new(),
        globals: HashSet::new(),
        funs: HashSet::new(),
        pages: HashSet::new(),
        examples: HashSet::new(),
        scopes: Vec::new(),
    };
    lowerer.collect_names(ast);
    lowerer.lower_items(ast);
    LowerResult {
        program: lowerer.program,
        diagnostics: lowerer.diags,
    }
}

/// Convert a surface effect annotation to a core effect.
pub fn lower_effect(eff: ast::EffectAnn) -> Effect {
    match eff {
        ast::EffectAnn::Pure => Effect::Pure,
        ast::EffectAnn::State => Effect::State,
        ast::EffectAnn::Render => Effect::Render,
    }
}

/// Convert a surface type expression to a core type.
pub fn lower_type(ty: &ast::TypeExpr) -> Type {
    match &ty.kind {
        ast::TypeExprKind::Number => Type::Number,
        ast::TypeExprKind::String => Type::String,
        ast::TypeExprKind::Bool => Type::Bool,
        ast::TypeExprKind::Color => Type::Color,
        ast::TypeExprKind::Tuple(elems) => Type::tuple(elems.iter().map(lower_type).collect()),
        ast::TypeExprKind::List(elem) => Type::list(lower_type(elem)),
        ast::TypeExprKind::Fn {
            params,
            effect,
            ret,
        } => Type::func(
            params.iter().map(lower_type).collect(),
            lower_effect(*effect),
            lower_type(ret),
        ),
    }
}

struct Lowerer {
    program: Program,
    diags: Diagnostics,
    globals: HashSet<String>,
    funs: HashSet<String>,
    pages: HashSet<String>,
    /// Examples live in their own namespace: a probe may share its name
    /// with the global or function it observes.
    examples: HashSet<String>,
    /// Local scopes, innermost last; each binding carries whether it is
    /// a `remember` widget slot (true) or a plain local (false).
    scopes: Vec<Vec<(Name, bool)>>,
}

impl Lowerer {
    fn error(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::error(span, message));
    }

    /// First pass: collect top-level names so definitions can reference
    /// each other in any order.
    fn collect_names(&mut self, ast: &ast::Program) {
        for item in &ast.items {
            let name = item.name();
            if let ast::Item::Example(_) = item {
                if !self.examples.insert(name.text.clone()) {
                    self.error(
                        name.span,
                        format!("duplicate definition of example `{}`", name.text),
                    );
                }
                continue;
            }
            let already = self.globals.contains(&name.text)
                || self.funs.contains(&name.text)
                || self.pages.contains(&name.text);
            if already {
                self.error(
                    name.span,
                    format!("duplicate definition of `{}`", name.text),
                );
                continue;
            }
            match item {
                ast::Item::Global(_) => {
                    self.globals.insert(name.text.clone());
                }
                ast::Item::Fun(_) => {
                    self.funs.insert(name.text.clone());
                }
                ast::Item::Page(_) => {
                    self.pages.insert(name.text.clone());
                }
                // Collected into their own namespace above.
                ast::Item::Example(_) => {}
            }
        }
    }

    fn lower_items(&mut self, ast: &ast::Program) {
        for item in &ast.items {
            match item {
                ast::Item::Global(g) => {
                    let def = GlobalDef {
                        name: Arc::from(g.name.text.as_str()),
                        ty: lower_type(&g.ty),
                        init: Arc::new(self.expr(&g.init)),
                        span: g.span,
                    };
                    self.program.add_global(def);
                }
                ast::Item::Fun(f) => {
                    let params = self.lower_params(&f.params);
                    self.scopes
                        .push(params.iter().map(|p| (p.name.clone(), false)).collect());
                    let body = self.block(&f.body);
                    self.scopes.pop();
                    let def = FunDef {
                        name: Arc::from(f.name.text.as_str()),
                        params: Arc::from(params),
                        ret: f.ret.as_ref().map(lower_type).unwrap_or_else(Type::unit),
                        effect: lower_effect(f.effect),
                        body: Arc::new(body),
                        span: f.span,
                    };
                    self.program.add_fun(def);
                }
                ast::Item::Page(p) => {
                    let params = self.lower_params(&p.params);
                    let names: Vec<(Name, bool)> =
                        params.iter().map(|p| (p.name.clone(), false)).collect();
                    self.scopes.push(names.clone());
                    let init = self.block(&p.init);
                    self.scopes.pop();
                    self.scopes.push(names);
                    let render = self.block(&p.render);
                    self.scopes.pop();
                    let def = PageDef {
                        name: Arc::from(p.name.text.as_str()),
                        params: Arc::from(params),
                        init: Arc::new(init),
                        render: Arc::new(render),
                        span: p.span,
                    };
                    self.program.add_page(def);
                }
                ast::Item::Example(e) => {
                    // Examples are closed pure expressions: no parameter
                    // scope, same name resolution as global initializers.
                    let body = self.expr(&e.body);
                    let expect = e.expect.as_ref().map(|x| Arc::new(self.expr(x)));
                    let def = ExampleDef {
                        name: Arc::from(e.name.text.as_str()),
                        body: Arc::new(body),
                        expect,
                        span: e.span,
                    };
                    self.program.add_example(def);
                }
            }
        }
    }

    fn lower_params(&mut self, params: &[ast::Param]) -> Vec<ParamSig> {
        let mut seen = HashSet::new();
        params
            .iter()
            .map(|p| {
                if !seen.insert(p.name.text.clone()) {
                    self.error(
                        p.name.span,
                        format!("duplicate parameter `{}`", p.name.text),
                    );
                }
                ParamSig::new(&p.name.text, lower_type(&p.ty))
            })
            .collect()
    }

    /// Whether `name` is bound, and if so whether it is a widget slot.
    fn local_kind(&self, name: &str) -> Option<bool> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.iter().rev().find(|(n, _)| &**n == name))
            .map(|(_, widget)| *widget)
    }

    /// Lower a block to a `let`/`seq` chain whose value is the tail.
    fn block(&mut self, block: &ast::Block) -> Expr {
        self.scopes.push(Vec::new());
        let expr = self.block_rest(&block.stmts, block.tail.as_deref(), block.span);
        self.scopes.pop();
        expr
    }

    fn block_rest(&mut self, stmts: &[ast::Stmt], tail: Option<&ast::Expr>, span: Span) -> Expr {
        let Some((first, rest)) = stmts.split_first() else {
            return match tail {
                Some(e) => self.expr(e),
                None => Expr::unit(Span::point(span.end)),
            };
        };
        // `let` binds the remainder of the block as its body.
        if let ast::StmtKind::Let { name, ty, value } = &first.kind {
            let value = self.expr(value);
            let bound: Name = Arc::from(name.text.as_str());
            match self.scopes.last_mut() {
                Some(scope) => scope.push((bound.clone(), false)),
                None => self.scopes.push(vec![(bound.clone(), false)]),
            }
            let body = self.block_rest(rest, tail, span);
            let full = first.span.merge(body.span);
            return Expr::new(
                ExprKind::Let {
                    name: bound,
                    ty: ty.as_ref().map(lower_type),
                    value: Box::new(value),
                    body: Box::new(body),
                },
                full,
            );
        }
        // `remember` likewise scopes its slot over the rest of the block.
        if let ast::StmtKind::Remember { name, ty, init } = &first.kind {
            let init = self.expr(init);
            let id = self.program.alloc_remember(first.span);
            let bound: Name = Arc::from(name.text.as_str());
            match self.scopes.last_mut() {
                Some(scope) => scope.push((bound.clone(), true)),
                None => self.scopes.push(vec![(bound.clone(), true)]),
            }
            let body = self.block_rest(rest, tail, span);
            let full = first.span.merge(body.span);
            return Expr::new(
                ExprKind::Remember {
                    id,
                    name: bound,
                    ty: lower_type(ty),
                    init: Box::new(init),
                    body: Box::new(body),
                },
                full,
            );
        }
        let head = self.stmt(first);
        // T-BOXED: `boxed e` has the value of `e`, so a trailing `boxed`
        // statement is the block's value (e.g. a render helper returning a
        // measurement out of the box it builds).
        if rest.is_empty()
            && tail.is_none()
            && matches!(head.kind, ExprKind::Boxed(..) | ExprKind::Tuple(_))
        {
            return head;
        }
        let rest_expr = self.block_rest(rest, tail, span);
        // Any other trailing statement's value is discarded: keep the
        // `Seq` with the implicit unit so the block's value is `()`.
        let full = head.span.merge(rest_expr.span);
        Expr::new(ExprKind::Seq(Box::new(head), Box::new(rest_expr)), full)
    }

    fn stmt(&mut self, stmt: &ast::Stmt) -> Expr {
        let span = stmt.span;
        match &stmt.kind {
            // A binding scopes over the rest of its block, so
            // `block_rest` lowers it; alone, it scopes over nothing.
            ast::StmtKind::Let { .. } | ast::StmtKind::Remember { .. } => {
                self.block_rest(std::slice::from_ref(stmt), None, span)
            }
            ast::StmtKind::Assign { target, value } => {
                let value = Box::new(self.expr(value));
                let name: Name = Arc::from(target.text.as_str());
                if let Some(widget) = self.local_kind(&target.text) {
                    if widget {
                        Expr::new(ExprKind::WidgetWrite(name, value), span)
                    } else {
                        Expr::new(ExprKind::LocalAssign(name, value), span)
                    }
                } else if self.globals.contains(&target.text) {
                    Expr::new(ExprKind::GlobalAssign(name, value), span)
                } else {
                    self.error(
                        target.span,
                        format!("unknown assignment target `{}`", target.text),
                    );
                    Expr::unit(span)
                }
            }
            ast::StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let cond = Box::new(self.expr(cond));
                let then_e = Box::new(self.block(then_block));
                let else_e = Box::new(match else_block {
                    Some(b) => self.block(b),
                    None => Expr::unit(Span::point(span.end)),
                });
                Expr::new(ExprKind::If(cond, then_e, else_e), span)
            }
            ast::StmtKind::While { cond, body } => {
                let cond = Box::new(self.expr(cond));
                let body = Box::new(self.block(body));
                Expr::new(ExprKind::While(cond, body), span)
            }
            ast::StmtKind::ForRange { var, lo, hi, body } => {
                let lo = Box::new(self.expr(lo));
                let hi = Box::new(self.expr(hi));
                let name: Name = Arc::from(var.text.as_str());
                self.scopes.push(vec![(name.clone(), false)]);
                let body = Box::new(self.block(body));
                self.scopes.pop();
                Expr::new(
                    ExprKind::ForRange {
                        var: name,
                        lo,
                        hi,
                        body,
                    },
                    span,
                )
            }
            ast::StmtKind::Foreach { var, list, body } => {
                let list = Box::new(self.expr(list));
                let name: Name = Arc::from(var.text.as_str());
                self.scopes.push(vec![(name.clone(), false)]);
                let body = Box::new(self.block(body));
                self.scopes.pop();
                Expr::new(
                    ExprKind::Foreach {
                        var: name,
                        list,
                        body,
                    },
                    span,
                )
            }
            ast::StmtKind::Boxed { body } => {
                let id = self.program.alloc_box_source(span);
                let body = Box::new(self.block(body));
                Expr::new(ExprKind::Boxed(id, body), span)
            }
            ast::StmtKind::Post { value } => {
                let value = Box::new(self.expr(value));
                Expr::new(ExprKind::Post(value), span)
            }
            ast::StmtKind::SetAttr { attr, value } => {
                let value = Box::new(self.expr(value));
                match Attr::from_name(&attr.text) {
                    Some(a) => Expr::new(ExprKind::SetAttr(a, value), span),
                    None => {
                        self.error(attr.span, format!("unknown box attribute `{}`", attr.text));
                        Expr::unit(span)
                    }
                }
            }
            ast::StmtKind::On {
                event,
                params,
                body,
            } => {
                // `on tap { ... }` desugars to
                // `box.ontap := fn() state { ... }`.
                let Some(attr) = Attr::from_name(&event.text).filter(|a| a.is_handler()) else {
                    self.error(
                        event.span,
                        format!("unknown event `{}` in `on` statement", event.text),
                    );
                    return Expr::unit(span);
                };
                let Some(expected) = attr.handler_arity() else {
                    self.error(
                        event.span,
                        format!("`{}` is not a handler event", event.text),
                    );
                    return Expr::unit(span);
                };
                if params.len() != expected {
                    self.error(
                        event.span,
                        format!(
                            "`on {}` takes {expected} parameter(s), found {}",
                            event.text,
                            params.len()
                        ),
                    );
                }
                let sigs = self.lower_params(params);
                self.scopes
                    .push(sigs.iter().map(|p| (p.name.clone(), false)).collect());
                let body = self.block(body);
                self.scopes.pop();
                let lambda = Expr::new(
                    ExprKind::Lambda(Arc::new(LambdaExpr {
                        params: Arc::from(sigs),
                        effect: Effect::State,
                        body: Arc::new(body),
                    })),
                    span,
                );
                Expr::new(ExprKind::SetAttr(attr, Box::new(lambda)), span)
            }
            ast::StmtKind::Push { page, args } => {
                if !self.pages.contains(&page.text) {
                    self.error(page.span, format!("unknown page `{}`", page.text));
                }
                let args = args.iter().map(|a| self.expr(a)).collect();
                Expr::new(
                    ExprKind::PushPage(Arc::from(page.text.as_str()), args),
                    span,
                )
            }
            ast::StmtKind::Pop => Expr::new(ExprKind::PopPage, span),
            ast::StmtKind::Expr { expr } => self.expr(expr),
        }
    }

    fn expr(&mut self, expr: &ast::Expr) -> Expr {
        let span = expr.span;
        let kind = match &expr.kind {
            ast::ExprKind::Number(n) => ExprKind::Num(*n),
            ast::ExprKind::Str(s) => ExprKind::Str(Arc::from(s.as_str())),
            ast::ExprKind::Bool(b) => ExprKind::Bool(*b),
            ast::ExprKind::Name(name) => {
                if let Some(widget) = self.local_kind(name) {
                    if widget {
                        ExprKind::WidgetRead(Arc::from(name.as_str()))
                    } else {
                        ExprKind::Local(Arc::from(name.as_str()))
                    }
                } else if self.globals.contains(name) {
                    ExprKind::Global(Arc::from(name.as_str()))
                } else if self.funs.contains(name) {
                    ExprKind::FunRef(Arc::from(name.as_str()))
                } else {
                    self.error(span, format!("unknown name `{name}`"));
                    ExprKind::Tuple(Vec::new())
                }
            }
            ast::ExprKind::Qualified { ns, name } => match ns.text.as_str() {
                "colors" => match Color::by_name(&name.text) {
                    Some(c) => ExprKind::ColorLit(c),
                    None => {
                        self.error(name.span, format!("unknown color `{}`", name.text));
                        ExprKind::Tuple(Vec::new())
                    }
                },
                "math" if name.text == "pi" => ExprKind::Num(std::f64::consts::PI),
                _ => match Prim::from_path(&ns.text, &name.text) {
                    Some(p) => ExprKind::PrimRef(p),
                    None => {
                        self.error(
                            span,
                            format!("unknown primitive `{}.{}`", ns.text, name.text),
                        );
                        ExprKind::Tuple(Vec::new())
                    }
                },
            },
            ast::ExprKind::Call { callee, args } => {
                let callee = Box::new(self.expr(callee));
                let args = args.iter().map(|a| self.expr(a)).collect();
                ExprKind::Call(callee, args)
            }
            ast::ExprKind::Tuple(elems) => {
                ExprKind::Tuple(elems.iter().map(|e| self.expr(e)).collect())
            }
            ast::ExprKind::ListLit(elems) => {
                ExprKind::ListLit(elems.iter().map(|e| self.expr(e)).collect())
            }
            ast::ExprKind::Proj { base, index } => {
                ExprKind::Proj(Box::new(self.expr(base)), *index)
            }
            ast::ExprKind::Unary { op, expr: inner } => {
                ExprKind::Unary(*op, Box::new(self.expr(inner)))
            }
            ast::ExprKind::Binary { op, lhs, rhs } => {
                ExprKind::Binary(*op, Box::new(self.expr(lhs)), Box::new(self.expr(rhs)))
            }
            ast::ExprKind::Lambda {
                params,
                effect,
                body,
            } => {
                let sigs = self.lower_params(params);
                self.scopes
                    .push(sigs.iter().map(|p| (p.name.clone(), false)).collect());
                let body = self.block(body);
                self.scopes.pop();
                ExprKind::Lambda(Arc::new(LambdaExpr {
                    params: Arc::from(sigs),
                    effect: lower_effect(*effect),
                    body: Arc::new(body),
                }))
            }
            ast::ExprKind::IfExpr {
                cond,
                then_block,
                else_block,
            } => {
                let cond = Box::new(self.expr(cond));
                let then_e = Box::new(self.block(then_block));
                let else_e = Box::new(self.block(else_block));
                ExprKind::If(cond, then_e, else_e)
            }
        };
        Expr::new(kind, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_syntax::parse_program;

    fn lower_ok(src: &str) -> Program {
        let parsed = parse_program(src);
        assert!(parsed.is_ok(), "parse: {}", parsed.diagnostics.render(src));
        let lowered = lower_program(&parsed.program);
        assert!(
            lowered.is_ok(),
            "lower: {}",
            lowered.diagnostics.render(src)
        );
        lowered.program
    }

    fn lower_err(src: &str) -> Diagnostics {
        let parsed = parse_program(src);
        assert!(parsed.is_ok(), "parse: {}", parsed.diagnostics.render(src));
        let lowered = lower_program(&parsed.program);
        assert!(!lowered.is_ok(), "expected lowering errors");
        lowered.diagnostics
    }

    #[test]
    fn resolves_locals_globals_functions() {
        let p = lower_ok(
            r#"
            global total : number = 0
            fun add(x: number): number pure { x + total }
            page start() {
                init { total := add(1); }
                render { post total; }
            }
            "#,
        );
        let f = p.fun("add").expect("fun exists");
        // Body is `x + total` where x is local, total is global.
        let ExprKind::Binary(_, lhs, rhs) = &f.body.kind else {
            panic!("expected binary body, got {:?}", f.body.kind);
        };
        assert!(matches!(lhs.kind, ExprKind::Local(_)));
        assert!(matches!(rhs.kind, ExprKind::Global(_)));
    }

    #[test]
    fn local_shadows_global_in_assignment() {
        let p = lower_ok(
            r#"
            global x : number = 0
            fun f(): number pure {
                let x = 1;
                x := 2;
                x
            }
            "#,
        );
        let f = p.fun("f").expect("fun");
        let mut saw_local_assign = false;
        f.body.walk(&mut |e| {
            if matches!(e.kind, ExprKind::LocalAssign(..)) {
                saw_local_assign = true;
            }
            assert!(
                !matches!(e.kind, ExprKind::GlobalAssign(..)),
                "local must shadow global"
            );
        });
        assert!(saw_local_assign);
    }

    #[test]
    fn on_tap_desugars_to_handler_attr() {
        let p = lower_ok(
            r#"
            page start() {
                render {
                    boxed { on tap { pop; } }
                }
            }
            "#,
        );
        let page = p.page("start").expect("page");
        let mut found = None;
        page.render.walk(&mut |e| {
            if let ExprKind::SetAttr(attr, value) = &e.kind {
                found = Some((*attr, value.kind.clone()));
            }
        });
        let (attr, value) = found.expect("handler installed");
        assert_eq!(attr, Attr::OnTap);
        let ExprKind::Lambda(lam) = value else {
            panic!("expected lambda")
        };
        assert_eq!(lam.effect, Effect::State);
        assert!(lam.params.is_empty());
    }

    #[test]
    fn boxed_statements_get_distinct_source_ids() {
        let p = lower_ok(
            r#"
            page start() {
                render {
                    boxed { post 1; }
                    boxed { post 2; }
                }
            }
            "#,
        );
        assert_eq!(p.box_spans.len(), 2);
        let page = p.page("start").expect("page");
        let mut ids = Vec::new();
        page.render.walk(&mut |e| {
            if let ExprKind::Boxed(id, _) = &e.kind {
                ids.push(*id);
            }
        });
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn colors_and_prims_resolve() {
        let p = lower_ok(
            r#"
            global c : color = colors.light_blue
            global n : number = math.floor(2.5)
            "#,
        );
        assert!(matches!(
            p.global("c").expect("c").init.kind,
            ExprKind::ColorLit(_)
        ));
        let ExprKind::Call(callee, _) = &p.global("n").expect("n").init.kind else {
            panic!("expected call");
        };
        assert_eq!(callee.kind, ExprKind::PrimRef(Prim::MathFloor));
    }

    #[test]
    fn unknown_names_are_errors() {
        let ds = lower_err("global g : number = mystery");
        assert!(ds.to_string().contains("unknown name `mystery`"));
        let ds = lower_err("page start() { render { box.wiggle := 1; } }");
        assert!(ds.to_string().contains("unknown box attribute"));
        let ds = lower_err("page start() { render { push nowhere(); } }");
        assert!(ds.to_string().contains("unknown page"));
        let ds = lower_err("global c : color = colors.chartreuse_dream");
        assert!(ds.to_string().contains("unknown color"));
        let ds = lower_err("global n : number = math.cosh(1)");
        assert!(ds.to_string().contains("unknown primitive"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let ds = lower_err("global x : number = 0 global x : number = 1");
        assert!(ds.to_string().contains("duplicate definition"));
    }

    #[test]
    fn let_scopes_to_rest_of_block() {
        let p = lower_ok("fun f(): number pure { let a = 1; let b = a + 1; a + b }");
        let f = p.fun("f").expect("fun");
        let ExprKind::Let { name, body, .. } = &f.body.kind else {
            panic!("expected let chain, got {:?}", f.body.kind);
        };
        assert_eq!(&**name, "a");
        assert!(matches!(body.kind, ExprKind::Let { .. }));
    }

    #[test]
    fn on_edited_takes_one_param() {
        lower_ok(
            r#"
            global term : number = 30
            page start() {
                render {
                    boxed { on edited(text: string) { term := str.len(text); } }
                }
            }
            "#,
        );
        let ds = lower_err("page start() { render { boxed { on tap(x: string) { pop; } } } }");
        assert!(ds.to_string().contains("takes 0 parameter"));
    }
}
