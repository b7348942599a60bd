//! Pretty-printer: formats an AST back to canonical source text.
//!
//! Only tests call it, as a round-trip oracle:
//! `pretty(parse(pretty(p))) == pretty(p)`. Direct manipulation does
//! not print: its repairs are span-addressed text edits.

use crate::ast::*;
use std::fmt::Write as _;

/// Render a whole program as canonical source text.
pub fn pretty_program(program: &Program) -> String {
    let mut p = Printer::new();
    for (i, item) in program.items.iter().enumerate() {
        if i > 0 {
            p.out.push('\n');
        }
        p.item(item);
    }
    p.out
}

/// Render a single expression as source text.
pub fn pretty_expr(expr: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(expr, 0);
    p.out
}

/// Render a single statement as source text (no trailing newline),
/// indented at the given level.
pub fn pretty_stmt(stmt: &Stmt, indent: usize) -> String {
    let mut p = Printer {
        out: String::new(),
        indent,
    };
    p.stmt(stmt);
    p.out.trim_end().to_string()
}

/// Render a type expression as source text.
pub fn pretty_type(ty: &TypeExpr) -> String {
    let mut p = Printer::new();
    p.type_expr(ty);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Global(g) => {
                let mut s = format!("global {} : ", g.name);
                self.append_type(&mut s, &g.ty);
                s.push_str(" = ");
                s.push_str(&pretty_expr(&g.init));
                self.line(&s);
            }
            Item::Fun(f) => {
                let mut s = format!("fun {}(", f.name);
                self.append_params(&mut s, &f.params);
                s.push(')');
                if let Some(ret) = &f.ret {
                    s.push_str(" : ");
                    self.append_type(&mut s, ret);
                }
                match f.effect {
                    EffectAnn::Pure => {}
                    eff => {
                        let _ = write!(s, " {eff}");
                    }
                }
                s.push_str(" {");
                self.line(&s);
                self.indent += 1;
                self.block_body(&f.body);
                self.indent -= 1;
                self.line("}");
            }
            Item::Page(pg) => {
                let mut s = format!("page {}(", pg.name);
                self.append_params(&mut s, &pg.params);
                s.push_str(") {");
                self.line(&s);
                self.indent += 1;
                self.line("init {");
                self.indent += 1;
                self.block_body(&pg.init);
                self.indent -= 1;
                self.line("}");
                self.line("render {");
                self.indent += 1;
                self.block_body(&pg.render);
                self.indent -= 1;
                self.line("}");
                self.indent -= 1;
                self.line("}");
            }
            Item::Example(e) => {
                let mut s = format!("example {} = {}", e.name, pretty_expr(&e.body));
                if let Some(expect) = &e.expect {
                    let _ = write!(s, " expect {}", pretty_expr(expect));
                }
                self.line(&s);
            }
        }
    }

    fn append_params(&mut self, s: &mut String, params: &[Param]) {
        for (i, param) in params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{} : ", param.name);
            self.append_type(s, &param.ty);
        }
    }

    fn append_type(&mut self, s: &mut String, ty: &TypeExpr) {
        match &ty.kind {
            TypeExprKind::Number => s.push_str("number"),
            TypeExprKind::String => s.push_str("string"),
            TypeExprKind::Bool => s.push_str("bool"),
            TypeExprKind::Color => s.push_str("color"),
            TypeExprKind::Tuple(elems) => {
                s.push('(');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    self.append_type(s, e);
                }
                s.push(')');
            }
            TypeExprKind::List(elem) => {
                s.push_str("list ");
                // Parenthesize nested function types for re-parsability.
                if matches!(elem.kind, TypeExprKind::Fn { .. }) {
                    s.push('(');
                    self.append_type(s, elem);
                    s.push(')');
                } else {
                    self.append_type(s, elem);
                }
            }
            TypeExprKind::Fn {
                params,
                effect,
                ret,
            } => {
                s.push_str("fn(");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    self.append_type(s, p);
                }
                s.push(')');
                match effect {
                    EffectAnn::Pure => {}
                    eff => {
                        let _ = write!(s, " {eff}");
                    }
                }
                s.push_str(" -> ");
                self.append_type(s, ret);
            }
        }
    }

    fn type_expr(&mut self, ty: &TypeExpr) {
        let mut s = String::new();
        self.append_type(&mut s, ty);
        self.out.push_str(&s);
    }

    fn block_body(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
        if let Some(tail) = &block.tail {
            let text = pretty_expr(tail);
            self.line(&text);
        }
    }

    fn inline_block(&mut self, block: &Block) {
        self.out.push_str("{\n");
        self.indent += 1;
        self.block_body(block);
        self.indent -= 1;
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push('}');
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Let { name, ty, value } => {
                let mut s = format!("let {name}");
                if let Some(ty) = ty {
                    s.push_str(" : ");
                    self.append_type(&mut s, ty);
                }
                let _ = write!(s, " = {};", pretty_expr(value));
                self.line(&s);
            }
            StmtKind::Assign { target, value } => {
                self.line(&format!("{target} := {};", pretty_expr(value)));
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.start_line(&format!("if {} ", pretty_expr(cond)));
                self.inline_block(then_block);
                if let Some(else_block) = else_block {
                    // Re-sugar a lone nested `if` back to `else if`.
                    if else_block.tail.is_none()
                        && else_block.stmts.len() == 1
                        && matches!(else_block.stmts[0].kind, StmtKind::If { .. })
                    {
                        self.out.push_str(" else ");
                        let nested = &else_block.stmts[0];
                        let text = pretty_stmt(nested, self.indent);
                        self.out.push_str(text.trim_start());
                        self.out.push('\n');
                        return;
                    }
                    self.out.push_str(" else ");
                    self.inline_block(else_block);
                }
                self.out.push('\n');
            }
            StmtKind::While { cond, body } => {
                self.start_line(&format!("while {} ", pretty_expr(cond)));
                self.inline_block(body);
                self.out.push('\n');
            }
            StmtKind::ForRange { var, lo, hi, body } => {
                self.start_line(&format!(
                    "for {var} in {} .. {} ",
                    pretty_expr(lo),
                    pretty_expr(hi)
                ));
                self.inline_block(body);
                self.out.push('\n');
            }
            StmtKind::Foreach { var, list, body } => {
                self.start_line(&format!("foreach {var} in {} ", pretty_expr(list)));
                self.inline_block(body);
                self.out.push('\n');
            }
            StmtKind::Boxed { body } => {
                self.start_line("boxed ");
                self.inline_block(body);
                self.out.push('\n');
            }
            StmtKind::Remember { name, ty, init } => {
                let mut s = format!("remember {name} : ");
                self.append_type(&mut s, ty);
                let _ = write!(s, " = {};", pretty_expr(init));
                self.line(&s);
            }
            StmtKind::Post { value } => {
                self.line(&format!("post {};", pretty_expr(value)));
            }
            StmtKind::SetAttr { attr, value } => {
                self.line(&format!("box.{attr} := {};", pretty_expr(value)));
            }
            StmtKind::On {
                event,
                params,
                body,
            } => {
                let mut s = format!("on {event}");
                if !params.is_empty() {
                    s.push('(');
                    self.append_params(&mut s, params);
                    s.push(')');
                }
                s.push(' ');
                self.start_line(&s);
                self.inline_block(body);
                self.out.push('\n');
            }
            StmtKind::Push { page, args } => {
                let args_text: Vec<String> = args.iter().map(pretty_expr).collect();
                self.line(&format!("push {page}({});", args_text.join(", ")));
            }
            StmtKind::Pop => self.line("pop;"),
            StmtKind::Expr { expr } => {
                self.line(&format!("{};", pretty_expr(expr)));
            }
        }
    }

    fn start_line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
    }

    fn expr(&mut self, expr: &Expr, parent_prec: u8) {
        match &expr.kind {
            ExprKind::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(self.out, "{}", *n as i64);
                } else {
                    let _ = write!(self.out, "{n}");
                }
            }
            ExprKind::Str(s) => {
                self.out.push('"');
                for ch in s.chars() {
                    match ch {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '"' => self.out.push_str("\\\""),
                        '\\' => self.out.push_str("\\\\"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            ExprKind::Bool(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::Name(n) => self.out.push_str(n),
            ExprKind::Qualified { ns, name } => {
                let _ = write!(self.out, "{ns}.{name}");
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee, 10);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a, 0);
                }
                self.out.push(')');
            }
            ExprKind::Tuple(elems) => {
                self.out.push('(');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e, 0);
                }
                self.out.push(')');
            }
            ExprKind::ListLit(elems) => {
                self.out.push('[');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e, 0);
                }
                self.out.push(']');
            }
            ExprKind::Proj { base, index } => {
                self.expr(base, 10);
                let _ = write!(self.out, ".{index}");
            }
            ExprKind::Unary { op, expr: inner } => {
                self.out.push_str(op.text());
                let needs_parens = matches!(inner.kind, ExprKind::Binary { .. });
                if needs_parens {
                    self.out.push('(');
                }
                self.expr(inner, 8);
                if needs_parens {
                    self.out.push(')');
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let prec = op.precedence();
                let needs_parens = prec < parent_prec || (prec == parent_prec && parent_prec > 0);
                if needs_parens {
                    self.out.push('(');
                }
                self.expr(lhs, prec - 1);
                let _ = write!(self.out, " {} ", op.text());
                self.expr(rhs, prec);
                if needs_parens {
                    self.out.push(')');
                }
            }
            ExprKind::Lambda {
                params,
                effect,
                body,
            } => {
                self.out.push_str("fn(");
                let mut s = String::new();
                self.append_params(&mut s, params);
                self.out.push_str(&s);
                self.out.push(')');
                match effect {
                    EffectAnn::Pure => {}
                    eff => {
                        let _ = write!(self.out, " {eff}");
                    }
                }
                if body.stmts.is_empty() {
                    if let Some(tail) = &body.tail {
                        self.out.push_str(" -> ");
                        self.expr(tail, 10);
                        return;
                    }
                }
                self.out.push(' ');
                self.inline_block(body);
            }
            ExprKind::IfExpr {
                cond,
                then_block,
                else_block,
            } => {
                self.out.push_str("if ");
                self.expr(cond, 0);
                self.out.push(' ');
                self.inline_block(then_block);
                self.out.push_str(" else ");
                self.inline_block(else_block);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn roundtrip(src: &str) {
        let first = parse_program(src);
        assert!(
            first.is_ok(),
            "initial parse failed:\n{}",
            first.diagnostics.render(src)
        );
        let printed = pretty_program(&first.program);
        let second = parse_program(&printed);
        assert!(
            second.is_ok(),
            "re-parse of pretty output failed:\n{}\n--- printed ---\n{printed}",
            second.diagnostics.render(&printed)
        );
        let printed_again = pretty_program(&second.program);
        assert_eq!(printed, printed_again, "pretty-printing is not idempotent");
    }

    #[test]
    fn roundtrip_globals() {
        roundtrip("global count : number = 0");
        roundtrip(r#"global name : string = "hi\n""#);
        roundtrip("global pair : (number, string) = (1, \"a\")");
        roundtrip("global xs : list number = [1, 2, 3]");
    }

    #[test]
    fn roundtrip_function() {
        roundtrip(
            "fun pay(p: number, r: number, n: number): number pure { \
             p * r / (1 - math.pow(1 + r, -n)) }",
        );
    }

    #[test]
    fn roundtrip_page() {
        roundtrip(
            r#"
            page start() {
                init { count := 0; }
                render {
                    boxed {
                        post "hello";
                        box.margin := 4;
                        on tap { push detail(1); }
                    }
                    for i in 0 .. 10 {
                        boxed { post i; }
                    }
                }
            }
            page detail(x: number) {
                init { }
                render { post x; }
            }
            global count : number = 0
            "#,
        );
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            r#"
            fun f(x: number): number pure {
                let r = 0;
                if x < 1 { r := 1; } else if x < 2 { r := 2; } else { r := 3; }
                while r < 10 { r := r + 1; }
                r
            }
            "#,
        );
    }

    #[test]
    fn parens_preserved_where_needed() {
        let result = parse_program("global g : number = (1 + 2) * 3");
        let printed = pretty_program(&result.program);
        assert!(printed.contains("(1 + 2) * 3"), "got: {printed}");
    }

    #[test]
    fn sub_is_left_associative_in_print() {
        // 1 - 2 - 3 must not print as 1 - (2 - 3) without parens.
        let result = parse_program("global g : number = 1 - 2 - 3");
        let printed = pretty_program(&result.program);
        let re = parse_program(&printed);
        assert_eq!(pretty_program(&re.program), printed);
        assert!(printed.contains("1 - 2 - 3"), "got: {printed}");
    }

    #[test]
    fn roundtrip_remember() {
        roundtrip(
            r#"
            page start() {
                render {
                    boxed {
                        remember clicks : number = 0;
                        post clicks;
                        on tap { clicks := clicks + 1; }
                    }
                }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_lambda_and_if_expr() {
        roundtrip("global f_applied : number = (fn(x: number) -> x + 1)(2)");
        roundtrip("fun g(b: bool): number pure { if b { 1 } else { 2 } }");
    }
}
