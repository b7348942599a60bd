//! Value provenance — where a rendered value came from in the source.
//!
//! Bidirectional evaluation (ROADMAP item 4, after Mayer/Kunčak/Chugh)
//! needs every value that reaches the display to remember its origin:
//! either a literal occurrence in the source, or the expression that
//! computed it together with the local environment it closed over. The
//! repair engine in `alive-live` inverts that origin to turn an edited
//! *output* value into ranked candidate *source* edits.
//!
//! Provenance is carried on [`crate::boxtree::BoxItem`] leaves and
//! attributes, but deliberately **excluded from equality**: rendered
//! frames stay byte-identical across all three engines (bigstep, VM,
//! smallstep) and across memo splices, so the differential oracles and
//! damage diffing are untouched. The smallstep substitution machine
//! destroys environments by design and tags nothing; bigstep and the VM
//! must agree exactly, which is why both derive the environment from the
//! single [`free_locals`] function below — bigstep at run time, the VM
//! compiler at compile time (resolving the same names to registers).

use crate::expr::{Expr, ExprKind};
use crate::types::Name;
use crate::value::Value;
use alive_syntax::Span;
use std::sync::Arc;

/// The origin of a rendered value.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// The value is a literal occurrence in the source: replacing the
    /// spanned text rewrites the value directly.
    Literal(Span),
    /// The value was computed by the spanned expression under the given
    /// snapshot of its free local variables (post-evaluation values, in
    /// [`free_locals`] order).
    Expr {
        /// Span of the producing expression.
        span: Span,
        /// `(name, value)` snapshot of the expression's free locals, in
        /// one allocation (none when there are no free locals).
        env: Arc<[(Name, Value)]>,
    },
}

impl Provenance {
    /// The source span of the producing expression or literal.
    pub fn span(&self) -> Span {
        match self {
            Provenance::Literal(span) => *span,
            Provenance::Expr { span, .. } => *span,
        }
    }

    /// The captured free-local environment (empty for literals).
    pub fn env(&self) -> &[(Name, Value)] {
        match self {
            Provenance::Literal(_) => &[],
            Provenance::Expr { env, .. } => env,
        }
    }
}

/// Whether an expression is a literal for provenance purposes — the
/// kinds whose value is read verbatim from the source text.
pub fn is_literal_expr(expr: &Expr) -> bool {
    matches!(
        expr.kind,
        ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Bool(_) | ExprKind::ColorLit(_)
    )
}

/// Free local variables of `expr`, in first-use order, excluding names
/// bound inside the expression itself (`let`, lambda parameters, loop
/// variables, `remember` bindings).
///
/// This is *the* definition both evaluation engines share: bigstep looks
/// the names up at run time, the VM compiler resolves them to registers
/// at compile time. Names that fail to resolve are skipped by both
/// (impossible for type-checked programs), so the captured environments
/// agree byte-for-byte.
pub fn free_locals(expr: &Expr) -> Vec<Name> {
    fn bound(stack: &[Name], name: &Name) -> bool {
        stack.iter().any(|b| Arc::ptr_eq(b, name) || **b == **name)
    }
    fn seen(out: &[Name], name: &Name) -> bool {
        out.iter().any(|b| Arc::ptr_eq(b, name) || **b == **name)
    }
    fn go(expr: &Expr, stack: &mut Vec<Name>, out: &mut Vec<Name>) {
        match &expr.kind {
            ExprKind::Lambda(lam) => {
                let base = stack.len();
                stack.extend(lam.params.iter().map(|p| p.name.clone()));
                go(&lam.body, stack, out);
                stack.truncate(base);
            }
            ExprKind::Let {
                name,
                value: first,
                body,
                ..
            }
            | ExprKind::Foreach {
                var: name,
                list: first,
                body,
            }
            | ExprKind::Remember {
                name,
                init: first,
                body,
                ..
            } => {
                go(first, stack, out);
                stack.push(name.clone());
                go(body, stack, out);
                stack.pop();
            }
            ExprKind::ForRange { var, lo, hi, body } => {
                go(lo, stack, out);
                go(hi, stack, out);
                stack.push(var.clone());
                go(body, stack, out);
                stack.pop();
            }
            kind => {
                if let ExprKind::Local(name) | ExprKind::LocalAssign(name, _) = kind {
                    if !bound(stack, name) && !seen(out, name) {
                        out.push(name.clone());
                    }
                }
                expr.for_each_child(&mut |child| go(child, stack, out));
            }
        }
    }
    let mut out = Vec::new();
    go(expr, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_syntax::ast::BinOp;

    fn name(s: &str) -> Name {
        Arc::from(s)
    }

    fn local(s: &str) -> Expr {
        Expr::new(ExprKind::Local(name(s)), Span::DUMMY)
    }

    fn num(n: f64) -> Expr {
        Expr::new(ExprKind::Num(n), Span::DUMMY)
    }

    #[test]
    fn literals_have_no_free_locals() {
        assert!(free_locals(&num(4.0)).is_empty());
        assert!(is_literal_expr(&num(4.0)));
        assert!(!is_literal_expr(&local("x")));
    }

    #[test]
    fn binary_collects_in_first_use_order() {
        let e = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(local("b")),
                Box::new(Expr::new(
                    ExprKind::Binary(BinOp::Mul, Box::new(local("a")), Box::new(local("b"))),
                    Span::DUMMY,
                )),
            ),
            Span::DUMMY,
        );
        let free = free_locals(&e);
        assert_eq!(free.len(), 2);
        assert_eq!(&*free[0], "b");
        assert_eq!(&*free[1], "a");
    }

    #[test]
    fn let_binding_shadows_body_use() {
        let e = Expr::new(
            ExprKind::Let {
                name: name("x"),
                ty: None,
                value: Box::new(local("y")),
                body: Box::new(Expr::new(
                    ExprKind::Binary(BinOp::Add, Box::new(local("x")), Box::new(local("z"))),
                    Span::DUMMY,
                )),
            },
            Span::DUMMY,
        );
        let free = free_locals(&e);
        assert_eq!(free.len(), 2);
        assert_eq!(&*free[0], "y");
        assert_eq!(&*free[1], "z");
    }

    #[test]
    fn lambda_params_are_bound() {
        use crate::expr::{LambdaExpr, ParamSig};
        use crate::types::{Effect, Type};
        let lam = Expr::new(
            ExprKind::Lambda(Arc::new(LambdaExpr {
                params: Arc::from(vec![ParamSig::new("p", Type::Number)].into_boxed_slice()),
                effect: Effect::Pure,
                body: Arc::new(Expr::new(
                    ExprKind::Binary(BinOp::Add, Box::new(local("p")), Box::new(local("q"))),
                    Span::DUMMY,
                )),
            })),
            Span::DUMMY,
        );
        let free = free_locals(&lam);
        assert_eq!(free.len(), 1);
        assert_eq!(&*free[0], "q");
    }
}
