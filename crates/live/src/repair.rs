//! Bidirectional evaluation: direct manipulation and ranked value
//! repairs — Section 3's third live feature, extended.
//!
//! > "The programmer can directly change the attributes of a box in the
//! > live view, where the code view is updated automatically to reflect
//! > these changes. ... to insert a command to change the size of a
//! > margin, the programmer can first select the corresponding box in
//! > the live view and then choose the margin property from a button
//! > menu, which inserts (if not present) a command in the code."
//!
//! Two layers live here:
//!
//! * **Attribute edits** ([`attribute_edit`], [`remove_attribute_edit`])
//!   compute the [`TextEdit`] for the paper's margin example: re-parse
//!   the current source, find the `boxed` statement that created the
//!   selected box, and rewrite or insert a `box.attr := ...;` statement.
//!   The effects of manipulation are thereby "enshrined in code" (§6).
//! * **Value repairs** ([`repairs_for`]): the bidirectional step. Every
//!   rendered value carries [`Provenance`] — the literal or expression
//!   that produced it plus a snapshot of its free locals. Editing the
//!   *output* value inverts that provenance into ranked
//!   [`CandidateRepair`]s: rank 0 rewrites a literal in place, rank 1
//!   inverts one operand of the producing expression through
//!   `+ - * / ++` or unary negation (using the captured environment to
//!   solve for the literal), rank 2 falls back to overwriting the whole
//!   expression with the desired literal. Numeric inversions are
//!   verified by forward recomputation before being offered, so an
//!   offered repair re-renders to exactly the requested value.
//!
//! The session commands that drive them
//! ([`SessionCommand::ManipulateAt`](crate::SessionCommand::ManipulateAt),
//! [`SessionCommand::ApplyRepair`](crate::SessionCommand::ApplyRepair),
//! [`SessionCommand::AttrEdit`](crate::SessionCommand::AttrEdit))
//! resolve selections against the session's *current* display and
//! source at apply time — a protocol client addressing boxes by path can
//! never hand the engine stale spans — and guard repair application
//! with a source snapshot taken when the offer was computed.

use crate::session::{EditOutcome, LiveSession};
use alive_core::expr::BoxSourceId;
use alive_core::value::fmt_number;
use alive_core::{Attr, Program, Provenance, Value};
use alive_syntax::ast::{BinOp, Block, Expr, ExprKind, Item, Stmt, StmtKind, UnOp};
use alive_syntax::{apply_edits, parse_expr, parse_program, EditError, Span, TextEdit};
use std::fmt;

/// Errors computing a direct-manipulation edit.
#[derive(Debug, Clone, PartialEq)]
pub enum ManipulateError {
    /// The selected box has no `boxed` statement (the implicit root).
    NoSourceStatement,
    /// The statement's span was not found in the source (stale source).
    StatementNotFound(Span),
    /// The replacement value does not parse as an expression.
    BadValue(String),
}

impl fmt::Display for ManipulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManipulateError::NoSourceStatement => {
                f.write_str("the selected box was not created by a boxed statement")
            }
            ManipulateError::StatementNotFound(span) => {
                write!(f, "no boxed statement at {span} in the current source")
            }
            ManipulateError::BadValue(v) => {
                write!(f, "`{v}` does not parse as an expression")
            }
        }
    }
}

impl std::error::Error for ManipulateError {}

/// Compute the text edit that sets `attr` of the box created by the
/// `boxed` statement `id` to the expression `value_src`.
///
/// If the statement body already sets the attribute, the existing
/// value expression is replaced in place (so repeated manipulation
/// twiddles one number, exactly like the paper's margin example);
/// otherwise a new `box.attr := value;` statement is inserted at the
/// start of the body.
///
/// # Errors
///
/// See [`ManipulateError`].
pub fn attribute_edit(
    source: &str,
    program: &Program,
    id: BoxSourceId,
    attr: Attr,
    value_src: &str,
) -> Result<TextEdit, ManipulateError> {
    if parse_expr(value_src).is_err() {
        return Err(ManipulateError::BadValue(value_src.to_string()));
    }
    let span = program
        .box_span(id)
        .ok_or(ManipulateError::NoSourceStatement)?;
    let parsed = parse_program(source);
    let body =
        find_boxed_body(&parsed.program, span).ok_or(ManipulateError::StatementNotFound(span))?;

    // Rewrite an existing `box.attr := ...;` if present (direct
    // children only — nested boxes own their own attributes).
    for stmt in &body.stmts {
        if let StmtKind::SetAttr { attr: name, value } = &stmt.kind {
            if Attr::from_name(&name.text) == Some(attr) {
                return Ok(TextEdit::replace(value.span, value_src));
            }
        }
        // `on tap { ... }` sugar also sets handler attributes.
        if let StmtKind::On { event, .. } = &stmt.kind {
            if attr.is_handler() && Attr::from_name(&event.text) == Some(attr) {
                return Ok(TextEdit::replace(
                    stmt.span,
                    format!("box.{attr} := {value_src};"),
                ));
            }
        }
    }
    // Insert a new statement right after the opening brace.
    Ok(TextEdit::insert(
        body.span.start + 1,
        format!(" box.{attr} := {value_src};"),
    ))
}

/// Compute the text edit that removes an attribute setting from the box
/// created by `boxed` statement `id` (the "reset to default" button of a
/// property inspector). Returns `None` if the statement does not set the
/// attribute directly.
///
/// # Errors
///
/// See [`ManipulateError`].
pub fn remove_attribute_edit(
    source: &str,
    program: &Program,
    id: BoxSourceId,
    attr: Attr,
) -> Result<Option<TextEdit>, ManipulateError> {
    let span = program
        .box_span(id)
        .ok_or(ManipulateError::NoSourceStatement)?;
    let parsed = parse_program(source);
    let body =
        find_boxed_body(&parsed.program, span).ok_or(ManipulateError::StatementNotFound(span))?;
    for stmt in &body.stmts {
        let matches_attr = match &stmt.kind {
            StmtKind::SetAttr { attr: name, .. } => Attr::from_name(&name.text) == Some(attr),
            StmtKind::On { event, .. } => {
                attr.is_handler() && Attr::from_name(&event.text) == Some(attr)
            }
            _ => false,
        };
        if matches_attr {
            // Delete the statement plus any whitespace run up to it, so
            // repeated add/remove cycles do not accumulate blank space.
            let mut start = stmt.span.start as usize;
            let bytes = source.as_bytes();
            while start > 0 && (bytes[start - 1] == b' ' || bytes[start - 1] == b'\n') {
                start -= 1;
            }
            return Ok(Some(TextEdit::delete(Span::new(
                start as u32,
                stmt.span.end,
            ))));
        }
    }
    Ok(None)
}

/// Find the body block of the `boxed` statement at exactly `span`.
fn find_boxed_body(program: &alive_syntax::Program, span: Span) -> Option<&Block> {
    fn in_block(block: &Block, span: Span) -> Option<&Block> {
        for stmt in &block.stmts {
            if let Some(found) = in_stmt(stmt, span) {
                return Some(found);
            }
        }
        None
    }

    fn in_stmt(stmt: &Stmt, span: Span) -> Option<&Block> {
        match &stmt.kind {
            StmtKind::Boxed { body } => {
                if stmt.span == span {
                    return Some(body);
                }
                in_block(body, span)
            }
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => in_block(then_block, span)
                .or_else(|| else_block.as_ref().and_then(|b| in_block(b, span))),
            StmtKind::While { body, .. }
            | StmtKind::ForRange { body, .. }
            | StmtKind::Foreach { body, .. }
            | StmtKind::On { body, .. } => in_block(body, span),
            _ => None,
        }
    }

    for item in &program.items {
        let found = match item {
            Item::Fun(f) => in_block(&f.body, span),
            Item::Page(p) => in_block(&p.init, span).or_else(|| in_block(&p.render, span)),
            // Globals and examples are bare expressions: no `boxed`
            // statement can occur inside them.
            Item::Global(_) | Item::Example(_) => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

// ---------------------------------------------------------------------
// Ranked value repairs — inverting provenance into candidate edits.
// ---------------------------------------------------------------------

/// One candidate source edit that would make a selected rendered value
/// equal the desired value, ranked by how faithful it is to the
/// program's existing structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRepair {
    /// Rank, lower is better: `0` rewrites the originating literal in
    /// place, `1` inverts one operand of the producing expression, `2`
    /// overwrites the whole expression with the desired literal.
    pub rank: u32,
    /// The source edit implementing the repair.
    pub edit: TextEdit,
    /// Plain-language description of what the repair does, suitable for
    /// a candidate menu.
    pub description: String,
}

/// Parse the user's desired-value text: a number, `true`/`false`, a
/// `"quoted"` string, or — as the total fallback — the bare text as a
/// string.
pub fn parse_desired(text: &str) -> Value {
    let t = text.trim();
    if let Ok(n) = t.parse::<f64>() {
        if n.is_finite() {
            return Value::Number(n);
        }
    }
    match t {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
        return Value::str(&t[1..t.len() - 1]);
    }
    Value::str(t)
}

/// The source text of a value as a literal expression, or `None` for
/// values with no literal form (closures, tuples, lists, colors).
fn literal_src(v: &Value) -> Option<String> {
    match v {
        Value::Number(n) if n.is_finite() => Some(fmt_number(*n)),
        Value::Str(s) => Some(quote_str(s)),
        Value::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// Quote a string as a source literal, escaping what the lexer escapes.
fn quote_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `" (with a = 1, b = 2)"` — the captured environment, for candidate
/// descriptions; empty when nothing was captured.
fn env_note(env: &[(alive_core::types::Name, Value)]) -> String {
    if env.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = env
        .iter()
        .map(|(name, value)| format!("{name} = {}", value.display_text()))
        .collect();
    format!(" (with {})", parts.join(", "))
}

/// Invert a value's provenance into ranked candidate repairs: source
/// edits that would make the value render as `desired` instead of
/// `old`. Best candidates first. Returns an empty list only when the
/// provenance span no longer addresses `source` or the desired value
/// has no literal form *and* no operand inversion applies.
pub fn repairs_for(
    source: &str,
    prov: &Provenance,
    old: &Value,
    desired: &Value,
) -> Vec<CandidateRepair> {
    let mut out = Vec::new();
    let span = prov.span();
    let Some(slice) = source.get(span.start as usize..span.end as usize) else {
        return out;
    };
    let desired_src = literal_src(desired);
    match prov {
        Provenance::Literal(_) => {
            if let Some(new_text) = &desired_src {
                out.push(CandidateRepair {
                    rank: 0,
                    edit: TextEdit::replace(span, new_text.clone()),
                    description: format!("change the literal `{slice}` to `{new_text}`"),
                });
            }
        }
        Provenance::Expr { env, .. } => {
            // The expression re-parses from its own slice; spans inside
            // the parsed tree are slice-relative (offset by span.start).
            if let Ok(expr) = parse_expr(slice) {
                invert_operand(span.start, slice, &expr, old, desired, env, &mut out);
            }
            if let Some(new_text) = &desired_src {
                out.push(CandidateRepair {
                    rank: 2,
                    edit: TextEdit::replace(span, new_text.clone()),
                    description: format!(
                        "replace the expression `{slice}` with the literal `{new_text}`{}",
                        env_note(env)
                    ),
                });
            }
        }
    }
    out.sort_by_key(|c| c.rank);
    out
}

/// A plain numeric literal operand, as `(value, slice-relative span)`.
fn lit_num(e: &Expr) -> Option<(f64, Span)> {
    if let ExprKind::Number(n) = e.kind {
        Some((n, e.span))
    } else {
        None
    }
}

/// A plain string literal operand, as `(text, slice-relative span)`.
fn lit_str(e: &Expr) -> Option<(&str, Span)> {
    if let ExprKind::Str(s) = &e.kind {
        Some((s, e.span))
    } else {
        None
    }
}

/// Rank-1 inversions: rewrite one literal inside the producing
/// expression so the whole expression recomputes to `desired`. The
/// search recurses: a literal operand at any level can be solved
/// directly, and when one operand is a literal the (old, desired) pair
/// is pushed through the operator into the *computed* operand and the
/// search continues there. `math.abs` / `math.min` / `math.max` calls
/// pass the pair through as well, pinning the surviving operand from
/// the old result or (for `abs`, whose operand sign the algebra cannot
/// recover) the captured environment. Every derivation and every solved
/// literal is verified by forward recomputation in both the `old` and
/// `desired` directions (floats do not always invert exactly); anything
/// that fails verification is dropped — the rank-2 literal fallback
/// remains.
fn invert_operand(
    base: u32,
    slice: &str,
    expr: &Expr,
    old: &Value,
    desired: &Value,
    env: &[(alive_core::types::Name, Value)],
    out: &mut Vec<CandidateRepair>,
) {
    invert_rec(base, slice, expr, old, desired, env, &env_note(env), out, 8);
}

/// Best-effort pure evaluation of a re-parsed provenance sub-expression
/// under the captured environment. Used where the algebra alone cannot
/// pin an operand's value — e.g. the sign of a `math.abs` argument — so
/// prim-call passthrough stays forward-verified instead of guessed.
fn eval_num_ast(e: &Expr, env: &[(alive_core::types::Name, Value)]) -> Option<f64> {
    match &e.kind {
        ExprKind::Number(n) => Some(*n),
        ExprKind::Name(n) => env
            .iter()
            .rev()
            .find(|(k, _)| k.as_ref() == n.as_str())
            .and_then(|(_, v)| match v {
                Value::Number(x) => Some(*x),
                _ => None,
            }),
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => Some(-eval_num_ast(expr, env)?),
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (eval_num_ast(lhs, env)?, eval_num_ast(rhs, env)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div => Some(a / b),
                _ => None,
            }
        }
        ExprKind::Call { callee, args } => {
            let ExprKind::Qualified { ns, name } = &callee.kind else {
                return None;
            };
            if ns.text != "math" {
                return None;
            }
            match (name.text.as_str(), args.as_slice()) {
                ("abs", [x]) => Some(eval_num_ast(x, env)?.abs()),
                ("min", [x, y]) => Some(eval_num_ast(x, env)?.min(eval_num_ast(y, env)?)),
                ("max", [x, y]) => Some(eval_num_ast(x, env)?.max(eval_num_ast(y, env)?)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Offer a solved numeric literal, if finite and verified.
#[allow(clippy::too_many_arguments)]
fn push_num(
    out: &mut Vec<CandidateRepair>,
    base: u32,
    slice: &str,
    note: &str,
    lit: f64,
    lit_span: Span,
    new_lit: f64,
    verified: bool,
) {
    if !new_lit.is_finite() || !verified {
        return;
    }
    let new_text = fmt_number(new_lit);
    let abs = Span::new(base + lit_span.start, base + lit_span.end);
    out.push(CandidateRepair {
        rank: 1,
        edit: TextEdit::replace(abs, new_text.clone()),
        description: format!(
            "change `{}` to `{new_text}` inside `{slice}`{note}",
            fmt_number(lit)
        ),
    });
}

/// Offer a rewritten string-literal operand of a concatenation.
fn push_str(
    out: &mut Vec<CandidateRepair>,
    base: u32,
    slice: &str,
    note: &str,
    lit: &str,
    lit_span: Span,
    new_lit: &str,
) {
    let new_text = quote_str(new_lit);
    let abs = Span::new(base + lit_span.start, base + lit_span.end);
    out.push(CandidateRepair {
        rank: 1,
        edit: TextEdit::replace(abs, new_text.clone()),
        description: format!(
            "change the string `{}` to `{new_text}` inside `{slice}`{note}",
            quote_str(lit)
        ),
    });
}

/// The numeric value a concatenation operand must have had to render as
/// `text` — only accepted when `fmt_number` round-trips exactly, so the
/// derived pair reproduces the rendering byte for byte.
fn rendered_num(text: &str) -> Option<f64> {
    let n: f64 = text.parse().ok()?;
    (fmt_number(n) == text).then_some(n)
}

/// One step of the recursive inversion (see [`invert_operand`]).
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn invert_rec(
    base: u32,
    slice: &str,
    expr: &Expr,
    old: &Value,
    desired: &Value,
    env: &[(alive_core::types::Name, Value)],
    note: &str,
    out: &mut Vec<CandidateRepair>,
    depth: usize,
) {
    if depth == 0 {
        return;
    }
    // Recurse into a computed numeric operand with a derived pair, but
    // only when reconstructing both `old` and `desired` from the
    // derived values is float-exact — then a verified deeper solve
    // composes back up to exactly `desired`.
    let recurse_num = |sub: &Expr, o2: f64, d2: f64, exact: bool, out: &mut Vec<_>| {
        if exact && o2.is_finite() && d2.is_finite() {
            invert_rec(
                base,
                slice,
                sub,
                &Value::Number(o2),
                &Value::Number(d2),
                env,
                note,
                out,
                depth - 1,
            );
        }
    };
    match &expr.kind {
        ExprKind::Binary { op, lhs, rhs } => {
            if let (Value::Number(o), Value::Number(d)) = (old, desired) {
                let (o, d) = (*o, *d);
                match op {
                    BinOp::Add => {
                        if let Some((a, s)) = lit_num(lhs) {
                            let x = o - a;
                            let a2 = d - x;
                            push_num(out, base, slice, note, a, s, a2, a2 + x == d);
                            recurse_num(rhs, x, d - a, a + x == o && a + (d - a) == d, out);
                        }
                        if let Some((b, s)) = lit_num(rhs) {
                            let x = o - b;
                            let b2 = d - x;
                            push_num(out, base, slice, note, b, s, b2, x + b2 == d);
                            recurse_num(lhs, x, d - b, x + b == o && (d - b) + b == d, out);
                        }
                    }
                    BinOp::Sub => {
                        if let Some((a, s)) = lit_num(lhs) {
                            // o = a - x
                            let x = a - o;
                            let a2 = d + x;
                            push_num(out, base, slice, note, a, s, a2, a2 - x == d);
                            recurse_num(rhs, x, a - d, a - x == o && a - (a - d) == d, out);
                        }
                        if let Some((b, s)) = lit_num(rhs) {
                            // o = x - b
                            let x = o + b;
                            let b2 = x - d;
                            push_num(out, base, slice, note, b, s, b2, x - b2 == d);
                            recurse_num(lhs, x, d + b, x - b == o && (d + b) - b == d, out);
                        }
                    }
                    BinOp::Mul => {
                        if let Some((a, s)) = lit_num(lhs) {
                            // o = a * x; recover x, re-solve, verify both ways.
                            if a != 0.0 {
                                let x = o / a;
                                let a2 = d / x;
                                push_num(
                                    out,
                                    base,
                                    slice,
                                    note,
                                    a,
                                    s,
                                    a2,
                                    a * x == o && a2 * x == d,
                                );
                                recurse_num(rhs, x, d / a, a * x == o && a * (d / a) == d, out);
                            }
                        }
                        if let Some((b, s)) = lit_num(rhs) {
                            if b != 0.0 {
                                let x = o / b;
                                let b2 = d / x;
                                push_num(
                                    out,
                                    base,
                                    slice,
                                    note,
                                    b,
                                    s,
                                    b2,
                                    x * b == o && x * b2 == d,
                                );
                                recurse_num(lhs, x, d / b, x * b == o && (d / b) * b == d, out);
                            }
                        }
                    }
                    BinOp::Div => {
                        if let Some((a, s)) = lit_num(lhs) {
                            // o = a / x
                            if o != 0.0 {
                                let x = a / o;
                                let a2 = d * x;
                                push_num(
                                    out,
                                    base,
                                    slice,
                                    note,
                                    a,
                                    s,
                                    a2,
                                    a / x == o && a2 / x == d,
                                );
                                if d != 0.0 {
                                    recurse_num(rhs, x, a / d, a / x == o && a / (a / d) == d, out);
                                }
                            }
                        }
                        if let Some((b, s)) = lit_num(rhs) {
                            // o = x / b
                            if d != 0.0 {
                                let x = o * b;
                                let b2 = x / d;
                                push_num(
                                    out,
                                    base,
                                    slice,
                                    note,
                                    b,
                                    s,
                                    b2,
                                    x / b == o && x / b2 == d,
                                );
                                recurse_num(lhs, x, d * b, x / b == o && (d * b) / b == d, out);
                            }
                        }
                    }
                    _ => {}
                }
            }
            if *op == BinOp::Concat {
                if let (Value::Str(o), Value::Str(d)) = (old, desired) {
                    if let Some((s, span)) = lit_str(lhs) {
                        // o = s ++ rest: keep the computed tail, rewrite
                        // the literal head — or keep the head and push
                        // the remainder pair into the computed tail.
                        if let Some(rest) = o.strip_prefix(s) {
                            if let Some(head) = d.strip_suffix(rest) {
                                push_str(out, base, slice, note, s, span, head);
                            }
                            if let Some(tail) = d.strip_prefix(s) {
                                recurse_concat_operand(
                                    base, slice, rhs, rest, tail, env, note, out, depth,
                                );
                            }
                        }
                    }
                    if let Some((s, span)) = lit_str(rhs) {
                        if let Some(head) = o.strip_suffix(s) {
                            if let Some(tail) = d.strip_prefix(head) {
                                push_str(out, base, slice, note, s, span, tail);
                            }
                            if let Some(front) = d.strip_suffix(s) {
                                recurse_concat_operand(
                                    base, slice, lhs, head, front, env, note, out, depth,
                                );
                            }
                        }
                    }
                }
            }
        }
        // Prim-call passthrough: `math.abs` / `math.min` / `math.max`
        // invert when the old result pins the surviving operand, so the
        // offered literal is still checked by recomputing the call
        // forward (with the pinned operand) before it is offered.
        ExprKind::Call { callee, args } => {
            let prim = match &callee.kind {
                ExprKind::Qualified { ns, name } if ns.text == "math" => name.text.as_str(),
                _ => return,
            };
            let (Value::Number(o), Value::Number(d)) = (old, desired) else {
                return;
            };
            let (o, d) = (*o, *d);
            match (prim, args.as_slice()) {
                ("abs", [arg]) => {
                    // o = |x| requires d ≥ 0 to be reachable at all.
                    if d < 0.0 {
                        return;
                    }
                    if let Some((n, s)) = lit_num(arg) {
                        // Keep the literal's sign so the edit is minimal.
                        let n2 = if n < 0.0 { -d } else { d };
                        push_num(out, base, slice, note, n, s, n2, n2.abs() == d);
                    } else if let Some(x) = eval_num_ast(arg, env) {
                        // The algebra alone cannot recover the operand's
                        // sign from o = |x|; the captured env pins the
                        // actual value, keeping the pushed-through pair
                        // forward-verified rather than guessed.
                        if x.abs() == o {
                            let d2 = if x < 0.0 { -d } else { d };
                            recurse_num(arg, x, d2, d2.abs() == d, out);
                        }
                    }
                }
                ("min", [lhs, rhs]) => {
                    for (lit_side, other) in [(lhs, rhs), (rhs, lhs)] {
                        if let Some((a, s)) = lit_num(lit_side) {
                            // min(a, x) = o pins x = o whenever o < a;
                            // lowering the literal to d < o then
                            // recomputes to d regardless of x (x ≥ o > d).
                            let verified = if o < a {
                                d.min(o) == d
                            } else {
                                o == a && d < o
                            };
                            if d < o {
                                push_num(out, base, slice, note, a, s, d, verified);
                            }
                            if o < a && a.min(d) == d {
                                recurse_num(other, o, d, true, out);
                            }
                        }
                    }
                }
                ("max", [lhs, rhs]) => {
                    for (lit_side, other) in [(lhs, rhs), (rhs, lhs)] {
                        if let Some((a, s)) = lit_num(lit_side) {
                            let verified = if o > a {
                                d.max(o) == d
                            } else {
                                o == a && d > o
                            };
                            if d > o {
                                push_num(out, base, slice, note, a, s, d, verified);
                            }
                            if o > a && a.max(d) == d {
                                recurse_num(other, o, d, true, out);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        ExprKind::Unary {
            op: UnOp::Neg,
            expr: inner,
        } => {
            if let (Value::Number(o), Value::Number(d)) = (old, desired) {
                if let Some((n, span)) = lit_num(inner) {
                    // o = -n; the patched literal must stay non-negative
                    // so the text still lexes as one number under the
                    // `-`.
                    let n2 = -d;
                    if n2 >= 0.0 {
                        push_num(out, base, slice, note, n, span, n2, -n2 == *d);
                    }
                } else {
                    // Negation is float-exact: push the pair through.
                    recurse_num(inner, -o, -d, true, out);
                }
            }
        }
        _ => {}
    }
}

/// Recurse into a computed operand of a string concatenation: the
/// operand rendered as `old_text` and must now render as `new_text`.
/// The operand's *value* is unknowable from the outside, so both
/// readings are tried — a number (when the text round-trips through the
/// concat coercion) and a string; the wrong reading simply matches no
/// inversion deeper down.
#[allow(clippy::too_many_arguments)]
fn recurse_concat_operand(
    base: u32,
    slice: &str,
    sub: &Expr,
    old_text: &str,
    new_text: &str,
    env: &[(alive_core::types::Name, Value)],
    note: &str,
    out: &mut Vec<CandidateRepair>,
    depth: usize,
) {
    if let (Some(o), Some(d)) = (rendered_num(old_text), rendered_num(new_text)) {
        invert_rec(
            base,
            slice,
            sub,
            &Value::Number(o),
            &Value::Number(d),
            env,
            note,
            out,
            depth - 1,
        );
    }
    invert_rec(
        base,
        slice,
        sub,
        &Value::str(old_text),
        &Value::str(new_text),
        env,
        note,
        out,
        depth - 1,
    );
}

// ---------------------------------------------------------------------
// LiveSession integration — path-addressed selection, snapshot-guarded
// application.
// ---------------------------------------------------------------------

/// A parked repair offer: the ranked candidates from the last
/// direct-manipulation selection, plus the source snapshot they were
/// computed against (the apply-time staleness guard).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRepairs {
    pub(crate) source: String,
    pub(crate) repairs: Vec<CandidateRepair>,
}

/// Errors from the session-level repair workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// No text leaf at the requested path/ordinal in the current
    /// display (or the session has no renderable view).
    NoSuchLeaf,
    /// The selected leaf carries no provenance.
    NoProvenance,
    /// Provenance was present but produced no candidate (the desired
    /// value has no literal form and no operand inversion applied).
    NoCandidates,
    /// [`crate::SessionCommand::ApplyRepair`] without a pending offer.
    NoPending,
    /// The source changed since the offer was computed; the offer was
    /// withdrawn. Re-select to get fresh candidates.
    Stale,
    /// The candidate index is out of range for the pending offer.
    NoSuchCandidate(usize),
    /// The candidate edit failed to apply to the source.
    Edit(EditError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::NoSuchLeaf => f.write_str("no text leaf at that selection"),
            RepairError::NoProvenance => f.write_str("the selected value has no provenance"),
            RepairError::NoCandidates => f.write_str("no repair inverts to the desired value"),
            RepairError::NoPending => f.write_str("no repair candidates are pending"),
            RepairError::Stale => {
                f.write_str("the source changed since the repairs were computed; re-select")
            }
            RepairError::NoSuchCandidate(n) => write!(f, "no repair candidate #{n}"),
            RepairError::Edit(e) => write!(f, "repair edit failed: bad text edit: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Errors from the path-addressed attribute-edit workflow.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AttrEditError {
    /// No box at the requested path in the current display.
    NoSuchBox,
    /// Computing the edit failed (see [`ManipulateError`]).
    Manipulate(ManipulateError),
    /// Applying the edit failed.
    Edit(EditError),
}

impl fmt::Display for AttrEditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrEditError::NoSuchBox => f.write_str("no box at that path"),
            AttrEditError::Manipulate(e) => e.fmt(f),
            AttrEditError::Edit(e) => write!(f, "bad text edit: {e}"),
        }
    }
}

impl LiveSession {
    /// Select the `leaf`-th text leaf of the box at `path` in the
    /// current display and ask for its value to become `desired`
    /// (textual form, see [`parse_desired`]). Returns the ranked
    /// candidates, best first, and parks them for `apply_repair`.
    ///
    /// Selection is resolved against the session's display and source
    /// *now* — a client that cached the path across source edits gets
    /// current-source candidates or a typed refusal, never a stale-span
    /// edit.
    ///
    /// # Errors
    ///
    /// See [`RepairError`].
    pub(crate) fn repairs_at(
        &mut self,
        path: &[usize],
        leaf: usize,
        desired: &str,
    ) -> Result<Vec<CandidateRepair>, RepairError> {
        let desired_value = parse_desired(desired);
        let tree = self.display_tree().ok_or(RepairError::NoSuchLeaf)?;
        let node = tree.descendant(path).ok_or(RepairError::NoSuchLeaf)?;
        let (old, prov) = node
            .leaf_with_provenance(leaf)
            .ok_or(RepairError::NoSuchLeaf)?;
        let prov = prov.ok_or(RepairError::NoProvenance)?;
        let repairs = repairs_for(self.source(), prov, old, &desired_value);
        if repairs.is_empty() {
            return Err(RepairError::NoCandidates);
        }
        self.set_pending_repairs(PendingRepairs {
            source: self.source().to_string(),
            repairs: repairs.clone(),
        });
        Ok(repairs)
    }

    /// Apply candidate `index` of the pending repair offer as a live
    /// edit. Refuses (and withdraws the offer) if the source has changed
    /// since `repairs_at` computed it — the candidates' spans address
    /// that snapshot, not the new text. The offer is consumed on a
    /// successfully applied edit and kept otherwise (rejection and
    /// quarantine both leave the source as the snapshot, so the
    /// remaining candidates stay valid).
    ///
    /// # Errors
    ///
    /// See [`RepairError`].
    pub(crate) fn apply_repair(&mut self, index: usize) -> Result<EditOutcome, RepairError> {
        let Some(pending) = self.pending_repairs() else {
            return Err(RepairError::NoPending);
        };
        let stale = pending.source != self.source();
        let candidate = if stale {
            None
        } else {
            pending.repairs.get(index).cloned()
        };
        if stale {
            self.clear_pending_repairs();
            return Err(RepairError::Stale);
        }
        let Some(candidate) = candidate else {
            return Err(RepairError::NoSuchCandidate(index));
        };
        let outcome = self.edit_span(candidate.edit).map_err(RepairError::Edit)?;
        if outcome.is_applied() {
            self.clear_pending_repairs();
        }
        Ok(outcome)
    }

    /// Set `attr` of the box at `path` to the expression `value_src`
    /// and apply the resulting edit — [`attribute_edit`] resolved
    /// against the session's *current* display, program, and source, so
    /// protocol clients can never feed it stale spans.
    ///
    /// # Errors
    ///
    /// See [`AttrEditError`].
    pub(crate) fn attribute_edit_at(
        &mut self,
        path: &[usize],
        attr: Attr,
        value_src: &str,
    ) -> Result<EditOutcome, AttrEditError> {
        let tree = self.display_tree().ok_or(AttrEditError::NoSuchBox)?;
        let id = tree
            .descendant(path)
            .and_then(|n| n.source)
            .ok_or(AttrEditError::NoSuchBox)?;
        let edit = attribute_edit(self.source(), self.system().program(), id, attr, value_src)
            .map_err(AttrEditError::Manipulate)?;
        self.edit_span(edit).map_err(AttrEditError::Edit)
    }

    /// Apply one computed edit to the current source and submit the
    /// result as a live edit.
    fn edit_span(&mut self, edit: TextEdit) -> Result<EditOutcome, EditError> {
        let new_source = apply_edits(self.source(), &[edit])?;
        Ok(self.edit_source(&new_source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::navigation::span_for_box;
    use crate::session::LiveSession;
    use alive_core::compile;
    use alive_syntax::apply_edits;

    const SRC: &str = r#"page start() {
    render {
        boxed {
            box.margin := 4;
            post "header";
        }
        boxed { post "body"; }
    }
}"#;

    fn id_of_box(session_src: &str, needle: &str) -> (Program, BoxSourceId) {
        let program = compile(session_src).expect("compiles");
        let pos = session_src.find(needle).expect("found") as u32;
        let id = crate::navigation::box_source_at(&program, pos).expect("in a box");
        (program, id)
    }

    #[test]
    fn rewrites_existing_attribute_value() {
        let (program, id) = id_of_box(SRC, "header");
        let edit = attribute_edit(SRC, &program, id, Attr::Margin, "8").expect("edits");
        let out = apply_edits(SRC, &[edit]).expect("applies");
        assert!(out.contains("box.margin := 8;"), "{out}");
        assert!(!out.contains(":= 4"), "{out}");
    }

    #[test]
    fn inserts_missing_attribute() {
        let (program, id) = id_of_box(SRC, "body");
        let edit = attribute_edit(SRC, &program, id, Attr::Background, "colors.light_blue")
            .expect("edits");
        let out = apply_edits(SRC, &[edit]).expect("applies");
        assert!(
            out.contains("boxed { box.background := colors.light_blue; post \"body\"; }"),
            "{out}"
        );
        // The patched program still compiles.
        compile(&out).expect("patched program compiles");
    }

    #[test]
    fn bad_value_is_rejected() {
        let (program, id) = id_of_box(SRC, "body");
        assert!(matches!(
            attribute_edit(SRC, &program, id, Attr::Margin, "4 +"),
            Err(ManipulateError::BadValue(_))
        ));
    }

    #[test]
    fn end_to_end_direct_manipulation() {
        // The paper's I1 improvement: select a box in the live view,
        // change its margin, watch code and view update together.
        let mut session = LiveSession::new(SRC).expect("starts");
        let display = session.display_tree().expect("renders");
        // Select the header box in the live view (path [0]) — code side
        // shows its boxed statement.
        let span = span_for_box(session.system().program(), &display, &[0]).expect("navigates");
        assert!(span.slice(session.source()).contains("header"));
        // Now manipulate: margin 4 → 2.
        let id = display
            .descendant(&[0])
            .expect("box")
            .source
            .expect("has source");
        let edit = attribute_edit(
            session.source(),
            session.system().program(),
            id,
            Attr::Margin,
            "2",
        )
        .expect("edit computed");
        let outcome = session.edit_span(edit).expect("applies");
        assert!(outcome.is_applied());
        assert!(session.source().contains("box.margin := 2;"));
        // And the live view reflects it: margin 2 indents "header" by 2.
        let view = session.live_view();
        assert!(view.contains("  header"), "{view}");
    }

    #[test]
    fn remove_attribute_deletes_the_statement() {
        let (program, id) = id_of_box(SRC, "header");
        let edit = remove_attribute_edit(SRC, &program, id, Attr::Margin)
            .expect("computes")
            .expect("attribute present");
        let out = apply_edits(SRC, &[edit]).expect("applies");
        assert!(!out.contains("box.margin"), "{out}");
        compile(&out).expect("still compiles");
        // Removing an absent attribute is a no-op.
        let (program, id) = id_of_box(&out, "header");
        assert_eq!(
            remove_attribute_edit(&out, &program, id, Attr::Margin).expect("computes"),
            None
        );
    }

    #[test]
    fn add_then_remove_roundtrips_cleanly() {
        let mut session = LiveSession::new(SRC).expect("starts");
        let display = session.display_tree().expect("renders");
        let id = display.descendant(&[1]).expect("box").source.expect("id");
        let add = attribute_edit(
            session.source(),
            session.system().program(),
            id,
            Attr::Border,
            "1",
        )
        .expect("edit");
        session.edit_span(add).expect("applies");
        assert!(session.source().contains("box.border := 1;"));

        let display = session.display_tree().expect("renders");
        let id = display.descendant(&[1]).expect("box").source.expect("id");
        let remove = remove_attribute_edit(
            session.source(),
            session.system().program(),
            id,
            Attr::Border,
        )
        .expect("computes")
        .expect("present");
        session.edit_span(remove).expect("applies");
        assert!(!session.source().contains("box.border"));
        // Clean roundtrip: back to the original text.
        assert_eq!(session.source(), SRC);
    }

    #[test]
    fn nested_boxed_targets_the_inner_statement() {
        let src = r#"page start() {
    render {
        boxed { boxed { post "inner"; } }
    }
}"#;
        let (program, id) = id_of_box(src, "inner");
        let edit = attribute_edit(src, &program, id, Attr::Margin, "1").expect("edits");
        let out = apply_edits(src, &[edit]).expect("applies");
        assert!(
            out.contains(r#"boxed { box.margin := 1; post "inner"; }"#),
            "{out}"
        );
    }

    // -----------------------------------------------------------------
    // Ranked value repairs.
    // -----------------------------------------------------------------

    use alive_core::{Provenance, Value};
    use std::sync::Arc;

    /// An `Expr` provenance over the occurrence of `frag` in `source`,
    /// with the given captured environment.
    fn prov_expr(source: &str, frag: &str, env: Vec<(&str, Value)>) -> Provenance {
        let start = source.find(frag).expect("fragment present") as u32;
        Provenance::Expr {
            span: Span::new(start, start + frag.len() as u32),
            env: env
                .into_iter()
                .map(|(n, v)| (Arc::<str>::from(n), v))
                .collect(),
        }
    }

    #[test]
    fn desired_values_parse_to_their_natural_types() {
        assert_eq!(parse_desired("42"), Value::Number(42.0));
        assert_eq!(parse_desired(" -3.5 "), Value::Number(-3.5));
        assert_eq!(parse_desired("true"), Value::Bool(true));
        assert_eq!(parse_desired("\"quoted\""), Value::str("quoted"));
        assert_eq!(parse_desired("bare text"), Value::str("bare text"));
    }

    #[test]
    fn subtraction_and_division_invert_their_literal_operand() {
        // x - 5 rendered 5 (so x = 10); want 3 → literal becomes 7.
        let src = "post x - 5;";
        let prov = prov_expr(src, "x - 5", vec![("x", Value::Number(10.0))]);
        let repairs = repairs_for(src, &prov, &Value::Number(5.0), &Value::Number(3.0));
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert_eq!(repairs[0].edit.replacement, "7");
        assert_eq!(repairs[0].edit.span.slice(src), "5");
        assert!(repairs[0].description.contains("(with x = 10)"));

        // 10 / x rendered 2 (x = 5); want 4 → literal becomes 20.
        let src = "post 10 / x;";
        let prov = prov_expr(src, "10 / x", vec![("x", Value::Number(5.0))]);
        let repairs = repairs_for(src, &prov, &Value::Number(2.0), &Value::Number(4.0));
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert_eq!(repairs[0].edit.replacement, "20");
        assert_eq!(repairs[0].edit.span.slice(src), "10");
        // The rank-2 whole-expression fallback is always offered too.
        assert_eq!(repairs.last().expect("fallback").rank, 2);
    }

    #[test]
    fn concatenation_inverts_the_string_literal_side() {
        let src = r#"post name ++ "!";"#;
        let prov = prov_expr(src, r#"name ++ "!""#, vec![("name", Value::str("hi"))]);
        let repairs = repairs_for(src, &prov, &Value::str("hi!"), &Value::str("hi?"));
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert_eq!(repairs[0].edit.replacement, "\"?\"");
        assert_eq!(repairs[0].edit.span.slice(src), "\"!\"");
    }

    #[test]
    fn negation_patches_the_inner_literal() {
        let src = "post -5;";
        let prov = prov_expr(src, "-5", vec![]);
        let repairs = repairs_for(src, &prov, &Value::Number(-5.0), &Value::Number(-9.0));
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert_eq!(repairs[0].edit.replacement, "9");
        assert_eq!(repairs[0].edit.span.slice(src), "5");
    }

    #[test]
    fn prim_min_max_invert_the_literal_bound() {
        // math.min(x, 100) rendered 42 (so x = 42, pinned by 42 < 100);
        // want 30 → the bound drops to 30 and min(42, 30) recomputes
        // to exactly 30.
        let src = "post math.min(x, 100);";
        let prov = prov_expr(src, "math.min(x, 100)", vec![("x", Value::Number(42.0))]);
        let repairs = repairs_for(src, &prov, &Value::Number(42.0), &Value::Number(30.0));
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert_eq!(repairs[0].edit.replacement, "30");
        assert_eq!(repairs[0].edit.span.slice(src), "100");

        // math.max(0, x) rendered 0 (the floor won, so x ≤ 0); want 5 →
        // raising the floor to 5 recomputes to 5 for every such x.
        let src = "post math.max(0, x);";
        let prov = prov_expr(src, "math.max(0, x)", vec![("x", Value::Number(-3.0))]);
        let repairs = repairs_for(src, &prov, &Value::Number(0.0), &Value::Number(5.0));
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert_eq!(repairs[0].edit.replacement, "5");
        assert_eq!(repairs[0].edit.span.slice(src), "0");
    }

    #[test]
    fn min_passthrough_recurses_into_the_computed_operand() {
        // min(x + 2, 100) rendered 12 (x = 10); want 40 — the bound
        // stays, the computed side's literal solves: x + 30 = 40 and
        // min(100, 40) = 40.
        let src = "post math.min(x + 2, 100);";
        let prov = prov_expr(
            src,
            "math.min(x + 2, 100)",
            vec![("x", Value::Number(10.0))],
        );
        let repairs = repairs_for(src, &prov, &Value::Number(12.0), &Value::Number(40.0));
        let solved: Vec<_> = repairs
            .iter()
            .filter(|r| r.rank == 1 && r.edit.span.slice(src) == "2")
            .collect();
        assert_eq!(solved.len(), 1, "{repairs:?}");
        assert_eq!(solved[0].edit.replacement, "30");
    }

    #[test]
    fn abs_passthrough_pins_the_operand_sign_from_the_env() {
        // math.abs(x - 9) rendered 5 with x = 4: the operand was -5, so
        // asking for 2 rewrites the literal to 6 (abs(4 - 6) = 2). The
        // wrong-sign guess (9 → 12, valid only if the operand had been
        // +5) must not be offered: abs(4 - 12) = 8, not 2.
        let src = "post math.abs(x - 9);";
        let prov = prov_expr(src, "math.abs(x - 9)", vec![("x", Value::Number(4.0))]);
        let repairs = repairs_for(src, &prov, &Value::Number(5.0), &Value::Number(2.0));
        let lits: Vec<&str> = repairs
            .iter()
            .filter(|r| r.rank == 1)
            .map(|r| r.edit.replacement.as_str())
            .collect();
        assert_eq!(lits, vec!["6"], "{repairs:?}");
    }

    #[test]
    fn literal_provenance_repairs_in_place_through_the_session() {
        let mut session =
            LiveSession::new("page start() { render { boxed { post 4; } } }").expect("starts");
        let repairs = session.repairs_at(&[0], 0, "8").expect("candidates");
        assert_eq!(repairs[0].rank, 0);
        assert!(repairs[0]
            .description
            .contains("change the literal `4` to `8`"));
        let outcome = session.apply_repair(0).expect("applies");
        assert!(outcome.is_applied());
        assert!(session.source().contains("post 8;"));
        // The edited output value re-renders byte-identically.
        assert_eq!(session.live_view(), "8\n");
    }

    #[test]
    fn multiplication_inversion_re_renders_to_the_desired_value() {
        let src = "global n : number = 30\npage start() { render { boxed { post n * 12; } } }";
        let mut session = LiveSession::new(src).expect("starts");
        assert_eq!(session.live_view(), "360\n");
        let repairs = session.repairs_at(&[0], 0, "720").expect("candidates");
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert!(session.apply_repair(0).expect("applies").is_applied());
        assert!(session.source().contains("n * 24"), "{}", session.source());
        assert_eq!(session.live_view(), "720\n");
    }

    #[test]
    fn let_bound_locals_are_captured_in_the_candidate_description() {
        let src = "page start() { render { boxed { let k = 3; post k + 4; } } }";
        let mut session = LiveSession::new(src).expect("starts");
        assert_eq!(session.live_view(), "7\n");
        let repairs = session.repairs_at(&[0], 0, "10").expect("candidates");
        assert_eq!(repairs[0].rank, 1, "{repairs:?}");
        assert!(
            repairs[0].description.contains("(with k = 3)"),
            "{:?}",
            repairs[0]
        );
        assert!(session.apply_repair(0).expect("applies").is_applied());
        assert!(
            session.source().contains("post k + 7;"),
            "{}",
            session.source()
        );
        assert_eq!(session.live_view(), "10\n");
    }

    #[test]
    fn stale_offers_refuse_and_reselect_recovers() {
        let mut session =
            LiveSession::new("page start() { render { boxed { post 4; } } }").expect("starts");
        session.repairs_at(&[0], 0, "8").expect("candidates");
        // Applying a bogus index keeps the offer.
        assert_eq!(
            session.apply_repair(5).err(),
            Some(RepairError::NoSuchCandidate(5))
        );
        // The source drifts: the offer is withdrawn on apply.
        let drifted = format!("// drift\n{}", session.source());
        assert!(session.edit_source(&drifted).is_applied());
        assert_eq!(session.apply_repair(0).err(), Some(RepairError::Stale));
        assert_eq!(session.apply_repair(0).err(), Some(RepairError::NoPending));
        // Re-selecting computes fresh spans against the new source.
        session.repairs_at(&[0], 0, "8").expect("candidates");
        assert!(session.apply_repair(0).expect("applies").is_applied());
        assert_eq!(session.live_view(), "8\n");
    }

    #[test]
    fn path_addressed_attribute_edit_survives_source_drift() {
        // The stale-source hole, regression-tested: a client selects a
        // box, the source is edited underneath it, then the client
        // manipulates. The library path with cached program spans
        // refuses (StatementNotFound); the path-addressed session API
        // recomputes everything from the current source and succeeds.
        let mut session = LiveSession::new(SRC).expect("starts");
        let display = session.display_tree().expect("renders");
        let id = display.descendant(&[0]).expect("box").source.expect("id");
        let old_program = compile(SRC).expect("compiles");
        let drifted = format!("// drift\n{}", session.source());
        assert!(session.edit_source(&drifted).is_applied());
        assert!(matches!(
            attribute_edit(session.source(), &old_program, id, Attr::Margin, "9"),
            Err(ManipulateError::StatementNotFound(_))
        ));
        let outcome = session
            .attribute_edit_at(&[0], Attr::Margin, "9")
            .expect("applies");
        assert!(outcome.is_applied());
        assert!(session.source().contains("box.margin := 9;"));
    }
}
