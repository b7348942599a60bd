//! The faithful small-step substitution machine — the paper's Figure 8.
//!
//! Expressions reduce by textual substitution exactly as in the calculus:
//!
//! * `→p` (pure): EP-FUN (global function unfolding), EP-APP (β by
//!   substitution), EP-TUPLE (projection), EP-GLOBAL-1/2 (global reads);
//! * `→s` (standard): ES-PURE, ES-ASSIGN, ES-PUSH, ES-POP;
//! * `→r` (render): ER-PURE, ER-POST, ER-ATTR, ER-BOXED (which performs
//!   the nested `→r*` reduction of the box body).
//!
//! The conservative extensions reduce by their standard rules (`if` on
//! a boolean value, `while` by unfolding to `if`, `let` by substitution,
//! loops by unrolling); local *assignment* is the one construct that has
//! no substitution semantics and is rejected with
//! [`RuntimeError::NotInKernel`].
//!
//! This machine exists for fidelity, not speed: tests cross-check it
//! against [`crate::bigstep`] and the E7 ablation bench measures the
//! cost of faithfulness.

use crate::boxtree::{BoxItem, BoxNode};
use crate::error::RuntimeError;
use crate::event::{Event, EventQueue};
use crate::expr::{Expr, ExprKind, LambdaExpr};
use crate::program::Program;
use crate::store::Store;
use crate::types::{Effect, Name};
use crate::value::{CapturedEnv, Closure, Value};
use alive_syntax::ast::{BinOp, UnOp};
use alive_syntax::Span;
use std::sync::Arc;

/// Per-mode step counters, for the ablation bench and for tests that
/// assert e.g. "render evaluation performs no state steps".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// `→p` steps (EP-* rules and pure extension rules).
    pub pure: u64,
    /// `→s`-only steps (ES-ASSIGN, ES-PUSH, ES-POP).
    pub state: u64,
    /// `→r`-only steps (ER-POST, ER-ATTR, ER-BOXED).
    pub render: u64,
}

impl StepCounts {
    /// Total steps across all modes.
    pub fn total(&self) -> u64 {
        self.pure + self.state + self.render
    }
}

/// The reduction rule applied by one small step, for tracing
/// derivations. The `Ep*`/`Es*`/`Er*` rules are the paper's Figure 8
/// verbatim; the `X*` rules are the documented conservative extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Rule {
    EpFun,
    EpApp,
    EpTuple,
    EpGlobal1,
    EpGlobal2,
    EsAssign,
    EsPush,
    EsPop,
    ErPost,
    ErAttr,
    ErBoxed,
    XLet,
    XSeq,
    XIf,
    XWhile,
    XFor,
    XForeach,
    XShortCircuit,
    XOp,
}

impl Rule {
    /// The rule's name as written in the paper (or `X-*` for
    /// extensions).
    pub fn name(self) -> &'static str {
        match self {
            Rule::EpFun => "EP-FUN",
            Rule::EpApp => "EP-APP",
            Rule::EpTuple => "EP-TUPLE",
            Rule::EpGlobal1 => "EP-GLOBAL-1",
            Rule::EpGlobal2 => "EP-GLOBAL-2",
            Rule::EsAssign => "ES-ASSIGN",
            Rule::EsPush => "ES-PUSH",
            Rule::EsPop => "ES-POP",
            Rule::ErPost => "ER-POST",
            Rule::ErAttr => "ER-ATTR",
            Rule::ErBoxed => "ER-BOXED",
            Rule::XLet => "X-LET",
            Rule::XSeq => "X-SEQ",
            Rule::XIf => "X-IF",
            Rule::XWhile => "X-WHILE",
            Rule::XFor => "X-FOR",
            Rule::XForeach => "X-FOREACH",
            Rule::XShortCircuit => "X-SHORTCIRCUIT",
            Rule::XOp => "X-OP",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a small-step run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallStepOutput {
    /// The final value.
    pub value: Value,
    /// Steps taken, by mode.
    pub steps: StepCounts,
    /// Box content built (render runs only).
    pub root: Option<BoxNode>,
    /// The rules applied, in order (traced runs only).
    pub trace: Option<Vec<Rule>>,
}

/// Reduce `expr` to a value in state mode (`→s*`).
///
/// # Errors
///
/// [`RuntimeError::FuelExhausted`] on divergence, or kernel violations.
pub fn eval_state(
    program: &Program,
    store: &mut Store,
    queue: &mut EventQueue,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let mut machine = Machine {
        program,
        store,
        queue: Some(queue),
        mode: Effect::State,
        boxes: Vec::new(),
        fuel,
        steps: StepCounts::default(),
        trace: None,
    };
    let value = machine.reduce_to_value(expr.clone())?;
    Ok(SmallStepOutput {
        value,
        steps: machine.steps,
        root: None,
        trace: machine.trace,
    })
}

/// Reduce `expr` to a value in render mode (`→r*`), building box content.
///
/// # Errors
///
/// See [`eval_state`].
pub fn eval_render(
    program: &Program,
    store: &mut Store,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let mut machine = Machine {
        program,
        store,
        queue: None,
        mode: Effect::Render,
        boxes: vec![BoxNode::new(None)],
        fuel,
        steps: StepCounts::default(),
        trace: None,
    };
    let value = machine.reduce_to_value(expr.clone())?;
    let root = machine
        .boxes
        .pop()
        .ok_or(RuntimeError::Internal("no open box frame in render"))?;
    Ok(SmallStepOutput {
        value,
        steps: machine.steps,
        root: Some(root),
        trace: machine.trace,
    })
}

/// Reduce `expr` to a value in pure mode (`→p*`).
///
/// # Errors
///
/// See [`eval_state`].
pub fn eval_pure(
    program: &Program,
    store: &mut Store,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let mut machine = Machine {
        program,
        store,
        queue: None,
        mode: Effect::Pure,
        boxes: Vec::new(),
        fuel,
        steps: StepCounts::default(),
        trace: None,
    };
    let value = machine.reduce_to_value(expr.clone())?;
    Ok(SmallStepOutput {
        value,
        steps: machine.steps,
        root: None,
        trace: machine.trace,
    })
}

/// Like [`eval_state`], but records the [`Rule`] applied by every step
/// — a machine-checked derivation of the Fig. 8 reduction sequence.
///
/// # Errors
///
/// See [`eval_state`].
pub fn eval_state_traced(
    program: &Program,
    store: &mut Store,
    queue: &mut EventQueue,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let mut machine = Machine {
        program,
        store,
        queue: Some(queue),
        mode: Effect::State,
        boxes: Vec::new(),
        fuel,
        steps: StepCounts::default(),
        trace: Some(Vec::new()),
    };
    let value = machine.reduce_to_value(expr.clone())?;
    Ok(SmallStepOutput {
        value,
        steps: machine.steps,
        root: None,
        trace: machine.trace,
    })
}

/// Like [`eval_render`], but records the [`Rule`] applied by every step.
///
/// # Errors
///
/// See [`eval_state`].
pub fn eval_render_traced(
    program: &Program,
    store: &mut Store,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let mut machine = Machine {
        program,
        store,
        queue: None,
        mode: Effect::Render,
        boxes: vec![BoxNode::new(None)],
        fuel,
        steps: StepCounts::default(),
        trace: Some(Vec::new()),
    };
    let value = machine.reduce_to_value(expr.clone())?;
    let root = machine
        .boxes
        .pop()
        .ok_or(RuntimeError::Internal("no open box frame in render"))?;
    Ok(SmallStepOutput {
        value,
        steps: machine.steps,
        root: Some(root),
        trace: machine.trace,
    })
}

/// An interactive single-stepper over the substitution machine — the
/// §5 "future work" debugger angle made concrete: watch a batch
/// computation reduce rule by rule, with the intermediate expressions
/// visible ([`crate::pretty::pretty_expr`] renders them).
pub struct Stepper<'a> {
    machine: Machine<'a>,
    current: Expr,
}

impl<'a> Stepper<'a> {
    /// A stepper over `expr` in pure mode.
    pub fn new_pure(program: &'a Program, store: &'a mut Store, fuel: u64, expr: Expr) -> Self {
        Stepper {
            machine: Machine {
                program,
                store,
                queue: None,
                mode: Effect::Pure,
                boxes: Vec::new(),
                fuel,
                steps: StepCounts::default(),
                trace: Some(Vec::new()),
            },
            current: expr,
        }
    }

    /// The expression as reduced so far.
    pub fn current(&self) -> &Expr {
        &self.current
    }

    /// Whether the expression is fully reduced to a value.
    pub fn is_done(&self) -> bool {
        is_value(&self.current)
    }

    /// The final value, once done.
    pub fn value(&self) -> Option<Value> {
        if self.is_done() {
            expr_to_value(&self.current).ok()
        } else {
            None
        }
    }

    /// Take one small step; returns the rule applied, or `None` if the
    /// expression was already a value. (A congruence descent may apply
    /// several inner rules in one visible rewrite — e.g. ER-BOXED fully
    /// reduces its body — in which case the *last* rule is reported and
    /// the full sequence is available from [`Stepper::trace`].)
    ///
    /// # Errors
    ///
    /// See [`eval_state`].
    pub fn step(&mut self) -> Result<Option<Rule>, RuntimeError> {
        if self.is_done() {
            return Ok(None);
        }
        let expr = std::mem::replace(&mut self.current, Expr::unit(Span::DUMMY));
        self.current = self.machine.step(expr)?;
        Ok(self.machine.trace.as_ref().and_then(|t| t.last()).copied())
    }

    /// All rules applied so far.
    pub fn trace(&self) -> &[Rule] {
        self.machine.trace.as_deref().unwrap_or(&[])
    }

    /// Per-mode step counts so far.
    pub fn counts(&self) -> StepCounts {
        self.machine.steps
    }
}

/// Is this expression a value of the calculus (Fig. 6 `v`)?
pub fn is_value(expr: &Expr) -> bool {
    match &expr.kind {
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::ColorLit(_)
        | ExprKind::Lambda(_)
        | ExprKind::PrimRef(_) => true,
        ExprKind::Tuple(elems) | ExprKind::ListLit(elems) => elems.iter().all(is_value),
        _ => false,
    }
}

/// Convert a value-expression to a [`Value`].
///
/// # Errors
///
/// [`RuntimeError::NotInKernel`] if the expression is not a value.
pub fn expr_to_value(expr: &Expr) -> Result<Value, RuntimeError> {
    match &expr.kind {
        ExprKind::Num(n) => Ok(Value::Number(*n)),
        ExprKind::Str(s) => Ok(Value::Str(s.clone())),
        ExprKind::Bool(b) => Ok(Value::Bool(*b)),
        ExprKind::ColorLit(c) => Ok(Value::Color(*c)),
        ExprKind::PrimRef(p) => Ok(Value::Prim(*p)),
        ExprKind::Tuple(elems) => {
            let vs: Result<Vec<Value>, _> = elems.iter().map(expr_to_value).collect();
            Ok(Value::tuple(vs?))
        }
        ExprKind::ListLit(elems) => {
            let vs: Result<Vec<Value>, _> = elems.iter().map(expr_to_value).collect();
            Ok(Value::list(vs?))
        }
        // A substitution-machine lambda is closed over by substitution;
        // it corresponds to a closure with an empty environment.
        ExprKind::Lambda(lam) => Ok(Value::Closure(Arc::new(Closure {
            params: lam.params.clone(),
            effect: lam.effect,
            body: lam.body.clone(),
            env: CapturedEnv::default(),
            version: 0,
        }))),
        _ => Err(RuntimeError::NotInKernel("non-value expression")),
    }
}

/// Convert a [`Value`] to a value-expression (for EP-GLOBAL reads).
///
/// # Errors
///
/// [`RuntimeError::NotInKernel`] for a view-state reference, which has
/// no substitution semantics (the kernel machine rejects `remember`
/// before one can appear).
pub fn value_to_expr(value: &Value, span: Span) -> Result<Expr, RuntimeError> {
    let exprs = |vs: &[Value]| -> Result<Vec<Expr>, RuntimeError> {
        vs.iter().map(|v| value_to_expr(v, span)).collect()
    };
    let kind = match value {
        Value::Number(n) => ExprKind::Num(*n),
        Value::Str(s) => ExprKind::Str(s.clone()),
        Value::Bool(b) => ExprKind::Bool(*b),
        Value::Color(c) => ExprKind::ColorLit(*c),
        Value::Prim(p) => ExprKind::PrimRef(*p),
        Value::Tuple(vs) => ExprKind::Tuple(exprs(vs)?),
        Value::List(vs) => ExprKind::ListLit(exprs(vs)?),
        Value::WidgetRef(_) => return Err(RuntimeError::NotInKernel("view state (remember)")),
        Value::Closure(c) => {
            // Closures re-enter the machine as lambdas whose captured
            // environment is substituted into the body.
            let mut body = (*c.body).clone();
            let param_names: Vec<&Name> = c.params.iter().map(|p| &p.name).collect();
            for (name, captured) in c.env.iter() {
                if param_names.contains(&name) {
                    continue; // parameter shadows the captured binding
                }
                body = subst(&body, name, &value_to_expr(captured, span)?);
            }
            ExprKind::Lambda(Arc::new(LambdaExpr {
                params: c.params.clone(),
                effect: c.effect,
                body: Arc::new(body),
            }))
        }
    };
    Ok(Expr::new(kind, span))
}

/// Capture-avoiding substitution `e[v/x]` where `v` is a closed value
/// expression.
pub fn subst(expr: &Expr, name: &Name, replacement: &Expr) -> Expr {
    let span = expr.span;
    let kind = match &expr.kind {
        ExprKind::Local(n) if n == name => return replacement.clone(),
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::ColorLit(_)
        | ExprKind::Local(_)
        | ExprKind::Global(_)
        | ExprKind::FunRef(_)
        | ExprKind::PrimRef(_)
        | ExprKind::PopPage => expr.kind.clone(),
        ExprKind::Tuple(es) => {
            ExprKind::Tuple(es.iter().map(|e| subst(e, name, replacement)).collect())
        }
        ExprKind::ListLit(es) => {
            ExprKind::ListLit(es.iter().map(|e| subst(e, name, replacement)).collect())
        }
        ExprKind::Proj(e, i) => ExprKind::Proj(Box::new(subst(e, name, replacement)), *i),
        ExprKind::Call(f, args) => ExprKind::Call(
            Box::new(subst(f, name, replacement)),
            args.iter().map(|a| subst(a, name, replacement)).collect(),
        ),
        ExprKind::Lambda(lam) => {
            if lam.params.iter().any(|p| &p.name == name) {
                // The parameter shadows `name`.
                expr.kind.clone()
            } else {
                ExprKind::Lambda(Arc::new(LambdaExpr {
                    params: lam.params.clone(),
                    effect: lam.effect,
                    body: Arc::new(subst(&lam.body, name, replacement)),
                }))
            }
        }
        ExprKind::Let {
            name: bound,
            ty,
            value,
            body,
        } => {
            let new_value = subst(value, name, replacement);
            let new_body = if bound == name {
                (**body).clone() // shadowed
            } else {
                subst(body, name, replacement)
            };
            ExprKind::Let {
                name: bound.clone(),
                ty: ty.clone(),
                value: Box::new(new_value),
                body: Box::new(new_body),
            }
        }
        ExprKind::Seq(a, b) => ExprKind::Seq(
            Box::new(subst(a, name, replacement)),
            Box::new(subst(b, name, replacement)),
        ),
        ExprKind::If(c, t, e) => ExprKind::If(
            Box::new(subst(c, name, replacement)),
            Box::new(subst(t, name, replacement)),
            Box::new(subst(e, name, replacement)),
        ),
        ExprKind::While(c, b) => ExprKind::While(
            Box::new(subst(c, name, replacement)),
            Box::new(subst(b, name, replacement)),
        ),
        ExprKind::ForRange { var, lo, hi, body } => {
            let new_body = if var == name {
                (**body).clone()
            } else {
                subst(body, name, replacement)
            };
            ExprKind::ForRange {
                var: var.clone(),
                lo: Box::new(subst(lo, name, replacement)),
                hi: Box::new(subst(hi, name, replacement)),
                body: Box::new(new_body),
            }
        }
        ExprKind::Foreach { var, list, body } => {
            let new_body = if var == name {
                (**body).clone()
            } else {
                subst(body, name, replacement)
            };
            ExprKind::Foreach {
                var: var.clone(),
                list: Box::new(subst(list, name, replacement)),
                body: Box::new(new_body),
            }
        }
        ExprKind::LocalAssign(n, e) => {
            ExprKind::LocalAssign(n.clone(), Box::new(subst(e, name, replacement)))
        }
        ExprKind::WidgetRead(n) => ExprKind::WidgetRead(n.clone()),
        ExprKind::WidgetWrite(n, e) => {
            ExprKind::WidgetWrite(n.clone(), Box::new(subst(e, name, replacement)))
        }
        ExprKind::Remember {
            id,
            name: bound,
            ty,
            init,
            body,
        } => {
            let new_init = subst(init, name, replacement);
            let new_body = if bound == name {
                (**body).clone() // shadowed
            } else {
                subst(body, name, replacement)
            };
            ExprKind::Remember {
                id: *id,
                name: bound.clone(),
                ty: ty.clone(),
                init: Box::new(new_init),
                body: Box::new(new_body),
            }
        }
        ExprKind::GlobalAssign(g, e) => {
            ExprKind::GlobalAssign(g.clone(), Box::new(subst(e, name, replacement)))
        }
        ExprKind::PushPage(p, args) => ExprKind::PushPage(
            p.clone(),
            args.iter().map(|a| subst(a, name, replacement)).collect(),
        ),
        ExprKind::Boxed(id, e) => ExprKind::Boxed(*id, Box::new(subst(e, name, replacement))),
        ExprKind::Post(e) => ExprKind::Post(Box::new(subst(e, name, replacement))),
        ExprKind::SetAttr(a, e) => ExprKind::SetAttr(*a, Box::new(subst(e, name, replacement))),
        ExprKind::Binary(op, l, r) => ExprKind::Binary(
            *op,
            Box::new(subst(l, name, replacement)),
            Box::new(subst(r, name, replacement)),
        ),
        ExprKind::Unary(op, e) => ExprKind::Unary(*op, Box::new(subst(e, name, replacement))),
    };
    Expr::new(kind, span)
}

struct Machine<'a> {
    program: &'a Program,
    store: &'a mut Store,
    queue: Option<&'a mut EventQueue>,
    mode: Effect,
    boxes: Vec<BoxNode>,
    fuel: u64,
    steps: StepCounts,
    /// When present, every applied rule is appended here.
    trace: Option<Vec<Rule>>,
}

impl Machine<'_> {
    fn tick(&mut self, class: Effect, rule: Rule) -> Result<(), RuntimeError> {
        match class {
            Effect::Pure => self.steps.pure += 1,
            Effect::State => self.steps.state += 1,
            Effect::Render => self.steps.render += 1,
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(rule);
        }
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// The innermost open box frame; a missing frame is an interpreter
    /// invariant breach surfaced as a contained runtime error rather
    /// than a panic.
    fn current_box(&mut self) -> Result<&mut BoxNode, RuntimeError> {
        self.boxes
            .last_mut()
            .ok_or(RuntimeError::Internal("no open box frame in render"))
    }

    fn reduce_to_value(&mut self, mut expr: Expr) -> Result<Value, RuntimeError> {
        while !is_value(&expr) {
            expr = self.step(expr)?;
        }
        expr_to_value(&expr)
    }

    /// One small step of `→µ`. The congruence traversal implements the
    /// evaluation contexts `E` of Fig. 6: leftmost-innermost reduction.
    fn step(&mut self, expr: Expr) -> Result<Expr, RuntimeError> {
        let span = expr.span;
        let unit = || Expr::unit(span);
        match expr.kind {
            // -- congruence / redexes for the kernel forms ---------------
            ExprKind::Tuple(elems) => {
                let elems = self.step_first_non_value(elems)?;
                Ok(Expr::new(ExprKind::Tuple(elems), span))
            }
            ExprKind::ListLit(elems) => {
                let elems = self.step_first_non_value(elems)?;
                Ok(Expr::new(ExprKind::ListLit(elems), span))
            }
            ExprKind::Proj(base, index) => {
                if is_value(&base) {
                    // (EP-TUPLE)
                    self.tick(Effect::Pure, Rule::EpTuple)?;
                    let ExprKind::Tuple(elems) = base.kind else {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "tuple",
                            found: format!("{:?}", base.kind),
                        });
                    };
                    let i = index as usize;
                    if i >= 1 && i <= elems.len() {
                        Ok(elems[i - 1].clone())
                    } else {
                        Err(RuntimeError::ProjOutOfRange {
                            index,
                            len: elems.len(),
                        })
                    }
                } else {
                    let base = self.step(*base)?;
                    Ok(Expr::new(ExprKind::Proj(Box::new(base), index), span))
                }
            }
            ExprKind::FunRef(name) => {
                // (EP-FUN): unfold the definition to its lambda.
                self.tick(Effect::Pure, Rule::EpFun)?;
                let f = self
                    .program
                    .fun(&name)
                    .ok_or_else(|| RuntimeError::UnknownFun(name.clone()))?;
                Ok(Expr::new(
                    ExprKind::Lambda(Arc::new(LambdaExpr {
                        params: f.params.clone(),
                        effect: f.effect,
                        body: f.body.clone(),
                    })),
                    span,
                ))
            }
            ExprKind::Global(name) => {
                if let Some(v) = self.store.get(&name).cloned() {
                    // (EP-GLOBAL-1)
                    self.tick(Effect::Pure, Rule::EpGlobal1)?;
                    value_to_expr(&v, span)
                } else {
                    // (EP-GLOBAL-2)
                    self.tick(Effect::Pure, Rule::EpGlobal2)?;
                    let g = self
                        .program
                        .global(&name)
                        .ok_or_else(|| RuntimeError::UnknownGlobal(name.clone()))?;
                    Ok((*g.init).clone())
                }
            }
            ExprKind::Call(callee, args) => {
                if !is_value(&callee) {
                    let callee = self.step(*callee)?;
                    return Ok(Expr::new(ExprKind::Call(Box::new(callee), args), span));
                }
                if args.iter().any(|a| !is_value(a)) {
                    let args = self.step_first_non_value(args)?;
                    return Ok(Expr::new(ExprKind::Call(callee, args), span));
                }
                self.tick(Effect::Pure, Rule::EpApp)?;
                match &callee.kind {
                    // (EP-APP): β-reduce by substitution.
                    ExprKind::Lambda(lam) => {
                        if lam.params.len() != args.len() {
                            return Err(RuntimeError::ArityMismatch {
                                expected: lam.params.len(),
                                found: args.len(),
                            });
                        }
                        let mut body = (*lam.body).clone();
                        for (p, a) in lam.params.iter().zip(args.iter()) {
                            body = subst(&body, &p.name, a);
                        }
                        Ok(body)
                    }
                    ExprKind::PrimRef(p) => {
                        let argv: Result<Vec<Value>, _> = args.iter().map(expr_to_value).collect();
                        let mut ctx = crate::prim::PrimCtx::default();
                        let result = p.apply(&argv?, &mut ctx)?;
                        value_to_expr(&result, span)
                    }
                    other => Err(RuntimeError::NotAFunction(format!("{other:?}"))),
                }
            }
            ExprKind::GlobalAssign(name, value) => {
                if is_value(&value) {
                    // (ES-ASSIGN)
                    if self.mode != Effect::State {
                        return Err(RuntimeError::EffectViolation {
                            op: "g := e",
                            mode: self.mode,
                        });
                    }
                    self.tick(Effect::State, Rule::EsAssign)?;
                    if self.program.global(&name).is_none() {
                        return Err(RuntimeError::UnknownGlobal(name));
                    }
                    let v = expr_to_value(&value)?;
                    self.store.set(&*name, v);
                    Ok(unit())
                } else {
                    let value = self.step(*value)?;
                    Ok(Expr::new(
                        ExprKind::GlobalAssign(name, Box::new(value)),
                        span,
                    ))
                }
            }
            ExprKind::PushPage(name, args) => {
                if args.iter().any(|a| !is_value(a)) {
                    let args = self.step_first_non_value(args)?;
                    return Ok(Expr::new(ExprKind::PushPage(name, args), span));
                }
                // (ES-PUSH)
                if self.mode != Effect::State {
                    return Err(RuntimeError::EffectViolation {
                        op: "push",
                        mode: self.mode,
                    });
                }
                self.tick(Effect::State, Rule::EsPush)?;
                let argv: Result<Vec<Value>, _> = args.iter().map(expr_to_value).collect();
                let queue = self
                    .queue
                    .as_deref_mut()
                    .ok_or(RuntimeError::EffectViolation {
                        op: "push",
                        mode: Effect::Render,
                    })?;
                queue.enqueue(Event::Push(name, Value::tuple(argv?)));
                Ok(unit())
            }
            ExprKind::PopPage => {
                // (ES-POP)
                if self.mode != Effect::State {
                    return Err(RuntimeError::EffectViolation {
                        op: "pop",
                        mode: self.mode,
                    });
                }
                self.tick(Effect::State, Rule::EsPop)?;
                let queue = self
                    .queue
                    .as_deref_mut()
                    .ok_or(RuntimeError::EffectViolation {
                        op: "pop",
                        mode: Effect::Render,
                    })?;
                queue.enqueue(Event::Pop);
                Ok(unit())
            }
            ExprKind::Post(value) => {
                if is_value(&value) {
                    // (ER-POST)
                    if self.mode != Effect::Render || self.boxes.is_empty() {
                        return Err(RuntimeError::EffectViolation {
                            op: "post",
                            mode: self.mode,
                        });
                    }
                    self.tick(Effect::Render, Rule::ErPost)?;
                    let v = expr_to_value(&value)?;
                    self.current_box()?.items.push(BoxItem::Leaf(v, None));
                    Ok(unit())
                } else {
                    let value = self.step(*value)?;
                    Ok(Expr::new(ExprKind::Post(Box::new(value)), span))
                }
            }
            ExprKind::SetAttr(attr, value) => {
                if is_value(&value) {
                    // (ER-ATTR)
                    if self.mode != Effect::Render || self.boxes.is_empty() {
                        return Err(RuntimeError::EffectViolation {
                            op: "box.a := e",
                            mode: self.mode,
                        });
                    }
                    self.tick(Effect::Render, Rule::ErAttr)?;
                    let v = expr_to_value(&value)?;
                    self.current_box()?.items.push(BoxItem::Attr(attr, v, None));
                    Ok(unit())
                } else {
                    let value = self.step(*value)?;
                    Ok(Expr::new(ExprKind::SetAttr(attr, Box::new(value)), span))
                }
            }
            ExprKind::Boxed(id, body) => {
                // (ER-BOXED): fully reduce the body with a fresh box
                // content B′, then append ⟨B′⟩ and yield the body value.
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(RuntimeError::EffectViolation {
                        op: "boxed",
                        mode: self.mode,
                    });
                }
                self.tick(Effect::Render, Rule::ErBoxed)?;
                self.boxes.push(BoxNode::new(Some(id)));
                let result = self.reduce_to_value(*body);
                let node = self
                    .boxes
                    .pop()
                    .ok_or(RuntimeError::Internal("no open box frame in render"))?;
                let value = result?;
                self.current_box()?
                    .items
                    .push(BoxItem::Child(std::sync::Arc::new(node)));
                value_to_expr(&value, span)
            }
            // -- conservative extensions --------------------------------
            ExprKind::Let {
                name,
                ty,
                value,
                body,
            } => {
                if is_value(&value) {
                    self.tick(Effect::Pure, Rule::XLet)?;
                    Ok(subst(&body, &name, &value))
                } else {
                    let value = self.step(*value)?;
                    Ok(Expr::new(
                        ExprKind::Let {
                            name,
                            ty,
                            value: Box::new(value),
                            body,
                        },
                        span,
                    ))
                }
            }
            ExprKind::Seq(a, b) => {
                if is_value(&a) {
                    self.tick(Effect::Pure, Rule::XSeq)?;
                    Ok(*b)
                } else {
                    let a = self.step(*a)?;
                    Ok(Expr::new(ExprKind::Seq(Box::new(a), b), span))
                }
            }
            ExprKind::If(c, t, e) => {
                if is_value(&c) {
                    self.tick(Effect::Pure, Rule::XIf)?;
                    match c.kind {
                        ExprKind::Bool(true) => Ok(*t),
                        ExprKind::Bool(false) => Ok(*e),
                        other => Err(RuntimeError::TypeMismatch {
                            expected: "bool",
                            found: format!("{other:?}"),
                        }),
                    }
                } else {
                    let c = self.step(*c)?;
                    Ok(Expr::new(ExprKind::If(Box::new(c), t, e), span))
                }
            }
            ExprKind::While(c, body) => {
                // while c { b }  →p  if c { b; while c { b } } else { () }
                self.tick(Effect::Pure, Rule::XWhile)?;
                let unrolled = Expr::new(
                    ExprKind::Seq(
                        body.clone(),
                        Box::new(Expr::new(ExprKind::While(c.clone(), body), span)),
                    ),
                    span,
                );
                Ok(Expr::new(
                    ExprKind::If(c, Box::new(unrolled), Box::new(unit())),
                    span,
                ))
            }
            ExprKind::ForRange { var, lo, hi, body } => {
                if !is_value(&lo) {
                    let lo = self.step(*lo)?;
                    return Ok(Expr::new(
                        ExprKind::ForRange {
                            var,
                            lo: Box::new(lo),
                            hi,
                            body,
                        },
                        span,
                    ));
                }
                if !is_value(&hi) {
                    let hi = self.step(*hi)?;
                    return Ok(Expr::new(
                        ExprKind::ForRange {
                            var,
                            lo,
                            hi: Box::new(hi),
                            body,
                        },
                        span,
                    ));
                }
                self.tick(Effect::Pure, Rule::XFor)?;
                let (ExprKind::Num(lo_n), ExprKind::Num(hi_n)) = (&lo.kind, &hi.kind) else {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "number",
                        found: "non-number loop bound".to_string(),
                    });
                };
                if lo_n < hi_n {
                    let iteration = subst(&body, &var, &lo);
                    let next = Expr::new(
                        ExprKind::ForRange {
                            var,
                            lo: Box::new(Expr::new(ExprKind::Num(lo_n + 1.0), span)),
                            hi,
                            body,
                        },
                        span,
                    );
                    Ok(Expr::new(
                        ExprKind::Seq(Box::new(iteration), Box::new(next)),
                        span,
                    ))
                } else {
                    Ok(unit())
                }
            }
            ExprKind::Foreach { var, list, body } => {
                if !is_value(&list) {
                    let list = self.step(*list)?;
                    return Ok(Expr::new(
                        ExprKind::Foreach {
                            var,
                            list: Box::new(list),
                            body,
                        },
                        span,
                    ));
                }
                self.tick(Effect::Pure, Rule::XForeach)?;
                let ExprKind::ListLit(elems) = &list.kind else {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "list",
                        found: format!("{:?}", list.kind),
                    });
                };
                match elems.split_first() {
                    None => Ok(unit()),
                    Some((head, rest)) => {
                        let iteration = subst(&body, &var, head);
                        let next = Expr::new(
                            ExprKind::Foreach {
                                var,
                                list: Box::new(Expr::new(ExprKind::ListLit(rest.to_vec()), span)),
                                body,
                            },
                            span,
                        );
                        Ok(Expr::new(
                            ExprKind::Seq(Box::new(iteration), Box::new(next)),
                            span,
                        ))
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                if !is_value(&l) {
                    let l = self.step(*l)?;
                    return Ok(Expr::new(ExprKind::Binary(op, Box::new(l), r), span));
                }
                // Short-circuit before reducing the right operand.
                if matches!(op, BinOp::And | BinOp::Or) {
                    self.tick(Effect::Pure, Rule::XShortCircuit)?;
                    return match (&l.kind, op) {
                        (ExprKind::Bool(false), BinOp::And) => {
                            Ok(Expr::new(ExprKind::Bool(false), span))
                        }
                        (ExprKind::Bool(true), BinOp::Or) => {
                            Ok(Expr::new(ExprKind::Bool(true), span))
                        }
                        (ExprKind::Bool(_), _) => Ok(*r),
                        _ => Err(RuntimeError::TypeMismatch {
                            expected: "bool",
                            found: format!("{:?}", l.kind),
                        }),
                    };
                }
                if !is_value(&r) {
                    let r = self.step(*r)?;
                    return Ok(Expr::new(ExprKind::Binary(op, l, Box::new(r)), span));
                }
                self.tick(Effect::Pure, Rule::XOp)?;
                let lv = expr_to_value(&l)?;
                let rv = expr_to_value(&r)?;
                let result = crate::bigstep::apply_binop(op, &lv, &rv)?;
                value_to_expr(&result, span)
            }
            ExprKind::Unary(op, e) => {
                if !is_value(&e) {
                    let e = self.step(*e)?;
                    return Ok(Expr::new(ExprKind::Unary(op, Box::new(e)), span));
                }
                self.tick(Effect::Pure, Rule::XOp)?;
                match (op, &e.kind) {
                    (UnOp::Neg, ExprKind::Num(n)) => Ok(Expr::new(ExprKind::Num(-n), span)),
                    (UnOp::Not, ExprKind::Bool(b)) => Ok(Expr::new(ExprKind::Bool(!b), span)),
                    (_, other) => Err(RuntimeError::TypeMismatch {
                        expected: "operand",
                        found: format!("{other:?}"),
                    }),
                }
            }
            ExprKind::LocalAssign(..) => Err(RuntimeError::NotInKernel("local assignment")),
            ExprKind::Remember { .. } | ExprKind::WidgetRead(_) | ExprKind::WidgetWrite(..) => {
                Err(RuntimeError::NotInKernel("view state (remember)"))
            }
            ExprKind::Local(name) => Err(RuntimeError::UnknownLocal(name)),
            // Values never reach `step`.
            ExprKind::Num(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::ColorLit(_)
            | ExprKind::Lambda(_)
            | ExprKind::PrimRef(_) => Err(RuntimeError::Internal("step called on a value")),
        }
    }

    fn step_first_non_value(&mut self, elems: Vec<Expr>) -> Result<Vec<Expr>, RuntimeError> {
        let mut out = Vec::with_capacity(elems.len());
        let mut stepped = false;
        for e in elems {
            if !stepped && !is_value(&e) {
                out.push(self.step(e)?);
                stepped = true;
            } else {
                out.push(e);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigstep;
    use crate::compile;

    const START: &str = "page start() { render { } }";

    fn compiled(src: &str) -> Program {
        compile(src).expect("compiles")
    }

    /// Cross-check: small-step and big-step agree on a nullary
    /// function's result and on the final store.
    fn agree_on_fun(src: &str, fun: &str, expected: Value) {
        let full = format!("{src}\n{START}");
        let p = compiled(&full);
        let f = p.fun(fun).expect("fun exists");
        assert!(
            f.params.is_empty(),
            "agree_on_fun only supports nullary funs"
        );
        let body = (*f.body).clone();

        let mut store1 = Store::new();
        let mut q1 = EventQueue::new();
        let small =
            eval_state(&p, &mut store1, &mut q1, 10_000_000, &body).expect("small-step evaluates");

        let mut store2 = Store::new();
        let mut q2 = EventQueue::new();
        let (big, _) = bigstep::transition_state(
            &p,
            &mut store2,
            &mut q2,
            0,
            10_000_000,
            vec![],
            &body,
            None,
            None,
        );
        let big = big.expect("big-step evaluates");

        assert_eq!(small.value, expected, "small-step result");
        assert_eq!(big, expected, "big-step result");
        assert_eq!(store1, store2, "stores agree");
    }

    #[test]
    fn arithmetic_agrees() {
        agree_on_fun(
            "fun f(): number pure { 1 + 2 * 3 - 4 / 2 }",
            "f",
            Value::Number(5.0),
        );
    }

    #[test]
    fn recursion_agrees() {
        agree_on_fun(
            "fun fib(n: number): number pure {
                 if n < 2 { n } else { fib(n - 1) + fib(n - 2) }
             }
             fun f(): number pure { fib(12) }",
            "f",
            Value::Number(144.0),
        );
    }

    #[test]
    fn let_and_lambda_agree() {
        agree_on_fun(
            "fun f(): number pure {
                 let add = fn(a: number, b: number) -> a + b;
                 let inc = fn(x: number) -> add(x, 1);
                 inc(inc(40))
             }",
            "f",
            Value::Number(42.0),
        );
    }

    #[test]
    fn while_loop_agrees_via_unfolding() {
        // Kernel-compatible loop: accumulate through a global, not a local.
        agree_on_fun(
            "global acc : number = 0
             global i : number = 1
             fun f(): number state {
                 while i <= 10 {
                     acc := acc + i;
                     i := i + 1;
                 }
                 acc
             }",
            "f",
            Value::Number(55.0),
        );
    }

    #[test]
    fn for_range_and_foreach_agree() {
        agree_on_fun(
            "global acc : number = 0
             fun f(): number state {
                 for i in 0 .. 5 { acc := acc + i; }
                 foreach x in [10, 20] { acc := acc + x; }
                 acc
             }",
            "f",
            Value::Number(40.0),
        );
    }

    #[test]
    fn render_box_trees_agree() {
        let p = compiled(
            "global items : list string = [\"a\", \"b\"]
             page start() {
                 render {
                     boxed {
                         box.margin := 3;
                         post \"hdr\";
                     }
                     foreach x in items {
                         boxed { post x; }
                     }
                 }
             }",
        );
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let small =
            eval_render(&p, &mut store, 10_000_000, &page.render).expect("small-step renders");
        let store2 = Store::new();
        let (big, _) = bigstep::transition_render(
            &p,
            &store2,
            0,
            10_000_000,
            vec![],
            &page.render,
            None,
            None,
            None,
        );
        let big = big.expect("big-step renders");
        assert_eq!(small.root.as_ref(), Some(&big));
        assert!(small.steps.render >= 3, "boxed/post/attr steps counted");
        assert_eq!(small.steps.state, 0, "render takes no state steps");
    }

    #[test]
    fn state_steps_enqueue_like_bigstep() {
        let p = compiled(
            "global n : number = 0
             page start() {
                 init { n := 7; push start(); pop; }
                 render { }
             }",
        );
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let out = eval_state(&p, &mut store, &mut queue, 1_000_000, &page.init).expect("evaluates");
        assert!(out.value.is_unit());
        assert_eq!(store.get("n"), Some(&Value::Number(7.0)));
        assert_eq!(queue.len(), 2);
        assert!(out.steps.state >= 3, "assign + push + pop are state steps");
    }

    #[test]
    fn global_read_uses_store_then_init() {
        let p = compiled(&format!("global g : number = 5 {START}"));
        let read = Expr::new(ExprKind::Global(Arc::from("g")), Span::DUMMY);
        // EP-GLOBAL-2: not in store → initializer.
        let mut store = Store::new();
        let out = eval_pure(&p, &mut store, 1000, &read).expect("evaluates");
        assert_eq!(out.value, Value::Number(5.0));
        // EP-GLOBAL-1: store wins.
        let mut store = Store::new();
        store.set("g", Value::Number(9.0));
        let out = eval_pure(&p, &mut store, 1000, &read).expect("evaluates");
        assert_eq!(out.value, Value::Number(9.0));
    }

    #[test]
    fn local_assignment_is_rejected() {
        let p = compiled(&format!(
            "fun f(): number pure {{ let x = 1; x := 2; x }} {START}"
        ));
        let f = p.fun("f").expect("fun");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let err =
            eval_state(&p, &mut store, &mut queue, 1_000_000, &f.body).expect_err("not in kernel");
        assert_eq!(err, RuntimeError::NotInKernel("local assignment"));
    }

    #[test]
    fn state_ops_stuck_in_pure_mode() {
        let p = compiled(&format!("global g : number = 0 {START}"));
        let assign = Expr::new(
            ExprKind::GlobalAssign(
                Arc::from("g"),
                Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
            ),
            Span::DUMMY,
        );
        let mut store = Store::new();
        let err = eval_pure(&p, &mut store, 1000, &assign).expect_err("stuck");
        assert!(matches!(err, RuntimeError::EffectViolation { .. }));
    }

    #[test]
    fn divergence_exhausts_fuel() {
        let p = compiled(&format!(
            "fun spin(): () pure {{ while true {{ }} }} {START}"
        ));
        let f = p.fun("spin").expect("fun");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let err = eval_state(&p, &mut store, &mut queue, 10_000, &f.body).expect_err("diverges");
        assert_eq!(err, RuntimeError::FuelExhausted);
    }

    #[test]
    fn stepper_walks_a_reduction_sequence() {
        let p = compiled(&format!("global g : number = 40 {START}"));
        // g + (1 + 1) reduces: EP-GLOBAL-2, X-OP, X-OP.
        let expr = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::new(ExprKind::Global(Arc::from("g")), Span::DUMMY)),
                Box::new(Expr::new(
                    ExprKind::Binary(
                        BinOp::Add,
                        Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
                        Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
                    ),
                    Span::DUMMY,
                )),
            ),
            Span::DUMMY,
        );
        let mut store = Store::new();
        let mut stepper = Stepper::new_pure(&p, &mut store, 1000, expr);
        let mut rules = Vec::new();
        while !stepper.is_done() {
            rules.push(stepper.step().expect("steps").expect("applied a rule"));
        }
        assert_eq!(rules, vec![Rule::EpGlobal2, Rule::XOp, Rule::XOp]);
        assert_eq!(stepper.value(), Some(Value::Number(42.0)));
        assert_eq!(stepper.trace(), &rules[..]);
        assert_eq!(stepper.counts().total(), 3);
        // Stepping a finished expression is a no-op.
        let mut done = stepper;
        assert_eq!(done.step().expect("fine"), None);
    }

    #[test]
    fn subst_respects_shadowing() {
        let x: Name = Arc::from("x");
        let replacement = Expr::new(ExprKind::Num(9.0), Span::DUMMY);
        // (fn(x: number) -> x)  — substituting x must not touch the body.
        let lam = Expr::new(
            ExprKind::Lambda(Arc::new(LambdaExpr {
                params: Arc::from(vec![crate::expr::ParamSig::new("x", crate::Type::Number)]),
                effect: Effect::Pure,
                body: Arc::new(Expr::new(ExprKind::Local(x.clone()), Span::DUMMY)),
            })),
            Span::DUMMY,
        );
        let substituted = subst(&lam, &x, &replacement);
        assert_eq!(substituted, lam);
        // let x = 1; x — inner x shadowed by the binder.
        let let_expr = Expr::new(
            ExprKind::Let {
                name: x.clone(),
                ty: None,
                value: Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
                body: Box::new(Expr::new(ExprKind::Local(x.clone()), Span::DUMMY)),
            },
            Span::DUMMY,
        );
        let substituted = subst(&let_expr, &x, &replacement);
        assert_eq!(substituted, let_expr);
    }

    #[test]
    fn closure_roundtrips_through_value_conversion() {
        // A closure with captured environment converts to a lambda with
        // the captures substituted in.
        let p = compiled(&format!(
            "fun make(): number pure {{
                 let k = 32;
                 let f = fn(x: number) -> x + k;
                 f(10)
             }} {START}"
        ));
        let f = p.fun("make").expect("fun");
        let mut store = Store::new();
        let mut q = EventQueue::new();
        let out = eval_state(&p, &mut store, &mut q, 1_000_000, &f.body).expect("evaluates");
        assert_eq!(out.value, Value::Number(42.0));
    }
}
