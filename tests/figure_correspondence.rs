//! Figure-by-figure correspondence: every rule of the paper's Figures
//! 8–12 — plus the §5 direct-manipulation workflow — is exercised by
//! name. This is the reproduction-completeness checklist — if a rule is
//! renamed or dropped in a refactor, a test here fails.

use its_alive::core::event::EventQueue;
use its_alive::core::smallstep::{self, Rule};
use its_alive::core::state_typing::check_system;
use its_alive::core::store::Store;
use its_alive::core::system::{StepKind, System};
use its_alive::core::typeck::infer_expr;
use its_alive::core::{compile, Effect, Type, Value};
use std::collections::HashSet;

fn compiled(src: &str) -> its_alive::core::Program {
    compile(src).expect("compiles")
}

fn expr_of(src: &str, context: &str) -> (its_alive::core::Program, its_alive::core::Expr) {
    // Wrap the expression in a pure function body for lowering.
    let full =
        format!("{context}\nfun probe__() : number pure {{ 0 }}\npage start() {{ render {{ }} }}");
    let with_expr = full.replace(
        "fun probe__() : number pure { 0 }",
        &format!("fun probe__() : number pure {{ let it = {src}; 0 }}"),
    );
    let p = compile(&with_expr).unwrap_or_else(|d| panic!("probe compiles: {d}"));
    let f = p.fun("probe__").expect("probe");
    // Extract the let's bound value.
    let its_alive::core::ExprKind::Let { value, .. } = &f.body.kind else {
        panic!("probe body is a let");
    };
    let e = (**value).clone();
    (p, e)
}

// ---------------------------------------------------------------------
// Figure 8 — evaluation rules, witnessed by the traced machine
// ---------------------------------------------------------------------

#[test]
fn figure8_every_kernel_rule_fires() {
    let p = compiled(
        "global g : number = 1
         fun id(x: number): number pure { x }
         page start() {
             init {
                 g := id((g, 2).1) + (fn(y: number) -> y)(3);
                 push start();
                 pop;
             }
             render {
                 boxed {
                     post g;
                     box.margin := 1;
                 }
             }
         }",
    );
    let page = p.page("start").expect("page");
    let mut store = Store::new();
    let mut queue = EventQueue::new();
    let init = smallstep::eval_state_traced(&p, &mut store, &mut queue, 100_000, &page.init)
        .expect("runs");
    let render =
        smallstep::eval_render_traced(&p, &mut store, 100_000, &page.render).expect("runs");
    let rules: HashSet<Rule> = init
        .trace
        .iter()
        .flatten()
        .chain(render.trace.iter().flatten())
        .copied()
        .collect();
    for expected in [
        Rule::EpFun,     // EP-FUN: unfolding `id`
        Rule::EpApp,     // EP-APP: β for `id` and the lambda
        Rule::EpTuple,   // EP-TUPLE: (g, 2).1
        Rule::EpGlobal2, // EP-GLOBAL-2: first read of g (not in store)
        Rule::EpGlobal1, // EP-GLOBAL-1: render reads g from the store
        Rule::EsAssign,  // ES-ASSIGN
        Rule::EsPush,    // ES-PUSH
        Rule::EsPop,     // ES-POP
        Rule::ErBoxed,   // ER-BOXED
        Rule::ErPost,    // ER-POST
        Rule::ErAttr,    // ER-ATTR
    ] {
        assert!(
            rules.contains(&expected),
            "rule {expected} never fired: {rules:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Figure 9 — system transitions
// ---------------------------------------------------------------------

#[test]
fn figure9_startup_push_render_tap_thunk_back_pop() {
    let mut sys = System::new(compiled(
        "global n : number = 0
         page start() {
             render { boxed { post n; on tap { n := n + 1; } } }
         }",
    ));
    // STARTUP, PUSH, RENDER.
    let kinds = sys.run_to_stable().expect("starts");
    assert_eq!(
        kinds,
        vec![StepKind::Startup, StepKind::Push, StepKind::Render]
    );
    // TAP enqueues [exec v] and invalidates D (premise: valid display).
    sys.tap(&[0]).expect("tap");
    assert!(!sys.display().is_valid());
    // THUNK then RENDER.
    let kinds = sys.run_to_stable().expect("handles");
    assert_eq!(kinds, vec![StepKind::Thunk, StepKind::Render]);
    // BACK enqueues [pop]; POP empties the stack; STARTUP re-enters.
    sys.back();
    let kinds = sys.run_to_stable().expect("pops");
    assert_eq!(
        kinds,
        vec![
            StepKind::Pop,
            StepKind::Startup,
            StepKind::Push,
            StepKind::Render
        ]
    );
}

#[test]
fn figure9_pop_on_empty_stack_is_a_no_op() {
    // (POP) allows P = P' = ε.
    let mut sys = System::new(compiled("page start() { render { } }"));
    sys.back(); // [pop] with an empty-but-for-startup situation
    sys.run_to_stable().expect("survives");
    assert!(sys.is_stable());
}

#[test]
fn figure9_update_requires_a_drained_queue() {
    // The paper's (UPDATE) premise is stability; we relax it to "no
    // events in flight" so a degraded (faulted) machine can still take
    // the fixing edit — but an undrained queue still blocks the update.
    let p1 = compiled("page start() { render { } }");
    let p2 = compiled("page start() { render { boxed { } } }");
    let mut sys = System::new(p1);
    sys.step().expect("startup enqueues push");
    assert!(sys.update(p2.clone()).is_err(), "push in flight: blocked");
    sys.run_to_stable().expect("starts");
    assert!(sys.update(p2).is_ok(), "drained: update enabled");
}

// ---------------------------------------------------------------------
// Figure 10 — expression typing
// ---------------------------------------------------------------------

#[test]
fn figure10_t_int_string_tuple_proj() {
    let (p, e) = expr_of("((1, \"a\").1)", "");
    assert_eq!(infer_expr(&p, Effect::Pure, &e), Ok(Type::Number)); // T-INT + T-TUPLE + T-PROJ
    let (p, e) = expr_of("(\"s\", 2).1", "");
    assert_eq!(infer_expr(&p, Effect::Pure, &e), Ok(Type::String)); // T-STRING
}

#[test]
fn figure10_t_lam_and_t_app() {
    let (p, e) = expr_of("(fn(x: number) -> x + 1)(41)", "");
    assert_eq!(infer_expr(&p, Effect::Pure, &e), Ok(Type::Number));
}

#[test]
fn figure10_t_fun_and_t_global() {
    let ctx = "global g : number = 7\nfun twice(x: number): number pure { x * 2 }";
    let (p, e) = expr_of("twice(g)", ctx);
    assert_eq!(infer_expr(&p, Effect::Pure, &e), Ok(Type::Number));
}

#[test]
fn figure10_t_sub_pure_functions_usable_at_any_effect() {
    // A pure helper called from state code AND from render code.
    compiled(
        "global g : number = 0
         fun pure_helper(x: number): number pure { x + 1 }
         page start() {
             init { g := pure_helper(1); }
             render { post pure_helper(g); }
         }",
    );
}

#[test]
fn figure10_t_assign_push_pop_require_state_mode() {
    for bad in [
        "global g : number = 0\npage start() { render { g := 1; } }",
        "page start() { render { pop; } }",
        "page start() { render { push start(); } }",
        // Pure code cannot assign either (T-ASSIGN is an s-judgment).
        "global g : number = 0\nfun f(): () pure { g := 1; }\npage start() { render { } }",
    ] {
        assert!(compile(bad).is_err(), "must be rejected: {bad}");
    }
}

#[test]
fn figure10_t_boxed_post_attr_require_render_mode() {
    for bad in [
        "page start() { init { boxed { } } render { } }",
        "page start() { init { post 1; } render { } }",
        "page start() { init { box.margin := 1; } render { } }",
        "fun f(): () state { post 1; }\npage start() { render { } }",
    ] {
        assert!(compile(bad).is_err(), "must be rejected: {bad}");
    }
}

#[test]
fn figure10_t_attr_checks_gamma_a() {
    // Γa(margin) = number; Γa(ontap) = () →s ().
    assert!(compile("page start() { render { boxed { box.margin := true; } } }").is_err());
    assert!(
        compile("page start() { render { boxed { box.ontap := fn() state { pop; }; } } }").is_ok()
    );
    assert!(compile("page start() { render { boxed { box.ontap := 5; } } }").is_err());
}

// ---------------------------------------------------------------------
// Figure 11 — program and state typing
// ---------------------------------------------------------------------

#[test]
fn figure11_t_sys_requires_start_page() {
    assert!(compile("global g : number = 0").is_err());
}

#[test]
fn figure11_t_c_global_requires_arrow_free() {
    assert!(compile(
        "global h : fn(number) -> number = fn(x: number) -> x
         page start() { render { } }"
    )
    .is_err());
}

#[test]
fn figure11_t_c_page_requires_arrow_free_arguments() {
    assert!(compile(
        "page start() { render { } }
         page bad(callback : fn() state -> ()) { render { } }"
    )
    .is_err());
}

#[test]
fn figure11_t_c_fun_checks_declared_type() {
    assert!(compile(
        "fun lies(): number pure { \"not a number\" }
         page start() { render { } }"
    )
    .is_err());
}

#[test]
fn figure11_duplicate_definitions_rejected() {
    assert!(compile(
        "global x : number = 0
         fun x(): number pure { 1 }
         page start() { render { } }"
    )
    .is_err());
}

#[test]
fn figure11_state_typing_accepts_reachable_states_and_flags_corruption() {
    let mut sys = System::new(compiled(
        "global n : number = 0
         page start() { render { boxed { post n; on tap { n := n + 1; } } } }",
    ));
    sys.run_to_stable().expect("starts");
    sys.tap(&[0]).expect("tap");
    // Mid-flight state (queue non-empty, display ⊥) is also well-typed:
    // T-D-INV and T-Q-EXEC.
    assert!(check_system(&sys).is_empty());
    sys.run_to_stable().expect("settles");
    assert!(check_system(&sys).is_empty());
    // Corrupt S: T-S-ENTRY must flag it.
    sys.debug_store_mut().set("n", Value::str("not a number"));
    assert!(check_system(&sys).iter().any(|e| e.component == "S"));
}

// ---------------------------------------------------------------------
// Figure 12 — fix-up
// ---------------------------------------------------------------------

#[test]
fn figure12_s_okay_s_skip_p_okay_p_skip() {
    use its_alive::core::fixup::{fixup_pages, fixup_store, DropReason, FixupReport};
    let new_code = compiled(
        "global kept : number = 0
         global retyped : string = \"s\"
         page start() { render { } }",
    );
    let mut store = Store::new();
    store.set("kept", Value::Number(5.0)); // S-OKAY
    store.set("retyped", Value::Number(9.0)); // S-SKIP (type changed)
    store.set("gone", Value::Number(1.0)); // S-SKIP (g ∉ C')
    let (fixed, report) = fixup_store(&new_code, &store);
    assert_eq!(fixed.len(), 1);
    assert!(fixed.contains("kept"));
    assert_eq!(
        report.dropped_globals,
        vec![
            (std::sync::Arc::from("gone"), DropReason::NoLongerDefined),
            (std::sync::Arc::from("retyped"), DropReason::TypeChanged),
        ]
    );

    let stack = vec![
        (
            std::sync::Arc::from("start") as its_alive::core::Name,
            Value::unit(),
        ), // P-OKAY
        (
            std::sync::Arc::from("ghost") as its_alive::core::Name,
            Value::unit(),
        ), // P-SKIP
    ];
    let mut report = FixupReport::default();
    let kept = fixup_pages(&new_code, &stack, &mut report);
    assert_eq!(kept.len(), 1);
    assert_eq!(report.dropped_pages.len(), 1);
}

/// Figure 12 at fleet scale: the paper's UPDATE transition (new code,
/// fixed-up state, same running session) is exactly what a committed
/// edit transaction fans out to every subscribed session — compiled
/// once by the host, applied per session with the same S-OKAY/S-SKIP
/// fix-up semantics the solo rule test above pins. Globals whose type
/// survives the update keep their values across the fleet UPDATE, just
/// as they do across a solo UPDATE.
#[test]
fn figure12_update_fans_out_to_the_fleet_as_an_edit_transaction() {
    use alive_serve::{HostConfig, SessionHost};
    use its_alive::live::{SessionCommand, TxPhase};
    use its_alive::syntax::{Span, TextEdit};

    const SRC: &str = r#"
global kept : number = 0
page start() {
    init { kept := kept + 1; }
    render { boxed { post "kept = " ++ kept; on tap { kept := kept + 1; } } }
}
"#;
    let host = SessionHost::new(HostConfig::with_workers(2));
    let ids: Vec<_> = (0..4)
        .map(|_| host.create_session(SRC).expect("compiles"))
        .collect();
    // Per-session state the fix-up must carry through: S-OKAY on
    // `kept` means each session keeps its own tap count.
    for (i, &id) in ids.iter().enumerate() {
        for _ in 0..i {
            host.apply(id, SessionCommand::TapPath(vec![0]))
                .expect("taps");
        }
    }

    let tx = host.tx_open(ids[0]).expect("opens");
    let needle = "kept = ";
    let at = SRC.find(needle).expect("present") as u32;
    host.tx_edit(
        tx,
        &[TextEdit::replace(
            Span::new(at, at + needle.len() as u32),
            "still ",
        )],
    )
    .expect("stages");
    assert_eq!(
        host.tx_commit(tx).expect("commits"),
        TxPhase::Promoted {
            updated: 4,
            skipped: 0
        }
    );
    assert_eq!(host.programs_compiled(), 2, "one compile for the fleet");
    for (i, &id) in ids.iter().enumerate() {
        let frame = host.latest_frame(id).expect("live").expect("settled");
        assert_eq!(
            frame.view,
            format!("still {}\n", 1 + i),
            "session {i}: UPDATE ran with S-OKAY on `kept`"
        );
    }
    host.shutdown();
}

// ---------------------------------------------------------------------
// §5 — direct manipulation: changes are enshrined in code
// ---------------------------------------------------------------------

/// The paper's direct-manipulation loop, end to end: a screen point
/// resolves through hit-testing to a rendered leaf, the leaf's
/// provenance inverts the desired value into ranked source edits, and
/// applying one "enshrines the change in code" — the program text
/// itself is rewritten, so the next render (and every later run)
/// produces the manipulated value.
#[test]
fn section5_direct_manipulation_enshrines_changes_in_code() {
    use its_alive::live::{LiveSession, SessionCommand, SessionEffect};
    use its_alive::ui::{hit_test_leaf, layout, Point};

    let mut session = LiveSession::new(
        r#"global price : number = 40
page start() {
    init { }
    render { boxed { post "total: " ++ (price + 2); } }
}"#,
    )
    .expect("starts");
    assert_eq!(session.live_view(), "total: 42\n");

    // Select the rendered cell by screen position, as a pointer would.
    let tree = session.display_tree().expect("renders");
    let (path, ordinal) = hit_test_leaf(&layout(&tree), Point::new(0, 0)).expect("hit");

    // Ask for the displayed value to become "total: 45": the offer is
    // ranked, best (most local) candidate first.
    let effects = session.apply(SessionCommand::ManipulateAt {
        path,
        leaf: ordinal,
        value: "total: 45".to_string(),
    });
    let [SessionEffect::Repairs(repairs)] = effects.as_slice() else {
        panic!("invertible: {effects:?}");
    };
    assert!(
        repairs.windows(2).all(|p| p[0].rank <= p[1].rank),
        "ranked best-first: {repairs:?}"
    );
    // The best candidate inverts through the concatenation and the
    // addition down to the `2` literal: "total: 45" ⇒ price + 2 = 45
    // ⇒ 2 becomes 5.
    assert!(
        repairs[0].description.contains("change `2` to `5`"),
        "most local inversion reaches the literal: {repairs:?}"
    );
    let effects = session.apply(SessionCommand::ApplyRepair(0));
    assert!(
        matches!(effects[0], SessionEffect::EditApplied(_)),
        "applies: {effects:?}"
    );

    // Enshrined: the *code* changed, and the view re-renders from it.
    assert_eq!(session.live_view(), "total: 45\n");
    assert!(
        session.source().contains("price + 5"),
        "the literal was rewritten in source: {}",
        session.source()
    );
}

// ---------------------------------------------------------------------
// §4.2 — progress: unstable states always step
// ---------------------------------------------------------------------

#[test]
fn progress_unstable_states_always_step() {
    let mut sys = System::new(compiled(
        "page start() {
             init { push second(); }
             render { }
         }
         page second() {
             render { boxed { on tap { pop; } } }
         }",
    ));
    // From the initial (unstable) state, step() never returns Stable
    // until the state actually is stable.
    let mut steps = 0;
    loop {
        let stable_before = sys.is_stable();
        let kind = sys.step().expect("steps");
        if kind == StepKind::Stable {
            assert!(stable_before, "Stable only in stable states");
            break;
        }
        assert!(!stable_before, "unstable states make progress");
        steps += 1;
        assert!(steps < 100, "terminates");
    }
}
