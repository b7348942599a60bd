//! Three-way differential testing of the bytecode VM (ROADMAP item 3).
//!
//! The VM is an optimization of the bigstep tree walker, which in turn
//! refines the small-step substitution calculus. This suite holds all
//! three together on randomly generated well-typed programs:
//!
//! 1. **Bodies** — page init/render bodies evaluate to the same values,
//!    stores, queues, and box trees under smallstep, bigstep, and the
//!    VM, with identical prim-call accounting.
//! 2. **Systems** — a 256-step random walk (taps, backs, cascades)
//!    drives one `System` per engine; after every step the stores,
//!    queues, page stacks, view state, and rendered frames must be
//!    byte-identical, and the VM must never have silently fallen back.
//! 3. **Faults** — the same walk under a deterministically injected
//!    prim-fault schedule: both engines fault on the same calls and
//!    roll back to byte-identical checkpoints.
//!
//! Every case is seed-replayable: a failure prints the seed and
//! `ALIVE_TESTKIT_SEED=<seed>` reruns it, fault schedule included.

use alive_core::event::EventQueue;
use alive_core::prim::Prim;
use alive_core::store::Store;
use alive_core::system::{EvalEngine, System, SystemConfig};
use alive_core::widget::WidgetStore;
use alive_core::{bigstep, compile, smallstep, vm};
use alive_testkit::{prop, prop_assert, prop_assert_eq, FaultPlan, NoShrink, Rng};

const FUEL: u64 = 5_000_000;

// ---------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------

/// A well-typed numeric expression over globals `ga`/`gb`, the pure
/// helper `inc`, and whatever `let`-bound names are in scope.
fn num_expr(rng: &mut Rng, vars: &[&str], depth: usize) -> String {
    if depth == 0 || rng.chance(2, 5) {
        match rng.below(4) {
            0 => rng.below(100).to_string(),
            1 => "ga".to_string(),
            2 => "gb".to_string(),
            _ => {
                let mut pool: Vec<&str> = vars.to_vec();
                pool.push("ga");
                rng.choose(&pool).to_string()
            }
        }
    } else {
        match rng.below(8) {
            0 => {
                let op = *rng.choose(&["+", "-", "*"]);
                format!(
                    "({} {op} {})",
                    num_expr(rng, vars, depth - 1),
                    num_expr(rng, vars, depth - 1)
                )
            }
            1 => format!("inc({})", num_expr(rng, vars, depth - 1)),
            2 => format!("math.abs({})", num_expr(rng, vars, depth - 1)),
            3 => format!(
                "(if ({}) > 10 {{ {} }} else {{ {} }})",
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1)
            ),
            4 => format!(
                "({}, {}).2",
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1)
            ),
            5 => format!("list.nth([{}], 0)", num_expr(rng, vars, depth - 1)),
            6 => format!(
                "(fn(k: number) -> k + {})({})",
                rng.below(10),
                num_expr(rng, vars, depth - 1)
            ),
            _ => format!(
                "(fn(k: number, j: number) -> k * j)({}, {})",
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1)
            ),
        }
    }
}

/// A random sequence of init statements: lets, global writes, bounded
/// while loops, foreach over a literal list, lambda binding and calls.
/// With `kernel` set, stays inside the small-step kernel (no local
/// assignment, so `while` counts on a global instead).
fn init_stmts(rng: &mut Rng, kernel: bool) -> String {
    let mut out = String::new();
    let e1 = num_expr(rng, &[], 3);
    let e2 = num_expr(rng, &["x1"], 3);
    out.push_str(&format!("let x1 = {e1};\nlet x2 = {e2};\n"));
    for _ in 0..rng.below(3) {
        match rng.below(5) {
            0 => out.push_str(&format!("ga := {};\n", num_expr(rng, &["x1", "x2"], 3))),
            1 => {
                if kernel {
                    out.push_str(&format!(
                        "gb := 0;\nwhile gb < {} {{ gb := gb + inc(1); }}\n",
                        rng.below(6)
                    ));
                } else {
                    out.push_str(&format!(
                        "let i = 0;\nwhile i < {} {{ gb := gb + inc(i); i := i + 1; }}\n",
                        rng.below(6)
                    ));
                }
            }
            2 => out.push_str(&format!(
                "foreach v in [{}, {}, {}] {{ ga := ga + v; }}\n",
                num_expr(rng, &["x1"], 2),
                num_expr(rng, &["x2"], 2),
                rng.below(20)
            )),
            3 => out.push_str(&format!(
                "let f = fn(k: number) -> k + {};\ngb := f({});\n",
                rng.below(9),
                num_expr(rng, &["x1", "x2"], 2)
            )),
            _ => out.push_str(&format!(
                "for j in 0 .. {} {{ ga := ga + j; }}\n",
                rng.below(5)
            )),
        }
    }
    out.push_str("ga := x1 + x2;\n");
    out
}

/// Render statements without `remember` or handlers — the subset the
/// small-step machine also evaluates, for the three-way body check.
fn render_stmts_plain(rng: &mut Rng) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "boxed {{ post \"g \" ++ ga ++ \"/\" ++ gb; box.margin := {}; }}\n",
        rng.below(4)
    ));
    out.push_str(&format!(
        "for i in 0 .. {} {{ boxed {{ post i * gb + {}; }} }}\n",
        rng.below(4) + 1,
        num_expr(rng, &[], 2)
    ));
    if rng.chance(1, 2) {
        out.push_str(&format!(
            "foreach s in [\"a\", \"b\"] {{ boxed {{ post s ++ {}; }} }}\n",
            num_expr(rng, &[], 2)
        ));
    }
    out
}

/// A whole program for the body-level three-way check (smallstep does
/// not evaluate `remember` or handler closures, so they are left out).
fn arb_plain_program(rng: &mut Rng) -> String {
    let ga = rng.below(50);
    let gb = rng.below(50);
    let init = init_stmts(rng, true);
    let render = render_stmts_plain(rng);
    format!(
        "global ga : number = {ga}
         global gb : number = {gb}
         fun inc(x: number): number pure {{ x + 1 }}
         page start() {{
             init {{ {init} }}
             render {{ {render} }}
         }}"
    )
}

/// A whole program for the system-level walk: the plain subset plus
/// `remember`, tap handlers (global writes, prim calls, push/pop), and
/// a parameterized second page.
fn arb_walk_program(rng: &mut Rng) -> String {
    let ga = rng.below(50);
    let gb = rng.below(50);
    let init = init_stmts(rng, false);
    let render = render_stmts_plain(rng);
    let hits0 = rng.below(5);
    let h1 = num_expr(rng, &[], 2);
    let h2 = num_expr(rng, &[], 2);
    format!(
        "global ga : number = {ga}
         global gb : number = {gb}
         fun inc(x: number): number pure {{ x + 1 }}
         page start() {{
             init {{ {init} }}
             render {{
                 {render}
                 boxed {{
                     remember hits : number = {hits0};
                     post \"hits \" ++ hits;
                     on tap {{ ga := ga + math.abs({h1}); }}
                 }}
                 boxed {{
                     post \"go\";
                     on tap {{ push detail(gb + math.abs({h2})); }}
                 }}
             }}
         }}
         page detail(n : number) {{
             render {{
                 boxed {{ post \"detail \" ++ n; on tap {{ pop; }} }}
                 boxed {{ post \"bump\"; on tap {{ gb := gb + inc(n); }} }}
             }}
         }}"
    )
}

// ---------------------------------------------------------------------
// 1. Body-level three-way agreement
// ---------------------------------------------------------------------

#[test]
fn vm_bigstep_smallstep_agree_on_generated_bodies() {
    prop::check(
        "vm_bigstep_smallstep_agree_on_generated_bodies",
        prop::Config::with_cases(96),
        |rng| NoShrink(arb_plain_program(rng)),
        |src: &NoShrink<String>| {
            let program = compile(&src.0).expect("generated programs are well-typed");
            let page = program.page("start").expect("page").clone();
            let vmp = program
                .vm()
                .expect("generated programs compile to bytecode");
            let mut scratch = vm::Scratch::new();

            // init under all three machines.
            let mut ss_store = Store::new();
            let mut ss_queue = EventQueue::new();
            let ss =
                smallstep::eval_state(&program, &mut ss_store, &mut ss_queue, FUEL, &page.init)
                    .expect("small-step init");
            let mut bs_store = Store::new();
            let mut bs_queue = EventQueue::new();
            let (bs, bs_cost) = bigstep::run_state(
                &program,
                &mut bs_store,
                &mut bs_queue,
                0,
                FUEL,
                vec![],
                &page.init,
            )
            .expect("big-step init");
            let mut vm_store = Store::new();
            let mut vm_queue = EventQueue::new();
            let mut vm_widgets = WidgetStore::new();
            let run = vm::transition_page_init(
                &vmp,
                &mut scratch,
                &mut vm_store,
                &mut vm_queue,
                0,
                FUEL,
                "start",
                &[],
                Some(&mut vm_widgets),
                None,
            )
            .expect("start page is compiled");
            let vm_value = run.result.expect("vm init");

            prop_assert_eq!(&ss.value, &bs, "smallstep/bigstep init values");
            prop_assert_eq!(&vm_value, &bs, "vm/bigstep init values");
            prop_assert_eq!(&ss_store, &bs_store, "smallstep/bigstep stores");
            prop_assert_eq!(&vm_store, &bs_store, "vm/bigstep stores");
            prop_assert_eq!(&ss_queue, &bs_queue, "smallstep/bigstep queues");
            prop_assert_eq!(&vm_queue, &bs_queue, "vm/bigstep queues");
            // Prim accounting must agree exactly — fault injection
            // counts prim calls, so this is the fault-parity invariant.
            prop_assert_eq!(run.cost.prim, bs_cost.prim, "vm/bigstep prim accounting");
            prop_assert!(run.stats.instructions > 0, "vm actually executed");

            // render under all three, from the agreed store.
            let ss_render = smallstep::eval_render(&program, &mut ss_store, FUEL, &page.render)
                .expect("small-step render");
            let bs_render = bigstep::run_render(&program, &bs_store, 0, FUEL, vec![], &page.render)
                .expect("big-step render");
            let render_run = vm::transition_page_render(
                &vmp,
                &mut scratch,
                &vm_store,
                0,
                FUEL,
                "start",
                &[],
                None,
                Some(&mut vm_widgets),
                None,
            )
            .expect("start page is compiled");
            let vm_root = render_run.result.expect("vm render");

            let ss_root = ss_render.root.expect("box content");
            prop_assert_eq!(&ss_root, &bs_render.root, "smallstep/bigstep box trees");
            prop_assert_eq!(&vm_root, &bs_render.root, "vm/bigstep box trees");
            // Byte-identity, not just structural equality.
            prop_assert_eq!(
                format!("{vm_root:?}"),
                format!("{:?}", bs_render.root),
                "vm/bigstep frame bytes"
            );
            prop_assert_eq!(
                render_run.cost.boxes_created,
                bs_render.cost.boxes_created,
                "vm/bigstep boxes created"
            );
            prop_assert_eq!(
                render_run.cost.posts,
                bs_render.cost.posts,
                "vm/bigstep posts"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 2. System-level 256-step walk
// ---------------------------------------------------------------------

/// Byte-level comparison key: generated programs are free to overflow
/// to `inf`/`NaN` over a long walk, and `f64`'s `PartialEq` would call
/// two byte-identical NaN frames unequal — so all walk comparisons go
/// through the `Debug` rendering, which is the byte-identity the VM
/// contract promises anyway.
fn dbg<T: std::fmt::Debug>(t: T) -> String {
    format!("{t:?}")
}

/// A fault's identity minus its step accounting: `fuel_spent` is
/// `cost.steps`, which the parity contract deliberately excludes (the
/// VM ticks per instruction, the walker per AST node). Everything else
/// — kind, page, error, version — must agree exactly.
fn dbg_fault(f: &alive_core::fault::Fault) -> String {
    format!(
        "Fault {{ kind: {:?}, page: {:?}, error: {:?}, version: {:?} }}",
        f.kind, f.page, f.error, f.version
    )
}

/// Comparison key for a fallible outcome, fault steps normalized out.
fn dbg_outcome<T: std::fmt::Debug>(r: &Result<T, alive_core::fault::Fault>) -> String {
    match r {
        Ok(v) => format!("Ok({v:?})"),
        Err(f) => format!("Err({})", dbg_fault(f)),
    }
}

/// Assert every observable piece of state agrees between the VM-engine
/// and bigstep-engine systems.
fn assert_systems_agree(vm_sys: &System, bs_sys: &System, step: usize) -> Result<(), String> {
    prop_assert_eq!(
        dbg(vm_sys.store()),
        dbg(bs_sys.store()),
        "stores at step {}",
        step
    );
    prop_assert_eq!(
        dbg(vm_sys.queue()),
        dbg(bs_sys.queue()),
        "queues at step {}",
        step
    );
    prop_assert_eq!(
        dbg(vm_sys.page_stack()),
        dbg(bs_sys.page_stack()),
        "page stacks at step {}",
        step
    );
    prop_assert_eq!(
        dbg(vm_sys.widgets()),
        dbg(bs_sys.widgets()),
        "view state at step {}",
        step
    );
    Ok(())
}

/// Drive both systems through one action + cascade + render, asserting
/// agreement at every point. `step` labels failures; `width` is the tap
/// fan (how many top-level boxes the random taps may address — misses
/// included on purpose, both engines must agree on the error too).
fn walk_step_wide(
    rng: &mut Rng,
    vm_sys: &mut System,
    bs_sys: &mut System,
    step: usize,
    width: usize,
) -> Result<(), String> {
    match rng.below(6) {
        // Tap a random (possibly nonexistent) box: both engines must
        // agree on the error too.
        0..=3 => {
            let path = [rng.below(width)];
            let a = vm_sys.tap(&path);
            let b = bs_sys.tap(&path);
            prop_assert_eq!(a, b, "tap outcome at step {}", step);
        }
        4 => {
            vm_sys.back();
            bs_sys.back();
        }
        _ => {} // plain re-render below
    }
    let a = vm_sys.run_to_stable();
    let b = bs_sys.run_to_stable();
    prop_assert_eq!(
        dbg_outcome(&a),
        dbg_outcome(&b),
        "cascade outcome at step {}",
        step
    );
    assert_systems_agree(vm_sys, bs_sys, step)?;

    let vm_frame = vm_sys.rendered().cloned();
    let bs_frame = bs_sys.rendered().cloned();
    prop_assert_eq!(
        dbg_outcome(&vm_frame),
        dbg_outcome(&bs_frame),
        "frame bytes at step {}",
        step
    );
    assert_systems_agree(vm_sys, bs_sys, step)
}

/// The generated-program walk: a six-box tap fan.
fn walk_step(
    rng: &mut Rng,
    vm_sys: &mut System,
    bs_sys: &mut System,
    step: usize,
) -> Result<(), String> {
    walk_step_wide(rng, vm_sys, bs_sys, step, 6)
}

#[test]
fn vm_system_walk_matches_bigstep_system() {
    prop::check(
        "vm_system_walk_matches_bigstep_system",
        prop::Config::with_cases(24),
        |rng| NoShrink((arb_walk_program(rng), rng.fork())),
        |case: &NoShrink<(String, Rng)>| {
            let (src, walk_rng) = &case.0;
            let mut rng = walk_rng.clone();
            let program = compile(src).expect("generated programs are well-typed");
            let config = SystemConfig {
                fuel: 200_000,
                max_transitions: 500,
                ..SystemConfig::default()
            };
            let mut vm_sys = System::with_config(program.clone(), config);
            let mut bs_sys = System::with_config(
                program,
                SystemConfig {
                    engine: EvalEngine::Bigstep,
                    ..config
                },
            );
            for step in 0..256 {
                walk_step(&mut rng, &mut vm_sys, &mut bs_sys, step)?;
            }
            let stats = vm_sys.vm_stats();
            prop_assert!(stats.runs > 0, "the VM actually ran: {:?}", stats);
            let bs_stats = bs_sys.vm_stats();
            prop_assert_eq!(bs_stats.runs, 0, "bigstep engine never ran the VM");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 3. Fault injection: identical faults, byte-identical rollbacks
// ---------------------------------------------------------------------

#[test]
fn injected_faults_roll_back_identically_on_both_engines() {
    prop::check(
        "injected_faults_roll_back_identically_on_both_engines",
        prop::Config::with_cases(24),
        |rng| {
            // The fault schedule is part of the case, so a replayed seed
            // reproduces the injections exactly. Prim-call schedules
            // only: fuel throttling is engine-visible (the VM ticks per
            // instruction, the walker per AST node), so it is exactly
            // the kind of fault the engines may *not* agree on.
            let fail_at: Vec<u64> = (0..3).map(|_| rng.below(40) as u64 + 1).collect();
            NoShrink((arb_walk_program(rng), rng.fork(), fail_at))
        },
        |case: &NoShrink<(String, Rng, Vec<u64>)>| {
            let (src, walk_rng, fail_at) = &case.0;
            let mut rng = walk_rng.clone();
            let program = compile(src).expect("generated programs are well-typed");
            let config = SystemConfig {
                fuel: 200_000,
                max_transitions: 500,
                ..SystemConfig::default()
            };
            let mut vm_sys = System::with_config(program.clone(), config);
            let mut bs_sys = System::with_config(
                program,
                SystemConfig {
                    engine: EvalEngine::Bigstep,
                    ..config
                },
            );
            // One plan per system (each advances its own call counter),
            // built from the same schedule.
            let make_plan = || {
                let mut plan = FaultPlan::new();
                for &n in fail_at {
                    plan = plan.fail_prim(Prim::MathAbs, n);
                }
                plan.shared()
            };
            let vm_plan = make_plan();
            let bs_plan = make_plan();
            vm_sys.set_fault_injector(vm_plan.clone());
            bs_sys.set_fault_injector(bs_plan.clone());

            for step in 0..64 {
                walk_step(&mut rng, &mut vm_sys, &mut bs_sys, step)?;
            }

            // Both engines saw the identical prim-call sequence, so the
            // schedules fired identically.
            let (vp, bp) = (
                lock_plan(&vm_plan).injected(),
                lock_plan(&bs_plan).injected(),
            );
            prop_assert_eq!(vp, bp, "identical injection counts");
            let (vc, bc) = (
                lock_plan(&vm_plan).prim_calls(),
                lock_plan(&bs_plan).prim_calls(),
            );
            prop_assert_eq!(vc, bc, "identical prim-call counts");
            prop_assert!(vm_sys.vm_stats().runs > 0, "the VM actually ran");

            // Checkpoint byte-identity: the persisted snapshots of both
            // systems serialize to the same bytes after all rollbacks.
            let vm_snap = vm_sys.snapshot().expect("snapshots");
            let bs_snap = bs_sys.snapshot().expect("snapshots");
            prop_assert_eq!(vm_snap, bs_snap, "post-rollback snapshot bytes");
            Ok(())
        },
    );
}

fn lock_plan(
    plan: &std::sync::Arc<std::sync::Mutex<FaultPlan>>,
) -> std::sync::MutexGuard<'_, FaultPlan> {
    plan.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// 4. Corpus: every scenario program, walked differentially
// ---------------------------------------------------------------------

/// Every program of the scenario corpus — 5 kinds × 4 sizes — drives a
/// VM-engine and a bigstep-engine system through the same seeded walk;
/// stores, queues, stacks, view state, and frames must stay
/// byte-identical, and the example probes must agree value-for-value on
/// the walked store. Seed-replayable per program: a failure prints the
/// seed and `ALIVE_TESTKIT_SEED=<seed>` reruns the identical walk.
#[test]
fn vm_system_walk_matches_bigstep_on_every_corpus_program() {
    for entry in alive_corpus::corpus() {
        let name = entry.spec.name();
        // Tap fan sized to the program: header + rows + trailing
        // buttons, plus deliberate misses past the end.
        let width = entry.spec.size.rows() + 4;
        let program = compile(&entry.source)
            .unwrap_or_else(|e| panic!("{name}: corpus programs are well-typed: {e}"));
        prop::check(
            &format!("corpus_walk_{name}"),
            prop::Config::with_cases(2),
            |rng| NoShrink(rng.fork()),
            |case: &NoShrink<Rng>| {
                let mut rng = case.0.clone();
                let config = SystemConfig {
                    fuel: 2_000_000,
                    max_transitions: 500,
                    ..SystemConfig::default()
                };
                let mut vm_sys = System::with_config(program.clone(), config);
                let mut bs_sys = System::with_config(
                    program.clone(),
                    SystemConfig {
                        engine: EvalEngine::Bigstep,
                        ..config
                    },
                );
                for step in 0..48 {
                    walk_step_wide(&mut rng, &mut vm_sys, &mut bs_sys, step, width)?;
                }
                prop_assert!(vm_sys.vm_stats().runs > 0, "the VM actually ran");

                // Example probes: byte-identical VM vs bigstep values
                // against the walked (not initial) store.
                let vmp = program.vm().expect("corpus programs compile to bytecode");
                let mut scratch = vm::Scratch::new();
                for (index, def) in program.examples().iter().enumerate() {
                    for (expect, expr) in [(false, Some(&def.body)), (true, def.expect.as_ref())] {
                        let Some(expr) = expr else { continue };
                        let vm_run = vm::run_example(
                            &vmp,
                            &mut scratch,
                            vm_sys.store(),
                            vm_sys.version(),
                            FUEL,
                            index,
                            expect,
                        )
                        .expect("example slot exists");
                        let bs = bigstep::run_pure(
                            &program,
                            bs_sys.store(),
                            bs_sys.version(),
                            FUEL,
                            expr,
                        )
                        .map(|(v, _)| v);
                        prop_assert_eq!(
                            dbg(&vm_run.result),
                            dbg(&bs),
                            "probe `{}` (expect={}) diverged",
                            def.name,
                            expect
                        );
                    }
                }
                Ok(())
            },
        );
    }
}
