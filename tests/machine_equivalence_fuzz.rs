//! Property fuzzing of the semantics: randomly generated well-typed
//! programs evaluate identically under the faithful small-step
//! substitution machine (Fig. 8) and the production big-step evaluator
//! — values, stores, and event queues all agree. This is the
//! machine-checked version of "the evaluator refines the calculus".

use alive_testkit::{prop, prop_assert_eq, NoShrink, Rng};
use its_alive::core::event::EventQueue;
use its_alive::core::store::Store;
use its_alive::core::{bigstep, compile, smallstep};

/// Generate a well-typed numeric expression as source text, over a
/// fixed context: globals `ga`, `gb` (numbers), function
/// `inc(x: number)`, and whatever `let`-bound names the generator has
/// introduced in scope.
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
        match rng.below(6) {
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
            _ => format!("list.nth([{}], 0)", num_expr(rng, vars, depth - 1)),
        }
    }
}

/// A whole program: globals, a helper, and an init body that computes
/// with the generated expressions and assigns results to globals.
fn arb_program(rng: &mut Rng) -> String {
    let e1 = num_expr(rng, &[], 4);
    let e2 = num_expr(rng, &["x1"], 4);
    let e3 = num_expr(rng, &["x1", "x2"], 4);
    let ga = rng.below(50);
    let gb = rng.below(50);
    format!(
        "global ga : number = {ga}
         global gb : number = {gb}
         fun inc(x: number): number pure {{ x + 1 }}
         page start() {{
             init {{
                 let x1 = {e1};
                 let x2 = {e2};
                 ga := x1 + x2;
                 gb := {e3};
                 if ga > gb {{ push start(); }} else {{ pop; }}
             }}
             render {{
                 boxed {{
                     post ga ++ \"/\" ++ gb;
                     box.margin := 1;
                 }}
                 for i in 0 .. 3 {{
                     boxed {{ post i * gb; }}
                 }}
             }}
         }}"
    )
}

#[test]
fn machines_agree_on_generated_programs() {
    prop::check(
        "machines_agree_on_generated_programs",
        prop::Config::with_cases(160),
        |rng| NoShrink(arb_program(rng)),
        |src: &NoShrink<String>| {
            let program = compile(&src.0).expect("generated programs are well-typed");
            let page = program.page("start").expect("page");
            const FUEL: u64 = 5_000_000;

            // init under both machines.
            let mut ss_store = Store::new();
            let mut ss_queue = EventQueue::new();
            let ss =
                smallstep::eval_state(&program, &mut ss_store, &mut ss_queue, FUEL, &page.init)
                    .expect("small-step init");
            let mut bs_store = Store::new();
            let mut bs_queue = EventQueue::new();
            let (bs, _) = bigstep::transition_state(
                &program,
                &mut bs_store,
                &mut bs_queue,
                0,
                FUEL,
                vec![],
                &page.init,
                None,
                None,
            );
            let bs = bs.expect("big-step init");

            prop_assert_eq!(ss.value, bs, "init values agree");
            prop_assert_eq!(&ss_store, &bs_store, "stores agree");
            prop_assert_eq!(&ss_queue, &bs_queue, "queues agree");

            // render under both machines, from the shared store.
            let ss_render = smallstep::eval_render(&program, &mut ss_store, FUEL, &page.render)
                .expect("small-step render");
            let (bs_root, _) = bigstep::transition_render(
                &program,
                &bs_store,
                0,
                FUEL,
                vec![],
                &page.render,
                None,
                None,
                None,
            );
            let bs_root = bs_root.expect("big-step render");
            prop_assert_eq!(
                ss_render.root.expect("box content"),
                bs_root,
                "box trees agree"
            );
            Ok(())
        },
    );
}
