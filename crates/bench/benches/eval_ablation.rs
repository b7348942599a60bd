//! E7 — ablation: the paper-faithful small-step substitution machine
//! (Fig. 8) vs the production big-step evaluator, on a pure workload
//! (recursive fib) and a render workload (the gallery page). Measures
//! the cost of semantic fidelity; correctness agreement is tested in
//! `tests/semantics_agreement.rs`.

use alive_core::event::EventQueue;
use alive_core::store::Store;
use alive_core::{bigstep, compile, smallstep};
use alive_testkit::Bench;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::from_args("eval_ablation");

    // Pure workload: fib(n).
    let fib_src = "fun fib(n: number): number pure {
            if n < 2 { n } else { fib(n - 1) + fib(n - 2) }
        }
        fun main(): number pure { fib(14) }
        page start() { render { } }";
    let p = compile(fib_src).expect("compiles");
    let body = p.fun("main").expect("fun").body.clone();
    let store = Store::new();
    bench.bench("bigstep/fib14", || {
        black_box(bigstep::run_pure(&p, &store, 0, u64::MAX, &body).expect("runs"))
    });
    bench.bench("smallstep/fib14", || {
        let mut store = Store::new();
        black_box(smallstep::eval_pure(&p, &mut store, u64::MAX, &body).expect("runs"))
    });

    // Local-lookup micro-case: a deep let-chain makes `lookup_local`
    // the hot operation. Names are interned `Arc<str>`s, so the resolver
    // compares pointers before strings and walks frames innermost-first;
    // this case tracks that fast path (regressing to string compares or
    // outermost-first scans shows up directly in its ns/iter).
    for depth in [16usize, 64] {
        let mut body = String::from("fun deep(x: number): number pure {\n");
        body.push_str("    let a0 = x + 1;\n");
        for i in 1..depth {
            body.push_str(&format!("    let a{i} = a{} + 1;\n", i - 1));
        }
        // Touch the innermost, the outermost, and the parameter: one
        // cheap lookup and two worst-case scans per call.
        body.push_str(&format!("    a{} + a0 + x\n}}\n", depth - 1));
        body.push_str("fun main(): number pure { deep(1) + deep(2) }\npage start() { render { } }");
        let p = compile(&body).expect("compiles");
        let main_body = p.fun("main").expect("fun").body.clone();
        let store = Store::new();
        bench.bench(&format!("bigstep/lookup_deep{depth}"), || {
            black_box(bigstep::run_pure(&p, &store, 0, u64::MAX, &main_body).expect("runs"))
        });
    }

    // Render workload: one full page render of the dense gallery.
    for n in [10usize, 50] {
        let p = compile(&alive_apps::gallery::gallery_src(n)).expect("compiles");
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        bigstep::transition_state(
            &p,
            &mut store,
            &mut queue,
            0,
            u64::MAX,
            vec![],
            &page.init,
            None,
            None,
        )
        .0
        .expect("init");
        let render = page.render.clone();
        bench.bench(&format!("bigstep_render/{n}"), || {
            let run = bigstep::transition_render(
                &p,
                &store,
                0,
                u64::MAX,
                vec![],
                &render,
                None,
                None,
                None,
            );
            black_box(run.0.expect("runs"))
        });
        bench.bench(&format!("smallstep_render/{n}"), || {
            let mut scratch = store.clone();
            black_box(smallstep::eval_render(&p, &mut scratch, u64::MAX, &render).expect("runs"))
        });
    }
    bench.finish();
}
