//! E6 — the UPDATE transition's fix-up cost (Fig. 12) vs store size and
//! page-stack depth, plus the end-to-end update (fix-up + re-render).

use alive_core::fixup::{fixup_pages, fixup_store, FixupReport};
use alive_core::store::Store;
use alive_core::types::Name;
use alive_core::{compile, Program, Value};
use alive_live::LiveSession;
use alive_testkit::Bench;
use std::hint::black_box;
use std::sync::Arc;

/// New code declaring only the even half of `n` globals.
fn half_program(n: usize) -> Program {
    let mut src = String::new();
    for i in (0..n).step_by(2) {
        src.push_str(&format!("global g{i} : number = {i}\n"));
    }
    src.push_str("page start() { render { } }\n");
    compile(&src).expect("compiles")
}

fn full_store(n: usize) -> Store {
    let mut store = Store::new();
    for i in 0..n {
        store.set(format!("g{i}"), Value::Number(i as f64));
    }
    store
}

fn main() {
    let mut bench = Bench::from_args("update_fixup");
    for n in [10usize, 100, 1000] {
        let program = half_program(n);
        let store = full_store(n);
        bench.bench(&format!("fixup_store/{n}"), || {
            black_box(fixup_store(&program, &store))
        });
    }
    // Page-stack fix-up depth sweep.
    let two_pages = compile(
        "page start() { render { } }
         page detail(n : number) { render { } }",
    )
    .expect("compiles");
    for depth in [4usize, 64, 512] {
        let stack: Vec<(Name, Value)> = (0..depth)
            .map(|i| {
                (
                    Arc::from("detail") as Name,
                    Value::tuple(vec![Value::Number(i as f64)]),
                )
            })
            .collect();
        bench.bench(&format!("fixup_pages/{depth}"), || {
            let mut report = FixupReport::default();
            black_box(fixup_pages(&two_pages, &stack, &mut report))
        });
    }
    // End-to-end: a whole UPDATE on a live session (fix-up dominated by
    // re-render).
    let mut session = LiveSession::new(&alive_apps::mortgage::mortgage_src(50)).expect("compiles");
    let mut flip = false;
    bench.bench("end_to_end_update", || {
        let (a, orig) = alive_bench::label_variants(session.source());
        let target = if flip { a } else { orig };
        flip = !flip;
        assert!(alive_bench::edit_applied(&mut session, &target));
    });
    bench.finish();
}
