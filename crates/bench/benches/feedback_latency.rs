//! E3 — feedback latency: how long from code edit to refreshed display?
//!
//! Compares the live UPDATE transition against the conventional
//! edit-compile-run cycle (full restart + init re-execution + navigation
//! replay) on the mortgage calculator, across listing counts. The paper's
//! claim: live editing removes the re-execution from the loop, so its
//! latency is independent of startup cost.

use alive_bench::{
    edit_applied, label_variants, mortgage_live_on_detail, mortgage_restart_on_detail,
};
use alive_testkit::Bench;

fn main() {
    let mut bench = Bench::from_args("feedback_latency");
    for n in [10usize, 100, 400] {
        let mut session = mortgage_live_on_detail(n);
        let mut flip = false;
        bench.bench(&format!("live_edit/{n}"), || {
            let (a, orig) = label_variants(session.source());
            let target = if flip { a } else { orig };
            flip = !flip;
            assert!(edit_applied(&mut session, &target));
        });
        let mut session = mortgage_restart_on_detail(n);
        let mut flip = false;
        bench.bench(&format!("restart_edit/{n}"), || {
            let (a, orig) = label_variants(session.source());
            let target = if flip { a } else { orig };
            flip = !flip;
            session.edit_source(&target).expect("edit applies");
        });
    }
    bench.finish();
}
