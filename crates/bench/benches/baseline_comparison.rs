//! E8 — per-model-change view maintenance cost across architectures:
//! retained-MVC targeted updates (hand-written rules), retained-MVC
//! full rebuild, immediate-mode full re-render (the paper's approach),
//! and immediate-mode with the §5 reuse cache. Every arm ends with its
//! screen as text: the immediate arms with the frame `apply` answers
//! with, the retained arms with their widget tree's text screen. The
//! paper's position: the retained approach is the fastest per update
//! but requires dangerous hand-written view-update code; immediate mode
//! trades a bounded render cost for correctness by construction.

use alive_baseline::retained::{update_prices, update_selection};
use alive_baseline::{build_listings_view, ListingsModel, RetainedApp};
use alive_bench::{feed_session, feed_touch};
use alive_testkit::Bench;

fn listings_model(n: usize) -> ListingsModel {
    ListingsModel {
        listings: (0..n)
            .map(|i| (format!("{i} Oak Ave"), 100_000.0 + i as f64))
            .collect(),
        selected: 0,
    }
}

fn main() {
    let mut bench = Bench::from_args("baseline_comparison");
    for n in [10usize, 100, 400] {
        let mut app = RetainedApp::new(listings_model(n), build_listings_view);
        app.on_change("selection", update_selection);
        app.on_change("price", update_prices);
        let mut i = 0usize;
        bench.bench(&format!("retained_update/{n}"), || {
            i += 1;
            if i.is_multiple_of(2) {
                app.mutate("selection", |m| m.selected = i % n);
            } else {
                app.mutate("price", |m| m.listings[i % n].1 += 1.0);
            }
            std::hint::black_box(app.tree().to_string());
        });
        // The "correct by construction" variant of retained MVC:
        // rebuild the whole widget tree from the model per change —
        // i.e. immediate mode in the host language.
        let mut app = RetainedApp::new(listings_model(n), build_listings_view);
        let mut i = 0usize;
        bench.bench(&format!("retained_rebuild/{n}"), || {
            i += 1;
            app.model.selected = i % n;
            std::hint::black_box(build_listings_view(&app.model).to_string());
        });
        let mut session = feed_session(n, false);
        let mut i = 0usize;
        bench.bench(&format!("immediate_naive/{n}"), || {
            feed_touch(&mut session, i);
            i += 1;
        });
        let mut session = feed_session(n, true);
        let mut i = 0usize;
        bench.bench(&format!("immediate_memo/{n}"), || {
            feed_touch(&mut session, i);
            i += 1;
        });
    }
    bench.finish();
}
