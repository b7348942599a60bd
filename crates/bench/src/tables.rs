//! Deterministic experiment tables (EXPERIMENTS.md is generated from
//! this output; `cargo run -p alive-bench --bin tables`).
//!
//! Wall-clock columns are indicative (machine-dependent); the
//! simulated-latency, step-count, and box-count columns are exact and
//! reproducible — they come from the deterministic cost model.

use crate::workloads::*;
use alive_apps::{gallery, mortgage};
use alive_baseline::retained::{update_prices, update_selection};
use alive_baseline::{build_listings_view, FixAndContinueSession, ListingsModel, RetainedApp};
use alive_core::event::EventQueue;
use alive_core::fixup::fixup_store;
use alive_core::prim::PrimCtx;
use alive_core::store::Store;
use alive_core::{bigstep, compile, smallstep, Value};
use std::fmt::Write as _;
use std::time::Instant;

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Repetitions of each E3 arm's 3-edit sequence, each on a fresh
/// session: a wall-ms cell is their median, so one descheduled
/// repetition cannot move it.
const E3_REPS: usize = 9;

/// E3 — feedback latency: live UPDATE vs full restart, per edit.
pub fn table_e3_feedback_latency() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E3. Feedback latency per code edit (3 edits on the detail page; wall-ms medians of {E3_REPS})\n\
         listings | live sim-ms/edit | live downloads | restart sim-ms/edit | restart downloads | live wall-ms/edit | restart wall-ms/edit"
    )
    .unwrap();
    for n in [10usize, 100, 400] {
        let edits = 3u32;
        let mut live_walls = Vec::with_capacity(E3_REPS);
        let mut restart_walls = Vec::with_capacity(E3_REPS);
        // The simulated costs are deterministic: every repetition reads
        // the same, so the last one's are reported.
        let (mut live_cost, mut restart_cost) = Default::default();
        for _ in 0..E3_REPS {
            let mut live = mortgage_live_on_detail(n);
            let live_before = live.system().cost().prim;
            live_walls.push(time_ms(|| {
                for i in 0..edits {
                    let (a, b) = label_variants(live.source());
                    let target = if i % 2 == 0 { a } else { b };
                    assert!(edit_applied(&mut live, &target));
                }
            }));
            live_cost = prim_delta(live_before, live.system().cost().prim);

            let mut restart = mortgage_restart_on_detail(n);
            let restart_before = restart.cost().prim;
            restart_walls.push(time_ms(|| {
                for i in 0..edits {
                    let (a, b) = label_variants(restart.source());
                    let target = if i % 2 == 0 { a } else { b };
                    restart.edit_source(&target).expect("edit");
                    // Paint the restarted display, as the live edit does.
                    let root = restart.system().display().content().expect("a display");
                    alive_ui::render_to_text(&alive_ui::layout(root));
                }
            }));
            restart_cost = prim_delta(restart_before, restart.cost().prim);
        }
        live_walls.sort_by(f64::total_cmp);
        restart_walls.sort_by(f64::total_cmp);

        writeln!(
            out,
            "{n:8} | {:16.1} | {:14} | {:19.1} | {:17} | {:17.2} | {:20.2}",
            live_cost.0 / f64::from(edits),
            live_cost.1,
            restart_cost.0 / f64::from(edits),
            restart_cost.1,
            live_walls[E3_REPS / 2] / f64::from(edits),
            restart_walls[E3_REPS / 2] / f64::from(edits),
        )
        .unwrap();
    }
    out
}

/// Simulated milliseconds and web requests spent between two readings.
fn prim_delta(before: PrimCtx, after: PrimCtx) -> (f64, u64) {
    (
        after.simulated_ms - before.simulated_ms,
        after.web_requests - before.web_requests,
    )
}

/// E4 — render scaling: naive full rebuild vs §5 memoized reuse, on a
/// dependency-sparse workload (one row's data changes per tap) and a
/// dependency-dense one (every tile reads the changed global).
pub fn table_e4_render_scaling() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E4. Render cost per model change (5 taps each)\n\
         workload        | boxes | naive boxes/redraw | memo boxes/redraw | memo reused/redraw | naive steps/redraw | memo steps/redraw"
    )
    .unwrap();
    type Touch = fn(&mut alive_live::LiveSession, usize);
    type Make = fn(usize, bool) -> alive_live::LiveSession;
    let workloads: [(&str, Make, Touch); 2] = [
        ("feed (sparse)", feed_session, feed_touch),
        ("gallery (dense)", gallery_session, gallery_select_next),
    ];
    for (name, make, touch) in workloads {
        for n in [10usize, 100, 400, 1000] {
            let taps = 5usize;
            let mut rows = Vec::new();
            for memo in [false, true] {
                let mut session = make(n, memo);
                // Warm: one full render has happened in the constructor.
                let before = session.system().cost();
                for i in 0..taps {
                    touch(&mut session, i);
                }
                let after = session.system().cost();
                rows.push((
                    (after.boxes_created - before.boxes_created) as f64 / taps as f64,
                    (after.boxes_reused - before.boxes_reused) as f64 / taps as f64,
                    (after.steps - before.steps) as f64 / taps as f64,
                ));
            }
            writeln!(
                out,
                "{name:15} | {n:5} | {:18.1} | {:17.1} | {:18.1} | {:18.0} | {:17.0}",
                rows[0].0, rows[1].0, rows[1].1, rows[0].2, rows[1].2
            )
            .unwrap();
        }
    }
    out
}

/// E5 — continuous type checking: compile (parse + lower + check)
/// throughput vs program size.
pub fn table_e5_typecheck() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E5. Compile latency vs program size; one-item edits with the incremental parse cache\n\
         functions | source bytes | core nodes | full wall-ms | incremental wall-ms (medians of 9)"
    )
    .unwrap();
    for n in [10usize, 50, 200, 500] {
        let src = gallery::wide_program_src(n);
        let program = compile(&src).expect("compiles");
        let mut samples: Vec<f64> = (0..9)
            .map(|_| {
                time_ms(|| {
                    compile(&src).expect("compiles");
                })
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        // Incremental: one body token flips per keystroke.
        let mut compiler = alive_core::IncrementalCompiler::new();
        compiler.compile(&src).expect("compiles");
        let variant = src.replace("x * 2 + g0", "x * 3 + g0");
        let mut inc_samples: Vec<f64> = (0..9)
            .map(|i| {
                let target: &str = if i % 2 == 0 { &variant } else { &src };
                time_ms(|| {
                    compiler.compile(target).expect("compiles");
                })
            })
            .collect();
        inc_samples.sort_by(f64::total_cmp);
        writeln!(
            out,
            "{n:9} | {:12} | {:10} | {:12.2} | {:10.2}",
            src.len(),
            program.node_count(),
            samples[4],
            inc_samples[4],
        )
        .unwrap();
    }
    out
}

/// E6 — UPDATE fix-up cost vs store size, plus decision counts.
pub fn table_e6_update_fixup() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E6. Fig. 12 fix-up vs store size (half the entries survive)\n\
         globals | kept | dropped | fixup wall-ms (median of 9)"
    )
    .unwrap();
    for n in [10usize, 100, 1000] {
        // New code declares only the even globals.
        let mut src = String::new();
        for i in (0..n).step_by(2) {
            src.push_str(&format!("global g{i} : number = {i}\n"));
        }
        src.push_str("page start() { render { } }\n");
        let program = compile(&src).expect("compiles");
        let mut store = Store::new();
        for i in 0..n {
            store.set(format!("g{i}"), Value::Number(i as f64));
        }
        let (fixed, report) = fixup_store(&program, &store);
        let mut samples: Vec<f64> = (0..9)
            .map(|_| {
                time_ms(|| {
                    let _ = fixup_store(&program, &store);
                })
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        writeln!(
            out,
            "{n:7} | {:4} | {:7} | {:10.3}",
            fixed.len(),
            report.dropped_globals.len(),
            samples[4]
        )
        .unwrap();
    }
    out
}

/// E7 — ablation: the faithful small-step substitution machine vs the
/// production big-step evaluator on the same workloads.
pub fn table_e7_eval_ablation() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E7. Faithful small-step machine vs big-step evaluator\n\
         workload | bigstep steps | smallstep steps (p/s/r) | bigstep wall-ms | smallstep wall-ms"
    )
    .unwrap();

    let fib_src = "fun fib(n: number): number pure {
             if n < 2 { n } else { fib(n - 1) + fib(n - 2) }
         }
         fun main(): number pure { fib(16) }
         page start() { render { } }";
    let render_src = gallery::gallery_src(30);

    // fib workload.
    let p = compile(fib_src).expect("compiles");
    let body = p.fun("main").expect("fun").body.clone();
    let store = Store::new();
    let mut big_cost = 0u64;
    let big_ms = time_ms(|| {
        let (_, cost) = bigstep::run_pure(&p, &store, 0, u64::MAX, &body).expect("runs");
        big_cost = cost.steps;
    });
    let mut small_counts = smallstep::StepCounts::default();
    let mut store2 = Store::new();
    let small_ms = time_ms(|| {
        let out = smallstep::eval_pure(&p, &mut store2, u64::MAX, &body).expect("runs");
        small_counts = out.steps;
    });
    writeln!(
        out,
        "fib(16)  | {big_cost:13} | {:10}/{}/{} | {big_ms:15.2} | {small_ms:17.2}",
        small_counts.pure, small_counts.state, small_counts.render
    )
    .unwrap();

    // render workload.
    let p = compile(&render_src).expect("compiles");
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
    let mut big_cost = 0u64;
    let big_ms = time_ms(|| {
        let (root, cost) =
            bigstep::transition_render(&p, &store, 0, u64::MAX, vec![], &render, None, None, None);
        root.expect("runs");
        big_cost = cost.steps;
    });
    let mut small_counts = smallstep::StepCounts::default();
    let small_ms = time_ms(|| {
        let out = smallstep::eval_render(&p, &mut store, u64::MAX, &render).expect("runs");
        small_counts = out.steps;
    });
    writeln!(
        out,
        "render30 | {big_cost:13} | {:10}/{}/{} | {big_ms:15.2} | {small_ms:17.2}",
        small_counts.pure, small_counts.state, small_counts.render
    )
    .unwrap();
    out
}

/// E8 — baseline comparison: staleness incidents and update costs.
pub fn table_e8_baselines() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E8. View consistency across architectures (10 model changes, 50 rows)\n\
         architecture        | stale views possible | stale views observed | hand-written update code"
    )
    .unwrap();

    // Immediate mode (ours): re-render per change; staleness impossible.
    writeln!(
        out,
        "immediate (live)    | {:20} | {:20} | {:24}",
        "no", 0, "none"
    )
    .unwrap();

    // Fix-and-continue: every view-code edit leaves a stale display.
    let src = "
        global n : number = 0
        page start() {
            render { boxed { post \"n is \" ++ n; on tap { n := n + 1; } } }
        }";
    let mut fnc = FixAndContinueSession::new(src).expect("starts");
    for i in 0..10 {
        let label = format!("\"v{i}: \"");
        let new_src = src.replace("\"n is \"", &label);
        fnc.swap_code(&new_src).expect("swaps");
    }
    writeln!(
        out,
        "fix-and-continue    | {:20} | {:20} | {:24}",
        "yes",
        fnc.stale_views_served(),
        "none (display frozen)"
    )
    .unwrap();

    // Retained MVC with a complete rule set vs a forgotten rule.
    let model = ListingsModel {
        listings: (0..50)
            .map(|i| (format!("{i} Oak"), 1000.0 + i as f64))
            .collect(),
        selected: 0,
    };
    let mut complete = RetainedApp::new(model.clone(), build_listings_view);
    complete.on_change("selection", update_selection);
    complete.on_change("price", update_prices);
    let mut buggy = RetainedApp::new(model, build_listings_view);
    buggy.on_change("selection", update_selection);
    let mut buggy_stale = 0;
    for i in 0..10 {
        if i % 2 == 0 {
            complete.mutate("selection", |m| m.selected = i);
            buggy.mutate("selection", |m| m.selected = i);
        } else {
            complete.mutate("price", |m| m.listings[i].1 += 1.0);
            buggy.mutate("price", |m| m.listings[i].1 += 1.0);
        }
        if !buggy.view_consistent(build_listings_view) {
            buggy_stale += 1;
        }
    }
    assert!(complete.view_consistent(build_listings_view));
    writeln!(
        out,
        "retained MVC (full) | {:20} | {:20} | {:24}",
        "yes", 0, "2 update rules"
    )
    .unwrap();
    writeln!(
        out,
        "retained MVC (bug)  | {:20} | {:20} | {:24}",
        "yes", buggy_stale, "1 of 2 rules (forgot one)"
    )
    .unwrap();
    out
}

/// E2 — the three improvements as a scripted live session: edits
/// applied, downloads paid, context preserved.
pub fn table_e2_improvements() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E2. The paper's I1-I3 improvements, applied live on the detail page\n\
         step | edit               | applied | downloads so far | still on detail page"
    )
    .unwrap();
    let mut s = mortgage_live_on_detail(8);
    type Improve = fn(&str) -> String;
    let edits: [(&str, Improve); 3] = [
        ("I1 margins", mortgage::apply_improvement_i1),
        ("I2 dollars+cents", mortgage::apply_improvement_i2),
        ("I3 row highlight", mortgage::apply_improvement_i3),
    ];
    for (i, (name, f)) in edits.iter().enumerate() {
        let edited = f(s.source());
        let applied = edit_applied(&mut s, &edited);
        writeln!(
            out,
            "{:4} | {name:18} | {:7} | {:16} | {}",
            i + 1,
            applied,
            s.system().cost().prim.web_requests,
            s.system().current_page().map(|(n, _)| n) == Some("detail"),
        )
        .unwrap();
    }
    out
}

/// E11 — the §7 `remember` extension: per-instance view state vs the
/// paper's baseline encoding (one global per widget instance).
pub fn table_e11_view_state() -> String {
    use alive_live::LiveSession;
    let mut out = String::new();
    writeln!(
        out,
        "E11. View-state encapsulation: n counters, 5 taps on counter 0\n\
         encoding          | counters | globals used | slots used | steps/tap | model untouched"
    )
    .unwrap();
    for n in [4usize, 32] {
        // remember-based: zero globals.
        let mut remembered = String::from("page start() {\n    render {\n");
        remembered.push_str(&format!("        for i in 0 .. {n} {{\n"));
        remembered.push_str(
            "            boxed {\n                remember c : number = 0;\n                \
             post i ++ \": \" ++ c;\n                on tap { c := c + 1; }\n            }\n",
        );
        remembered.push_str("        }\n    }\n}\n");
        // global-based: the §5 baseline — one global list indexed by i.
        let globals = format!(
            "global counts : list number = []\n\
             page start() {{\n    init {{ counts := list.range(0, {n}) ; \
             counts := list.set(counts, 0, 0); }}\n    render {{\n        \
             for i in 0 .. {n} {{\n            boxed {{\n                \
             post i ++ \": \" ++ list.nth(counts, i);\n                \
             on tap {{ counts := list.set(counts, i, list.nth(counts, i) + 1); }}\n            \
             }}\n        }}\n    }}\n}}\n"
        );
        for (name, src, expect_globals) in [
            ("remember (view)", remembered.as_str(), 0usize),
            ("globals (model)", globals.as_str(), 1usize),
        ] {
            let mut session = LiveSession::new(src).expect("compiles");
            let before = session.system().cost().steps;
            for _ in 0..5 {
                tap(&mut session, &[0]);
            }
            let after = session.system().cost().steps;
            writeln!(
                out,
                "{name:17} | {n:8} | {:12} | {:10} | {:9} | {}",
                session.system().store().len(),
                session.system().widgets().len(),
                (after - before) / 5,
                session.system().store().len() == expect_globals,
            )
            .unwrap();
        }
    }
    out
}

/// All tables, in experiment order.
pub fn all_tables() -> String {
    [
        table_e2_improvements(),
        table_e3_feedback_latency(),
        table_e4_render_scaling(),
        table_e5_typecheck(),
        table_e6_update_fixup(),
        table_e7_eval_ablation(),
        table_e8_baselines(),
        table_e11_view_state(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_with_expected_shape() {
        let e3 = table_e3_feedback_latency();
        assert!(e3.contains("restart"));
        // Deterministic shape: live pays zero download latency, restart
        // pays one download per edit.
        let first_row = e3.lines().nth(2).expect("data row");
        let cols: Vec<&str> = first_row.split('|').map(str::trim).collect();
        assert_eq!(cols[1], "0.0", "live pays no download: {first_row}");
        assert_eq!(cols[2], "0", "live never re-downloads");
        assert_eq!(cols[4], "3", "restart downloads once per edit");

        let e4 = table_e4_render_scaling();
        // Sparse workload: the memo rebuilds far fewer boxes.
        let sparse_row = e4.lines().nth(2).expect("data row");
        let cols: Vec<&str> = sparse_row.split('|').map(str::trim).collect();
        let naive: f64 = cols[2].parse().expect("number");
        let memo: f64 = cols[3].parse().expect("number");
        assert!(
            memo < naive / 2.0,
            "memo rebuilds fewer boxes: {sparse_row}"
        );
        // Dense workload: the memo cannot help (every tile's inputs changed).
        let dense_row = e4
            .lines()
            .find(|l| l.contains("gallery (dense)"))
            .expect("dense row");
        let cols: Vec<&str> = dense_row.split('|').map(str::trim).collect();
        let naive: f64 = cols[2].parse().expect("number");
        let memo: f64 = cols[3].parse().expect("number");
        assert_eq!(naive, memo, "dense deps defeat reuse: {dense_row}");

        let e8 = table_e8_baselines();
        assert!(e8.contains("immediate (live)"));
        assert!(e8
            .lines()
            .any(|l| l.contains("fix-and-continue") && l.contains("10")));
    }
}
