//! E8 — live programming vs the conventional baselines of paper §2:
//! full restart, fix-and-continue, and retained-mode MVC.

use its_alive::apps::mortgage;
use its_alive::baseline::retained::{update_prices, update_selection};
use its_alive::baseline::{
    build_listings_view, FixAndContinueSession, ListingsModel, NavAction, RestartSession,
    RetainedApp, SwapOutcome,
};
use its_alive::core::Value;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};

/// Tap the box at `path`, asserting the session did not refuse it.
fn tap(session: &mut LiveSession, path: &[usize]) {
    let effects = session.apply(SessionCommand::TapPath(path.to_vec()));
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "tap {path:?} refused: {effects:?}"
    );
}

/// Submit `source` as a live edit; whether it was applied.
fn edit_applied(session: &mut LiveSession, source: &str) -> bool {
    matches!(
        session
            .apply(SessionCommand::EditSource(source.to_string()))
            .first(),
        Some(SessionEffect::EditApplied(_))
    )
}

/// The same three-edit session, run live and with restarts: the live
/// session downloads once; the restart baseline downloads once per edit
/// and replays navigation every time.
#[test]
fn live_vs_restart_download_and_state() {
    let src = mortgage::mortgage_src(8);
    let edits = [
        |s: &str| s.replace("post \"Local\";", "post \"Nearby\";"),
        |s: &str| mortgage::apply_improvement_i2(s),
        |s: &str| mortgage::apply_improvement_i3(s),
    ];

    // Live session.
    let mut live = LiveSession::new(&src).expect("starts");
    tap(&mut live, &[1, 0]); // open detail
    for edit in edits {
        let new_src = edit(live.source());
        assert!(edit_applied(&mut live, &new_src));
    }
    assert_eq!(live.system().cost().prim.web_requests, 1);
    assert_eq!(live.system().current_page().map(|(n, _)| n), Some("detail"));

    // Restart baseline.
    let mut restart = RestartSession::new(&src).expect("starts");
    restart
        .interact(NavAction::Tap(vec![1, 0]))
        .expect("open detail");
    for edit in edits {
        let new_src = edit(restart.source());
        restart.edit_source(&new_src).expect("edit applies");
    }
    assert_eq!(restart.restarts(), 3);
    assert_eq!(
        restart.cost().prim.web_requests,
        4,
        "initial download + one per restart"
    );
    // Simulated latency: restart pays ≥ 4x the download cost.
    assert!(
        restart.cost().prim.simulated_ms >= 4.0 * live.system().cost().prim.simulated_ms,
        "restart {} ms vs live {} ms",
        restart.cost().prim.simulated_ms,
        live.system().cost().prim.simulated_ms
    );
}

/// Handler-accumulated state: preserved live, destroyed by restart
/// (except what navigation replay happens to rebuild).
#[test]
fn restart_loses_state_that_live_keeps() {
    let src = "
        global score : number = 0
        page start() {
            render {
                boxed { post \"score \" ++ score; on tap { score := score + 1; } }
            }
        }";
    let mut live = LiveSession::new(src).expect("starts");
    let mut restart = RestartSession::new(src).expect("starts");
    for _ in 0..5 {
        tap(&mut live, &[0]);
        restart.interact(NavAction::Tap(vec![0])).expect("tap");
    }
    assert_eq!(
        live.system().store().get("score"),
        Some(&Value::Number(5.0))
    );
    assert_eq!(
        restart.system().store().get("score"),
        Some(&Value::Number(5.0))
    );

    // Now an edit that changes only a label.
    let edit = |s: &str| s.replace("\"score \"", "\"points \"");
    let edited = edit(live.source());
    assert!(edit_applied(&mut live, &edited));
    restart.edit_source(&edit(src)).expect("restarts");

    // Live kept the 5; restart replayed 5 taps from zero — same number
    // here, but it re-ran every handler (cost) and would diverge for
    // any state not reachable by replay.
    assert_eq!(
        live.system().store().get("score"),
        Some(&Value::Number(5.0))
    );
    let live_steps = live.system().cost().steps;
    let restart_steps = restart.cost().steps;
    assert!(
        restart_steps > live_steps,
        "restart re-executes history: {restart_steps} vs {live_steps} steps"
    );
}

/// Fix-and-continue swaps code but leaves the built display on screen —
/// the §2 criticism: edits to view-building code show nothing.
#[test]
fn fix_and_continue_serves_stale_views() {
    let src = "
        global n : number = 7
        page start() {
            render { boxed { post \"n is \" ++ n; on tap { n := n + 1; } } }
        }";
    let mut fnc = FixAndContinueSession::new(src).expect("starts");
    let outcome = fnc
        .swap_code(&src.replace("\"n is \"", "\"value = \""))
        .expect("swaps");
    assert!(matches!(outcome, SwapOutcome::SwappedDisplayStale(_)));
    assert!(fnc.view_is_stale().expect("comparable"));
    assert_eq!(fnc.stale_views_served(), 1);

    // The same edit in a live session refreshes immediately.
    let mut live = LiveSession::new(src).expect("starts");
    assert!(edit_applied(
        &mut live,
        &src.replace("\"n is \"", "\"value = \"")
    ));
    assert!(live.live_view().contains("value = 7"));
}

/// Retained-mode MVC: correct update rules keep the view consistent,
/// and forgetting one silently leaves it stale — impossible in the
/// immediate-mode model, where the view is re-derived from the model.
#[test]
fn retained_mvc_view_update_problem() {
    let model = ListingsModel {
        listings: (0..10)
            .map(|i| (format!("{i} Elm"), 100_000.0 + f64::from(i)))
            .collect(),
        selected: 0,
    };
    // Correct app: both rules registered.
    let mut good = RetainedApp::new(model.clone(), build_listings_view);
    good.on_change("selection", update_selection);
    good.on_change("price", update_prices);
    good.mutate("selection", |m| m.selected = 4);
    good.mutate("price", |m| m.listings[2].1 += 5_000.0);
    assert!(good.view_consistent(build_listings_view));

    // Buggy app: the price rule was forgotten.
    let mut buggy = RetainedApp::new(model, build_listings_view);
    buggy.on_change("selection", update_selection);
    buggy.mutate("price", |m| m.listings[2].1 += 5_000.0);
    assert!(!buggy.view_consistent(build_listings_view));
    assert_eq!(buggy.missing_rule_hits(), 1);
}

/// The immediate-mode counterpart of the retained app, in our language:
/// the view is always consistent because it is recomputed.
#[test]
fn immediate_mode_cannot_go_stale() {
    let src = "
        global prices : list number = [100, 200, 300]
        global selected : number = 0
        page start() {
            render {
                foreach p in prices {
                    boxed { post \"$\" ++ p; }
                }
                boxed { post \"selected: \" ++ selected; on tap { selected := selected + 1; } }
            }
        }";
    let mut s = LiveSession::new(src).expect("starts");
    tap(&mut s, &[3]);
    // There is no way to observe a stale price: the render body is the
    // only description of the view and it just re-ran.
    assert!(s.live_view().contains("selected: 1"));
}
