//! E2 — the three live improvements of §2/§3.1, applied while the
//! program runs: I1 (margins), I2 (dollars-and-cents), I3 (row
//! highlighting). Each edit must apply without restarting, preserve the
//! model, and change exactly the intended part of the display.

use its_alive::apps::mortgage;
use its_alive::core::{Attr, Color, Value};
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

/// Press the back button, asserting the session did not refuse it.
fn back(session: &mut LiveSession) {
    let effects = session.apply(SessionCommand::Back);
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "back refused: {effects:?}"
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

/// Drive to the detail page of the first listing, like the paper's
/// session.
fn on_detail_page() -> LiveSession {
    let mut s = LiveSession::new(&mortgage::mortgage_src(4)).expect("compiles");
    tap(&mut s, &[1, 0]); // open detail
    s
}

#[test]
fn i1_margin_tweak_applies_live_on_the_start_page() {
    let mut s = LiveSession::new(&mortgage::mortgage_src(4)).expect("compiles");
    let before = s.live_view();
    let improved = mortgage::apply_improvement_i1(s.source());
    assert!(edit_applied(&mut s, &improved));
    let after = s.live_view();
    assert_ne!(before, after, "margins moved");
    // Same content, just laid out differently.
    assert_eq!(
        before.split_whitespace().collect::<Vec<_>>(),
        after.split_whitespace().collect::<Vec<_>>()
    );
    // No re-download happened (the edit did not restart the program).
    assert_eq!(s.system().cost().prim.web_requests, 1);
}

#[test]
fn i2_formats_every_balance_row_without_leaving_the_page() {
    let mut s = on_detail_page();
    let before = s.live_view();
    assert!(
        !before_balances_all_formatted(&before),
        "base version prints raw balances"
    );

    let improved = mortgage::apply_improvement_i2(s.source());
    assert!(edit_applied(&mut s, &improved));

    // Still on the detail page: the UI context survived the edit.
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("detail"));
    let after = s.live_view();
    assert!(
        before_balances_all_formatted(&after),
        "every balance row now shows dollars.cents: {after}"
    );
    assert_eq!(after.matches("balance:").count(), 30, "all 30 rows updated");
}

fn before_balances_all_formatted(view: &str) -> bool {
    view.lines().filter(|l| l.contains("balance: $")).all(|l| {
        let amount = l
            .split("balance: $")
            .nth(1)
            .unwrap_or("")
            .trim_end_matches(" |")
            .trim();
        match amount.split_once('.') {
            Some((_, cents)) => cents.len() == 2 && cents.chars().all(|c| c.is_ascii_digit()),
            None => false,
        }
    })
}

#[test]
fn i3_highlights_every_fifth_row() {
    let mut s = on_detail_page();
    let improved = mortgage::apply_improvement_i3(s.source());
    assert!(edit_applied(&mut s, &improved));

    let display = s.display_tree().expect("renders");
    // The amortization rows live under the schedule box (index 4).
    let schedule = display.descendant(&[4]).expect("schedule box");
    let rows: Vec<_> = schedule.children().collect();
    assert_eq!(rows.len(), 30);
    for (i, row) in rows.iter().enumerate() {
        let highlighted = row.attr(Attr::Background)
            == Some(&Value::Color(Color::by_name("light_blue").expect("known")));
        assert_eq!(
            highlighted,
            i % 5 == 4,
            "row {i} highlight state (paper: every fifth year)"
        );
    }
}

#[test]
fn all_three_improvements_stack_in_one_session() {
    let mut s = on_detail_page();
    for improve in [
        mortgage::apply_improvement_i2 as fn(&str) -> String,
        mortgage::apply_improvement_i3,
        mortgage::apply_improvement_i1,
    ] {
        let improved = improve(s.source());
        assert!(edit_applied(&mut s, &improved));
    }
    assert_eq!(s.update_counts(), (3, 0));
    // Still on the detail page, one download total, model intact.
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("detail"));
    assert_eq!(s.system().cost().prim.web_requests, 1);
    let view = s.live_view();
    assert!(view.contains("term: 30 years"), "model intact");
    assert!(view.contains("balance: $"));
}

#[test]
fn half_typed_improvement_is_rejected_and_leaves_the_page_running() {
    let mut s = on_detail_page();
    // The paper's I2 edit, stopped mid-keystroke.
    let broken = s.source().replace(
        "post \"balance: $\" ++ balance;",
        "post \"balance: $\" ++ math.floor(balance) ++ \".\" ++ ;",
    );
    assert!(!edit_applied(&mut s, &broken));
    // The old view is still alive and interactive.
    assert!(s.live_view().contains("balance: $"));
    back(&mut s); // still interactive
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("start"));
}
