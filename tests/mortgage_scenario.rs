//! E1 — the paper's running example end to end (Figures 1, 3, 4, 5).
//!
//! Start page lists downloaded listings; tapping an entry pushes the
//! detail page with the monthly payment and amortization schedule; term
//! and APR are editable; back returns to the listings.

use its_alive::apps::mortgage;
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

/// Edit the text box at `path`, asserting the session did not refuse it.
fn edit_box(session: &mut LiveSession, path: &[usize], text: &str) {
    let effects = session.apply(SessionCommand::EditBox {
        path: path.to_vec(),
        text: text.to_string(),
    });
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "edit of box {path:?} refused: {effects:?}"
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

fn start_session(n: usize) -> LiveSession {
    LiveSession::new(&mortgage::mortgage_src(n)).expect("mortgage calculator compiles")
}

#[test]
fn start_page_shows_downloaded_listings() {
    let mut s = start_session(7);
    let view = s.live_view();
    assert!(view.contains("Local"));
    assert!(view.contains("Listings"));
    // All seven listings are on screen with prices.
    assert_eq!(view.matches('$').count(), 7);
    // The model holds the downloaded list.
    let Some(Value::List(listings)) = s.system().store().get("listings") else {
        panic!("listings global is a list");
    };
    assert_eq!(listings.len(), 7);
    // Exactly one simulated download.
    assert_eq!(s.system().cost().prim.web_requests, 1);
}

#[test]
fn tapping_a_listing_pushes_its_detail_page() {
    let mut s = start_session(4);
    let Some(Value::List(listings)) = s.system().store().get("listings").cloned() else {
        panic!("listings is a list");
    };
    let Value::Tuple(third) = &listings[2] else {
        panic!("tuple")
    };
    let (Value::Str(addr), Value::Number(price)) = (&third[0], &third[1]) else {
        panic!("(string, number)");
    };
    let addr = addr.clone();
    let price = *price;

    tap(&mut s, &[1, 2]); // tap third listing
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("detail"));
    // The page argument is the tapped listing.
    let (_, arg) = s.system().page_stack().last().cloned().expect("on detail");
    assert_eq!(
        arg,
        Value::tuple(vec![Value::Str(addr.clone()), Value::Number(price)])
    );

    let view = s.live_view();
    assert!(view.contains(&*addr), "detail shows the address");
    assert!(view.contains("monthly payment"));
    assert!(view.contains("year 1"));
    assert!(view.contains("year 30"), "30-year schedule by default");
}

#[test]
fn monthly_payment_matches_the_oracle() {
    let mut s = start_session(3);
    tap(&mut s, &[1, 0]); // open first listing
    let (_, arg) = s.system().page_stack().last().cloned().expect("on detail");
    let Value::Tuple(parts) = &arg else {
        panic!("tuple")
    };
    let Value::Number(price) = parts[1] else {
        panic!("number")
    };
    let expected = mortgage::expected_monthly_payment(price, 5.0, 30.0);
    let view = s.live_view();
    let shown = view
        .lines()
        .find(|l| l.contains("monthly payment"))
        .expect("shown");
    assert!(
        shown.contains(&format!("${expected:.2}")),
        "expected payment {expected:.2} in {shown:?}"
    );
}

#[test]
fn editing_term_and_apr_recomputes_the_schedule() {
    let mut s = start_session(3);
    tap(&mut s, &[1, 0]); // open detail
                          // Edit the term box to 15 years.
    edit_box(&mut s, &[2, 0], "15");
    assert_eq!(s.system().store().get("term"), Some(&Value::Number(15.0)));
    let view = s.live_view();
    assert!(view.contains("term: 15 years"));
    assert!(view.contains("year 15"));
    assert!(!view.contains("year 16"), "schedule shortened");

    // Edit the APR box.
    edit_box(&mut s, &[2, 1], "3.5");
    assert_eq!(s.system().store().get("apr"), Some(&Value::Number(3.5)));
    assert!(s.live_view().contains("APR: 3.5%"));

    // Nonsense input is ignored by the handler's guard.
    edit_box(&mut s, &[2, 0], "soon");
    assert_eq!(s.system().store().get("term"), Some(&Value::Number(15.0)));
}

#[test]
fn amortization_reaches_zero_balance() {
    let mut s = start_session(1);
    tap(&mut s, &[1, 0]); // open detail
    let improved = mortgage::apply_improvement_i2(s.source());
    s.apply(SessionCommand::EditSource(improved));
    let view = s.live_view();
    let last_row = view
        .lines()
        .rfind(|l| l.contains("balance:"))
        .expect("has rows");
    assert!(
        last_row.contains("$0.00"),
        "final balance is zero: {last_row}"
    );
}

#[test]
fn back_returns_to_the_listings() {
    let mut s = start_session(3);
    tap(&mut s, &[1, 1]); // open detail
    back(&mut s);
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("start"));
    // Only the original download — no re-fetch on pop (model retained).
    assert_eq!(s.system().cost().prim.web_requests, 1);
    assert!(s.live_view().contains("Listings"));
}

#[test]
fn tapping_the_schedule_pops_too() {
    let mut s = start_session(2);
    tap(&mut s, &[1, 0]); // open detail
                          // The amortization box has `on tap { pop; }` (box index 4).
    tap(&mut s, &[4]); // tap schedule
    assert_eq!(s.system().current_page().map(|(n, _)| n), Some("start"));
}
