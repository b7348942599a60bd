//! A second realistic app: the shopping list, driven by screen
//! coordinates (hit-testing) rather than box paths, with a live edit
//! mid-session and the §5 render cache enabled.
//!
//! Run with `cargo run --example shopping_live`.

use its_alive::apps::SHOPPING_SRC;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};

/// Apply one command; a refused command becomes an error.
fn send(session: &mut LiveSession, command: SessionCommand) -> Result<Vec<SessionEffect>, String> {
    let effects = session.apply(command);
    match effects.first() {
        Some(SessionEffect::Refused(why)) => Err(why.clone()),
        _ => Ok(effects),
    }
}

/// Tap the screen at `(x, y)`; whether a box with a handler was hit.
fn tap_at(session: &mut LiveSession, x: i32, y: i32) -> Result<bool, String> {
    let effects = send(session, SessionCommand::TapAt { x, y })?;
    Ok(effects[0] == SessionEffect::Tap { hit: true })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = LiveSession::with_memo(SHOPPING_SRC)?;
    println!("=== shopping list ===");
    print!("{}", session.live_view());

    // Find the "eggs" row on screen and tap it by coordinates.
    let view = session.live_view();
    let eggs_row = view
        .lines()
        .position(|l| l.contains("eggs"))
        .expect("visible") as i32;
    assert!(tap_at(&mut session, 1, eggs_row)?);
    println!("\n=== eggs detail ===");
    print!("{}", session.live_view());

    // Buy them (tap the [ buy ] button by coordinates).
    let view = session.live_view();
    let buy_row = view
        .lines()
        .position(|l| l.contains("[ buy ]"))
        .expect("visible") as i32;
    assert!(tap_at(&mut session, 1, buy_row)?);
    println!("\n=== back on the list (12 bought) ===");
    print!("{}", session.live_view());

    // Live edit while shopping: show the bought count more loudly.
    let edited = session.source().replace(
        "\"bought so far: \" ++ bought",
        "\"BOUGHT: \" ++ bought ++ \" units\"",
    );
    let effects = session.apply(SessionCommand::EditSource(edited));
    assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
    println!("\n=== after live edit (model intact) ===");
    print!("{}", session.live_view());

    // Add twice; the memo cache reuses untouched rows.
    let view = session.live_view();
    let add_row = view
        .lines()
        .position(|l| l.contains("add apples"))
        .expect("visible") as i32;
    assert!(tap_at(&mut session, 1, add_row)?);
    if let Some(stats) = session.memo_stats() {
        println!(
            "\nrender cache: {} hits, {} misses ({} statically uncacheable)",
            stats.hits, stats.misses, stats.uncacheable
        );
    }
    Ok(())
}
