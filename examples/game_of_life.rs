//! Conway's Game of Life, live-edited mid-simulation: run a glider,
//! then change the evolution *rule* while the organism is alive.
//!
//! Run with `cargo run --example game_of_life`.

use its_alive::apps::life::life_src;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};

/// Apply one command; a refused command becomes an error.
fn send(session: &mut LiveSession, command: SessionCommand) -> Result<Vec<SessionEffect>, String> {
    let effects = session.apply(command);
    match effects.first() {
        Some(SessionEffect::Refused(why)) => Err(why.clone()),
        _ => Ok(effects),
    }
}

/// Submit `source` as a live edit; whether it was applied.
fn edit_applied(session: &mut LiveSession, source: String) -> bool {
    matches!(
        session.apply(SessionCommand::EditSource(source)).first(),
        Some(SessionEffect::EditApplied(_))
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = LiveSession::new(&life_src(10))?;
    println!("=== generation 0 (tap the board to step) ===");
    print!("{}", session.live_view());

    for _ in 0..3 {
        send(&mut session, SessionCommand::TapPath(vec![1]))?;
    }
    println!("\n=== generation 3 ===");
    print!("{}", session.live_view());

    // Live edit: switch B3/S23 to "HighLife" (B36/S23) while running.
    // The grid (model) survives; only the rule changes.
    let highlife = session.source().replace(
        "else if !alive && around == 3 { 1 }",
        "else if !alive && (around == 3 || around == 6) { 1 }",
    );
    assert!(edit_applied(&mut session, highlife));
    println!("\n=== rule changed to HighLife (B36/S23) mid-run; grid preserved ===");
    for _ in 0..3 {
        send(&mut session, SessionCommand::TapPath(vec![1]))?;
    }
    println!("=== generation 6, three HighLife steps later ===");
    print!("{}", session.live_view());
    println!(
        "\n{} evaluation steps total; the simulation never restarted.",
        session.system().cost().steps
    );
    Ok(())
}
