//! The paper's running example, end to end: the mortgage calculator of
//! Figures 1, 3, 4, 5, with the live improvements I1–I3 of §2/§3.1
//! applied while the program runs.
//!
//! Run with `cargo run --example mortgage_live`.

use its_alive::apps::mortgage;
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
    // Start page (Figure 1, left): the init body downloads listings
    // (simulated web request) and the render body lays them out.
    let src = mortgage::mortgage_src(5);
    let mut session = LiveSession::new(&src)?;
    println!("=== start page (Figure 1, left) ===");
    print!("{}", session.live_view());
    let cost = session.system().cost();
    println!(
        "\n(simulated download: {} request(s), {:.0} ms simulated latency)",
        cost.prim.web_requests, cost.prim.simulated_ms
    );

    // Tap the second listing: push the detail page (Figure 1, right).
    send(&mut session, SessionCommand::TapPath(vec![1, 1]))?;
    println!("\n=== detail page (Figure 1, right) ===");
    print!("{}", session.live_view());

    // The term box is editable: change the mortgage term to 15 years.
    // (Path [2,0] = third top-level box, first child.)
    send(
        &mut session,
        SessionCommand::EditBox {
            path: vec![2, 0],
            text: "15".to_string(),
        },
    )?;
    println!("\n=== after editing the term to 15 years ===");
    print!("{}", session.live_view());

    // Improvement I2: print the balance in dollars and cents — a live
    // edit applied WITHOUT leaving the detail page. The paper: "balance
    // printing is updated for all amortization table rows as soon as we
    // complete the last line of this modification."
    let improved = mortgage::apply_improvement_i2(session.source());
    assert!(edit_applied(&mut session, improved));
    println!("\n=== after improvement I2 (dollars and cents), still on the detail page ===");
    print!("{}", session.live_view());

    // Improvement I3: highlight every fifth amortization row.
    let improved = mortgage::apply_improvement_i3(session.source());
    assert!(edit_applied(&mut session, improved));
    println!("\n=== after improvement I3 (every fifth row highlighted) ===");
    print!("{}", session.live_view());

    // Back to the start page; improvement I1 tweaks the entry margins.
    send(&mut session, SessionCommand::Back)?;
    let improved = mortgage::apply_improvement_i1(session.source());
    assert!(edit_applied(&mut session, improved));
    println!("\n=== start page after improvement I1 (margins) ===");
    print!("{}", session.live_view());

    let (applied, rejected) = session.update_counts();
    println!("\nlive session summary: {applied} edits applied, {rejected} rejected,");
    println!(
        "total simulated web latency: {:.0} ms across {} request(s) — \
         the download never re-ran.",
        session.system().cost().prim.simulated_ms,
        session.system().cost().prim.web_requests
    );
    Ok(())
}
