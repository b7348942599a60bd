//! Quickstart: a counter app, live-edited while it runs.
//!
//! Run with `cargo run --example quickstart`.

use its_alive::live::{
    box_source_at, boxes_for_cursor, LiveSession, SessionCommand, SessionEffect,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Start a live session from source text.
    let mut session = LiveSession::new(its_alive::apps::COUNTER_SRC)?;
    println!("=== initial live view ===");
    print!("{}", session.live_view());

    // 2. Interact: tap the "+1" button twice. Every change to a running
    //    session is a command sent to `apply`, answered with effects.
    for _ in 0..2 {
        let effects = session.apply(SessionCommand::TapPath(vec![1]));
        assert_eq!(effects[0], SessionEffect::Tap { hit: true });
    }
    println!("\n=== after two taps ===");
    print!("{}", session.live_view());

    // 3. Live edit: change the label while the program runs. The count
    //    (model state) survives — only the view re-renders.
    let edited = session.source().replace("count: ", "taps so far: ");
    let effects = session.apply(SessionCommand::EditSource(edited));
    assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
    println!("\n=== after live edit (state preserved!) ===");
    print!("{}", session.live_view());

    // 4. UI -> code navigation: which statement created the first box?
    let display = session.display_tree().ok_or("no view")?;
    let span = its_alive::live::span_for_box(session.system().program(), &display, &[0])
        .expect("box came from a boxed statement");
    println!("\n=== the box at path [0] was created by ===");
    println!("{}", span.slice(session.source()));

    // 5. Code -> UI navigation: cursor inside that statement selects
    //    the box(es) it created.
    let cursor = span.start + 1;
    let id = box_source_at(session.system().program(), cursor).expect("in a boxed stmt");
    let boxes = boxes_for_cursor(session.system().program(), &display, cursor);
    println!("\nstatement {id:?} currently renders boxes at paths {boxes:?}");

    // 6. A broken edit is rejected; the program keeps running.
    let broken = session.source().replace("count + 1", "count + ");
    let effects = session.apply(SessionCommand::EditSource(broken));
    assert!(matches!(effects[0], SessionEffect::EditRejected(_)));
    println!("\n=== broken edit rejected; still alive ===");
    print!("{}", session.live_view());

    // 7. BACK at the root page would pop the last page and re-run
    //    `init` — a hidden restart — so the session refuses it and the
    //    program keeps running.
    let effects = session.apply(SessionCommand::Back);
    print!("\nBACK at the root page: {}", effects[0].serialize());
    assert!(matches!(effects[0], SessionEffect::Refused(_)));
    Ok(())
}
