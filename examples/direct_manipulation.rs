//! Direct manipulation (paper §3): select a box in the live view, change
//! its attributes from a "property menu", and watch the change be
//! enshrined in the code — then twiddle the value live, like the
//! paper's margin example (improvement I1). Finishes with bidirectional
//! evaluation: edit a rendered *value* and the change is inverted
//! through its provenance into a ranked menu of source repairs.
//!
//! Run with `cargo run --example direct_manipulation`.

use its_alive::core::Attr;
use its_alive::live::{attribute_edit, span_for_box, LiveSession, SessionCommand, SessionEffect};
use its_alive::ui::{hit_stack, layout, Point};

const SRC: &str = r#"global unread : number = 40
page start() {
    render {
        boxed {
            post "Inbox";
        }
        boxed {
            post "compose";
        }
        boxed {
            post (unread + 2) ++ " unread messages";
        }
    }
}"#;

/// Apply one edit-producing command; anything but an applied edit
/// becomes an error.
fn apply_edit(session: &mut LiveSession, command: SessionCommand) -> Result<(), String> {
    let effects = session.apply(command);
    match effects.first() {
        Some(SessionEffect::EditApplied(_)) => Ok(()),
        _ => Err(format!("edit not applied: {effects:?}")),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = LiveSession::new(SRC)?;
    println!("=== live view ===");
    print!("{}", session.live_view());

    // The user taps the screen at row 1 ("compose"). Nested selection
    // (§5): the hit stack lists every box under the finger.
    let display = session.display_tree().ok_or("no view")?;
    let tree = layout(&display);
    let stack = hit_stack(&tree, Point::new(0, 1));
    println!("\nhit stack at (0,1): {stack:?}");
    let path = stack.last().expect("tapped a box").clone();

    // Selecting the box highlights its statement in the code view.
    let span = span_for_box(session.system().program(), &display, &path)
        .expect("created by a boxed statement");
    println!("\nselected statement:\n{}", span.slice(session.source()));
    let id = display
        .descendant(&path)
        .expect("box")
        .source
        .expect("has id");

    // The user picks "border" from the property menu: a statement is
    // INSERTED into the code. The session resolves the selected box
    // against its current display and source when the command arrives.
    let edit = attribute_edit(
        session.source(),
        session.system().program(),
        id,
        Attr::Border,
        "1",
    )?;
    println!("\ncode edit: {edit}");
    apply_edit(
        &mut session,
        SessionCommand::AttrEdit {
            path: path.clone(),
            attr: "border".to_string(),
            value: "1".to_string(),
        },
    )?;
    println!("\n=== live view after adding a border ===");
    print!("{}", session.live_view());

    // Now the margin, twiddled twice — the second manipulation REWRITES
    // the value in place instead of inserting a duplicate statement.
    for margin in ["1", "3"] {
        apply_edit(
            &mut session,
            SessionCommand::AttrEdit {
                path: path.clone(),
                attr: "margin".to_string(),
                value: margin.to_string(),
            },
        )?;
        println!("\n=== margin := {margin} ===");
        print!("{}", session.live_view());
    }

    // Bidirectional evaluation: the user selects the rendered unread
    // counter and types the value they want to see. The leaf's
    // provenance is inverted into ranked candidate repairs — the best
    // one rewrites the most local literal, leaving the computation (and
    // the `unread` global) intact.
    println!("\n=== value repair: \"42 unread messages\" -> \"41 unread messages\" ===");
    let effects = session.apply(SessionCommand::ManipulateAt {
        path: vec![2],
        leaf: 0,
        value: "41 unread messages".to_string(),
    });
    let [SessionEffect::Repairs(repairs)] = effects.as_slice() else {
        return Err(format!("no repairs offered: {effects:?}").into());
    };
    for (i, candidate) in repairs.iter().enumerate() {
        println!("  [{i}] {}", candidate.description);
    }
    apply_edit(&mut session, SessionCommand::ApplyRepair(0))?;
    println!("\n=== live view after the repair ===");
    print!("{}", session.live_view());

    println!("\n=== final code (the manipulations are enshrined) ===");
    println!("{}", session.source());
    assert_eq!(session.source().matches("box.margin").count(), 1);
    assert!(session.source().contains("(unread + 1)"));
    Ok(())
}
