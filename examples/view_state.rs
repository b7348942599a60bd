//! View-state encapsulation (`remember`) — the paper's §7 future work.
//!
//! §5: "the value of a slider widget must be defined as a global
//! variable, which is then passed into render code". With `remember`,
//! each slider instance owns its value; the model stays clean.
//!
//! Run with `cargo run --example view_state`.

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

const SRC: &str = r##"// Three independent sliders, no globals at all.
fun bar(value : number) : string pure {
    str.repeat("#", value) ++ str.repeat(".", 10 - value)
}

page start() {
    render {
        for i in 0 .. 3 {
            boxed {
                box.horizontal := true;
                boxed {
                    remember level : number = 5;
                    boxed { post "[" ++ bar(level) ++ "]"; }
                    boxed {
                        post " - ";
                        on tap { if level > 0 { level := level - 1; } }
                    }
                    boxed {
                        post " + ";
                        on tap { if level < 10 { level := level + 1; } }
                    }
                }
                boxed { post "slider " ++ i; }
            }
        }
    }
}"##;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = LiveSession::new(SRC)?;
    println!("=== three sliders, each with private state ===");
    print!("{}", session.live_view());
    println!(
        "\n(model store: {} — empty! the values live in {} view-state slots)",
        session.system().store(),
        session.system().widgets().len()
    );

    // Drag slider 1 down twice, slider 2 up three times.
    for _ in 0..2 {
        send(&mut session, SessionCommand::TapPath(vec![1, 0, 1]))?; // second row, inner box, "-"
    }
    for _ in 0..3 {
        send(&mut session, SessionCommand::TapPath(vec![2, 0, 2]))?; // third row, inner box, "+"
    }
    println!("\n=== after dragging two sliders independently ===");
    print!("{}", session.live_view());

    // A live edit: restyle the bar while the sliders hold their values.
    let edited = session.source().replace("\"#\"", "\"=\"");
    assert!(edit_applied(&mut session, edited));
    println!("\n=== after a live edit (view state resets with the view's code) ===");
    print!("{}", session.live_view());
    println!(
        "\nper §4.2 discipline, UPDATE cleared the slots: {} slots re-initialized",
        session.system().widgets().len()
    );
    Ok(())
}
