//! `alive-watch` — live programming against your own editor.
//!
//! Watches a program file; every time it changes on disk, the running
//! session applies it as a live UPDATE (or reports why it was rejected)
//! and reprints the view. The model survives across saves, so this is
//! the paper's workflow with any text editor standing in for the
//! built-in code view.
//!
//! All session interaction goes through the command/effect protocol
//! ([`SessionCommand`] → [`SessionEffect`]): the watcher is a thin
//! effect printer, exactly like a remote observer attached to a host.
//!
//! `--commands <file>` watches a second file in the protocol's wire
//! format ([`parse_commands`]): append `poke 0 0 -- 99` to select a
//! rendered value and see ranked repairs, `repair 0` to apply one, or
//! `attredit 0 margin -- 2` to manipulate an attribute. Repairs and
//! attribute edits rewrite the *watched program file* — the paper's
//! "changes are enshrined in code", with your editor as the code view.
//!
//! ```text
//! $ cargo run -p alive-apps --bin alive-watch -- path/to/app.alive
//! $ cargo run -p alive-apps --bin alive-watch -- app.alive --once
//! $ cargo run -p alive-apps --bin alive-watch -- app.alive --commands cmds.txt
//! ```
//!
//! `--once` renders once (applying any command file once) and exits
//! (used by tests and CI).

use alive_live::{parse_commands, FrameSnapshot, LiveSession, SessionCommand, SessionEffect};
use alive_ui::{layout, AnsiFramebuffer};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, SystemTime};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut once = false;
    let mut commands_path: Option<String> = None;
    let mut iter = args.iter();
    let usage = || {
        eprintln!("usage: alive-watch <program-file> [--once] [--commands <file>]");
        std::process::exit(2);
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--commands" => match iter.next() {
                Some(file) => commands_path = Some(file.clone()),
                None => usage(),
            },
            other if path.is_none() => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else {
        usage();
        unreachable!()
    };

    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut session = match LiveSession::new(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path} does not start:\n{e}");
            std::process::exit(1);
        }
    };
    let mut frame = AnsiFramebuffer::new();
    if once {
        show(&mut session, &path, &mut frame);
        if let Some(cmds) = &commands_path {
            run_command_file(&mut session, &path, cmds, &mut frame);
        }
        return;
    }

    match &commands_path {
        Some(cmds) => println!(
            "watching {path} (commands from {cmds}) — save either file to drive the session (ctrl-c to stop)"
        ),
        None => println!("watching {path} — save the file to live-update (ctrl-c to stop)"),
    }
    show(&mut session, &path, &mut frame);
    let mut last_seen = mtime(&path);
    let mut last_cmds = commands_path.as_deref().and_then(mtime);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = mtime(&path);
        if now != last_seen {
            last_seen = now;
            if let Ok(new_source) = std::fs::read_to_string(&path) {
                if new_source != session.source() {
                    apply_save(&mut session, &path, &mut frame, new_source);
                }
            }
        }
        let Some(cmds) = &commands_path else { continue };
        let now = mtime(cmds);
        if now == last_cmds || now.is_none() {
            continue;
        }
        last_cmds = now;
        run_command_file(&mut session, &path, cmds, &mut frame);
        // Repairs and attribute edits changed the source: write it back
        // to the watched file (the code view), without re-triggering the
        // save path.
        last_seen = mtime(&path);
    }
}

/// Read and apply one command file through the protocol, print the
/// textual effects, repaint, and enshrine any source change back into
/// the watched program file.
fn run_command_file(
    session: &mut LiveSession,
    program_path: &str,
    cmds_path: &str,
    frame: &mut AnsiFramebuffer,
) {
    let Ok(text) = std::fs::read_to_string(cmds_path) else {
        println!("\n— cannot read {cmds_path} —");
        return;
    };
    let commands = match parse_commands(&text) {
        Ok(commands) => commands,
        Err(e) => {
            println!("\n— {cmds_path}: {e} —");
            return;
        }
    };
    if commands.is_empty() {
        return;
    }
    let before = session.source().to_string();
    println!("\n— {cmds_path}: {} command(s) —", commands.len());
    for command in commands {
        for effect in session.apply(command) {
            print_command_effect(&effect);
        }
    }
    if session.source() != before {
        match std::fs::write(program_path, session.source()) {
            Ok(()) => println!("(code updated — written back to {program_path})"),
            Err(e) => println!("cannot write {program_path}: {e}"),
        }
    }
    show(session, program_path, frame);
}

/// Print the textual half of a command's effects; frames are handled by
/// the caller's repaint.
fn print_command_effect(effect: &SessionEffect) {
    match effect {
        SessionEffect::Repairs(repairs) => {
            println!("candidate repairs (write `repair <n>` to the command file):");
            for (i, r) in repairs.iter().enumerate() {
                println!("  [{i}] {}", r.description);
            }
        }
        SessionEffect::Refused(why) => println!("refused: {why}"),
        SessionEffect::EditApplied(_) => println!("applied."),
        SessionEffect::EditRejected(_) => println!("rejected — the old program keeps running."),
        SessionEffect::EditQuarantined { fault, .. } => {
            println!("quarantined — the new code faulted ({fault}) and was reverted.");
        }
        SessionEffect::Tap { hit } => {
            println!("tap {}", if *hit { "hit" } else { "miss" });
        }
        // The batch ends with a full repaint; skip per-command frames.
        SessionEffect::Frame(_) => {}
        other => print!("{}", other.serialize()),
    }
}

/// Apply one on-disk save through the protocol and print its effects.
fn apply_save(
    session: &mut LiveSession,
    path: &str,
    frame: &mut AnsiFramebuffer,
    new_source: String,
) {
    let effects = session.apply(SessionCommand::EditSource(new_source.clone()));
    // The edit outcome decides the presentation: a clean apply patches
    // the live frame in place (the updated view itself is the
    // feedback); anything that scrolled output forces a full repaint.
    // A program with live examples always repaints fully: its probe
    // panel sits below the frame and must re-evaluate on every save.
    let mut full_repaint = !session.system().program().examples().is_empty();
    for effect in effects {
        match effect {
            SessionEffect::EditApplied(report) if !report.dropped_anything() => {}
            SessionEffect::EditApplied(report) => {
                println!("\n— applied (version {}) —", session.system().version());
                for (name, why) in &report.dropped_globals {
                    println!("  dropped global `{name}`: {why}");
                }
                for (name, why) in &report.dropped_pages {
                    println!("  dropped page `{name}`: {why}");
                }
                full_repaint = true;
            }
            SessionEffect::EditRejected(diags) => {
                println!("\n— rejected; the old program keeps running —");
                print!("{}", diags.render(&new_source));
                // The diagnostics scrolled the frame away; the next
                // repaint must be a full one.
                frame.reset();
            }
            SessionEffect::EditQuarantined { fault, .. } => {
                println!("\n— quarantined; the new code faulted and was reverted —");
                println!("  {fault}");
                full_repaint = true;
            }
            SessionEffect::Frame(snapshot) => {
                if full_repaint {
                    frame.reset();
                    header(path);
                    println!("{}", metrics_line(session));
                }
                // A banner only accompanies a full repaint; the in-place
                // patch path keeps the frame as the whole feedback.
                paint(&snapshot, frame, full_repaint);
            }
            _ => {}
        }
    }
    // Continuous feedback: the probes re-evaluate on every save. After
    // a full repaint the panel goes below the fresh frame; the in-place
    // patch path skips it so cursor-addressed patching stays intact.
    if full_repaint {
        examples_panel(session);
    }
}

fn mtime(path: &str) -> Option<SystemTime> {
    Path::new(path).metadata().and_then(|m| m.modified()).ok()
}

fn header(path: &str) {
    println!("── {path} (live) ──");
}

/// One-line metrics footer under the header: edit outcomes, frames
/// rendered, stage p50s, and VM engine activity from the session's
/// metrics registry.
fn metrics_line(session: &LiveSession) -> String {
    use alive_core::metrics::names as vm_names;
    use alive_live::metrics::names;
    let snap = session.metrics_snapshot();
    let p50 = |name: &str| {
        snap.histogram(name)
            .and_then(|h| h.p50_us())
            .map_or_else(|| "-".to_string(), |us| format!("{us} µs"))
    };
    format!(
        "edits {} ok / {} rejected / {} quarantined · frames {} · eval p50 {} · paint p50 {} · vm {} runs / {} cache hits",
        snap.counter(names::EDITS_APPLIED),
        snap.counter(names::EDITS_REJECTED),
        snap.counter(names::EDITS_QUARANTINED),
        snap.counter(names::FRAMES_RENDERED),
        p50(names::FRAME_EVAL_US),
        p50(names::FRAME_PAINT_US),
        snap.counter(vm_names::VM_RUNS),
        snap.counter(vm_names::VM_CACHE_HITS),
    )
}

/// Paint a frame snapshot: banner (if degraded), then the box tree via
/// the framebuffer — a cursor-addressed patch when the cursor still
/// sits below the previous frame, a full paint otherwise.
fn paint(snapshot: &FrameSnapshot, frame: &mut AnsiFramebuffer, with_banner: bool) {
    if with_banner {
        if let Some(banner) = &snapshot.banner {
            println!("{banner}");
        }
    }
    match &snapshot.tree {
        Some(root) => print!("{}", frame.render(&layout(root))),
        None => {
            frame.reset();
            print!("{}", snapshot.view);
        }
    }
    std::io::stdout().flush().ok();
}

/// The Babylonian examples side panel: one line per `example` probe,
/// evaluated against the live model, expect clauses reporting ok/fail.
/// Prints nothing when the program declares no examples, so plain
/// programs keep their plain frame.
fn examples_panel(session: &mut LiveSession) {
    for effect in session.apply(SessionCommand::Examples) {
        if let SessionEffect::Examples(probes) = effect {
            if probes.is_empty() {
                return;
            }
            println!("── examples ──");
            for probe in &probes {
                println!("  {}", probe.render_line());
            }
        }
    }
}

/// Print a header plus a full frame. Used at startup and whenever
/// scrolling output (diagnostics, drop reports) has pushed the previous
/// frame away, making an in-place patch impossible.
fn show(session: &mut LiveSession, path: &str, frame: &mut AnsiFramebuffer) {
    frame.reset();
    header(path);
    let effects = session.apply(SessionCommand::Frame);
    println!("{}", metrics_line(session));
    for effect in effects {
        if let SessionEffect::Frame(snapshot) = effect {
            paint(&snapshot, frame, true);
        }
    }
    examples_panel(session);
}
