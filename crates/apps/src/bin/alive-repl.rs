//! `alive-repl` — an interactive live programming console.
//!
//! Drives a [`LiveSession`] from stdin, so it works interactively and
//! scripted (`alive-repl < script`). The split-screen experience of the
//! paper's Figure 2 is approximated by `:view` (live view) and `:src`
//! (code view), with `:where` / `:find` implementing the bidirectional
//! navigation.
//!
//! Every state-changing interaction goes through the session protocol
//! ([`SessionCommand`] → [`SessionEffect`]): the repl is one observer
//! among many a host could attach, with no privileged side channel.
//! Protocol commands are typed in their wire form behind a colon
//! (`:tap 1 0`, `:poke 0 0 -- 99`) and parsed by [`parse_commands`].
//! Each command sent is recorded in a [`SessionTrace`], so `:trace`
//! prints a replayable session: what was typed, minus the colons.
//!
//! ```text
//! $ cargo run -p alive-apps --bin alive-repl
//! alive> :help
//! ```

use alive_core::system::SystemConfig;
use alive_live::{
    box_source_at, boxes_for_cursor, format_metrics_snapshot, parse_commands, span_for_box,
    FrameSnapshot, LiveSession, Registry, SessionCommand, SessionEffect, SessionError,
    SessionTrace, TxPhase, UndoOutcome,
};
use alive_ui::{layout, render_to_ansi};
use std::io::{self, BufRead, Write};

const HELP: &str = "\
commands:
  :view                 render the live view (ANSI colors)
  :src                  show the current source with line numbers
  :tap <i> [<j> ...]    tap the box at a path, e.g. `:tap 1 0`
  :back                 press the back button
  :editbox <path...> -- <text>   edit a box's text (fires onedit)
  :poke <path...> <leaf> -- <value>  ask for a rendered value to become
                        <value>; answers with ranked candidate repairs
  :repair <n>           apply candidate <n> of the last :poke offer
  :attredit <path...> <name> -- <expr>   set a box attribute (margin,
                        background, ...) to an expression, in code
  :edit                 replace the source; end input with a single `.`
  :undo                 undo the most recent applied edit
  :redo                 redo the most recently undone edit
  :fig2 [<path...>]     the Figure 2 split view (optionally select a box)
  :where <path...>      box -> code: show the boxed statement for a box
  :find <line>:<col>    code -> boxes: which boxes does this cursor make?
  :stack                show the page stack and model store
  :examples             evaluate the program's `example` probes against
                        the live model (expect clauses report ok/fail)
  :metrics              session metrics snapshot: counters (frames rendered,
                        VM cache hits) and histograms (frame eval, layout
                        and paint µs, memo reuse per frame)
  :trace                dump the session trace (replayable)
  :save <file>          snapshot the model (persistent data) to a file
  :restore <file>       restore a model snapshot against the current code
  :demo <name>          load a demo: counter | calculator | mortgage | shopping | life
  :help                 this text
  :quit                 exit
Any other single-line protocol command works in its wire form behind a
colon, e.g. `:tap-at 3 1`, `:txopen`, `:txcommit 1`.";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let initial = match args.get(1).map(String::as_str) {
        Some("mortgage") => alive_apps::mortgage::mortgage_src(6),
        Some("shopping") => alive_apps::SHOPPING_SRC.to_string(),
        Some(path) if std::path::Path::new(path).exists() => {
            std::fs::read_to_string(path).expect("readable file")
        }
        _ => alive_apps::COUNTER_SRC.to_string(),
    };
    // One registry for the whole repl run: `:metrics` reports over it,
    // and `:demo` swaps the program while the counters keep counting.
    let registry = Registry::new();
    let mut session = match start(&initial, &registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start: {e}");
            std::process::exit(1);
        }
    };
    let mut trace = SessionTrace::new(initial);
    println!("its-alive REPL — :help for commands");
    show_view(&mut session);

    let stdin = io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("alive> ");
        io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else { break };
        let line = line.trim();
        match dispatch(&mut session, &mut trace, &registry, line, &mut lines) {
            Flow::Continue => {}
            Flow::Quit => break,
        }
    }
}

fn start(source: &str, registry: &Registry) -> Result<LiveSession, SessionError> {
    LiveSession::observed(source, SystemConfig::default(), false, registry)
}

enum Flow {
    Continue,
    Quit,
}

fn dispatch(
    session: &mut LiveSession,
    trace: &mut SessionTrace,
    registry: &Registry,
    line: &str,
    lines: &mut dyn Iterator<Item = io::Result<String>>,
) -> Flow {
    let (cmd, rest) = match line.split_once(' ') {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "" => {}
        ":quit" | ":q" => return Flow::Quit,
        ":help" | ":h" => println!("{HELP}"),
        ":view" | ":v" => show_view(session),
        ":src" => {
            for (i, l) in session.source().lines().enumerate() {
                println!("{:>4} | {l}", i + 1);
            }
        }
        ":edit" => {
            println!("enter the new source; end with a single `.` line:");
            let mut src = String::new();
            for l in &mut *lines {
                let Ok(l) = l else { break };
                if l.trim() == "." {
                    break;
                }
                src.push_str(&l);
                src.push('\n');
            }
            emit(
                trace.record(session, SessionCommand::EditSource(src)),
                "edit failed",
            );
        }
        ":fig2" => {
            let selection = match parse_path(rest) {
                Some(path) => alive_live::Selection::Box(path),
                None => alive_live::Selection::None,
            };
            let options = alive_live::SplitViewOptions {
                width: 110,
                live_pane: 36,
                ansi: false,
                zoom: 1,
            };
            print!("{}", alive_live::split_view(session, &selection, options));
        }
        ":where" => match parse_path(rest) {
            Some(path) => {
                let system = session.system();
                match system.display().content() {
                    Some(root) => match span_for_box(system.program(), root, &path) {
                        Some(span) => {
                            println!("--- boxed statement for {path:?} ---");
                            println!("{}", span.slice(session.source()));
                        }
                        None => println!("no boxed statement for {path:?}"),
                    },
                    None => println!("display is stale; :view first"),
                }
            }
            None => println!("usage: :where <path...>"),
        },
        ":find" => {
            let Some((l, c)) = rest.split_once(':') else {
                println!("usage: :find <line>:<col>");
                return Flow::Continue;
            };
            let (Ok(l), Ok(c)) = (l.trim().parse::<u32>(), c.trim().parse::<u32>()) else {
                println!("usage: :find <line>:<col>");
                return Flow::Continue;
            };
            let map = alive_syntax::SourceMap::new(session.source());
            let Some(line_span) = map.line_span(l) else {
                println!("no line {l}");
                return Flow::Continue;
            };
            let cursor = line_span.start + c.saturating_sub(1);
            let system = session.system();
            match system.display().content() {
                Some(root) => {
                    let id = box_source_at(system.program(), cursor);
                    let boxes = boxes_for_cursor(system.program(), root, cursor);
                    println!("statement {id:?} renders boxes at {boxes:?}");
                }
                None => println!("display is stale; :view first"),
            }
        }
        ":stack" => {
            let system = session.system();
            println!("page stack (bottom first):");
            for (name, arg) in system.page_stack() {
                println!("  {name}({arg})");
            }
            println!("store: {}", system.store());
            println!(
                "cost: {} steps, {:.0} simulated web ms, version {}",
                system.cost().steps,
                system.cost().prim.simulated_ms,
                system.version()
            );
        }
        ":trace" => print!("{}", trace.serialize()),
        ":save" => {
            for effect in session.apply(SessionCommand::Snapshot) {
                match effect {
                    SessionEffect::Snapshot(snapshot) => match std::fs::write(rest, &snapshot) {
                        Ok(()) => println!("model saved to {rest}"),
                        Err(e) => println!("save failed: {e}"),
                    },
                    SessionEffect::Refused(why) => println!("save failed: {why}"),
                    _ => {}
                }
            }
        }
        ":restore" => match std::fs::read_to_string(rest) {
            Ok(snapshot) => emit(
                trace.record(session, SessionCommand::Restore(snapshot)),
                "restore failed",
            ),
            Err(e) => println!("cannot read {rest}: {e}"),
        },
        ":demo" => {
            let src = match rest {
                "counter" => alive_apps::COUNTER_SRC.to_string(),
                "calculator" => alive_apps::CALCULATOR_SRC.to_string(),
                "mortgage" => alive_apps::mortgage::mortgage_src(6),
                "shopping" => alive_apps::SHOPPING_SRC.to_string(),
                "life" => alive_apps::life::life_src(10),
                other => {
                    println!(
                        "unknown demo `{other}` (counter | calculator | mortgage | shopping | life)"
                    );
                    return Flow::Continue;
                }
            };
            match start(&src, registry) {
                Ok(new_session) => {
                    *session = new_session;
                    *trace = SessionTrace::new(src);
                    show_view(session);
                }
                Err(e) => println!("demo failed: {e}"),
            }
        }
        _ => {
            // Everything else is a protocol command in its wire form.
            let Some(wire) = line.strip_prefix(':') else {
                println!("unknown command `{cmd}` — :help");
                return Flow::Continue;
            };
            let fail_ctx = format!("{} failed", cmd.trim_start_matches(':'));
            match parse_commands(wire) {
                Ok(commands) => {
                    for command in commands {
                        emit(trace.record(session, command), &fail_ctx);
                    }
                }
                Err(e) => println!("{fail_ctx}: {}", e.message),
            }
        }
    }
    Flow::Continue
}

fn parse_path(args: &str) -> Option<Vec<usize>> {
    if args.trim().is_empty() {
        return None;
    }
    args.split_whitespace().map(|p| p.parse().ok()).collect()
}

/// Print a frame: fault banner (if degraded), then the ANSI-rendered
/// box tree, falling back to the plain view text when the session has
/// never rendered successfully.
fn render_frame(frame: &FrameSnapshot) {
    if let Some(banner) = &frame.banner {
        println!("{banner}");
    }
    match &frame.tree {
        Some(root) => print!("{}", render_to_ansi(&layout(root))),
        None => print!("{}", frame.view),
    }
}

/// Print a batch of effects the standard way. `fail_ctx` labels
/// [`SessionEffect::Refused`] (e.g. "tap failed: no box at path…").
fn emit(effects: Vec<SessionEffect>, fail_ctx: &str) {
    for effect in effects {
        match effect {
            SessionEffect::Frame(frame) => render_frame(&frame),
            SessionEffect::Refused(why) => println!("{fail_ctx}: {why}"),
            SessionEffect::Tap { .. } => {}
            SessionEffect::EditApplied(_) => println!("applied."),
            SessionEffect::EditRejected(_) => {
                println!("rejected — old program keeps running.");
            }
            SessionEffect::EditQuarantined { fault, .. } => {
                println!(
                    "quarantined — the new code faulted ({fault}); reverted to the previous source."
                );
            }
            SessionEffect::Undo { redo, outcome } => {
                let op = if redo { "redo" } else { "undo" };
                match outcome {
                    UndoOutcome::Applied => {
                        println!("{}.", if redo { "redone" } else { "undone" });
                    }
                    UndoOutcome::NothingToUndo => println!("nothing to {op}."),
                    UndoOutcome::Quarantined(fault) => match fault {
                        Some(fault) => println!(
                            "{op} quarantined — the restored code faulted ({fault}); session unchanged."
                        ),
                        None => println!("{op} rejected; session unchanged."),
                    },
                }
            }
            SessionEffect::Metrics(snapshot) => {
                println!("{}", format_metrics_snapshot(&snapshot));
            }
            SessionEffect::Restored(report) => {
                for (name, why) in &report.skipped {
                    println!("skipped `{name}`: {why}");
                }
            }
            SessionEffect::Tx { tx, phase } => match phase {
                TxPhase::Open { edits } => println!("tx#{tx} open ({edits} edits staged)."),
                TxPhase::Canary { canary, fleet } => {
                    println!("tx#{tx} canary: {canary}/{fleet} sessions updated; watching.");
                }
                TxPhase::Promoted { updated, skipped } => {
                    println!("tx#{tx} promoted to {updated} sessions ({skipped} skipped).");
                }
                TxPhase::RolledBack { reverted, reason } => {
                    println!("tx#{tx} rolled back ({reverted} sessions restored): {reason}");
                }
                TxPhase::Aborted => println!("tx#{tx} aborted."),
            },
            SessionEffect::Repairs(repairs) => {
                println!("candidate repairs (apply with :repair <n>):");
                for (i, r) in repairs.iter().enumerate() {
                    println!("  [{i}] {}", r.description);
                }
            }
            SessionEffect::Overloaded { depth } => {
                println!("{fail_ctx}: overloaded (mailbox depth {depth}); retry later.");
            }
            SessionEffect::Examples(probes) => {
                if probes.is_empty() {
                    println!("no examples — add `example name = expr [expect expr]` items.");
                } else {
                    println!("live examples:");
                    for probe in &probes {
                        println!("  {}", probe.render_line());
                    }
                }
            }
            SessionEffect::Source(_) | SessionEffect::Snapshot(_) => {}
        }
    }
}

/// Render the current frame. Viewing changes nothing, so it is not
/// recorded in the trace.
fn show_view(session: &mut LiveSession) {
    for effect in session.apply(SessionCommand::Frame) {
        if let SessionEffect::Frame(frame) = effect {
            render_frame(&frame);
        }
    }
}
