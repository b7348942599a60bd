//! E4 per corpus program: the live-loop benchmark's tap stream on each
//! of the 20 corpus programs, with the render memo off
//! (`LiveSession::new`) and on (`LiveSession::with_memo`).
//!
//! Each run starts a fresh session and sends `COMMANDS` commands: `Back`
//! half the time a page is pushed, else an `EditBox` on an editable box
//! a fifth of the time, else a tap on a tappable one (a frame read if
//! there is none), every target picked from the frame the last command
//! answered with. The seed is per program, so both arms see the same
//! stream. Only `apply` is timed. A cell is the median of `RUNS` runs in
//! µs per command. Run with `cargo bench -p alive-bench --bench
//! corpus_taps`; the table is recorded in EXPERIMENTS.md E4.

use alive_core::Attr;
use alive_live::{LiveSession, SessionCommand};
use alive_testkit::Rng;
use std::time::Instant;

const COMMANDS: usize = 64;
const RUNS: usize = 5;

/// The next command of the tap stream, picked from the current frame.
fn next_command(session: &mut LiveSession, rng: &mut Rng) -> SessionCommand {
    let tree = session.display_tree().expect("corpus programs render");
    let paths = |attr: Attr| {
        let mut out = Vec::new();
        tree.walk(&mut |path, node| {
            if node.attr(attr).is_some() {
                out.push(path.to_vec());
            }
        });
        out
    };
    let editable = paths(Attr::OnEdit);
    if session.system().page_stack().len() > 1 && rng.below(2) == 0 {
        return SessionCommand::Back;
    }
    if !editable.is_empty() && rng.below(5) == 0 {
        let path = rng.choose(&editable).clone();
        let text = rng.below(100).to_string();
        return SessionCommand::EditBox { path, text };
    }
    let tappable = paths(Attr::OnTap);
    if tappable.is_empty() {
        return SessionCommand::Frame;
    }
    SessionCommand::TapPath(rng.choose(&tappable).clone())
}

/// µs per command of one run of the stream seeded with `seed`.
fn run(source: &str, seed: u64, memo: bool) -> f64 {
    let mut session = if memo {
        LiveSession::with_memo(source)
    } else {
        LiveSession::new(source)
    }
    .expect("corpus programs compile");
    let mut rng = Rng::new(seed);
    let mut spent = 0.0;
    for _ in 0..COMMANDS {
        let command = next_command(&mut session, &mut rng);
        let start = Instant::now();
        session.apply(command);
        spent += start.elapsed().as_secs_f64();
    }
    spent * 1e6 / COMMANDS as f64
}

fn main() {
    println!("E4. Tap stream per corpus program ({COMMANDS} commands; µs/command, median of {RUNS} runs)");
    println!("program          | memo off | memo on | on/off");
    for (index, entry) in alive_corpus::corpus().iter().enumerate() {
        let [off, on] = [false, true].map(|memo| {
            let mut runs: Vec<f64> = (0..RUNS)
                .map(|_| run(&entry.source, 0xE4 ^ index as u64, memo))
                .collect();
            runs.sort_by(f64::total_cmp);
            runs[RUNS / 2]
        });
        let name = entry.spec.name();
        println!("{name:16} | {off:8.1} | {on:7.1} | {:6.2}", on / off);
    }
}
