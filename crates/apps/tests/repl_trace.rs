//! End-to-end test of the `alive-repl` binary: pipe a script into it,
//! cut the `:trace` dump out of its output and replay it. The replay
//! must land on the source the repl listed with `:src`.

use alive_live::SessionTrace;
use std::io::Write;
use std::process::{Command, Stdio};

const SCRIPT: &str = "\
:tap 1
:poke 0 0 -- 99
:repair 0
:attredit 0 margin -- 2
:undo
:redo
:trace
:src
:quit
";

#[test]
fn repl_trace_replays_to_the_listed_source() {
    let mut repl = Command::new(env!("CARGO_BIN_EXE_alive-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("alive-repl starts");
    repl.stdin
        .take()
        .expect("piped stdin")
        .write_all(SCRIPT.as_bytes())
        .expect("script written");
    let output = repl.wait_with_output().expect("alive-repl exits");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(!stdout.contains("failed"), "a command failed:\n{stdout}");

    // Each command's output follows its prompt.
    let outputs: Vec<&str> = stdout.split("alive> ").collect();
    let at = outputs
        .iter()
        .position(|out| out.starts_with("#alive-trace v2\n"))
        .expect("a :trace dump");
    // The recorded commands are exactly the typed ones, minus the colons.
    let typed: String = SCRIPT
        .lines()
        .take(6)
        .map(|l| format!("{}\n", &l[1..]))
        .collect();
    assert!(outputs[at].ends_with(&typed), "{}", outputs[at]);

    let trace = SessionTrace::parse(outputs[at]).expect("the dump parses");
    let replayed = trace.replay().expect("replays");
    let listing: String = replayed
        .source()
        .lines()
        .enumerate()
        .map(|(i, line)| format!("{:>4} | {line}\n", i + 1))
        .collect();
    assert_eq!(outputs[at + 1], listing);
    assert!(replayed.source().contains("box.margin := 2;"));
}
