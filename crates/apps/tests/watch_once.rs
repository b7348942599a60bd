//! End-to-end test of the `alive-watch` binary in `--once` mode: it
//! paints the watched program's view and exits, and with `--commands`
//! it first applies a command file, writing a repaired program back to
//! the watched file ("changes are enshrined in code").

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const APP: &str = "\
global count : number = 10
page start() {
    render {
        boxed { post 7; }
        boxed { post \"count is \" ++ count; }
    }
}
";

/// A fresh directory holding a copy of [`APP`] as `app.alive`.
fn program_file(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("alive-watch-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("app.alive");
    std::fs::write(&program, APP).expect("program written");
    (dir, program)
}

fn watch_once(program: &Path, commands: Option<&Path>) -> (Output, String) {
    let mut watch = Command::new(env!("CARGO_BIN_EXE_alive-watch"));
    watch.arg(program).arg("--once");
    if let Some(commands) = commands {
        watch.arg("--commands").arg(commands);
    }
    let output = watch.output().expect("alive-watch runs");
    let stdout = String::from_utf8(output.stdout.clone()).expect("utf-8 output");
    (output, alive_ui::strip_ansi(&stdout))
}

#[test]
fn once_prints_the_view_and_exits() {
    let (dir, program) = program_file("view");
    let (output, stdout) = watch_once(&program, None);
    assert!(output.status.success(), "{output:?}");
    assert!(stdout.contains("7\ncount is 10\n"), "{stdout}");
    assert_eq!(std::fs::read_to_string(&program).expect("readable"), APP);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn once_with_commands_enshrines_a_repair_in_the_program_file() {
    let (dir, program) = program_file("repair");
    let commands = dir.join("cmds.txt");
    std::fs::write(&commands, "poke 0 0 -- 99\nrepair 0\n").expect("commands written");
    let (output, stdout) = watch_once(&program, Some(&commands));
    assert!(output.status.success(), "{output:?}");
    assert!(stdout.contains("99\ncount is 10\n"), "{stdout}");
    assert_eq!(
        std::fs::read_to_string(&program).expect("readable"),
        APP.replace("post 7;", "post 99;")
    );
    std::fs::remove_dir_all(dir).ok();
}
