//! Babylonian example probes are a *measured* property of the session:
//! this suite pins the probe lines byte-for-byte across the two
//! evaluation engines and across the memo hit/recompute paths.
//!
//! The probes feed the repl's `:examples` and the alive-watch side
//! panel, so "byte-identical" here is exactly "the user sees the same
//! continuous feedback no matter which engine or cache path served it".

use its_alive::core::system::{EvalEngine, SystemConfig};
use its_alive::live::{LiveSession, Registry, SessionCommand, SessionEffect};

/// Tap the box at `path`, asserting the session did not refuse it.
fn tap(session: &mut LiveSession, path: &[usize]) {
    let effects = session.apply(SessionCommand::TapPath(path.to_vec()));
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "tap {path:?} refused: {effects:?}"
    );
}

/// Submit `source` as a live edit; whether it was applied.
fn edit_applied(session: &mut LiveSession, source: &str) -> bool {
    matches!(
        session
            .apply(SessionCommand::EditSource(source.to_string()))
            .first(),
        Some(SessionEffect::EditApplied(_))
    )
}

fn session_with(source: &str, engine: EvalEngine) -> LiveSession {
    LiveSession::observed(
        source,
        SystemConfig {
            engine,
            ..SystemConfig::default()
        },
        false,
        &Registry::new(),
    )
    .expect("session starts")
}

fn probe_lines(session: &mut LiveSession) -> Vec<String> {
    session
        .examples()
        .iter()
        .map(its_alive::live::ExampleProbe::render_line)
        .collect()
}

/// Every corpus program declares examples; the VM-backed and
/// bigstep-backed sessions must render identical probe lines on the
/// first frame and after every step of an identical interaction walk.
#[test]
fn probes_are_byte_identical_across_vm_and_bigstep_sessions() {
    for entry in alive_corpus::corpus() {
        let name = entry.spec.name();
        let mut vm = session_with(&entry.source, EvalEngine::Vm);
        let mut bs = session_with(&entry.source, EvalEngine::Bigstep);
        let first = probe_lines(&mut vm);
        assert!(
            !first.is_empty(),
            "{name}: corpus programs declare examples"
        );
        assert_eq!(first, probe_lines(&mut bs), "{name}: first-frame probes");
        for step in 0..entry.spec.size.rows() + 2 {
            // Misses are legal and identical across engines.
            vm.apply(SessionCommand::TapPath(vec![step]));
            bs.apply(SessionCommand::TapPath(vec![step]));
            assert_eq!(
                probe_lines(&mut vm),
                probe_lines(&mut bs),
                "{name}: probes after tap {step}"
            );
        }
    }
}

const APP: &str = r#"
global count : number = 0
page start() {
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + 1; }
        }
    }
}
example live_count = count
example doubled = count * 2 expect count + count
"#;

/// Probes evaluate on every read: a repeat read and a read after a
/// version-bumping edit render the same bytes.
#[test]
fn memo_hits_and_recomputes_render_identical_probe_lines() {
    let mut session = LiveSession::new(APP).expect("starts");
    let first = probe_lines(&mut session);
    assert_eq!(first, vec!["live_count = 0", "doubled = 0 ok"]);

    // Second read: identical bytes.
    let again = probe_lines(&mut session);
    assert_eq!(first, again);

    // A benign edit bumps the program version; the probes evaluate to
    // the same bytes, since the model is untouched.
    let touched = format!("{APP}// touched\n");
    assert!(edit_applied(&mut session, &touched));
    let after_edit = probe_lines(&mut session);
    assert_eq!(first, after_edit);

    // A model change shows the new values: the probes are continuously
    // live.
    tap(&mut session, &[0]);
    assert_eq!(
        probe_lines(&mut session),
        vec!["live_count = 1", "doubled = 2 ok"]
    );
}
