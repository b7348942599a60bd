//! Babylonian example probes are a *measured* property of the session:
//! this suite pins the probe lines byte-for-byte across the two
//! evaluation engines and across the memo hit/recompute paths.
//!
//! The probes feed the repl's `:examples` and the alive-watch side
//! panel, so "byte-identical" here is exactly "the user sees the same
//! continuous feedback no matter which engine or cache path served it".

use its_alive::core::system::{EvalEngine, SystemConfig};
use its_alive::live::{LiveSession, Registry};

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
            let _ = vm.tap_path(&[step]);
            let _ = bs.tap_path(&[step]);
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

/// The probe cache serves repeat reads without recomputing, and both
/// the cached read and a forced recompute (after a version-bumping
/// edit) render the same bytes.
#[test]
fn memo_hits_and_recomputes_render_identical_probe_lines() {
    let mut session = LiveSession::new(APP).expect("starts");
    let first = probe_lines(&mut session);
    assert_eq!(first, vec!["live_count = 0", "doubled = 0 ok"]);
    let fresh = session.example_stats();
    assert!(fresh.computes >= 1, "first read computes");
    assert_eq!(fresh.hits, 0);

    // Second read: pure cache hit, identical bytes.
    let again = probe_lines(&mut session);
    let cached = session.example_stats();
    assert_eq!(cached.computes, fresh.computes, "no recompute on a hit");
    assert_eq!(cached.hits, fresh.hits + 1);
    assert_eq!(first, again);

    // A benign edit bumps the program version: the cache key misses,
    // the probes recompute — to the same bytes, since the model is
    // untouched.
    let touched = format!("{APP}// touched\n");
    assert!(session.edit_source(&touched).is_applied());
    let after_edit = probe_lines(&mut session);
    let recomputed = session.example_stats();
    assert!(
        recomputed.computes > cached.computes,
        "edit forces a recompute"
    );
    assert_eq!(first, after_edit);

    // A model change recomputes to the new values — continuously live,
    // not stale-cached.
    session.tap_path(&[0]).expect("tap");
    assert_eq!(
        probe_lines(&mut session),
        vec!["live_count = 1", "doubled = 2 ok"]
    );
}
