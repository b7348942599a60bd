//! E-frame — the frame loop on steady-state gallery and feed workloads:
//! one interaction through `LiveSession::apply`, which renders the new
//! frame, plus a `LiveSession::live_view` read of it, with the render
//! memo off and on.
//!
//! The session lays out and paints every new display generation from
//! scratch. Before timing, each arm walks `STEPS` interactions and
//! checks at every step that the live view is byte-identical to
//! `render_to_text(&layout(root))`. The timing section is written to
//! `BENCH_frame_pipeline.json`.

use alive_bench::{feed_session, feed_touch, gallery_session, tap};
use alive_live::LiveSession;
use alive_testkit::Bench;
use alive_ui::{layout, render_to_text};
use std::hint::black_box;

const N: usize = 64;
const STEPS: usize = 24;

/// A workload's session builder: `(boxes, memo)`.
type SessionOf = fn(usize, bool) -> LiveSession;

/// One interaction on a workload session; `step` counts interactions.
type Step = fn(&mut LiveSession, usize);

/// Steady-state gallery step: tap the already-selected tile. The
/// display is invalidated and re-rendered, but no subtree changes —
/// the paper's "reuse box tree elements that have not changed" case.
fn gallery_retap(session: &mut LiveSession, _step: usize) {
    tap(session, &[1]);
}

/// Walk `STEPS` interactions, asserting at every step that the live
/// view equals a from-scratch layout + paint of the display tree.
fn check_byte_identity(name: &str, session: &mut LiveSession, step_fn: Step) {
    for step in 0..STEPS {
        step_fn(session, step);
        let view = session.live_view();
        let root = session.display_tree().expect("session has a view");
        assert_eq!(
            view,
            render_to_text(&layout(&root)),
            "{name}: view diverged at step {step}"
        );
    }
}

fn main() {
    let mut bench = Bench::from_args("frame_pipeline");
    let workloads: [(&str, SessionOf, Step); 2] = [
        ("gallery", gallery_session, gallery_retap),
        ("feed", feed_session, feed_touch),
    ];
    for (workload, session_of, step_fn) in workloads {
        for memo in [false, true] {
            let name = format!("{}/{workload}/{N}", if memo { "memo" } else { "plain" });
            let mut session = session_of(N, memo);
            check_byte_identity(&name, &mut session, step_fn);
            let mut step = STEPS;
            bench.bench(&name, || {
                step_fn(&mut session, step);
                step += 1;
                black_box(session.live_view())
            });
        }
    }

    // Emit the machine-readable report before `finish` consumes the
    // harness.
    let report = format!("{{\"timing\":{}}}\n", bench.to_json());
    // Anchor at the workspace root regardless of the invocation CWD.
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_frame_pipeline.json");
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    bench.finish();
}
