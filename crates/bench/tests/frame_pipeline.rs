//! E-frame property: a 256-step seed-replayable random walk of taps,
//! label edits, undo/redo, injected faults, and quarantined edits over
//! the gallery and feed workloads with the render memo on, asserting at
//! every step that the session's live view (memoized render,
//! generation-keyed view string, layout and paint of each new
//! generation) is byte-identical to a layout + paint of its display
//! tree computed here from scratch.
//!
//! Replay a failure with
//! `ALIVE_TESTKIT_SEED=0x… cargo test -p alive-bench --test frame_pipeline`.

use alive_bench::{feed_session, gallery_session};
use alive_core::Prim;
use alive_live::{EditOutcome, LiveSession};
use alive_testkit::{check, Config, FaultPlan, NoShrink, Rng};
use alive_ui::{layout, render_to_text};

const TILES: usize = 12;
const STEPS: usize = 256;

/// Workload-specific edit material: two interchangeable label variants
/// (both type-correct, used as the applied-edit toggle), a
/// type-correct-but-faulting render replacement that must quarantine,
/// and a primitive the workload evaluates (the fault-injection target).
/// The toggle and quarantine patterns are disjoint, so either edit is
/// always available regardless of the other's history.
struct Workload {
    label: &'static str,
    toggle_a: &'static str,
    toggle_b: &'static str,
    quarantine_from: &'static str,
    quarantine_to: &'static str,
    prim: Prim,
}

const GALLERY: Workload = Workload {
    label: "gallery",
    toggle_a: "\"gallery of \"",
    toggle_b: "\"showing \"",
    // A well-typed out-of-range read: render faults at the first tile.
    quarantine_from: "\"tile #\" ++ i",
    quarantine_to: "\"tile #\" ++ list.nth(tiles, 0 - 1)",
    prim: Prim::ListLength,
};

const FEED: Workload = Workload {
    label: "feed",
    toggle_a: "\" taps)\"",
    toggle_b: "\" pokes)\"",
    // A well-typed out-of-range read: render faults at the first row.
    quarantine_from: "\"row value \" ++ item",
    quarantine_to: "\"row value \" ++ list.nth(items, 0 - 1)",
    prim: Prim::ListNth,
};

/// The invariant: whatever the walk just did, the live view must equal
/// a from-scratch layout + paint of the current display tree, byte for
/// byte. When the session has no renderable tree at all, the fault
/// placeholder must at least be stable across reads.
fn check_view(label: &str, step: usize, session: &mut LiveSession) -> Result<(), String> {
    let view = session.live_view();
    match session.display_tree() {
        Some(root) => {
            let oracle = render_to_text(&layout(&root));
            if view != oracle {
                return Err(format!(
                    "{label}: incremental view diverged from the from-scratch \
                     oracle at step {step}\n--- incremental ---\n{view}\
                     --- from scratch ---\n{oracle}"
                ));
            }
        }
        None => {
            let again = session.live_view();
            if view != again {
                return Err(format!("{label}: unstable placeholder at step {step}"));
            }
        }
    }
    Ok(())
}

/// Swap between the two label variants. The outcome is deliberately not
/// asserted: a still-pending injected fault can legitimately quarantine
/// even a benign edit, and the byte-identity check below holds either
/// way.
fn toggle_edit(session: &mut LiveSession, w: &Workload) {
    let src = session.source().to_string();
    let new = if src.contains(w.toggle_a) {
        src.replace(w.toggle_a, w.toggle_b)
    } else {
        src.replace(w.toggle_b, w.toggle_a)
    };
    let _ = session.edit_source(&new);
}

/// Submit well-typed code whose first render must fault, and insist the
/// session quarantines it (reverting source and machine).
fn quarantine_edit(session: &mut LiveSession, w: &Workload, step: usize) -> Result<(), String> {
    let src = session.source().to_string();
    if !src.contains(w.quarantine_from) {
        return Err(format!(
            "{}: quarantine pattern missing at step {step} — the walk corrupted the source",
            w.label
        ));
    }
    let new = src.replace(w.quarantine_from, w.quarantine_to);
    match session.edit_source(&new) {
        EditOutcome::Quarantined { .. } => {
            if session.source() != src {
                return Err(format!(
                    "{}: quarantine at step {step} did not revert the source",
                    w.label
                ));
            }
            Ok(())
        }
        other => Err(format!(
            "{}: faulting edit at step {step} was not quarantined (applied: {})",
            w.label,
            other.is_applied()
        )),
    }
}

/// Arm a deterministic fault on an upcoming primitive evaluation or
/// transition. Installing replaces any earlier plan; counters restart.
fn inject_fault(rng: &mut Rng, session: &mut LiveSession, w: &Workload) {
    let plan = if rng.gen_bool() {
        FaultPlan::new().fail_prim(w.prim, 1 + rng.below(3) as u64)
    } else {
        FaultPlan::new().throttle_any_fuel(1 + rng.below(3) as u64, rng.below(2) as u64)
    };
    session.system_mut().set_fault_injector(plan.shared());
}

fn tap_tile(
    rng: &mut Rng,
    session: &mut LiveSession,
    w: &Workload,
    step: usize,
) -> Result<(), String> {
    // Child 0 is the header; 1..=TILES are the interactive boxes, and
    // the tree keeps that shape across every edit in the walk.
    let tile = rng.gen_range(1..TILES + 1);
    session
        .tap_path(&[tile])
        .map_err(|e| format!("{}: tap [{tile}] failed at step {step}: {e}", w.label))
}

fn walk(seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let mut gallery = gallery_session(TILES, true);
    let mut feed = feed_session(TILES, true);
    for step in 0..STEPS {
        {
            let (session, w) = if rng.gen_bool() {
                (&mut gallery, &GALLERY)
            } else {
                (&mut feed, &FEED)
            };
            match rng.below(10) {
                0..=3 => tap_tile(&mut rng, session, w, step)?,
                4 | 5 => toggle_edit(session, w),
                6 => quarantine_edit(session, w, step)?,
                7 => {
                    if rng.gen_bool() {
                        session.undo();
                    } else {
                        session.redo();
                    }
                }
                8 => {
                    inject_fault(&mut rng, session, w);
                    tap_tile(&mut rng, session, w, step)?;
                }
                // Idle step: the checks below still read the view, so
                // this exercises the generation-keyed memo hit.
                _ => {}
            }
        }
        // Check both sessions every step — the untouched one must keep
        // returning the identical frame (a pure view-memo read).
        check_view("gallery", step, &mut gallery)?;
        check_view("feed", step, &mut feed)?;
    }
    Ok(())
}

#[test]
fn incremental_pipeline_is_byte_identical_along_a_random_walk() {
    check(
        "frame_pipeline/random_walk",
        Config::with_cases(3),
        |rng| NoShrink(rng.next_u64()),
        |input| walk(input.0),
    );
}
