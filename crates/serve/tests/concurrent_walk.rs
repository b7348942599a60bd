//! Cross-thread property walk: every hosted session must behave
//! byte-for-byte like a solo [`LiveSession`] replaying the same command
//! log — no matter how many sibling sessions the host is juggling on
//! its worker pool at the same time.
//!
//! One thread per available CPU (at least two, so the walk exercises
//! real interleaving even on a single-core runner) drives its own
//! 256-step seed-replayable walk — the same action mix as the repo's
//! `session_random_walk` — against a shared [`SessionHost`], holding a
//! private solo session in lockstep and asserting every batch of
//! effects (frames included) is identical.
//!
//! Seed-replayable: `ALIVE_TESTKIT_SEED=0x… cargo test -p alive-serve`
//! reruns the identical walks.

use alive_live::{LiveSession, SessionCommand, SessionEffect};
use alive_serve::{HostConfig, SessionHost};
use alive_testkit::{prop, Rng};
use std::sync::Arc;

const STEPS: usize = 256;

const APP: &str = r#"
global score : number = 0
global label : string = "points"
page start() {
    init { }
    render {
        boxed {
            post label ++ ": " ++ score;
            on edited(t: string) { label := t; }
        }
        for i in 0 .. 3 {
            boxed {
                post "+" ++ (i + 1);
                on tap { score := score + i + 1; }
            }
        }
        boxed {
            post "open detail";
            on tap { push detail(score); }
        }
        boxed {
            remember local_hits : number = 0;
            post "widget " ++ local_hits;
            on tap { local_hits := local_hits + 1; }
        }
    }
}
page detail(n : number) {
    render {
        boxed { post "snapshot of " ++ n; on tap { pop; } }
    }
}
"#;

#[derive(Debug, Clone)]
enum Action {
    Tap(usize, usize),
    EditBox(usize, String),
    Back,
    SourceTweak(u8),
    Undo,
    SnapshotRoundtrip,
}

fn arb_action(rng: &mut Rng) -> Action {
    match rng.below(6) {
        0 => Action::Tap(rng.below(8), rng.below(4)),
        1 => Action::EditBox(rng.below(8), rng.string_in("0123456789", 0, 3)),
        2 => Action::Back,
        3 => Action::SourceTweak(rng.below(4) as u8),
        4 => Action::Undo,
        _ => Action::SnapshotRoundtrip,
    }
}

fn tweaked(src: &str, which: u8) -> String {
    match which {
        0 => src.replace("\": \"", "\" = \""),
        1 => src.replace("open detail", "details..."),
        2 => src.replace("score + i + 1", "score + (i + 1) * 2"),
        _ => src.replace("snapshot of ", "detail for "),
    }
}

/// Apply one command to the hosted session and the solo session and
/// assert the effect batches are identical (this is where frame
/// byte-identity lives: `FrameSnapshot` equality covers the rendered
/// view text, the box tree, the banner, and the generation counter).
fn lockstep(
    host: &SessionHost,
    id: alive_serve::SessionId,
    solo: &mut LiveSession,
    step: usize,
    command: SessionCommand,
) -> Vec<SessionEffect> {
    let hosted = host
        .apply(id, command.clone())
        .unwrap_or_else(|e| panic!("step {step}: host died: {e}"));
    let local = solo.apply(command.clone());
    assert_eq!(
        hosted, local,
        "step {step}: hosted effects diverged from solo replay for {command:?}"
    );
    hosted
}

fn walk(host: &SessionHost, seed: u64, thread: usize) {
    let id = host.create_session(APP).expect("session compiles");
    let mut solo = LiveSession::new(APP).expect("solo starts");
    let mut rng = Rng::new(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for step in 0..STEPS {
        match arb_action(&mut rng) {
            Action::Tap(a, b) => {
                let first = lockstep(host, id, &mut solo, step, SessionCommand::TapPath(vec![a]));
                if matches!(first.first(), Some(SessionEffect::Refused(_))) {
                    lockstep(
                        host,
                        id,
                        &mut solo,
                        step,
                        SessionCommand::TapPath(vec![a, b]),
                    );
                }
            }
            Action::EditBox(p, text) => {
                lockstep(
                    host,
                    id,
                    &mut solo,
                    step,
                    SessionCommand::EditBox {
                        path: vec![p],
                        text,
                    },
                );
            }
            Action::Back => {
                lockstep(host, id, &mut solo, step, SessionCommand::Back);
            }
            Action::SourceTweak(which) => {
                let new_src = tweaked(solo.source(), which);
                lockstep(
                    host,
                    id,
                    &mut solo,
                    step,
                    SessionCommand::EditSource(new_src),
                );
            }
            Action::Undo => {
                lockstep(host, id, &mut solo, step, SessionCommand::Undo);
            }
            Action::SnapshotRoundtrip => {
                let effects = lockstep(host, id, &mut solo, step, SessionCommand::Snapshot);
                let Some(SessionEffect::Snapshot(snap)) = effects.into_iter().next() else {
                    panic!("step {step}: snapshot refused");
                };
                lockstep(host, id, &mut solo, step, SessionCommand::Restore(snap));
            }
        }
    }
    // Final frame: hosted and solo end byte-identical, and the host's
    // published fan-out frame agrees with the replied one.
    let effects = lockstep(host, id, &mut solo, STEPS, SessionCommand::Frame);
    let SessionEffect::Frame(final_frame) = &effects[0] else {
        panic!("expected final frame");
    };
    let published = host
        .latest_frame(id)
        .expect("session is live")
        .expect("frames were published");
    assert_eq!(published.as_ref(), final_frame, "fan-out frame is stale");
}

#[test]
fn concurrent_walks_match_solo_replays_byte_for_byte() {
    let threads = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2);
    let host = Arc::new(SessionHost::new(HostConfig::with_workers(threads)));
    let seed = prop::seed_from_env();

    let handles: Vec<_> = (0..threads)
        .map(|thread| {
            let host = Arc::clone(&host);
            std::thread::spawn(move || walk(&host, seed, thread))
        })
        .collect();
    for handle in handles {
        if let Err(e) = handle.join() {
            std::panic::resume_unwind(e);
        }
    }

    // All sessions came from one source version: one compile total,
    // shared across every thread's session.
    assert_eq!(
        host.programs_compiled(),
        1,
        "program must be compiled once and shared"
    );
    assert_eq!(host.session_count(), threads);

    // Quiesced worker accounting, under the full adversarial walk with
    // work-stealing enabled: every worker microsecond is attributed to
    // exactly one of busy / parked / steal-scan (the identity is exact
    // because the shutdown snapshot is taken after every worker has
    // joined).
    let host = Arc::into_inner(host).expect("walk threads joined");
    let snapshot = host.shutdown();
    let busy = snapshot.counter(alive_serve::names::WORKER_BUSY_US);
    let parked = snapshot.counter(alive_serve::names::WORKER_PARKED_US);
    let scan = snapshot.counter(alive_serve::names::WORKER_STEAL_SCAN_US);
    assert_eq!(
        busy + parked + scan,
        snapshot.counter(alive_serve::names::WORKER_WALL_US),
        "busy + parked + steal_scan must equal worker wall time exactly"
    );
}
