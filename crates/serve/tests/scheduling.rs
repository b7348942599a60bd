//! Scripted-interleaving tests for the host's scheduling protocol.
//!
//! These tests land threads in the protocol's race windows
//! *deterministically* — with rendezvous channels and the host's
//! hidden drain-park hook, never with sleeps. The hook parks the
//! draining worker at the protocol's most delicate point: after the
//! final mailbox pop (mailbox empty) and before the `scheduled` flag
//! is released, which is exactly the window where a concurrent
//! `submit` loses the schedule CAS and must be rescued by the drain's
//! mailbox re-check.

use alive_live::{SessionCommand, SessionEffect};
use alive_serve::{names, HostConfig, HostError, SessionHost};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Generous bound for waits that complete via a signal, not a sleep:
/// it only matters when a regression makes the wait hang forever.
const DEADLINE: Duration = Duration::from_secs(30);

const APP: &str = r#"
global count : number = 0
page start() {
    init { count := count + 1; }
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + 10; }
        }
    }
}
"#;

/// Install a one-shot blocking drain hook on `host`: the first drain
/// to reach the lost-wakeup window signals `entered` and then blocks
/// until `release` fires; every later drain passes straight through.
fn blocking_hook(host: &SessionHost) -> (Receiver<()>, Sender<()>) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let fired = AtomicBool::new(false);
    let entered_tx = Mutex::new(entered_tx);
    let release_rx = Mutex::new(release_rx);
    host.set_drain_park_hook(Arc::new(move |_id: u64| {
        if fired.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(tx) = entered_tx.lock() {
            let _ = tx.send(());
        }
        if let Ok(rx) = release_rx.lock() {
            let _ = rx.recv();
        }
    }));
    (entered_rx, release_tx)
}

fn view_of(effects: &[SessionEffect]) -> &str {
    match effects.first() {
        Some(SessionEffect::Frame(frame)) => &frame.view,
        other => panic!("expected a frame effect, got {other:?}"),
    }
}

/// The lost-wakeup regression (the re-check after `scheduled` is
/// released): a submit that lands between the drain's final mailbox
/// pop and its `scheduled.store(false)` sees `scheduled == true`,
/// loses the CAS, and enqueues nothing — the *drain* must re-enqueue
/// on its behalf, or the command sits in the mailbox forever.
#[test]
fn submit_in_the_lost_wakeup_window_is_still_drained() {
    let host = SessionHost::new(HostConfig::with_workers(1));
    let id = host.create_session(APP).expect("compiles");
    host.apply(id, SessionCommand::Frame).expect("settles");

    let (entered, release) = blocking_hook(&host);
    // This command's drain will park in the window. Its reply is sent
    // before the window, so waiting on it cannot deadlock.
    let first = host
        .submit(id, SessionCommand::TapPath(vec![0]))
        .expect("live");
    entered
        .recv_timeout(DEADLINE)
        .expect("drain reaches window");
    first.wait().expect("applied before the window");

    // THE WINDOW: the worker holds `scheduled == true` with an empty
    // mailbox. This submit pushes, loses the schedule CAS, and — with
    // the single worker parked inside this very drain — nobody else
    // can ever pick the session up. Only the re-check saves it.
    let rescued = host
        .submit(id, SessionCommand::TapPath(vec![0]))
        .expect("live");
    release.send(()).expect("worker is parked in the hook");

    // A lost wakeup turns this wait into a hang; the timeout converts
    // a regression into a clean failure.
    let effects = rescued
        .wait_timeout(DEADLINE)
        .expect("window submit was rescued by the drain re-check");
    assert!(!effects.is_empty());

    let effects = host.apply(id, SessionCommand::Frame).expect("serves");
    assert_eq!(
        view_of(&effects),
        "count is 21\n",
        "both taps applied exactly once (init 1 + 2×10)"
    );
    host.shutdown();
}

/// The backpressure contract: a mailbox at its high-water capacity
/// refuses further submissions with a typed overload instead of
/// queueing without bound, counts the shed in `host.overloads`, and
/// admits new work again once the backlog drains.
#[test]
fn mailbox_at_capacity_sheds_load_with_a_typed_overload() {
    let host = SessionHost::new(HostConfig {
        mailbox_capacity: 2,
        ..HostConfig::with_workers(1)
    });
    let id = host.create_session(APP).expect("compiles");
    host.apply(id, SessionCommand::Frame).expect("settles");

    let (entered, release) = blocking_hook(&host);
    let first = host
        .submit(id, SessionCommand::TapPath(vec![0]))
        .expect("live");
    entered
        .recv_timeout(DEADLINE)
        .expect("drain reaches window");
    first.wait().expect("applied before the window");

    // The worker is parked, so these stack up deterministically.
    let second = host
        .submit(id, SessionCommand::TapPath(vec![0]))
        .expect("depth 1 of 2");
    let third = host
        .submit(id, SessionCommand::TapPath(vec![0]))
        .expect("depth 2 of 2");
    let refused = host.submit(id, SessionCommand::TapPath(vec![0]));
    match refused {
        Err(HostError::Overloaded { session, depth }) => {
            assert_eq!(session, id);
            assert_eq!(depth, 2, "refusal reports the configured capacity");
        }
        other => panic!("expected a typed overload, got {other:?}"),
    }

    release.send(()).expect("worker is parked in the hook");
    second.wait_timeout(DEADLINE).expect("queued command runs");
    third.wait_timeout(DEADLINE).expect("queued command runs");

    // Shed load is refused, not queued: only the three admitted taps
    // applied. And with the backlog drained the mailbox admits again.
    let effects = host.apply(id, SessionCommand::Frame).expect("serves");
    assert_eq!(view_of(&effects), "count is 31\n");

    let snapshot = host.shutdown();
    assert_eq!(snapshot.counter(names::OVERLOADS), 1);
}

/// Work conservation across shards: while one worker is wedged inside
/// a session's drain, every other session keeps being served — the
/// free worker claims their home shards or steals across, but never
/// waits on the wedged one.
#[test]
fn a_wedged_session_does_not_wedge_the_pool() {
    let host = SessionHost::new(HostConfig::with_workers(2));
    let wedged = host.create_session(APP).expect("compiles");
    let live = host.create_session(APP).expect("compiles");
    host.apply(wedged, SessionCommand::Frame).expect("settles");
    host.apply(live, SessionCommand::Frame).expect("settles");

    let (entered, release) = blocking_hook(&host);
    let parked = host
        .submit(wedged, SessionCommand::TapPath(vec![0]))
        .expect("live");
    entered
        .recv_timeout(DEADLINE)
        .expect("drain reaches window");
    parked.wait().expect("applied before the window");

    // One of the two workers is now parked inside `wedged`'s drain.
    // The other must keep the rest of the host alive on its own.
    for _ in 0..16 {
        let ticket = host
            .submit(live, SessionCommand::TapPath(vec![0]))
            .expect("live");
        ticket
            .wait_timeout(DEADLINE)
            .expect("the free worker serves other sessions");
    }
    let effects = host.apply(live, SessionCommand::Frame).expect("serves");
    assert_eq!(view_of(&effects), format!("count is {}\n", 1 + 16 * 10));

    release.send(()).expect("worker is parked in the hook");
    let snapshot = host.shutdown();
    // Quiesced accounting: every worker microsecond is attributed.
    assert_eq!(
        snapshot.counter(names::WORKER_BUSY_US)
            + snapshot.counter(names::WORKER_PARKED_US)
            + snapshot.counter(names::WORKER_STEAL_SCAN_US),
        snapshot.counter(names::WORKER_WALL_US),
        "busy + parked + steal_scan must equal wall exactly"
    );
}
