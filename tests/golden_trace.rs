//! Golden session trace: the paper's whole §2/§3 editing session —
//! navigate, edit the term, apply I1–I3 live, go back — recorded once
//! into `tests/data/mortgage_session.trace` and replayed on every test
//! run. Any semantic drift (parser, evaluator, layout, fix-up) shows up
//! as a replay divergence here.

use its_alive::apps::mortgage;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect, SessionTrace};

const GOLDEN_PATH: &str = "tests/data/mortgage_session.trace";

/// Re-record the golden trace (run with
/// `cargo test --test golden_trace -- --ignored bless`).
fn record() -> (LiveSession, SessionTrace) {
    let src = mortgage::mortgage_src(5);
    let mut session = LiveSession::new(&src).expect("starts");
    let mut trace = SessionTrace::new(&src);
    let mut send = |session: &mut LiveSession, command: SessionCommand| {
        let effects = trace.record(session, command);
        assert!(
            !matches!(effects.first(), Some(SessionEffect::Refused(_))),
            "{effects:?}"
        );
    };
    // Open the second listing and set its term to 15 years.
    send(&mut session, SessionCommand::TapPath(vec![1, 1]));
    send(
        &mut session,
        SessionCommand::EditBox {
            path: vec![2, 0],
            text: "15".to_string(),
        },
    );
    let with_i2 = mortgage::apply_improvement_i2(&src);
    send(&mut session, SessionCommand::EditSource(with_i2));
    let with_i3 = mortgage::apply_improvement_i3(session.source());
    send(&mut session, SessionCommand::EditSource(with_i3));
    // Back to the listings, where I1's margins show.
    send(&mut session, SessionCommand::Back);
    let with_i1 = mortgage::apply_improvement_i1(session.source());
    send(&mut session, SessionCommand::EditSource(with_i1));
    (session, trace)
}

#[test]
#[ignore = "bless: regenerates the golden trace file"]
fn bless_golden_trace() {
    let (_, trace) = record();
    std::fs::create_dir_all("tests/data").expect("mkdir");
    std::fs::write(GOLDEN_PATH, trace.serialize()).expect("write");
}

#[test]
fn golden_trace_replays_to_the_same_session() {
    const REBLESS: &str = "golden trace out of date — if the change in \
         behavior is intended, regenerate it with:\n  cargo test --test \
         golden_trace -- --ignored bless_golden_trace";
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}\n{REBLESS}"));
    let golden = SessionTrace::parse(&text)
        .unwrap_or_else(|e| panic!("cannot parse {GOLDEN_PATH}: {e}\n{REBLESS}"));

    // Replaying the checked-in trace reproduces the live recording.
    let (mut recorded, fresh_trace) = record();
    assert_eq!(
        fresh_trace, golden,
        "the recording script drifted.\n{REBLESS}"
    );
    let mut replayed = golden.replay().expect("replays");
    assert_eq!(
        recorded.live_view(),
        replayed.live_view(),
        "replay diverged from the recording"
    );
    assert_eq!(recorded.system().store(), replayed.system().store());

    // The final state is the paper's: back on the listings page, with
    // the improved margins, the model keeping term = 15.
    assert_eq!(
        replayed.system().current_page().map(|(n, _)| n),
        Some("start")
    );
    assert!(replayed.source().contains("box.margin := 2;"), "I1 applied");
    assert!(replayed.source().contains("cents"), "I2 applied");
    assert!(
        replayed.source().contains("math.mod(i, 5) == 4"),
        "I3 applied"
    );
    assert_eq!(
        replayed.system().store().get("term"),
        Some(&its_alive::core::Value::Number(15.0))
    );
    // One download for the whole session.
    assert_eq!(replayed.system().cost().prim.web_requests, 1);
}
