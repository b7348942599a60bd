//! Workload builders shared by the wall-clock benches and the tables
//! binary.

use alive_apps::{gallery, mortgage};
use alive_baseline::{NavAction, RestartSession};
use alive_live::{LiveSession, SessionCommand, SessionEffect};

/// The two alternating label edits used by the feedback-latency
/// experiment (E3): each is a one-token change to render code, like the
/// paper's I1–I3 tweaks.
pub fn label_variants(src: &str) -> (String, String) {
    let a = src.replace("post \"Local\";", "post \"Nearby\";");
    let b = src.to_string();
    (a, b)
}

/// Tap the box at `path` through [`LiveSession::apply`], which answers
/// with the new frame; panics if the session refuses the tap.
pub fn tap(session: &mut LiveSession, path: &[usize]) {
    let effects = session.apply(SessionCommand::TapPath(path.to_vec()));
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "tap {path:?} refused: {effects:?}"
    );
}

/// Submit `source` as a live edit through [`LiveSession::apply`], which
/// answers an applied edit with the new frame; whether it applied.
pub fn edit_applied(session: &mut LiveSession, source: &str) -> bool {
    matches!(
        session
            .apply(SessionCommand::EditSource(source.to_string()))
            .first(),
        Some(SessionEffect::EditApplied(_))
    )
}

/// A live session on the mortgage app with `n` listings, navigated to
/// the detail page (the paper's editing context).
pub fn mortgage_live_on_detail(n: usize) -> LiveSession {
    let mut s = LiveSession::new(&mortgage::mortgage_src(n)).expect("compiles");
    tap(&mut s, &[1, 0]); // open detail
    s
}

/// A restart-baseline session on the mortgage app with `n` listings,
/// navigated to the detail page.
pub fn mortgage_restart_on_detail(n: usize) -> RestartSession {
    let mut s = RestartSession::new(&mortgage::mortgage_src(n)).expect("compiles");
    s.interact(NavAction::Tap(vec![1, 0])).expect("open detail");
    s
}

/// A live session on the synthetic gallery with `n` tiles, optionally
/// with the §5 render cache. Dependency-dense: every tile reads the
/// `selected` global.
pub fn gallery_session(n: usize, memo: bool) -> LiveSession {
    session_of(&gallery::gallery_src(n), memo)
}

/// A live session on the synthetic feed with `n` rows, optionally with
/// the §5 render cache. Dependency-sparse: each row reads only its own
/// item.
pub fn feed_session(n: usize, memo: bool) -> LiveSession {
    session_of(&gallery::feed_src(n), memo)
}

fn session_of(src: &str, memo: bool) -> LiveSession {
    if memo {
        LiveSession::with_memo(src).expect("compiles")
    } else {
        LiveSession::new(src).expect("compiles")
    }
}

/// One selection change on a gallery session: tap a rotating tile,
/// forcing a re-render.
pub fn gallery_select_next(session: &mut LiveSession, step: usize) {
    let n = list_global_len(session, "tiles");
    let target = 1 + (step % n.max(1));
    tap(session, &[target]);
}

/// One item edit on a feed session: tap a rotating row (its handler
/// bumps row 0's value), forcing a re-render that touches one row.
pub fn feed_touch(session: &mut LiveSession, step: usize) {
    let n = list_global_len(session, "items");
    let target = 1 + (step % n.max(1));
    tap(session, &[target]);
}

fn list_global_len(session: &LiveSession, name: &str) -> usize {
    match session.system().store().get(name) {
        Some(alive_core::Value::List(xs)) => xs.len(),
        other => panic!("`{name}` is not a materialized list: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let mut live = mortgage_live_on_detail(3);
        assert_eq!(live.system().current_page().map(|(n, _)| n), Some("detail"));
        let (a, b) = label_variants(live.source());
        assert_ne!(a, b);
        assert!(edit_applied(&mut live, &a));

        let restart = mortgage_restart_on_detail(3);
        assert_eq!(
            restart.system().current_page().map(|(n, _)| n),
            Some("detail")
        );

        // Sparse feed: taps reuse untouched rows.
        let mut f = feed_session(8, true);
        feed_touch(&mut f, 0);
        feed_touch(&mut f, 1);
        assert!(f.memo_stats().expect("memo on").hits > 0);
        // Memoized and plain sessions show identical views.
        let mut plain = feed_session(8, false);
        feed_touch(&mut plain, 0);
        feed_touch(&mut plain, 1);
        assert_eq!(f.live_view(), plain.live_view());
        // Dense gallery: selection changes invalidate every tile.
        let mut g = gallery_session(8, true);
        gallery_select_next(&mut g, 0);
        assert!(g.live_view().contains("selected: 0"));
    }
}
