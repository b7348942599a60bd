//! Display diffing on live sessions: model changes damage exactly the
//! boxes whose inputs changed — the observable counterpart of the §5
//! reuse optimization (E4).

use its_alive::apps::gallery;
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};
use its_alive::ui::{damage_ratio, damage_rects, diff_displays, layout, BoxChange};

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

#[test]
fn one_item_update_damages_one_row_plus_header() {
    let mut s = LiveSession::new(&gallery::feed_src(6)).expect("starts");
    let before = s.display_tree().expect("renders");
    tap(&mut s, &[1]); // tap row 0
    let after = s.display_tree().expect("renders");
    let changes = diff_displays(&before, &after);
    let changed_paths: Vec<&[usize]> = changes.iter().map(BoxChange::path).collect();
    assert_eq!(
        changed_paths,
        vec![&[0][..], &[1][..]],
        "header + row 0 only"
    );

    let damage = damage_rects(&layout(&before), &layout(&after), &changes);
    let ratio = damage_ratio(&layout(&after), &damage);
    assert!(ratio < 0.5, "most of the screen is untouched: {ratio}");
}

#[test]
fn selection_change_damages_two_tiles_and_header() {
    let mut s = LiveSession::new(&gallery::gallery_src(8)).expect("starts");
    tap(&mut s, &[3]); // select tile 2
    let before = s.display_tree().expect("renders");
    tap(&mut s, &[6]); // select tile 5
    let after = s.display_tree().expect("renders");
    let changes = diff_displays(&before, &after);
    let changed_paths: Vec<&[usize]> = changes.iter().map(BoxChange::path).collect();
    // Header (reads `selected`), the de-selected tile, the selected tile.
    assert_eq!(changed_paths, vec![&[0][..], &[3][..], &[6][..]]);
}

#[test]
fn growing_the_model_adds_boxes() {
    let mut s = LiveSession::new(its_alive::apps::SHOPPING_SRC).expect("starts");
    let before = s.display_tree().expect("renders");
    tap(&mut s, &[4]); // add apples
    let after = s.display_tree().expect("renders");
    let changes = diff_displays(&before, &after);
    assert!(
        changes.iter().any(|c| matches!(c, BoxChange::Added(_))),
        "a new row appeared: {changes:?}"
    );
}

#[test]
fn a_pure_relabel_edit_damages_only_the_label() {
    let src = "
        global a : number = 1
        page start() {
            render {
                boxed { post \"alpha \" ++ a; }
                boxed { post \"beta\"; }
                boxed { post \"gamma\"; }
            }
        }";
    let mut s = LiveSession::new(src).expect("starts");
    let before = s.display_tree().expect("renders");
    let edited = src.replace("\"beta\"", "\"BETA\"");
    assert!(edit_applied(&mut s, &edited));
    let after = s.display_tree().expect("renders");
    let changes = diff_displays(&before, &after);
    let changed_paths: Vec<&[usize]> = changes.iter().map(BoxChange::path).collect();
    assert_eq!(changed_paths, vec![&[1][..]]);
}
