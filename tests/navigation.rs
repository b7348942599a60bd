//! E9 — bidirectional UI↔code navigation (paper Figure 2) on the real
//! mortgage calculator, including the one-to-many case: "a selected
//! boxed statement appearing inside a loop corresponds to multiple
//! boxes in the display, which are collectively selected".

use its_alive::apps::mortgage;
use its_alive::live::{
    box_source_at, boxes_for_cursor, span_for_box, LiveSession, SessionCommand, SessionEffect,
};
use its_alive::ui::{hit_stack, hit_test, layout, Point};

/// Submit `source` as a live edit; whether it was applied.
fn edit_applied(session: &mut LiveSession, source: &str) -> bool {
    matches!(
        session
            .apply(SessionCommand::EditSource(source.to_string()))
            .first(),
        Some(SessionEffect::EditApplied(_))
    )
}

fn session() -> LiveSession {
    LiveSession::new(&mortgage::mortgage_src(6)).expect("compiles")
}

#[test]
fn every_box_maps_to_a_boxed_statement() {
    let mut s = session();
    let display = s.display_tree().expect("renders");
    let mut checked = 0;
    display.walk(&mut |path, node| {
        if path.is_empty() {
            return; // the implicit top-level box has no statement
        }
        let span = span_for_box(s.system().program(), &display, path)
            .unwrap_or_else(|| panic!("box {path:?} has no source span"));
        let text = span.slice(s.source());
        assert!(text.starts_with("boxed"), "span text: {text:?}");
        checked += 1;
        let _ = node;
    });
    assert!(checked >= 8, "walked the whole display ({checked} boxes)");
}

#[test]
fn loop_statement_selects_all_listing_rows() {
    let mut s = session();
    let display = s.display_tree().expect("renders");
    // Cursor inside the `boxed` statement of the listings loop.
    let cursor = s.source().find("display_listentry(entry);").expect("found") as u32;
    let boxes = boxes_for_cursor(s.system().program(), &display, cursor);
    assert_eq!(boxes.len(), 6, "six listings, six boxes");
    for (i, path) in boxes.iter().enumerate() {
        assert_eq!(path, &vec![1, i], "rows live under the listings box");
    }
}

#[test]
fn navigation_roundtrips_box_to_code_to_boxes() {
    let mut s = session();
    let display = s.display_tree().expect("renders");
    // Box → code: the header box.
    let span = span_for_box(s.system().program(), &display, &[0]).expect("maps");
    // Code → boxes: the cursor inside that span selects the same box.
    let id = box_source_at(s.system().program(), span.start + 1).expect("in boxed");
    let back = its_alive::live::boxes_for_source(&display, id);
    assert_eq!(back, vec![vec![0]]);
}

#[test]
fn screen_tap_to_code_selection() {
    // The full Figure-2 gesture: tap a pixel, find the box, find the code.
    let mut s = session();
    let display = s.display_tree().expect("renders");
    let tree = layout(&display);
    let view = s.live_view();
    let row = view
        .lines()
        .position(|l| l.contains("#2"))
        .expect("third listing") as i32;
    let path = hit_test(&tree, Point::new(2, row)).expect("hit");
    let span = span_for_box(s.system().program(), &display, &path).expect("maps");
    let text = span.slice(s.source());
    assert!(
        text.contains("post entry.1;") || text.contains("display_listentry"),
        "tapped code: {text}"
    );
}

#[test]
fn nested_selection_walks_enclosing_boxes() {
    // §5: "the user can tap the same box multiple times to select
    // enclosing boxes". The hit stack provides the chain.
    let mut s = session();
    let display = s.display_tree().expect("renders");
    let tree = layout(&display);
    let view = s.live_view();
    let row = view
        .lines()
        .position(|l| l.contains("#0"))
        .expect("first listing") as i32;
    let stack = hit_stack(&tree, Point::new(2, row));
    assert!(
        stack.len() >= 3,
        "root, listings box, row, inner: {stack:?}"
    );
    // Outermost first; each is a prefix of the next.
    for pair in stack.windows(2) {
        assert!(pair[1].starts_with(&pair[0][..]));
    }
}

#[test]
fn navigation_survives_live_edits() {
    let mut s = session();
    let improved = mortgage::apply_improvement_i1(s.source());
    assert!(edit_applied(&mut s, &improved));
    // After the update the spans refer to the NEW source.
    let display = s.display_tree().expect("renders");
    let span = span_for_box(s.system().program(), &display, &[1, 0]).expect("maps");
    let text = span.slice(s.source());
    assert!(text.contains("box.margin := 2;"), "new-source span: {text}");
}
