//! The Figure 2 split screen: live view on the left, code view on the
//! right, with the bidirectional selection rendered — tapping a box
//! highlights its `boxed` statement, and selecting a statement
//! highlights all the boxes it created.
//!
//! Everything is plain text (with optional ANSI highlighting), so the
//! paper's signature screenshot can be reproduced in a terminal and
//! asserted on in tests.

use crate::navigation::{box_source_at, span_for_box};
use crate::session::LiveSession;
use alive_core::boxtree::BoxNode;
use alive_syntax::token::TokenKind;
use alive_syntax::{Diagnostics, Span};
use alive_ui::{layout, render_to_text};
use std::sync::Arc;

/// What is currently selected in the split view.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Selection {
    /// Nothing selected.
    #[default]
    None,
    /// A box was selected in the live view (by path).
    Box(Vec<usize>),
    /// A cursor position was selected in the code view (byte offset).
    Cursor(u32),
}

/// Options for the split view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitViewOptions {
    /// Total width in columns.
    pub width: usize,
    /// Width of the live (left) pane.
    pub live_pane: usize,
    /// Use ANSI colors (syntax highlighting + selection inverse video).
    pub ansi: bool,
    /// Zoom-out factor for the live pane (1 = full size) — §5's
    /// "automatically scaled down to fit on a smaller portion of the
    /// screen".
    pub zoom: usize,
}

impl Default for SplitViewOptions {
    fn default() -> Self {
        SplitViewOptions {
            width: 100,
            live_pane: 40,
            ansi: false,
            zoom: 1,
        }
    }
}

/// Render the Figure 2 split screen for a session with a selection.
///
/// The selected box (or the boxes created by the statement under the
/// cursor) are marked in the live pane with `●` gutter markers; the
/// corresponding statement lines get `▶` markers in the code pane.
///
/// Total, like [`LiveSession::live_view`]: a session whose renders
/// fault shows its last good tree (and an empty live pane if it never
/// had one); the code pane always shows the current source.
pub fn split_view(
    session: &mut LiveSession,
    selection: &Selection,
    options: SplitViewOptions,
) -> String {
    // A session with no renderable view still has a code pane to show —
    // an empty box tree stands in for the live pane.
    let display = session
        .display_tree()
        .unwrap_or_else(|| Arc::new(BoxNode::new(None)));
    let program = session.system().program();
    let source = session.source();

    // Resolve the selection to (boxes, span) in both directions.
    let (selected_boxes, selected_span): (Vec<Vec<usize>>, Option<Span>) = match selection {
        Selection::None => (Vec::new(), None),
        Selection::Box(path) => {
            let span = span_for_box(program, &display, path);
            (vec![path.clone()], span)
        }
        Selection::Cursor(pos) => match box_source_at(program, *pos) {
            Some(id) => (display.find_by_source(id), program.box_span(id)),
            None => (Vec::new(), None),
        },
    };

    // Left pane: the live view as the session paints it (only boxes
    // with a `border` are framed), selected boxes marked in the gutter.
    let tree = layout(&display);
    let live_text = if options.zoom > 1 {
        alive_ui::render_zoomed_out(&tree, options.zoom)
    } else {
        render_to_text(&tree)
    };
    let zoom = options.zoom.max(1) as i32;
    let selected_rows: Vec<(i32, i32)> = selected_boxes
        .iter()
        .filter_map(|p| tree.by_path(p))
        .map(|b| {
            let top = b.rect.top() / zoom;
            let bottom = (b.rect.bottom().max(b.rect.top() + 1) + zoom - 1) / zoom;
            (top, bottom)
        })
        .collect();
    let mut left_lines: Vec<String> = Vec::new();
    for (row, line) in live_text.lines().enumerate() {
        let marked = selected_rows
            .iter()
            .any(|&(top, bottom)| (row as i32) >= top && (row as i32) < bottom);
        let gutter = if marked { "●" } else { " " };
        left_lines.push(format!("{gutter} {line}"));
    }

    // Right pane: the code with the selected statement marked.
    let (sel_start_line, sel_end_line) = match selected_span {
        Some(span) => {
            let map = alive_syntax::SourceMap::new(source);
            (
                map.line_col(span.start).line as usize,
                map.line_col(span.end.saturating_sub(1)).line as usize,
            )
        }
        None => (0, 0),
    };
    let mut right_lines: Vec<String> = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let line_no = i + 1;
        let marked = line_no >= sel_start_line && line_no <= sel_end_line && sel_start_line > 0;
        let marker = if marked { "▶" } else { " " };
        let shown = if options.ansi {
            highlight_line(line)
        } else {
            line.to_string()
        };
        right_lines.push(format!("{marker}{line_no:>3} {shown}"));
    }

    // Stitch the panes.
    let rows = left_lines.len().max(right_lines.len());
    let mut out = String::new();
    let live_w = options.live_pane;
    out.push_str(&format!(
        "{:<live_w$} │ {}\n",
        "── live view ──", "── code view ──"
    ));
    for i in 0..rows {
        let left_raw = left_lines.get(i).map(String::as_str).unwrap_or("");
        let left: String = left_raw.chars().take(live_w).collect();
        let pad = live_w.saturating_sub(left.chars().count());
        let right = right_lines.get(i).map(String::as_str).unwrap_or("");
        out.push_str(&format!("{left}{} │ {right}\n", " ".repeat(pad)));
    }
    out
}

/// ANSI syntax highlighting of one source line, by lexer token class.
pub fn highlight_line(line: &str) -> String {
    let mut diags = Diagnostics::new();
    let tokens = alive_syntax::lexer::lex(line, &mut diags);
    let mut out = String::new();
    let mut cursor = 0usize;
    for token in tokens {
        if matches!(token.kind, TokenKind::Eof) {
            break;
        }
        let start = token.span.start as usize;
        let end = token.span.end as usize;
        out.push_str(&line[cursor..start]);
        let text = &line[start..end];
        let color = match &token.kind {
            TokenKind::Global
            | TokenKind::Fun
            | TokenKind::Page
            | TokenKind::Init
            | TokenKind::Render
            | TokenKind::Pure
            | TokenKind::State
            | TokenKind::Let
            | TokenKind::If
            | TokenKind::Else
            | TokenKind::While
            | TokenKind::For
            | TokenKind::Foreach
            | TokenKind::In
            | TokenKind::Fn
            | TokenKind::On => Some("1;35"), // bold magenta: keywords
            TokenKind::Boxed | TokenKind::Post | TokenKind::Box_ => Some("1;36"),
            TokenKind::Push | TokenKind::Pop => Some("1;33"),
            TokenKind::Str(_) => Some("32"), // green: strings
            TokenKind::Number(_) | TokenKind::True | TokenKind::False => Some("36"),
            TokenKind::TyNumber
            | TokenKind::TyString
            | TokenKind::TyBool
            | TokenKind::TyColor
            | TokenKind::TyList => Some("34"),
            _ => None,
        };
        match color {
            Some(c) => {
                out.push_str(&format!("\x1b[{c}m{text}\x1b[0m"));
            }
            None => out.push_str(text),
        }
        cursor = end;
    }
    out.push_str(&line[cursor.min(line.len())..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_ui::strip_ansi;

    const SRC: &str = r#"page start() {
    render {
        boxed { post "header"; }
        for i in 0 .. 3 {
            boxed { post i; }
        }
    }
}"#;

    #[test]
    fn split_view_shows_both_panes() {
        let mut s = LiveSession::new(SRC).expect("starts");
        let view = split_view(&mut s, &Selection::None, SplitViewOptions::default());
        assert!(view.contains("live view"));
        assert!(view.contains("code view"));
        assert!(view.contains("header"));
        assert!(view.contains("boxed { post \"header\"; }"));
        assert!(view.lines().all(|l| l.contains('│')));
    }

    #[test]
    fn box_selection_marks_the_statement() {
        let mut s = LiveSession::new(SRC).expect("starts");
        let view = split_view(
            &mut s,
            &Selection::Box(vec![0]),
            SplitViewOptions::default(),
        );
        // The statement line 3 carries the ▶ marker...
        let marked: Vec<&str> = view.lines().filter(|l| l.contains('▶')).collect();
        assert_eq!(marked.len(), 1, "{view}");
        assert!(marked[0].contains("post \"header\""));
        // ...and the header box row carries the ● marker.
        assert!(view.lines().next().is_some());
        let bullet_rows: Vec<&str> = view.lines().filter(|l| l.starts_with('●')).collect();
        assert_eq!(bullet_rows.len(), 1);
        assert!(bullet_rows[0].contains("header"));
    }

    #[test]
    fn cursor_selection_marks_all_loop_boxes() {
        let mut s = LiveSession::new(SRC).expect("starts");
        let cursor = SRC.find("post i").expect("found") as u32;
        let view = split_view(
            &mut s,
            &Selection::Cursor(cursor),
            SplitViewOptions::default(),
        );
        // Three boxes from the loop → three ● rows.
        let bullet_rows = view.lines().filter(|l| l.starts_with('●')).count();
        assert_eq!(bullet_rows, 3, "{view}");
    }

    #[test]
    fn zoomed_split_view_shrinks_the_live_pane() {
        let mut s = LiveSession::new(SRC).expect("starts");
        let full = split_view(&mut s, &Selection::None, SplitViewOptions::default());
        let zoomed = split_view(
            &mut s,
            &Selection::Box(vec![0]),
            SplitViewOptions {
                zoom: 2,
                ..SplitViewOptions::default()
            },
        );
        // The code pane is unchanged in height; the live pane content
        // occupies fewer rows (blank left cells beyond the zoomed view).
        assert_eq!(zoomed.lines().count(), full.lines().count());
        assert!(zoomed.contains('▪'), "blocks in the zoomed pane: {zoomed}");
        // Selection gutter still lands on the (zoomed) header row.
        assert!(zoomed.lines().any(|l| l.starts_with('●')), "{zoomed}");
    }

    #[test]
    fn highlighting_is_ansi_and_strippable() {
        let line = r#"global count : number = 0 // note"#;
        let colored = highlight_line(line);
        assert!(colored.contains("\x1b["));
        assert_eq!(strip_ansi(&colored), line);
        // Strings keep their quotes.
        let s = highlight_line(r#"post "hi";"#);
        assert_eq!(strip_ansi(&s), r#"post "hi";"#);
    }
}
