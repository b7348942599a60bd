//! Span-addressed text edits.
//!
//! Live programming is driven by *edits to source text*: the programmer
//! types, or the environment synthesizes a change for them (direct
//! manipulation, paper §3). A [`TextEdit`] replaces a span of the old text
//! with new text; [`apply_edits`] applies a batch in one pass.

use crate::span::Span;
use std::fmt;

/// A single replacement of `span` in the old text by `replacement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextEdit {
    /// The range of old text being replaced (empty span = pure insertion).
    pub span: Span,
    /// The new text.
    pub replacement: String,
}

impl TextEdit {
    /// Replace `span` with `replacement`.
    pub fn replace(span: Span, replacement: impl Into<String>) -> Self {
        TextEdit {
            span,
            replacement: replacement.into(),
        }
    }

    /// Insert `text` at byte offset `at`.
    pub fn insert(at: u32, text: impl Into<String>) -> Self {
        TextEdit {
            span: Span::point(at),
            replacement: text.into(),
        }
    }

    /// Delete the text at `span`.
    pub fn delete(span: Span) -> Self {
        TextEdit {
            span,
            replacement: String::new(),
        }
    }
}

impl fmt::Display for TextEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_empty() {
            write!(f, "insert {:?} at {}", self.replacement, self.span.start)
        } else if self.replacement.is_empty() {
            write!(f, "delete {}", self.span)
        } else {
            write!(f, "replace {} with {:?}", self.span, self.replacement)
        }
    }
}

/// Error applying a batch of edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// Two edits overlap; the conflicting spans are reported.
    Overlap(Span, Span),
    /// An edit's span exceeds the text length.
    OutOfBounds(Span, usize),
    /// An edit splits a UTF-8 character.
    NotCharBoundary(Span),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::Overlap(a, b) => write!(f, "overlapping edits at {a} and {b}"),
            EditError::OutOfBounds(s, len) => {
                write!(f, "edit at {s} out of bounds for text of length {len}")
            }
            EditError::NotCharBoundary(s) => {
                write!(f, "edit at {s} does not fall on a character boundary")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Apply a batch of non-overlapping edits to `src`, returning the new text.
///
/// Edits may be given in any order; they are applied as if simultaneously
/// (all spans refer to the *original* text). Insertions at the same point
/// are applied in the order given.
///
/// # Errors
///
/// Returns [`EditError`] if edits overlap, run past the end of the text,
/// or split a UTF-8 character. `src` is not modified on error.
pub fn apply_edits(src: &str, edits: &[TextEdit]) -> Result<String, EditError> {
    let mut sorted: Vec<&TextEdit> = edits.iter().collect();
    // Stable sort keeps same-point insertions in given order.
    sorted.sort_by_key(|e| (e.span.start, e.span.end));

    for e in &sorted {
        if e.span.end as usize > src.len() {
            return Err(EditError::OutOfBounds(e.span, src.len()));
        }
        if !src.is_char_boundary(e.span.start as usize)
            || !src.is_char_boundary(e.span.end as usize)
        {
            return Err(EditError::NotCharBoundary(e.span));
        }
    }
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        // Touching is fine; strict overlap is not. Two empty spans at the
        // same point are both insertions and do not overlap.
        if b.span.start < a.span.end {
            return Err(EditError::Overlap(a.span, b.span));
        }
    }

    let mut out = String::with_capacity(src.len());
    let mut cursor = 0usize;
    for e in &sorted {
        out.push_str(&src[cursor..e.span.start as usize]);
        out.push_str(&e.replacement);
        cursor = e.span.end as usize;
    }
    out.push_str(&src[cursor..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replace() {
        let out = apply_edits(
            "hello world",
            &[TextEdit::replace(Span::new(6, 11), "rust")],
        )
        .expect("applies");
        assert_eq!(out, "hello rust");
    }

    #[test]
    fn multiple_edits_any_order() {
        let src = "aaa bbb ccc";
        let edits = vec![
            TextEdit::replace(Span::new(8, 11), "C"),
            TextEdit::replace(Span::new(0, 3), "A"),
        ];
        assert_eq!(apply_edits(src, &edits).expect("applies"), "A bbb C");
    }

    #[test]
    fn insertion_and_deletion() {
        let src = "margin 4";
        let edits = vec![
            TextEdit::insert(0, ">> "),
            TextEdit::delete(Span::new(6, 8)),
        ];
        assert_eq!(apply_edits(src, &edits).expect("applies"), ">> margin");
    }

    #[test]
    fn same_point_insertions_keep_order() {
        let src = "x";
        let edits = vec![TextEdit::insert(1, "a"), TextEdit::insert(1, "b")];
        assert_eq!(apply_edits(src, &edits).expect("applies"), "xab");
    }

    #[test]
    fn overlap_is_rejected() {
        let src = "abcdef";
        let edits = vec![
            TextEdit::replace(Span::new(0, 3), "x"),
            TextEdit::replace(Span::new(2, 4), "y"),
        ];
        assert!(matches!(
            apply_edits(src, &edits),
            Err(EditError::Overlap(..))
        ));
    }

    #[test]
    fn touching_edits_are_fine() {
        let src = "abcdef";
        let edits = vec![
            TextEdit::replace(Span::new(0, 3), "x"),
            TextEdit::replace(Span::new(3, 6), "y"),
        ];
        assert_eq!(apply_edits(src, &edits).expect("applies"), "xy");
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        assert!(matches!(
            apply_edits("ab", &[TextEdit::delete(Span::new(1, 5))]),
            Err(EditError::OutOfBounds(..))
        ));
    }

    #[test]
    fn char_boundary_is_checked() {
        let src = "é"; // two bytes
        assert!(matches!(
            apply_edits(src, &[TextEdit::delete(Span::new(1, 2))]),
            Err(EditError::NotCharBoundary(..))
        ));
    }
}
