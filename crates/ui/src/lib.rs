//! # alive-ui
//!
//! The display substrate for *its-alive*: deterministic layout, text
//! rendering, and hit-testing of the box trees produced by render code.
//!
//! The PLDI 2013 paper runs its system in a browser and explicitly does
//! not formalize layout; this crate is the simulated replacement. It
//! preserves everything the model cares about — the box tree structure,
//! attribute semantics (margins, fonts, colors, stacking direction),
//! and the mapping from user taps to `ontap` handlers — while being
//! fully deterministic and dependency-free.
//!
//! There is one layout representation, the flat [`LayoutTree`]: boxes
//! in pre-order with parent indices, each box's items contiguous in
//! paint order, and every text item a byte range into one text arena.
//! [`layout()`] fills those three growing buffers, so a frame's
//! allocations grow with the logarithm of its box count, not with the
//! count itself, and every reader walks that same tree: the text
//! and ANSI painters, hit-testing, damage rectangles, the retained
//! [`TextFrame`] and [`layout_incremental`]. Painters clip to
//! [`MAX_CANVAS_COLS`] × [`MAX_CANVAS_ROWS`] cells, so client-chosen
//! sizes cannot make a frame's memory or time unbounded.
//!
//! # Example
//!
//! ```
//! use alive_core::compile;
//! use alive_core::system::System;
//! use alive_ui::{layout, render_to_text};
//!
//! let mut system = System::new(compile(r#"
//!     page start() {
//!         render { boxed { post "hello"; } }
//!     }
//! "#).expect("compiles"));
//! let root = system.rendered().expect("renders").clone();
//! let text = render_to_text(&layout(&root));
//! assert_eq!(text, "hello\n");
//! ```

#![warn(missing_docs)]
// Client text reaches this crate on every hosted command: non-test code
// must never abort the process — failures are typed diagnostics. Tests
// may assert freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod diff;
pub mod geom;
pub mod hittest;
pub mod layout;
pub mod render_ansi;
pub mod render_text;

pub use diff::{damage_ratio, damage_rects, diff_displays, BoxChange};
pub use geom::{Point, Rect, Size};
pub use hittest::{hit_stack, hit_test, hit_test_leaf, hit_test_tappable};
pub use layout::{
    layout, layout_incremental, LayoutBox, LayoutCache, LayoutItem, LayoutStats, LayoutTree, Style,
};
pub use render_ansi::{render_to_ansi, strip_ansi, AnsiCanvas, AnsiFramebuffer};
pub use render_text::{
    render_to_text, render_zoomed_out, Canvas, TextFrame, MAX_CANVAS_COLS, MAX_CANVAS_ROWS,
};

use alive_core::system::{ActionError, System};

/// Tap the screen at a point: hit-test the current display and deliver
/// the tap to the deepest box with an `ontap` handler (doing nothing,
/// like a real screen, if no handler is under the finger).
///
/// # Errors
///
/// [`ActionError::DisplayInvalid`] if the display is stale.
pub fn tap_at(system: &mut System, point: Point) -> Result<bool, ActionError> {
    let Some(root) = system.display().content() else {
        return Err(ActionError::DisplayInvalid);
    };
    let tree = layout(root);
    match hit_test_tappable(&tree, point) {
        Some(path) => {
            system.tap(&path)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_core::compile;
    use alive_core::Value;

    #[test]
    fn tap_at_drives_the_system() {
        let mut system = System::new(
            compile(
                "global n : number = 0
                 page start() {
                     render {
                         boxed { post \"inert\"; }
                         boxed {
                             post \"button\";
                             on tap { n := n + 1; }
                         }
                     }
                 }",
            )
            .expect("compiles"),
        );
        system.run_to_stable().expect("starts");
        // Row 0 is the inert box: tap falls through.
        assert_eq!(tap_at(&mut system, Point::new(0, 0)), Ok(false));
        // Row 1 is the button.
        assert_eq!(tap_at(&mut system, Point::new(0, 1)), Ok(true));
        system.run_to_stable().expect("handles tap");
        assert_eq!(system.store().get("n"), Some(&Value::Number(1.0)));
    }

    #[test]
    fn tap_at_requires_valid_display() {
        let mut system = System::new(compile("page start() { render { } }").expect("compiles"));
        assert_eq!(
            tap_at(&mut system, Point::new(0, 0)),
            Err(ActionError::DisplayInvalid)
        );
    }
}
