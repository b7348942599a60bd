//! Integer cell geometry for the text-based display substrate.

use std::fmt;

/// A point in cell coordinates (x right, y down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// Column.
    pub x: i32,
    /// Row.
    pub y: i32,
}

impl Point {
    /// Construct a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Translate by a delta.
    pub fn offset(self, dx: i32, dy: i32) -> Point {
        Point {
            x: self.x + dx,
            y: self.y + dy,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A size in cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Size {
    /// Width in cells.
    pub w: i32,
    /// Height in cells.
    pub h: i32,
}

impl Size {
    /// Construct a size; clamps negatives to zero.
    pub fn new(w: i32, h: i32) -> Self {
        Size {
            w: w.max(0),
            h: h.max(0),
        }
    }

    /// Whether either dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

/// An axis-aligned rectangle: origin plus size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Top-left corner.
    pub origin: Point,
    /// Extent.
    pub size: Size,
}

impl Rect {
    /// Construct a rectangle.
    pub fn new(x: i32, y: i32, w: i32, h: i32) -> Self {
        Rect {
            origin: Point::new(x, y),
            size: Size::new(w, h),
        }
    }

    /// Left edge.
    pub fn left(&self) -> i32 {
        self.origin.x
    }

    /// Top edge.
    pub fn top(&self) -> i32 {
        self.origin.y
    }

    /// One past the right edge (saturating: sizes are client-controlled).
    pub fn right(&self) -> i32 {
        self.origin.x.saturating_add(self.size.w)
    }

    /// One past the bottom edge (saturating).
    pub fn bottom(&self) -> i32 {
        self.origin.y.saturating_add(self.size.h)
    }

    /// Whether the point is inside the rectangle.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.left() && p.x < self.right() && p.y >= self.top() && p.y < self.bottom()
    }

    /// Shrink the rectangle by `amount` cells on every side (clamping).
    pub fn inset(&self, amount: i32) -> Rect {
        Rect::new(
            self.origin.x + amount,
            self.origin.y + amount,
            self.size.w - 2 * amount,
            self.size.h - 2 * amount,
        )
    }

    /// Translate by a delta.
    pub fn offset(&self, dx: i32, dy: i32) -> Rect {
        Rect {
            origin: self.origin.offset(dx, dy),
            size: self.size,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.size, self.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_edges_and_containment() {
        let r = Rect::new(2, 3, 4, 2);
        assert_eq!(r.left(), 2);
        assert_eq!(r.right(), 6);
        assert_eq!(r.top(), 3);
        assert_eq!(r.bottom(), 5);
        assert!(r.contains(Point::new(2, 3)));
        assert!(r.contains(Point::new(5, 4)));
        assert!(!r.contains(Point::new(6, 4)));
        assert!(!r.contains(Point::new(2, 5)));
    }

    #[test]
    fn inset_clamps() {
        let r = Rect::new(0, 0, 4, 4).inset(1);
        assert_eq!(r, Rect::new(1, 1, 2, 2));
        let tiny = Rect::new(0, 0, 1, 1).inset(1);
        assert!(tiny.size.is_empty());
    }

    #[test]
    fn size_clamps_negatives() {
        assert_eq!(Size::new(-3, 5), Size::new(0, 5));
    }
}
