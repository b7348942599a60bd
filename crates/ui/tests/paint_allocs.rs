//! Allocation gate for the layout and paint layer: laying out and
//! painting a frame costs a few dozen allocations however many boxes it
//! has, because the flat layout lives in three growing buffers and the
//! painter writes one canvas and one string.
//!
//! A counting global allocator sees every allocation in this process,
//! so this binary holds a single test: no other test's allocations can
//! land inside the counted window. The bound is a count, not a time, so
//! the gate is deterministic on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alive_core::boxtree::{BoxItem, BoxNode};
use alive_core::{Attr, Color, Value};
use alive_ui::{layout, render_to_text};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no effect on allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Boxes in the generated frame.
const BOXES: usize = 1000;

/// Most allocations one `render_to_text(&layout(root))` may make.
const MAX_ALLOCS: u64 = 64;

/// A list-shaped frame like the corpus's dashboards: a header, then
/// rows of a bordered, shaded cell with a label and a number beside a
/// plain cell with a multi-line note — `BOXES` boxes in all.
fn frame() -> BoxNode {
    let mut root = BoxNode::new(None);
    root.items.push(BoxItem::leaf(Value::str("header")));
    let mut boxes = 1;
    let mut row_index = 0;
    while boxes + 3 <= BOXES {
        let mut cell = BoxNode::new(None);
        cell.items
            .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
        cell.items.push(BoxItem::attr(
            Attr::Background,
            Value::Color(Color::new(170, 210, 240)),
        ));
        cell.items
            .push(BoxItem::leaf(Value::str(format!("row {row_index}"))));
        cell.items
            .push(BoxItem::leaf(Value::Number(row_index as f64 * 1.5)));
        let mut note = BoxNode::new(None);
        note.items
            .push(BoxItem::attr(Attr::Margin, Value::Number(1.0)));
        note.items
            .push(BoxItem::leaf(Value::str("a note\nover two lines")));
        let mut row = BoxNode::new(None);
        row.items
            .push(BoxItem::attr(Attr::Horizontal, Value::Bool(true)));
        row.push_child(cell);
        row.push_child(note);
        root.push_child(row);
        boxes += 3;
        row_index += 1;
    }
    while boxes < BOXES {
        let mut tail = BoxNode::new(None);
        tail.items.push(BoxItem::leaf(Value::Bool(true)));
        root.push_child(tail);
        boxes += 1;
    }
    assert_eq!(root.box_count(), BOXES);
    root
}

#[test]
fn layout_and_paint_of_a_1000_box_frame_make_at_most_64_allocations() {
    let root = frame();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let view = render_to_text(&layout(&root));
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(view.starts_with("header\n"), "{view:.40}");
    assert!(
        allocs <= MAX_ALLOCS,
        "layout + paint of {BOXES} boxes made {allocs} allocations (at most {MAX_ALLOCS})"
    );
}
