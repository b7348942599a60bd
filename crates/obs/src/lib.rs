//! # alive-obs — observing the live loop
//!
//! Zero-dependency, `Send + Sync`, no-panic observability for the
//! its-alive workspace: the measurement substrate the paper's Section 5
//! experience report asks for, built to stay on in a host serving many
//! sessions.
//!
//! The pieces:
//!
//! * [`Counter`] / [`Gauge`] — single-atomic-op event totals and
//!   levels (with `observe_max` high-water tracking).
//! * [`Histogram`] — fixed-bucket latency distribution; p50/p90/p99 by
//!   linear interpolation inside the winning bucket.
//! * [`Registry`] — named get-or-create handles, cloned `Arc`-shared;
//!   resolve once at construction, record lock-free on the hot path.
//! * [`Clock`] — injectable time: [`MonotonicClock`] in production,
//!   [`ManualClock`] in tests so every latency assertion is
//!   deterministic and seed-replayable.
//! * [`MetricsSnapshot`] — the owned, mergeable, line-format-
//!   serializable view that crosses layer boundaries (session →
//!   host → bench artifact).
//!
//! Design rules, enforced here and leaned on by the layers above:
//!
//! 1. **Recording never blocks and never panics.** Hot-path ops are
//!    relaxed atomics on pre-fetched handles; the only mutex guards the
//!    name map (touched at construction), with poison recovery.
//! 2. **Handles are shared, not forked, across clones.** `System` is
//!    cloned as a transaction checkpoint; a quarantine rollback must
//!    keep its fault counts (exactly like the `FaultLog` keeps its
//!    entries), so metrics ride the `Arc`, not the clone.
//! 3. **Torn reads under-count, never over-count.** `Histogram::record`
//!    bumps `count` last and `snapshot` reads it first, so a concurrent
//!    snapshot always sees `buckets_total() >= count`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![deny(missing_docs)]

mod clock;
mod metric;
mod registry;
mod snapshot;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, DEFAULT_LATENCY_BOUNDS_US};
pub use registry::Registry;
pub use snapshot::{MetricsSnapshot, WIRE_HEADER};

// The whole point is to share these across host worker threads; make
// "is Send + Sync" a compile error rather than a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<Registry>();
    assert_send_sync::<MetricsSnapshot>();
    assert_send_sync::<MonotonicClock>();
    assert_send_sync::<ManualClock>();
};
