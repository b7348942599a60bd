//! # alive-testkit
//!
//! The workspace's hermetic, zero-external-dependency test and bench
//! kit. Three pieces:
//!
//! * [`rng`] — a deterministic PRNG (SplitMix64 seeding xoshiro256\*\*)
//!   with `gen_range` / `choose` / `shuffle` / string helpers;
//! * [`prop`] — a minimal shrinking property-test harness: N cases
//!   from one seed, greedy shrinking on failure, replayable via
//!   `ALIVE_TESTKIT_SEED=… cargo test`;
//! * [`bench`](mod@bench) — a warmup + median-of-K micro-bench timer emitting
//!   JSON, driving the `harness = false` bench targets that used to
//!   need Criterion;
//! * [`fault`] — a deterministic fault injector for `alive-core`
//!   systems: chosen primitives fail, or transitions run out of fuel,
//!   on exactly the Nth call.
//!
//! Everything resolves, builds, and runs with zero network access —
//! the point is that `cargo test` works in a sealed environment and
//! produces the same cases every run.

#![warn(missing_docs)]

pub mod bench;
pub mod fault;
pub mod prop;
pub mod rng;

pub use bench::{Bench, BenchResult};
pub use fault::FaultPlan;
pub use prop::{check, check_captured, Config, Failure, NoShrink, Shrink};
pub use rng::Rng;
