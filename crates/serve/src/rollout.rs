//! Versioned program store and canary-rollout state for edit
//! transactions.
//!
//! A fleet-wide edit travels as a *transaction*: the editing client
//! opens one against the source version it sees, stages edit batches,
//! and commits. The host compiles the staged source **once**
//! (single-flight, like every other compile), then fans the paper's
//! Fig. 12 UPDATE to every session still on the base version —
//! canaries first. What happens next is a state machine:
//!
//! ```text
//!        tx_edit*              commit
//!   Open ───────▶ Open ──────────────────▶ Committing (compile once,
//!     │                                     canary fan-out)
//!     │ abort                                   │
//!     ▼                             fault spike │ clean
//!   Aborted                ┌────────────────────┤
//!                          ▼                    ▼
//!                     RolledBack       Canary (observation
//!                          ▲            window open)
//!                          │ fault spike        │ window clean
//!                          └────────────────────┤
//!                                               ▼
//!                                           Promoted
//! ```
//!
//! The decision inputs are the sessions' own fault logs — the §4 fault
//! containment machinery doubles as the rollout's health signal. A
//! rollback restores every updated session from the checkpoint its
//! [`alive_live::LiveSession::fleet_update`] parked, replaying the
//! client traffic it answered mid-canary.

use alive_core::{compile, Program};
use alive_live::TxPhase;
use alive_syntax::Diagnostics;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::lock;

/// Canary rollout policy for committed transactions.
#[derive(Debug, Clone, Copy)]
pub struct RolloutConfig {
    /// Percent of the fleet updated in the canary wave (clamped to
    /// 1..=100 at commit time; at least one session is always
    /// canaried when the fleet is non-empty).
    pub canary_percent: u8,
    /// How long (clock µs) a committed transaction watches its
    /// canaries before deciding. Zero decides at commit time from the
    /// canaries' immediate fault deltas alone; non-zero parks the
    /// transaction in the `Canary` phase until a status poll past the
    /// deadline probes the canaries and promotes or rolls back.
    pub observation_window_us: u64,
    /// How many new canary faults trigger auto-rollback.
    pub fault_threshold: u64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            canary_percent: 10,
            observation_window_us: 0,
            fault_threshold: 1,
        }
    }
}

/// One source version's compile, single-flighted: the first caller
/// initializes the cell (compiling outside every map lock), racing
/// same-source callers block on the cell instead of compiling twice,
/// and different-source callers are never blocked at all. Failures are
/// cached too — compilation is deterministic, so the same source
/// yields the same diagnostics.
type ProgramCell = Arc<OnceLock<Result<Arc<Program>, Diagnostics>>>;

/// The result of one [`ProgramStore::lookup`].
pub(crate) struct CompileOutcome {
    /// The shared program, or the version's cached diagnostics.
    pub result: Result<Arc<Program>, Diagnostics>,
    /// Whether this call performed the compile (a cache miss).
    pub compiled_here: bool,
}

/// The host's versioned program store: every distinct source text ever
/// submitted is a *version*, numbered in first-seen order, compiled at
/// most once, and shared by every session running it. This is what
/// makes a fleet UPDATE one compile instead of N, and what lets a
/// transaction name its base version by source text alone.
pub(crate) struct ProgramStore {
    versions: Mutex<Versions>,
}

struct Versions {
    /// Source text → index into `entries`.
    by_source: HashMap<String, usize>,
    /// Version history in first-seen order (failed versions included —
    /// their diagnostics are part of the history too).
    entries: Vec<ProgramCell>,
}

impl ProgramStore {
    pub(crate) fn new() -> Self {
        ProgramStore {
            versions: Mutex::new(Versions {
                by_source: HashMap::new(),
                entries: Vec::new(),
            }),
        }
    }

    /// The shared compiled program for `source`, compiling on first
    /// sight. The version map lock is held only to fetch the cell,
    /// never across a compile.
    pub(crate) fn lookup(&self, source: &str) -> CompileOutcome {
        let cell = {
            let mut versions = lock(&self.versions);
            match versions.by_source.get(source) {
                Some(&index) => Arc::clone(&versions.entries[index]),
                None => {
                    let cell: ProgramCell = Arc::new(OnceLock::new());
                    let index = versions.entries.len();
                    versions.by_source.insert(source.to_string(), index);
                    versions.entries.push(Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut compiled_here = false;
        let result = cell.get_or_init(|| {
            compiled_here = true;
            compile(source).map(Arc::new)
        });
        CompileOutcome {
            result: match result {
                Ok(program) => Ok(Arc::clone(program)),
                Err(diagnostics) => Err(diagnostics.clone()),
            },
            compiled_here,
        }
    }

    /// Distinct source versions seen (compiled or failed).
    pub(crate) fn version_count(&self) -> usize {
        lock(&self.versions).entries.len()
    }

    /// The 1-based version number of `source`, if it has been seen.
    pub(crate) fn version_of(&self, source: &str) -> Option<u64> {
        lock(&self.versions)
            .by_source
            .get(source)
            .map(|&index| index as u64 + 1)
    }
}

/// Host-side record of one edit transaction.
pub(crate) struct Transaction {
    /// The source version the transaction was opened against; only
    /// sessions still on it are part of the fleet at commit time.
    pub base: Arc<str>,
    /// The base plus every staged batch, applied in order.
    pub staged: String,
    /// Total edits staged so far.
    pub edits: usize,
    pub state: TxState,
}

/// Where a host transaction stands. `Committing` and `Deciding` are
/// in-progress sentinels: the driving thread has released the
/// transaction-map lock while it fans work to the fleet, and concurrent
/// observers must neither re-enter nor see a torn `Canary` payload.
pub(crate) enum TxState {
    Open,
    /// Commit in progress on some thread (compile + canary fan-out).
    Committing,
    /// Canary wave applied clean; the observation window is open.
    Canary(CanaryState),
    /// A past-deadline status poll is probing the canaries.
    Deciding {
        canary: usize,
        fleet: usize,
    },
    /// Terminal: promoted, rolled back, or aborted.
    Closed(TxPhase),
}

/// The parked payload of a transaction in its observation window.
pub(crate) struct CanaryState {
    /// Slot ids running the new version (update applied).
    pub canary: Vec<u64>,
    /// Slot ids awaiting the promote wave.
    pub rest: Vec<u64>,
    pub base: Arc<str>,
    pub source: Arc<str>,
    pub program: Arc<Program>,
    /// Clock µs past which a status poll decides the transaction.
    pub deadline_us: u64,
    /// Sum of canary fault-log totals right after the canary wave; the
    /// window's fault spike is measured against this.
    pub baseline_faults: u64,
    /// Sessions that skipped the canary wave (diverged or busy).
    pub skipped: usize,
    /// Fleet size at commit time (for `TxPhase::Canary` reporting).
    pub fleet: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: &str = r#"
global n : number = 0
page start() {
    init { n := 1; }
    render { boxed { post "n = " ++ n; } }
}
"#;

    #[test]
    fn store_versions_sources_in_first_seen_order() {
        let store = ProgramStore::new();
        let first = store.lookup(APP);
        assert!(first.result.is_ok());
        assert!(first.compiled_here);
        let again = store.lookup(APP);
        assert!(!again.compiled_here, "second lookup answers from cache");
        assert!(Arc::ptr_eq(
            &first.result.expect("compiled"),
            &again.result.expect("cached")
        ));
        assert_eq!(store.version_of(APP), Some(1));
        assert_eq!(store.version_count(), 1);

        let edited = APP.replace("n = ", "value: ");
        assert!(store.lookup(&edited).result.is_ok());
        assert_eq!(store.version_of(&edited), Some(2));
        assert_eq!(store.version_count(), 2);
        assert_eq!(store.version_of("never seen"), None);
    }

    #[test]
    fn failed_versions_are_cached() {
        let store = ProgramStore::new();
        assert!(store.lookup("not a program").compiled_here);
        let again = store.lookup("not a program");
        assert!(!again.compiled_here, "the failure answers from cache");
        assert!(again.result.is_err());
        assert_eq!(store.version_count(), 1, "the failure is a version too");
        assert_eq!(store.version_of("not a program"), Some(1));
    }

    #[test]
    fn default_rollout_is_ten_percent_immediate_single_fault() {
        let config = RolloutConfig::default();
        assert_eq!(config.canary_percent, 10);
        assert_eq!(config.observation_window_us, 0);
        assert_eq!(config.fault_threshold, 1);
    }
}
