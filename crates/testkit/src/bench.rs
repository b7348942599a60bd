//! A micro-bench timer harness: warmup, then K samples of adaptively
//! sized iteration batches, reporting the median ns/iter as JSON on
//! stdout. A zero-dependency stand-in for Criterion, driving the same
//! `harness = false` bench targets.
//!
//! Mode selection mirrors Cargo's calling conventions:
//!
//! * `cargo bench` passes `--bench` → full measurement;
//! * `cargo test` (which also builds and runs bench targets) passes no
//!   `--bench` → *smoke mode*: every closure runs once, so benches are
//!   correctness-checked on every test run without burning time;
//! * `ALIVE_BENCH_FULL=1` forces full measurement regardless.
//!
//! Any non-flag CLI argument is a substring filter on bench names.

use std::time::{Duration, Instant};

/// One bench's measurements, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name (`group/name/param`).
    pub name: String,
    /// Median over samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// A bench group: create with [`Bench::from_args`], register benches
/// with [`Bench::bench`], print the JSON report with [`Bench::finish`].
#[derive(Debug)]
pub struct Bench {
    group: String,
    warmup: Duration,
    sample_time: Duration,
    samples: usize,
    full: bool,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Build a harness for `group`, reading mode and filter from the
    /// process arguments (see module docs).
    pub fn from_args(group: &str) -> Bench {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let full = args.iter().any(|a| a == "--bench")
            || std::env::var("ALIVE_BENCH_FULL").is_ok_and(|v| v == "1");
        let filter = args.into_iter().find(|a| !a.starts_with("--"));
        Bench {
            group: group.to_string(),
            warmup: Duration::from_millis(60),
            sample_time: Duration::from_millis(12),
            samples: 15,
            full,
            filter,
            results: Vec::new(),
        }
    }

    /// Override the warmup budget (full mode only).
    pub fn warmup(mut self, warmup: Duration) -> Bench {
        self.warmup = warmup;
        self
    }

    /// Override the per-sample time budget (full mode only).
    pub fn sample_time(mut self, sample_time: Duration) -> Bench {
        self.sample_time = sample_time;
        self
    }

    /// Override the sample count K (median-of-K; full mode only).
    pub fn samples(mut self, samples: usize) -> Bench {
        self.samples = samples.max(1);
        self
    }

    /// Time `f`, recording a result under `group/name`. In smoke mode
    /// the closure runs exactly once.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let full_name = format!("{}/{}", self.group, name);
        if let Some(filter) = &self.filter {
            if !full_name.contains(filter.as_str()) {
                return;
            }
        }
        if !self.full {
            std::hint::black_box(f());
            self.results.push(BenchResult {
                name: full_name,
                median_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
                samples: 0,
                iters: 1,
            });
            return;
        }

        // Warmup, measuring a rough per-iteration cost as we go.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.warmup || warmup_iters == 0 {
            std::hint::black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64;

        // Size the batches so one sample ≈ sample_time.
        let iters = ((self.sample_time.as_nanos() as f64 / per_iter.max(1.0)).ceil() as u64)
            .clamp(1, 10_000_000);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            sample_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let median = if sample_ns.len() % 2 == 1 {
            sample_ns[sample_ns.len() / 2]
        } else {
            let hi = sample_ns.len() / 2;
            (sample_ns[hi - 1] + sample_ns[hi]) / 2.0
        };
        let result = BenchResult {
            name: full_name,
            median_ns: median,
            min_ns: sample_ns[0],
            max_ns: *sample_ns.last().expect("samples >= 1"),
            samples: sample_ns.len(),
            iters,
        };
        eprintln!(
            "{:<48} {:>12.1} ns/iter  (min {:.1}, max {:.1}, {} × {} iters)",
            result.name,
            result.median_ns,
            result.min_ns,
            result.max_ns,
            result.samples,
            result.iters,
        );
        self.results.push(result);
    }

    /// Print the JSON report to stdout and return the results.
    pub fn finish(self) -> Vec<BenchResult> {
        println!("{}", self.to_json());
        self.results
    }

    /// The report as a single JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"group\":{},\"mode\":\"{}\",\"benches\":[",
            json_string(&self.group),
            if self.full { "full" } else { "smoke" },
        ));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"median_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters\":{}}}",
                json_string(&r.name),
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.samples,
                r.iters,
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_harness(group: &str) -> Bench {
        // Unit tests must not depend on process args: force smoke mode.
        Bench {
            group: group.to_string(),
            warmup: Duration::from_millis(1),
            sample_time: Duration::from_millis(1),
            samples: 3,
            full: false,
            filter: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn smoke_mode_runs_each_closure_once() {
        let mut calls = 0u32;
        let mut b = smoke_harness("g");
        b.bench("once", || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(b.results.len(), 1);
        assert_eq!(b.results[0].name, "g/once");
    }

    #[test]
    fn full_mode_measures_and_reports_medians() {
        let mut b = smoke_harness("g");
        b.full = true;
        b.warmup = Duration::from_micros(200);
        b.sample_time = Duration::from_micros(100);
        let mut acc = 0u64;
        b.bench("work", || {
            acc = acc.wrapping_add(std::hint::black_box(17));
        });
        let r = &b.results[0];
        assert!(r.median_ns >= 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert_eq!(r.samples, 3);
        assert!(r.iters >= 1);
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut b = smoke_harness("quote\"group");
        b.bench("a/1", || 1 + 1);
        let json = b.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"quote\\\"group\""));
        assert!(json.contains("\"mode\":\"smoke\""));
        assert!(json.contains("\"name\":\"quote\\\"group/a/1\""));
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        let mut b = smoke_harness("g");
        b.filter = Some("keep".to_string());
        let mut ran = Vec::new();
        b.bench("keep_me", || ran.push("keep"));
        b.bench("drop_me", || ran.push("drop"));
        assert_eq!(ran, vec!["keep"]);
        assert_eq!(b.results.len(), 1);
    }
}
