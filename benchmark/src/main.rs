//! One benchmark for the live loop of its-alive.
//!
//! ```text
//! alive-loop-bench --workload <keystroke|tap|tap_memo|hosted> --seed <u64>
//!                  --seconds <n> --trace <0|1>
//! ```
//!
//! Each run drives one workload over the 20-program scenario corpus for
//! `--seconds`, checks every output, prints a metric table on stderr
//! and, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the same streams
//! are replayed through a rebuilt, traced frame loop and the metrics are
//! the per-layer ones. A run exits non-zero if any check fails or any
//! command's outcome differs from the one its generator expected.
//! See README.md for the workloads and the metric → layer map.

mod alloc;
mod corpus;
mod gen;
mod hosted;
mod solo;
mod stats;
mod traced;

use solo::Stream;
use stats::{Metrics, Samples};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The latency diagnostics reported with the per-layer metrics: tail
/// quantiles (not gated: they do not repeat within a tenth) and the
/// mean per corpus size.
pub fn e2e_diagnostics(all: &Samples, by_size: &[Samples; 4], out: &mut Metrics) {
    out.put("e2e.latency_p50_us", all.quantile_us(0.50), "us");
    out.put("e2e.latency_p99_us", all.quantile_us(0.99), "us");
    out.put("e2e.latency_p999_us", all.quantile_us(0.999), "us");
    out.put("e2e.samples", all.len() as f64, "count");
    for (size, samples) in alive_corpus::CorpusSize::all().iter().zip(by_size) {
        out.put(
            format!("size.{}.latency_mean_us", size.name()),
            samples.mean_us(),
            "us",
        );
    }
}

fn solo_workload(
    entries: &[corpus::Entry],
    stream: Stream,
    memo: bool,
    args: &Args,
) -> hosted::Report {
    alloc::set_counting(args.trace);
    let (out, mut lanes) = solo::run(entries, stream, memo, args.trace, args.seed, args.seconds);
    alloc::set_counting(false);

    let mut correct = solo::views_match_from_scratch(entries, &mut lanes);
    if memo {
        correct &= solo::memo_views_match_plain(entries, &mut lanes);
    }
    let mut metrics = Metrics::default();
    if args.trace {
        out.tracer.report(out.traced.total_ns(), &mut metrics);
        hosted::serve_metrics(&Default::default(), &[], &mut metrics);
        e2e_diagnostics(&out.samples, &out.by_size, &mut metrics);
    } else {
        let (mean_us, p90_us, setup_s) = out.round_summary();
        metrics.put("latency_mean_us", mean_us, "us");
        metrics.put("latency_p90_us", p90_us, "us");
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    let means: Vec<String> = out.rounds.iter().map(|r| format!("{:.0}", r.0)).collect();
    eprintln!("round means (us): {}", means.join(" "));
    hosted::Report {
        correct,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: alive-loop-bench --workload <keystroke|tap|tap_memo|hosted> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let entries = match corpus::load() {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("corpus check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match args.workload.as_str() {
        "keystroke" => solo_workload(&entries, Stream::Keystroke, false, &args),
        "tap" => solo_workload(&entries, Stream::Tap, false, &args),
        "tap_memo" => solo_workload(&entries, Stream::Tap, true, &args),
        "hosted" => hosted::run(&entries, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} (seed {}, trace {}): {} attempted, {} failed, outputs {}\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        if report.correct { "correct" } else { "WRONG" },
        report.metrics.table()
    );
    let ok = report.correct && report.failed == 0 && report.attempted > 0;
    println!(
        "{}",
        report
            .metrics
            .result_json(ok, report.attempted, report.failed)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
