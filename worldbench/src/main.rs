//! The world-call benchmark: four workloads measured on two clocks.
//!
//! Virtual clock: the simulated cycles, world switches and latencies the
//! modeled hardware pays (the paper's metrics). Host clock: wall time,
//! heap allocations and peak heap of the Rust program serving the calls.
//! Every measurement is taken from outside the program — the benchmark
//! times its own calls into public functions and reads public reports.
//!
//! ```text
//! worldbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run repeats the workload (fresh set-up each time, same inputs,
//! which the seed generates) for `--seconds`, after one unmeasured
//! warm-up repetition, and reports the median of each metric over the
//! repetitions. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions (flight recorder on,
//! host spans around every public call) and prints the per-layer
//! metrics, writing the last traced repetition's spans to
//! `out/spans-<workload>.json` beside this package's manifest. The last line of standard output is one
//! JSON object; the exit code is 1 when any output check failed.

mod alloc;
mod metrics;
mod openloop;
mod paper;
mod service;
mod spans;
mod speed;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Rep, E2E, LAYERS};
use spans::Spans;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "classic_wide",
    "switchless_hot",
    "gateway_openloop",
    "paper_micro",
];

/// Measured repetitions a run always makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Per-layer host metrics read off the benchmark's spans: (layer
/// metric, span name).
const SPAN_LAYERS: [(&str, &str); 6] = [
    ("ring.submit_ns", "submit"),
    ("epoch.register_ns", "register_churn"),
    ("epoch.delete_ns", "delete_world"),
    ("gateway.enqueue_ns", "enqueue"),
    ("systems.redirected_ns_per_op", "run_redirected"),
    ("systems.native_ns_per_op", "run_native"),
];

/// One workload: generated inputs plus a repeatable measured run.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Sets up, serves and checks one repetition. `traced` turns on the
    /// program's flight recorder; `spans` records host spans when it was
    /// made enabled.
    fn rep(&mut self, traced: bool, spans: &mut Spans) -> Rep;
}

fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "classic_wide" => Box::new(service::ClassicWide::new(seed)),
        "switchless_hot" => Box::new(service::SwitchlessHot::new(seed)),
        "gateway_openloop" => Box::new(openloop::GatewayOpenLoop::new(seed)),
        "paper_micro" => Box::new(paper::PaperMicro::new(seed)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

/// The medians of one workload's run, ready to print.
struct Summary {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    violations: Vec<String>,
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    stats::median(&mut v)
}

/// Repeats `w` for `seconds` after one warm-up repetition and reduces
/// the repetitions to medians.
fn measure(w: &mut dyn Workload, seconds: u64, trace: bool, spans: &mut Spans) -> Summary {
    let mut violations = Vec::new();
    let warm = w.rep(false, &mut Spans::new(false));
    let reference = warm.exact.clone();
    violations.extend(warm.violations);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while plain.len() < MIN_REPS || Instant::now() < deadline {
        plain.push(w.rep(false, &mut Spans::new(false)));
        if trace {
            // The span file keeps the last traced repetition.
            spans.clear();
            let mut rep = w.rep(true, spans);
            for (layer, span) in SPAN_LAYERS {
                rep.layers.insert(layer, spans.mean_ns(span));
            }
            traced.push(rep);
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    for (i, rep) in plain.iter().chain(&traced).enumerate() {
        attempted += rep.attempted;
        failed += rep.failed;
        violations.extend(rep.violations.iter().cloned());
        if rep.exact != reference {
            violations.push(format!(
                "{}: repetition {i} read {:?} where the warm-up read {reference:?}",
                w.name(),
                rep.exact
            ));
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if trace {
        let plain_ns = median_of(&plain, |r| r.serve_ns);
        let traced_ns = median_of(&traced, |r| r.serve_ns);
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "obs.overhead_pct" => 100.0 * (traced_ns / plain_ns - 1.0),
                    "run.reps" => traced.len() as f64,
                    _ => median_of(&traced, |r| r.layers.get(name).copied().unwrap_or(0.0)),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        E2E.iter()
            .enumerate()
            .map(|(i, &(name, unit))| (name, unit, median_of(&plain, |r| r.e2e.values()[i])))
            .collect()
    };
    for rep in plain.iter().chain(&traced) {
        for name in rep.layers.keys() {
            assert!(
                LAYERS.iter().any(|&(n, _)| n == *name),
                "per-layer metric {name} is not in the LAYERS list"
            );
        }
    }
    for &(name, _, value) in &metrics {
        if !value.is_finite() {
            violations.push(format!("{}: {name} is not a number", w.name()));
        }
    }
    Summary {
        workload: w.name(),
        attempted,
        failed,
        metrics,
        violations,
    }
}

/// Formats a value with every digit it was measured to (JSON has no
/// non-finite numbers, so those print as 0 and are flagged as failed
/// checks by [`measure`]).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.json"))
}

fn main() -> ExitCode {
    alloc::pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("worldbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    eprintln!(
        "worldbench: seed {} seconds {} trace {} on {} host threads",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut summaries = Vec::new();
    for name in names {
        let mut w = make(name, args.seed).expect("name validated by parse_args");
        let mut spans = Spans::new(args.trace);
        let summary = measure(w.as_mut(), args.seconds, args.trace, &mut spans);
        if args.trace {
            let path = spans_path(name);
            if let Err(e) = spans.write_json(&path) {
                eprintln!("worldbench: cannot write {}: {e}", path.display());
            }
        }
        println!("{}", summary.workload);
        for &(metric, unit, value) in &summary.metrics {
            println!("  {metric:<38} {value:>16.4} {unit}");
        }
        let mut shown: Vec<&String> = Vec::new();
        for v in &summary.violations {
            if !shown.contains(&v) {
                shown.push(v);
                let times = summary.violations.iter().filter(|w| *w == v).count();
                println!("  CHECK FAILED ({times}x): {v}");
            }
        }
        summaries.push(summary);
    }

    let correct = summaries
        .iter()
        .all(|s| s.violations.is_empty() && s.failed == 0);
    let attempted = summaries.iter().map(|s| s.attempted).sum();
    let failed = summaries.iter().map(|s| s.failed).sum();
    let prefix = summaries.len() > 1;
    let metrics: Vec<(String, &str, f64)> = summaries
        .iter()
        .flat_map(|s| {
            s.metrics.iter().map(move |&(m, u, v)| {
                let name = if prefix {
                    format!("{}/{m}", s.workload)
                } else {
                    m.to_string()
                };
                (name, u, v)
            })
        })
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
