//! Hot-path sweep: emit `BENCH_hotpath.json`.
//!
//! Runs one seeded world-call workload through the **tuned** hot path —
//! per-worker lock-free rings with work stealing, the EPTP-tagged
//! unified TLB on, and the default set-associative WT/IWT geometry —
//! and sweeps the worker count. No budgeted calls (timeout behaviour is
//! `serve_bench`'s business), so the simulated cycles are deterministic.
//! The binary asserts in-process:
//!
//! 1. tuned cycles-per-call stays under an absolute ceiling at every
//!    width (the perf-smoke regression gate);
//! 2. tuned simulated throughput scales monotonically with workers.
//!
//! The document also carries `pr2_baseline`: the frozen sweep of the
//! mutex-queue + TLB-off configuration this bench once measured the
//! tuned path against. That configuration no longer exists; its numbers
//! stay as a reference point, and the ceiling is derived from them.
//!
//! Usage: `hotpath [output-path] [--trace-out PATH]` (default
//! `BENCH_hotpath.json`). With `--trace-out` the tuned 4-worker point
//! is repeated with the obs plane recording and the combined
//! Perfetto/recording document is written to PATH.

use std::fmt::Write as _;

use machine::rng::SplitMix64;
use runtime::report::hit_rate;
use runtime::{trace_doc, CallRequest, ObsConfig, RuntimeConfig, WorldCallService};

const CALLS_PER_POINT: u64 = 6_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0x0_5CA1_AB1E;
const WORKING_SET_PAGES: u64 = 16;
/// Perf-smoke gate: simulated cycles per completed call, tuned, any
/// width. At least as strict as the gates it replaced: 73.2% fewer
/// cycles than the frozen baseline's 9,183.3 cyc/call at 4 workers.
const TUNED_CYCLES_PER_CALL_CEILING: f64 = 2_460.0;

/// The frozen baseline sweep (mutex queue, unified TLB off): `(workers,
/// total_cycles, cycles_per_call)` per point, same workload and seed.
const FROZEN_BASELINE: [(usize, u64, f64); 4] = [
    (1, 54_963_235, 9_160.5),
    (2, 55_008_835, 9_168.1),
    (4, 55_100_035, 9_183.3),
    (8, 55_282_435, 9_213.7),
];

struct Point {
    workers: usize,
    completed: u64,
    failed: u64,
    batches: u64,
    makespan_cycles: u64,
    total_cycles: u64,
    cycles_per_call: f64,
    wt_hit_rate: f64,
    iwt_hit_rate: f64,
    tlb_hit_rate: f64,
    queue_wait_cycles: u64,
    queue_wait_mean_cycles: f64,
    stolen: u64,
}

fn build_service(workers: usize, obs: ObsConfig) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        queue_capacity: CALLS_PER_POINT as usize,
        obs,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..4u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("hot-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        svc.attach_working_set(user, vm, WORKING_SET_PAGES)
            .expect("attach user working set");
        svc.attach_working_set(kernel, vm, WORKING_SET_PAGES)
            .expect("attach kernel working set");
        worlds.push(user);
        worlds.push(kernel);
    }
    (svc, worlds)
}

/// Same skewed draw as the serve bench, minus budgets: every call must
/// complete at every width, so cycles-per-completed-call is an
/// apples-to-apples number.
fn draw_request(rng: &mut SplitMix64, worlds: &[crossover::world::Wid]) -> CallRequest {
    let caller = worlds[rng.below(worlds.len() as u64) as usize];
    let callee = loop {
        let w = if rng.flip() {
            worlds[rng.below(2) as usize] // hot pair
        } else {
            worlds[rng.below(worlds.len() as u64) as usize]
        };
        if w != caller {
            break w;
        }
    };
    let work_cycles = 200 + rng.below(2_000);
    let touches = rng.below(2 * WORKING_SET_PAGES);
    CallRequest::new(caller, callee, work_cycles, work_cycles / 3).with_touches(touches)
}

fn run_point(workers: usize) -> Point {
    let (mut svc, worlds) = build_service(workers, ObsConfig::off());
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..CALLS_PER_POINT {
        svc.submit(draw_request(&mut rng, &worlds))
            .expect("rings open while benching");
    }
    svc.start();
    let report = svc.drain();
    assert_eq!(
        report.completed, CALLS_PER_POINT,
        "unbudgeted calls against live worlds all complete"
    );
    Point {
        workers,
        completed: report.completed,
        failed: report.failed,
        batches: report.batches,
        makespan_cycles: report.smp.makespan_cycles(),
        total_cycles: report.smp.total_cycles(),
        cycles_per_call: report.smp.total_cycles() as f64 / report.completed as f64,
        wt_hit_rate: hit_rate(report.wt.hits, report.wt.misses),
        iwt_hit_rate: hit_rate(report.iwt.hits, report.iwt.misses),
        tlb_hit_rate: hit_rate(report.tlb.hits, report.tlb.misses),
        queue_wait_cycles: report.queue_wait_cycles,
        queue_wait_mean_cycles: report.mean_queue_wait_cycles(),
        stolen: report.stolen,
    }
}

fn write_point(out: &mut String, p: &Point) {
    let _ = write!(
        out,
        "      {{\n\
         \x20       \"workers\": {},\n\
         \x20       \"completed\": {},\n\
         \x20       \"failed\": {},\n\
         \x20       \"batches\": {},\n\
         \x20       \"makespan_cycles\": {},\n\
         \x20       \"total_cycles\": {},\n\
         \x20       \"cycles_per_call\": {:.1},\n\
         \x20       \"wt_hit_rate\": {:.4},\n\
         \x20       \"iwt_hit_rate\": {:.4},\n\
         \x20       \"tlb_hit_rate\": {:.4},\n\
         \x20       \"queue_wait_cycles\": {},\n\
         \x20       \"queue_wait_mean_cycles\": {:.1},\n\
         \x20       \"stolen\": {}\n\
         \x20     }}",
        p.workers,
        p.completed,
        p.failed,
        p.batches,
        p.makespan_cycles,
        p.total_cycles,
        p.cycles_per_call,
        p.wt_hit_rate,
        p.iwt_hit_rate,
        p.tlb_hit_rate,
        p.queue_wait_cycles,
        p.queue_wait_mean_cycles,
        p.stolen,
    );
}

/// Re-runs the tuned 4-worker point with the obs plane recording and
/// writes the combined Perfetto/recording document.
fn trace_run(trace_path: &str) {
    let (mut svc, worlds) = build_service(4, ObsConfig::ring());
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..CALLS_PER_POINT {
        svc.submit(draw_request(&mut rng, &worlds))
            .expect("rings open while benching");
    }
    svc.start();
    let report = svc.drain();
    let doc = trace_doc("hotpath tuned", &report, 3.4).expect("obs was enabled for the traced run");
    std::fs::write(trace_path, doc.render_json()).expect("write trace json");
    eprintln!("wrote {trace_path} ({} events)", doc.events.len());
}

fn main() {
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    let mut tuned = Vec::new();
    for workers in WORKER_SWEEP {
        let p = run_point(workers);
        eprintln!(
            "   tuned workers={:2}  {:>7.0} cyc/call  wt/iwt/tlb {:.2}/{:.2}/{:.2}  \
             wait {:>7.0} cyc/call mean  stolen {}",
            p.workers,
            p.cycles_per_call,
            p.wt_hit_rate,
            p.iwt_hit_rate,
            p.tlb_hit_rate,
            p.queue_wait_mean_cycles,
            p.stolen,
        );
        tuned.push(p);
    }
    let tuned_cpc = tuned
        .iter()
        .find(|p| p.workers == 4)
        .map(|p| p.cycles_per_call)
        .expect("4-worker point present");
    eprintln!(
        "4-worker cycles/call: tuned {tuned_cpc:.1} (ceiling {TUNED_CYCLES_PER_CALL_CEILING})"
    );

    // Acceptance 1: absolute ceiling at every width (perf-smoke gate).
    for p in &tuned {
        assert!(
            p.cycles_per_call <= TUNED_CYCLES_PER_CALL_CEILING,
            "tuned cycles/call {} at {} workers exceeds ceiling {}",
            p.cycles_per_call,
            p.workers,
            TUNED_CYCLES_PER_CALL_CEILING
        );
    }
    // Acceptance 2: tuned throughput (completed / makespan) scales
    // monotonically with workers — simulated cycles, so deterministic.
    for w in tuned.windows(2) {
        let thr = |p: &Point| p.completed as f64 / p.makespan_cycles as f64;
        assert!(
            thr(&w[1]) > thr(&w[0]),
            "tuned throughput must scale monotonically ({} -> {} workers)",
            w[0].workers,
            w[1].workers
        );
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover hot-path sweep\",\n  \
         \"calls_per_point\": {CALLS_PER_POINT},\n  \
         \"working_set_pages\": {WORKING_SET_PAGES},\n  \
         \"tuned_cycles_per_call_4_workers\": {tuned_cpc:.1},\n  \
         \"pr2_baseline\": {{\n    \
         \"note\": \"frozen reference: mutex queue + unified TLB off, no longer run\",\n    \
         \"dispatch\": \"mutex queue\",\n    \
         \"unified_tlb\": false,\n    \
         \"points\": [\n"
    );
    for (j, (workers, total_cycles, cpc)) in FROZEN_BASELINE.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{ \"workers\": {workers}, \"total_cycles\": {total_cycles}, \
             \"cycles_per_call\": {cpc:.1} }}{}",
            if j + 1 < FROZEN_BASELINE.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str(
        "    ]\n  },\n  \"configs\": [\n    {\n      \"name\": \"tuned\",\n      \
         \"dispatch\": \"lock-free rings\",\n      \"unified_tlb\": true,\n      \
         \"points\": [\n",
    );
    for (j, p) in tuned.iter().enumerate() {
        write_point(&mut out, p);
        out.push_str(if j + 1 < tuned.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    std::fs::write(&out_path, out).expect("write benchmark json");
    eprintln!("wrote {out_path}");
    if let Some(trace_path) = trace_out {
        trace_run(&trace_path);
    }
}
