//! Throughput harness: sweep the worker count, emit `BENCH_runtime.json`.
//!
//! Scenario: four tenant VMs, each with a user and a kernel world, plus
//! two host-side service worlds — 10 worlds total. A seeded PRNG draws
//! call requests across them (callee-weighted so destination batching
//! has something to batch). Guest callees carry small attached working
//! sets; most bodies touch a few pages through the worker's unified TLB,
//! so the memory path is exercised alongside the call path.
//!
//! ## Timeouts are deterministic — by design
//!
//! A small fraction (3%) of requests are *abusive*: they carry a §3.4
//! budget deliberately below their body work. The deadline token is
//! armed from the **executing worker's** meter at the moment the call
//! starts (see `runtime::worker::execute`), so it bounds on-CPU callee
//! service time only — queue wait is excluded (and reported separately
//! as `queue_wait_cycles`). An abusive call therefore *must* expire no
//! matter how many workers run or how long it queued, and a
//! well-behaved call can never be cancelled by dispatch delay. With the
//! per-point request stream fixed by the seed, `timed_out` is the same
//! at every sweep point; that constancy is the §3.4 defence working,
//! not a derivation bug.
//!
//! Two kinds of numbers come out:
//!
//! * **Simulated** throughput/latency from the cycle meters — derived
//!   from the makespan (busiest core) at the Haswell 3.4 GHz model
//!   frequency, so they are deterministic and host-independent. This is
//!   the number the scaling claim is made on.
//! * **Host wall-clock** per sweep point — informational only.
//!
//! Usage: `serve_bench [output-path] [--calls N] [--trace-out PATH]
//! [--metrics-out PATH]` (default output `BENCH_runtime.json`).
//!
//! With `--trace-out`, after the sweep the harness re-runs the 4-worker
//! point twice back to back — obs off, then obs on — prints both host
//! walls and their ratio (the recording overhead), and writes the
//! obs-on run's combined Perfetto/recording JSON to the given path
//! (replay it with `xover-trace`, or load it in
//! <https://ui.perfetto.dev>). `--metrics-out` additionally dumps the
//! obs-on run's Prometheus-style text metrics.

use std::time::Instant;

use machine::rng::SplitMix64;
use xover_runtime::report::{hit_rate, render_json, BenchPoint};
use xover_runtime::{
    metrics_registry, trace_doc, CallRequest, ObsConfig, RuntimeConfig, ServiceReport,
    WorldCallService,
};

const FREQUENCY_GHZ: f64 = 3.4;
const CALLS_PER_POINT: u64 = 10_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0xC0DE_BEEF;
/// Pages attached to each guest world's working set.
const WORKING_SET_PAGES: u64 = 16;

/// Builds the tenant scenario and returns the service plus the world
/// pool (callers and callees). Guest worlds get working sets attached;
/// host service worlds have no VM to allocate from and stay memory-less
/// (their bodies never touch).
fn build_service(
    workers: usize,
    calls: u64,
    obs: ObsConfig,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        // Room for the whole request stream: the sweep pre-fills the
        // dispatcher before starting the pool, so the measurement is
        // pure strong scaling, not submitter-throughput-bound.
        queue_capacity: calls as usize,
        obs,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..4u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("tenant-{t}")))
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
    for s in 0..2u64 {
        worlds.push(
            svc.register_world(crossover::world::WorldDescriptor::host_kernel(
                0x100_0000 * (s + 1),
                0xE000,
            ))
            .expect("register host world"),
        );
    }
    (svc, worlds)
}

/// Draws one request. Callee selection is skewed (half the draws land on
/// two hot worlds) so batching and stealing are realistic. Most
/// bodies touch a few working-set pages; 3% are abusive (budget below
/// their body work — guaranteed §3.4 cancellation, see module docs).
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
    let req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3).with_touches(touches);
    if rng.chance(0.03) {
        // Deadline far below the body work: guaranteed cancellation
        // regardless of worker count or queueing (service time only).
        req.with_budget(work_cycles / 4)
    } else {
        req
    }
}

fn run_point(workers: usize, calls: u64, obs: ObsConfig) -> (BenchPoint, ServiceReport) {
    let (mut svc, worlds) = build_service(workers, calls, obs);
    let mut rng = SplitMix64::new(SEED); // same request stream per point
    for _ in 0..calls {
        svc.submit(draw_request(&mut rng, &worlds))
            .expect("queue open while benching");
    }
    let wall_start = Instant::now();
    svc.start();
    let report = svc.drain();
    let host_wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    // Percentiles come from the drain-built log-bucketed histogram —
    // O(buckets) per read instead of the old O(n log n) sorted-Vec scan.
    let hist = &report.latency_hist;
    let point = BenchPoint {
        workers,
        submitted: calls,
        completed: report.completed,
        timed_out: report.timed_out,
        failed: report.failed,
        dead_lettered: report.dead_lettered,
        rejected_busy: report.rejected_busy,
        batches: report.batches,
        makespan_cycles: report.smp.makespan_cycles(),
        total_cycles: report.smp.total_cycles(),
        sim_calls_per_sec: report.sim_calls_per_sec(FREQUENCY_GHZ * 1e9),
        p50_latency_cycles: hist.value_at_percentile(50.0),
        p90_latency_cycles: hist.value_at_percentile(90.0),
        p99_latency_cycles: hist.value_at_percentile(99.0),
        p999_latency_cycles: hist.value_at_percentile(99.9),
        latency_buckets: hist.nonzero_buckets(),
        wt_hit_rate: hit_rate(report.wt.hits, report.wt.misses),
        iwt_hit_rate: hit_rate(report.iwt.hits, report.iwt.misses),
        tlb_hit_rate: hit_rate(report.tlb.hits, report.tlb.misses),
        queue_wait_cycles: report.queue_wait_cycles,
        queue_wait_mean_cycles: report.mean_queue_wait_cycles(),
        stolen: report.stolen,
        writer_contended: report.table.writer_contended,
        ipi_dropped: report.smp.total_ipi_dropped(),
        host_wall_ms,
    };
    (point, report)
}

struct Args {
    out_path: String,
    calls: u64,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_path: "BENCH_runtime.json".to_string(),
        calls: CALLS_PER_POINT,
        trace_out: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--calls" => {
                let v = it.next().expect("--calls needs a value");
                args.calls = v.parse().expect("--calls must be an integer");
            }
            "--trace-out" => args.trace_out = Some(it.next().expect("--trace-out needs a path")),
            "--metrics-out" => {
                args.metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => args.out_path = positional.to_string(),
        }
    }
    args
}

/// The traced point: the 4-worker configuration run twice back to back,
/// obs off then obs on, so the recording overhead is measured on the
/// spot. The virtual-time metrics are unaffected by recording (events
/// charge zero cycles); only host wall can differ.
fn traced_point(args: &Args, trace_path: &str) {
    let (off, _) = run_point(4, args.calls, ObsConfig::off());
    let (on, report) = run_point(4, args.calls, ObsConfig::ring());
    let ratio = if off.host_wall_ms > 0.0 {
        on.host_wall_ms / off.host_wall_ms
    } else {
        1.0
    };
    eprintln!(
        "trace point: obs off {:.1} ms, obs on {:.1} ms host wall ({:+.1}% overhead)",
        off.host_wall_ms,
        on.host_wall_ms,
        (ratio - 1.0) * 100.0
    );
    // Loose tripwire only: host wall is noisy (CI, laptops); the
    // measured overhead on a quiet machine is documented in DESIGN.md.
    assert!(
        ratio < 2.0,
        "obs-on host wall more than doubled ({ratio:.2}x) — recording cost regressed"
    );
    let doc = trace_doc("serve_bench w=4", &report, FREQUENCY_GHZ)
        .expect("obs was enabled for the traced run");
    std::fs::write(trace_path, doc.render_json()).expect("write trace json");
    eprintln!("wrote {trace_path} ({} events)", doc.events.len());
    if let Some(metrics_path) = &args.metrics_out {
        let reg = metrics_registry(&report);
        std::fs::write(metrics_path, reg.render_prometheus()).expect("write metrics dump");
        eprintln!("wrote {metrics_path}");
    }
}

fn main() {
    let args = parse_args();
    let mut points = Vec::new();
    for workers in WORKER_SWEEP {
        let (p, _) = run_point(workers, args.calls, ObsConfig::off());
        eprintln!(
            "workers={:2}  sim {:>12.0} calls/s  p50 {:>5} cyc  p99 {:>5} cyc  \
             wt/iwt/tlb {:.2}/{:.2}/{:.2}  timeouts {}  stolen {}  ({:.0} ms host)",
            p.workers,
            p.sim_calls_per_sec,
            p.p50_latency_cycles,
            p.p99_latency_cycles,
            p.wt_hit_rate,
            p.iwt_hit_rate,
            p.tlb_hit_rate,
            p.timed_out,
            p.stolen,
            p.host_wall_ms,
        );
        points.push(p);
    }
    for w in points.windows(2) {
        assert!(
            w[1].sim_calls_per_sec > w[0].sim_calls_per_sec,
            "throughput must scale monotonically with workers ({} -> {})",
            w[0].workers,
            w[1].workers
        );
    }
    // The abusive fraction is fixed by the seed, and deadlines bound
    // service time only, so every point cancels the same calls.
    for w in points.windows(2) {
        assert_eq!(
            w[0].timed_out, w[1].timed_out,
            "deterministic abusive stream must time out identically at every point"
        );
    }
    let doc = render_json(
        "xover-runtime world-call service sweep",
        FREQUENCY_GHZ,
        args.calls,
        &points,
    );
    std::fs::write(&args.out_path, doc).expect("write benchmark json");
    eprintln!("wrote {}", args.out_path);
    if let Some(trace_path) = args.trace_out.clone() {
        traced_point(&args, &trace_path);
    }
}
