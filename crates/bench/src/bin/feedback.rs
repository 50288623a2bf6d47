//! Trace-driven prefill ablation: emit `BENCH_feedback.json`.
//!
//! The workload is the adversarial one prefill was built for:
//! [`workloads::shifting_hotspot`] — Zipf(1.3) endpoints over
//! forty-eight guest worlds (more worlds than WT/IWT slots, so the
//! world-table caches churn) whose hot set is re-permuted every phase
//! on a seeded virtual-time schedule. Each shift invalidates what the
//! runtime has learned at once: per-lane budgets anneal onto lanes that
//! just went cold, and the recorded call trace stops covering the pairs
//! the next drains will hit.
//!
//! Points (all on the same seeded stream, switchless adaptive, the one
//! occupancy-heuristic budget controller):
//!
//! * **adaptive** — no prefill (`SwitchlessConfig::prefill` off).
//! * **feedback** — trace-driven WT/IWT/TLB prefill on.
//!
//! The document also carries `historical`: the frozen figures of the
//! latency-driven budget rule (`fb-budgets`), queue-wait-biased
//! stealing (`fb-steal`) and prefill alone (`fb-prefill`) as the last
//! tree that had all three measured them. The first two never beat
//! `adaptive` and no longer exist; their numbers stay as the record of
//! why.
//!
//! In-process acceptance:
//!
//! 1. **prefill beats adaptive** — fewer simulated cycles per completed
//!    call on the shifting-hotspot workload;
//! 2. **re-convergence** — on three seeds (single worker, so the
//!    virtual-time schedule is deterministic), partitioning the
//!    controller's epoch history into the workload's phase windows,
//!    the budget vector re-converges (a stable run of identical
//!    vectors) within *every* phase window, not just the last.
//!
//! Usage: `feedback [output-path] [--trace-out PATH]` (default
//! `BENCH_feedback.json`). With `--trace-out` the feedback point is
//! re-run with the obs plane recording and the combined
//! Perfetto/recording JSON written to the given path — budget moves
//! and prefill runs show up as instant events on the worker tracks.

use std::fmt::Write as _;

use machine::rng::SplitMix64;
use runtime::{
    trace_doc, CallRequest, EpochSnapshot, ObsConfig, RuntimeConfig, ServiceReport,
    SwitchlessConfig, WorldCallService,
};
use workloads::shifting_hotspot::ShiftingHotspot;

const FREQUENCY_GHZ: f64 = 3.4;

const CALLS_PER_POINT: u64 = 16_000;
const WORKERS: usize = 4;
const SEED: u64 = 0x5EED_C0A1;
/// Re-convergence is checked on three distinct streams.
const CONVERGENCE_SEEDS: [u64; 3] = [0x5EED_C0A1, 0xB10C_CAFE, 0x00DD_BA11];
/// Zipf exponent for the hotspot's popularity law.
const ZIPF_S: f64 = 1.3;
/// Hot-set permutations the schedule rotates through.
const PHASES: usize = 4;
/// Virtual gap between consecutive arrivals on the workload's schedule
/// clock; one phase spans `CALLS_PER_POINT / PHASES` arrivals.
const ARRIVAL_GAP_CYCLES: u64 = 1_000;
const WORKING_SET_PAGES: u64 = 8;
/// Epochs per controller adjustment window — short, as in the
/// switchless bench, so each phase holds a dozen-plus epochs.
const EPOCH_CYCLES: u64 = 60_000;
/// Final epochs of each phase window whose budget vectors must match.
const FINAL_EPOCHS: usize = 3;

/// Frozen figures of the retired policies, measured at commit 9ba55b5
/// on this workload (4 workers, [`SEED`]): `(name, cycles/call, total
/// cycles, makespan, WTC miss faults, stolen)`.
const HISTORICAL: [(&str, f64, u64, u64, u64, u64); 3] = [
    ("fb-budgets", 1422.8, 22_765_420, 5_724_592, 5066, 1853),
    ("fb-steal", 1434.0, 22_943_725, 5_822_465, 5147, 1575),
    ("fb-prefill", 1341.6, 21_465_729, 5_462_019, 4325, 1613),
];

fn switchless_adaptive(prefill: bool) -> SwitchlessConfig {
    SwitchlessConfig {
        epoch_cycles: EPOCH_CYCLES,
        prefill,
        ..SwitchlessConfig::adaptive()
    }
}

fn workload(seed: u64) -> ShiftingHotspot {
    let phase_cycles = (CALLS_PER_POINT / PHASES as u64) * ARRIVAL_GAP_CYCLES;
    ShiftingHotspot::new(TENANTS * 2, ZIPF_S, PHASES, phase_cycles, seed)
}

/// Tenant VMs backing the workload; 2 worlds each. 48 worlds beats the
/// 32-slot WT/IWT geometry, so the world-table caches actually churn —
/// the regime where a 2600-cycle WTC miss fault is worth a 180-cycle
/// speculative walk.
const TENANTS: usize = 24;

/// `TENANTS × user/kernel` guest worlds, working sets and switchless
/// channels on all of them — wide enough that a hot-set shift moves
/// load onto worlds neither the caches nor the recorded trace have
/// seen recently.
fn build_service(
    switchless: SwitchlessConfig,
    workers: usize,
    obs: ObsConfig,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        queue_capacity: CALLS_PER_POINT as usize,
        batch_max: 32,
        switchless,
        obs,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    let mut vms = Vec::new();
    for t in 0..TENANTS as u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("fb-{t}")))
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
        vms.push(vm);
    }
    for (i, &w) in worlds.iter().enumerate() {
        svc.attach_channel(w, vms[i / 2]).expect("attach channel");
    }
    (svc, worlds)
}

/// Draws request `i`: both endpoints from the hotspot law at the
/// arrival's schedule instant, so each phase carries deep
/// same-(caller, callee) runs between *that phase's* hot worlds.
fn draw_request(
    i: u64,
    hotspot: &ShiftingHotspot,
    rng: &mut SplitMix64,
    worlds: &[crossover::world::Wid],
) -> CallRequest {
    let now = i * ARRIVAL_GAP_CYCLES;
    let callee = worlds[hotspot.sample(now, rng)];
    let caller = loop {
        let w = worlds[hotspot.sample(now, rng)];
        if w != callee {
            break w;
        }
    };
    let work_cycles = 60 + rng.below(240);
    let touches = rng.below(4);
    CallRequest::new(caller, callee, work_cycles, work_cycles / 3).with_touches(touches)
}

fn run(switchless: SwitchlessConfig, seed: u64, workers: usize, obs: ObsConfig) -> ServiceReport {
    let (mut svc, worlds) = build_service(switchless, workers, obs);
    let hotspot = workload(seed);
    let mut rng = SplitMix64::new(seed);
    for i in 0..CALLS_PER_POINT {
        svc.submit(draw_request(i, &hotspot, &mut rng, &worlds))
            .expect("dispatcher open while benching");
    }
    svc.start();
    let report = svc.drain();
    assert_eq!(
        report.completed, CALLS_PER_POINT,
        "unbudgeted calls against live worlds all complete"
    );
    report
}

struct Point {
    name: &'static str,
    completed: u64,
    cycles_per_call: f64,
    makespan_cycles: u64,
    total_cycles: u64,
    coalesced_calls: u64,
    classic_calls: u64,
    transitions_per_call: f64,
    stolen: u64,
    wtc_miss_faults: u64,
    prefill_runs: u64,
    prefill_fills: u64,
    prefill_warm_skips: u64,
    prefill_walk_cycles: u64,
    prefill_tlb_touches: u64,
    epochs: usize,
}

fn point(name: &'static str, report: &ServiceReport) -> Point {
    let sw = &report.switchless;
    Point {
        name,
        completed: report.completed,
        cycles_per_call: report.smp.total_cycles() as f64 / report.completed as f64,
        makespan_cycles: report.smp.makespan_cycles(),
        total_cycles: report.smp.total_cycles(),
        coalesced_calls: sw.drain.coalesced_calls,
        classic_calls: sw.classic_calls,
        transitions_per_call: (sw.world_calls + sw.world_returns) as f64 / report.completed as f64,
        stolen: report.stolen,
        wtc_miss_faults: report.wt.misses + report.iwt.misses,
        prefill_runs: sw.prefill.runs,
        prefill_fills: sw.prefill.fills,
        prefill_warm_skips: sw.prefill.warm_skips,
        prefill_walk_cycles: sw.prefill.walk_cycles,
        prefill_tlb_touches: sw.prefill.tlb_touches,
        epochs: sw.epochs.len(),
    }
}

fn write_point(out: &mut String, p: &Point) {
    let _ = write!(
        out,
        "    {{\n\
         \x20     \"name\": \"{}\",\n\
         \x20     \"completed\": {},\n\
         \x20     \"cycles_per_call\": {:.1},\n\
         \x20     \"makespan_cycles\": {},\n\
         \x20     \"total_cycles\": {},\n\
         \x20     \"coalesced_calls\": {},\n\
         \x20     \"classic_calls\": {},\n\
         \x20     \"transitions_per_call\": {:.3},\n\
         \x20     \"stolen\": {},\n\
         \x20     \"wtc_miss_faults\": {},\n\
         \x20     \"prefill_runs\": {},\n\
         \x20     \"prefill_fills\": {},\n\
         \x20     \"prefill_warm_skips\": {},\n\
         \x20     \"prefill_walk_cycles\": {},\n\
         \x20     \"prefill_tlb_touches\": {},\n\
         \x20     \"epochs\": {}\n\
         \x20   }}",
        p.name,
        p.completed,
        p.cycles_per_call,
        p.makespan_cycles,
        p.total_cycles,
        p.coalesced_calls,
        p.classic_calls,
        p.transitions_per_call,
        p.stolen,
        p.wtc_miss_faults,
        p.prefill_runs,
        p.prefill_fills,
        p.prefill_warm_skips,
        p.prefill_walk_cycles,
        p.prefill_tlb_touches,
        p.epochs,
    );
}

/// Whether `run` of [`FINAL_EPOCHS`] consecutive snapshots agrees on
/// every lane present at its start. Lanes *first sighted* inside the
/// run are excluded — a Zipf-tail lane's first-ever call adds an entry
/// to the budget vector, and that is the controller responding, not
/// failing to settle.
fn stable_run(run: &[EpochSnapshot]) -> bool {
    let base: std::collections::HashMap<usize, usize> = run[0].budgets.iter().copied().collect();
    run[1..].iter().all(|snap| {
        let now: std::collections::HashMap<usize, usize> = snap.budgets.iter().copied().collect();
        base.iter()
            .all(|(lane, budget)| now.get(lane) == Some(budget))
    })
}

/// Re-convergence within one phase window: after the shift transient,
/// the controller must reach a budget fixed point and *hold* it — some
/// [`FINAL_EPOCHS`]-epoch stable run must exist in the window. An
/// existence check (rather than pinning the window's final epochs, as
/// [`runtime::converged`] does for the run-end check) keeps the
/// assertion honest under the one approximation made here: phase
/// boundaries are estimated by equal division of the makespan, so a
/// window's edges can land a few epochs inside a neighboring phase.
fn reconverged(window: &[EpochSnapshot]) -> bool {
    window.len() >= FINAL_EPOCHS && window.windows(FINAL_EPOCHS).any(stable_run)
}

/// Splits the controller's epoch history into the workload's phase
/// windows by processing time. The phases carry identically distributed
/// body work, so with a single worker each spans roughly an equal share
/// of the makespan; the first eighth of each window is dropped as the
/// shift transient (plus boundary-estimate slack) the re-convergence
/// check is explicitly *not* about.
fn phase_windows(epochs: &[EpochSnapshot], makespan: u64) -> Vec<Vec<EpochSnapshot>> {
    let width = makespan / PHASES as u64;
    (0..PHASES as u64)
        .map(|p| {
            let lo = p * width + width / 8;
            let hi = (p + 1) * width;
            epochs
                .iter()
                .filter(|e| e.at_cycles >= lo && e.at_cycles < hi)
                .cloned()
                .collect()
        })
        .collect()
}

/// Records the feedback point with the obs plane on and writes the
/// combined Perfetto/recording document.
fn trace_run(trace_path: &str) {
    let report = run(switchless_adaptive(true), SEED, WORKERS, ObsConfig::ring());
    let doc = trace_doc("feedback shifting-hotspot", &report, FREQUENCY_GHZ)
        .expect("obs was enabled for the traced run");
    std::fs::write(trace_path, doc.render_json()).expect("write trace json");
    eprintln!("wrote {trace_path} ({} events)", doc.events.len());
}

fn main() {
    let mut out_path = "BENCH_feedback.json".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            positional => out_path = positional.to_string(),
        }
    }

    let ablations = [("adaptive", false), ("feedback", true)];
    let mut points = Vec::new();
    for (name, prefill) in ablations {
        let report = run(
            switchless_adaptive(prefill),
            SEED,
            WORKERS,
            ObsConfig::off(),
        );
        let p = point(name, &report);
        eprintln!(
            "{:>10}  {:>6.0} cyc/call  {:.3} trans/call  coalesced {:>5}  stolen {:>4}  \
             prefill {:>4}/{:<4}",
            p.name,
            p.cycles_per_call,
            p.transitions_per_call,
            p.coalesced_calls,
            p.stolen,
            p.prefill_runs,
            p.prefill_warm_skips,
        );
        points.push(p);
    }

    let cpc = |name: &str| -> f64 {
        points
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.cycles_per_call)
            .expect("point present")
    };

    // Acceptance 1: prefill beats the bare controller on the workload
    // whose regime keeps shifting.
    let base = cpc("adaptive");
    let prefilled = cpc("feedback");
    let improvement_pct = (base - prefilled) / base * 100.0;
    eprintln!(
        "shifting-hotspot cycles/call: adaptive {base:.0}, feedback {prefilled:.0} \
         ({improvement_pct:.1}% fewer)"
    );
    assert!(
        prefilled < base,
        "prefill-on must spend fewer cycles/call than the adaptive \
         baseline on the shifting-hotspot workload \
         (adaptive {base:.1}, feedback {prefilled:.1})"
    );

    // Acceptance 2: re-convergence after *every* shift, three seeds.
    // Single worker: deterministic virtual-time schedule, so this is a
    // policy property with no interleaving noise.
    let mut convergence = Vec::new();
    for seed in CONVERGENCE_SEEDS {
        let report = run(switchless_adaptive(true), seed, 1, ObsConfig::off());
        let windows = phase_windows(&report.switchless.epochs, report.smp.makespan_cycles());
        let mut per_phase = Vec::new();
        for (phase, window) in windows.iter().enumerate() {
            let ok = reconverged(window);
            eprintln!(
                "seed {seed:#x} phase {phase}: {} epochs, reconverged={ok}",
                window.len()
            );
            if !ok {
                for e in window.iter().rev().take(5).rev() {
                    eprintln!("  epoch {} @{}: {:?}", e.epoch, e.at_cycles, e.budgets);
                }
            }
            assert!(
                ok,
                "controller must re-converge (identical budget vectors over the final \
                 {FINAL_EPOCHS} epochs) within phase {phase} of seed {seed:#x} \
                 ({} epochs in window)",
                window.len()
            );
            per_phase.push(window.len());
        }
        convergence.push((seed, per_phase));
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"xover trace-driven prefill ablation\",\n  \
         \"workload\": \"shifting-hotspot zipf({ZIPF_S}) over 48 worlds, {PHASES} phases\",\n  \
         \"calls_per_point\": {CALLS_PER_POINT},\n  \
         \"workers\": {WORKERS},\n  \
         \"phases\": {PHASES},\n  \
         \"improvement_pct_feedback_vs_adaptive\": {improvement_pct:.1},\n  \
         \"convergence\": [\n"
    );
    for (i, (seed, per_phase)) in convergence.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"seed\": {seed}, \"phase_epochs\": {per_phase:?}, \"reconverged_all_phases\": true }}"
        );
        out.push_str(if i + 1 < convergence.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str(
        "  ],\n  \"historical\": {\n    \
         \"note\": \"frozen at commit 9ba55b5; the latency-driven budget rule and \
         queue-wait-biased stealing were deleted after it\",\n    \
         \"commit\": \"9ba55b5\",\n    \
         \"points\": [\n",
    );
    for (j, (name, cpc, total, makespan, faults, stolen)) in HISTORICAL.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{ \"name\": \"{name}\", \"cycles_per_call\": {cpc:.1}, \
             \"total_cycles\": {total}, \"makespan_cycles\": {makespan}, \
             \"wtc_miss_faults\": {faults}, \"stolen\": {stolen} }}{}",
            if j + 1 < HISTORICAL.len() { "," } else { "" }
        );
    }
    out.push_str("    ]\n  },\n  \"points\": [\n");
    for (j, p) in points.iter().enumerate() {
        write_point(&mut out, p);
        out.push_str(if j + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, out).expect("write benchmark json");
    eprintln!("wrote {out_path}");
    if let Some(trace_path) = trace_out {
        trace_run(&trace_path);
    }
}
