//! Trace-driven prefill properties: the contract of the one
//! closed-loop policy the switchless layer keeps.
//!
//! Prefill is a *performance* policy, never a semantic one, and its
//! costs and savings are priced, not hand-waved. Five invariants pin
//! that down:
//!
//! 1. **On/off verdict equivalence.** On identical pre-submitted
//!    schedules driven by a single worker under the adaptive
//!    controller, prefill on must produce the same per-request
//!    verdicts, in the same order, as prefill off. Prefill may move
//!    cycles; it may not move outcomes.
//! 2. **Off is the default, bit for bit.** `SwitchlessConfig::default()`
//!    has prefill off, and a default run is cycle-identical to the
//!    runtime before prefill moved onto `SwitchlessConfig` (golden
//!    totals below).
//! 3. **Prefill is semantically invisible and exactly priced.** Verdicts
//!    are identical to the prefill-off run and the whole-run cycle delta
//!    is *exactly* the prefill's recorded charges minus what they
//!    avoided: one [`TransitionKind::WtcMissFault`] +
//!    [`TransitionKind::WtcFill`] per WT/IWT miss the warming prevented,
//!    and (walk − hit) cycles per lane page walked into the TLB up front.
//! 4. **Convergence survives chaos.** Under seeded fault plans (worker
//!    crashes, stalls, IPI loss, slot corruption) the heuristic
//!    controller with prefill on still resolves every call exactly once
//!    and its budget vector still reaches a fixed point it holds through
//!    the tail of the run.
//! 5. **The exported names hold.** A prefill-on run's Prometheus dump
//!    carries the `xover_feedback_*` prefill and §5.1 register gauges
//!    with the report's values, and nothing else under that prefix.

use machine::cost::CostModel;
use machine::fault::FaultPlan;
use machine::rng::{SplitMix64, Zipf};
use machine::trace::TransitionKind;
use mmu::tlb::{TLB_HIT_CYCLES, TWO_STAGE_WALK_CYCLES};
use xover_runtime::{
    converged, metrics_registry, CallRequest, RuntimeConfig, ServiceReport, SwitchlessConfig,
    WorldCallService,
};

const SEEDS: [u64; 3] = [0xFEED_0001, 0x5EED_0002, 0xFA11_BACC];
const CHAOS_SEEDS: [u64; 4] = [0xBEEF, 0x5EED_CAFE, 0xDEAD_10CC, 0x41];
const CALLS: u64 = 900;
const WORKING_SET_PAGES: u64 = 8;
/// Worlds in the schedule: more than the recorded call history holds
/// (depth 8), so cold pairs keep appearing and prefill actually runs.
const TENANTS: u64 = 6;
/// Short controller epochs so even a 900-call run holds dozens.
const EPOCH_CYCLES: u64 = 60_000;

/// `TENANTS` tenants × (user + kernel), all with working sets and
/// switchless channels attached.
fn build_service(
    switchless: SwitchlessConfig,
    workers: usize,
) -> (WorldCallService, Vec<crossover::world::Wid>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers,
        queue_capacity: CALLS as usize + 32,
        batch_max: 32,
        switchless,
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..TENANTS {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("fbp-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        for &w in &[user, kernel] {
            svc.attach_working_set(w, vm, WORKING_SET_PAGES)
                .expect("attach working set");
            svc.attach_channel(w, vm).expect("attach channel");
        }
        worlds.push(user);
        worlds.push(kernel);
    }
    (svc, worlds)
}

/// Zipf endpoints over twelve worlds: hot pairs recur (so coalescing
/// and the controller's lanes see sustained traffic) while tail pairs
/// recur at distances beyond the call history's depth (so prefill has
/// cold pairs to warm). A few abusive budgets keep the timeout path in
/// the schedule.
fn draw_request(
    rng: &mut SplitMix64,
    zipf: &Zipf,
    worlds: &[crossover::world::Wid],
    tag: u64,
) -> CallRequest {
    let callee = worlds[zipf.sample(rng)];
    let caller = loop {
        let w = worlds[zipf.sample(rng)];
        if w != callee {
            break w;
        }
    };
    let work_cycles = 500 + rng.below(1_500);
    let mut req = CallRequest::new(caller, callee, work_cycles, work_cycles / 3).with_tag(tag);
    if rng.chance(0.05) {
        req = req.with_budget(work_cycles / 4);
    }
    req
}

fn adaptive() -> SwitchlessConfig {
    SwitchlessConfig {
        epoch_cycles: EPOCH_CYCLES,
        ..SwitchlessConfig::adaptive()
    }
}

fn with_prefill(config: SwitchlessConfig) -> SwitchlessConfig {
    SwitchlessConfig {
        prefill: true,
        ..config
    }
}

fn run(
    switchless: SwitchlessConfig,
    seed: u64,
    workers: usize,
    plan: Option<FaultPlan>,
) -> ServiceReport {
    let (mut svc, worlds) = build_service(switchless, workers);
    if let Some(plan) = plan {
        svc.set_fault_plan(plan);
    }
    let zipf = Zipf::new(worlds.len(), 1.2);
    let mut rng = SplitMix64::new(seed);
    for tag in 0..CALLS {
        svc.submit(draw_request(&mut rng, &zipf, &worlds, tag))
            .expect("queue open");
    }
    svc.start();
    svc.drain()
}

/// Zips two outcome streams: same requests, same order, same verdicts.
fn assert_verdicts_equal(a: &ServiceReport, b: &ServiceReport) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "same stream length");
    for (i, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        assert_eq!(x.request, y.request, "request order diverged at index {i}");
        assert_eq!(x.verdict, y.verdict, "verdict diverged at index {i}");
    }
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.timed_out, b.timed_out);
    assert_eq!(a.failed, b.failed);
}

/// Invariant 1: prefill moves cycles, never outcomes.
#[test]
fn prefill_on_preserves_verdicts_and_order() {
    for seed in SEEDS {
        let off = run(adaptive(), seed, 1, None);
        let on = run(with_prefill(adaptive()), seed, 1, None);
        assert_verdicts_equal(&off, &on);
        assert!(
            on.switchless.prefill.runs > 0,
            "seed {seed:#x}: the schedule must actually exercise prefill"
        );
    }
}

/// `(seed, total cycles)` of [`adaptive`] and `fixed(8)` runs with the
/// default configuration, measured on the runtime before prefill moved
/// onto `SwitchlessConfig` (one worker, so makespan == total).
const DEFAULT_GOLDEN: [(u64, u64, u64); 3] = [
    (0xFEED_0001, 1_577_835, 1_574_477),
    (0x5EED_0002, 1_559_626, 1_557_866),
    (0xFA11_BACC, 1_539_583, 1_540_124),
];

/// Invariant 2: the default has prefill off, and costs exactly what
/// the runtime cost before the policy existed as a switch.
#[test]
fn prefill_off_is_bit_exact_default() {
    assert!(!SwitchlessConfig::default().prefill);
    assert!(!SwitchlessConfig::adaptive().prefill);
    assert!(!SwitchlessConfig::fixed(8).prefill);
    for (seed, adaptive_total, fixed_total) in DEFAULT_GOLDEN {
        for (config, golden) in [
            (adaptive(), adaptive_total),
            (SwitchlessConfig::fixed(8), fixed_total),
        ] {
            let r = run(config, seed, 1, None);
            assert_eq!(r.smp.total_cycles(), golden, "seed {seed:#x}");
            assert_eq!(r.smp.makespan_cycles(), golden, "seed {seed:#x}");
            assert_eq!(r.switchless.prefill, Default::default());
        }
    }
}

/// Invariant 3: prefill is exactly priced. Both runs use a *fixed*
/// resident budget (no controller dynamics — an epoch closing at a
/// shifted virtual time must not be able to move a budget), so the two
/// schedules are identical and the whole-run cycle delta decomposes
/// with no slack:
///
/// ```text
/// prefill_total - open_total ==
///     fills * (spec_walk + fill)        (what the warming charged)
///   - avoided * (miss_fault + fill)     (faults the drains never took)
///   + Δtlb_hits * hit + Δtlb_misses * walk   (touch accesses added,
///                                             drain walks became hits)
/// ```
///
/// `avoided` is the measured drop in WT+IWT misses — not the fill
/// count: a world can be cold in the recorded trace yet still cached,
/// in which case its fill was pure (priced) overhead. The TLB term uses
/// the measured hit/miss deltas, which already net the touch accesses
/// against the walks they moved out of the drains.
#[test]
fn prefill_is_semantically_invisible_and_exactly_priced() {
    let model = CostModel::default();
    let miss_fault = model.price(TransitionKind::WtcMissFault).cycles as i128;
    let fill = model.price(TransitionKind::WtcFill).cycles as i128;
    let spec_walk = crossover::prefetch::SPECULATIVE_WALK_CYCLES as i128;
    for seed in SEEDS {
        let off = run(SwitchlessConfig::fixed(8), seed, 1, None);
        let pf = run(with_prefill(SwitchlessConfig::fixed(8)), seed, 1, None);
        assert_verdicts_equal(&off, &pf);

        let stats = &pf.switchless.prefill;
        assert!(stats.runs > 0, "seed {seed:#x}: prefill must fire");
        let misses_off = (off.wt.misses + off.iwt.misses) as i128;
        let misses_pf = (pf.wt.misses + pf.iwt.misses) as i128;
        let avoided = misses_off - misses_pf;
        assert!(
            avoided > 0,
            "seed {seed:#x}: prefill must avoid some WTC miss faults (off {misses_off}, \
             prefill {misses_pf})"
        );

        let lhs = pf.smp.total_cycles() as i128 - off.smp.total_cycles() as i128;
        let charged = stats.fills as i128 * (spec_walk + fill);
        let saved = avoided * (miss_fault + fill);
        let tlb_delta = (pf.tlb.hits as i128 - off.tlb.hits as i128) * TLB_HIT_CYCLES as i128
            + (pf.tlb.misses as i128 - off.tlb.misses as i128) * TWO_STAGE_WALK_CYCLES as i128;
        assert_eq!(
            lhs,
            charged - saved + tlb_delta,
            "seed {seed:#x}: prefill cycle delta must decompose exactly \
             (fills {}, avoided misses {avoided}, tlb delta {tlb_delta})",
            stats.fills
        );
    }
}

/// Invariant 4: chaos does not break the controller. Under seeded
/// fault plans every call still resolves exactly once, and the
/// controller still reaches a budget fixed point it holds through a
/// stable stretch of the run's tail (strict end-of-run equality is too
/// brittle under chaos: a respawn or a Zipf-tail lane's first call in
/// the closing epochs legitimately moves one budget).
#[test]
fn controller_converges_under_seeded_chaos() {
    for seed in CHAOS_SEEDS {
        let plan = FaultPlan::from_seed(seed, 3_000_000, 3);
        assert!(!plan.is_empty(), "seeded plan must carry events");
        let report = run(with_prefill(adaptive()), seed, 1, Some(plan));

        assert_eq!(
            report.outcomes.len() as u64,
            CALLS,
            "seed {seed:#x}: every submitted call must produce an outcome"
        );
        let mut seen = vec![0u32; CALLS as usize];
        for o in &report.outcomes {
            seen[o.request.tag as usize] += 1;
        }
        for (tag, &count) in seen.iter().enumerate() {
            assert_eq!(
                count, 1,
                "seed {seed:#x}: tag {tag} resolved {count} times (want exactly 1)"
            );
        }
        assert_eq!(
            report.completed + report.timed_out + report.failed + report.dead_lettered,
            CALLS,
            "seed {seed:#x}: verdict counters must partition the stream"
        );
        let history = &report.switchless.epochs;
        let tail = &history[history.len() / 2..];
        assert!(
            tail.windows(3).any(|w| converged(w, 3)),
            "seed {seed:#x}: the controller must reach a budget fixed \
             point it holds for 3 consecutive epochs in the run's second half \
             ({} epochs total)",
            history.len()
        );
    }
}

/// The `xover_feedback_*` lines of a prefill-on, register-on adaptive
/// run of `SEEDS[0]`, as the runtime exported them before prefill moved
/// onto `SwitchlessConfig` (sorted, as the registry renders them).
const PROMETHEUS_GOLDEN: [&str; 12] = [
    "xover_feedback_enabled 1",
    "xover_feedback_prefetch_register_hits 508",
    "xover_feedback_prefetch_register_misses 455",
    "xover_feedback_prefetch_useful_walks 508",
    "xover_feedback_prefetch_useless_walks 0",
    "xover_feedback_prefill_fills 96",
    "xover_feedback_prefill_hit_rate_permille 590",
    "xover_feedback_prefill_runs 91",
    "xover_feedback_prefill_tlb_touches 20",
    "xover_feedback_prefill_walk_cycles 50951",
    "xover_feedback_prefill_warm_skips 131",
    "xover_feedback_register_walk_cycles 91440",
];

/// Invariant 5: the prefill and register gauges keep their names and
/// values, and the deleted per-lane and per-ring gauges stay gone.
#[test]
fn prefill_gauges_keep_their_prometheus_names() {
    let config = SwitchlessConfig {
        prefetch_register: true,
        ..with_prefill(adaptive())
    };
    let report = run(config, SEEDS[0], 1, None);
    let text = metrics_registry(&report).render_prometheus();
    let exported: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("xover_feedback_"))
        .collect();
    assert_eq!(exported, PROMETHEUS_GOLDEN);
    assert!(!text.contains("xover_feedback_lane"));
    assert!(!text.contains("_wait_ewma_cycles"));

    // Prefill off: the whole prefix stays out of the dump.
    let off = run(adaptive(), SEEDS[0], 1, None);
    assert!(!metrics_registry(&off)
        .render_prometheus()
        .contains("xover_feedback_"));
}
