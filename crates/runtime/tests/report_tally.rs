//! Every outcome-derived `ServiceReport` field equals a recount of
//! `report.outcomes`.
//!
//! Workers digest each outcome once, as they record it, and the drain
//! only merges their digests. This file pins that accounting to the
//! definition it replaces: the recount below re-derives every count,
//! histogram and per-tenant field by scanning the merged outcome stream,
//! and the report must match it field for field. The schedules between
//! them produce all five verdicts:
//!
//! * seeded fault plans (the chaos seeds of `fault_props`, one to four
//!   workers) under a supervisor that neither retries lookups nor
//!   respawns, so an injected lookup race or crash dead-letters at
//!   once — plus the 5% of calls whose budget is too small, which time
//!   out;
//! * a default-closed authz policy with an ungranted caller, a revoked
//!   caller and a deleted callee — denials, revocations and failures;
//! * a timeout schedule where most budgets are too small, on both the
//!   classic and the switchless path.

use std::collections::BTreeMap;

use crossover::world::Wid;
use machine::fault::FaultPlan;
use machine::rng::SplitMix64;
use xover_runtime::{
    AuthzConfig, CallRequest, CallVerdict, LogHistogram, RuntimeConfig, ServiceReport,
    SupervisorConfig, SwitchlessConfig, TenantCounts, WorldCallService,
};

const CHAOS_SEEDS: [u64; 8] = [
    0x0001,
    0xBEEF,
    0x5EED_CAFE,
    0xDEAD_10CC,
    0x0F00_BA44,
    0x7777_7777,
    0x0C0F_FEE0,
    0x41,
];
const CALLS: u64 = 400;
const TENANTS: u64 = 3;
const WORKING_SET_PAGES: u64 = 8;

/// Two VMs × (user + kernel) worlds with working sets and channels.
/// Returns `[user0, kernel0, user1, kernel1]`.
fn build_service(config: RuntimeConfig) -> (WorldCallService, Vec<Wid>) {
    let mut svc = WorldCallService::new(config);
    let mut worlds = Vec::new();
    for t in 0..2u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("tally-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        for w in [user, kernel] {
            svc.attach_working_set(w, vm, WORKING_SET_PAGES)
                .expect("attach working set");
            svc.attach_channel(w, vm).expect("attach channel");
        }
        worlds.extend([user, kernel]);
    }
    (svc, worlds)
}

/// Half the calls on the hot pair, the rest uniform over distinct
/// pairs; a `tight` share of them gets a budget below its body work.
/// Tenants rotate by tag.
fn draw(rng: &mut SplitMix64, worlds: &[Wid], tag: u64, tight: f64) -> CallRequest {
    let (caller, callee) = loop {
        let (a, b) = if rng.flip() {
            (worlds[0], worlds[1])
        } else {
            (*rng.pick(worlds), *rng.pick(worlds))
        };
        if a != b {
            break (a, b);
        }
    };
    let work = 2_000 + rng.below(2_000);
    let mut req = CallRequest::new(caller, callee, work, work / 3)
        .with_touches(rng.below(2 * WORKING_SET_PAGES))
        .with_tag(tag)
        .with_tenant((tag % TENANTS) as u32);
    if rng.chance(tight) {
        req = req.with_budget(work / 4);
    }
    req
}

/// Submits `CALLS` draws, runs the pool and drains it.
fn serve(svc: WorldCallService, worlds: &[Wid], seed: u64, tight: f64) -> ServiceReport {
    let mut rng = SplitMix64::new(seed);
    for tag in 0..CALLS {
        svc.submit(draw(&mut rng, worlds, tag, tight))
            .expect("queue open");
    }
    let mut svc = svc;
    svc.start();
    svc.drain()
}

fn config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        queue_capacity: CALLS as usize + 16,
        batch_max: 32,
        switchless: SwitchlessConfig::fixed(8),
        ..RuntimeConfig::default()
    }
}

/// The report fields re-derived by scanning the outcome stream.
#[derive(Debug, Default, PartialEq)]
struct Recount {
    completed: u64,
    timed_out: u64,
    failed: u64,
    dead_lettered: u64,
    denied: u64,
    queue_wait_cycles: u64,
    latency_hist: LogHistogram,
    queue_wait_hist: LogHistogram,
    per_tenant: Vec<TenantCounts>,
    /// (tenant, completed-latency histogram, p50, p99), by tenant.
    tenant_latency: Vec<(u32, LogHistogram, u64, u64)>,
}

/// The recount: one scan per field, straight from the definitions.
/// Every call was submitted with the blocking `submit`, so each tenant
/// had exactly as many admissions as outcomes and no sheds.
fn recount(report: &ServiceReport) -> Recount {
    let outcomes = &report.outcomes;
    let count = |want: fn(&CallVerdict) -> bool| {
        outcomes.iter().filter(|o| want(&o.verdict)).count() as u64
    };
    let mut latency_hist = LogHistogram::new();
    let mut queue_wait_hist = LogHistogram::new();
    for o in outcomes {
        latency_hist.record(o.latency_cycles);
        queue_wait_hist.record(o.queue_wait_cycles);
    }
    let mut tenants: BTreeMap<u32, TenantCounts> = BTreeMap::new();
    let mut tenant_hists: BTreeMap<u32, LogHistogram> = BTreeMap::new();
    for o in outcomes {
        let tenant = o.request.tenant;
        let counts = tenants.entry(tenant).or_insert(TenantCounts {
            tenant,
            ..TenantCounts::default()
        });
        counts.submitted += 1;
        counts.admitted += 1;
        match o.verdict {
            CallVerdict::Denied(_) => counts.denied += 1,
            CallVerdict::Completed => tenant_hists
                .entry(tenant)
                .or_default()
                .record(o.latency_cycles),
            _ => {}
        }
    }
    Recount {
        completed: count(|v| *v == CallVerdict::Completed),
        timed_out: count(|v| *v == CallVerdict::TimedOut),
        failed: count(|v| matches!(v, CallVerdict::Failed(_))),
        dead_lettered: count(|v| matches!(v, CallVerdict::DeadLettered(_))),
        denied: count(|v| matches!(v, CallVerdict::Denied(_))),
        queue_wait_cycles: outcomes.iter().map(|o| o.queue_wait_cycles).sum(),
        latency_hist,
        queue_wait_hist,
        per_tenant: tenants.into_values().collect(),
        tenant_latency: tenant_hists
            .into_iter()
            .map(|(tenant, hist)| {
                let (p50, p99) = (
                    hist.value_at_percentile(50.0),
                    hist.value_at_percentile(99.0),
                );
                (tenant, hist, p50, p99)
            })
            .collect(),
    }
}

/// The same fields as the report states them.
fn reported(report: &ServiceReport) -> Recount {
    Recount {
        completed: report.completed,
        timed_out: report.timed_out,
        failed: report.failed,
        dead_lettered: report.dead_lettered,
        denied: report.denied,
        queue_wait_cycles: report.queue_wait_cycles,
        latency_hist: report.latency_hist.clone(),
        queue_wait_hist: report.queue_wait_hist.clone(),
        per_tenant: report.per_tenant.clone(),
        tenant_latency: report
            .tenant_latency
            .iter()
            .map(|t| (t.tenant, t.hist.clone(), t.p50_cycles, t.p99_cycles))
            .collect(),
    }
}

#[test]
fn report_fields_equal_a_recount_of_the_outcomes_for_every_verdict() {
    let mut reports: Vec<(String, ServiceReport)> = Vec::new();

    for (i, seed) in CHAOS_SEEDS.into_iter().enumerate() {
        let (mut svc, worlds) = build_service(RuntimeConfig {
            supervisor: SupervisorConfig {
                lookup_retries: 0,
                respawn_cap: 0,
                ..SupervisorConfig::default()
            },
            ..config(1 + i % 4)
        });
        svc.set_fault_plan(FaultPlan::from_seed(seed, 3_000_000, 4));
        reports.push((
            format!("chaos seed {seed:#x}"),
            serve(svc, &worlds, 0xFA_117, 0.05),
        ));
    }

    let (svc, worlds) = build_service(RuntimeConfig {
        authz: AuthzConfig::enforcing(),
        ..config(2)
    });
    let policy = svc.authz().expect("enforcing builds a policy").clone();
    // user0 may call anyone; kernel0 may reach user1 only; user1 is
    // revoked; kernel1 holds no grant; and the deleted kernel0 makes
    // every call into it fail (and every call from it a revocation).
    policy.grant_all(worlds[0]);
    policy.grant(worlds[1], worlds[2]);
    policy.grant_all(worlds[2]);
    policy.revoke(worlds[2]);
    svc.delete_world(worlds[1]).expect("delete kernel0");
    reports.push(("authz".to_string(), serve(svc, &worlds, 0xA0_7421, 0.05)));

    for workers in [1, 2] {
        let (svc, worlds) = build_service(config(workers));
        reports.push((
            format!("timeouts, {workers} workers"),
            serve(svc, &worlds, 0x71_3E0, 0.6),
        ));
    }

    let mut seen = Recount::default();
    for (label, report) in &reports {
        assert_eq!(
            report.outcomes.len() as u64,
            CALLS,
            "{label}: one outcome per call"
        );
        let want = recount(report);
        assert_eq!(reported(report), want, "{label}: report != recount");
        seen.completed += want.completed;
        seen.timed_out += want.timed_out;
        seen.failed += want.failed;
        seen.dead_lettered += want.dead_lettered;
        seen.denied += want.denied;
    }
    assert!(seen.completed > 0, "no completions: {seen:?}");
    assert!(seen.timed_out > 0, "no timeouts: {seen:?}");
    assert!(seen.failed > 0, "no failures: {seen:?}");
    assert!(seen.dead_lettered > 0, "no dead letters: {seen:?}");
    assert!(seen.denied > 0, "no denials: {seen:?}");
}
