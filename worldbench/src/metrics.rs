//! Metric names, units, and what one repetition of a workload yields.

use std::collections::BTreeMap;

use runtime::report::hit_rate;
use runtime::ServiceReport;

use crate::stats::Latency;

/// Simulated clock rate: cycles per simulated second (the paper's
/// 3.4 GHz testbed).
pub const HZ: f64 = 3.4e9;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("host_ns_per_call", "ns"),
    ("allocs_per_call", "allocs/call"),
    ("heap_peak_mb", "MB"),
    ("vcycles_per_call", "cycles"),
    ("world_switches_per_call", "switches/call"),
    ("sim_calls_per_s", "calls/s"),
    ("latency_p50_vcycles", "cycles"),
    ("latency_p99_vcycles", "cycles"),
    ("served_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run of every workload
/// (0 where a layer does no work on that workload).
pub const LAYERS: [(&str, &str); 56] = [
    ("ring.submit_ns", "ns"),
    ("ring.busy_rejects", "count"),
    ("ring.stolen_frac", "frac"),
    ("ring.queue_wait_vcycles_mean", "cycles"),
    ("worker.batches", "count"),
    ("worker.calls_per_batch", "calls"),
    ("wtc.wt_hit_rate", "frac"),
    ("wtc.iwt_hit_rate", "frac"),
    ("wtc.invalidations", "count"),
    ("epoch.evictions", "count"),
    ("epoch.refaults", "count"),
    ("epoch.grace_reclaims", "count"),
    ("epoch.resident", "count"),
    ("epoch.register_ns", "ns"),
    ("epoch.delete_ns", "ns"),
    ("tlb.hit_rate", "frac"),
    ("switchless.coalesced_frac", "frac"),
    ("switchless.transition_pairs", "count"),
    ("switchless.slot_vcycles_per_call", "cycles"),
    ("switchless.spin_vcycles_per_call", "cycles"),
    ("switchless.dry_exits", "count"),
    ("switchless.saturated_exits", "count"),
    ("switchless.epochs", "count"),
    ("gateway.enqueue_ns", "ns"),
    ("gateway.admit_wait_vcycles_p99", "cycles"),
    ("gateway.shed_frac", "frac"),
    ("gateway.ring_high_water", "count"),
    ("gateway.max_rate_at_slo", "calls/s"),
    ("gateway.generator_lateness_vcycles", "cycles"),
    ("authz.checks", "count"),
    ("authz.denies", "count"),
    ("watchdog.incidents", "count"),
    ("causal.queue_wait_vcycles_per_call", "cycles"),
    ("causal.steal_hop_vcycles_per_call", "cycles"),
    ("causal.transition_vcycles_per_call", "cycles"),
    ("causal.service_vcycles_per_call", "cycles"),
    ("causal.slot_vcycles_per_call", "cycles"),
    ("causal.backoff_vcycles_per_call", "cycles"),
    ("causal.recovery_vcycles_per_call", "cycles"),
    ("causal.other_vcycles_per_call", "cycles"),
    ("causal.paths", "count"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.overhead_pct", "%"),
    ("systems.redirected_ns_per_op", "ns"),
    ("systems.native_ns_per_op", "ns"),
    ("paper.orig_us_mean", "us"),
    ("paper.opt_us_mean", "us"),
    ("paper.reduction_pct_mean", "%"),
    ("paper.err_pct", "%"),
    ("latency.samples", "count"),
    ("run.reps", "count"),
    ("run.completed", "count"),
    ("host.serve_s", "s"),
    ("host.allocs", "count"),
    ("host.speed_scale", "x"),
];

/// Causal component names in `obs::causal::Component` index order.
pub const CAUSAL: [&str; 8] = [
    "causal.queue_wait_vcycles_per_call",
    "causal.steal_hop_vcycles_per_call",
    "causal.transition_vcycles_per_call",
    "causal.service_vcycles_per_call",
    "causal.slot_vcycles_per_call",
    "causal.backoff_vcycles_per_call",
    "causal.recovery_vcycles_per_call",
    "causal.other_vcycles_per_call",
];

/// End-to-end values of one repetition, in [`E2E`] order.
#[derive(Debug, Clone, Copy, Default)]
pub struct E2eValues {
    pub setup_s: f64,
    pub host_ns_per_call: f64,
    pub allocs_per_call: f64,
    pub heap_peak_mb: f64,
    pub vcycles_per_call: f64,
    pub world_switches_per_call: f64,
    pub sim_calls_per_s: f64,
    pub latency: Option<Latency>,
    pub served_frac: f64,
}

impl E2eValues {
    pub fn values(&self) -> [f64; 10] {
        let lat = self.latency.unwrap_or(Latency {
            p50: 0,
            p99: 0,
            samples: 0,
        });
        [
            self.setup_s,
            self.host_ns_per_call,
            self.allocs_per_call,
            self.heap_peak_mb,
            self.vcycles_per_call,
            self.world_switches_per_call,
            self.sim_calls_per_s,
            lat.p50 as f64,
            lat.p99 as f64,
            self.served_frac,
        ]
    }
}

/// Host cost of one repetition. Times are (elapsed ns, factor to the
/// nominal host speed) pairs from [`crate::speed::Stopwatch::stop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    pub setup: (f64, f64),
    pub serve: (f64, f64),
    pub allocs: u64,
    pub heap_peak_bytes: usize,
}

/// What one repetition of a workload yields.
#[derive(Debug, Default)]
pub struct Rep {
    /// Requests (or micro-ops) offered.
    pub attempted: u64,
    /// Of those, ones that did not complete as the workload expects.
    pub failed: u64,
    pub e2e: E2eValues,
    /// Host time of the serving phase, at nominal speed (for the
    /// tracing overhead).
    pub serve_ns: f64,
    /// Per-layer values; names must come from [`LAYERS`].
    pub layers: BTreeMap<&'static str, f64>,
    /// Values that must read the same on every repetition of one seed,
    /// traced or not (the workload picks what is deterministic).
    pub exact: Vec<u64>,
    /// Failed output checks.
    pub violations: Vec<String>,
}

impl Rep {
    /// Fills the host-cost end-to-end metrics from a measured phase that
    /// completed `completed` calls.
    pub fn set_host(&mut self, host: HostCost, completed: u64) {
        let per = completed.max(1) as f64;
        let serve_ns = host.serve.0 * host.serve.1;
        self.e2e.setup_s = host.setup.0 * host.setup.1 / 1e9;
        self.e2e.host_ns_per_call = serve_ns / per;
        self.e2e.allocs_per_call = host.allocs as f64 / per;
        self.e2e.heap_peak_mb = host.heap_peak_bytes as f64 / (1024.0 * 1024.0);
        self.serve_ns = serve_ns;
        self.layers.insert("host.serve_s", host.serve.0 / 1e9);
        self.layers.insert("host.speed_scale", host.serve.1);
        self.layers.insert("host.allocs", host.allocs as f64);
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Number of verdicts that are not `Completed`.
pub fn not_completed(r: &ServiceReport) -> u64 {
    r.timed_out + r.failed + r.dead_lettered + r.denied
}

/// Verdict conservation: every admitted call got exactly one verdict.
pub fn check_conservation(rep: &mut Rep, r: &ServiceReport, label: &str) {
    let verdicts = r.completed + not_completed(r);
    rep.check(r.admitted == verdicts, || {
        format!(
            "{label}: admitted {} != completed {} + failed {} + timed_out {} + dead_lettered {} + denied {}",
            r.admitted, r.completed, r.failed, r.timed_out, r.dead_lettered, r.denied
        )
    });
    rep.check(r.outcomes.len() as u64 == verdicts, || {
        format!(
            "{label}: {} outcomes for {verdicts} verdicts",
            r.outcomes.len()
        )
    });
}

/// Virtual-clock end-to-end metrics that read straight off a drained
/// service: cycles and world switches per completed call, simulated
/// throughput.
pub fn service_virtual(e2e: &mut E2eValues, r: &ServiceReport) {
    let done = r.completed.max(1) as f64;
    e2e.vcycles_per_call = r.smp.total_cycles() as f64 / done;
    e2e.world_switches_per_call =
        (r.switchless.world_calls + r.switchless.world_returns) as f64 / done;
    e2e.sim_calls_per_s = r.sim_calls_per_sec(HZ);
}

/// Per-layer counters every service workload reports from its drained
/// [`ServiceReport`].
pub fn service_layers(layers: &mut BTreeMap<&'static str, f64>, r: &ServiceReport) {
    let calls = r.outcomes.len().max(1) as f64;
    let stolen = r.outcomes.iter().filter(|o| o.stolen).count() as f64;
    let coalesced = r.outcomes.iter().filter(|o| o.coalesced).count() as f64;
    let sw = &r.switchless;
    layers.extend([
        ("ring.busy_rejects", r.rejected_busy as f64),
        ("ring.stolen_frac", stolen / calls),
        ("ring.queue_wait_vcycles_mean", r.mean_queue_wait_cycles()),
        ("worker.batches", r.batches as f64),
        ("worker.calls_per_batch", calls / r.batches.max(1) as f64),
        ("wtc.wt_hit_rate", hit_rate(r.wt.hits, r.wt.misses)),
        ("wtc.iwt_hit_rate", hit_rate(r.iwt.hits, r.iwt.misses)),
        (
            "wtc.invalidations",
            (r.wt.invalidations + r.iwt.invalidations) as f64,
        ),
        ("epoch.evictions", r.table.evictions as f64),
        ("epoch.refaults", r.table.refaults as f64),
        ("epoch.grace_reclaims", r.table.grace_reclaims as f64),
        ("epoch.resident", r.table.resident as f64),
        ("tlb.hit_rate", hit_rate(r.tlb.hits, r.tlb.misses)),
        ("switchless.coalesced_frac", coalesced / calls),
        (
            "switchless.transition_pairs",
            sw.drain.transition_pairs as f64,
        ),
        (
            "switchless.slot_vcycles_per_call",
            sw.drain.slot_cycles as f64 / calls,
        ),
        (
            "switchless.spin_vcycles_per_call",
            sw.drain.spin_cycles as f64 / calls,
        ),
        ("switchless.dry_exits", sw.drain.dry_exits as f64),
        (
            "switchless.saturated_exits",
            sw.drain.saturated_exits as f64,
        ),
        ("switchless.epochs", sw.epochs.len() as f64),
        ("authz.checks", r.authz.checks as f64),
        ("authz.denies", r.authz.total_denied() as f64),
        (
            "watchdog.incidents",
            r.watchdog.as_ref().map_or(0, |w| w.incidents.len()) as f64,
        ),
        ("run.completed", r.completed as f64),
    ]);
}

/// Checks a traced run's causal critical paths exact (every recorded
/// request's components must sum to its measured latency) and, when
/// `record` is set, stores the per-call component shares as layers.
pub fn causal_layers(rep: &mut Rep, r: &ServiceReport, label: &str, record: bool) {
    let Some(obs) = &r.obs else {
        rep.violations
            .push(format!("{label}: traced run recorded no events"));
        return;
    };
    let events = obs.merged_events();
    let (paths, violations) = obs::causal::check_exact(&events);
    for v in violations.into_iter().take(5) {
        rep.violations.push(format!("{label}: causal: {v}"));
    }
    let dropped = obs.dropped();
    rep.check(dropped == 0, || {
        format!("{label}: {dropped} obs events dropped; causal shares are partial")
    });
    rep.check(paths.len() == r.outcomes.len(), || {
        format!(
            "{label}: {} critical paths for {} outcomes",
            paths.len(),
            r.outcomes.len()
        )
    });
    if !record {
        return;
    }
    let n = paths.len().max(1) as f64;
    for (i, name) in CAUSAL.iter().enumerate() {
        let total: u64 = paths.iter().map(|p| p.components[i]).sum();
        rep.layers.insert(name, total as f64 / n);
    }
    rep.layers.insert("causal.paths", paths.len() as f64);
    rep.layers.insert("obs.events", events.len() as f64);
    rep.layers.insert("obs.dropped", dropped as f64);
}
