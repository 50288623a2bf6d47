//! Percentiles and hand-rolled JSON for the throughput harness.
//!
//! The workspace is intentionally dependency-free, so the bench emits
//! its JSON with a tiny writer instead of serde. The format is one flat
//! object per sweep point — easy for downstream plotting scripts to
//! consume and for humans to diff.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice. `pct` in
/// [0, 100]. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Hit rate in [0, 1]; 0 when there was no traffic at all.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

/// One sweep point of the serve bench.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Worker threads (== simulated cores).
    pub workers: usize,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests that completed normally.
    pub completed: u64,
    /// Requests cancelled on deadline.
    pub timed_out: u64,
    /// Requests that failed outright.
    pub failed: u64,
    /// Requests the runtime gave up on after exhausting its healing
    /// policy (typed [`crate::CallError`] verdicts, zero without an
    /// active fault plan).
    pub dead_lettered: u64,
    /// Backpressure rejections.
    pub rejected_busy: u64,
    /// Batches popped (destination affinity: submitted / batches is the
    /// mean same-callee run length).
    pub batches: u64,
    /// Busiest core's cycles — the simulated wall clock.
    pub makespan_cycles: u64,
    /// Sum of all cores' cycles.
    pub total_cycles: u64,
    /// Completed calls per *simulated* second at the model frequency.
    pub sim_calls_per_sec: f64,
    /// Median on-CPU service latency (cycles).
    pub p50_latency_cycles: u64,
    /// 90th-percentile on-CPU service latency (cycles).
    pub p90_latency_cycles: u64,
    /// Tail on-CPU service latency (cycles).
    pub p99_latency_cycles: u64,
    /// Extreme-tail on-CPU service latency (cycles). Like p50/p90/p99
    /// this is read from the drain-built log-bucketed histogram (≤ ~3%
    /// relative error), not a sorted-Vec scan.
    pub p999_latency_cycles: u64,
    /// Non-empty latency histogram buckets as (upper bound, count)
    /// pairs — enough to re-plot the full distribution downstream.
    pub latency_buckets: Vec<(u64, u64)>,
    /// WT-cache hit rate across all workers, in [0, 1].
    pub wt_hit_rate: f64,
    /// IWT-cache hit rate across all workers, in [0, 1].
    pub iwt_hit_rate: f64,
    /// Unified-TLB hit rate across all worker platforms, in [0, 1].
    pub tlb_hit_rate: f64,
    /// Summed virtual-time dispatch delay (cycles) across all requests.
    /// A *sum over calls*: on a deep backlog it legitimately exceeds the
    /// makespan many times over (n calls each waiting up to the whole
    /// run). Judge waiting via `queue_wait_mean_cycles`, which is
    /// bounded by the makespan.
    pub queue_wait_cycles: u64,
    /// Mean per-call queue wait (cycles); ≤ the makespan by
    /// construction.
    pub queue_wait_mean_cycles: f64,
    /// Batches whose leading request was stolen from a peer's ring.
    pub stolen: u64,
    /// World-table writer-lock acquisitions that had to block (lookups
    /// are wait-free and never contend).
    pub writer_contended: u64,
    /// IPIs dropped across all cores of the merged SMP machine (queue
    /// overflow or injected loss).
    pub ipi_dropped: u64,
    /// Host wall-clock for the sweep point, milliseconds (informational;
    /// machine-dependent, unlike the simulated numbers).
    pub host_wall_ms: f64,
}

impl BenchPoint {
    fn write_json(&self, out: &mut String, indent: &str) {
        let _ = write!(
            out,
            "{indent}{{\n\
             {indent}  \"workers\": {},\n\
             {indent}  \"submitted\": {},\n\
             {indent}  \"completed\": {},\n\
             {indent}  \"timed_out\": {},\n\
             {indent}  \"failed\": {},\n\
             {indent}  \"dead_lettered\": {},\n\
             {indent}  \"rejected_busy\": {},\n\
             {indent}  \"batches\": {},\n\
             {indent}  \"makespan_cycles\": {},\n\
             {indent}  \"total_cycles\": {},\n\
             {indent}  \"sim_calls_per_sec\": {:.1},\n\
             {indent}  \"p50_latency_cycles\": {},\n\
             {indent}  \"p90_latency_cycles\": {},\n\
             {indent}  \"p99_latency_cycles\": {},\n\
             {indent}  \"p999_latency_cycles\": {},\n\
             {indent}  \"latency_buckets\": {},\n\
             {indent}  \"wt_hit_rate\": {:.4},\n\
             {indent}  \"iwt_hit_rate\": {:.4},\n\
             {indent}  \"tlb_hit_rate\": {:.4},\n\
             {indent}  \"queue_wait_cycles\": {},\n\
             {indent}  \"queue_wait_mean_cycles\": {:.1},\n\
             {indent}  \"stolen\": {},\n\
             {indent}  \"writer_contended\": {},\n\
             {indent}  \"ipi_dropped\": {},\n\
             {indent}  \"host_wall_ms\": {:.2}\n\
             {indent}}}",
            self.workers,
            self.submitted,
            self.completed,
            self.timed_out,
            self.failed,
            self.dead_lettered,
            self.rejected_busy,
            self.batches,
            self.makespan_cycles,
            self.total_cycles,
            self.sim_calls_per_sec,
            self.p50_latency_cycles,
            self.p90_latency_cycles,
            self.p99_latency_cycles,
            self.p999_latency_cycles,
            buckets_json(&self.latency_buckets),
            self.wt_hit_rate,
            self.iwt_hit_rate,
            self.tlb_hit_rate,
            self.queue_wait_cycles,
            self.queue_wait_mean_cycles,
            self.stolen,
            self.writer_contended,
            self.ipi_dropped,
            self.host_wall_ms,
        );
    }
}

/// `[[upper, count], ...]` — a JSON array of bucket pairs.
fn buckets_json(buckets: &[(u64, u64)]) -> String {
    let mut out = String::from("[");
    for (i, (upper, count)) in buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{upper}, {count}]");
    }
    out.push(']');
    out
}

/// Renders the full benchmark document.
pub fn render_json(
    benchmark: &str,
    frequency_ghz: f64,
    calls_per_point: u64,
    points: &[BenchPoint],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"frequency_ghz\": {frequency_ghz},\n  \"calls_per_point\": {calls_per_point},\n  \"points\": [\n"
    );
    for (i, p) in points.iter().enumerate() {
        p.write_json(&mut out, "    ");
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let p = BenchPoint {
            workers: 2,
            submitted: 10,
            completed: 9,
            timed_out: 1,
            failed: 0,
            dead_lettered: 0,
            rejected_busy: 0,
            batches: 4,
            makespan_cycles: 1000,
            total_cycles: 1900,
            sim_calls_per_sec: 123.4,
            p50_latency_cycles: 70,
            p90_latency_cycles: 85,
            p99_latency_cycles: 90,
            p999_latency_cycles: 95,
            latency_buckets: vec![(63, 4), (95, 6)],
            wt_hit_rate: 0.9876,
            iwt_hit_rate: 0.5,
            tlb_hit_rate: 0.25,
            queue_wait_cycles: 12_000,
            queue_wait_mean_cycles: 1_200.0,
            stolen: 3,
            writer_contended: 0,
            ipi_dropped: 0,
            host_wall_ms: 1.5,
        };
        let doc = render_json("bench", 3.4, 10, &[p.clone(), p]);
        assert_eq!(doc.matches("\"workers\": 2").count(), 2);
        assert!(doc.contains("\"points\": ["));
        assert!(doc.contains("\"wt_hit_rate\": 0.9876"));
        assert!(doc.contains("\"tlb_hit_rate\": 0.2500"));
        assert!(doc.contains("\"queue_wait_cycles\": 12000"));
        assert!(doc.contains("\"queue_wait_mean_cycles\": 1200.0"));
        assert!(doc.contains("\"p90_latency_cycles\": 85"));
        assert!(doc.contains("\"p999_latency_cycles\": 95"));
        assert!(doc.contains("\"latency_buckets\": [[63, 4], [95, 6]]"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.trim_end().ends_with('}'));
    }

    #[test]
    fn hit_rate_handles_empty_traffic() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(hit_rate(5, 0), 1.0);
    }
}
