//! Per-worker outcome accounting, recorded once per call.
//!
//! Every report field that digests the outcome stream — the five
//! verdict counts, the summed queue wait, the latency and queue-wait
//! histograms, per-tenant denials and per-tenant completed-call
//! latency — is updated by the worker at the moment it records an
//! outcome, while the outcome is still hot in its cache. At drain the
//! service merges one [`OutcomeTally`] per worker instead of re-scanning
//! the merged outcome stream: O(workers) work, not O(calls).

use obs::LogHistogram;

use crate::router::{CallOutcome, CallVerdict};

/// One worker's running digest of the outcomes it recorded.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutcomeTally {
    pub completed: u64,
    pub timed_out: u64,
    pub failed: u64,
    pub dead_lettered: u64,
    pub denied: u64,
    /// Summed virtual-time queue wait over every outcome.
    pub queue_wait_cycles: u64,
    /// On-CPU latency of every outcome.
    pub latency: LogHistogram,
    /// Queue wait of every outcome.
    pub queue_wait: LogHistogram,
    /// Denied outcomes per tenant, sorted by tenant id.
    pub tenant_denied: Vec<(u32, u64)>,
    /// On-CPU latency of completed outcomes per tenant, sorted by
    /// tenant id; a tenant appears once it has a completed call.
    pub tenant_latency: Vec<(u32, LogHistogram)>,
}

/// The value slot for `tenant` in a small map sorted by tenant id,
/// inserted with `init` when absent. Tenants number a handful, so a
/// binary search over a `Vec` beats hashing.
fn slot<T>(map: &mut Vec<(u32, T)>, tenant: u32, init: impl FnOnce() -> T) -> &mut T {
    let at = match map.binary_search_by_key(&tenant, |(t, _)| *t) {
        Ok(at) => at,
        Err(at) => {
            map.insert(at, (tenant, init()));
            at
        }
    };
    &mut map[at].1
}

impl OutcomeTally {
    /// Accounts one recorded outcome.
    pub fn record(&mut self, o: &CallOutcome) {
        match o.verdict {
            CallVerdict::Completed => {
                self.completed += 1;
                slot(
                    &mut self.tenant_latency,
                    o.request.tenant,
                    LogHistogram::new,
                )
                .record(o.latency_cycles);
            }
            CallVerdict::TimedOut => self.timed_out += 1,
            CallVerdict::Failed(_) => self.failed += 1,
            CallVerdict::DeadLettered(_) => self.dead_lettered += 1,
            CallVerdict::Denied(_) => {
                self.denied += 1;
                *slot(&mut self.tenant_denied, o.request.tenant, || 0) += 1;
            }
        }
        self.queue_wait_cycles += o.queue_wait_cycles;
        self.latency.record(o.latency_cycles);
        self.queue_wait.record(o.queue_wait_cycles);
    }

    /// Folds another worker's tally into this one.
    pub fn merge(&mut self, other: &OutcomeTally) {
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.dead_lettered += other.dead_lettered;
        self.denied += other.denied;
        self.queue_wait_cycles += other.queue_wait_cycles;
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        for &(tenant, denied) in &other.tenant_denied {
            *slot(&mut self.tenant_denied, tenant, || 0) += denied;
        }
        for (tenant, hist) in &other.tenant_latency {
            slot(&mut self.tenant_latency, *tenant, LogHistogram::new).merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{CallError, CallRequest};
    use crossover::world::Wid;

    fn outcome(tenant: u32, verdict: CallVerdict, latency: u64, wait: u64) -> CallOutcome {
        CallOutcome {
            request: CallRequest::new(Wid::from_raw(1), Wid::from_raw(2), 10, 1)
                .with_tenant(tenant),
            verdict,
            latency_cycles: latency,
            queue_wait_cycles: wait,
            worker: 0,
            stolen: false,
            coalesced: false,
        }
    }

    #[test]
    fn merged_tallies_equal_one_tally_over_every_outcome() {
        let denial = CallVerdict::Denied(CallError::Denied {
            caller: Wid::from_raw(1),
            callee: Wid::from_raw(2),
        });
        let outcomes = [
            outcome(3, CallVerdict::Completed, 900, 5),
            outcome(1, denial.clone(), 0, 7),
            outcome(1, CallVerdict::Completed, 1_200, 0),
            outcome(3, CallVerdict::TimedOut, 4_000, 11),
            outcome(2, denial, 0, 2),
            outcome(3, CallVerdict::Completed, 70, 3),
        ];
        let mut whole = OutcomeTally::default();
        outcomes.iter().for_each(|o| whole.record(o));
        let (mut left, mut right) = (OutcomeTally::default(), OutcomeTally::default());
        outcomes[..3].iter().for_each(|o| left.record(o));
        outcomes[3..].iter().for_each(|o| right.record(o));
        left.merge(&right);

        assert_eq!((whole.completed, whole.timed_out, whole.denied), (3, 1, 2));
        assert_eq!(whole.queue_wait_cycles, 28);
        assert_eq!(whole.tenant_denied, vec![(1, 1), (2, 1)]);
        let tenants: Vec<u32> = whole.tenant_latency.iter().map(|(t, _)| *t).collect();
        assert_eq!(tenants, vec![1, 3], "only tenants with a completion");
        assert_eq!(left.completed, whole.completed);
        assert_eq!(left.denied, whole.denied);
        assert_eq!(left.queue_wait_cycles, whole.queue_wait_cycles);
        assert_eq!(left.latency, whole.latency);
        assert_eq!(left.queue_wait, whole.queue_wait);
        assert_eq!(left.tenant_denied, whole.tenant_denied);
        assert_eq!(left.tenant_latency, whole.tenant_latency);
    }
}
