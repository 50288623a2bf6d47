//! Batch formation: the worker's step between the dispatch rings and the
//! execution paths.
//!
//! A worker drains its own ring into a local backlog, takes the first
//! request's same-callee batch out of it, and splits that batch into
//! same-caller runs (the unit the authz gate and the switchless path
//! work on). Every buffer involved — the backlog, the batch and the run
//! boundaries — belongs to one [`Batcher`] per worker and is reused from
//! batch to batch, so forming a batch allocates nothing once the buffers
//! have grown to the configured batch size.

use std::collections::VecDeque;
use std::ops::Range;

use crossover::world::Wid;

use crate::ring::RingSet;
use crate::router::{CallRequest, Queued};

/// What batch formation reads from a queued item: the callee a batch is
/// formed around and the caller its runs are split by.
pub trait Routed: Copy {
    /// The world the item calls into.
    fn callee(&self) -> Wid;
    /// The world the item calls from.
    fn caller(&self) -> Wid;
}

impl Routed for CallRequest {
    fn callee(&self) -> Wid {
        self.callee
    }

    fn caller(&self) -> Wid {
        self.caller
    }
}

impl Routed for Queued {
    fn callee(&self) -> Wid {
        self.req.callee
    }

    fn caller(&self) -> Wid {
        self.req.caller
    }
}

/// One worker's reusable batch buffers.
///
/// [`Batcher::next`] forms a destination-affine batch;
/// [`Batcher::group_by_caller`] partitions it in place into same-caller
/// runs. Each item carries whether it was stolen from a peer's ring
/// (only a batch's head ever is), so the flag stays with its request
/// however the runs are reordered or thinned.
#[derive(Debug)]
pub struct Batcher<T> {
    batch_max: usize,
    backlog: VecDeque<T>,
    items: Vec<(T, bool)>,
    groups: Vec<Range<usize>>,
    /// Set by [`Batcher::requeue`]: the next [`Batcher::next`] hands the
    /// current batch back instead of forming a new one.
    held: bool,
}

impl<T: Routed + Send> Batcher<T> {
    /// Empty buffers for batches of at most `batch_max` items (a batch
    /// always holds its head), with a backlog of up to twice that.
    pub fn new(batch_max: usize) -> Batcher<T> {
        Batcher {
            batch_max,
            backlog: VecDeque::new(),
            items: Vec::new(),
            groups: Vec::new(),
            held: false,
        }
    }

    /// Forms the next batch. The worker first drains its own ring into
    /// the backlog (bounded at twice the batch size), then takes the
    /// first request's same-callee group out of the backlog, preserving
    /// the relative order of what stays behind. `biased` routes steals
    /// through [`RingSet::pop_biased`] instead of round-robin. Returns
    /// whether the head was stolen, or `None` once the rings are closed
    /// and drained. A batch held by [`Batcher::requeue`] comes back
    /// as-is, not stolen.
    pub fn next(&mut self, rings: &RingSet<T>, home: usize, biased: bool) -> Option<bool> {
        if std::mem::take(&mut self.held) {
            return Some(false);
        }
        self.items.clear();
        self.groups.clear();
        let (first, stolen) = match self.backlog.pop_front() {
            Some(q) => (q, false),
            None => {
                if biased {
                    rings.pop_biased(home)?
                } else {
                    rings.pop(home)?
                }
            }
        };
        while self.backlog.len() < self.batch_max.saturating_mul(2) {
            match rings.try_pop_local(home) {
                Some(q) => self.backlog.push_back(q),
                None => break,
            }
        }
        let callee = first.callee();
        self.items.push((first, stolen));
        let (items, batch_max) = (&mut self.items, self.batch_max);
        self.backlog.retain(|q| {
            if items.len() < batch_max && q.callee() == callee {
                items.push((*q, false));
                false
            } else {
                true
            }
        });
        Some(stolen)
    }

    /// Holds the current batch over to the next [`Batcher::next`], order
    /// preserved and no longer marked stolen (a crashed worker's batch
    /// is requeued whole before any of it was serviced).
    pub fn requeue(&mut self) {
        self.held = true;
        if let Some(head) = self.items.first_mut() {
            head.1 = false;
        }
    }

    /// The current batch, tagged with whether each item was stolen.
    pub fn items(&self) -> &[(T, bool)] {
        &self.items
    }

    /// Requests waiting in the backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Partitions the current batch in place into same-caller runs:
    /// stable, so runs come in first-seen caller order and each keeps
    /// its requests' order.
    pub fn group_by_caller(&mut self) {
        self.groups.clear();
        let n = self.items.len();
        let mut start = 0;
        while start < n {
            let caller = self.items[start].0.caller();
            // Pull each later same-caller item back to the run's end;
            // the items it passes shift up one, keeping their order.
            let mut end = start + 1;
            for j in start + 1..n {
                if self.items[j].0.caller() == caller {
                    self.items[end..=j].rotate_right(1);
                    end += 1;
                }
            }
            self.groups.push(start..end);
            start = end;
        }
    }

    /// Number of same-caller runs from the last
    /// [`Batcher::group_by_caller`].
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Run `g` of the current batch, mutable so a gate can thin it in
    /// place.
    pub fn group_mut(&mut self, g: usize) -> &mut [(T, bool)] {
        let range = self.groups[g].clone();
        &mut self.items[range]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(caller: u64, callee: u64, work: u64) -> CallRequest {
        CallRequest::new(Wid::from_raw(caller), Wid::from_raw(callee), work, 0)
    }

    fn groups(b: &mut Batcher<CallRequest>) -> Vec<Vec<(u64, u64)>> {
        b.group_by_caller();
        (0..b.group_count())
            .map(|g| {
                b.group_mut(g)
                    .iter()
                    .map(|(r, _)| (r.caller.raw(), r.work_cycles))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batches_are_same_callee_and_leave_the_rest_in_order() {
        let rings = RingSet::new(1, 64);
        for (i, callee) in [7, 8, 7, 9, 7, 8].into_iter().enumerate() {
            rings.try_push(0, req(1, callee, i as u64)).unwrap();
        }
        rings.close();
        let mut b = Batcher::new(2);
        let mut seen = Vec::new();
        while let Some(stolen) = b.next(&rings, 0, false) {
            assert!(!stolen, "one ring: nothing to steal");
            seen.push(
                b.items()
                    .iter()
                    .map(|(r, _)| (r.callee.raw(), r.work_cycles))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            seen,
            vec![
                vec![(7, 0), (7, 2)],
                vec![(8, 1), (8, 5)],
                vec![(9, 3)],
                vec![(7, 4)],
            ]
        );
    }

    #[test]
    fn caller_runs_are_a_stable_first_seen_partition() {
        let rings = RingSet::new(1, 64);
        for (i, caller) in [3, 1, 3, 2, 1, 3].into_iter().enumerate() {
            rings.try_push(0, req(caller, 7, i as u64)).unwrap();
        }
        let mut b = Batcher::new(16);
        assert_eq!(b.next(&rings, 0, false), Some(false));
        assert_eq!(
            groups(&mut b),
            vec![
                vec![(3, 0), (3, 2), (3, 5)],
                vec![(1, 1), (1, 4)],
                vec![(2, 3)],
            ]
        );
    }

    #[test]
    fn stolen_head_keeps_its_flag_and_requeue_clears_it() {
        let rings = RingSet::new(2, 8);
        rings.try_push(1, req(1, 7, 0)).unwrap();
        let mut b = Batcher::new(4);
        assert_eq!(b.next(&rings, 0, false), Some(true));
        assert!(b.items()[0].1);
        b.requeue();
        assert_eq!(b.next(&rings, 0, false), Some(false), "held batch");
        assert_eq!(b.items().len(), 1);
        assert!(!b.items()[0].1);
        rings.close();
        assert_eq!(b.next(&rings, 0, false), None);
    }
}
