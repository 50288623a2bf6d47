//! The request path's steady state allocates nothing.
//!
//! Two steps run at every worker batch boundary: world-table
//! maintenance and batch formation. An allocation in either is paid on
//! nearly every call. This file counts heap allocations made on the
//! test's own thread (a counting global allocator; std only) and
//! asserts both steps make none once their buffers have grown:
//!
//! * `EpochWorldTable::maintain` passes over a table with nothing idle
//!   to demote and nothing retired to free;
//! * pinned lookups on a resident table, each followed by the paced
//!   maintenance offer a worker makes at its batch boundary (the tick
//!   blocks and per-reader counters live in preallocated slots);
//! * `Batcher` rounds — form every batch of a mixed-callee,
//!   mixed-caller load, then split each into caller runs;
//! * `RingSet::pop_biased` steals, which rank peer rings by their
//!   queue-wait EWMAs on every pop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crossover::world::{Wid, WorldDescriptor};
use xover_runtime::{Batcher, CallRequest, EpochWorldTable, MaintainOutcome, RingSet};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Requests per round: three callees, each called by three callers,
/// interleaved so every batch needs its caller runs regrouped.
const ROUND: u64 = 36;

fn push_round(rings: &RingSet<CallRequest>) {
    for k in 0..ROUND {
        let req = CallRequest::new(
            Wid::from_raw(10 + k % 3),
            Wid::from_raw(1 + k % 4 % 3),
            k,
            0,
        );
        rings.try_push(0, req).expect("ring sized for a round");
    }
}

/// Forms batches until the round is consumed, grouping each; returns
/// the number of caller runs seen.
fn drain_round(rings: &RingSet<CallRequest>, batcher: &mut Batcher<CallRequest>) -> u64 {
    let (mut taken, mut runs) = (0, 0);
    while taken < ROUND {
        batcher
            .next(rings, 0, false)
            .expect("the round is still queued");
        taken += batcher.items().len() as u64;
        batcher.group_by_caller();
        runs += batcher.group_count() as u64;
    }
    runs
}

#[test]
fn steady_state_maintenance_and_batch_formation_allocate_nothing() {
    const N: usize = 1_000;

    let table = EpochWorldTable::new(1, 1 << 16);
    let wids: Vec<Wid> = (0..256u64)
        .map(|i| {
            table
                .create(WorldDescriptor::host_user(0x1000 + i * 8, 0xE000))
                .expect("register")
        })
        .collect();
    // Round-robin lookups calibrate the eviction window and keep every
    // entry stamped well inside it; the first pass frees the garbage
    // registration retired.
    for round in 0..16_384 {
        table
            .lookup_pinned(0, wids[round % wids.len()])
            .expect("live");
    }
    table.maintain();
    let health = table.health();
    assert!(
        health.eviction_window > 0,
        "calibrated: passes really sweep"
    );
    assert_eq!(health.retired_pending, 0);

    let before = allocs();
    for _ in 0..N {
        assert_eq!(table.maintain(), MaintainOutcome::default());
    }
    let maintenance = allocs() - before;

    let rings = RingSet::new(1, 64);
    let mut batcher = Batcher::new(8);
    // One warm-up round grows the backlog, batch and run buffers.
    push_round(&rings);
    let warm_runs = drain_round(&rings, &mut batcher);
    let before = allocs();
    let mut runs = 0;
    for _ in 0..N {
        push_round(&rings);
        runs += drain_round(&rings, &mut batcher);
    }
    let formation = allocs() - before;

    assert_eq!(runs, warm_runs * N as u64, "every round splits alike");
    assert!(warm_runs > 3, "batches really split into caller runs");
    assert_eq!(maintenance, 0, "{N} idle maintenance passes allocated");
    assert_eq!(formation, 0, "{N} rounds of batch formation allocated");
}

#[test]
fn pinned_lookups_with_paced_maintenance_allocate_nothing() {
    const N: usize = 10_000;

    let table = EpochWorldTable::new(1, 1 << 16);
    let wids: Vec<Wid> = (0..256u64)
        .map(|i| {
            table
                .create(WorldDescriptor::host_user(0x1000 + i * 8, 0xE000))
                .expect("register")
        })
        .collect();
    // Calibrate the window with every entry stamped well inside it; the
    // pass frees the garbage registration retired.
    for round in 0..16_384 {
        table
            .lookup_pinned(0, wids[round % wids.len()])
            .expect("live");
    }
    table.maintain();
    let health = table.health();
    assert!(health.eviction_window > 0, "calibrated: paced passes sweep");
    assert_eq!(health.retired_pending, 0);

    let passes = health.writer_acquisitions;
    let before = allocs();
    for round in 0..N {
        table
            .lookup_pinned(0, wids[round % wids.len()])
            .expect("resident");
        assert_eq!(table.maintain_paced(), MaintainOutcome::default());
    }
    let spent = allocs() - before;

    let health = table.health();
    assert!(
        health.writer_acquisitions > passes,
        "paced passes really ran"
    );
    assert_eq!(health.resident, wids.len() as u64, "nothing demoted");
    assert_eq!(
        spent, 0,
        "{N} pinned lookups with paced maintenance allocated"
    );
}

#[test]
fn biased_steals_allocate_nothing() {
    const N: usize = 1_000;
    const RINGS: usize = 4;

    let rings: RingSet<u64> = RingSet::new(RINGS, 8);
    // Ring 3 measurably waits longest; rings 1 and 2 tie at zero, so
    // the victim order from home 0 is 3, then 1, then 2.
    for _ in 0..64 {
        rings.note_wait(3, 50_000);
    }
    let before = allocs();
    let mut order = [0u64; RINGS - 1];
    for round in 0..N as u64 {
        for ring in 1..RINGS {
            rings
                .try_push(ring, ring as u64)
                .expect("ring sized for a round");
        }
        for slot in &mut order {
            let (item, stolen) = rings.pop_biased(0).expect("a peer holds an item");
            assert!(stolen, "home ring 0 is empty: every pop steals");
            *slot = item;
        }
        assert_eq!(order, [3, 1, 2], "victim order in round {round}");
    }
    let steals = allocs() - before;

    assert_eq!(steals, 0, "{N} rounds of biased steals allocated");
}
