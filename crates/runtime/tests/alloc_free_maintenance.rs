//! The request path's steady state allocates nothing.
//!
//! Two steps run at every worker batch boundary: world-table
//! maintenance and batch formation. An allocation in either is paid on
//! nearly every call. This file counts heap allocations (a counting
//! global allocator; std only), per thread and process-wide, and
//! asserts these steps make none once their buffers have grown:
//!
//! * `EpochWorldTable::maintain` passes over a table with nothing idle
//!   to demote and nothing retired to free;
//! * pinned lookups on a resident table, each followed by the paced
//!   maintenance offer a worker makes at its batch boundary (the tick
//!   blocks and per-reader counters live in preallocated slots);
//! * `Batcher` rounds — form every batch of a mixed-callee,
//!   mixed-caller load, then split each into caller runs;
//! * trace-driven prefill, which checks the worker's call history
//!   before every resident drain: a prefill-on switchless run makes
//!   no more allocations than the same run with prefill off, bar the
//!   history's own growth. Worker threads allocate there, so the
//!   count is process-wide and the file's tests run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crossover::world::{Wid, WorldDescriptor};
use machine::rng::{SplitMix64, Zipf};
use xover_runtime::{
    Batcher, CallRequest, EpochWorldTable, MaintainOutcome, RingSet, RuntimeConfig,
    SwitchlessConfig, WorldCallService,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations on every thread of the process.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Serializes this file's tests, so a process-wide count sees no other
/// test's allocations.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
        batcher.next(rings, 0).expect("the round is still queued");
        taken += batcher.items().len() as u64;
        batcher.group_by_caller();
        runs += batcher.group_count() as u64;
    }
    runs
}

#[test]
fn steady_state_maintenance_and_batch_formation_allocate_nothing() {
    const N: usize = 1_000;
    let _serial = exclusive();

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
    let _serial = exclusive();

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

/// Calls in the prefill run: enough cold drains that one allocation
/// each would dwarf the slack below.
const PREFILL_CALLS: u64 = 3_000;

/// Allocations a prefill-on run may make beyond the prefill-off run:
/// the call history's growth to its fixed depth, plus room for the test
/// harness's own thread reporting a finished test meanwhile.
const PREFILL_SLACK: u64 = 16;

/// Runs a seeded Zipf schedule over twelve worlds with switchless
/// channels on one worker; returns the process-wide allocations it made
/// and the prefill passes that ran.
fn prefill_run(prefill: bool) -> (u64, u64) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        queue_capacity: PREFILL_CALLS as usize,
        batch_max: 32,
        // A fixed budget and no epoch boundary: both runs form the same
        // batches and fold no controller snapshots.
        switchless: SwitchlessConfig {
            epoch_cycles: u64::MAX,
            prefill,
            ..SwitchlessConfig::fixed(8)
        },
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..6u64 {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("pf-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000 * (t + 1), 0xFFFF_8000)
            .expect("register kernel world");
        for w in [user, kernel] {
            svc.attach_working_set(w, vm, 8)
                .expect("attach working set");
            svc.attach_channel(w, vm).expect("attach channel");
            worlds.push(w);
        }
    }
    let zipf = Zipf::new(worlds.len(), 1.2);
    let mut rng = SplitMix64::new(0x9F11);
    let requests: Vec<CallRequest> = (0..PREFILL_CALLS)
        .map(|_| {
            let callee = worlds[zipf.sample(&mut rng)];
            let caller = loop {
                let w = worlds[zipf.sample(&mut rng)];
                if w != callee {
                    break w;
                }
            };
            CallRequest::new(caller, callee, 800, 200)
        })
        .collect();
    let before = ALL_ALLOCS.load(Ordering::Relaxed);
    for req in requests {
        svc.submit(req).expect("queue open");
    }
    svc.start();
    let report = svc.drain();
    let spent = ALL_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.completed, PREFILL_CALLS);
    (spent, report.switchless.prefill.runs)
}

#[test]
fn prefilled_drains_allocate_nothing() {
    let _serial = exclusive();
    let (off, _) = prefill_run(false);
    let (on, runs) = prefill_run(true);
    assert!(
        runs > 10 * PREFILL_SLACK,
        "only {runs} prefill passes: too few to tell an allocation per pass from slack"
    );
    assert!(
        on <= off + PREFILL_SLACK,
        "{runs} prefill passes allocated: {on} allocations with prefill, {off} without"
    );
}
