//! Scale properties of the epoch-protected world table.
//!
//! Three contracts pin the million-world redesign to the semantics the
//! rest of the suite assumes:
//!
//! 1. **WID unforgeability survives the lock-free rewrite.** Under
//!    seeded concurrent create/delete/lookup storms — including the
//!    grace-period reclamation path — WIDs stay globally unique and
//!    per-thread monotonic. A reused WID would let a later registration
//!    impersonate a deleted world; the storms make sure the epoch
//!    machinery never recycles one.
//! 2. **Quiescence drains everything.** Once readers are quiescent,
//!    bounded maintenance passes free every retired structure
//!    (`retired_pending` reaches zero), every deleted WID misses from
//!    every reader slot, and each worker's retire-log cursor sees each
//!    deletion exactly once.
//! 3. **Eviction never loses a world.** Under skewed traffic that
//!    demotes the cold tail, `live == resident + cold` holds and every
//!    live world still resolves (refaulting transparently); deleting a
//!    cold world works and releases it.
//!
//! The table's equivalence with the sequential `WorldTable` lives in
//! `tests/equivalence.rs`, and the service-level one-batch staleness
//! bound (a call submitted after `delete_world` returns never
//! completes) in `tests/invalidation_props.rs`.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use crossover::world::{Wid, WorldDescriptor};
use machine::rng::SplitMix64;
use xover_runtime::EpochWorldTable;

/// A host-kernel descriptor with a context unique to (`tag`, `i`), so
/// registrations never collide (context collision means replacement,
/// which is its own path — exercised separately).
fn world(tag: u64, i: u64) -> WorldDescriptor {
    WorldDescriptor::host_kernel(((tag + 1) << 32) | ((i + 1) << 12), 0xFFFF_8000)
}

#[test]
fn wids_stay_unique_and_monotonic_under_concurrent_churn() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;
    for seed in [7u64, 0xBADC_0FFE, 0x5EED] {
        let table = Arc::new(EpochWorldTable::new(THREADS, 1 << 20));
        let minted: Vec<Vec<Wid>> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|ti| {
                    let table = Arc::clone(&table);
                    s.spawn(move || {
                        let mut rng = SplitMix64::new(seed ^ (ti as u64).wrapping_mul(0x9E37));
                        let mut minted = Vec::new();
                        let mut live = Vec::new();
                        for i in 0..PER_THREAD {
                            let wid = table
                                .create(world(ti as u64, i as u64))
                                .expect("quota is ample");
                            minted.push(wid);
                            live.push(wid);
                            // Deletes push retired buckets into limbo;
                            // interleaved maintenance passes reclaim them
                            // while peers are mid-lookup, so grace
                            // periods are genuinely exercised.
                            if live.len() > 1 && rng.chance(0.4) {
                                let at = rng.below(live.len() as u64) as usize;
                                table.delete(live.swap_remove(at)).expect("own live world");
                            }
                            if rng.chance(0.3) {
                                let _ = table.lookup_pinned(ti, *rng.pick(&minted));
                            }
                            if i % 32 == 0 {
                                table.maintain();
                            }
                        }
                        minted
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = HashSet::new();
        for per_thread in &minted {
            for pair in per_thread.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "WIDs regressed within a thread (seed {seed:#x})"
                );
            }
            for wid in per_thread {
                assert!(
                    seen.insert(wid.raw()),
                    "{wid} was minted twice (seed {seed:#x}) — WID reuse"
                );
            }
        }
        assert_eq!(seen.len(), THREADS * PER_THREAD);
    }
}

#[test]
fn quiescence_drains_garbage_and_deleted_wids_miss_everywhere() {
    const SLOTS: usize = 2;
    let table = EpochWorldTable::new(SLOTS, 1 << 20);
    let wids: Vec<Wid> = (0..600)
        .map(|i| table.create(world(0, i)).expect("register"))
        .collect();
    let (deleted, kept): (Vec<Wid>, Vec<Wid>) =
        wids.iter().partition(|w| w.raw().is_multiple_of(2));
    for &wid in &deleted {
        table.delete(wid).expect("live world");
    }
    // Each worker's cursor drains the log exactly once, in order.
    for _slot in 0..SLOTS {
        let mut cursor = 0usize;
        let mut pulled = Vec::new();
        table.pull_retired(&mut cursor, &mut pulled);
        assert_eq!(pulled, deleted);
        table.pull_retired(&mut cursor, &mut pulled);
        assert_eq!(pulled, deleted, "a drained cursor appends nothing");
    }
    // No reader is pinned, so bounded maintenance passes must free every
    // retired structure; the limbo list cannot ratchet.
    let mut passes = 0;
    while table.health().retired_pending > 0 {
        table.maintain();
        passes += 1;
        assert!(passes < 1_000, "limbo never drained at quiescence");
    }
    assert!(table.health().grace_reclaims > 0);
    for slot in 0..SLOTS {
        for &wid in &deleted {
            assert_eq!(table.lookup_pinned(slot, wid), None, "stale {wid}");
        }
        for &wid in &kept {
            assert!(table.lookup_pinned(slot, wid).is_some(), "lost {wid}");
        }
    }
    assert_eq!(table.len(), kept.len());
}

#[test]
fn eviction_is_lossless_and_cold_deletes_release_worlds() {
    const WORLDS: u64 = 8_192;
    const HOT: usize = 64;
    let table = EpochWorldTable::new(1, 1 << 20);
    let wids: Vec<Wid> = (0..WORLDS)
        .map(|i| table.create(world(1, i)).expect("register"))
        .collect();
    // Hammer a small hot set until the reuse-distance histogram
    // calibrates and the cold tail ages past the derived window, with
    // maintenance interleaved the way worker batch boundaries would.
    let mut rng = SplitMix64::new(0xC01D);
    for _round in 0..48 {
        for _ in 0..512 {
            let hot = wids[rng.below(HOT as u64) as usize];
            assert!(table.lookup_pinned(0, hot).is_some());
        }
        table.maintain();
    }
    let health = table.health();
    assert!(
        health.evictions > 0,
        "cold tail never evicted: {health:?} (window {})",
        health.eviction_window
    );
    assert_eq!(health.live, WORLDS, "eviction must not change liveness");
    assert_eq!(
        table.resident_count() + table.cold_count(),
        WORLDS as usize,
        "every live world is resident or cold, never neither"
    );
    assert!(
        (table.resident_count() as u64) < WORLDS,
        "resident set must be a strict subset once eviction runs"
    );
    // Every world still resolves — cold ones refault transparently.
    for &wid in &wids {
        assert!(table.lookup_pinned(0, wid).is_some(), "lost {wid}");
    }
    assert!(
        table.health().refaults > 0,
        "full sweep must have refaulted"
    );
    // Deleting straight out of the cold store works too: re-age the
    // tail, then delete the coldest candidate (the last-minted world,
    // untouched since the full sweep above).
    for _round in 0..48 {
        for _ in 0..512 {
            let hot = wids[rng.below(HOT as u64) as usize];
            assert!(table.lookup_pinned(0, hot).is_some());
        }
        table.maintain();
    }
    assert!(table.cold_count() > 0, "tail never re-demoted");
    let victim = *wids.last().expect("worlds exist");
    table.delete(victim).expect("cold worlds are deletable");
    assert_eq!(table.lookup_pinned(0, victim), None);
    assert_eq!(table.len(), WORLDS as usize - 1);
}
