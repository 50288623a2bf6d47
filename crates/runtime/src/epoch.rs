//! Epoch-protected lock-free world table with cold-world eviction.
//!
//! The runtime's one world table: the hypervisor-managed table every
//! worker walks on a WT/IWT miss. A lock on that walk, or a per-worker
//! broadcast on every delete, would cap the design at toy scale, so the
//! *read path* is an epoch/RCU-protected structure in the spirit of the
//! in-tree Vyukov rings: dependency-free, unsafe-but-argued, and
//! property-tested.
//!
//! # Read path
//!
//! The table is published as a two-level radix: an atomically-swapped
//! root [`TableArray`] holding a power-of-two array of bucket pointers,
//! each bucket an immutable sorted slice of entries. A WID lookup (the
//! WT-miss walk) pins its per-worker epoch slot, loads the root, loads
//! one bucket, binary searches, and unpins — no locks, no CAS loops, no
//! allocation: wait-free in the number of resident entries. Two reads
//! do take the writer mutex: a resident miss (a cold-store refault, or
//! a WID that is not live), and [`EpochWorldTable::lookup_context`], the
//! context → WID lookup behind the IWT-miss path, whose index lives
//! with the writer state. Writers (registration, deletion, eviction,
//! refault) serialize behind one mutex and publish by copy-on-write:
//! build a replacement bucket (or, on growth, a doubled root), swap the
//! pointer, and push the old structure onto a limbo list tagged with
//! the post-swap epoch.
//!
//! A lookup writes only what its reader owns, plus the entry's access
//! stamp. Each worker owns one [`ReaderSlot`] — its pin, lookup count,
//! reuse-distance histogram and access-tick block on 128-byte-aligned
//! lines of their own — and bumps its counters with a relaxed load and
//! store, not a read-modify-write; one more slot serves unpinned
//! callers under the writer lock. The words every lookup loads (root,
//! epoch, the slot array) sit in a 128-byte group apart from the
//! counters writers bump. So no line a lookup writes is shared between
//! workers except the looked-up entry's own stamp, and a lookup's cost
//! does not depend on how many workers share the table.
//!
//! # Grace periods
//!
//! Reclamation is the classic epoch argument. The global epoch `E` is
//! incremented *after* each pointer swap; a structure retired at epoch
//! `t` may be freed once every pinned reader slot holds an epoch `>= t`
//! (or is quiescent): a reader pinned at `v >= t` pinned *after* the
//! increment, hence after the swap, and can only have observed the new
//! pointer. Readers never write into the structure they read (beyond
//! relaxed access stamps), so ABA does not arise.
//!
//! # Deletion without broadcast
//!
//! `delete` does not broadcast to every worker. It unpublishes the
//! entry (so table misses are immediate) and appends the WID to a
//! *retire log*; each worker pulls the log's tail at its next batch
//! boundary and invalidates its private WT/IWT caches then — the
//! runtime's one `manage_wtc` invalidation path. A worker's caches may
//! serve a deleted world only within the batch that overlapped the
//! delete (the one-batch staleness bound), and `delete` is O(1) instead
//! of O(workers).
//!
//! # Cold-world eviction
//!
//! Resident memory is bounded by the *hot set*, not the live-world
//! count. Every lookup stamps the entry with an access tick and feeds
//! the observed reuse distance (this stamp − the previous one) into its
//! reader's log₂ histogram; maintenance sums the histograms and derives
//! the eviction window online as a multiple of the p90 reuse distance,
//! so the policy tracks the workload with no hand-set knob. Entries
//! idle longer than the window are demoted — packed into the compact
//! serialized form of [`WorldEntry::pack`] inside a paged cold store —
//! and faulted back in transparently on their next lookup (a *refault*,
//! through the writer lock). Eviction is invisible to worker caches: an
//! evicted world is still live, so no invalidation is needed or sent.
//!
//! Access ticks come in blocks. A reader reserves [`TICK_BLOCK`] ticks
//! from the global clock with one `fetch_add` and issues its stamps
//! from the block; the table's *now* — which paces maintenance, judges
//! idleness and stamps a newly published entry — is the number of
//! ticks issued over all readers. With one reader, stamps and now are
//! exactly the sequence one `fetch_add(1)` per lookup gives, so
//! eviction decisions are those of a single global tick. With R readers
//! a stamp leads now by fewer than R × [`TICK_BLOCK`] ticks, and trails
//! it by the ticks the other readers issue while its reader works
//! through one block: about (R − 1) × [`TICK_BLOCK`] when readers look
//! up at similar rates, more for a reader that pauses with a part-used
//! block. A trailing stamp can only make a world look idle early; the
//! world is demoted and refaults on its next lookup, which callers
//! never see, and the window never falls below its 4,096-tick floor.
//!
//! Maintenance costs what it does, not what the table holds. A
//! [`EpochWorldTable::maintain`] pass sweeps up to [`SWEEP_BUCKETS`]
//! buckets, and a read-only pre-scan of each bucket's stamps skips
//! every bucket with nothing idle: no copy, no swap, no retire. Only a
//! bucket holding an idle entry is rebuilt. Workers offer a pass at
//! every batch boundary through [`EpochWorldTable::maintain_paced`],
//! which runs one only once enough lookup ticks have passed for the
//! sweep to rotate through the whole table every `window / 8` ticks, so
//! an idle entry is demoted within `window + window / 8` ticks and the
//! pace comes from the measured window, not from a setting.

use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crossover::table::WorldLookup;
use crossover::world::{Wid, WorldContext, WorldDescriptor, WorldEntry, PACKED_ENTRY_BYTES};
use crossover::WorldError;
use hypervisor::vm::VmId;

/// A quiescent (unpinned) reader slot.
const QUIESCENT: u64 = u64::MAX;

/// Buckets examined per [`EpochWorldTable::maintain`] call: the sweep is
/// incremental so the cost of one pass stays bounded regardless of
/// table size.
const SWEEP_BUCKETS: usize = 64;

/// Target mean bucket occupancy before the root doubles.
const MAX_AVG_BUCKET: usize = 48;

/// Reuse-distance samples required before eviction switches on.
const MIN_WINDOW_SAMPLES: u64 = 1024;

/// Floor for the derived eviction window, in lookup ticks.
const MIN_WINDOW: u64 = 4096;

/// Entries per cold-store page.
const COLD_PAGE_SLOTS: usize = 128;

/// Access ticks a worker's reader slot reserves from the global clock at
/// a time: one shared read-modify-write per this many lookups.
const TICK_BLOCK: u64 = 64;

/// Log₂ reuse-distance buckets: a distance's bit length, 0 to 64.
const DIST_BUCKETS: usize = 65;

/// Lookup ticks between paced maintenance passes: a full sweep of
/// `buckets` every `window / 8` ticks, with [`MIN_WINDOW`] standing in
/// for a window still calibrating (`u64::MAX`).
fn pace_interval(window: u64, buckets: usize) -> u64 {
    let window = if window == u64::MAX {
        MIN_WINDOW
    } else {
        window
    };
    (window / 8 / buckets.div_ceil(SWEEP_BUCKETS) as u64).max(1)
}

/// One resident slot: the entry plus its last-access stamp. The stamp is
/// atomic so readers can update it through a shared bucket reference.
#[derive(Debug)]
struct Slot {
    entry: WorldEntry,
    last_access: AtomicU64,
}

impl Slot {
    fn new(entry: WorldEntry, tick: u64) -> Slot {
        Slot {
            entry,
            last_access: AtomicU64::new(tick),
        }
    }

    fn duplicate(&self) -> Slot {
        Slot {
            entry: self.entry,
            last_access: AtomicU64::new(self.last_access.load(Ordering::Relaxed)),
        }
    }
}

/// An immutable published bucket: entries sorted by raw WID.
#[derive(Debug, Default)]
struct Bucket {
    slots: Vec<Slot>,
}

impl Bucket {
    fn find(&self, wid: u64) -> Option<&Slot> {
        self.slots
            .binary_search_by_key(&wid, |s| s.entry.wid.raw())
            .ok()
            .map(|i| &self.slots[i])
    }
}

/// The published root: a power-of-two radix of bucket pointers. Buckets
/// hash by `wid & mask`; WIDs are monotonic, so identity-mod-power-of-two
/// spreads them uniformly.
#[derive(Debug)]
struct TableArray {
    mask: u64,
    buckets: Vec<AtomicPtr<Bucket>>,
}

impl TableArray {
    fn alloc(buckets: usize) -> *mut TableArray {
        debug_assert!(buckets.is_power_of_two());
        Box::into_raw(Box::new(TableArray {
            mask: buckets as u64 - 1,
            buckets: (0..buckets)
                .map(|_| AtomicPtr::new(Box::into_raw(Box::default())))
                .collect(),
        }))
    }

    fn bucket(&self, wid: u64) -> &AtomicPtr<Bucket> {
        &self.buckets[(wid & self.mask) as usize]
    }
}

/// One reader's share of the lookup path's writes: its pin, its counts,
/// its reuse-distance histogram and its access-tick block. Aligned to
/// 128 bytes (two cache lines, the adjacent-line prefetch unit) so no
/// two readers' slots share a line. Only the owning reader writes a
/// slot — a worker through [`EpochWorldTable::lookup_pinned`], unpinned
/// callers only under the writer lock — so counters are bumped with a
/// relaxed load and store ([`bump`]); other threads only read it.
#[repr(align(128))]
#[derive(Debug)]
struct ReaderSlot {
    /// Epoch this reader pinned; [`QUIESCENT`] when it is not reading.
    pin: AtomicU64,
    /// Lookups served through this slot.
    lookups: AtomicU64,
    /// Access stamps issued through this slot: its reuse-distance
    /// samples, and its share of the table's now.
    stamps: AtomicU64,
    /// The last tick issued from the current block.
    block_next: AtomicU64,
    /// The current block's last tick; a block is spent when
    /// `block_next` reaches it.
    block_end: AtomicU64,
    /// Ticks reserved per block.
    block: u64,
    /// Log₂ histogram of this slot's reuse distances.
    dist_hist: [AtomicU64; DIST_BUCKETS],
}

impl ReaderSlot {
    fn new(block: u64) -> ReaderSlot {
        ReaderSlot {
            pin: AtomicU64::new(QUIESCENT),
            lookups: AtomicU64::new(0),
            stamps: AtomicU64::new(0),
            block_next: AtomicU64::new(0),
            block_end: AtomicU64::new(0),
            block,
            dist_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Adds one to a counter only one thread writes: a relaxed load and
/// store, where a `fetch_add` would take the line exclusive with a
/// locked read-modify-write.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// The words every lookup loads, in a 128-byte group of their own, so
/// the counters writers bump (`live`, `resident`, …) never invalidate
/// them.
#[repr(align(128))]
#[derive(Debug)]
struct ReadSide {
    root: AtomicPtr<TableArray>,
    epoch: AtomicU64,
    /// One slot per worker, then the unpinned callers' slot.
    readers: Box<[ReaderSlot]>,
}

/// A structure retired from the published tree, freeable once every
/// reader has advanced past `epoch`.
#[derive(Debug)]
enum Garbage {
    Bucket(*mut Bucket),
    Array(*mut TableArray),
}

// Garbage pointers are uniquely owned once retired: the writer that
// unlinked them is the only path to them, and readers stop holding them
// after the grace period — which is exactly what reclaim() waits for.
unsafe impl Send for Garbage {}

#[derive(Debug)]
struct LimboItem {
    epoch: u64,
    garbage: Garbage,
}

/// Paged store for demoted (cold) worlds: fixed-width packed records in
/// page-sized slabs, indexed by WID, with slot reuse.
#[derive(Debug, Default)]
struct ColdStore {
    pages: Vec<Box<[u8]>>,
    index: HashMap<u64, usize>,
    free: Vec<usize>,
}

impl ColdStore {
    fn insert(&mut self, entry: WorldEntry) {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.pages.len() * COLD_PAGE_SLOTS;
            self.pages
                .push(vec![0u8; COLD_PAGE_SLOTS * PACKED_ENTRY_BYTES].into_boxed_slice());
            self.free.extend((slot + 1..slot + COLD_PAGE_SLOTS).rev());
            slot
        });
        let (page, at) = (slot / COLD_PAGE_SLOTS, slot % COLD_PAGE_SLOTS);
        let bytes = entry.pack();
        self.pages[page][at * PACKED_ENTRY_BYTES..(at + 1) * PACKED_ENTRY_BYTES]
            .copy_from_slice(&bytes);
        self.index.insert(entry.wid.raw(), slot);
    }

    fn get(&self, wid: u64) -> Option<WorldEntry> {
        let slot = *self.index.get(&wid)?;
        let (page, at) = (slot / COLD_PAGE_SLOTS, slot % COLD_PAGE_SLOTS);
        let bytes: &[u8; PACKED_ENTRY_BYTES] = self.pages[page]
            [at * PACKED_ENTRY_BYTES..(at + 1) * PACKED_ENTRY_BYTES]
            .try_into()
            .expect("fixed-width record");
        Some(WorldEntry::unpack(bytes))
    }

    fn remove(&mut self, wid: u64) -> Option<WorldEntry> {
        let entry = self.get(wid)?;
        let slot = self.index.remove(&wid).expect("get() just hit");
        self.free.push(slot);
        Some(entry)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn bytes(&self) -> usize {
        self.pages.len() * COLD_PAGE_SLOTS * PACKED_ENTRY_BYTES
    }
}

/// Writer-side state, serialized behind one mutex: registration indexes
/// (context → WID, ownership, per-VM quota), the cold store, the limbo
/// list and the eviction sweep cursor.
#[derive(Debug, Default)]
struct WriterState {
    by_context: HashMap<WorldContext, Wid>,
    owners: HashMap<u64, Option<VmId>>,
    per_vm: HashMap<VmId, usize>,
    next_wid: u64,
    cold: ColdStore,
    limbo: Vec<LimboItem>,
    sweep_cursor: usize,
}

/// What one [`EpochWorldTable::maintain`] pass did. Deltas since the
/// previous pass, so the calling worker can emit obs events without
/// double counting across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Entries demoted to the cold store by this pass.
    pub evicted: u64,
    /// Retired structures freed after their grace period by this pass.
    pub reclaimed: u64,
    /// Cold-store refaults since the previous pass (table-wide).
    pub refaults: u64,
}

/// Point-in-time health counters for a runtime table, reported through
/// [`crate::service::ServiceReport`] and the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableHealth {
    /// Live worlds (resident + cold).
    pub live: u64,
    /// Entries resident in the published lock-free tree.
    pub resident: u64,
    /// Worlds demoted to the cold store so far.
    pub evictions: u64,
    /// Cold worlds faulted back in so far.
    pub refaults: u64,
    /// Retired structures freed after their grace period so far.
    pub grace_reclaims: u64,
    /// Retired structures still waiting out their grace period.
    pub retired_pending: u64,
    /// Current eviction window in lookup ticks (0 while calibrating).
    pub eviction_window: u64,
    /// Cold-store footprint in bytes.
    pub cold_bytes: u64,
    /// Lookups served so far: the sum of every reader slot's count.
    pub lookups: u64,
    /// Writer-lock acquisitions: registration, deletion, refault,
    /// unpinned lookups, context lookups (the
    /// [`EpochWorldTable::lookup_context`] behind every IWT miss) and
    /// maintenance passes.
    pub writer_acquisitions: u64,
    /// Writer-lock acquisitions that found the lock held and blocked.
    pub writer_contended: u64,
}

/// The epoch-protected world table. Same observable semantics as the
/// sequential [`crossover::table::WorldTable`] — monotonic never-reused
/// WIDs, per-VM quotas enforced at registration, context replacement —
/// with wait-free reads, O(1) deletion and hot-set-bounded resident
/// memory (`tests/equivalence.rs` pins the two together).
#[derive(Debug)]
pub struct EpochWorldTable {
    read: ReadSide,
    /// Bucket count of the published root, stored under the writer lock
    /// whenever the root grows, so readers holding neither a pin nor the
    /// lock never dereference a root a concurrent grow may retire.
    bucket_count: AtomicUsize,
    /// The global access clock: ticks reserved so far, a block at a
    /// time. The table's now is the ticks issued ([`Self::now`]).
    tick: AtomicU64,
    live: AtomicU64,
    resident: AtomicU64,
    evictions: AtomicU64,
    refaults: AtomicU64,
    refaults_unreported: AtomicU64,
    reclaims: AtomicU64,
    limbo_len: AtomicU64,
    writer_acquisitions: AtomicU64,
    writer_contended: AtomicU64,
    /// Derived eviction window; `u64::MAX` while calibrating.
    window: AtomicU64,
    /// Tick of now at which the next [`EpochWorldTable::maintain_paced`]
    /// pass is due.
    maintain_due: AtomicU64,
    /// Ticks between paced passes, refreshed by every pass.
    pace: AtomicU64,
    /// Whether maintenance may calibrate a window and demote cold
    /// worlds (always on outside this module's tests).
    evicts: bool,
    retired_len: AtomicUsize,
    retired: Mutex<Vec<Wid>>,
    writer: Mutex<WriterState>,
    quota: usize,
}

// The raw pointers inside are owned by the table (current tree) or by
// the limbo list (retired structures); both are reclaimed only under the
// writer mutex after a grace period, and freed in Drop.
unsafe impl Send for EpochWorldTable {}
unsafe impl Sync for EpochWorldTable {}

impl EpochWorldTable {
    /// Creates a table with `worker_slots` worker reader slots (plus one
    /// for unpinned callers) and the given per-VM quota.
    ///
    /// # Panics
    ///
    /// Panics if `worker_slots` or `quota` is zero.
    pub fn new(worker_slots: usize, quota: usize) -> EpochWorldTable {
        assert!(worker_slots > 0, "need at least one reader slot");
        assert!(quota > 0, "quota must be positive");
        let buckets = (worker_slots * 4).next_power_of_two().max(64);
        // Unpinned callers take one tick at a time: they hold the writer
        // lock anyway, and a setup-time lookup then leaves no part-used
        // block ahead of the workers' first.
        let readers = (0..worker_slots)
            .map(|_| ReaderSlot::new(TICK_BLOCK))
            .chain([ReaderSlot::new(1)])
            .collect();
        EpochWorldTable {
            read: ReadSide {
                root: AtomicPtr::new(TableArray::alloc(buckets)),
                epoch: AtomicU64::new(1),
                readers,
            },
            bucket_count: AtomicUsize::new(buckets),
            tick: AtomicU64::new(0),
            live: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refaults: AtomicU64::new(0),
            refaults_unreported: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            limbo_len: AtomicU64::new(0),
            writer_acquisitions: AtomicU64::new(0),
            writer_contended: AtomicU64::new(0),
            window: AtomicU64::new(u64::MAX),
            maintain_due: AtomicU64::new(0),
            pace: AtomicU64::new(pace_interval(u64::MAX, buckets)),
            evicts: true,
            retired_len: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
            writer: Mutex::new(WriterState {
                next_wid: 1,
                ..WriterState::default()
            }),
            quota,
        }
    }

    /// A table whose maintenance never evicts, for tests whose
    /// precondition is a resident count that cold eviction would race.
    #[cfg(test)]
    fn without_eviction(worker_slots: usize, quota: usize) -> EpochWorldTable {
        let mut table = EpochWorldTable::new(worker_slots, quota);
        table.evicts = false;
        table
    }

    /// The per-VM quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Worker reader slots, one per worker; slots `0..worker_slots()`
    /// are valid for [`EpochWorldTable::lookup_pinned`].
    pub fn worker_slots(&self) -> usize {
        self.read.readers.len() - 1
    }

    /// The unpinned callers' slot, written only under the writer lock.
    fn unpinned_reader(&self) -> &ReaderSlot {
        &self.read.readers[self.worker_slots()]
    }

    /// The table's now: access ticks issued over all reader slots.
    fn now(&self) -> u64 {
        self.read
            .readers
            .iter()
            .map(|r| r.stamps.load(Ordering::Relaxed))
            .sum()
    }

    /// Buckets in the currently-published root array. Reads the mirror
    /// the writer keeps, not the root itself: safe from any thread,
    /// pinned or not.
    pub fn bucket_count(&self) -> usize {
        self.bucket_count.load(Ordering::SeqCst)
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer_acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.writer.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.writer_contended.fetch_add(1, Ordering::Relaxed);
                self.writer.lock().unwrap_or_else(|e| e.into_inner())
            }
            Err(std::sync::TryLockError::Poisoned(g)) => g.into_inner(),
        }
    }

    // ---- read path -------------------------------------------------

    /// Wait-free WID → entry lookup from worker `slot`. Pins the slot,
    /// walks the published snapshot, unpins. Falls back to the writer
    /// lock only on a resident miss (cold-store refault or a genuine
    /// miss).
    ///
    /// A slot belongs to one thread: at most one thread may look up
    /// through a given `slot` at a time. The pin protocol relies on it
    /// (a second thread's unpin would release the first's pin), and so
    /// do the slot's counters and tick block, which are written without
    /// read-modify-writes.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.worker_slots()`: the slot past the
    /// workers' belongs to unpinned callers.
    pub fn lookup_pinned(&self, slot: usize, wid: Wid) -> Option<WorldEntry> {
        assert!(
            slot < self.worker_slots(),
            "reader slot {slot} is not a worker slot"
        );
        let reader = &self.read.readers[slot];
        bump(&reader.lookups);
        // Pin order matters: publish our epoch *before* loading the root
        // so a writer that swaps after our pin-store tags its garbage
        // with an epoch greater than ours.
        reader
            .pin
            .store(self.read.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        let hit = self.resident_lookup(wid, Some(reader));
        reader.pin.store(QUIESCENT, Ordering::Release);
        match hit {
            Some(entry) => Some(entry),
            None => self.miss_slow(wid),
        }
    }

    /// Unpinned lookup for external (non-worker) callers: takes the
    /// writer lock, which also excludes concurrent publication.
    pub fn lookup(&self, wid: Wid) -> Option<WorldEntry> {
        let mut st = self.lock_writer();
        let reader = self.unpinned_reader();
        bump(&reader.lookups);
        if let Some(entry) = self.resident_lookup(wid, Some(reader)) {
            return Some(entry);
        }
        self.refault_locked(&mut st, wid)
    }

    /// Walks the published tree. Caller must either hold a pin or the
    /// writer lock. On a hit, `stamp` names the reader whose tick stamps
    /// the entry and whose histogram takes the reuse distance.
    fn resident_lookup(&self, wid: Wid, stamp: Option<&ReaderSlot>) -> Option<WorldEntry> {
        let arr = unsafe { &*self.read.root.load(Ordering::SeqCst) };
        let bucket = unsafe { &*arr.bucket(wid.raw()).load(Ordering::SeqCst) };
        let slot = bucket.find(wid.raw())?;
        if let Some(reader) = stamp {
            let now = self.issue_tick(reader);
            let prev = slot.last_access.swap(now, Ordering::Relaxed);
            let dist = now.saturating_sub(prev);
            // log2 bucket index = bit length of the distance.
            let idx = (64 - dist.leading_zeros()) as usize;
            bump(&reader.dist_hist[idx]);
            bump(&reader.stamps);
        }
        Some(slot.entry)
    }

    /// The next access tick from `reader`'s block, reserving a fresh
    /// block from the global clock once the current one is spent.
    fn issue_tick(&self, reader: &ReaderSlot) -> u64 {
        let mut next = reader.block_next.load(Ordering::Relaxed);
        if next == reader.block_end.load(Ordering::Relaxed) {
            next = self.tick.fetch_add(reader.block, Ordering::Relaxed);
            reader
                .block_end
                .store(next + reader.block, Ordering::Relaxed);
        }
        next += 1;
        reader.block_next.store(next, Ordering::Relaxed);
        next
    }

    /// Resident-miss slow path: re-check under the writer lock (the
    /// entry may have been republished concurrently), then try the cold
    /// store.
    fn miss_slow(&self, wid: Wid) -> Option<WorldEntry> {
        let mut st = self.lock_writer();
        if let Some(entry) = self.resident_lookup(wid, Some(self.unpinned_reader())) {
            return Some(entry);
        }
        self.refault_locked(&mut st, wid)
    }

    /// Faults a cold world back into the published tree.
    fn refault_locked(&self, st: &mut WriterState, wid: Wid) -> Option<WorldEntry> {
        let entry = st.cold.remove(wid.raw())?;
        self.publish_insert(st, entry);
        self.resident.fetch_add(1, Ordering::Relaxed);
        self.refaults.fetch_add(1, Ordering::Relaxed);
        self.refaults_unreported.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    // ---- write path (all under the writer mutex) -------------------

    /// Retires `garbage` at the epoch that follows a pointer swap.
    fn retire(&self, st: &mut WriterState, garbage: Garbage) {
        // fetch_add returns the pre-increment value; the tag is the
        // post-increment epoch, so "pinned >= tag" implies the reader
        // pinned after the swap that orphaned this structure.
        let tag = self.read.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        st.limbo.push(LimboItem {
            epoch: tag,
            garbage,
        });
        self.limbo_len
            .store(st.limbo.len() as u64, Ordering::Relaxed);
    }

    /// Swaps one bucket pointer and retires the old bucket.
    fn publish_bucket(&self, st: &mut WriterState, arr: &TableArray, wid: u64, bucket: Bucket) {
        let fresh = Box::into_raw(Box::new(bucket));
        let old = arr.bucket(wid).swap(fresh, Ordering::SeqCst);
        self.retire(st, Garbage::Bucket(old));
    }

    /// Copy-on-write insert of `entry`, growing the root first if the
    /// mean bucket occupancy would exceed [`MAX_AVG_BUCKET`].
    fn publish_insert(&self, st: &mut WriterState, entry: WorldEntry) {
        let resident = self.resident.load(Ordering::Relaxed) as usize;
        if resident + 1 > self.bucket_count() * MAX_AVG_BUCKET {
            self.grow(st);
        }
        let arr = unsafe { &*self.read.root.load(Ordering::SeqCst) };
        let old = unsafe { &*arr.bucket(entry.wid.raw()).load(Ordering::SeqCst) };
        let mut slots: Vec<Slot> = old.slots.iter().map(Slot::duplicate).collect();
        let at = slots
            .binary_search_by_key(&entry.wid.raw(), |s| s.entry.wid.raw())
            .expect_err("WIDs are never reused, so an insert never collides");
        slots.insert(at, Slot::new(entry, self.now()));
        self.publish_bucket(st, arr, entry.wid.raw(), Bucket { slots });
    }

    /// Copy-on-write removal. Returns false if `wid` was not resident.
    fn publish_remove(&self, st: &mut WriterState, wid: Wid) -> bool {
        let arr = unsafe { &*self.read.root.load(Ordering::SeqCst) };
        let old = unsafe { &*arr.bucket(wid.raw()).load(Ordering::SeqCst) };
        let Ok(at) = old
            .slots
            .binary_search_by_key(&wid.raw(), |s| s.entry.wid.raw())
        else {
            return false;
        };
        let slots: Vec<Slot> = old
            .slots
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != at)
            .map(|(_, s)| s.duplicate())
            .collect();
        self.publish_bucket(st, arr, wid.raw(), Bucket { slots });
        true
    }

    /// Doubles the root radix, rehashing every resident entry into a new
    /// array, and retires the old array and all its buckets.
    fn grow(&self, st: &mut WriterState) {
        let old_ptr = self.read.root.load(Ordering::SeqCst);
        let old = unsafe { &*old_ptr };
        let doubled = old.buckets.len() * 2;
        let fresh_ptr = TableArray::alloc(doubled);
        let fresh = unsafe { &*fresh_ptr };
        for bucket in &old.buckets {
            let bucket = unsafe { &*bucket.load(Ordering::SeqCst) };
            for slot in &bucket.slots {
                let target = fresh.bucket(slot.entry.wid.raw());
                let b = unsafe { &mut *target.load(Ordering::SeqCst) };
                b.slots.push(slot.duplicate());
            }
        }
        for bucket in &fresh.buckets {
            let b = unsafe { &mut *bucket.load(Ordering::SeqCst) };
            b.slots.sort_by_key(|s| s.entry.wid.raw());
        }
        let prev = self.read.root.swap(fresh_ptr, Ordering::SeqCst);
        debug_assert_eq!(prev, old_ptr);
        self.bucket_count.store(doubled, Ordering::SeqCst);
        for bucket in &old.buckets {
            let b = bucket.load(Ordering::SeqCst);
            self.retire(st, Garbage::Bucket(b));
        }
        self.retire(st, Garbage::Array(prev));
    }

    /// Registers a world and mints its WID, with the sequential table's
    /// exact semantics: re-registering an identical context replaces the
    /// old entry (old WID invalidated, quota slot transferred); otherwise
    /// the owning VM's quota is checked before the WID is minted.
    ///
    /// # Errors
    ///
    /// [`WorldError::QuotaExceeded`] if the owning VM is at its quota.
    pub fn create(&self, descriptor: WorldDescriptor) -> Result<Wid, WorldError> {
        let mut st = self.lock_writer();
        let replaced = st.by_context.get(&descriptor.context).copied();
        match replaced {
            Some(old) => {
                // The replaced entry may be resident or already demoted.
                if self.publish_remove(&mut st, old) {
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                } else {
                    st.cold.remove(old.raw()).expect("index and store agree");
                }
                st.owners.remove(&old.raw());
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
            None => {
                if let Some(vm) = descriptor.owner {
                    let count = st.per_vm.get(&vm).copied().unwrap_or(0);
                    if count >= self.quota {
                        return Err(WorldError::QuotaExceeded { quota: self.quota });
                    }
                    *st.per_vm.entry(vm).or_insert(0) += 1;
                }
            }
        }
        // Mint only after the quota check so refused registrations never
        // consume a WID.
        let wid = Wid::from_raw(st.next_wid);
        st.next_wid += 1;
        let entry = WorldEntry {
            present: true,
            wid,
            context: descriptor.context,
            entry_point: descriptor.entry_point,
        };
        self.publish_insert(&mut st, entry);
        st.by_context.insert(descriptor.context, wid);
        st.owners.insert(wid.raw(), descriptor.owner);
        self.live.fetch_add(1, Ordering::Relaxed);
        self.resident.fetch_add(1, Ordering::Relaxed);
        Ok(wid)
    }

    /// Deletes a world: unpublishes it (resident or cold) and appends
    /// the WID to the retire log for workers to pull at their next batch
    /// boundary. O(1) in the worker count — no broadcast.
    ///
    /// # Errors
    ///
    /// [`WorldError::InvalidWid`] if absent.
    pub fn delete(&self, wid: Wid) -> Result<(), WorldError> {
        let mut st = self.lock_writer();
        // Resolve the entry first — resident tree or cold store — so the
        // context index unlinks without any scan. Safe without a pin:
        // the writer lock excludes concurrent publication.
        let entry = self
            .resident_lookup(wid, None)
            .or_else(|| st.cold.get(wid.raw()))
            .ok_or(WorldError::InvalidWid { wid })?;
        if self.publish_remove(&mut st, wid) {
            self.resident.fetch_sub(1, Ordering::Relaxed);
        } else {
            st.cold.remove(wid.raw()).expect("entry resolved as cold");
        }
        // The context may have been rebound by a later replacement; only
        // unlink it if it still names this WID.
        if st.by_context.get(&entry.context) == Some(&wid) {
            st.by_context.remove(&entry.context);
        }
        if let Some(Some(vm)) = st.owners.remove(&wid.raw()) {
            if let Some(c) = st.per_vm.get_mut(&vm) {
                *c = c.saturating_sub(1);
            }
        }
        self.live.fetch_sub(1, Ordering::Relaxed);
        drop(st);
        // Publish the retirement for worker caches. Program order on the
        // deleting thread plus the ring's release/acquire hand-off means
        // any submission made after delete() returns is seen by a worker
        // only after this store — so the one-batch staleness bound holds.
        let mut log = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        log.push(wid);
        self.retired_len.store(log.len(), Ordering::Release);
        Ok(())
    }

    /// Looks up a world by context (registration-time path).
    pub fn lookup_context(&self, context: &WorldContext) -> Option<Wid> {
        self.lock_writer().by_context.get(context).copied()
    }

    /// Number of worlds owned by `vm`.
    pub fn world_count(&self, vm: VmId) -> usize {
        self.lock_writer().per_vm.get(&vm).copied().unwrap_or(0)
    }

    /// Live worlds (resident + cold) — a maintained atomic, not a walk.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    /// Whether no worlds are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- retire log ------------------------------------------------

    /// Current length of the retire log; a fresh worker (or a respawned
    /// one, whose caches are empty) starts its cursor here.
    pub fn retired_len(&self) -> usize {
        self.retired_len.load(Ordering::Acquire)
    }

    /// Appends retirements the caller has not seen yet to `into`,
    /// advancing its cursor. One atomic load when nothing is new; no
    /// allocation once `into` has grown to the largest pull.
    pub fn pull_retired(&self, cursor: &mut usize, into: &mut Vec<Wid>) {
        let len = self.retired_len.load(Ordering::Acquire);
        if *cursor >= len {
            return;
        }
        let log = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        into.extend_from_slice(&log[*cursor..]);
        *cursor = log.len();
    }

    // ---- maintenance -----------------------------------------------

    /// One incremental maintenance pass: recompute the eviction window
    /// from the reuse-distance histogram, sweep up to [`SWEEP_BUCKETS`]
    /// buckets demoting idle entries (only a bucket holding one is
    /// copied and republished), and free limbo structures whose grace
    /// period has elapsed. Non-blocking: if the writer lock is held, the
    /// pass is skipped (another thread is making progress).
    pub fn maintain(&self) -> MaintainOutcome {
        let Ok(mut st) = self.writer.try_lock() else {
            return MaintainOutcome::default();
        };
        self.writer_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.recompute_window();
        let evicted = self.sweep(&mut st);
        let reclaimed = self.reclaim(&mut st);
        self.pace.store(
            pace_interval(self.window.load(Ordering::Relaxed), self.bucket_count()),
            Ordering::Relaxed,
        );
        MaintainOutcome {
            evicted,
            reclaimed,
            refaults: self.refaults_unreported.swap(0, Ordering::Relaxed),
        }
    }

    /// [`EpochWorldTable::maintain`], paced by the access clock: runs a
    /// pass only once enough ticks of now have passed since the previous
    /// paced pass for the sweep to rotate through the whole table every
    /// `window / 8` ticks, i.e. every
    /// `window / 8 / ceil(buckets / SWEEP_BUCKETS)` ticks, as of the
    /// previous pass ([`MIN_WINDOW`] stands in while the window
    /// calibrates). An entry idle past the
    /// window is therefore demoted within `window + window / 8` ticks,
    /// and maintenance cost follows the lookup rate, not how often
    /// callers offer a pass. Of concurrent callers that find a pass due,
    /// one runs it.
    pub fn maintain_paced(&self) -> MaintainOutcome {
        let due = self.maintain_due.load(Ordering::Relaxed);
        // The ticks reserved bound now from above, so most offers end
        // here without reading any reader's slot.
        if self.tick.load(Ordering::Relaxed) < due {
            return MaintainOutcome::default();
        }
        let now = self.now();
        if now < due {
            return MaintainOutcome::default();
        }
        let next = now + self.pace.load(Ordering::Relaxed);
        if self
            .maintain_due
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return MaintainOutcome::default();
        }
        self.maintain()
    }

    /// Derives the eviction window from the log₂ reuse-distance
    /// histograms, summed over reader slots: 8× the p90 observed reuse
    /// distance, floored. Until enough samples accumulate the window
    /// stays `u64::MAX` (eviction off), so tiny runs never evict.
    fn recompute_window(&self) {
        // Every stamp is one reuse-distance sample.
        let samples = self.now();
        if !self.evicts || samples < MIN_WINDOW_SAMPLES {
            return;
        }
        let target = samples - samples / 10; // p90
        let mut cum = 0u64;
        for idx in 0..DIST_BUCKETS {
            cum += self
                .read
                .readers
                .iter()
                .map(|r| r.dist_hist[idx].load(Ordering::Relaxed))
                .sum::<u64>();
            if cum >= target {
                // Bucket idx covers distances < 2^idx; window = 8x that.
                let p90 = 1u64.checked_shl(idx as u32).unwrap_or(u64::MAX / 8);
                self.window
                    .store(p90.saturating_mul(8).max(MIN_WINDOW), Ordering::Relaxed);
                return;
            }
        }
    }

    /// Sweeps up to [`SWEEP_BUCKETS`] buckets, demoting entries idle
    /// longer than the window. Returns entries evicted.
    fn sweep(&self, st: &mut WriterState) -> u64 {
        let window = self.window.load(Ordering::Relaxed);
        if window == u64::MAX {
            return 0;
        }
        let now = self.now();
        let arr = unsafe { &*self.read.root.load(Ordering::SeqCst) };
        let buckets = arr.buckets.len();
        let mut evicted = 0u64;
        for _ in 0..SWEEP_BUCKETS.min(buckets) {
            let i = st.sweep_cursor % buckets;
            st.sweep_cursor = st.sweep_cursor.wrapping_add(1);
            let bucket = unsafe { &*arr.buckets[i].load(Ordering::SeqCst) };
            // Read-only pre-scan: almost every pass finds nothing idle,
            // and such a bucket stays exactly as published — no copy,
            // no swap, no retire.
            let idle_candidate = bucket
                .slots
                .iter()
                .any(|s| now.saturating_sub(s.last_access.load(Ordering::Relaxed)) > window);
            if !idle_candidate {
                continue;
            }
            // Partition with a single stamp read per slot: reading twice
            // could race a concurrent reader's stamp and land an entry in
            // both the kept bucket and the cold store. (A candidate the
            // pre-scan saw may have been stamped since; this read decides.)
            let mut keep: Vec<Slot> = Vec::with_capacity(bucket.slots.len());
            let mut demoted = 0u64;
            for slot in &bucket.slots {
                let idle = now.saturating_sub(slot.last_access.load(Ordering::Relaxed));
                if idle > window {
                    st.cold.insert(slot.entry);
                    demoted += 1;
                } else {
                    keep.push(slot.duplicate());
                }
            }
            if demoted == 0 {
                continue;
            }
            let fresh = Box::into_raw(Box::new(Bucket { slots: keep }));
            let old = arr.buckets[i].swap(fresh, Ordering::SeqCst);
            self.retire(st, Garbage::Bucket(old));
            evicted += demoted;
        }
        if evicted > 0 {
            self.resident.fetch_sub(evicted, Ordering::Relaxed);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Frees limbo structures whose grace period has elapsed: a retired
    /// structure tagged `t` is freeable once every reader's pin is
    /// quiescent or holds an epoch `>= t`.
    fn reclaim(&self, st: &mut WriterState) -> u64 {
        if st.limbo.is_empty() {
            return 0;
        }
        let safe_before = self
            .read
            .readers
            .iter()
            .map(|r| r.pin.load(Ordering::SeqCst))
            .filter(|&v| v != QUIESCENT)
            .min()
            .unwrap_or(u64::MAX);
        let mut freed = 0u64;
        st.limbo.retain(|item| {
            if item.epoch <= safe_before {
                unsafe {
                    match item.garbage {
                        Garbage::Bucket(b) => drop(Box::from_raw(b)),
                        Garbage::Array(a) => drop(Box::from_raw(a)),
                    }
                }
                freed += 1;
                false
            } else {
                true
            }
        });
        self.limbo_len
            .store(st.limbo.len() as u64, Ordering::Relaxed);
        if freed > 0 {
            self.reclaims.fetch_add(freed, Ordering::Relaxed);
        }
        freed
    }

    // ---- reporting -------------------------------------------------

    /// Point-in-time health snapshot.
    pub fn health(&self) -> TableHealth {
        let window = self.window.load(Ordering::Relaxed);
        TableHealth {
            live: self.live.load(Ordering::Relaxed),
            resident: self.resident.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            refaults: self.refaults.load(Ordering::Relaxed),
            grace_reclaims: self.reclaims.load(Ordering::Relaxed),
            retired_pending: self.limbo_len.load(Ordering::Relaxed),
            eviction_window: if window == u64::MAX { 0 } else { window },
            cold_bytes: self.cold_bytes() as u64,
            lookups: self
                .read
                .readers
                .iter()
                .map(|r| r.lookups.load(Ordering::Relaxed))
                .sum(),
            writer_acquisitions: self.writer_acquisitions.load(Ordering::Relaxed),
            writer_contended: self.writer_contended.load(Ordering::Relaxed),
        }
    }

    /// Cold-store footprint in bytes.
    pub fn cold_bytes(&self) -> usize {
        self.lock_writer().cold.bytes()
    }

    /// Worlds currently demoted to the cold store.
    pub fn cold_count(&self) -> usize {
        self.lock_writer().cold.len()
    }

    /// Entries resident in the published tree.
    pub fn resident_count(&self) -> usize {
        self.resident.load(Ordering::Relaxed) as usize
    }
}

impl Drop for EpochWorldTable {
    fn drop(&mut self) {
        let st = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        for item in st.limbo.drain(..) {
            unsafe {
                match item.garbage {
                    Garbage::Bucket(b) => drop(Box::from_raw(b)),
                    Garbage::Array(a) => drop(Box::from_raw(a)),
                }
            }
        }
        let root = self.read.root.swap(ptr::null_mut(), Ordering::SeqCst);
        if !root.is_null() {
            unsafe {
                let arr = Box::from_raw(root);
                for bucket in &arr.buckets {
                    let b = bucket.swap(ptr::null_mut(), Ordering::SeqCst);
                    if !b.is_null() {
                        drop(Box::from_raw(b));
                    }
                }
            }
        }
    }
}

impl WorldLookup for EpochWorldTable {
    fn entry_of(&self, wid: Wid) -> Option<WorldEntry> {
        self.lookup(wid)
    }

    fn wid_of(&self, context: &WorldContext) -> Option<Wid> {
        self.lookup_context(context)
    }
}

/// A worker's view of the world table: WID lookups go through the
/// worker's reader slot (wait-free); an unpinned view falls back to the
/// writer-locked [`EpochWorldTable::lookup`].
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    table: &'a EpochWorldTable,
    slot: Option<usize>,
}

impl<'a> TableView<'a> {
    /// A view bound to worker `slot`'s reader slot. The view's thread
    /// must be the only one looking up through `slot` (see
    /// [`EpochWorldTable::lookup_pinned`]), and `slot` must be below
    /// [`EpochWorldTable::worker_slots`].
    pub fn for_worker(table: &'a EpochWorldTable, slot: usize) -> TableView<'a> {
        TableView {
            table,
            slot: Some(slot),
        }
    }

    /// An unpinned view (external callers, tests).
    pub fn unpinned(table: &'a EpochWorldTable) -> TableView<'a> {
        TableView { table, slot: None }
    }
}

impl WorldLookup for TableView<'_> {
    fn entry_of(&self, wid: Wid) -> Option<WorldEntry> {
        match self.slot {
            Some(slot) => self.table.lookup_pinned(slot, wid),
            None => self.table.lookup(wid),
        }
    }

    fn wid_of(&self, context: &WorldContext) -> Option<Wid> {
        self.table.lookup_context(context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn host(cr3: u64) -> WorldDescriptor {
        WorldDescriptor::host_user(cr3, 0xE000)
    }

    #[test]
    fn wids_are_monotonic_and_lookups_resolve() {
        let t = EpochWorldTable::new(2, 16);
        let mut last = 0;
        for i in 0..200 {
            let wid = t.create(host(0x1000 * (i + 1))).unwrap();
            assert!(wid.raw() > last);
            last = wid.raw();
        }
        assert_eq!(t.len(), 200);
        for raw in 1..=200u64 {
            let e = t.lookup_pinned(0, Wid::from_raw(raw)).unwrap();
            assert_eq!(e.wid.raw(), raw);
            assert!(e.present);
        }
        assert!(t.lookup_pinned(0, Wid::from_raw(999)).is_none());
    }

    #[test]
    fn replacement_invalidates_old_wid() {
        let t = EpochWorldTable::new(1, 16);
        let old = t.create(host(0x1000)).unwrap();
        let new = t.create(host(0x1000)).unwrap();
        assert_ne!(old, new);
        assert!(t.lookup(old).is_none());
        assert!(t.lookup(new).is_some());
        assert_eq!(t.lookup_context(&host(0x1000).context), Some(new));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_logs_retirement_without_broadcast() {
        let t = EpochWorldTable::new(4, 16);
        let a = t.create(host(0x1000)).unwrap();
        let b = t.create(host(0x2000)).unwrap();
        assert_eq!(t.retired_len(), 0);
        t.delete(a).unwrap();
        assert!(t.lookup(a).is_none());
        assert!(t.lookup(b).is_some());
        let mut cursor = 0;
        let mut pulled = Vec::new();
        t.pull_retired(&mut cursor, &mut pulled);
        assert_eq!(pulled, vec![a]);
        t.pull_retired(&mut cursor, &mut pulled);
        assert_eq!(pulled, vec![a], "a drained cursor appends nothing");
        // A second worker with its own cursor sees the same log.
        let mut other = 0;
        let mut theirs = Vec::new();
        t.pull_retired(&mut other, &mut theirs);
        assert_eq!(theirs, vec![a]);
        assert_eq!(
            t.delete(a),
            Err(WorldError::InvalidWid { wid: a }),
            "double delete errors"
        );
    }

    #[test]
    fn quota_enforced_at_registration_and_released_on_delete() {
        use hypervisor::platform::Platform;
        use hypervisor::vm::VmConfig;
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        let t = EpochWorldTable::new(2, 2);
        let d = |cr3| WorldDescriptor::guest_user(&p, vm, cr3, 0).unwrap();
        let first = t.create(d(0x1000)).unwrap();
        t.create(d(0x2000)).unwrap();
        assert_eq!(
            t.create(d(0x3000)),
            Err(WorldError::QuotaExceeded { quota: 2 })
        );
        assert_eq!(t.world_count(vm), 2);
        // Refusal minted nothing.
        let host_wid = t.create(host(0x9000)).unwrap();
        assert_eq!(host_wid.raw(), first.raw() + 2);
        t.delete(first).unwrap();
        assert!(t.create(d(0x3000)).is_ok());
    }

    #[test]
    fn grow_keeps_every_entry_resolvable() {
        let t = EpochWorldTable::new(1, 16);
        let initial_buckets = t.bucket_count();
        let n = (initial_buckets * MAX_AVG_BUCKET * 2) as u64;
        for i in 0..n {
            t.create(host(0x1000 + i * 8)).unwrap();
        }
        assert!(t.bucket_count() > initial_buckets, "root should have grown");
        // The mirror tracks the published root through every grow.
        let published = {
            let _writer = t.lock_writer();
            // SAFETY: the writer lock is held, and every grow and
            // reclaim holds it, so the published root cannot be retired
            // or freed while it is read here.
            unsafe { &*t.read.root.load(Ordering::SeqCst) }
                .buckets
                .len()
        };
        assert_eq!(t.bucket_count(), published);
        for raw in 1..=n {
            assert!(t.lookup_pinned(0, Wid::from_raw(raw)).is_some());
        }
    }

    #[test]
    fn eviction_demotes_idle_worlds_and_refaults_them() {
        let t = EpochWorldTable::new(1, 16);
        let cold_wid = t.create(host(0x9_0000)).unwrap();
        let hot: Vec<Wid> = (0..8)
            .map(|i| t.create(host(0x1000 + i * 8)).unwrap())
            .collect();
        // Drive enough lookups on the hot set to calibrate the window,
        // then push the tick far past it while the cold world idles.
        for round in 0..(MIN_WINDOW * 3) {
            let wid = hot[(round % 8) as usize];
            assert!(t.lookup_pinned(0, wid).is_some());
        }
        let mut evicted = 0;
        for _ in 0..64 {
            evicted += t.maintain().evicted;
            if evicted > 0 {
                break;
            }
        }
        assert!(evicted >= 1, "idle world should be demoted");
        let h = t.health();
        assert!(h.evictions >= 1);
        assert_eq!(h.live, 9, "eviction does not delete");
        assert!(h.resident < h.live);
        assert!(h.cold_bytes > 0);
        // Refault: the cold world resolves transparently on next lookup.
        let back = t.lookup_pinned(0, cold_wid).unwrap();
        assert_eq!(back.wid, cold_wid);
        assert_eq!(back.context.ptp, 0x9_0000);
        assert!(back.present);
        assert!(t.health().refaults >= 1);
        // And a deleted cold world releases cleanly too.
        t.delete(cold_wid).unwrap();
        assert!(t.lookup(cold_wid).is_none());
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn maintain_with_nothing_idle_publishes_nothing() {
        let t = EpochWorldTable::new(1, 1024);
        let wids: Vec<Wid> = (0..256)
            .map(|i| t.create(host(0x1000 + i * 8)).unwrap())
            .collect();
        // Round-robin lookups calibrate the window and re-stamp every
        // entry each 256 ticks, far inside it.
        for round in 0..(MIN_WINDOW * 2) as usize {
            t.lookup_pinned(0, wids[round % wids.len()]).unwrap();
        }
        t.maintain(); // derives the window, frees registration garbage
        assert!(
            t.window.load(Ordering::Relaxed) < u64::MAX,
            "the sweep runs"
        );
        assert!(
            t.bucket_count() <= SWEEP_BUCKETS,
            "one pass sees every bucket"
        );
        let published = |t: &EpochWorldTable| {
            let root = t.read.root.load(Ordering::SeqCst);
            let buckets: Vec<*mut Bucket> = unsafe { &*root }
                .buckets
                .iter()
                .map(|b| b.load(Ordering::SeqCst))
                .collect();
            (root, buckets)
        };
        let before = (
            published(&t),
            t.read.epoch.load(Ordering::SeqCst),
            t.health(),
        );
        assert_eq!(t.maintain(), MaintainOutcome::default());
        let after = (
            published(&t),
            t.read.epoch.load(Ordering::SeqCst),
            t.health(),
        );
        assert_eq!(after.0, before.0, "same root and bucket addresses");
        assert_eq!(after.1, before.1, "no retire bumped the epoch");
        assert_eq!(after.2.retired_pending, before.2.retired_pending);
        assert_eq!(after.2.grace_reclaims, before.2.grace_reclaims);
        assert_eq!(after.2.evictions, 0);
    }

    #[test]
    fn paced_maintenance_waits_its_interval_and_demotes_in_time() {
        let t = EpochWorldTable::new(1, 1024);
        let cold = t.create(host(0x9_0000)).unwrap();
        let hot: Vec<Wid> = (0..8)
            .map(|i| t.create(host(0x1000 + i * 8)).unwrap())
            .collect();
        // A worker batch: one lookup (one tick), then the offered pass.
        let mut i = 0usize;
        let mut batch = || {
            t.lookup_pinned(0, hot[i % hot.len()]).unwrap();
            i += 1;
            t.maintain_paced()
        };
        let passes = || t.writer_acquisitions.load(Ordering::Relaxed);
        for _ in 0..2 * MIN_WINDOW_SAMPLES {
            batch();
        }
        let window = t.window.load(Ordering::Relaxed);
        assert!((MIN_WINDOW..u64::MAX).contains(&window), "calibrated");
        let interval = window / 8 / t.bucket_count().div_ceil(SWEEP_BUCKETS) as u64;
        // The cold world's last access; it is idle from here on.
        t.lookup_pinned(0, cold).unwrap();
        let last = t.now();
        // Offers are no-ops until `interval` ticks follow a pass.
        let seen = passes();
        while passes() == seen {
            batch();
        }
        let ran = passes();
        for _ in 1..interval {
            batch();
        }
        for _ in 0..16 {
            t.maintain_paced(); // no lookups in between: no ticks
        }
        assert_eq!(passes(), ran, "no pass before the interval elapses");
        batch();
        assert_eq!(passes(), ran + 1, "the interval's last tick runs a pass");
        // Worker-driven lookups alone still demote the idle world within
        // window + window / 8 ticks of its last access.
        while t.evictions.load(Ordering::Relaxed) == 0 {
            batch();
            let idle = t.now() - last;
            assert!(
                idle <= window + window / 8,
                "not demoted after {idle} ticks"
            );
        }
        assert_eq!(
            t.window.load(Ordering::Relaxed),
            window,
            "window held steady"
        );
        assert_eq!(t.cold_count(), 1);
        assert_eq!(t.lookup_pinned(0, cold).unwrap().wid, cold, "refaults");
    }

    #[test]
    fn delete_of_cold_world_releases_quota() {
        use hypervisor::platform::Platform;
        use hypervisor::vm::VmConfig;
        let mut p = Platform::new_default();
        let vm = p.create_vm(VmConfig::default()).unwrap();
        let t = EpochWorldTable::new(1, 1);
        let d = |cr3| WorldDescriptor::guest_user(&p, vm, cr3, 0).unwrap();
        let guest = t.create(d(0x5000)).unwrap();
        let hot = t.create(host(0x1000)).unwrap();
        for _ in 0..(MIN_WINDOW * 3) {
            t.lookup_pinned(0, hot).unwrap();
        }
        let mut evicted = 0;
        for _ in 0..64 {
            evicted += t.maintain().evicted;
        }
        assert!(evicted >= 1);
        assert!(t.create(d(0x6000)).is_err(), "quota still held while cold");
        t.delete(guest).unwrap();
        assert!(t.create(d(0x6000)).is_ok(), "cold delete released quota");
    }

    #[test]
    fn pinned_reader_blocks_reclaim_until_quiescent() {
        let t = EpochWorldTable::new(2, 16);
        t.create(host(0x1000)).unwrap();
        // Pin slot 1 at the current epoch by hand (simulating a reader
        // parked mid-lookup), then force a publication.
        t.read.readers[1]
            .pin
            .store(t.read.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        t.create(host(0x2000)).unwrap(); // swaps a bucket, retires the old one
        let before = t.health().retired_pending;
        assert!(before > 0);
        let freed = t.maintain().reclaimed;
        // The pinned slot predates the retirement epoch, so at least the
        // newest garbage must survive.
        assert!(
            t.health().retired_pending > 0,
            "pinned reader must hold back the newest garbage (freed={freed})"
        );
        // Unpin: everything reclaims.
        t.read.readers[1].pin.store(QUIESCENT, Ordering::SeqCst);
        t.maintain();
        assert_eq!(t.health().retired_pending, 0);
        assert!(t.health().grace_reclaims >= before);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        // Eviction stays out of this table: once the readers' lookups
        // calibrate a window, maintenance would demote the never-read
        // churn and could hold `resident` under the growth threshold,
        // making the root-grow precondition depend on thread timing.
        let t = Arc::new(EpochWorldTable::without_eviction(4, 64));
        let seed: Vec<Wid> = (0..64)
            .map(|i| t.create(host(0x10_0000 + i * 8)).unwrap())
            .collect();
        let before = t.bucket_count();
        // Enough churn to cross the growth threshold on its own.
        let churn = (before * MAX_AVG_BUCKET) as u64 + 1_000;
        let mut handles = Vec::new();
        for slot in 0..3usize {
            let t = Arc::clone(&t);
            let seed = seed.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..20_000usize {
                    let wid = seed[(round * 7 + slot) % seed.len()];
                    let e = t
                        .lookup_pinned(slot, wid)
                        .expect("a live world always resolves, resident or cold");
                    assert_eq!(e.wid, wid, "lookup must never return a foreign entry");
                }
            }));
        }
        // Writer thread: churn registrations (enough to force a root
        // grow) plus maintenance, concurrently with the readers.
        {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..churn {
                    t.create(host(0x90_0000 + i * 8)).unwrap();
                    if i % 16 == 0 {
                        t.maintain();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.maintain();
        assert_eq!(t.len(), 64 + churn as usize);
        assert_eq!(t.health().evictions, 0);
        assert!(t.bucket_count() > before, "root should have grown");
    }

    #[test]
    fn pinned_and_unpinned_views_agree() {
        let t = EpochWorldTable::new(4, 16);
        let a = t.create(host(0x1000)).unwrap();
        let b = t.create(host(0x2000)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(a).unwrap().wid, a);
        assert_eq!(t.lookup_context(&host(0x2000).context), Some(b));
        t.delete(a).unwrap();
        assert!(t.lookup(a).is_none());
        assert_eq!(t.len(), 1);
        for view in [TableView::for_worker(&t, 2), TableView::unpinned(&t)] {
            assert_eq!(view.entry_of(b).unwrap().wid, b);
            assert!(view.entry_of(a).is_none());
            assert_eq!(view.wid_of(&host(0x2000).context), Some(b));
        }
        let h = t.health();
        assert_eq!(h.live, 1);
        assert_eq!(h.resident, 1);
        assert!(h.lookups >= 6, "every view lookup is counted");
        assert!(h.writer_acquisitions > 0);
    }

    #[test]
    fn packed_entry_round_trips() {
        use machine::mode::{Operation, Ring};
        for (op, ring) in [
            (Operation::Root, Ring::Ring0),
            (Operation::Root, Ring::Ring3),
            (Operation::NonRoot, Ring::Ring0),
            (Operation::NonRoot, Ring::Ring1),
            (Operation::NonRoot, Ring::Ring2),
            (Operation::NonRoot, Ring::Ring3),
        ] {
            let entry = WorldEntry {
                present: true,
                wid: Wid::from_raw(0xDEAD_BEEF_0BAD_F00D),
                context: WorldContext {
                    operation: op,
                    ring,
                    eptp: 0x7777_0000,
                    ptp: 0x1234_5000,
                },
                entry_point: 0xFFFF_8000_0000_1000,
            };
            assert_eq!(WorldEntry::unpack(&entry.pack()), entry);
        }
    }

    #[test]
    #[should_panic(expected = "at least one reader slot")]
    fn zero_slots_panics() {
        EpochWorldTable::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "is not a worker slot")]
    fn pinned_lookup_through_the_unpinned_slot_panics() {
        let t = EpochWorldTable::new(2, 4);
        let wid = t.create(host(0x1000)).unwrap();
        t.lookup_pinned(t.worker_slots(), wid);
    }

    /// The eviction policy driven by one global tick, taken with a
    /// `fetch_add(1)` per stamping lookup: the reference a single
    /// reader's tick blocks must reproduce decision for decision. One
    /// pass sweeps the whole table, so the schedule below keeps the
    /// table at most [`SWEEP_BUCKETS`] buckets wide.
    struct GlobalTickModel {
        tick: u64,
        /// Resident worlds and their last-access stamps.
        stamps: HashMap<u64, u64>,
        cold: std::collections::HashSet<u64>,
        hist: [u64; DIST_BUCKETS],
        window: u64,
        due: u64,
        pace: u64,
        buckets: usize,
    }

    impl GlobalTickModel {
        fn new(buckets: usize) -> GlobalTickModel {
            GlobalTickModel {
                tick: 0,
                stamps: HashMap::new(),
                cold: Default::default(),
                hist: [0; DIST_BUCKETS],
                window: u64::MAX,
                due: 0,
                pace: pace_interval(u64::MAX, buckets),
                buckets,
            }
        }

        fn register(&mut self, wid: Wid) {
            self.stamps.insert(wid.raw(), self.tick);
        }

        /// Looks `wid` up; returns whether it refaulted.
        fn lookup(&mut self, wid: Wid) -> bool {
            match self.stamps.get_mut(&wid.raw()) {
                Some(prev) => {
                    self.tick += 1;
                    let dist = self.tick.saturating_sub(*prev);
                    *prev = self.tick;
                    self.hist[(64 - dist.leading_zeros()) as usize] += 1;
                    false
                }
                None => {
                    assert!(self.cold.remove(&wid.raw()), "{wid} is live");
                    self.stamps.insert(wid.raw(), self.tick);
                    true
                }
            }
        }

        /// A paced pass: `None` when none is due, else the count demoted.
        fn maintain_paced(&mut self) -> Option<u64> {
            if self.tick < self.due {
                return None;
            }
            self.due = self.tick + self.pace;
            let samples = self.tick;
            if samples >= MIN_WINDOW_SAMPLES {
                let target = samples - samples / 10;
                let mut cum = 0;
                for (idx, n) in self.hist.iter().enumerate() {
                    cum += n;
                    if cum >= target {
                        self.window = (8u64 << idx).max(MIN_WINDOW);
                        break;
                    }
                }
            }
            let (tick, window) = (self.tick, self.window);
            let idle: Vec<u64> = self
                .stamps
                .iter()
                .filter(|&(_, &stamp)| window != u64::MAX && tick - stamp > window)
                .map(|(&wid, _)| wid)
                .collect();
            for wid in &idle {
                self.stamps.remove(wid);
                self.cold.insert(*wid);
            }
            self.pace = pace_interval(self.window, self.buckets);
            Some(idle.len() as u64)
        }
    }

    #[test]
    fn one_reader_demotes_and_refaults_exactly_as_one_global_tick() {
        let t = EpochWorldTable::new(1, 1 << 16);
        let mut model = GlobalTickModel::new(t.bucket_count());
        let mut rng = machine::rng::SplitMix64::new(0x7EC5);
        let mut wids = Vec::new();
        fn register(t: &EpochWorldTable, model: &mut GlobalTickModel, wids: &mut Vec<Wid>) {
            let wid = t.create(host(0x1000 * (wids.len() as u64 + 1))).unwrap();
            model.register(wid);
            wids.push(wid);
        }
        for _ in 0..512 {
            register(&t, &mut model, &mut wids);
        }
        let (mut evicted, mut refaulted) = (0, 0);
        for step in 0..60_000 {
            if rng.chance(0.002) && wids.len() < 1024 {
                register(&t, &mut model, &mut wids);
            } else {
                // A hot set of 16 takes 95% of lookups; the tail idles
                // past the window, is demoted and refaults.
                let span = if rng.chance(0.95) { 16 } else { wids.len() };
                let wid = wids[rng.below(span as u64) as usize];
                let before = t.health().refaults;
                assert_eq!(t.lookup_pinned(0, wid).unwrap().wid, wid);
                let refault = t.health().refaults > before;
                assert_eq!(refault, model.lookup(wid), "step {step}: {wid}");
                refaulted += u64::from(refault);
            }
            assert_eq!(t.now(), model.tick, "step {step}: now");
            let outcome = t.maintain_paced();
            match model.maintain_paced() {
                None => assert_eq!(outcome, MaintainOutcome::default(), "step {step}"),
                Some(demoted) => {
                    assert_eq!(outcome.evicted, demoted, "step {step}: demoted");
                    evicted += demoted;
                    let cold: std::collections::HashSet<u64> =
                        t.lock_writer().cold.index.keys().copied().collect();
                    assert_eq!(cold, model.cold, "step {step}: the cold set");
                }
            }
        }
        assert!(t.bucket_count() <= SWEEP_BUCKETS, "one pass sweeps all");
        assert_eq!(t.window.load(Ordering::Relaxed), model.window);
        assert!(evicted > 100 && refaulted > 100, "{evicted} {refaulted}");
    }

    #[test]
    fn concurrent_readers_account_every_lookup_and_tick() {
        const READERS: usize = 3;
        const LOOKUPS: u64 = 20_000;
        let t = EpochWorldTable::new(READERS, 1 << 16);
        let wids: Vec<Wid> = (0..64)
            .map(|i| t.create(host(0x1000 * (i + 1))).unwrap())
            .collect();
        // Every tenth lookup names a world that was never registered: it
        // counts as a lookup and stamps nothing.
        let hits_per_reader = LOOKUPS - LOOKUPS / 10;
        std::thread::scope(|s| {
            for slot in 0..READERS {
                let (t, wids) = (&t, &wids);
                s.spawn(move || {
                    for i in 0..LOOKUPS {
                        if i % 10 == 9 {
                            assert!(t.lookup_pinned(slot, Wid::from_raw(1 << 40)).is_none());
                        } else {
                            let wid = wids[(i as usize * 7 + slot) % wids.len()];
                            assert_eq!(t.lookup_pinned(slot, wid).unwrap().wid, wid);
                        }
                    }
                });
            }
        });
        assert_eq!(t.health().lookups, READERS as u64 * LOOKUPS);
        let hits = READERS as u64 * hits_per_reader;
        for (slot, reader) in t.read.readers.iter().enumerate() {
            let stamped = if slot < READERS { hits_per_reader } else { 0 };
            assert_eq!(
                reader.stamps.load(Ordering::Relaxed),
                stamped,
                "slot {slot}"
            );
            let samples: u64 = reader
                .dist_hist
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .sum();
            assert_eq!(samples, stamped, "slot {slot}: one sample per stamp");
        }
        assert_eq!(t.now(), hits, "now is the ticks issued");
        // What the clock reserved beyond now is the readers' unspent
        // block remainders.
        let reserved = t.tick.load(Ordering::Relaxed);
        assert!(
            reserved >= hits && reserved - hits < READERS as u64 * TICK_BLOCK,
            "reserved {reserved}, issued {hits}"
        );
    }

    #[test]
    fn reader_slots_and_read_side_words_own_their_lines() {
        assert!(std::mem::align_of::<ReaderSlot>() >= 128);
        assert!(std::mem::align_of::<ReadSide>() >= 128);
        let t = EpochWorldTable::new(4, 16);
        // Inclusive range of the 128-byte blocks a value occupies.
        fn blocks<T>(value: &T) -> (usize, usize) {
            let at = value as *const T as usize;
            (at / 128, (at + std::mem::size_of::<T>() - 1) / 128)
        }
        let mut spans = vec![blocks(&t.read)];
        spans.extend(t.read.readers.iter().map(blocks));
        assert_eq!(spans.len(), t.worker_slots() + 2);
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                assert!(a.1 < b.0 || b.1 < a.0, "{a:?} and {b:?} share a block");
            }
        }
    }
}
