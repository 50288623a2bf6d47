//! Host speed reference.
//!
//! The host this benchmark runs on is shared: other processes change how
//! fast it executes, by tens of percent over seconds to minutes, far
//! beyond what a host-time regression bound can absorb. A fixed
//! reference loop timed beside every repetition measures that speed,
//! and the host-time metrics are scaled to a host where the loop takes
//! [`NOMINAL_NS_PER_ITER`] per iteration: a slowdown that hits the
//! program and the loop alike cancels, one that hits only the program
//! (a regression) shows.

use std::hint::black_box;
use std::time::Instant;

/// Iterations per reference measurement (a few milliseconds).
const ITERS: u64 = 3_000_000;
/// Reference-loop speed the scaled metrics are expressed at: roughly
/// an unloaded 2-vCPU x86-64 cloud host.
pub const NOMINAL_NS_PER_ITER: f64 = 1.4;

/// Times the reference loop on `threads` threads at once (as many as
/// the workload keeps busy, so every core it uses is measured) and
/// returns their mean ns per iteration.
pub fn reference_ns_per_iter(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(loop_ns_per_iter)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference loop thread"))
            .sum()
    });
    total / threads as f64
}

/// One thread's reference loop: a multiply-add chain whose results land
/// at pseudo-random slots of a 512 KiB table, so it exercises the ALUs
/// and the private caches much as the simulator's table walks do.
/// Returns ns per iteration.
fn loop_ns_per_iter() -> f64 {
    let mut table = vec![0u64; 1 << 16];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for i in 0..ITERS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let slot = (x >> 48) as usize;
        table[slot] = table[slot].wrapping_add(x);
    }
    black_box(&table);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// A stopwatch whose reading is scaled to the nominal host speed, with
/// the reference loop timed right before it starts and right after it
/// stops (outside the measured interval).
pub struct Stopwatch {
    threads: usize,
    ref_before: f64,
    start: Instant,
}

impl Stopwatch {
    /// Times the reference on `threads` threads, then starts.
    pub fn start(threads: usize) -> Stopwatch {
        let ref_before = reference_ns_per_iter(threads);
        Stopwatch {
            threads,
            ref_before,
            start: Instant::now(),
        }
    }

    /// Stops; returns the elapsed ns and the factor that scales host
    /// times measured in between to the nominal speed.
    pub fn stop(self) -> (f64, f64) {
        let raw_ns = self.start.elapsed().as_nanos() as f64;
        let ref_ns = (self.ref_before + reference_ns_per_iter(self.threads)) / 2.0;
        (raw_ns, NOMINAL_NS_PER_ITER / ref_ns)
    }
}
