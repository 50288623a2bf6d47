//! Workloads for the CrossOver evaluation.
//!
//! Everything the paper's §7 measures, as runnable workload generators:
//!
//! * [`micro`] — the five lmbench-style microbenchmarks of Table 4 (NULL
//!   syscall, NULL I/O, open & close, stat, pipe), runnable natively or
//!   through any redirection target.
//! * [`lmbench`] — the instruction-count experiment of Table 7 (getppid,
//!   stat, read, write, fstat, open/close under native / CrossOver /
//!   hypervisor redirection).
//! * [`utilities`] — the six utility-tool traces of Table 5 (pstree, w,
//!   grep, users, uptime, ls) with realistic syscall mixes.
//! * [`openssh`] — the split-execution OpenSSH/scp throughput model of
//!   Table 6.
//! * [`openloop`] — open-loop arrival processes (Poisson and bursty
//!   ON/OFF over a Zipf callee popularity law) for driving the async
//!   tenant gateway past saturation.
//! * [`shifting_hotspot`] — a Zipf popularity law whose hot callee set
//!   rotates on a seeded virtual-time schedule, for exercising the
//!   switchless controller's re-convergence and trace-driven prefill.
//! * [`adversary`] — seeded adversarial-tenant schedules (forged and
//!   replayed WIDs, quota and channel floods, confused-deputy chains,
//!   WT/IWT set probes) for exercising the callee authorization plane.

pub mod adversary;
pub mod lmbench;
pub mod micro;
pub mod openloop;
pub mod openssh;
pub mod shifting_hotspot;
pub mod utilities;

pub use micro::{MicroOp, RedirectTarget};

/// Cycles charged for lmbench's user-side stub around each measured
/// syscall (loop counter, argument setup).
pub const USER_STUB_CYCLES: u64 = 30;
/// Instructions for the user-side stub (part of Table 7's native counts).
pub const USER_STUB_INSTRUCTIONS: u64 = 40;
