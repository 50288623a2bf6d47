//! `paper_micro`: the paper's Table 4 on the single-vCPU platform.
//!
//! Five micro-ops run natively in a guest and redirected through
//! Proxos, HyperShell, Tahoma and ShadowContext, each in its original
//! and its optimized (CrossOver) form: 45 cells. A repetition runs a
//! seed-shuffled schedule of batches that gives every cell the same
//! number of ops; each batch builds a fresh environment for its column
//! (the set-up) and runs its ops there. The first op of a batch warms
//! the environment; every later op of a cell must cost exactly the same
//! simulated cycles.
//!
//! The native column is what the cost model was calibrated against; the
//! 40 redirected cells are the held-out check, scored against the
//! paper's own numbers as `paper.err_pct`.

use std::time::Instant;

use machine::account::Delta;
use machine::cost::Frequency;
use machine::rng::SplitMix64;
use machine::trace::TransitionKind;
use systems::env::CrossVmEnv;
use systems::hypershell::HyperShell;
use systems::proxos::Proxos;
use systems::shadowcontext::ShadowContext;
use systems::tahoma::Tahoma;
use systems::SystemError;
use workloads::micro::{run_native, run_redirected, MicroOp, RedirectTarget};

use crate::alloc::{allocs_so_far, Phase};
use crate::metrics::{HostCost, Rep, HZ};
use crate::spans::Spans;
use crate::speed::Stopwatch;
use crate::stats::Latency;
use crate::Workload;

const FREQ: Frequency = Frequency::GHZ_3_4;

/// The paper's Table 4, in microseconds: per op, (original, optimized)
/// for Proxos, HyperShell, Tahoma and ShadowContext.
const TABLE4_US: [[(f64, f64); 4]; 5] = [
    // NULL system call
    [(3.35, 0.42), (2.60, 0.72), (42.0, 0.68), (3.40, 0.71)],
    // NULL I/O
    [(2.44, 0.50), (2.57, 0.80), (42.6, 0.72), (3.67, 0.79)],
    // open & close
    [(8.18, 1.91), (6.03, 2.29), (89.1, 2.21), (7.52, 2.26)],
    // stat
    [(4.31, 0.69), (2.87, 0.98), (43.5, 0.94), (3.69, 0.99)],
    // pipe
    [(15.79, 4.73), (13.1, 4.99), (172.6, 4.95), (17.10, 5.02)],
];

/// Columns: native, then (orig, opt) per system in [`TABLE4_US`] order.
const COLUMNS: usize = 9;
const CELLS: usize = COLUMNS * MicroOp::ALL.len();
/// Ops a scheduled batch runs back to back on one fresh environment.
const BATCH: usize = 16;
/// Batches per cell per repetition.
const BATCHES_PER_CELL: usize = 8;

/// Transitions that switch worlds: ring crossings, VM exits/entries,
/// EPTP switches and CrossOver world calls/returns.
const SWITCHES: [TransitionKind; 7] = [
    TransitionKind::SyscallEnter,
    TransitionKind::SyscallExit,
    TransitionKind::VmExit,
    TransitionKind::VmEntry,
    TransitionKind::Vmfunc,
    TransitionKind::WorldCall,
    TransitionKind::WorldReturn,
];

fn switches(env: &CrossVmEnv) -> u64 {
    let trace = env.platform.cpu().trace();
    SWITCHES.iter().map(|&k| trace.count(k)).sum()
}

/// The environment of one column: a guest for the native column, one
/// of the four systems (original or optimized) for the others.
enum ColumnEnv {
    Native(CrossVmEnv),
    Proxos(Proxos),
    HyperShell(HyperShell),
    Tahoma(Tahoma),
    Shadow(ShadowContext),
}

impl ColumnEnv {
    fn new(col: usize) -> Result<ColumnEnv, SystemError> {
        let orig = col % 2 == 1;
        Ok(match col {
            0 => ColumnEnv::Native(CrossVmEnv::new("native", "peer")?),
            1 | 2 if orig => ColumnEnv::Proxos(Proxos::baseline()?),
            1 | 2 => ColumnEnv::Proxos(Proxos::optimized()?),
            3 | 4 if orig => ColumnEnv::HyperShell(HyperShell::baseline()?),
            3 | 4 => ColumnEnv::HyperShell(HyperShell::optimized()?),
            5 | 6 if orig => ColumnEnv::Tahoma(Tahoma::baseline()?),
            5 | 6 => ColumnEnv::Tahoma(Tahoma::optimized()?),
            _ if orig => ColumnEnv::Shadow(ShadowContext::baseline()?),
            _ => ColumnEnv::Shadow(ShadowContext::optimized()?),
        })
    }

    /// Runs `op` once: (simulated delta, world switches).
    fn run(
        &mut self,
        op: MicroOp,
        spans: &mut Spans,
        id: u64,
    ) -> Result<(Delta, u64), SystemError> {
        fn redirected<T: RedirectTarget>(
            t: &mut T,
            op: MicroOp,
            spans: &mut Spans,
            id: u64,
        ) -> Result<(Delta, u64), SystemError> {
            let before = switches(t.env_mut());
            let d = spans.time("run_redirected", id, || run_redirected(t, op))?;
            Ok((d, switches(t.env_mut()) - before))
        }
        match self {
            ColumnEnv::Native(env) => {
                let before = switches(env);
                let d = spans.time("run_native", id, || run_native(env, op))?;
                Ok((d, switches(env) - before))
            }
            ColumnEnv::Proxos(t) => redirected(t, op, spans, id),
            ColumnEnv::HyperShell(t) => redirected(t, op, spans, id),
            ColumnEnv::Tahoma(t) => redirected(t, op, spans, id),
            ColumnEnv::Shadow(t) => redirected(t, op, spans, id),
        }
    }
}

pub struct PaperMicro {
    /// Cell indices (`col * 5 + op`) in execution order.
    schedule: Vec<usize>,
}

impl PaperMicro {
    pub fn new(seed: u64) -> PaperMicro {
        let mut schedule: Vec<usize> = (0..CELLS)
            .flat_map(|c| std::iter::repeat_n(c, BATCHES_PER_CELL))
            .collect();
        let mut rng = SplitMix64::new(seed);
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, rng.below(i as u64 + 1) as usize);
        }
        PaperMicro { schedule }
    }
}

impl Workload for PaperMicro {
    fn name(&self) -> &'static str {
        "paper_micro"
    }

    fn rep(&mut self, _traced: bool, spans: &mut Spans) -> Rep {
        let mut rep = Rep::default();
        // Per cell: the steady (post-warm-up) cycles, once seen.
        let mut steady: Vec<Option<u64>> = vec![None; CELLS];
        let mut unsteady: Vec<(usize, u64, u64)> = Vec::new();
        let mut cycles: Vec<u64> = Vec::with_capacity(self.schedule.len() * BATCH);
        let mut switch_total = 0u64;
        let mut failed = 0u64;
        let mut setup_ns = 0u128;
        let mut serve_ns = 0u128;
        let mut setup_allocs = 0u64;
        // One speed sample brackets the whole repetition: its set-ups and
        // batches alternate every few microseconds.
        let watch = Stopwatch::start(1);
        let phase = Phase::begin();
        for &cell in &self.schedule {
            let (col, op) = (
                cell / MicroOp::ALL.len(),
                MicroOp::ALL[cell % MicroOp::ALL.len()],
            );
            // A fresh environment per batch: each op leaves state behind
            // (trace records, pipe peers), so host time per op grows with
            // the ops an environment has run.
            let (t, a) = (Instant::now(), allocs_so_far());
            let env = spans.time("env_new", col as u64, || ColumnEnv::new(col));
            setup_ns += t.elapsed().as_nanos();
            setup_allocs += allocs_so_far() - a;
            let mut env = match env {
                Ok(e) => e,
                Err(e) => {
                    failed += BATCH as u64;
                    rep.violations
                        .push(format!("paper_micro: column {col} set-up failed: {e}"));
                    continue;
                }
            };
            let t = Instant::now();
            for i in 0..BATCH {
                let id = cycles.len() as u64;
                match env.run(op, spans, id) {
                    // The first op of a batch warms the fresh environment.
                    Ok((d, sw)) => {
                        let c = d.cycles.0;
                        if i > 0 {
                            match steady[cell] {
                                None => steady[cell] = Some(c),
                                Some(s) if s != c => unsteady.push((cell, s, c)),
                                Some(_) => {}
                            }
                        }
                        cycles.push(c);
                        switch_total += sw;
                    }
                    Err(e) => {
                        failed += 1;
                        rep.violations
                            .push(format!("paper_micro: cell {cell} ({}): {e}", op.name()));
                    }
                }
            }
            serve_ns += t.elapsed().as_nanos();
            spans.time("env_drop", col as u64, || drop(env));
        }
        let (allocs, heap_peak_bytes) = phase.end();
        let allocs = allocs - setup_allocs;
        let (_, scale) = watch.stop();
        let ops = cycles.len() as u64;
        rep.attempted = ops + failed;
        rep.failed = failed;
        rep.set_host(
            HostCost {
                setup: (setup_ns as f64, scale),
                serve: (serve_ns as f64, scale),
                allocs,
                heap_peak_bytes,
            },
            ops,
        );
        for &(cell, s, c) in unsteady.iter().take(5) {
            rep.violations.push(format!(
                "paper_micro: cell {cell} ({}) cost {c} cycles after {s}",
                MicroOp::ALL[cell % MicroOp::ALL.len()].name()
            ));
        }
        let total: u64 = cycles.iter().sum();
        let per = ops.max(1) as f64;
        rep.e2e.vcycles_per_call = total as f64 / per;
        rep.e2e.world_switches_per_call = switch_total as f64 / per;
        rep.e2e.sim_calls_per_s = per * HZ / total.max(1) as f64;
        rep.e2e.served_frac = ops as f64 / rep.attempted.max(1) as f64;
        let lat = Latency::of(cycles);
        rep.check(lat.p99_supported(), || {
            format!("paper_micro: {} samples cannot support a p99", lat.samples)
        });
        rep.layers.insert("latency.samples", lat.samples as f64);
        rep.e2e.latency = Some(lat);

        // Table 4 from the steady cells.
        let us = |cell: usize| steady[cell].map_or(f64::NAN, |c| c as f64 / (FREQ.hz() / 1e6));
        let (mut err, mut orig, mut opt, mut reduction) = (0.0, 0.0, 0.0, 0.0);
        for (o, paper_row) in TABLE4_US.iter().enumerate() {
            for (sys, &(p_orig, p_opt)) in paper_row.iter().enumerate() {
                let m_orig = us((1 + 2 * sys) * MicroOp::ALL.len() + o);
                let m_opt = us((2 + 2 * sys) * MicroOp::ALL.len() + o);
                err += ((m_orig - p_orig) / p_orig).abs() + ((m_opt - p_opt) / p_opt).abs();
                orig += m_orig;
                opt += m_opt;
                reduction += 1.0 - m_opt / m_orig;
            }
        }
        let pairs = (TABLE4_US.len() * 4) as f64;
        rep.layers
            .insert("paper.err_pct", 100.0 * err / (2.0 * pairs));
        rep.layers.insert("paper.orig_us_mean", orig / pairs);
        rep.layers.insert("paper.opt_us_mean", opt / pairs);
        rep.layers
            .insert("paper.reduction_pct_mean", 100.0 * reduction / pairs);
        rep.layers.insert("run.completed", ops as f64);
        rep.exact = steady.iter().map(|s| s.unwrap_or(0)).collect();
        rep.exact.push(total);
        rep
    }
}
