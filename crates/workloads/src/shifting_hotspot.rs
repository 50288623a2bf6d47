//! Shifting-hotspot workload: a Zipf callee popularity law whose hot
//! set rotates on a seeded virtual-time schedule.
//!
//! The static Zipf workloads (see [`crate::openloop`]) reward a
//! controller that converges once and freezes. This generator is the
//! adversarial complement: the *shape* of the popularity law is
//! constant (a few hot callees, a long cold tail), but which callees
//! are hot changes every phase — rank `k` of the Zipf law is mapped
//! through a per-phase seeded permutation of the callee set. A
//! controller annealed onto phase `p`'s hot lanes must notice the
//! regime shift at phase `p+1` and re-converge; per-callee budgets and
//! prefill traces go stale at once.
//!
//! Phases are *virtual-time* windows: the caller passes its current
//! simulated clock to [`ShiftingHotspot::sample`], so the rotation
//! schedule is deterministic in cycles, host-independent, and shared by
//! every worker driving the same virtual clock. Everything is seeded —
//! two generators built with equal parameters produce identical
//! schedules and identical draws.

use machine::rng::{SplitMix64, Zipf};

/// A Zipf callee sampler whose rank→callee mapping rotates each
/// virtual-time phase.
#[derive(Debug, Clone)]
pub struct ShiftingHotspot {
    zipf: Zipf,
    phase_cycles: u64,
    /// One seeded permutation of the callee set per phase;
    /// `perms[p][rank]` is the callee index rank `rank` maps to during
    /// phase `p`.
    perms: Vec<Vec<usize>>,
}

impl ShiftingHotspot {
    /// Builds a schedule over `callees` callees with Zipf exponent `s`,
    /// rotating through `phases` distinct hot-set permutations, one per
    /// `phase_cycles`-cycle virtual-time window, all derived from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `callees` or `phases` is zero, `phase_cycles` is zero,
    /// or `s` is negative/non-finite (via [`Zipf::new`]).
    pub fn new(callees: usize, s: f64, phases: usize, phase_cycles: u64, seed: u64) -> Self {
        assert!(callees > 0, "need at least one callee");
        assert!(phases > 0, "need at least one phase");
        assert!(phase_cycles > 0, "phases need a positive cycle length");
        let mut rng = SplitMix64::new(seed);
        let perms = (0..phases)
            .map(|_| {
                // Fisher–Yates over the callee indices.
                let mut perm: Vec<usize> = (0..callees).collect();
                for i in (1..callees).rev() {
                    let j = rng.below(i as u64 + 1) as usize;
                    perm.swap(i, j);
                }
                perm
            })
            .collect();
        ShiftingHotspot {
            zipf: Zipf::new(callees, s),
            phase_cycles,
            perms,
        }
    }

    /// Number of callees in the set.
    pub fn callees(&self) -> usize {
        self.zipf.len()
    }

    /// Number of distinct phases before the schedule repeats.
    pub fn phases(&self) -> usize {
        self.perms.len()
    }

    /// Virtual-time length of one phase.
    pub fn phase_cycles(&self) -> u64 {
        self.phase_cycles
    }

    /// Phase index active at `now_cycles` (the schedule repeats after
    /// [`ShiftingHotspot::phases`] windows).
    pub fn phase_of(&self, now_cycles: u64) -> usize {
        ((now_cycles / self.phase_cycles) % self.perms.len() as u64) as usize
    }

    /// The hottest callee (Zipf rank 0) during `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn hot_callee(&self, phase: usize) -> usize {
        self.perms[phase][0]
    }

    /// Draws a callee index for a request issued at virtual time
    /// `now_cycles`: one Zipf rank draw mapped through the active
    /// phase's permutation.
    pub fn sample(&self, now_cycles: u64, rng: &mut SplitMix64) -> usize {
        let rank = self.zipf.sample(rng);
        self.perms[self.phase_of(now_cycles)][rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = ShiftingHotspot::new(16, 1.2, 4, 1_000_000, 0x5EED);
        let b = ShiftingHotspot::new(16, 1.2, 4, 1_000_000, 0x5EED);
        let mut ra = SplitMix64::new(1);
        let mut rb = SplitMix64::new(1);
        for t in (0..8_000_000u64).step_by(1_000) {
            assert_eq!(a.sample(t, &mut ra), b.sample(t, &mut rb));
        }
    }

    #[test]
    fn phase_schedule_is_virtual_time() {
        let w = ShiftingHotspot::new(8, 1.0, 3, 1_000, 7);
        assert_eq!(w.phase_of(0), 0);
        assert_eq!(w.phase_of(999), 0);
        assert_eq!(w.phase_of(1_000), 1);
        assert_eq!(w.phase_of(2_500), 2);
        // The schedule wraps after `phases` windows.
        assert_eq!(w.phase_of(3_000), 0);
        assert_eq!(w.phase_of(4_000), 1);
    }

    #[test]
    fn hot_set_rotates_between_phases() {
        let w = ShiftingHotspot::new(32, 1.3, 6, 1_000, 0xB10C);
        let hots: Vec<usize> = (0..w.phases()).map(|p| w.hot_callee(p)).collect();
        // Six draws from 32 callees colliding on every pair is
        // astronomically unlikely under any seed; assert at least one
        // actual shift so the workload cannot degenerate to static.
        assert!(
            hots.windows(2).any(|w| w[0] != w[1]),
            "hot callee never moved: {hots:?}"
        );
    }

    #[test]
    fn within_phase_draws_are_zipf_skewed() {
        let w = ShiftingHotspot::new(16, 1.3, 4, u64::MAX, 0xD15C);
        let mut rng = SplitMix64::new(3);
        let mut counts = vec![0u64; 16];
        for _ in 0..50_000 {
            counts[w.sample(0, &mut rng)] += 1;
        }
        let hot = w.hot_callee(0);
        assert!(
            counts[hot] > 15_000,
            "hot callee {hot} undersampled: {counts:?}"
        );
        // The hot callee dominates every other callee.
        for (i, &c) in counts.iter().enumerate() {
            if i != hot {
                assert!(counts[hot] > c, "callee {i} outdrew the hot callee");
            }
        }
    }

    #[test]
    fn permutation_preserves_the_callee_set() {
        let w = ShiftingHotspot::new(9, 1.1, 5, 10, 42);
        for p in 0..w.phases() {
            let mut seen: Vec<usize> = (0..9).map(|rank| w.perms[p][rank]).collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..9).collect::<Vec<_>>(),
                "phase {p} not a permutation"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn zero_phases_panics() {
        ShiftingHotspot::new(4, 1.0, 0, 10, 1);
    }
}
