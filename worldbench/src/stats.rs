//! Exact order statistics over raw samples.

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub use runtime::report::percentile;

/// Median of `values` (sorts in place; 0 when empty). Even counts take
/// the mean of the two middle values.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Latency summary of one set of samples: p50, p99 and the sample
/// count. p99 is the highest percentile this benchmark names; it is
/// only reported when at least ten samples lie beyond it, which
/// [`Latency::p99_supported`] states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: u64,
    pub p99: u64,
    pub samples: u64,
}

impl Latency {
    /// Summarises `samples` (sorted here).
    pub fn of(mut samples: Vec<u64>) -> Latency {
        samples.sort_unstable();
        Latency {
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            samples: samples.len() as u64,
        }
    }

    /// Whether ten or more samples lie above the p99 rank.
    pub fn p99_supported(&self) -> bool {
        self.samples >= 1_000
    }
}
