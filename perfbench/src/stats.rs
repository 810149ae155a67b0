//! Small statistics and the seeded generator every workload draws from.
//!
//! The generator lives here rather than in the program's `fun3d-util` so
//! that a change to the program can never change the benchmark's inputs.

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix {
            state: seed ^ 0x5EED_F0E3_D1CE_0001,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Quantile `q` of a sample by linear interpolation between order
/// statistics (the same rule as numpy's default). `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples beyond it in a run of `expected` samples. The benchmark fixes
/// `expected` from the workload's configuration (never from a run's own
/// count), so every run of a workload reports the same percentile.
pub fn tail_quantile(expected: usize) -> f64 {
    [0.999, 0.99, 0.98, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| (1.0 - q) * expected as f64 >= 10.0)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.98);
        assert_eq!(tail_quantile(500), 0.98);
        assert_eq!(tail_quantile(300), 0.95);
        assert_eq!(tail_quantile(10_000), 0.999);
    }

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix::new(7);
        assert!(a.iter().all(|&x| x == g.next_u64()));
        let mut p = SplitMix::new(3).permutation(48);
        p.sort_unstable();
        assert_eq!(p, (0..48).collect::<Vec<_>>());
    }
}
