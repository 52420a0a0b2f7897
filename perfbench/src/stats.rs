//! Order statistics, the seeded input generator, solution hashing and
//! the per-call timer shared by every probe.

use std::hint::black_box;
use std::time::Instant;

/// Median of a non-empty sample (mean of the two middle values when
/// the count is even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank quantile of a non-empty sample: the smallest value with
/// at least `q` of the sample at or below it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Seeded 64-bit generator (splitmix64): every input of a run derives
/// from the `--seed` argument through one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A right-hand side: the paper's all-ones vector with each entry
    /// perturbed by a seeded amount below 1e-11, a tenth of the solve
    /// tolerance. Every input is distinct, yet iteration counts stay
    /// those of the paper's protocol; perturbations above the tolerance
    /// move restarted GMRES(50) on UniFlow2D between about 550 and 890
    /// iterations from seed to seed, which would swamp the timings.
    pub fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 1.0 + 1e-11 * (self.unit() - 0.5)).collect()
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// FNV-1a over the bit patterns of a solution vector.
pub fn hash_bits(x: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Median wall time of one call of `f`, in microseconds. Calls are
/// grouped into batches of at least `MIN_BATCH_S` so the clock's
/// resolution never dominates; the median over `BATCHES` batches
/// rejects scheduler hiccups.
pub fn per_call_us<R>(mut f: impl FnMut() -> R) -> f64 {
    const MIN_BATCH_S: f64 = 2e-3;
    const BATCHES: usize = 9;
    black_box(f());
    let t0 = Instant::now();
    black_box(f());
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((MIN_BATCH_S / one).ceil() as usize).clamp(1, 1 << 20);
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        per_call.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    median(&per_call) * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 10.0);
        assert_eq!(quantile(&xs, 0.9), 18.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn hash_sees_every_bit() {
        assert_ne!(hash_bits(&[0.0]), hash_bits(&[-0.0]));
        assert_eq!(hash_bits(&[1.5, 2.0]), hash_bits(&[1.5, 2.0]));
    }
}
