//! Set-associative LRU cache simulator and SpMV access-stream replay.
//!
//! The cost model's x-reuse rule ([`crate::cost::matrix_op`])
//! *postulates* the reuse asymmetry the paper measured. This module lets
//! the `vd_model` experiment *probe the mechanism*: it replays the exact
//! CSR access stream of `y = A x` through an LRU cache with a
//! configurable number of concurrently sweeping lanes (a stand-in for
//! the V100's thousands of in-flight warps sharing one L2) and reports
//! per-stream hit rates.
//! Streaming pressure from concurrent lanes is what evicts `x` lines
//! between reuses — and halving the element size halves that pressure,
//! which is the fp32 advantage.

use mpgmres_la::csr::Csr;
use mpgmres_scalar::{Precision, Scalar};
use serde::Serialize;

use crate::device::DeviceModel;

/// A set-associative LRU cache over 64-bit byte addresses.
#[derive(Debug)]
pub struct CacheSim {
    line: usize,
    sets: Vec<Vec<u64>>, // each set: most-recent-last tag list
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Build with `capacity` bytes, `line`-byte lines, `assoc`-way sets.
    ///
    /// # Panics
    /// Panics unless `capacity >= line * assoc` and `line` is a power of
    /// two.
    pub fn new(capacity: usize, line: usize, assoc: usize) -> CacheSim {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1);
        let nsets = (capacity / (line * assoc)).max(1);
        CacheSim {
            line,
            sets: vec![Vec::with_capacity(assoc); nsets],
            assoc,
            hits: 0,
            misses: 0,
        }
    }

    /// Access one byte address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = addr / self.line as u64;
        let set = (tag as usize) % self.sets.len();
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&t| t == tag) {
            lines.remove(pos);
            lines.push(tag);
            self.hits += 1;
            true
        } else {
            if lines.len() == self.assoc {
                lines.remove(0);
            }
            lines.push(tag);
            self.misses += 1;
            false
        }
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction in [0, 1]; 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-stream results of replaying an SpMV through the cache.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SpmvCacheStats {
    /// Hit rate over accesses to the x vector only.
    pub x_hit_rate: f64,
    /// Overall hit rate (matrix values, indices, and x).
    pub total_hit_rate: f64,
    /// DRAM bytes implied by the misses (misses x line size).
    pub dram_bytes: u64,
    /// Total accesses replayed.
    pub accesses: u64,
}

/// Replay `y = A x` through an LRU model of the device's effective L2.
///
/// `lanes` concurrent lanes each sweep a contiguous chunk of rows,
/// interleaved one nonzero at a time — a serialization of the GPU's
/// concurrent execution. Address space layout: `A.vals`, then `A.col_idx`,
/// then `x` (y stores bypass the cache, as GPU streaming stores do).
pub fn simulate_spmv_cache<S: Scalar>(
    a: &Csr<S>,
    dev: &DeviceModel,
    precision: Precision,
    lanes: usize,
) -> SpmvCacheStats {
    let lanes = lanes.max(1);
    let n = a.nrows();
    let nnz = a.nnz();
    let val_bytes = precision.bytes() as u64;
    let idx_bytes = 4u64;
    let val_base = 0u64;
    let idx_base = val_base + nnz as u64 * val_bytes;
    let x_base = idx_base + nnz as u64 * idx_bytes;

    let mut cache = CacheSim::new(dev.effective_l2(), dev.l2_line, dev.l2_assoc);
    let mut x_hits = 0u64;
    let mut x_total = 0u64;

    // Each lane walks its chunk of rows; lanes are interleaved round-robin
    // one nonzero per turn.
    let chunk = n.div_ceil(lanes);
    struct Lane {
        row_end: usize,
        row: usize,
        k: usize,
        k_end: usize,
    }
    let mut lane_state: Vec<Lane> = (0..lanes)
        .map(|l| {
            let row = (l * chunk).min(n);
            let row_end = ((l + 1) * chunk).min(n);
            let (k, k_end) = if row < row_end {
                (a.row_ptr()[row], a.row_ptr()[row + 1])
            } else {
                (0, 0)
            };
            Lane {
                row_end,
                row,
                k,
                k_end,
            }
        })
        .collect();

    let mut active = lane_state.iter().filter(|l| l.row < l.row_end).count();
    while active > 0 {
        for lane in lane_state.iter_mut() {
            if lane.row >= lane.row_end {
                continue;
            }
            // Advance to a row with remaining nonzeros.
            while lane.k >= lane.k_end {
                lane.row += 1;
                if lane.row >= lane.row_end {
                    active -= 1;
                    break;
                }
                lane.k = a.row_ptr()[lane.row];
                lane.k_end = a.row_ptr()[lane.row + 1];
            }
            if lane.row >= lane.row_end {
                continue;
            }
            let k = lane.k;
            lane.k += 1;
            // One nonzero: value, column index, x element.
            cache.access(val_base + k as u64 * val_bytes);
            cache.access(idx_base + k as u64 * idx_bytes);
            let col = a.col_idx()[k] as u64;
            x_total += 1;
            if cache.access(x_base + col * val_bytes) {
                x_hits += 1;
            }
        }
    }

    SpmvCacheStats {
        x_hit_rate: if x_total == 0 {
            0.0
        } else {
            x_hits as f64 / x_total as f64
        },
        total_hit_rate: cache.hit_rate(),
        dram_bytes: cache.misses() * dev.l2_line as u64,
        accesses: cache.hits() + cache.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_semantics() {
        // 2 lines of 64B, direct-mapped-ish (1 set, assoc 2).
        let mut c = CacheSim::new(128, 64, 2);
        assert!(!c.access(0)); // miss
        assert!(!c.access(64)); // miss
        assert!(c.access(0)); // hit (LRU order now [64, 0])
        assert!(!c.access(128)); // evicts 64
        assert!(c.access(0));
        assert!(!c.access(64)); // was evicted
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn spatial_locality_within_lines() {
        let mut c = CacheSim::new(1 << 16, 64, 8);
        for addr in 0..256u64 {
            c.access(addr);
        }
        // 256 byte-accesses over 64B lines: 4 misses, 252 hits.
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 252);
    }

    #[test]
    fn hit_rate_monotone_in_capacity() {
        // Repeated sweeps over a working set: bigger cache, better rate.
        let sweep = |cap: usize| -> f64 {
            let mut c = CacheSim::new(cap, 64, 8);
            for _pass in 0..4 {
                for i in 0..4096u64 {
                    c.access(i * 64);
                }
            }
            c.hit_rate()
        };
        let small = sweep(16 << 10);
        let big = sweep(512 << 10);
        assert!(big > small, "capacity must help: {small} vs {big}");
        assert!(big > 0.70); // 4096 lines fit in 8192-line cache: 3/4 passes hit
    }

    #[test]
    fn spmv_replay_counts_accesses() {
        let a = mpgmres_la::csr::Csr::<f64>::identity(100);
        let dev = DeviceModel::v100_belos();
        let stats = simulate_spmv_cache(&a, &dev, Precision::Fp64, 4);
        // 3 accesses per nonzero.
        assert_eq!(stats.accesses, 300);
        assert!(stats.x_hit_rate >= 0.0 && stats.x_hit_rate <= 1.0);
    }

    #[test]
    fn streaming_pressure_hurts_x_reuse() {
        // A banded matrix swept by many lanes through a small cache: the
        // x hit rate must drop versus a single-lane sweep.
        let mut dev = DeviceModel::v100_belos();
        dev.l2_capacity = 32 << 10;
        dev.l2_effective_fraction = 1.0;
        // Pentadiagonal with a far off-diagonal (stencil-like).
        let n = 4000;
        let mut coo = mpgmres_la::coo::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0f64);
            if i >= 1 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
            if i >= 60 {
                coo.push(i, i - 60, -1.0);
            }
            if i + 60 < n {
                coo.push(i, i + 60, -1.0);
            }
        }
        let a = coo.into_csr();
        let solo = simulate_spmv_cache(&a, &dev, Precision::Fp64, 1);
        let crowded = simulate_spmv_cache(&a, &dev, Precision::Fp64, 64);
        assert!(
            crowded.x_hit_rate < solo.x_hit_rate,
            "pressure should evict x: solo {} vs crowded {}",
            solo.x_hit_rate,
            crowded.x_hit_rate
        );
        // And fp32 relieves the pressure at the same lane count.
        let crowded32 = simulate_spmv_cache(&a.convert::<f32>(), &dev, Precision::Fp32, 64);
        assert!(
            crowded32.x_hit_rate >= crowded.x_hit_rate,
            "fp32 must not cache worse: {} vs {}",
            crowded32.x_hit_rate,
            crowded.x_hit_rate
        );
    }
}
