//! Device models: the hardware parameters the cost functions consume.

use mpgmres_scalar::Precision;
use serde::Serialize;

/// Per-kernel-class effective bandwidth efficiencies, by precision.
///
/// Real GPU kernels never reach peak DRAM bandwidth, and the shortfall is
/// kernel- and precision-specific (e.g. the fp32 GEMV-Transpose is
/// reduction-latency limited, so it achieves a *lower* fraction of peak
/// than its fp64 counterpart — that is why the paper's Table I reports
/// only 1.28x for GEMV(Trans) but 2.48x for SpMV). These factors are
/// calibrated against Table I's per-call times; the calibration tests of
/// [`crate::cost`] hold the regression bands.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Efficiency {
    /// Efficiency for fp64 operands.
    pub fp64: f64,
    /// Efficiency for fp32 operands.
    pub fp32: f64,
    /// Efficiency for fp16 operands (projection; the V100 tensor path is
    /// not modeled, plain half-precision loads behave like fp32).
    pub fp16: f64,
}

impl Efficiency {
    /// Look up by precision.
    pub fn get(&self, p: Precision) -> f64 {
        match p {
            Precision::Fp64 => self.fp64,
            Precision::Fp32 => self.fp32,
            Precision::Fp16 => self.fp16,
        }
    }

    /// Same efficiency for all precisions.
    pub const fn uniform(e: f64) -> Efficiency {
        Efficiency {
            fp64: e,
            fp32: e,
            fp16: e,
        }
    }
}

/// Hardware + runtime-stack parameters of the simulated device.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Peak DRAM bandwidth in bytes/second (V100 HBM2: ~900 GB/s).
    pub dram_bw: f64,
    /// Per-kernel-launch overhead in seconds (CUDA launch + Belos
    /// per-call bookkeeping; the paper's §IV notes Belos forces separate
    /// launches per operation).
    pub launch_overhead: f64,
    /// Device-to-host synchronization + small-result transfer cost in
    /// seconds. Belos stores norms and projection coefficients in a host
    /// `SerialDenseMatrix` (§IV "Limitations"), so every Norm/Dot and
    /// GEMV-Trans pays this.
    pub host_sync: f64,
    /// Host-side cost per floating-point operation (least-squares solve,
    /// Givens updates — the `Other` category).
    pub host_flop: f64,
    /// Per-restart host-side overhead in seconds (Belos solver-manager
    /// bookkeeping, allocations, vector shuffling).
    pub restart_overhead: f64,
    /// Per-iteration host-side overhead in seconds (status tests, Givens
    /// bookkeeping through the Belos interface).
    pub iter_overhead: f64,
    /// PCIe bandwidth in bytes/second for host-mediated transfers. The
    /// GMRES-IR refinement stage converts residual vectors through the
    /// Belos interface on the host (§IV), so those casts ride PCIe.
    pub pcie_bw: f64,
    /// SpMV effective bandwidth by precision.
    pub eff_spmv: Efficiency,
    /// GEMV-Transpose effective bandwidth by precision.
    pub eff_gemv_t: Efficiency,
    /// GEMV-NoTranspose effective bandwidth by precision.
    pub eff_gemv_n: Efficiency,
    /// Norm/Dot/AXPY/Scal streaming effective bandwidth by precision.
    pub eff_vec: Efficiency,
    /// L2 capacity in bytes (used by the x-reuse rule and cache sim).
    pub l2_capacity: usize,
    /// Cache line (sector) size in bytes for the cache simulator.
    pub l2_line: usize,
    /// Associativity for the cache simulator.
    pub l2_assoc: usize,
    /// Fraction of L2 effectively available to one kernel's reuse working
    /// set (the rest is churned by concurrent streams).
    pub l2_effective_fraction: f64,
    /// A matrix counts as "banded" (stencil-like, eligible for x reuse in
    /// narrow precisions) when `bandwidth <= banded_limit_fraction * n`.
    /// Paper §V-D: "if A has larger bandwidth, elements of x may be
    /// accessed with less spatial locality, so 2.5x speedup is not
    /// expected".
    pub banded_limit_fraction: f64,
}

impl DeviceModel {
    /// The paper's platform: Tesla V100 16 GB driven through
    /// Belos/Kokkos-Kernels (CUDA 9.2). Effective bandwidths and latencies
    /// are calibrated so that per-call kernel times at paper scale
    /// (BentPipe2D1500) match Table I:
    ///
    /// | kernel       | paper fp64/call | paper speedup |
    /// |--------------|-----------------|---------------|
    /// | SpMV         | ~565 us         | 2.48x         |
    /// | GEMV (Trans) | ~779 us         | 1.28x         |
    /// | GEMV (NoTr)  | ~733 us         | 1.57x         |
    /// | Norm         | ~133 us         | 1.15x         |
    pub fn v100_belos() -> DeviceModel {
        DeviceModel {
            name: "V100-16GB (Belos/Kokkos stack model)",
            dram_bw: 900.0e9,
            launch_overhead: 7.0e-6,
            host_sync: 103.0e-6,
            host_flop: 1.0e-9,
            restart_overhead: 5.0e-3,
            iter_overhead: 95.0e-6,
            pcie_bw: 12.0e9,
            eff_spmv: Efficiency {
                fp64: 0.496,
                fp32: 0.60,
                fp16: 0.60,
            },
            eff_gemv_t: Efficiency {
                fp64: 0.722,
                fp32: 0.478,
                fp16: 0.478,
            },
            eff_gemv_n: Efficiency {
                fp64: 0.739,
                fp32: 0.583,
                fp16: 0.583,
            },
            eff_vec: Efficiency {
                fp64: 0.889,
                fp32: 0.889,
                fp16: 0.889,
            },
            l2_capacity: 6 << 20,
            l2_line: 64,
            l2_assoc: 16,
            l2_effective_fraction: 0.25,
            banded_limit_fraction: 0.05,
        }
    }

    /// An idealized device: no launch/sync overheads, uniform 100%
    /// bandwidth efficiency. Useful in tests (pure traffic model) and for
    /// the paper's "what more needs to be improved" discussion — the gap
    /// between `v100_belos` and `ideal` is the Belos overhead the paper's
    /// §IV laments.
    pub fn ideal() -> DeviceModel {
        DeviceModel {
            name: "ideal-900GB/s",
            dram_bw: 900.0e9,
            launch_overhead: 0.0,
            host_sync: 0.0,
            host_flop: 0.0,
            restart_overhead: 0.0,
            iter_overhead: 0.0,
            pcie_bw: f64::INFINITY,
            eff_spmv: Efficiency::uniform(1.0),
            eff_gemv_t: Efficiency::uniform(1.0),
            eff_gemv_n: Efficiency::uniform(1.0),
            eff_vec: Efficiency::uniform(1.0),
            l2_capacity: 6 << 20,
            l2_line: 64,
            l2_assoc: 16,
            l2_effective_fraction: 0.25,
            banded_limit_fraction: 0.05,
        }
    }

    /// Scale all *fixed* latencies (launch, host sync, per-iteration and
    /// per-restart host overheads, host flop cost) by `factor`.
    ///
    /// Used when experiments run at reduced problem size: bandwidth terms
    /// already shrink linearly with `n`, so shrinking the latencies by
    /// the same `n_sim / n_paper` factor preserves every *time ratio*
    /// of the paper-scale experiment exactly (README, *Reproducing the
    /// paper*). The
    /// x-reuse rule is bandedness-based and scale-free, so it needs no
    /// adjustment.
    pub fn scaled_latencies(&self, factor: f64) -> DeviceModel {
        assert!(factor > 0.0 && factor.is_finite());
        DeviceModel {
            launch_overhead: self.launch_overhead * factor,
            host_sync: self.host_sync * factor,
            host_flop: self.host_flop * factor,
            restart_overhead: self.restart_overhead * factor,
            iter_overhead: self.iter_overhead * factor,
            ..self.clone()
        }
    }

    /// Effective L2 bytes available to one kernel's reuse set.
    pub fn effective_l2(&self) -> usize {
        (self.l2_capacity as f64 * self.l2_effective_fraction) as usize
    }

    /// Is a matrix with this structure "banded" for the x-reuse rule?
    pub fn is_banded(&self, bandwidth_rows: usize, n: usize) -> bool {
        n > 0 && (bandwidth_rows as f64) <= self.banded_limit_fraction * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_sane_parameters() {
        let d = DeviceModel::v100_belos();
        assert!(d.dram_bw > 8.0e11 && d.dram_bw < 1.0e12);
        assert!(d.launch_overhead > 0.0 && d.launch_overhead < 1e-4);
        assert!(d.effective_l2() > 1 << 20);
        for p in Precision::ALL {
            assert!(d.eff_spmv.get(p) > 0.0 && d.eff_spmv.get(p) <= 1.0);
            assert!(d.eff_gemv_t.get(p) > 0.0 && d.eff_gemv_t.get(p) <= 1.0);
        }
    }

    #[test]
    fn bandedness_rule() {
        let d = DeviceModel::v100_belos();
        // BentPipe2D1500: bandwidth 1500 of n = 2.25M -> banded.
        assert!(d.is_banded(1500, 2_250_000));
        // Laplace3D150: bandwidth 22500 of n = 3.375M -> banded.
        assert!(d.is_banded(22_500, 3_375_000));
        // A scrambled matrix with bandwidth ~ n is not.
        assert!(!d.is_banded(2_000_000, 2_250_000));
        assert!(!d.is_banded(1, 0));
    }

    #[test]
    fn ideal_device_has_no_overheads() {
        let d = DeviceModel::ideal();
        assert_eq!(d.launch_overhead, 0.0);
        assert_eq!(d.host_sync, 0.0);
        assert_eq!(d.eff_spmv.get(Precision::Fp64), 1.0);
    }

    #[test]
    fn scaled_latencies_preserve_time_ratios() {
        // The per-call fp64/fp32 ratio of a latency+bandwidth kernel must
        // be identical at (paper n, full latencies) and (n/f, latencies/f).
        use crate::cost::{basis_gemv, Gemv};
        let gemv_t = |d: &DeviceModel, n: usize, p: Precision| {
            basis_gemv(d, n, 26, 1, p.bytes(), p, Gemv::T).0
        };
        let d = DeviceModel::v100_belos();
        let n_paper = 2_250_000usize;
        let f = 1.0 / 137.0;
        let n_sim = (n_paper as f64 * f) as usize;
        let ds = d.scaled_latencies(f);
        let ratio_paper =
            gemv_t(&d, n_paper, Precision::Fp64) / gemv_t(&d, n_paper, Precision::Fp32);
        let ratio_sim = gemv_t(&ds, n_sim, Precision::Fp64) / gemv_t(&ds, n_sim, Precision::Fp32);
        assert!(
            (ratio_paper - ratio_sim).abs() < 1e-3,
            "ratios drifted: {ratio_paper} vs {ratio_sim}"
        );
        // Bandwidth and L2 settings untouched.
        assert_eq!(ds.dram_bw, d.dram_bw);
        assert_eq!(ds.l2_capacity, d.l2_capacity);
    }
}
