//! Property-based tests on the performance model and cache simulator.

use mpgmres_gpusim::cache::CacheSim;
use mpgmres_gpusim::cost::{self, Gemv, MatrixOperand};
use mpgmres_gpusim::{DeviceModel, KernelClass};
use mpgmres_scalar::Precision::{self, Fp16, Fp32, Fp64};
use proptest::prelude::*;

/// A 5-nonzeros-per-row operator of bandwidth `bw` under working
/// precision `work`, its values stored at `value` precision.
fn operand(n: usize, bw: usize, value: Precision, work: Precision) -> MatrixOperand {
    MatrixOperand {
        value_bytes: 5 * n * value.bytes(),
        value_p: value,
        ..MatrixOperand::uniform(n, 5 * n, bw, work)
    }
}

/// Every shape of the cost API at length `n` and working precision
/// `p`, each with a label: the matrix op at k = 1 and k > 1, with and
/// without `b`, uniform and over an fp16 value store; basis GEMV-T and
/// GEMV-N at native and fp16 width, k = 1 and 4; the four level-1
/// blocks (scal at both write widths); block-LU; both casts.
fn every_shape(d: &DeviceModel, n: usize, p: Precision) -> Vec<(String, (f64, usize))> {
    let mut v = Vec::new();
    for (name, a) in [
        ("uniform", operand(n, 100, p, p)),
        ("fp16 store", operand(n, 100, Fp16, p)),
    ] {
        for (k, b) in [(1, false), (1, true), (3, false), (3, true)] {
            v.push((
                format!("{name} matrix k={k} b={b}"),
                cost::matrix_op(d, &a, k, b),
            ));
        }
    }
    for dir in [Gemv::T, Gemv::N] {
        for e in [p.bytes(), 2] {
            for k in [1, 4] {
                let c = cost::basis_gemv(d, n, 10, k, e, p, dir);
                v.push((format!("gemv {dir:?} e={e} k={k}"), c));
            }
        }
    }
    for k in [1, 4] {
        v.push((format!("norm k={k}"), cost::norm(d, n, k, p)));
        v.push((format!("dot k={k}"), cost::dot(d, n, k, p)));
        v.push((format!("axpy k={k}"), cost::axpy(d, n, k, p)));
        v.push((format!("scal k={k}"), cost::scal(d, n, k, p.bytes(), p)));
        v.push((format!("scal k={k} e=2"), cost::scal(d, n, k, 2, p)));
    }
    v.push(("block_lu".into(), cost::block_lu_solve(d, n, 16, p)));
    for class in [KernelClass::CastDevice, KernelClass::CastHost] {
        v.push((format!("{class:?}"), cost::cast(d, class, n, p, Fp64)));
    }
    v
}

/// `costs[0] <= costs[1] <= ...` in seconds and in bytes.
fn ordered(label: &str, costs: &[(f64, usize)]) -> Result<(), TestCaseError> {
    for w in costs.windows(2) {
        prop_assert!(
            w[0].0 <= w[1].0 && w[0].1 <= w[1].1,
            "{label}: narrower {:?} costs more than wider {:?}",
            w[0],
            w[1]
        );
    }
    Ok(())
}

proptest! {
    /// All kernel costs are positive, finite, and monotone in n.
    #[test]
    fn costs_positive_and_monotone(n in 100usize..1_000_000, scale in 2usize..8) {
        let d = DeviceModel::v100_belos();
        for p in Precision::ALL {
            let small = every_shape(&d, n, p);
            let big = every_shape(&d, n * scale, p);
            for ((label, (ts, bs)), (_, (tb, bb))) in small.into_iter().zip(big) {
                prop_assert!(ts > 0.0 && ts.is_finite(), "{label} at {p:?}: {ts}");
                prop_assert!(tb > ts, "{label} at {p:?}: time not monotone: {ts} vs {tb}");
                prop_assert!(bb > bs, "{label} at {p:?}: bytes not monotone: {bs} vs {bb}");
            }
        }
    }

    /// Narrower precision never costs more for the same shape: a
    /// narrower working precision for every uniform shape, and a
    /// narrower storage width (matrix values, basis elements, a scal's
    /// written elements, a cast's source or target) at a fixed working
    /// precision.
    #[test]
    fn narrower_precision_never_slower(n in 1_000usize..2_000_000, k in 1usize..6) {
        let d = DeviceModel::v100_belos();
        let narrow_first = [Fp16, Fp32, Fp64];
        for b in [false, true] {
            let op = |value: Precision, work: Precision| {
                cost::matrix_op(&d, &operand(n, 100, value, work), k, b)
            };
            let uniform: Vec<_> = narrow_first.iter().map(|&p| op(p, p)).collect();
            ordered(&format!("uniform matrix k={k} b={b}"), &uniform)?;
            let stores: Vec<_> = narrow_first.iter().map(|&p| op(p, Fp64)).collect();
            ordered(&format!("fp64 store k={k} b={b}"), &stores)?;
        }
        for dir in [Gemv::T, Gemv::N] {
            let native: Vec<_> = [Fp32, Fp64]
                .iter()
                .map(|&p| cost::basis_gemv(&d, n, 25, k, p.bytes(), p, dir))
                .collect();
            ordered(&format!("native gemv {dir:?}"), &native)?;
            for work in [Fp32, Fp64] {
                let widths: Vec<_> = narrow_first
                    .iter()
                    .filter(|p| p.bytes() <= work.bytes())
                    .map(|p| cost::basis_gemv(&d, n, 25, k, p.bytes(), work, dir))
                    .collect();
                ordered(&format!("{work:?} basis gemv {dir:?}"), &widths)?;
            }
        }
        let by_p = |f: &dyn Fn(Precision) -> (f64, usize)| -> Vec<(f64, usize)> {
            narrow_first.iter().map(|&p| f(p)).collect()
        };
        ordered("norm", &by_p(&|p| cost::norm(&d, n, k, p)))?;
        ordered("dot", &by_p(&|p| cost::dot(&d, n, k, p)))?;
        ordered("axpy", &by_p(&|p| cost::axpy(&d, n, k, p)))?;
        ordered("scal", &by_p(&|p| cost::scal(&d, n, k, p.bytes(), p)))?;
        ordered("scal write width", &by_p(&|p| cost::scal(&d, n, k, p.bytes(), Fp64)))?;
        ordered("block_lu", &by_p(&|p| cost::block_lu_solve(&d, n, 16, p)))?;
        for class in [KernelClass::CastDevice, KernelClass::CastHost] {
            ordered(&format!("{class:?} to"), &by_p(&|p| cost::cast(&d, class, n, Fp64, p)))?;
            ordered(&format!("{class:?} from"), &by_p(&|p| cost::cast(&d, class, n, p, Fp32)))?;
        }
    }

    /// The matrix op amortizes the matrix stream over the block: its
    /// cost per right-hand side never rises with `k`, at any value
    /// width, bandwidth, and with or without `b` (at least one nonzero
    /// per row).
    #[test]
    fn matrix_op_per_rhs_cost_does_not_rise_with_k(
        n in 100usize..500_000,
        w in 1usize..30,
        bw_frac in 0.001f64..1.0,
        k in 1usize..16,
    ) {
        let d = DeviceModel::v100_belos();
        let bw = ((n as f64 * bw_frac) as usize).max(1);
        for work in Precision::ALL {
            for value in Precision::ALL {
                let a = MatrixOperand {
                    value_bytes: w * n * value.bytes(),
                    value_p: value,
                    ..MatrixOperand::uniform(n, w * n, bw, work)
                };
                for b in [false, true] {
                    let now = cost::matrix_op(&d, &a, k, b).0 / k as f64;
                    let next = cost::matrix_op(&d, &a, k + 1, b).0 / (k + 1) as f64;
                    prop_assert!(
                        next <= now,
                        "{value:?} values, {work:?} vectors, b={b}: \
                         per-RHS {now} at k={k} rises to {next}"
                    );
                }
            }
        }
    }

    /// Latency scaling preserves fp64/fp32 per-call time ratios for every
    /// kernel shape (the invariant that justifies reduced-scale runs).
    #[test]
    fn latency_scaling_preserves_ratios(
        factor in 0.001f64..1.0,
        ncols in 2usize..100,
    ) {
        let d = DeviceModel::v100_belos();
        let n_paper = 2_250_000usize;
        let n_sim = ((n_paper as f64 * factor) as usize).max(10);
        let ds = d.scaled_latencies(n_sim as f64 / n_paper as f64);
        let ratio = |f: &dyn Fn(&DeviceModel, usize, Precision) -> f64| {
            (
                f(&d, n_paper, Fp64) / f(&d, n_paper, Fp32),
                f(&ds, n_sim, Fp64) / f(&ds, n_sim, Fp32),
            )
        };
        let (rp, rs) =
            ratio(&|dev, n, p| cost::basis_gemv(dev, n, ncols, 1, p.bytes(), p, Gemv::T).0);
        prop_assert!((rp - rs).abs() < 5e-3, "gemv_t ratio drift {rp} vs {rs}");
        let (rp, rs) = ratio(&|dev, n, p| cost::norm(dev, n, 1, p).0);
        prop_assert!((rp - rs).abs() < 5e-3, "norm ratio drift {rp} vs {rs}");
    }

    /// SpMV traffic equals the sum of its parts and respects the reuse
    /// rule's bounds: between perfect-reuse and no-reuse traffic.
    #[test]
    fn spmv_traffic_bounded(n in 100usize..500_000, w in 2usize..30, bw_frac in 0.001f64..1.0) {
        let d = DeviceModel::v100_belos();
        let nnz = n * w;
        let bw_rows = ((n as f64 * bw_frac) as usize).max(1);
        for p in Precision::ALL {
            let a = MatrixOperand::uniform(n, nnz, bw_rows, p);
            let t = cost::matrix_op(&d, &a, 1, false).1;
            let stream = nnz * (p.bytes() + 4) + (n + 1) * 4 + n * p.bytes();
            let lo = stream + n * p.bytes();
            let hi = stream + nnz * p.bytes();
            prop_assert!(t >= lo && t <= hi, "traffic {t} outside [{lo}, {hi}]");
        }
    }

    /// Cache hit rate is always in [0, 1]; a repeat pass over a fitting
    /// working set hits 100%.
    #[test]
    fn cache_hit_rate_bounds(lines in 1usize..256, assoc in 1usize..8) {
        let line = 64usize;
        let cap = lines * assoc * line;
        let mut sim = CacheSim::new(cap, line, assoc);
        // Working set of half the capacity: second pass must fully hit.
        let ws_lines = (lines * assoc / 2).max(1);
        for pass in 0..2 {
            for i in 0..ws_lines {
                let hit = sim.access((i * line) as u64);
                if pass == 1 {
                    prop_assert!(hit, "second pass over fitting set must hit");
                }
            }
        }
        let r = sim.hit_rate();
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// Bigger caches never lower the hit rate for a fixed cyclic access
    /// pattern.
    #[test]
    fn cache_capacity_monotone(ws in 16usize..512) {
        let line = 64;
        let run = |cap_lines: usize| -> f64 {
            let mut sim = CacheSim::new(cap_lines * line, line, 8);
            for _ in 0..3 {
                for i in 0..ws {
                    sim.access((i * line) as u64);
                }
            }
            sim.hit_rate()
        };
        let small = run(32);
        let big = run(1024);
        prop_assert!(big >= small, "bigger cache lost hits: {small} vs {big}");
    }
}
