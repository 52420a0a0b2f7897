//! Level-1 vector kernels: axpy, scale, dot, norm.
//!
//! Two execution details matter for reproducing the paper:
//!
//! 1. **Reduction order.** The paper remarks (§V) that "numerical errors
//!    from reductions on the GPU can give slightly different convergence
//!    behaviors". GPU reductions are blocked trees, not left-to-right sums.
//!    [`ReductionOrder`] exposes both so experiments can quantify the
//!    effect and tests can pin determinism.
//! 2. **Parallelism.** The kernels in this module are the *sequential
//!    reference implementations* — bit-deterministic, the ground truth
//!    every execution backend is checked against. The std-thread
//!    parallel counterparts live in [`crate::par`] and are wired up by
//!    the `mpgmres-backend` crate's `ParallelBackend`.

use mpgmres_scalar::Scalar;

use crate::fma;

/// Below this length the parallel kernels in [`crate::par`] fall back to
/// the sequential path (thread spawn would dominate). Chosen so
/// unit-test-sized problems never pay thread overhead.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Summation order for dot products and norms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Strict left-to-right accumulation. Deterministic, matches a serial
    /// CPU implementation.
    #[default]
    Sequential,
    /// Blocked tree reduction with the given block size: partial sums over
    /// contiguous blocks, then a pairwise tree over block results. This is
    /// the shape of a GPU grid reduction (one partial per thread block).
    BlockedTree {
        /// Elements per leaf block (a GPU thread-block's chunk).
        block: usize,
    },
}

impl ReductionOrder {
    /// A GPU-like default: 256-element blocks, the V100 sweet spot.
    pub const GPU_LIKE: ReductionOrder = ReductionOrder::BlockedTree { block: 256 };
}

/// `y += alpha * x`.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    fma::run(|| {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = alpha.mul_add(xi, *yi);
        }
    });
}

/// `y = alpha * x + beta * y` (general vector update).
pub fn axpby<S: Scalar>(alpha: S, x: &[S], beta: S, y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    fma::run(|| {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = alpha.mul_add(xi, beta * *yi);
        }
    });
}

/// `x *= alpha`.
pub fn scale<S: Scalar>(alpha: S, x: &mut [S]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Copy `src` into `dst`.
pub fn copy<S: Scalar>(src: &[S], dst: &mut [S]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    dst.copy_from_slice(src);
}

/// Set every element to `value`.
pub fn fill<S: Scalar>(x: &mut [S], value: S) {
    for xi in x {
        *xi = value;
    }
}

/// Strict left-to-right fused-multiply-add accumulation — the kernel
/// every per-block partial sum is built from, in both the sequential
/// reference and the parallel backend (so block partials are
/// bit-identical across backends).
#[inline(always)]
pub(crate) fn dot_seq<S: Scalar>(x: &[S], y: &[S]) -> S {
    let mut acc = S::zero();
    for (&xi, &yi) in x.iter().zip(y) {
        acc = xi.mul_add(yi, acc);
    }
    acc
}

/// Pairwise tree reduction over per-block partial sums, in place
/// (`parts` is scratch afterwards). Shared with [`crate::par`] so the
/// combine order is identical across backends.
pub(crate) fn tree_sum<S: Scalar>(parts: &mut [S]) -> S {
    let mut len = parts.len();
    if len == 0 {
        return S::zero();
    }
    while len > 1 {
        let half = len.div_ceil(2);
        for i in 0..len / 2 {
            parts[i] = parts[2 * i] + parts[2 * i + 1];
        }
        if len % 2 == 1 {
            parts[half - 1] = parts[len - 1];
        }
        len = half;
    }
    parts[0]
}

/// Per-block partial sums of `x . y`: `parts[b]` is the left-to-right
/// [`dot_seq`] chain over `x[b * block..]` and `y[b * block..]` (the last
/// block clipped at the end), for `parts.len() == x.len().div_ceil(block)`.
///
/// Four blocks run in lockstep, so their independent chains overlap in
/// the FMA pipeline; each block still accumulates alone and
/// left to right, so every partial is bit-identical to a `dot_seq` over
/// its block. A plain loop on purpose: an iterator adaptor collecting
/// the partials would compile out of line, outside the caller's
/// [`fma::run`] frame (see [`crate::fma`]).
#[inline(always)]
pub(crate) fn block_partials<S: Scalar>(x: &[S], y: &[S], block: usize, parts: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(parts.len(), x.len().div_ceil(block));
    let wide = x.len() / (4 * block) * 4;
    let (parts_wide, parts_tail) = parts.split_at_mut(wide);
    let (x_wide, x_tail) = x.split_at(wide * block);
    let (y_wide, y_tail) = y.split_at(wide * block);
    for ((pg, xg), yg) in parts_wide
        .chunks_exact_mut(4)
        .zip(x_wide.chunks_exact(4 * block))
        .zip(y_wide.chunks_exact(4 * block))
    {
        let (x0, x1, x2, x3) = quarters(xg, block);
        let (y0, y1, y2, y3) = quarters(yg, block);
        let mut acc = [S::zero(); 4];
        for i in 0..block {
            acc[0] = x0[i].mul_add(y0[i], acc[0]);
            acc[1] = x1[i].mul_add(y1[i], acc[1]);
            acc[2] = x2[i].mul_add(y2[i], acc[2]);
            acc[3] = x3[i].mul_add(y3[i], acc[3]);
        }
        pg.copy_from_slice(&acc);
    }
    for ((p, xb), yb) in parts_tail
        .iter_mut()
        .zip(x_tail.chunks(block))
        .zip(y_tail.chunks(block))
    {
        *p = dot_seq(xb, yb);
    }
}

/// The four `block`-long blocks of a `4 * block` slice.
#[inline(always)]
fn quarters<S>(s: &[S], block: usize) -> (&[S], &[S], &[S], &[S]) {
    let (a, rest) = s.split_at(block);
    let (b, rest) = rest.split_at(block);
    let (c, d) = rest.split_at(block);
    (a, b, c, &d[..block])
}

/// Inner product `x . y` under the given reduction order.
pub fn dot_ordered<S: Scalar>(x: &[S], y: &[S], order: ReductionOrder) -> S {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    fma::run(
        #[inline(always)]
        || match order {
            ReductionOrder::Sequential => dot_seq(x, y),
            ReductionOrder::BlockedTree { block } => {
                let block = block.max(1);
                let mut parts = vec![S::zero(); x.len().div_ceil(block)];
                block_partials(x, y, block, &mut parts);
                tree_sum(&mut parts)
            }
        },
    )
}

/// Inner product with the default sequential order.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    dot_ordered(x, y, ReductionOrder::Sequential)
}

/// Euclidean norm under the given reduction order.
///
/// Accumulates squares in the working precision (as the GPU kernels the
/// paper profiles do), so fp32 norms of huge vectors can lose digits —
/// that behaviour is part of what GMRES-IR has to cope with.
pub fn norm2_ordered<S: Scalar>(x: &[S], order: ReductionOrder) -> S {
    dot_ordered(x, x, order).sqrt()
}

/// Euclidean norm, sequential order.
pub fn norm2<S: Scalar>(x: &[S]) -> S {
    norm2_ordered(x, ReductionOrder::Sequential)
}

/// Maximum absolute entry (infinity norm).
pub fn norm_inf<S: Scalar>(x: &[S]) -> S {
    let mut m = S::zero();
    for &xi in x {
        let a = xi.abs();
        if a > m {
            m = a;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_scalar::Half;

    #[test]
    fn axpy_basic() {
        let x = [1.0f64, 2.0, 3.0];
        let mut y = [10.0f64, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_zero_beta_overwrites() {
        let x = [1.0f32, -2.0];
        let mut y = [5.0f32, 5.0];
        axpby(3.0, &x, 0.0, &mut y);
        assert_eq!(y, [3.0, -6.0]);
    }

    #[test]
    fn dot_matches_manual() {
        let x = [1.0f64, 2.0, 3.0];
        let y = [4.0f64, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
    }

    #[test]
    fn norm_of_unit_axis() {
        let mut e = vec![0.0f64; 100];
        e[37] = -1.0;
        assert_eq!(norm2(&e), 1.0);
        assert_eq!(norm_inf(&e), 1.0);
    }

    #[test]
    fn tree_and_sequential_agree_exactly_on_powers_of_two() {
        // Sums of exactly representable values: both orders are exact.
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ones = vec![1.0f64; 64];
        let seq = dot_ordered(&x, &ones, ReductionOrder::Sequential);
        let tree = dot_ordered(&x, &ones, ReductionOrder::BlockedTree { block: 8 });
        assert_eq!(seq, tree);
        assert_eq!(seq, (0..64).sum::<i64>() as f64);
    }

    #[test]
    fn tree_reduction_is_more_accurate_for_fp32_long_sums() {
        // Classic: summing n equal values in fp32 left-to-right loses
        // accuracy once the running sum dwarfs the addend; the blocked tree
        // keeps partial sums balanced. Verify error(tree) <= error(seq).
        let n = 1 << 20;
        let x = vec![1.0f32; n];
        let ones = vec![1.0f32; n];
        let exact = n as f64;
        let seq = f64::from(dot_ordered(&x, &ones, ReductionOrder::Sequential));
        let tree = f64::from(dot_ordered(&x, &ones, ReductionOrder::GPU_LIKE));
        assert!((tree - exact).abs() <= (seq - exact).abs());
        assert_eq!(tree, exact); // powers of two: tree is exact here
    }

    #[test]
    fn blocked_tree_handles_ragged_tail() {
        let x: Vec<f64> = (0..37).map(|i| 0.1 * i as f64).collect();
        let y: Vec<f64> = (0..37).map(|i| 1.0 - 0.01 * i as f64).collect();
        let seq = dot_ordered(&x, &y, ReductionOrder::Sequential);
        let tree = dot_ordered(&x, &y, ReductionOrder::BlockedTree { block: 5 });
        assert!((seq - tree).abs() < 1e-12 * seq.abs().max(1.0));
    }

    #[test]
    fn works_in_half_precision() {
        let x: Vec<Half> = (0..10).map(|i| Half::from_f32(i as f32)).collect();
        let n = norm2(&x);
        let exact = (0..10).map(|i| (i * i) as f32).sum::<f32>().sqrt();
        assert!((n.to_f32() - exact).abs() < 0.5);
    }

    #[test]
    fn scale_and_fill() {
        let mut x = vec![2.0f64; 5];
        scale(0.5, &mut x);
        assert!(x.iter().all(|&v| v == 1.0));
        fill(&mut x, 7.0);
        assert!(x.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn empty_vectors() {
        let x: [f64; 0] = [];
        assert_eq!(dot(&x, &x), 0.0);
        assert_eq!(norm2(&x), 0.0);
        assert_eq!(norm_inf(&x), 0.0);
        assert_eq!(dot_ordered(&x, &x, ReductionOrder::GPU_LIKE), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        let x = [1.0f64; 3];
        let mut y = [1.0f64; 4];
        axpy(1.0, &x, &mut y);
    }
}
