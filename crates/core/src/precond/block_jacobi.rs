//! Block Jacobi preconditioner (paper §V-G).
//!
//! `M = blockdiag(A_11, A_22, ...)` with dense LU factors per block.
//! Embarrassingly parallel in both setup and application — the property
//! that makes it GPU-friendly where global triangular solves are not
//! (§II). The paper applies it after RCM reordering so strongly coupled
//! unknowns share a block (`mpgmres_la::rcm`).
//!
//! # The apply is one batched kernel
//!
//! [`BlockJacobi::build`] factors every block and packs the factors
//! into a [`BlockLu`] in the same pass:
//!
//! - full blocks go in groups of 16, interleaved as
//!   `[group][row][col][lane]`, so one substitution step of a group
//!   reads one contiguous 16-wide vector per column;
//! - the leftover full blocks and a ragged last block are packed one
//!   block at a time, `[row][col]`;
//! - off-diagonal factor entries are stored negated, the diagonal as
//!   is, and the row pivots become absolute gather indices.
//!
//! The apply is then a single `block_lu_solve` op on a one-op eager
//! [`Stream`], priced like every other kernel and dispatched through
//! the backend. It gathers `x` through the pivots and runs forward and
//! back substitution for all 16 blocks of a group in lockstep, one
//! dependent FMA chain per block, inside one hardware-FMA frame.
//!
//! **Why each block's bits are unchanged.** Every lane performs exactly
//! the operations of `LuFactors::solve_in_place`, in the same order.
//! Negation is exact, so a stored `-lu` fed to `mul_add` rounds like
//! the `(-lu).mul_add(t, acc)` of the per-block solve; rows are divided
//! by the diagonal, never multiplied by a reciprocal; lanes never mix.
//! `mpgmres_la::dense`'s tests pin this bit for bit against per-block
//! solves, in f64, f32 and `Half`, on inputs with ±0, subnormals, ±Inf
//! and NaN.

use mpgmres_backend::BackendScalar;
use mpgmres_la::dense::{BlockLu, DenseMat};
use mpgmres_la::par;
use mpgmres_scalar::Scalar;

use crate::context::{GpuContext, GpuMatrix};
use crate::precond::Preconditioner;
use crate::Stream;

/// Below this many blocks, setup stays sequential (starting a pool for
/// the call would dominate the tiny per-block work). Two threads still
/// pay at 576 blocks of 16: stretched-bj's `setup_s` read a 4.6 ms median on
/// 2 threads against 5.0 ms with the factorization on 1 (6 alternating
/// pairs on a 2-vCPU x86-64 host, 5 better).
const PAR_BLOCK_THRESHOLD: usize = 64;

/// Block Jacobi with dense per-block LU factors.
#[derive(Clone, Debug)]
pub struct BlockJacobi<S> {
    lu: BlockLu<S>,
}

impl<S: Scalar> BlockJacobi<S> {
    /// Factor the diagonal blocks of `A` with the given block size (the
    /// last block may be smaller). Singular blocks fall back to the
    /// identity (counted in [`BlockJacobi::singular_blocks`]), matching
    /// the robust behaviour of production Jacobi smoothers.
    pub fn build(a: &GpuMatrix<S>, block_size: usize) -> Self {
        assert!(block_size >= 1, "block size must be >= 1");
        let n = a.n();
        // Each group of blocks factors and packs independently: parallel
        // setup is deterministic (results depend on position only).
        let threads = if n.div_ceil(block_size) >= PAR_BLOCK_THRESHOLD {
            par::default_threads()
        } else {
            1
        };
        let lu = BlockLu::factor(n, block_size, threads, |s, size| {
            DenseMat::from_col_major(size, size, a.csr().diag_block(s, size))
        });
        BlockJacobi { lu }
    }

    /// Number of diagonal blocks.
    pub fn nblocks(&self) -> usize {
        self.lu.nblocks()
    }

    /// Blocks that were singular and replaced by the identity.
    pub fn singular_blocks(&self) -> usize {
        self.lu.singular_blocks()
    }

    /// Configured block size.
    pub fn block_size(&self) -> usize {
        self.lu.block_size()
    }
}

impl<S: BackendScalar> Preconditioner<S> for BlockJacobi<S> {
    /// All block solves are one batched kernel on a one-op eager stream.
    fn apply(&self, ctx: &mut GpuContext, _a: Option<&GpuMatrix<S>>, x: &[S], y: &mut [S]) {
        let mut st = Stream::eager(ctx);
        let (f, xh, yh) = (st.block_lu(&self.lu), st.slice(x), st.slice_mut(y));
        st.block_lu_solve(f, xh, yh);
    }

    fn dim(&self) -> Option<usize> {
        Some(self.lu.n())
    }

    fn describe(&self) -> String {
        format!("block-jacobi({})", self.block_size())
    }

    fn needs_matrix(&self) -> bool {
        // The factors were extracted at build time; application never
        // touches `A`, so block Jacobi works on packed storage paths too.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::ReductionOrder;

    fn ctx() -> GpuContext {
        GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
    }

    /// Block-diagonal matrix with 2x2 blocks [[3,1],[1,3]].
    fn block_diag(nblocks: usize) -> GpuMatrix<f64> {
        let n = 2 * nblocks;
        let mut coo = Coo::new(n, n);
        for b in 0..nblocks {
            let s = 2 * b;
            coo.push(s, s, 3.0);
            coo.push(s, s + 1, 1.0);
            coo.push(s + 1, s, 1.0);
            coo.push(s + 1, s + 1, 3.0);
        }
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    fn exact_inverse_for_block_diagonal_matrix() {
        let a = block_diag(5);
        let bj = BlockJacobi::build(&a, 2);
        assert_eq!(bj.nblocks(), 5);
        assert_eq!(bj.singular_blocks(), 0);
        let x: Vec<f64> = (0..10).map(|i| i as f64 - 4.0).collect();
        let mut ax = vec![0.0; 10];
        a.csr().spmv(&x, &mut ax);
        let mut y = vec![0.0; 10];
        Preconditioner::apply(&bj, &mut ctx(), Some(&a), &ax, &mut y);
        for (yi, xi) in y.iter().zip(&x) {
            assert!((yi - xi).abs() < 1e-13, "M^-1 A x != x: {yi} vs {xi}");
        }
    }

    #[test]
    fn point_jacobi_scales_by_diagonal() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 2.0f64);
        coo.push(1, 1, 4.0);
        coo.push(2, 2, 8.0);
        coo.push(0, 1, 1.0); // off-diagonal ignored by J1
        let a = GpuMatrix::new(coo.into_csr());
        let bj = BlockJacobi::build(&a, 1);
        let mut y = vec![0.0; 3];
        Preconditioner::apply(&bj, &mut ctx(), Some(&a), &[2.0, 4.0, 8.0], &mut y);
        assert_eq!(y, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn ragged_last_block() {
        let a = block_diag(3); // n = 6
        let bj = BlockJacobi::build(&a, 4); // blocks of 4 and 2
        assert_eq!(bj.nblocks(), 2);
        let mut y = vec![0.0; 6];
        Preconditioner::apply(&bj, &mut ctx(), Some(&a), &[1.0; 6], &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn singular_block_falls_back_to_identity() {
        // Diagonal [1, 0, 1]: the middle 1x1 block is singular.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0f64);
        coo.push(1, 1, 0.0);
        coo.push(2, 2, 1.0);
        let a = GpuMatrix::new(coo.into_csr());
        let bj = BlockJacobi::build(&a, 1);
        assert_eq!(bj.singular_blocks(), 1);
        let mut y = vec![0.0; 3];
        Preconditioner::apply(&bj, &mut ctx(), Some(&a), &[5.0, 7.0, 9.0], &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]); // identity fallback passes through
    }

    #[test]
    fn works_in_fp32() {
        let a = block_diag(4).convert::<f32>();
        let bj = BlockJacobi::build(&a, 2);
        let mut y = vec![0.0f32; 8];
        Preconditioner::apply(&bj, &mut ctx(), Some(&a), &[1.0f32; 8], &mut y);
        // [[3,1],[1,3]] solve of [1,1] is [0.25, 0.25].
        for v in &y {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn apply_charges_time() {
        let a = block_diag(4);
        let bj = BlockJacobi::build(&a, 2);
        let mut c = ctx();
        let mut y = vec![0.0; 8];
        Preconditioner::apply(&bj, &mut c, Some(&a), &[1.0; 8], &mut y);
        assert!(c.elapsed() > 0.0);
    }
}
