//! One module per paper artifact; the table is the experiment index.
//!
//! | id          | module               | paper artifact                   |
//! |-------------|----------------------|----------------------------------|
//! | `fig1`      | [`fd_sweep`]         | Fig. 1 (Laplace3D FD sweep)      |
//! | `fig2`      | [`fd_sweep`]         | Fig. 2 (UniFlow2D FD sweep)      |
//! | `fig3`      | [`convergence`]      | Fig. 3 (BentPipe curves)         |
//! | `fig4_table1` | [`kernel_breakdown`] | Fig. 4 + Table I               |
//! | `fig5`      | [`kernel_breakdown`] | Fig. 5 (3-problem speedups)      |
//! | `fig6`      | [`precond_stretched`] | Fig. 6 (preconditioned curves)  |
//! | `fig7`      | [`precond_stretched`] | Fig. 7 (preconditioned timings) |
//! | `vd_model`  | [`spmv_model`]       | §V-D cache/traffic model         |
//! | `table2`    | [`restart_sweep`]    | Table II (BentPipe restarts)     |
//! | `fig8`      | [`restart_sweep`]    | Fig. 8 (Laplace3D restarts)      |
//! | `vf_degrees`| [`poly_degrees`]     | §V-F polynomial stability        |
//! | `table3`    | [`suitesparse`]      | Table III (SuiteSparse sweep)    |

pub mod compbasis;
pub mod convergence;
pub mod fd_sweep;
pub mod kernel_breakdown;
pub mod multiprec;
pub mod multirhs;
pub mod poly_degrees;
pub mod precond_stretched;
pub mod restart_sweep;
pub mod serving;
pub mod spmv_model;
pub mod suitesparse;

use std::path::PathBuf;

use mpgmres::{BackendKind, BasisPolicy, StorePath};

use crate::harness::Scale;

/// Options shared by every experiment.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Problem-size selector.
    pub scale: Scale,
    /// Output directory for result artifacts.
    pub out: PathBuf,
    /// Kernel backend executing the numerics (`--backend`). Changes
    /// wall-clock only; simulated V100 results are backend-independent.
    pub backend: BackendKind,
    /// Right-hand-side block width for the multi-RHS experiment
    /// (`--rhs-block`); width 1 degenerates to single-RHS GMRES.
    pub rhs_block: usize,
    /// Matrix value-storage path for the multiprecision experiment
    /// (`--precision`); always swept alongside the built-in paths.
    pub store: StorePath,
    /// Krylov-basis storage policy (`--basis`); the `compbasis`
    /// experiment always sweeps native/fp32/fp16 regardless.
    pub basis: BasisPolicy,
}

impl ExpOpts {
    /// Default options writing into `results/` on the default backend.
    pub fn new(scale: Scale, out: PathBuf) -> Self {
        ExpOpts {
            scale,
            out,
            backend: BackendKind::default(),
            rhs_block: 4,
            store: StorePath::Native,
            basis: BasisPolicy::Native,
        }
    }

    /// Select the kernel backend (builder style).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Select the multi-RHS block width (builder style, clamped to
    /// >= 1).
    pub fn with_rhs_block(mut self, k: usize) -> Self {
        self.rhs_block = k.max(1);
        self
    }

    /// Select the storage path (builder style).
    pub fn with_store(mut self, store: StorePath) -> Self {
        self.store = store;
        self
    }

    /// Select the Krylov-basis storage policy (builder style).
    pub fn with_basis(mut self, basis: BasisPolicy) -> Self {
        self.basis = basis;
        self
    }
}
