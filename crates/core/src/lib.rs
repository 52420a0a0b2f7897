//! Multiprecision GMRES solvers — the core of the reproduction of
//! *"Experimental Evaluation of Multiprecision Strategies for GMRES on
//! GPUs"* (Loe, Glusa, Yamazaki, Boman, Rajamanickam, IPDPS 2021).
//!
//! Three solver families (paper §III):
//! - [`Gmres`] — restarted GMRES(m) with CGS2, in any one working
//!   precision (`f64`, `f32`, or software `f16`).
//! - [`GmresIr`] — GMRES with iterative refinement: inner low-precision
//!   GMRES(m), outer high-precision residual correction at each restart.
//! - [`GmresFd`] — the float-then-double switching scheme the paper
//!   compares against (and finds inferior to) GMRES-IR.
//!
//! Plus the batched multi-RHS extension: [`BlockGmres`] solves
//! `A X = B` for an `n x k` block ([`MultiVec`]) of right-hand sides by
//! running `k` independent GMRES(m) state machines in lockstep (SpMM
//! instead of SpMV, blocked CGS2, per-column deflation); each column is
//! bit-identical to an independent single-RHS solve. It is the crate's
//! one GMRES driver: [`Gmres`] is its one-lane front.
//!
//! Preconditioners (paper §III-D): [`precond::poly::PolyPreconditioner`]
//! (GMRES polynomial with harmonic Ritz roots and modified Leja
//! ordering), [`precond::block_jacobi::BlockJacobi`], and the
//! mixed-precision wrapper [`precond::mixed::CastPreconditioner`].
//!
//! Execution goes through [`GpuContext`]: numerics run natively in IEEE
//! arithmetic on a pluggable kernel [`Backend`] (sequential reference or
//! std-thread parallel, selected via [`BackendKind`]); time is charged to
//! a calibrated V100 performance model (`mpgmres-gpusim`), giving the
//! paper's per-kernel timing breakdowns identically on every backend.
//!
//! # Example
//!
//! ```
//! use mpgmres::{GmresIr, GpuContext, GpuMatrix, IrConfig, precond::Identity};
//! use mpgmres_gpusim::DeviceModel;
//!
//! // 1D Laplacian, solved to fp64 accuracy with an fp32 inner solver.
//! let n = 64;
//! let mut coo = mpgmres_la::coo::Coo::new(n, n);
//! for i in 0..n {
//!     coo.push(i, i, 2.0f64);
//!     if i > 0 { coo.push(i, i - 1, -1.0); }
//!     if i + 1 < n { coo.push(i, i + 1, -1.0); }
//! }
//! let a = GpuMatrix::new(coo.into_csr());
//! let b = vec![1.0f64; n];
//! let mut x = vec![0.0f64; n];
//!
//! let mut ctx = GpuContext::new(DeviceModel::v100_belos());
//! let ir = GmresIr::<f32, f64>::new(&a, &Identity, IrConfig::default().with_m(20));
//! let result = ir.solve(&mut ctx, &b, &mut x);
//!
//! assert!(result.status.is_converged());
//! assert!(result.final_relative_residual <= 1e-10);
//! println!("simulated V100 solve time: {:.3} ms", ctx.elapsed() * 1e3);
//! ```

pub mod block_gmres;
pub mod config;
pub mod context;
pub mod fd;
pub mod gmres;
pub mod ir;
pub mod ir3;
pub mod precond;
pub mod prelude;
pub mod service;
pub mod status;
pub mod stream;

pub use block_gmres::BlockGmres;
pub use config::{BasisPolicy, GmresConfig, IrConfig, OrthoMethod, SchedulerPolicy, StorePath};
pub use context::{GpuContext, GpuMatrix, GpuStore, Operator};
pub use fd::{FdConfig, FdResult, GmresFd};
pub use gmres::Gmres;
pub use ir::GmresIr;
pub use ir3::{GmresIr3, Ir3Config};
pub use mpgmres_backend::{
    Backend, BackendKind, BackendScalar, ParallelBackend, ReferenceBackend, ScalarBackend,
};
pub use mpgmres_la::multivec::MultiVec;
pub use mpgmres_la::store::MatrixStore;
pub use mpgmres_scalar::{Precision, PrecisionTag};
pub use service::{
    Degradation, Disposition, Qos, RequestId, ServiceConfig, ServiceStats, SolveError,
    SolveOutcome, SolveRequest, Solver, SolverService,
};
pub use status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
pub use stream::{RegionKey, Stream, StreamStats};
