//! One-stop import surface for applications, examples, and binaries:
//! `use mpgmres::prelude::*;` brings in every public type a typical
//! program needs — the four drivers and the serving front end, the
//! request/outcome/error surface, configurations, operand wrappers,
//! preconditioner entry points, and the simulated-device handles —
//! without reaching into crate internals.
//!
//! ```
//! use mpgmres::prelude::*;
//!
//! let mut coo = mpgmres_la::coo::Coo::new(8, 8);
//! for i in 0..8 {
//!     coo.push(i, i, 2.0f64);
//! }
//! let a = GpuMatrix::new(coo.into_csr());
//! let b = vec![1.0f64; 8];
//! let mut ctx = GpuContext::new(DeviceModel::v100_belos());
//! let out = Gmres::serve(&mut ctx, &SolveRequest::new(Operator::Matrix(&a), &b)).unwrap();
//! assert!(out.result.unwrap().status.is_converged());
//! ```

pub use crate::config::{
    BasisPolicy, GmresConfig, IrConfig, OrthoMethod, SchedulerPolicy, StorePath,
};
pub use crate::context::{GpuContext, GpuMatrix, GpuStore, Operator};
pub use crate::fd::{FdConfig, FdResult, GmresFd};
pub use crate::precond::{Identity, Preconditioner};
pub use crate::service::{
    Degradation, Disposition, Qos, RequestId, ServiceConfig, ServiceStats, SolveError,
    SolveOutcome, SolveRequest, Solver, SolverService,
};
pub use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
pub use crate::{BlockGmres, Gmres, GmresIr, GmresIr3, Ir3Config};
pub use mpgmres_backend::{BackendKind, BackendScalar};
pub use mpgmres_gpusim::{DeviceModel, KernelClass};
pub use mpgmres_la::multivec::MultiVec;
pub use mpgmres_scalar::{Half, Precision};
