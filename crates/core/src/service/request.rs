//! The unified request surface: one [`SolveRequest`] type accepted by
//! every driver ([`crate::Gmres`] and [`crate::BlockGmres`] through the
//! block driver's front, [`crate::GmresIr`] and [`crate::GmresIr3`]
//! through the one refinement front) and by the continuous
//! [`crate::service::SolverService`], one [`SolveOutcome`] coming back,
//! and one typed [`SolveError`] for everything the boundary used to
//! reject with a panic.

use mpgmres_backend::BackendScalar;

use crate::config::{GmresConfig, StorePath};
use crate::context::{GpuContext, Operator};
use crate::precond::{Identity, Preconditioner};
use crate::status::SolveResult;

/// Per-request quality-of-service contract, carried on
/// [`SolveRequest`] and interpreted by the service scheduler only —
/// QoS steers *ordering and lane assignment*, never arithmetic, so a
/// request completes bit-identical to an independent solve at its
/// final configuration no matter what QoS it carried.
///
/// `Qos::default()` reproduces the pre-QoS service exactly: priority
/// 0, no deadline, not degradable.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Qos {
    /// Scheduling weight under [`SchedulerPolicy::Priority`]: higher
    /// values admit first (ties break by submission order).
    ///
    /// [`SchedulerPolicy::Priority`]: crate::config::SchedulerPolicy::Priority
    pub priority: i32,
    /// Relative deadline in simulated seconds from submission. Expiry
    /// resolves at cycle barriers exactly like cancellation: the
    /// request leaves as [`Disposition::DeadlineExceeded`] with the
    /// iterate of the last completed barrier (the initial guess if it
    /// never got a lane). `None` means no deadline.
    pub deadline: Option<f64>,
    /// Whether the service may re-route this request down the
    /// precision ladder (native → fp32 store → fp32 basis) when its
    /// queue wait exceeds [`ServiceConfig::degrade_after_cycles`] —
    /// the degraded configuration still converges to the request's
    /// fp64 `rtol`, a few restarts late.
    ///
    /// [`ServiceConfig::degrade_after_cycles`]: crate::service::ServiceConfig::degrade_after_cycles
    pub degradable: bool,
}

/// Which rung of the precision ladder a degraded request landed on,
/// reported on [`SolveOutcome::degraded`] so callers (and the parity
/// tests) can reconstruct the *final* configuration the solve ran at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// Matrix values re-routed to a registered fp32
    /// [`GpuStore`](crate::GpuStore) operand (same basis, same config).
    Fp32Store,
    /// Krylov basis re-routed to fp32 compressed storage (config's
    /// basis policy swapped, loss-of-accuracy factor raised).
    Fp32Basis,
    /// Both rungs taken: fp32 store operand and fp32 compressed basis.
    Fp32StoreAndBasis,
}

impl Degradation {
    /// The loss-of-accuracy factor floor a compressed-basis rung
    /// raises the config to: the fp32 basis pins the implicit/explicit
    /// residual gap near storage precision, and the restart loop
    /// refines through it (the PR 9 contract), so the LoA monitor must
    /// not abort the refinement.
    const BASIS_LOA_FLOOR: f64 = 1e8;

    /// The configuration a request degraded by `self` actually ran
    /// at, given the configuration it was submitted with. The store
    /// rung changes the operand, not the config; the basis rungs swap
    /// the basis policy and raise the LoA floor.
    pub fn apply(self, cfg: GmresConfig) -> GmresConfig {
        match self {
            Degradation::Fp32Store => cfg,
            Degradation::Fp32Basis | Degradation::Fp32StoreAndBasis => {
                let loa = cfg.loa_factor.max(Self::BASIS_LOA_FLOOR);
                cfg.with_basis(crate::config::BasisPolicy::Compressed(
                    mpgmres_scalar::Precision::Fp32,
                ))
                .with_loa_factor(loa)
            }
        }
    }

    /// The rung a request lands on when it degrades again: a store
    /// rung followed by a basis rung is both; the ladder never revisits
    /// a rung, so every other combination is just the newer rung.
    pub(crate) fn combined_with(self, next: Degradation) -> Degradation {
        match (self, next) {
            (Degradation::Fp32Store, Degradation::Fp32Basis) => Degradation::Fp32StoreAndBasis,
            (_, next) => next,
        }
    }

    /// Short label for stats tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Degradation::Fp32Store => "fp32-store",
            Degradation::Fp32Basis => "fp32-basis",
            Degradation::Fp32StoreAndBasis => "fp32-store+basis",
        }
    }
}

/// One linear solve, fully described: operand, right-hand side,
/// optional initial guess, solver configuration, storage path, right
/// preconditioner, and the tenant the request belongs to.
///
/// Two lifetimes: `'a` is the long-lived solver state (operand and
/// preconditioner — what a [`crate::service::SolverService`] keeps
/// borrowing between requests), `'r` the per-request payload (`rhs`,
/// `x0` — copied at submission, so it may be as short-lived as one
/// loop iteration).
///
/// ```
/// use mpgmres::prelude::*;
/// # let mut coo = mpgmres_la::coo::Coo::new(4, 4);
/// # for i in 0..4 { coo.push(i, i, 2.0f64); }
/// # let a = GpuMatrix::new(coo.into_csr());
/// let b = vec![1.0f64; 4];
/// let req = SolveRequest::new(Operator::Matrix(&a), &b)
///     .with_config(GmresConfig::default().with_m(10));
/// let mut ctx = GpuContext::new(DeviceModel::v100_belos());
/// let out = Gmres::serve(&mut ctx, &req).unwrap();
/// assert!(out.result.unwrap().status.is_converged());
/// ```
#[derive(Clone, Copy)]
pub struct SolveRequest<'a, 'r, S> {
    /// The operand `A`.
    pub operator: Operator<'a, S>,
    /// Right-hand side `b` (length `n`).
    pub rhs: &'r [S],
    /// Initial guess (length `n`); zero when absent.
    pub x0: Option<&'r [S]>,
    /// Solver configuration (restart length, tolerance, caps, ...).
    pub config: GmresConfig,
    /// Storage path for drivers that build their own low-precision
    /// operand copies (the IR drivers, or the direct drivers when the
    /// operand is a plain matrix). [`StorePath::Native`] means "as
    /// given".
    pub store: StorePath,
    /// Right preconditioner (identity by default).
    pub precond: &'a dyn Preconditioner<S>,
    /// Tenant tag: requests from different tenants never share lane
    /// groups in the service.
    pub tenant: u32,
    /// Quality-of-service contract (priority, deadline, degradability)
    /// — scheduling only, never arithmetic.
    pub qos: Qos,
}

impl<'a, 'r, S: BackendScalar> SolveRequest<'a, 'r, S> {
    /// A request with the default configuration, identity
    /// preconditioner, native storage, zero initial guess, tenant 0.
    pub fn new(operator: Operator<'a, S>, rhs: &'r [S]) -> Self {
        SolveRequest {
            operator,
            rhs,
            x0: None,
            config: GmresConfig::default(),
            store: StorePath::Native,
            precond: &Identity,
            tenant: 0,
            qos: Qos::default(),
        }
    }

    /// Builder-style initial guess.
    pub fn with_x0(mut self, x0: &'r [S]) -> Self {
        self.x0 = Some(x0);
        self
    }

    /// Builder-style solver configuration.
    pub fn with_config(mut self, config: GmresConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder-style storage path.
    pub fn with_store(mut self, store: StorePath) -> Self {
        self.store = store;
        self
    }

    /// Builder-style right preconditioner.
    pub fn with_precond(mut self, precond: &'a dyn Preconditioner<S>) -> Self {
        self.precond = precond;
        self
    }

    /// Builder-style tenant tag.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Builder-style scheduling priority (see [`Qos::priority`]).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.qos.priority = priority;
        self
    }

    /// Builder-style relative deadline in simulated seconds (see
    /// [`Qos::deadline`]). Must be positive and finite — `validate()`
    /// rejects a deadline of zero rather than expiring the request at
    /// its own submission barrier.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.qos.deadline = Some(deadline);
        self
    }

    /// Builder-style degradability flag (see [`Qos::degradable`]).
    pub fn with_degradable(mut self, degradable: bool) -> Self {
        self.qos.degradable = degradable;
        self
    }

    /// Solve from this request's initial guess (zero when absent) and
    /// return the completed one-shot outcome, timed on `ctx`: the tail of
    /// every driver's [`Solver::serve`].
    pub(crate) fn run_once(
        &self,
        ctx: &mut GpuContext,
        solve: impl FnOnce(&mut GpuContext, &[S], &mut [S]) -> SolveResult,
    ) -> SolveOutcome<S> {
        let mut x = self
            .x0
            .map_or_else(|| vec![S::zero(); self.operator.n()], <[S]>::to_vec);
        let start = ctx.elapsed();
        let result = solve(ctx, self.rhs, &mut x);
        SolveOutcome {
            id: RequestId(0),
            x,
            result: Some(result),
            disposition: Disposition::Completed,
            degraded: None,
            queued_seconds: 0.0,
            solve_seconds: ctx.elapsed() - start,
        }
    }

    /// Check everything the drivers used to `assert!` at the boundary:
    /// dimensions, finite inputs, configuration, and
    /// operand/preconditioner compatibility. An empty system (a 0 x 0
    /// operator with an empty right-hand side) is valid: it is solved
    /// like a zero right-hand side, with the trivial converged result
    /// (0 iterations, relative residual 0).
    pub fn validate(&self) -> Result<(), SolveError> {
        self.config.validate()?;
        let n = self.operator.n();
        if self.operator.ncols() != n {
            return Err(SolveError::DimensionMismatch {
                what: "operator columns",
                expected: n,
                got: self.operator.ncols(),
            });
        }
        if self.rhs.len() != n {
            return Err(SolveError::DimensionMismatch {
                what: "rhs length",
                expected: n,
                got: self.rhs.len(),
            });
        }
        if let Some(x0) = self.x0 {
            if x0.len() != n {
                return Err(SolveError::DimensionMismatch {
                    what: "initial guess length",
                    expected: n,
                    got: x0.len(),
                });
            }
        }
        crate::precond::check_dim(self.precond, n)?;
        for (what, v) in [("rhs", Some(self.rhs)), ("initial guess", self.x0)] {
            if let Some(index) = v.and_then(|v| v.iter().position(|e| !e.is_finite())) {
                return Err(SolveError::NonFinite { what, index });
            }
        }
        let packed =
            matches!(self.operator, Operator::Store(_)) || !matches!(self.store, StorePath::Native);
        if packed && self.precond.needs_matrix() {
            return Err(SolveError::UnsupportedCombination(format!(
                "preconditioner '{}' needs the plain matrix, which a packed \
                 storage path does not carry; use a matrix-free preconditioner \
                 (identity, block Jacobi, or a cast wrapper owning its own copy)",
                self.precond.describe()
            )));
        }
        if let Some(d) = self.qos.deadline {
            if !(d > 0.0) || !d.is_finite() {
                return Err(SolveError::InvalidConfig(format!(
                    "deadline must be a positive, finite number of simulated \
                     seconds; got {d}"
                )));
            }
        }
        if self.qos.degradable && self.precond.needs_matrix() {
            return Err(SolveError::UnsupportedCombination(format!(
                "preconditioner '{}' needs the plain matrix, so the request \
                 cannot ride the precision-degradation ladder (its fp32 store \
                 rung packs the matrix away); drop `degradable` or use a \
                 matrix-free preconditioner",
                self.precond.describe()
            )));
        }
        Ok(())
    }
}

/// The unified driver entry point: every solver in the crate serves a
/// [`SolveRequest`] through this one trait, so call sites pick a
/// driver by *type* and keep a single signature.
///
/// Implemented by [`crate::Gmres`] (the single-RHS front, which
/// forwards to the block serve), [`crate::BlockGmres`] (k = 1 block
/// serve), and the two refinement drivers, which share one front:
/// [`crate::GmresIr`] (two-precision iterative refinement) and
/// [`crate::GmresIr3`] (a `GmresIr` nested in a `GmresIr`).
/// Exported from `mpgmres::prelude`, so `Driver::serve(&mut ctx, &req)`
/// resolves wherever the prelude is in scope.
///
/// ```
/// use mpgmres::prelude::*;
/// # let mut coo = mpgmres_la::coo::Coo::new(4, 4);
/// # for i in 0..4 { coo.push(i, i, 2.0f64); }
/// # let a = GpuMatrix::new(coo.into_csr());
/// let b = vec![1.0f64; 4];
/// let req = SolveRequest::new(Operator::Matrix(&a), &b);
/// let mut ctx = GpuContext::new(DeviceModel::v100_belos());
/// // Same request, two drivers, one signature.
/// let direct = Gmres::serve(&mut ctx, &req).unwrap();
/// let refined = GmresIr::<f32, f64>::serve(&mut ctx, &req).unwrap();
/// assert!(direct.result.unwrap().status.is_converged());
/// assert!(refined.result.unwrap().status.is_converged());
/// ```
pub trait Solver<'a, S: BackendScalar> {
    /// Serve one request end to end: validate, solve, and wrap the
    /// solution, terminal result, and simulated timings in a
    /// [`SolveOutcome`].
    fn serve(
        ctx: &mut crate::context::GpuContext,
        req: &SolveRequest<'a, '_, S>,
    ) -> Result<SolveOutcome<S>, SolveError>;
}

/// Identifier handed back by [`crate::service::SolverService::submit`];
/// one-shot driver serves always report id 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl core::fmt::Display for RequestId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// How a request left the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Ran to a terminal solver status (converged or not — inspect
    /// [`SolveOutcome::result`]).
    Completed,
    /// Cancelled before reaching a terminal status (in queue, or at a
    /// cycle barrier mid-solve).
    Cancelled,
    /// The request's [`Qos::deadline`] passed before a terminal status.
    /// Resolved at cycle barriers exactly like cancellation: the
    /// outcome carries the iterate of the last completed barrier and
    /// maps to [`SolveError::DeadlineExceeded`] via
    /// [`SolveOutcome::error`].
    DeadlineExceeded,
}

/// The answer to one [`SolveRequest`].
#[derive(Clone, Debug)]
pub struct SolveOutcome<S> {
    /// The id echoed from submission (0 for one-shot serves).
    pub id: RequestId,
    /// The solution (or, for cancelled requests, the iterate as of the
    /// last completed cycle barrier).
    pub x: Vec<S>,
    /// Terminal solver result; `None` exactly when the request was
    /// cancelled before resolving.
    pub result: Option<SolveResult>,
    /// Completed, cancelled, or expired.
    pub disposition: Disposition,
    /// The precision-ladder rung the service degraded this request to
    /// (`None` when it ran at its submitted configuration). The final
    /// configuration is `degraded.apply(submitted_config)` — and for
    /// the store rungs, the registered fp32 store operand.
    pub degraded: Option<Degradation>,
    /// Simulated seconds spent queued before lane admission.
    pub queued_seconds: f64,
    /// Simulated seconds from lane admission to the terminal barrier.
    pub solve_seconds: f64,
}

impl<S> SolveOutcome<S> {
    /// The typed error a non-completed disposition corresponds to —
    /// `Some(SolveError::DeadlineExceeded)` for an expired request,
    /// `None` for completed and cancelled outcomes (cancellation was
    /// the caller's own doing, not an error).
    pub fn error(&self) -> Option<SolveError> {
        match self.disposition {
            Disposition::DeadlineExceeded => Some(SolveError::DeadlineExceeded { id: self.id }),
            Disposition::Completed | Disposition::Cancelled => None,
        }
    }
}

/// Typed rejection at the request surface. Everything here used to be
/// an `assert!` inside the drivers; the internal invariants those
/// asserts also guarded remain as `debug_assert!`s.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// A buffer length does not match the operand dimension.
    DimensionMismatch {
        /// Which buffer.
        what: &'static str,
        /// The operand dimension it must match.
        expected: usize,
        /// What was handed in.
        got: usize,
    },
    /// The right-hand side or initial guess holds a NaN or infinity.
    /// Rejected at the surface: a poisoned vector would otherwise be
    /// admitted and come back as a `Breakdown` result.
    NonFinite {
        /// Which buffer.
        what: &'static str,
        /// Index of the first non-finite entry.
        index: usize,
    },
    /// The [`GmresConfig`] is out of range (restart length 0, NaN
    /// tolerance, ...).
    InvalidConfig(String),
    /// The request combines features that cannot run together (e.g. a
    /// matrix-needing preconditioner over a packed storage path).
    UnsupportedCombination(String),
    /// A [`RequestId`] the service has no record of (already drained,
    /// or never submitted).
    UnknownRequest {
        /// The offending id.
        id: RequestId,
    },
    /// Backpressure: the target group's queue is at
    /// [`ServiceConfig::queue_cap`]. Carries a retry hint derived from
    /// the group's occupancy history — roughly how many service cycles
    /// until the queue has drained a lane's worth of work.
    ///
    /// [`ServiceConfig::queue_cap`]: crate::service::ServiceConfig::queue_cap
    QueueFull {
        /// Requests already waiting in the target group's queue.
        pending: usize,
        /// Estimated [`crate::service::SolverService::step`] calls
        /// until a queue slot frees (always at least 1).
        retry_after_cycles: usize,
    },
    /// The request's [`Qos::deadline`] passed before it reached a
    /// terminal status; the outcome left as
    /// [`Disposition::DeadlineExceeded`] with the last-barrier iterate.
    DeadlineExceeded {
        /// The expired request.
        id: RequestId,
    },
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolveError::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} mismatch: expected {expected}, got {got}")
            }
            SolveError::NonFinite { what, index } => {
                write!(f, "{what} holds a non-finite value at index {index}")
            }
            SolveError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SolveError::UnsupportedCombination(msg) => {
                write!(f, "unsupported combination: {msg}")
            }
            SolveError::UnknownRequest { id } => write!(f, "unknown request {id}"),
            SolveError::QueueFull {
                pending,
                retry_after_cycles,
            } => write!(
                f,
                "queue full ({pending} pending); retry after ~{retry_after_cycles} cycles"
            ),
            SolveError::DeadlineExceeded { id } => {
                write!(f, "request {id} exceeded its deadline")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{GpuMatrix, GpuStore};
    use crate::precond::block_jacobi::BlockJacobi;
    use mpgmres_la::coo::Coo;
    use mpgmres_scalar::Precision;

    /// A preconditioner that keeps the default `needs_matrix() == true`.
    struct NeedsMatrix;

    impl Preconditioner<f64> for NeedsMatrix {
        fn apply(&self, _: &mut GpuContext, _: Option<&GpuMatrix<f64>>, x: &[f64], y: &mut [f64]) {
            y.copy_from_slice(x);
        }

        fn describe(&self) -> String {
            "needs-matrix".into()
        }
    }

    fn laplace1d(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    fn validate_catches_dimension_mismatches() {
        let a = laplace1d(8);
        let b = vec![1.0f64; 7];
        let err = SolveRequest::new(Operator::Matrix(&a), &b)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::DimensionMismatch {
                what: "rhs length",
                expected: 8,
                got: 7
            }
        );
        let b = vec![1.0f64; 8];
        let x0 = vec![0.0f64; 9];
        let err = SolveRequest::new(Operator::Matrix(&a), &b)
            .with_x0(&x0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    }

    /// A preconditioner built for another size passes no other check;
    /// without the dimension check its apply panics mid-solve.
    #[test]
    fn validate_rejects_a_preconditioner_of_another_size() {
        let a = laplace1d(6);
        let b = vec![1.0f64; 6];
        let want = SolveError::DimensionMismatch {
            what: "preconditioner dimension",
            expected: 6,
            got: 8,
        };
        let bj = BlockJacobi::build(&laplace1d(8), 2);
        let cast = crate::precond::mixed::CastPreconditioner::<f64, f32, _>::new(
            laplace1d(8).convert::<f32>(),
            Identity,
        );
        let store = GpuStore::shadow_of(&a, Precision::Fp32);
        for p in [&bj as &dyn Preconditioner<f64>, &cast] {
            for op in [Operator::Matrix(&a), Operator::Store(&store)] {
                let err = SolveRequest::new(op, &b)
                    .with_precond(p)
                    .validate()
                    .unwrap_err();
                assert_eq!(err, want);
            }
        }
        let fits = BlockJacobi::build(&a, 4);
        assert_eq!(
            SolveRequest::new(Operator::Matrix(&a), &b)
                .with_precond(&fits)
                .validate(),
            Ok(())
        );
    }

    /// A 3x2 operator has as many rows as a length-3 rhs, so only a
    /// column check keeps it from reaching the kernels.
    #[test]
    fn validate_rejects_a_non_square_operator() {
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 0, 1.0);
        let a = GpuMatrix::new(coo.into_csr());
        let b = vec![1.0f64; 3];
        let want = SolveError::DimensionMismatch {
            what: "operator columns",
            expected: 3,
            got: 2,
        };
        let err = SolveRequest::new(Operator::Matrix(&a), &b)
            .validate()
            .unwrap_err();
        assert_eq!(err, want);
        let store = GpuStore::shadow_of(&a, Precision::Fp32);
        let err = SolveRequest::new(Operator::Store(&store), &b)
            .validate()
            .unwrap_err();
        assert_eq!(err, want);
    }

    #[test]
    fn validate_rejects_non_finite_inputs() {
        let a = laplace1d(8);
        let clean = vec![1.0f64; 8];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = clean.clone();
            poisoned[5] = bad;
            let err = SolveRequest::new(Operator::Matrix(&a), &poisoned)
                .validate()
                .unwrap_err();
            assert_eq!(
                err,
                SolveError::NonFinite {
                    what: "rhs",
                    index: 5
                },
                "{bad}"
            );
            let err = SolveRequest::new(Operator::Matrix(&a), &clean)
                .with_x0(&poisoned)
                .validate()
                .unwrap_err();
            assert_eq!(
                err,
                SolveError::NonFinite {
                    what: "initial guess",
                    index: 5
                },
                "{bad}"
            );
        }
        // A wrong length is still reported as a dimension mismatch.
        let short = vec![f64::NAN; 7];
        let err = SolveRequest::new(Operator::Matrix(&a), &short)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        // The one-shot drivers reject it too.
        let mut ctx = crate::context::GpuContext::new(mpgmres_gpusim::DeviceModel::v100_belos());
        let mut poisoned = clean.clone();
        poisoned[0] = f64::NAN;
        let req = SolveRequest::new(Operator::Matrix(&a), &poisoned);
        assert!(matches!(
            crate::Gmres::serve(&mut ctx, &req),
            Err(SolveError::NonFinite { .. })
        ));
    }

    #[test]
    fn validate_catches_bad_config() {
        let a = laplace1d(8);
        let b = vec![1.0f64; 8];
        let cfg = GmresConfig {
            m: 0,
            ..GmresConfig::default()
        };
        let err = SolveRequest::new(Operator::Matrix(&a), &b)
            .with_config(cfg)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidConfig(_)));
    }

    #[test]
    fn matrix_needing_preconditioner_rejected_on_packed_paths() {
        let a = laplace1d(8);
        let bj = BlockJacobi::build(&a, 2);
        let b = vec![1.0f64; 8];
        // Block Jacobi never touches A at apply time: fine on a shadow path.
        assert!(SolveRequest::new(Operator::Matrix(&a), &b)
            .with_store(StorePath::Shadow(Precision::Fp32))
            .with_precond(&bj)
            .validate()
            .is_ok());
        // A preconditioner that needs the plain matrix: rejected.
        let err = SolveRequest::new(Operator::Matrix(&a), &b)
            .with_store(StorePath::Shadow(Precision::Fp32))
            .with_precond(&NeedsMatrix)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedCombination(_)));
    }

    #[test]
    fn errors_display() {
        let msgs = [
            SolveError::DimensionMismatch {
                what: "rhs length",
                expected: 4,
                got: 3,
            }
            .to_string(),
            SolveError::InvalidConfig("m = 0".into()).to_string(),
            SolveError::UnsupportedCombination("x".into()).to_string(),
            SolveError::UnknownRequest { id: RequestId(7) }.to_string(),
            SolveError::QueueFull {
                pending: 9,
                retry_after_cycles: 3,
            }
            .to_string(),
            SolveError::DeadlineExceeded { id: RequestId(8) }.to_string(),
            SolveError::NonFinite {
                what: "rhs",
                index: 2,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("expected 4"));
        assert!(msgs[3].contains("req#7"));
        assert!(msgs[4].contains("9 pending") && msgs[4].contains('3'));
        assert!(msgs[5].contains("req#8") && msgs[5].contains("deadline"));
        assert!(msgs[6].contains("rhs") && msgs[6].contains("index 2"));
    }

    #[test]
    fn default_qos_is_backward_compatible() {
        let q = Qos::default();
        assert_eq!(q.priority, 0);
        assert_eq!(q.deadline, None);
        assert!(!q.degradable);
        let a = laplace1d(8);
        let b = vec![1.0f64; 8];
        let req = SolveRequest::new(Operator::Matrix(&a), &b);
        assert_eq!(req.qos, Qos::default());
        assert!(req.validate().is_ok());
    }

    #[test]
    fn qos_builders_compose() {
        let a = laplace1d(8);
        let b = vec![1.0f64; 8];
        let req = SolveRequest::new(Operator::Matrix(&a), &b)
            .with_priority(7)
            .with_deadline(0.25)
            .with_degradable(true);
        assert_eq!(req.qos.priority, 7);
        assert_eq!(req.qos.deadline, Some(0.25));
        assert!(req.qos.degradable);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn validate_rejects_nonpositive_or_nonfinite_deadlines() {
        let a = laplace1d(8);
        let b = vec![1.0f64; 8];
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SolveRequest::new(Operator::Matrix(&a), &b)
                .with_deadline(bad)
                .validate()
                .unwrap_err();
            assert!(matches!(err, SolveError::InvalidConfig(_)), "{bad}");
        }
    }

    #[test]
    fn validate_rejects_degradable_with_matrix_bound_preconditioner() {
        let a = laplace1d(8);
        let b = vec![1.0f64; 8];
        let err = SolveRequest::new(Operator::Matrix(&a), &b)
            .with_precond(&NeedsMatrix)
            .with_degradable(true)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedCombination(_)));
        // Matrix-free preconditioners stay degradable.
        let bj = BlockJacobi::build(&a, 2);
        assert!(SolveRequest::new(Operator::Matrix(&a), &b)
            .with_precond(&bj)
            .with_degradable(true)
            .validate()
            .is_ok());
    }

    #[test]
    fn degradation_rungs_compose_and_apply() {
        use crate::config::BasisPolicy;
        let cfg = GmresConfig::default().with_rtol(1e-8);
        let store_cfg = Degradation::Fp32Store.apply(cfg);
        assert_eq!(store_cfg.basis, BasisPolicy::Native);
        let basis_cfg = Degradation::Fp32Basis.apply(cfg);
        assert_eq!(basis_cfg.basis, BasisPolicy::Compressed(Precision::Fp32));
        assert!(basis_cfg.loa_factor >= 1e8);
        assert_eq!(
            Degradation::Fp32Store.combined_with(Degradation::Fp32Basis),
            Degradation::Fp32StoreAndBasis
        );
        assert_eq!(Degradation::Fp32StoreAndBasis.label(), "fp32-store+basis");
    }
}
