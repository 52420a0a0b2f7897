//! Batched multi-RHS restarted GMRES(m): `k` independent solves in
//! lockstep, sharing kernel launches — optionally software-pipelined.
//!
//! [`BlockGmres`] solves `A X = B` for a block of `k` right-hand sides.
//! It is **not** a block-Krylov method: each column keeps its own Krylov
//! basis, Hessenberg recurrence, and convergence state, and the solver
//! runs the `k` state machines in lockstep so that every iteration's
//! SpMV becomes one SpMM (the matrix is read once per block instead of
//! once per column — the §V-D bandwidth argument, and the kernel shape
//! Aliaga et al.'s multi-RHS work targets on GPUs) and the CGS2
//! projections become batched GEMM-shaped calls.
//!
//! # Software pipelining (`GmresConfig::pipeline_depth = 1`)
//!
//! The lockstep driver syncs every lane at every iteration to run its
//! host-side Givens rotations and convergence test — the host step
//! serializes against the device stream, which is exactly the
//! launch-latency exposure the paper's GPU runs pay. The pipelined
//! variant defers each lane's host step one iteration: iteration `j`'s
//! Givens/update bookkeeping is recorded into iteration `j+1`'s region
//! as a *host node* whose read spans are the previous-parity
//! norm/coefficient buffers (`h`/`norms` ping-pong by iteration
//! parity), so the dependency DAG itself proves the lagged host work
//! conflicts with nothing the in-flight SpMM + blocked-CGS2 kernels
//! touch — and the overlap-aware timeline hides the host latency
//! behind them. At the cycle barrier the per-lane least-squares solves
//! become host nodes feeding each lane's own update chain, so lane
//! `l`'s host step overlaps the other lanes' device work.
//!
//! The pipelining changes *when the simulated timeline charges the host
//! work*, never what executes: the arithmetic runs in the identical
//! order as lockstep, so per-lane results are bit-identical by
//! construction (pinned in `stream_parity.rs`) and the serial
//! accounting is unchanged — only `overlap_ratio()` improves.
//!
//! # One driver
//!
//! This module is the crate's only GMRES(m) driver: the cycle, restart,
//! Belos loss-of-accuracy and deflation policy live here and nowhere
//! else. The single-RHS [`Gmres`] is a one-lane front over it, the
//! serving engine runs its lanes directly, and `GmresIr`'s one
//! refinement loop (which `GmresIr3` nests) runs one of its cycles per
//! refinement step.
//! The loss-of-accuracy restart rule that compressed-basis solves lean
//! on (Aliaga et al., arXiv:2009.12101) therefore has one home.
//!
//! # Determinism contract
//!
//! Because every batched kernel preserves the per-column operation order
//! of its single-vector counterpart (see `mpgmres-backend`'s multi-RHS
//! contract), each column's solution, iteration history, and terminal
//! status are **bit-for-bit identical** to an independent single-RHS
//! solve of that column, on every backend and at every pipeline depth.
//! The test suites hold this contract against a textbook GMRES(m)
//! oracle written on plain slices (`tests/common/oracle.rs`), not
//! against a second driver. At width 1 every block cost collapses to the
//! single-vector cost; `block_parity.rs` pins the simulated timing
//! report of fixed one-lane solves (serial seconds and per-category
//! calls, bytes and seconds) so driver edits cannot move it silently.
//!
//! # Deflation
//!
//! Columns converge at different iterations. A column whose cycle ends
//! in a terminal state (converged, breakdown, iteration cap) is
//! *deflated*: it stops participating and subsequent batched kernels run
//! over the compacted block of still-active columns, so a nearly-done
//! block doesn't keep paying full-width kernels. Within a cycle, a
//! column that exits early (implicit convergence or breakdown) simply
//! idles until the cycle barrier — cycles stay globally synchronized,
//! which is what keeps the batched projections a uniform width.
//!
//! [`Gmres`]: crate::gmres::Gmres

use crate::config::{GmresConfig, OrthoMethod, StorePath};
use crate::context::{GpuContext, GpuMatrix, GpuStore};
use crate::precond::{self, Preconditioner};
use crate::service::{Operator, SolveError, SolveOutcome, SolveRequest, Solver};
use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
use crate::stream::{
    ArgSlice, ArgSliceMut, BasisMut, BlockMut, BlockRef, MatRef, StoreRef, Stream,
};
use mpgmres_backend::BackendScalar;
use mpgmres_la::basis::BasisStore;
use mpgmres_la::givens::GivensLsq;
use mpgmres_la::multivec::MultiVec;

/// The solver's system operator: either a plain working-precision
/// [`GpuMatrix`] (the baseline) or a [`GpuStore`] whose values ride a
/// low-precision storage path while the vectors stay in `S`.
enum Operand<'a, S> {
    Plain(&'a GpuMatrix<S>),
    Store(&'a GpuStore<S>),
}

/// A registered operand handle inside one recording region.
#[derive(Clone, Copy)]
enum OpRef<S> {
    Mat(MatRef<S>),
    Store(StoreRef<S>),
}

impl<'a, S: BackendScalar> Operand<'a, S> {
    fn n(&self) -> usize {
        match self {
            Operand::Plain(a) => a.n(),
            Operand::Store(a) => a.n(),
        }
    }

    /// The plain matrix, for the preconditioner interface. `None` on
    /// store paths — the boundary rejects preconditioners that need the
    /// matrix there (`needs_matrix()`), so applies receiving `None` are
    /// ones that work without it (block Jacobi, cast wrappers).
    fn plain_opt(&self) -> Option<&'a GpuMatrix<S>> {
        match self {
            Operand::Plain(a) => Some(a),
            Operand::Store(_) => None,
        }
    }

    fn register<'c>(&self, st: &mut Stream<'c>) -> OpRef<S>
    where
        'a: 'c,
    {
        match *self {
            Operand::Plain(a) => OpRef::Mat(st.matrix(a)),
            Operand::Store(a) => OpRef::Store(st.store(a)),
        }
    }
}

/// Record the fused residual `r = b - A x` against either operand kind
/// (both charge as a solver SpMV).
fn rec_residual<S: BackendScalar>(
    st: &mut Stream<'_>,
    op: OpRef<S>,
    b: ArgSlice<S>,
    x: ArgSlice<S>,
    r: ArgSliceMut<S>,
) {
    match op {
        OpRef::Mat(a) => st.residual_as(mpgmres_gpusim::KernelClass::SpMV, a, b, x, r),
        OpRef::Store(a) => st.store_residual_as(mpgmres_gpusim::KernelClass::SpMV, a, b, x, r),
    }
}

/// Record the batched SpMM against either operand kind.
fn rec_spmm<S: BackendScalar>(
    st: &mut Stream<'_>,
    op: OpRef<S>,
    x: BlockRef<S>,
    k: usize,
    y: BlockMut<S>,
) {
    match op {
        OpRef::Mat(a) => st.spmm(a, x, k, y),
        OpRef::Store(a) => st.store_spmm(a, x, k, y),
    }
}

/// Batched multi-RHS GMRES(m): `k` single-RHS solves in lockstep, with
/// optional software-pipelined host steps (`pipeline_depth = 1`).
pub struct BlockGmres<'a, S: BackendScalar> {
    a: Operand<'a, S>,
    precond: &'a dyn Preconditioner<S>,
    cfg: GmresConfig,
}

/// Per-column solver state (one lane per right-hand side).
///
/// `pub(crate)` so the serving engine ([`crate::service`]) can hold lane
/// slots across admission epochs; all mutation goes through
/// [`BlockGmres`] methods, which keeps the bit-parity contract in one
/// place.
pub(crate) struct Lane<S> {
    /// This lane's own Krylov basis (n x (m+1)), behind the solver's
    /// storage policy: native lanes keep the classic full-width layout,
    /// compressed lanes store columns narrow and promote on read.
    v: BasisStore<S>,
    /// Current Hessenberg column assembly buffer (m+2).
    hcol: Vec<S>,
    lsq: Option<GivensLsq<S>>,
    gamma: S,
    scale: f64,
    total_iters: usize,
    restarts: usize,
    history: Vec<HistoryPoint>,
    final_rel: f64,
    /// Pending terminal status raised inside a cycle (breakdown paths).
    pending: Option<SolveStatus>,
    /// Still inside the current cycle's Arnoldi loop.
    in_cycle: bool,
    implicit_claims_convergence: bool,
    lucky: bool,
    /// Per-lane stopping tolerance. Batch solves copy the solver config;
    /// the serving engine seeds each admitted request's own tolerance.
    /// Tolerances only steer stopping decisions — the arithmetic each
    /// lane runs is tolerance-independent, so mixed-tolerance lanes keep
    /// the per-lane bit-parity contract.
    rtol: f64,
    /// Per-lane iteration cap (same seeding rule as `rtol`).
    max_iters: usize,
}

/// Shared lockstep workspaces, sized once for `(n, k, m)` and reused
/// across cycles — and, in the serving engine, across admission epochs.
pub(crate) struct LockstepWs<S> {
    /// Current residual block (n x k), one column per lane slot.
    pub(crate) r: MultiVec<S>,
    /// Preconditioned directions Z (n x k, compacted to active lanes).
    z: MultiVec<S>,
    /// SpMM output W = A Z (n x k, compacted to active lanes).
    w: MultiVec<S>,
    /// Barrier update accumulators (n x k).
    u: MultiVec<S>,
    /// Least-squares coefficients, one m-column per lane.
    ymat: MultiVec<S>,
    /// Scratch vector for eager preconditioner applications.
    zvec: Vec<S>,
    /// First/second-pass projection coefficients (k * m each).
    h1: Vec<S>,
    h2: Vec<S>,
    /// Per-active-lane candidate-basis norms.
    pub(crate) norms: Vec<S>,
    /// Per-lane explicit residual norms at the cycle barrier.
    gammas: Vec<S>,
}

impl<S: BackendScalar> LockstepWs<S> {
    pub(crate) fn new(n: usize, k: usize, m: usize) -> Self {
        LockstepWs {
            r: MultiVec::zeros(n, k),
            z: MultiVec::zeros(n, k),
            w: MultiVec::zeros(n, k),
            u: MultiVec::zeros(n, k),
            ymat: MultiVec::zeros(m, k),
            zvec: vec![S::zero(); n],
            h1: vec![S::zero(); k * m.max(1)],
            h2: vec![S::zero(); k * m.max(1)],
            norms: vec![S::zero(); k],
            gammas: vec![S::zero(); k],
        }
    }
}

/// Collect `&mut lane.v` for the lane indices in `which` (ascending) —
/// the piecewise-mutable gather behind the fused lane-set basis
/// extensions and the pipelined regions' exclusive basis registrations.
/// The lockstep driver always builds its lane sets in ascending lane
/// order, and the fused lane-set kernels pair sources with destinations
/// by position — this helper asserts that invariant instead of letting
/// an out-of-order set silently drop a lane.
fn lane_vs_mut<'l, S: BackendScalar>(
    lanes: &'l mut [Lane<S>],
    which: &[usize],
) -> Vec<&'l mut BasisStore<S>> {
    debug_assert!(
        which.windows(2).all(|w| w[0] < w[1]),
        "lane sets must be ascending"
    );
    let mut out = Vec::with_capacity(which.len());
    let mut it = which.iter().copied().peekable();
    for (li, lane) in lanes.iter_mut().enumerate() {
        if it.peek() == Some(&li) {
            it.next();
            out.push(&mut lane.v);
        }
    }
    assert_eq!(out.len(), which.len(), "lane set not found in order");
    out
}

/// `x += z` on an eager stream: a preconditioned lane's solution
/// update, between the eager apply that produced `z` and the barrier's
/// residual region.
fn add_update<S: BackendScalar>(ctx: &mut GpuContext, z: &[S], x: &mut [S]) {
    let mut st = Stream::eager(ctx);
    let (zh, xh) = (st.slice(z), st.slice_mut(x));
    st.axpy(S::one(), zh, xh);
}

/// Split a parity pair into `(previous, current)` for iteration parity
/// `cur` — the ping-pong buffers of the pipelined driver.
fn parity_split<T>(pair: &mut [T; 2], cur: usize) -> (&T, &mut T) {
    let (lo, hi) = pair.split_at_mut(1);
    if cur == 0 {
        (&hi[0], &mut lo[0])
    } else {
        (&lo[0], &mut hi[0])
    }
}

impl<'a, S: BackendScalar> Solver<'a, S> for BlockGmres<'a, S> {
    /// Serve one [`SolveRequest`] through this driver (k = 1). A plain
    /// matrix operand with a non-native [`StorePath`] gets a store
    /// built on the spot; every outcome is bit-identical to the
    /// equivalent ahead-of-time construction.
    fn serve(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, S>,
    ) -> Result<SolveOutcome<S>, SolveError> {
        req.validate()?;
        let packed;
        let solver = match (req.operator, req.store) {
            (Operator::Matrix(a), path) => match GpuStore::for_path(a, path) {
                None => BlockGmres::try_new(a, req.precond, req.config)?,
                Some(store) => {
                    packed = store;
                    BlockGmres::try_over_store(&packed, req.precond, req.config)?
                }
            },
            (Operator::Store(s), StorePath::Native) => {
                BlockGmres::try_over_store(s, req.precond, req.config)?
            }
            (Operator::Store(_), _) => {
                return Err(SolveError::UnsupportedCombination(
                    "a store operand already fixes the storage path; \
                     leave `store` at StorePath::Native"
                        .into(),
                ))
            }
        };
        Ok(req.run_once(ctx, |ctx, b, x| solver.solve_one(ctx, b, x)))
    }
}

impl<'a, S: BackendScalar> BlockGmres<'a, S> {
    /// Build a solver for `A X = B` with a right preconditioner shared
    /// by all columns. Panics on an invalid configuration; see
    /// [`BlockGmres::try_new`] for the typed-error variant.
    pub fn new(a: &'a GpuMatrix<S>, precond: &'a dyn Preconditioner<S>, cfg: GmresConfig) -> Self {
        Self::try_new(a, precond, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BlockGmres::new`] with the configuration checked into a typed
    /// [`SolveError`] instead of a panic.
    pub fn try_new(
        a: &'a GpuMatrix<S>,
        precond: &'a dyn Preconditioner<S>,
        cfg: GmresConfig,
    ) -> Result<Self, SolveError> {
        cfg.validate()?;
        precond::check_dim(precond, a.n())?;
        Ok(BlockGmres {
            a: Operand::Plain(a),
            precond,
            cfg,
        })
    }

    /// Build a solver over a storage path with a preconditioner that
    /// does not need the plain matrix at application time
    /// ([`Preconditioner::needs_matrix`] is `false`: identity, block
    /// Jacobi, cast wrappers). The SpMM streams the store's narrow
    /// values while the preconditioner applies in the working
    /// precision. A matrix-needing preconditioner degrades to
    /// [`SolveError::UnsupportedCombination`] — a packed store cannot
    /// feed its SpMVs.
    pub fn try_over_store(
        a: &'a GpuStore<S>,
        precond: &'a dyn Preconditioner<S>,
        cfg: GmresConfig,
    ) -> Result<Self, SolveError> {
        cfg.validate()?;
        precond::check_dim(precond, a.n())?;
        if precond.needs_matrix() {
            return Err(SolveError::UnsupportedCombination(format!(
                "preconditioner '{}' needs the plain matrix, which a packed \
                 storage path ({} values) does not carry",
                precond.describe(),
                a.tag(),
            )));
        }
        Ok(BlockGmres {
            a: Operand::Store(a),
            precond,
            cfg,
        })
    }

    /// One-lane solve over plain slices: `b` and the initial guess in
    /// `x` ride a width-1 block, and the solution is written back into
    /// `x`. This is the whole single-RHS [`Gmres`] driver.
    pub(crate) fn solve_one(&self, ctx: &mut GpuContext, b: &[S], x: &mut [S]) -> SolveResult {
        let bb = MultiVec::from_columns(&[b]);
        let mut xb = MultiVec::from_columns(&[&*x]);
        let result = self.solve(ctx, &bb, &mut xb).pop();
        x.copy_from_slice(xb.col(0));
        result.expect("one column solved")
    }

    /// The configuration in use.
    pub fn config(&self) -> &GmresConfig {
        &self.cfg
    }

    /// Operand dimension (for the serving engine's buffer sizing).
    pub(crate) fn n(&self) -> usize {
        self.a.n()
    }

    /// Solve `A X = B` starting from the initial guesses in `x`; the
    /// solutions are written back into `x`. Returns one [`SolveResult`]
    /// per column, each bit-identical to an independent single-RHS
    /// solve of that column (at every pipeline depth).
    pub fn solve(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &mut MultiVec<S>,
    ) -> Vec<SolveResult> {
        let n = self.a.n();
        let k = b.k();
        // The request surface reports these as SolveError::DimensionMismatch;
        // callers reaching the raw driver keep the debug-build guard.
        debug_assert_eq!(b.n(), n, "rhs row count mismatch");
        debug_assert_eq!(x.n(), n, "solution row count mismatch");
        debug_assert_eq!(x.k(), k, "solution column count mismatch");
        // MGS interleaves every kernel with a host decision — there is
        // no device stream to pipeline against, so it always runs the
        // lockstep driver.
        if self.cfg.pipeline_depth == 0 || self.cfg.ortho == OrthoMethod::Mgs {
            self.solve_lockstep(ctx, b, x)
        } else {
            self.solve_pipelined(ctx, b, x)
        }
    }

    /// Initial residuals `R = B - A X`, reference norms, and per-lane
    /// state (shared by both drivers).
    fn init_lanes(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &MultiVec<S>,
        r: &mut MultiVec<S>,
        norms: &mut [S],
    ) -> (Vec<Lane<S>>, Vec<Option<SolveResult>>) {
        let k = b.k();
        {
            let mut st = ctx.stream();
            let ah = self.a.register(&mut st);
            let bh = st.block(b);
            let xh = st.block(x);
            let rh = st.block_mut(r);
            let nh = st.slice_mut(norms);
            for l in 0..k {
                rec_residual(&mut st, ah, bh.col(l), xh.col(l), rh.col_mut(l));
            }
            st.block_norm2_into(rh.read(), k, nh);
            st.sync();
        }

        let mut lanes: Vec<Lane<S>> = Vec::with_capacity(k);
        let mut results: Vec<Option<SolveResult>> = (0..k).map(|_| None).collect();

        for (l, result) in results.iter_mut().enumerate() {
            let (lane, terminal) = self.lane_from_norm(norms[l], self.cfg.rtol, self.cfg.max_iters);
            *result = terminal;
            lanes.push(lane);
        }
        (lanes, results)
    }

    /// Initial residuals and reference norms for a set of lanes being
    /// admitted into a running engine: `r[:, l] = b[:, l] - A x[:, l]`
    /// and `norms[l]` for each admitted slot `l`, recorded as one
    /// region.
    pub(crate) fn admit_lanes(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &MultiVec<S>,
        ws: &mut LockstepWs<S>,
        admit: &[usize],
    ) {
        let mut st = ctx.stream();
        let ah = self.a.register(&mut st);
        let bh = st.block(b);
        let xh = st.block(x);
        let rh = st.block_mut(&mut ws.r);
        let nh = st.slice_mut(&mut ws.norms);
        for &l in admit {
            rec_residual(&mut st, ah, bh.col(l), xh.col(l), rh.col_mut(l));
            st.norm2_into(rh.col(l), nh.at(l));
        }
        st.sync();
    }

    /// A vacant lane slot for the serving engine: zero-row basis, no
    /// state, immediately terminal if ever collected (it never is — the
    /// engine only cycles occupied slots).
    pub(crate) fn free_lane(&self) -> Lane<S> {
        Lane {
            v: self.cfg.basis.store::<S>(0, self.cfg.m + 1),
            hcol: vec![S::zero(); self.cfg.m + 2],
            lsq: None,
            gamma: S::zero(),
            scale: 0.0,
            total_iters: 0,
            restarts: 0,
            history: Vec::new(),
            final_rel: 1.0,
            pending: None,
            in_cycle: false,
            implicit_claims_convergence: false,
            lucky: false,
            rtol: self.cfg.rtol,
            max_iters: self.cfg.max_iters,
        }
    }

    /// Fresh lane state from an initial residual norm — the per-lane
    /// half of [`BlockGmres::init_lanes`], shared with the serving
    /// engine's admission path so a mid-flight seeded lane starts from
    /// the exact state an independent solve would. Returns the lane and
    /// an immediately-terminal result for degenerate starts (NaN
    /// residual, zero RHS, vacuous tolerance).
    pub(crate) fn lane_from_norm(
        &self,
        norm: S,
        rtol: f64,
        max_iters: usize,
    ) -> (Lane<S>, Option<SolveResult>) {
        let n = self.a.n();
        let m = self.cfg.m;
        let r0_norm = norm.to_f64();
        let mut history: Vec<HistoryPoint> = Vec::new();
        let mut result = SolveResult::trivial(r0_norm);
        if result.is_none() {
            if self.cfg.record_history {
                history.push(HistoryPoint {
                    iteration: 0,
                    relative_residual: 1.0,
                    kind: HistoryKind::Explicit,
                });
            }
            if rtol >= 1.0 {
                let history = std::mem::take(&mut history);
                result = Some(SolveResult::unstarted(SolveStatus::Converged, 1.0, history));
            }
        }
        let lane = Lane {
            v: self
                .cfg
                .basis
                .store::<S>(if result.is_none() { n } else { 0 }, m + 1),
            hcol: vec![S::zero(); m + 2],
            lsq: None,
            gamma: norm,
            scale: r0_norm,
            total_iters: 0,
            restarts: 0,
            history,
            final_rel: 1.0,
            pending: None,
            in_cycle: false,
            implicit_claims_convergence: false,
            lucky: false,
            rtol,
            max_iters,
        };
        (lane, result)
    }

    /// Re-seed an existing lane slot in place (serving-engine admission):
    /// same state transition as [`BlockGmres::lane_from_norm`], but the
    /// basis allocation is reused when the slot was occupied before.
    pub(crate) fn reseed_lane(
        &self,
        slot: &mut Lane<S>,
        norm: S,
        rtol: f64,
        max_iters: usize,
    ) -> Option<SolveResult> {
        let n = self.a.n();
        let m = self.cfg.m;
        let (mut lane, result) = self.lane_from_norm(norm, rtol, max_iters);
        if result.is_none()
            && slot.v.n() == n
            && slot.v.max_cols() == m + 1
            && slot.v.code() == lane.v.code()
        {
            // Reuse the previous occupant's basis storage — but only
            // when its storage path matches this solver's policy, so an
            // admitted lane always inherits the group's basis layout.
            // Every column the new solve reads is written earlier in
            // the same cycle, so stale values are never observed (same
            // argument that lets restart cycles reuse the basis in
            // place).
            std::mem::swap(&mut lane.v, &mut slot.v);
        }
        *slot = lane;
        result
    }

    /// Columns still solving, in lane order; lanes at the iteration cap
    /// are resolved here (the cycle-top iteration-cap check).
    fn collect_cycle(
        &self,
        lanes: &mut [Lane<S>],
        results: &mut [Option<SolveResult>],
    ) -> Vec<usize> {
        self.collect_cycle_eligible(lanes, results, |_| true)
    }

    /// [`BlockGmres::collect_cycle`] restricted to eligible slots — the
    /// serving engine passes its occupancy map so vacant lane slots
    /// never enter a cycle.
    pub(crate) fn collect_cycle_eligible(
        &self,
        lanes: &mut [Lane<S>],
        results: &mut [Option<SolveResult>],
        eligible: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut cycle = Vec::with_capacity(lanes.len());
        for (l, result) in results.iter_mut().enumerate() {
            if result.is_some() || !eligible(l) {
                continue;
            }
            let lane = &mut lanes[l];
            if lane.total_iters >= lane.max_iters {
                *result = Some(SolveResult {
                    status: SolveStatus::MaxIters,
                    iterations: lane.total_iters,
                    restarts: lane.restarts,
                    final_relative_residual: lane.final_rel,
                    history: std::mem::take(&mut lane.history),
                });
                continue;
            }
            cycle.push(l);
        }
        cycle
    }

    /// Start a cycle on every participating lane: `v1 = r / gamma`,
    /// fused over the lane set (one batched normalize-and-store;
    /// bit-identical per lane, charged once as a width-|cycle| block
    /// scaling).
    fn start_cycle(
        &self,
        ctx: &mut GpuContext,
        lanes: &mut [Lane<S>],
        r: &MultiVec<S>,
        cycle: &[usize],
    ) {
        let m = self.cfg.m;
        let mut alphas: Vec<S> = Vec::with_capacity(cycle.len());
        for &l in cycle {
            let lane = &mut lanes[l];
            alphas.push(S::from_f64(1.0 / lane.gamma.to_f64()));
            lane.lsq = Some(GivensLsq::new(m, lane.gamma));
            lane.in_cycle = true;
            lane.implicit_claims_convergence = false;
            lane.lucky = false;
        }
        let mut st = Stream::eager(ctx);
        let (ah, rh) = (st.slice(&alphas), st.block(r));
        let srcs: Vec<ArgSlice<S>> = cycle.iter().map(|&l| rh.col(l)).collect();
        let vs = st.bases_mut(lane_vs_mut(lanes, cycle));
        st.basis_lane_scal_copy(ah, &srcs, &vs, 0);
    }

    /// One lane's host step after iteration `j`'s device results are
    /// on the host: assemble the Hessenberg column, push the Givens
    /// update, record history, decide continuation. Returns the basis
    /// extension coefficient `1/h_{j+1,j}` when the lane extends. The
    /// HostDense charge is the *caller's* responsibility — the lockstep
    /// driver charges eagerly before calling, the pipelined driver
    /// defers it into the next recorded region.
    #[allow(clippy::too_many_arguments)]
    fn lane_host_step(
        &self,
        lane: &mut Lane<S>,
        c: usize,
        ncols: usize,
        h1: &[S],
        h2: &[S],
        hj1: S,
    ) -> Option<S> {
        match self.cfg.ortho {
            OrthoMethod::Cgs2 => {
                for i in 0..ncols {
                    lane.hcol[i] = h1[c * ncols + i] + h2[c * ncols + i];
                }
            }
            OrthoMethod::Cgs1 | OrthoMethod::Mgs => {
                lane.hcol[..ncols].copy_from_slice(&h1[c * ncols..(c + 1) * ncols]);
            }
        }
        lane.hcol[ncols] = hj1;
        lane.total_iters += 1;

        if !hj1.is_finite() {
            lane.pending = Some(SolveStatus::Breakdown);
            lane.in_cycle = false;
            return None;
        }

        let implicit = lane
            .lsq
            .as_mut()
            .expect("lane in cycle has an lsq")
            .push_column(&lane.hcol[..ncols + 1]);
        let implicit_rel = implicit.to_f64() / lane.scale;

        if self.cfg.record_history {
            lane.history.push(HistoryPoint {
                iteration: lane.total_iters,
                relative_residual: implicit_rel,
                kind: HistoryKind::Implicit,
            });
        }

        if hj1.to_f64() <= lane.scale * f64::from(f32::MIN_POSITIVE) * f64::EPSILON {
            lane.lucky = true;
            lane.implicit_claims_convergence = true;
            lane.in_cycle = false;
            return None;
        }
        let inv = S::from_f64(1.0 / hj1.to_f64());

        if self.cfg.monitor_implicit && implicit_rel <= lane.rtol {
            lane.implicit_claims_convergence = true;
            lane.in_cycle = false;
        }
        Some(inv)
    }

    /// Per-lane least-squares solves and restart bookkeeping at the
    /// cycle barrier. Fills the first `kc` entries of each solved lane's
    /// coefficient column of `ymat` and zeroes its update-assembly
    /// column.
    /// HostDense charges are the caller's responsibility.
    fn barrier_lsq(
        &self,
        lanes: &mut [Lane<S>],
        cycle: &[usize],
        u: &mut MultiVec<S>,
        ymat: &mut MultiVec<S>,
    ) -> Vec<(usize, usize)> {
        let mut upds: Vec<(usize, usize)> = Vec::new();
        for &l in cycle {
            let lane = &mut lanes[l];
            lane.in_cycle = false;
            let lsq = lane.lsq.as_ref().expect("cycle lane has an lsq");
            let kc = lsq.ncols();
            if kc > 0 {
                if lsq.is_degenerate() {
                    lane.pending = Some(SolveStatus::Breakdown);
                } else {
                    let y = lsq.solve(kc);
                    for ui in u.col_mut(l) {
                        *ui = S::zero();
                    }
                    ymat.col_mut(l)[..kc].copy_from_slice(&y);
                    upds.push((l, kc));
                }
            }
            lane.restarts += 1;
        }
        upds
    }

    /// Record the barrier's explicit-residual half (residual + fused
    /// norm per cycle lane) — shared by the lockstep and pipelined
    /// preconditioned barriers.
    #[allow(clippy::too_many_arguments)]
    fn barrier_residual_region(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &MultiVec<S>,
        r: &mut MultiVec<S>,
        gammas: &mut [S],
        cycle: &[usize],
    ) {
        let mut st = ctx.stream();
        let ah = self.a.register(&mut st);
        let bh = st.block(b);
        let xh = st.block(x);
        let rh = st.block_mut(r);
        let gh = st.slice_mut(gammas);
        for &l in cycle {
            rec_residual(&mut st, ah, bh.col(l), xh.col(l), rh.col_mut(l));
            st.norm2_into(rh.col(l), gh.at(l));
        }
        st.sync();
    }

    /// Per-lane status resolution at the cycle barrier — explicit
    /// residual, breakdown, convergence, Belos loss of accuracy, and the
    /// iteration cap; terminal lanes are deflated.
    fn resolve_cycle(
        &self,
        lanes: &mut [Lane<S>],
        results: &mut [Option<SolveResult>],
        gammas: &[S],
        cycle: &[usize],
    ) {
        for &l in cycle {
            lanes[l].gamma = gammas[l];
        }
        for &l in cycle {
            let lane = &mut lanes[l];
            let explicit_rel = lane.gamma.to_f64() / lane.scale;
            lane.final_rel = explicit_rel;
            if self.cfg.record_history {
                lane.history.push(HistoryPoint {
                    iteration: lane.total_iters,
                    relative_residual: explicit_rel,
                    kind: HistoryKind::Explicit,
                });
            }
            let status = if let Some(s) = lane.pending {
                // Breakdown paths: report convergence if the explicit
                // residual happens to clear the tolerance.
                Some(if explicit_rel <= lane.rtol {
                    SolveStatus::Converged
                } else {
                    s
                })
            } else if !explicit_rel.is_finite() {
                Some(SolveStatus::Breakdown)
            } else if explicit_rel <= lane.rtol {
                Some(SolveStatus::Converged)
            } else if (lane.implicit_claims_convergence || lane.lucky)
                && explicit_rel > self.cfg.loa_factor * lane.rtol
            {
                Some(SolveStatus::LossOfAccuracy)
            } else if lane.total_iters >= lane.max_iters {
                Some(SolveStatus::MaxIters)
            } else {
                None
            };
            if let Some(status) = status {
                results[l] = Some(SolveResult {
                    status,
                    iterations: lane.total_iters,
                    restarts: lane.restarts,
                    final_relative_residual: lane.final_rel,
                    history: std::mem::take(&mut lane.history),
                });
            }
        }
    }

    // ----- the lockstep driver (pipeline depth 0, the baseline) ------

    fn solve_lockstep(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &mut MultiVec<S>,
    ) -> Vec<SolveResult> {
        let n = self.a.n();
        let k = b.k();
        let mut ws = LockstepWs::new(n, k, self.cfg.m);

        let (mut lanes, mut results) = self.init_lanes(ctx, b, x, &mut ws.r, &mut ws.norms);

        loop {
            let cycle = self.collect_cycle(&mut lanes, &mut results);
            if cycle.is_empty() {
                break;
            }
            self.run_cycle(ctx, &mut lanes, &mut results, &mut ws, b, x, &cycle);
        }

        results
            .into_iter()
            .map(|r| r.expect("every column resolved"))
            .collect()
    }

    /// One full lockstep GMRES(m) cycle over the given lane set: cycle
    /// start (`v1 = r/gamma`), `m` lockstep Arnoldi steps, the cycle
    /// barrier (per-lane least-squares solves, solution updates,
    /// explicit residuals), and per-lane status resolution. Extracted
    /// verbatim from the lockstep driver so the serving engine runs the
    /// identical arithmetic between admission barriers — the existing
    /// batch parity suite therefore covers the served path too.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_cycle(
        &self,
        ctx: &mut GpuContext,
        lanes: &mut [Lane<S>],
        results: &mut [Option<SolveResult>],
        ws: &mut LockstepWs<S>,
        b: &MultiVec<S>,
        x: &mut MultiVec<S>,
        cycle: &[usize],
    ) {
        let m = self.cfg.m;
        self.start_cycle(ctx, lanes, &ws.r, cycle);

        for j in 0..m {
            // Lanes still iterating this cycle (lockstep: all share j).
            let act: Vec<usize> = cycle
                .iter()
                .copied()
                .filter(|&l| lanes[l].in_cycle && lanes[l].total_iters < lanes[l].max_iters)
                .collect();
            if act.is_empty() {
                break;
            }
            let kc = act.len();
            let ncols = j + 1;

            // Direction block: Z[:, c] = M^{-1} v_j^{(c)} — one
            // fused lane gather when the preconditioner is the
            // identity (the per-lane copies the recorded DAG was
            // built to absorb), per-lane applications otherwise.
            // Native lanes lend their columns in place (the exact
            // pre-BasisStore path); compressed lanes promote their
            // narrow columns first (each promotion a charged cast).
            let all_native = act.iter().all(|&l| lanes[l].v.is_native());
            if self.precond.is_identity() {
                let mut st = Stream::eager(ctx);
                let zh = st.block_mut(&mut ws.z);
                if all_native {
                    let srcs: Vec<ArgSlice<S>> = act
                        .iter()
                        .map(|&l| st.slice(lanes[l].v.expect_native().col(j)))
                        .collect();
                    let dsts: Vec<ArgSliceMut<S>> = (0..kc).map(|c| zh.col_mut(c)).collect();
                    st.lane_copy(&srcs, &dsts);
                } else {
                    for (c, &l) in act.iter().enumerate() {
                        let vh = st.basis(&lanes[l].v);
                        st.basis_promote_col(vh, j, zh.col_mut(c));
                    }
                }
            } else {
                for (c, &l) in act.iter().enumerate() {
                    if let Some(nv) = lanes[l].v.as_native() {
                        self.precond
                            .apply(ctx, self.a.plain_opt(), nv.col(j), ws.z.col_mut(c));
                    } else {
                        {
                            let mut st = Stream::eager(ctx);
                            let (vh, zh) = (st.basis(&lanes[l].v), st.slice_mut(&mut ws.zvec));
                            st.basis_promote_col(vh, j, zh);
                        }
                        self.precond
                            .apply(ctx, self.a.plain_opt(), &ws.zvec, ws.z.col_mut(c));
                    }
                }
            }

            // W = A Z (one matrix read for all kc columns) plus the
            // blocked orthogonalization: one recorded region, a
            // chain through W like the single-RHS CGS region.
            match self.cfg.ortho {
                OrthoMethod::Cgs2 | OrthoMethod::Cgs1 => {
                    let two_pass = self.cfg.ortho == OrthoMethod::Cgs2;
                    let vs: Vec<&BasisStore<S>> = act.iter().map(|&l| &lanes[l].v).collect();
                    let mut st = ctx.stream();
                    let ah = self.a.register(&mut st);
                    let zh = st.block(&ws.z);
                    let wh = st.block_mut(&mut ws.w);
                    let vsh = st.bases(&vs);
                    let h1h = st.slice_mut(&mut ws.h1[..kc * ncols]);
                    let nh = st.slice_mut(&mut ws.norms);
                    rec_spmm(&mut st, ah, zh, kc, wh);
                    st.block_gemv_t(vsh, ncols, wh.read(), h1h);
                    st.block_gemv_n_sub(vsh, ncols, h1h.read(), wh);
                    if two_pass {
                        let h2h = st.slice_mut(&mut ws.h2[..kc * ncols]);
                        st.block_gemv_t(vsh, ncols, wh.read(), h2h);
                        st.block_gemv_n_sub(vsh, ncols, h2h.read(), wh);
                    }
                    st.block_norm2_into(wh.read(), kc, nh);
                    st.sync();
                }
                OrthoMethod::Mgs => {
                    // 2j skinny kernels per lane, each feeding the
                    // next host decision; nothing to batch or record,
                    // so even the SpMM runs on an eager stream (a
                    // serial charge in either streaming mode).
                    {
                        let mut st = Stream::eager(ctx);
                        let ah = self.a.register(&mut st);
                        let zh = st.block(&ws.z);
                        let wh = st.block_mut(&mut ws.w);
                        rec_spmm(&mut st, ah, zh, kc, wh);
                    }
                    for (c, &l) in act.iter().enumerate() {
                        // MGS reads columns through S-typed views, so it
                        // is native-only (validate() rejects the combo).
                        let nv = lanes[l].v.expect_native();
                        for i in 0..ncols {
                            let mut hi = S::zero();
                            {
                                let mut st = Stream::eager(ctx);
                                let (vh, wh) = (st.slice(nv.col(i)), st.slice(ws.w.col(c)));
                                let hh = st.val_mut(&mut hi);
                                st.dot_into(vh, wh, hh);
                            }
                            let mut st = Stream::eager(ctx);
                            let (vh, wh) = (st.slice(nv.col(i)), st.slice_mut(ws.w.col_mut(c)));
                            st.axpy(-hi, vh, wh);
                            ws.h1[c * ncols + i] = hi;
                        }
                    }
                    let mut st = Stream::eager(ctx);
                    let (wh, nh) = (st.block(&ws.w), st.slice_mut(&mut ws.norms));
                    st.block_norm2_into(wh, kc, nh);
                }
            }

            // Per-lane host steps (Hessenberg column assembly,
            // Givens update, convergence decisions); lanes that keep
            // iterating queue their basis extension for one fused
            // lane-set scatter below.
            let mut store: Vec<(usize, usize, S)> = Vec::new(); // (col, lane, 1/h)
            for (c, &l) in act.iter().enumerate() {
                ctx.charge_iteration_host(j);
                if let Some(inv) =
                    self.lane_host_step(&mut lanes[l], c, ncols, &ws.h1, &ws.h2, ws.norms[c])
                {
                    store.push((c, l, inv));
                }
            }

            // v_{j+1}^{(l)} = w_c / h_{j+1,j}: one fused lane-set
            // normalize-and-store for every extending lane (the
            // per-lane copy + scal pair this replaces is the small
            // kernel the ROADMAP flagged; bit-identical per lane).
            if !store.is_empty() {
                let alphas: Vec<S> = store.iter().map(|&(_, _, inv)| inv).collect();
                let which: Vec<usize> = store.iter().map(|&(_, l, _)| l).collect();
                let mut st = Stream::eager(ctx);
                let (ah, wh) = (st.slice(&alphas), st.block(&ws.w));
                let srcs: Vec<ArgSlice<S>> = store.iter().map(|&(c, _, _)| wh.col(c)).collect();
                let vs = st.bases_mut(lane_vs_mut(lanes, &which));
                st.basis_lane_scal_copy(ah, &srcs, &vs, j + 1);
            }
        }

        // Cycle barrier, phase 1 (host): per-lane least-squares
        // solves and restart bookkeeping; each solved lane queues
        // its update for the recorded device phase.
        // The shared helper charges nothing; the eager restart
        // charges are emitted here per update lane in the same
        // order (nothing else charges in between), keeping the
        // lockstep charge sequence bitwise unchanged.
        let upds = self.barrier_lsq(lanes, cycle, &mut ws.u, &mut ws.ymat);
        for &(_, kc) in &upds {
            ctx.charge_restart_host(kc);
        }

        // Phase 2 (device): per-lane update chains x += M^{-1} V y
        // and explicit residuals. Each lane's chain (GEMV-N -> axpy
        // -> residual -> norm) is independent of every other lane's,
        // so the recorded DAG overlaps them.
        if self.precond.is_identity() {
            let mut st = ctx.stream();
            let ah = self.a.register(&mut st);
            let bh = st.block(b);
            let xh = st.block_mut(&mut *x);
            let rh = st.block_mut(&mut ws.r);
            let uh = st.block_mut(&mut ws.u);
            let yh = st.block(&ws.ymat);
            let gh = st.slice_mut(&mut ws.gammas);
            for &(l, kc) in &upds {
                let vh = st.basis(&lanes[l].v);
                st.gemv_n_add(vh, kc, yh.col(l), uh.col_mut(l));
                st.axpy(S::one(), uh.col(l), xh.col_mut(l));
            }
            for &l in cycle {
                rec_residual(&mut st, ah, bh.col(l), xh.col(l), rh.col_mut(l));
                st.norm2_into(rh.col(l), gh.at(l));
            }
            st.sync();
        } else {
            {
                let mut st = ctx.stream();
                let uh = st.block_mut(&mut ws.u);
                let yh = st.block(&ws.ymat);
                for &(l, kc) in &upds {
                    let vh = st.basis(&lanes[l].v);
                    st.gemv_n_add(vh, kc, yh.col(l), uh.col_mut(l));
                }
                st.sync();
            }
            // Preconditioner applications run eagerly between the
            // two recorded regions.
            for &(l, _) in &upds {
                self.precond
                    .apply(ctx, self.a.plain_opt(), ws.u.col(l), &mut ws.zvec);
                add_update(ctx, &ws.zvec, x.col_mut(l));
            }
            self.barrier_residual_region(ctx, b, x, &mut ws.r, &mut ws.gammas, cycle);
        }

        self.resolve_cycle(lanes, results, &ws.gammas, cycle);
    }

    // ----- the software-pipelined driver (pipeline depth 1) ----------
    //
    // Identical arithmetic in the identical order — the difference is
    // WHERE the host work is charged: each iteration's Givens/update
    // bookkeeping and the barrier's least-squares solves are recorded
    // as host nodes inside the NEXT region, reading the previous
    // parity's norm/coefficient spans (ping-pong buffers), so the DAG
    // proves them independent of the in-flight device kernels and the
    // timeline hides their latency. The basis extension and direction
    // gather migrate into the recorded region too (preserving the
    // lockstep charge order exactly, so serial accounting is bitwise
    // unchanged).

    fn solve_pipelined(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &mut MultiVec<S>,
    ) -> Vec<SolveResult> {
        let n = self.a.n();
        let k = b.k();
        let m = self.cfg.m;
        let identity = self.precond.is_identity();
        let two_pass = self.cfg.ortho == OrthoMethod::Cgs2;

        let mut r = MultiVec::<S>::zeros(n, k);
        let mut z = MultiVec::<S>::zeros(n, k);
        let mut w = MultiVec::<S>::zeros(n, k);
        let mut u = MultiVec::<S>::zeros(n, k);
        let mut ymat = MultiVec::<S>::zeros(m, k);
        let mut zvec = vec![S::zero(); n];
        // Ping-pong host-visible results: iteration j writes parity
        // j % 2, so the deferred host step for j reads spans no later
        // iteration's device kernels touch — the one-iteration lag the
        // DAG verifies.
        let mut h1 = [vec![S::zero(); k * m.max(1)], vec![S::zero(); k * m.max(1)]];
        let mut h2 = [vec![S::zero(); k * m.max(1)], vec![S::zero(); k * m.max(1)]];
        let mut norms = [vec![S::zero(); k], vec![S::zero(); k]];
        let mut init_norms = vec![S::zero(); k];
        let mut gammas = vec![S::zero(); k];
        // Host-state tokens (one slot per lane): consecutive host nodes
        // of a lane chain through WAW on its token, keeping the Givens
        // recurrence ordered while distinct lanes overlap.
        let mut tokens = vec![S::zero(); k];
        // Extension coefficients of the drained iteration, registered
        // as the recorded basis_lane_scal_copy's operand.
        let mut alphas_buf = vec![S::zero(); k];

        let (mut lanes, mut results) = self.init_lanes(ctx, b, x, &mut r, &mut init_norms);

        loop {
            let cycle = self.collect_cycle(&mut lanes, &mut results);
            if cycle.is_empty() {
                break;
            }
            self.start_cycle(ctx, &mut lanes, &r, &cycle);

            // Work deferred from the previous iteration: the host steps
            // of its act set (`pending`, with their compact positions
            // implied by order) and the basis extensions of its
            // continuing lanes (`store`: position, lane, 1/h).
            let mut pending: Vec<usize> = Vec::new();
            let mut pending_j = 0usize;
            let mut store: Vec<(usize, usize, S)> = Vec::new();

            for j in 0..m {
                let act: Vec<usize> = cycle
                    .iter()
                    .copied()
                    .filter(|&l| lanes[l].in_cycle && lanes[l].total_iters < lanes[l].max_iters)
                    .collect();
                if act.is_empty() {
                    break;
                }
                let kc = act.len();
                let ncols = j + 1;
                let cur = j % 2;
                for (i, &(_, _, inv)) in store.iter().enumerate() {
                    alphas_buf[i] = inv;
                }
                // Lanes whose bases the region writes: the drained
                // extension's. The CGS reads `act`'s bases, and act is
                // a subset of store's lanes after the first iteration
                // (a lane only stays in the cycle if it extended).
                let store_lanes: Vec<usize> = store.iter().map(|&(_, l, _)| l).collect();
                let reg: Vec<usize> = if j == 0 {
                    act.clone()
                } else {
                    store_lanes.clone()
                };
                let ncols_prev = j;

                if identity {
                    let (h1_prev, h1_cur) = parity_split(&mut h1, cur);
                    let (h2_prev, h2_cur) = parity_split(&mut h2, cur);
                    let (nr_prev, nr_cur) = parity_split(&mut norms, cur);
                    let mut st = ctx.stream();
                    let ah = self.a.register(&mut st);
                    let th = st.slice_mut(&mut tokens);
                    let aph = st.slice(&alphas_buf[..]);
                    let h1p = st.slice(&h1_prev[..]);
                    let h2p = st.slice(&h2_prev[..]);
                    let npv = st.slice(&nr_prev[..]);
                    let h1c = st.slice_mut(&mut h1_cur[..kc * ncols]);
                    let h2c = if two_pass {
                        Some(st.slice_mut(&mut h2_cur[..kc * ncols]))
                    } else {
                        None
                    };
                    let nc = st.slice_mut(&mut nr_cur[..]);
                    let zh = st.block_mut(&mut z);
                    let wh = st.block_mut(&mut w);
                    let handles = st.bases_mut(lane_vs_mut(&mut lanes, &reg));
                    let mut bh_of: Vec<Option<BasisMut<S>>> = vec![None; k];
                    for (i, &l) in reg.iter().enumerate() {
                        bh_of[l] = Some(handles[i]);
                    }

                    // 1. Deferred host steps of iteration j-1 (one
                    //    HostDense charge per lane, act order — the
                    //    lockstep charge sequence, at lagged spans).
                    for (c, &l) in pending.iter().enumerate() {
                        let lagged = lagged_spans(h1p, h2p, npv, c, ncols_prev, two_pass);
                        st.host_givens(pending_j, &lagged, th.at(l));
                    }
                    // 2. Drained basis extension v_j = w / h.
                    if !store.is_empty() {
                        let srcs: Vec<_> = store.iter().map(|&(c, _, _)| wh.col(c)).collect();
                        let vs: Vec<_> = store
                            .iter()
                            .map(|&(_, l, _)| bh_of[l].expect("stored lane registered"))
                            .collect();
                        st.basis_lane_scal_copy(aph, &srcs, &vs, j);
                    }
                    // 3. Direction gather Z[:, c] = v_j.
                    {
                        let srcs: Vec<_> = act
                            .iter()
                            .map(|&l| bh_of[l].expect("active lane registered").col(j))
                            .collect();
                        let dsts: Vec<_> = (0..kc).map(|c| zh.col_mut(c)).collect();
                        st.lane_copy(&srcs, &dsts);
                    }
                    // 4. SpMM + blocked CGS (the chain the host nodes
                    //    overlap).
                    let vrefs: Vec<_> = act
                        .iter()
                        .map(|&l| bh_of[l].expect("active lane registered").read())
                        .collect();
                    let vsl = st.basis_list(&vrefs);
                    rec_spmm(&mut st, ah, zh.read(), kc, wh);
                    st.block_gemv_t(vsl, ncols, wh.read(), h1c);
                    st.block_gemv_n_sub(vsl, ncols, h1c.read(), wh);
                    if let Some(h2c) = h2c {
                        st.block_gemv_t(vsl, ncols, wh.read(), h2c);
                        st.block_gemv_n_sub(vsl, ncols, h2c.read(), wh);
                    }
                    st.block_norm2_into(wh.read(), kc, nc);
                    st.sync();
                } else {
                    // Preconditioned: the drained host steps + extension
                    // record first (the eager preconditioner needs the
                    // extended v_j), then the lockstep-shaped CGS region
                    // over the parity buffers.
                    if !pending.is_empty() || !store.is_empty() {
                        let (h1_prev, _) = parity_split(&mut h1, cur);
                        let (h2_prev, _) = parity_split(&mut h2, cur);
                        let (nr_prev, _) = parity_split(&mut norms, cur);
                        let mut st = ctx.stream();
                        let th = st.slice_mut(&mut tokens);
                        let aph = st.slice(&alphas_buf[..]);
                        let h1p = st.slice(&h1_prev[..]);
                        let h2p = st.slice(&h2_prev[..]);
                        let npv = st.slice(&nr_prev[..]);
                        let wh = st.block(&w);
                        let handles = if store_lanes.is_empty() {
                            Vec::new()
                        } else {
                            st.bases_mut(lane_vs_mut(&mut lanes, &store_lanes))
                        };
                        for (c, &l) in pending.iter().enumerate() {
                            let lagged = lagged_spans(h1p, h2p, npv, c, ncols_prev, two_pass);
                            st.host_givens(pending_j, &lagged, th.at(l));
                        }
                        if !store.is_empty() {
                            let srcs: Vec<_> = store.iter().map(|&(c, _, _)| wh.col(c)).collect();
                            st.basis_lane_scal_copy(aph, &srcs, &handles, j);
                        }
                        st.sync();
                    }
                    for (c, &l) in act.iter().enumerate() {
                        // The pipelined driver is native-only
                        // (validate() rejects compressed + pipelined).
                        self.precond.apply(
                            ctx,
                            self.a.plain_opt(),
                            lanes[l].v.expect_native().col(j),
                            z.col_mut(c),
                        );
                    }
                    let (_, h1_cur) = parity_split(&mut h1, cur);
                    let (_, h2_cur) = parity_split(&mut h2, cur);
                    let (_, nr_cur) = parity_split(&mut norms, cur);
                    let vs: Vec<&BasisStore<S>> = act.iter().map(|&l| &lanes[l].v).collect();
                    let mut st = ctx.stream();
                    let ah = self.a.register(&mut st);
                    let zh = st.block(&z);
                    let wh = st.block_mut(&mut w);
                    let vsh = st.bases(&vs);
                    let h1c = st.slice_mut(&mut h1_cur[..kc * ncols]);
                    let nc = st.slice_mut(&mut nr_cur[..]);
                    rec_spmm(&mut st, ah, zh, kc, wh);
                    st.block_gemv_t(vsh, ncols, wh.read(), h1c);
                    st.block_gemv_n_sub(vsh, ncols, h1c.read(), wh);
                    if two_pass {
                        let h2c = st.slice_mut(&mut h2_cur[..kc * ncols]);
                        st.block_gemv_t(vsh, ncols, wh.read(), h2c);
                        st.block_gemv_n_sub(vsh, ncols, h2c.read(), wh);
                    }
                    st.block_norm2_into(wh.read(), kc, nc);
                    st.sync();
                }

                // Host arithmetic for iteration j runs now (it decides
                // the next act set — control flow cannot be deferred);
                // its CHARGE is deferred into the next region as the
                // host node recorded above on the following pass.
                store.clear();
                let h1c = &h1[cur];
                let h2c = &h2[cur];
                let nrc = &norms[cur];
                for (c, &l) in act.iter().enumerate() {
                    if let Some(inv) =
                        self.lane_host_step(&mut lanes[l], c, ncols, h1c, h2c, nrc[c])
                    {
                        store.push((c, l, inv));
                    }
                }
                pending = act;
                pending_j = j;
            }

            // Cycle barrier. The final iteration's host steps and
            // extension drain here, the per-lane least-squares solves
            // become host nodes, and each lane's update chain hangs off
            // its own host node — per-lane host->device chains that
            // overlap across lanes (the k >= 2 win).
            for (i, &(_, _, inv)) in store.iter().enumerate() {
                alphas_buf[i] = inv;
            }
            let drained = pending_j + 1; // ncols of the drained host steps
            let p = pending_j % 2;
            let upds = self.barrier_lsq(&mut lanes, &cycle, &mut u, &mut ymat);
            let store_lanes: Vec<usize> = store.iter().map(|&(_, l, _)| l).collect();
            let reg: Vec<usize> = {
                // Union of the drained extension's lanes and the update
                // lanes, ascending (both already are).
                let mut reg = store_lanes.clone();
                for &(l, _) in &upds {
                    if !reg.contains(&l) {
                        reg.push(l);
                    }
                }
                reg.sort_unstable();
                reg
            };

            if identity {
                let (h1_prev, _) = parity_split(&mut h1, 1 - p);
                let (h2_prev, _) = parity_split(&mut h2, 1 - p);
                let (nr_prev, _) = parity_split(&mut norms, 1 - p);
                let mut st = ctx.stream();
                let ah = self.a.register(&mut st);
                let th = st.slice_mut(&mut tokens);
                let aph = st.slice(&alphas_buf[..]);
                let h1p = st.slice(&h1_prev[..]);
                let h2p = st.slice(&h2_prev[..]);
                let npv = st.slice(&nr_prev[..]);
                let bh = st.block(b);
                let wh = st.block(&w);
                let xh = st.block_mut(&mut *x);
                let rh = st.block_mut(&mut r);
                let uh = st.block_mut(&mut u);
                let ymh = st.block_mut(&mut ymat);
                let gh = st.slice_mut(&mut gammas);
                let handles = if reg.is_empty() {
                    Vec::new()
                } else {
                    st.bases_mut(lane_vs_mut(&mut lanes, &reg))
                };
                let mut bh_of: Vec<Option<BasisMut<S>>> = vec![None; k];
                for (i, &l) in reg.iter().enumerate() {
                    bh_of[l] = Some(handles[i]);
                }
                for (c, &l) in pending.iter().enumerate() {
                    let lagged = lagged_spans(h1p, h2p, npv, c, drained, two_pass);
                    st.host_givens(pending_j, &lagged, th.at(l));
                }
                if !store.is_empty() {
                    let srcs: Vec<_> = store.iter().map(|&(c, _, _)| wh.col(c)).collect();
                    let vs: Vec<_> = store
                        .iter()
                        .map(|&(_, l, _)| bh_of[l].expect("stored lane registered"))
                        .collect();
                    st.basis_lane_scal_copy(aph, &srcs, &vs, drained);
                }
                for &(l, kc) in &upds {
                    st.host_lsq(kc, th.at(l), ymh.col_mut(l));
                }
                for &(l, kc) in &upds {
                    let vh = bh_of[l].expect("update lane registered").read();
                    st.gemv_n_add(vh, kc, ymh.col(l), uh.col_mut(l));
                    st.axpy(S::one(), uh.col(l), xh.col_mut(l));
                }
                for &l in &cycle {
                    rec_residual(&mut st, ah, bh.col(l), xh.col(l), rh.col_mut(l));
                    st.norm2_into(rh.col(l), gh.at(l));
                }
                st.sync();
            } else {
                // Preconditioned barrier: drained host steps + extension
                // record first, then [per-lane lsq host node + GEMV]
                // chains, then the eager preconditioner applies, then
                // the shared residual region.
                {
                    let (h1_prev, _) = parity_split(&mut h1, 1 - p);
                    let (h2_prev, _) = parity_split(&mut h2, 1 - p);
                    let (nr_prev, _) = parity_split(&mut norms, 1 - p);
                    let mut st = ctx.stream();
                    let th = st.slice_mut(&mut tokens);
                    let aph = st.slice(&alphas_buf[..]);
                    let h1p = st.slice(&h1_prev[..]);
                    let h2p = st.slice(&h2_prev[..]);
                    let npv = st.slice(&nr_prev[..]);
                    let wh = st.block(&w);
                    let handles = if store_lanes.is_empty() {
                        Vec::new()
                    } else {
                        st.bases_mut(lane_vs_mut(&mut lanes, &store_lanes))
                    };
                    for (c, &l) in pending.iter().enumerate() {
                        let lagged = lagged_spans(h1p, h2p, npv, c, drained, two_pass);
                        st.host_givens(pending_j, &lagged, th.at(l));
                    }
                    if !store.is_empty() {
                        let srcs: Vec<_> = store.iter().map(|&(c, _, _)| wh.col(c)).collect();
                        st.basis_lane_scal_copy(aph, &srcs, &handles, drained);
                    }
                    st.sync();
                }
                {
                    let mut st = ctx.stream();
                    let th = st.slice_mut(&mut tokens);
                    let uh = st.block_mut(&mut u);
                    let ymh = st.block_mut(&mut ymat);
                    for &(l, kc) in &upds {
                        st.host_lsq(kc, th.at(l), ymh.col_mut(l));
                    }
                    for &(l, kc) in &upds {
                        let vh = st.basis(&lanes[l].v);
                        st.gemv_n_add(vh, kc, ymh.col(l), uh.col_mut(l));
                    }
                    st.sync();
                }
                for &(l, _) in &upds {
                    self.precond
                        .apply(ctx, self.a.plain_opt(), u.col(l), &mut zvec);
                    add_update(ctx, &zvec, x.col_mut(l));
                }
                self.barrier_residual_region(ctx, b, x, &mut r, &mut gammas, &cycle);
            }

            self.resolve_cycle(&mut lanes, &mut results, &gammas, &cycle);
        }

        results
            .into_iter()
            .map(|r| r.expect("every column resolved"))
            .collect()
    }
}

/// The lagged read spans of one lane's deferred host step: its slice of
/// the previous-parity Hessenberg coefficients (both CGS passes when
/// two-pass) and its subdiagonal norm slot.
fn lagged_spans<S: BackendScalar>(
    h1p: ArgSlice<S>,
    h2p: ArgSlice<S>,
    npv: ArgSlice<S>,
    c: usize,
    ncols_prev: usize,
    two_pass: bool,
) -> Vec<ArgSlice<S>> {
    let mut lagged = vec![h1p.sub(c * ncols_prev, ncols_prev)];
    if two_pass {
        lagged.push(h2p.sub(c * ncols_prev, ncols_prev));
    }
    lagged.push(npv.sub(c, 1));
    lagged
}
