//! Batched multi-RHS restarted GMRES(m): `k` independent solves in
//! lockstep, sharing kernel launches.
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
//! # Host steps
//!
//! Each lane's host step — its Givens rotations and convergence test
//! after every iteration, its least-squares solve at the cycle barrier
//! — runs on the host as soon as the device results it reads are
//! synced, because it decides the next active set. Its HostDense charge
//! lands on the simulated timeline right there, at the makespan, so the
//! host step serializes against the device stream each iteration: the
//! lockstep launch-latency exposure the paper's Belos runs pay. The
//! recorded regions between host steps (the SpMM and blocked CGS2 of an
//! iteration, the barrier's per-lane update chains and explicit
//! residuals) still overlap their independent lanes on the timeline.
//!
//! # One driver
//!
//! This module is the crate's only GMRES(m) driver, and
//! `BlockGmres::run_cycle` its only cycle loop: the cycle, restart,
//! Belos loss-of-accuracy and deflation policy live there and nowhere
//! else. [`BlockGmres::solve`] runs its cycles through it, and so does
//! the serving engine between admission barriers. The single-RHS
//! [`Gmres`] is a one-lane front over `solve`, and `GmresIr`'s one
//! refinement loop (which `GmresIr3` nests) runs one of its cycles per
//! refinement step. The loss-of-accuracy restart rule that compressed-basis solves lean
//! on (Aliaga et al., arXiv:2009.12101) therefore has one home.
//!
//! # Determinism contract
//!
//! Because every batched kernel preserves the per-column operation order
//! of its single-vector counterpart (see `mpgmres-backend`'s multi-RHS
//! contract), each column's solution, iteration history, and terminal
//! status are **bit-for-bit identical** to an independent single-RHS
//! solve of that column, on every backend. The test suites hold this
//! contract against a textbook GMRES(m) oracle written on plain slices
//! (`tests/common/oracle.rs`), not against a second driver. At width 1 every block cost collapses to the
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
use crate::context::{GpuContext, GpuMatrix, GpuStore, Operator};
use crate::precond::{self, Preconditioner};
use crate::service::{SolveError, SolveOutcome, SolveRequest, Solver};
use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
use crate::stream::{
    ArgSlice, ArgSliceMut, BasisMut, BasisRef, BlockMut, BlockRef, MatRef, Stream,
};
use mpgmres_backend::BackendScalar;
use mpgmres_gpusim::cost::HostWork;
use mpgmres_gpusim::KernelClass;
use mpgmres_la::basis::BasisStore;
use mpgmres_la::givens::GivensLsq;
use mpgmres_la::multivec::MultiVec;

/// Batched multi-RHS GMRES(m): `k` single-RHS solves in lockstep.
pub struct BlockGmres<'a, S: BackendScalar> {
    a: Operator<'a, S>,
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

/// The cycle workspace, sized once for `(n, k, m)` and reused across
/// cycles — and, in the serving engine, across admission epochs.
pub(crate) struct CycleWs<S> {
    /// Current residual block (n x k), one column per lane slot.
    r: MultiVec<S>,
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
    /// First/second-pass projection coefficients (k * m each) and
    /// per-active-lane candidate-basis norms of the current iteration.
    h1: Vec<S>,
    h2: Vec<S>,
    norms: Vec<S>,
    /// Per-lane explicit residual norms: initial, at admission and at
    /// every cycle barrier.
    pub(crate) gammas: Vec<S>,
    /// Coefficients `1/h_{j+1,j}` of the basis extension, one per
    /// extending lane.
    alphas: Vec<S>,
}

impl<S: BackendScalar> CycleWs<S> {
    pub(crate) fn new(n: usize, k: usize, m: usize) -> Self {
        CycleWs {
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
            alphas: vec![S::zero(); k],
        }
    }
}

/// Handles of one region's registrations: the operand, the iteration
/// buffers, the bases of the lanes in `lanes` (ascending, mutably), and
/// the barrier blocks in barrier regions.
struct Regs<'r, 'c, S> {
    a: MatRef<'c, S>,
    z: BlockMut<'c, S>,
    w: BlockMut<'c, S>,
    h1: ArgSliceMut<'c, S>,
    h2: ArgSliceMut<'c, S>,
    norms: ArgSliceMut<'c, S>,
    lanes: &'r [usize],
    bases: Vec<BasisMut<'c, S>>,
    barrier: Option<BarrierRegs<'c, S>>,
}

/// Handles of the blocks only the cycle barrier touches.
struct BarrierRegs<'c, S> {
    b: BlockRef<'c, S>,
    x: BlockMut<'c, S>,
    r: BlockMut<'c, S>,
    u: BlockMut<'c, S>,
    ymat: BlockMut<'c, S>,
    gammas: ArgSliceMut<'c, S>,
}

impl<'c, S: BackendScalar> Regs<'_, 'c, S> {
    /// Lane `l`'s registered basis.
    fn basis(&self, l: usize) -> BasisMut<'c, S> {
        let i = self.lanes.binary_search(&l).expect("lane registered");
        self.bases[i]
    }

    /// The barrier blocks (registered in barrier regions only).
    fn barrier(&self) -> &BarrierRegs<'c, S> {
        self.barrier.as_ref().expect("barrier blocks registered")
    }
}

/// `&mut lane.v` for the lane indices in `which` (ascending), in order —
/// the piecewise-mutable gather behind the regions' exclusive basis
/// registrations. The fused lane-set kernels pair sources with
/// destinations by position; this helper asserts the ascending order
/// instead of letting an out-of-order set silently drop a lane, and
/// that every index names a lane.
fn lane_vs_mut<'l, 'w, S: BackendScalar>(
    lanes: &'l mut [Lane<S>],
    which: &'w [usize],
) -> impl Iterator<Item = &'l mut BasisStore<S>> + 'w
where
    'l: 'w,
{
    assert!(
        which.windows(2).all(|w| w[0] < w[1]),
        "lane sets must be ascending"
    );
    assert!(
        which.last().is_none_or(|&l| l < lanes.len()),
        "lane set out of range"
    );
    (lanes.iter_mut().enumerate())
        .filter(|(l, _)| which.binary_search(l).is_ok())
        .map(|(_, lane)| &mut lane.v)
}

/// `x += z` on an eager stream: a preconditioned lane's solution
/// update, between the eager apply that produced `z` and the barrier's
/// residual region.
fn add_update<S: BackendScalar>(ctx: &mut GpuContext, z: &[S], x: &mut [S]) {
    let mut st = Stream::eager(ctx);
    let (zh, xh) = (st.slice(z), st.slice_mut(x));
    st.axpy(S::one(), zh, xh);
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
        let packed = match (req.operator, req.store) {
            (Operator::Matrix(a), path) => GpuStore::for_path(a, path),
            (Operator::Store(_), StorePath::Native) => None,
            (Operator::Store(_), _) => {
                return Err(SolveError::UnsupportedCombination(
                    "a store operand already fixes the storage path; \
                     leave `store` at StorePath::Native"
                        .into(),
                ))
            }
        };
        let op = packed.as_ref().map_or(req.operator, Operator::Store);
        let solver = BlockGmres::try_on(op, req.precond, req.config)?;
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
        Self::try_on(Operator::Matrix(a), precond, cfg)
    }

    /// Build a solver over either operator kind. Over a storage path the
    /// preconditioner must not need the plain matrix at application time
    /// ([`Preconditioner::needs_matrix`] is `false`: identity, block
    /// Jacobi, cast wrappers): the SpMM streams the store's narrow values
    /// while the preconditioner applies in the working precision. A
    /// matrix-needing preconditioner there degrades to
    /// [`SolveError::UnsupportedCombination`] — a packed store cannot
    /// feed its SpMVs.
    pub fn try_on(
        a: Operator<'a, S>,
        precond: &'a dyn Preconditioner<S>,
        cfg: GmresConfig,
    ) -> Result<Self, SolveError> {
        cfg.validate()?;
        precond::check_dim(precond, a.n())?;
        if a.matrix().is_none() && precond.needs_matrix() {
            return Err(SolveError::UnsupportedCombination(format!(
                "preconditioner '{}' needs the plain matrix, which a packed \
                 storage path ({} values) does not carry",
                precond.describe(),
                a.tag(),
            )));
        }
        Ok(BlockGmres { a, precond, cfg })
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
    /// solve of that column. A column whose initial residual is 0, such
    /// as every column of an empty (n = 0) system, returns the trivial
    /// converged result with 0 iterations.
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
        let mut ws = CycleWs::new(n, k, self.cfg.m);
        let (mut lanes, mut results) = self.init_lanes(ctx, b, x, &mut ws);
        loop {
            let cycle = self.collect_cycle(&mut lanes, &mut results, |_| true);
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

    /// Initial residuals `R = B - A X`, reference norms (into
    /// `ws.gammas`), and per-lane state.
    fn init_lanes(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &MultiVec<S>,
        ws: &mut CycleWs<S>,
    ) -> (Vec<Lane<S>>, Vec<Option<SolveResult>>) {
        let k = b.k();
        {
            let mut st = ctx.stream();
            let ah = st.operator(self.a);
            let bh = st.block(b);
            let xh = st.block(x);
            let rh = st.block_mut(&mut ws.r);
            let nh = st.slice_mut(&mut ws.gammas);
            for l in 0..k {
                st.residual_as(KernelClass::SpMV, ah, bh.col(l), xh.col(l), rh.col_mut(l));
            }
            st.block_norm2_into(rh.read(), k, nh);
            st.sync();
        }

        let mut lanes: Vec<Lane<S>> = Vec::with_capacity(k);
        let mut results: Vec<Option<SolveResult>> = (0..k).map(|_| None).collect();

        for (l, result) in results.iter_mut().enumerate() {
            let (lane, terminal) =
                self.lane_from_norm(ws.gammas[l], self.cfg.rtol, self.cfg.max_iters);
            *result = terminal;
            lanes.push(lane);
        }
        (lanes, results)
    }

    /// Initial residuals and reference norms for a set of lanes being
    /// admitted into a running engine: `r[:, l] = b[:, l] - A x[:, l]`
    /// and its norm into `ws.gammas[l]` for each admitted slot `l`,
    /// recorded as one region.
    pub(crate) fn admit_lanes(
        &self,
        ctx: &mut GpuContext,
        b: &MultiVec<S>,
        x: &MultiVec<S>,
        ws: &mut CycleWs<S>,
        admit: &[usize],
    ) {
        let mut st = ctx.stream();
        let ah = st.operator(self.a);
        let bh = st.block(b);
        let xh = st.block(x);
        let rh = st.block_mut(&mut ws.r);
        let nh = st.slice_mut(&mut ws.gammas);
        for &l in admit {
            st.residual_as(KernelClass::SpMV, ah, bh.col(l), xh.col(l), rh.col_mut(l));
            st.norm2_into(rh.col(l), nh.at(l));
        }
        st.sync();
    }

    /// A vacant lane slot for the serving engine: zero-row basis, no
    /// state, immediately terminal if ever collected (it never is — the
    /// engine only cycles occupied slots).
    pub(crate) fn free_lane(&self) -> Lane<S> {
        self.lane_from_norm(S::zero(), self.cfg.rtol, self.cfg.max_iters)
            .0
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

    /// Eligible columns still solving, in lane order; lanes at the
    /// iteration cap are resolved here (the cycle-top iteration-cap
    /// check). The serving engine passes its occupancy map as
    /// `eligible`, so vacant lane slots never enter a cycle.
    pub(crate) fn collect_cycle(
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
    /// caller charges the step.
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
    /// column. The caller charges the solves.
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

    /// One full GMRES(m) cycle over the given lane set: cycle start
    /// (`v1 = r/gamma`), `m` lockstep Arnoldi steps, the cycle barrier
    /// (per-lane least-squares solves, solution updates, explicit
    /// residuals), and per-lane status resolution. The crate's only
    /// cycle loop: [`BlockGmres::solve`] and the serving engine both run
    /// it.
    ///
    /// Host arithmetic runs as soon as its device results are synced (it
    /// decides the next act set), and its HostDense charge lands right
    /// after it, at the makespan: each iteration's Givens steps before
    /// its basis extension, the barrier's least-squares solves before
    /// the update region.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_cycle(
        &self,
        ctx: &mut GpuContext,
        lanes: &mut [Lane<S>],
        results: &mut [Option<SolveResult>],
        ws: &mut CycleWs<S>,
        b: &MultiVec<S>,
        x: &mut MultiVec<S>,
        cycle: &[usize],
    ) {
        let identity = self.precond.is_identity();
        self.start_cycle(ctx, lanes, &ws.r, cycle);
        // The lanes that extend their basis after an iteration
        // (ascending) and their compact positions in its act set.
        let (mut ext, mut pos) = (Vec::new(), Vec::new());

        for j in 0..self.cfg.m {
            // Lanes still iterating this cycle (lockstep: all share j).
            let act: Vec<usize> = cycle
                .iter()
                .copied()
                .filter(|&l| lanes[l].in_cycle && lanes[l].total_iters < lanes[l].max_iters)
                .collect();
            if act.is_empty() {
                break;
            }
            let ncols = j + 1;

            // The direction block Z[:, c] = M^{-1} v_j: one fused lane
            // gather under the identity, per-lane applies otherwise.
            // Native lanes lend their columns in place; compressed lanes
            // promote their narrow columns first (each a charged cast).
            if identity {
                let native = act.iter().all(|&l| lanes[l].v.is_native());
                let mut st = Stream::eager(ctx);
                let h = self.register(&mut st, ws, lanes, &act, None);
                rec_gather(&mut st, &h, &act, j, native);
            } else {
                for (c, &l) in act.iter().enumerate() {
                    if let Some(nv) = lanes[l].v.as_native() {
                        self.precond
                            .apply(ctx, self.a.matrix(), nv.col(j), ws.z.col_mut(c));
                    } else {
                        {
                            let mut st = Stream::eager(ctx);
                            let (vh, zh) = (st.basis(&lanes[l].v), st.slice_mut(&mut ws.zvec));
                            st.basis_promote_col(vh, j, zh);
                        }
                        self.precond
                            .apply(ctx, self.a.matrix(), &ws.zvec, ws.z.col_mut(c));
                    }
                }
            }

            // W = A Z (one matrix read for all active columns) plus the
            // orthogonalization.
            if self.cfg.ortho == OrthoMethod::Mgs {
                self.mgs(ctx, lanes, ws, &act, ncols);
            } else {
                let mut st = ctx.stream();
                let h = self.register(&mut st, ws, lanes, &act, None);
                self.rec_cgs(&mut st, &h, &act, ncols);
            }

            // Per-lane host steps (Hessenberg column assembly, Givens
            // update, convergence decisions), their charges, and the
            // extension v_{j+1} = w_c / h_{j+1,j} of the lanes that
            // continue.
            ext.clear();
            pos.clear();
            for (c, &l) in act.iter().enumerate() {
                let hj1 = ws.norms[c];
                if let Some(inv) = self.lane_host_step(&mut lanes[l], c, ncols, &ws.h1, &ws.h2, hj1)
                {
                    ws.alphas[ext.len()] = inv;
                    ext.push(l);
                    pos.push(c);
                }
            }
            for _ in &act {
                ctx.charge_host(HostWork::Iteration(j));
            }
            if !ext.is_empty() {
                let mut st = Stream::eager(ctx);
                let (wh, ah) = (st.block(&ws.w), st.slice(&ws.alphas));
                let srcs: Vec<ArgSlice<S>> = pos.iter().map(|&c| wh.col(c)).collect();
                let vs = st.bases_mut(lane_vs_mut(lanes, &ext));
                st.basis_lane_scal_copy(ah, &srcs, &vs, ncols);
            }
        }

        // Cycle barrier, host half: per-lane least-squares solves and
        // restart bookkeeping; each solved lane queues its update.
        let upds = self.barrier_lsq(lanes, cycle, &mut ws.u, &mut ws.ymat);
        for &(_, kc) in &upds {
            ctx.charge_host(HostWork::Restart(kc));
        }
        let upd_lanes: Vec<usize> = upds.iter().map(|&(l, _)| l).collect();

        // Device half: per-lane update chains x += M^{-1} V y and the
        // explicit residuals. Each lane's chain is independent of every
        // other lane's, so the recorded DAG overlaps them.
        {
            let mut st = ctx.stream();
            let h = self.register(&mut st, ws, lanes, &upd_lanes, Some((b, &mut *x)));
            rec_update(&mut st, &h, &upds, identity);
            if identity {
                self.rec_residuals(&mut st, &h, cycle);
            }
        }
        if !identity {
            // Preconditioner applications run eagerly between the update
            // and residual regions.
            for &(l, _) in &upds {
                self.precond
                    .apply(ctx, self.a.matrix(), ws.u.col(l), &mut ws.zvec);
                add_update(ctx, &ws.zvec, x.col_mut(l));
            }
            let mut st = ctx.stream();
            let h = self.register(&mut st, ws, lanes, &[], Some((b, &mut *x)));
            self.rec_residuals(&mut st, &h, cycle);
        }

        self.resolve_cycle(lanes, results, &ws.gammas, cycle);
    }

    /// Register the cycle buffers on `st` — the barrier blocks only
    /// when `bx` lends `b` and `x` — and the bases of the lanes in `reg`
    /// (ascending) mutably.
    fn register<'c, 'r>(
        &self,
        st: &mut Stream<'c>,
        ws: &'c mut CycleWs<S>,
        lanes: &'c mut [Lane<S>],
        reg: &'r [usize],
        bx: Option<(&'c MultiVec<S>, &'c mut MultiVec<S>)>,
    ) -> Regs<'r, 'c, S>
    where
        'a: 'c,
    {
        let barrier = bx.map(|(b, x)| BarrierRegs {
            b: st.block(b),
            x: st.block_mut(x),
            r: st.block_mut(&mut ws.r),
            u: st.block_mut(&mut ws.u),
            ymat: st.block_mut(&mut ws.ymat),
            gammas: st.slice_mut(&mut ws.gammas),
        });
        Regs {
            a: st.operator(self.a),
            z: st.block_mut(&mut ws.z),
            w: st.block_mut(&mut ws.w),
            h1: st.slice_mut(&mut ws.h1),
            h2: st.slice_mut(&mut ws.h2),
            norms: st.slice_mut(&mut ws.norms),
            lanes: reg,
            bases: st.bases_mut(lane_vs_mut(lanes, reg)),
            barrier,
        }
    }

    /// Record the SpMM and the blocked CGS projections of iteration
    /// `ncols - 1` over the act set: a chain through W.
    fn rec_cgs<'c>(&self, st: &mut Stream<'c>, h: &Regs<'_, 'c, S>, act: &[usize], ncols: usize) {
        let vs: Vec<BasisRef<S>> = act.iter().map(|&l| h.basis(l).read()).collect();
        st.spmm(h.a, h.z.read(), act.len(), h.w);
        st.block_gemv_t(&vs, ncols, h.w.read(), h.h1);
        st.block_gemv_n_sub(&vs, ncols, h.h1.read(), h.w);
        if self.cfg.ortho == OrthoMethod::Cgs2 {
            st.block_gemv_t(&vs, ncols, h.w.read(), h.h2);
            st.block_gemv_n_sub(&vs, ncols, h.h2.read(), h.w);
        }
        st.block_norm2_into(h.w.read(), act.len(), h.norms);
    }

    /// Modified Gram-Schmidt: 2j skinny kernels per lane, each feeding
    /// the next host decision; nothing to batch or record, so even the
    /// SpMM runs on an eager stream (a serial charge in either streaming
    /// mode).
    fn mgs(
        &self,
        ctx: &mut GpuContext,
        lanes: &[Lane<S>],
        ws: &mut CycleWs<S>,
        act: &[usize],
        ncols: usize,
    ) {
        {
            let mut st = Stream::eager(ctx);
            let ah = st.operator(self.a);
            let zh = st.block(&ws.z);
            let wh = st.block_mut(&mut ws.w);
            st.spmm(ah, zh, act.len(), wh);
        }
        for (c, &l) in act.iter().enumerate() {
            // MGS reads columns through S-typed views, so it is
            // native-only (validate() rejects the combination).
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
        st.block_norm2_into(wh, act.len(), nh);
    }

    /// Record the explicit residual `r = b - A x` and its norm for every
    /// cycle lane.
    fn rec_residuals<'c>(&self, st: &mut Stream<'c>, h: &Regs<'_, 'c, S>, cycle: &[usize]) {
        let bar = h.barrier();
        for &l in cycle {
            let (b, x, r) = (bar.b.col(l), bar.x.col(l), bar.r.col_mut(l));
            st.residual_as(KernelClass::SpMV, h.a, b, x, r);
            st.norm2_into(bar.r.col(l), bar.gammas.at(l));
        }
    }
}

/// Record the direction gather `Z[:, c] = v_j` of lane `act[c]`: one
/// fused lane copy over native lanes, a promotion per compressed lane.
fn rec_gather<'c, S: BackendScalar>(
    st: &mut Stream<'c>,
    h: &Regs<'_, 'c, S>,
    act: &[usize],
    j: usize,
    native: bool,
) {
    if native {
        let srcs: Vec<ArgSlice<S>> = act.iter().map(|&l| h.basis(l).col(j)).collect();
        let dsts: Vec<ArgSliceMut<S>> = (0..act.len()).map(|c| h.z.col_mut(c)).collect();
        st.lane_copy(&srcs, &dsts);
    } else {
        for (c, &l) in act.iter().enumerate() {
            st.basis_promote_col(h.basis(l).read(), j, h.z.col_mut(c));
        }
    }
}

/// Record each updating lane's `u = V y`, plus `x += u` when the
/// preconditioner is the identity (otherwise the eager apply of `u`
/// updates `x`).
fn rec_update<'c, S: BackendScalar>(
    st: &mut Stream<'c>,
    h: &Regs<'_, 'c, S>,
    upds: &[(usize, usize)],
    add: bool,
) {
    let bar = h.barrier();
    for &(l, kc) in upds {
        st.gemv_n_add(h.basis(l).read(), kc, bar.ymat.col(l), bar.u.col_mut(l));
        if add {
            st.axpy(S::one(), bar.u.col(l), bar.x.col_mut(l));
        }
    }
}
