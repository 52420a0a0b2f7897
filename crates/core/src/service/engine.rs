//! The long-running lane engine: a [`BlockGmres`] whose `k` lane slots
//! are re-seeded mid-flight. Batch solves run init → cycle → ... →
//! done over a fixed set of right-hand sides; the engine instead keeps
//! the lockstep cycle machinery alive indefinitely, admitting pending
//! requests into slots vacated by deflation at cycle barriers.
//!
//! Parity: an admitted lane runs exactly the arithmetic of the same
//! column in a batch [`BlockGmres::solve`] — admission records the same
//! residual + norm ops as batch init, re-seeding swaps in a fresh lane
//! state, and cycles run through the very same
//! [`BlockGmres::run_cycle`] the batch driver uses. Since every batch column is bit-identical to an independent
//! [`crate::Gmres`] solve, so is every served request.

use mpgmres_backend::BackendScalar;
use mpgmres_la::multivec::MultiVec;

use crate::block_gmres::{BlockGmres, Lane, LockstepWs};
use crate::config::SchedulerPolicy;
use crate::context::GpuContext;
use crate::service::request::{Degradation, Disposition, RequestId, SolveOutcome};
use crate::service::{wait_bucket, BufferPool};
use crate::status::SolveResult;

/// One queued request: payload copied out of the caller's borrow at
/// submission, plus the stopping parameters that stay per-lane.
pub(crate) struct Queued<S> {
    pub(crate) id: RequestId,
    pub(crate) rhs: Vec<S>,
    pub(crate) x0: Vec<S>,
    pub(crate) rtol: f64,
    pub(crate) max_iters: usize,
    /// Simulated seconds at submission.
    pub(crate) submitted: f64,
    /// Scheduling weight; larger admits sooner under `Priority`.
    pub(crate) priority: i32,
    /// Absolute simulated-seconds deadline (`INFINITY` when none).
    pub(crate) deadline_at: f64,
    /// May this request be re-routed down the precision ladder?
    pub(crate) degradable: bool,
    /// Cycle barriers spent waiting in the current group's queue.
    pub(crate) waited: usize,
    /// Ladder rung applied so far, if the request was re-routed.
    pub(crate) degraded: Option<Degradation>,
}

/// Book-keeping for one occupied lane slot.
struct Slot {
    id: RequestId,
    submitted: f64,
    admitted: f64,
    cancelled: bool,
    deadline_at: f64,
    degraded: Option<Degradation>,
}

/// A continuously running [`BlockGmres`] lane group serving one
/// compatible family of requests (same operand, preconditioner,
/// restart/orthogonalization configuration, and tenant; tolerances and
/// iteration caps vary per lane).
pub(crate) struct LaneEngine<'a, S: BackendScalar> {
    solver: BlockGmres<'a, S>,
    b: MultiVec<S>,
    x: MultiVec<S>,
    ws: LockstepWs<S>,
    lanes: Vec<Lane<S>>,
    results: Vec<Option<SolveResult>>,
    slots: Vec<Option<Slot>>,
    cycles: usize,
    lane_cycles: usize,
    admissions: usize,
}

impl<'a, S: BackendScalar> LaneEngine<'a, S> {
    /// An idle engine with `k` vacant lane slots.
    pub(crate) fn new(solver: BlockGmres<'a, S>, k: usize) -> Self {
        let n = solver.n();
        let m = solver.config().m;
        let lanes: Vec<Lane<S>> = (0..k).map(|_| solver.free_lane()).collect();
        LaneEngine {
            b: MultiVec::zeros(n, k),
            x: MultiVec::zeros(n, k),
            ws: LockstepWs::new(n, k, m),
            lanes,
            results: (0..k).map(|_| None).collect(),
            slots: (0..k).map(|_| None).collect(),
            solver,
            cycles: 0,
            lane_cycles: 0,
            admissions: 0,
        }
    }

    /// Currently occupied lane slots.
    pub(crate) fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// No lanes in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.occupied() == 0
    }

    /// Cycles run / occupied-lane-cycle pairs / admission barriers.
    pub(crate) fn counters(&self) -> (usize, usize, usize) {
        (self.cycles, self.lane_cycles, self.admissions)
    }

    /// Flag an in-flight request for cancellation; takes effect at the
    /// next cycle barrier. Returns whether the id occupies a slot.
    pub(crate) fn cancel(&mut self, id: RequestId) -> bool {
        for slot in self.slots.iter_mut().flatten() {
            if slot.id == id {
                slot.cancelled = true;
                return true;
            }
        }
        false
    }

    /// Admit as many queued requests as there are vacant slots (capped
    /// by `max_admit` under fair-share budgeting): one recorded
    /// admission region for the whole batch, then per-slot lane
    /// re-seeding. Requests that resolve at the admission barrier
    /// itself (zero right-hand side, non-finite data, `rtol >= 1`)
    /// produce their outcome immediately.
    ///
    /// The `policy` decides *which* queued requests fill the vacancies;
    /// it never touches the arithmetic. The selected batch keeps queue
    /// order, which fixes the deterministic mapping of requests onto the
    /// vacant slots (the i-th selected request takes the i-th free slot)
    /// under every policy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit_from(
        &mut self,
        ctx: &mut GpuContext,
        queue: &mut Vec<Queued<S>>,
        outcomes: &mut Vec<SolveOutcome<S>>,
        pool: &mut BufferPool<S>,
        policy: SchedulerPolicy,
        max_admit: usize,
        wait_hist: &mut [usize; 8],
    ) {
        let free: Vec<usize> = (0..self.slots.len())
            .filter(|&l| self.slots[l].is_none())
            .collect();
        let take = free.len().min(queue.len()).min(max_admit);
        if take == 0 {
            return;
        }
        let admit = &free[..take];
        let batch: Vec<Queued<S>> = Self::pick(queue, policy, take);
        for (&slot, q) in admit.iter().zip(&batch) {
            self.b.col_mut(slot).copy_from_slice(&q.rhs);
            self.x.col_mut(slot).copy_from_slice(&q.x0);
        }
        // Epoch boundary: everything charged before this mark belongs
        // to earlier admissions.
        ctx.mark_epoch();
        self.solver
            .admit_lanes(ctx, &self.b, &self.x, &mut self.ws, admit);
        let now = ctx.elapsed();
        for (&slot, q) in admit.iter().zip(batch) {
            let terminal = self.solver.reseed_lane(
                &mut self.lanes[slot],
                self.ws.norms[slot],
                q.rtol,
                q.max_iters,
            );
            wait_hist[wait_bucket(q.waited)] += 1;
            self.results[slot] = None;
            self.slots[slot] = Some(Slot {
                id: q.id,
                submitted: q.submitted,
                admitted: now,
                cancelled: false,
                deadline_at: q.deadline_at,
                degraded: q.degraded,
            });
            // The payload lives in the lane columns now; the carrier
            // buffers go back to the pool for the next submission.
            pool.give(q.rhs);
            pool.give(q.x0);
            if let Some(res) = terminal {
                self.results[slot] = Some(res);
                self.finish(slot, outcomes, Disposition::Completed, now, pool);
            }
        }
        self.admissions += 1;
    }

    /// Remove the top `take` requests under `policy` from `queue`,
    /// preserving arrival order within the selected batch (selection
    /// decides *membership*, not slot mapping — ties fall back to
    /// arrival order via the stable sort).
    fn pick(queue: &mut Vec<Queued<S>>, policy: SchedulerPolicy, take: usize) -> Vec<Queued<S>> {
        if take >= queue.len() {
            return core::mem::take(queue);
        }
        let mut order: Vec<usize> = (0..queue.len()).collect();
        match policy {
            // FIFO semantics: fair-share shapes *how many* admit per
            // tenant, not their order.
            SchedulerPolicy::Fifo | SchedulerPolicy::TenantFairShare => {}
            SchedulerPolicy::Priority => {
                order.sort_by_key(|&i| core::cmp::Reverse(queue[i].priority));
            }
            SchedulerPolicy::EarliestDeadlineFirst => {
                order.sort_by(|&i, &j| queue[i].deadline_at.total_cmp(&queue[j].deadline_at));
            }
        }
        let mut selected = vec![false; queue.len()];
        for &i in &order[..take] {
            selected[i] = true;
        }
        let mut batch = Vec::with_capacity(take);
        let mut rest = Vec::with_capacity(queue.len() - take);
        for (i, q) in queue.drain(..).enumerate() {
            if selected[i] {
                batch.push(q);
            } else {
                rest.push(q);
            }
        }
        *queue = rest;
        batch
    }

    /// Run one lockstep cycle over the occupied slots. Cancellations
    /// and deadline expiries take effect first (the request leaves with
    /// the iterate of the last completed barrier); newly terminal lanes
    /// produce outcomes and vacate their slots.
    pub(crate) fn step(
        &mut self,
        ctx: &mut GpuContext,
        outcomes: &mut Vec<SolveOutcome<S>>,
        pool: &mut BufferPool<S>,
    ) {
        let now = ctx.elapsed();
        for l in 0..self.slots.len() {
            let Some(s) = self.slots[l].as_ref() else {
                continue;
            };
            if s.cancelled {
                self.finish(l, outcomes, Disposition::Cancelled, now, pool);
            } else if s.deadline_at <= now {
                self.finish(l, outcomes, Disposition::DeadlineExceeded, now, pool);
            }
        }
        let slots = &self.slots;
        let cycle = self
            .solver
            .collect_cycle_eligible(&mut self.lanes, &mut self.results, |l| slots[l].is_some());
        // Collection can resolve lanes terminal at the barrier (caps,
        // lucky breakdowns) without running another cycle.
        for l in 0..self.slots.len() {
            if self.slots[l].is_some() && self.results[l].is_some() {
                self.finish(l, outcomes, Disposition::Completed, now, pool);
            }
        }
        if cycle.is_empty() {
            return;
        }
        self.solver.run_cycle(
            ctx,
            &mut self.lanes,
            &mut self.results,
            &mut self.ws,
            &self.b,
            &mut self.x,
            &cycle,
        );
        self.cycles += 1;
        self.lane_cycles += cycle.len();
        let now = ctx.elapsed();
        for &l in &cycle {
            if self.slots[l].is_some() && self.results[l].is_some() {
                self.finish(l, outcomes, Disposition::Completed, now, pool);
            }
        }
    }

    /// Vacate `slot` into an outcome. The lane keeps its basis
    /// allocation — `reseed_lane` swaps it into the next occupant, so
    /// warm slots admit without reallocating — and the outcome's
    /// solution rides a pooled buffer, so warm serving allocates
    /// nothing per request.
    fn finish(
        &mut self,
        slot: usize,
        outcomes: &mut Vec<SolveOutcome<S>>,
        disposition: Disposition,
        now: f64,
        pool: &mut BufferPool<S>,
    ) {
        let s = self.slots[slot].take().expect("slot occupied");
        let result = self.results[slot].take();
        debug_assert!(result.is_some() || disposition != Disposition::Completed);
        let col = self.x.col(slot);
        let mut x = pool.take(col.len());
        x.extend_from_slice(col);
        outcomes.push(SolveOutcome {
            id: s.id,
            x,
            result,
            disposition,
            degraded: s.degraded,
            queued_seconds: s.admitted - s.submitted,
            solve_seconds: now - s.admitted,
        });
    }
}
