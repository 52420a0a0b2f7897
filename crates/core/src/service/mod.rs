//! Solve-as-a-service: continuous lane admission behind the unified
//! [`SolveRequest`] API.
//!
//! ```text
//!   submit() ──► per-group request queue
//!                      │  admission (at cycle barriers, into
//!                      ▼   lanes vacated by deflation)
//!                ┌───────────────────────────────┐
//!                │ LaneEngine: BlockGmres lanes  │──► SolveOutcome
//!                │ cycle ► barrier ► admit ► ... │    (drain_outcomes)
//!                └───────────────────────────────┘
//! ```
//!
//! A [`SolverService`] keeps one lane engine per *group* of
//! compatible requests — same operand, preconditioner, tenant, and
//! cycle-shaping configuration (restart length, orthogonalization,
//! monitoring flags). Within a group, per-request
//! tolerances and iteration caps ride the individual lanes: stopping
//! parameters steer decisions, never arithmetic, so mixed-tolerance
//! lanes keep the bit-parity contract. Requests from different tenants
//! never share a group.
//!
//! Every completed request is bit-identical to an independent
//! [`crate::Gmres`] solve with the same configuration — the service
//! adds scheduling, not arithmetic. Cancellations take effect at cycle
//! barriers and return the iterate of the last completed barrier.

pub(crate) mod engine;
mod request;

pub use crate::context::Operator;
pub use request::{
    Degradation, Disposition, Qos, RequestId, SolveError, SolveOutcome, SolveRequest, Solver,
};

use mpgmres_backend::BackendScalar;

use crate::block_gmres::BlockGmres;
use crate::config::{BasisPolicy, GmresConfig, OrthoMethod, SchedulerPolicy, StorePath};
use crate::context::{GpuContext, GpuMatrix, GpuStore};
use crate::precond::Preconditioner;
use engine::{LaneEngine, Queued};

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Lane slots per engine group — the `k` of the underlying
    /// [`BlockGmres`]. Offered load beyond this queues until deflation
    /// vacates a lane. Under [`SchedulerPolicy::TenantFairShare`] the
    /// same number doubles as the shared lane budget split across
    /// tenants with outstanding work.
    pub lanes: usize,
    /// Evict an engine group after this many consecutive
    /// [`SolverService::step`] calls with an empty queue and no lane in
    /// flight (`0` = never evict). Evicted groups free their lane
    /// workspaces; a later submission with the same key transparently
    /// rebuilds the group (cold admission, identical arithmetic).
    pub idle_evict_cycles: usize,
    /// How the pending queue is ordered and which requests fill
    /// deflation-vacated lanes at cycle barriers. Scheduling only:
    /// every policy records identical admission regions and leaves the
    /// per-request arithmetic untouched.
    pub scheduler: SchedulerPolicy,
    /// Per-group queue depth bound (`0` = unbounded). A submission to a
    /// full queue is shed with [`SolveError::QueueFull`] carrying a
    /// retry-after-cycles hint derived from the group's occupancy.
    pub queue_cap: usize,
    /// Degrade horizon: once a [`Qos::degradable`] request has waited
    /// this many cycle barriers in its group's queue, it re-routes to
    /// the next cheaper group on the precision ladder (`0` = never
    /// degrade). See [`SolverService::register_degraded_store`].
    pub degrade_after_cycles: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lanes: 8,
            idle_evict_cycles: 64,
            scheduler: SchedulerPolicy::Fifo,
            queue_cap: 0,
            degrade_after_cycles: 0,
        }
    }
}

impl ServiceConfig {
    /// Builder-style lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "a lane group needs at least one lane");
        self.lanes = lanes;
        self
    }

    /// Builder-style idle-eviction horizon (`0` disables eviction).
    pub fn with_idle_evict_cycles(mut self, cycles: usize) -> Self {
        self.idle_evict_cycles = cycles;
        self
    }

    /// Builder-style admission scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style queue depth bound (`0` = unbounded).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Builder-style degrade horizon (`0` disables degradation).
    pub fn with_degrade_after_cycles(mut self, cycles: usize) -> Self {
        self.degrade_after_cycles = cycles;
        self
    }
}

/// Power-of-two wait-histogram bucket for `waited` queue barriers:
/// `[0, 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+]`.
pub(crate) fn wait_bucket(waited: usize) -> usize {
    ((usize::BITS - waited.leading_zeros()) as usize).min(7)
}

/// Free-list of payload carriers. `submit` fills a pooled buffer
/// instead of `to_vec`-ing the caller's slices, lane admission returns
/// the carrier once the payload lives in the lane columns, and outcome
/// solutions ride pooled buffers that [`SolverService::recycle`] puts
/// back. After warm-up (steady request size), serving allocates
/// nothing per request — pinned by [`ServiceStats::payload_allocs`].
pub(crate) struct BufferPool<S> {
    free: Vec<Vec<S>>,
    allocs: usize,
}

impl<S> BufferPool<S> {
    fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            allocs: 0,
        }
    }

    /// An empty buffer with capacity for `n` elements. Counts an
    /// allocation whenever the free list cannot supply the capacity.
    pub(crate) fn take(&mut self, n: usize) -> Vec<S> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        if v.capacity() < n {
            self.allocs += 1;
            v.reserve(n);
        }
        v
    }

    /// Return a buffer to the free list (contents discarded).
    pub(crate) fn give(&mut self, mut v: Vec<S>) {
        v.clear();
        self.free.push(v);
    }
}

/// Groups requests that can share one lane engine: operand and
/// preconditioner identity, tenant, and every configuration field that
/// shapes the lockstep cycle. Tolerances and iteration caps are
/// per-lane and deliberately absent.
#[derive(Clone, Copy, PartialEq, Eq)]
struct GroupKey {
    op_addr: usize,
    op_tag: u8,
    precond_addr: usize,
    tenant: u32,
    m: usize,
    ortho: OrthoMethod,
    monitor_implicit: bool,
    loa_bits: u64,
    record_history: bool,
    /// Basis storage policy: lanes of one engine share their cycle's
    /// recorded regions (and reseeded slots inherit the previous
    /// occupant's basis allocation), so requests over different basis
    /// paths must land in different groups.
    basis: crate::config::BasisPolicy,
}

struct Group<'a, S: BackendScalar> {
    key: GroupKey,
    queue: Vec<Queued<S>>,
    engine: LaneEngine<'a, S>,
    /// Consecutive `step` calls this group spent with an empty queue
    /// and no lane in flight; reset by any submission or activity.
    idle_steps: usize,
    /// The operand this group solves over — kept so degradable
    /// requests can be re-keyed onto a cheaper group.
    op: Operator<'a, S>,
    precond: &'a dyn Preconditioner<S>,
    /// Cycle-shaping configuration of the request that created the
    /// group (per-request `rtol`/`max_iters` ride the lanes instead).
    cfg: GmresConfig,
    /// Requests this group ran to completion (feeds the
    /// [`SolveError::QueueFull`] retry hint).
    served: usize,
}

/// Aggregate service counters; see [`SolverService::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted by [`SolverService::submit`].
    pub submitted: usize,
    /// Requests that ran to a terminal solver status.
    pub completed: usize,
    /// Requests cancelled (queued or mid-flight).
    pub cancelled: usize,
    /// Lockstep cycles run across all engine groups.
    pub cycles: usize,
    /// Occupied-lane ⨯ cycle pairs (the occupancy numerator).
    pub lane_cycles: usize,
    /// Admission barriers taken.
    pub admissions: usize,
    /// Engine groups currently live.
    pub groups: usize,
    /// Idle engine groups evicted over the service lifetime.
    pub evicted_groups: usize,
    /// Payload buffers freshly allocated (pool misses). Flat across
    /// warm serving rounds of steady request size.
    pub payload_allocs: usize,
    /// Lane slots per group.
    pub lanes_per_group: usize,
    /// Requests that ran past their deadline (queued or in flight);
    /// resolved at cycle barriers like cancellations.
    pub deadline_misses: usize,
    /// Requests re-routed down the precision ladder.
    pub degradations: usize,
    /// Submissions shed with [`SolveError::QueueFull`].
    pub sheds: usize,
    /// Queue-wait histogram over power-of-two barrier buckets
    /// `[0, 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64+]`, recorded whenever
    /// a request leaves a queue (admission, cancellation, expiry).
    pub wait_hist: [usize; 8],
}

impl ServiceStats {
    /// Mean fraction of lane slots doing work per cycle, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let denom = self.cycles * self.lanes_per_group;
        if denom == 0 {
            0.0
        } else {
            self.lane_cycles as f64 / denom as f64
        }
    }
}

/// A long-running multi-tenant solver front end over continuously
/// re-seeded [`BlockGmres`] lane engines.
///
/// Lifecycle: [`submit`](SolverService::submit) requests (payload is
/// copied; operand and preconditioner borrows must outlive the
/// service), drive with [`step`](SolverService::step) or
/// [`run_until_idle`](SolverService::run_until_idle), collect with
/// [`drain_outcomes`](SolverService::drain_outcomes).
pub struct SolverService<'a, S: BackendScalar> {
    cfg: ServiceConfig,
    groups: Vec<Group<'a, S>>,
    next_id: u64,
    outcomes: Vec<SolveOutcome<S>>,
    pool: BufferPool<S>,
    submitted: usize,
    completed: usize,
    cancelled: usize,
    evicted_groups: usize,
    /// Counters carried over from evicted groups so `stats` stays
    /// monotone across evictions.
    retired: (usize, usize, usize),
    /// Per-tenant lane-cycles retired with evicted groups, so
    /// [`tenant_occupancy`](SolverService::tenant_occupancy) stays
    /// monotone too.
    tenant_retired: Vec<(u32, usize)>,
    deadline_misses: usize,
    degradations: usize,
    sheds: usize,
    wait_hist: [usize; 8],
    /// Precision-ladder registry: matrix identity → the cheaper packed
    /// store degradable requests re-route onto.
    ladder: Vec<(usize, &'a GpuStore<S>)>,
}

impl<'a, S: BackendScalar> SolverService<'a, S> {
    /// An empty service.
    pub fn new(cfg: ServiceConfig) -> Self {
        SolverService {
            cfg,
            groups: Vec::new(),
            next_id: 0,
            outcomes: Vec::new(),
            pool: BufferPool::new(),
            submitted: 0,
            completed: 0,
            cancelled: 0,
            evicted_groups: 0,
            retired: (0, 0, 0),
            tenant_retired: Vec::new(),
            deadline_misses: 0,
            degradations: 0,
            sheds: 0,
            wait_hist: [0; 8],
            ladder: Vec::new(),
        }
    }

    /// Register a cheaper packed store (typically
    /// [`GpuStore::shadow_of`] at fp32) as the precision-ladder target
    /// for `a`: [`Qos::degradable`] requests over `a` whose queue wait
    /// exceeds [`ServiceConfig::degrade_after_cycles`] re-route to a
    /// group solving over `store` instead. Registering again for the
    /// same matrix replaces the entry.
    pub fn register_degraded_store(&mut self, a: &'a GpuMatrix<S>, store: &'a GpuStore<S>) {
        assert_eq!(
            a.n(),
            store.n(),
            "ladder store must match the operand dimension"
        );
        let addr = a as *const GpuMatrix<S> as usize;
        match self.ladder.iter_mut().find(|(m, _)| *m == addr) {
            Some(e) => e.1 = store,
            None => self.ladder.push((addr, store)),
        }
    }

    /// Enqueue a request. Validation happens here — a rejected request
    /// never enters a queue. The context is only read (for the
    /// submission timestamp).
    pub fn submit(
        &mut self,
        ctx: &GpuContext,
        req: &SolveRequest<'a, '_, S>,
    ) -> Result<RequestId, SolveError> {
        req.validate()?;
        if !matches!(req.store, StorePath::Native) {
            return Err(SolveError::UnsupportedCombination(
                "the service keeps operands alive across requests: build a \
                 GpuStore up front and submit it as Operator::Store instead \
                 of asking for a StorePath conversion"
                    .into(),
            ));
        }
        let gi = self.group_for(req.operator, req.precond, req.tenant, req.config)?;
        if self.cfg.queue_cap > 0 && self.groups[gi].queue.len() >= self.cfg.queue_cap {
            self.sheds += 1;
            let g = &self.groups[gi];
            // Retry hint: pending depth times the observed cycles per
            // completed solve, spread over the group's lanes.
            let (_, lane_cycles, _) = g.engine.counters();
            let per_solve = lane_cycles.checked_div(g.served).map_or(1, |c| c.max(1));
            let retry_after_cycles = (g.queue.len() * per_solve)
                .div_ceil(self.cfg.lanes.max(1))
                .max(1);
            return Err(SolveError::QueueFull {
                pending: g.queue.len(),
                retry_after_cycles,
            });
        }
        self.next_id += 1;
        let id = RequestId(self.next_id);
        let n = req.operator.n();
        // Payloads ride pooled carriers: no fresh allocation once the
        // pool is warm at this request size.
        let mut rhs = self.pool.take(n);
        rhs.extend_from_slice(req.rhs);
        let mut x0 = self.pool.take(n);
        match req.x0 {
            Some(x) => x0.extend_from_slice(x),
            None => x0.resize(n, S::zero()),
        }
        let deadline_at = match req.qos.deadline {
            Some(d) => ctx.elapsed() + d,
            None => f64::INFINITY,
        };
        self.groups[gi].idle_steps = 0;
        self.groups[gi].queue.push(Queued {
            id,
            rhs,
            x0,
            rtol: req.config.rtol,
            max_iters: req.config.max_iters,
            submitted: ctx.elapsed(),
            priority: req.qos.priority,
            deadline_at,
            degradable: req.qos.degradable,
            waited: 0,
            degraded: None,
        });
        self.submitted += 1;
        Ok(id)
    }

    /// Find or create the lane-engine group for `(operator, precond,
    /// tenant, cfg)`. Engine construction errors surface here, before
    /// any request is queued.
    fn group_for(
        &mut self,
        operator: Operator<'a, S>,
        precond: &'a dyn Preconditioner<S>,
        tenant: u32,
        cfg: GmresConfig,
    ) -> Result<usize, SolveError> {
        let key = GroupKey {
            op_addr: operator.addr(),
            op_tag: operator.tag().code(),
            precond_addr: precond as *const _ as *const () as usize,
            tenant,
            m: cfg.m,
            ortho: cfg.ortho,
            monitor_implicit: cfg.monitor_implicit,
            loa_bits: cfg.loa_factor.to_bits(),
            record_history: cfg.record_history,
            basis: cfg.basis,
        };
        if let Some(i) = self.groups.iter().position(|g| g.key == key) {
            return Ok(i);
        }
        let solver = BlockGmres::try_on(operator, precond, cfg)?;
        self.groups.push(Group {
            key,
            queue: Vec::new(),
            engine: LaneEngine::new(solver, self.cfg.lanes),
            idle_steps: 0,
            op: operator,
            precond,
            cfg,
            served: 0,
        });
        Ok(self.groups.len() - 1)
    }

    /// Cancel a request. Queued requests leave immediately (outcome
    /// carries the untouched initial guess); in-flight requests leave
    /// at the next cycle barrier with the iterate of the last completed
    /// barrier. [`SolveError::UnknownRequest`] if the id is neither
    /// queued nor in flight (e.g. already completed).
    pub fn cancel(&mut self, ctx: &GpuContext, id: RequestId) -> Result<(), SolveError> {
        for g in &mut self.groups {
            if let Some(pos) = g.queue.iter().position(|q| q.id == id) {
                let q = g.queue.remove(pos);
                self.wait_hist[wait_bucket(q.waited)] += 1;
                // Both pooled carriers return immediately; the outcome
                // rides a pooled buffer carrying the initial guess.
                // The rhs carrier goes back first so the outcome can
                // reuse it — a submit-then-cancel wave is allocation-
                // free once the pool is warm.
                self.pool.give(q.rhs);
                let mut x = self.pool.take(q.x0.len());
                x.extend_from_slice(&q.x0);
                self.pool.give(q.x0);
                self.outcomes.push(SolveOutcome {
                    id,
                    x,
                    result: None,
                    disposition: Disposition::Cancelled,
                    degraded: q.degraded,
                    queued_seconds: ctx.elapsed() - q.submitted,
                    solve_seconds: 0.0,
                });
                self.cancelled += 1;
                return Ok(());
            }
            if g.engine.cancel(id) {
                return Ok(());
            }
        }
        Err(SolveError::UnknownRequest { id })
    }

    /// One scheduling round: resolve queued deadline expiries, re-route
    /// over-waited degradable requests down the precision ladder, then
    /// per group admit pending requests into vacant lanes (ordered by
    /// [`ServiceConfig::scheduler`]) and run one lockstep cycle. Groups
    /// that stay idle for [`ServiceConfig::idle_evict_cycles`]
    /// consecutive steps are evicted (their lane workspaces freed); a
    /// later submission with the same key rebuilds them. Returns how
    /// many outcomes this step produced.
    pub fn step(&mut self, ctx: &mut GpuContext) -> usize {
        let before = self.outcomes.len();
        self.expire_queued(ctx);
        self.degrade_overwaited();
        let fair_cap = self.fair_share_cap();
        for gi in 0..self.groups.len() {
            let max_admit = match fair_cap {
                None => usize::MAX,
                Some(cap) => {
                    let t = self.groups[gi].key.tenant;
                    let occupied: usize = self
                        .groups
                        .iter()
                        .filter(|g| g.key.tenant == t)
                        .map(|g| g.engine.occupied())
                        .sum();
                    cap.saturating_sub(occupied)
                }
            };
            let done_before = self.outcomes.len();
            let g = &mut self.groups[gi];
            g.engine.admit_from(
                ctx,
                &mut g.queue,
                &mut self.outcomes,
                &mut self.pool,
                self.cfg.scheduler,
                max_admit,
                &mut self.wait_hist,
            );
            if !g.engine.is_idle() {
                g.engine.step(ctx, &mut self.outcomes, &mut self.pool);
            }
            g.served += self.outcomes[done_before..]
                .iter()
                .filter(|o| o.disposition == Disposition::Completed)
                .count();
            // Requests still queued have waited one more barrier.
            for q in &mut g.queue {
                q.waited += 1;
            }
            if g.queue.is_empty() && g.engine.is_idle() {
                g.idle_steps += 1;
            } else {
                g.idle_steps = 0;
            }
        }
        let horizon = self.cfg.idle_evict_cycles;
        if horizon > 0 {
            let retired = &mut self.retired;
            let tenant_retired = &mut self.tenant_retired;
            let evicted = &mut self.evicted_groups;
            self.groups.retain(|g| {
                if g.idle_steps < horizon {
                    return true;
                }
                let (cycles, lane_cycles, admissions) = g.engine.counters();
                retired.0 += cycles;
                retired.1 += lane_cycles;
                retired.2 += admissions;
                match tenant_retired.iter_mut().find(|(t, _)| *t == g.key.tenant) {
                    Some(e) => e.1 += lane_cycles,
                    None => tenant_retired.push((g.key.tenant, lane_cycles)),
                }
                *evicted += 1;
                false
            });
        }
        for o in &self.outcomes[before..] {
            match o.disposition {
                Disposition::Completed => self.completed += 1,
                Disposition::Cancelled => self.cancelled += 1,
                Disposition::DeadlineExceeded => self.deadline_misses += 1,
            }
        }
        self.outcomes.len() - before
    }

    /// Resolve queued requests whose deadline has passed: like a
    /// cancellation, the outcome carries the untouched initial guess
    /// and both payload carriers return to the pool.
    fn expire_queued(&mut self, ctx: &GpuContext) {
        let now = ctx.elapsed();
        for g in &mut self.groups {
            let mut i = 0;
            while i < g.queue.len() {
                if g.queue[i].deadline_at > now {
                    i += 1;
                    continue;
                }
                let q = g.queue.remove(i);
                self.wait_hist[wait_bucket(q.waited)] += 1;
                self.pool.give(q.rhs);
                let mut x = self.pool.take(q.x0.len());
                x.extend_from_slice(&q.x0);
                self.pool.give(q.x0);
                self.outcomes.push(SolveOutcome {
                    id: q.id,
                    x,
                    result: None,
                    disposition: Disposition::DeadlineExceeded,
                    degraded: q.degraded,
                    queued_seconds: now - q.submitted,
                    solve_seconds: 0.0,
                });
            }
        }
    }

    /// The next rung down the precision ladder for group `gi`, if any:
    /// a plain-matrix group with a registered store re-routes to that
    /// store (same config); otherwise a group whose basis is native —
    /// and whose configuration supports compressed storage — swaps to
    /// an fp32 compressed basis via [`Degradation::apply`].
    fn next_rung(&self, gi: usize) -> Option<(Operator<'a, S>, GmresConfig, Degradation)> {
        let g = &self.groups[gi];
        if let Operator::Matrix(a) = g.op {
            let addr = a as *const GpuMatrix<S> as usize;
            if let Some(&(_, store)) = self.ladder.iter().find(|(m, _)| *m == addr) {
                return Some((Operator::Store(store), g.cfg, Degradation::Fp32Store));
            }
        }
        if g.cfg.basis == BasisPolicy::Native && g.cfg.ortho != OrthoMethod::Mgs {
            let rung = Degradation::Fp32Basis;
            return Some((g.op, rung.apply(g.cfg), rung));
        }
        None
    }

    /// Re-route degradable requests that have waited past the horizon
    /// onto the next cheaper group. The move preserves submission time
    /// and deadline (latency is end-to-end) but resets the wait
    /// counter, so a request descends at most one rung per horizon.
    fn degrade_overwaited(&mut self) {
        let horizon = self.cfg.degrade_after_cycles;
        if horizon == 0 {
            return;
        }
        let mut moves = Vec::new();
        for gi in 0..self.groups.len() {
            if !self.groups[gi]
                .queue
                .iter()
                .any(|q| q.degradable && q.waited >= horizon)
            {
                continue;
            }
            let Some((op, cfg, rung)) = self.next_rung(gi) else {
                continue;
            };
            let g = &mut self.groups[gi];
            let mut i = 0;
            while i < g.queue.len() {
                if g.queue[i].degradable && g.queue[i].waited >= horizon {
                    let mut q = g.queue.remove(i);
                    q.waited = 0;
                    q.degraded = Some(match q.degraded {
                        None => rung,
                        Some(prev) => prev.combined_with(rung),
                    });
                    moves.push((gi, q, op, cfg));
                } else {
                    i += 1;
                }
            }
        }
        for (gi, q, op, cfg) in moves {
            let tenant = self.groups[gi].key.tenant;
            let precond = self.groups[gi].precond;
            match self.group_for(op, precond, tenant, cfg) {
                Ok(ti) => {
                    self.degradations += 1;
                    self.groups[ti].idle_steps = 0;
                    self.groups[ti].queue.push(q);
                }
                // Target engine construction failed: leave the request
                // where it was rather than lose it.
                Err(_) => self.groups[gi].queue.push(q),
            }
        }
    }

    /// Under [`SchedulerPolicy::TenantFairShare`], the per-tenant cap
    /// on concurrently occupied lanes: the shared budget
    /// ([`ServiceConfig::lanes`]) split evenly (floor, minimum 1)
    /// across tenants with outstanding work. `None` when the policy is
    /// different or at most one tenant is active — a lone tenant gets
    /// the whole budget.
    fn fair_share_cap(&self) -> Option<usize> {
        if self.cfg.scheduler != SchedulerPolicy::TenantFairShare {
            return None;
        }
        let mut tenants: Vec<u32> = self
            .groups
            .iter()
            .filter(|g| !g.queue.is_empty() || g.engine.occupied() > 0)
            .map(|g| g.key.tenant)
            .collect();
        tenants.sort_unstable();
        tenants.dedup();
        if tenants.len() <= 1 {
            return None;
        }
        Some((self.cfg.lanes / tenants.len()).max(1))
    }

    /// Step until every queue is empty and every engine idle.
    pub fn run_until_idle(&mut self, ctx: &mut GpuContext) {
        while self.pending() > 0 || self.in_flight() > 0 {
            self.step(ctx);
        }
    }

    /// Requests waiting in queues.
    pub fn pending(&self) -> usize {
        self.groups.iter().map(|g| g.queue.len()).sum()
    }

    /// Requests occupying lanes.
    pub fn in_flight(&self) -> usize {
        self.groups.iter().map(|g| g.engine.occupied()).sum()
    }

    /// Take every outcome produced since the last drain, in completion
    /// order.
    pub fn drain_outcomes(&mut self) -> Vec<SolveOutcome<S>> {
        std::mem::take(&mut self.outcomes)
    }

    /// Drain outcomes into a caller-owned buffer (in completion order),
    /// keeping the service's internal outcome vector and its capacity.
    /// Pair with [`recycle`](SolverService::recycle) for allocation-free
    /// warm serving loops.
    pub fn drain_outcomes_into(&mut self, out: &mut Vec<SolveOutcome<S>>) {
        out.append(&mut self.outcomes);
    }

    /// Return a consumed outcome's solution buffer to the payload pool,
    /// so the next submission or completion reuses it instead of
    /// allocating.
    pub fn recycle(&mut self, outcome: SolveOutcome<S>) {
        self.pool.give(outcome.x);
    }

    /// Aggregate counters across all groups (including evicted ones).
    pub fn stats(&self) -> ServiceStats {
        let mut st = ServiceStats {
            submitted: self.submitted,
            completed: self.completed,
            cancelled: self.cancelled,
            cycles: self.retired.0,
            lane_cycles: self.retired.1,
            admissions: self.retired.2,
            groups: self.groups.len(),
            evicted_groups: self.evicted_groups,
            payload_allocs: self.pool.allocs,
            lanes_per_group: self.cfg.lanes,
            deadline_misses: self.deadline_misses,
            degradations: self.degradations,
            sheds: self.sheds,
            wait_hist: self.wait_hist,
        };
        for g in &self.groups {
            let (cycles, lane_cycles, admissions) = g.engine.counters();
            st.cycles += cycles;
            st.lane_cycles += lane_cycles;
            st.admissions += admissions;
        }
        st
    }

    /// Per-tenant shares of all lane-cycles run so far (live and
    /// evicted groups), sorted by tenant id; shares sum to 1. Empty
    /// before any lane work has run.
    pub fn tenant_occupancy(&self) -> Vec<(u32, f64)> {
        let mut acc: Vec<(u32, usize)> = self.tenant_retired.clone();
        for g in &self.groups {
            let (_, lane_cycles, _) = g.engine.counters();
            match acc.iter_mut().find(|(t, _)| *t == g.key.tenant) {
                Some(e) => e.1 += lane_cycles,
                None => acc.push((g.key.tenant, lane_cycles)),
            }
        }
        let total: usize = acc.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return Vec::new();
        }
        acc.retain(|(_, c)| *c > 0);
        acc.sort_unstable_by_key(|(t, _)| *t);
        acc.into_iter()
            .map(|(t, c)| (t, c as f64 / total as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GmresConfig;
    use crate::context::{GpuContext, GpuMatrix};
    use crate::gmres::Gmres;
    use crate::precond::Identity;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::ReductionOrder;

    fn ctx() -> GpuContext {
        GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
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

    fn rhs(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 + seed * 101) % 23) as f64 / 11.0 - 1.0)
            .collect()
    }

    #[test]
    fn served_solves_match_independent_gmres_bitwise() {
        let n = 48;
        let a = laplace1d(n);
        let cfg = GmresConfig::default().with_m(12).with_rtol(1e-9);
        let mut c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(2));
        // 5 requests into 2 lanes: forces queueing and admission into
        // vacated slots.
        let payloads: Vec<Vec<f64>> = (0..5).map(|s| rhs(n, s)).collect();
        let ids: Vec<RequestId> = payloads
            .iter()
            .map(|b| {
                svc.submit(
                    &c,
                    &SolveRequest::new(Operator::Matrix(&a), b).with_config(cfg),
                )
                .unwrap()
            })
            .collect();
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        assert_eq!(outcomes.len(), 5);
        for (id, b) in ids.iter().zip(&payloads) {
            let out = outcomes.iter().find(|o| o.id == *id).unwrap();
            assert_eq!(out.disposition, Disposition::Completed);
            let mut x_ref = vec![0.0f64; n];
            let r_ref = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), b, &mut x_ref);
            let res = out.result.as_ref().unwrap();
            assert_eq!(res.status, r_ref.status);
            assert_eq!(res.iterations, r_ref.iterations);
            for (sx, rx) in out.x.iter().zip(&x_ref) {
                assert_eq!(sx.to_bits(), rx.to_bits(), "served x diverged from Gmres");
            }
        }
        let st = svc.stats();
        assert_eq!(st.completed, 5);
        assert!(st.admissions >= 2, "5 requests through 2 lanes re-admit");
        assert!(st.occupancy() > 0.0 && st.occupancy() <= 1.0);
    }

    #[test]
    fn tenants_never_share_groups() {
        let n = 24;
        let a = laplace1d(n);
        let b = rhs(n, 1);
        let c = ctx();
        let mut svc = SolverService::<f64>::new(ServiceConfig::default());
        let req = SolveRequest::new(Operator::Matrix(&a), &b);
        svc.submit(&c, &req.with_tenant(1)).unwrap();
        svc.submit(&c, &req.with_tenant(2)).unwrap();
        svc.submit(&c, &req.with_tenant(1)).unwrap();
        assert_eq!(svc.stats().groups, 2);
    }

    #[test]
    fn queued_cancellation_returns_initial_guess() {
        let n = 24;
        let a = laplace1d(n);
        let b = rhs(n, 3);
        let mut c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(1));
        let keep = svc
            .submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
            .unwrap();
        let x0 = vec![0.5f64; n];
        let dropped = svc
            .submit(
                &c,
                &SolveRequest::new(Operator::Matrix(&a), &b).with_x0(&x0),
            )
            .unwrap();
        svc.cancel(&c, dropped).unwrap();
        assert!(matches!(
            svc.cancel(&c, RequestId(999)),
            Err(SolveError::UnknownRequest { .. })
        ));
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let d = outcomes.iter().find(|o| o.id == dropped).unwrap();
        assert_eq!(d.disposition, Disposition::Cancelled);
        assert!(d.result.is_none());
        assert_eq!(d.x, x0);
        let k = outcomes.iter().find(|o| o.id == keep).unwrap();
        assert_eq!(k.disposition, Disposition::Completed);
    }

    #[test]
    fn idle_groups_are_evicted_and_rebuilt_on_demand() {
        let n = 32;
        let a = laplace1d(n);
        let b = rhs(n, 2);
        let mut c = ctx();
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(2)
                .with_idle_evict_cycles(3),
        );
        svc.submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
            .unwrap();
        svc.run_until_idle(&mut c);
        assert_eq!(svc.stats().groups, 1, "group stays live right after idle");
        let cycles_before = svc.stats().cycles;
        // Three idle steps cross the horizon; the group is evicted.
        for _ in 0..3 {
            svc.step(&mut c);
        }
        let st = svc.stats();
        assert_eq!(st.groups, 0, "idle group must be evicted");
        assert_eq!(st.evicted_groups, 1);
        assert_eq!(
            st.cycles, cycles_before,
            "eviction must not lose retired counters"
        );
        // Resubmission transparently rebuilds the group and solves.
        let id = svc
            .submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
            .unwrap();
        assert_eq!(svc.stats().groups, 1);
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let o = outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(o.disposition, Disposition::Completed);
        assert!(st.cycles > 0);
    }

    #[test]
    fn eviction_disabled_with_zero_horizon() {
        let n = 16;
        let a = laplace1d(n);
        let b = rhs(n, 1);
        let mut c = ctx();
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_idle_evict_cycles(0),
        );
        svc.submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
            .unwrap();
        svc.run_until_idle(&mut c);
        for _ in 0..200 {
            svc.step(&mut c);
        }
        assert_eq!(svc.stats().groups, 1, "horizon 0 must never evict");
        assert_eq!(svc.stats().evicted_groups, 0);
    }

    #[test]
    fn warm_serving_reuses_payload_buffers() {
        let n = 40;
        let a = laplace1d(n);
        let cfg = GmresConfig::default().with_m(10).with_rtol(1e-8);
        let mut c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(2));
        let mut sink = Vec::new();
        let mut warm = 0;
        for salt in 0..4 {
            for s in 0..3 {
                let b = rhs(n, salt * 10 + s);
                svc.submit(
                    &c,
                    &SolveRequest::new(Operator::Matrix(&a), &b).with_config(cfg),
                )
                .unwrap();
            }
            svc.run_until_idle(&mut c);
            svc.drain_outcomes_into(&mut sink);
            for o in sink.drain(..) {
                assert_eq!(o.disposition, Disposition::Completed);
                svc.recycle(o);
            }
            if salt == 0 {
                warm = svc.stats().payload_allocs;
                assert!(warm > 0, "cold round must have allocated carriers");
            }
        }
        assert_eq!(
            svc.stats().payload_allocs,
            warm,
            "warm serving rounds must allocate no payload buffers"
        );
    }

    #[test]
    fn priority_policy_admits_high_priority_first() {
        let n = 32;
        let a = laplace1d(n);
        let b = rhs(n, 4);
        let mut c = ctx();
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_scheduler(SchedulerPolicy::Priority),
        );
        let req = SolveRequest::new(Operator::Matrix(&a), &b);
        let low = svc.submit(&c, &req.with_priority(1)).unwrap();
        let mid = svc.submit(&c, &req.with_priority(5)).unwrap();
        let high = svc.submit(&c, &req.with_priority(9)).unwrap();
        svc.run_until_idle(&mut c);
        let order: Vec<RequestId> = svc.drain_outcomes().iter().map(|o| o.id).collect();
        assert_eq!(order, vec![high, mid, low]);
    }

    #[test]
    fn edf_policy_admits_nearest_deadline_first() {
        let n = 32;
        let a = laplace1d(n);
        let b = rhs(n, 4);
        let mut c = ctx();
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_scheduler(SchedulerPolicy::EarliestDeadlineFirst),
        );
        let req = SolveRequest::new(Operator::Matrix(&a), &b);
        // Generous deadlines: ordering is observable, nothing expires.
        let late = svc.submit(&c, &req.with_deadline(1e6)).unwrap();
        let soon = svc.submit(&c, &req.with_deadline(1e2)).unwrap();
        let mid = svc.submit(&c, &req.with_deadline(1e4)).unwrap();
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let order: Vec<RequestId> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(order, vec![soon, mid, late]);
        assert!(outcomes
            .iter()
            .all(|o| o.disposition == Disposition::Completed));
        assert_eq!(svc.stats().deadline_misses, 0);
        // Every departure landed in a wait-histogram bucket.
        assert_eq!(svc.stats().wait_hist.iter().sum::<usize>(), 3);
    }

    #[test]
    fn queued_requests_expire_at_barriers_with_initial_guess() {
        let n = 32;
        let a = laplace1d(n);
        let b = rhs(n, 5);
        let mut c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(1));
        let req = SolveRequest::new(Operator::Matrix(&a), &b);
        let keep = svc.submit(&c, &req).unwrap();
        let x0 = vec![0.25f64; n];
        // Far too tight to outlive even one cycle of the occupant.
        let doomed = svc
            .submit(&c, &req.with_x0(&x0).with_deadline(1e-9))
            .unwrap();
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let d = outcomes.iter().find(|o| o.id == doomed).unwrap();
        assert_eq!(d.disposition, Disposition::DeadlineExceeded);
        assert!(d.result.is_none());
        assert_eq!(d.x, x0, "expired-in-queue outcome carries the guess");
        assert_eq!(d.error(), Some(SolveError::DeadlineExceeded { id: doomed }));
        let k = outcomes.iter().find(|o| o.id == keep).unwrap();
        assert_eq!(k.disposition, Disposition::Completed);
        assert_eq!(svc.stats().deadline_misses, 1);
    }

    #[test]
    fn in_flight_requests_expire_at_barriers_with_last_iterate() {
        let n = 48;
        let a = laplace1d(n);
        let b = rhs(n, 6);
        let mut c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(1));
        // Tight tolerance so the solve needs many cycles; the deadline
        // passes mid-flight after the admission barrier advances the
        // clock.
        let cfg = GmresConfig::default().with_m(4).with_rtol(1e-12);
        let id = svc
            .submit(
                &c,
                &SolveRequest::new(Operator::Matrix(&a), &b)
                    .with_config(cfg)
                    .with_deadline(1e-7),
            )
            .unwrap();
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let o = outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(o.disposition, Disposition::DeadlineExceeded);
        assert!(o.x.iter().all(|v| v.is_finite()));
        assert!(o.solve_seconds >= 0.0, "expired after admission");
        assert_eq!(svc.stats().deadline_misses, 1);
    }

    #[test]
    fn fair_share_caps_concurrent_lanes_per_tenant() {
        let n = 32;
        let a = laplace1d(n);
        let b = rhs(n, 7);
        let mut c = ctx();
        let cfg = GmresConfig::default().with_m(6).with_rtol(1e-10);
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(4)
                .with_scheduler(SchedulerPolicy::TenantFairShare),
        );
        let req = SolveRequest::new(Operator::Matrix(&a), &b).with_config(cfg);
        for _ in 0..6 {
            svc.submit(&c, &req.with_tenant(1)).unwrap();
        }
        for _ in 0..6 {
            svc.submit(&c, &req.with_tenant(2)).unwrap();
        }
        svc.step(&mut c);
        // Two active tenants share the 4-lane budget: 2 + 2, even
        // though each group alone has 4 slots.
        assert_eq!(svc.in_flight(), 4, "budget split across tenants");
        while svc.pending() > 0 || svc.in_flight() > 0 {
            svc.step(&mut c);
        }
        let shares = svc.tenant_occupancy();
        assert_eq!(shares.len(), 2);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for &(t, s) in &shares {
            assert!(
                (s - 0.5).abs() < 0.2,
                "tenant {t} share {s} strays from even split"
            );
        }
        // A FIFO service with the same traffic runs both groups wide
        // open: 8 lanes in flight on the first step.
        let mut fifo = SolverService::new(ServiceConfig::default().with_lanes(4));
        for _ in 0..6 {
            fifo.submit(&c, &req.with_tenant(1)).unwrap();
            fifo.submit(&c, &req.with_tenant(2)).unwrap();
        }
        fifo.step(&mut c);
        assert_eq!(fifo.in_flight(), 8);
        fifo.run_until_idle(&mut c);
    }

    #[test]
    fn full_queues_shed_with_retry_hint() {
        let n = 24;
        let a = laplace1d(n);
        let b = rhs(n, 8);
        let c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(1).with_queue_cap(2));
        let req = SolveRequest::new(Operator::Matrix(&a), &b);
        svc.submit(&c, &req).unwrap();
        svc.submit(&c, &req).unwrap();
        let err = svc.submit(&c, &req).unwrap_err();
        match err {
            SolveError::QueueFull {
                pending,
                retry_after_cycles,
            } => {
                assert_eq!(pending, 2);
                assert!(retry_after_cycles >= 1);
            }
            other => panic!("expected QueueFull, got {other}"),
        }
        assert_eq!(svc.stats().sheds, 1);
        assert_eq!(svc.stats().submitted, 2, "shed submissions don't count");
    }

    #[test]
    fn degradable_requests_reroute_to_registered_store() {
        let n = 48;
        let a = laplace1d(n);
        let mut c = ctx();
        let store = crate::context::GpuStore::shadow_of(&a, mpgmres_scalar::Precision::Fp32);
        let cfg = GmresConfig::default().with_m(8).with_rtol(1e-8);
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_degrade_after_cycles(2),
        );
        svc.register_degraded_store(&a, &store);
        let hog = rhs(n, 0);
        svc.submit(
            &c,
            &SolveRequest::new(Operator::Matrix(&a), &hog).with_config(cfg),
        )
        .unwrap();
        let b = rhs(n, 9);
        let id = svc
            .submit(
                &c,
                &SolveRequest::new(Operator::Matrix(&a), &b)
                    .with_config(cfg)
                    .with_degradable(true),
            )
            .unwrap();
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let o = outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(o.disposition, Disposition::Completed);
        assert_eq!(o.degraded, Some(Degradation::Fp32Store));
        assert_eq!(svc.stats().degradations, 1);
        // Bit-identical to an independent solve at the final (store)
        // configuration.
        let solo = Gmres::serve(
            &mut ctx(),
            &SolveRequest::new(Operator::Store(&store), &b).with_config(cfg),
        )
        .unwrap();
        let res = o.result.as_ref().unwrap();
        assert_eq!(res.iterations, solo.result.as_ref().unwrap().iterations);
        for (sx, rx) in o.x.iter().zip(&solo.x) {
            assert_eq!(sx.to_bits(), rx.to_bits());
        }
        // The degraded solve still hit the fp64 tolerance it asked for.
        assert!(res.final_relative_residual <= cfg.rtol);
    }

    #[test]
    fn degradable_requests_fall_back_to_compressed_basis() {
        let n = 48;
        let a = laplace1d(n);
        let mut c = ctx();
        let cfg = GmresConfig::default().with_m(8).with_rtol(1e-8);
        let mut svc = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_degrade_after_cycles(2),
        );
        // No registered store: the ladder's next rung is the fp32
        // compressed basis.
        let hog = rhs(n, 0);
        svc.submit(
            &c,
            &SolveRequest::new(Operator::Matrix(&a), &hog).with_config(cfg),
        )
        .unwrap();
        let b = rhs(n, 10);
        let id = svc
            .submit(
                &c,
                &SolveRequest::new(Operator::Matrix(&a), &b)
                    .with_config(cfg)
                    .with_degradable(true),
            )
            .unwrap();
        svc.run_until_idle(&mut c);
        let outcomes = svc.drain_outcomes();
        let o = outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(o.disposition, Disposition::Completed);
        assert_eq!(o.degraded, Some(Degradation::Fp32Basis));
        let final_cfg = Degradation::Fp32Basis.apply(cfg);
        let solo = Gmres::serve(
            &mut ctx(),
            &SolveRequest::new(Operator::Matrix(&a), &b).with_config(final_cfg),
        )
        .unwrap();
        let res = o.result.as_ref().unwrap();
        assert_eq!(res.iterations, solo.result.as_ref().unwrap().iterations);
        for (sx, rx) in o.x.iter().zip(&solo.x) {
            assert_eq!(sx.to_bits(), rx.to_bits());
        }
        assert!(
            res.final_relative_residual <= cfg.rtol,
            "fp64 rtol still met"
        );
    }

    #[test]
    fn submit_then_cancel_waves_return_carriers_to_pool() {
        let n = 40;
        let a = laplace1d(n);
        let mut c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default().with_lanes(1));
        // Warm the pool: one served wave, recycled.
        let b = rhs(n, 11);
        svc.submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
            .unwrap();
        svc.run_until_idle(&mut c);
        for o in svc.drain_outcomes() {
            svc.recycle(o);
        }
        let warm = svc.stats().payload_allocs;
        for wave in 0..3 {
            let b = rhs(n, 12 + wave);
            let id = svc
                .submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
                .unwrap();
            svc.cancel(&c, id).unwrap();
            for o in svc.drain_outcomes() {
                svc.recycle(o);
            }
        }
        assert_eq!(
            svc.stats().payload_allocs,
            warm,
            "queued cancellation must return carriers to the pool"
        );
    }

    #[test]
    fn service_rejects_store_path_conversions() {
        let n = 16;
        let a = laplace1d(n);
        let b = rhs(n, 0);
        let c = ctx();
        let mut svc = SolverService::new(ServiceConfig::default());
        let err = svc
            .submit(
                &c,
                &SolveRequest::new(Operator::Matrix(&a), &b).with_store(
                    crate::config::StorePath::Shadow(mpgmres_scalar::Precision::Fp32),
                ),
            )
            .unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedCombination(_)));
    }
}
