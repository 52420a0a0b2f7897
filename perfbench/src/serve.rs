//! The `serve-laplace` traffic: an open-loop generator at a fixed wall
//! rate followed by bursts that measure capacity, both against one
//! `SolverService`.
//!
//! The generator is single-threaded. It keeps a due-time schedule,
//! submits every request that is due before each `step`, sleeps only
//! when the service is idle, and times each request from its due time
//! until its outcome is drained, so a stall charges the wait it imposes
//! on every later request. How late it submitted is reported too.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use mpgmres::{
    Disposition, GpuContext, GpuMatrix, Operator, ServiceConfig, ServiceStats, SolveOutcome,
    SolveRequest, SolverService, StreamStats,
};

use crate::check::Checker;
use crate::problem::gmres_config;
use crate::stats::Rng;
use crate::trace::Recorder;

/// Lane slots of the service's lane group.
pub const LANES: usize = 4;
/// Restart length of the served solves.
pub const M: usize = 25;
/// The mixed tolerances: lanes converge at different barriers, so
/// requests vacate and admit mid-stream.
pub const RTOLS: [f64; 3] = [1e-6, 1e-8, 1e-10];
/// Distinct right-hand sides per run; requests draw from them, so
/// repeats of one (input, tolerance) pair check determinism.
pub const INPUTS: usize = 16;
/// Open-loop arrival rate in requests per wall second: about half the
/// burst capacity measured on the sizing machine (see README.md).
pub const RATE_PER_S: f64 = 14.0;
/// Requests per capacity burst.
pub const BURST: usize = 30;

/// One request of the seeded mix.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub input: usize,
    pub rtol_idx: usize,
}

impl Req {
    fn key(self) -> u64 {
        (self.input * RTOLS.len() + self.rtol_idx) as u64
    }
}

/// The seeded right-hand sides of a run.
pub fn inputs(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 11);
    (0..INPUTS).map(|_| rng.rhs(n)).collect()
}

/// The seeded request mix: which input, at which tolerance. Every
/// consecutive group of three requests holds each tolerance once, in
/// seeded order, so the work per request is the same on every seed.
pub struct Mix {
    rng: Rng,
    rtols: Vec<usize>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed, 12),
            rtols: Vec::new(),
        }
    }

    pub fn next(&mut self) -> Req {
        if self.rtols.is_empty() {
            self.rtols = self.rng.permutation(RTOLS.len());
        }
        Req {
            input: self.rng.below(INPUTS),
            rtol_idx: self.rtols.pop().expect("refilled above"),
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Req> {
        (0..count).map(|_| self.next()).collect()
    }
}

/// What one session measured.
#[derive(Default)]
pub struct Session {
    /// Open-loop latencies, due time to drained outcome (s).
    pub latency_s: Vec<f64>,
    /// Open-loop submission lateness behind the schedule (s).
    pub late_s: Vec<f64>,
    /// Wall seconds of each burst, and its request count.
    pub bursts: Vec<(f64, usize)>,
    pub submit_us: Vec<f64>,
    pub step_us: Vec<f64>,
    /// Open-loop wall time from submission to admission into a lane
    /// (s); burst requests queue by design and are left out.
    pub queue_wait_s: Vec<f64>,
    /// Iterations and refinement cycles of every completed request.
    pub iters: Vec<usize>,
    pub restarts: Vec<usize>,
    pub stats: ServiceStats,
    /// The context's graph-cache counters after the warm-up and at the
    /// end.
    pub stream: (StreamStats, StreamStats),
}

impl Session {
    /// Completed requests per wall second across the bursts.
    pub fn capacity_per_s(&self) -> f64 {
        let (secs, reqs) = self
            .bursts
            .iter()
            .fold((0.0, 0), |(s, r), &(bs, br)| (s + bs, r + br));
        reqs as f64 / secs
    }

    pub fn step_s_total(&self) -> f64 {
        self.step_us.iter().sum::<f64>() * 1e-6
    }
}

struct Open {
    req: Req,
    /// Due time of an open-loop request; `None` inside a burst.
    due: Option<Instant>,
}

/// Drives one service in one context and accounts every outcome.
pub struct Driver<'s, 'a> {
    svc: SolverService<'a, f64>,
    a: &'a GpuMatrix<f64>,
    rhs: &'s [Vec<f64>],
    checker: &'s mut Checker<'a>,
    /// When set, each step runs inside a `step` span.
    pub rec: Option<&'s Recorder>,
    open: HashMap<u64, Open>,
    /// Submission instants of queued requests, open-loop ones marked,
    /// in submission order: the FIFO scheduler admits in this order,
    /// which is how admission times are inferred.
    queued: VecDeque<(Instant, bool)>,
    sink: Vec<SolveOutcome<f64>>,
    pub session: Session,
}

impl<'s, 'a> Driver<'s, 'a> {
    pub fn new(
        a: &'a GpuMatrix<f64>,
        rhs: &'s [Vec<f64>],
        checker: &'s mut Checker<'a>,
        rec: Option<&'s Recorder>,
    ) -> Self {
        Driver {
            svc: SolverService::new(ServiceConfig::default().with_lanes(LANES)),
            a,
            rhs,
            checker,
            rec,
            open: HashMap::new(),
            queued: VecDeque::new(),
            sink: Vec::new(),
            session: Session::default(),
        }
    }

    fn busy(&self) -> bool {
        self.svc.pending() + self.svc.in_flight() > 0
    }

    /// Submit one request; returns the submission instant.
    fn submit(&mut self, ctx: &GpuContext, req: Req, due: Option<Instant>) -> Instant {
        let cfg = gmres_config(M).with_rtol(RTOLS[req.rtol_idx]);
        let request =
            SolveRequest::new(Operator::Matrix(self.a), &self.rhs[req.input]).with_config(cfg);
        let t = Instant::now();
        let res = self.svc.submit(ctx, &request);
        self.session.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        match res {
            Ok(id) => {
                self.open.insert(id.0, Open { req, due });
                self.queued.push_back((t, due.is_some()));
            }
            Err(e) => self
                .checker
                .attempt(false, &format!("request refused: {e}")),
        }
        t
    }

    /// One service step, then drain and account the outcomes.
    fn step(&mut self, ctx: &mut GpuContext) {
        let before = self.svc.pending();
        let t = Instant::now();
        match self.rec {
            Some(rec) => rec.scope("step", || self.svc.step(ctx)),
            None => self.svc.step(ctx),
        };
        self.session.step_us.push(t.elapsed().as_secs_f64() * 1e6);
        let admitted = before
            .saturating_sub(self.svc.pending())
            .min(self.queued.len());
        for (submitted, open_loop) in self.queued.drain(..admitted) {
            if open_loop {
                self.session
                    .queue_wait_s
                    .push(t.saturating_duration_since(submitted).as_secs_f64());
            }
        }
        self.svc.drain_outcomes_into(&mut self.sink);
        let drained = Instant::now();
        for out in std::mem::take(&mut self.sink) {
            self.account(&out, drained);
            self.svc.recycle(out);
        }
    }

    fn account(&mut self, out: &SolveOutcome<f64>, drained: Instant) {
        let Some(open) = self.open.remove(&out.id.0) else {
            self.checker
                .attempt(false, "outcome for an unknown request");
            return;
        };
        let converged = out.disposition == Disposition::Completed
            && out.result.as_ref().is_some_and(|r| r.status.is_converged());
        if let Some(r) = &out.result {
            self.session.iters.push(r.iterations);
            self.session.restarts.push(r.restarts);
        }
        if let Some(due) = open.due {
            self.session
                .latency_s
                .push(drained.saturating_duration_since(due).as_secs_f64());
        }
        self.checker.completed(
            "request",
            open.req.key(),
            converged,
            RTOLS[open.req.rtol_idx],
            &self.rhs[open.req.input],
            &out.x,
        );
    }

    /// Open-loop arrivals at `rate` per second for `secs`, then step
    /// until every submitted request resolved.
    pub fn open_loop(&mut self, ctx: &mut GpuContext, mix: &mut Mix, rate: f64, secs: f64) {
        let total = (secs * rate).floor() as usize;
        let t0 = Instant::now();
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
        let mut next = 0;
        while next < total || self.busy() {
            let now = Instant::now();
            while next < total && due(next) <= now {
                let d = due(next);
                let submitted = self.submit(ctx, mix.next(), Some(d));
                self.session
                    .late_s
                    .push(submitted.saturating_duration_since(d).as_secs_f64());
                next += 1;
            }
            if self.busy() {
                self.step(ctx);
            } else if next < total {
                std::thread::sleep(due(next).saturating_duration_since(Instant::now()));
            }
        }
    }

    /// Submit `reqs` at once and step until the service is idle;
    /// records the burst's wall time.
    pub fn burst(&mut self, ctx: &mut GpuContext, reqs: &[Req]) {
        let t0 = Instant::now();
        for &r in reqs {
            self.submit(ctx, r, None);
        }
        while self.busy() {
            self.step(ctx);
        }
        self.session
            .bursts
            .push((t0.elapsed().as_secs_f64(), reqs.len()));
    }

    pub fn finish(mut self) -> Session {
        for open in self.open.values() {
            self.checker.attempt(
                false,
                &format!("request on input {} never resolved", open.req.input),
            );
        }
        self.session.stats = self.svc.stats();
        self.session
    }
}

/// A full session: a warm-up burst, the open loop for `open_secs`,
/// then capacity bursts until `burst_secs` of bursting has passed (at
/// least one). Returns the session and the last burst's requests.
pub fn session<'a>(
    ctx: &mut GpuContext,
    a: &'a GpuMatrix<f64>,
    rhs: &[Vec<f64>],
    mix: &mut Mix,
    checker: &mut Checker<'a>,
    open_secs: f64,
    burst_secs: f64,
) -> (Session, Vec<Req>) {
    let mut d = Driver::new(a, rhs, checker, None);
    // The warm-up burst fills lane workspaces, payload pools and graph
    // caches before anything is timed; it is checked, not reported.
    d.burst(ctx, &mix.take(LANES));
    d.session = Session::default();
    let warm = ctx.stream_stats();
    d.open_loop(ctx, mix, RATE_PER_S, open_secs);
    let t = Instant::now();
    let mut last = Vec::new();
    while last.is_empty() || t.elapsed().as_secs_f64() < burst_secs {
        last = mix.take(BURST);
        d.burst(ctx, &last);
    }
    let mut s = d.finish();
    s.stream = (warm, ctx.stream_stats());
    (s, last)
}
