//! Back-to-back solves for the solve workloads (`paper-ir`,
//! `stretched-bj`).

use std::time::Instant;

use mpgmres::{GpuContext, StreamStats};

use crate::check::Checker;
use crate::problem::{Solver, RTOL};
use crate::trace::Recorder;

/// One timed solve.
pub struct Op {
    pub wall_s: f64,
    pub iters: usize,
    pub restarts: usize,
}

/// What one run of solves measured.
pub struct Phase {
    pub ops: Vec<Op>,
    /// The context's graph-cache counters after the warm-up and at the
    /// end.
    pub stream: (StreamStats, StreamStats),
    /// Simulated V100 seconds of the warm-up solve of input 0.
    pub warm_sim_s: f64,
}

/// Solves `inputs[i % inputs.len()]` for `i = 0, 1, ...` until `secs`
/// have passed and at least `min_ops` ran, or exactly `count` ops when
/// given. Every solve is checked outside its timed span.
pub struct Runner<'r, 'a> {
    pub solver: &'r Solver<'a>,
    pub inputs: &'r [Vec<f64>],
    pub checker: &'r mut Checker<'a>,
}

impl Runner<'_, '_> {
    fn one(&mut self, ctx: &mut GpuContext, i: usize, rec: Option<&Recorder>) -> Op {
        let input = i % self.inputs.len();
        let b = &self.inputs[input];
        let mut x = vec![0.0; b.len()];
        // The simulated profile is per solve; clearing it keeps the
        // profiler's state from growing across a run.
        ctx.reset_profile();
        let t = Instant::now();
        let res = match rec {
            Some(rec) => rec.scope("solve", || self.solver.solve(ctx, b, &mut x)),
            None => self.solver.solve(ctx, b, &mut x),
        };
        let wall_s = t.elapsed().as_secs_f64();
        self.checker.completed(
            "solve",
            input as u64,
            res.status.is_converged(),
            RTOL,
            b,
            &x,
        );
        Op {
            wall_s,
            iters: res.iterations,
            restarts: res.restarts,
        }
    }

    /// A warm-up solve of input 0 (checked, not timed into the report),
    /// then the timed solves.
    pub fn run(
        &mut self,
        ctx: &mut GpuContext,
        secs: f64,
        min_ops: usize,
        count: Option<usize>,
        rec: Option<&Recorder>,
    ) -> Phase {
        // Untimed and outside any span, so traced summaries see only
        // warm solves.
        self.one(ctx, 0, None);
        let warm_sim_s = ctx.elapsed();
        let before = ctx.stream_stats();
        let t0 = Instant::now();
        let mut ops = Vec::new();
        loop {
            let done = match count {
                Some(c) => ops.len() >= c,
                None => ops.len() >= min_ops && t0.elapsed().as_secs_f64() >= secs,
            };
            if done {
                break;
            }
            ops.push(self.one(ctx, ops.len(), rec));
        }
        Phase {
            ops,
            stream: (before, ctx.stream_stats()),
            warm_sim_s,
        }
    }
}
