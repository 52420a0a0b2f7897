//! Chaos tests for continuous lane admission: deterministic LCG-driven
//! bursts of requests with mixed tolerances, iteration caps, restart
//! lengths, and cancellations, pushed through [`SolverService`].
//!
//! The invariant under chaos is the serving contract from
//! `service`'s module docs: every *completed* request is bit-identical
//! to an independent solve with the same stopping parameters — the
//! textbook oracle in `common/oracle.rs` on the native path —
//! no matter how lanes were shared, when the request was admitted, or
//! which requests around it were cancelled. Cancelled requests leave
//! with the iterate of the last completed cycle barrier.

use std::sync::atomic::{AtomicUsize, Ordering};

use mpgmres::prelude::*;
use mpgmres_la::coo::Coo;
use mpgmres_la::vec_ops::ReductionOrder;

#[path = "common/oracle.rs"]
mod oracle;

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

/// Deterministic arrival/payload source (no `rand` dependency, no
/// wall-clock): a 64-bit LCG with the constants from MMIX.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() >> 33) as usize % bound
    }

    /// Uniform in (-1, 1), built from the high mantissa bits.
    fn signed_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

const RTOLS: [f64; 3] = [1e-6, 1e-8, 1e-10];
const CAPS: [usize; 3] = [60, 400, 2_000];

struct Arrival {
    rhs: Vec<f64>,
    rtol: f64,
    max_iters: usize,
    m: usize,
}

/// The request mix a given seed produces, shared by every scenario so
/// backend/streaming runs see identical traffic.
fn arrivals(seed: u64, n: usize, count: usize, ms: &[usize]) -> Vec<Arrival> {
    let mut lcg = Lcg(seed);
    (0..count)
        .map(|_| Arrival {
            rhs: (0..n).map(|_| lcg.signed_unit()).collect(),
            rtol: RTOLS[lcg.below(RTOLS.len())],
            max_iters: CAPS[lcg.below(CAPS.len())],
            m: ms[lcg.below(ms.len())],
        })
        .collect()
}

/// Drive `service.step` under a bursty schedule: submit a random burst
/// (0..=3 requests), step a random 1..=4 cycles, repeat until the
/// traffic is drained. Optionally cancels roughly one in `cancel_one_in`
/// outstanding requests, mixing queued and mid-flight victims.
fn run_scenario(
    ctx: &mut GpuContext,
    a: &GpuMatrix<f64>,
    traffic: &[Arrival],
    lanes: usize,
    cancel_one_in: Option<usize>,
) -> Vec<SolveOutcome<f64>> {
    let mut service = SolverService::new(ServiceConfig::default().with_lanes(lanes));
    // Schedule decisions come from their own stream so payload and
    // schedule stay independently reproducible.
    let mut lcg = Lcg(0x05ee_d0fc_4a05_u64);
    let mut ids: Vec<RequestId> = Vec::new();
    let mut next = 0;
    while next < traffic.len() || service.pending() + service.in_flight() > 0 {
        let burst = lcg.below(4).min(traffic.len() - next);
        for arr in &traffic[next..next + burst] {
            let cfg = GmresConfig::default()
                .with_m(arr.m)
                .with_rtol(arr.rtol)
                .with_max_iters(arr.max_iters);
            let req = SolveRequest::new(Operator::Matrix(a), &arr.rhs).with_config(cfg);
            ids.push(service.submit(ctx, &req).expect("valid request"));
        }
        next += burst;
        if let Some(rate) = cancel_one_in {
            if !ids.is_empty() && lcg.below(rate) == 0 {
                let victim = ids.swap_remove(lcg.below(ids.len()));
                // Already-finished ids surface as UnknownRequest: fine,
                // the chaos schedule doesn't track completion.
                let _ = service.cancel(ctx, victim);
            }
        }
        for _ in 0..1 + lcg.below(4) {
            service.step(ctx);
        }
    }
    let outcomes = service.drain_outcomes();
    assert_eq!(outcomes.len(), traffic.len(), "every request resolves");
    outcomes
}

/// The oracle solve of `rhs` under the services' reduction order.
fn oracle_solve(a: &GpuMatrix<f64>, rhs: &[f64], cfg: &GmresConfig) -> (SolveResult, Vec<f64>) {
    let mut x = vec![0.0f64; a.n()];
    let res = oracle::gmres(
        a.csr(),
        oracle::identity,
        rhs,
        &mut x,
        cfg,
        ReductionOrder::Sequential,
    );
    (res, x)
}

/// Bitwise comparison of a completed serving outcome against an
/// independent textbook solve with identical stopping parameters (the
/// serving parity contract).
fn assert_matches_independent(a: &GpuMatrix<f64>, arr: &Arrival, out: &SolveOutcome<f64>) {
    let cfg = GmresConfig::default()
        .with_m(arr.m)
        .with_rtol(arr.rtol)
        .with_max_iters(arr.max_iters);
    let (want, x) = oracle_solve(a, &arr.rhs, &cfg);
    let got = out.result.as_ref().expect("completed outcome has result");
    assert_eq!(got.status, want.status, "{}: status", out.id);
    assert_eq!(got.iterations, want.iterations, "{}: iterations", out.id);
    for (i, (sx, bx)) in x.iter().zip(&out.x).enumerate() {
        assert_eq!(
            sx.to_bits(),
            bx.to_bits(),
            "{}: x[{i}] must be bit-identical",
            out.id
        );
    }
}

fn ctx_with(kind: BackendKind, streaming: bool) -> GpuContext {
    let mut ctx =
        GpuContext::with_backend_kind(DeviceModel::v100_belos(), ReductionOrder::Sequential, kind);
    ctx.set_streaming(streaming);
    ctx
}

#[test]
fn bursty_admission_matches_independent_gmres_bitwise() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xb00b5, n, 12, &[10]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let outcomes = run_scenario(&mut ctx, &a, &traffic, 3, None);
    for out in &outcomes {
        assert_eq!(out.disposition, Disposition::Completed);
        let arr = &traffic[out.id.0 as usize - 1];
        assert_matches_independent(&a, arr, out);
        assert!(out.queued_seconds >= 0.0 && out.solve_seconds >= 0.0);
    }
}

#[test]
fn parity_holds_across_backends_and_streaming_modes() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xcafe, n, 8, &[12]);
    let runs: Vec<Vec<SolveOutcome<f64>>> = [
        (BackendKind::Reference, true),
        (BackendKind::Reference, false),
        (BackendKind::Parallel, true),
        (BackendKind::Parallel, false),
    ]
    .into_iter()
    .map(|(kind, streaming)| {
        let mut ctx = ctx_with(kind, streaming);
        let mut outcomes = run_scenario(&mut ctx, &a, &traffic, 2, None);
        outcomes.sort_by_key(|o| o.id.0);
        outcomes
    })
    .collect();
    let base = &runs[0];
    for (r, run) in runs.iter().enumerate().skip(1) {
        for (want, got) in base.iter().zip(run) {
            assert_eq!(want.id, got.id);
            assert_eq!(want.disposition, got.disposition, "run {r}: {}", want.id);
            let (rw, rg) = (want.result.as_ref().unwrap(), got.result.as_ref().unwrap());
            assert_eq!(rw.status, rg.status, "run {r}: {}", want.id);
            assert_eq!(rw.iterations, rg.iterations, "run {r}: {}", want.id);
            for (wx, gx) in want.x.iter().zip(&got.x) {
                assert_eq!(wx.to_bits(), gx.to_bits(), "run {r}: {}", want.id);
            }
        }
    }
}

#[test]
fn cancellation_chaos_never_perturbs_surviving_solves() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xdead, n, 14, &[10]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let outcomes = run_scenario(&mut ctx, &a, &traffic, 2, Some(2));
    let cancelled = outcomes
        .iter()
        .filter(|o| o.disposition == Disposition::Cancelled)
        .count();
    assert!(cancelled > 0, "chaos schedule must actually cancel");
    assert!(cancelled < outcomes.len(), "and must let some complete");
    for out in &outcomes {
        match out.disposition {
            // Survivors are untouched by their neighbours' removal.
            Disposition::Completed => {
                let arr = &traffic[out.id.0 as usize - 1];
                assert_matches_independent(&a, arr, out);
            }
            // Cancelled lanes leave with the last barrier iterate:
            // always finite, never a poisoned slot.
            Disposition::Cancelled => {
                assert!(out.x.iter().all(|v| v.is_finite()), "{}", out.id);
            }
            Disposition::DeadlineExceeded => {
                panic!("no deadlines in this scenario: {}", out.id);
            }
        }
    }
}

/// Fail closed: a submit whose rhs or initial guess holds a NaN or
/// infinity is rejected with a typed error and never enters a queue, so
/// the clean requests around it keep their ids and come back bitwise
/// unchanged — solution, result, and simulated timings.
#[test]
fn rejected_non_finite_submits_leave_other_requests_unchanged() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0x0bad, n, 6, &[10]);
    let run = |poison: bool| {
        let mut ctx = ctx_with(BackendKind::Reference, true);
        let mut service = SolverService::new(ServiceConfig::default().with_lanes(2));
        for (i, arr) in traffic.iter().enumerate() {
            let cfg = GmresConfig::default()
                .with_m(arr.m)
                .with_rtol(arr.rtol)
                .with_max_iters(arr.max_iters);
            if poison {
                let mut bad = arr.rhs.clone();
                bad[(7 * i) % n] = if i % 2 == 0 { f64::NAN } else { f64::INFINITY };
                let req = SolveRequest::new(Operator::Matrix(&a), &bad).with_config(cfg);
                assert_eq!(
                    service.submit(&ctx, &req),
                    Err(SolveError::NonFinite {
                        what: "rhs",
                        index: (7 * i) % n
                    })
                );
                let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs)
                    .with_x0(&bad)
                    .with_config(cfg);
                assert!(matches!(
                    service.submit(&ctx, &req),
                    Err(SolveError::NonFinite {
                        what: "initial guess",
                        ..
                    })
                ));
            }
            let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs).with_config(cfg);
            service.submit(&ctx, &req).expect("clean request");
            service.step(&mut ctx);
        }
        while service.pending() + service.in_flight() > 0 {
            service.step(&mut ctx);
        }
        let mut outcomes = service.drain_outcomes();
        outcomes.sort_by_key(|o| o.id.0);
        (outcomes, ctx.report().total_seconds)
    };
    let (clean, clean_seconds) = run(false);
    let (poisoned, poisoned_seconds) = run(true);
    assert_eq!(clean.len(), traffic.len());
    assert_eq!(poisoned.len(), traffic.len(), "rejects never resolve");
    for (c, p) in clean.iter().zip(&poisoned) {
        assert_eq!(c.id, p.id, "rejects consume no request id");
        assert_eq!(c.disposition, Disposition::Completed, "{}", c.id);
        assert_eq!(p.disposition, c.disposition, "{}", c.id);
        let (rc, rp) = (c.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert_eq!(rp.status, rc.status, "{}", c.id);
        assert_eq!(rp.iterations, rc.iterations, "{}", c.id);
        assert_eq!(
            rp.final_relative_residual.to_bits(),
            rc.final_relative_residual.to_bits(),
            "{}",
            c.id
        );
        for (xp, xc) in p.x.iter().zip(&c.x) {
            assert_eq!(xp.to_bits(), xc.to_bits(), "{}: x", c.id);
        }
        assert_eq!(p.solve_seconds.to_bits(), c.solve_seconds.to_bits());
        assert_eq!(p.queued_seconds.to_bits(), c.queued_seconds.to_bits());
    }
    assert_eq!(poisoned_seconds.to_bits(), clean_seconds.to_bits());
}

#[test]
fn mixed_restart_lengths_split_groups_and_keep_parity() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xfeed, n, 10, &[8, 12]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let outcomes = run_scenario(&mut ctx, &a, &traffic, 2, None);
    for out in &outcomes {
        let arr = &traffic[out.id.0 as usize - 1];
        assert_matches_independent(&a, arr, out);
    }
}

/// Compressed-basis serving: the basis policy is part of the group key,
/// so requests over different basis paths split into separate lane
/// engines, and a lane *admitted into a vacated slot* inherits the
/// group's basis allocation (reseed keeps the slot's store). The
/// observable contract: every completed request — first occupants and
/// reseeded successors alike — is bit-identical to an independent
/// `Gmres` solve with the same config, compressed basis included. With
/// more requests than lanes, later requests only ever run in reseeded
/// slots, so a slot falling back to a native (or stale) basis store
/// would break their bitwise parity against the compressed oracle.
#[test]
fn admitted_lanes_inherit_group_basis_policy() {
    let n = 40;
    let a = laplace1d(n);
    let mut lcg = Lcg(0xba515);
    let cfg_for = |basis: BasisPolicy| {
        // Raised LoA factor: the compressed path refines the
        // storage-precision implicit/explicit gap across restarts.
        GmresConfig::default()
            .with_m(10)
            .with_rtol(1e-8)
            .with_max_iters(2_000)
            .with_loa_factor(1e8)
            .with_basis(basis)
    };
    // 8 requests alternating native/fp32 basis over 2 lanes: each
    // policy's group sees 4 requests through 2 lanes, so the back half
    // is admitted exclusively via reseed into vacated slots.
    let traffic: Vec<(Vec<f64>, BasisPolicy)> = (0..8)
        .map(|i| {
            let rhs: Vec<f64> = (0..n).map(|_| lcg.signed_unit()).collect();
            let basis = if i % 2 == 0 {
                BasisPolicy::Native
            } else {
                BasisPolicy::Compressed(Precision::Fp32)
            };
            (rhs, basis)
        })
        .collect();
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let mut service = SolverService::new(ServiceConfig::default().with_lanes(2));
    for (rhs, basis) in &traffic {
        let req = SolveRequest::new(Operator::Matrix(&a), rhs).with_config(cfg_for(*basis));
        service.submit(&ctx, &req).expect("valid request");
    }
    while service.pending() + service.in_flight() > 0 {
        service.step(&mut ctx);
    }
    let mut outcomes = service.drain_outcomes();
    outcomes.sort_by_key(|o| o.id.0);
    assert_eq!(outcomes.len(), traffic.len());
    let mut solo_ctx = ctx_with(BackendKind::Reference, true);
    for out in &outcomes {
        let (rhs, basis) = &traffic[out.id.0 as usize - 1];
        assert_eq!(out.disposition, Disposition::Completed, "{}", out.id);
        // Native lanes answer to the oracle; compressed lanes to the
        // library's compressed-basis solve.
        let (want, x) = match basis {
            BasisPolicy::Native => oracle_solve(&a, rhs, &cfg_for(*basis)),
            _ => {
                let mut x = vec![0.0f64; n];
                let cfg = cfg_for(*basis);
                (
                    Gmres::new(&a, &Identity, cfg).solve(&mut solo_ctx, rhs, &mut x),
                    x,
                )
            }
        };
        let got = out.result.as_ref().expect("completed outcome has result");
        assert!(
            got.status.is_converged(),
            "{} ({basis:?}): must converge, got {:?}",
            out.id,
            got.status
        );
        assert_eq!(got.status, want.status, "{} ({basis:?}): status", out.id);
        assert_eq!(
            got.iterations, want.iterations,
            "{} ({basis:?}): iterations",
            out.id
        );
        for (i, (sx, bx)) in x.iter().zip(&out.x).enumerate() {
            assert_eq!(
                sx.to_bits(),
                bx.to_bits(),
                "{} ({basis:?}): x[{i}] must be bit-identical",
                out.id
            );
        }
    }
}

/// EDF at subcritical load: every request carries a finite but
/// generous deadline and the lane pool is never oversubscribed for
/// long, so nothing may expire — and every completion still matches
/// the independent solve bitwise (scheduling never touches
/// arithmetic).
#[test]
fn edf_never_misses_deadlines_at_subcritical_load() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xedf0, n, 8, &[10]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let mut service = SolverService::new(
        ServiceConfig::default()
            .with_lanes(4)
            .with_scheduler(SchedulerPolicy::EarliestDeadlineFirst),
    );
    for (i, arr) in traffic.iter().enumerate() {
        let cfg = GmresConfig::default()
            .with_m(arr.m)
            .with_rtol(arr.rtol)
            .with_max_iters(arr.max_iters);
        // Deadlines far beyond any plausible completion, scrambled
        // versus arrival order so EDF actually reorders admissions.
        let deadline = 1e5 * (1.0 + ((i * 13) % 7) as f64);
        let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs)
            .with_config(cfg)
            .with_deadline(deadline);
        service.submit(&ctx, &req).expect("valid request");
    }
    while service.pending() + service.in_flight() > 0 {
        service.step(&mut ctx);
    }
    let outcomes = service.drain_outcomes();
    assert_eq!(outcomes.len(), traffic.len());
    assert_eq!(service.stats().deadline_misses, 0, "subcritical: no misses");
    for out in &outcomes {
        assert_eq!(out.disposition, Disposition::Completed, "{}", out.id);
        let arr = &traffic[out.id.0 as usize - 1];
        assert_matches_independent(&a, arr, out);
    }
}

/// An urgent request behind two slow ones on a single lane: FIFO walks
/// it into its deadline, EDF jumps it to the front and meets it. The
/// deadline is derived from measured solo durations so the test tracks
/// the cost model instead of hard-coding seconds.
#[test]
fn edf_meets_deadline_that_fifo_misses() {
    let n = 40;
    let a = laplace1d(n);
    let slow_cfg = GmresConfig::default().with_m(8).with_rtol(1e-12);
    let fast_cfg = GmresConfig::default().with_m(8).with_rtol(1e-6);
    let slow_rhs: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    let fast_rhs: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let solo_slow = Gmres::serve(
        &mut ctx_with(BackendKind::Reference, true),
        &SolveRequest::new(Operator::Matrix(&a), &slow_rhs).with_config(slow_cfg),
    )
    .unwrap()
    .solve_seconds;
    let solo_fast = Gmres::serve(
        &mut ctx_with(BackendKind::Reference, true),
        &SolveRequest::new(Operator::Matrix(&a), &fast_rhs).with_config(fast_cfg),
    )
    .unwrap()
    .solve_seconds;
    assert!(solo_slow > solo_fast, "scenario needs a slow blocker");
    // Enough for "admit me first, then solve"; nowhere near enough to
    // sit behind two slow solves.
    let deadline = 2.0 * solo_fast + 0.25 * solo_slow;
    for (policy, expect_miss) in [
        (SchedulerPolicy::Fifo, true),
        (SchedulerPolicy::EarliestDeadlineFirst, false),
    ] {
        let mut ctx = ctx_with(BackendKind::Reference, true);
        let mut service = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_scheduler(policy),
        );
        for _ in 0..2 {
            service
                .submit(
                    &ctx,
                    &SolveRequest::new(Operator::Matrix(&a), &slow_rhs).with_config(slow_cfg),
                )
                .unwrap();
        }
        let urgent = service
            .submit(
                &ctx,
                &SolveRequest::new(Operator::Matrix(&a), &fast_rhs)
                    .with_config(fast_cfg)
                    .with_deadline(deadline),
            )
            .unwrap();
        while service.pending() + service.in_flight() > 0 {
            service.step(&mut ctx);
        }
        let outcomes = service.drain_outcomes();
        let u = outcomes.iter().find(|o| o.id == urgent).unwrap();
        if expect_miss {
            assert_eq!(
                u.disposition,
                Disposition::DeadlineExceeded,
                "FIFO must walk the urgent request into its deadline"
            );
            assert!(u.result.is_none());
            assert_eq!(u.error(), Some(SolveError::DeadlineExceeded { id: urgent }));
            // Expired while still queued: the outcome carries the
            // (zero) initial guess.
            assert!(u.x.iter().all(|v| *v == 0.0));
            assert_eq!(service.stats().deadline_misses, 1);
        } else {
            assert_eq!(
                u.disposition,
                Disposition::Completed,
                "EDF must admit the urgent request first"
            );
            assert_eq!(service.stats().deadline_misses, 0);
        }
    }
}

/// Priority scheduling under a single lane: strictly descending
/// priority order on completions, bitwise parity for every one.
#[test]
fn priority_order_respected_with_parity() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0x9909, n, 6, &[10]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let mut service = SolverService::new(
        ServiceConfig::default()
            .with_lanes(1)
            .with_scheduler(SchedulerPolicy::Priority),
    );
    let prios = [2, 5, 0, 9, 4, 7];
    let mut ids = Vec::new();
    for (arr, &p) in traffic.iter().zip(&prios) {
        let cfg = GmresConfig::default()
            .with_m(arr.m)
            .with_rtol(arr.rtol)
            .with_max_iters(arr.max_iters);
        let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs)
            .with_config(cfg)
            .with_priority(p);
        ids.push(service.submit(&ctx, &req).unwrap());
    }
    while service.pending() + service.in_flight() > 0 {
        service.step(&mut ctx);
    }
    let outcomes = service.drain_outcomes();
    let completion_prios: Vec<i32> = outcomes
        .iter()
        .map(|o| prios[ids.iter().position(|id| *id == o.id).unwrap()])
        .collect();
    let mut sorted = completion_prios.clone();
    sorted.sort_unstable_by(|x, y| y.cmp(x));
    assert_eq!(completion_prios, sorted, "highest priority first");
    for out in &outcomes {
        let arr = &traffic[out.id.0 as usize - 1];
        assert_matches_independent(&a, arr, out);
    }
}

/// Precision-ladder degradation under pressure, on both backends: a
/// non-degradable hog pins the single lane, degradable requests
/// re-route down the ladder (fp32 store first, then fp32 compressed
/// basis on top). Every degraded completion must (a) still meet the
/// fp64 tolerance it asked for and (b) be bit-identical to an
/// independent solve at its *final* operand + configuration.
#[test]
fn degraded_completions_match_final_config_on_both_backends() {
    let n = 40;
    let a = laplace1d(n);
    let cfg = GmresConfig::default().with_m(10).with_rtol(1e-8);
    for kind in [BackendKind::Reference, BackendKind::Parallel] {
        let store = GpuStore::shadow_of(&a, Precision::Fp32);
        let mut ctx = ctx_with(kind, true);
        let mut service = SolverService::new(
            ServiceConfig::default()
                .with_lanes(1)
                .with_degrade_after_cycles(2),
        );
        service.register_degraded_store(&a, &store);
        let hog_rhs: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) / 4.0 - 1.0).collect();
        let hog_cfg = GmresConfig::default().with_m(10).with_rtol(1e-12);
        service
            .submit(
                &ctx,
                &SolveRequest::new(Operator::Matrix(&a), &hog_rhs).with_config(hog_cfg),
            )
            .unwrap();
        let degradable_rhs: Vec<Vec<f64>> = (0..2)
            .map(|s| {
                (0..n)
                    .map(|i| ((i * 3 + s * 17) % 11) as f64 / 5.0 - 1.0)
                    .collect()
            })
            .collect();
        let ids: Vec<RequestId> = degradable_rhs
            .iter()
            .map(|b| {
                service
                    .submit(
                        &ctx,
                        &SolveRequest::new(Operator::Matrix(&a), b)
                            .with_config(cfg)
                            .with_degradable(true),
                    )
                    .unwrap()
            })
            .collect();
        while service.pending() + service.in_flight() > 0 {
            service.step(&mut ctx);
        }
        let outcomes = service.drain_outcomes();
        assert!(
            service.stats().degradations >= 2,
            "{kind:?}: pressure must degrade both requests"
        );
        for (id, b) in ids.iter().zip(&degradable_rhs) {
            let out = outcomes.iter().find(|o| o.id == *id).unwrap();
            assert_eq!(out.disposition, Disposition::Completed, "{kind:?}");
            let rung = out.degraded.expect("request must have degraded");
            // Reconstruct the final operand + config from the reported
            // rung and solve it independently.
            let final_cfg = rung.apply(cfg);
            let operator = match rung {
                Degradation::Fp32Store | Degradation::Fp32StoreAndBasis => Operator::Store(&store),
                Degradation::Fp32Basis => Operator::Matrix(&a),
            };
            let solo = Gmres::serve(
                &mut ctx_with(kind, true),
                &SolveRequest::new(operator, b).with_config(final_cfg),
            )
            .unwrap();
            let got = out.result.as_ref().unwrap();
            let want = solo.result.as_ref().unwrap();
            assert_eq!(got.status, want.status, "{kind:?} {rung:?}");
            assert_eq!(got.iterations, want.iterations, "{kind:?} {rung:?}");
            for (sx, bx) in solo.x.iter().zip(&out.x) {
                assert_eq!(sx.to_bits(), bx.to_bits(), "{kind:?} {rung:?}");
            }
            assert!(
                got.final_relative_residual <= cfg.rtol,
                "{kind:?} {rung:?}: degraded solve must still meet fp64 rtol, got {}",
                got.final_relative_residual
            );
        }
    }
}

/// Bitwise equality of two runs' outcomes, matched by request id.
fn assert_runs_identical(first: &[SolveOutcome<f64>], second: &[SolveOutcome<f64>], what: &str) {
    assert_eq!(first.len(), second.len(), "{what}: outcome count");
    for a in first {
        let b = second
            .iter()
            .find(|b| b.id == a.id)
            .expect("every request resolves in both runs");
        assert_eq!(a.disposition, b.disposition, "{what}: {} disposition", a.id);
        let (ra, rb) = (a.result.as_ref(), b.result.as_ref());
        assert_eq!(ra.map(|r| r.status), rb.map(|r| r.status), "{what}: status");
        assert_eq!(
            ra.map(|r| r.iterations),
            rb.map(|r| r.iterations),
            "{what}: {} iterations",
            a.id
        );
        for (i, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
            assert_eq!(xa.to_bits(), xb.to_bits(), "{what}: {} x[{i}]", a.id);
        }
    }
}

/// Scheduler policies only reorder admissions — a rerun of the same
/// traffic on a used context reproduces every outcome bit-for-bit
/// under every policy, exactly like the FIFO baseline.
#[test]
fn rerun_on_a_used_context_is_bit_identical_under_every_policy() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xf01d, n, 8, &[10]);
    for policy in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::Priority,
        SchedulerPolicy::EarliestDeadlineFirst,
        SchedulerPolicy::TenantFairShare,
    ] {
        let mut ctx = ctx_with(BackendKind::Reference, true);
        let run = |ctx: &mut GpuContext| {
            let mut service = SolverService::new(
                ServiceConfig::default()
                    .with_lanes(3)
                    .with_scheduler(policy),
            );
            for (i, arr) in traffic.iter().enumerate() {
                let cfg = GmresConfig::default()
                    .with_m(arr.m)
                    .with_rtol(arr.rtol)
                    .with_max_iters(arr.max_iters);
                let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs)
                    .with_config(cfg)
                    .with_priority(((i * 7) % 5) as i32)
                    .with_deadline(1e6 * (1.0 + i as f64));
                service.submit(ctx, &req).unwrap();
            }
            while service.pending() + service.in_flight() > 0 {
                service.step(ctx);
            }
            service.drain_outcomes()
        };
        let first = run(&mut ctx);
        let second = run(&mut ctx);
        assert_runs_identical(&first, &second, &format!("{policy:?}"));
    }
}

/// The bursty admission schedule rerun on a used context reproduces
/// every outcome bit-for-bit.
#[test]
fn bursty_rerun_on_a_used_context_is_bit_identical() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0xace, n, 10, &[10]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let first = run_scenario(&mut ctx, &a, &traffic, 3, None);
    let second = run_scenario(&mut ctx, &a, &traffic, 3, None);
    assert_runs_identical(&first, &second, "bursty rerun");
}

/// Requests served together in one lane group produce exactly the
/// outcomes of independent solves: solutions, statuses and histories,
/// bit for bit.
#[test]
fn batched_service_matches_independent_solves_with_histories() {
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0x005e_edd1, n, 5, &[10]);
    let mut ctx = ctx_with(BackendKind::Reference, true);
    let mut service = SolverService::new(ServiceConfig::default().with_lanes(3));
    for arr in &traffic {
        let cfg = GmresConfig::default()
            .with_m(arr.m)
            .with_rtol(arr.rtol)
            .with_max_iters(arr.max_iters);
        let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs).with_config(cfg);
        service.submit(&ctx, &req).expect("valid request");
    }
    while service.pending() + service.in_flight() > 0 {
        service.step(&mut ctx);
    }
    let mut outcomes = service.drain_outcomes();
    outcomes.sort_by_key(|o| o.id.0);
    assert_eq!(outcomes.len(), traffic.len());
    for (arr, got) in traffic.iter().zip(&outcomes) {
        assert_matches_independent(&a, arr, got);
        let cfg = GmresConfig::default()
            .with_m(arr.m)
            .with_rtol(arr.rtol)
            .with_max_iters(arr.max_iters);
        let (want, _) = oracle_solve(&a, &arr.rhs, &cfg);
        let got = got.result.as_ref().unwrap();
        assert_histories_identical(&want.history, &got.history, "served");
    }
}

fn assert_histories_identical(want: &[HistoryPoint], got: &[HistoryPoint], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: history length");
    for (hw, hg) in want.iter().zip(got) {
        assert_eq!(hw.iteration, hg.iteration, "{what}: history");
        assert_eq!(hw.kind, hg.kind, "{what}: history");
        assert_eq!(
            hw.relative_residual.to_bits(),
            hg.relative_residual.to_bits(),
            "{what}: history"
        );
    }
}

/// The identity, except that apply number `poison` (0-based, counted
/// over every lane) returns NaN.
struct PoisonAt {
    poison: usize,
    applies: AtomicUsize,
}

impl PoisonAt {
    fn new(poison: usize) -> Self {
        PoisonAt {
            poison,
            applies: AtomicUsize::new(0),
        }
    }
}

impl Preconditioner<f64> for PoisonAt {
    fn apply(&self, _: &mut GpuContext, _: Option<&GpuMatrix<f64>>, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
        if self.applies.fetch_add(1, Ordering::Relaxed) == self.poison {
            y.fill(f64::NAN);
        }
    }

    fn describe(&self) -> String {
        format!("poison-at({})", self.poison)
    }

    fn needs_matrix(&self) -> bool {
        false
    }
}

/// Fault isolation inside a block: a lane whose preconditioner apply
/// goes NaN mid-solve breaks down alone, and the other lanes of its
/// block come back bitwise unchanged — solution, status, iterations
/// and history — on both backends, through `BlockGmres::solve` and
/// through `SolverService`. Three lanes iterate in lockstep and apply
/// the preconditioner in lane order, so apply 7 is lane 1's third.
#[test]
fn poisoned_lane_leaves_its_block_mates_bitwise_unchanged() {
    const LANES: usize = 3;
    const LANE_1_THIRD_APPLY: usize = 2 * LANES + 1;
    let n = 40;
    let a = laplace1d(n);
    let traffic = arrivals(0x0b5e_55ed, n, LANES, &[10]);
    let cfg = GmresConfig::default().with_m(10).with_max_iters(2_000);
    for kind in BackendKind::ALL {
        let block = |poison: usize| {
            let pc = PoisonAt::new(poison);
            let mut ctx = ctx_with(kind, true);
            let cols: Vec<&[f64]> = traffic.iter().map(|t| t.rhs.as_slice()).collect();
            let b = MultiVec::from_columns(&cols);
            let mut x = MultiVec::<f64>::zeros(n, LANES);
            let res = BlockGmres::new(&a, &pc, cfg).solve(&mut ctx, &b, &mut x);
            let xs: Vec<Vec<f64>> = (0..LANES).map(|l| x.col(l).to_vec()).collect();
            res.into_iter().zip(xs).collect::<Vec<_>>()
        };
        let served = |poison: usize| {
            let pc = PoisonAt::new(poison);
            let mut ctx = ctx_with(kind, true);
            let mut service = SolverService::new(ServiceConfig::default().with_lanes(LANES));
            for arr in &traffic {
                let req = SolveRequest::new(Operator::Matrix(&a), &arr.rhs)
                    .with_config(cfg)
                    .with_precond(&pc);
                service.submit(&ctx, &req).expect("valid request");
            }
            while service.pending() + service.in_flight() > 0 {
                service.step(&mut ctx);
            }
            let mut outcomes = service.drain_outcomes();
            outcomes.sort_by_key(|o| o.id.0);
            outcomes
                .into_iter()
                .map(|o| (o.result.expect("completed"), o.x))
                .collect::<Vec<_>>()
        };
        for (front, run) in [
            ("block", &block as &dyn Fn(usize) -> _),
            ("service", &served),
        ] {
            let what = format!("{kind}/{front}");
            let clean = run(usize::MAX);
            let poisoned = run(LANE_1_THIRD_APPLY);
            assert!(clean.iter().all(|(r, _)| r.status.is_converged()), "{what}");
            let (r1, _) = &poisoned[1];
            assert_eq!(r1.status, SolveStatus::Breakdown, "{what}: poisoned lane");
            assert_eq!(r1.iterations, 3, "{what}: poisoned on its third iteration");
            for l in [0, 2] {
                let ((want, xw), (got, xg)) = (&clean[l], &poisoned[l]);
                let what = format!("{what}: lane {l}");
                assert_eq!(want.status, got.status, "{what}: status");
                assert_eq!(want.iterations, got.iterations, "{what}: iterations");
                assert_eq!(want.restarts, got.restarts, "{what}: restarts");
                assert_histories_identical(&want.history, &got.history, &what);
                for (i, (w, g)) in xw.iter().zip(xg).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "{what}: x[{i}]");
                }
            }
        }
    }
}
