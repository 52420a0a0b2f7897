//! Serving bench: latency and occupancy of [`SolverService`] vs offered
//! load under the simulated V100 clock, plus the admission replay
//! economics the CI gate pins.
//!
//! An open-loop arrival stream (deterministic LCG payloads, fractional
//! credit accrual per cycle barrier) pushes requests through the
//! continuous-admission lane engine at three offered loads. For each
//! point we record p50/p99 end-to-end simulated latency (queue wait +
//! solve) and the occupied-lane-cycle ratio; at the gate load every
//! completed solve is also checked bit-identical to a one-shot
//! [`Gmres`] run (the serving parity contract). The whole gate-load
//! scenario then reruns in the same context: a warm service must serve
//! every admission and cycle graph from the replay cache — the gate
//! fields pin the hit-rate at 1.0 and the node-allocation delta at 0.
//!
//! Archived as `results/serving.json`; the `gate` object carries the
//! flat uniquely-named fields the CI perf gate (`perfgate`) checks, so
//! the schema is load-bearing — extend it, don't rename it.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::prelude::*;
use mpgmres_bench::experiments::serving::{
    drive, drive_with, measure, quantile, traffic, DriveOpts, LoadPoint,
};
use mpgmres_bench::output;
use mpgmres_matgen::galeri;
use serde::Serialize;

/// Flat, uniquely-named gate fields for the CI perf gate.
#[derive(Serialize)]
struct GateRecord {
    gate_offered_load: f64,
    serving_p50_seconds: f64,
    serving_p99_seconds: f64,
    serving_occupancy: f64,
    /// Replay hits / (hits + misses) across the warm rerun.
    serving_replay_hit_rate: f64,
    /// Graph nodes allocated during the warm rerun (must be 0).
    serving_warm_nodes_delta: f64,
    /// Payload buffers allocated by warm request waves on a recycled
    /// service (must be 0: pooled rhs/x0 carriers and outcome buffers).
    serving_warm_payload_allocs_delta: f64,
    /// Every completed solve bit-identical to a one-shot `Gmres`.
    serving_parity_ok: bool,
    /// Deadline misses under EDF at subcritical load (must be 0).
    serving_qos_subcritical_deadline_misses: f64,
    /// p99 end-to-end latency at the gate load, FIFO baseline.
    serving_qos_fifo_p99_seconds: f64,
    /// p99 at the gate load under EDF + precision-ladder degradation.
    serving_qos_edf_p99_seconds: f64,
    /// EDF + degradation beats the FIFO p99 at the gate load.
    serving_qos_p99_improved: bool,
    /// Requests re-routed down the precision ladder at the gate load.
    serving_qos_degradations: f64,
    /// Every degraded completion still met its fp64 tolerance.
    serving_qos_degraded_converged: bool,
    /// Largest per-tenant lane-cycle share under fair-share with two
    /// symmetric tenants (bounded near an even split).
    serving_qos_fairshare_max_share: f64,
    /// Replay hit-rate of the warm QoS (EDF + degradation) rerun.
    serving_qos_replay_hit_rate: f64,
    /// Graph nodes allocated during the warm QoS rerun (must be 0).
    serving_qos_warm_nodes_delta: f64,
    /// Payload buffers allocated across warm submit-then-cancel waves
    /// (must be 0: queued cancellation returns carriers to the pool).
    serving_qos_cancel_wave_allocs_delta: f64,
}

#[derive(Serialize)]
struct ServingArtifact {
    problem: String,
    n: usize,
    lanes: usize,
    m: usize,
    requests: usize,
    points: Vec<LoadPoint>,
    gate: GateRecord,
}

fn summary(_c: &mut Criterion) {
    let fast = std::env::var("MPGMRES_BENCH_FAST").map(|v| v == "1") == Ok(true);
    let side = 32;
    let a = GpuMatrix::new(galeri::laplace2d(side, side));
    let n = a.n();
    let dev = DeviceModel::v100_belos().scaled_latencies(n as f64 / 2_250_000.0);
    let lanes = 4;
    let requests = if fast { 24 } else { 64 };
    let cfg = GmresConfig::default()
        .with_m(25)
        .with_rtol(1e-8)
        .with_max_iters(2_000);
    let rhs = traffic(0x5e41_71c3, n, requests);

    println!(
        "\n[serving summary] SolverService on laplace2d({side}x{side}), \
         lanes={lanes}, {requests} requests, m={}",
        cfg.m
    );
    let mut ctx = GpuContext::new(dev.clone());
    let mut points = Vec::new();
    let gate_load = 2.0;
    let mut gate_run = None;
    for load in [0.25, 1.0, gate_load] {
        let r = drive(&mut ctx, &a, cfg, lanes, &rhs, load);
        assert_eq!(r.outcomes.len(), requests, "every request resolves");
        let p = measure(load, &r);
        println!(
            "  load {load:.2}/cycle: p50 {:.3}ms, p99 {:.3}ms, occupancy {:.3}, \
             {} admissions over {} cycles",
            p.p50_latency_seconds * 1e3,
            p.p99_latency_seconds * 1e3,
            p.occupancy,
            p.admissions,
            p.cycles,
        );
        points.push(p);
        if load == gate_load {
            gate_run = Some(r);
        }
    }
    let gate_run = gate_run.expect("gate load measured");

    // Parity: the serving contract, re-verified at bench scale on the
    // gate-load outcomes (chaos tests cover backends x streaming).
    let solo = Gmres::new(&a, &Identity, cfg);
    let mut solo_ctx = GpuContext::new(dev.clone());
    let mut parity_ok = true;
    for out in &gate_run.outcomes {
        let b = &rhs[out.id.0 as usize - 1];
        let mut x = vec![0.0f64; n];
        let want = solo.solve(&mut solo_ctx, b, &mut x);
        let got = out.result.as_ref().expect("completed outcome");
        parity_ok &= got.status == want.status
            && got.iterations == want.iterations
            && out
                .x
                .iter()
                .zip(&x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
    }
    assert!(parity_ok, "served solves must match one-shot Gmres");

    // Replay economics: rerun the gate scenario in the warmed context —
    // every admission/cycle graph must replay, allocating nothing.
    let warm = ctx.stream_stats();
    let rerun = drive(&mut ctx, &a, cfg, lanes, &rhs, gate_load);
    assert_eq!(rerun.outcomes.len(), requests);
    let after = ctx.stream_stats();
    let hits = (after.hits - warm.hits) as f64;
    let misses = (after.misses - warm.misses) as f64;
    let hit_rate = hits / (hits + misses).max(1.0);
    let nodes_delta = (after.nodes_allocated - warm.nodes_allocated) as f64;
    println!(
        "  warm rerun: {hits} replay hits, {misses} misses (rate {hit_rate:.4}), \
         {nodes_delta} graph nodes allocated"
    );

    // Zero-copy payloads: a warmed service recycling its outcomes must
    // serve repeated request waves without allocating a single payload
    // carrier — submissions, admissions, and outcome solutions all ride
    // the pool.
    let mut wave_ctx = GpuContext::new(dev.clone());
    let mut service = SolverService::new(ServiceConfig::default().with_lanes(lanes));
    let mut sink = Vec::new();
    let mut warm_allocs = 0usize;
    let wave_len = rhs.len().min(12);
    for wave in 0..3usize {
        for b in rhs.iter().take(wave_len) {
            let req = SolveRequest::new(Operator::Matrix(&a), b).with_config(cfg);
            service.submit(&wave_ctx, &req).expect("wave request");
        }
        service.run_until_idle(&mut wave_ctx);
        service.drain_outcomes_into(&mut sink);
        assert_eq!(sink.len(), wave_len, "every wave request resolves");
        for out in sink.drain(..) {
            service.recycle(out);
        }
        if wave == 0 {
            warm_allocs = service.stats().payload_allocs;
            assert!(warm_allocs > 0, "cold wave allocates carriers");
        }
    }
    let payload_allocs_delta = (service.stats().payload_allocs - warm_allocs) as f64;
    assert_eq!(
        payload_allocs_delta, 0.0,
        "warm serving waves must allocate no payload buffers"
    );
    println!(
        "  warm waves: {warm_allocs} pooled carriers after cold wave, \
         {payload_allocs_delta} allocated across warm waves"
    );

    // ---- QoS scheduling scenarios ---------------------------------
    // One solo solve calibrates the simulated solve time so deadlines
    // scale with the cost model instead of hard-coding seconds.
    let solo_secs = {
        let mut c = GpuContext::new(dev.clone());
        Gmres::serve(
            &mut c,
            &SolveRequest::new(Operator::Matrix(&a), &rhs[0]).with_config(cfg),
        )
        .expect("solo serve")
        .solve_seconds
    };
    // Generous-but-scrambled deadlines: EDF ordering is well defined,
    // yet nothing can miss even queued behind the whole stream.
    let generous = move |i: usize| solo_secs * 200.0 * (1.0 + ((i * 13) % 7) as f64);

    // EDF at subcritical load: zero deadline misses, CI-gated.
    let mut sub_ctx = GpuContext::new(dev.clone());
    let sub = drive_with(
        &mut sub_ctx,
        &a,
        cfg,
        lanes,
        &rhs,
        0.25,
        &DriveOpts {
            scheduler: Some(SchedulerPolicy::EarliestDeadlineFirst),
            deadline: Some(&generous),
            ..DriveOpts::default()
        },
    );
    assert_eq!(sub.outcomes.len(), requests);
    let qos_sub_misses = sub.stats.deadline_misses as f64;
    assert_eq!(
        qos_sub_misses, 0.0,
        "EDF must not miss deadlines at subcritical load"
    );
    println!(
        "  qos subcritical (EDF, load 0.25): {} completed, {} deadline misses",
        sub.stats.completed, sub.stats.deadline_misses
    );

    // Overload relief: at the gate load, EDF + precision-ladder
    // degradation (fp32 shadow store) must improve p99 over the FIFO
    // baseline measured above — the ladder adds capacity, EDF keeps
    // the most urgent work in front.
    let store = GpuStore::shadow_of(&a, Precision::Fp32);
    let mut qos_ctx = GpuContext::new(dev.clone());
    let qos_opts = DriveOpts {
        scheduler: Some(SchedulerPolicy::EarliestDeadlineFirst),
        degrade_after_cycles: 4,
        deadline: Some(&generous),
        degradable: true,
        store: Some(&store),
        ..DriveOpts::default()
    };
    let qos_run = drive_with(&mut qos_ctx, &a, cfg, lanes, &rhs, gate_load, &qos_opts);
    assert_eq!(qos_run.outcomes.len(), requests);
    assert_eq!(qos_run.stats.deadline_misses, 0, "generous deadlines");
    let mut qos_lat: Vec<f64> = qos_run
        .outcomes
        .iter()
        .filter(|o| o.disposition == Disposition::Completed)
        .map(|o| o.queued_seconds + o.solve_seconds)
        .collect();
    qos_lat.sort_by(f64::total_cmp);
    let qos_p99 = quantile(&qos_lat, 0.99);
    let fifo_p99 = points.last().expect("gate point").p99_latency_seconds;
    let degradations = qos_run.stats.degradations as f64;
    let degraded_converged = qos_run
        .outcomes
        .iter()
        .filter(|o| o.disposition == Disposition::Completed)
        .all(|o| {
            o.result
                .as_ref()
                .is_some_and(|r| r.final_relative_residual <= cfg.rtol)
        });
    println!(
        "  qos overload (EDF+degradation, load {gate_load:.1}): p99 {:.3}ms vs FIFO {:.3}ms, \
         {degradations} degradations, degraded converged: {degraded_converged}",
        qos_p99 * 1e3,
        fifo_p99 * 1e3,
    );
    assert!(
        degradations > 0.0,
        "overload must push requests down the ladder"
    );
    assert!(degraded_converged, "degraded solves must meet fp64 rtol");

    // Warm QoS replay: the same scenario rerun in the warmed context
    // must serve every graph (both rungs included) from the cache.
    let qos_warm = qos_ctx.stream_stats();
    let qos_rerun = drive_with(&mut qos_ctx, &a, cfg, lanes, &rhs, gate_load, &qos_opts);
    assert_eq!(qos_rerun.outcomes.len(), requests);
    let qos_after = qos_ctx.stream_stats();
    let qhits = (qos_after.hits - qos_warm.hits) as f64;
    let qmisses = (qos_after.misses - qos_warm.misses) as f64;
    let qos_hit_rate = qhits / (qhits + qmisses).max(1.0);
    let qos_nodes_delta = (qos_after.nodes_allocated - qos_warm.nodes_allocated) as f64;
    println!(
        "  qos warm rerun: {qhits} hits, {qmisses} misses (rate {qos_hit_rate:.4}), \
         {qos_nodes_delta} graph nodes allocated"
    );

    // Fair share with two symmetric tenants: lane-cycle shares must
    // stay near an even split.
    let tenant_of = |i: usize| (i % 2) as u32;
    let mut fair_ctx = GpuContext::new(dev.clone());
    let fair = drive_with(
        &mut fair_ctx,
        &a,
        cfg,
        lanes,
        &rhs,
        1.0,
        &DriveOpts {
            scheduler: Some(SchedulerPolicy::TenantFairShare),
            tenant: Some(&tenant_of),
            ..DriveOpts::default()
        },
    );
    assert_eq!(fair.outcomes.len(), requests);
    let fair_max_share = fair
        .tenant_shares
        .iter()
        .map(|(_, s)| *s)
        .fold(0.0, f64::max);
    println!(
        "  qos fair-share (2 tenants): shares {:?}, max {fair_max_share:.3}",
        fair.tenant_shares
    );

    // Submit-then-cancel waves on a warm service: queued cancellation
    // must return the pooled rhs/x0 carriers immediately, so the wave
    // allocates nothing.
    let mut cancel_ctx = GpuContext::new(dev.clone());
    let mut csvc = SolverService::new(ServiceConfig::default().with_lanes(lanes));
    let mut csink = Vec::new();
    for b in rhs.iter().take(wave_len) {
        let req = SolveRequest::new(Operator::Matrix(&a), b).with_config(cfg);
        csvc.submit(&cancel_ctx, &req).expect("warm wave request");
    }
    csvc.run_until_idle(&mut cancel_ctx);
    csvc.drain_outcomes_into(&mut csink);
    for out in csink.drain(..) {
        csvc.recycle(out);
    }
    let cancel_warm_allocs = csvc.stats().payload_allocs;
    for _ in 0..3usize {
        let ids: Vec<RequestId> = rhs
            .iter()
            .take(wave_len)
            .map(|b| {
                let req = SolveRequest::new(Operator::Matrix(&a), b).with_config(cfg);
                csvc.submit(&cancel_ctx, &req).expect("cancel wave request")
            })
            .collect();
        for id in ids {
            csvc.cancel(&cancel_ctx, id).expect("queued cancel");
        }
        csvc.drain_outcomes_into(&mut csink);
        for out in csink.drain(..) {
            csvc.recycle(out);
        }
    }
    let cancel_allocs_delta = (csvc.stats().payload_allocs - cancel_warm_allocs) as f64;
    assert_eq!(
        cancel_allocs_delta, 0.0,
        "submit-then-cancel waves must ride the pool"
    );
    println!(
        "  qos cancel waves: {cancel_warm_allocs} pooled carriers after warm wave, \
         {cancel_allocs_delta} allocated across cancel waves"
    );

    let gp = points.last().expect("gate point");
    let gate = GateRecord {
        gate_offered_load: gate_load,
        serving_p50_seconds: gp.p50_latency_seconds,
        serving_p99_seconds: gp.p99_latency_seconds,
        serving_occupancy: gp.occupancy,
        serving_replay_hit_rate: hit_rate,
        serving_warm_nodes_delta: nodes_delta,
        serving_warm_payload_allocs_delta: payload_allocs_delta,
        serving_parity_ok: parity_ok,
        serving_qos_subcritical_deadline_misses: qos_sub_misses,
        serving_qos_fifo_p99_seconds: fifo_p99,
        serving_qos_edf_p99_seconds: qos_p99,
        serving_qos_p99_improved: qos_p99 < fifo_p99,
        serving_qos_degradations: degradations,
        serving_qos_degraded_converged: degraded_converged,
        serving_qos_fairshare_max_share: fair_max_share,
        serving_qos_replay_hit_rate: qos_hit_rate,
        serving_qos_warm_nodes_delta: qos_nodes_delta,
        serving_qos_cancel_wave_allocs_delta: cancel_allocs_delta,
    };
    let artifact = ServingArtifact {
        problem: format!("laplace2d({side}x{side})"),
        n,
        lanes,
        m: cfg.m,
        requests,
        points,
        gate,
    };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "serving", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(serving_group, summary);
criterion_main!(serving_group);
