//! Wall-clock benchmark of the multiprecision GMRES stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics; traced
//! runs (`--trace 1`) measure the per-layer metrics from isolated
//! same-run layer calls plus a phase whose kernel calls pass through a
//! recording backend. The human-readable report goes to standard
//! output; its last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md for the
//! workloads, the metrics and the layer they belong to.

mod check;
mod layers;
mod metrics;
mod problem;
mod serve;
mod solves;
mod stats;
mod trace;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpgmres::{GpuContext, GpuMatrix, StreamStats};

use check::Checker;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use problem::{Arm, Prepared, Solver, Workload};
use stats::{mean, median, quantile, Rng};
use trace::Recorder;

/// Worker threads of the parallel backend, fixed so runs compare across
/// machines (capped by the cores present).
const THREADS: usize = 2;
/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, then more while the set-ups have taken less than
/// `SETUP_BUDGET_S`, up to `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 51;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_IDLE: Duration = Duration::from_millis(10);
/// Distinct right-hand sides of a solve run, solved in turn; the
/// warm-up solve repeats the first, which checks determinism.
const SOLVE_INPUTS: usize = 8;
/// Fewest timed solves an untraced solve run makes.
const MIN_SOLVES: usize = 3;
/// Share of a serve-laplace run spent in the open loop; bursts take
/// the rest. At 14 requests per second a run of 10 s or more yields
/// over 100 open-loop latencies, so the p90 has ten samples beyond it.
const OPEN_SHARE: f64 = 0.75;
/// Open-loop seconds of the service probe in traced runs of the solve
/// workloads.
const PROBE_OPEN_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    // A serve-laplace run needs at least one open-loop request.
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be in [1, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run produced.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{}", usage());
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(cores);
    // Read by every parallel kernel path (backend pools and block
    // Jacobi's setup); set before any thread starts.
    std::env::set_var("MPGMRES_THREADS", threads.to_string());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({threads} worker threads, {cores} cores)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let out = match args.workload {
        Workload::ServeLaplace => run_serve(&args),
        _ => run_solves(&args),
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let complete = out.metrics.matches(declared);
    let correct = complete && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        out.metrics.result_line(correct, out.attempted, out.failed)
    );
}

/// Set up a workload repeatedly: matrix generation, `GpuMatrix` build,
/// preconditioner build, fp32 conversion, backend and context creation.
/// Returns the median set-up seconds, the median generation seconds,
/// and the last set-up's context and problem.
fn set_up(w: Workload) -> (f64, f64, GpuContext, Prepared) {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut kept = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let (ctx, p) = Prepared::build(w, problem::backend(None));
        // The service itself is created empty by each session, at no
        // measurable cost; the solvers build their fp32 copies here.
        if w != Workload::ServeLaplace {
            black_box(Solver::for_workload(w, &p));
        }
        setups.push(t.elapsed().as_secs_f64());
        gens.push(p.gen_s);
        kept = Some((ctx, p));
        // A process sets up once, from idle. Back-to-back set-ups on a
        // shared host stay in one of two speed modes for a whole run
        // (0.17 or 0.3 ms on serve-laplace); idling between them samples
        // the state a real set-up meets.
        std::thread::sleep(SETUP_IDLE);
    }
    let (ctx, p) = kept.expect("at least one set-up");
    println!("set-up: median of {} set-ups", setups.len());
    (median(&setups), median(&gens), ctx, p)
}

fn run_solves(args: &Args) -> Outcome {
    let w = args.workload;
    let (setup_s, gen_s, mut ctx, p) = set_up(w);
    let n = p.a.n();
    let solver = Solver::for_workload(w, &p);
    let mut rng = Rng::new(args.seed, 1);
    let inputs: Vec<Vec<f64>> = (0..SOLVE_INPUTS).map(|_| rng.rhs(n)).collect();
    let mut checker = Checker::new(p.a.csr());
    let mut m = Metrics::default();

    if !args.trace {
        let mut runner = solves::Runner {
            solver: &solver,
            inputs: &inputs,
            checker: &mut checker,
        };
        let ops = runner
            .run(&mut ctx, args.seconds, MIN_SOLVES, None, None)
            .ops;
        let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
        let iters: Vec<usize> = ops.iter().map(|o| o.iters).collect();
        println!(
            "end-to-end ({} timed solves, n = {n}, iterations {iters:?}):",
            walls.len()
        );
        m.put("setup_s", setup_s, "s");
        m.put("latency_p50_s", median(&walls), "s");
        m.put(
            "throughput_per_s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        let alias = match w {
            Workload::PaperIr => "ir_solve_s",
            _ => "bj_solve_s",
        };
        m.alias(
            alias,
            "latency_p50_s",
            &format!(", median of {}", walls.len()),
        );
        return Outcome {
            metrics: m,
            attempted: checker.attempted,
            failed: checker.failed,
        };
    }

    // Traced run. The traced context builds its own copy of the problem
    // inside a `build` span; both copies are deterministic, so traced
    // and untraced solutions must hash identically (the shared checker
    // compares every solve against the first solve of its input).
    let rec = Recorder::new();
    let (mut tctx, tp) = rec.scope("build", || Prepared::build(w, problem::backend(Some(&rec))));
    let tsolver = Solver::for_workload(w, &tp);
    let untraced = solves::Runner {
        solver: &solver,
        inputs: &inputs,
        checker: &mut checker,
    }
    .run(&mut ctx, args.seconds / 2.0, 1, None, None);
    let ops = &untraced.ops;
    let tops = solves::Runner {
        solver: &tsolver,
        inputs: &inputs,
        checker: &mut checker,
    }
    .run(&mut tctx, 0.0, 0, Some(ops.len()), Some(&rec))
    .ops;
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let twalls: Vec<f64> = tops.iter().map(|o| o.wall_s).collect();
    let iters: Vec<f64> = ops.iter().map(|o| o.iters as f64).collect();
    let restarts: Vec<f64> = ops.iter().map(|o| o.restarts as f64).collect();
    let traced_iters: usize = tops.iter().map(|o| o.iters).sum();
    println!(
        "per-layer ({} untraced + {} traced solves, n = {n}):",
        ops.len(),
        tops.len()
    );

    layer_probes(w, &p.a, gen_s, &mut m);
    stream_metrics(&mut m, untraced.stream.0, untraced.stream.1, ops.len());
    m.put("solver.iters_per_op", mean(&iters), "count");
    m.put("solver.restarts_per_op", mean(&restarts), "count");
    m.put(
        "solver.us_per_iter",
        walls.iter().sum::<f64>() / iters.iter().sum::<f64>() * 1e6,
        "us",
    );
    gpusim_metrics(
        w,
        &p.a,
        &inputs[0],
        Some(untraced.warm_sim_s),
        &mut checker,
        &mut m,
    );
    service_probe(args.seed, &mut checker, &mut m);
    trace_metrics(
        &rec,
        "solve",
        traced_iters,
        median(&twalls) / median(&walls),
        &mut m,
    );
    write_trace(&rec, args);

    let (it, rs, us) = (
        "solver.iters_per_op",
        "solver.restarts_per_op",
        "solver.us_per_iter",
    );
    match w {
        Workload::PaperIr => {
            m.alias("solver.ir_inner_iters", it, "");
            m.alias("solver.ir_refinements", rs, "");
            m.alias("solver.us_per_iter.ir", us, "");
        }
        _ => {
            m.alias("solver.bj_iters", it, "");
            m.alias("solver.us_per_iter.bj", us, "");
        }
    }
    m.alias(
        &format!("core.self_share.{}", w.name()),
        "core.self_share",
        "",
    );
    m.alias(
        &format!("backend.busy_share.{}", w.name()),
        "backend.busy_share",
        "",
    );
    Outcome {
        metrics: m,
        attempted: checker.attempted,
        failed: checker.failed,
    }
}

fn run_serve(args: &Args) -> Outcome {
    let w = args.workload;
    let (setup_s, gen_s, mut ctx, p) = set_up(w);
    let rhs = serve::inputs(args.seed, p.a.n());
    let mut mix = serve::Mix::new(args.seed);
    let mut checker = Checker::new(p.a.csr());
    let mut m = Metrics::default();

    if !args.trace {
        let (s, _) = serve::session(
            &mut ctx,
            &p.a,
            &rhs,
            &mut mix,
            &mut checker,
            OPEN_SHARE * args.seconds,
            (1.0 - OPEN_SHARE) * args.seconds,
        );
        println!(
            "end-to-end ({} open-loop requests at {} req/s, {} burst requests):",
            s.latency_s.len(),
            serve::RATE_PER_S,
            s.bursts.iter().map(|b| b.1).sum::<usize>()
        );
        m.put("setup_s", setup_s, "s");
        m.put("latency_p50_s", median(&s.latency_s), "s");
        m.put("throughput_per_s", s.capacity_per_s(), "1/s");
        let note = format!(", {} requests", s.latency_s.len());
        m.alias("req_p50_s", "latency_p50_s", &note);
        m.alias("req_per_s", "throughput_per_s", "");
        // Tail latency is reported, not gated: the solve workloads have
        // too few solves per run for a p90 with ten samples beyond it.
        for (name, v) in [
            ("req_p90_s", quantile(&s.latency_s, 0.9)),
            ("gen.late_p90_s", quantile(&s.late_s, 0.9)),
        ] {
            println!("  {name:<28} {v:>16.6} s");
        }
        return Outcome {
            metrics: m,
            attempted: checker.attempted,
            failed: checker.failed,
        };
    }

    // Traced run: an untraced session, then its last burst replayed in
    // a traced context (same requests, so bits must match) after a
    // warm-up burst outside any span.
    let (s, last) = serve::session(
        &mut ctx,
        &p.a,
        &rhs,
        &mut mix,
        &mut checker,
        0.3 * args.seconds,
        0.2 * args.seconds,
    );
    let rec = Recorder::new();
    let mut tctx = problem::context(&w.device(p.a.n()), problem::backend(Some(&rec)));
    let mut d = serve::Driver::new(&p.a, &rhs, &mut checker, None);
    d.burst(&mut tctx, &mix.take(serve::LANES));
    d.rec = Some(&rec);
    d.session = serve::Session::default();
    d.burst(&mut tctx, &last);
    let t = d.finish();
    let untraced_burst = s.bursts.last().expect("a session runs a burst").0;
    println!(
        "per-layer ({} requests, traced burst of {}):",
        s.iters.len(),
        last.len()
    );
    layer_probes(w, &p.a, gen_s, &mut m);
    stream_metrics(&mut m, s.stream.0, s.stream.1, s.iters.len());
    let iters: Vec<f64> = s.iters.iter().map(|&i| i as f64).collect();
    let restarts: Vec<f64> = s.restarts.iter().map(|&i| i as f64).collect();
    m.put("solver.iters_per_op", mean(&iters), "count");
    m.put("solver.restarts_per_op", mean(&restarts), "count");
    m.put(
        "solver.us_per_iter",
        s.step_s_total() / iters.iter().sum::<f64>() * 1e6,
        "us",
    );
    gpusim_metrics(w, &p.a, &rhs[0], None, &mut checker, &mut m);
    service_metrics(&s, &mut m);
    trace_metrics(
        &rec,
        "step",
        t.iters.iter().sum(),
        t.bursts[0].0 / untraced_burst,
        &mut m,
    );
    write_trace(&rec, args);
    m.alias("solver.serve_iters_mean", "solver.iters_per_op", "");
    m.alias("core.self_share.serve-laplace", "core.self_share", "");
    m.alias("backend.busy_share.serve-laplace", "backend.busy_share", "");
    Outcome {
        metrics: m,
        attempted: checker.attempted,
        failed: checker.failed,
    }
}

/// Matrix generation plus the isolated layer calls at the workload's
/// shape, on a backend of their own.
fn layer_probes(w: Workload, a: &GpuMatrix<f64>, gen_s: f64, m: &mut Metrics) {
    let backend = problem::backend(None);
    m.put("matgen.gen_s", gen_s, "s");
    layers::kernels(w, a, &*backend, m);
    let (gbs, bytes) = layers::triad_gbs();
    m.put("machine.triad_gbs", gbs, "GB/s");
    println!("  (triad arrays: {} MiB in all)", bytes >> 20);
    layers::ladder(w, a, &backend, m);
    layers::preconditioners(w, a, &backend, m);
}

/// Graph-cache behaviour over `ops` operations of one context.
fn stream_metrics(m: &mut Metrics, before: StreamStats, after: StreamStats, ops: usize) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    m.put(
        "stream.replay_hit_rate",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put(
        "stream.nodes_per_op",
        (after.nodes_allocated - before.nodes_allocated) as f64 / ops.max(1) as f64,
        "count",
    );
}

/// The paper's comparison at the workload's shape, in simulated V100
/// seconds (deterministic for a given input). `own` is the simulated
/// time the workload's own arm already measured on `b`, if any; only
/// the other arm is solved again.
fn gpusim_metrics(
    w: Workload,
    a: &GpuMatrix<f64>,
    b: &[f64],
    own: Option<f64>,
    checker: &mut Checker,
    m: &mut Metrics,
) {
    let mut sim = |arm: Arm| match (w.arm(), own) {
        (Some(mine), Some(s)) if mine == arm => s,
        _ => {
            let (s, converged) = problem::sim_seconds(w, arm, a, b);
            checker.attempt(converged, "a gpusim comparison solve did not converge");
            s
        }
    };
    let (fp64, ir) = (sim(Arm::Fp64), sim(Arm::Ir));
    m.put("gpusim.fp64_sim_s", fp64, "sim_s");
    m.put("gpusim.ir_sim_s", ir, "sim_s");
    m.put("gpusim.ir_speedup", fp64 / ir, "ratio");
}

fn service_metrics(s: &serve::Session, m: &mut Metrics) {
    m.put("service.submit_us", median(&s.submit_us), "us");
    m.put("service.step_p50_us", median(&s.step_us), "us");
    m.put("service.step_p90_us", quantile(&s.step_us, 0.9), "us");
    m.put("service.queue_wait_p50_s", median(&s.queue_wait_s), "s");
    m.put("service.req_p90_s", quantile(&s.latency_s, 0.9), "s");
    m.put("service.occupancy", s.stats.occupancy(), "ratio");
    m.put("service.admissions", s.stats.admissions as f64, "count");
    m.put("service.cycles", s.stats.cycles as f64, "count");
    m.put(
        "service.payload_allocs",
        s.stats.payload_allocs as f64,
        "count",
    );
    m.put("gen.late_p90_s", quantile(&s.late_s, 0.9), "s");
}

/// The service layer for the solve workloads: a short serve-laplace
/// session (fixed shape, so it measures the service layer itself).
fn service_probe(seed: u64, checker: &mut Checker, m: &mut Metrics) {
    let w = Workload::ServeLaplace;
    let a = GpuMatrix::new(w.generate());
    let mut ctx = problem::context(&w.device(a.n()), problem::backend(None));
    let rhs = serve::inputs(seed, a.n());
    let mut probe = Checker::new(a.csr());
    let (s, _) = serve::session(
        &mut ctx,
        &a,
        &rhs,
        &mut serve::Mix::new(seed),
        &mut probe,
        PROBE_OPEN_S,
        0.0,
    );
    checker.attempted += probe.attempted;
    checker.failed += probe.failed;
    println!("  (service layer from a {PROBE_OPEN_S} s serve-laplace probe)");
    service_metrics(&s, m);
}

fn trace_metrics(rec: &Recorder, op: &str, iters: usize, overhead: f64, m: &mut Metrics) {
    let sum = trace::summarize(&rec.spans(), op);
    println!("  ({} spans recorded)", sum.spans);
    m.put("core.self_share", sum.core_self_share, "ratio");
    m.put("backend.busy_share", sum.backend_busy_share, "ratio");
    m.put(
        "backend.calls_per_iter",
        sum.backend_calls as f64 / iters.max(1) as f64,
        "count",
    );
    m.put("backend.batch_width_mean", sum.batch_width_mean, "count");
    m.put("trace.overhead", overhead, "ratio");
}

/// Spans go to `out/` beside the benchmark, once, at the end.
fn write_trace(rec: &Recorder, args: &Args) {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("{}-seed{}.trace.json", args.workload.name(), args.seed),
    ]
    .iter()
    .collect();
    match rec.write_chrome_json(&path) {
        Ok(()) => println!("  trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
