//! The workloads' problems: matrices, preconditioners, solver settings
//! and the contexts they run in.

use std::sync::Arc;
use std::time::Instant;

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::poly::PolyPreconditioner;
use mpgmres::precond::{Identity, Preconditioner};
use mpgmres::{
    Backend, BackendKind, Gmres, GmresConfig, GmresIr, GpuContext, GpuMatrix, IrConfig, SolveResult,
};
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::csr::Csr;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::{galeri, registry::PaperProblem};

use crate::trace::{Recorder, TracingBackend};

/// Convergence target of every solve (the paper's protocol).
pub const RTOL: f64 = 1e-10;
/// Iteration cap; no workload comes near it at its seed.
const MAX_ITERS: usize = 20_000;
/// Degree of the fp32 GMRES polynomial of the IR arm.
pub const POLY_DEGREE: usize = 25;
/// Block size of block Jacobi.
pub const BJ_BLOCK: usize = 16;
/// Side of the serving Laplacian (n = 1024).
const SERVE_SIDE: usize = 32;
/// The serving bench's latency-scale reference dimension.
const SERVE_PAPER_N: usize = 2_250_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperIr,
    StretchedBj,
    ServeLaplace,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperIr,
        Workload::StretchedBj,
        Workload::ServeLaplace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIr => "paper-ir",
            Workload::StretchedBj => "stretched-bj",
            Workload::ServeLaplace => "serve-laplace",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Restart length of the workload's solver.
    pub fn m(self) -> usize {
        match self {
            Workload::ServeLaplace => 25,
            _ => 50,
        }
    }

    /// Whether the workload's Krylov work runs in fp32 (the IR inner
    /// solver); the CGS2 ladder runs in the working precision.
    pub fn works_in_f32(self) -> bool {
        self == Workload::PaperIr
    }

    /// Generate the workload's matrix.
    pub fn generate(self) -> Csr<f64> {
        match self {
            Workload::PaperIr => {
                let p = PaperProblem::UniFlow2D2500;
                p.generate_at(p.default_nx())
            }
            Workload::StretchedBj => PaperProblem::Stretched2D1500.generate_at(96),
            Workload::ServeLaplace => galeri::laplace2d(SERVE_SIDE, SERVE_SIDE),
        }
    }

    /// The simulated V100 with latencies scaled to the problem size, as
    /// the experiment harness scales them.
    pub fn device(self, n: usize) -> DeviceModel {
        let paper_n = match self {
            Workload::PaperIr => PaperProblem::UniFlow2D2500.paper_n(),
            Workload::StretchedBj => PaperProblem::Stretched2D1500.paper_n(),
            Workload::ServeLaplace => SERVE_PAPER_N,
        };
        DeviceModel::v100_belos().scaled_latencies((n as f64 / paper_n as f64).min(1.0))
    }
}

/// The workload backend, optionally behind the tracing wrapper.
pub fn backend(rec: Option<&Arc<Recorder>>) -> Arc<dyn Backend> {
    let inner = BackendKind::Parallel.create();
    match rec {
        Some(rec) => TracingBackend::wrap(inner, Arc::clone(rec)),
        None => inner,
    }
}

pub fn context(device: &DeviceModel, backend: Arc<dyn Backend>) -> GpuContext {
    GpuContext::with_backend(device.clone(), ReductionOrder::GPU_LIKE, backend)
}

pub fn gmres_config(m: usize) -> GmresConfig {
    GmresConfig::default()
        .with_m(m)
        .with_rtol(RTOL)
        .with_max_iters(MAX_ITERS)
}

pub fn ir_config(m: usize) -> IrConfig {
    IrConfig::default()
        .with_m(m)
        .with_rtol(RTOL)
        .with_max_iters(MAX_ITERS)
}

/// Build the fp32 polynomial in `ctx` (its simulated cost is then
/// cleared from the profile, as the paper excludes it).
pub fn build_poly32(ctx: &mut GpuContext, a: &GpuMatrix<f64>) -> PolyPreconditioner {
    let a32 = a.convert::<f32>();
    let poly = PolyPreconditioner::build_auto_seed(ctx, &a32, POLY_DEGREE)
        .expect("the fp32 polynomial builds on every workload matrix");
    ctx.reset_profile();
    poly
}

/// The matrix of a workload plus the preconditioners its solves use.
pub struct Prepared {
    pub a: GpuMatrix<f64>,
    pub poly32: Option<PolyPreconditioner>,
    pub bj64: Option<BlockJacobi<f64>>,
    /// Wall seconds of matrix generation alone.
    pub gen_s: f64,
}

impl Prepared {
    /// Generate the matrix, create the workload's context over
    /// `backend`, and build what the workload's own solves need.
    pub fn build(w: Workload, backend: Arc<dyn Backend>) -> (GpuContext, Prepared) {
        let t = Instant::now();
        let csr = w.generate();
        let gen_s = t.elapsed().as_secs_f64();
        let a = GpuMatrix::new(csr);
        let mut ctx = context(&w.device(a.n()), backend);
        let poly32 = (w == Workload::PaperIr).then(|| build_poly32(&mut ctx, &a));
        let bj64 = (w == Workload::StretchedBj).then(|| BlockJacobi::build(&a, BJ_BLOCK));
        let p = Prepared {
            a,
            poly32,
            bj64,
            gen_s,
        };
        (ctx, p)
    }
}

/// The solver a solve workload runs: fp64 GMRES(m) or GMRES-IR with an
/// fp32 inner solver.
pub enum Solver<'a> {
    Fp64(Gmres<'a, f64>),
    Ir(Box<GmresIr<'a, f32, f64>>),
}

impl<'a> Solver<'a> {
    /// The workload's own solver over `p` (GMRES-IR's fp32 matrix copy
    /// is made here).
    pub fn for_workload(w: Workload, p: &'a Prepared) -> Solver<'a> {
        match w {
            Workload::PaperIr => Solver::Ir(Box::new(GmresIr::new(
                &p.a,
                p.poly32.as_ref().expect("paper-ir builds its polynomial"),
                ir_config(w.m()),
            ))),
            Workload::StretchedBj => Solver::Fp64(Gmres::new(
                &p.a,
                p.bj64.as_ref().expect("stretched-bj builds block Jacobi"),
                gmres_config(w.m()),
            )),
            Workload::ServeLaplace => unreachable!("serve-laplace solves through the service"),
        }
    }

    pub fn solve(&self, ctx: &mut GpuContext, b: &[f64], x: &mut [f64]) -> SolveResult {
        match self {
            Solver::Fp64(s) => s.solve(ctx, b, x),
            Solver::Ir(s) => s.solve(ctx, b, x),
        }
    }
}

/// Which arm of the paper's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    Fp64,
    Ir,
}

impl Workload {
    /// The arm the workload's own solves run, if it is one of them.
    pub fn arm(self) -> Option<Arm> {
        match self {
            Workload::StretchedBj => Some(Arm::Fp64),
            Workload::PaperIr => Some(Arm::Ir),
            Workload::ServeLaplace => None,
        }
    }
}

/// Simulated V100 seconds of one solve of `b` by `arm` at the
/// workload's shape, and whether it converged. Each arm is
/// preconditioned the way the paper pairs them: none vs. the fp32
/// polynomial on UniFlow, block Jacobi in each arm's precision on
/// Stretched2D, none on the serving Laplacian. For the workload's own
/// arm this equals the simulated time of its solves.
pub fn sim_seconds(w: Workload, arm: Arm, a: &GpuMatrix<f64>, b: &[f64]) -> (f64, bool) {
    let mut ctx = context(&w.device(a.n()), backend(None));
    let mut x = vec![0.0; a.n()];
    let res = match (arm, w) {
        (Arm::Fp64, Workload::StretchedBj) => {
            let bj = BlockJacobi::build(a, BJ_BLOCK);
            Gmres::new(a, &bj, gmres_config(w.m())).solve(&mut ctx, b, &mut x)
        }
        (Arm::Fp64, _) => Gmres::new(a, &Identity, gmres_config(w.m())).solve(&mut ctx, b, &mut x),
        (Arm::Ir, _) => {
            let p32: Box<dyn Preconditioner<f32>> = match w {
                Workload::PaperIr => Box::new(build_poly32(&mut ctx, a)),
                Workload::StretchedBj => {
                    Box::new(BlockJacobi::build(&a.convert::<f32>(), BJ_BLOCK))
                }
                Workload::ServeLaplace => Box::new(Identity),
            };
            ctx.reset_profile();
            GmresIr::<f32, f64>::new(a, &*p32, ir_config(w.m())).solve(&mut ctx, b, &mut x)
        }
    };
    (ctx.elapsed(), res.status.is_converged())
}
