//! A 0 x 0 system is solved, not rejected: every front returns the
//! trivial converged result (0 iterations, 0 restarts, relative
//! residual 0) with an empty solution, the way a zero right-hand side
//! does, and the context's simulated clock stays finite.

use mpgmres::precond::Identity;
use mpgmres::service::{Disposition, ServiceConfig, SolverService};
use mpgmres::{
    BlockGmres, Gmres, GmresConfig, GpuContext, GpuMatrix, Operator, SolveRequest, SolveResult,
    SolveStatus, Solver,
};
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::coo::Coo;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::vec_ops::ReductionOrder;

fn ctx() -> GpuContext {
    GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
}

fn empty() -> GpuMatrix<f64> {
    GpuMatrix::new(Coo::<f64>::new(0, 0).into_csr())
}

fn assert_trivial(r: &SolveResult) {
    assert_eq!(r.status, SolveStatus::Converged);
    assert_eq!((r.iterations, r.restarts), (0, 0));
    assert_eq!(r.final_relative_residual, 0.0);
}

#[test]
fn gmres_serve_solves_an_empty_system() {
    let a = empty();
    let b: Vec<f64> = Vec::new();
    let mut c = ctx();
    let out = Gmres::serve(&mut c, &SolveRequest::new(Operator::Matrix(&a), &b)).unwrap();
    assert_trivial(out.result.as_ref().unwrap());
    assert!(out.x.is_empty());
    assert!(c.elapsed().is_finite());
}

#[test]
fn gmres_solve_solves_an_empty_system() {
    let a = empty();
    let mut c = ctx();
    let mut x: Vec<f64> = Vec::new();
    let r = Gmres::new(&a, &Identity, GmresConfig::default()).solve(&mut c, &[], &mut x);
    assert_trivial(&r);
    assert!(c.elapsed().is_finite());
}

#[test]
fn block_gmres_solve_solves_an_empty_system() {
    let a = empty();
    let mut c = ctx();
    let b = MultiVec::<f64>::zeros(0, 3);
    let mut x = MultiVec::<f64>::zeros(0, 3);
    let rs = BlockGmres::new(&a, &Identity, GmresConfig::default()).solve(&mut c, &b, &mut x);
    assert_eq!(rs.len(), 3);
    rs.iter().for_each(assert_trivial);
    assert!(c.elapsed().is_finite());
}

#[test]
fn service_completes_an_empty_request() {
    let a = empty();
    let b: Vec<f64> = Vec::new();
    let mut c = ctx();
    let mut svc = SolverService::new(ServiceConfig::default().with_lanes(2));
    let id = svc
        .submit(&c, &SolveRequest::new(Operator::Matrix(&a), &b))
        .unwrap();
    svc.run_until_idle(&mut c);
    let outs = svc.drain_outcomes();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].id, id);
    assert_eq!(outs[0].disposition, Disposition::Completed);
    assert_trivial(outs[0].result.as_ref().unwrap());
    assert!(outs[0].x.is_empty());
    assert!(c.elapsed().is_finite());
}
