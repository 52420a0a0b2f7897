//! Independent correctness checks and failure accounting, run outside
//! every timed span.
//!
//! An operation fails when its solver status is not `Converged`, when
//! it is shed or errors, when ‖b − A x‖ / ‖b‖ recomputed here in f64
//! with raw `mpgmres_la` kernels misses its tolerance, or when its
//! solution bits differ from the first solve of the same input in the
//! run.

use std::collections::HashMap;

use mpgmres_la::csr::Csr;
use mpgmres_la::vec_ops::{norm2_ordered, ReductionOrder};

use crate::stats::hash_bits;

/// Relative slack on the tolerance: the recheck sums in sequential
/// order, the solver in its own, so a residual sitting exactly on the
/// tolerance may differ in the last bits.
const ROUNDING_SLACK: f64 = 1e-9;

pub struct Checker<'a> {
    a: &'a Csr<f64>,
    r: Vec<f64>,
    first: HashMap<u64, u64>,
    pub attempted: usize,
    pub failed: usize,
}

impl<'a> Checker<'a> {
    pub fn new(a: &'a Csr<f64>) -> Self {
        Checker {
            a,
            r: vec![0.0; a.nrows()],
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// ‖b − A x‖ / ‖b‖ in f64 with the raw kernels.
    pub fn relative_residual(&mut self, b: &[f64], x: &[f64]) -> f64 {
        self.a.residual(b, x, &mut self.r);
        norm2_ordered(&self.r, ReductionOrder::Sequential)
            / norm2_ordered(b, ReductionOrder::Sequential)
    }

    /// Account one completed operation on input `key`; returns its
    /// solution hash. `what` names the operation in failure messages.
    pub fn completed(
        &mut self,
        what: &str,
        key: u64,
        converged: bool,
        rtol: f64,
        b: &[f64],
        x: &[f64],
    ) -> u64 {
        self.attempted += 1;
        let hash = hash_bits(x);
        let rel = self.relative_residual(b, x);
        let first = *self.first.entry(key).or_insert(hash);
        // Written so that a NaN residual fails too.
        let within = rel <= rtol * (1.0 + ROUNDING_SLACK);
        let problem = if !converged {
            Some("did not converge".to_string())
        } else if !within {
            Some(format!("recomputed residual {rel:e} misses rtol {rtol:e}"))
        } else if first != hash {
            Some("solution bits differ from the first solve of this input".to_string())
        } else {
            None
        };
        if let Some(p) = problem {
            self.fail(&format!("{what} (input {key}): {p}"));
        }
        hash
    }

    /// Account one operation that produced no solution (shed, error).
    pub fn fail(&mut self, msg: &str) {
        if self.failed < 8 {
            eprintln!("perfbench: FAILED {msg}");
        }
        self.failed += 1;
    }

    /// Account an operation that is not a solve (e.g. a comparison).
    pub fn attempt(&mut self, ok: bool, msg: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(msg);
        }
    }
}
