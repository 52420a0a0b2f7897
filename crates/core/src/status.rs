//! Solve outcomes and convergence histories.

use serde::Serialize;

/// Terminal status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SolveStatus {
    /// Explicit relative residual cleared the tolerance.
    Converged,
    /// Iteration cap reached first.
    MaxIters,
    /// The implicit (Givens) residual claimed convergence but the
    /// explicit residual `||b - A x||` disagrees — Belos's "loss of
    /// accuracy", the fp32-preconditioner failure mode of §V-F.
    LossOfAccuracy,
    /// Arnoldi breakdown that was not "lucky" (degenerate least-squares
    /// pivot or non-finite values).
    Breakdown,
}

impl SolveStatus {
    /// `true` only for [`SolveStatus::Converged`].
    pub fn is_converged(self) -> bool {
        matches!(self, SolveStatus::Converged)
    }
}

/// Which arithmetic produced a history sample (interesting for GMRES-FD
/// and GMRES-IR curves).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum HistoryKind {
    /// Implicit residual from the Givens recurrence (free, every
    /// iteration).
    Implicit,
    /// Explicitly computed `||b - A x|| / ||r0||` (restarts and final).
    Explicit,
}

/// One convergence-history sample.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HistoryPoint {
    /// Global iteration index (cumulative across restarts and solvers).
    pub iteration: usize,
    /// Relative residual at this point.
    pub relative_residual: f64,
    /// Implicit or explicit.
    pub kind: HistoryKind,
}

/// Result of a solve: status, counts, timings live in the context's
/// profiler; the solution is written into the caller's `x`.
#[derive(Clone, Debug, Serialize)]
pub struct SolveResult {
    /// Terminal status.
    pub status: SolveStatus,
    /// Total iterations performed (inner iterations for IR/FD).
    pub iterations: usize,
    /// Number of completed restart cycles.
    pub restarts: usize,
    /// Final explicit relative residual (f64, computed at exit).
    pub final_relative_residual: f64,
    /// Residual history (implicit samples each iteration when enabled,
    /// explicit samples at restarts).
    pub history: Vec<HistoryPoint>,
}

impl SolveResult {
    /// A result reached before the first iteration.
    pub(crate) fn unstarted(status: SolveStatus, rel: f64, history: Vec<HistoryPoint>) -> Self {
        SolveResult {
            status,
            iterations: 0,
            restarts: 0,
            final_relative_residual: rel,
            history,
        }
    }

    /// The result of a solve whose initial residual norm `r0` leaves
    /// nothing to iterate on: zero (converged) or NaN/Inf (breakdown).
    pub(crate) fn trivial(r0: f64) -> Option<Self> {
        let (status, rel) = if r0 == 0.0 {
            (SolveStatus::Converged, 0.0)
        } else if !r0.is_finite() {
            (SolveStatus::Breakdown, f64::NAN)
        } else {
            return None;
        };
        Some(Self::unstarted(status, rel, Vec::new()))
    }

    /// Explicit-residual samples only.
    pub fn explicit_history(&self) -> impl Iterator<Item = &HistoryPoint> {
        self.history
            .iter()
            .filter(|h| h.kind == HistoryKind::Explicit)
    }

    /// Smallest relative residual ever recorded.
    pub fn best_residual(&self) -> f64 {
        self.history
            .iter()
            .map(|h| h.relative_residual)
            .fold(self.final_relative_residual, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_only_for_converged() {
        assert!(SolveStatus::Converged.is_converged());
        assert!(!SolveStatus::MaxIters.is_converged());
        assert!(!SolveStatus::LossOfAccuracy.is_converged());
        assert!(!SolveStatus::Breakdown.is_converged());
    }

    #[test]
    fn history_filters() {
        let r = SolveResult {
            status: SolveStatus::Converged,
            iterations: 2,
            restarts: 1,
            final_relative_residual: 1e-11,
            history: vec![
                HistoryPoint {
                    iteration: 1,
                    relative_residual: 0.5,
                    kind: HistoryKind::Implicit,
                },
                HistoryPoint {
                    iteration: 2,
                    relative_residual: 1e-11,
                    kind: HistoryKind::Explicit,
                },
            ],
        };
        assert_eq!(r.explicit_history().count(), 1);
        assert_eq!(r.best_residual(), 1e-11);
    }
}
