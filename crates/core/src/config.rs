//! Solver configuration.

use mpgmres_scalar::Precision;
use serde::Serialize;

/// Orthogonalization scheme for the Arnoldi basis.
///
/// The paper uses two-pass classical Gram-Schmidt (CGS2) exclusively: one
/// CGS pass is numerically inadequate in low precision, and modified
/// Gram-Schmidt — while stable — issues `2j` skinny kernels per iteration
/// instead of CGS's four wide ones, which is hostile to GPUs (each launch
/// pays overhead; see the ablation bench). The alternatives are provided
/// for the DESIGN.md §8 ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum OrthoMethod {
    /// Two-pass classical Gram-Schmidt (the paper's choice).
    Cgs2,
    /// Single-pass classical Gram-Schmidt: cheapest, loses orthogonality
    /// in low precision.
    Cgs1,
    /// Modified Gram-Schmidt: stable but serializes into 2j kernels per
    /// iteration.
    Mgs,
}

/// Configuration for one GMRES(m) solver (Algorithm 1 of the paper).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GmresConfig {
    /// Restart length / maximum Krylov subspace size `m`. The paper uses
    /// 50 unless stated otherwise (§V preamble).
    pub m: usize,
    /// Relative residual tolerance `||r|| / ||r0||` (paper: 1e-10).
    pub rtol: f64,
    /// Hard iteration cap across all restarts.
    pub max_iters: usize,
    /// Orthogonalization scheme (paper: CGS2).
    pub ortho: OrthoMethod,
    /// Monitor the implicit (Givens) residual every iteration and exit
    /// the cycle early when it clears the tolerance. Standard GMRES
    /// behaviour; GMRES-IR's inner solver sets this `false` because the
    /// single-precision implicit residual says nothing about the outer
    /// fp64 convergence (§III-B) — the inner cycle always runs its full
    /// `m` iterations, which is why the paper's IR iteration counts are
    /// multiples of `m`.
    pub monitor_implicit: bool,
    /// Declare "loss of accuracy" (Belos terminology, §V-F) when the
    /// implicit residual claims convergence but the explicit residual is
    /// more than `loa_factor * rtol`.
    pub loa_factor: f64,
    /// Record the per-iteration residual history (costs memory only).
    pub record_history: bool,
    /// Software-pipeline depth of the `BlockGmres` driver. `0` (the
    /// default) is the lockstep baseline: every lane's host-side
    /// Givens/least-squares step serializes against the device stream
    /// each iteration. `1` defers each lane's host step one iteration:
    /// it is recorded as a host node whose lagged read spans prove it
    /// independent of the next iteration's device kernels, so the
    /// simulated timeline hides the host latency behind device work
    /// (the paper's launch-latency hiding). Results are bit-identical
    /// to depth 0 by construction — only the timeline changes. The
    /// single-RHS [`crate::Gmres`] front honours it too (as a one-lane
    /// pipelined solve).
    pub pipeline_depth: usize,
    /// Krylov-basis storage path (see [`BasisPolicy`]). `Native` (the
    /// default) reproduces the pre-storage-path drivers bit for bit;
    /// `Compressed` stores basis columns narrow and promotes on read.
    pub basis: BasisPolicy,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            m: 50,
            rtol: 1e-10,
            max_iters: 200_000,
            ortho: OrthoMethod::Cgs2,
            monitor_implicit: true,
            loa_factor: 10.0,
            record_history: true,
            pipeline_depth: 0,
            basis: BasisPolicy::Native,
        }
    }
}

impl GmresConfig {
    /// Builder-style restart length.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Builder-style tolerance.
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Builder-style iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder-style orthogonalization method.
    pub fn with_ortho(mut self, ortho: OrthoMethod) -> Self {
        self.ortho = ortho;
        self
    }

    /// Builder-style `BlockGmres` software-pipeline depth (0 or 1).
    /// Out-of-range depths are reported by [`GmresConfig::validate`] at
    /// the request surface (and still trip a `debug_assert!` here).
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        debug_assert!(depth <= 1, "pipeline depth must be 0 or 1");
        self.pipeline_depth = depth;
        self
    }

    /// Builder-style Krylov-basis storage path.
    pub fn with_basis(mut self, basis: BasisPolicy) -> Self {
        self.basis = basis;
        self
    }

    /// Builder-style loss-of-accuracy factor. A compressed basis holds
    /// the implicit/explicit residual gap at storage-precision level by
    /// design; raising the factor lets the restart loop keep refining
    /// from the true residual (IR-style) instead of aborting, while
    /// `Converged` still requires the explicit residual to clear
    /// `rtol`.
    pub fn with_loa_factor(mut self, loa_factor: f64) -> Self {
        self.loa_factor = loa_factor;
        self
    }

    /// Check the configuration at the request surface; everything the
    /// drivers used to `assert!` at construction now reports a typed
    /// [`SolveError`](crate::SolveError).
    pub fn validate(&self) -> Result<(), crate::service::SolveError> {
        use crate::service::SolveError;
        if self.m < 1 {
            return Err(SolveError::InvalidConfig(
                "restart length must be at least 1".into(),
            ));
        }
        if self.pipeline_depth > 1 {
            return Err(SolveError::InvalidConfig(format!(
                "pipeline depth must be 0 or 1, got {}",
                self.pipeline_depth
            )));
        }
        if !(self.rtol >= 0.0) {
            return Err(SolveError::InvalidConfig(format!(
                "relative tolerance must be non-negative and not NaN, got {}",
                self.rtol
            )));
        }
        if !(self.loa_factor >= 1.0) {
            return Err(SolveError::InvalidConfig(format!(
                "loss-of-accuracy factor must be at least 1, got {}",
                self.loa_factor
            )));
        }
        if let BasisPolicy::Compressed(p) = self.basis {
            if p == Precision::Fp64 {
                return Err(SolveError::InvalidConfig(
                    "compressed basis storage must be narrower than fp64; \
                     use BasisPolicy::Native for full-width storage"
                        .into(),
                ));
            }
            if self.ortho == OrthoMethod::Mgs {
                return Err(SolveError::InvalidConfig(
                    "compressed basis storage requires CGS1/CGS2: MGS reads \
                     basis columns one at a time through S-typed views"
                        .into(),
                ));
            }
            if self.pipeline_depth > 0 {
                return Err(SolveError::InvalidConfig(
                    "compressed basis storage requires pipeline depth 0: the \
                     pipelined driver records in-place basis writes"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// Configuration for the GMRES-IR inner solver: one full-`m` cycle,
    /// no implicit monitoring.
    pub fn inner_cycle(m: usize) -> Self {
        GmresConfig {
            m,
            rtol: 0.0, // never triggers
            max_iters: m,
            ortho: OrthoMethod::Cgs2,
            monitor_implicit: false,
            loa_factor: f64::INFINITY,
            record_history: false,
            pipeline_depth: 0,
            basis: BasisPolicy::Native,
        }
    }
}

/// Krylov-basis storage path of a GMRES / block-GMRES solve.
///
/// Orthogonal to the working precision and to [`StorePath`] (which governs
/// the *matrix* operand): the basis is by far the largest solver-owned
/// array (`(m+1) x n`), and every CGS pass streams all of it twice. `Native`
/// keeps the classic full-width `MultiVector` layout — bit-identical to the
/// pre-storage-path drivers. `Compressed(p)` stores each basis column
/// demoted to `p` (fp32 or fp16) and promotes on read, so the GEMV-T /
/// GEMV-N kernels stream `p.bytes()` per basis element while still
/// accumulating in the working precision. Compressed storage requires
/// CGS1/CGS2 (MGS reads columns through full-width views) and pipeline
/// depth 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasisPolicy {
    /// Full-width storage in the working precision (the legacy path).
    Native,
    /// Columns stored demoted to the given precision, promoted on read.
    Compressed(Precision),
}

impl BasisPolicy {
    /// Short name for experiment output (`native`, `fp32`, `fp16`).
    pub fn label(self) -> &'static str {
        match self {
            BasisPolicy::Native => "native",
            BasisPolicy::Compressed(p) => p.name(),
        }
    }

    /// Allocate a basis store of this policy's storage path. A
    /// `Compressed` precision at or above the working precision
    /// degenerates to `Native` (demote-only, like
    /// [`mpgmres_la::BasisStore::compressed`]).
    pub fn store<S: mpgmres_scalar::Scalar>(
        self,
        n: usize,
        max_cols: usize,
    ) -> mpgmres_la::BasisStore<S> {
        match self {
            BasisPolicy::Native => mpgmres_la::BasisStore::native(n, max_cols),
            BasisPolicy::Compressed(p) => mpgmres_la::BasisStore::compressed(n, max_cols, p),
        }
    }
}

impl Serialize for BasisPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

/// Matrix storage path of the GMRES-IR *inner* operand.
///
/// The inner solver's working precision and the precision its matrix
/// values are *stored* in are independent axes. `Native` keeps the
/// classic plain-CSR copy in the working precision (bit-identical to
/// the pre-storage-path solver); the other variants stream fewer value
/// bytes per SpMV/SpMM while still accumulating in the working
/// precision. Storage paths other than `Native` require the identity
/// preconditioner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StorePath {
    /// Plain CSR in the inner working precision (the legacy path).
    Native,
    /// Shadow value array cast down to the given precision; structure
    /// (row pointers / column indices) is shared with the plain copy.
    Shadow(Precision),
    /// Magnitude-split two-bucket storage: entries with `|v|` at or
    /// above the threshold stay in the working precision, the rest drop
    /// to fp32.
    Split(f64),
}

impl StorePath {
    /// Short name for experiment output (`native`, `fp32`, `split@1e-3`).
    pub fn label(self) -> String {
        match self {
            StorePath::Native => "native".to_string(),
            StorePath::Shadow(p) => p.name().to_string(),
            StorePath::Split(t) => format!("split@{t:e}"),
        }
    }
}

impl Serialize for StorePath {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label())
    }
}

/// Admission-scheduling policy of the serving layer: how the
/// [`crate::service::SolverService`] orders each group's pending queue
/// and picks which request fills a deflation-vacated lane at a cycle
/// barrier. Scheduling decisions stay *outside* the arithmetic — a
/// request's completed outcome is bit-identical under every policy;
/// only its wait (and, under load, whether it degrades or expires)
/// changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Strict arrival order (the pre-QoS behavior, and the default).
    Fifo,
    /// Highest [`Qos::priority`] first; ties break by arrival order.
    ///
    /// [`Qos::priority`]: crate::service::Qos::priority
    Priority,
    /// Earliest absolute deadline first (no-deadline requests sort
    /// last); ties break by arrival order. Meets every feasible
    /// deadline at subcritical load.
    EarliestDeadlineFirst,
    /// Arrival order within a tenant, but lane occupancy is balanced
    /// across tenants: while `T` tenants have work outstanding, each
    /// tenant's groups may occupy at most `ceil(lanes / T)` lanes, so
    /// one tenant's burst cannot starve another's trickle.
    TenantFairShare,
}

impl SchedulerPolicy {
    /// Short name for experiment output (`fifo`, `priority`, `edf`,
    /// `fair-share`).
    pub fn label(self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::Priority => "priority",
            SchedulerPolicy::EarliestDeadlineFirst => "edf",
            SchedulerPolicy::TenantFairShare => "fair-share",
        }
    }
}

impl Serialize for SchedulerPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

/// Configuration for GMRES-IR (Algorithm 2).
#[derive(Clone, Copy, Debug)]
pub struct IrConfig {
    /// Inner restart length `m` (inner fp32 GMRES runs exactly `m`
    /// iterations per refinement cycle).
    pub m: usize,
    /// Outer relative residual tolerance, on the fp64 residual.
    pub rtol: f64,
    /// Cap on total inner iterations.
    pub max_iters: usize,
    /// Optional early-exit threshold for the inner solver's own implicit
    /// residual, relative to the inner cycle's starting residual. `None`
    /// reproduces the paper (always full m). `Some(tau)` is the ablation
    /// knob discussed in DESIGN.md §8.
    pub inner_early_exit: Option<f64>,
    /// Record residual history at refinement boundaries.
    pub record_history: bool,
    /// Storage path of the inner low-precision matrix operand.
    /// [`StorePath::Native`] (the default) reproduces the classic
    /// solver bit for bit.
    pub store: StorePath,
}

impl Serialize for IrConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("m".into(), self.m.to_value()),
            ("rtol".into(), self.rtol.to_value()),
            ("max_iters".into(), self.max_iters.to_value()),
            ("inner_early_exit".into(), self.inner_early_exit.to_value()),
            ("record_history".into(), self.record_history.to_value()),
            ("store".into(), self.store.to_value()),
        ])
    }
}

impl Default for IrConfig {
    fn default() -> Self {
        IrConfig {
            m: 50,
            rtol: 1e-10,
            max_iters: 200_000,
            inner_early_exit: None,
            record_history: true,
            store: StorePath::Native,
        }
    }
}

impl IrConfig {
    /// Builder-style restart length.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Builder-style tolerance.
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Builder-style iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder-style inner-operand storage path.
    pub fn with_store(mut self, store: StorePath) -> Self {
        self.store = store;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol() {
        let c = GmresConfig::default();
        assert_eq!(c.m, 50);
        assert_eq!(c.rtol, 1e-10);
        assert!(c.monitor_implicit);
        let ir = IrConfig::default();
        assert_eq!(ir.m, 50);
        assert!(
            ir.inner_early_exit.is_none(),
            "paper runs inner cycles to full m"
        );
    }

    #[test]
    fn inner_cycle_never_exits_early() {
        let c = GmresConfig::inner_cycle(30);
        assert_eq!(c.m, 30);
        assert_eq!(c.max_iters, 30);
        assert!(!c.monitor_implicit);
        assert_eq!(c.rtol, 0.0);
    }

    #[test]
    fn store_path_labels_and_serialization() {
        assert_eq!(StorePath::Native.label(), "native");
        assert_eq!(StorePath::Shadow(Precision::Fp32).label(), "fp32");
        assert!(StorePath::Split(1e-3).label().starts_with("split@"));
        let ir = IrConfig::default().with_store(StorePath::Shadow(Precision::Fp16));
        let v = ir.to_value();
        match v {
            serde::Value::Object(fields) => {
                let store = fields
                    .iter()
                    .find(|(k, _)| k == "store")
                    .map(|(_, v)| v.clone());
                assert_eq!(store, Some(serde::Value::Str("fp16".into())));
            }
            other => panic!("IrConfig must serialize to an object, got {other:?}"),
        }
    }

    #[test]
    fn builders_compose() {
        let c = GmresConfig::default()
            .with_m(100)
            .with_rtol(1e-8)
            .with_max_iters(500);
        assert_eq!((c.m, c.rtol, c.max_iters), (100, 1e-8, 500));
    }
}
