//! Registry of the paper's named PDE problems with paper-scale and
//! default (CPU-budget) dimensions.
//!
//! Every experiment binary resolves problems through this registry so the
//! mapping "paper problem -> generator + parameters" lives in one place.
//! `default_nx` is sized so experiments finish in seconds-to-minutes on a
//! CPU; `--paper-scale` runs use `paper_nx` (the device model's latencies
//! shrink alongside: `DeviceModel::scaled_latencies` in `mpgmres-gpusim`).

use mpgmres_la::csr::Csr;

use crate::galeri;

/// Maximum cell Peclet targets for the convection problems. Chosen so the
/// default-scale problems sit in the same qualitative regime the paper
/// describes: UniFlow moderately convective (~850 fp64 iterations at the
/// default scale), BentPipe strongly convective and ill-conditioned
/// (~7000 fp64 iterations at the default scale, vs the paper's 12967 at
/// paper scale).
pub const UNIFLOW_PECLET: f64 = 0.9;
/// BentPipe2D is "strongly convection-dominated" (§V-B).
pub const BENTPIPE_PECLET: f64 = 0.5;
/// Stretched2D stretch factor: large enough that unpreconditioned
/// GMRES(50) stalls (§V-C: "cannot converge without preconditioning").
pub const STRETCH_FACTOR: f64 = 60.0;

/// A named PDE problem from the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperProblem {
    /// 3D Laplacian, paper grid 150 (§V-B, V-E).
    Laplace3D150,
    /// 3D Laplacian, paper grid 200 (Fig. 1, §V-F).
    Laplace3D200,
    /// 2D uniform-flow convection-diffusion, paper grid 2500 (Fig. 2).
    UniFlow2D2500,
    /// 2D recirculating-flow convection-diffusion, paper grid 1500 (§V-B).
    BentPipe2D1500,
    /// 2D stretched-grid FEM Laplacian, paper grid 1500 (§V-C).
    Stretched2D1500,
}

impl PaperProblem {
    /// Name as used in the paper's figures and tables.
    pub fn name(self) -> &'static str {
        match self {
            PaperProblem::Laplace3D150 => "Laplace3D150",
            PaperProblem::Laplace3D200 => "Laplace3D200",
            PaperProblem::UniFlow2D2500 => "UniFlow2D2500",
            PaperProblem::BentPipe2D1500 => "BentPipe2D1500",
            PaperProblem::Stretched2D1500 => "Stretched2D1500",
        }
    }

    /// Grid points per direction in the paper.
    pub fn paper_nx(self) -> usize {
        match self {
            PaperProblem::Laplace3D150 => 150,
            PaperProblem::Laplace3D200 => 200,
            PaperProblem::UniFlow2D2500 => 2500,
            PaperProblem::BentPipe2D1500 => 1500,
            PaperProblem::Stretched2D1500 => 1500,
        }
    }

    /// Default grid for CPU-budget experiment runs.
    pub fn default_nx(self) -> usize {
        match self {
            PaperProblem::Laplace3D150 => 48,
            PaperProblem::Laplace3D200 => 36,
            PaperProblem::UniFlow2D2500 => 160,
            PaperProblem::BentPipe2D1500 => 96,
            PaperProblem::Stretched2D1500 => 384,
        }
    }

    /// Unknown count in the paper.
    pub fn paper_n(self) -> usize {
        let nx = self.paper_nx();
        match self {
            PaperProblem::Laplace3D150 | PaperProblem::Laplace3D200 => nx * nx * nx,
            _ => nx * nx,
        }
    }

    /// Generate the matrix at an explicit grid size.
    pub fn generate_at(self, nx: usize) -> Csr<f64> {
        match self {
            PaperProblem::Laplace3D150 | PaperProblem::Laplace3D200 => galeri::laplace3d(nx),
            PaperProblem::UniFlow2D2500 => galeri::uniflow2d(nx, UNIFLOW_PECLET),
            PaperProblem::BentPipe2D1500 => galeri::bentpipe2d(nx, BENTPIPE_PECLET),
            PaperProblem::Stretched2D1500 => galeri::stretched2d(nx, STRETCH_FACTOR),
        }
    }

    /// All problems, in the order the paper introduces them.
    pub const ALL: [PaperProblem; 5] = [
        PaperProblem::Laplace3D200,
        PaperProblem::UniFlow2D2500,
        PaperProblem::BentPipe2D1500,
        PaperProblem::Laplace3D150,
        PaperProblem::Stretched2D1500,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions_match_table3() {
        assert_eq!(PaperProblem::BentPipe2D1500.paper_n(), 2_250_000);
        assert_eq!(PaperProblem::UniFlow2D2500.paper_n(), 6_250_000);
        assert_eq!(PaperProblem::Laplace3D150.paper_n(), 3_375_000);
        assert_eq!(PaperProblem::Stretched2D1500.paper_n(), 2_250_000);
    }

    #[test]
    fn default_problems_generate() {
        for p in PaperProblem::ALL {
            let nx = 10; // tiny smoke build
            let a = p.generate_at(nx);
            assert!(a.nrows() > 0, "{} failed to build", p.name());
            assert_eq!(a.nrows(), a.ncols());
        }
    }

    #[test]
    fn symmetry_classes_match_paper() {
        // Table III: BentPipe "n", UniFlow "n", Laplace3D "spd",
        // Stretched2D "spd".
        assert!(!PaperProblem::BentPipe2D1500
            .generate_at(12)
            .is_symmetric(1e-12));
        assert!(!PaperProblem::UniFlow2D2500
            .generate_at(12)
            .is_symmetric(1e-12));
        assert!(PaperProblem::Laplace3D150.generate_at(6).is_symmetric(0.0));
        assert!(PaperProblem::Stretched2D1500
            .generate_at(8)
            .is_symmetric(1e-12));
    }
}
