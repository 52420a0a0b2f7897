//! Kernel classification: what gets timed and how it maps onto the
//! paper's reporting categories.

use serde::Serialize;

/// Every operation the solvers charge to the device model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum KernelClass {
    /// Sparse matrix-vector product (Alg. 1 line 5 and preconditioner
    /// applications).
    SpMV,
    /// `V^T w` projection (CGS2 inner products), Alg. 1 line 7.
    GemvT,
    /// `w -= V h` update, Alg. 1 line 8, and the solution update `x += V y`.
    GemvN,
    /// Vector 2-norm (with device-to-host result transfer).
    Norm,
    /// Inner product (with device-to-host result transfer).
    Dot,
    /// `y += alpha x` and relatives.
    Axpy,
    /// `x *= alpha`.
    Scal,
    /// Device-resident precision conversion (fp32 preconditioner applied
    /// inside an fp64 solve, §III-D case a).
    CastDevice,
    /// Host-mediated precision conversion over PCIe (the GMRES-IR
    /// refinement-stage residual conversions, §IV).
    CastHost,
    /// Host-side dense work: Givens updates, the small least-squares
    /// solve, polynomial-setup eigenproblem.
    HostDense,
    /// The fp64 residual recomputation inside GMRES-IR's refinement step.
    /// The paper accounts this under "Other" (Fig. 4 caption), separate
    /// from the solver's own SpMV bar, so it gets its own class.
    ResidualHi,
}

impl KernelClass {
    /// All classes (reporting order).
    pub const ALL: [KernelClass; 11] = [
        KernelClass::GemvT,
        KernelClass::Norm,
        KernelClass::GemvN,
        KernelClass::SpMV,
        KernelClass::Dot,
        KernelClass::Axpy,
        KernelClass::Scal,
        KernelClass::CastDevice,
        KernelClass::CastHost,
        KernelClass::HostDense,
        KernelClass::ResidualHi,
    ];

    /// Map onto the paper's five reporting categories.
    pub fn paper_category(self) -> PaperCategory {
        match self {
            KernelClass::GemvT => PaperCategory::GemvTrans,
            KernelClass::Norm => PaperCategory::Norm,
            KernelClass::GemvN => PaperCategory::GemvNoTrans,
            KernelClass::SpMV => PaperCategory::SpMV,
            _ => PaperCategory::Other,
        }
    }
}

impl core::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            KernelClass::SpMV => "SpMV",
            KernelClass::GemvT => "GEMV(T)",
            KernelClass::GemvN => "GEMV(N)",
            KernelClass::Norm => "Norm",
            KernelClass::Dot => "Dot",
            KernelClass::Axpy => "Axpy",
            KernelClass::Scal => "Scal",
            KernelClass::CastDevice => "Cast(dev)",
            KernelClass::CastHost => "Cast(host)",
            KernelClass::HostDense => "HostDense",
            KernelClass::ResidualHi => "Residual(hi)",
        };
        f.write_str(s)
    }
}

/// The five categories of the paper's Figures 4, 7, 8 and Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum PaperCategory {
    /// "GEMV (Trans)".
    GemvTrans,
    /// "Norm".
    Norm,
    /// "GEMV (No Trans)".
    GemvNoTrans,
    /// "SPMV".
    SpMV,
    /// "Other": small dense host ops, casts, IR residual recomputation.
    Other,
}

impl PaperCategory {
    /// All categories in the paper's legend order.
    pub const ALL: [PaperCategory; 5] = [
        PaperCategory::GemvTrans,
        PaperCategory::Norm,
        PaperCategory::GemvNoTrans,
        PaperCategory::SpMV,
        PaperCategory::Other,
    ];

    /// Paper's legend text.
    pub fn label(self) -> &'static str {
        match self {
            PaperCategory::GemvTrans => "GEMV (Trans)",
            PaperCategory::Norm => "Norm",
            PaperCategory::GemvNoTrans => "GEMV (No Trans)",
            PaperCategory::SpMV => "SPMV",
            PaperCategory::Other => "Other",
        }
    }
}

impl core::fmt::Display for PaperCategory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_mapping_matches_paper() {
        assert_eq!(KernelClass::SpMV.paper_category(), PaperCategory::SpMV);
        assert_eq!(
            KernelClass::GemvT.paper_category(),
            PaperCategory::GemvTrans
        );
        assert_eq!(
            KernelClass::GemvN.paper_category(),
            PaperCategory::GemvNoTrans
        );
        assert_eq!(KernelClass::Norm.paper_category(), PaperCategory::Norm);
        // Everything else is "Other", including the IR residual SpMV —
        // Fig. 4's caption: "the Other portion represents ... for
        // GMRES-IR, computing residuals in fp64".
        assert_eq!(
            KernelClass::ResidualHi.paper_category(),
            PaperCategory::Other
        );
        assert_eq!(KernelClass::CastHost.paper_category(), PaperCategory::Other);
        assert_eq!(KernelClass::Dot.paper_category(), PaperCategory::Other);
    }

    #[test]
    fn display_labels() {
        assert_eq!(PaperCategory::SpMV.label(), "SPMV");
        assert_eq!(format!("{}", KernelClass::GemvT), "GEMV(T)");
        assert_eq!(format!("{}", PaperCategory::GemvTrans), "GEMV (Trans)");
    }

    #[test]
    fn all_kernel_classes_covered() {
        assert_eq!(KernelClass::ALL.len(), 11);
        for k in KernelClass::ALL {
            let _ = k.paper_category();
        }
    }
}
