//! Test-matrix generators — the workspace's stand-in for Trilinos Galeri.
//!
//! The paper's PDE problems (§V) are finite-difference / finite-element
//! discretizations produced by Galeri:
//!
//! | Paper name        | Generator here                          |
//! |-------------------|------------------------------------------|
//! | `Laplace2D`       | [`galeri::laplace2d`]                    |
//! | `Laplace3D`       | [`galeri::laplace3d`]                    |
//! | `UniFlow2D`       | [`galeri::uniflow2d`]                    |
//! | `BentPipe2D`      | [`galeri::bentpipe2d`]                   |
//! | `Stretched2D`     | [`galeri::stretched2d`] (Q1 FEM, 9-point)|
//!
//! §V-G additionally uses ten SuiteSparse matrices. Offline we cannot
//! fetch the collection, so [`suitesparse`] provides *surrogates*: same
//! symmetry class and structural character, scaled sizes, tuned to land in
//! the same convergence regime (each surrogate documents why). Users with
//! the real `.mtx` files can load them via `mpgmres_la::mtx` instead.

pub mod fem;
pub mod galeri;
pub mod registry;
pub mod suitesparse;

use mpgmres_scalar::Scalar;

/// The right-hand side used throughout the paper: a vector of all ones.
pub fn rhs_ones<S: Scalar>(n: usize) -> Vec<S> {
    vec![S::one(); n]
}

/// The starting guess used throughout the paper: all zeros.
pub fn x0_zeros<S: Scalar>(n: usize) -> Vec<S> {
    vec![S::zero(); n]
}
