//! Sparse and dense linear algebra substrate.
//!
//! This crate is the workspace's stand-in for Kokkos Kernels (paper §IV):
//! every floating-point kernel GMRES needs, generic over the working
//! precision [`mpgmres_scalar::Scalar`], with a sequential
//! bit-deterministic reference path and std-thread parallel kernels
//! ([`par`]) plus GPU-style blocked-tree reductions.
//!
//! Modules:
//! - [`fma`] — the runtime FMA dispatch every `mul_add` kernel runs
//!   under: hardware FMA when the CPU has it, the same bits either way.
//! - `simd` (crate-private) — blocked-tree partials four reduction
//!   blocks to an AVX register (f64, run-time dispatch), the fast path
//!   under GEMV-T and the blocked dot; the same bits as the scalar body.
//! - [`vec_ops`] — axpy/dot/norm/scale over slices, with selectable
//!   [`vec_ops::ReductionOrder`] (the paper notes GPU reductions make runs
//!   slightly nondeterministic; we model that by offering both orders).
//! - [`par`] — std-thread parallel counterparts of every kernel, bit
//!   identical to the reference (see the module docs for the contract);
//!   the engine behind `mpgmres-backend`'s `ParallelBackend`.
//! - [`pool`] — the persistent pinned worker pool every [`par`] kernel
//!   runs on, so a kernel call pays a job dispatch, not a thread spawn.
//! - [`multivector`] — column-major tall-skinny matrix `V` of Krylov basis
//!   vectors plus the two GEMV kernels CGS2 needs.
//! - [`basis`] — [`basis::BasisStore`], the basis *storage* policy: native
//!   working-precision columns, or columns demoted to fp32/fp16 and
//!   promoted on read with all arithmetic in `S` (Aliaga et al.'s
//!   compressed-basis GMRES), mirroring [`store`] for matrix values.
//! - `colmajor` (crate-private) — the column views and raw-pointer
//!   helpers shared by [`multivector`], [`multivec`], and [`basis`].
//! - [`csr`] — compressed sparse row matrices and SpMV.
//! - [`coo`] — coordinate-format builder that deduplicates and sorts.
//! - [`dense`] — small column-major dense matrices, LU with partial
//!   pivoting, triangular solves (block Jacobi's factor/apply).
//! - [`givens`] — Givens-rotation least-squares machinery for the Arnoldi
//!   Hessenberg matrix (the solver's implicit residual).
//! - [`eig`] — Francis double-shift QR eigenvalues of real upper Hessenberg
//!   matrices (harmonic Ritz values for the polynomial preconditioner).
//! - [`rcm`] — reverse Cuthill-McKee reordering (paper §V-G).
//! - [`mtx`] — MatrixMarket coordinate IO.
//! - [`stats`] — structural matrix statistics (bandwidth, nnz/row).

pub mod basis;
pub(crate) mod colmajor;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod eig;
pub mod fma;
pub mod givens;
pub mod mtx;
pub mod multivec;
pub mod multivector;
pub mod par;
pub mod pool;
pub mod rcm;
pub(crate) mod simd;
pub mod split_csr;
pub mod stats;
pub mod store;
pub mod vec_ops;

pub use basis::BasisStore;
pub use coo::Coo;
pub use csr::Csr;
pub use dense::DenseMat;
pub use givens::GivensLsq;
pub use multivec::MultiVec;
pub use multivector::MultiVector;
pub use split_csr::SplitCsr;
pub use store::MatrixStore;
pub use vec_ops::ReductionOrder;
