//! Simulated-GPU performance substrate.
//!
//! The paper evaluates GMRES variants on a Tesla V100. This environment
//! has no GPU, so the workspace runs the *numerics* natively (bit-true
//! IEEE f32/f64 arithmetic on the CPU) and prices each kernel call with a
//! V100 **performance model**: kernels on a V100 are memory-bandwidth and
//! launch/sync-latency bound, so
//!
//! ```text
//! time = launch_overhead + bytes_moved / effective_bandwidth (+ host sync)
//! ```
//!
//! with per-kernel-class effective bandwidths calibrated against the
//! paper's Table I (see [`device::DeviceModel::v100_belos`] and the
//! calibration tests). The SpMV x-vector traffic follows the paper's
//! §V-D empirical cache-reuse model ([`analytic`]); a mechanistic LRU
//! cache simulator ([`cache`]) is provided for the `vd_model` experiment
//! that explores *why* the reuse asymmetry arises.
//!
//! [`profiler::Profiler`] accumulates simulated time per kernel class and
//! reports the same five categories as the paper's figures:
//! `GEMV (Trans) / Norm / GEMV (No Trans) / SpMV / Other`.

pub mod analytic;
pub mod cache;
pub mod cost;
pub mod device;
pub mod kernel;
pub mod profiler;

pub use device::DeviceModel;
pub use kernel::{KernelClass, PaperCategory};
pub use profiler::{KernelStats, Profiler, TimingReport};
