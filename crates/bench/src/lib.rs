//! Experiment harness: regenerates every figure and table of the paper.
//!
//! Each module under [`experiments`] owns one paper artifact (see the
//! experiment index there). The `experiments` binary dispatches
//! by id (`fig1`, `fig3`, `table2`, ...) and writes JSON + CSV + a
//! rendered text table under `results/`.
//!
//! Scaling: experiments default to reduced problem sizes that finish on a
//! CPU in seconds-to-minutes; the device model's fixed latencies shrink
//! by the same `n_sim / n_paper` factor so every simulated time *ratio*
//! matches the paper-scale experiment (README, *Reproducing the paper*).
//! `--paper-scale` runs true sizes on the unscaled device.

pub mod experiments;
pub mod harness;
pub mod output;

pub use harness::{RunRecord, Scale, SolverKind};
