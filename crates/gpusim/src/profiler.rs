//! Per-kernel-class simulated-time accounting.
//!
//! Mirrors the instrumentation behind the paper's Figures 4, 7, 8 and
//! Table I: every kernel call adds (simulated seconds, bytes, one call)
//! under its [`KernelClass`]; reports roll the classes up into the
//! paper's five categories.
//!
//! The profiler keeps **two timelines**:
//!
//! - the *serial* total ([`Profiler::total_seconds`]): the sum of every
//!   charge, i.e. the device time if every kernel waited for everything
//!   before it — the paper's accounting, unchanged.
//! - the *critical path* ([`Profiler::critical_seconds`]): the makespan
//!   of an overlap-aware timeline. Eagerly charged kernels start at the
//!   current makespan (serializing, so eager-only runs have critical ==
//!   serial bit-for-bit); kernels recorded through a stream are charged
//!   with [`Profiler::charge_ready`] at the finish time of their DAG
//!   dependencies, so independent recorded ops overlap and the critical
//!   path can only shrink relative to the serial sum (it is equal
//!   exactly when the recorded DAG is a chain).

use std::collections::BTreeMap;

use serde::Serialize;

use crate::kernel::{KernelClass, PaperCategory};

/// Accumulated statistics for one kernel class.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct KernelStats {
    /// Number of calls.
    pub calls: u64,
    /// Simulated seconds.
    pub seconds: f64,
    /// Modeled bytes moved.
    pub bytes: u64,
    /// Seconds of this class's work whose finish time never advanced
    /// the makespan — latency fully *hidden* under other in-flight work
    /// on the overlap timeline. Always 0 for eagerly charged kernels
    /// (they start at the makespan); a recorded op that finishes inside
    /// other in-flight work shows up here.
    pub hidden: f64,
}

/// Accumulates simulated kernel time for one solver run.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    by_class: Vec<(KernelClass, KernelStats)>,
    total: f64,
    critical: f64,
}

impl Profiler {
    /// Fresh, empty profiler.
    pub fn new() -> Self {
        Profiler {
            by_class: Vec::new(),
            total: 0.0,
            critical: 0.0,
        }
    }

    /// Charge one kernel call executed eagerly: it starts at the current
    /// makespan (after everything charged so far), so eager charges keep
    /// the critical path equal to the serial total.
    pub fn charge(&mut self, class: KernelClass, seconds: f64, bytes: usize) {
        let ready = self.critical;
        self.charge_ready(class, seconds, bytes, ready);
    }

    /// Charge one kernel call on the overlap-aware timeline: it starts
    /// at `ready` (the caller-computed finish time of its dependencies —
    /// a recorded stream uses the max finish over the op's DAG
    /// predecessors, or the stream's base time for dependency-free ops)
    /// and returns its finish time. The serial total accrues the full
    /// `seconds` regardless; the makespan only advances if this op
    /// finishes after everything else.
    pub fn charge_ready(
        &mut self,
        class: KernelClass,
        seconds: f64,
        bytes: usize,
        ready: f64,
    ) -> f64 {
        debug_assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "bad charge {seconds}"
        );
        // Checked in release too: a stale ready time would silently push
        // the critical path past the serial total, and `critical <=
        // serial` is the load-bearing invariant of the overlap report.
        assert!(
            ready >= 0.0 && ready.is_finite() && ready <= self.total,
            "bad ready time {ready} (serial total {})",
            self.total
        );
        // Hidden latency: the op finishes at or before the makespan
        // already established by other work, so it costs nothing on the
        // overlap timeline. Eager charges start AT the makespan and can
        // never qualify.
        let finish = ready + seconds;
        let hidden = if finish <= self.critical {
            seconds
        } else {
            0.0
        };
        if let Some((_, s)) = self.by_class.iter_mut().find(|(c, _)| *c == class) {
            s.calls += 1;
            s.seconds += seconds;
            s.bytes += bytes as u64;
            s.hidden += hidden;
        } else {
            self.by_class.push((
                class,
                KernelStats {
                    calls: 1,
                    seconds,
                    bytes: bytes as u64,
                    hidden,
                },
            ));
        }
        self.total += seconds;
        if finish > self.critical {
            self.critical = finish;
        }
        finish
    }

    /// Total simulated seconds across all classes.
    pub fn total_seconds(&self) -> f64 {
        self.total
    }

    /// Makespan of the overlap-aware timeline. Always `<=`
    /// [`Profiler::total_seconds`]; equal when no recorded ops ever
    /// overlapped (pure chains, or eager-only execution).
    pub fn critical_seconds(&self) -> f64 {
        self.critical
    }

    /// Stats for one class (zero if never charged).
    pub fn class_stats(&self, class: KernelClass) -> KernelStats {
        self.by_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Merge another profiler into this one (e.g. inner-solver time into
    /// the outer GMRES-IR accounting). The other profiler's timeline is
    /// composed *sequentially after* this one's (an inner solve runs
    /// after the work charged so far), so critical paths add.
    pub fn absorb(&mut self, other: &Profiler) {
        for (class, s) in &other.by_class {
            if let Some((_, mine)) = self.by_class.iter_mut().find(|(c, _)| c == class) {
                mine.calls += s.calls;
                mine.seconds += s.seconds;
                mine.bytes += s.bytes;
                mine.hidden += s.hidden;
            } else {
                self.by_class.push((*class, *s));
            }
        }
        self.total += other.total;
        self.critical += other.critical;
    }

    /// Roll up into the paper's five categories.
    pub fn report(&self) -> TimingReport {
        let mut cats: BTreeMap<PaperCategory, KernelStats> = BTreeMap::new();
        for (class, s) in &self.by_class {
            let e = cats.entry(class.paper_category()).or_default();
            e.calls += s.calls;
            e.seconds += s.seconds;
            e.bytes += s.bytes;
            e.hidden += s.hidden;
        }
        TimingReport {
            categories: cats,
            total_seconds: self.total,
            critical_path_seconds: self.critical,
        }
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        self.by_class.clear();
        self.total = 0.0;
        self.critical = 0.0;
    }
}

/// Rolled-up timing in the paper's reporting categories.
#[derive(Clone, Debug, Serialize)]
pub struct TimingReport {
    /// Seconds/calls/bytes per paper category.
    pub categories: BTreeMap<PaperCategory, KernelStats>,
    /// Total simulated solve seconds (serial sum of every charge).
    pub total_seconds: f64,
    /// Makespan of the overlap-aware timeline: what the solve costs when
    /// independent recorded kernels overlap. Always `<= total_seconds`;
    /// equal when the recorded DAG is a chain (or everything ran eager).
    pub critical_path_seconds: f64,
}

impl TimingReport {
    /// Seconds in one category (0 if absent).
    pub fn seconds(&self, cat: PaperCategory) -> f64 {
        self.categories.get(&cat).map(|s| s.seconds).unwrap_or(0.0)
    }

    /// Overlap ratio `critical_path / serial` in `(0, 1]`: 1.0 means no
    /// overlap was available, lower means independent kernels hid more
    /// of each other's time. 1.0 for an empty report.
    pub fn overlap_ratio(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.critical_path_seconds / self.total_seconds
        } else {
            1.0
        }
    }

    /// Seconds of one category's work that were fully hidden under
    /// other in-flight work on the overlap timeline (0 if absent): how
    /// the report *shows* hidden latency rather than just a smaller
    /// total.
    pub fn hidden_seconds(&self, cat: PaperCategory) -> f64 {
        self.categories.get(&cat).map(|s| s.hidden).unwrap_or(0.0)
    }

    /// The paper's "Total Orthogonalization" line: GEMV(T) + Norm + GEMV(N).
    pub fn orthogonalization_seconds(&self) -> f64 {
        self.seconds(PaperCategory::GemvTrans)
            + self.seconds(PaperCategory::Norm)
            + self.seconds(PaperCategory::GemvNoTrans)
    }

    /// Render a Table-I-style block: one row per category plus
    /// orthogonalization and total.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for cat in PaperCategory::ALL {
            let s = self.categories.get(&cat).copied().unwrap_or_default();
            out.push_str(&format!(
                "{:<16} {:>10.4} s {:>10} calls\n",
                cat.label(),
                s.seconds,
                s.calls
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>10.4} s\n",
            "Orthog Total",
            self.orthogonalization_seconds()
        ));
        out.push_str(&format!("{:<16} {:>10.4} s\n", "Total", self.total_seconds));
        out.push_str(&format!(
            "{:<16} {:>10.4} s ({:>5.1}% of serial)\n",
            "Critical path",
            self.critical_path_seconds,
            self.overlap_ratio() * 100.0
        ));
        let hidden: f64 = self.categories.values().map(|s| s.hidden).sum();
        if hidden > 0.0 {
            out.push_str(&format!(
                "{:<16} {:>10.4} s (latency fully overlapped)\n",
                "Hidden", hidden
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut p = Profiler::new();
        p.charge(KernelClass::SpMV, 1.0e-3, 1000);
        p.charge(KernelClass::SpMV, 2.0e-3, 2000);
        p.charge(KernelClass::Norm, 0.5e-3, 10);
        let s = p.class_stats(KernelClass::SpMV);
        assert_eq!(s.calls, 2);
        assert!((s.seconds - 3.0e-3).abs() < 1e-15);
        assert_eq!(s.bytes, 3000);
        assert!((p.total_seconds() - 3.5e-3).abs() < 1e-15);
    }

    #[test]
    fn report_rolls_up_to_paper_categories() {
        let mut p = Profiler::new();
        p.charge(KernelClass::GemvT, 1.0, 0);
        p.charge(KernelClass::GemvN, 2.0, 0);
        p.charge(KernelClass::Norm, 0.25, 0);
        p.charge(KernelClass::SpMV, 4.0, 0);
        p.charge(KernelClass::Axpy, 0.125, 0);
        p.charge(KernelClass::ResidualHi, 0.5, 0);
        p.charge(KernelClass::CastHost, 0.125, 0);
        let r = p.report();
        assert_eq!(r.seconds(PaperCategory::GemvTrans), 1.0);
        assert_eq!(r.seconds(PaperCategory::SpMV), 4.0);
        // Other = axpy + residual + cast.
        assert!((r.seconds(PaperCategory::Other) - 0.75).abs() < 1e-15);
        assert!((r.orthogonalization_seconds() - 3.25).abs() < 1e-15);
        assert!((r.total_seconds - 8.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Profiler::new();
        a.charge(KernelClass::SpMV, 1.0, 10);
        let mut b = Profiler::new();
        b.charge(KernelClass::SpMV, 2.0, 20);
        b.charge(KernelClass::Dot, 0.5, 5);
        a.absorb(&b);
        assert_eq!(a.class_stats(KernelClass::SpMV).calls, 2);
        assert_eq!(a.class_stats(KernelClass::Dot).calls, 1);
        assert!((a.total_seconds() - 3.5).abs() < 1e-15);
    }

    #[test]
    fn reset_clears() {
        let mut p = Profiler::new();
        p.charge(KernelClass::Norm, 1.0, 1);
        p.reset();
        assert_eq!(p.total_seconds(), 0.0);
        assert_eq!(p.class_stats(KernelClass::Norm).calls, 0);
    }

    #[test]
    fn eager_charges_keep_critical_equal_to_serial() {
        let mut p = Profiler::new();
        for i in 0..100 {
            p.charge(KernelClass::SpMV, 1.0e-4 * (1.0 + (i % 7) as f64), 100);
        }
        assert_eq!(
            p.critical_seconds().to_bits(),
            p.total_seconds().to_bits(),
            "eager-only timelines must agree bit-for-bit"
        );
    }

    #[test]
    fn hidden_latency_is_attributed_per_class() {
        let mut p = Profiler::new();
        // A long device op, then a short host op fully inside its
        // shadow, then one that pokes past the makespan.
        p.charge_ready(KernelClass::SpMV, 5.0e-3, 0, 0.0);
        p.charge_ready(KernelClass::HostDense, 2.0e-3, 0, 0.0); // hidden
        p.charge_ready(KernelClass::HostDense, 4.0e-3, 0, 2.0e-3); // pokes out
        let host = p.class_stats(KernelClass::HostDense);
        assert!((host.hidden - 2.0e-3).abs() < 1e-15, "{}", host.hidden);
        assert_eq!(p.class_stats(KernelClass::SpMV).hidden, 0.0);
        let rep = p.report();
        assert!((rep.hidden_seconds(crate::PaperCategory::Other) - 2.0e-3).abs() < 1e-15);
        assert!(rep.table().contains("Hidden"));
        // Eager charges never hide.
        let mut e = Profiler::new();
        e.charge(KernelClass::HostDense, 1.0e-3, 0);
        e.charge(KernelClass::HostDense, 1.0e-3, 0);
        assert_eq!(e.class_stats(KernelClass::HostDense).hidden, 0.0);
        assert!(!e.report().table().contains("Hidden"));
    }

    #[test]
    fn ready_charges_overlap_independent_ops() {
        let mut p = Profiler::new();
        // Two independent ops recorded at base 0, then a join op.
        let f1 = p.charge_ready(KernelClass::SpMV, 3.0e-3, 0, 0.0);
        let f2 = p.charge_ready(KernelClass::GemvT, 2.0e-3, 0, 0.0);
        let join = p.charge_ready(KernelClass::Norm, 1.0e-3, 0, f1.max(f2));
        assert!((f1 - 3.0e-3).abs() < 1e-15);
        assert!((f2 - 2.0e-3).abs() < 1e-15);
        assert!((join - 4.0e-3).abs() < 1e-15);
        assert!((p.critical_seconds() - 4.0e-3).abs() < 1e-15);
        assert!((p.total_seconds() - 6.0e-3).abs() < 1e-15);
        assert!(p.critical_seconds() < p.total_seconds());
        let r = p.report();
        assert_eq!(r.critical_path_seconds, p.critical_seconds());
        assert!(r.overlap_ratio() < 1.0 && r.overlap_ratio() > 0.0);
    }

    #[test]
    fn ready_chain_matches_eager_bitwise() {
        // A recorded chain (each op ready at the previous finish) must
        // reproduce the eager timeline bit-for-bit.
        let times = [1.0e-3, 2.5e-4, 7.75e-4, 3.2e-5];
        let mut eager = Profiler::new();
        for &t in &times {
            eager.charge(KernelClass::Axpy, t, 8);
        }
        let mut chain = Profiler::new();
        let mut ready = 0.0;
        for &t in &times {
            ready = chain.charge_ready(KernelClass::Axpy, t, 8, ready);
        }
        assert_eq!(
            chain.critical_seconds().to_bits(),
            eager.critical_seconds().to_bits()
        );
        assert_eq!(
            chain.critical_seconds().to_bits(),
            chain.total_seconds().to_bits()
        );
    }

    #[test]
    fn absorb_composes_timelines_sequentially() {
        let mut a = Profiler::new();
        a.charge_ready(KernelClass::SpMV, 2.0, 0, 0.0);
        a.charge_ready(KernelClass::SpMV, 2.0, 0, 0.0); // overlapped
        let mut b = Profiler::new();
        b.charge(KernelClass::Dot, 1.0, 0);
        a.absorb(&b);
        assert!((a.total_seconds() - 5.0).abs() < 1e-15);
        assert!((a.critical_seconds() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn reset_clears_critical_path() {
        let mut p = Profiler::new();
        p.charge(KernelClass::Norm, 1.0, 1);
        p.reset();
        assert_eq!(p.critical_seconds(), 0.0);
    }

    #[test]
    fn table_renders_all_categories() {
        let mut p = Profiler::new();
        p.charge(KernelClass::SpMV, 1.0, 0);
        let t = p.report().table();
        for cat in PaperCategory::ALL {
            assert!(t.contains(cat.label()), "missing {}", cat.label());
        }
        assert!(t.contains("Total"));
    }
}
