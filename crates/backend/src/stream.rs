//! Recorded kernel streams: the payload-free dependency graph that
//! prices a recorded region's overlap.
//!
//! Real GPU GMRES implementations issue their kernels in order on a
//! device stream and let the driver overlap independent work. This
//! module is the workspace's model of that overlap. [`OpGraph`] holds
//! one [`OpShape`] per recorded kernel (a label plus the buffer-handle
//! byte [`Span`]s it reads and writes) and the simulated time the op
//! finishes. A newly recorded op is ready at the latest finish time of
//! the earlier ops it conflicts with ([`OpGraph::ready`]), which is
//! where `mpgmres::Stream` charges it. Nothing in the graph points at
//! memory, and nothing in it runs: every op runs at its record call, in
//! record order, on the context's [`Backend`](crate::Backend).
//!
//! # Determinism
//!
//! Record order is the order the solver issued its kernels, so a
//! recorded region computes exactly what eager execution computes. The
//! graph only changes the simulated timeline: two ops whose spans do not
//! conflict may overlap there, while on the host they still run one
//! after another.
//!
//! # Safety model
//!
//! Recorded ops hold **no pointers**, only handles and spans. The
//! pointers live in the arena (`mpgmres_la::raw::BufferArena`), derived
//! once per buffer at registration time from borrows the recorder keeps
//! alive until sync. There is no per-op raw view for a later safe
//! reborrow to invalidate, which is what keeps the pipeline clean under
//! Miri. See `mpgmres_la::raw` for the arena contract and
//! `mpgmres::Stream` for the safe recording surface.

use std::marker::PhantomData;

/// A half-open byte range within one registered buffer, used as the
/// dependency token for one operand of a recorded kernel. Spans of
/// different buffers never conflict (the safe registration surface
/// guarantees distinct mutable registrations are disjoint), so overlap
/// is handle equality plus byte-range intersection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Arena handle of the buffer.
    pub buf: u32,
    /// First byte (inclusive) within the buffer.
    pub lo: u32,
    /// Last byte (exclusive) within the buffer.
    pub hi: u32,
}

impl Span {
    /// A byte range within buffer `buf`.
    pub fn new(buf: u32, lo: u32, hi: u32) -> Span {
        assert!(lo <= hi, "span: lo must not exceed hi");
        Span { buf, lo, hi }
    }

    /// The span of `len` elements of size `size` at element offset
    /// `off` within buffer `buf`.
    pub fn elems(buf: u32, off: u32, len: u32, size: usize) -> Span {
        let lo = off as u64 * size as u64;
        let hi = (off as u64 + len as u64) * size as u64;
        Span {
            buf,
            lo: u32::try_from(lo).expect("span: byte offset overflow"),
            hi: u32::try_from(hi).expect("span: byte offset overflow"),
        }
    }

    /// The span covering all of buffer `buf` (whole-object operands).
    pub fn whole(buf: u32) -> Span {
        Span {
            buf,
            lo: 0,
            hi: u32::MAX,
        }
    }

    /// Whether two spans share at least one byte.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.buf == other.buf && self.lo < other.hi && other.lo < self.hi
    }
}

/// The shape of one recorded op: a label for diagnostics plus the
/// buffer spans it reads and writes. The spans are the *entire*
/// dependency interface: the graph never looks inside the op. Deferred
/// host steps (the pipelined drivers' Givens and least-squares
/// bookkeeping) are ops like any other, with spans and no launch.
#[derive(Clone, Debug)]
pub struct OpShape {
    /// Kernel name for diagnostics (`"spmv"`, `"gemv_t"`, ...).
    pub label: &'static str,
    /// Buffer spans the op reads.
    pub reads: Vec<Span>,
    /// Buffer spans the op writes (read-modify-write spans belong here).
    pub writes: Vec<Span>,
}

/// Whether `later` must wait for `earlier`: true on any RAW
/// (earlier-write feeding later-read), WAW (write-write), or WAR
/// (later-write clobbering an earlier read) span overlap.
pub fn conflicts(earlier: &OpShape, later: &OpShape) -> bool {
    conflicts_with(earlier, &later.reads, &later.writes)
}

fn conflicts_with(earlier: &OpShape, reads: &[Span], writes: &[Span]) -> bool {
    let hits = |xs: &[Span], ys: &[Span]| xs.iter().any(|x| ys.iter().any(|y| x.overlaps(y)));
    hits(&earlier.writes, reads) || hits(&earlier.writes, writes) || hits(&earlier.reads, writes)
}

/// The payload-free dependency DAG of one recorded region: every op's
/// shape and simulated finish time, in record order. An op's edges are
/// implicit: it waits for exactly the earlier ops it [`conflicts`] with.
#[derive(Debug, Default)]
pub struct OpGraph {
    nodes: Vec<OpShape>,
    finish: Vec<f64>,
}

impl OpGraph {
    /// Empty graph.
    pub fn new() -> Self {
        OpGraph::default()
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Remove every op, keeping the allocations for the next region.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.finish.clear();
    }

    /// The time an op over `reads`/`writes` becomes ready: the latest
    /// finish time among the recorded ops it conflicts with, and never
    /// earlier than `floor`.
    pub fn ready(&self, floor: f64, reads: &[Span], writes: &[Span]) -> f64 {
        let mut ready = floor;
        for (node, &fin) in self.nodes.iter().zip(&self.finish) {
            if fin > ready && conflicts_with(node, reads, writes) {
                ready = fin;
            }
        }
        ready
    }

    /// Record an op that finishes at simulated time `finish`.
    pub fn push(&mut self, label: &'static str, reads: &[Span], writes: &[Span], finish: f64) {
        self.nodes.push(OpShape {
            label,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        });
        self.finish.push(finish);
    }
}

/// Kept only for the standalone `perfbench/` benchmark, whose tracing
/// backend forwards [`Backend::execute_batch`](crate::Backend::execute_batch).
/// Nothing builds a batch: every recorded op runs at its record call.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a> {
    _ops: PhantomData<&'a ()>,
}

impl Batch<'_> {
    /// Kept only for the standalone `perfbench/` benchmark; always 0.
    pub fn len(&self) -> usize {
        0
    }

    /// Kept only for the standalone `perfbench/` benchmark; always true.
    pub fn is_empty(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(buf: usize, lo: u32, hi: u32) -> Span {
        Span::new(buf as u32, lo, hi)
    }

    #[test]
    fn span_overlap_is_half_open_and_per_buffer() {
        let a = span(0, 0, 8);
        let b = span(0, 8, 16);
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
        let c = span(0, 7, 9);
        assert!(a.overlaps(&c) && c.overlaps(&b));
        // Same bytes, different buffers: never a conflict.
        let other = span(1, 0, 8);
        assert!(!a.overlaps(&other));
        assert!(Span::whole(0).overlaps(&a));
        assert!(!Span::whole(1).overlaps(&a));
        assert_eq!(Span::elems(2, 3, 4, 8), span(2, 24, 56));
    }

    #[test]
    fn raw_and_war_and_waw_all_order() {
        let mk = |reads: &[Span], writes: &[Span]| OpShape {
            label: "t",
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        };
        let w = mk(&[], &[span(0, 0, 8)]);
        let raw = mk(&[span(0, 0, 8)], &[]);
        let war = mk(&[], &[span(0, 4, 12)]);
        let unrelated = mk(&[span(1, 0, 8)], &[span(2, 0, 8)]);
        assert!(conflicts(&w, &raw), "read-after-write");
        assert!(conflicts(&raw, &war), "write-after-read");
        assert!(conflicts(&w, &war), "write-after-write");
        assert!(!conflicts(&w, &unrelated));
        let r2 = mk(&[span(0, 0, 8)], &[]);
        assert!(!conflicts(&raw, &r2), "two pure readers never conflict");
    }

    #[test]
    fn chain_ops_wait_for_their_predecessor() {
        let mut g = OpGraph::new();
        assert_eq!(g.ready(0.5, &[], &[span(0, 0, 8)]), 0.5);
        g.push("a", &[], &[span(0, 0, 8)], 1.0);
        assert_eq!(g.ready(0.5, &[span(0, 0, 8)], &[span(1, 0, 8)]), 1.0);
        g.push("b", &[span(0, 0, 8)], &[span(1, 0, 8)], 2.0);
        assert_eq!(g.ready(0.5, &[span(1, 0, 8)], &[span(2, 0, 8)]), 2.0);
        // The floor wins over an earlier finish.
        assert_eq!(g.ready(3.0, &[span(1, 0, 8)], &[span(2, 0, 8)]), 3.0);
    }

    #[test]
    fn independent_ops_share_a_ready_time() {
        let mut g = OpGraph::new();
        g.push("a", &[span(3, 0, 8)], &[span(0, 0, 8)], 1.0);
        // Shares only a read with `a`: ready at the floor.
        assert_eq!(g.ready(0.0, &[span(3, 0, 8)], &[span(1, 0, 8)]), 0.0);
        g.push("b", &[span(3, 0, 8)], &[span(1, 0, 8)], 2.0);
        let join = g.ready(0.0, &[span(0, 0, 8), span(1, 0, 8)], &[span(2, 0, 8)]);
        assert_eq!(join, 2.0);
        // A cleared graph starts the next region from scratch.
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.ready(0.0, &[span(1, 0, 8)], &[span(2, 0, 8)]), 0.0);
    }
}
