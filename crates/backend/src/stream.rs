//! Recorded kernel streams: the payload-free dependency graph, the
//! per-submit payload bindings, and deferred batch submission.
//!
//! Real GPU GMRES implementations hide launch latency by recording
//! kernels into streams and letting the driver overlap independent
//! work. This module is the workspace's equivalent, split into the
//! graph and its payloads:
//!
//! - [`OpGraph`] is the **payload-free graph**: one [`OpShape`] per
//!   recorded kernel (a label plus the buffer-handle byte [`Span`]s it
//!   reads and writes), the dependency edges derived from span overlap
//!   at push time, and — after [`OpGraph::finalize`] — the topological
//!   wavefront batches. Nothing in the graph points at memory.
//! - [`BoundOp`] is the **per-submit payload binding**: a monomorphized
//!   kernel-launch function pointer plus a plain-data [`OpArgs`]
//!   describing the op's operands as handles into a
//!   [`BufferArena`]. Bindings are plain `Copy` data — no boxed
//!   closures.
//! - [`submit`] walks the finalized wavefronts in order, handing each
//!   batch of mutually independent ready ops to
//!   [`Backend::execute_batch`] as a [`Batch`] view.
//!
//! # Determinism
//!
//! Two ops land in the same batch only if their spans do not conflict —
//! they touch disjoint memory (or only share reads) — so *any* execution
//! order or interleaving of a batch produces bit-identical memory
//! contents. Dependent ops are always in distinct batches, and batches
//! execute strictly in sequence. Recorded execution is therefore
//! bit-identical to eager in-order execution by construction; the DAG
//! only ever *relaxes* ordering between operations that cannot observe
//! each other.
//!
//! # Safety model
//!
//! Recorded ops hold **no pointers** — only handles and spans. The
//! pointers live in the arena, derived once per buffer at registration
//! time from borrows the recorder keeps alive until sync, which is what
//! makes the whole pipeline pass Miri: there is no per-op raw view for
//! a later safe reborrow to invalidate. See `mpgmres_la::raw` for the
//! arena contract and `mpgmres::Stream` for the safe recording surface.

use mpgmres_la::raw::BufferArena;
use mpgmres_la::vec_ops::ReductionOrder;

use crate::Backend;

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

/// Where a recorded op executes. Device ops are kernel launches handed
/// to [`Backend::execute_batch`]; host ops model CPU-side work (the
/// pipelined drivers' deferred Givens/least-squares decisions) that the
/// scheduler runs on the submitting thread. A host op participates in
/// the dependency DAG exactly like a device op — its read spans are the
/// (possibly lagged) device results it consumed and its write spans the
/// host state it advances — which is what lets the graph *prove* that a
/// one-iteration-lagged host step conflicts with nothing the current
/// iteration's device kernels touch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpKind {
    /// A device kernel launch.
    #[default]
    Device,
    /// A deferred host step (runs on the submitting thread).
    Host,
}

/// The shape of one recorded kernel: a label for diagnostics, the op's
/// [`OpKind`], plus the buffer spans it reads and writes. The spans are
/// the *entire* dependency interface — the DAG builder never looks
/// inside the op.
#[derive(Clone, Debug)]
pub struct OpShape {
    /// Kernel name for diagnostics (`"spmv"`, `"gemv_t"`, ...).
    pub label: &'static str,
    /// Device kernel or deferred host step.
    pub kind: OpKind,
    /// Buffer spans the op reads.
    pub reads: Vec<Span>,
    /// Buffer spans the op writes (read-modify-write spans belong here).
    pub writes: Vec<Span>,
}

/// Whether `later` must wait for `earlier`: true on any RAW
/// (earlier-write feeding later-read), WAW (write-write), or WAR
/// (later-write clobbering an earlier read) span overlap.
pub fn conflicts(earlier: &OpShape, later: &OpShape) -> bool {
    let hits = |xs: &[Span], ys: &[Span]| xs.iter().any(|x| ys.iter().any(|y| x.overlaps(y)));
    hits(&earlier.writes, &later.reads)
        || hits(&earlier.writes, &later.writes)
        || hits(&earlier.reads, &later.writes)
}

/// The payload-free dependency DAG over a recorded op sequence. Edges
/// point from each op to the earlier ops it must wait for, derived
/// purely from span conflicts at [`OpGraph::push`] time; after
/// [`OpGraph::finalize`] the graph also carries its wavefront batches,
/// ready to submit against the region's payload bindings.
#[derive(Debug, Default)]
pub struct OpGraph {
    nodes: Vec<OpShape>,
    preds: Vec<Vec<usize>>,
    /// Record-order op ids sorted by (wavefront level, host-before-
    /// device, record order); filled by `finalize`.
    order: Vec<u32>,
    /// `(start, host_end, end)` ranges into `order`, one per wavefront
    /// batch: `[start, host_end)` are the batch's host ops,
    /// `[host_end, end)` its device ops.
    bounds: Vec<(u32, u32, u32)>,
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
        self.preds.clear();
        self.order.clear();
        self.bounds.clear();
    }

    /// Record a device op shape, deriving its dependencies on every
    /// earlier conflicting op. Returns the op's index. Invalidates a
    /// previous [`OpGraph::finalize`].
    pub fn push(&mut self, label: &'static str, reads: &[Span], writes: &[Span]) -> usize {
        self.push_kind(label, OpKind::Device, reads, writes)
    }

    /// Record an op shape of an explicit [`OpKind`] (host ops are the
    /// pipelined drivers' deferred decisions). Same dependency
    /// derivation as [`OpGraph::push`].
    pub fn push_kind(
        &mut self,
        label: &'static str,
        kind: OpKind,
        reads: &[Span],
        writes: &[Span],
    ) -> usize {
        let node = OpShape {
            label,
            kind,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        };
        let deps: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| conflicts(&self.nodes[i], &node))
            .collect();
        self.nodes.push(node);
        self.preds.push(deps);
        self.order.clear();
        self.bounds.clear();
        self.nodes.len() - 1
    }

    /// Indices of the ops `index` must wait for.
    pub fn preds(&self, index: usize) -> &[usize] {
        &self.preds[index]
    }

    /// Compute the wavefront schedule (idempotent). Batch `b` holds
    /// every op whose predecessors all sit in batches `< b`, host ops
    /// first, then device ops, each sub-group in record order. Ops
    /// inside one batch are mutually conflict-free (any two conflicting
    /// ops have an edge, which forces distinct batches), so a backend
    /// may execute a batch in any order or concurrently — and the host
    /// sub-group may run on the submitting thread alongside the device
    /// sub-group without observing it.
    pub fn finalize(&mut self) {
        if !self.order.is_empty() || self.nodes.is_empty() {
            return;
        }
        let n = self.nodes.len();
        let mut level = vec![0usize; n];
        let mut height = 0usize;
        for i in 0..n {
            let l = self.preds[i]
                .iter()
                .map(|&p| level[p] + 1)
                .max()
                .unwrap_or(0);
            level[i] = l;
            height = height.max(l + 1);
        }
        let mut host_counts = vec![0u32; height];
        let mut dev_counts = vec![0u32; height];
        for (i, &l) in level.iter().enumerate() {
            if self.nodes[i].kind == OpKind::Host {
                host_counts[l] += 1;
            } else {
                dev_counts[l] += 1;
            }
        }
        let mut start = 0u32;
        self.bounds.reserve(height);
        for l in 0..height {
            let host_end = start + host_counts[l];
            let end = host_end + dev_counts[l];
            self.bounds.push((start, host_end, end));
            start = end;
        }
        self.order.resize(n, 0);
        let mut next_host: Vec<u32> = self.bounds.iter().map(|&(s, _, _)| s).collect();
        let mut next_dev: Vec<u32> = self.bounds.iter().map(|&(_, h, _)| h).collect();
        for (i, &l) in level.iter().enumerate() {
            let slot = if self.nodes[i].kind == OpKind::Host {
                let s = next_host[l];
                next_host[l] += 1;
                s
            } else {
                let s = next_dev[l];
                next_dev[l] += 1;
                s
            };
            self.order[slot as usize] = i as u32;
        }
    }

    /// Number of wavefront batches (requires [`OpGraph::finalize`]).
    pub fn num_batches(&self) -> usize {
        debug_assert!(
            self.nodes.is_empty() || !self.bounds.is_empty(),
            "not finalized"
        );
        self.bounds.len()
    }

    /// The record-order op ids of batch `b` (requires finalize).
    pub fn batch(&self, b: usize) -> &[u32] {
        let (s, _, e) = self.bounds[b];
        &self.order[s as usize..e as usize]
    }

    /// Batch `b` split into its `(host, device)` op-id sub-groups
    /// (requires finalize). The host ops run on the submitting thread;
    /// the device ops go to [`Backend::execute_batch`].
    pub fn batch_split(&self, b: usize) -> (&[u32], &[u32]) {
        let (s, h, e) = self.bounds[b];
        (
            &self.order[s as usize..h as usize],
            &self.order[h as usize..e as usize],
        )
    }

    /// All wavefront batches as owned vectors (test/diagnostic helper;
    /// finalizes a clone-free view by computing on demand is not
    /// possible here, so call [`OpGraph::finalize`] first).
    pub fn batches(&mut self) -> Vec<Vec<usize>> {
        self.finalize();
        (0..self.num_batches())
            .map(|b| self.batch(b).iter().map(|&i| i as usize).collect())
            .collect()
    }
}

/// A monomorphized kernel launch: resolves its operands from the arena
/// via the plain-data args and calls one backend kernel.
pub type ExecFn = fn(&dyn Backend, &BufferArena, &OpArgs);

/// Plain-data operand description of one bound op: up to four
/// handle/offset/length operand slots, two integer shape parameters, a
/// handle-list range (the batched kernels' per-column basis lists), a
/// scalar coefficient (stored as `f64`; exact for every working
/// precision), and the reduction order. Offsets and lengths are in
/// elements of the op's scalar type.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpArgs {
    /// Arena handles, one per operand slot.
    pub bufs: [u32; 4],
    /// Element offsets per operand slot.
    pub offs: [u32; 4],
    /// Element lengths per operand slot.
    pub lens: [u32; 4],
    /// Primary shape parameter (`ncols` / block width `k`).
    pub n0: u32,
    /// `(start, len)` into the arena's handle-list store.
    pub list: [u32; 2],
    /// Scalar coefficient (axpy/scal).
    pub alpha: f64,
    /// Reduction order for dot/norm-shaped kernels.
    pub order: ReductionOrder,
}

/// One op's per-submit payload binding: the launch function plus its
/// operand description. `Copy` plain data, so a region refills a
/// reused `Vec<BoundOp>` without allocating.
#[derive(Clone, Copy, Debug)]
pub struct BoundOp {
    /// The kernel launch.
    pub exec: ExecFn,
    /// Its operands.
    pub args: OpArgs,
}

/// One wavefront of a submitted graph: a view over the ready ops'
/// bindings plus the arena they resolve against. Ops in a batch are
/// mutually conflict-free (see [`OpGraph::finalize`]), so a backend may
/// run them in any order or concurrently.
#[derive(Clone, Copy)]
pub struct Batch<'a> {
    ids: &'a [u32],
    ops: &'a [BoundOp],
    arena: &'a BufferArena,
}

impl<'a> Batch<'a> {
    /// Assemble a batch view (`ids` are record-order op indices into
    /// `ops`).
    pub fn new(ids: &'a [u32], ops: &'a [BoundOp], arena: &'a BufferArena) -> Self {
        Batch { ids, ops, arena }
    }

    /// Ready ops in this batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Record-order index of the `i`-th ready op (diagnostics; serial
    /// backends run batches in `i` order for reproducible logs).
    pub fn op_index(&self, i: usize) -> usize {
        self.ids[i] as usize
    }

    /// Execute the `i`-th ready op of the batch on `backend`.
    pub fn run(&self, i: usize, backend: &dyn Backend) {
        let op = &self.ops[self.ids[i] as usize];
        (op.exec)(backend, self.arena, &op.args);
    }

    /// Execute the whole batch serially in record order — the baseline
    /// every sequential [`Backend::execute_batch`] uses.
    pub fn run_serial(&self, backend: &dyn Backend) {
        for i in 0..self.len() {
            self.run(i, backend);
        }
    }
}

/// Submit a finalized graph: walk the wavefront batches in order,
/// running each batch's host ops on the submitting thread and handing
/// its device ops to `backend.execute_batch`. `ops[i]` must hold op
/// `i`'s binding.
pub fn submit(graph: &OpGraph, ops: &[BoundOp], arena: &BufferArena, backend: &dyn Backend) {
    assert_eq!(ops.len(), graph.len(), "submit: binding count mismatch");
    for b in 0..graph.num_batches() {
        let (host, device) = graph.batch_split(b);
        for &i in host {
            let op = &ops[i as usize];
            (op.exec)(backend, arena, &op.args);
        }
        let batch = Batch::new(device, ops, arena);
        if !batch.is_empty() {
            backend.execute_batch(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn span(buf: usize, lo: u32, hi: u32) -> Span {
        Span::new(buf as u32, lo, hi)
    }

    fn push(g: &mut OpGraph, label: &'static str, reads: &[Span], writes: &[Span]) -> usize {
        g.push(label, reads, writes)
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
            kind: OpKind::Device,
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
    fn chain_graph_is_one_op_per_batch() {
        let mut g = OpGraph::new();
        push(&mut g, "a", &[], &[span(0, 0, 8)]);
        push(&mut g, "b", &[span(0, 0, 8)], &[span(1, 0, 8)]);
        push(&mut g, "c", &[span(1, 0, 8)], &[span(2, 0, 8)]);
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[1]);
        assert_eq!(g.batches(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn independent_ops_share_a_batch() {
        let mut g = OpGraph::new();
        push(&mut g, "a", &[span(3, 0, 8)], &[span(0, 0, 8)]);
        push(&mut g, "b", &[span(3, 0, 8)], &[span(1, 0, 8)]); // shares only a read
        push(
            &mut g,
            "c",
            &[span(0, 0, 8), span(1, 0, 8)],
            &[span(2, 0, 8)],
        );
        assert_eq!(g.batches(), vec![vec![0, 1], vec![2]]);
        assert_eq!(g.preds(2), &[0, 1]);
    }

    /// Host ops run on the submitting thread, ordered by the same DAG:
    /// a host op reading a device-produced span waits for it, and two
    /// independent host/device ops share a wavefront (host sub-group
    /// first).
    #[test]
    fn host_ops_schedule_with_device_ops() {
        let mut g = OpGraph::new();
        g.push("dev_a", &[], &[span(0, 0, 8)]);
        g.push_kind(
            "host_lagged",
            OpKind::Host,
            &[span(0, 0, 8)],
            &[span(9, 0, 8)],
        );
        g.push("dev_b", &[], &[span(1, 0, 8)]);
        g.finalize();
        assert_eq!(g.batches(), vec![vec![0, 2], vec![1]]);
        let (h0, d0) = g.batch_split(0);
        assert_eq!((h0, d0), (&[][..], &[0u32, 2][..]));
        let (h1, d1) = g.batch_split(1);
        assert_eq!((h1, d1), (&[1u32][..], &[][..]));
    }

    #[test]
    fn finalize_is_idempotent_and_push_invalidates_it() {
        let mut g = OpGraph::new();
        push(&mut g, "a", &[], &[span(0, 0, 8)]);
        g.finalize();
        let first = g.batches();
        g.finalize();
        assert_eq!(g.batches(), first);
        push(&mut g, "b", &[span(0, 0, 8)], &[span(1, 0, 8)]);
        assert_eq!(g.batches(), vec![vec![0], vec![1]]);
        // A cleared graph starts the next region from scratch.
        g.clear();
        assert!(g.is_empty());
        push(&mut g, "c", &[span(1, 0, 8)], &[span(2, 0, 8)]);
        assert_eq!(g.preds(0), &[] as &[usize]);
        assert_eq!(g.batches(), vec![vec![0]]);
    }

    /// Submitted bindings execute in a batch order that respects the
    /// DAG (logging via an arena-registered mutex, exactly how tests
    /// drive the payload machinery without solver kernels).
    #[test]
    fn submit_respects_batch_order() {
        let log: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let mut arena = BufferArena::new();
        // SAFETY: `log` outlives every use of the arena below.
        let hlog = unsafe { arena.register_obj(&log as *const Mutex<Vec<usize>>) };
        fn log_exec(_b: &dyn Backend, arena: &BufferArena, args: &OpArgs) {
            // SAFETY: the registered log outlives the submit below.
            let log: &Mutex<Vec<usize>> = unsafe { arena.obj(args.bufs[0]) };
            log.lock().unwrap().push(args.n0 as usize);
        }
        let mut g = OpGraph::new();
        push(&mut g, "a", &[], &[span(0, 0, 8)]);
        push(&mut g, "b", &[span(0, 0, 8)], &[span(1, 0, 8)]);
        push(&mut g, "free", &[], &[span(2, 0, 8)]);
        g.finalize();
        let ops: Vec<BoundOp> = (0..3)
            .map(|i| BoundOp {
                exec: log_exec,
                args: OpArgs {
                    bufs: [hlog, 0, 0, 0],
                    n0: i as u32,
                    ..OpArgs::default()
                },
            })
            .collect();
        submit(&g, &ops, &arena, &crate::ReferenceBackend);
        let order = log.lock().unwrap().clone();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert_eq!(order.len(), 3);
        assert!(pos(0) < pos(1), "dependent pair reordered: {order:?}");
    }
}
