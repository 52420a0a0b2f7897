//! Property tests for the recorded-stream dependency derivation: an op's
//! ready time must be bounded by every earlier op it conflicts with
//! (RAW, WAR or WAW span overlap) and by no other op, for any random
//! read/write span sets.

use mpgmres_backend::stream::{conflicts, OpGraph, OpShape, Span};
use proptest::prelude::*;

/// A synthetic op over `NBUF` fixed 64-byte buffers.
#[derive(Clone, Debug)]
struct SynthOp {
    reads: Vec<usize>,
    writes: Vec<usize>,
}

const NBUF: usize = 8;

fn buf_span(b: usize) -> Span {
    Span::new(b as u32, 0, 64)
}

fn to_shape(op: &SynthOp) -> OpShape {
    OpShape {
        label: "synth",
        reads: op.reads.iter().map(|&b| buf_span(b)).collect(),
        writes: op.writes.iter().map(|&b| buf_span(b)).collect(),
    }
}

/// Whether earlier op `j` bounds the ready time of op `i`: record ops
/// `0..i` with op `j` alone finishing late, then ask when op `i` is
/// ready. Per-pair probing checks "every conflicting op bounds it" and
/// "no other op does" separately, which one max over random finish
/// times could not.
fn bounds(ops: &[SynthOp], j: usize, i: usize) -> bool {
    assert!(j < i);
    let mut graph = OpGraph::new();
    for (k, op) in ops[..i].iter().enumerate() {
        let s = to_shape(op);
        let finish = if k == j { 1.0 } else { 0.0 };
        graph.push(s.label, &s.reads, &s.writes, finish);
    }
    let s = to_shape(&ops[i]);
    graph.ready(0.0, &s.reads, &s.writes) == 1.0
}

fn check_bounds(ops: &[SynthOp]) {
    for i in 0..ops.len() {
        for j in 0..i {
            let want = conflicts(&to_shape(&ops[j]), &to_shape(&ops[i]));
            assert_eq!(
                bounds(ops, j, i),
                want,
                "op {j} {} op {i}'s ready time (ops {ops:?})",
                if want { "must bound" } else { "must not bound" }
            );
        }
    }
}

/// Decode a u32 mask pair into buffer index sets.
fn decode(mask_r: u32, mask_w: u32) -> SynthOp {
    let pick = |mask: u32| (0..NBUF).filter(|b| mask & (1 << b) != 0).collect();
    SynthOp {
        reads: pick(mask_r),
        writes: pick(mask_w),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random op sequences with random read/write sets, exactly the
    /// earlier conflicting ops bound each op's ready time, so a
    /// dependent op is never charged before the op it depends on.
    #[test]
    fn dependent_ops_never_reorder(
        masks in proptest::collection::vec((0u32..(1 << NBUF), 0u32..(1 << NBUF)), 1..24),
    ) {
        let ops: Vec<SynthOp> = masks.iter().map(|&(r, w)| decode(r, w)).collect();
        check_bounds(&ops);
    }
}

/// The software-pipelined op shape over whole-buffer spans: per
/// (lane, parity) result buffers (the `h`/`norms` ping-pong) plus a
/// per-lane host-state token buffer. Mirrors `BlockGmres`'s pipelined
/// regions: each iteration records one device op per lane (reading the
/// lane's previous result, writing the current parity), then one
/// deferred host op per lane reading the result of iteration
/// `iter - depth` and advancing the lane's token.
fn result_buf(lane: usize, iter: usize) -> usize {
    lane * 2 + iter % 2
}

fn token_buf(lane: usize) -> usize {
    1000 + lane
}

/// The op sequence plus, per host op, `(op index, lane, iter)`, and the
/// device op index of every `(lane, iter)`.
type Pipelined = (Vec<SynthOp>, Vec<(usize, usize, usize)>, Vec<Vec<usize>>);

fn pipelined_ops(nlanes: usize, iters: usize, depth: usize) -> Pipelined {
    let mut ops = Vec::new();
    let mut host_idx = Vec::new();
    let mut dev_idx = vec![vec![0usize; iters]; nlanes];
    for iter in 0..iters {
        for (l, dev) in dev_idx.iter_mut().enumerate() {
            let reads = if iter > 0 {
                vec![result_buf(l, iter - 1)]
            } else {
                Vec::new()
            };
            dev[iter] = ops.len();
            ops.push(SynthOp {
                reads,
                writes: vec![result_buf(l, iter)],
            });
        }
        if iter < depth {
            continue; // pipeline still filling
        }
        for l in 0..nlanes {
            host_idx.push((ops.len(), l, iter));
            ops.push(SynthOp {
                reads: vec![result_buf(l, iter - depth)],
                writes: vec![token_buf(l)],
            });
        }
    }
    (ops, host_idx, dev_idx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A deferred host op is never charged before the device op
    /// producing its lagged read span, for random lane counts and
    /// pipeline depths in {0, 1}; and at depth 1 the same iteration's
    /// device op for its lane does NOT bound it (the independence that
    /// lets the host latency hide under the device work).
    #[test]
    fn deferred_host_ops_wait_for_their_lagged_producers(
        nlanes in 1usize..6,
        iters in 1usize..7,
        depth in 0usize..2,
    ) {
        let (ops, host_idx, dev_idx) = pipelined_ops(nlanes, iters, depth);
        for &(h, l, iter) in &host_idx {
            let producer = dev_idx[l][iter - depth];
            prop_assert!(
                bounds(&ops, producer, h),
                "host op {h} is not bounded by its lagged producer {producer}"
            );
            if depth == 1 {
                prop_assert!(
                    !bounds(&ops, dev_idx[l][iter], h),
                    "host op {h} must not wait for the in-flight device op"
                );
            }
        }
        check_bounds(&ops);
    }
}

/// Deterministic smoke: a diamond (one producer, two independent
/// consumers, one join). The consumers are ready when the producer
/// finishes, and the join when the later consumer does.
#[test]
fn diamond_joins_at_the_later_branch() {
    let (w, r) = (|b: u32| [Span::new(b, 0, 64)], |b: u32| Span::new(b, 0, 64));
    let mut g = OpGraph::new();
    g.push("producer", &[], &w(0), 1.0);
    assert_eq!(g.ready(0.0, &[r(0)], &w(1)), 1.0);
    g.push("left", &[r(0)], &w(1), 3.0);
    assert_eq!(
        g.ready(0.0, &[r(0)], &w(2)),
        1.0,
        "branches are independent"
    );
    g.push("right", &[r(0)], &w(2), 2.0);
    assert_eq!(g.ready(0.0, &[r(1), r(2)], &w(3)), 3.0);
}
