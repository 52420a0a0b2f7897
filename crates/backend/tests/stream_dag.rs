//! Property tests for the recorded-stream dependency DAG: the scheduler
//! must never reorder dependent ops, for any random read/write span
//! sets, on any backend (including the parallel backend's concurrent
//! batch execution) — and the wavefront schedule must be a pure
//! function of the op *shapes*, so the buffer values a region binds can
//! never change the partitioning.

use std::sync::Mutex;

use mpgmres_backend::stream::{conflicts, submit, BoundOp, OpArgs, OpGraph, OpKind, OpShape, Span};
use mpgmres_backend::{Backend, ParallelBackend, ReferenceBackend};
use mpgmres_la::raw::BufferArena;
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
        kind: OpKind::Device,
        reads: op.reads.iter().map(|&b| buf_span(b)).collect(),
        writes: op.writes.iter().map(|&b| buf_span(b)).collect(),
    }
}

fn build_graph(ops: &[SynthOp]) -> OpGraph {
    let mut graph = OpGraph::new();
    for op in ops {
        let shape = to_shape(op);
        graph.push(shape.label, &shape.reads, &shape.writes);
    }
    graph.finalize();
    graph
}

/// The execution payload of every synthetic op: append the op's index
/// (carried in `args.n0`) to the arena-registered log.
fn log_exec(_b: &dyn Backend, arena: &BufferArena, args: &OpArgs) {
    // SAFETY: the log outlives the submit (registered by the caller).
    let log: &Mutex<Vec<usize>> = unsafe { arena.obj(args.bufs[0]) };
    log.lock().unwrap().push(args.n0 as usize);
}

/// Run the scheduler over the ops on `backend`, returning the observed
/// execution order (one entry per op, the op's record index).
fn schedule_and_log(ops: &[SynthOp], backend: &dyn Backend) -> Vec<usize> {
    let graph = build_graph(ops);
    let log: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let mut arena = BufferArena::new();
    // SAFETY: `log` outlives the submit below.
    let hlog = unsafe { arena.register_obj(&log as *const Mutex<Vec<usize>>) };
    let bindings: Vec<BoundOp> = (0..ops.len())
        .map(|i| BoundOp {
            exec: log_exec,
            args: OpArgs {
                bufs: [hlog, 0, 0, 0],
                n0: i as u32,
                ..OpArgs::default()
            },
        })
        .collect();
    submit(&graph, &bindings, &arena, backend);
    log.into_inner().unwrap()
}

fn check_order(ops: &[SynthOp], order: &[usize], what: &str) {
    assert_eq!(order.len(), ops.len(), "{what}: every op runs exactly once");
    let mut seen = vec![false; ops.len()];
    for &i in order {
        assert!(!seen[i], "{what}: op {i} ran twice");
        seen[i] = true;
    }
    let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
    for i in 0..ops.len() {
        for j in (i + 1)..ops.len() {
            if conflicts(&to_shape(&ops[i]), &to_shape(&ops[j])) {
                assert!(
                    pos(i) < pos(j),
                    "{what}: dependent pair ({i}, {j}) reordered: {order:?} (ops {ops:?})"
                );
            }
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

    /// For random op sequences with random read/write sets, the
    /// scheduler preserves the order of every conflicting pair on both
    /// the serial and the concurrent (pool) execution path.
    #[test]
    fn dependent_ops_never_reorder(
        masks in proptest::collection::vec((0u32..(1 << NBUF), 0u32..(1 << NBUF)), 1..24),
        threads in 2usize..5,
    ) {
        let ops: Vec<SynthOp> = masks.iter().map(|&(r, w)| decode(r, w)).collect();
        let serial = schedule_and_log(&ops, &ReferenceBackend);
        check_order(&ops, &serial, "reference");
        let parallel = ParallelBackend::with_threads(threads);
        let concurrent = schedule_and_log(&ops, &parallel);
        check_order(&ops, &concurrent, "parallel");
    }

    /// The wavefront batches partition the ops and are internally
    /// conflict-free (the property that makes concurrent batch
    /// execution safe).
    #[test]
    fn batches_partition_and_are_conflict_free(
        masks in proptest::collection::vec((0u32..(1 << NBUF), 0u32..(1 << NBUF)), 1..24),
    ) {
        let ops: Vec<SynthOp> = masks.iter().map(|&(r, w)| decode(r, w)).collect();
        let mut graph = build_graph(&ops);
        let batches = graph.batches();
        let mut seen = vec![false; ops.len()];
        for batch in &batches {
            for (a, &i) in batch.iter().enumerate() {
                prop_assert!(!seen[i], "op {} in two batches", i);
                seen[i] = true;
                for &j in &batch[a + 1..] {
                    prop_assert!(
                        !conflicts(&to_shape(&ops[i]), &to_shape(&ops[j]))
                            && !conflicts(&to_shape(&ops[j]), &to_shape(&ops[i])),
                        "conflicting ops {} and {} share a batch",
                        i,
                        j
                    );
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "batches must cover every op");
        // And each op's preds sit in strictly earlier batches.
        let batch_of = |i: usize| batches.iter().position(|b| b.contains(&i)).unwrap();
        for i in 0..ops.len() {
            for &p in graph.preds(i) {
                prop_assert!(batch_of(p) < batch_of(i));
            }
        }
    }

    /// The graph (edges AND wavefront partitioning) is a pure function
    /// of the op shapes: recording the same shapes again, against
    /// whatever buffers the next region binds, derives the same DAG.
    #[test]
    fn same_shapes_derive_the_same_wavefront_partitioning(
        masks in proptest::collection::vec((0u32..(1 << NBUF), 0u32..(1 << NBUF)), 1..24),
    ) {
        let ops: Vec<SynthOp> = masks.iter().map(|&(r, w)| decode(r, w)).collect();
        let mut first = build_graph(&ops);
        let mut second = build_graph(&ops);
        prop_assert_eq!(first.len(), second.len());
        for i in 0..ops.len() {
            prop_assert_eq!(first.preds(i), second.preds(i));
        }
        prop_assert_eq!(first.batches(), second.batches());
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

fn pipelined_ops(nlanes: usize, iters: usize, depth: usize) -> (Vec<SynthOp>, Vec<bool>) {
    let mut ops = Vec::new();
    let mut is_host = Vec::new();
    for iter in 0..iters {
        for l in 0..nlanes {
            let reads = if iter > 0 {
                vec![result_buf(l, iter - 1)]
            } else {
                Vec::new()
            };
            ops.push(SynthOp {
                reads,
                writes: vec![result_buf(l, iter)],
            });
            is_host.push(false);
        }
        for l in 0..nlanes {
            if iter < depth {
                continue; // pipeline still filling
            }
            ops.push(SynthOp {
                reads: vec![result_buf(l, iter - depth)],
                writes: vec![token_buf(l)],
            });
            is_host.push(true);
        }
    }
    (ops, is_host)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ISSUE 5 satellite: a deferred host op can never be scheduled
    /// before the device op producing its lagged read span — for random
    /// lane counts and pipeline depths in {0, 1}, on both the serial
    /// and the concurrent execution path. Host ops are real
    /// [`OpKind::Host`] nodes, so this also pins that running the host
    /// sub-group on the submitting thread preserves every cross-kind
    /// dependency — and that at depth 1 the graph carries NO edge from
    /// the same iteration's device op to the host op (the independence
    /// that makes the overlap legal).
    #[test]
    fn deferred_host_ops_wait_for_their_lagged_producers(
        nlanes in 1usize..6,
        iters in 1usize..7,
        depth in 0usize..2,
        threads in 2usize..5,
    ) {
        let (ops, is_host) = pipelined_ops(nlanes, iters, depth);
        let mut graph = OpGraph::new();
        for (op, &host) in ops.iter().zip(&is_host) {
            let s = to_shape(op);
            graph.push_kind(
                s.label,
                if host { OpKind::Host } else { OpKind::Device },
                &s.reads,
                &s.writes,
            );
        }
        graph.finalize();

        // Index map from the construction walk.
        let mut dev_idx = vec![vec![0usize; iters]; nlanes];
        let mut host_idx: Vec<(usize, usize, usize)> = Vec::new(); // (op, lane, iter)
        let mut idx = 0usize;
        for iter in 0..iters {
            for l in 0..nlanes {
                dev_idx[l][iter] = idx;
                idx += 1;
            }
            for l in 0..nlanes {
                if iter < depth {
                    continue;
                }
                host_idx.push((idx, l, iter));
                idx += 1;
            }
        }

        // The graph itself proves the lag: each host op depends on its
        // lagged producer, and at depth 1 NOT on the same iteration's
        // device op for its lane.
        for &(h, l, iter) in &host_idx {
            let producer = dev_idx[l][iter - depth];
            prop_assert!(
                graph.preds(h).contains(&producer),
                "host op {h} lacks its lagged producer edge {producer}"
            );
            if depth == 1 {
                prop_assert!(
                    !graph.preds(h).contains(&dev_idx[l][iter]),
                    "host op {h} must not wait for the in-flight device op"
                );
            }
        }

        // Execute on both paths: every host op runs after the device op
        // that produced its lagged read span.
        for backend in [
            Box::new(ReferenceBackend) as Box<dyn Backend>,
            Box::new(ParallelBackend::with_threads(threads)) as Box<dyn Backend>,
        ] {
            let log: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let mut arena = BufferArena::new();
            // SAFETY: `log` outlives the submit below.
            let hlog = unsafe { arena.register_obj(&log as *const Mutex<Vec<usize>>) };
            let bindings: Vec<BoundOp> = (0..ops.len())
                .map(|i| BoundOp {
                    exec: log_exec,
                    args: OpArgs {
                        bufs: [hlog, 0, 0, 0],
                        n0: i as u32,
                        ..OpArgs::default()
                    },
                })
                .collect();
            submit(&graph, &bindings, &arena, &*backend);
            let order = log.into_inner().unwrap();
            prop_assert_eq!(order.len(), ops.len());
            let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
            for &(h, l, iter) in &host_idx {
                let producer = dev_idx[l][iter - depth];
                prop_assert!(
                    pos(producer) < pos(h),
                    "host op {h} (lane {l}, iter {iter}, depth {depth}) ran \
                     before its lagged producer {producer}: {order:?}"
                );
            }
        }
    }
}

/// Deterministic smoke: a diamond (one producer, two independent
/// consumers, one join) executes with the two middle ops unordered
/// relative to each other but strictly inside the producer/join fence.
#[test]
fn diamond_respects_fences_on_the_pool() {
    let ops = vec![
        SynthOp {
            reads: vec![],
            writes: vec![0],
        },
        SynthOp {
            reads: vec![0],
            writes: vec![1],
        },
        SynthOp {
            reads: vec![0],
            writes: vec![2],
        },
        SynthOp {
            reads: vec![1, 2],
            writes: vec![3],
        },
    ];
    let parallel = ParallelBackend::with_threads(4);
    for _ in 0..16 {
        let order = schedule_and_log(&ops, &parallel);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(3) > pos(1) && pos(3) > pos(2));
    }
}
