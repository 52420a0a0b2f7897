//! Row-sharded SpMV plans: owned/halo column classification and the
//! shard-local kernels behind `mpgmres-backend`'s `ShardedBackend`.
//!
//! A [`ShardPlan`] cuts a CSR matrix into contiguous row blocks at the
//! nnz-balanced quantiles of [`crate::par::nnz_partition`] — the same
//! cuts a multi-GPU deployment would use — and classifies every column
//! each shard touches as *owned* (inside the shard's own row range) or
//! *halo* (owned by another shard, so its value must be exchanged
//! before the shard can finish its rows). Rows whose columns are all
//! owned form the shard's *interior*: they can start before the halo
//! exchange completes, which is exactly the communication/compute
//! overlap the recorded op graph exposes to the scheduler.
//!
//! # Determinism contract
//!
//! Sharding only decides *which shard* computes *which rows* and *where
//! the operand values live*; it never changes a single floating-point
//! operation or its order. The shard-local kernels here re-run the
//! strict left-to-right `mul_add` chain of [`Csr::spmv`]'s per-row
//! kernel with each column value fetched either from the shard's owned
//! slice or from its halo buffer — the fetched values are identical
//! bit patterns, so every sharded kernel is bit-identical to the
//! single-backend result by construction. Likewise the blocked dot
//! partials: each shard emits exactly the per-block partial sums of
//! [`crate::vec_ops::dot_ordered`] whose blocks *start* inside its
//! range, so the concatenated partial list (and therefore the pairwise
//! reduction tree over it) is independent of the shard cuts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mpgmres_scalar::Scalar;

use crate::csr::Csr;
use crate::fma;
use crate::par;
use crate::store::MatrixStore;
use crate::vec_ops::{self, ReductionOrder};

/// Flag bit marking a ghost-index entry as a halo-buffer index (clear
/// means an offset into the shard's owned slice). Column indices are
/// `u32` and matrices are far below `2^31` rows, so the top bit is free.
pub const GHOST_HALO: u32 = 1 << 31;

/// One merged run of remote columns a shard must receive before it can
/// compute its boundary rows: `len` consecutive source columns starting
/// at global column `col`, landing at offset `dst` of the shard's halo
/// buffer. Merged runs make the exchange a handful of contiguous copies
/// (and give the recorded exchange op real byte spans to declare).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HaloSpan {
    /// First global column of the run.
    pub col: usize,
    /// Number of consecutive columns.
    pub len: usize,
    /// Destination offset in the shard's halo buffer.
    pub dst: usize,
}

/// One shard's row block and its halo classification.
#[derive(Clone, Debug)]
pub struct ShardRegion {
    /// Owned row (and column) range `[lo, hi)`.
    pub lo: usize,
    /// End of the owned range.
    pub hi: usize,
    /// Start of the interior run: rows `[ilo, ihi)` touch only owned
    /// columns and need no halo data.
    pub ilo: usize,
    /// End of the interior run (`lo <= ilo <= ihi <= hi`).
    pub ihi: usize,
    /// Sorted remote columns this shard reads (the halo, one slot each).
    pub halo_cols: Vec<u32>,
    /// `halo_cols` merged into contiguous exchange runs.
    pub halo_spans: Vec<HaloSpan>,
    /// Ghost indices for the leading boundary rows `[lo, ilo)`, one per
    /// stored entry in row order: owned entries hold `col - lo`, halo
    /// entries hold `rank | GHOST_HALO` where `rank` indexes
    /// `halo_cols` (= the halo buffer).
    pub ghost_lead: Vec<u32>,
    /// Ghost indices for the trailing boundary rows `[ihi, hi)`.
    pub ghost_trail: Vec<u32>,
}

impl ShardRegion {
    /// Number of owned rows.
    pub fn rows(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of halo slots (remote columns) this shard receives.
    pub fn halo_len(&self) -> usize {
        self.halo_cols.len()
    }

    /// Fill this shard's halo buffer from the global vector `x` — the
    /// eager-mode exchange (the recorded path performs the same
    /// contiguous copies as separate ops with declared byte spans).
    pub fn fill_halo<S: Scalar>(&self, x: &[S], halo: &mut [S]) {
        for s in &self.halo_spans {
            halo[s.dst..s.dst + s.len].copy_from_slice(&x[s.col..s.col + s.len]);
        }
    }
}

/// A row-sharded view of one CSR structure: nnz-balanced contiguous row
/// blocks plus per-shard halo classification. Structure-only (no matrix
/// values), so one plan serves every precision and every
/// [`MatrixStore`] wrapping the same pattern.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Row count of the sharded matrix.
    pub nrows: usize,
    /// Column count of the sharded matrix.
    pub ncols: usize,
    /// One region per shard, in row order; regions tile `[0, nrows)`.
    pub regions: Vec<ShardRegion>,
}

impl ShardPlan {
    /// Cut `a` into (at most) `shards` nnz-balanced row blocks and
    /// classify each block's columns into owned vs halo.
    pub fn build<S: Scalar>(a: &Csr<S>, shards: usize) -> ShardPlan {
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        let cuts = par::nnz_partition(a, shards.max(1));
        let mut regions = Vec::with_capacity(cuts.len());
        for &(lo, hi) in &cuts {
            regions.push(build_region(row_ptr, col_idx, lo, hi));
        }
        ShardPlan {
            nrows: a.nrows(),
            ncols: a.ncols(),
            regions,
        }
    }

    /// Number of shards (row blocks).
    pub fn shards(&self) -> usize {
        self.regions.len()
    }

    /// Total halo slots across all shards — the per-sweep exchange
    /// volume in elements (multiply by the value width for bytes).
    pub fn halo_elems(&self) -> usize {
        self.regions.iter().map(ShardRegion::halo_len).sum()
    }

    /// Eager sharded `y = A x`: per shard, exchange the halo, then run
    /// the interior and boundary row kernels. Bit-identical to
    /// [`Csr::spmv`]. `halo` is caller-provided scratch (grown as
    /// needed) so warm callers do not allocate.
    pub fn spmv<S: Scalar>(&self, a: &Csr<S>, x: &[S], y: &mut [S], halo: &mut Vec<S>) {
        assert_eq!(x.len(), a.ncols(), "sharded spmv: x length mismatch");
        assert_eq!(y.len(), a.nrows(), "sharded spmv: y length mismatch");
        for g in &self.regions {
            let owned = &x[g.lo..g.hi];
            halo.clear();
            halo.resize(g.halo_len(), S::zero());
            g.fill_halo(x, halo);
            let (lead, rest) = y[g.lo..g.hi].split_at_mut(g.ilo - g.lo);
            let (interior, trail) = rest.split_at_mut(g.ihi - g.ilo);
            spmv_rows_ghost(a, g.lo, g.ilo, &g.ghost_lead, owned, halo, lead);
            spmv_rows_local(a, g.ilo, g.ihi, g.lo, owned, interior);
            spmv_rows_ghost(a, g.ihi, g.hi, &g.ghost_trail, owned, halo, trail);
        }
    }

    /// Eager sharded `y = b - A x` (fused residual), bit-identical to
    /// [`Csr::residual`].
    pub fn residual<S: Scalar>(
        &self,
        a: &Csr<S>,
        b: &[S],
        x: &[S],
        y: &mut [S],
        halo: &mut Vec<S>,
    ) {
        assert_eq!(b.len(), a.nrows(), "sharded residual: b length mismatch");
        assert_eq!(x.len(), a.ncols(), "sharded residual: x length mismatch");
        assert_eq!(y.len(), a.nrows(), "sharded residual: y length mismatch");
        for g in &self.regions {
            let owned = &x[g.lo..g.hi];
            halo.clear();
            halo.resize(g.halo_len(), S::zero());
            g.fill_halo(x, halo);
            let (lead, rest) = y[g.lo..g.hi].split_at_mut(g.ilo - g.lo);
            let (interior, trail) = rest.split_at_mut(g.ihi - g.ilo);
            residual_rows_ghost(
                a,
                g.lo,
                g.ilo,
                &g.ghost_lead,
                &b[g.lo..g.ilo],
                owned,
                halo,
                lead,
            );
            residual_rows_local(a, g.ilo, g.ihi, g.lo, &b[g.ilo..g.ihi], owned, interior);
            residual_rows_ghost(
                a,
                g.ihi,
                g.hi,
                &g.ghost_trail,
                &b[g.ihi..g.hi],
                owned,
                halo,
                trail,
            );
        }
    }
}

/// Classify one row block: find the longest run of rows whose columns
/// all fall inside `[lo, hi)` (the interior), collect the remote
/// columns of the remaining boundary rows, and precompute their ghost
/// indices.
fn build_region(row_ptr: &[usize], col_idx: &[u32], lo: usize, hi: usize) -> ShardRegion {
    let local = |r: usize| {
        col_idx[row_ptr[r]..row_ptr[r + 1]]
            .iter()
            .all(|&c| (c as usize) >= lo && (c as usize) < hi)
    };
    // Longest contiguous run of fully-local rows (first on ties). For
    // banded matrices this is the whole middle of the block; for an
    // arrow matrix a shard that does not own the dense column has an
    // empty interior — it genuinely cannot start before the exchange.
    let (mut ilo, mut ihi) = (lo, lo);
    let mut run_lo = lo;
    for r in lo..hi {
        if local(r) {
            if r + 1 - run_lo > ihi - ilo {
                ilo = run_lo;
                ihi = r + 1;
            }
        } else {
            run_lo = r + 1;
        }
    }
    let mut halo_cols: Vec<u32> = Vec::new();
    let mut boundary = |r0: usize, r1: usize| {
        for r in r0..r1 {
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if (c as usize) < lo || (c as usize) >= hi {
                    halo_cols.push(c);
                }
            }
        }
    };
    boundary(lo, ilo);
    boundary(ihi, hi);
    halo_cols.sort_unstable();
    halo_cols.dedup();
    let mut halo_spans: Vec<HaloSpan> = Vec::new();
    for (rank, &c) in halo_cols.iter().enumerate() {
        match halo_spans.last_mut() {
            Some(s) if s.col + s.len == c as usize => s.len += 1,
            _ => halo_spans.push(HaloSpan {
                col: c as usize,
                len: 1,
                dst: rank,
            }),
        }
    }
    let ghost = |r0: usize, r1: usize| {
        let mut g = Vec::with_capacity(row_ptr[r1] - row_ptr[r0]);
        for &c in &col_idx[row_ptr[r0]..row_ptr[r1]] {
            if (c as usize) >= lo && (c as usize) < hi {
                g.push(c - lo as u32);
            } else {
                let rank = halo_cols.binary_search(&c).expect("halo col classified");
                g.push(rank as u32 | GHOST_HALO);
            }
        }
        g
    };
    let ghost_lead = ghost(lo, ilo);
    let ghost_trail = ghost(ihi, hi);
    ShardRegion {
        lo,
        hi,
        ilo,
        ihi,
        halo_cols,
        halo_spans,
        ghost_lead,
        ghost_trail,
    }
}

/// Interior rows `[r0, r1)` of `y = A x`, reading columns from the
/// shard's owned slice `x_owned` (= global `x[lo..]`). The accumulation
/// is the exact `mul_add` chain of `Csr::spmv_row` — same values, same
/// order — so the result is bit-identical to the unsharded kernel.
pub fn spmv_rows_local<S: Scalar>(
    a: &Csr<S>,
    r0: usize,
    r1: usize,
    lo: usize,
    x_owned: &[S],
    y: &mut [S],
) {
    fma::run(|| {
        for (r, yr) in (r0..r1).zip(&mut y[..r1 - r0]) {
            let (vals, cols) = a.row_slices(r);
            let mut acc = S::zero();
            for (&v, &c) in vals.iter().zip(cols) {
                acc = v.mul_add(x_owned[c as usize - lo], acc);
            }
            *yr = acc;
        }
    });
}

/// Boundary rows `[r0, r1)` of `y = A x`, fetching each column from the
/// owned slice or the halo buffer as directed by the precomputed ghost
/// indices (same accumulation contract as [`spmv_rows_local`]).
pub fn spmv_rows_ghost<S: Scalar>(
    a: &Csr<S>,
    r0: usize,
    r1: usize,
    ghost: &[u32],
    x_owned: &[S],
    halo: &[S],
    y: &mut [S],
) {
    fma::run(|| {
        for (r, yr) in (r0..r1).zip(&mut y[..r1 - r0]) {
            let mut acc = S::zero();
            for (&v, &g) in ghost_row(a, r0, r, ghost) {
                acc = v.mul_add(ghost_read(g, x_owned, halo), acc);
            }
            *yr = acc;
        }
    });
}

/// Interior rows `[r0, r1)` of the fused residual `y = b - A x`
/// (`b_rows` holds rows `[r0, r1)` of `b`); mirrors `Csr::residual_row`.
pub fn residual_rows_local<S: Scalar>(
    a: &Csr<S>,
    r0: usize,
    r1: usize,
    lo: usize,
    b_rows: &[S],
    x_owned: &[S],
    y: &mut [S],
) {
    fma::run(|| {
        for ((r, yr), &b_r) in (r0..r1).zip(&mut y[..r1 - r0]).zip(&b_rows[..r1 - r0]) {
            let (vals, cols) = a.row_slices(r);
            let mut acc = b_r;
            for (&v, &c) in vals.iter().zip(cols) {
                acc = (-v).mul_add(x_owned[c as usize - lo], acc);
            }
            *yr = acc;
        }
    });
}

/// Boundary rows `[r0, r1)` of the fused residual `y = b - A x`.
#[allow(clippy::too_many_arguments)]
pub fn residual_rows_ghost<S: Scalar>(
    a: &Csr<S>,
    r0: usize,
    r1: usize,
    ghost: &[u32],
    b_rows: &[S],
    x_owned: &[S],
    halo: &[S],
    y: &mut [S],
) {
    fma::run(|| {
        for ((r, yr), &b_r) in (r0..r1).zip(&mut y[..r1 - r0]).zip(&b_rows[..r1 - r0]) {
            let mut acc = b_r;
            for (&v, &g) in ghost_row(a, r0, r, ghost) {
                acc = (-v).mul_add(ghost_read(g, x_owned, halo), acc);
            }
            *yr = acc;
        }
    });
}

/// Row `r`'s stored values zipped with their ghost indices, where
/// `ghost` holds the entries of the rows from `r0` on.
#[inline(always)]
fn ghost_row<'a, S: Scalar>(
    a: &'a Csr<S>,
    r0: usize,
    r: usize,
    ghost: &'a [u32],
) -> impl Iterator<Item = (&'a S, &'a u32)> {
    let row_ptr = a.row_ptr();
    let (base, lo, hi) = (row_ptr[r0], row_ptr[r], row_ptr[r + 1]);
    a.row_slices(r).0.iter().zip(&ghost[lo - base..hi - base])
}

/// The `x` entry a ghost index names: an owned column or a halo slot.
#[inline(always)]
fn ghost_read<S: Scalar>(g: u32, x_owned: &[S], halo: &[S]) -> S {
    if g & GHOST_HALO != 0 {
        halo[(g & !GHOST_HALO) as usize]
    } else {
        x_owned[g as usize]
    }
}

/// Rows `[r0, r1)` of a [`MatrixStore`] SpMV — the shard-local kernel
/// for the low-precision storage paths (the store row kernels read the
/// full `x`; only the plain-CSR path models the halo explicitly).
pub fn store_spmv_rows<S: Scalar>(a: &MatrixStore<S>, r0: usize, r1: usize, x: &[S], y: &mut [S]) {
    fma::run(|| {
        for r in r0..r1 {
            y[r - r0] = a.spmv_row(r, x);
        }
    });
}

/// Rows `[r0, r1)` of a [`MatrixStore`] fused residual (`b_rows` holds
/// rows `[r0, r1)` of `b`).
pub fn store_residual_rows<S: Scalar>(
    a: &MatrixStore<S>,
    r0: usize,
    r1: usize,
    b_rows: &[S],
    x: &[S],
    y: &mut [S],
) {
    fma::run(|| {
        for r in r0..r1 {
            y[r - r0] = a.residual_row(r, b_rows[r - r0], x);
        }
    });
}

/// Rows `[lo, hi)` of a [`MatrixStore`] SpMM over `xcols`, writing into
/// the per-column row-range slices `out` (the `partition_rows_mut`
/// layout) — re-exports the crate-internal fused row loop so sharded
/// backends share THE kernel.
pub fn store_spmm_rows<S: Scalar>(
    a: &MatrixStore<S>,
    xcols: &[&[S]],
    lo: usize,
    hi: usize,
    out: &mut [&mut [S]],
) {
    a.spmm_rows(xcols, lo, hi, out);
}

/// Append the blocked partial sums of `x . y` whose blocks *start* in
/// `[c0, c1)` — one `dot_seq` per block, the exact partials of
/// [`vec_ops::dot_ordered`]. A block straddling the cut is computed by
/// the shard that owns its first element (reading a few of its
/// neighbour's elements, like a halo), so the concatenated partial list
/// across shards is independent of the cuts.
pub fn dot_partials<S: Scalar>(
    x: &[S],
    y: &[S],
    block: usize,
    c0: usize,
    c1: usize,
    parts: &mut Vec<S>,
) {
    let block = block.max(1);
    // Blocks start at multiples of `block`; the first one this shard
    // owns is the first multiple >= c0.
    let b0 = c0.div_ceil(block) * block;
    if b0 >= c1 {
        return;
    }
    let count = (c1 - b0).div_ceil(block);
    let end = (b0 + count * block).min(x.len());
    let at = parts.len();
    parts.resize(at + count, S::zero());
    let out = &mut parts[at..];
    fma::run(
        #[inline(always)]
        || vec_ops::block_partials(&x[b0..end], &y[b0..end], block, out),
    );
}

/// The even contiguous split of `[0, n)` into (at most) `shards`
/// ranges — the shard cuts for vector-only kernels (dot/norm/axpy),
/// which have no matrix to balance by. Same chunking rule as
/// [`par::row_partition`], allocation-free. Empty trailing ranges are
/// emitted so every shard index gets a range.
pub fn even_ranges(n: usize, shards: usize) -> impl Iterator<Item = (usize, usize)> {
    let shards = shards.max(1);
    let chunk = n.div_ceil(shards).max(1);
    (0..shards).map(move |s| ((s * chunk).min(n), ((s + 1) * chunk).min(n)))
}

/// Sharded inner product: per-shard blocked partials combined by the
/// fixed-shape pairwise tree of [`vec_ops::dot_ordered`] — bit-identical
/// to the unsharded reduction for any shard ranges tiling `[0, n)`.
/// [`ReductionOrder::Sequential`] is the serial holdout: a single
/// left-to-right chain cannot be split without changing the result, so
/// it is computed whole.
pub fn dot_sharded<S: Scalar>(
    x: &[S],
    y: &[S],
    order: ReductionOrder,
    ranges: impl IntoIterator<Item = (usize, usize)>,
) -> S {
    assert_eq!(x.len(), y.len(), "sharded dot: length mismatch");
    match order {
        ReductionOrder::Sequential => fma::run(|| vec_ops::dot_seq(x, y)),
        ReductionOrder::BlockedTree { block } => {
            let block = block.max(1);
            let mut parts = Vec::with_capacity(x.len().div_ceil(block));
            for (c0, c1) in ranges {
                dot_partials(x, y, block, c0, c1, &mut parts);
            }
            vec_ops::tree_sum(&mut parts)
        }
    }
}

/// Sharded Euclidean norm (see [`dot_sharded`]).
pub fn norm2_sharded<S: Scalar>(
    x: &[S],
    order: ReductionOrder,
    ranges: impl IntoIterator<Item = (usize, usize)>,
) -> S {
    dot_sharded(x, x, order, ranges).sqrt()
}

/// Cache of [`ShardPlan`]s keyed by `(matrix id, shard count)`.
/// Structure-only plans are precision-agnostic, so one entry serves
/// every scalar type viewing the same matrix.
#[derive(Debug, Default)]
pub struct ShardPlanCache {
    plans: Mutex<HashMap<(u64, usize), Arc<ShardPlan>>>,
}

impl ShardPlanCache {
    /// New empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `a` cut into `shards` blocks, building and caching
    /// it on first use.
    pub fn get<S: Scalar>(&self, a: &Csr<S>, shards: usize) -> Arc<ShardPlan> {
        let key = (a.id(), shards);
        let mut plans = self.plans.lock().unwrap();
        Arc::clone(
            plans
                .entry(key)
                .or_insert_with(|| Arc::new(ShardPlan::build(a, shards))),
        )
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn pseudo(n: usize, salt: u64) -> Vec<f64> {
        let mut s = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn banded(n: usize, salt: u64) -> Csr<f64> {
        let vals = pseudo(3 * n, salt);
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + vals[3 * i]);
            if i + 1 < n {
                coo.push(i, i + 1, vals[3 * i + 1]);
                coo.push(i + 1, i, vals[3 * i + 2]);
            }
        }
        coo.into_csr()
    }

    fn arrow(n: usize, salt: u64) -> Csr<f64> {
        let vals = pseudo(4 * n, salt);
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0 + vals[i]);
            if i > 0 {
                coo.push(0, i, vals[n + i]);
                coo.push(i, 0, vals[2 * n + i]);
            }
        }
        coo.into_csr()
    }

    fn matrices() -> Vec<Csr<f64>> {
        vec![banded(97, 1), banded(256, 2), arrow(101, 3), arrow(64, 4)]
    }

    #[test]
    fn plan_regions_tile_and_classify() {
        for a in matrices() {
            for shards in 1..=5 {
                let plan = ShardPlan::build(&a, shards);
                let mut next = 0;
                for g in &plan.regions {
                    assert_eq!(g.lo, next);
                    assert!(g.lo <= g.ilo && g.ilo <= g.ihi && g.ihi <= g.hi);
                    next = g.hi;
                    // Interior rows touch only owned columns.
                    for r in g.ilo..g.ihi {
                        for &c in &a.col_idx()[a.row_ptr()[r]..a.row_ptr()[r + 1]] {
                            assert!((c as usize) >= g.lo && (c as usize) < g.hi);
                        }
                    }
                    // Halo columns are sorted, deduped, remote, and the
                    // merged spans cover them exactly.
                    assert!(g.halo_cols.windows(2).all(|w| w[0] < w[1]));
                    let mut covered = Vec::new();
                    for s in &g.halo_spans {
                        for i in 0..s.len {
                            covered.push((s.col + i) as u32);
                            assert!(s.col + i < g.lo || s.col + i >= g.hi);
                        }
                    }
                    assert_eq!(covered, g.halo_cols);
                }
                assert_eq!(next, a.nrows());
                if shards == 1 {
                    assert_eq!(plan.halo_elems(), 0);
                }
            }
        }
    }

    #[test]
    fn sharded_spmv_bit_equals_reference() {
        for a in matrices() {
            let n = a.nrows();
            let x = pseudo(n, 7);
            let mut want = vec![0.0; n];
            a.spmv(&x, &mut want);
            for shards in 1..=5 {
                let plan = ShardPlan::build(&a, shards);
                let mut got = vec![0.0; n];
                let mut halo = Vec::new();
                plan.spmv(&a, &x, &mut got, &mut halo);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn sharded_residual_bit_equals_reference() {
        for a in matrices() {
            let n = a.nrows();
            let x = pseudo(n, 11);
            let b = pseudo(n, 13);
            let mut want = vec![0.0; n];
            a.residual(&b, &x, &mut want);
            for shards in 1..=5 {
                let plan = ShardPlan::build(&a, shards);
                let mut got = vec![0.0; n];
                let mut halo = Vec::new();
                plan.residual(&a, &b, &x, &mut got, &mut halo);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn store_row_kernels_bit_equal_store_spmv() {
        let a = banded(73, 5);
        let x = pseudo(73, 6);
        let b = pseudo(73, 8);
        for store in [
            MatrixStore::plain(a.clone()),
            MatrixStore::shadow(&a, mpgmres_scalar::Precision::Fp32),
            MatrixStore::shadow(&a, mpgmres_scalar::Precision::Fp16),
            MatrixStore::split_threshold(&a, 0.5),
        ] {
            let n = store.nrows();
            let mut want = vec![0.0; n];
            store.spmv(&x, &mut want);
            for cuts in [vec![(0, n)], vec![(0, 31), (31, 32), (32, n)]] {
                let mut got = vec![0.0; n];
                for &(lo, hi) in &cuts {
                    store_spmv_rows(&store, lo, hi, &x, &mut got[lo..hi]);
                }
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
            let mut want_r = vec![0.0; n];
            store.residual(&b, &x, &mut want_r);
            let mut got_r = vec![0.0; n];
            for (lo, hi) in [(0usize, 40usize), (40, n)] {
                store_residual_rows(&store, lo, hi, &b[lo..hi], &x, &mut got_r[lo..hi]);
            }
            assert_eq!(
                got_r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want_r.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sharded_dot_bit_equals_ordered_for_any_cuts() {
        let n = 1000;
        let x = pseudo(n, 21);
        let y = pseudo(n, 22);
        let orders = [
            ReductionOrder::Sequential,
            ReductionOrder::BlockedTree { block: 256 },
            ReductionOrder::BlockedTree { block: 37 },
            ReductionOrder::BlockedTree { block: 1 },
        ];
        let cut_sets: [&[(usize, usize)]; 4] = [
            &[(0, 1000)],
            &[(0, 500), (500, 1000)],
            &[(0, 129), (129, 130), (130, 999), (999, 1000)],
            &[(0, 37), (37, 512), (512, 1000)],
        ];
        for order in orders {
            let want = vec_ops::dot_ordered(&x, &y, order);
            let want_n = vec_ops::norm2_ordered(&x, order);
            for cuts in cut_sets {
                let d = dot_sharded(&x, &y, order, cuts.iter().copied());
                assert_eq!(d.to_bits(), want.to_bits());
                let m = norm2_sharded(&x, order, cuts.iter().copied());
                assert_eq!(m.to_bits(), want_n.to_bits());
            }
            for shards in 1..=7 {
                let d = dot_sharded(&x, &y, order, even_ranges(n, shards));
                assert_eq!(d.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn plan_cache_reuses_by_matrix_id_and_shards() {
        let a = banded(50, 9);
        let cache = ShardPlanCache::new();
        let p1 = cache.get(&a, 2);
        let p2 = cache.get(&a, 2);
        assert!(Arc::ptr_eq(&p1, &p2));
        let p3 = cache.get(&a, 3);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.len(), 2);
    }
}
