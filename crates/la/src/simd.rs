//! Blocked-tree partials four reduction blocks to a 256-bit register.
//!
//! A blocked-tree partial is a left-to-right `mul_add` chain down one
//! contiguous block, so a compiler cannot vectorize it: the next step
//! needs the previous sum. [`block_partials`] runs four such chains at
//! once, one per lane of an AVX register. Lane `l` holds block `l` of a
//! *quad* of consecutive blocks. Four consecutive rows of the four
//! blocks are loaded as 128-bit halves and unpacked (a 4x4 transpose),
//! so vector `r` holds row `i + r` of every block; four `vfmadd` steps
//! then take the rows in order. The block's last `block % 4` rows run
//! as a scalar continuation of each lane's own chain. Every lane
//! therefore performs exactly the operations of the scalar chain, in
//! the same order, and every partial keeps its bits.
//!
//! The kernel walks the quads in order and transposes each quad of the
//! other operand (`w` of a GEMV-T, `y` of a dot) once, for every column
//! of the call. Up to 7 columns take one pass, which transposes `w` in
//! registers. Wider calls keep the quad of `w` in a small lane-major
//! buffer and go four columns to a pass, the last pass taking the
//! remainder (4 to 7 columns), so no pass is narrower than four
//! columns. One- and two-column calls run four or two quads per pass,
//! so four chains are in flight either way.
//!
//! Quad-outer order keeps the buffer at one quad (8 KiB for 256-row
//! blocks). On a 2-vCPU x86-64 host it measured as fast as or faster
//! than transposing all of `w` up front and walking the columns
//! group-outer, also at n = 262,144 where the basis streams from L3.
//!
//! **Scope.** Only f64 columns against an f64 operand, on x86_64 with
//! AVX and FMA detected at run time, and not under Miri. Block sizes
//! below 4, blocks after the last full quad and a ragged last block
//! return to the caller's scalar body, which is also the oracle the
//! tests hold this path to. There is no switch: which path runs depends
//! only on the CPU and the element types.

/// Fill the partials of every leading quad of full blocks: `parts[k *
/// nbl + b]` (`nbl = parts.len() / ncols`) becomes column `k`'s
/// left-to-right `mul_add` chain `data[k * n + b * block + i] * w[b *
/// block + i]` over `i < block`, for the returned number of leading
/// blocks (a multiple of 4). The caller's scalar body computes the rest.
///
/// Returns 0 (and touches nothing) unless both element types are f64,
/// `block >= 4` and the CPU runs the lane kernel. For `L = S = f64` the
/// caller's widening must be the identity, as `cast::<f64, f64>` is.
#[inline(always)]
pub(crate) fn block_partials<L: 'static, S: 'static>(
    data: &[L],
    n: usize,
    ncols: usize,
    w: &[S],
    block: usize,
    parts: &mut [S],
) -> usize {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::any::TypeId;
        let f64s =
            TypeId::of::<L>() == TypeId::of::<f64>() && TypeId::of::<S>() == TypeId::of::<f64>();
        if !f64s || ncols == 0 || block < 4 || !lanes::available() {
            return 0;
        }
        let nbl = parts.len() / ncols;
        let quads = (w.len() / block).min(nbl) / 4;
        if quads == 0 {
            return 0;
        }
        let rows = 4 * quads * block;
        // No closures here: this body inlines into `fma::run` frames.
        let end = match (ncols - 1).checked_mul(n) {
            Some(k) => k.checked_add(rows),
            None => None,
        };
        assert!(
            matches!(end, Some(end) if end <= data.len()),
            "lane partials: columns out of range"
        );
        // SAFETY: `L` and `S` are both f64 (checked above), so the casts
        // reinterpret nothing. `rows <= w.len()` (quads count full
        // blocks of `w`) and the assert keep every read inside `w` and
        // `data`: the kernel reads rows `0..rows` of `w` and of each
        // column `k < ncols` at `data[k * n..]`. It writes
        // `parts[k * nbl + b]` for `k < ncols`, `b < 4 * quads <= nbl`,
        // all below `ncols * nbl <= parts.len()`. The CPU has AVX and
        // FMA (`available`), the kernel's target features.
        unsafe {
            lanes::kernel(
                data.as_ptr().cast(),
                n,
                ncols,
                w.as_ptr().cast(),
                block,
                quads,
                parts.as_mut_ptr().cast(),
                nbl,
            );
        }
        4 * quads
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        let _ = (data, n, ncols, w, block, parts);
        0
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod lanes {
    use std::arch::x86_64::*;

    /// Whether the CPU has AVX and FMA (std caches the check).
    #[inline]
    pub(super) fn available() -> bool {
        #[cfg(test)]
        {
            if crate::fma::tests::lanes_forced_off() {
                return false;
            }
        }
        is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma")
    }

    /// The lane kernel: every chain of [`super::block_partials`] over its
    /// `quads` leading quads, in one AVX+FMA frame. The helpers below
    /// inline here (they are `#[inline(always)]`, and their intrinsics
    /// then inline in this frame's target features); kept out of line
    /// itself so it stays one frame the disassembly check can find.
    ///
    /// # Safety
    /// The CPU must support AVX and FMA. Rows `0..4 * quads * block` of
    /// `w` and of every column `data + k * n`, `k < ncols`, must be
    /// readable, and `parts[k * nbl + b]` writable for `k < ncols`,
    /// `b < 4 * quads`.
    #[target_feature(enable = "avx,fma")]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn kernel(
        data: *const f64,
        n: usize,
        ncols: usize,
        w: *const f64,
        block: usize,
        quads: usize,
        parts: *mut f64,
        nbl: usize,
    ) {
        if ncols < 8 {
            // One pass takes every column, so `w` is transposed once
            // per quad in registers. One or two columns take four or
            // two quads per pass, so four chains are in flight.
            let wide = match ncols {
                1 => 4,
                2 => 2,
                _ => 1,
            };
            let mut q0 = 0;
            while q0 < quads {
                let qs = if quads - q0 >= wide { wide } else { 1 };
                macro_rules! pass {
                    ($g:literal, $q:literal) => {
                        pass::<$g, $q, false>(data, n, std::ptr::null(), w, block, q0, parts, nbl)
                    };
                }
                match (ncols, qs) {
                    (1, 4) => pass!(1, 4),
                    (1, _) => pass!(1, 1),
                    (2, 2) => pass!(2, 2),
                    (2, _) => pass!(2, 1),
                    (3, _) => pass!(3, 1),
                    (4, _) => pass!(4, 1),
                    (5, _) => pass!(5, 1),
                    (6, _) => pass!(6, 1),
                    (7, _) => pass!(7, 1),
                    _ => unreachable!("one pass takes 1 to 7 columns"),
                }
                q0 += qs;
            }
            return;
        }
        // Several passes share each quad of `w`, transposed once into
        // `wt` (lane-major: 16 values per row step).
        let steps = block / 4;
        let mut wt = vec![0.0f64; 16 * steps];
        for q0 in 0..quads {
            for s in 0..steps {
                let v = rows4(w.add(4 * q0 * block + 4 * s), block);
                for (r, &vr) in v.iter().enumerate() {
                    _mm256_storeu_pd(wt.as_mut_ptr().add(16 * s + 4 * r), vr);
                }
            }
            let mut c = 0;
            while c < ncols {
                let g = if ncols - c < 8 { ncols - c } else { 4 };
                let (col, out) = (data.add(c * n), parts.add(c * nbl));
                macro_rules! pass {
                    ($g:literal) => {
                        pass::<$g, 1, true>(col, n, wt.as_ptr(), w, block, q0, out, nbl)
                    };
                }
                match g {
                    4 => pass!(4),
                    5 => pass!(5),
                    6 => pass!(6),
                    7 => pass!(7),
                    _ => unreachable!("a pass takes 4 to 7 columns"),
                }
                c += g;
            }
        }
    }

    /// Rows `0..4` of the four `block`-long blocks at `p`, transposed:
    /// vector `r` holds row `r` of blocks 0, 1, 2 and 3.
    #[inline(always)]
    unsafe fn rows4(p: *const f64, block: usize) -> [__m256d; 4] {
        // [b0 r0 r1 | b2 r0 r1], [b1 r0 r1 | b3 r0 r1], then rows 2, 3.
        let lo02 = pair(p, p.add(2 * block));
        let lo13 = pair(p.add(block), p.add(3 * block));
        let hi02 = pair(p.add(2), p.add(2 * block + 2));
        let hi13 = pair(p.add(block + 2), p.add(3 * block + 2));
        [
            _mm256_unpacklo_pd(lo02, lo13),
            _mm256_unpackhi_pd(lo02, lo13),
            _mm256_unpacklo_pd(hi02, hi13),
            _mm256_unpackhi_pd(hi02, hi13),
        ]
    }

    /// Two rows from `a` in the low half, two from `b` in the high half.
    #[inline(always)]
    unsafe fn pair(a: *const f64, b: *const f64) -> __m256d {
        _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(_mm_loadu_pd(a)), _mm_loadu_pd(b))
    }

    /// Chains of `G` columns (`col + g * n`) over the `Q` quads from
    /// quad `q0`; writes partial `g * nbl + b` of `out`. `w` comes from
    /// the lane-major `wt` of quad `q0` when `BUF` (then `Q` is 1), else
    /// is transposed here. Each lane's block tail rows continue its
    /// chain in scalar.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass<const G: usize, const Q: usize, const BUF: bool>(
        col: *const f64,
        n: usize,
        wt: *const f64,
        w: *const f64,
        block: usize,
        q0: usize,
        out: *mut f64,
        nbl: usize,
    ) {
        let steps = block / 4;
        let mut acc = [[_mm256_setzero_pd(); Q]; G];
        for s in 0..steps {
            for q in 0..Q {
                let row = 4 * (q0 + q) * block + 4 * s;
                let wv = if BUF {
                    let ws = wt.add(16 * s);
                    let load = _mm256_loadu_pd;
                    [load(ws), load(ws.add(4)), load(ws.add(8)), load(ws.add(12))]
                } else {
                    rows4(w.add(row), block)
                };
                for g in 0..G {
                    let cv = rows4(col.add(g * n + row), block);
                    for r in 0..4 {
                        acc[g][q] = _mm256_fmadd_pd(cv[r], wv[r], acc[g][q]);
                    }
                }
            }
        }
        for g in 0..G {
            for q in 0..Q {
                let mut lane = [0.0f64; 4];
                _mm256_storeu_pd(lane.as_mut_ptr(), acc[g][q]);
                for (l, mut a) in lane.into_iter().enumerate() {
                    let b = 4 * (q0 + q) + l;
                    for i in b * block + 4 * steps..(b + 1) * block {
                        a = (*col.add(g * n + i)).mul_add(*w.add(i), a);
                    }
                    *out.add(g * nbl + b) = a;
                }
            }
        }
    }
}
