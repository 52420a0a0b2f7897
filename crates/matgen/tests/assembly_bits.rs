//! `Coo` assembly against a push-order oracle and against the sort-based
//! assembly it replaced, bit for bit.
//!
//! `Coo::into_csr` buckets triplets by row and sums each key's
//! contributions left to right in push order. This file keeps a
//! push-order oracle, a copy of the sort-based assembly used before (one
//! unstable sort of all triplets, then each key summed in the order the
//! sort leaves it), and copies of the generators' triplet streams, and
//! checks:
//!
//! - every generator's matrix equals the push-order oracle of its stream:
//!   the registry problems, the galeri stencils, anisotropic Q1, the
//!   patchy-coefficient Laplacian and all ten Table III surrogates;
//! - where no key's sum depends on the order of its contributions, which
//!   is every generator but the variable-coefficient FEM streams
//!   (`hood`, `patchy`), the matrix also equals the sort-based assembly,
//!   so those generators kept the bits they had before row bucketing;
//! - random triplet streams (out of order, up to six pushes per key, ±0,
//!   NaN, ±Inf, empty rows, one dense row) assemble to the push-order
//!   oracle, and to the sort-based assembly whenever no key's sum
//!   depends on its order.

use std::collections::BTreeMap;

use mpgmres_la::coo::Coo;
use mpgmres_la::csr::Csr;
use mpgmres_matgen::fem::{q1_element_stiffness, q1_laplacian_2d};
use mpgmres_matgen::galeri;
use mpgmres_matgen::registry::{PaperProblem, BENTPIPE_PECLET, STRETCH_FACTOR, UNIFLOW_PECLET};
use mpgmres_matgen::suitesparse::{
    self, patchy_coefficient_laplacian, random_diagonal_scaling, shift_diagonal, TABLE3,
};
use mpgmres_scalar::Scalar;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Triplet<S> = (u32, u32, S);

/// A matrix's dimensions and its triplets in push order.
struct Stream<S> {
    nrows: usize,
    ncols: usize,
    entries: Vec<Triplet<S>>,
}

impl<S: Scalar> Stream<S> {
    fn new(nrows: usize, ncols: usize) -> Self {
        Stream {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    fn push(&mut self, r: usize, c: usize, v: S) {
        self.entries.push((r as u32, c as u32, v));
    }

    fn coo(&self) -> Coo<S> {
        let mut coo = Coo::new(self.nrows, self.ncols);
        for &(r, c, v) in &self.entries {
            coo.push(r as usize, c as usize, v);
        }
        coo
    }
}

// ---- the sort-based assembly and the push-order oracle ----------------

/// The assembly `Coo::into_csr_dropping` used before row bucketing: an
/// unstable sort by `(row, col)`, then each key summed in the order the
/// sort leaves it. That order is unspecified, so this is a reference only
/// for streams in which no key's sum depends on its order.
fn sorted_assembly<S: Scalar>(s: &Stream<S>, drop_zeros: bool) -> Csr<S> {
    let mut entries = s.entries.clone();
    entries.sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
    let mut row_ptr = vec![0usize; s.nrows + 1];
    let mut col_idx: Vec<u32> = Vec::with_capacity(entries.len());
    let mut vals: Vec<S> = Vec::with_capacity(entries.len());
    let mut it = entries.iter().copied().peekable();
    while let Some((r, c, mut v)) = it.next() {
        while let Some(&(r2, c2, v2)) = it.peek() {
            if r2 == r && c2 == c {
                v += v2;
                it.next();
            } else {
                break;
            }
        }
        if drop_zeros && v == S::zero() {
            continue;
        }
        row_ptr[r as usize + 1] += 1;
        col_idx.push(c);
        vals.push(v);
    }
    for i in 0..s.nrows {
        row_ptr[i + 1] += row_ptr[i];
    }
    Csr::from_raw(s.nrows, s.ncols, row_ptr, col_idx, vals)
}

/// Each key's contributions, in push order.
fn by_key<S: Scalar>(s: &Stream<S>) -> BTreeMap<(u32, u32), Vec<S>> {
    let mut keys: BTreeMap<(u32, u32), Vec<S>> = BTreeMap::new();
    for &(r, c, v) in &s.entries {
        keys.entry((r, c)).or_default().push(v);
    }
    keys
}

/// Every key summed left to right in push order.
fn push_order_assembly<S: Scalar>(s: &Stream<S>, drop_zeros: bool) -> Csr<S> {
    let mut row_ptr = vec![0usize; s.nrows + 1];
    let (mut col_idx, mut vals) = (Vec::new(), Vec::new());
    for ((r, c), vs) in by_key(s) {
        let v = vs[1..].iter().fold(vs[0], |acc, &x| acc + x);
        if drop_zeros && v == S::zero() {
            continue;
        }
        row_ptr[r as usize + 1] += 1;
        col_idx.push(c);
        vals.push(v);
    }
    for i in 0..s.nrows {
        row_ptr[i + 1] += row_ptr[i];
    }
    Csr::from_raw(s.nrows, s.ncols, row_ptr, col_idx, vals)
}

/// Whether some key's sum can depend on the order of its contributions:
/// three or more that are not all one non-NaN bit pattern, or two NaNs.
fn order_dependent<S: Scalar>(s: &Stream<S>) -> bool {
    by_key(s).values().any(|vs| {
        let v: Vec<f64> = vs.iter().map(|x| x.to_f64()).collect();
        match v.len() {
            0 | 1 => false,
            2 => v[0].is_nan() && v[1].is_nan(),
            _ => v
                .iter()
                .any(|x| x.is_nan() || x.to_bits() != v[0].to_bits()),
        }
    })
}

/// Value bits (exact widening to f64), every NaN folded to one: IEEE 754
/// leaves a NaN result's sign and payload to the implementation.
fn bits<S: Scalar>(xs: &[S]) -> Vec<u64> {
    xs.iter()
        .map(|x| x.to_f64())
        .map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
        .collect()
}

fn same<S: Scalar>(what: &str, got: &Csr<S>, want: &Csr<S>) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}: shape"
    );
    assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
    assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
    assert_eq!(bits(got.vals()), bits(want.vals()), "{what}: values");
}

// ---- the generators' triplet streams ----------------------------------

/// `galeri::convection_diffusion2d`'s stream.
fn cd2d(nx: usize, ny: usize, velocity: impl Fn(f64, f64) -> (f64, f64)) -> Stream<f64> {
    let mut s = Stream::new(nx * ny, nx * ny);
    let h = 1.0 / (nx as f64 + 1.0);
    let id = |i: usize, j: usize| j * nx + i;
    for j in 0..ny {
        for i in 0..nx {
            let me = id(i, j);
            let (vx, vy) = velocity((i as f64 + 1.0) * h, (j as f64 + 1.0) * h);
            let (ce, cw) = (-1.0 + 0.5 * h * vx, -1.0 - 0.5 * h * vx);
            let (cn, cs) = (-1.0 + 0.5 * h * vy, -1.0 - 0.5 * h * vy);
            s.push(me, me, 4.0);
            if i > 0 {
                s.push(me, id(i - 1, j), cw);
            }
            if i + 1 < nx {
                s.push(me, id(i + 1, j), ce);
            }
            if j > 0 {
                s.push(me, id(i, j - 1), cs);
            }
            if j + 1 < ny {
                s.push(me, id(i, j + 1), cn);
            }
        }
    }
    s
}

/// `galeri::laplace2d`'s stream: the 2D stencil without wind.
fn laplace2d(nx: usize, ny: usize) -> Stream<f64> {
    cd2d(nx, ny, |_, _| (0.0, 0.0))
}

/// `suitesparse::convection_diffusion3d`'s stream (`laplace3d` is the
/// windless, unit-diffusion case).
fn cd3d(nx: usize, v: (f64, f64, f64), diffusion: f64) -> Stream<f64> {
    let n = nx * nx * nx;
    let mut s = Stream::new(n, n);
    let h = 1.0 / (nx as f64 + 1.0);
    let pe = 0.5 * h / diffusion;
    let id = |i: usize, j: usize, k: usize| (k * nx + j) * nx + i;
    for k in 0..nx {
        for j in 0..nx {
            for i in 0..nx {
                let me = id(i, j, k);
                s.push(me, me, 6.0);
                if i > 0 {
                    s.push(me, id(i - 1, j, k), -1.0 - pe * v.0);
                }
                if i + 1 < nx {
                    s.push(me, id(i + 1, j, k), -1.0 + pe * v.0);
                }
                if j > 0 {
                    s.push(me, id(i, j - 1, k), -1.0 - pe * v.1);
                }
                if j + 1 < nx {
                    s.push(me, id(i, j + 1, k), -1.0 + pe * v.1);
                }
                if k > 0 {
                    s.push(me, id(i, j, k - 1), -1.0 - pe * v.2);
                }
                if k + 1 < nx {
                    s.push(me, id(i, j, k + 1), -1.0 + pe * v.2);
                }
            }
        }
    }
    s
}

/// The Q1 element loop of `fem::q1_laplacian_2d` and
/// `patchy_coefficient_laplacian`: element `(ei, ej)` adds
/// `coef(ei, ej) * k[a][b]` between its interior corners (or `k[a][b]`
/// itself when `coef` is `None`).
fn q1_stream(
    nx: usize,
    ny: usize,
    k: [[f64; 4]; 4],
    coef: Option<&dyn Fn(usize, usize) -> f64>,
) -> Stream<f64> {
    let mut s = Stream::new(nx * ny, nx * ny);
    let node = |i: isize, j: isize| {
        (i >= 0 && j >= 0 && i < nx as isize && j < ny as isize)
            .then(|| j as usize * nx + i as usize)
    };
    for ej in 0..=ny as isize {
        for ei in 0..=nx as isize {
            let corners = [
                node(ei - 1, ej - 1),
                node(ei, ej - 1),
                node(ei, ej),
                node(ei - 1, ej),
            ];
            for (a, ca) in corners.iter().enumerate() {
                let Some(ra) = *ca else { continue };
                for (b, cb) in corners.iter().enumerate() {
                    let Some(rb) = *cb else { continue };
                    let v = match coef {
                        Some(c) => c(ei as usize, ej as usize) * k[a][b],
                        None => k[a][b],
                    };
                    s.push(ra, rb, v);
                }
            }
        }
    }
    s
}

fn q1(nx: usize, ny: usize, hx: f64, stretch: f64) -> Stream<f64> {
    q1_stream(nx, ny, q1_element_stiffness(hx, stretch * hx), None)
}

/// `patchy_coefficient_laplacian`'s stream.
fn patchy(nx: usize, seed: u64, contrast: f64) -> Stream<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let patches = nx.div_ceil(8) + 1;
    let coefs: Vec<f64> = (0..patches * patches)
        .map(|_| contrast.powf(rng.gen_range(0.0f64..1.0)))
        .collect();
    let coef = |ei: usize, ej: usize| {
        coefs[(ej / 8).min(patches - 1) * patches + (ei / 8).min(patches - 1)]
    };
    q1_stream(nx, nx, q1_element_stiffness(1.0, 1.0), Some(&coef))
}

fn uniflow(nx: usize, peclet: f64) -> Stream<f64> {
    let conv = 2.0 * peclet / (1.0 / (nx as f64 + 1.0));
    cd2d(nx, nx, |_, _| (conv, 0.0))
}

fn bentpipe(nx: usize, peclet: f64) -> Stream<f64> {
    let conv = 2.0 * peclet / (1.0 / (nx as f64 + 1.0));
    cd2d(nx, nx, |x, y| {
        (
            conv * 4.0 * x * (x - 1.0) * (1.0 - 2.0 * y),
            -conv * 4.0 * y * (y - 1.0) * (1.0 - 2.0 * x),
        )
    })
}

/// `A - factor * lam_min(Laplacian)` for the barely indefinite surrogates.
fn indefinite_shift(nx: usize, dim_factor: f64, factor: f64) -> f64 {
    let lam_min = dim_factor
        * (std::f64::consts::PI / (2.0 * (nx as f64 + 1.0)))
            .sin()
            .powi(2);
    -factor * lam_min
}

/// A Table III surrogate's stream and the pattern-preserving step
/// `suitesparse::surrogate` applies after assembly.
#[allow(clippy::type_complexity)]
fn surrogate(name: &str, scale: f64) -> (Stream<f64>, Box<dyn Fn(Csr<f64>) -> Csr<f64>>) {
    let dim = |side: usize, min: usize| ((side as f64 * scale) as usize).max(min);
    let keep: Box<dyn Fn(Csr<f64>) -> Csr<f64>> = Box::new(|a| a);
    match name {
        "atmosmodj" => (cd3d(dim(108, 10), (0.4, 0.2, 1.0), 1.0), keep),
        "Dubcova3" => (q1(dim(383, 12), dim(383, 12), 1.0, 2.0), keep),
        "stomach" => (
            cd3d(dim(59, 8), (1.0, 0.5, 0.25), 1.0),
            Box::new(|a| shift_diagonal(a, 0.3)),
        ),
        "SiO2" => {
            let nx = dim(394, 16);
            let shift = indefinite_shift(nx, 8.0, 3.5);
            (
                laplace2d(nx, nx),
                Box::new(move |a| shift_diagonal(a, shift)),
            )
        }
        "parabolic_fem" => (q1(dim(725, 16), dim(725, 16), 1.0, 120.0), keep),
        "lung2" => (
            cd2d(dim(330, 12), dim(330, 12), |x, y| (3.0 * x, -2.0 * y)),
            Box::new(|a| random_diagonal_scaling(a, 0x1_0001, 5.0)),
        ),
        "hood" => (patchy(dim(470, 16), 0xB00D, 300.0), keep),
        "cfd2" => (laplace2d(dim(351, 14), dim(351, 14)), keep),
        "Transport" => (cd3d(dim(117, 10), (2.0, 1.0, 0.5), 1.0), keep),
        "filter3D" => {
            let nx = dim(47, 8);
            let shift = indefinite_shift(nx, 12.0, 2.2);
            (
                cd3d(nx, (0.0, 0.0, 0.0), 1.0),
                Box::new(move |a| shift_diagonal(a, shift)),
            )
        }
        other => panic!("no stream for Table III matrix {other:?}"),
    }
}

/// The generator's matrix equals the push-order oracle of its stream,
/// and the sort-based assembly too unless some key's sum depends on its
/// order, which it does exactly when `order_dependent`.
fn check(what: &str, got: Csr<f64>, stream: &Stream<f64>, dependent: bool) {
    assert_eq!(
        order_dependent(stream),
        dependent,
        "{what}: order dependence"
    );
    same(what, &got, &push_order_assembly(stream, false));
    if !dependent {
        same(what, &got, &sorted_assembly(stream, false));
    }
}

#[test]
fn registry_problems_match_both_assemblies() {
    for nx in [5, 8, 12, 33] {
        for p in PaperProblem::ALL {
            let stream = match p {
                PaperProblem::Laplace3D150 | PaperProblem::Laplace3D200 => {
                    cd3d(nx, (0.0, 0.0, 0.0), 1.0)
                }
                PaperProblem::UniFlow2D2500 => uniflow(nx, UNIFLOW_PECLET),
                PaperProblem::BentPipe2D1500 => bentpipe(nx, BENTPIPE_PECLET),
                PaperProblem::Stretched2D1500 => q1(nx, nx, 1.0, STRETCH_FACTOR),
            };
            check(
                &format!("{} nx={nx}", p.name()),
                p.generate_at(nx),
                &stream,
                false,
            );
        }
    }
    check(
        "stretched2d(96)",
        galeri::stretched2d(96, STRETCH_FACTOR),
        &q1(96, 96, 1.0, STRETCH_FACTOR),
        false,
    );
    check(
        "uniflow2d(160)",
        galeri::uniflow2d(160, UNIFLOW_PECLET),
        &uniflow(160, UNIFLOW_PECLET),
        false,
    );
}

#[test]
fn galeri_and_fem_generators_match_both_assemblies() {
    for (nx, ny) in [(1, 1), (7, 5), (40, 40)] {
        check(
            &format!("laplace2d({nx}, {ny})"),
            galeri::laplace2d(nx, ny),
            &laplace2d(nx, ny),
            false,
        );
    }
    check(
        "laplace3d(9)",
        galeri::laplace3d(9),
        &cd3d(9, (0.0, 0.0, 0.0), 1.0),
        false,
    );
    let wind = |x: f64, y: f64| (5.0 * y - 1.0, x * x);
    check(
        "convection_diffusion2d",
        galeri::convection_diffusion2d(11, 7, wind),
        &cd2d(11, 7, wind),
        false,
    );
    check(
        "convection_diffusion3d",
        suitesparse::convection_diffusion3d(6, |_, _, _| (0.3, -2.0, 1.5), 0.7),
        &cd3d(6, (0.3, -2.0, 1.5), 0.7),
        false,
    );
    // Anisotropic Q1: stretched cells, non-unit width, nx != ny. Each
    // key still gets at most two distinct contributions.
    for (nx, ny, hx, stretch) in [(9, 6, 0.5, 3.0), (13, 17, 2.0, 0.01), (1, 4, 1.0, 7.0)] {
        check(
            &format!("q1_laplacian_2d({nx}, {ny}, {hx}, {stretch})"),
            q1_laplacian_2d(nx, ny, hx, stretch),
            &q1(nx, ny, hx, stretch),
            false,
        );
    }
    // Variable coefficients: four differing diagonal contributions, so
    // only the push-order oracle fixes the bits.
    for (nx, seed, contrast) in [(20, 7, 50.0), (33, 0xB00D, 300.0)] {
        check(
            &format!("patchy({nx}, {seed}, {contrast})"),
            patchy_coefficient_laplacian(nx, seed, contrast),
            &patchy(nx, seed, contrast),
            true,
        );
    }
}

#[test]
fn table3_surrogates_match_both_assemblies() {
    for scale in [0.02, 0.05] {
        for m in TABLE3.iter() {
            let (stream, post) = surrogate(m.name, scale);
            let what = format!("{} scale={scale}", m.name);
            let dependent = m.name == "hood";
            assert_eq!(
                order_dependent(&stream),
                dependent,
                "{what}: order dependence"
            );
            let got = suitesparse::surrogate(m.name, scale);
            same(&what, &got, &post(push_order_assembly(&stream, false)));
            if !dependent {
                same(&what, &got, &post(sorted_assembly(&stream, false)));
            }
        }
    }
}

// ---- random streams ----------------------------------------------------

/// A 64-bit LCG step.
fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *s >> 11
}

/// A value from a palette with ±0, NaN, ±Inf, a subnormal, small
/// integers (so sums cancel to zero) and random fractions.
fn value(s: &mut u64, allow_nan: bool) -> f64 {
    match next(s) % 16 {
        0 => 0.0,
        1 => -0.0,
        2 if allow_nan => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::from_bits(0x000a_bcde_f012_3456),
        6..=9 => (next(s) % 5) as f64 - 2.0,
        _ => next(s) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
    }
}

/// A shuffled triplet stream over an `nrows x ncols` matrix: every
/// fifth row (from an offset) empty, row `dense` holding every column
/// (longer than the insertion-sort cutoff when `ncols > 32`), and each
/// key pushed 1 to 6 times. With `order_free`, a key's contributions
/// are either at most two (never two NaNs) or all one non-NaN value, so
/// no key's sum depends on its order.
fn random_stream(seed: u64, nrows: usize, ncols: usize, order_free: bool) -> Stream<f64> {
    let mut s = seed | 1;
    let mut out = Stream::new(nrows, ncols);
    let empty = next(&mut s) as usize % 5;
    let dense = next(&mut s) as usize % nrows;
    for r in 0..nrows {
        if r % 5 == empty && r != dense {
            continue;
        }
        for c in 0..ncols {
            if r != dense && !next(&mut s).is_multiple_of(4) {
                continue;
            }
            let copies = 1 + next(&mut s) as usize % 6;
            let identical = next(&mut s).is_multiple_of(2);
            let first = value(&mut s, !(order_free && identical));
            for k in 0..copies {
                let v = if k == 0 || identical {
                    first
                } else if order_free && k >= 2 {
                    break;
                } else {
                    value(&mut s, !(order_free && first.is_nan()))
                };
                out.push(r, c, v);
            }
        }
    }
    // Fisher-Yates: keys interleave, each key's copies keep some order.
    for i in (1..out.entries.len()).rev() {
        let j = next(&mut s) as usize % (i + 1);
        out.entries.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random streams against the push-order oracle, and against the
    /// sort-based assembly where the order of no key's sum matters.
    #[test]
    fn coo_matches_push_order_and_sorted_paths(
        seed in 0u64..u64::MAX,
        nrows in 1usize..24,
        ncols in 1usize..72,
        order_free in 0u8..2,
    ) {
        let stream = random_stream(seed, nrows, ncols, order_free == 1);
        let dependent = order_dependent(&stream);
        prop_assert!(order_free == 0 || !dependent);
        for drop_zeros in [false, true] {
            let got = stream.coo().into_csr_dropping(drop_zeros);
            let what = format!("seed={seed} {nrows}x{ncols} drop={drop_zeros}");
            same(&what, &got, &push_order_assembly(&stream, drop_zeros));
            if !dependent {
                same(&what, &got, &sorted_assembly(&stream, drop_zeros));
            }
        }
    }
}

/// A key whose sum depends on the order of its contributions sums in
/// push order: pushed forwards it gives the forward sum, pushed
/// backwards the backward one.
#[test]
fn order_dependent_key_sums_in_push_order() {
    let terms = [1e-16, 1e-16, 1.0, -1.0];
    let forward = terms.iter().fold(0.0, |acc, &x| acc + x);
    let backward = terms.iter().rev().fold(0.0, |acc, &x| acc + x);
    assert_ne!(forward, backward, "the sum must depend on the order");
    for (order, want) in [(terms, forward), (rev(terms), backward)] {
        let mut s = Stream::new(2, 2);
        s.push(0, 1, 2.0);
        for v in order {
            s.push(1, 0, v);
        }
        assert!(order_dependent(&s));
        let a = s.coo().into_csr();
        same("order-dependent key", &a, &push_order_assembly(&s, false));
        assert_eq!(a.vals()[1].to_bits(), want.to_bits());
    }
}

fn rev<const N: usize>(mut xs: [f64; N]) -> [f64; N] {
    xs.reverse();
    xs
}
