//! Q1 bilinear finite-element assembly on structured rectangle meshes.
//!
//! Used for the `Stretched2D` problem: the 9-point stencil (nnz pattern
//! matches the paper's Stretched2D1500 exactly) comes from bilinear FEM on
//! a grid whose cells have aspect ratio `hy / hx = stretch`. The condition
//! number grows with the stretch factor, which is what makes the problem
//! unsolvable by unpreconditioned GMRES(50) (§V-C).

use mpgmres_la::coo::Coo;
use mpgmres_la::csr::Csr;

/// 4x4 element stiffness matrix for the Laplacian on an `hx x hy`
/// rectangle, bilinear elements, nodes ordered counterclockwise
/// `(0,0), (hx,0), (hx,hy), (0,hy)`.
pub fn q1_element_stiffness(hx: f64, hy: f64) -> [[f64; 4]; 4] {
    let rx = hy / hx / 6.0;
    let ry = hx / hy / 6.0;
    // d/dx part: nodes differing in x couple with -2, in y with +1.
    let kx = [
        [2.0, -2.0, -1.0, 1.0],
        [-2.0, 2.0, 1.0, -1.0],
        [-1.0, 1.0, 2.0, -2.0],
        [1.0, -1.0, -2.0, 2.0],
    ];
    let ky = [
        [2.0, 1.0, -1.0, -2.0],
        [1.0, 2.0, -2.0, -1.0],
        [-1.0, -2.0, 2.0, 1.0],
        [-2.0, -1.0, 1.0, 2.0],
    ];
    let mut k = [[0.0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            k[i][j] = rx * kx[i][j] + ry * ky[i][j];
        }
    }
    k
}

/// Assemble the Q1 FEM Laplacian on an `(nx+1) x (ny+1)`-cell unit-square
/// mesh with Dirichlet boundary eliminated, leaving `nx * ny` interior
/// unknowns. Cell dimensions are `hx = 1` and `hy = stretch * hx`
/// (relative units; a global scale does not change the spectrum shape).
pub fn q1_laplacian_2d(nx: usize, ny: usize, hx: f64, stretch: f64) -> Csr<f64> {
    assert!(nx > 0 && ny > 0);
    assert!(stretch > 0.0 && hx > 0.0);
    let hy = stretch * hx;
    let k = q1_element_stiffness(hx, hy);
    let n = nx * ny;
    // About one element per node, each adding up to 4 x 4 triplets.
    let mut coo = Coo::with_capacity(n, n, 16 * n);
    // Interior grid nodes are (i, j), 0 <= i < nx, 0 <= j < ny; elements
    // span cells between grid lines; element (ei, ej) with 0 <= ei <= nx,
    // 0 <= ej <= ny touches interior nodes among its 4 corners.
    let node = |i: isize, j: isize| -> Option<usize> {
        if i < 0 || j < 0 || i >= nx as isize || j >= ny as isize {
            None
        } else {
            Some(j as usize * nx + i as usize)
        }
    };
    for ej in 0..=ny as isize {
        for ei in 0..=nx as isize {
            // Corner interior-node indices in the element's CCW local order:
            // local 0: (ei-1, ej-1), 1: (ei, ej-1), 2: (ei, ej), 3: (ei-1, ej).
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
                    coo.push(ra, rb, k[a][b]);
                }
            }
        }
    }
    coo.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_stiffness_rows_sum_to_zero() {
        // Constants are in the kernel of the element Laplacian.
        for &(hx, hy) in &[(1.0, 1.0), (1.0, 4.0), (0.25, 1.0)] {
            let k = q1_element_stiffness(hx, hy);
            for row in &k {
                let s: f64 = row.iter().sum();
                assert!(s.abs() < 1e-14, "row sum {s} for ({hx},{hy})");
            }
        }
    }

    #[test]
    fn element_stiffness_symmetric_positive_diagonal() {
        let k = q1_element_stiffness(1.0, 3.0);
        for i in 0..4 {
            assert!(k[i][i] > 0.0);
            for j in 0..4 {
                assert!((k[i][j] - k[j][i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn isotropic_assembly_gives_classic_nine_point_stencil() {
        // On a square mesh the interior stencil is 1/3 * [[-1,-1,-1],
        // [-1, 8,-1], [-1,-1,-1]].
        let nx = 5;
        let a = q1_laplacian_2d(nx, nx, 1.0, 1.0);
        let center = 2 * nx + 2; // node (2,2), fully interior
        let mut entries: Vec<(usize, f64)> = a.row(center).collect();
        entries.sort_by_key(|&(c, _)| c);
        assert_eq!(entries.len(), 9);
        for (c, v) in entries {
            if c == center {
                assert!((v - 8.0 / 3.0).abs() < 1e-14, "center {v}");
            } else {
                assert!((v + 1.0 / 3.0).abs() < 1e-14, "neighbor {v}");
            }
        }
    }

    #[test]
    fn assembled_matrix_is_symmetric() {
        let a = q1_laplacian_2d(6, 4, 1.0, 5.0);
        assert!(a.is_symmetric(1e-13));
    }

    #[test]
    fn quadratic_form_positive_on_random_vectors() {
        // SPD check: x^T A x > 0 for a few non-zero vectors.
        let a = q1_laplacian_2d(5, 5, 1.0, 7.0);
        let n = a.nrows();
        for seed in 1..5u64 {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * seed * 2654435761 % 1000) as f64 / 500.0) - 1.0)
                .collect();
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            let q: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
            assert!(q > 0.0, "quadratic form not positive: {q}");
        }
    }

    #[test]
    fn stretching_worsens_conditioning_proxy() {
        // Diagonal/off-diagonal ratio degrades as stretch grows, a cheap
        // proxy for the condition number blowup.
        let a1 = q1_laplacian_2d(8, 8, 1.0, 1.0);
        let a8 = q1_laplacian_2d(8, 8, 1.0, 16.0);
        let extreme = |a: &mpgmres_la::csr::Csr<f64>| -> f64 {
            // max |offdiag| / min diag as crude anisotropy measure
            let mut dmin = f64::MAX;
            let mut omax: f64 = 0.0;
            for r in 0..a.nrows() {
                for (c, v) in a.row(r) {
                    if c == r {
                        dmin = dmin.min(v);
                    } else {
                        omax = omax.max(v.abs());
                    }
                }
            }
            omax / dmin
        };
        assert!(extreme(&a8) > 2.0 * extreme(&a1));
    }
}
