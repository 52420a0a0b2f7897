//! MatrixMarket coordinate-format IO.
//!
//! The paper's §V-G sweep uses SuiteSparse matrices distributed as `.mtx`
//! files. We ship surrogate generators (see `mpgmres-matgen`), but users
//! who have the real files can load them with [`read_matrix_market`] and
//! run the same experiments.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use mpgmres_scalar::Scalar;

use crate::coo::Coo;
use crate::csr::Csr;

/// Errors from parsing a MatrixMarket stream.
#[derive(Debug)]
pub enum MtxError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structured format violation with a human-readable description.
    Parse(String),
}

impl core::fmt::Display for MtxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "mtx io error: {e}"),
            MtxError::Parse(msg) => write!(f, "mtx parse error: {msg}"),
        }
    }
}

impl std::error::Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

fn parse_err<T>(msg: impl Into<String>) -> Result<T, MtxError> {
    Err(MtxError::Parse(msg.into()))
}

/// Most triplets [`read_matrix_market`] reserves before reading any
/// (16 MiB of `f64` triplets).
const MAX_PREALLOC: usize = 1 << 20;

/// Read a real coordinate MatrixMarket matrix from a reader.
///
/// Supports `general`, `symmetric`, and `skew-symmetric` symmetry classes
/// and `real`/`integer` fields (`pattern` entries get value 1.0).
/// Symmetric inputs are expanded to full storage.
///
/// # Errors
/// Fails closed, with no panic. The size line `nrows ncols nnz` gives
/// [`MtxError::Parse`] when:
/// - it does not hold exactly three non-negative integers;
/// - `nrows` or `ncols` exceeds `u32::MAX` (the CSR index type);
/// - `nnz` exceeds `nrows * ncols`;
/// - the stream then holds fewer or more than `nnz` entries;
/// - the `nrows + 1` CSR row pointers cannot be allocated.
///
/// The triplets are reserved for at most 2^20 entries up front and grow
/// with the entries actually read. The row pointers are the one
/// allocation the size line alone sizes (8 bytes a row, up to 32 GiB),
/// so they are reserved fallibly before assembly: a row count the
/// allocator refuses is a `Parse` error, not an abort. Where the system
/// overcommits memory the reservation can succeed, and the matrix is
/// then built with every row.
///
/// An entry outside the declared dimensions or a malformed line is a
/// `Parse` error too, and a read failure is [`MtxError::Io`].
pub fn read_matrix_market<S: Scalar, R: Read>(reader: R) -> Result<Csr<S>, MtxError> {
    let mut lines = BufReader::new(reader).lines();

    let header = match lines.next() {
        Some(l) => l?,
        None => return parse_err("empty stream"),
    };
    let h: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return parse_err(format!("bad header line: {header}"));
    }
    if h[2] != "coordinate" {
        return parse_err(format!("only coordinate format supported, got {}", h[2]));
    }
    let field = h[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return parse_err(format!("unsupported field type {field}"));
    }
    let symmetry = h[4].as_str();
    if !matches!(symmetry, "general" | "symmetric" | "skew-symmetric") {
        return parse_err(format!("unsupported symmetry {symmetry}"));
    }

    // Skip comments, find the size line.
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break t.to_string();
            }
            None => return parse_err("missing size line"),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return parse_err(format!("bad size line: {size_line}"));
    }
    let nrows: usize = dims[0]
        .parse()
        .map_err(|_| MtxError::Parse(format!("bad nrows {}", dims[0])))?;
    let ncols: usize = dims[1]
        .parse()
        .map_err(|_| MtxError::Parse(format!("bad ncols {}", dims[1])))?;
    let nnz: usize = dims[2]
        .parse()
        .map_err(|_| MtxError::Parse(format!("bad nnz {}", dims[2])))?;
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return parse_err(format!("dimensions exceed u32::MAX: {size_line}"));
    }
    if nrows.checked_mul(ncols).is_none_or(|cells| nnz > cells) {
        return parse_err(format!("more entries than matrix cells: {size_line}"));
    }

    // The size line is only a claim: reserve no more than a modest
    // prefix up front and let the entries that do arrive grow the rest.
    let expected = if symmetry == "general" {
        nnz
    } else {
        nnz.saturating_mul(2)
    };
    let mut coo = Coo::with_capacity(nrows, ncols, expected.min(MAX_PREALLOC));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| MtxError::Parse(format!("short entry line: {t}")))?
            .parse()
            .map_err(|_| MtxError::Parse(format!("bad row in: {t}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| MtxError::Parse(format!("short entry line: {t}")))?
            .parse()
            .map_err(|_| MtxError::Parse(format!("bad col in: {t}")))?;
        let v: f64 = if field == "pattern" {
            1.0
        } else {
            it.next()
                .ok_or_else(|| MtxError::Parse(format!("missing value in: {t}")))?
                .parse()
                .map_err(|_| MtxError::Parse(format!("bad value in: {t}")))?
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return parse_err(format!("entry out of range: {t}"));
        }
        if seen == nnz {
            return parse_err(format!("more than the {nnz} declared entries at: {t}"));
        }
        let (r, c) = (r - 1, c - 1);
        coo.push(r, c, S::from_f64(v));
        if r != c {
            match symmetry {
                "symmetric" => coo.push(c, r, S::from_f64(v)),
                "skew-symmetric" => coo.push(c, r, S::from_f64(-v)),
                _ => {}
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return parse_err(format!("expected {nnz} entries, found {seen}"));
    }
    if Vec::<usize>::new().try_reserve_exact(nrows + 1).is_err() {
        return parse_err(format!("cannot allocate row pointers for {nrows} rows"));
    }
    Ok(coo.into_csr())
}

/// Read from a file path.
pub fn read_matrix_market_file<S: Scalar>(path: impl AsRef<Path>) -> Result<Csr<S>, MtxError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(f)
}

/// Write a matrix as `general real coordinate` MatrixMarket.
pub fn write_matrix_market<S: Scalar, W: Write>(a: &Csr<S>, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by multiprec-gmres")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for r in 0..a.nrows() {
        for (c, v) in a.row(r) {
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v.to_f64())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 4\n\
                   1 1 2.0\n\
                   2 2 3.0\n\
                   3 3 4.0\n\
                   1 3 -1.5\n";
        let a: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 4);
        let mut y = [0.0; 3];
        a.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [0.5, 3.0, 4.0]);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   2 2 2\n\
                   1 1 2.0\n\
                   2 1 -1.0\n";
        let a: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn expands_skew_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 3.0\n";
        let a: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 2);
        let t = a.transpose();
        for (x, y) in a.vals().iter().zip(t.vals()) {
            assert_eq!(*x, -*y);
        }
    }

    #[test]
    fn pattern_entries_get_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 2\n\
                   1 1\n\
                   2 2\n";
        let a: Csr<f32> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.vals(), &[1.0f32, 1.0]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let a = Csr::from_raw(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            vec![1.25f64, -2.5, 3.75],
        );
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b: Csr<f64> = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_idx(), b.col_idx());
        assert_eq!(a.vals(), b.vals());
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(read_matrix_market::<f64, _>("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix array real general\n1 1 1\n1.0\n".as_bytes()
        )
        .is_err());
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n".as_bytes()
        )
        .is_err());
    }

    /// Each size-line claim fails closed as a `Parse` error, before
    /// anything is sized by it.
    fn size_line_error(size: &str) -> String {
        let read = |symmetry: &str| {
            let src =
                format!("%%MatrixMarket matrix coordinate real {symmetry}\n{size}\n1 1 1.0\n");
            match read_matrix_market::<f64, _>(src.as_bytes()) {
                Err(MtxError::Parse(msg)) => msg,
                other => panic!("{symmetry} {size}: expected a parse error, got {other:?}"),
            }
        };
        let msg = read("general");
        assert_eq!(read("symmetric"), msg);
        msg
    }

    #[test]
    fn rejects_dimensions_beyond_u32() {
        assert!(size_line_error("5000000000 1 1").contains("u32::MAX"));
        assert!(size_line_error("1 5000000000 1").contains("u32::MAX"));
    }

    #[test]
    fn rejects_more_entries_than_cells() {
        assert!(size_line_error("2 2 100000000000").contains("more entries than"));
        assert!(size_line_error("2 2 5").contains("more entries than"));
        // The largest legal claim still reads (and then finds the
        // stream short), allocating nothing sized by the claim.
        assert!(
            size_line_error("4294967295 4294967295 18446744065119617025")
                .contains("expected 18446744065119617025 entries, found 1")
        );
    }

    #[test]
    fn rejects_entries_beyond_the_declared_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n";
        match read_matrix_market::<f64, _>(src.as_bytes()) {
            Err(MtxError::Parse(msg)) => assert!(msg.contains("more than the 1 declared")),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_counts_and_ranges() {
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(short.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(oob.as_bytes()).is_err());
        let zero = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(zero.as_bytes()).is_err());
    }
}
