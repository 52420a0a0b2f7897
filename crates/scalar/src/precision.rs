//! Runtime precision descriptor used for reporting and memory pricing.

use core::fmt;

/// The three precisions the paper's solver family spans.
///
/// `Fp64`/`Fp32` are the paper's working precisions; `Fp16` is the
/// future-work third level (software-emulated here, see
/// [`crate::Half`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE binary16.
    Fp16,
    /// IEEE binary32 ("single", `float`).
    Fp32,
    /// IEEE binary64 ("double").
    Fp64,
}

impl Precision {
    /// Storage bytes per element; the unit the bandwidth model charges.
    #[inline]
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
            Precision::Fp64 => 8,
        }
    }

    /// Machine epsilon of the precision.
    #[inline]
    pub const fn eps(self) -> f64 {
        match self {
            Precision::Fp16 => 9.765_625e-4,              // 2^-10
            Precision::Fp32 => 1.192_092_9e-7,            // 2^-23
            Precision::Fp64 => 2.220_446_049_250_313e-16, // 2^-52
        }
    }

    /// Short lowercase name as used in experiment output.
    #[inline]
    pub const fn name(self) -> &'static str {
        match self {
            Precision::Fp16 => "fp16",
            Precision::Fp32 => "fp32",
            Precision::Fp64 => "fp64",
        }
    }

    /// All precisions, narrowest first.
    pub const ALL: [Precision; 3] = [Precision::Fp16, Precision::Fp32, Precision::Fp64];

    /// The next wider precision, if any.
    #[inline]
    pub const fn wider(self) -> Option<Precision> {
        match self {
            Precision::Fp16 => Some(Precision::Fp32),
            Precision::Fp32 => Some(Precision::Fp64),
            Precision::Fp64 => None,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Value-precision descriptor of a matrix *storage* path.
///
/// A solver's working precision `S` and the precision its matrix values
/// are stored in are independent axes (the cuSPARSE fp32-shadow pattern:
/// compute in fp64, stream fp32 matrix values). `PrecisionTag` names the
/// storage side: the cost model prices a store's value stream by it, and
/// the serving layer groups requests by it.
///
/// [`PrecisionTag::code`] packs the tag into a `u8` for cheap inclusion
/// in a hashable key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrecisionTag {
    /// All values stored in one precision.
    Uniform(Precision),
    /// Two-bucket split storage: large-magnitude values in `hi`,
    /// the rest in `lo`.
    Split {
        /// Precision of the large-magnitude bucket.
        hi: Precision,
        /// Precision of the small-magnitude bucket.
        lo: Precision,
    },
}

impl PrecisionTag {
    /// Dense `u8` encoding for hashing into keys.
    ///
    /// Uniform tags map to `1 + precision` (1..=3); split tags map to
    /// `16 + 4*hi + lo` so every (hi, lo) pair is distinct from every
    /// uniform code. Code `0` is reserved for "untagged" keys.
    #[inline]
    pub const fn code(self) -> u8 {
        const fn ord(p: Precision) -> u8 {
            match p {
                Precision::Fp16 => 0,
                Precision::Fp32 => 1,
                Precision::Fp64 => 2,
            }
        }
        match self {
            PrecisionTag::Uniform(p) => 1 + ord(p),
            PrecisionTag::Split { hi, lo } => 16 + 4 * ord(hi) + ord(lo),
        }
    }

    /// The precision that dominates the value-byte traffic.
    ///
    /// For a split store this is the `lo` bucket: the split exists
    /// because most entries land there, so the bandwidth model's
    /// efficiency lookup follows it.
    #[inline]
    pub const fn dominant(self) -> Precision {
        match self {
            PrecisionTag::Uniform(p) => p,
            PrecisionTag::Split { lo, .. } => lo,
        }
    }
}

impl fmt::Display for PrecisionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecisionTag::Uniform(p) => f.write_str(p.name()),
            PrecisionTag::Split { hi, lo } => write!(f, "{}/{}", hi.name(), lo.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_width() {
        assert!(Precision::Fp16 < Precision::Fp32);
        assert!(Precision::Fp32 < Precision::Fp64);
    }

    #[test]
    fn widening_chain() {
        assert_eq!(Precision::Fp16.wider(), Some(Precision::Fp32));
        assert_eq!(Precision::Fp32.wider(), Some(Precision::Fp64));
        assert_eq!(Precision::Fp64.wider(), None);
    }

    #[test]
    fn eps_halves_roughly_per_13_bits() {
        assert!(Precision::Fp16.eps() > Precision::Fp32.eps());
        assert!(Precision::Fp32.eps() > Precision::Fp64.eps());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Precision::Fp32.to_string(), "fp32");
    }

    #[test]
    fn tag_codes_are_distinct_and_nonzero() {
        let mut codes = vec![];
        for p in Precision::ALL {
            codes.push(PrecisionTag::Uniform(p).code());
        }
        for hi in Precision::ALL {
            for lo in Precision::ALL {
                codes.push(PrecisionTag::Split { hi, lo }.code());
            }
        }
        for (i, a) in codes.iter().enumerate() {
            assert_ne!(*a, 0, "code 0 is reserved for untagged keys");
            for b in &codes[i + 1..] {
                assert_ne!(a, b, "tag codes must be injective");
            }
        }
    }

    #[test]
    fn tag_dominant_follows_lo_bucket() {
        assert_eq!(
            PrecisionTag::Uniform(Precision::Fp32).dominant(),
            Precision::Fp32
        );
        assert_eq!(
            PrecisionTag::Split {
                hi: Precision::Fp64,
                lo: Precision::Fp32
            }
            .dominant(),
            Precision::Fp32
        );
    }

    #[test]
    fn tag_display_names_both_buckets() {
        assert_eq!(
            PrecisionTag::Split {
                hi: Precision::Fp64,
                lo: Precision::Fp16
            }
            .to_string(),
            "fp64/fp16"
        );
        assert_eq!(PrecisionTag::Uniform(Precision::Fp64).to_string(), "fp64");
    }
}
