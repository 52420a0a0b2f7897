//! The cost model against a recorded table: `(seconds.to_bits(), bytes)`
//! of one call of every kernel shape, over fp16, fp32 and fp64 working
//! precision, block widths 1, 2 and 4, native, fp32 and fp16 basis
//! widths, uniform, shadow (fp32, fp16) and split value stores of a
//! banded, a scattered and an all-zero operator, both cast classes,
//! block-LU and the host terms. The table was recorded from the cost
//! layer the solvers charged through before each shape had one cost
//! function (then a single-vector and a batched twin per shape, a
//! uniform and a store twin per matrix op), after checking that every
//! pair of twins agreed bit for bit on this grid. A change that moves
//! any simulated second or byte of any shape fails here, independently
//! of the pinned solve reports (which reach only the shapes their solves
//! happen to hit).

use mpgmres_gpusim::cost::{self, Gemv, HostWork, MatrixOperand};
use mpgmres_gpusim::{DeviceModel, KernelClass};
use mpgmres_scalar::Precision::{self, Fp16, Fp32, Fp64};

use Gemv::{N, T};
use HostWork::{Flops, Iteration, Restart};
use KernelClass::{CastDevice, CastHost};
use Level1::{Axpy, Dot, Norm, Scal};

fn v100() -> DeviceModel {
    DeviceModel::v100_belos()
}

/// Assert every `(label, got, want)` agrees, listing all mismatches.
fn check(rows: impl Iterator<Item = (String, (u64, usize), (u64, usize))>) {
    let mut bad = Vec::new();
    let mut count = 0;
    for (label, got, want) in rows {
        count += 1;
        if got != want {
            bad.push(format!("{label}: got {got:#x?}, recorded {want:#x?}"));
        }
    }
    assert!(count > 0);
    assert!(
        bad.is_empty(),
        "{} of {count} rows moved:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

fn bits((t, bytes): (f64, usize)) -> (u64, usize) {
    (t.to_bits(), bytes)
}

/// (n, nnz, value bytes, bandwidth, value precision, working precision,
/// k, reads b, seconds bits, bytes). `banded` is the 5-point Laplacian on
/// a 64 x 64 grid; `scattered` has a diagonal, an anti-diagonal and one
/// pseudo-random entry per row; `empty` is an all-zero 64 x 64 matrix;
/// `split` demotes the entries below 2.0 in magnitude to fp32.
type MatrixRow = (
    usize,
    usize,
    usize,
    usize,
    Precision,
    Precision,
    usize,
    bool,
    u64,
    usize,
);

#[rustfmt::skip]
const MATRIX: &[MatrixRow] = &[
    // banded matrix
    (4096, 20224, 161792, 64, Fp64, Fp64, 1, false, 0x3ee0cfab78084c94, 453636),
    (4096, 20224, 161792, 64, Fp64, Fp64, 1, true, 0x3ee0f7142d7f0343, 486404),
    (4096, 20224, 161792, 64, Fp64, Fp64, 2, false, 0x3ee11e7ce2f5b9f2, 519172),
    (4096, 20224, 161792, 64, Fp64, Fp64, 4, false, 0x3ee1bc1fb8d094ad, 650244),
    // banded shadow32
    (4096, 20224, 80896, 64, Fp32, Fp64, 1, false, 0x3edf40ccdfddaa1a, 243716),
    (4096, 20224, 80896, 64, Fp32, Fp64, 1, true, 0x3edf81f4df8337b6, 276484),
    (4096, 20224, 80896, 64, Fp32, Fp64, 2, false, 0x3edfc31cdf28c552, 309252),
    (4096, 20224, 80896, 64, Fp32, Fp64, 4, false, 0x3ee063de6edf7de0, 440324),
    // banded shadow16
    (4096, 20224, 40448, 64, Fp16, Fp64, 1, false, 0x3edef05f804d4f4e, 203268),
    (4096, 20224, 40448, 64, Fp16, Fp64, 1, true, 0x3edf31877ff2dcea, 236036),
    (4096, 20224, 40448, 64, Fp16, Fp64, 2, false, 0x3edf72af7f986a86, 268804),
    (4096, 20224, 40448, 64, Fp16, Fp64, 4, false, 0x3ee03ba7bf17507a, 399876),
    // banded split
    (4096, 20224, 97280, 64, Fp32, Fp64, 1, false, 0x3ee030f72f26273f, 389124),
    (4096, 20224, 97280, 64, Fp32, Fp64, 1, true, 0x3ee0518b2ef8ee0d, 421892),
    (4096, 20224, 97280, 64, Fp32, Fp64, 2, false, 0x3ee0721f2ecbb4db, 454660),
    (4096, 20224, 97280, 64, Fp32, Fp64, 4, false, 0x3ee0f46f2e16d012, 585732),
    // scattered matrix
    (4096, 12286, 98288, 4095, Fp64, Fp64, 1, false, 0x3ee010bbf858929d, 294876),
    (4096, 12286, 98288, 4095, Fp64, Fp64, 1, true, 0x3ee03824adcf494c, 327644),
    (4096, 12286, 98288, 4095, Fp64, Fp64, 2, false, 0x3ee05f8d6345fffa, 360412),
    (4096, 12286, 98288, 4095, Fp64, Fp64, 4, false, 0x3ee0fd303920dab5, 491484),
    // scattered shadow32
    (4096, 12286, 49144, 4095, Fp32, Fp64, 1, false, 0x3edf44cf15d81991, 245732),
    (4096, 12286, 49144, 4095, Fp32, Fp64, 1, true, 0x3edf85f7157da72c, 278500),
    (4096, 12286, 49144, 4095, Fp32, Fp64, 2, false, 0x3edfc71f152334c8, 311268),
    (4096, 12286, 49144, 4095, Fp32, Fp64, 4, false, 0x3ee065df89dcb59c, 442340),
    // scattered shadow16
    (4096, 12286, 24572, 4095, Fp16, Fp64, 1, false, 0x3edf13f31f5bec88, 221160),
    (4096, 12286, 24572, 4095, Fp16, Fp64, 1, true, 0x3edf551b1f017a24, 253928),
    (4096, 12286, 24572, 4095, Fp16, Fp64, 2, false, 0x3edf96431ea707c0, 286696),
    (4096, 12286, 24572, 4095, Fp16, Fp64, 4, false, 0x3ee04d718e9e9f17, 417768),
    // scattered split
    (4096, 12286, 65528, 4095, Fp32, Fp64, 1, false, 0x3edf656315aae05e, 262116),
    (4096, 12286, 65528, 4095, Fp32, Fp64, 1, true, 0x3edfa68b15506dfa, 294884),
    (4096, 12286, 65528, 4095, Fp32, Fp64, 2, false, 0x3edfe7b314f5fb96, 327652),
    (4096, 12286, 65528, 4095, Fp32, Fp64, 4, false, 0x3ee0762989c61903, 458724),
    // empty matrix
    (64, 0, 0, 0, Fp64, Fp64, 1, false, 0x3edd5f47fdf6fd68, 1284),
    (64, 0, 0, 0, Fp64, Fp64, 1, true, 0x3edd608343a2b31e, 1796),
    (64, 0, 0, 0, Fp64, Fp64, 2, false, 0x3edd61be894e68d3, 2308),
    (64, 0, 0, 0, Fp64, Fp64, 4, false, 0x3edd66ab9ffd3fa9, 4356),
    // empty shadow32
    (64, 0, 0, 0, Fp32, Fp64, 1, false, 0x3edd5ebef27ad46c, 1284),
    (64, 0, 0, 0, Fp32, Fp64, 1, true, 0x3edd5fc392796aa2, 1796),
    (64, 0, 0, 0, Fp32, Fp64, 2, false, 0x3edd60c8327800d8, 2308),
    (64, 0, 0, 0, Fp32, Fp64, 4, false, 0x3edd64dab27259b2, 4356),
    // empty shadow16
    (64, 0, 0, 0, Fp16, Fp64, 1, false, 0x3edd5ebef27ad46c, 1284),
    (64, 0, 0, 0, Fp16, Fp64, 1, true, 0x3edd5fc392796aa2, 1796),
    (64, 0, 0, 0, Fp16, Fp64, 2, false, 0x3edd60c8327800d8, 2308),
    (64, 0, 0, 0, Fp16, Fp64, 4, false, 0x3edd64dab27259b2, 4356),
    // banded matrix
    (4096, 20224, 80896, 64, Fp32, Fp32, 1, false, 0x3edeffa4e0381c7e, 210948),
    (4096, 20224, 80896, 64, Fp32, Fp32, 1, true, 0x3edf2038e00ae34c, 227332),
    (4096, 20224, 80896, 64, Fp32, Fp32, 2, false, 0x3edf40ccdfddaa1a, 243716),
    (4096, 20224, 80896, 64, Fp32, Fp32, 4, false, 0x3edfc31cdf28c552, 309252),
    // banded shadow16
    (4096, 20224, 40448, 64, Fp16, Fp32, 1, false, 0x3edeaf3780a7c1b2, 170500),
    (4096, 20224, 40448, 64, Fp16, Fp32, 1, true, 0x3edecfcb807a8880, 186884),
    (4096, 20224, 40448, 64, Fp16, Fp32, 2, false, 0x3edef05f804d4f4e, 203268),
    (4096, 20224, 40448, 64, Fp16, Fp32, 4, false, 0x3edf72af7f986a86, 268804),
    // scattered matrix
    (4096, 12286, 49144, 4095, Fp32, Fp32, 1, false, 0x3edec283290cf8b2, 180204),
    (4096, 12286, 49144, 4095, Fp32, Fp32, 1, true, 0x3edee31728dfbf80, 196588),
    (4096, 12286, 49144, 4095, Fp32, Fp32, 2, false, 0x3edf03ab28b2864e, 212972),
    (4096, 12286, 49144, 4095, Fp32, Fp32, 4, false, 0x3edf85fb27fda185, 278508),
    // scattered shadow16
    (4096, 12286, 24572, 4095, Fp16, Fp32, 1, false, 0x3ede91a73290cba9, 155632),
    (4096, 12286, 24572, 4095, Fp16, Fp32, 1, true, 0x3edeb23b32639277, 172016),
    (4096, 12286, 24572, 4095, Fp16, Fp32, 2, false, 0x3eded2cf32365945, 188400),
    (4096, 12286, 24572, 4095, Fp16, Fp32, 4, false, 0x3edf551f3181747d, 253936),
    // empty matrix
    (64, 0, 0, 0, Fp32, Fp32, 1, false, 0x3edd5dba527c3e35, 772),
    (64, 0, 0, 0, Fp32, Fp32, 1, true, 0x3edd5e3ca27b8950, 1028),
    (64, 0, 0, 0, Fp32, Fp32, 2, false, 0x3edd5ebef27ad46c, 1284),
    (64, 0, 0, 0, Fp32, Fp32, 4, false, 0x3edd60c8327800d8, 2308),
    // empty shadow16
    (64, 0, 0, 0, Fp16, Fp32, 1, false, 0x3edd5dba527c3e35, 772),
    (64, 0, 0, 0, Fp16, Fp32, 1, true, 0x3edd5e3ca27b8950, 1028),
    (64, 0, 0, 0, Fp16, Fp32, 2, false, 0x3edd5ebef27ad46c, 1284),
    (64, 0, 0, 0, Fp16, Fp32, 4, false, 0x3edd60c8327800d8, 2308),
    // banded matrix
    (4096, 20224, 40448, 64, Fp16, Fp16, 1, false, 0x3ede8ea380d4fae4, 154116),
    (4096, 20224, 40448, 64, Fp16, Fp16, 1, true, 0x3ede9eed80be5e4b, 162308),
    (4096, 20224, 40448, 64, Fp16, Fp16, 2, false, 0x3edeaf3780a7c1b2, 170500),
    (4096, 20224, 40448, 64, Fp16, Fp16, 4, false, 0x3edef05f804d4f4e, 203268),
    // banded split
    (4096, 20224, 72704, 64, Fp32, Fp16, 1, false, 0x3edecec6e07bf24a, 186372),
    (4096, 20224, 72704, 64, Fp32, Fp16, 1, true, 0x3ededf10e06555b0, 194564),
    (4096, 20224, 72704, 64, Fp32, Fp16, 2, false, 0x3edeef5ae04eb917, 202756),
    (4096, 20224, 72704, 64, Fp32, Fp16, 4, false, 0x3edf3082dff446b3, 235524),
    // scattered matrix
    (4096, 12286, 24572, 4095, Fp16, Fp16, 1, false, 0x3ede50813c2b3b3a, 122868),
    (4096, 12286, 24572, 4095, Fp16, Fp16, 1, true, 0x3ede60cb3c149ea1, 131060),
    (4096, 12286, 24572, 4095, Fp16, Fp16, 2, false, 0x3ede71153bfe0208, 139252),
    (4096, 12286, 24572, 4095, Fp16, Fp16, 4, false, 0x3edeb23d3ba38fa4, 172020),
    // scattered split
    (4096, 12286, 40952, 4095, Fp32, Fp16, 1, false, 0x3ede711332be04db, 139248),
    (4096, 12286, 40952, 4095, Fp32, Fp16, 1, true, 0x3ede815d32a76842, 147440),
    (4096, 12286, 40952, 4095, Fp32, Fp16, 2, false, 0x3ede91a73290cba9, 155632),
    (4096, 12286, 40952, 4095, Fp32, Fp16, 4, false, 0x3eded2cf32365945, 188400),
    // empty matrix
    (64, 0, 0, 0, Fp16, Fp16, 1, false, 0x3edd5d38027cf31a, 516),
    (64, 0, 0, 0, Fp16, Fp16, 1, true, 0x3edd5d792a7c98a7, 644),
    (64, 0, 0, 0, Fp16, Fp16, 2, false, 0x3edd5dba527c3e35, 772),
    (64, 0, 0, 0, Fp16, Fp16, 4, false, 0x3edd5ebef27ad46c, 1284),
];

/// (n, ncols, k, element bytes, working precision, direction, seconds
/// bits, bytes).
type BasisRow = (usize, usize, usize, usize, Precision, Gemv, u64, usize);

#[rustfmt::skip]
const BASIS: &[BasisRow] = &[
    (4096, 1, 1, 8, Fp64, T, 0x3f0eb9461175b7f3, 65536),
    (4096, 1, 1, 8, Fp64, N, 0x3eddfae53883537b, 98304),
    (4096, 1, 2, 8, Fp64, T, 0x3f0ec6cf711ed9a0, 131072),
    (4096, 1, 2, 8, Fp64, N, 0x3ede999917c84740, 196608),
    (4096, 1, 4, 8, Fp64, T, 0x3f0ee1e230711cf9, 262144),
    (4096, 1, 4, 8, Fp64, N, 0x3edfd700d6522ec8, 393216),
    (4096, 1, 1, 4, Fp64, T, 0x3f0eb5e3b98b6f88, 49152),
    (4096, 1, 1, 4, Fp64, N, 0x3edde071e8a28030, 81920),
    (4096, 1, 2, 4, Fp64, T, 0x3f0ec00ac14a48c9, 98304),
    (4096, 1, 2, 4, Fp64, N, 0x3ede64b27806a0a9, 163840),
    (4096, 1, 4, 4, Fp64, T, 0x3f0ed458d0c7fb4c, 196608),
    (4096, 1, 4, 4, Fp64, N, 0x3edf6d3396cee19a, 327680),
    (4096, 1, 1, 2, Fp64, T, 0x3f0eb4328d964b52, 40960),
    (4096, 1, 1, 2, Fp64, N, 0x3eddd33840b2168a, 73728),
    (4096, 1, 2, 2, Fp64, T, 0x3f0ebca86960005e, 81920),
    (4096, 1, 2, 2, Fp64, N, 0x3ede4a3f2825cd5d, 147456),
    (4096, 1, 4, 2, Fp64, T, 0x3f0ecd9420f36a76, 163840),
    (4096, 1, 4, 2, Fp64, N, 0x3edf384cf70d3b04, 294912),
    (4096, 26, 1, 8, Fp64, T, 0x3f0f627b3d37dce3, 884736),
    (4096, 26, 1, 8, Fp64, N, 0x3ee192b569364c1a, 917504),
    (4096, 26, 2, 8, Fp64, T, 0x3f100c9ce45191c0, 1769472),
    (4096, 26, 2, 8, Fp64, N, 0x3ee4775225cd6858, 1835008),
    (4096, 26, 4, 8, Fp64, T, 0x3f10c35b6fbcd85c, 3538944),
    (4096, 26, 4, 8, Fp64, N, 0x3eea408b9efba0d6, 3670016),
    (4096, 26, 1, 4, Fp64, T, 0x3f0f0a7e4f6c81ff, 458752),
    (4096, 26, 1, 4, Fp64, N, 0x3ee03ada5acb9146, 491520),
    (4096, 26, 2, 4, Fp64, T, 0x3f0f693fed0c6db9, 917504),
    (4096, 26, 2, 4, Fp64, N, 0x3ee1c79c08f7f2b1, 983040),
    (4096, 26, 4, 4, Fp64, T, 0x3f10136194262296, 1835008),
    (4096, 26, 4, 4, Fp64, N, 0x3ee4e11f6550b586, 1966080),
    (4096, 26, 1, 2, Fp64, T, 0x3f0ede7fd886d48e, 245760),
    (4096, 26, 1, 2, Fp64, N, 0x3edf1dd9a72c67b8, 278528),
    (4096, 26, 2, 2, Fp64, T, 0x3f0f1142ff4112d6, 491520),
    (4096, 26, 2, 2, Fp64, N, 0x3ee06fc0fa8d37dd, 557056),
    (4096, 26, 4, 2, Fp64, T, 0x3f0f76c94cb58f66, 983040),
    (4096, 26, 4, 2, Fp64, N, 0x3ee23169487b3fde, 1114112),
    (250000, 1, 1, 8, Fp64, T, 0x3f10f2f928bb4750, 4000000),
    (250000, 1, 1, 8, Fp64, N, 0x3ef0cca877e17883, 6000000),
    (250000, 1, 2, 8, Fp64, T, 0x3f129013f890437e, 8000000),
    (250000, 1, 2, 8, Fp64, N, 0x3efa424499735918, 12000000),
    (250000, 1, 4, 8, Fp64, T, 0x3f15ca49983a3bd8, 16000000),
    (250000, 1, 4, 8, Fp64, N, 0x3f0696be6e4b8d21, 24000000),
    (250000, 1, 1, 4, Fp64, T, 0x3f108bb274c60845, 3000000),
    (250000, 1, 1, 4, Fp64, N, 0x3eee721ce49250d4, 5000000),
    (250000, 1, 2, 4, Fp64, T, 0x3f11c18690a5c567, 6000000),
    (250000, 1, 2, 4, Fp64, N, 0x3ef71b108e42b8e6, 10000000),
    (250000, 1, 4, 4, Fp64, T, 0x3f142d2ec8653fab, 12000000),
    (250000, 1, 4, 4, Fp64, N, 0x3f036f8a631aecef, 20000000),
    (250000, 1, 1, 2, Fp64, T, 0x3f10580f1acb68bf, 2500000),
    (250000, 1, 1, 2, Fp64, N, 0x3eecde82defa00bb, 4500000),
    (250000, 1, 2, 2, Fp64, T, 0x3f115a3fdcb0865c, 5000000),
    (250000, 1, 2, 2, Fp64, N, 0x3ef5877688aa68cd, 9000000),
    (250000, 1, 4, 2, Fp64, T, 0x3f135ea1607ac194, 10000000),
    (250000, 1, 4, 2, Fp64, N, 0x3f01dbf05d829cd6, 18000000),
    (250000, 26, 1, 8, Fp64, T, 0x3f228f642750cbc4, 54000000),
    (250000, 26, 1, 8, Fp64, N, 0x3f17e82f63e84757, 56000000),
    (250000, 26, 2, 8, Fp64, T, 0x3f2d73d9222e71f6, 108000000),
    (250000, 26, 2, 8, Fp64, N, 0x3f26fd4dd91e545a, 112000000),
    (250000, 26, 4, 8, Fp64, T, 0x3f399e618bf4df2d, 216000000),
    (250000, 26, 4, 8, Fp64, N, 0x3f3687dd13b95adb, 224000000),
    (250000, 26, 1, 4, Fp64, T, 0x3f1aa19a07b93060, 28000000),
    (250000, 26, 1, 4, Fp64, N, 0x3f0b518c7f147d6c, 30000000),
    (250000, 26, 2, 4, Fp64, T, 0x3f22f6aadb460ace, 56000000),
    (250000, 26, 2, 4, Fp64, N, 0x3f197bc969809770, 60000000),
    (250000, 26, 4, 4, Fp64, T, 0x3f2e42668a18f00c, 112000000),
    (250000, 26, 4, 4, Fp64, N, 0x3f2890e7deb6a473, 120000000),
    (250000, 26, 1, 2, Fp64, T, 0x3f156302e444fccd, 15000000),
    (250000, 26, 1, 2, Fp64, N, 0x3f0112235ab674ca, 17000000),
    (250000, 26, 2, 2, Fp64, T, 0x3f1b70276fa3ae76, 30000000),
    (250000, 26, 2, 2, Fp64, N, 0x3f0e78c08a451d9e, 34000000),
    (250000, 26, 4, 2, Fp64, T, 0x3f23c538433088e5, 60000000),
    (250000, 26, 4, 2, Fp64, N, 0x3f1ca2fd74b137a2, 68000000),
    (4096, 1, 1, 4, Fp32, T, 0x3f0eb5f5d96022da, 32768),
    (4096, 1, 1, 4, Fp32, N, 0x3eddc0c6eaebd4e3, 49152),
    (4096, 1, 2, 4, Fp32, T, 0x3f0ec02f00f3af6e, 65536),
    (4096, 1, 2, 4, Fp32, N, 0x3ede255c7c994a10, 98304),
    (4096, 1, 4, 4, Fp32, T, 0x3f0ed4a1501ac897, 131072),
    (4096, 1, 4, 4, Fp32, N, 0x3edeee879ff43468, 196608),
    (4096, 1, 1, 2, Fp32, T, 0x3f0eb3678f7b3fb5, 24576),
    (4096, 1, 1, 2, Fp32, N, 0x3eddb00352a4415c, 40960),
    (4096, 1, 2, 2, Fp32, T, 0x3f0ebb126d29e924, 49152),
    (4096, 1, 2, 2, Fp32, N, 0x3ede03d54c0a2301, 81920),
    (4096, 1, 4, 2, Fp32, T, 0x3f0eca6828873c02, 98304),
    (4096, 1, 4, 2, Fp32, N, 0x3edeab793ed5e64a, 163840),
    (4096, 26, 1, 4, Fp32, T, 0x3f0f35c048148016, 442368),
    (4096, 26, 1, 4, Fp32, N, 0x3ee0837d547352aa, 458752),
    (4096, 26, 2, 4, Fp32, T, 0x3f0fbfc3de5c69e6, 884736),
    (4096, 26, 2, 4, Fp32, N, 0x3ee258e1fc477578, 917504),
    (4096, 26, 4, 4, Fp32, T, 0x3f1069e585761ec3, 1769472),
    (4096, 26, 4, 4, Fp32, N, 0x3ee603ab4befbb16, 1835008),
    (4096, 26, 1, 2, Fp32, T, 0x3f0ef34cc6d56e53, 229376),
    (4096, 26, 1, 2, Fp32, N, 0x3edf531d31a1a994, 245760),
    (4096, 26, 2, 2, Fp32, T, 0x3f0f3adcdbde4660, 458752),
    (4096, 26, 2, 2, Fp32, N, 0x3ee0a504850279b9, 491520),
    (4096, 26, 4, 2, Fp32, T, 0x3f0fc9fd05eff67a, 917504),
    (4096, 26, 4, 2, Fp32, N, 0x3ee29bf05d65c396, 983040),
    (250000, 1, 1, 4, Fp32, T, 0x3f108ddb912ca2c3, 2000000),
    (250000, 1, 1, 4, Fp32, N, 0x3eeaabaf28d93230, 3000000),
    (250000, 1, 2, 4, Fp32, T, 0x3f11c5d8c972fa62, 4000000),
    (250000, 1, 2, 4, Fp32, N, 0x3ef354a2d2899a43, 6000000),
    (250000, 1, 4, 4, Fp32, T, 0x3f1435d339ffa9a1, 8000000),
    (250000, 1, 4, 4, Fp32, N, 0x3eff52394ec39c98, 12000000),
    (250000, 1, 1, 2, Fp32, T, 0x3f103fdc431b0cdb, 1500000),
    (250000, 1, 1, 2, Fp32, N, 0x3ee8ac161424dc78, 2500000),
    (250000, 1, 2, 2, Fp32, T, 0x3f1129da2d4fce92, 3000000),
    (250000, 1, 2, 2, Fp32, N, 0x3ef15509bdd5448a, 5000000),
    (250000, 1, 4, 2, Fp32, T, 0x3f12fdd601b95202, 6000000),
    (250000, 1, 4, 2, Fp32, N, 0x3efb5307255af126, 10000000),
    (250000, 26, 1, 4, Fp32, T, 0x3f1fc9b8d09bea0d, 27000000),
    (250000, 26, 1, 4, Fp32, N, 0x3f0fa5e54d047c12, 28000000),
    (250000, 26, 2, 4, Fp32, T, 0x3f281ec9a428c47c, 54000000),
    (250000, 26, 2, 4, Fp32, N, 0x3f1dd02237709616, 56000000),
    (250000, 26, 4, 4, Fp32, T, 0x3f3449520def31b3, 108000000),
    (250000, 26, 4, 4, Fp32, N, 0x3f2ce540aca6a319, 112000000),
    (250000, 26, 1, 2, Fp32, T, 0x3f17ddcae2d2b080, 14000000),
    (250000, 26, 1, 2, Fp32, N, 0x3f02a88246704ee1, 15000000),
    (250000, 26, 2, 2, Fp32, T, 0x3f2032dbb65f8aee, 28000000),
    (250000, 26, 2, 2, Fp32, N, 0x3f10d2bf30dc68e5, 30000000),
    (250000, 26, 4, 2, Fp32, T, 0x3f28bac8404bf04a, 56000000),
    (250000, 26, 4, 2, Fp32, N, 0x3f1fcfbb4c24ebcf, 60000000),
    (4096, 1, 1, 2, Fp16, T, 0x3f0eb0d945965c90, 16384),
    (4096, 1, 1, 2, Fp16, N, 0x3edd8e7c22151a4d, 24576),
    (4096, 1, 2, 2, Fp16, T, 0x3f0eb5f5d96022da, 32768),
    (4096, 1, 2, 2, Fp16, N, 0x3eddc0c6eaebd4e3, 49152),
    (4096, 1, 4, 2, Fp16, T, 0x3f0ec02f00f3af6e, 65536),
    (4096, 1, 4, 2, Fp16, N, 0x3ede255c7c994a10, 98304),
    (4096, 1, 1, 4, Fp16, T, 0x3f0eb3678f7b3fb5, 24576),
    (4096, 1, 1, 4, Fp16, N, 0x3edd9f3fba5cadd4, 32768),
    (4096, 1, 2, 4, Fp16, T, 0x3f0ebb126d29e924, 49152),
    (4096, 1, 2, 4, Fp16, N, 0x3edde24e1b7afbf2, 65536),
    (4096, 1, 4, 4, Fp16, T, 0x3f0eca6828873c02, 98304),
    (4096, 1, 4, 4, Fp16, N, 0x3ede686addb7982d, 131072),
    (4096, 26, 1, 2, Fp16, T, 0x3f0ef0be7cf08b2e, 221184),
    (4096, 26, 1, 2, Fp16, N, 0x3edf319601128286, 229376),
    (4096, 26, 2, 2, Fp16, T, 0x3f0f35c048148016, 442368),
    (4096, 26, 2, 2, Fp16, N, 0x3ee0837d547352aa, 458752),
    (4096, 26, 4, 2, Fp16, T, 0x3f0fbfc3de5c69e6, 884736),
    (4096, 26, 4, 2, Fp16, N, 0x3ee258e1fc477578, 917504),
    (4096, 26, 1, 4, Fp16, T, 0x3f0f3331fe2f9cf1, 434176),
    (4096, 26, 1, 4, Fp16, N, 0x3ee072b9bc2bbf23, 442368),
    (4096, 26, 2, 4, Fp16, T, 0x3f0fbaa74a92a39c, 868352),
    (4096, 26, 2, 4, Fp16, N, 0x3ee2375acbb84e6a, 884736),
    (4096, 26, 4, 4, Fp16, T, 0x3f1064c8f1ac5879, 1736704),
    (4096, 26, 4, 4, Fp16, N, 0x3ee5c09cead16cf8, 1769472),
    (250000, 1, 1, 2, Fp16, T, 0x3f0fe3b9ea12ede6, 1000000),
    (250000, 1, 1, 2, Fp16, N, 0x3ee4ace3eabc3106, 1500000),
    (250000, 1, 2, 2, Fp16, T, 0x3f108ddb912ca2c3, 2000000),
    (250000, 1, 2, 2, Fp16, N, 0x3eeaabaf28d93230, 3000000),
    (250000, 1, 4, 2, Fp16, T, 0x3f11c5d8c972fa62, 4000000),
    (250000, 1, 4, 2, Fp16, N, 0x3ef354a2d2899a43, 6000000),
    (250000, 1, 1, 4, Fp16, T, 0x3f103fdc431b0cdb, 1500000),
    (250000, 1, 1, 4, Fp16, N, 0x3ee6ac7cff7086bf, 2000000),
    (250000, 1, 2, 4, Fp16, T, 0x3f1129da2d4fce92, 3000000),
    (250000, 1, 2, 4, Fp16, N, 0x3eeeaae15241dda2, 4000000),
    (250000, 1, 4, 4, Fp16, T, 0x3f12fdd601b95202, 6000000),
    (250000, 1, 4, 4, Fp16, N, 0x3ef753d4fbf245b4, 8000000),
    (250000, 26, 1, 2, Fp16, T, 0x3f178fcb94c11a98, 13500000),
    (250000, 26, 1, 2, Fp16, N, 0x3f01a8b5bc162404, 14000000),
    (250000, 26, 2, 2, Fp16, T, 0x3f1fc9b8d09bea0d, 27000000),
    (250000, 26, 2, 2, Fp16, N, 0x3f0fa5e54d047c12, 28000000),
    (250000, 26, 4, 2, Fp16, T, 0x3f281ec9a428c47c, 54000000),
    (250000, 26, 4, 2, Fp16, N, 0x3f1dd02237709616, 56000000),
    (250000, 26, 1, 4, Fp16, T, 0x3f1f7bb9828a5425, 26500000),
    (250000, 26, 1, 4, Fp16, N, 0x3f0ea618c2aa5136, 27000000),
    (250000, 26, 2, 4, Fp16, T, 0x3f27d0ca56172e94, 53000000),
    (250000, 26, 2, 4, Fp16, N, 0x3f1cd055ad166b3a, 54000000),
    (250000, 26, 4, 4, Fp16, T, 0x3f33fb52bfdd9bcb, 106000000),
    (250000, 26, 4, 4, Fp16, N, 0x3f2be574224c783d, 108000000),
];

#[derive(Clone, Copy, Debug)]
enum Level1 {
    Norm,
    Dot,
    Axpy,
    Scal,
}

/// (op, n, k, written element bytes (scal only), precision, seconds
/// bits, bytes).
#[rustfmt::skip]
const LEVEL1: &[(Level1, usize, usize, usize, Precision, u64, usize)] = &[
    (Norm, 4096, 1, 8, Fp64, 0x3f1cd8b935b0fc62, 32768),
    (Dot, 4096, 1, 8, Fp64, 0x3f1cdb78cf294879, 65536),
    (Axpy, 4096, 1, 8, Fp64, 0x3edde01e1fcca429, 98304),
    (Scal, 4096, 1, 8, Fp64, 0x3eddb4248847e2ae, 65536),
    (Scal, 4096, 1, 4, Fp64, 0x3edd9e27bc8581f0, 49152),
    (Scal, 4096, 1, 2, Fp64, 0x3edd932956a45191, 40960),
    (Norm, 4096, 2, 8, Fp64, 0x3f1cdb78cf294879, 65536),
    (Dot, 4096, 2, 8, Fp64, 0x3f1ce0f80219e0a9, 131072),
    (Axpy, 4096, 2, 8, Fp64, 0x3ede640ae65ae89b, 196608),
    (Scal, 4096, 2, 8, Fp64, 0x3ede0c17b75165a4, 131072),
    (Scal, 4096, 2, 4, Fp64, 0x3edde01e1fcca429, 98304),
    (Scal, 4096, 2, 2, Fp64, 0x3eddca21540a436b, 81920),
    (Norm, 4096, 4, 8, Fp64, 0x3f1ce0f80219e0a9, 131072),
    (Dot, 4096, 4, 8, Fp64, 0x3f1cebf667fb1108, 262144),
    (Axpy, 4096, 4, 8, Fp64, 0x3edf6be47377717e, 393216),
    (Scal, 4096, 4, 8, Fp64, 0x3edebbfe15646b91, 262144),
    (Scal, 4096, 4, 4, Fp64, 0x3ede640ae65ae89b, 196608),
    (Scal, 4096, 4, 2, Fp64, 0x3ede38114ed6271f, 163840),
    (Norm, 250000, 1, 8, Fp64, 0x3f1d7db9ea480c9d, 2000000),
    (Dot, 250000, 1, 8, Fp64, 0x3f1e257a385768f0, 4000000),
    (Axpy, 250000, 1, 8, Fp64, 0x3eee681ffe0fd7a1, 6000000),
    (Scal, 250000, 1, 8, Fp64, 0x3ee92a1d8d94f50a, 4000000),
    (Scal, 250000, 1, 4, Fp64, 0x3ee68b1c555783be, 3000000),
    (Scal, 250000, 1, 2, Fp64, 0x3ee53b9bb938cb18, 2500000),
    (Norm, 250000, 2, 8, Fp64, 0x3f1e257a385768f0, 4000000),
    (Dot, 250000, 2, 8, Fp64, 0x3f1f74fad4762196, 8000000),
    (Axpy, 250000, 2, 8, Fp64, 0x3ef71113a7c03fb3, 12000000),
    (Scal, 250000, 2, 8, Fp64, 0x3ef1d31137455d1c, 8000000),
    (Scal, 250000, 2, 4, Fp64, 0x3eee681ffe0fd7a1, 6000000),
    (Scal, 250000, 2, 2, Fp64, 0x3eebc91ec5d26656, 5000000),
    (Norm, 250000, 4, 8, Fp64, 0x3f1f74fad4762196, 8000000),
    (Dot, 250000, 4, 8, Fp64, 0x3f2109fe0659c971, 16000000),
    (Axpy, 250000, 4, 8, Fp64, 0x3f03658d7c9873bc, 24000000),
    (Scal, 250000, 4, 8, Fp64, 0x3efc4f16183b224b, 16000000),
    (Scal, 250000, 4, 4, Fp64, 0x3ef71113a7c03fb3, 12000000),
    (Scal, 250000, 4, 2, Fp64, 0x3ef472126f82ce68, 10000000),
    (Norm, 4096, 1, 4, Fp32, 0x3f1cd75968f4d656, 16384),
    (Dot, 4096, 1, 4, Fp32, 0x3f1cd8b935b0fc62, 32768),
    (Axpy, 4096, 1, 4, Fp32, 0x3edd9e27bc8581f0, 49152),
    (Scal, 4096, 1, 4, Fp32, 0x3edd882af0c32132, 32768),
    (Scal, 4096, 1, 2, Fp32, 0x3edd7d2c8ae1f0d3, 24576),
    (Norm, 4096, 2, 4, Fp32, 0x3f1cd8b935b0fc62, 32768),
    (Dot, 4096, 2, 4, Fp32, 0x3f1cdb78cf294879, 65536),
    (Axpy, 4096, 2, 4, Fp32, 0x3edde01e1fcca429, 98304),
    (Scal, 4096, 2, 4, Fp32, 0x3eddb4248847e2ae, 65536),
    (Scal, 4096, 2, 2, Fp32, 0x3edd9e27bc8581f0, 49152),
    (Norm, 4096, 4, 4, Fp32, 0x3f1cdb78cf294879, 65536),
    (Dot, 4096, 4, 4, Fp32, 0x3f1ce0f80219e0a9, 131072),
    (Axpy, 4096, 4, 4, Fp32, 0x3ede640ae65ae89b, 196608),
    (Scal, 4096, 4, 4, Fp32, 0x3ede0c17b75165a4, 131072),
    (Scal, 4096, 4, 2, Fp32, 0x3edde01e1fcca429, 98304),
    (Norm, 250000, 1, 4, Fp32, 0x3f1d29d9c3405e73, 1000000),
    (Dot, 250000, 1, 4, Fp32, 0x3f1d7db9ea480c9d, 2000000),
    (Axpy, 250000, 1, 4, Fp32, 0x3ee68b1c555783be, 3000000),
    (Scal, 250000, 1, 4, Fp32, 0x3ee3ec1b1d1a1273, 2000000),
    (Scal, 250000, 1, 2, Fp32, 0x3ee29c9a80fb59cd, 1500000),
    (Norm, 250000, 2, 4, Fp32, 0x3f1d7db9ea480c9d, 2000000),
    (Dot, 250000, 2, 4, Fp32, 0x3f1e257a385768f0, 4000000),
    (Axpy, 250000, 2, 4, Fp32, 0x3eee681ffe0fd7a1, 6000000),
    (Scal, 250000, 2, 4, Fp32, 0x3ee92a1d8d94f50a, 4000000),
    (Scal, 250000, 2, 2, Fp32, 0x3ee68b1c555783be, 3000000),
    (Norm, 250000, 4, 4, Fp32, 0x3f1e257a385768f0, 4000000),
    (Dot, 250000, 4, 4, Fp32, 0x3f1f74fad4762196, 8000000),
    (Axpy, 250000, 4, 4, Fp32, 0x3ef71113a7c03fb3, 12000000),
    (Scal, 250000, 4, 4, Fp32, 0x3ef1d31137455d1c, 8000000),
    (Scal, 250000, 4, 2, Fp32, 0x3eee681ffe0fd7a1, 6000000),
    (Norm, 4096, 1, 2, Fp16, 0x3f1cd6a98296c350, 8192),
    (Dot, 4096, 1, 2, Fp16, 0x3f1cd75968f4d656, 16384),
    (Axpy, 4096, 1, 2, Fp16, 0x3edd7d2c8ae1f0d3, 24576),
    (Scal, 4096, 1, 2, Fp16, 0x3edd722e2500c075, 16384),
    (Scal, 4096, 1, 4, Fp16, 0x3edd7d2c8ae1f0d3, 24576),
    (Norm, 4096, 2, 2, Fp16, 0x3f1cd75968f4d656, 16384),
    (Dot, 4096, 2, 2, Fp16, 0x3f1cd8b935b0fc62, 32768),
    (Axpy, 4096, 2, 2, Fp16, 0x3edd9e27bc8581f0, 49152),
    (Scal, 4096, 2, 2, Fp16, 0x3edd882af0c32132, 32768),
    (Scal, 4096, 2, 4, Fp16, 0x3edd9e27bc8581f0, 49152),
    (Norm, 4096, 4, 2, Fp16, 0x3f1cd8b935b0fc62, 32768),
    (Dot, 4096, 4, 2, Fp16, 0x3f1cdb78cf294879, 65536),
    (Axpy, 4096, 4, 2, Fp16, 0x3edde01e1fcca429, 98304),
    (Scal, 4096, 4, 2, Fp16, 0x3eddb4248847e2ae, 65536),
    (Scal, 4096, 4, 4, Fp16, 0x3edde01e1fcca429, 98304),
    (Norm, 250000, 1, 2, Fp16, 0x3f1cffe9afbc875f, 500000),
    (Dot, 250000, 1, 2, Fp16, 0x3f1d29d9c3405e73, 1000000),
    (Axpy, 250000, 1, 2, Fp16, 0x3ee29c9a80fb59cd, 1500000),
    (Scal, 250000, 1, 2, Fp16, 0x3ee14d19e4dca127, 1000000),
    (Scal, 250000, 1, 4, Fp16, 0x3ee29c9a80fb59cd, 1500000),
    (Norm, 250000, 2, 2, Fp16, 0x3f1d29d9c3405e73, 1000000),
    (Dot, 250000, 2, 2, Fp16, 0x3f1d7db9ea480c9d, 2000000),
    (Axpy, 250000, 2, 2, Fp16, 0x3ee68b1c555783be, 3000000),
    (Scal, 250000, 2, 2, Fp16, 0x3ee3ec1b1d1a1273, 2000000),
    (Scal, 250000, 2, 4, Fp16, 0x3ee68b1c555783be, 3000000),
    (Norm, 250000, 4, 2, Fp16, 0x3f1d7db9ea480c9d, 2000000),
    (Dot, 250000, 4, 2, Fp16, 0x3f1e257a385768f0, 4000000),
    (Axpy, 250000, 4, 2, Fp16, 0x3eee681ffe0fd7a1, 6000000),
    (Scal, 250000, 4, 2, Fp16, 0x3ee92a1d8d94f50a, 4000000),
    (Scal, 250000, 4, 4, Fp16, 0x3eee681ffe0fd7a1, 6000000),
];

/// (n, block size, precision, seconds bits, bytes).
#[rustfmt::skip]
const BLOCK_LU: &[(usize, usize, Precision, u64, usize)] = &[
    (4096, 16, Fp64, 0x3ee173756ef80825, 589824),
    (9216, 16, Fp64, 0x3ee4ea2961e71681, 1327104),
    (250000, 4, Fp64, 0x3f01c3870ca7da0f, 12000000),
    (250000, 1, Fp64, 0x3ef56f0d37cfa606, 6000000),
    (4096, 16, Fp32, 0x3edfa69956105a31, 294912),
    (9216, 16, Fp32, 0x3ee141cda90b69a5, 663552),
    (250000, 4, Fp32, 0x3ef2fdaa14234402, 6000000),
    (250000, 1, Fp32, 0x3eea54b66a72dbf0, 3000000),
    (4096, 16, Fp16, 0x3ede816557a75cf4, 147456),
    (9216, 16, Fp16, 0x3edfefe655aa9980, 331776),
    (250000, 4, Fp16, 0x3eea54b66a72dbf0, 3000000),
    (250000, 1, Fp16, 0x3ee481678b8905e6, 1500000),
];

/// (class, n, from, to, seconds bits, bytes).
#[rustfmt::skip]
const CAST: &[(KernelClass, usize, Precision, Precision, u64, usize)] = &[
    (CastDevice, 4096, Fp16, Fp16, 0x3edd722e2500c075, 16384),
    (CastHost, 4096, Fp16, Fp16, 0x3f2b2e06a66531e1, 16384),
    (CastDevice, 4096, Fp16, Fp32, 0x3edd7d2c8ae1f0d3, 24576),
    (CastHost, 4096, Fp16, Fp32, 0x3f2b44eeb64565a9, 24576),
    (CastDevice, 4096, Fp16, Fp64, 0x3edd932956a45191, 40960),
    (CastHost, 4096, Fp16, Fp64, 0x3f2b72bed605cd3b, 40960),
    (CastDevice, 4096, Fp32, Fp16, 0x3edd7d2c8ae1f0d3, 24576),
    (CastHost, 4096, Fp32, Fp16, 0x3f2b44eeb64565a9, 24576),
    (CastDevice, 4096, Fp32, Fp32, 0x3edd882af0c32132, 32768),
    (CastHost, 4096, Fp32, Fp32, 0x3f2b5bd6c6259972, 32768),
    (CastDevice, 4096, Fp32, Fp64, 0x3edd9e27bc8581f0, 49152),
    (CastHost, 4096, Fp32, Fp64, 0x3f2b89a6e5e60104, 49152),
    (CastDevice, 4096, Fp64, Fp16, 0x3edd932956a45191, 40960),
    (CastHost, 4096, Fp64, Fp16, 0x3f2b72bed605cd3b, 40960),
    (CastDevice, 4096, Fp64, Fp32, 0x3edd9e27bc8581f0, 49152),
    (CastHost, 4096, Fp64, Fp32, 0x3f2b89a6e5e60104, 49152),
    (CastDevice, 4096, Fp64, Fp64, 0x3eddb4248847e2ae, 65536),
    (CastHost, 4096, Fp64, Fp64, 0x3f2bb77705a66895, 65536),
    (CastDevice, 250000, Fp16, Fp16, 0x3ee14d19e4dca127, 1000000),
    (CastHost, 250000, Fp16, Fp16, 0x3f32f635344d9dd1, 1000000),
    (CastDevice, 250000, Fp16, Fp32, 0x3ee29c9a80fb59cd, 1500000),
    (CastHost, 250000, Fp16, Fp32, 0x3f35b1422ccb3a26, 1500000),
    (CastDevice, 250000, Fp16, Fp64, 0x3ee53b9bb938cb18, 2500000),
    (CastHost, 250000, Fp16, Fp64, 0x3f3b275c1dc672cf, 2500000),
    (CastDevice, 250000, Fp32, Fp16, 0x3ee29c9a80fb59cd, 1500000),
    (CastHost, 250000, Fp32, Fp16, 0x3f35b1422ccb3a26, 1500000),
    (CastDevice, 250000, Fp32, Fp32, 0x3ee3ec1b1d1a1273, 2000000),
    (CastHost, 250000, Fp32, Fp32, 0x3f386c4f2548d67a, 2000000),
    (CastDevice, 250000, Fp32, Fp64, 0x3ee68b1c555783be, 3000000),
    (CastHost, 250000, Fp32, Fp64, 0x3f3de26916440f24, 3000000),
    (CastDevice, 250000, Fp64, Fp16, 0x3ee53b9bb938cb18, 2500000),
    (CastHost, 250000, Fp64, Fp16, 0x3f3b275c1dc672cf, 2500000),
    (CastDevice, 250000, Fp64, Fp32, 0x3ee68b1c555783be, 3000000),
    (CastHost, 250000, Fp64, Fp32, 0x3f3de26916440f24, 3000000),
    (CastDevice, 250000, Fp64, Fp64, 0x3ee92a1d8d94f50a, 4000000),
    (CastHost, 250000, Fp64, Fp64, 0x3f41ac41839fa3e6, 4000000),
];

/// (work, seconds bits).
#[rustfmt::skip]
const HOST: &[(HostWork, u64)] = &[
    (Iteration(0), 0x3f18e825bb1cee70),
    (Iteration(1), 0x3f18e8f3e3abd042),
    (Iteration(24), 0x3f18fb7988821a21),
    (Iteration(49), 0x3f190f9b7e7627a5),
    (Restart(1), 0x3f747ae147ae147b),
    (Restart(25), 0x3f747b3508282038),
    (Restart(50), 0x3f747c30d306a2b2),
    (Flops(0), 0x0000000000000000),
    (Flops(1), 0x3e112e0be826d695),
    (Flops(1000), 0x3eb0c6f7a0b5ed8e),
    (Flops(123456), 0x3f202e7ef70994dd),
];

#[test]
fn matrix_op_matches_the_recorded_table() {
    let d = v100();
    check(MATRIX.iter().map(
        |&(n, nnz, value_bytes, bandwidth, value_p, work_p, k, b, t, bytes)| {
            let a = MatrixOperand {
                n,
                nnz,
                value_bytes,
                bandwidth,
                value_p,
                work_p,
            };
            (
                format!("{a:?} k={k} b={b}"),
                bits(cost::matrix_op(&d, &a, k, b)),
                (t, bytes),
            )
        },
    ));
}

#[test]
fn basis_gemv_matches_the_recorded_table() {
    let d = v100();
    check(BASIS.iter().map(|&(n, ncols, k, e, p, dir, t, bytes)| {
        let got = bits(cost::basis_gemv(&d, n, ncols, k, e, p, dir));
        (
            format!("{dir:?} n={n} ncols={ncols} k={k} e={e} {p:?}"),
            got,
            (t, bytes),
        )
    }));
}

#[test]
fn level1_matches_the_recorded_table() {
    let d = v100();
    check(LEVEL1.iter().map(|&(op, n, k, e, p, t, bytes)| {
        let got = match op {
            Norm => cost::norm(&d, n, k, p),
            Dot => cost::dot(&d, n, k, p),
            Axpy => cost::axpy(&d, n, k, p),
            Scal => cost::scal(&d, n, k, e, p),
        };
        (
            format!("{op:?} n={n} k={k} e={e} {p:?}"),
            bits(got),
            (t, bytes),
        )
    }));
}

#[test]
fn block_lu_solve_matches_the_recorded_table() {
    let d = v100();
    check(BLOCK_LU.iter().map(|&(n, bs, p, t, bytes)| {
        let got = bits(cost::block_lu_solve(&d, n, bs, p));
        (format!("n={n} bs={bs} {p:?}"), got, (t, bytes))
    }));
}

#[test]
fn cast_matches_the_recorded_table() {
    let d = v100();
    check(CAST.iter().map(|&(class, n, from, to, t, bytes)| {
        let got = bits(cost::cast(&d, class, n, from, to));
        (format!("{class:?} n={n} {from:?}->{to:?}"), got, (t, bytes))
    }));
}

#[test]
fn host_matches_the_recorded_table() {
    let d = v100();
    check(HOST.iter().map(|&(work, t)| {
        (
            format!("{work:?}"),
            (cost::host(&d, work).to_bits(), 0),
            (t, 0),
        )
    }));
}
