//! Runtime-dispatched hardware FMA for the kernels' `mul_add` chains.
//!
//! Every kernel in this crate accumulates through
//! [`Scalar::mul_add`](mpgmres_scalar::Scalar::mul_add). That lowers to
//! the CPU's fused multiply-add instruction only in code compiled with
//! the `fma` target feature, which the default `x86_64` target lacks, so
//! a plain build turns every `mul_add` into a call to libm's `fma`.
//! [`run`] compiles a kernel body twice — once as written, once inside a
//! `#[target_feature(enable = "fma")]` frame — and takes the second when
//! the CPU reports FMA at run time (std caches the check). No global
//! `target-cpu` or `target-feature` flag is involved, so binaries stay
//! portable.
//!
//! **Bitwise contract.** Both paths give the same bits: `f64::mul_add`
//! and `f32::mul_add` round exactly once whether the instruction or libm
//! computes them, and `Half` runs an f32 FMA then one rounding to
//! binary16 on both. The unit tests pin dispatched == portable for every
//! wrapped kernel in f64, f32 and `Half`.
//!
//! **Where to wrap.** Wrap a kernel at its outermost loop, so the
//! per-row and per-block helpers it calls inline into the FMA-compiled
//! frame. Each body is written once; nothing is kept in sync by hand.
//! Code the frame *calls* instead of inlining is compiled without the
//! feature and silently runs on the software `fma`, so:
//!
//! - mark a body closure `#[inline(always)]` when it is more than a
//!   line or two, or the frame may tail-jump to an out-of-line
//!   `{{closure}}`;
//! - helpers the body calls are `#[inline(always)]` functions;
//! - no iterator adaptor whose closure does a `mul_add` may run inside
//!   a frame: `.map(..).collect()` compiles its loop into an outlined
//!   `Vec::from_iter`. Write the loop out, as `vec_ops::block_partials`
//!   does.
//!
//! `scripts/check_fma_frames.py` disassembles a binary and fails on any
//! call or tail jump from a frame to a closure, a `from_iter` or
//! `fma`/`fmaf`; CI runs it on the release test binary of this crate.

/// Run `body`, compiled for hardware FMA when the CPU has it.
///
/// Non-x86_64 targets and Miri always run `body` as written.
#[inline]
pub fn run<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(test)]
    {
        if tests::portable_forced() {
            return body();
        }
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports FMA, the only precondition for
            // calling a function compiled with
            // `target_feature(enable = "fma")`.
            return unsafe { with_fma(body) };
        }
    }
    body()
}

/// The FMA-compiled frame: `body` inlines here, so its `mul_add`s lower
/// to `vfmadd` instructions instead of libm calls. Calling it needs
/// `unsafe` (the CPU must support FMA), which [`run`] checks first.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "fma")]
fn with_fma<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests;
