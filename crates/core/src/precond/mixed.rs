//! Mixed-precision preconditioner wrapper (paper §III-D, case a).
//!
//! "Each time an fp32 preconditioner M is applied to an fp64 vector x,
//! we must cast x to fp32, multiply it by M in fp32, and cast the result
//! back to fp64." This wrapper owns the low-precision matrix copy and the
//! inner preconditioner and performs exactly those casts through the
//! instrumented context (they are why the "Other" bar grows slightly in
//! Figure 7's middle configuration).

use core::marker::PhantomData;

use mpgmres_gpusim::KernelClass;
use mpgmres_scalar::Scalar;
use parking_lot::Mutex;

use crate::context::{GpuContext, GpuMatrix};
use crate::precond::Preconditioner;
use crate::Stream;

/// Applies a low-precision preconditioner inside a higher-precision solve.
pub struct CastPreconditioner<Hi: Scalar, Lo: Scalar, P: Preconditioner<Lo>> {
    a_lo: GpuMatrix<Lo>,
    inner: P,
    // Reusable low-precision buffers (interior mutability because
    // Preconditioner::apply takes &self).
    bufs: Mutex<(Vec<Lo>, Vec<Lo>)>,
    _hi: PhantomData<fn() -> Hi>,
}

impl<Hi: Scalar, Lo: Scalar, P: Preconditioner<Lo>> CastPreconditioner<Hi, Lo, P> {
    /// Wrap `inner` (built for the `Lo`-precision copy `a_lo`).
    pub fn new(a_lo: GpuMatrix<Lo>, inner: P) -> Self {
        let n = a_lo.n();
        CastPreconditioner {
            a_lo,
            inner,
            bufs: Mutex::new((vec![Lo::zero(); n], vec![Lo::zero(); n])),
            _hi: PhantomData,
        }
    }

    /// The inner preconditioner.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<Hi: Scalar, Lo: Scalar, P: Preconditioner<Lo>> Preconditioner<Hi>
    for CastPreconditioner<Hi, Lo, P>
{
    fn apply(&self, ctx: &mut GpuContext, _a: Option<&GpuMatrix<Hi>>, x: &[Hi], y: &mut [Hi]) {
        let mut bufs = self.bufs.lock();
        let (x_lo, y_lo) = &mut *bufs;
        {
            let mut st = Stream::eager(ctx);
            let (xh, xlh) = (st.slice(x), st.slice_mut(x_lo));
            st.cast(KernelClass::CastDevice, xh, xlh);
        }
        self.inner.apply(ctx, Some(&self.a_lo), x_lo, y_lo);
        let mut st = Stream::eager(ctx);
        let (ylh, yh) = (st.slice(y_lo), st.slice_mut(y));
        st.cast(KernelClass::CastDevice, ylh, yh);
    }

    fn describe(&self) -> String {
        format!("{}[{}]", self.inner.describe(), Lo::NAME)
    }

    fn needs_matrix(&self) -> bool {
        // The wrapper owns its low-precision matrix copy and never touches
        // the high-precision operand it is handed.
        false
    }

    fn spmvs_per_apply(&self) -> usize {
        self.inner.spmvs_per_apply()
    }

    fn dim(&self) -> Option<usize> {
        Some(self.a_lo.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::poly::PolyPreconditioner;
    use crate::precond::Identity;
    use mpgmres_gpusim::{DeviceModel, KernelClass};
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::ReductionOrder;

    fn ctx() -> GpuContext {
        GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
    }

    fn spd(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    fn casts_happen_per_application() {
        let a = spd(16);
        let a32 = a.convert::<f32>();
        let wrap: CastPreconditioner<f64, f32, Identity> = CastPreconditioner::new(a32, Identity);
        let mut c = ctx();
        let x = vec![1.0f64; 16];
        let mut y = vec![0.0f64; 16];
        wrap.apply(&mut c, Some(&a), &x, &mut y);
        assert_eq!(y, x); // identity through fp32 of exact values
        let casts = c.profiler().class_stats(KernelClass::CastDevice).calls;
        assert_eq!(casts, 2, "down-cast and up-cast per application");
    }

    #[test]
    fn fp32_polynomial_under_fp64_solve_approximates_inverse() {
        let n = 32;
        let a = spd(n);
        let a32 = a.convert::<f32>();
        let mut c = ctx();
        let b32 = vec![1.0f32; n];
        let poly = PolyPreconditioner::build(&mut c, &a32, 10, &b32).unwrap();
        let wrap: CastPreconditioner<f64, f32, PolyPreconditioner> =
            CastPreconditioner::new(a32, poly);
        let x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        wrap.apply(&mut c, Some(&a), &x, &mut y);
        let mut ay = vec![0.0f64; n];
        a.csr().spmv(&y, &mut ay);
        // fp32 polynomial: expect rough inverse, fp32-level accuracy.
        let err: f64 = ay
            .iter()
            .zip(&x)
            .map(|(p, q)| (p - q).powi(2))
            .sum::<f64>()
            .sqrt();
        let scale = (n as f64).sqrt();
        assert!(err < 0.8 * scale, "too inaccurate: {err}");
        assert!(err > 0.0, "suspiciously exact for fp32");
    }

    #[test]
    fn describe_reports_precision() {
        let a = spd(8);
        let wrap: CastPreconditioner<f64, f32, Identity> =
            CastPreconditioner::new(a.convert::<f32>(), Identity);
        assert_eq!(Preconditioner::<f64>::describe(&wrap), "none[fp32]");
    }
}
