//! Pointwise error statistics: max error, MSE, RMSE and PSNR.

use crate::Sample;

/// Error statistics between an original and a reconstructed field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// `max_i |d_i - d'_i|` — the quantity bounded by an absolute error
    /// bound.
    pub max_abs_error: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Peak signal-to-noise ratio in dB, using the *value range* of the
    /// original data as the peak (the convention used by SDRBench, SZ and the
    /// FRaZ paper: `PSNR = 20·log10((dmax − dmin)/rmse)`).
    pub psnr: f64,
    /// Value range `dmax - dmin` of the original data.
    pub value_range: f64,
}

impl ErrorStats {
    /// Compute the statistics.  Empty inputs yield zeros (and infinite PSNR).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn compute(original: &[f64], reconstructed: &[f64]) -> Self {
        assert_eq!(original.len(), reconstructed.len());
        ErrorPass::scan(original, reconstructed).stats(original.len())
    }
}

/// Everything one pass over `(original, reconstructed)` yields: the inputs
/// of [`ErrorStats`] plus the error sum the ACF mean needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ErrorPass {
    pub max_abs_error: f64,
    pub sq_sum: f64,
    pub dmin: f64,
    pub dmax: f64,
    /// `Σ (a_i − b_i)` in index order, from the neutral element `Sum` uses
    /// (so it equals `errors.iter().sum::<f64>()` bit for bit).
    pub err_sum: f64,
}

impl ErrorPass {
    /// One pass over both buffers at their stored width.
    ///
    /// The two sums run in index order exactly as a sequential loop would;
    /// min and max use compare-select (`if x < min`), which skips NaN the
    /// same way `f64::min`/`f64::max` do.  The only difference from those
    /// is the sign chosen between `0.0` and `-0.0`, which no reported
    /// quantity can observe (see the crate docs).
    pub fn scan<A: Sample, B: Sample>(original: &[A], reconstructed: &[B]) -> Self {
        debug_assert_eq!(original.len(), reconstructed.len());
        #[cfg(target_arch = "x86_64")]
        return Self::scan_sse2(original, reconstructed);
        #[cfg(not(target_arch = "x86_64"))]
        return Self::scan_scalar(original, reconstructed);
    }

    fn new() -> Self {
        Self {
            max_abs_error: 0.0,
            sq_sum: 0.0,
            dmin: f64::INFINITY,
            dmax: f64::NEG_INFINITY,
            err_sum: std::iter::empty::<f64>().sum(),
        }
    }

    #[inline(always)]
    fn step(&mut self, a: f64, b: f64) {
        let diff = a - b;
        self.note_extremes(diff.abs(), a, a);
        self.sq_sum += diff * diff;
        self.err_sum += diff;
    }

    /// Compare-select max error, min and max.
    #[inline(always)]
    fn note_extremes(&mut self, abs: f64, lo: f64, hi: f64) {
        if abs > self.max_abs_error {
            self.max_abs_error = abs;
        }
        if lo < self.dmin {
            self.dmin = lo;
        }
        if hi > self.dmax {
            self.dmax = hi;
        }
    }

    /// The portable form of [`Self::scan`].
    #[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
    pub fn scan_scalar<A: Sample, B: Sample>(original: &[A], reconstructed: &[B]) -> Self {
        let mut pass = Self::new();
        for (&a, &b) in original.iter().zip(reconstructed) {
            pass.step(a.widen(), b.widen());
        }
        pass
    }

    /// [`Self::scan`] two values at a time: one SSE2 register per pair
    /// carries the widening, the difference and two lanes of each
    /// extreme, while the sums still take each value in index order.
    /// `MAXPD`/`MINPD` return their second operand unless the first
    /// compares greater (less), which is `if x > max { max = x }` per lane.
    #[cfg(target_arch = "x86_64")]
    #[allow(unused_unsafe)] // SSE2 arithmetic became safe to call in Rust 1.87
    fn scan_sse2<A: Sample, B: Sample>(original: &[A], reconstructed: &[B]) -> Self {
        use std::arch::x86_64::*;
        let mut pass = Self::new();
        let pairs_a = original.chunks_exact(2);
        let pairs_b = reconstructed.chunks_exact(2);
        let (tail_a, tail_b) = (pairs_a.remainder(), pairs_b.remainder());
        // SAFETY: SSE2 is part of the x86-64 baseline, and these intrinsics
        // only compute on registers.
        unsafe {
            let sign = _mm_set1_pd(-0.0);
            let mut max_abs = _mm_setzero_pd();
            let mut lo = _mm_set1_pd(f64::INFINITY);
            let mut hi = _mm_set1_pd(f64::NEG_INFINITY);
            for (pa, pb) in pairs_a.zip(pairs_b) {
                let x = A::widen2(pa);
                let diff = _mm_sub_pd(x, B::widen2(pb));
                max_abs = _mm_max_pd(_mm_andnot_pd(sign, diff), max_abs);
                lo = _mm_min_pd(x, lo);
                hi = _mm_max_pd(x, hi);
                let sq = _mm_mul_pd(diff, diff);
                pass.sq_sum += _mm_cvtsd_f64(sq);
                pass.sq_sum += _mm_cvtsd_f64(_mm_unpackhi_pd(sq, sq));
                pass.err_sum += _mm_cvtsd_f64(diff);
                pass.err_sum += _mm_cvtsd_f64(_mm_unpackhi_pd(diff, diff));
            }
            let high = |v: __m128d| _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
            pass.note_extremes(_mm_cvtsd_f64(max_abs), _mm_cvtsd_f64(lo), _mm_cvtsd_f64(hi));
            pass.note_extremes(high(max_abs), high(lo), high(hi));
        }
        for (&a, &b) in tail_a.iter().zip(tail_b) {
            pass.step(a.widen(), b.widen());
        }
        pass
    }

    /// The statistics of a pass over `n` points.
    pub fn stats(&self, n: usize) -> ErrorStats {
        if n == 0 {
            return ErrorStats {
                max_abs_error: 0.0,
                mse: 0.0,
                rmse: 0.0,
                psnr: f64::INFINITY,
                value_range: 0.0,
            };
        }
        let mse = self.sq_sum / n as f64;
        let rmse = mse.sqrt();
        let value_range = self.dmax - self.dmin;
        ErrorStats {
            max_abs_error: self.max_abs_error,
            mse,
            rmse,
            psnr: psnr_from_rmse(value_range, rmse),
            value_range,
        }
    }
}

/// `PSNR = 20·log10(range / rmse)`; infinite when the reconstruction is
/// exact, 0 when the original field is constant and the error is not.
pub fn psnr_from_rmse(value_range: f64, rmse: f64) -> f64 {
    if rmse == 0.0 {
        f64::INFINITY
    } else if value_range <= 0.0 {
        0.0
    } else {
        20.0 * (value_range / rmse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error() {
        let a = vec![1.0, 2.0, 3.0];
        let s = ErrorStats::compute(&a, &a);
        assert_eq!(s.max_abs_error, 0.0);
        assert_eq!(s.rmse, 0.0);
        assert!(s.psnr.is_infinite());
        assert_eq!(s.value_range, 2.0);
    }

    #[test]
    fn known_values() {
        let a = vec![0.0, 0.0, 0.0, 0.0];
        let b = vec![1.0, -1.0, 1.0, -1.0];
        let s = ErrorStats::compute(&a, &b);
        assert_eq!(s.max_abs_error, 1.0);
        assert_eq!(s.mse, 1.0);
        assert_eq!(s.rmse, 1.0);
        // Constant original: range 0 -> PSNR defined as 0.
        assert_eq!(s.psnr, 0.0);
    }

    #[test]
    fn psnr_formula() {
        // range 100, rmse 1 -> 40 dB.
        assert!((psnr_from_rmse(100.0, 1.0) - 40.0).abs() < 1e-12);
        // range 100, rmse 0.01 -> 80 dB.
        assert!((psnr_from_rmse(100.0, 0.01) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_decreases_with_error() {
        let a: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let small: Vec<f64> = a.iter().map(|v| v + 1e-4).collect();
        let large: Vec<f64> = a.iter().map(|v| v + 1e-2).collect();
        assert!(ErrorStats::compute(&a, &small).psnr > ErrorStats::compute(&a, &large).psnr + 30.0);
    }

    #[test]
    fn empty_input() {
        let s = ErrorStats::compute(&[], &[]);
        assert_eq!(s.max_abs_error, 0.0);
        assert!(s.psnr.is_infinite());
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let _ = ErrorStats::compute(&[1.0], &[1.0, 2.0]);
    }
}
