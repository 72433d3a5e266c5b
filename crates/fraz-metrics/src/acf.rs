//! Autocorrelation of the compression-error field.
//!
//! The paper reports `ACF(error)` — the lag-1 autocorrelation of the
//! pointwise error `d_i − d'_i` — as a fidelity indicator alongside PSNR and
//! SSIM (Figs 1 and 10): error that is *white* (ACF near zero) distorts
//! downstream analyses less than error that is spatially correlated.

use crate::Sample;

/// Sample autocorrelation of `series` at the given `lag`.
///
/// Returns 0 for series shorter than `lag + 2` or with zero variance (a
/// constant error field — including the all-zero error of a lossless
/// reconstruction — has no meaningful autocorrelation).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if series.len() < lag + 2 {
        return 0.0;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|&v| (v - mean) * (v - mean)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let numer: f64 = (0..n - lag)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum();
    numer / denom
}

/// [`autocorrelation`] at lag 1 of the error series `a_i − b_i`, without
/// materialising it: the differences are recomputed from the stored
/// buffers, and `err_sum` is their index-order sum (from the first pass of
/// the quality kernel).  Bit-identical to `autocorrelation(&errors, 1)`:
/// both sums run in index order from the same neutral element, and they
/// are independent, so one loop carries both.
pub(crate) fn lag1_of_difference<A: Sample, B: Sample>(a: &[A], b: &[B], err_sum: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    return Lag1::run(a, b, err_sum, Lag1::push_pairs_sse2);
    #[cfg(not(target_arch = "x86_64"))]
    return lag1_scalar(a, b, err_sum);
}

/// The portable form of [`lag1_of_difference`].
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
pub(crate) fn lag1_scalar<A: Sample, B: Sample>(a: &[A], b: &[B], err_sum: f64) -> f64 {
    Lag1::run(a, b, err_sum, |_, _, _, _| 0)
}

/// The running sums of a lag-1 autocorrelation over centred values.
struct Lag1 {
    prev: f64,
    numer: f64,
    denom: f64,
}

impl Lag1 {
    /// Centre on the mean, let `bulk` consume a prefix of the values after
    /// the first (returning how many it took), push the rest one at a time.
    #[inline(always)]
    fn run<A: Sample, B: Sample>(
        a: &[A],
        b: &[B],
        err_sum: f64,
        bulk: impl FnOnce(&mut Self, &[A], &[B], f64) -> usize,
    ) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        if n < 3 {
            return 0.0;
        }
        let mean = err_sum / n as f64;
        let first = (a[0].widen() - b[0].widen()) - mean;
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut sums = Self {
            prev: first,
            numer: zero,
            denom: zero + first * first,
        };
        let done = 1 + bulk(&mut sums, &a[1..], &b[1..], mean);
        for (&x, &y) in a[done..].iter().zip(&b[done..]) {
            sums.push((x.widen() - y.widen()) - mean);
        }
        if sums.denom == 0.0 {
            return 0.0;
        }
        sums.numer / sums.denom
    }

    #[inline(always)]
    fn push(&mut self, cur: f64) {
        self.denom += cur * cur;
        self.numer += self.prev * cur;
        self.prev = cur;
    }

    /// Push values two at a time: one SSE2 register per pair carries the
    /// widening, the centring and both products; the sums still take each
    /// term in index order.
    #[cfg(target_arch = "x86_64")]
    #[allow(unused_unsafe)] // SSE2 arithmetic became safe to call in Rust 1.87
    fn push_pairs_sse2<A: Sample, B: Sample>(&mut self, a: &[A], b: &[B], mean: f64) -> usize {
        use std::arch::x86_64::*;
        let pairs = a.chunks_exact(2).zip(b.chunks_exact(2));
        let taken = 2 * (a.len() / 2);
        // SAFETY: SSE2 is part of the x86-64 baseline, and these intrinsics
        // only compute on registers.
        unsafe {
            let mean = _mm_set1_pd(mean);
            let mut prev = _mm_set1_pd(self.prev);
            for (pa, pb) in pairs {
                let cur = _mm_sub_pd(_mm_sub_pd(A::widen2(pa), B::widen2(pb)), mean);
                let sq = _mm_mul_pd(cur, cur);
                // (previous value, first of the pair) · (first, second).
                let lagged = _mm_mul_pd(_mm_shuffle_pd::<0b01>(prev, cur), cur);
                self.denom += _mm_cvtsd_f64(sq);
                self.numer += _mm_cvtsd_f64(lagged);
                self.denom += _mm_cvtsd_f64(_mm_unpackhi_pd(sq, sq));
                self.numer += _mm_cvtsd_f64(_mm_unpackhi_pd(lagged, lagged));
                prev = cur;
            }
            self.prev = _mm_cvtsd_f64(_mm_unpackhi_pd(prev, prev));
        }
        taken
    }
}

/// Autocorrelation function for lags `1..=max_lag`.
pub fn acf(series: &[f64], max_lag: usize) -> Vec<f64> {
    (1..=max_lag)
        .map(|lag| autocorrelation(series, lag))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_has_zero_acf() {
        assert_eq!(autocorrelation(&[3.0; 100], 1), 0.0);
        assert_eq!(autocorrelation(&[0.0; 100], 1), 0.0);
    }

    #[test]
    fn short_series_is_zero() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
        assert_eq!(autocorrelation(&[], 1), 0.0);
    }

    #[test]
    fn alternating_series_has_negative_lag1() {
        let series: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r = autocorrelation(&series, 1);
        assert!(r < -0.9, "lag-1 ACF of alternating series was {r}");
    }

    #[test]
    fn smooth_series_has_high_lag1() {
        let series: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let r = autocorrelation(&series, 1);
        assert!(r > 0.95, "lag-1 ACF of smooth series was {r}");
    }

    #[test]
    fn white_noise_has_low_acf() {
        // Deterministic pseudo-noise via a simple LCG.
        let mut state = 123456789u64;
        let series: Vec<f64> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let r = autocorrelation(&series, 1);
        assert!(r.abs() < 0.05, "lag-1 ACF of white noise was {r}");
    }

    #[test]
    fn acf_returns_requested_lags() {
        let series: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin()).collect();
        let values = acf(&series, 5);
        assert_eq!(values.len(), 5);
        assert_eq!(values[0], autocorrelation(&series, 1));
        assert_eq!(values[4], autocorrelation(&series, 5));
    }

    #[test]
    fn lag_zero_equivalent_is_one() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // autocorrelation at lag 0 is not exposed, but lag 1 of a linear ramp
        // should be close to 1.
        assert!(autocorrelation(&series, 1) > 0.95);
    }
}
