//! Compression-quality metrics used throughout the FRaZ evaluation.
//!
//! The paper reports, per compressed field: compression ratio and bit-rate
//! (Figs 7–9), PSNR / RMSE / maximum error (Figs 1, 9, 10), SSIM over a 2-D
//! slice (Figs 1, 10) and the lag-1 autocorrelation of the pointwise error
//! (Figs 1, 10).  This crate computes all of them from an original dataset, a
//! reconstructed dataset and the compressed byte count.
//!
//! * [`error_stats`] — max error, MSE, RMSE, PSNR.
//! * [`ssim`] — windowed structural similarity on 2-D slices.
//! * [`acf`] — autocorrelation of the error field.
//! * [`ratio`] — compression ratio and bit-rate bookkeeping.
//!
//! [`QualityReport::evaluate`] bundles everything into a single serializable
//! record, which the experiment binaries append to their JSON output.
//!
//! # The quality kernel and its bit-identity contract
//!
//! A fixed-PSNR search runs [`QualityReport::evaluate`] once per candidate
//! bound, so it is a fused kernel rather than a composition of the
//! per-metric functions.  It reads both buffers in place at their stored
//! width (`f32`/`f64`, mixed allowed), makes one pass for max error,
//! squared-error sum, value range and error sum, a second pass for the
//! lag-1 ACF (recomputing each difference), and SSIM reads only the central
//! plane.  Nothing proportional to the field is allocated.
//!
//! Every field of the report is **bit-identical** to composing the public
//! functions over widened copies: [`error_stats::ErrorStats::compute`] on
//! `values_f64()`, [`ssim::mean_ssim`] on `slice2d` of the central plane and
//! [`acf::autocorrelation`] at lag 1 of the error vector.  The kernels keep
//! that contract by construction:
//!
//! * every floating-point sum is accumulated in index order, one value at
//!   a time, from the same neutral element as the original loop or `Sum`;
//!   speed comes from running *independent* sums side by side (the two
//!   pass-one sums, the two ACF sums, [`ssim`] windows in groups), never
//!   from reassociating one sum;
//! * min and max use compare-select in independent lanes, which is exact
//!   and order-free and skips NaN like `f64::min`/`f64::max`.  The one
//!   freedom it takes, which of `0.0`/`-0.0` wins a tie, cannot reach a
//!   reported value: a zero range is treated the same whatever its sign.
//!
//! On x86-64 both passes widen, subtract and take extremes two values per
//! SSE2 register (`MAXPD`/`MINPD` are compare-select per lane) while the
//! sums still take one value at a time; other targets run the portable
//! scalar form, which the tests hold to the same results.
//!
//! The test suite pins the contract with `to_bits` comparisons against a
//! verbatim copy of the earlier composition.

pub mod acf;
pub mod error_stats;
pub mod ratio;
pub mod ssim;

use serde::{Deserialize, Serialize};

use fraz_data::{DataBuffer, Dataset};

/// A stored value the quality kernels read in place, widened exactly to
/// `f64` at the point of use.
pub(crate) trait Sample: Copy {
    fn widen(self) -> f64;

    /// `pair[0]` and `pair[1]` widened, low lane first.
    ///
    /// # Panics
    /// Panics if `pair` holds fewer than two values.
    #[cfg(target_arch = "x86_64")]
    fn widen2(pair: &[Self]) -> std::arch::x86_64::__m128d;
}

impl Sample for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn widen2(pair: &[f32]) -> std::arch::x86_64::__m128d {
        use std::arch::x86_64::*;
        assert!(pair.len() >= 2);
        // SAFETY: `pair` holds at least two `f32`, the 8 bytes
        // `_mm_loadl_epi64` reads (it has no alignment requirement); SSE2
        // is part of the x86-64 baseline.
        unsafe { _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(pair.as_ptr().cast()))) }
    }
}

impl Sample for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn widen2(pair: &[f64]) -> std::arch::x86_64::__m128d {
        assert!(pair.len() >= 2);
        // SAFETY: `pair` holds at least two `f64`, the 16 bytes
        // `_mm_loadu_pd` reads (it has no alignment requirement); SSE2 is
        // part of the x86-64 baseline.
        unsafe { std::arch::x86_64::_mm_loadu_pd(pair.as_ptr()) }
    }
}

/// All quality metrics for one (original, reconstructed, compressed-size)
/// triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// `s(D) / s(D')` — the paper's ρ.
    pub compression_ratio: f64,
    /// Bits per data point after compression.
    pub bit_rate: f64,
    /// `max_i |d_i - d'_i|`.
    pub max_abs_error: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Peak signal-to-noise ratio in dB (normalized by the value range).
    pub psnr: f64,
    /// Mean SSIM over the central 2-D slice.
    pub ssim: f64,
    /// Lag-1 autocorrelation of the pointwise error.
    pub acf_error: f64,
    /// Number of data points.
    pub num_points: usize,
    /// Original size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
}

impl QualityReport {
    /// Compute every metric for `original` vs `reconstructed` given the
    /// compressed payload size in bytes.
    ///
    /// # Panics
    /// Panics if the two datasets have different lengths.
    pub fn evaluate(original: &Dataset, reconstructed: &Dataset, compressed_bytes: usize) -> Self {
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "original and reconstructed datasets must have the same length"
        );
        let original_bytes = original.byte_size();
        let fields = match (&original.buffer, &reconstructed.buffer) {
            (DataBuffer::F32(a), DataBuffer::F32(b)) => Fields::of(a, b, original, reconstructed),
            (DataBuffer::F32(a), DataBuffer::F64(b)) => Fields::of(a, b, original, reconstructed),
            (DataBuffer::F64(a), DataBuffer::F32(b)) => Fields::of(a, b, original, reconstructed),
            (DataBuffer::F64(a), DataBuffer::F64(b)) => Fields::of(a, b, original, reconstructed),
        };
        Self {
            compression_ratio: ratio::compression_ratio(original_bytes, compressed_bytes),
            bit_rate: ratio::bit_rate(compressed_bytes, original.len()),
            max_abs_error: fields.stats.max_abs_error,
            rmse: fields.stats.rmse,
            psnr: fields.stats.psnr,
            ssim: fields.ssim,
            acf_error: fields.acf_error,
            num_points: original.len(),
            original_bytes,
            compressed_bytes,
        }
    }
}

/// The data-dependent fields of a [`QualityReport`].
struct Fields {
    stats: error_stats::ErrorStats,
    ssim: f64,
    acf_error: f64,
}

impl Fields {
    fn of<A: Sample, B: Sample>(
        a: &[A],
        b: &[B],
        original: &Dataset,
        reconstructed: &Dataset,
    ) -> Self {
        let pass = error_stats::ErrorPass::scan(a, b);
        let index = original.dims.as_slice()[0] / 2;
        let (rows, cols, plane_a) = central_plane(a, original.dims.as_slice(), index);
        let (_, _, plane_b) = central_plane(b, reconstructed.dims.as_slice(), index);
        Self {
            stats: pass.stats(a.len()),
            ssim: ssim::mean_ssim_of(plane_a, plane_b, rows, cols, &ssim::SsimConfig::default()),
            acf_error: acf::lag1_of_difference(a, b, pass.err_sum),
        }
    }
}

/// The 2-D slice [`Dataset::slice2d`] extracts (the last two dimensions at
/// `index` of the slowest one; 1-D and 2-D fields whole), borrowed from the
/// stored values instead of copied.
fn central_plane<'a, T>(values: &'a [T], dims: &[usize], index: usize) -> (usize, usize, &'a [T]) {
    match dims.len() {
        0 => (0, 0, &[]),
        1 => (1, dims[0], values),
        2 => (dims[0], dims[1], values),
        _ => {
            let rows = dims[dims.len() - 2];
            let cols = dims[dims.len() - 1];
            let plane = rows * cols;
            let nplanes = values.len() / plane;
            let start = index.min(nplanes.saturating_sub(1)) * plane;
            (rows, cols, &values[start..start + plane])
        }
    }
}

#[cfg(test)]
mod identity_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::{Dataset, Dims};

    fn make_pair(n: usize, noise: f64) -> (Dataset, Dataset) {
        let original: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
        let reconstructed: Vec<f32> = original
            .iter()
            .enumerate()
            .map(|(i, &v)| v + noise as f32 * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        (
            Dataset::from_f32("t", "f", 0, Dims::d1(n), original),
            Dataset::from_f32("t", "f", 0, Dims::d1(n), reconstructed),
        )
    }

    #[test]
    fn perfect_reconstruction_has_infinite_psnr_and_unit_ssim() {
        let (a, _) = make_pair(1000, 0.0);
        let report = QualityReport::evaluate(&a, &a, 500);
        assert_eq!(report.max_abs_error, 0.0);
        assert_eq!(report.rmse, 0.0);
        assert!(report.psnr.is_infinite());
        assert!((report.ssim - 1.0).abs() < 1e-9);
        assert_eq!(report.compression_ratio, 8.0);
        assert_eq!(report.bit_rate, 4.0);
    }

    #[test]
    fn noisier_reconstruction_scores_worse() {
        let (a, b_small) = make_pair(4096, 0.01);
        let (_, b_large) = make_pair(4096, 0.5);
        let small = QualityReport::evaluate(&a, &b_small, 1024);
        let large = QualityReport::evaluate(&a, &b_large, 1024);
        assert!(small.psnr > large.psnr);
        assert!(small.rmse < large.rmse);
        assert!(small.max_abs_error < large.max_abs_error);
        assert!(small.ssim >= large.ssim);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let a = Dataset::from_f32("t", "f", 0, Dims::d1(10), vec![0.0; 10]);
        let b = Dataset::from_f32("t", "f", 0, Dims::d1(5), vec![0.0; 5]);
        let _ = QualityReport::evaluate(&a, &b, 1);
    }

    #[test]
    fn report_fields_are_consistent() {
        let (a, b) = make_pair(2048, 0.1);
        let report = QualityReport::evaluate(&a, &b, 2048);
        assert_eq!(report.num_points, 2048);
        assert_eq!(report.original_bytes, 2048 * 4);
        assert_eq!(report.compressed_bytes, 2048);
        assert!((report.compression_ratio - 4.0).abs() < 1e-12);
        assert!((report.bit_rate - 8.0).abs() < 1e-12);
        assert!(report.max_abs_error >= report.rmse);
    }
}
