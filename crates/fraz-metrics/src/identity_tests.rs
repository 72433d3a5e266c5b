//! Bit-identity of the fused quality kernel against the per-metric
//! composition it replaced.
//!
//! `reference` is a verbatim copy of that composition: `ErrorStats::compute`
//! and `mean_ssim` as they were written before the kernels, plus
//! [`acf::autocorrelation`] (unchanged) over `values_f64` and `slice2d`
//! copies.  Every floating-point field is compared with `to_bits`, so NaN
//! payloads, signed zeros and the last ulp all count.

use fraz_data::{DataBuffer, Dataset, Dims};
use proptest::prelude::*;

use crate::error_stats::{ErrorPass, ErrorStats};
use crate::ssim::{self, SsimConfig};
use crate::{acf, QualityReport, Sample};

mod reference {
    use super::*;
    use crate::error_stats::psnr_from_rmse;
    use crate::ratio;

    pub fn error_stats(original: &[f64], reconstructed: &[f64]) -> ErrorStats {
        assert_eq!(original.len(), reconstructed.len());
        if original.is_empty() {
            return ErrorStats {
                max_abs_error: 0.0,
                mse: 0.0,
                rmse: 0.0,
                psnr: f64::INFINITY,
                value_range: 0.0,
            };
        }
        let mut max_abs_error = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut dmin = f64::INFINITY;
        let mut dmax = f64::NEG_INFINITY;
        for (&a, &b) in original.iter().zip(reconstructed.iter()) {
            let diff = a - b;
            max_abs_error = max_abs_error.max(diff.abs());
            sq_sum += diff * diff;
            dmin = dmin.min(a);
            dmax = dmax.max(a);
        }
        let mse = sq_sum / original.len() as f64;
        let rmse = mse.sqrt();
        let value_range = dmax - dmin;
        let psnr = psnr_from_rmse(value_range, rmse);
        ErrorStats {
            max_abs_error,
            mse,
            rmse,
            psnr,
            value_range,
        }
    }

    pub fn mean_ssim(a: &[f64], b: &[f64], rows: usize, cols: usize, config: &SsimConfig) -> f64 {
        assert_eq!(a.len(), rows * cols, "slice A shape mismatch");
        assert_eq!(b.len(), rows * cols, "slice B shape mismatch");
        if a.is_empty() {
            return 1.0;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in a {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let mut range = hi - lo;
        if range <= 0.0 {
            range = hi.abs().max(1.0);
        }
        let c1 = (config.k1 * range).powi(2);
        let c2 = (config.k2 * range).powi(2);
        let window_r = config.window.min(rows).max(1);
        let window_c = config.window.min(cols).max(1);
        let stride = config.stride.max(1);
        let mut total = 0.0;
        let mut count = 0usize;
        let mut r = 0;
        loop {
            let r0 = r.min(rows.saturating_sub(window_r));
            let mut c = 0;
            loop {
                let c0 = c.min(cols.saturating_sub(window_c));
                total += window_ssim(a, b, cols, r0, c0, window_r, window_c, c1, c2);
                count += 1;
                if c0 + window_c >= cols {
                    break;
                }
                c += stride;
            }
            if r0 + window_r >= rows {
                break;
            }
            r += stride;
        }
        total / count as f64
    }

    #[allow(clippy::too_many_arguments)]
    fn window_ssim(
        a: &[f64],
        b: &[f64],
        cols: usize,
        r0: usize,
        c0: usize,
        window_r: usize,
        window_c: usize,
        c1: f64,
        c2: f64,
    ) -> f64 {
        let n = (window_r * window_c) as f64;
        let mut mean_a = 0.0;
        let mut mean_b = 0.0;
        for r in r0..r0 + window_r {
            for c in c0..c0 + window_c {
                mean_a += a[r * cols + c];
                mean_b += b[r * cols + c];
            }
        }
        mean_a /= n;
        mean_b /= n;
        let mut var_a = 0.0;
        let mut var_b = 0.0;
        let mut cov = 0.0;
        for r in r0..r0 + window_r {
            for c in c0..c0 + window_c {
                let da = a[r * cols + c] - mean_a;
                let db = b[r * cols + c] - mean_b;
                var_a += da * da;
                var_b += db * db;
                cov += da * db;
            }
        }
        var_a /= n;
        var_b /= n;
        cov /= n;
        ((2.0 * mean_a * mean_b + c1) * (2.0 * cov + c2))
            / ((mean_a * mean_a + mean_b * mean_b + c1) * (var_a + var_b + c2))
    }

    pub fn evaluate(
        original: &Dataset,
        reconstructed: &Dataset,
        compressed_bytes: usize,
    ) -> QualityReport {
        let a = original.values_f64();
        let b = reconstructed.values_f64();
        let stats = error_stats(&a, &b);
        let original_bytes = original.byte_size();
        let (rows, cols, slice_a) = original.slice2d(original.dims.as_slice()[0] / 2);
        let (_, _, slice_b) = reconstructed.slice2d(original.dims.as_slice()[0] / 2);
        let ssim = mean_ssim(&slice_a, &slice_b, rows, cols, &SsimConfig::default());
        let errors: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        QualityReport {
            compression_ratio: ratio::compression_ratio(original_bytes, compressed_bytes),
            bit_rate: ratio::bit_rate(compressed_bytes, original.len()),
            max_abs_error: stats.max_abs_error,
            rmse: stats.rmse,
            psnr: stats.psnr,
            ssim,
            acf_error: acf::autocorrelation(&errors, 1),
            num_points: original.len(),
            original_bytes,
            compressed_bytes,
        }
    }
}

fn assert_same_bits(what: &str, new: f64, old: f64) {
    assert_eq!(
        new.to_bits(),
        old.to_bits(),
        "{what}: kernel {new:e} ({:#x}) vs reference {old:e} ({:#x})",
        new.to_bits(),
        old.to_bits()
    );
}

fn assert_identical(original: &Dataset, reconstructed: &Dataset, compressed_bytes: usize) {
    let new = QualityReport::evaluate(original, reconstructed, compressed_bytes);
    let old = reference::evaluate(original, reconstructed, compressed_bytes);
    assert_same_bits(
        "compression_ratio",
        new.compression_ratio,
        old.compression_ratio,
    );
    assert_same_bits("bit_rate", new.bit_rate, old.bit_rate);
    assert_same_bits("max_abs_error", new.max_abs_error, old.max_abs_error);
    assert_same_bits("rmse", new.rmse, old.rmse);
    assert_same_bits("psnr", new.psnr, old.psnr);
    assert_same_bits("ssim", new.ssim, old.ssim);
    assert_same_bits("acf_error", new.acf_error, old.acf_error);
    assert_eq!(new.num_points, old.num_points);
    assert_eq!(new.original_bytes, old.original_bytes);
    assert_eq!(new.compressed_bytes, old.compressed_bytes);
}

/// The portable kernels (the only ones on targets without SSE2) must agree
/// with the dispatched ones, which `assert_identical` ties to the reference.
fn assert_portable_paths_agree(original: &Dataset, reconstructed: &Dataset) {
    fn agree<A: Sample, B: Sample>(a: &[A], b: &[B]) {
        let (fast, portable) = (ErrorPass::scan(a, b), ErrorPass::scan_scalar(a, b));
        assert_same_bits("max_abs_error", fast.max_abs_error, portable.max_abs_error);
        assert_same_bits("sq_sum", fast.sq_sum, portable.sq_sum);
        // Which signed zero wins a tie is the one freedom compare-select
        // takes (see the crate docs); no reported value can observe it.
        assert_eq!(fast.dmin, portable.dmin);
        assert_eq!(fast.dmax, portable.dmax);
        assert_same_bits("err_sum", fast.err_sum, portable.err_sum);
        assert_same_bits(
            "acf_error",
            acf::lag1_of_difference(a, b, fast.err_sum),
            acf::lag1_scalar(a, b, fast.err_sum),
        );
    }
    match (&original.buffer, &reconstructed.buffer) {
        (DataBuffer::F32(a), DataBuffer::F32(b)) => agree(a, b),
        (DataBuffer::F32(a), DataBuffer::F64(b)) => agree(a, b),
        (DataBuffer::F64(a), DataBuffer::F32(b)) => agree(a, b),
        (DataBuffer::F64(a), DataBuffer::F64(b)) => agree(a, b),
    }
}

/// Deterministic generator for field values.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// How the original and reconstructed values are drawn.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Smooth field, small reconstruction error.
    Smooth,
    /// Random field with NaN sprinkled into either side.
    WithNan,
    /// Random field with ±∞ sprinkled into either side.
    WithInfinity,
    /// Constant original, reconstruction constant or noisy.
    Constant,
    /// Reconstruction equal to the original.
    Exact,
    /// Exact zeros of both signs and tiny values.
    SignedZeros,
    /// Magnitudes near the top of the `f32` range and beyond it.
    Huge,
}

const REGIMES: [Regime; 7] = [
    Regime::Smooth,
    Regime::WithNan,
    Regime::WithInfinity,
    Regime::Constant,
    Regime::Exact,
    Regime::SignedZeros,
    Regime::Huge,
];

fn values(regime: Regime, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Lcg(seed);
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = match regime {
            Regime::Smooth => {
                let x = (i as f64 * 0.07).sin() * 40.0 + 3.0;
                (x, x + rng.unit() * 1e-3)
            }
            Regime::WithNan | Regime::WithInfinity => {
                let x = rng.unit() * 100.0;
                let mut y = x + rng.unit();
                let special = if matches!(regime, Regime::WithNan) {
                    f64::NAN
                } else if rng.next() % 2 == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                let mut x = x;
                match rng.next() % 16 {
                    0 => x = special,
                    1 => y = special,
                    _ => {}
                }
                (x, y)
            }
            Regime::Constant => {
                let y = if seed % 2 == 0 { 2.5 } else { 2.5 + rng.unit() };
                (2.5, y)
            }
            Regime::Exact => {
                let x = rng.unit() * 7.0;
                (x, x)
            }
            Regime::SignedZeros => {
                let pick = |r: u64| match r % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1e-300,
                    _ => -1e-30,
                };
                (pick(rng.next()), pick(rng.next()))
            }
            Regime::Huge => {
                let x = rng.unit() * 3e38;
                (x, x * 1.5)
            }
        };
        a.push(x);
        b.push(y);
    }
    (a, b)
}

fn dataset(dims: &Dims, values: Vec<f64>, double: bool) -> Dataset {
    if double {
        Dataset::from_f64("t", "f", 0, dims.clone(), values)
    } else {
        Dataset::from_f32(
            "t",
            "f",
            0,
            dims.clone(),
            values.into_iter().map(|v| v as f32).collect(),
        )
    }
}

fn check_case(axes: &[usize], regime: Regime, dtypes: u8, seed: u64) {
    let dims = Dims::new(axes);
    let (a, b) = values(regime, dims.len(), seed);
    let original = dataset(&dims, a, dtypes & 1 == 1);
    let reconstructed = dataset(&dims, b, dtypes & 2 == 2);
    assert_identical(&original, &reconstructed, 1 + (seed % 997) as usize);
    assert_portable_paths_agree(&original, &reconstructed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn quality_report_matches_reference_bit_for_bit(
        axes in proptest::collection::vec(1usize..14, 1..=4),
        regime in 0usize..REGIMES.len(),
        dtypes in 0u8..4,
        seed in any::<u64>(),
    ) {
        check_case(&axes, REGIMES[regime], dtypes, seed);
    }

    #[test]
    fn mean_ssim_matches_reference_for_any_window_and_stride(
        rows in 1usize..40,
        cols in 1usize..40,
        window in 1usize..12,
        stride in 1usize..7,
        regime in 0usize..REGIMES.len(),
        seed in any::<u64>(),
    ) {
        let (a, b) = values(REGIMES[regime], rows * cols, seed);
        let config = SsimConfig { window, stride, ..SsimConfig::default() };
        assert_same_bits(
            "mean_ssim",
            ssim::mean_ssim(&a, &b, rows, cols, &config),
            reference::mean_ssim(&a, &b, rows, cols, &config),
        );
    }

    #[test]
    fn error_stats_match_reference_bit_for_bit(
        n in 0usize..300,
        regime in 0usize..REGIMES.len(),
        seed in any::<u64>(),
    ) {
        let (a, b) = values(REGIMES[regime], n, seed);
        let new = ErrorStats::compute(&a, &b);
        let old = reference::error_stats(&a, &b);
        assert_same_bits("max_abs_error", new.max_abs_error, old.max_abs_error);
        assert_same_bits("mse", new.mse, old.mse);
        assert_same_bits("rmse", new.rmse, old.rmse);
        assert_same_bits("psnr", new.psnr, old.psnr);
        assert_same_bits("value_range", new.value_range, old.value_range);
    }
}

#[test]
fn every_regime_dtype_and_rank_matches_on_fixed_shapes() {
    let shapes: [&[usize]; 10] = [
        &[1],
        &[2],
        &[3],
        &[1, 1],
        &[1, 2],
        &[257],
        &[9, 31],
        &[8, 24, 24],
        &[3, 1, 9, 10],
        &[2, 3, 8, 9],
    ];
    for axes in shapes {
        for (r, &regime) in REGIMES.iter().enumerate() {
            for dtypes in 0..4 {
                check_case(axes, regime, dtypes, 0x5EED + r as u64);
            }
        }
    }
}

#[test]
fn hurricane_fields_match_reference() {
    let app = fraz_data::synthetic::hurricane(16, 48, 48, 1, 1);
    for name in app.field_names() {
        let original = app.field(&name, 0);
        let range = original.stats().value_range();
        // A truncation-like reconstruction: round to a grid of range·1e-3.
        let step = if range > 0.0 { range * 1e-3 } else { 1.0 };
        let rounded = original
            .values_f64()
            .iter()
            .map(|v| (v / step).round() * step)
            .collect();
        let reconstructed = dataset(&original.dims, rounded, false);
        assert_identical(&original, &reconstructed, 4096);
    }
}
