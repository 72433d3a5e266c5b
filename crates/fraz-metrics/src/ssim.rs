//! Structural similarity (SSIM) over 2-D slices.
//!
//! The paper uses SSIM (Wang et al., 2004) to compare visual quality of
//! decompressed slices (Figs 1 and 10).  This implementation follows the
//! standard formulation: the image is scanned with a sliding window, the
//! luminance/contrast/structure statistics are computed per window, and the
//! mean over all windows is reported.  Scientific data is not 8-bit imagery,
//! so the dynamic range `L` is taken from the original slice's value range.

use crate::Sample;

/// Configuration of the SSIM computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimConfig {
    /// Window side length (the classic choice is 8; windows are square).
    pub window: usize,
    /// Window stride; 1 reproduces the dense original definition, larger
    /// strides trade accuracy for speed on large slices.
    pub stride: usize,
    /// Stabilization constant scale k1 (C1 = (k1·L)²).
    pub k1: f64,
    /// Stabilization constant scale k2 (C2 = (k2·L)²).
    pub k2: f64,
}

impl Default for SsimConfig {
    fn default() -> Self {
        Self {
            window: 8,
            stride: 4,
            k1: 0.01,
            k2: 0.03,
        }
    }
}

/// Mean SSIM between two 2-D slices stored row-major as `rows` x `cols`.
///
/// Identical slices return exactly 1.0.  Degenerate inputs (empty, smaller
/// than one window) fall back to a single window covering the whole slice.
///
/// # Panics
/// Panics if the slice lengths do not match `rows * cols`.
pub fn mean_ssim(a: &[f64], b: &[f64], rows: usize, cols: usize, config: &SsimConfig) -> f64 {
    mean_ssim_of(a, b, rows, cols, config)
}

/// Windows computed side by side: their sums are independent chains, so
/// interleaving them hides the add latency that one window alone is bound
/// by.
const GROUP: usize = 4;

/// [`mean_ssim`] over slices at their stored width.  Each window's sums run
/// in the same row-major order as a window on its own, and the window
/// scores are added in scan order, so the result does not depend on how
/// windows are grouped.
pub(crate) fn mean_ssim_of<A: Sample, B: Sample>(
    a: &[A],
    b: &[B],
    rows: usize,
    cols: usize,
    config: &SsimConfig,
) -> f64 {
    assert_eq!(a.len(), rows * cols, "slice A shape mismatch");
    assert_eq!(b.len(), rows * cols, "slice B shape mismatch");
    if a.is_empty() {
        return 1.0;
    }

    // Dynamic range from the original slice.
    let (lo, hi) = value_bounds(a);
    // A constant slice has zero range; fall back to its magnitude (or 1) so
    // the stabilization constants stay non-zero and identical inputs still
    // score exactly 1.
    let mut range = hi - lo;
    if range <= 0.0 {
        range = hi.abs().max(1.0);
    }
    let c1 = (config.k1 * range).powi(2);
    let c2 = (config.k2 * range).powi(2);

    let window_r = config.window.min(rows).max(1);
    let window_c = config.window.min(cols).max(1);
    let stride = config.stride.max(1);
    // Window origins along one axis: every `stride`, the last one clamped
    // so the window ends on the edge.
    let last_c = cols - window_c;
    let col_windows = last_c.div_ceil(stride) + 1;
    let col_start = |k: usize| (k * stride).min(last_c);
    let last_r = rows - window_r;
    let row_windows = last_r.div_ceil(stride) + 1;

    let shape = Window {
        cols,
        rows: window_r,
        width: window_c,
        c1,
        c2,
    };
    let mut total = 0.0;
    for kr in 0..row_windows {
        let r0 = (kr * stride).min(last_r);
        let mut kc = 0;
        while kc + GROUP <= col_windows {
            let c0: [usize; GROUP] = std::array::from_fn(|j| col_start(kc + j));
            for score in shape.scores(a, b, r0, c0) {
                total += score;
            }
            kc += GROUP;
        }
        for kc in kc..col_windows {
            total += shape.scores(a, b, r0, [col_start(kc)])[0];
        }
    }
    total / (row_windows * col_windows) as f64
}

/// `(min, max)` of `values` by compare-select, which skips NaN like
/// `f64::min`/`f64::max` (see the crate docs for the one difference).
fn value_bounds<A: Sample>(values: &[A]) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        let v = v.widen();
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    (lo, hi)
}

/// The geometry and constants shared by every window of one slice.
struct Window {
    cols: usize,
    rows: usize,
    width: usize,
    c1: f64,
    c2: f64,
}

impl Window {
    /// SSIM of the `K` windows with top-left corners `(r0, c0[k])`.
    #[inline(always)]
    fn scores<const K: usize, A: Sample, B: Sample>(
        &self,
        a: &[A],
        b: &[B],
        r0: usize,
        c0: [usize; K],
    ) -> [f64; K] {
        let n = (self.rows * self.width) as f64;
        let rows = || {
            (r0..r0 + self.rows).map(move |r| {
                let at = |k: usize| r * self.cols + c0[k];
                (
                    std::array::from_fn::<_, K, _>(|k| &a[at(k)..at(k) + self.width]),
                    std::array::from_fn::<_, K, _>(|k| &b[at(k)..at(k) + self.width]),
                )
            })
        };

        let mut mean_a = [0.0f64; K];
        let mut mean_b = [0.0f64; K];
        for (ra, rb) in rows() {
            for c in 0..self.width {
                for k in 0..K {
                    mean_a[k] += ra[k][c].widen();
                    mean_b[k] += rb[k][c].widen();
                }
            }
        }
        for k in 0..K {
            mean_a[k] /= n;
            mean_b[k] /= n;
        }

        let mut var_a = [0.0f64; K];
        let mut var_b = [0.0f64; K];
        let mut cov = [0.0f64; K];
        for (ra, rb) in rows() {
            for c in 0..self.width {
                for k in 0..K {
                    let da = ra[k][c].widen() - mean_a[k];
                    let db = rb[k][c].widen() - mean_b[k];
                    var_a[k] += da * da;
                    var_b[k] += db * db;
                    cov[k] += da * db;
                }
            }
        }

        std::array::from_fn(|k| {
            let (mean_a, mean_b) = (mean_a[k], mean_b[k]);
            let var_a = var_a[k] / n;
            let var_b = var_b[k] / n;
            let cov = cov[k] / n;
            ((2.0 * mean_a * mean_b + self.c1) * (2.0 * cov + self.c2))
                / ((mean_a * mean_a + mean_b * mean_b + self.c1) * (var_a + var_b + self.c2))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols)
            .map(|i| (i % cols) as f64 + (i / cols) as f64 * 0.5)
            .collect()
    }

    #[test]
    fn identical_slices_score_one() {
        let a = ramp(32, 32);
        let s = mean_ssim(&a, &a, 32, 32, &SsimConfig::default());
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_perturbation_scores_near_one() {
        let a = ramp(32, 32);
        let b: Vec<f64> = a.iter().map(|v| v + 1e-6).collect();
        let s = mean_ssim(&a, &b, 32, 32, &SsimConfig::default());
        assert!(s > 0.999);
    }

    #[test]
    fn heavy_noise_scores_lower_than_light_noise() {
        let a = ramp(64, 64);
        let light: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.05 * ((i * 31 % 7) as f64 - 3.0))
            .collect();
        let heavy: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v + 5.0 * ((i * 31 % 7) as f64 - 3.0))
            .collect();
        let s_light = mean_ssim(&a, &light, 64, 64, &SsimConfig::default());
        let s_heavy = mean_ssim(&a, &heavy, 64, 64, &SsimConfig::default());
        assert!(s_light > s_heavy);
        assert!(s_heavy < 0.9);
    }

    #[test]
    fn structural_destruction_scores_low() {
        let a = ramp(32, 32);
        let mut b = a.clone();
        b.reverse();
        let s = mean_ssim(&a, &b, 32, 32, &SsimConfig::default());
        assert!(s < 0.5, "reversed slice scored {s}");
    }

    #[test]
    fn small_slices_are_handled() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let s = mean_ssim(&a, &a, 2, 2, &SsimConfig::default());
        assert!((s - 1.0).abs() < 1e-12);
        let one = vec![5.0];
        assert!((mean_ssim(&one, &one, 1, 1, &SsimConfig::default()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slice_scores_one() {
        assert_eq!(mean_ssim(&[], &[], 0, 0, &SsimConfig::default()), 1.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = mean_ssim(&[1.0, 2.0], &[1.0, 2.0], 3, 3, &SsimConfig::default());
    }

    #[test]
    fn stride_one_and_four_agree_roughly() {
        let a = ramp(40, 40);
        let b: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.2 * ((i % 5) as f64 - 2.0))
            .collect();
        let dense = mean_ssim(
            &a,
            &b,
            40,
            40,
            &SsimConfig {
                stride: 1,
                ..Default::default()
            },
        );
        let sparse = mean_ssim(
            &a,
            &b,
            40,
            40,
            &SsimConfig {
                stride: 4,
                ..Default::default()
            },
        );
        assert!(
            (dense - sparse).abs() < 0.05,
            "dense={dense} sparse={sparse}"
        );
    }
}
