//! The blockwise prediction + linear-scaling quantization pipeline.
//!
//! This is SZ's stages 1 and 2: the grid is split into non-overlapping
//! blocks, each block chooses between the Lorenzo predictor and a per-block
//! regression plane, every point's prediction error is quantized against the
//! absolute error bound, and points whose quantized reconstruction would
//! violate the bound are stored exactly ("unpredictable" points).
//!
//! Encoding and decoding traverse blocks (and points within a block) in the
//! same raster order, and the Lorenzo predictor only ever reads values that
//! the decoder will already have reconstructed, so the two sides stay
//! bit-identical.

use crate::predict::{lorenzo3, Dims3, RegressionPlane};

/// The quantization code reserved for unpredictable points.
pub const UNPREDICTABLE: u32 = 0;

/// Output of the prediction/quantization stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodedBlocks {
    /// One flag per block, `true` when the block uses the regression
    /// predictor instead of Lorenzo.
    pub regression_flags: Vec<bool>,
    /// `f32`-rounded plane coefficients for each regression block, in block
    /// order.
    pub reg_coeffs: Vec<[f32; 4]>,
    /// One quantization code per point, in traversal order; `UNPREDICTABLE`
    /// marks points stored exactly.
    pub quant_codes: Vec<u32>,
    /// Exactly-stored values for unpredictable points, in traversal order.
    pub unpredictable: Vec<f64>,
}

/// Parameters shared by [`encode`] and [`decode`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// Absolute error bound (must be positive).
    pub error_bound: f64,
    /// Block edge length.
    pub block_size: usize,
    /// Number of quantization bins (SZ's `quantization_intervals`).
    pub capacity: u32,
}

impl PipelineParams {
    fn radius(&self) -> i64 {
        (self.capacity / 2) as i64
    }
}

/// Enumerate block origins of a padded 3-D grid in raster order.
fn block_origins(dims: Dims3, block: usize) -> Vec<[usize; 3]> {
    let mut origins = Vec::new();
    let mut z = 0;
    while z < dims[0] {
        let mut y = 0;
        while y < dims[1] {
            let mut x = 0;
            while x < dims[2] {
                origins.push([z, y, x]);
                x += block;
            }
            y += block;
        }
        z += block;
    }
    origins
}

/// Estimate which predictor fits a block better, mirroring SZ's sampling
/// heuristic: the Lorenzo estimate uses *original* neighbours (a cheap
/// stand-in for reconstructed ones), the regression estimate uses the fitted
/// plane; the predictor with the smaller total absolute error wins.
fn choose_regression(
    values: &[f64],
    dims: Dims3,
    origin: [usize; 3],
    extent: [usize; 3],
    plane: &RegressionPlane,
) -> bool {
    let mut lorenzo_err = 0.0;
    let mut regression_err = 0.0;
    for dz in 0..extent[0] {
        for dy in 0..extent[1] {
            for dx in 0..extent[2] {
                let (z, y, x) = (origin[0] + dz, origin[1] + dy, origin[2] + dx);
                let idx = (z * dims[1] + y) * dims[2] + x;
                let v = values[idx];
                lorenzo_err += (v - lorenzo3(values, dims, z, y, x)).abs();
                regression_err += (v - plane.predict(dz, dy, dx)).abs();
            }
        }
    }
    regression_err < lorenzo_err
}

/// The bound-independent half of [`encode`]: the predictor each block
/// uses.
///
/// The choice between Lorenzo and the regression plane reads only the
/// original values, so FRaZ's search, which compresses one field at many
/// bounds, builds the plan once and runs [`encode_planned`] per bound.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    block_size: usize,
    /// One entry per block in raster order: the `f32`-rounded plane when
    /// the block uses regression, `None` when it uses Lorenzo.
    pub planes: Vec<Option<RegressionPlane>>,
}

impl BlockPlan {
    /// The block edge length the plan was built for.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The plan's choice as [`EncodedBlocks::regression_flags`] records it.
    pub fn regression_flags(&self) -> Vec<bool> {
        self.planes.iter().map(Option::is_some).collect()
    }
}

/// The extent of the block at `origin`, clipped to the grid.
fn block_extent(dims: Dims3, block: usize, origin: [usize; 3]) -> [usize; 3] {
    [
        block.min(dims[0] - origin[0]),
        block.min(dims[1] - origin[1]),
        block.min(dims[2] - origin[2]),
    ]
}

/// Choose each block's predictor: fit the regression plane on the block's
/// original values and keep it where [`choose_regression`] prefers it.
pub fn plan(values: &[f64], dims: Dims3, block_size: usize) -> BlockPlan {
    assert!(block_size > 0, "block size must be positive");
    let mut planes = Vec::new();
    let mut points = Vec::new();
    for origin in block_origins(dims, block_size) {
        let extent = block_extent(dims, block_size, origin);
        points.clear();
        for dz in 0..extent[0] {
            for dy in 0..extent[1] {
                for dx in 0..extent[2] {
                    let idx =
                        ((origin[0] + dz) * dims[1] + origin[1] + dy) * dims[2] + origin[2] + dx;
                    points.push(([dz, dy, dx], values[idx]));
                }
            }
        }
        let plane = RegressionPlane::fit(&points).quantized();
        planes.push(choose_regression(values, dims, origin, extent, &plane).then_some(plane));
    }
    BlockPlan { block_size, planes }
}

/// Run prediction + quantization over the whole grid: [`plan`], then
/// [`encode_planned`].
pub fn encode(
    values: &[f64],
    dims: Dims3,
    params: &PipelineParams,
    finalize: impl Fn(f64) -> f64,
) -> EncodedBlocks {
    encode_planned(
        values,
        dims,
        &plan(values, dims, params.block_size),
        params,
        finalize,
    )
}

/// Quantize the whole grid under `params.error_bound`, each block with the
/// predictor `plan` chose for it.
///
/// `finalize` rounds a reconstructed value to the precision it will have
/// after being stored back into the original buffer type (`f32` cast for
/// single-precision data); the error-bound check is performed on the
/// finalized value, so the bound holds end-to-end.
pub fn encode_planned(
    values: &[f64],
    dims: Dims3,
    plan: &BlockPlan,
    params: &PipelineParams,
    finalize: impl Fn(f64) -> f64,
) -> EncodedBlocks {
    assert!(params.error_bound > 0.0, "error bound must be positive");
    assert!(params.block_size > 0, "block size must be positive");
    assert!(params.capacity >= 4, "quantization capacity too small");
    assert_eq!(
        plan.block_size, params.block_size,
        "plan built for another block size"
    );
    let n = values.len();
    let eb = params.error_bound;
    let radius = params.radius();
    let mut out = EncodedBlocks {
        regression_flags: plan.regression_flags(),
        quant_codes: Vec::with_capacity(n),
        ..Default::default()
    };
    let mut recon = vec![0.0f64; n];

    let origins = block_origins(dims, params.block_size);
    assert_eq!(
        origins.len(),
        plan.planes.len(),
        "plan built for another grid"
    );
    for (origin, plane) in origins.into_iter().zip(&plan.planes) {
        let extent = block_extent(dims, params.block_size, origin);
        if let Some(plane) = plane {
            out.reg_coeffs.push([
                plane.coeffs[0] as f32,
                plane.coeffs[1] as f32,
                plane.coeffs[2] as f32,
                plane.coeffs[3] as f32,
            ]);
        }

        for dz in 0..extent[0] {
            for dy in 0..extent[1] {
                for dx in 0..extent[2] {
                    let (z, y, x) = (origin[0] + dz, origin[1] + dy, origin[2] + dx);
                    let idx = (z * dims[1] + y) * dims[2] + x;
                    let orig = values[idx];
                    let pred = match plane {
                        Some(plane) => plane.predict(dz, dy, dx),
                        None => lorenzo3(&recon, dims, z, y, x),
                    };
                    let diff = orig - pred;
                    let code_f = (diff / (2.0 * eb)).round();
                    let mut stored = false;
                    if code_f.abs() < radius as f64 && code_f.is_finite() {
                        let code = radius + code_f as i64;
                        if code > 0 && code < params.capacity as i64 {
                            let recon_val = finalize(pred + 2.0 * eb * (code - radius) as f64);
                            if (recon_val - orig).abs() <= eb && recon_val.is_finite() {
                                out.quant_codes.push(code as u32);
                                recon[idx] = recon_val;
                                stored = true;
                            }
                        }
                    }
                    if !stored {
                        out.quant_codes.push(UNPREDICTABLE);
                        out.unpredictable.push(finalize(orig));
                        recon[idx] = finalize(orig);
                    }
                }
            }
        }
    }
    out
}

/// Errors produced while decoding an [`EncodedBlocks`] stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer quantization codes than grid points.
    MissingCodes { expected: usize, actual: usize },
    /// Fewer regression flags / coefficients than blocks need.
    MissingRegressionData,
    /// Fewer exactly-stored values than `UNPREDICTABLE` codes.
    MissingUnpredictable,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::MissingCodes { expected, actual } => {
                write!(f, "expected {expected} quantization codes, found {actual}")
            }
            DecodeError::MissingRegressionData => write!(f, "regression metadata truncated"),
            DecodeError::MissingUnpredictable => write!(f, "unpredictable-value list truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reconstruct the grid from an [`EncodedBlocks`] stream.
pub fn decode(
    enc: &EncodedBlocks,
    dims: Dims3,
    params: &PipelineParams,
    finalize: impl Fn(f64) -> f64,
) -> Result<Vec<f64>, DecodeError> {
    let n = dims[0] * dims[1] * dims[2];
    if enc.quant_codes.len() < n {
        return Err(DecodeError::MissingCodes {
            expected: n,
            actual: enc.quant_codes.len(),
        });
    }
    let eb = params.error_bound;
    let radius = params.radius();
    let mut recon = vec![0.0f64; n];
    let mut code_iter = enc.quant_codes.iter();
    let mut unpred_iter = enc.unpredictable.iter();
    let mut flag_iter = enc.regression_flags.iter();
    let mut coeff_iter = enc.reg_coeffs.iter();

    for origin in block_origins(dims, params.block_size) {
        let extent = block_extent(dims, params.block_size, origin);
        let use_regression = *flag_iter.next().ok_or(DecodeError::MissingRegressionData)?;
        let plane = if use_regression {
            let c = coeff_iter
                .next()
                .ok_or(DecodeError::MissingRegressionData)?;
            Some(RegressionPlane::from_coeffs([
                c[0] as f64,
                c[1] as f64,
                c[2] as f64,
                c[3] as f64,
            ]))
        } else {
            None
        };
        for dz in 0..extent[0] {
            for dy in 0..extent[1] {
                for dx in 0..extent[2] {
                    let (z, y, x) = (origin[0] + dz, origin[1] + dy, origin[2] + dx);
                    let idx = (z * dims[1] + y) * dims[2] + x;
                    let code = *code_iter.next().expect("length checked above");
                    recon[idx] = if code == UNPREDICTABLE {
                        *unpred_iter
                            .next()
                            .ok_or(DecodeError::MissingUnpredictable)?
                    } else {
                        let pred = match &plane {
                            Some(p) => p.predict(dz, dy, dx),
                            None => lorenzo3(&recon, dims, z, y, x),
                        };
                        finalize(pred + 2.0 * eb * (code as i64 - radius) as f64)
                    };
                }
            }
        }
    }
    Ok(recon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eb: f64) -> PipelineParams {
        PipelineParams {
            error_bound: eb,
            block_size: 6,
            capacity: 65536,
        }
    }

    fn smooth_grid(dims: Dims3) -> Vec<f64> {
        let mut v = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    v.push(
                        (x as f64 * 0.2).sin() * 3.0
                            + (y as f64 * 0.15).cos() * 2.0
                            + z as f64 * 0.05,
                    );
                }
            }
        }
        v
    }

    fn check_roundtrip(values: &[f64], dims: Dims3, eb: f64) {
        let p = params(eb);
        let enc = encode(values, dims, &p, |v| v);
        let dec = decode(&enc, dims, &p, |v| v).unwrap();
        assert_eq!(dec.len(), values.len());
        for (i, (&a, &b)) in values.iter().zip(dec.iter()).enumerate() {
            assert!(
                (a - b).abs() <= eb,
                "point {i}: |{a} - {b}| = {} > {eb}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn roundtrip_3d_within_bound() {
        let dims = [10, 13, 17];
        check_roundtrip(&smooth_grid(dims), dims, 1e-2);
        check_roundtrip(&smooth_grid(dims), dims, 1e-5);
    }

    #[test]
    fn roundtrip_2d_and_1d() {
        let dims2 = [1, 25, 31];
        check_roundtrip(&smooth_grid(dims2), dims2, 1e-3);
        let dims1 = [1, 1, 500];
        check_roundtrip(&smooth_grid(dims1), dims1, 1e-3);
    }

    #[test]
    fn constant_field_uses_few_unpredictable_points() {
        let dims = [8, 8, 8];
        let values = vec![4.2f64; 512];
        let enc = encode(&values, dims, &params(1e-3), |v| v);
        assert!(enc.unpredictable.len() <= 1, "{}", enc.unpredictable.len());
        let dec = decode(&enc, dims, &params(1e-3), |v| v).unwrap();
        for v in dec {
            assert!((v - 4.2).abs() <= 1e-3);
        }
    }

    #[test]
    fn random_field_is_still_bounded() {
        // Pseudo-random, highly unpredictable data: many unpredictable
        // points, but the bound must still hold.
        let dims = [6, 7, 9];
        let mut state = 1u64;
        let values: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / 2e9) * 1e6 - 2.5e5
            })
            .collect();
        check_roundtrip(&values, dims, 1e-8);
    }

    #[test]
    fn f32_finalization_keeps_bound() {
        let dims = [5, 9, 11];
        let values: Vec<f64> = smooth_grid(dims)
            .into_iter()
            .map(|v| v as f32 as f64)
            .collect();
        let p = params(1e-4);
        let f32ize = |v: f64| v as f32 as f64;
        let enc = encode(&values, dims, &p, f32ize);
        let dec = decode(&enc, dims, &p, f32ize).unwrap();
        for (&a, &b) in values.iter().zip(dec.iter()) {
            assert!((a - b).abs() <= 1e-4);
            assert_eq!(b as f32 as f64, b, "reconstruction must be f32-exact");
        }
    }

    #[test]
    fn tighter_bound_means_more_codes_spread() {
        let dims = [8, 16, 16];
        let values = smooth_grid(dims);
        let loose = encode(&values, dims, &params(0.5), |v| v);
        let tight = encode(&values, dims, &params(1e-4), |v| v);
        let distinct = |codes: &[u32]| {
            let mut set: Vec<u32> = codes.to_vec();
            set.sort_unstable();
            set.dedup();
            set.len()
        };
        assert!(distinct(&tight.quant_codes) > distinct(&loose.quant_codes));
    }

    #[test]
    fn regression_blocks_appear_on_planar_data() {
        // A strongly linear field favours the regression predictor in the
        // blocks where Lorenzo's zero-extended boundary costs more than the
        // plane's rounding; the flag vector pins which ones, so a change to
        // the plan (or to where it is built) shows here.
        let dims = [12, 12, 12];
        let mut values = Vec::new();
        for z in 0..12 {
            for y in 0..12 {
                for x in 0..12 {
                    values.push(3.0 * z as f64 - 2.0 * y as f64 + 0.5 * x as f64);
                }
            }
        }
        let p = params(1e-3);
        let enc = encode(&values, dims, &p, |v| v);
        assert_eq!(
            enc.regression_flags,
            [true, true, true, false, true, false, false, false]
        );
        assert_eq!(
            plan(&values, dims, 6).regression_flags(),
            enc.regression_flags
        );
        assert_eq!(
            enc.reg_coeffs.len(),
            enc.regression_flags.iter().filter(|&&f| f).count()
        );
        let dec = decode(&enc, dims, &p, |v| v).unwrap();
        for (i, (&a, &b)) in values.iter().zip(dec.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-3, "point {i}: |{a} - {b}| > 1e-3");
        }
    }

    #[test]
    fn one_plan_serves_every_bound() {
        let dims = [7, 11, 13];
        let values = smooth_grid(dims);
        let block_plan = plan(&values, dims, 6);
        for eb in [1e-1, 1e-4, 1e-7] {
            let planned = encode_planned(&values, dims, &block_plan, &params(eb), |v| v);
            assert_eq!(
                planned,
                encode(&values, dims, &params(eb), |v| v),
                "eb={eb}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "plan built for another block size")]
    fn plan_for_another_block_size_panics() {
        let dims = [4, 4, 4];
        let values = smooth_grid(dims);
        let _ = encode_planned(&values, dims, &plan(&values, dims, 3), &params(1e-3), |v| v);
    }

    #[test]
    fn truncated_streams_are_errors() {
        let dims = [4, 4, 4];
        let values = smooth_grid(dims);
        let p = params(1e-3);
        let enc = encode(&values, dims, &p, |v| v);

        let mut missing_codes = enc.clone();
        missing_codes.quant_codes.pop();
        assert!(matches!(
            decode(&missing_codes, dims, &p, |v| v),
            Err(DecodeError::MissingCodes { .. })
        ));

        let mut missing_flags = enc.clone();
        missing_flags.regression_flags.clear();
        assert!(matches!(
            decode(&missing_flags, dims, &p, |v| v),
            Err(DecodeError::MissingRegressionData)
        ));
    }

    #[test]
    fn missing_unpredictable_is_an_error() {
        let dims = [1, 1, 64];
        let mut state = 7u64;
        let values: Vec<f64> = (0..64)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 32) as f64
            })
            .collect();
        let p = params(1e-12);
        let mut enc = encode(&values, dims, &p, |v| v);
        assert!(!enc.unpredictable.is_empty());
        enc.unpredictable.clear();
        assert!(matches!(
            decode(&enc, dims, &p, |v| v),
            Err(DecodeError::MissingUnpredictable)
        ));
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_bound_panics() {
        let _ = encode(&[1.0], [1, 1, 1], &params(0.0), |v| v);
    }

    #[test]
    fn block_origins_cover_everything() {
        let origins = block_origins([7, 5, 9], 4);
        assert_eq!(origins.len(), 2 * 2 * 3);
        assert_eq!(origins[0], [0, 0, 0]);
        assert!(origins.contains(&[4, 4, 8]));
    }
}
