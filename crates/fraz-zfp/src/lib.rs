//! A ZFP-like transform-based lossy compressor with fixed-accuracy and
//! fixed-rate modes.
//!
//! The codec follows the structure of ZFP 0.5 as described in the FRaZ paper
//! (§II-A2 and §III):
//!
//! 1. the grid is partitioned into 4^d blocks ([`block`]),
//! 2. each block is aligned to a common power-of-two exponent and converted
//!    to 62-bit fixed point,
//! 3. a separable integer lifting transform decorrelates the block
//!    ([`transform`]),
//! 4. coefficients are reordered by total sequency, mapped to negabinary and
//!    coded one bit plane at a time with group testing ([`coder`]).
//!
//! Two rate-control modes are provided because the FRaZ evaluation compares
//! them directly (Figs 1, 9, 10):
//!
//! * [`ZfpMode::FixedAccuracy`] — bit planes below
//!   `⌊log2(tolerance)⌋` are discarded.  The flooring makes the achievable
//!   compression ratios a step function of the tolerance, which is exactly
//!   why FRaZ sometimes cannot hit a requested ratio with ZFP (paper
//!   §VI-B3).
//! * [`ZfpMode::FixedRate`] — every block gets the same bit budget, giving
//!   precise ratio control and random access but visibly worse quality at
//!   the same ratio.
//!
//! # Example
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_zfp::{compress, decompress, ZfpConfig, ZfpMode};
//!
//! let values: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).cos()).collect();
//! let original = Dataset::from_f32("demo", "wave", 0, Dims::d3(16, 16, 16), values);
//! let config = ZfpConfig { mode: ZfpMode::FixedAccuracy { tolerance: 1e-3 } };
//! let packed = compress(&original, &config).unwrap();
//! let restored = decompress(&packed).unwrap();
//! let max_err = original.values_f64().iter().zip(restored.values_f64().iter())
//!     .map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
//! assert!(max_err <= 1e-3);
//! ```

pub mod block;
pub mod coder;
pub mod transform;

use fraz_data::{DType, DataBuffer, Dataset, Dims};
use fraz_lossless::bitio::{BitReader, BitWriter};
use fraz_lossless::bytesio::{ByteReader, ByteWriter};

use transform::BLOCK_EDGE;

/// Stream magic ("FZP1").
const MAGIC: u32 = 0x465A_5031;
/// Format version.
const VERSION: u8 = 1;
/// Bits used to store a block exponent.
const EBITS: u32 = 12;
/// Bias added to block exponents before storage.
const EBIAS: i32 = 2048;
/// Effectively unlimited per-block budget for the accuracy mode.
const UNLIMITED_BITS: u64 = 1 << 40;

/// Rate-control mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// Error-bounded ("accuracy") mode: absolute error at most `tolerance`.
    FixedAccuracy {
        /// Absolute error tolerance (must be positive and finite).
        tolerance: f64,
    },
    /// Fixed-rate mode: every block is coded with exactly
    /// `bits_per_value * 4^d` bits.
    FixedRate {
        /// Average number of bits per value (0.5 ..= 64).
        bits_per_value: f64,
    },
}

/// Compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZfpConfig {
    /// Rate-control mode.
    pub mode: ZfpMode,
}

impl ZfpConfig {
    /// Fixed-accuracy configuration with the given tolerance.
    pub fn accuracy(tolerance: f64) -> Self {
        Self {
            mode: ZfpMode::FixedAccuracy { tolerance },
        }
    }

    /// Fixed-rate configuration with the given bits-per-value budget.
    pub fn rate(bits_per_value: f64) -> Self {
        Self {
            mode: ZfpMode::FixedRate { bits_per_value },
        }
    }

    fn validate(&self) -> Result<(), ZfpError> {
        match self.mode {
            ZfpMode::FixedAccuracy { tolerance } => {
                if !(tolerance > 0.0 && tolerance.is_finite()) {
                    return Err(ZfpError::InvalidConfig(format!(
                        "tolerance must be positive and finite, got {tolerance}"
                    )));
                }
            }
            ZfpMode::FixedRate { bits_per_value } => {
                if !(0.1..=64.0).contains(&bits_per_value) {
                    return Err(ZfpError::InvalidConfig(format!(
                        "bits per value must be in [0.1, 64], got {bits_per_value}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Errors produced by the ZFP-like codec.
#[derive(Debug, Clone, PartialEq)]
pub enum ZfpError {
    /// The configuration is invalid.
    InvalidConfig(String),
    /// The compressed stream is malformed or truncated.
    Corrupt(String),
}

impl std::fmt::Display for ZfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZfpError::InvalidConfig(msg) => write!(f, "invalid ZFP configuration: {msg}"),
            ZfpError::Corrupt(msg) => write!(f, "corrupt ZFP stream: {msg}"),
        }
    }
}

impl std::error::Error for ZfpError {}

impl From<fraz_lossless::CodingError> for ZfpError {
    fn from(e: fraz_lossless::CodingError) -> Self {
        ZfpError::Corrupt(e.to_string())
    }
}

fn pad_dims(dims: &Dims) -> ([usize; 3], usize) {
    let d = dims.as_slice();
    match d.len() {
        1 => ([1, 1, d[0]], 1),
        2 => ([1, d[0], d[1]], 2),
        3 => ([d[0], d[1], d[2]], 3),
        _ => {
            let lead: usize = d[..d.len() - 2].iter().product();
            ([lead, d[d.len() - 2], d[d.len() - 1]], 3)
        }
    }
}

/// Per-block precision for the accuracy mode: ZFP's
/// `min(maxprec, max(0, emax - minexp + 2·(dims+1)))` with
/// `minexp = ⌊log2 tolerance⌋` — the flooring responsible for the step-like
/// ratio behaviour.
fn accuracy_precision(emax: i32, tolerance: f64, dims: usize) -> u32 {
    let minexp = tolerance.log2().floor() as i32;
    let prec = emax - minexp + 2 * (dims as i32 + 1);
    prec.clamp(0, coder::INT_PRECISION as i32) as u32
}

fn mode_tag(mode: &ZfpMode) -> (u8, f64) {
    match *mode {
        ZfpMode::FixedAccuracy { tolerance } => (0, tolerance),
        ZfpMode::FixedRate { bits_per_value } => (1, bits_per_value),
    }
}

fn mode_from_tag(tag: u8, param: f64) -> Result<ZfpMode, ZfpError> {
    match tag {
        0 => Ok(ZfpMode::FixedAccuracy { tolerance: param }),
        1 => Ok(ZfpMode::FixedRate {
            bits_per_value: param,
        }),
        other => Err(ZfpError::Corrupt(format!("unknown mode tag {other}"))),
    }
}

/// Per-block bit budget (including the zero-flag and exponent header) for
/// the given mode.
fn block_bit_budget(mode: &ZfpMode, block_dims: usize) -> u64 {
    match *mode {
        ZfpMode::FixedAccuracy { .. } => UNLIMITED_BITS,
        ZfpMode::FixedRate { bits_per_value } => {
            let points = BLOCK_EDGE.pow(block_dims as u32) as f64;
            ((bits_per_value * points).round() as u64).max(1 + EBITS as u64)
        }
    }
}

/// Compress a dataset.
pub fn compress(dataset: &Dataset, config: &ZfpConfig) -> Result<Vec<u8>, ZfpError> {
    config.validate()?;
    let (dims3, block_dims) = pad_dims(&dataset.dims);
    let values = dataset.values_f64();
    let perm = transform::sequency_permutation(block_dims);
    let budget = block_bit_budget(&config.mode, block_dims);

    let mut header = ByteWriter::with_capacity(64);
    header.put_u32(MAGIC);
    header.put_u8(VERSION);
    header.put_u8(match dataset.dtype() {
        DType::F32 => 0,
        DType::F64 => 1,
    });
    header.put_u8(dataset.dims.ndims() as u8);
    for &d in dataset.dims.as_slice() {
        header.put_u64(d as u64);
    }
    header.put_u64(dataset.timestep as u64);
    header.put_str(&dataset.application);
    header.put_str(&dataset.field);
    let (tag, param) = mode_tag(&config.mode);
    header.put_u8(tag);
    header.put_f64(param);

    let mut w = BitWriter::with_capacity(values.len());
    for origin in block::block_origins(dims3) {
        let start_bits = w.bit_len() as u64;
        let raw = block::gather(&values, dims3, origin, block_dims);
        match block::block_exponent(&raw) {
            None => {
                // Empty (all-zero) block.
                w.write_bit(false);
            }
            Some(emax) => {
                w.write_bit(true);
                w.write_bits((emax + EBIAS) as u64, EBITS);
                let mut ints = block::to_ints(&raw, emax);
                transform::fwd_xform(&mut ints, block_dims);
                let reordered: Vec<u64> =
                    perm.iter().map(|&i| coder::int_to_uint(ints[i])).collect();
                let max_prec = match config.mode {
                    ZfpMode::FixedAccuracy { tolerance } => {
                        accuracy_precision(emax, tolerance, block_dims)
                    }
                    ZfpMode::FixedRate { .. } => coder::INT_PRECISION,
                };
                let remaining = budget.saturating_sub(1 + EBITS as u64);
                coder::encode_ints(&mut w, &reordered, remaining, max_prec);
            }
        }
        if matches!(config.mode, ZfpMode::FixedRate { .. }) {
            // Pad so every block occupies exactly `budget` bits.
            let written = w.bit_len() as u64 - start_bits;
            if written < budget {
                w.write_run(false, (budget - written) as usize);
            }
        }
    }

    let mut out = header.into_bytes();
    out.extend_from_slice(&w.into_bytes());
    Ok(out)
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Dataset, ZfpError> {
    let mut r = ByteReader::new(data);
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(ZfpError::Corrupt(format!("bad magic 0x{magic:08x}")));
    }
    let version = r.get_u8()?;
    if version != VERSION {
        return Err(ZfpError::Corrupt(format!("unsupported version {version}")));
    }
    let dtype = match r.get_u8()? {
        0 => DType::F32,
        1 => DType::F64,
        other => return Err(ZfpError::Corrupt(format!("unknown dtype tag {other}"))),
    };
    let ndims = r.get_u8()? as usize;
    if ndims == 0 || ndims > 4 {
        return Err(ZfpError::Corrupt(format!("invalid dimensionality {ndims}")));
    }
    let mut axes = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        let d = r.get_u64()? as usize;
        if d == 0 || d > (1 << 40) {
            return Err(ZfpError::Corrupt(format!("invalid axis length {d}")));
        }
        axes.push(d);
    }
    let n = axes
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| ZfpError::Corrupt(format!("field size {axes:?} overflows usize")))?;
    let dims = Dims::new(&axes);
    let timestep = r.get_u64()? as usize;
    let application = r.get_str()?;
    let field = r.get_str()?;
    let mode = mode_from_tag(r.get_u8()?, r.get_f64()?)?;
    let config = ZfpConfig { mode };
    config
        .validate()
        .map_err(|e| ZfpError::Corrupt(format!("invalid header parameters: {e}")))?;

    let (dims3, block_dims) = pad_dims(&dims);
    // Every block costs at least its one "nonzero" bit, so a header that
    // claims more blocks than the payload has bits is corrupt.  Checked
    // before anything proportional to the field is allocated.
    let blocks: usize = dims3.iter().map(|d| d.div_ceil(BLOCK_EDGE)).product();
    let payload_bits = r.rest().len().saturating_mul(8);
    if blocks > payload_bits {
        return Err(ZfpError::Corrupt(format!(
            "{blocks} blocks cannot fit in a {payload_bits}-bit payload"
        )));
    }
    let perm = transform::sequency_permutation(block_dims);
    let budget = block_bit_budget(&mode, block_dims);
    let mut values = vec![0.0f64; n];
    let mut bits = BitReader::new(r.rest());

    for origin in block::block_origins(dims3) {
        let start_bits = bits.bits_consumed() as u64;
        let nonzero = bits.read_bit()?;
        if nonzero {
            let emax = bits.read_bits(EBITS)? as i64 as i32 - EBIAS;
            if !(-2000..=2000).contains(&emax) {
                return Err(ZfpError::Corrupt(format!(
                    "implausible block exponent {emax}"
                )));
            }
            let max_prec = match mode {
                ZfpMode::FixedAccuracy { tolerance } => {
                    accuracy_precision(emax, tolerance, block_dims)
                }
                ZfpMode::FixedRate { .. } => coder::INT_PRECISION,
            };
            let remaining = budget.saturating_sub(1 + EBITS as u64);
            let size = BLOCK_EDGE.pow(block_dims as u32);
            let (reordered, _) = coder::decode_ints(&mut bits, size, remaining, max_prec)?;
            let mut ints = vec![0i64; size];
            for (slot, &src) in perm.iter().enumerate() {
                ints[src] = coder::uint_to_int(reordered[slot]);
            }
            transform::inv_xform(&mut ints, block_dims);
            let raw = block::from_ints(&ints, emax);
            block::scatter(&raw, &mut values, dims3, origin, block_dims);
        }
        if matches!(mode, ZfpMode::FixedRate { .. }) {
            // Skip the block's padding so the next block starts on budget.
            let consumed = bits.bits_consumed() as u64 - start_bits;
            if consumed < budget {
                for _ in 0..(budget - consumed) {
                    bits.read_bit()?;
                }
            }
        }
    }

    // Clamp tiny fixed-point noise toward the original precision.
    let buffer = match dtype {
        DType::F32 => DataBuffer::F32(values.iter().map(|&v| v as f32).collect()),
        DType::F64 => DataBuffer::F64(values),
    };
    Ok(Dataset {
        application,
        field,
        timestep,
        dims,
        buffer,
    })
}

/// The compression ratio the fixed-rate mode will deliver for a dataset of
/// the given element type, ignoring the (constant) header.
pub fn fixed_rate_ratio(bits_per_value: f64, dtype: DType) -> f64 {
    dtype.byte_width() as f64 * 8.0 / bits_per_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    fn wave(dims: Dims, scale: f64) -> Dataset {
        let n = dims.len();
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let x = i as f64;
                ((x * 0.021).sin() * 3.0 + (x * 0.0013).cos() * 10.0) as f32 * scale as f32
            })
            .collect();
        Dataset::from_f32("test", "wave", 0, dims, values)
    }

    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn accuracy_mode_respects_tolerance_1d_2d_3d() {
        for dims in [Dims::d1(3000), Dims::d2(50, 61), Dims::d3(13, 17, 19)] {
            let original = wave(dims, 1.0);
            for tol in [1e-1, 1e-3, 1e-6] {
                let packed = compress(&original, &ZfpConfig::accuracy(tol)).unwrap();
                let restored = decompress(&packed).unwrap();
                let err = max_error(&original, &restored);
                assert!(err <= tol, "dims {:?} tol {tol}: err {err}", original.dims);
            }
        }
    }

    #[test]
    fn accuracy_mode_compresses_smooth_data() {
        // A genuinely smooth 3-D field (smooth along every axis, unlike the
        // index-based `wave` helper) should compress well at a loose bound.
        let (nz, ny, nx) = (16usize, 32usize, 32usize);
        let mut values = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    values.push(
                        ((x as f32 * 0.2).sin() + (y as f32 * 0.15).cos()) * 5.0 + z as f32 * 0.1,
                    );
                }
            }
        }
        let original = Dataset::from_f32("t", "smooth", 0, Dims::d3(nz, ny, nx), values);
        let packed = compress(&original, &ZfpConfig::accuracy(1e-2)).unwrap();
        let ratio = original.byte_size() as f64 / packed.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio:.2}");
        let restored = decompress(&packed).unwrap();
        assert!(max_error(&original, &restored) <= 1e-2);
    }

    #[test]
    fn accuracy_ratio_is_a_step_function_of_tolerance() {
        // Tolerances within the same power of two produce identical streams
        // (the minexp flooring), which is the behaviour FRaZ has to cope
        // with.
        let original = wave(Dims::d3(12, 12, 12), 1.0);
        let a = compress(&original, &ZfpConfig::accuracy(0.010)).unwrap();
        let b = compress(&original, &ZfpConfig::accuracy(0.013)).unwrap();
        let c = compress(&original, &ZfpConfig::accuracy(0.020)).unwrap();
        assert_eq!(a.len(), b.len(), "same power of two => same size");
        assert!(c.len() <= a.len());
    }

    #[test]
    fn fixed_rate_mode_hits_its_budget_exactly() {
        let original = wave(Dims::d3(16, 16, 16), 1.0);
        for bpv in [2.0, 4.0, 8.0] {
            let packed = compress(&original, &ZfpConfig::rate(bpv)).unwrap();
            let payload_bits = (packed.len() as f64 - 60.0) * 8.0; // minus header estimate
            let expected_bits = bpv * original.len() as f64;
            let rel = (payload_bits - expected_bits).abs() / expected_bits;
            assert!(
                rel < 0.05,
                "bpv {bpv}: payload {payload_bits} vs {expected_bits}"
            );
            // And it must still decompress to the right shape.
            let restored = decompress(&packed).unwrap();
            assert_eq!(restored.len(), original.len());
        }
    }

    #[test]
    fn fixed_rate_quality_improves_with_rate() {
        let original = wave(Dims::d3(16, 16, 16), 100.0);
        let low = decompress(&compress(&original, &ZfpConfig::rate(2.0)).unwrap()).unwrap();
        let high = decompress(&compress(&original, &ZfpConfig::rate(16.0)).unwrap()).unwrap();
        assert!(max_error(&original, &high) < max_error(&original, &low));
    }

    #[test]
    fn fixed_rate_is_worse_than_accuracy_at_same_ratio() {
        // The core observation of the paper's Fig. 1: at an equal compression
        // ratio the accuracy mode reconstructs better than the rate mode.
        let original = wave(Dims::d3(16, 16, 16), 50.0);
        let accuracy_packed = compress(&original, &ZfpConfig::accuracy(0.05)).unwrap();
        let achieved_bpv = accuracy_packed.len() as f64 * 8.0 / original.len() as f64;
        let rate_packed = compress(&original, &ZfpConfig::rate(achieved_bpv)).unwrap();
        let acc_err = max_error(&original, &decompress(&accuracy_packed).unwrap());
        let rate_err = max_error(&original, &decompress(&rate_packed).unwrap());
        assert!(
            rate_err > acc_err,
            "rate-mode error {rate_err} should exceed accuracy-mode error {acc_err}"
        );
    }

    #[test]
    fn zero_field_compresses_to_almost_nothing() {
        let original = Dataset::from_f32("t", "zero", 0, Dims::d3(8, 8, 8), vec![0.0; 512]);
        let packed = compress(&original, &ZfpConfig::accuracy(1e-6)).unwrap();
        assert!(packed.len() < 80, "{}", packed.len());
        let restored = decompress(&packed).unwrap();
        assert_eq!(restored.values_f64(), vec![0.0; 512]);
    }

    #[test]
    fn f64_datasets_roundtrip() {
        let values: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).sin() * 1e8).collect();
        let original = Dataset::from_f64("t", "f64", 3, Dims::d1(2000), values);
        let packed = compress(&original, &ZfpConfig::accuracy(1.0)).unwrap();
        let restored = decompress(&packed).unwrap();
        assert_eq!(restored.dtype(), DType::F64);
        assert!(max_error(&original, &restored) <= 1.0);
        assert_eq!(restored.timestep, 3);
        assert_eq!(restored.field, "f64");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let original = wave(Dims::d1(64), 1.0);
        assert!(compress(&original, &ZfpConfig::accuracy(0.0)).is_err());
        assert!(compress(&original, &ZfpConfig::accuracy(f64::NAN)).is_err());
        assert!(compress(&original, &ZfpConfig::rate(0.0)).is_err());
        assert!(compress(&original, &ZfpConfig::rate(1000.0)).is_err());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let original = wave(Dims::d2(20, 20), 1.0);
        let packed = compress(&original, &ZfpConfig::accuracy(1e-3)).unwrap();
        let mut bad = packed.clone();
        bad[0] ^= 0xff;
        assert!(decompress(&bad).is_err());
        assert!(decompress(&packed[..10]).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn inflated_axes_are_rejected_before_allocating() {
        // magic u32 | version u8 | dtype u8 | ndims u8 | axes u64...
        const OFF_AXES: usize = 7;
        let original = wave(Dims::d3(8, 8, 8), 1.0);
        for config in [ZfpConfig::accuracy(1e-3), ZfpConfig::rate(8.0)] {
            let packed = compress(&original, &config).unwrap();
            for axis in 0..3 {
                for claim in [1u64 << 20, 1u64 << 40] {
                    let mut bad = packed.clone();
                    let at = OFF_AXES + 8 * axis;
                    bad[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                    assert!(
                        matches!(decompress(&bad), Err(ZfpError::Corrupt(_))),
                        "axis {axis} patched to {claim} decoded"
                    );
                }
            }
            // Every axis at 2^40: the point count overflows usize.
            let mut bad = packed.clone();
            for axis in 0..3 {
                let at = OFF_AXES + 8 * axis;
                bad[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
            }
            assert!(matches!(decompress(&bad), Err(ZfpError::Corrupt(_))));
        }
    }

    #[test]
    fn fixed_rate_ratio_helper() {
        assert_eq!(fixed_rate_ratio(4.0, DType::F32), 8.0);
        assert_eq!(fixed_rate_ratio(8.0, DType::F64), 8.0);
    }
}
