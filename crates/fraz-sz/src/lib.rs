//! An SZ-like error-bounded lossy compressor for scientific floating-point
//! data.
//!
//! This crate re-implements, from scratch and in safe Rust, the four-stage
//! compression model the FRaZ paper describes for SZ 2.x (§II-A1):
//!
//! 1. **Data prediction** — each grid block chooses between a 1-layer Lorenzo
//!    predictor and a per-block linear regression plane ([`predict`]).
//! 2. **Linear-scaling quantization** — prediction errors are quantized to
//!    integer codes under a user-specified absolute error bound
//!    ([`pipeline`]); points that cannot be represented within the bound are
//!    stored exactly.
//! 3. **Entropy encoding** — the quantization codes are Huffman coded
//!    (via [`fraz_lossless::huffman`]).
//! 4. **Dictionary encoding** — the entropy-coded stream (plus block
//!    metadata and unpredictable values) is passed through the LZSS
//!    dictionary coder (via [`fraz_lossless::compress`]), the stage that
//!    produces the non-monotonic ratio-vs-bound behaviour the paper
//!    documents in Fig. 3.  `fraz_lossless::compress` holds one reusable
//!    [`fraz_lossless::lzss::LzssEncoder`] per thread, so the fixed-ratio
//!    search loop — which compresses once per candidate bound from the
//!    shared work-stealing pool — reuses one hash-chain/token scratch per
//!    pool worker instead of reallocating it every evaluation.
//!
//! Stage 1's predictor choice reads only the original values, so it does
//! not depend on the bound.  [`prepare`] makes that choice once per field
//! and [`Prepared::compress`] runs stages 2–4 at any bound; [`compress`] is
//! the two in a row, so both paths write the same bytes.
//!
//! The absolute error bound is a hard guarantee:
//! `max_i |d_i − d'_i| ≤ error_bound` for every input (verified by unit and
//! property tests).
//!
//! # Example
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_sz::{compress, decompress, SzConfig};
//!
//! let values: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let original = Dataset::from_f32("demo", "wave", 0, Dims::d3(16, 16, 16), values);
//! let config = SzConfig::with_error_bound(1e-3);
//! let compressed = compress(&original, &config).unwrap();
//! let restored = decompress(&compressed).unwrap();
//! let worst = original
//!     .values_f64()
//!     .iter()
//!     .zip(restored.values_f64().iter())
//!     .map(|(a, b)| (a - b).abs())
//!     .fold(0.0f64, f64::max);
//! assert!(worst <= 1e-3);
//! assert!(compressed.len() < original.byte_size());
//! ```

pub mod pipeline;
pub mod predict;

use std::borrow::Cow;

use fraz_data::{DType, DataBuffer, Dataset, Dims};
use fraz_lossless::bytesio::{ByteReader, ByteWriter};
use fraz_lossless::huffman;

use pipeline::{BlockPlan, EncodedBlocks, PipelineParams};

/// Stream magic ("FSZ1").
const MAGIC: u32 = 0x4653_5A31;
/// Format version.
const VERSION: u8 = 1;

/// Configuration of the SZ-like compressor.
#[derive(Debug, Clone, PartialEq)]
pub struct SzConfig {
    /// Absolute error bound (must be positive and finite).
    pub error_bound: f64,
    /// Block edge length; `None` selects 6 for 3-D, 16 for 2-D and 256 for
    /// 1-D data (the defaults the SZ papers use).
    pub block_size: Option<usize>,
    /// Number of linear-scaling quantization bins.
    pub quant_capacity: u32,
}

impl Default for SzConfig {
    fn default() -> Self {
        Self {
            error_bound: 1e-3,
            block_size: None,
            quant_capacity: 65536,
        }
    }
}

impl SzConfig {
    /// Configuration with the given absolute error bound and default
    /// block/quantization settings.
    pub fn with_error_bound(error_bound: f64) -> Self {
        Self {
            error_bound,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<(), SzError> {
        if !(self.error_bound > 0.0 && self.error_bound.is_finite()) {
            return Err(SzError::InvalidConfig(format!(
                "error bound must be positive and finite, got {}",
                self.error_bound
            )));
        }
        if self.quant_capacity < 4 || self.quant_capacity > (1 << 24) {
            return Err(SzError::InvalidConfig(format!(
                "quantization capacity {} out of range [4, 2^24]",
                self.quant_capacity
            )));
        }
        validate_block(self.block_size)
    }
}

/// The block edge length for `ndims`-dimensional data: `block_size`, or the
/// SZ papers' default for that dimensionality.
fn block_for(block_size: Option<usize>, ndims: usize) -> usize {
    block_size.unwrap_or(match ndims {
        1 => 256,
        2 => 16,
        _ => 6,
    })
}

fn validate_block(block_size: Option<usize>) -> Result<(), SzError> {
    if block_size == Some(0) {
        return Err(SzError::InvalidConfig("block size must be non-zero".into()));
    }
    Ok(())
}

/// Errors produced by the SZ-like codec.
#[derive(Debug, Clone, PartialEq)]
pub enum SzError {
    /// The configuration is invalid (non-positive bound, zero block, …).
    InvalidConfig(String),
    /// The compressed stream is malformed or truncated.
    Corrupt(String),
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::InvalidConfig(msg) => write!(f, "invalid SZ configuration: {msg}"),
            SzError::Corrupt(msg) => write!(f, "corrupt SZ stream: {msg}"),
        }
    }
}

impl std::error::Error for SzError {}

impl From<fraz_lossless::CodingError> for SzError {
    fn from(e: fraz_lossless::CodingError) -> Self {
        SzError::Corrupt(e.to_string())
    }
}

fn pad_dims(dims: &Dims) -> [usize; 3] {
    let d = dims.as_slice();
    match d.len() {
        1 => [1, 1, d[0]],
        2 => [1, d[0], d[1]],
        3 => [d[0], d[1], d[2]],
        _ => {
            // Fold leading axes together; the pipeline only needs a 3-D view
            // of the same row-major layout.
            let lead: usize = d[..d.len() - 2].iter().product();
            [lead, d[d.len() - 2], d[d.len() - 1]]
        }
    }
}

/// A dataset prepared for compression at any error bound.
///
/// [`prepare`] does the work of a compression that does not depend on the
/// bound: widening the values to `f64` and choosing each block's predictor
/// ([`pipeline::plan`]).  [`Prepared::compress`] then runs only the
/// bound-dependent stages, so a search that compresses one field at many
/// bounds pays for the plan once.  The output is byte-identical to
/// [`compress`], which is itself "prepare, then compress".
#[derive(Debug)]
pub struct Prepared<'a> {
    dataset: &'a Dataset,
    dims3: [usize; 3],
    values: Cow<'a, [f64]>,
    plan: BlockPlan,
}

/// Prepare `dataset` for compression with the given block edge length
/// (`None` selects the default for its dimensionality, as in
/// [`SzConfig::block_size`]).
pub fn prepare(dataset: &Dataset, block_size: Option<usize>) -> Result<Prepared<'_>, SzError> {
    validate_block(block_size)?;
    let dims3 = pad_dims(&dataset.dims);
    let values: Cow<'_, [f64]> = match &dataset.buffer {
        DataBuffer::F64(v) => Cow::Borrowed(v),
        DataBuffer::F32(_) => Cow::Owned(dataset.values_f64()),
    };
    let plan = pipeline::plan(&values, dims3, block_for(block_size, dataset.dims.ndims()));
    Ok(Prepared {
        dataset,
        dims3,
        values,
        plan,
    })
}

impl Prepared<'_> {
    /// The dataset this field was prepared from.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// Compress the prepared dataset under `config`, whose block size must
    /// resolve to the one the field was prepared with.
    pub fn compress(&self, config: &SzConfig) -> Result<Vec<u8>, SzError> {
        config.validate()?;
        let dataset = self.dataset;
        let block = block_for(config.block_size, dataset.dims.ndims());
        if block != self.plan.block_size() {
            return Err(SzError::InvalidConfig(format!(
                "field prepared for block size {} cannot compress with block size {block}",
                self.plan.block_size()
            )));
        }
        let params = PipelineParams {
            error_bound: config.error_bound,
            block_size: block,
            capacity: config.quant_capacity,
        };
        let values = &self.values;
        let dtype = dataset.dtype();
        let enc = match dtype {
            DType::F32 => pipeline::encode_planned(values, self.dims3, &self.plan, &params, |v| {
                v as f32 as f64
            }),
            DType::F64 => pipeline::encode_planned(values, self.dims3, &self.plan, &params, |v| v),
        };

        // ---- header (uncompressed) ----
        let mut header = ByteWriter::with_capacity(64);
        header.put_u32(MAGIC);
        header.put_u8(VERSION);
        header.put_u8(match dtype {
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
        header.put_f64(config.error_bound);
        header.put_u32(block as u32);
        header.put_u32(config.quant_capacity);

        // ---- body (dictionary-coded) ----
        let mut body = ByteWriter::with_capacity(values.len());
        body.put_u64(enc.regression_flags.len() as u64);
        let mut flag_bytes = vec![0u8; enc.regression_flags.len().div_ceil(8)];
        for (i, &flag) in enc.regression_flags.iter().enumerate() {
            if flag {
                flag_bytes[i / 8] |= 1 << (i % 8);
            }
        }
        body.put_bytes(&flag_bytes);
        body.put_u64(enc.reg_coeffs.len() as u64);
        for c in &enc.reg_coeffs {
            for &v in c {
                body.put_f32(v);
            }
        }
        body.put_section(&huffman::encode_symbols(&enc.quant_codes));
        body.put_u64(enc.unpredictable.len() as u64);
        for &v in &enc.unpredictable {
            match dtype {
                DType::F32 => body.put_f32(v as f32),
                DType::F64 => body.put_f64(v),
            }
        }

        let mut out = header.into_bytes();
        out.extend_from_slice(&fraz_lossless::compress(&body.into_bytes()));
        Ok(out)
    }
}

/// Compress a dataset under an absolute error bound: [`prepare`], then
/// [`Prepared::compress`].
pub fn compress(dataset: &Dataset, config: &SzConfig) -> Result<Vec<u8>, SzError> {
    config.validate()?;
    prepare(dataset, config.block_size)?.compress(config)
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Dataset, SzError> {
    let mut r = ByteReader::new(data);
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(SzError::Corrupt(format!("bad magic 0x{magic:08x}")));
    }
    let version = r.get_u8()?;
    if version != VERSION {
        return Err(SzError::Corrupt(format!("unsupported version {version}")));
    }
    let dtype = match r.get_u8()? {
        0 => DType::F32,
        1 => DType::F64,
        other => return Err(SzError::Corrupt(format!("unknown dtype tag {other}"))),
    };
    let ndims = r.get_u8()? as usize;
    if ndims == 0 || ndims > 4 {
        return Err(SzError::Corrupt(format!("invalid dimensionality {ndims}")));
    }
    let mut axes = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        let d = r.get_u64()? as usize;
        if d == 0 || d > (1 << 40) {
            return Err(SzError::Corrupt(format!("invalid axis length {d}")));
        }
        axes.push(d);
    }
    let dims = Dims::new(&axes);
    let timestep = r.get_u64()? as usize;
    let application = r.get_str()?;
    let field = r.get_str()?;
    let error_bound = r.get_f64()?;
    let block = r.get_u32()? as usize;
    let capacity = r.get_u32()?;
    if !(error_bound > 0.0 && error_bound.is_finite()) || block == 0 || capacity < 4 {
        return Err(SzError::Corrupt(
            "invalid codec parameters in header".into(),
        ));
    }

    let body = fraz_lossless::decompress(r.rest())?;
    let mut b = ByteReader::new(&body);
    let num_blocks = b.get_u64()? as usize;
    let flag_bytes = b.get_bytes((num_blocks + 7) / 8)?;
    let regression_flags: Vec<bool> = (0..num_blocks)
        .map(|i| flag_bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    let num_coeffs = b.get_u64()? as usize;
    if num_coeffs > num_blocks {
        return Err(SzError::Corrupt("more coefficient sets than blocks".into()));
    }
    let mut reg_coeffs = Vec::with_capacity(num_coeffs);
    for _ in 0..num_coeffs {
        let mut c = [0f32; 4];
        for v in c.iter_mut() {
            *v = b.get_f32()?;
        }
        reg_coeffs.push(c);
    }
    let quant_codes = huffman::decode_symbols(b.get_section()?)?;
    let num_unpred = b.get_u64()? as usize;
    if num_unpred > dims.len() {
        return Err(SzError::Corrupt(
            "unpredictable count exceeds grid size".into(),
        ));
    }
    let mut unpredictable = Vec::with_capacity(num_unpred);
    for _ in 0..num_unpred {
        unpredictable.push(match dtype {
            DType::F32 => b.get_f32()? as f64,
            DType::F64 => b.get_f64()?,
        });
    }

    let enc = EncodedBlocks {
        regression_flags,
        reg_coeffs,
        quant_codes,
        unpredictable,
    };
    let params = PipelineParams {
        error_bound,
        block_size: block,
        capacity,
    };
    let dims3 = pad_dims(&dims);
    let values = match dtype {
        DType::F32 => pipeline::decode(&enc, dims3, &params, |v| v as f32 as f64),
        DType::F64 => pipeline::decode(&enc, dims3, &params, |v| v),
    }
    .map_err(|e| SzError::Corrupt(e.to_string()))?;

    Ok(Dataset {
        application,
        field,
        timestep,
        dims,
        buffer: DataBuffer::from_f64(values, dtype),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_dataset(dims: Dims) -> Dataset {
        let n = dims.len();
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let x = i as f32;
                (x * 0.013).sin() * 5.0 + (x * 0.0007).cos() * 20.0
            })
            .collect();
        Dataset::from_f32("test", "wave", 2, dims, values)
    }

    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn roundtrip_3d_respects_bound_and_metadata() {
        let original = wave_dataset(Dims::d3(12, 15, 17));
        for eb in [1e-1, 1e-3, 1e-5] {
            let compressed = compress(&original, &SzConfig::with_error_bound(eb)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= eb, "eb={eb}");
            assert_eq!(restored.dims, original.dims);
            assert_eq!(restored.application, "test");
            assert_eq!(restored.field, "wave");
            assert_eq!(restored.timestep, 2);
            assert_eq!(restored.dtype(), DType::F32);
        }
    }

    #[test]
    fn roundtrip_1d_and_2d() {
        for dims in [Dims::d1(5000), Dims::d2(60, 83)] {
            let original = wave_dataset(dims);
            let compressed = compress(&original, &SzConfig::with_error_bound(1e-3)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= 1e-3);
        }
    }

    #[test]
    fn roundtrip_f64_dataset() {
        let values: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).sin() * 1e6).collect();
        let original = Dataset::from_f64("test", "wave64", 0, Dims::d1(3000), values);
        let compressed = compress(&original, &SzConfig::with_error_bound(1e-2)).unwrap();
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored.dtype(), DType::F64);
        assert!(max_error(&original, &restored) <= 1e-2);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let original = wave_dataset(Dims::d3(16, 32, 32));
        let compressed = compress(&original, &SzConfig::with_error_bound(1e-2)).unwrap();
        let ratio = original.byte_size() as f64 / compressed.len() as f64;
        assert!(
            ratio > 8.0,
            "expected a high ratio on smooth data, got {ratio:.2}"
        );
    }

    #[test]
    fn larger_bound_gives_higher_ratio_on_smooth_data() {
        let original = wave_dataset(Dims::d3(16, 24, 24));
        let small = compress(&original, &SzConfig::with_error_bound(1e-6)).unwrap();
        let large = compress(&original, &SzConfig::with_error_bound(1e-1)).unwrap();
        assert!(large.len() < small.len());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let original = wave_dataset(Dims::d1(100));
        assert!(matches!(
            compress(&original, &SzConfig::with_error_bound(0.0)),
            Err(SzError::InvalidConfig(_))
        ));
        assert!(matches!(
            compress(&original, &SzConfig::with_error_bound(f64::NAN)),
            Err(SzError::InvalidConfig(_))
        ));
        let bad_block = SzConfig {
            block_size: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            compress(&original, &bad_block),
            Err(SzError::InvalidConfig(_))
        ));
        let bad_capacity = SzConfig {
            quant_capacity: 2,
            ..Default::default()
        };
        assert!(matches!(
            compress(&original, &bad_capacity),
            Err(SzError::InvalidConfig(_))
        ));
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let original = wave_dataset(Dims::d2(20, 20));
        let mut compressed = compress(&original, &SzConfig::default()).unwrap();
        // Bad magic.
        let mut bad = compressed.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decompress(&bad), Err(SzError::Corrupt(_))));
        // Truncation.
        compressed.truncate(compressed.len() / 2);
        assert!(decompress(&compressed).is_err());
        // Garbage.
        assert!(decompress(&[0u8; 3]).is_err());
    }

    #[test]
    fn custom_block_size_still_roundtrips() {
        let original = wave_dataset(Dims::d3(9, 9, 9));
        let config = SzConfig {
            error_bound: 1e-4,
            block_size: Some(4),
            quant_capacity: 1024,
        };
        let compressed = compress(&original, &config).unwrap();
        let restored = decompress(&compressed).unwrap();
        assert!(max_error(&original, &restored) <= 1e-4);
    }

    #[test]
    fn prepared_field_matches_compress_at_every_bound() {
        let f32_field = wave_dataset(Dims::d3(9, 10, 11));
        let values: Vec<f64> = (0..900).map(|i| (i as f64 * 0.02).cos() * 1e3).collect();
        let f64_field = Dataset::from_f64("test", "wave64", 1, Dims::d2(30, 30), values);
        for original in [&f32_field, &f64_field] {
            for block_size in [None, Some(3)] {
                let field = prepare(original, block_size).unwrap();
                for eb in [1e-1, 1e-3, 1e-6] {
                    let config = SzConfig {
                        error_bound: eb,
                        block_size,
                        quant_capacity: 4096,
                    };
                    assert_eq!(
                        field.compress(&config).unwrap(),
                        compress(original, &config).unwrap(),
                        "eb={eb} block={block_size:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_field_rejects_another_block_size_and_bad_bounds() {
        let original = wave_dataset(Dims::d3(8, 8, 8));
        assert!(matches!(
            prepare(&original, Some(0)),
            Err(SzError::InvalidConfig(_))
        ));
        let field = prepare(&original, None).unwrap();
        let other_block = SzConfig {
            block_size: Some(4),
            ..Default::default()
        };
        assert!(matches!(
            field.compress(&other_block),
            Err(SzError::InvalidConfig(_))
        ));
        // `Some(6)` resolves to the 3-D default the field was prepared with.
        let same_block = SzConfig {
            block_size: Some(6),
            ..Default::default()
        };
        assert!(field.compress(&same_block).is_ok());
        assert_eq!(
            field.compress(&SzConfig::with_error_bound(-1.0)),
            compress(&original, &SzConfig::with_error_bound(-1.0))
        );
    }

    #[test]
    fn unicode_metadata_roundtrips() {
        let mut original = wave_dataset(Dims::d1(64));
        original.field = "QCLOUDf.log10-μ".to_string();
        let compressed = compress(&original, &SzConfig::default()).unwrap();
        assert_eq!(decompress(&compressed).unwrap().field, original.field);
    }
}
