//! Adapters exposing the workspace codecs through the [`Compressor`] trait.
//!
//! Every backend sits behind a cargo feature of the same family (`sz`,
//! `zfp`, `mgard`, `szx`, all on by default) so slim builds can drop the
//! codec crates they do not ship.

use fraz_data::{Dataset, Dims};
#[cfg(feature = "mgard")]
use fraz_mgard::{ErrorNorm, MgardConfig};
#[cfg(feature = "sz")]
use fraz_sz::SzConfig;
#[cfg(feature = "szx")]
use fraz_szx::SzxConfig;
#[cfg(feature = "zfp")]
use fraz_zfp::{ZfpConfig, ZfpMode};

#[cfg(feature = "mgard")]
use crate::descriptor::DimRange;
#[cfg(any(feature = "sz", feature = "szx"))]
use crate::descriptor::OptionDescriptor;
use crate::descriptor::{BoundKind, CodecDescriptor, PsnrBoundModel};
#[cfg(any(feature = "sz", feature = "szx"))]
use crate::options::OptionKind;
use crate::options::Options;
use crate::registry::Registry;
#[cfg(feature = "sz")]
use crate::{evaluation, CompressionOutcome, PreparedField, Unprepared};
use crate::{Compressor, PressioError};

/// Smallest error-bound setting offered to the search, as a fraction of the
/// field's value range (below this the codecs are effectively lossless and
/// searching finer bounds is pointless).
#[allow(dead_code)] // unused only when every codec feature is off
const MIN_BOUND_FRACTION: f64 = 1e-9;

#[allow(dead_code)] // unused only when every codec feature is off
fn range_based_bounds(dataset: &Dataset) -> (f64, f64) {
    let range = dataset.stats().value_range();
    if range > 0.0 && range.is_finite() {
        (range * MIN_BOUND_FRACTION, range)
    } else {
        // Constant or degenerate field: any tiny positive bound works.
        (1e-12, 1.0)
    }
}

/// SZ-like backend (absolute error bound).
#[cfg(feature = "sz")]
#[derive(Debug, Clone)]
pub struct SzBackend {
    config: SzConfig,
}

#[cfg(feature = "sz")]
impl SzBackend {
    /// Backend with default SZ settings.
    pub fn new() -> Self {
        Self {
            config: SzConfig::default(),
        }
    }

    /// The registry metadata for this backend, including its option schema.
    pub fn descriptor() -> CodecDescriptor {
        CodecDescriptor::new("sz", BoundKind::AbsoluteError)
            .with_summary("SZ-like blockwise prediction + quantization compressor")
            // Linear-scaling quantization ⇒ near-uniform error on [-e, e],
            // so the Fixed-PSNR closed form applies.
            .with_psnr_model(PsnrBoundModel::uniform_quantization())
            .with_option(
                OptionDescriptor::new("sz:block_size", OptionKind::U64)
                    .with_range(2.0, 4096.0)
                    .with_doc("block edge length; unset selects 6 (3-D), 16 (2-D) or 256 (1-D)"),
            )
            .with_option(
                OptionDescriptor::new("sz:quant_capacity", OptionKind::U64)
                    .with_default(65536u64)
                    .with_range(16.0, 1_048_576.0)
                    .with_doc("number of linear-scaling quantization bins"),
            )
    }

    /// Backend configured from an options bag (`sz:block_size`,
    /// `sz:quant_capacity`).
    pub fn from_options(options: &Options) -> Self {
        let mut config = SzConfig::default();
        if let Some(b) = options.get_u64("sz:block_size") {
            config.block_size = Some(b as usize);
        }
        if let Some(c) = options.get_u64("sz:quant_capacity") {
            config.quant_capacity = c as u32;
        }
        Self { config }
    }
}

#[cfg(feature = "sz")]
impl Default for SzBackend {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(feature = "sz")]
impl Compressor for SzBackend {
    fn name(&self) -> &str {
        "sz"
    }
    fn bound_kind(&self) -> BoundKind {
        BoundKind::AbsoluteError
    }
    fn supports_dims(&self, _dims: &Dims) -> bool {
        true
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        range_based_bounds(dataset)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        fraz_sz::compress(dataset, &self.config_at(error_bound)).map_err(sz_error)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        fraz_sz::decompress(data).map_err(|e| PressioError::Codec(e.to_string()))
    }
    /// Builds SZ's block plan once ([`fraz_sz::prepare`]); each bound then
    /// pays only for quantization and the lossless stages.
    fn prepare<'a>(&'a self, dataset: &'a Dataset) -> Box<dyn PreparedField + 'a> {
        match fraz_sz::prepare(dataset, self.config.block_size) {
            Ok(field) => Box::new(SzField {
                backend: self,
                field,
            }),
            // No plan for this configuration: every call reports
            // `compress`'s own error.
            Err(_) => Box::new(Unprepared {
                compressor: self,
                dataset,
            }),
        }
    }
}

#[cfg(feature = "sz")]
impl SzBackend {
    fn config_at(&self, error_bound: f64) -> SzConfig {
        SzConfig {
            error_bound,
            ..self.config.clone()
        }
    }
}

#[cfg(feature = "sz")]
fn sz_error(e: fraz_sz::SzError) -> PressioError {
    match e {
        fraz_sz::SzError::InvalidConfig(msg) => PressioError::InvalidBound(msg),
        other => PressioError::Codec(other.to_string()),
    }
}

/// A dataset with SZ's block plan built, for [`SzBackend::prepare`].
#[cfg(feature = "sz")]
struct SzField<'a> {
    backend: &'a SzBackend,
    field: fraz_sz::Prepared<'a>,
}

#[cfg(feature = "sz")]
impl PreparedField for SzField<'_> {
    fn dataset(&self) -> &Dataset {
        self.field.dataset()
    }
    fn compress(&self, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        self.field
            .compress(&self.backend.config_at(error_bound))
            .map_err(sz_error)
    }
    fn evaluate(
        &self,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        let compressed = self.compress(error_bound)?;
        evaluation(
            self.backend,
            self.dataset(),
            error_bound,
            measure_quality,
            compressed,
        )
    }
}

/// ZFP-like backend in fixed-accuracy (error-bounded) mode.
#[cfg(feature = "zfp")]
#[derive(Debug, Clone, Default)]
pub struct ZfpAccuracyBackend;

#[cfg(feature = "zfp")]
impl ZfpAccuracyBackend {
    /// The registry metadata for this backend.
    pub fn descriptor() -> CodecDescriptor {
        CodecDescriptor::new("zfp", BoundKind::AccuracyTolerance)
            .with_alias("zfp-accuracy")
            .with_summary("ZFP-like block-transform compressor, fixed-accuracy mode")
    }
}

#[cfg(feature = "zfp")]
impl Compressor for ZfpAccuracyBackend {
    fn name(&self) -> &str {
        "zfp"
    }
    fn bound_kind(&self) -> BoundKind {
        BoundKind::AccuracyTolerance
    }
    fn supports_dims(&self, _dims: &Dims) -> bool {
        true
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        range_based_bounds(dataset)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        fraz_zfp::compress(dataset, &ZfpConfig::accuracy(error_bound)).map_err(|e| match e {
            fraz_zfp::ZfpError::InvalidConfig(msg) => PressioError::InvalidBound(msg),
            other => PressioError::Codec(other.to_string()),
        })
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        fraz_zfp::decompress(data).map_err(|e| PressioError::Codec(e.to_string()))
    }
}

/// ZFP-like backend in fixed-rate mode.
///
/// The scalar parameter is the **bits-per-value rate**, not an error bound;
/// this backend exists as the paper's baseline (Figs 1, 9, 10), not as a
/// FRaZ search target.
#[cfg(feature = "zfp")]
#[derive(Debug, Clone, Default)]
pub struct ZfpFixedRateBackend;

#[cfg(feature = "zfp")]
impl ZfpFixedRateBackend {
    /// The registry metadata for this backend (fixed-rate: not a FRaZ
    /// search target).
    pub fn descriptor() -> CodecDescriptor {
        CodecDescriptor::new("zfp-rate", BoundKind::BitsPerValue)
            .with_alias("zfp-fixed-rate")
            .with_summary("ZFP-like compressor, fixed-rate baseline mode")
    }
}

#[cfg(feature = "zfp")]
impl Compressor for ZfpFixedRateBackend {
    fn name(&self) -> &str {
        "zfp-rate"
    }
    fn bound_kind(&self) -> BoundKind {
        BoundKind::BitsPerValue
    }
    fn supports_dims(&self, _dims: &Dims) -> bool {
        true
    }
    fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
        (0.5, 32.0)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        fraz_zfp::compress(
            dataset,
            &ZfpConfig {
                mode: ZfpMode::FixedRate {
                    bits_per_value: error_bound,
                },
            },
        )
        .map_err(|e| match e {
            fraz_zfp::ZfpError::InvalidConfig(msg) => PressioError::InvalidBound(msg),
            other => PressioError::Codec(other.to_string()),
        })
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        fraz_zfp::decompress(data).map_err(|e| PressioError::Codec(e.to_string()))
    }
}

/// MGARD-like backend (∞-norm or L2-norm error control; 2-D/3-D only).
#[cfg(feature = "mgard")]
#[derive(Debug, Clone)]
pub struct MgardBackend {
    norm: ErrorNorm,
}

#[cfg(feature = "mgard")]
impl MgardBackend {
    /// ∞-norm (absolute error) backend.
    pub fn infinity() -> Self {
        Self {
            norm: ErrorNorm::Infinity,
        }
    }

    /// L2-norm (RMS error) backend.
    pub fn l2() -> Self {
        Self {
            norm: ErrorNorm::L2,
        }
    }

    /// The registry metadata for the ∞-norm backend.
    pub fn infinity_descriptor() -> CodecDescriptor {
        CodecDescriptor::new("mgard", BoundKind::InfinityNorm)
            .with_dims(DimRange::new(2, 3))
            .with_summary("MGARD-like multilevel compressor, infinity-norm error control")
    }

    /// The registry metadata for the L2-norm backend.
    pub fn l2_descriptor() -> CodecDescriptor {
        CodecDescriptor::new("mgard-l2", BoundKind::L2Norm)
            .with_dims(DimRange::new(2, 3))
            .with_summary("MGARD-like multilevel compressor, L2-norm (RMS) error control")
    }
}

#[cfg(feature = "mgard")]
impl Compressor for MgardBackend {
    fn name(&self) -> &str {
        match self.norm {
            ErrorNorm::Infinity => "mgard",
            ErrorNorm::L2 => "mgard-l2",
        }
    }
    fn bound_kind(&self) -> BoundKind {
        match self.norm {
            ErrorNorm::Infinity => BoundKind::InfinityNorm,
            ErrorNorm::L2 => BoundKind::L2Norm,
        }
    }
    fn supports_dims(&self, dims: &Dims) -> bool {
        (2..=3).contains(&dims.ndims())
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        range_based_bounds(dataset)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        if !self.supports_dims(&dataset.dims) {
            return Err(PressioError::Unsupported(format!(
                "MGARD-like codec does not support {}-D data",
                dataset.dims.ndims()
            )));
        }
        let config = MgardConfig {
            tolerance: error_bound,
            norm: self.norm,
        };
        fraz_mgard::compress(dataset, &config).map_err(|e| match e {
            fraz_mgard::MgardError::InvalidConfig(msg) => PressioError::InvalidBound(msg),
            fraz_mgard::MgardError::UnsupportedDimensionality(d) => {
                PressioError::Unsupported(format!("{d}-D data"))
            }
            other => PressioError::Codec(other.to_string()),
        })
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        fraz_mgard::decompress(data).map_err(|e| PressioError::Codec(e.to_string()))
    }
}

/// SZx-like ultra-fast backend (absolute error bound).
///
/// Blockwise constant/unpredictable classification with IEEE-754 bit
/// truncation — roughly an order of magnitude faster than the SZ-like
/// backend on both paths, at the cost of lower ratios at tight bounds.
/// Because FRaZ pays one compression per candidate bound, this backend
/// changes the economics of the whole search.
#[cfg(feature = "szx")]
#[derive(Debug, Clone)]
pub struct SzxBackend {
    config: SzxConfig,
}

#[cfg(feature = "szx")]
impl SzxBackend {
    /// Backend with default SZx settings (128-value blocks).
    pub fn new() -> Self {
        Self {
            config: SzxConfig::default(),
        }
    }

    /// The registry metadata for this backend, including its option schema.
    pub fn descriptor() -> CodecDescriptor {
        CodecDescriptor::new("szx", BoundKind::AbsoluteError)
            .with_summary("SZx-like ultra-fast blockwise-truncation compressor")
            // Mantissa truncation bounded by e behaves like a uniform
            // quantizer at scale, so the same closed form seeds it.
            .with_psnr_model(PsnrBoundModel::uniform_quantization())
            .with_option(
                OptionDescriptor::new("szx:block_size", OptionKind::U64)
                    .with_default(128u64)
                    .with_range(1.0, fraz_szx::MAX_BLOCK_SIZE as f64)
                    .with_doc("values per constant/unpredictable classification block"),
            )
    }

    /// Backend configured from an options bag (`szx:block_size`).
    pub fn from_options(options: &Options) -> Self {
        let mut config = SzxConfig::default();
        if let Some(b) = options.get_u64("szx:block_size") {
            config.block_size = Some(b as usize);
        }
        Self { config }
    }
}

#[cfg(feature = "szx")]
impl Default for SzxBackend {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(feature = "szx")]
impl Compressor for SzxBackend {
    fn name(&self) -> &str {
        "szx"
    }
    fn bound_kind(&self) -> BoundKind {
        BoundKind::AbsoluteError
    }
    fn supports_dims(&self, _dims: &Dims) -> bool {
        true
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        range_based_bounds(dataset)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        let config = SzxConfig {
            error_bound,
            ..self.config.clone()
        };
        fraz_szx::compress(dataset, &config).map_err(|e| match e {
            fraz_szx::SzxError::InvalidConfig(msg) => PressioError::InvalidBound(msg),
            other => PressioError::Codec(other.to_string()),
        })
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        fraz_szx::decompress(data).map_err(|e| PressioError::Codec(e.to_string()))
    }
}

/// Register the built-in backends enabled by this crate's codec features
/// (all six with the default feature set: `sz`, `zfp`, `zfp-rate`, `szx`,
/// `mgard`, `mgard-l2`).
///
/// This is the only place the workspace's own codecs touch the registry;
/// everything else (examples, benches, FRaZ itself) goes through
/// [`Registry::build`] like an out-of-tree codec would.
pub fn install_builtins(registry: &mut Registry) {
    #[cfg(not(any(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx")))]
    let _ = registry;
    #[cfg(feature = "sz")]
    registry
        .register(SzBackend::descriptor(), |options| {
            Ok(Box::new(SzBackend::from_options(options)))
        })
        .expect("fresh registry cannot already contain sz");
    #[cfg(feature = "zfp")]
    registry
        .register(ZfpAccuracyBackend::descriptor(), |_| {
            Ok(Box::new(ZfpAccuracyBackend))
        })
        .expect("fresh registry cannot already contain zfp");
    #[cfg(feature = "zfp")]
    registry
        .register(ZfpFixedRateBackend::descriptor(), |_| {
            Ok(Box::new(ZfpFixedRateBackend))
        })
        .expect("fresh registry cannot already contain zfp-rate");
    #[cfg(feature = "mgard")]
    registry
        .register(MgardBackend::infinity_descriptor(), |_| {
            Ok(Box::new(MgardBackend::infinity()))
        })
        .expect("fresh registry cannot already contain mgard");
    #[cfg(feature = "mgard")]
    registry
        .register(MgardBackend::l2_descriptor(), |_| {
            Ok(Box::new(MgardBackend::l2()))
        })
        .expect("fresh registry cannot already contain mgard-l2");
    #[cfg(feature = "szx")]
    registry
        .register(SzxBackend::descriptor(), |options| {
            Ok(Box::new(SzxBackend::from_options(options)))
        })
        .expect("fresh registry cannot already contain szx");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    #[allow(dead_code)] // unused only in slim feature combinations
    fn smooth(dims: Dims) -> Dataset {
        let n = dims.len();
        let cols = *dims.as_slice().last().unwrap();
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                ((c as f32 * 0.1).sin() + (r as f32 * 0.07).cos()) * 10.0
            })
            .collect();
        Dataset::from_f32("t", "f", 0, dims, values)
    }

    #[allow(dead_code)] // unused only in slim feature combinations
    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[cfg(all(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx"))]
    #[test]
    fn error_bounded_backends_roundtrip_within_bound() {
        let dataset = smooth(Dims::d2(40, 50));
        let backends: Vec<Box<dyn Compressor>> = vec![
            Box::new(SzBackend::new()),
            Box::new(ZfpAccuracyBackend),
            Box::new(MgardBackend::infinity()),
            Box::new(SzxBackend::new()),
        ];
        for backend in &backends {
            let outcome = backend.evaluate(&dataset, 1e-3, true).unwrap();
            let quality = outcome.quality.expect("quality requested");
            assert!(
                quality.max_abs_error <= 1e-3,
                "{}: {}",
                backend.name(),
                quality.max_abs_error
            );
            assert!(outcome.compression_ratio > 1.0, "{}", backend.name());
        }
    }

    #[cfg(feature = "sz")]
    #[test]
    fn roundtrip_preserves_data_through_trait_object() {
        let dataset = smooth(Dims::d3(8, 12, 12));
        let backend: Box<dyn Compressor> = Box::new(SzBackend::new());
        let compressed = backend.compress(&dataset, 1e-4).unwrap();
        let restored = backend.decompress(&compressed).unwrap();
        assert!(max_error(&dataset, &restored) <= 1e-4);
        assert_eq!(restored.dims, dataset.dims);
    }

    #[cfg(feature = "zfp")]
    #[test]
    fn zfp_rate_backend_controls_size_directly() {
        let dataset = smooth(Dims::d3(8, 16, 16));
        let backend = ZfpFixedRateBackend;
        let o4 = backend.evaluate(&dataset, 4.0, false).unwrap();
        let o8 = backend.evaluate(&dataset, 8.0, false).unwrap();
        assert!(o4.compressed_bytes < o8.compressed_bytes);
        // 4 bits/value on 32-bit floats is ~8:1, allowing for the header.
        assert!(
            (o4.compression_ratio - 8.0).abs() < 1.0,
            "{}",
            o4.compression_ratio
        );
        assert_eq!(backend.bound_kind(), BoundKind::BitsPerValue);
        assert_eq!(backend.bound_kind().label(), "bits per value");
    }

    #[cfg(feature = "mgard")]
    #[test]
    fn mgard_backend_rejects_1d() {
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(64), vec![0.0; 64]);
        let backend = MgardBackend::infinity();
        assert!(!backend.supports_dims(&dataset.dims));
        assert!(matches!(
            backend.compress(&dataset, 1e-3),
            Err(PressioError::Unsupported(_))
        ));
    }

    #[cfg(all(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx"))]
    #[test]
    fn bound_ranges_are_sane() {
        let dataset = smooth(Dims::d2(30, 30));
        for backend in [
            Box::new(SzBackend::new()) as Box<dyn Compressor>,
            Box::new(ZfpAccuracyBackend),
            Box::new(MgardBackend::l2()),
            Box::new(SzxBackend::new()),
        ] {
            let (lo, hi) = backend.bound_range(&dataset);
            assert!(lo > 0.0 && lo < hi, "{}: ({lo}, {hi})", backend.name());
            assert!(hi <= dataset.stats().value_range() * 1.001);
        }
        // Constant field falls back to a default range.
        let flat = Dataset::from_f32("t", "f", 0, Dims::d2(4, 4), vec![3.0; 16]);
        let (lo, hi) = SzBackend::new().bound_range(&flat);
        assert!(lo > 0.0 && hi > lo);
    }

    #[cfg(feature = "sz")]
    #[test]
    fn sz_backend_honours_options() {
        let opts = Options::new()
            .with("sz:block_size", 4u64)
            .with("sz:quant_capacity", 1024u64);
        let backend = SzBackend::from_options(&opts);
        assert_eq!(backend.config.block_size, Some(4));
        assert_eq!(backend.config.quant_capacity, 1024);
        let dataset = smooth(Dims::d2(20, 20));
        let outcome = backend.evaluate(&dataset, 1e-3, true).unwrap();
        assert!(outcome.quality.unwrap().max_abs_error <= 1e-3);
    }

    #[cfg(all(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx"))]
    #[test]
    fn descriptors_agree_with_their_backends() {
        let pairs: Vec<(CodecDescriptor, Box<dyn Compressor>)> = vec![
            (SzBackend::descriptor(), Box::new(SzBackend::new())),
            (
                ZfpAccuracyBackend::descriptor(),
                Box::new(ZfpAccuracyBackend),
            ),
            (
                ZfpFixedRateBackend::descriptor(),
                Box::new(ZfpFixedRateBackend),
            ),
            (
                MgardBackend::infinity_descriptor(),
                Box::new(MgardBackend::infinity()),
            ),
            (MgardBackend::l2_descriptor(), Box::new(MgardBackend::l2())),
            (SzxBackend::descriptor(), Box::new(SzxBackend::new())),
        ];
        for (descriptor, backend) in &pairs {
            assert_eq!(descriptor.name, backend.name());
            assert_eq!(
                descriptor.bound_kind,
                backend.bound_kind(),
                "{}",
                descriptor.name
            );
            // The declared dimensionality range matches what the impl
            // actually accepts.
            for dims in [
                Dims::d1(8),
                Dims::d2(4, 4),
                Dims::d3(2, 2, 2),
                Dims::d4(2, 2, 2, 2),
            ] {
                assert_eq!(
                    descriptor.dims.supports(&dims),
                    backend.supports_dims(&dims),
                    "{} at {}-D",
                    descriptor.name,
                    dims.ndims()
                );
            }
        }
    }

    #[cfg(all(feature = "sz", feature = "zfp", feature = "szx"))]
    #[test]
    fn invalid_bounds_are_invalid_bound_errors() {
        let dataset = smooth(Dims::d2(10, 10));
        assert!(matches!(
            SzBackend::new().compress(&dataset, -1.0),
            Err(PressioError::InvalidBound(_))
        ));
        assert!(matches!(
            ZfpAccuracyBackend.compress(&dataset, 0.0),
            Err(PressioError::InvalidBound(_))
        ));
        assert!(matches!(
            ZfpFixedRateBackend.compress(&dataset, 1000.0),
            Err(PressioError::InvalidBound(_))
        ));
        assert!(matches!(
            SzxBackend::new().compress(&dataset, f64::NAN),
            Err(PressioError::InvalidBound(_))
        ));
    }

    #[cfg(feature = "szx")]
    #[test]
    fn szx_backend_roundtrips_and_honours_options() {
        let dataset = smooth(Dims::d3(8, 12, 12));
        let backend = SzxBackend::from_options(&Options::new().with("szx:block_size", 64u64));
        assert_eq!(backend.config.block_size, Some(64));
        for bound in [1e-2, 1e-5] {
            let outcome = backend.evaluate(&dataset, bound, true).unwrap();
            assert!(outcome.quality.unwrap().max_abs_error <= bound, "{bound}");
            assert!(outcome.compression_ratio > 1.0, "{bound}");
        }
        // Ultra-fast tier contract: szx must stay decompressible through the
        // trait object like every other backend.
        let compressed = backend.compress(&dataset, 1e-3).unwrap();
        let restored = backend.decompress(&compressed).unwrap();
        assert!(max_error(&dataset, &restored) <= 1e-3);
        assert_eq!(restored.dims, dataset.dims);
    }
}
