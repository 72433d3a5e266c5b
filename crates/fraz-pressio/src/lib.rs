//! A libpressio-like abstraction layer over the workspace's lossy
//! compressors.
//!
//! FRaZ treats compressors as black boxes: all it needs is a closure
//! `e ↦ ρr(D, e)` mapping an error-bound setting to an achieved compression
//! ratio, regardless of which codec produced it.  The original implementation
//! built that closure on top of libpressio; this crate plays the same role:
//!
//! * [`Compressor`] — the uniform trait: compress under a scalar error-bound
//!   setting, decompress, report the valid bound range and dimensionality
//!   support,
//! * [`backends`] — adapters for the SZ-like, ZFP-like (accuracy and
//!   fixed-rate), MGARD-like (∞-norm and L2) and SZx-like (ultra-fast)
//!   codecs, each behind a cargo feature (`sz`, `zfp`, `mgard`, `szx`; all
//!   on by default) so slim builds can drop codec crates,
//! * [`descriptor`] — introspectable codec metadata: [`CodecDescriptor`]
//!   (name, aliases, [`BoundKind`], capabilities, dimensionalities) and the
//!   per-option schema [`OptionDescriptor`],
//! * [`registry`] — the extensible [`registry::Registry`]: factory
//!   registration plus validated, options-driven construction
//!   (`Registry::build("sz", &options)`), with a process-wide default
//!   registry pre-loaded with the feature-enabled built-ins (all six by
//!   default: `"sz"`, `"zfp"`, `"zfp-rate"`, `"mgard"`, `"mgard-l2"`,
//!   `"szx"`) that external codecs can join at runtime,
//! * [`CompressionOutcome`] / [`Compressor::evaluate`] — the
//!   compress-measure-decompress convenience FRaZ's loss function and the
//!   experiment harness are built on,
//! * [`PreparedField`] / [`Compressor::prepare`] — a dataset prepared once
//!   for evaluation at many bounds, which is how the searches call a codec:
//!   a backend that can hoist bound-independent work out of `compress`
//!   (SZ's block plan) overrides `prepare`; every other backend is
//!   evaluated through `Compressor::evaluate` exactly as before.

pub mod backends;
pub mod descriptor;
pub mod options;
pub mod registry;

pub use descriptor::{BoundKind, CodecDescriptor, DimRange, OptionDescriptor, PsnrBoundModel};
pub use options::{OptionKind, OptionValue, Options};
pub use registry::{Registry, RegistryError};

use std::fmt;

use serde::{Deserialize, Serialize};

use fraz_data::{Dataset, Dims};
use fraz_metrics::QualityReport;

/// Errors surfaced through the abstraction layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PressioError {
    /// The bound/parameter is outside the compressor's valid range.
    InvalidBound(String),
    /// The dataset's dimensionality or type is unsupported by this backend.
    Unsupported(String),
    /// The underlying codec failed.
    Codec(String),
}

impl fmt::Display for PressioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PressioError::InvalidBound(msg) => write!(f, "invalid error-bound setting: {msg}"),
            PressioError::Unsupported(msg) => write!(f, "unsupported input: {msg}"),
            PressioError::Codec(msg) => write!(f, "codec failure: {msg}"),
        }
    }
}

impl std::error::Error for PressioError {}

/// The result of one compress (and optional decompress) invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionOutcome {
    /// Compressor name.
    pub compressor: String,
    /// The error-bound setting used.
    pub error_bound: f64,
    /// Achieved compression ratio `ρr(D, e)`.
    pub compression_ratio: f64,
    /// Bits per value after compression.
    pub bit_rate: f64,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Original size in bytes.
    pub original_bytes: usize,
    /// Full quality metrics (present when the caller asked for decompression
    /// and measurement, absent during pure ratio searches).
    pub quality: Option<QualityReport>,
}

/// The uniform compressor interface.
///
/// The scalar "error bound" parameter means whatever is natural for the
/// backend: an absolute error bound for SZ, MGARD and ZFP's accuracy mode, a
/// bits-per-value rate for ZFP's fixed-rate mode.  FRaZ only requires that
/// the parameter be a positive scalar with a known valid range.
pub trait Compressor: Send + Sync {
    /// Short backend name (e.g. `"sz"`).
    fn name(&self) -> &str;

    /// Which error-bounding mode the scalar parameter controls.
    fn bound_kind(&self) -> BoundKind {
        BoundKind::AbsoluteError
    }

    /// True if the backend can handle this grid shape.
    fn supports_dims(&self, dims: &Dims) -> bool;

    /// The valid `(lower, upper)` range of the error-bound setting for this
    /// dataset; used by FRaZ to delimit and split its search regions.
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64);

    /// Compress under the given error-bound setting.
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError>;

    /// Decompress a stream previously produced by this backend.
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError>;

    /// Compress and report the achieved ratio; when `measure_quality` is
    /// true, also decompress and attach the full [`QualityReport`].
    ///
    /// Backends must not override this: it is the one definition of an
    /// evaluation ([`evaluation`]: compress, then decompress and
    /// [`QualityReport::evaluate`] on the stored buffers), so a codec speeds
    /// it up only through its `compress`, `decompress` and
    /// [`prepare`](Self::prepare).  The benchmark's timing decorator
    /// (`perfbench/src/layers.rs`) restates this body to time the quality
    /// pass on its own and must stay in step with it.
    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        let compressed = self.compress(dataset, error_bound)?;
        evaluation(self, dataset, error_bound, measure_quality, compressed)
    }

    /// Prepare `dataset` for compression and evaluation at many bounds.
    ///
    /// FRaZ compresses one field again and again with only the bound
    /// changing, so the searches and the store writer prepare each field
    /// (or chunk) once and evaluate the [`PreparedField`].  The contract:
    ///
    /// * the prepared state depends on the dataset and the backend's
    ///   options only, never on a bound;
    /// * [`PreparedField::compress`] is byte-identical to
    ///   [`compress`](Self::compress) at every bound, errors included, and
    ///   [`PreparedField::evaluate`] builds its outcome with the same
    ///   [`evaluation`] as [`evaluate`](Self::evaluate), so the two paths
    ///   give bit-identical outcomes.
    ///
    /// The default prepares nothing: its field calls
    /// [`compress`](Self::compress) and [`evaluate`](Self::evaluate), so a
    /// backend (or decorator) that does not override this is called exactly
    /// as it was before preparation existed.  A decorator that wraps another
    /// compressor and does not forward `prepare` therefore runs the wrapped
    /// codec's unprepared path.
    fn prepare<'a>(&'a self, dataset: &'a Dataset) -> Box<dyn PreparedField + 'a> {
        Box::new(Unprepared {
            compressor: self,
            dataset,
        })
    }
}

/// A dataset prepared by one compressor (see [`Compressor::prepare`]):
/// compresses and evaluates it at any bound.
pub trait PreparedField: Send + Sync {
    /// The dataset this field was prepared from.
    fn dataset(&self) -> &Dataset;

    /// Compress the dataset under `error_bound`; byte-identical to the
    /// compressor's own [`Compressor::compress`].
    fn compress(&self, error_bound: f64) -> Result<Vec<u8>, PressioError>;

    /// One evaluation at `error_bound`; bit-identical to
    /// [`Compressor::evaluate`].
    fn evaluate(
        &self,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError>;
}

/// The one definition of an evaluation, shared by [`Compressor::evaluate`]
/// and every [`PreparedField`]: the ratio and bit rate of `compressed`
/// (the stream `codec` produced for `dataset` at `error_bound`) and, when
/// `measure_quality` is set, the [`QualityReport`] of its decompression.
pub fn evaluation<C: Compressor + ?Sized>(
    codec: &C,
    dataset: &Dataset,
    error_bound: f64,
    measure_quality: bool,
    compressed: Vec<u8>,
) -> Result<CompressionOutcome, PressioError> {
    let original_bytes = dataset.byte_size();
    let compressed_bytes = compressed.len();
    let quality = if measure_quality {
        let restored = codec.decompress(&compressed)?;
        Some(QualityReport::evaluate(
            dataset,
            &restored,
            compressed_bytes,
        ))
    } else {
        None
    };
    Ok(CompressionOutcome {
        compressor: codec.name().to_string(),
        error_bound,
        compression_ratio: fraz_metrics::ratio::compression_ratio(original_bytes, compressed_bytes),
        bit_rate: fraz_metrics::ratio::bit_rate(compressed_bytes, dataset.len()),
        compressed_bytes,
        original_bytes,
        quality,
    })
}

/// The default [`Compressor::prepare`]: nothing prepared, every call goes
/// to the compressor itself.
struct Unprepared<'a, C: ?Sized> {
    compressor: &'a C,
    dataset: &'a Dataset,
}

impl<C: Compressor + ?Sized> PreparedField for Unprepared<'_, C> {
    fn dataset(&self) -> &Dataset {
        self.dataset
    }

    fn compress(&self, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        self.compressor.compress(self.dataset, error_bound)
    }

    fn evaluate(
        &self,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        self.compressor
            .evaluate(self.dataset, error_bound, measure_quality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    /// A trivial in-crate compressor used to exercise the trait's default
    /// `evaluate` implementation without touching the real codecs.
    struct Truncator;

    impl Compressor for Truncator {
        fn name(&self) -> &str {
            "truncator"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (1e-12, 1.0)
        }
        fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
            if error_bound <= 0.0 {
                return Err(PressioError::InvalidBound("non-positive".into()));
            }
            // Keep one byte out of every `k` — obviously not a real codec,
            // but enough to produce a ratio for the test.
            let bytes = dataset.buffer.to_le_bytes();
            let k = (1.0 / error_bound).clamp(1.0, 16.0) as usize;
            Ok(bytes.iter().copied().step_by(k).collect())
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
            Err(PressioError::Codec("truncator cannot decompress".into()))
        }
    }

    #[test]
    fn evaluate_reports_ratio_without_quality() {
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(1000), vec![1.0; 1000]);
        let outcome = Truncator.evaluate(&dataset, 0.25, false).unwrap();
        assert_eq!(outcome.compressor, "truncator");
        assert_eq!(outcome.original_bytes, 4000);
        assert_eq!(outcome.compressed_bytes, 1000);
        assert!((outcome.compression_ratio - 4.0).abs() < 1e-12);
        assert!((outcome.bit_rate - 8.0).abs() < 1e-12);
        assert!(outcome.quality.is_none());
    }

    #[test]
    fn evaluate_propagates_codec_errors() {
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(10), vec![1.0; 10]);
        assert!(matches!(
            Truncator.evaluate(&dataset, 0.0, false),
            Err(PressioError::InvalidBound(_))
        ));
        // Asking for quality forces a decompress, which this backend refuses.
        assert!(matches!(
            Truncator.evaluate(&dataset, 0.5, true),
            Err(PressioError::Codec(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(PressioError::Unsupported("1-D".into())
            .to_string()
            .contains("unsupported"));
        assert!(PressioError::Codec("x".into())
            .to_string()
            .contains("codec"));
    }
}
