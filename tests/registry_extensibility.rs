//! The libpressio posture, proven: an out-of-tree codec — defined entirely
//! in this test, unknown to `fraz-pressio` — registers itself in the
//! process-wide registry and is driven through `FixedRatioSearch` to a
//! fixed-ratio result, exactly like the built-ins.
//!
//! Also covers the two registry-hardening satellites: the options
//! silent-ignore regression (unknown keys must error with a did-you-mean
//! suggestion) and concurrent register/build traffic on the global registry.

use fraz::core::{FixedRatioSearch, SearchConfig};
use fraz::data::{Dataset, Dims};
use fraz::pressio::registry;
use fraz::{
    BoundKind, CodecDescriptor, Compressor, DimRange, OptionDescriptor, OptionKind, Options,
    PressioError, RegistryError,
};

/// A deliberately naive "codec" that keeps every k-th sample and
/// reconstructs by sample-and-hold.  The stride `k` is derived from the
/// scalar parameter as `k ≈ 1/bound`, so the achieved ratio grows smoothly
/// with the bound — a perfectly searchable black box, and obviously not a
/// member of `fraz-pressio`.
struct DecimateCodec {
    max_stride: usize,
}

const HEADER: usize = 16;

impl Compressor for DecimateCodec {
    fn name(&self) -> &str {
        "decimate"
    }
    fn bound_kind(&self) -> BoundKind {
        BoundKind::AbsoluteError
    }
    fn supports_dims(&self, dims: &Dims) -> bool {
        dims.ndims() == 1
    }
    fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
        (1.0 / self.max_stride as f64, 1.0)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        if error_bound <= 0.0 || !error_bound.is_finite() {
            return Err(PressioError::InvalidBound(format!(
                "stride parameter must be positive, got {error_bound}"
            )));
        }
        if !self.supports_dims(&dataset.dims) {
            return Err(PressioError::Unsupported("decimate is 1-D only".into()));
        }
        let stride = (1.0 / error_bound)
            .round()
            .clamp(1.0, self.max_stride as f64) as usize;
        let values = dataset.values_f64();
        let mut out = Vec::with_capacity(HEADER + values.len() / stride * 4 + 4);
        out.extend((values.len() as u64).to_le_bytes());
        out.extend((stride as u64).to_le_bytes());
        for v in values.iter().step_by(stride) {
            out.extend((*v as f32).to_le_bytes());
        }
        Ok(out)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        if data.len() < HEADER {
            return Err(PressioError::Codec("truncated decimate stream".into()));
        }
        let n = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
        let stride = u64::from_le_bytes(data[8..16].try_into().unwrap()) as usize;
        let kept: Vec<f32> = data[HEADER..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            values.push(*kept.get(i / stride).ok_or_else(|| {
                PressioError::Codec("decimate stream shorter than its header claims".into())
            })?);
        }
        Ok(Dataset::from_f32("ext", "field", 0, Dims::d1(n), values))
    }
}

fn decimate_descriptor(name: &str) -> CodecDescriptor {
    CodecDescriptor::new(name, BoundKind::AbsoluteError)
        .with_dims(DimRange::new(1, 1))
        .with_summary("out-of-tree sample-and-hold decimator (integration test)")
        .with_option(
            OptionDescriptor::new("decimate:max_stride", OptionKind::U64)
                .with_default(64u64)
                .with_range(1.0, 1024.0)
                .with_doc("largest decimation stride the bound may select"),
        )
}

fn register_decimate(name: &'static str) {
    registry::register(decimate_descriptor(name), |options| {
        Ok(Box::new(DecimateCodec {
            max_stride: options.get_u64("decimate:max_stride").unwrap_or(64) as usize,
        }))
    })
    .expect("first registration of this name");
}

fn smooth_1d(n: usize) -> Dataset {
    let values: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin() * 5.0).collect();
    Dataset::from_f32("ext", "field", 0, Dims::d1(n), values)
}

#[test]
fn out_of_tree_codec_runs_through_fixed_ratio_search() {
    register_decimate("decimate");

    // The registry now treats it exactly like a built-in.
    assert!(registry::contains("decimate"));
    assert!(registry::names().contains(&"decimate".to_string()));
    assert!(registry::error_bounded_names().contains(&"decimate".to_string()));
    let descriptor = registry::describe("decimate").unwrap();
    assert_eq!(descriptor.bound_kind, BoundKind::AbsoluteError);
    assert!(!descriptor.dims.supports(&Dims::d2(4, 4)));

    // Options are validated against the descriptor we registered.
    let err = registry::build(
        "decimate",
        &Options::new().with("decimate:max_strude", 32u64),
    )
    .err()
    .unwrap();
    match err {
        RegistryError::UnknownOption { suggestion, .. } => {
            assert_eq!(suggestion.as_deref(), Some("decimate:max_stride"));
        }
        other => panic!("wrong error: {other}"),
    }

    // And FRaZ tunes it to a fixed ratio, end to end.
    let dataset = smooth_1d(4096);
    let codec = registry::build(
        "decimate",
        &Options::new().with("decimate:max_stride", 64u64),
    )
    .unwrap();
    let config = SearchConfig::new(8.0, 0.1).with_regions(4).with_threads(2);
    let outcome = FixedRatioSearch::new(codec, config).run(&dataset);
    assert!(
        outcome.feasible,
        "8:1 is feasible for a 64x decimator, got ratio {}",
        outcome.best.compression_ratio
    );
    assert!((outcome.best.compression_ratio - 8.0).abs() <= 0.8 + 1e-9);
    assert_eq!(outcome.best.compressor, "decimate");
    // The final quality measurement exercised the codec's decompress path.
    let quality = outcome.best.quality.expect("final quality measured");
    assert!(quality.max_abs_error.is_finite());
}

#[test]
fn unknown_options_on_builtins_are_errors_not_silence() {
    // Regression for the pre-registry footgun: the old by-name constructor
    // dropped unknown keys without a word.
    let err = registry::build("sz", &Options::new().with("sz:blok_size", 8u64))
        .err()
        .unwrap();
    match &err {
        RegistryError::UnknownOption {
            codec,
            key,
            suggestion,
        } => {
            assert_eq!(codec, "sz");
            assert_eq!(key, "sz:blok_size");
            assert_eq!(suggestion.as_deref(), Some("sz:block_size"));
        }
        other => panic!("expected UnknownOption, got {other}"),
    }
    let message = err.to_string();
    assert!(
        message.contains("sz:block_size"),
        "the error must name the nearest valid key: {message}"
    );

    // The shared-handle form the store and the service build with rejects
    // the same bag.
    assert!(registry::build_arc("sz", &Options::new().with("sz:blok_size", 8u64)).is_err());
}

#[test]
fn concurrent_registration_and_builds_are_safe() {
    // The global registry is shared mutable state behind a parking_lot
    // RwLock; hammer it from many threads at once.  Each thread registers
    // its own codec name while everyone concurrently builds built-ins and
    // whatever stress codecs already appeared.
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let stress_names: Vec<String> = (0..THREADS).map(|i| format!("stress-{i}")).collect();

    std::thread::scope(|scope| {
        for (i, name) in stress_names.iter().enumerate() {
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    if round == i % ROUNDS {
                        registry::register(decimate_descriptor(name), |options| {
                            Ok(Box::new(DecimateCodec {
                                max_stride: options.get_u64("decimate:max_stride").unwrap_or(64)
                                    as usize,
                            }))
                        })
                        .expect("each stress name registers exactly once");
                    }
                    // Builds (read lock) interleave with registrations
                    // (write lock) from the sibling threads.
                    let codec = registry::build_default("sz").unwrap();
                    assert_eq!(codec.name(), "sz");
                    assert!(registry::describe("zfp").is_some());
                    if registry::contains(name) {
                        assert!(registry::build_default(name).is_ok());
                    }
                    // Duplicate registration must fail cleanly, never corrupt.
                    if registry::contains(name) {
                        let dup = registry::register(decimate_descriptor(name), |_| {
                            Ok(Box::new(DecimateCodec { max_stride: 2 }))
                        });
                        assert!(matches!(dup, Err(RegistryError::DuplicateName { .. })));
                    }
                }
            });
        }
    });

    // Every thread's codec survived and is buildable.
    for name in &stress_names {
        assert!(registry::contains(name), "{name} lost in the stampede");
        assert!(registry::build_default(name).is_ok());
    }
    // The built-ins were never displaced.
    for name in ["sz", "zfp", "zfp-rate", "mgard", "mgard-l2"] {
        assert!(registry::contains(name));
    }
}
