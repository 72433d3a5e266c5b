//! `Compressor::prepare` identity: for every registered codec, a prepared
//! field must compress to the same bytes as `Compressor::compress` and
//! evaluate to a bit-identical `CompressionOutcome` as
//! `Compressor::evaluate`, at every bound, errors included.
//!
//! The suite loops over every codec in the default registry, so a backend
//! that starts overriding `prepare` is covered the moment it registers.
//! Fields are proptest-generated in 1-D to 4-D, f32 and f64, smooth,
//! constant and planar, with and without NaN/±∞; SZ also runs at every
//! block size 1–8, which moves the block plan's boundaries.

use proptest::prelude::*;

use fraz::data::{Dataset, Dims};
use fraz::metrics::QualityReport;
use fraz::pressio::backends::SzBackend;
use fraz::pressio::{registry, CompressionOutcome, Compressor, Options};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn dims_for(ndims: usize, shape_seed: u64) -> Dims {
    let w = |k: u64| 2 + ((shape_seed >> (8 * k)) % 9) as usize; // 2..=10
    match ndims {
        1 => Dims::d1(w(0) * w(1) * 3),
        2 => Dims::d2(w(0) + 3, w(1) * 2),
        3 => Dims::d3(w(0), w(1), w(2)),
        _ => Dims::new(&[2, w(0), w(1), w(2)]),
    }
}

/// Field kinds: 0 smooth waves with noise, 1 constant, 2 a tilted plane
/// (regression blocks for SZ), 3 smooth waves with NaN/±∞ sprinkled in.
fn field(dims: Dims, kind: u8, double: bool, mut seed: u64) -> Dataset {
    let n = dims.len();
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64;
            let noise = (lcg(&mut seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            match kind {
                1 => 2.75,
                2 => 3.0 * (i % 7) as f64 - 2.0 * (i / 7 % 5) as f64 + 0.5 * x,
                _ => (x * 0.07).sin() * 40.0 + (x * 0.011).cos() * 9.0 + noise,
            }
        })
        .enumerate()
        .map(|(i, v)| match (kind, i % 37) {
            (3, 5) => f64::NAN,
            (3, 11) => f64::INFINITY,
            (3, 23) => f64::NEG_INFINITY,
            _ => v,
        })
        .collect();
    if double {
        Dataset::from_f64("prop", "field", 0, dims, values)
    } else {
        let values = values.into_iter().map(|v| v as f32).collect();
        Dataset::from_f32("prop", "field", 0, dims, values)
    }
}

fn quality_bits(q: &QualityReport) -> [u64; 10] {
    [
        q.compression_ratio.to_bits(),
        q.bit_rate.to_bits(),
        q.max_abs_error.to_bits(),
        q.rmse.to_bits(),
        q.psnr.to_bits(),
        q.ssim.to_bits(),
        q.acf_error.to_bits(),
        q.num_points as u64,
        q.original_bytes as u64,
        q.compressed_bytes as u64,
    ]
}

/// Every field of an outcome, floats by bit pattern.
fn outcome_bits(o: &CompressionOutcome) -> (String, [u64; 5], Option<[u64; 10]>) {
    (
        o.compressor.clone(),
        [
            o.error_bound.to_bits(),
            o.compression_ratio.to_bits(),
            o.bit_rate.to_bits(),
            o.compressed_bytes as u64,
            o.original_bytes as u64,
        ],
        o.quality.as_ref().map(quality_bits),
    )
}

/// Bounds spread over the codec's valid range for this field, plus two it
/// must reject.
fn bounds(codec: &dyn Compressor, dataset: &Dataset) -> Vec<f64> {
    let (lo, hi) = codec.bound_range(dataset);
    let mut bounds: Vec<f64> = [0.02, 0.3, 0.6, 0.95]
        .iter()
        .map(|t| lo * (hi / lo).powf(*t))
        .collect();
    bounds.extend([0.0, f64::NAN]);
    bounds
}

fn assert_prepared_matches(name: &str, codec: &dyn Compressor, dataset: &Dataset) {
    if !codec.supports_dims(&dataset.dims) {
        return;
    }
    let field = codec.prepare(dataset);
    assert!(std::ptr::eq(field.dataset(), dataset), "{name}: dataset");
    for bound in bounds(codec, dataset) {
        assert_eq!(
            field.compress(bound),
            codec.compress(dataset, bound),
            "{name}: compress at {bound:e}"
        );
        for measure_quality in [false, true] {
            let prepared = field.evaluate(bound, measure_quality);
            let plain = codec.evaluate(dataset, bound, measure_quality);
            match (&prepared, &plain) {
                (Ok(a), Ok(b)) => assert_eq!(
                    outcome_bits(a),
                    outcome_bits(b),
                    "{name}: evaluate at {bound:e} (quality {measure_quality})"
                ),
                _ => assert_eq!(prepared, plain, "{name}: evaluate error at {bound:e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepared_fields_match_compress_and_evaluate_for_every_codec(
        ndims in 1usize..5,
        shape_seed in 0u64..u64::MAX,
        kind in 0u8..4,
        double in any::<bool>(),
        seed in 0u64..u64::MAX,
        block in 1u64..9,
    ) {
        let dataset = field(dims_for(ndims, shape_seed), kind, double, seed);
        for name in registry::names() {
            let codec = registry::build_default(&name).unwrap();
            assert_prepared_matches(&name, codec.as_ref(), &dataset);
        }
        // SZ's plan depends on the block size.  The registry accepts 2 and
        // up; 1 is reachable through the backend directly.
        let options = Options::new().with("sz:block_size", block);
        let sz: Box<dyn Compressor> = if block >= 2 {
            registry::build("sz", &options).unwrap()
        } else {
            Box::new(SzBackend::from_options(&options))
        };
        assert_prepared_matches(&format!("sz block {block}"), sz.as_ref(), &dataset);
    }
}
