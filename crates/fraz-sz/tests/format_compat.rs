//! Wire-format regression fixtures: the committed `.sz` payloads under
//! `tests/fixtures/` pin the exact bytes the encoder produces, so later
//! optimization passes (a hoisted block plan, a fused quantize loop, …)
//! cannot silently change the on-disk format.
//!
//! The raw inputs are deterministic (fixed formulas / seeded LCG) so only
//! the compressed payloads need committing.  Each input also asserts the
//! stream feature it exists to cover (regression blocks, unpredictable
//! points), so a fixture cannot quietly stop exercising it.  To regenerate
//! after an *intentional, versioned* format change (which also requires a
//! new version byte):
//!
//! ```text
//! cargo test -p fraz-sz --test format_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use fraz_data::{Dataset, Dims};
use fraz_sz::pipeline::{self, PipelineParams};
use fraz_sz::{compress, decompress, prepare, SzConfig};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Deterministic inputs (identical across versions by construction).

fn wave_f32_3d() -> Dataset {
    let dims = Dims::d3(12, 15, 17);
    let values: Vec<f32> = (0..dims.len())
        .map(|i| {
            let x = i as f32;
            (x * 0.013).sin() * 5.0 + (x * 0.0007).cos() * 20.0
        })
        .collect();
    Dataset::from_f32("fixture", "wave32", 3, dims, values)
}

fn wave_f64_1d() -> Dataset {
    let values: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).sin() * 1e6).collect();
    Dataset::from_f64("fixture", "wave64", 0, Dims::d1(3000), values)
}

fn ripple_f32_2d() -> Dataset {
    let (ny, nx) = (40, 52);
    let values: Vec<f32> = (0..ny * nx)
        .map(|i| {
            let (y, x) = ((i / nx) as f32, (i % nx) as f32);
            (x * 0.21).sin() * 3.0 + (y * 0.13).cos() * 2.0 + 0.01 * x * y
        })
        .collect();
    Dataset::from_f32("fixture", "ripple2d", 7, Dims::d2(ny, nx), values)
}

/// A tilted plane plus a small deterministic wobble in the low-`x` half,
/// where the Lorenzo stencil sees the wobble several times over and blocks
/// pick the regression plane; a curved surface without three-way
/// interaction in the high-`x` half, which Lorenzo predicts and no plane
/// fits.
fn planar_f64_3d() -> Dataset {
    let n = 12;
    let mut state = 11u64;
    let values: Vec<f64> = (0..n * n * n)
        .map(|i| {
            let (z, y, x) = ((i / (n * n)) as f64, ((i / n) % n) as f64, (i % n) as f64);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let wobble = ((state >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.05;
            if x < 6.0 {
                3.0 * z - 2.0 * y + 0.5 * x + wobble
            } else {
                5.0 * (0.9 * x).sin() + 4.0 * (0.7 * y).cos() + 0.3 * z
            }
        })
        .collect();
    Dataset::from_f64("fixture", "planar", 1, Dims::d3(n, n, n), values)
}

/// Seeded noise spanning ±2.5e5 at a bound far below its spacing: almost
/// every point overflows the quantizer and is stored exactly.
fn noisy_f32_1d() -> Dataset {
    let mut state = 1u64;
    let values: Vec<f32> = (0..700)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (((state >> 33) as f64 / 2e9) * 5e5 - 2.5e5) as f32
        })
        .collect();
    Dataset::from_f32("fixture", "noise", 2, Dims::d1(700), values)
}

fn config(error_bound: f64, block_size: Option<usize>, quant_capacity: u32) -> SzConfig {
    SzConfig {
        error_bound,
        block_size,
        quant_capacity,
    }
}

fn fixtures() -> Vec<(&'static str, Dataset, SzConfig)> {
    vec![
        (
            "wave_f32_3d_eb1e-3.sz",
            wave_f32_3d(),
            config(1e-3, None, 65536),
        ),
        (
            "wave_f32_3d_eb1e-5_block4.sz",
            wave_f32_3d(),
            config(1e-5, Some(4), 1024),
        ),
        (
            "wave_f64_1d_eb1e-2.sz",
            wave_f64_1d(),
            config(1e-2, None, 65536),
        ),
        (
            "ripple_f32_2d_eb1e-4.sz",
            ripple_f32_2d(),
            config(1e-4, None, 65536),
        ),
        (
            "planar_f64_3d_eb1e-3.sz",
            planar_f64_3d(),
            config(1e-3, None, 65536),
        ),
        (
            "noisy_f32_1d_eb1e-3.sz",
            noisy_f32_1d(),
            config(1e-3, Some(64), 256),
        ),
    ]
}

/// The prediction/quantization stage's view of a fixture input, used to
/// check that each input covers what its name promises.
fn encoded(dataset: &Dataset, config: &SzConfig, default_block: usize) -> pipeline::EncodedBlocks {
    let d = dataset.dims.as_slice();
    let dims3 = match d.len() {
        1 => [1, 1, d[0]],
        2 => [1, d[0], d[1]],
        _ => [d[0], d[1], d[2]],
    };
    let params = PipelineParams {
        error_bound: config.error_bound,
        block_size: config.block_size.unwrap_or(default_block),
        capacity: config.quant_capacity,
    };
    pipeline::encode(&dataset.values_f64(), dims3, &params, |v| v)
}

fn max_error(a: &Dataset, b: &Dataset) -> f64 {
    a.values_f64()
        .iter()
        .zip(b.values_f64().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------------
// The compatibility assertions.

#[test]
fn current_encoder_reproduces_fixtures_byte_for_byte() {
    for (name, dataset, config) in fixtures() {
        let encoded = compress(&dataset, &config).unwrap();
        let committed = read_fixture(name);
        assert_eq!(
            encoded, committed,
            "fixture {name}: the encoder's output bytes changed — this is a \
             wire-format break and needs a version bump plus regeneration"
        );
    }
}

#[test]
fn prepared_field_reproduces_fixtures_byte_for_byte() {
    for (name, dataset, config) in fixtures() {
        let field = prepare(&dataset, config.block_size).unwrap();
        // Compress at a different bound first: a prepared field must not
        // carry anything from one bound over to the next.
        let other = SzConfig {
            error_bound: config.error_bound * 7.0,
            ..config.clone()
        };
        field.compress(&other).unwrap();
        assert_eq!(
            field.compress(&config).unwrap(),
            read_fixture(name),
            "fixture {name}: the prepared path's bytes differ from the format"
        );
    }
}

#[test]
fn fixtures_decode_within_their_bound_with_metadata() {
    for (name, dataset, config) in fixtures() {
        let restored = decompress(&read_fixture(name))
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored.dims, dataset.dims, "{name}");
        assert_eq!(restored.dtype(), dataset.dtype(), "{name}");
        assert_eq!(restored.application, dataset.application, "{name}");
        assert_eq!(restored.field, dataset.field, "{name}");
        assert_eq!(restored.timestep, dataset.timestep, "{name}");
        let worst = max_error(&dataset, &restored);
        assert!(
            worst <= config.error_bound,
            "{name}: max error {worst:e} > bound {:e}",
            config.error_bound
        );
    }
}

#[test]
fn planar_fixture_input_uses_regression_blocks() {
    let dataset = planar_f64_3d();
    let enc = encoded(&dataset, &config(1e-3, None, 65536), 6);
    let regression = enc.regression_flags.iter().filter(|&&f| f).count();
    assert!(regression > 0, "no block picked regression");
    assert!(
        regression < enc.regression_flags.len(),
        "no block picked Lorenzo"
    );
    assert_eq!(enc.reg_coeffs.len(), regression);
}

#[test]
fn noisy_fixture_input_has_unpredictable_points() {
    let dataset = noisy_f32_1d();
    let enc = encoded(&dataset, &config(1e-3, Some(64), 256), 256);
    assert!(
        enc.unpredictable.len() > dataset.len() / 2,
        "only {} of {} points are unpredictable",
        enc.unpredictable.len(),
        dataset.len()
    );
}

// ---------------------------------------------------------------------------
// Regeneration (run explicitly; see module docs).

#[test]
#[ignore = "writes fixtures; run only for an intentional format change"]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, dataset, config) in fixtures() {
        std::fs::write(dir.join(name), compress(&dataset, &config).unwrap()).unwrap();
    }
}
