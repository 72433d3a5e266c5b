//! `archive_psnr_szx`: a chunked PSNR-floor archive on the file store.
//!
//! Several seeded 32×96×96 f32 Hurricane fields are written with
//! `fraz_store::write_array_on` into an `FsStore` under the work directory,
//! in small chunks each tuned by a szx fixed-PSNR search.  After each
//! write the container is read back whole (`ArrayReader::read_all`) and in
//! seeded slabs (`read_region_on`).  One repetition writes and reads every
//! field; the run repeats until its budget is spent.  A traced run
//! alternates repetitions on the plain store and codec with repetitions on
//! the timed ones, so that both see the same machine conditions.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fraz_data::{synthetic, Dataset};
use fraz_pool::Pool;
use fraz_store::region::extract_buffer;
use fraz_store::{
    write_array_on, ArrayReader, ChunkTarget, FsStore, Store, StoreWriteConfig, WriteReport,
};

use crate::layers::{self, LayerSheet, TimedStore};
use crate::report::{latency_windows, median, mib, ms, ratio, EndToEnd, RunResult};
use crate::{compare, selftest, Ctx};

const CODEC: &str = "szx";
const FIELDS: [&str; 6] = ["TCf", "Pf", "Uf", "Vf", "Wf", "QVAPORf"];
const DIMS: [usize; 3] = [32, 96, 96];
const CHUNK: [usize; 3] = [8, 24, 24];
const MIN_PSNR: f64 = 40.0;
/// Shape of a slab read; it spans 2–3 × 2–3 × 2–3 chunks.
const SLAB: [usize; 3] = [16, 48, 48];
const SLABS_PER_READ: usize = 16;
const SETUPS: usize = 3;

struct Setup {
    fields: Vec<Dataset>,
    pool: Arc<Pool>,
}

impl Setup {
    fn new(seed: u64, workers: usize, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let app = synthetic::hurricane(DIMS[0], DIMS[1], DIMS[2], 1, seed);
        Ok(Self {
            fields: FIELDS.iter().map(|f| app.field(f, 0)).collect(),
            pool: Arc::new(Pool::new(workers)),
        })
    }
}

/// Timings and reports of one phase.
#[derive(Default)]
struct Phase {
    writes: Vec<(Duration, WriteReport)>,
    read_alls: Vec<(Duration, u64)>,
    /// (start since the phase began, latency, bytes returned).
    slabs: Vec<(Duration, Duration, u64)>,
}

/// A seeded slab of the field: a [`SLAB`]-shaped box at a random origin.
fn slab(rng: &mut ChaCha8Rng) -> Vec<Range<u64>> {
    DIMS.iter()
        .zip(SLAB)
        .map(|(&n, len)| {
            let start = rng.gen_range(0..=n - len);
            start as u64..(start + len) as u64
        })
        .collect()
}

fn extract(dataset: &Dataset, origin: &[usize], shape: &[usize]) -> Dataset {
    Dataset {
        application: dataset.application.clone(),
        field: dataset.field.clone(),
        timestep: dataset.timestep,
        dims: fraz_data::Dims::new(shape),
        buffer: extract_buffer(&dataset.buffer, dataset.dims.as_slice(), origin, shape),
    }
}

/// Writes and reads every field until `budget` is spent, checking each
/// output outside its timed call.  Repetition `i` runs on
/// `variants[i % variants.len()]`, a (store, codec name) pair, and feeds
/// the phase and `e2e` of that index.
fn run_phase(
    setup: &Setup,
    variants: &[(&dyn Store, String)],
    seed: u64,
    budget: Duration,
    e2e: &mut [EndToEnd],
) -> Vec<Phase> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51ab);
    let mut phases: Vec<Phase> = variants.iter().map(|_| Phase::default()).collect();
    let start = Instant::now();
    let mut reps = 0;
    while reps < variants.len() || start.elapsed() < budget {
        let v = reps % variants.len();
        reps += 1;
        let (store, codec) = (variants[v].0, variants[v].1.as_str());
        let config = StoreWriteConfig::new(CHUNK.to_vec(), codec, ChunkTarget::MinPsnr(MIN_PSNR));
        let (phase, e2e) = (&mut phases[v], &mut e2e[v]);
        e2e.psnr_db.clear();
        e2e.container = (0, 0);
        for (i, field) in setup.fields.iter().enumerate() {
            let key = format!("{}/t0", FIELDS[i]);
            e2e.attempted += 1;
            let t = Instant::now();
            let written = write_array_on(store, &key, field, &config, Arc::clone(&setup.pool));
            let wall = t.elapsed();
            let report = match written {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("perfbench: write {key} failed: {e}");
                    e2e.failed += 1;
                    continue;
                }
            };

            e2e.attempted += 1;
            let reader = ArrayReader::open(store, &key);
            let t = Instant::now();
            let full = reader.as_ref().ok().and_then(|r| r.read_all().ok());
            let read_wall = t.elapsed();
            let (Ok(reader), Some(full)) = (reader, full) else {
                eprintln!("perfbench: read_all {key} failed");
                e2e.failed += 2;
                continue;
            };
            phase.read_alls.push((read_wall, full.byte_size() as u64));

            // A chunk is reported feasible exactly when it meets its floor
            // in the stored container.
            let mut write_ok = full.dims == field.dims;
            for chunk in &report.chunks {
                let original = extract(field, &chunk.origin, &chunk.shape);
                let restored = extract(&full, &chunk.origin, &chunk.shape);
                let psnr = compare(&original, &restored).map_or(f64::NAN, |(_, p)| p);
                e2e.feasible.1 += 1;
                e2e.feasible.0 += u64::from(chunk.feasible);
                write_ok &= chunk.feasible == (psnr >= MIN_PSNR);
                e2e.psnr_db.push(psnr);
            }
            e2e.failed += u64::from(!write_ok);
            e2e.container.0 += report.uncompressed_bytes;
            e2e.container.1 += report.object_bytes;
            phase.writes.push((wall, report));

            for _ in 0..SLABS_PER_READ {
                let region = slab(&mut rng);
                e2e.attempted += 1;
                let started = start.elapsed();
                let t = Instant::now();
                let got = reader.read_region_on(&region, &setup.pool);
                let slab_wall = t.elapsed();
                let origin: Vec<usize> = region.iter().map(|r| r.start as usize).collect();
                let shape: Vec<usize> = region.iter().map(|r| (r.end - r.start) as usize).collect();
                let expected = extract(&full, &origin, &shape);
                match got {
                    Ok(got)
                        if got.dims == expected.dims
                            && got.buffer.to_le_bytes() == expected.buffer.to_le_bytes() =>
                    {
                        phase
                            .slabs
                            .push((started, slab_wall, got.byte_size() as u64));
                    }
                    _ => {
                        eprintln!("perfbench: slab {region:?} of {key} differs from the full read");
                        e2e.failed += 1;
                    }
                }
            }
        }
    }
    phases
}

fn write_rates(phase: &Phase) -> (Vec<f64>, Vec<f64>) {
    phase
        .writes
        .iter()
        .map(|(wall, report)| {
            let secs = wall.as_secs_f64();
            (
                mib(report.uncompressed_bytes) / secs,
                report.chunks.len() as f64 / secs,
            )
        })
        .unzip()
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let dir = ctx.workdir.join(format!("archive-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        setup = Some(Setup::new(ctx.seed, ctx.workers, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let result = measure(ctx, &setup, &dir, setup_s);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(ctx: &Ctx, setup: &Setup, dir: &Path, setup_s: Vec<f64>) -> Result<RunResult, String> {
    let store = FsStore::open(dir.join("plain")).map_err(|e| e.to_string())?;
    let untraced = (&store as &dyn Store, CODEC.to_string());
    if !ctx.trace {
        let mut e2e = [EndToEnd {
            setup_s,
            ..EndToEnd::default()
        }];
        let phase = run_phase(setup, &[untraced], ctx.seed, ctx.budget, &mut e2e)
            .pop()
            .expect("one variant gives one phase");
        let [mut e2e] = e2e;
        let (mib_per_s, jobs_per_s) = write_rates(&phase);
        e2e.mib_per_s = mib_per_s;
        e2e.jobs_per_s = jobs_per_s;
        e2e.read_mib_per_s = phase
            .read_alls
            .iter()
            .map(|(wall, bytes)| mib(*bytes) / wall.as_secs_f64())
            .collect();
        e2e.latency_ms = latency_windows(
            phase
                .slabs
                .iter()
                .map(|&(start, wall, _)| (start, ms(wall))),
            ctx.budget,
        );
        e2e.slo = (e2e.attempted - e2e.failed, e2e.attempted);
        let (attempted, failed) = (e2e.attempted, e2e.failed);
        return Ok(RunResult {
            attempted,
            failed,
            end_to_end: e2e.into_metrics(),
            per_layer: Vec::new(),
        });
    }

    let selftest = selftest::run(ctx.seed);
    let timed_store = TimedStore::new(FsStore::open(dir.join("timed")).map_err(|e| e.to_string())?);
    let mut e2e = [EndToEnd::default(), EndToEnd::default()];
    layers::reset_counters();
    let phases = run_phase(
        setup,
        &[untraced, (&timed_store, layers::timed_name(CODEC))],
        ctx.seed,
        ctx.budget,
        &mut e2e,
    );
    let traced = &phases[1];
    let busy = layers::busy_secs();
    let mut sheet = LayerSheet::default();
    sheet.set_counters();

    let chunks: Vec<_> = traced.writes.iter().flat_map(|(_, r)| &r.chunks).collect();
    let count = chunks.len();
    let evaluations: usize = chunks.iter().map(|c| c.evaluations).sum();
    let feasible = chunks.iter().filter(|c| c.feasible).count();
    sheet.set("search.count", count as f64, 1);
    sheet.set("search.evaluations", evaluations as f64, count);
    sheet.set(
        "search.evals_per_search",
        ratio(evaluations as f64, count as f64),
        count,
    );
    sheet.set(
        "search.feasible_per_eval",
        ratio(feasible as f64, evaluations as f64),
        evaluations,
    );
    sheet.set("store.chunks", count as f64, 1);
    sheet.set(
        "store.evals_per_chunk",
        ratio(evaluations as f64, count as f64),
        count,
    );
    let write_s: Vec<f64> = traced.writes.iter().map(|(w, _)| w.as_secs_f64()).collect();
    sheet.set("store.write_array_p50_s", median(&write_s), write_s.len());
    let slab_s: Vec<f64> = traced
        .slabs
        .iter()
        .map(|(_, w, _)| w.as_secs_f64())
        .collect();
    sheet.set("store.read_region_p50_s", median(&slab_s), slab_s.len());
    let returned: u64 = traced.read_alls.iter().map(|(_, bytes)| bytes).sum::<u64>()
        + traced.slabs.iter().map(|(_, _, bytes)| bytes).sum::<u64>();
    sheet.set(
        "store.read_amplification",
        ratio(layers::STORE_GET.bytes() as f64, returned as f64),
        traced.read_alls.len() + traced.slabs.len(),
    );
    let timed_calls: f64 = traced
        .writes
        .iter()
        .map(|(w, _)| w)
        .chain(traced.read_alls.iter().map(|(w, _)| w))
        .chain(traced.slabs.iter().map(|(_, w, _)| w))
        .map(Duration::as_secs_f64)
        .sum();
    sheet.set(
        "pool.worker_busy_frac",
        ratio(busy, ctx.workers as f64 * timed_calls),
        1,
    );
    let untraced_rate = median(&write_rates(&phases[0]).0);
    let traced_rate = median(&write_rates(traced).0);
    sheet.set(
        "trace.overhead_frac",
        ratio(untraced_rate, traced_rate) - 1.0,
        traced.writes.len(),
    );
    e2e[1].latency_ms = latency_windows(
        traced
            .slabs
            .iter()
            .map(|&(start, wall, _)| (start, ms(wall))),
        ctx.budget,
    );
    sheet.set_p99(&e2e[1]);
    Ok(RunResult {
        attempted: e2e.iter().map(|e| e.attempted).sum::<u64>() + 1,
        failed: e2e.iter().map(|e| e.failed).sum::<u64>() + u64::from(!selftest),
        end_to_end: Vec::new(),
        per_layer: sheet.into_vec(),
    })
}
