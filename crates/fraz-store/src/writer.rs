//! Writing arrays: per-chunk tuned compression on the shared pool.
//!
//! [`write_array`] splits a dataset over a [`ChunkGrid`], compresses every
//! chunk independently as a task on [`fraz_pool`], and assembles the
//! container described in [`crate::format`].  Each chunk gets its **own**
//! error bound: a [`ChunkTarget::Ratio`] target runs a full
//! [`FixedRatioSearch`] per chunk, a [`ChunkTarget::MinPsnr`] target runs a
//! [`FixedQualitySearch`], and [`ChunkTarget::FixedBound`] skips the search
//! (useful for deterministic fixtures and raw-throughput benchmarks).
//!
//! Chunk searches are seeded through `fraz-core`'s
//! [`SearchHint`](fraz_core::SearchHint) layer.  Ratio chunks warm-start
//! from the most recently converged bound of the same write (a shared
//! [`LastConverged`] slot): time-adjacent and space-adjacent chunks of a
//! physical field usually want similar bounds, so the hint probe frequently
//! replaces the whole bracketing race with a single evaluation.  An
//! external [`BoundPredictor`] — typically the `fraz-tune` persistent cache
//! via [`write_array_seeded`] — is consulted *before* the warm-start slot
//! (its per-chunk fingerprints are more specific) and observes every
//! converged chunk bound, for both ratio and quality targets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fraz_core::{
    BoundPredictor, FixedQualitySearch, FixedRatioSearch, HintSource, LastConverged,
    PredictorChain, QualityMetric, QualitySearchConfig, SearchConfig,
};
use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{registry, Compressor, Options};

use crate::format::{self, ArrayMeta};
use crate::grid::ChunkGrid;
use crate::region;
use crate::store::Store;
use crate::StoreError;

/// What each chunk's compression is tuned for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkTarget {
    /// Compress every chunk at this absolute error-bound setting — no
    /// search.  Deterministic, so this is what the wire-format fixtures use.
    FixedBound(f64),
    /// Run a per-chunk [`FixedRatioSearch`] for this compression ratio.
    Ratio {
        /// Target compression ratio `ρt`.
        target_ratio: f64,
        /// Acceptable relative deviation `ε`.
        tolerance: f64,
    },
    /// Run a per-chunk [`FixedQualitySearch`] for `PSNR >= target` dB.
    ///
    /// PSNR is measured against each chunk's own value range, so this target
    /// adapts to non-stationary fields: quiet chunks get proportionally
    /// tighter absolute bounds than loud ones.
    MinPsnr(f64),
}

/// Configuration for [`write_array`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreWriteConfig {
    /// Chunk shape (same rank as the dataset; clamped per axis).
    pub chunk_shape: Vec<usize>,
    /// Registry name of the codec.
    pub codec: String,
    /// Codec options (validated by the registry at build time).
    pub options: Options,
    /// Per-chunk tuning target.
    pub target: ChunkTarget,
    /// Search regions per chunk (ratio targets only).  Chunks already run in
    /// parallel, so fewer regions than the paper's field-level default keeps
    /// the total task count proportionate.
    pub regions: usize,
    /// Maximum search evaluations per region (or per quality search).
    pub max_iterations: usize,
    /// Hard ceiling `U` on any chunk's error bound.
    pub max_error_bound: Option<f64>,
    /// Warm-start each chunk's ratio search from the most recently converged
    /// bound of this write (on by default).
    pub warm_start: bool,
}

impl StoreWriteConfig {
    /// A config with the given chunk shape, codec and target, and default
    /// search knobs (6 regions, 16 iterations, warm start on).
    pub fn new(chunk_shape: Vec<usize>, codec: impl Into<String>, target: ChunkTarget) -> Self {
        Self {
            chunk_shape,
            codec: codec.into(),
            options: Options::new(),
            target,
            regions: 6,
            max_iterations: 16,
            max_error_bound: None,
            warm_start: true,
        }
    }

    /// Builder-style setter for the codec options.
    pub fn with_options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Builder-style setter for the per-chunk region count.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Builder-style setter for the per-region iteration budget.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Builder-style setter for the error-bound ceiling `U`.
    pub fn with_max_error_bound(mut self, bound: f64) -> Self {
        self.max_error_bound = Some(bound);
        self
    }

    /// Builder-style setter for warm-starting.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }
}

/// Telemetry for one written chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReport {
    /// Linear chunk index.
    pub index: usize,
    /// Element origin of the chunk.
    pub origin: Vec<usize>,
    /// Actual (edge-clamped) chunk shape.
    pub shape: Vec<usize>,
    /// The tuned error bound the chunk was compressed with.
    pub error_bound: f64,
    /// Compressed payload size.
    pub compressed_bytes: u64,
    /// Search evaluations spent on this chunk (0 for fixed bounds).
    pub evaluations: usize,
    /// False when the search could not satisfy its target on this chunk.
    pub feasible: bool,
}

/// Telemetry for a whole [`write_array`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteReport {
    /// The key the container was stored under.
    pub key: String,
    /// Codec used.
    pub codec: String,
    /// Per-chunk telemetry, in chunk order.
    pub chunks: Vec<ChunkReport>,
    /// Uncompressed size of the array.
    pub uncompressed_bytes: u64,
    /// Sum of the compressed chunk payloads.
    pub payload_bytes: u64,
    /// Total container size (header + payloads).
    pub object_bytes: u64,
    /// `uncompressed_bytes / object_bytes` — the honest, header-inclusive
    /// ratio.
    pub compression_ratio: f64,
    /// Total search evaluations across all chunks.
    pub evaluations: usize,
    /// Whether warm-starting was enabled.
    pub warm_start: bool,
    /// Wall-clock time of the write.
    pub elapsed: Duration,
}

impl WriteReport {
    /// Smallest and largest tuned bound across the chunks.
    pub fn bound_range(&self) -> (f64, f64) {
        self.chunks
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                (lo.min(c.error_bound), hi.max(c.error_bound))
            })
    }
}

struct ChunkOut {
    payload: Vec<u8>,
    bound: f64,
    evaluations: usize,
    feasible: bool,
}

/// The seeding state one write shares across its chunk tasks.
struct ChunkSeeds {
    /// For ratio chunks: external predictor (if any) chained in front of
    /// the per-write warm-start slot.
    ratio: PredictorChain,
    /// For quality chunks: the external predictor alone (quality searches
    /// already seed themselves analytically; the warm-start slot's ratio
    /// bounds would be meaningless for a PSNR target).
    external: Option<Arc<dyn BoundPredictor>>,
}

impl ChunkSeeds {
    fn new(config: &StoreWriteConfig, external: Option<Arc<dyn BoundPredictor>>) -> Self {
        let mut predictors: Vec<Arc<dyn BoundPredictor>> = Vec::new();
        if let Some(external) = &external {
            predictors.push(Arc::clone(external));
        }
        if config.warm_start {
            predictors.push(Arc::new(LastConverged::new(HintSource::WarmStart)));
        }
        Self {
            ratio: PredictorChain::new(predictors),
            external,
        }
    }
}

fn chunk_dataset(dataset: &Dataset, grid: &ChunkGrid, idx: usize) -> Dataset {
    let origin = grid.chunk_origin(idx);
    let shape = grid.chunk_shape_at(idx);
    Dataset {
        application: dataset.application.clone(),
        field: dataset.field.clone(),
        timestep: dataset.timestep,
        dims: fraz_data::Dims::new(&shape),
        buffer: region::extract_buffer(&dataset.buffer, dataset.dims.as_slice(), &origin, &shape),
    }
}

fn compress_chunk(
    codec: &Arc<dyn Compressor>,
    chunk: &Dataset,
    config: &StoreWriteConfig,
    pool: Option<&Arc<Pool>>,
    seeds: &ChunkSeeds,
) -> Result<ChunkOut, StoreError> {
    if !codec.supports_dims(&chunk.dims) {
        return Err(StoreError::Unsupported(format!(
            "codec {} does not support chunk dims {:?}",
            config.codec,
            chunk.dims.as_slice()
        )));
    }
    // One preparation serves the search and the payload at its answer.
    let field = codec.prepare(chunk);
    let (bound, evaluations, feasible) = match config.target {
        ChunkTarget::FixedBound(bound) => {
            // Clamp into this chunk's valid range: a near-constant chunk can
            // have a much smaller upper bound than the whole field, and a
            // bound the codec would reject must not fail the write.
            let (lo, hi) = codec.bound_range(chunk);
            (bound.clamp(lo, hi), 0, true)
        }
        ChunkTarget::Ratio {
            target_ratio,
            tolerance,
        } => {
            let mut search_config =
                SearchConfig::new(target_ratio, tolerance).with_regions(config.regions);
            search_config.max_iterations = config.max_iterations;
            search_config.max_error_bound = config.max_error_bound;
            search_config.measure_final_quality = false;
            let mut search = FixedRatioSearch::new(codec.clone(), search_config)
                .with_codec_config(config.options.signature());
            if let Some(pool) = pool {
                search = search.with_pool(pool.clone());
            }
            let predictor =
                (!seeds.ratio.is_empty()).then_some(&seeds.ratio as &dyn BoundPredictor);
            let outcome = search.run_prepared(&*field, predictor);
            (outcome.error_bound, outcome.evaluations, outcome.feasible)
        }
        ChunkTarget::MinPsnr(psnr) => {
            let mut search_config = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr));
            search_config.max_iterations = config.max_iterations;
            search_config.max_error_bound = config.max_error_bound;
            let mut search = FixedQualitySearch::new(codec.clone(), search_config)
                .with_codec_config(config.options.signature());
            if let Some(pool) = pool {
                search = search.with_pool(pool.clone());
            }
            let outcome = search.run_prepared(&*field, seeds.external.as_deref());
            (
                outcome.error_bound,
                outcome.evaluations,
                outcome.satisfiable,
            )
        }
    };
    let payload = field
        .compress(bound)
        .map_err(|e| StoreError::Codec(format!("chunk compress failed: {e}")))?;
    Ok(ChunkOut {
        payload,
        bound,
        evaluations,
        feasible,
    })
}

fn write_array_impl(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
    pool: Option<Arc<Pool>>,
    external: Option<Arc<dyn BoundPredictor>>,
) -> Result<WriteReport, StoreError> {
    let start = Instant::now();
    let grid = ChunkGrid::new(dataset.dims.as_slice(), &config.chunk_shape)?;
    let codec: Arc<dyn Compressor> = registry::build_arc(&config.codec, &config.options)
        .map_err(|e| StoreError::Codec(e.to_string()))?;
    if let ChunkTarget::FixedBound(bound) = config.target {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(StoreError::Codec(format!(
                "fixed bound must be finite and positive, got {bound}"
            )));
        }
    }

    let n_chunks = grid.n_chunks();
    let seeds = ChunkSeeds::new(config, external);
    let mut slots: Vec<Option<Result<ChunkOut, StoreError>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    {
        let grid = &grid;
        let codec = &codec;
        let seeds = &seeds;
        let search_pool = pool.as_ref();
        let scope_pool: &Pool = pool.as_deref().unwrap_or_else(|| fraz_pool::global());
        scope_pool.scope(|scope| {
            for (idx, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || {
                    let chunk = chunk_dataset(dataset, grid, idx);
                    *slot = Some(compress_chunk(codec, &chunk, config, search_pool, seeds));
                });
            }
        });
    }

    let mut payloads = Vec::with_capacity(n_chunks);
    let mut bounds = Vec::with_capacity(n_chunks);
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut evaluations = 0usize;
    for (idx, slot) in slots.into_iter().enumerate() {
        let out = slot.expect("every chunk task fills its slot")?;
        evaluations += out.evaluations;
        chunks.push(ChunkReport {
            index: idx,
            origin: grid.chunk_origin(idx),
            shape: grid.chunk_shape_at(idx),
            error_bound: out.bound,
            compressed_bytes: out.payload.len() as u64,
            evaluations: out.evaluations,
            feasible: out.feasible,
        });
        bounds.push(out.bound);
        payloads.push(out.payload);
    }

    let meta = ArrayMeta {
        dtype: dataset.buffer.dtype(),
        dims: dataset.dims.as_slice().to_vec(),
        chunk_shape: grid.chunk_shape().to_vec(),
        timestep: dataset.timestep as u64,
        application: dataset.application.clone(),
        field: dataset.field.clone(),
        codec: config.codec.clone(),
        options: config.options.clone(),
        index: Vec::new(),
    };
    let object = format::encode(&meta, &bounds, &payloads)?;
    let object_bytes = object.len() as u64;
    store.put(key, &object)?;

    let uncompressed_bytes = dataset.byte_size() as u64;
    let payload_bytes = payloads.iter().map(|p| p.len() as u64).sum();
    Ok(WriteReport {
        key: key.to_string(),
        codec: config.codec.clone(),
        chunks,
        uncompressed_bytes,
        payload_bytes,
        object_bytes,
        compression_ratio: uncompressed_bytes as f64 / object_bytes as f64,
        evaluations,
        warm_start: config.warm_start,
        elapsed: start.elapsed(),
    })
}

/// Chunk, tune, compress and store `dataset` under `key`, running the chunk
/// tasks (and their searches) on the process-wide [`fraz_pool::global`]
/// pool.
pub fn write_array(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
) -> Result<WriteReport, StoreError> {
    write_array_impl(store, key, dataset, config, None, None)
}

/// [`write_array`] on an explicit shared pool (the CLI passes its
/// worker-bounded pool here).
pub fn write_array_on(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
    pool: Arc<Pool>,
) -> Result<WriteReport, StoreError> {
    write_array_impl(store, key, dataset, config, Some(pool), None)
}

/// [`write_array`] seeded by an external [`BoundPredictor`] — typically the
/// `fraz-tune` persistent cache, so repeat writes of the same fields start
/// each chunk search at the previously converged bound.  The predictor is
/// consulted before the per-write warm-start slot and observes every
/// converged chunk bound.
pub fn write_array_seeded(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
    pool: Option<Arc<Pool>>,
    predictor: Option<Arc<dyn BoundPredictor>>,
) -> Result<WriteReport, StoreError> {
    write_array_impl(store, key, dataset, config, pool, predictor)
}
