//! Per-layer instrumentation from outside the program.
//!
//! Nothing here changes what the program does: [`TimedCodec`] and
//! [`TimedStore`] are decorators that delegate every call to the wrapped
//! codec or store and only add up how many calls were made, how long they
//! took and how many bytes they moved.  The traced run swaps them in; the
//! untraced run uses the plain objects.  `selftest` checks that the swap
//! leaves blobs and evaluation counts bit-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use fraz_data::{Dataset, Dims};
use fraz_metrics::QualityReport;
use fraz_pressio::registry;
use fraz_pressio::{BoundKind, CompressionOutcome, Compressor, Options, PressioError};
use fraz_store::{Store, StoreError};

use crate::report::{Better, Metric};

/// Calls, busy nanoseconds and bytes at one layer boundary.  The values
/// are statistics that publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn record(&self, elapsed: Duration, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

/// Compress and decompress counters of one codec.
#[derive(Debug)]
pub struct CodecCounters {
    pub compress: Counter,
    pub decompress: Counter,
}

impl CodecCounters {
    const fn new() -> Self {
        Self {
            compress: Counter::new(),
            decompress: Counter::new(),
        }
    }
}

/// The codecs the workloads run, in report order.
pub const CODECS: [&str; 3] = ["sz", "szx", "zfp"];

pub static CODEC_COUNTERS: [CodecCounters; 3] = [
    CodecCounters::new(),
    CodecCounters::new(),
    CodecCounters::new(),
];
/// `QualityReport::evaluate` calls made inside codec evaluations.
pub static QUALITY: Counter = Counter::new();
pub static STORE_PUT: Counter = Counter::new();
pub static STORE_GET: Counter = Counter::new();

pub fn codec_counters(codec: &str) -> &'static CodecCounters {
    let i = CODECS
        .iter()
        .position(|c| *c == codec)
        .expect("only the benchmark's codecs are timed");
    &CODEC_COUNTERS[i]
}

/// Zero every counter; called when a traced phase starts.
pub fn reset_counters() {
    for c in &CODEC_COUNTERS {
        c.compress.reset();
        c.decompress.reset();
    }
    QUALITY.reset();
    STORE_PUT.reset();
    STORE_GET.reset();
}

/// Seconds spent inside codec and quality calls since the last reset:
/// the work a pool worker does that is not search bookkeeping.
pub fn busy_secs() -> f64 {
    CODEC_COUNTERS
        .iter()
        .map(|c| c.compress.secs() + c.decompress.secs())
        .sum::<f64>()
        + QUALITY.secs()
}

/// A timing decorator over a [`Compressor`].
///
/// `evaluate` is the trait's default body, re-stated so that the quality
/// pass can be timed on its own; no backend overrides `evaluate`, and the
/// self-test compares decorated and plain outcomes to catch one that does.
pub struct TimedCodec {
    inner: Arc<dyn Compressor>,
    counters: &'static CodecCounters,
}

impl TimedCodec {
    pub fn wrap(codec: &str) -> Result<Arc<dyn Compressor>, String> {
        let inner = registry::build_arc(codec, &Options::new()).map_err(|e| e.to_string())?;
        Ok(Arc::new(Self {
            inner,
            counters: codec_counters(codec),
        }))
    }
}

impl Compressor for TimedCodec {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bound_kind(&self) -> BoundKind {
        self.inner.bound_kind()
    }

    fn supports_dims(&self, dims: &Dims) -> bool {
        self.inner.supports_dims(dims)
    }

    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        self.inner.bound_range(dataset)
    }

    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        let start = Instant::now();
        let out = self.inner.compress(dataset, error_bound);
        self.counters
            .compress
            .record(start.elapsed(), dataset.byte_size());
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        let start = Instant::now();
        let out = self.inner.decompress(data);
        let bytes = out.as_ref().map(|d| d.byte_size()).unwrap_or(0);
        self.counters.decompress.record(start.elapsed(), bytes);
        out
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        let compressed = self.compress(dataset, error_bound)?;
        let original_bytes = dataset.byte_size();
        let compressed_bytes = compressed.len();
        let quality = if measure_quality {
            let restored = self.decompress(&compressed)?;
            let start = Instant::now();
            let report = QualityReport::evaluate(dataset, &restored, compressed_bytes);
            QUALITY.record(start.elapsed(), original_bytes);
            Some(report)
        } else {
            None
        };
        Ok(CompressionOutcome {
            compressor: self.name().to_string(),
            error_bound,
            compression_ratio: fraz_metrics::ratio::compression_ratio(
                original_bytes,
                compressed_bytes,
            ),
            bit_rate: fraz_metrics::ratio::bit_rate(compressed_bytes, dataset.len()),
            compressed_bytes,
            original_bytes,
            quality,
        })
    }
}

/// The registry name under which the timed form of `codec` is registered,
/// for the layers (store writer and reader, service) that build codecs by
/// name.
pub fn timed_name(codec: &str) -> String {
    format!("timed-{codec}")
}

/// Registers `timed-sz`, `timed-szx` and `timed-zfp` in the process-wide
/// registry (once).  Each is the plain codec's descriptor under a new name,
/// built by wrapping the plain codec in a [`TimedCodec`].
pub fn register_timed_codecs() -> Result<(), String> {
    static DONE: OnceLock<Result<(), String>> = OnceLock::new();
    DONE.get_or_init(|| {
        for codec in CODECS {
            let mut descriptor = registry::describe(codec)
                .ok_or_else(|| format!("codec {codec} is not built in"))?;
            descriptor.name = timed_name(codec);
            descriptor.aliases.clear();
            registry::register(descriptor, move |options| {
                let inner = registry::build_arc(codec, options)
                    .map_err(|e| PressioError::Codec(e.to_string()))?;
                Ok(Box::new(TimedCodec {
                    inner,
                    counters: codec_counters(codec),
                }) as Box<dyn Compressor>)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    })
    .clone()
}

/// A timing decorator over a [`Store`].
pub struct TimedStore<S: Store> {
    inner: S,
}

impl<S: Store> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let start = Instant::now();
        let out = self.inner.get(key);
        let bytes = out.as_ref().map(Vec::len).unwrap_or(0);
        STORE_GET.record(start.elapsed(), bytes);
        out
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let start = Instant::now();
        let out = self.inner.get_range(key, offset, len);
        let bytes = out.as_ref().map(Vec::len).unwrap_or(0);
        STORE_GET.record(start.elapsed(), bytes);
        out
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        let out = self.inner.put(key, value);
        STORE_PUT.record(start.elapsed(), value.len());
        out
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        self.inner.size(key)
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.  Each workload
/// reports all of them; a layer the workload does not run reads 0.
const PER_LAYER: &[(&str, &str, Better)] = &[
    ("codec.sz.compress_calls", "count", Better::Lower),
    ("codec.sz.compress_s", "s", Better::Lower),
    ("codec.sz.decompress_calls", "count", Better::Lower),
    ("codec.sz.decompress_s", "s", Better::Lower),
    ("codec.sz.compress_mib_per_s", "MiB/s", Better::Higher),
    ("codec.szx.compress_calls", "count", Better::Lower),
    ("codec.szx.compress_s", "s", Better::Lower),
    ("codec.szx.decompress_calls", "count", Better::Lower),
    ("codec.szx.decompress_s", "s", Better::Lower),
    ("codec.szx.compress_mib_per_s", "MiB/s", Better::Higher),
    ("codec.zfp.compress_calls", "count", Better::Lower),
    ("codec.zfp.compress_s", "s", Better::Lower),
    ("codec.zfp.decompress_calls", "count", Better::Lower),
    ("codec.zfp.decompress_s", "s", Better::Lower),
    ("codec.zfp.compress_mib_per_s", "MiB/s", Better::Higher),
    ("metrics.quality_calls", "count", Better::Lower),
    ("metrics.quality_s", "s", Better::Lower),
    ("search.count", "count", Better::Higher),
    ("search.evaluations", "count", Better::Lower),
    ("search.evals_per_search", "count", Better::Lower),
    ("search.retrain_frac", "frac", Better::Lower),
    ("search.hint_hit_frac", "frac", Better::Higher),
    ("search.feasible_per_eval", "frac", Better::Higher),
    ("search.regions_cancelled", "count", Better::Lower),
    ("orchestrator.longest_field_s", "s", Better::Lower),
    ("orchestrator.critical_path_frac", "frac", Better::Lower),
    ("pool.worker_busy_frac", "frac", Better::Higher),
    ("tune.single_eval_frac", "frac", Better::Higher),
    ("tune.cache_entries", "count", Better::Higher),
    ("store.put_calls", "count", Better::Lower),
    ("store.put_s", "s", Better::Lower),
    ("store.put_bytes", "B", Better::Lower),
    ("store.get_range_calls", "count", Better::Lower),
    ("store.get_range_s", "s", Better::Lower),
    ("store.get_bytes", "B", Better::Lower),
    ("store.chunks", "count", Better::Higher),
    ("store.evals_per_chunk", "count", Better::Lower),
    ("store.write_array_p50_s", "s", Better::Lower),
    ("store.read_region_p50_s", "s", Better::Lower),
    ("store.read_amplification", "ratio", Better::Lower),
    ("serve.compress.p50_ms", "ms", Better::Lower),
    ("serve.compress.p99_ms", "ms", Better::Lower),
    ("serve.tune_psnr.p50_ms", "ms", Better::Lower),
    ("serve.tune_psnr.p99_ms", "ms", Better::Lower),
    ("serve.decompress.p50_ms", "ms", Better::Lower),
    ("serve.decompress.p99_ms", "ms", Better::Lower),
    ("serve.put.p50_ms", "ms", Better::Lower),
    ("serve.put.p99_ms", "ms", Better::Lower),
    ("serve.get.p50_ms", "ms", Better::Lower),
    ("serve.get.p99_ms", "ms", Better::Lower),
    ("serve.shed", "count", Better::Lower),
    ("serve.rejected", "count", Better::Lower),
    ("serve.failed", "count", Better::Lower),
    ("serve.inflight_peak", "count", Better::Lower),
    ("serve.sender_lag_p99_ms", "ms", Better::Lower),
    ("proto.encode_s", "s", Better::Lower),
    ("proto.decode_s", "s", Better::Lower),
    ("latency.p99_ms", "ms", Better::Lower),
    ("trace.overhead_frac", "frac", Better::Lower),
];

/// The per-layer metric list of one traced run, all zero until set.
pub struct LayerSheet {
    metrics: Vec<Metric>,
}

impl Default for LayerSheet {
    fn default() -> Self {
        Self {
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit, better)| Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    better,
                    samples: 0,
                })
                .collect(),
        }
    }
}

impl LayerSheet {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let metric = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        metric.value = value;
        metric.samples = samples;
    }

    /// Codec, quality and store counters accumulated since the last reset.
    pub fn set_counters(&mut self) {
        for (codec, c) in CODECS.iter().zip(&CODEC_COUNTERS) {
            let calls = c.compress.calls() as usize;
            self.set(&format!("codec.{codec}.compress_calls"), calls as f64, 1);
            self.set(
                &format!("codec.{codec}.compress_s"),
                c.compress.secs(),
                calls,
            );
            let dcalls = c.decompress.calls() as usize;
            self.set(&format!("codec.{codec}.decompress_calls"), dcalls as f64, 1);
            self.set(
                &format!("codec.{codec}.decompress_s"),
                c.decompress.secs(),
                dcalls,
            );
            self.set(
                &format!("codec.{codec}.compress_mib_per_s"),
                crate::report::ratio(crate::report::mib(c.compress.bytes()), c.compress.secs()),
                calls,
            );
        }
        let q = QUALITY.calls() as usize;
        self.set("metrics.quality_calls", q as f64, 1);
        self.set("metrics.quality_s", QUALITY.secs(), q);
        let p = STORE_PUT.calls() as usize;
        self.set("store.put_calls", p as f64, 1);
        self.set("store.put_s", STORE_PUT.secs(), p);
        self.set("store.put_bytes", STORE_PUT.bytes() as f64, p);
        let g = STORE_GET.calls() as usize;
        self.set("store.get_range_calls", g as f64, 1);
        self.set("store.get_range_s", STORE_GET.secs(), g);
        self.set("store.get_bytes", STORE_GET.bytes() as f64, g);
    }

    /// The workload's p99 latency, as `p50_ms` is taken; see `README.md`
    /// for why it is not an end-to-end metric.
    pub fn set_p99(&mut self, e2e: &crate::report::EndToEnd) {
        let samples = e2e.latency_ms.iter().map(Vec::len).sum();
        self.set("latency.p99_ms", e2e.windowed_latency(0.99), samples);
    }

    pub fn into_vec(self) -> Vec<Metric> {
        self.metrics
    }
}
