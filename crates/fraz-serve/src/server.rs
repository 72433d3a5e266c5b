//! The service: blocking TCP accept loop, per-connection reader threads,
//! and the robustness envelope around every job.
//!
//! A job's lifecycle is **admit → queue → search → reply** (see
//! ARCHITECTURE.md for the full map):
//!
//! 1. **admit** — the decoded request passes [`Admission`]: a global
//!    in-flight job/byte budget plus a per-client quota.  Over budget,
//!    the job is shed with a typed `Overloaded{retry_after}` before its
//!    payload touches any subsystem.  During drain, new work gets a typed
//!    `Draining` instead.
//! 2. **queue** — admitted search work runs on the shared
//!    [`fraz_pool::Pool`]; connection threads provide request
//!    concurrency, the pool provides compute parallelism.
//! 3. **search** — every search job carries a [`CancelToken`] armed with
//!    its deadline, checked cooperatively between compressor
//!    evaluations; a fired deadline returns `DeadlineExceeded` with the
//!    best-so-far bound.  Job panics are caught and answered with a
//!    typed `Internal` reply — the server outlives its jobs.
//! 4. **reply** — exactly one typed response per request frame, success
//!    or failure.
//!
//! Dependencies degrade instead of failing: the durable store sits under
//! a [`RetryStore`] (jittered backoff on transient errors) with an
//! in-memory fallback once the backend permanently fails, and a broken
//! tune cache means cold searches, not errors.  Shutdown is a *drain*:
//! stop admitting, let in-flight jobs finish under the drain deadline,
//! cancel stragglers at the deadline, flush the tune cache, and report
//! what happened.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fraz_core::{
    BoundPredictor, CancelToken, FixedQualitySearch, FixedRatioSearch, QualityMetric,
    QualitySearchConfig, SearchConfig,
};
use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{registry, Compressor};
use fraz_store::{FaultConfig, FaultyStore, FsStore, MemoryStore, RetryPolicy, RetryStore, Store};
use fraz_tune::{CachePredictor, TuneCache};

use crate::admission::{Admission, AdmissionConfig};
use crate::proto::{read_frame, write_frame, ProtoError, Request, Response, StatusBody};

/// Everything the server needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Search pool threads (`0` = available parallelism, capped at 8).
    pub workers: usize,
    /// Ceiling on one frame's payload bytes.
    pub max_frame_len: usize,
    /// Admission budgets.
    pub admission: AdmissionConfig,
    /// Deadline applied to search jobs that carry none (`0` = unlimited).
    pub default_deadline_ms: u32,
    /// How long a drain may wait for in-flight jobs before cancelling
    /// them.
    pub drain_deadline: Duration,
    /// Durable store root (`None` = in-memory only).
    pub store_dir: Option<PathBuf>,
    /// Tune-cache directory (`None` = cold searches).
    pub tune_cache_dir: Option<PathBuf>,
    /// Retry policy over the durable store.
    pub retry: RetryPolicy,
    /// Optional chaos schedule injected under the retry layer (the
    /// `--chaos` flag and the chaos suites).
    pub store_faults: Option<FaultConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_frame_len: crate::proto::MAX_FRAME_LEN,
            admission: AdmissionConfig::default(),
            default_deadline_ms: 0,
            drain_deadline: Duration::from_secs(5),
            store_dir: None,
            tune_cache_dir: None,
            retry: RetryPolicy::default(),
            store_faults: None,
        }
    }
}

/// What the drain accomplished; returned by [`ServerHandle::join`].
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// All in-flight jobs finished before the drain deadline.
    pub drained_within_deadline: bool,
    /// Jobs cancelled at the drain deadline (they answered
    /// `DeadlineExceeded` with best-so-far results).
    pub cancelled_jobs: usize,
    /// How long the drain took.
    pub drain_elapsed: Duration,
    /// The tune cache flushed cleanly (vacuously true without a cache).
    pub tune_cache_flushed: bool,
    /// Final counters.
    pub status: StatusBody,
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    deadline: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    drained_replies: AtomicU64,
}

/// The store stack: retry over the (possibly chaos-wrapped) durable
/// backend, with an in-memory fallback the server degrades to when the
/// backend fails permanently.
struct StoreStack {
    primary: RetryStore<Box<dyn Store>>,
    fallback: MemoryStore,
    degraded: AtomicBool,
    /// Keys whose latest successful write lives in the fallback.  The
    /// primary may hold a stale or *torn* copy of these (a failed durable
    /// put can leave a prefix behind), so reads must prefer the fallback
    /// until a durable put succeeds again.
    fallback_keys: Mutex<std::collections::HashSet<String>>,
}

impl StoreStack {
    fn put(&self, key: &str, value: &[u8]) -> Response {
        match self.primary.put(key, value) {
            Ok(()) => {
                self.fallback_keys
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .remove(key);
                Response::Stored { degraded: false }
            }
            Err(primary_err) => match self.fallback.put(key, value) {
                Ok(()) => {
                    self.degraded.store(true, Ordering::Relaxed);
                    self.fallback_keys
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .insert(key.to_string());
                    Response::Stored { degraded: true }
                }
                Err(_) => Response::IoFailed {
                    transient: primary_err.is_transient(),
                    message: primary_err.to_string(),
                },
            },
        }
    }

    fn get(&self, key: &str) -> Response {
        let prefer_fallback = self
            .fallback_keys
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .contains(key);
        if prefer_fallback {
            if let Ok(blob) = self.fallback.get(key) {
                return Response::Blob(blob);
            }
        }
        match self.primary.get(key) {
            Ok(blob) => Response::Blob(blob),
            Err(primary_err) => match self.fallback.get(key) {
                Ok(blob) => Response::Blob(blob),
                Err(_) => match primary_err {
                    fraz_store::StoreError::NotFound(_) => Response::BadRequest {
                        message: format!("no object stored under `{key}`"),
                    },
                    other => Response::IoFailed {
                        transient: other.is_transient(),
                        message: other.to_string(),
                    },
                },
            },
        }
    }
}

struct Inner {
    config: ServeConfig,
    pool: Arc<Pool>,
    admission: Arc<Admission>,
    store: StoreStack,
    tune: Option<Arc<TuneCache>>,
    tune_degraded: AtomicBool,
    compressors: Mutex<HashMap<String, Arc<dyn Compressor>>>,
    counters: Counters,
    draining: AtomicBool,
    next_job: AtomicU64,
    active_tokens: Mutex<HashMap<u64, CancelToken>>,
}

impl Inner {
    fn stopping(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn status_body(&self) -> StatusBody {
        StatusBody {
            draining: self.stopping(),
            degraded: self.store.degraded.load(Ordering::Relaxed)
                || self.tune_degraded.load(Ordering::Relaxed),
            inflight_jobs: self.admission.inflight_jobs() as u32,
            inflight_bytes: self.admission.inflight_bytes(),
            jobs_ok: self.counters.ok.load(Ordering::Relaxed),
            jobs_shed: self.admission.shed(),
            jobs_deadline: self.counters.deadline.load(Ordering::Relaxed),
            jobs_rejected: self.counters.rejected.load(Ordering::Relaxed),
            jobs_failed: self.counters.failed.load(Ordering::Relaxed),
        }
    }

    fn compressor(&self, codec: &str) -> Result<Arc<dyn Compressor>, Response> {
        let mut cache = self.compressors.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(found) = cache.get(codec) {
            return Ok(Arc::clone(found));
        }
        match registry::build_arc(codec, &fraz_pressio::Options::new()) {
            Ok(built) => {
                cache.insert(codec.to_string(), Arc::clone(&built));
                Ok(built)
            }
            Err(e) => Err(Response::BadRequest {
                message: e.to_string(),
            }),
        }
    }

    /// Arm a token for one search job: the request deadline, else the
    /// configured default, else un-expiring (but still drain-cancellable).
    fn job_token(&self, deadline_ms: u32) -> (u64, CancelToken) {
        let ms = if deadline_ms > 0 {
            deadline_ms
        } else {
            self.config.default_deadline_ms
        };
        let token = if ms > 0 {
            CancelToken::with_timeout(Duration::from_millis(ms as u64))
        } else {
            CancelToken::new()
        };
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.active_tokens
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, token.clone());
        (id, token)
    }

    fn finish_job(&self, id: u64) {
        self.active_tokens
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
    }

    /// One request frame in, exactly one typed response out.
    fn handle_payload(&self, payload: &[u8], client: u64) -> Response {
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Response::BadRequest {
                    message: e.to_string(),
                };
            }
        };
        if matches!(request, Request::Status) {
            return Response::Status(self.status_body());
        }
        if self.stopping() {
            self.counters
                .drained_replies
                .fetch_add(1, Ordering::Relaxed);
            return Response::Draining;
        }
        let permit = match self.admission.try_admit(client, payload.len() as u64) {
            Ok(permit) => permit,
            Err(overload) => {
                return Response::Overloaded {
                    retry_after_ms: overload.retry_after.as_millis() as u32,
                }
            }
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(request)));
        drop(permit);
        let response = match outcome {
            Ok(response) => response,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                Response::Internal { message }
            }
        };
        match &response {
            Response::Compressed { .. }
            | Response::Dataset(_)
            | Response::Tuned { .. }
            | Response::Stored { .. }
            | Response::Blob(_) => self.counters.ok.fetch_add(1, Ordering::Relaxed),
            Response::DeadlineExceeded { .. } => {
                self.counters.deadline.fetch_add(1, Ordering::Relaxed)
            }
            Response::BadRequest { .. } => self.counters.rejected.fetch_add(1, Ordering::Relaxed),
            Response::IoFailed { .. } | Response::Internal { .. } => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed)
            }
            _ => 0,
        };
        response
    }

    fn execute(&self, request: Request) -> Response {
        match request {
            Request::Status => Response::Status(self.status_body()),
            Request::Compress {
                deadline_ms,
                target_ratio,
                tolerance,
                codec,
                dataset,
            } => self.run_compress(deadline_ms, target_ratio, tolerance, &codec, &dataset),
            Request::TunePsnr {
                deadline_ms,
                target_psnr,
                codec,
                dataset,
            } => self.run_tune_psnr(deadline_ms, target_psnr, &codec, &dataset),
            Request::Decompress { codec, blob } => {
                let compressor = match self.compressor(&codec) {
                    Ok(compressor) => compressor,
                    Err(response) => return response,
                };
                match compressor.decompress(&blob) {
                    Ok(dataset) => Response::Dataset(dataset),
                    Err(e) => Response::BadRequest {
                        message: format!("blob does not decompress: {e}"),
                    },
                }
            }
            Request::PutStore { key, blob } => self.store.put(&key, &blob),
            Request::GetStore { key } => self.store.get(&key),
        }
    }

    fn check_search_params(params: &[(&str, f64)]) -> Option<Response> {
        for (name, value) in params {
            if !value.is_finite() || *value <= 0.0 {
                return Some(Response::BadRequest {
                    message: format!("{name} must be positive and finite, got {value}"),
                });
            }
        }
        None
    }

    fn check_dims(compressor: &dyn Compressor, dataset: &Dataset) -> Option<Response> {
        if compressor.supports_dims(&dataset.dims) {
            None
        } else {
            Some(Response::BadRequest {
                message: format!(
                    "codec `{}` does not support a rank-{} grid",
                    compressor.name(),
                    dataset.dims.ndims()
                ),
            })
        }
    }

    fn run_compress(
        &self,
        deadline_ms: u32,
        target_ratio: f64,
        tolerance: f64,
        codec: &str,
        dataset: &Dataset,
    ) -> Response {
        if let Some(bad) =
            Self::check_search_params(&[("target ratio", target_ratio), ("tolerance", tolerance)])
        {
            return bad;
        }
        let compressor = match self.compressor(codec) {
            Ok(compressor) => compressor,
            Err(response) => return response,
        };
        if let Some(bad) = Self::check_dims(compressor.as_ref(), dataset) {
            return bad;
        }
        let (job_id, token) = self.job_token(deadline_ms);
        let search = FixedRatioSearch::new(
            Arc::clone(&compressor),
            SearchConfig::new(target_ratio, tolerance),
        )
        .with_pool(Arc::clone(&self.pool))
        .with_cancel(token);
        // One preparation serves the search and the reply's blob.
        let field = compressor.prepare(dataset);
        let cache = self
            .tune
            .as_ref()
            .map(|c| CachePredictor::new(Arc::clone(c)));
        let outcome =
            search.run_prepared(&*field, cache.as_ref().map(|p| p as &dyn BoundPredictor));
        self.finish_job(job_id);
        if outcome.deadline_hit {
            return Response::DeadlineExceeded {
                error_bound: outcome.error_bound,
                achieved: outcome.best.compression_ratio,
                evaluations: outcome.evaluations as u32,
            };
        }
        match field.compress(outcome.error_bound) {
            Ok(blob) => Response::Compressed {
                error_bound: outcome.error_bound,
                ratio: outcome.best.compression_ratio,
                feasible: outcome.feasible,
                evaluations: outcome.evaluations as u32,
                blob,
            },
            Err(e) => Response::Internal {
                message: format!("compression at the chosen bound failed: {e}"),
            },
        }
    }

    fn run_tune_psnr(
        &self,
        deadline_ms: u32,
        target_psnr: f64,
        codec: &str,
        dataset: &Dataset,
    ) -> Response {
        if let Some(bad) = Self::check_search_params(&[("target PSNR", target_psnr)]) {
            return bad;
        }
        let compressor = match self.compressor(codec) {
            Ok(compressor) => compressor,
            Err(response) => return response,
        };
        if let Some(bad) = Self::check_dims(compressor.as_ref(), dataset) {
            return bad;
        }
        let (job_id, token) = self.job_token(deadline_ms);
        let search = FixedQualitySearch::new(
            Arc::clone(&compressor),
            QualitySearchConfig::new(QualityMetric::PsnrAtLeast(target_psnr)),
        )
        .with_pool(Arc::clone(&self.pool))
        .with_cancel(token);
        let outcome = match &self.tune {
            Some(cache) => {
                search.run_with_predictor(dataset, &CachePredictor::new(Arc::clone(cache)))
            }
            None => search.run(dataset),
        };
        self.finish_job(job_id);
        let achieved = outcome
            .best
            .quality
            .as_ref()
            .map(|q| q.psnr)
            .unwrap_or(f64::NAN);
        if outcome.deadline_hit {
            return Response::DeadlineExceeded {
                error_bound: outcome.error_bound,
                achieved,
                evaluations: outcome.evaluations as u32,
            };
        }
        Response::Tuned {
            error_bound: outcome.error_bound,
            achieved_psnr: achieved,
            satisfiable: outcome.satisfiable,
            evaluations: outcome.evaluations as u32,
        }
    }
}

/// Read one frame, returning `Ok(None)` when the connection should close
/// instead (peer hung up, or the server is draining and the line is
/// idle).  Read timeouts while idle poll the drain flag; timeouts
/// mid-frame keep accumulating — a slow sender is not an error.
fn read_frame_or_close(
    stream: &mut TcpStream,
    inner: &Inner,
) -> Result<Option<Vec<u8>>, ProtoError> {
    struct PollingReader<'a> {
        stream: &'a mut TcpStream,
        inner: &'a Inner,
        stop: bool,
    }
    impl std::io::Read for PollingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.stream.read(buf) {
                    Ok(n) => return Ok(n),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // The 50 ms read timeout is the drain poll: once
                        // the server is stopping, stop waiting for bytes
                        // (idle or mid-frame) and close.
                        if self.inner.stopping() {
                            self.stop = true;
                            return Ok(0);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    let mut reader = PollingReader {
        stream,
        inner,
        stop: false,
    };
    match read_frame(&mut reader, inner.config.max_frame_len) {
        Ok(payload) => Ok(Some(payload)),
        Err(ProtoError::Closed) => Ok(None),
        Err(e) if reader.stop => {
            // The synthetic EOF from the drain poll surfaces as
            // Closed/Truncated; either way the connection just closes.
            let _ = e;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn connection_loop(inner: Arc<Inner>, mut stream: TcpStream, client: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        match read_frame_or_close(&mut stream, &inner) {
            Ok(Some(payload)) => {
                let response = inner.handle_payload(&payload, client);
                let close = matches!(response, Response::Draining);
                if write_frame(&mut stream, &response.encode()).is_err() || close {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // A desynced or hostile frame gets one typed reply on a
                // best-effort basis, then the connection closes: after a
                // framing error there is no trustworthy boundary to
                // resume from.
                inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let reply = Response::BadRequest {
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &reply.encode());
                break;
            }
        }
    }
}

/// A running server.  Dropping the handle does *not* stop the server;
/// call [`ServerHandle::join`] to drain and stop.
pub struct ServerHandle {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Start a server for `config`; returns once the listener is bound.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8)
    };
    let pool = Arc::new(Pool::new(workers));

    let base: Box<dyn Store> = match &config.store_dir {
        Some(dir) => Box::new(
            FsStore::open(dir)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::Other, e.to_string()))?,
        ),
        None => Box::new(MemoryStore::new()),
    };
    let base: Box<dyn Store> = match &config.store_faults {
        Some(faults) => Box::new(FaultyStore::new(base, faults.clone())),
        None => base,
    };
    let store = StoreStack {
        primary: RetryStore::with_policy(base, config.retry.clone()),
        fallback: MemoryStore::new(),
        degraded: AtomicBool::new(false),
        fallback_keys: Mutex::new(std::collections::HashSet::new()),
    };

    // A broken tune-cache directory degrades to cold searches — the
    // service must come up anyway.
    let mut tune_degraded = false;
    let tune = match &config.tune_cache_dir {
        Some(dir) => match TuneCache::open(dir) {
            Ok(cache) => Some(Arc::new(cache)),
            Err(e) => {
                eprintln!("fraz-serve: tune cache unavailable ({e}); searches run cold");
                tune_degraded = true;
                None
            }
        },
        None => None,
    };

    let admission = Admission::new(config.admission.clone());
    let inner = Arc::new(Inner {
        config,
        pool,
        admission,
        store,
        tune,
        tune_degraded: AtomicBool::new(tune_degraded),
        compressors: Mutex::new(HashMap::new()),
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        next_job: AtomicU64::new(0),
        active_tokens: Mutex::new(HashMap::new()),
    });

    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let inner = Arc::clone(&inner);
        let connections = Arc::clone(&connections);
        std::thread::Builder::new()
            .name("fraz-serve-accept".into())
            .spawn(move || {
                let mut next_client: u64 = 0;
                while !inner.stopping() {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let client = next_client;
                            next_client += 1;
                            let _ = stream.set_nonblocking(false);
                            let inner = Arc::clone(&inner);
                            let spawned = std::thread::Builder::new()
                                .name(format!("fraz-serve-conn-{client}"))
                                .spawn(move || connection_loop(inner, stream, client));
                            match spawned {
                                Ok(handle) => connections
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .push(handle),
                                Err(_) => {
                                    // Thread exhaustion: drop the
                                    // connection; the client sees a clean
                                    // close and retries elsewhere.
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?
    };

    Ok(ServerHandle {
        inner,
        local_addr,
        accept: Some(accept),
        connections,
    })
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begin draining: no new connections or jobs.  Non-blocking; call
    /// [`ServerHandle::join`] to wait for completion.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Current counters (for tests and the drain report).
    pub fn status(&self) -> StatusBody {
        self.inner.status_body()
    }

    /// High-water mark of concurrently admitted jobs.
    pub fn peak_jobs(&self) -> usize {
        self.inner.admission.peak_jobs()
    }

    /// Drain and stop: stop admitting, wait for in-flight jobs up to the
    /// drain deadline, cancel stragglers, flush the tune cache, join
    /// every thread.
    pub fn join(mut self) -> DrainReport {
        self.shutdown();
        let start = Instant::now();
        let deadline = start + self.inner.config.drain_deadline;

        // Phase 1: wait for in-flight jobs to finish on their own.
        while self.inner.admission.inflight_jobs() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained_within_deadline = self.inner.admission.inflight_jobs() == 0;

        // Phase 2: cancel whatever outlived the deadline — the searches
        // observe the token between evaluations and answer with their
        // best-so-far bound.
        let cancelled_jobs = {
            let tokens = self
                .inner
                .active_tokens
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            for token in tokens.values() {
                token.cancel();
            }
            tokens.len()
        };

        // Phase 3: join the accept loop and every connection thread (the
        // 50 ms read timeout bounds how long an idle one takes to notice).
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        loop {
            let handle = {
                let mut connections = self.connections.lock().unwrap_or_else(|p| p.into_inner());
                connections.pop()
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }

        // Phase 4: flush the tune cache so the next process starts warm.
        let tune_cache_flushed = match &self.inner.tune {
            Some(cache) => cache.flush().is_ok(),
            None => true,
        };

        DrainReport {
            drained_within_deadline,
            cancelled_jobs,
            drain_elapsed: start.elapsed(),
            tune_cache_flushed,
            status: self.inner.status_body(),
        }
    }
}
