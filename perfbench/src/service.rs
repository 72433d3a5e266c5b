//! `service_mix`: an in-process `fraz-serve` server under a mixed job load.
//!
//! The server runs with a tune cache in a fresh directory under the work
//! directory and its in-memory store.  The job mix is fixed-ratio sz
//! `Compress`, fixed-PSNR szx `TunePsnr`, zfp `Compress` and `Decompress`
//! (blobs made during set-up), and `PutStore`/`GetStore`.  Search jobs
//! either repeat a "hot" field tuned during set-up, so the tune cache
//! hits, or carry a fresh field.  A closed-loop phase (one connection per
//! client thread, next job on reply) measures capacity; an open-loop phase
//! sends Poisson arrivals at a fixed rate and times each job from when it
//! was due.  In a traced run the closed loop alternates short plain and
//! timed bursts, so that both see the same machine conditions.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fraz_data::{DType, Dataset, Dims};
use fraz_pressio::registry;
use fraz_pressio::{Compressor, Options};
use fraz_scenarios::{Regime, ScenarioConfig};
use fraz_serve::proto::{read_frame, write_frame};
use fraz_serve::{start, ProtoError, Request, Response, ServeConfig, ServerHandle, MAX_FRAME_LEN};
use fraz_tune::TuneCache;

use crate::layers::{self, Counter, LayerSheet};
use crate::report::{latency_windows, median, mib, quantile, ratio, EndToEnd, RunResult};
use crate::{compare, meets_ratio, selftest, within_bound, Ctx};

/// Edge of the square f32 scenario fields.
const SIDE: usize = 48;
const REGIMES: [Regime; 3] = [Regime::Smooth, Regime::Turbulence, Regime::Oscillatory];
/// Seeded base fields per regime; every job field is a scaled copy of one.
const BASES_PER_REGIME: usize = 64;
/// Distinct hot fields tuned during set-up.
const HOT_FIELDS: usize = 12;
/// Share of search jobs that repeat a hot field.
const REPEAT_SHARE: f64 = 0.5;
const SZ_RATIO: f64 = 10.0;
const ZFP_RATIO: f64 = 6.0;
const TOLERANCE: f64 = 0.1;
const SZX_PSNR: f64 = 60.0;
const ZFP_BLOBS: usize = 64;
const STORE_KEYS: usize = 16;
/// A `PutStore` payload is the size of an sz blob of one field at the sz
/// target ratio.
const PUT_BYTES: usize = ((SIDE * SIDE * std::mem::size_of::<f32>()) as f64 / SZ_RATIO) as usize;
/// Open-loop arrival rate, jobs per second.
pub const RATE_HZ: f64 = 100.0;
/// Open-loop latency limit for `slo_frac`, milliseconds.
pub const SLO_MS: f64 = 100.0;
/// Share of the budget spent in the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.3;
/// Closed-loop throughput is sampled in windows of this length.
const WINDOW: Duration = Duration::from_millis(500);
/// Length of one plain or timed closed-loop burst of a traced run.
const BURST: Duration = Duration::from_secs(1);
/// Latency recorded for a job that failed or was shed, so that it counts
/// as missing every limit.
const FAILED_MS: f64 = 1e6;
const SETUPS: usize = 3;

/// Job kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    CompressSz,
    TuneSzx,
    CompressZfp,
    DecompressZfp,
    Put,
    Get,
}

/// The job mix, as relative weights.  Search jobs split 3:1 between
/// fixed-ratio and fixed-PSNR, the split of the repository's load generator
/// (`fraz_serve::loadgen`, `psnr_fraction` 0.25), and the fixed-ratio jobs
/// split evenly between sz and zfp.  Every ratio-compressed result then
/// makes one round trip: a zfp blob comes back through the server's decoder
/// (`Decompress`), an sz blob is stored and fetched (`PutStore`,
/// `GetStore`).
const MIX: [(Kind, f64); 6] = [
    (Kind::CompressSz, 3.0),
    (Kind::CompressZfp, 3.0),
    (Kind::TuneSzx, 2.0),
    (Kind::DecompressZfp, 3.0),
    (Kind::Put, 3.0),
    (Kind::Get, 3.0),
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::CompressSz => "compress_sz",
            Kind::TuneSzx => "tune_psnr_szx",
            Kind::CompressZfp => "compress_zfp",
            Kind::DecompressZfp => "decompress_zfp",
            Kind::Put => "put",
            Kind::Get => "get",
        }
    }

    fn layer(self) -> &'static str {
        match self {
            Kind::CompressSz | Kind::CompressZfp => "compress",
            Kind::TuneSzx => "tune_psnr",
            Kind::DecompressZfp => "decompress",
            Kind::Put => "put",
            Kind::Get => "get",
        }
    }

    fn codec(self) -> &'static str {
        match self {
            Kind::CompressSz => "sz",
            Kind::TuneSzx => "szx",
            _ => "zfp",
        }
    }
}

/// One job of the mix, derived from `(seed, stream, index)` alone.
struct Job {
    kind: Kind,
    /// Input field for search jobs.
    dataset: Option<Dataset>,
    /// Index into the zfp blobs (`Decompress`) or the stored keys (`Get`).
    slot: usize,
    /// The bytes a `Put` stores.
    put: Vec<u8>,
}

/// The generated inputs shared by every job.
struct Inputs {
    bases: Vec<Dataset>,
    hot: Vec<Dataset>,
    zfp_blobs: Vec<Vec<u8>>,
    stored: Vec<Vec<u8>>,
}

/// `base` scaled and shifted: the same structure, a new fingerprint.
fn variant(base: &Dataset, scale: f64, shift: f64, label: usize) -> Dataset {
    let values: Vec<f32> = base
        .buffer
        .to_f64_vec()
        .iter()
        .map(|v| (v * scale + shift) as f32)
        .collect();
    Dataset::from_f32(
        "service",
        format!("{}-{label}", base.field),
        0,
        base.dims.clone(),
        values,
    )
}

impl Inputs {
    fn new(seed: u64) -> Result<Self, String> {
        let bases: Vec<Dataset> = (0..REGIMES.len() * BASES_PER_REGIME)
            .map(|i| {
                ScenarioConfig::new(REGIMES[i % REGIMES.len()])
                    .with_seed(seed.wrapping_mul(31).wrapping_add(i as u64))
                    .generate(&Dims::d2(SIDE, SIDE), DType::F32, 0)
                    .dataset
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7);
        let hot: Vec<Dataset> = (0..HOT_FIELDS)
            .map(|i| {
                let (scale, shift) = (rng.gen_range(0.5..2.0), rng.gen_range(-1.0..1.0));
                variant(&bases[i % bases.len()], scale, shift, i)
            })
            .collect();
        let zfp = registry::build_arc("zfp", &Options::new()).map_err(|e| e.to_string())?;
        let zfp_blobs = (0..ZFP_BLOBS)
            .map(|i| {
                let field = &bases[i % bases.len()];
                let (lo, hi) = zfp.bound_range(field);
                let bound = lo * (hi / lo).powf(rng.gen_range(0.3..0.7));
                zfp.compress(field, bound).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let stored = (0..STORE_KEYS).map(|_| random_bytes(&mut rng)).collect();
        Ok(Self {
            bases,
            hot,
            zfp_blobs,
            stored,
        })
    }

    fn job(&self, seed: u64, stream: u64, index: u64) -> Job {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream << 40) ^ index,
        );
        let mut pick: f64 = rng.gen_range(0.0..MIX.iter().map(|(_, w)| w).sum::<f64>());
        let mut kind = MIX[MIX.len() - 1].0;
        for (k, weight) in MIX {
            if pick < weight {
                kind = k;
                break;
            }
            pick -= weight;
        }
        let mut job = Job {
            kind,
            dataset: None,
            slot: 0,
            put: Vec::new(),
        };
        match kind {
            Kind::CompressSz | Kind::TuneSzx | Kind::CompressZfp => {
                job.dataset = Some(if rng.gen_bool(REPEAT_SHARE) {
                    self.hot[rng.gen_range(0..self.hot.len())].clone()
                } else {
                    let base = &self.bases[rng.gen_range(0..self.bases.len())];
                    let (scale, shift) = (rng.gen_range(0.5..2.0), rng.gen_range(-1.0..1.0));
                    variant(base, scale, shift, HOT_FIELDS + index as usize)
                });
            }
            Kind::DecompressZfp => job.slot = rng.gen_range(0..self.zfp_blobs.len()),
            Kind::Get => job.slot = rng.gen_range(0..self.stored.len()),
            Kind::Put => job.put = random_bytes(&mut rng),
        }
        job
    }

    fn request(&self, job: &Job, traced: bool, key: &str) -> Request {
        let codec = |c: &str| {
            if traced {
                layers::timed_name(c)
            } else {
                c.to_string()
            }
        };
        match job.kind {
            Kind::CompressSz | Kind::CompressZfp => Request::Compress {
                deadline_ms: 0,
                target_ratio: if job.kind == Kind::CompressSz {
                    SZ_RATIO
                } else {
                    ZFP_RATIO
                },
                tolerance: TOLERANCE,
                codec: codec(job.kind.codec()),
                dataset: job.dataset.clone().expect("search jobs carry a field"),
            },
            Kind::TuneSzx => Request::TunePsnr {
                deadline_ms: 0,
                target_psnr: SZX_PSNR,
                codec: codec("szx"),
                dataset: job.dataset.clone().expect("search jobs carry a field"),
            },
            Kind::DecompressZfp => Request::Decompress {
                codec: codec("zfp"),
                blob: self.zfp_blobs[job.slot].clone(),
            },
            Kind::Put => Request::PutStore {
                key: key.to_string(),
                blob: job.put.clone(),
            },
            Kind::Get => Request::GetStore {
                key: stored_key(job.slot),
            },
        }
    }
}

fn random_bytes(rng: &mut ChaCha8Rng) -> Vec<u8> {
    (0..PUT_BYTES).map(|_| rng.gen_range(0..=255u8)).collect()
}

fn stored_key(i: usize) -> String {
    format!("setup/{i}")
}

/// Client-side wire-format time, summed over a traced phase.
static ENCODE: Counter = Counter::new();
static DECODE: Counter = Counter::new();

/// One request/reply exchange over `stream`.
fn call(stream: &mut TcpStream, request: &Request) -> Result<Response, ProtoError> {
    let t = Instant::now();
    let payload = request.encode();
    ENCODE.record(t.elapsed(), payload.len());
    write_frame(stream, &payload)?;
    let reply = read_frame(stream, MAX_FRAME_LEN)?;
    let t = Instant::now();
    let response = Response::decode(&reply);
    DECODE.record(t.elapsed(), reply.len());
    response
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    Ok(stream)
}

/// A payload reduced to its length and hash, so that a run's records stay
/// small however many jobs it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    len: usize,
    hash: u64,
}

fn digest(bytes: &[u8]) -> Digest {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    Digest {
        len: bytes.len(),
        hash: h.finish(),
    }
}

fn digest_dataset(d: &Dataset) -> Digest {
    let bytes = d.buffer.to_le_bytes();
    let mut h = DefaultHasher::new();
    (d.dims.as_slice(), d.dtype() == DType::F32, &bytes).hash(&mut h);
    Digest {
        len: bytes.len(),
        hash: h.finish(),
    }
}

/// A reply as the checks need it.  The failure variants' fields are read
/// through `Debug` when a failed check is reported.
#[derive(Debug)]
#[allow(dead_code)]
enum Reply {
    Compressed {
        error_bound: f64,
        ratio: f64,
        feasible: bool,
        evaluations: u32,
        blob: Digest,
    },
    Tuned {
        error_bound: f64,
        achieved_psnr: f64,
        satisfiable: bool,
        evaluations: u32,
    },
    Dataset(Digest),
    Stored {
        degraded: bool,
    },
    Blob(Digest),
    /// Any other reply, by kind.
    Refused(&'static str),
    /// A transport or protocol failure.
    Broken(String),
}

impl Reply {
    fn new(reply: Result<Response, ProtoError>) -> Self {
        match reply {
            Ok(Response::Compressed {
                error_bound,
                ratio,
                feasible,
                evaluations,
                blob,
            }) => Reply::Compressed {
                error_bound,
                ratio,
                feasible,
                evaluations,
                blob: digest(&blob),
            },
            Ok(Response::Tuned {
                error_bound,
                achieved_psnr,
                satisfiable,
                evaluations,
            }) => Reply::Tuned {
                error_bound,
                achieved_psnr,
                satisfiable,
                evaluations,
            },
            Ok(Response::Dataset(d)) => Reply::Dataset(digest_dataset(&d)),
            Ok(Response::Stored { degraded }) => Reply::Stored { degraded },
            Ok(Response::Blob(b)) => Reply::Blob(digest(&b)),
            Ok(other) => Reply::Refused(other.kind()),
            Err(e) => Reply::Broken(e.to_string()),
        }
    }
}

/// What happened to one job; the job itself is regenerated from
/// `(stream, index)` when it is checked.
struct Record {
    stream: u64,
    index: u64,
    kind: Kind,
    reply: Reply,
    /// Input bytes tuned or written.
    input_bytes: u64,
    /// From due time (open loop) or send time (closed loop) to reply.
    latency: Duration,
    /// How late the sender was: send time minus due time.
    lag: Duration,
    /// Completion time since the phase started.
    done_at: Duration,
}

impl Record {
    fn ok(&self) -> bool {
        matches!(
            self.reply,
            Reply::Compressed { .. }
                | Reply::Tuned { .. }
                | Reply::Dataset(_)
                | Reply::Stored { degraded: false }
                | Reply::Blob(_)
        )
    }

    /// Decoded or fetched bytes returned.
    fn read_bytes(&self) -> u64 {
        match self.reply {
            Reply::Dataset(d) | Reply::Blob(d) => d.len as u64,
            _ => 0,
        }
    }

    fn latency_ms(&self) -> f64 {
        if self.ok() {
            self.latency.as_secs_f64() * 1e3
        } else {
            FAILED_MS
        }
    }

    fn evaluations(&self) -> Option<u32> {
        match self.reply {
            Reply::Compressed { evaluations, .. } | Reply::Tuned { evaluations, .. } => {
                Some(evaluations)
            }
            _ => None,
        }
    }
}

fn job_key(stream: u64, index: u64) -> String {
    format!("job/{stream}/{index}")
}

/// Sends job `(stream, index)` and records its reply.
fn send(
    inputs: &Inputs,
    seed: u64,
    (stream, index): (u64, u64),
    traced: bool,
    conn: &mut TcpStream,
    due: Option<Duration>,
    start: Instant,
) -> Record {
    let job = inputs.job(seed, stream, index);
    let request = inputs.request(&job, traced, &job_key(stream, index));
    let input_bytes = match job.kind {
        Kind::Put => job.put.len() as u64,
        _ => job.dataset.as_ref().map_or(0, |d| d.byte_size() as u64),
    };
    let kind = job.kind;
    drop(job);
    // Wait for the due time by yielding rather than sleeping.  On a virtual
    // machine a sleeping sender leaves the CPUs idle, and waking an idle
    // virtual CPU for the next request cost 0.3-1 ms: more than a
    // `GetStore` takes, and it varied from run to run.
    while due.is_some_and(|d| start.elapsed() < d) {
        std::thread::yield_now();
    }
    let sent = start.elapsed();
    let reply = Reply::new(call(conn, &request));
    let done_at = start.elapsed();
    let due = due.unwrap_or(sent);
    Record {
        stream,
        index,
        kind,
        reply,
        input_bytes,
        latency: done_at.saturating_sub(due),
        lag: sent.saturating_sub(due),
        done_at,
    }
}

struct Server {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Server {
    /// Starts a server in a fresh directory and warms it: every hot field
    /// is tuned once per search kind, and the `Get` keys are stored.
    fn start(ctx: &Ctx, inputs: &Inputs, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let handle = start(ServeConfig {
            workers: ctx.workers,
            // In memory: on a virtual machine the durable store's fsyncs
            // stall the whole guest for seconds at a time, which swamped
            // every latency here.  `archive_psnr_szx` covers `FsStore`.
            store_dir: None,
            tune_cache_dir: Some(dir.join("tune")),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let server = Self {
            handle,
            dir: dir.to_path_buf(),
        };
        let mut stream = connect(server.handle.local_addr())?;
        for field in &inputs.hot {
            for kind in [Kind::CompressSz, Kind::TuneSzx, Kind::CompressZfp] {
                let job = Job {
                    kind,
                    dataset: Some(field.clone()),
                    slot: 0,
                    put: Vec::new(),
                };
                let reply = call(&mut stream, &inputs.request(&job, false, ""));
                if !matches!(
                    reply,
                    Ok(Response::Compressed { .. } | Response::Tuned { .. })
                ) {
                    return Err(format!("warm-up {kind:?} failed: {reply:?}"));
                }
            }
        }
        for (i, blob) in inputs.stored.iter().enumerate() {
            let request = Request::PutStore {
                key: stored_key(i),
                blob: blob.clone(),
            };
            match call(&mut stream, &request) {
                Ok(Response::Stored { degraded: false }) => {}
                other => return Err(format!("storing {} failed: {other:?}", stored_key(i))),
            }
        }
        Ok(server)
    }

    fn stop(self) -> usize {
        let _ = self.handle.join();
        let entries = TuneCache::open(self.dir.join("tune")).map_or(0, |c| c.len());
        let _ = std::fs::remove_dir_all(&self.dir);
        entries
    }
}

/// Runs `clients` connections, each sending its next job when the last
/// one is answered, for `budget`.
fn closed_loop(
    ctx: &Ctx,
    inputs: &Inputs,
    addr: SocketAddr,
    stream_id: u64,
    traced: bool,
    budget: Duration,
) -> Result<Vec<Record>, String> {
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut joins = Vec::new();
        for client in 0..ctx.workers as u64 {
            let records = &records;
            joins.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = connect(addr)?;
                let mut mine = Vec::new();
                let stream = stream_id * 64 + client;
                let mut index = 0u64;
                while start.elapsed() < budget {
                    let record = send(
                        inputs,
                        ctx.seed,
                        (stream, index),
                        traced,
                        &mut conn,
                        None,
                        start,
                    );
                    if matches!(record.reply, Reply::Broken(_)) {
                        conn = connect(addr)?;
                    }
                    mine.push(record);
                    index += 1;
                }
                records
                    .lock()
                    .expect("no client thread panics while holding the records")
                    .extend(mine);
                Ok(())
            }));
        }
        for join in joins {
            join.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok(records
        .into_inner()
        .expect("no client thread panics while holding the records"))
}

/// Sends Poisson arrivals at [`RATE_HZ`] for `budget` over `clients`
/// connections; each job is timed from its due time.
fn open_loop(
    ctx: &Ctx,
    inputs: &Inputs,
    addr: SocketAddr,
    stream_id: u64,
    traced: bool,
    budget: Duration,
) -> Result<Vec<Record>, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ (stream_id << 32) ^ 0xa771);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / RATE_HZ;
        if t >= budget.as_secs_f64() {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Record>>> = due.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut joins = Vec::new();
        for _ in 0..ctx.workers {
            let (next, slots, due) = (&next, &slots, &due);
            joins.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = connect(addr)?;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= due.len() {
                        return Ok(());
                    }
                    let job = (stream_id * 64, i as u64);
                    let record = send(
                        inputs,
                        ctx.seed,
                        job,
                        traced,
                        &mut conn,
                        Some(due[i]),
                        start,
                    );
                    if matches!(record.reply, Reply::Broken(_)) {
                        conn = connect(addr)?;
                    }
                    *slots[i].lock().expect("record slots are written once") = Some(record);
                }
            }));
        }
        for join in joins {
            join.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok(slots
        .into_iter()
        .filter_map(|s| s.into_inner().expect("record slots are written once"))
        .collect())
}

/// Checks every reply against a local plain codec or the stored bytes,
/// and fills the quality tallies.  Returns the number of failed jobs.
fn check(
    ctx: &Ctx,
    inputs: &Inputs,
    records: &[Record],
    addr: SocketAddr,
    codecs: &Codecs,
    e2e: &mut EndToEnd,
) -> Result<u64, String> {
    let mut conn = connect(addr)?;
    let mut failed = 0;
    for r in records {
        let job = inputs.job(ctx.seed, r.stream, r.index);
        let ok = r.ok()
            && match r.reply {
                Reply::Compressed {
                    error_bound,
                    ratio,
                    feasible,
                    blob,
                    ..
                } => {
                    let dataset = job.dataset.as_ref().expect("search jobs carry a field");
                    let (codec, target) = if job.kind == Kind::CompressSz {
                        (&codecs.sz, SZ_RATIO)
                    } else {
                        (&codecs.zfp, ZFP_RATIO)
                    };
                    // The reported ratio is the blob's, and the reply calls
                    // itself feasible exactly when that ratio meets the
                    // target.
                    let achieved = dataset.byte_size() as f64 / blob.len as f64;
                    let claims_ok = (achieved - ratio).abs() <= 1e-9 * ratio.abs()
                        && feasible == meets_ratio(achieved, target, TOLERANCE);
                    e2e.feasible.1 += 1;
                    e2e.feasible.0 += u64::from(feasible);
                    e2e.container.0 += dataset.byte_size() as u64;
                    e2e.container.1 += blob.len as u64;
                    // The codec is deterministic: the blob must be the one
                    // compressing at the returned bound gives, and it must
                    // decode within that bound.
                    let local = codec.compress(dataset, error_bound).ok();
                    let restored = local.as_ref().and_then(|b| codec.decompress(b).ok());
                    match (local, restored) {
                        (Some(local), Some(restored)) => {
                            if let Some((_, psnr)) = compare(dataset, &restored) {
                                e2e.psnr_db.push(psnr);
                            }
                            claims_ok
                                && digest(&local) == blob
                                && within_bound(dataset, &restored, error_bound)
                        }
                        _ => false,
                    }
                }
                Reply::Tuned {
                    error_bound,
                    achieved_psnr,
                    satisfiable,
                    ..
                } => {
                    let dataset = job.dataset.as_ref().expect("search jobs carry a field");
                    e2e.feasible.1 += 1;
                    e2e.feasible.0 += u64::from(satisfiable);
                    e2e.psnr_db.push(achieved_psnr);
                    let measured = codecs
                        .szx
                        .compress(dataset, error_bound)
                        .ok()
                        .and_then(|blob| codecs.szx.decompress(&blob).ok())
                        .and_then(|restored| compare(dataset, &restored));
                    match measured {
                        Some((_, psnr)) => {
                            (psnr - achieved_psnr).abs() <= 1e-9 * psnr.abs()
                                && satisfiable == (psnr >= SZX_PSNR)
                        }
                        None => false,
                    }
                }
                Reply::Dataset(got) => codecs
                    .zfp
                    .decompress(&inputs.zfp_blobs[job.slot])
                    .is_ok_and(|want| digest_dataset(&want) == got),
                Reply::Blob(got) => got == digest(&inputs.stored[job.slot]),
                Reply::Stored { .. } => matches!(
                    call(&mut conn, &Request::GetStore { key: job_key(r.stream, r.index) }),
                    Ok(Response::Blob(got)) if got == job.put
                ),
                _ => false,
            };
        if !ok {
            failed += 1;
            eprintln!(
                "perfbench: {:?} job {} failed its check: {:?}",
                r.kind,
                job_key(r.stream, r.index),
                r.reply
            );
        }
    }
    Ok(failed)
}

struct Codecs {
    sz: Box<dyn Compressor>,
    szx: Box<dyn Compressor>,
    zfp: Box<dyn Compressor>,
}

impl Codecs {
    fn new() -> Result<Self, String> {
        let build = |c: &str| registry::build_default(c).map_err(|e| e.to_string());
        Ok(Self {
            sz: build("sz")?,
            szx: build("szx")?,
            zfp: build("zfp")?,
        })
    }
}

/// Open-loop latencies grouped into windows by due time.
fn open_latency(open: &[Record], budget: Duration) -> Vec<Vec<f64>> {
    latency_windows(
        open.iter()
            .map(|r| (r.done_at.saturating_sub(r.latency), r.latency_ms())),
        budget,
    )
}

/// Closed-loop rates, one sample per full window:
/// (OK jobs/s, input MiB/s, read MiB/s).
fn windows(records: &[Record], budget: Duration) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = (budget.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize;
    let mut jobs = vec![0.0; n];
    let mut input = vec![0.0; n];
    let mut read = vec![0.0; n];
    let w = WINDOW.as_secs_f64();
    for r in records.iter().filter(|r| r.ok()) {
        let i = (r.done_at.as_secs_f64() / w) as usize;
        if i < n {
            jobs[i] += 1.0 / w;
            input[i] += mib(r.input_bytes) / w;
            read[i] += mib(r.read_bytes()) / w;
        }
    }
    (jobs, input, read)
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let dir = ctx.workdir.join(format!("service-{}", std::process::id()));
    let result = measure(ctx, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Prints each job kind's share of `records` and the share of search
/// replies that took a single evaluation (tune-cache hits).
fn print_mix(records: &[&Record]) {
    let n = records.len().max(1) as f64;
    let shares: Vec<String> = MIX
        .iter()
        .map(|(kind, _)| {
            let count = records.iter().filter(|r| r.kind == *kind).count();
            format!("{} {:.3}", kind.name(), count as f64 / n)
        })
        .collect();
    let evaluations: Vec<u32> = records.iter().filter_map(|r| r.evaluations()).collect();
    let single = evaluations.iter().filter(|&&e| e == 1).count();
    println!(
        "job mix over {} jobs: {}; single-evaluation searches {:.3}",
        records.len(),
        shares.join(", "),
        ratio(single as f64, evaluations.len() as f64)
    );
}

fn measure(ctx: &Ctx, dir: &Path) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = ready.take() {
            Server::stop(server);
        }
        let t = Instant::now();
        let inputs = Inputs::new(ctx.seed)?;
        let server = Server::start(ctx, &inputs, dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((inputs, server));
    }
    let (inputs, server) = ready.expect("at least one set-up");
    let addr = server.handle.local_addr();
    let codecs = Codecs::new()?;
    let closed_budget = ctx.budget.mul_f64(CLOSED_SHARE);
    let open_budget = ctx.budget - closed_budget;

    if !ctx.trace {
        let mut e2e = EndToEnd {
            setup_s,
            ..EndToEnd::default()
        };
        let closed = closed_loop(ctx, &inputs, addr, 1, false, closed_budget)?;
        let (jobs, input, read) = windows(&closed, closed_budget);
        e2e.jobs_per_s = jobs;
        e2e.mib_per_s = input;
        e2e.read_mib_per_s = read;
        let open = open_loop(ctx, &inputs, addr, 2, false, open_budget)?;
        e2e.latency_ms = open_latency(&open, open_budget);
        e2e.slo = (
            open.iter().filter(|r| r.latency_ms() <= SLO_MS).count() as u64,
            open.len() as u64,
        );
        let failed = check(ctx, &inputs, &closed, addr, &codecs, &mut e2e)?
            + check(ctx, &inputs, &open, addr, &codecs, &mut e2e)?;
        e2e.attempted = (closed.len() + open.len()) as u64;
        e2e.failed = failed;
        server.stop();
        print_mix(&closed.iter().chain(&open).collect::<Vec<_>>());
        let (attempted, failed) = (e2e.attempted, e2e.failed);
        return Ok(RunResult {
            attempted,
            failed,
            end_to_end: e2e.into_metrics(),
            per_layer: Vec::new(),
        });
    }

    let selftest = selftest::run(ctx.seed);
    layers::reset_counters();
    ENCODE.reset();
    DECODE.reset();
    // Closed loop: plain and timed bursts in turn, each one rate sample.
    let bursts = ((closed_budget.as_secs_f64() / BURST.as_secs_f64()) as usize).max(2);
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut closed: [Vec<Record>; 2] = [Vec::new(), Vec::new()];
    let mut traced_wall = 0.0;
    for b in 0..bursts {
        let traced = b % 2;
        let records = closed_loop(ctx, &inputs, addr, 10 + b as u64, traced == 1, BURST)?;
        let wall = records
            .iter()
            .map(|r| r.done_at)
            .max()
            .unwrap_or(BURST)
            .as_secs_f64();
        traced_wall += wall * traced as f64;
        rates[traced].push(records.iter().filter(|r| r.ok()).count() as f64 / wall);
        closed[traced].extend(records);
    }
    let [closed, traced_closed] = closed;
    let t = Instant::now();
    let open = open_loop(ctx, &inputs, addr, 4, true, open_budget)?;
    traced_wall += t.elapsed().as_secs_f64();
    let busy = layers::busy_secs();
    let mut sheet = LayerSheet::default();
    sheet.set_counters();
    for (kind, _) in MIX {
        let layer = kind.layer();
        let ms: Vec<f64> = open
            .iter()
            .filter(|r| r.kind.layer() == layer)
            .map(Record::latency_ms)
            .collect();
        sheet.set(
            &format!("serve.{layer}.p50_ms"),
            quantile(&ms, 0.5),
            ms.len(),
        );
        sheet.set(
            &format!("serve.{layer}.p99_ms"),
            quantile(&ms, 0.99),
            ms.len(),
        );
    }
    let lag: Vec<f64> = open.iter().map(|r| r.lag.as_secs_f64() * 1e3).collect();
    sheet.set("serve.sender_lag_p99_ms", quantile(&lag, 0.99), lag.len());
    let status = server.handle.status();
    sheet.set("serve.shed", status.jobs_shed as f64, 1);
    sheet.set("serve.rejected", status.jobs_rejected as f64, 1);
    sheet.set("serve.failed", status.jobs_failed as f64, 1);
    sheet.set("serve.inflight_peak", server.handle.peak_jobs() as f64, 1);
    sheet.set("proto.encode_s", ENCODE.secs(), ENCODE.calls() as usize);
    sheet.set("proto.decode_s", DECODE.secs(), DECODE.calls() as usize);

    let searches: Vec<u32> = traced_closed
        .iter()
        .chain(&open)
        .filter_map(Record::evaluations)
        .collect();
    let count = searches.len();
    let evaluations: u64 = searches.iter().map(|&e| u64::from(e)).sum();
    let single = searches.iter().filter(|&&e| e == 1).count();
    let mut traced_e2e = EndToEnd::default();
    let failed = check(ctx, &inputs, &traced_closed, addr, &codecs, &mut traced_e2e)?
        + check(ctx, &inputs, &open, addr, &codecs, &mut traced_e2e)?;
    sheet.set("search.count", count as f64, 1);
    sheet.set("search.evaluations", evaluations as f64, count);
    sheet.set(
        "search.evals_per_search",
        ratio(evaluations as f64, count as f64),
        count,
    );
    sheet.set(
        "search.feasible_per_eval",
        ratio(traced_e2e.feasible.0 as f64, evaluations as f64),
        evaluations as usize,
    );
    sheet.set(
        "tune.single_eval_frac",
        ratio(single as f64, count as f64),
        count,
    );
    sheet.set(
        "pool.worker_busy_frac",
        ratio(busy, ctx.workers as f64 * traced_wall),
        1,
    );
    sheet.set(
        "trace.overhead_frac",
        ratio(median(&rates[0]), median(&rates[1])) - 1.0,
        bursts,
    );
    traced_e2e.latency_ms = open_latency(&open, open_budget);
    sheet.set_p99(&traced_e2e);
    let closed_failed = check(
        ctx,
        &inputs,
        &closed,
        addr,
        &codecs,
        &mut EndToEnd::default(),
    )?;
    let entries = server.stop();
    sheet.set("tune.cache_entries", entries as f64, 1);
    Ok(RunResult {
        attempted: (closed.len() + traced_closed.len() + open.len()) as u64 + 1,
        failed: closed_failed + failed + u64::from(!selftest),
        end_to_end: Vec::new(),
        per_layer: sheet.into_vec(),
    })
}
