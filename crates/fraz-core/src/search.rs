//! The FRaZ fixed-ratio search: worker task (Algorithm 1) and region-parallel
//! training (Algorithm 2).
//!
//! Given a black-box error-bounded compressor, a dataset and a target
//! compression ratio, [`FixedRatioSearch`] finds an error-bound setting whose
//! achieved ratio falls inside the user's acceptable region
//! `[ρt(1−ε), ρt(1+ε)]`, never exceeding an optional maximum allowed error
//! `U`.  The error-bound range is split into overlapping regions searched
//! concurrently; the first region to find an acceptable setting cancels the
//! others (early termination), and if none succeeds the closest observed
//! ratio is reported as an infeasible-but-best-effort answer — exactly the
//! semantics of the paper's Algorithms 1 and 2.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{CompressionOutcome, Compressor, PreparedField};

use crate::cancel::CancelToken;
use crate::hint::{BoundPredictor, HintQuery, HintReport, HintSource, HintTarget, SearchHint};
use crate::loss::RatioLoss;
use crate::optim::{GlobalMinimizer, OptimizerConfig};
use crate::regions::{make_error_bounds, BoundScale, Region};

/// Configuration of a fixed-ratio search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Target compression ratio `ρt`.
    pub target_ratio: f64,
    /// Acceptable relative deviation `ε` from the target ratio.
    pub tolerance: f64,
    /// Maximum allowed compression error `U`; `None` uses the compressor's
    /// full valid range (the paper's default upper bound).
    pub max_error_bound: Option<f64>,
    /// Number of overlapping search regions (the paper found 12 to be a good
    /// default).
    pub regions: usize,
    /// Fractional overlap between adjacent regions (paper: 10 %).
    pub region_overlap: f64,
    /// Maximum objective evaluations per region.
    pub max_iterations: usize,
    /// Enable the early-termination cutoff (the paper's Dlib modification).
    pub use_cutoff: bool,
    /// Layout of the regions on the error-bound axis.
    pub scale: BoundScale,
    /// Concurrent worker tasks for region-parallel training; 0 means one
    /// per region (capped by the available parallelism).  Region tasks run
    /// on a shared [`fraz_pool::Pool`], so this caps the number of regions
    /// in flight for *this* search, not OS threads.
    pub threads: usize,
    /// After the search, re-run the best setting with full quality metrics.
    pub measure_final_quality: bool,
}

impl SearchConfig {
    /// A search for `target_ratio` within relative tolerance `tolerance`,
    /// with the paper's defaults for everything else.
    pub fn new(target_ratio: f64, tolerance: f64) -> Self {
        Self {
            target_ratio,
            tolerance,
            max_error_bound: None,
            regions: 12,
            region_overlap: 0.1,
            max_iterations: 24,
            use_cutoff: true,
            scale: BoundScale::Log,
            threads: 0,
            measure_final_quality: true,
        }
    }

    /// Builder-style setter for the maximum allowed compression error `U`.
    pub fn with_max_error(mut self, max_error_bound: f64) -> Self {
        self.max_error_bound = Some(max_error_bound);
        self
    }

    /// Builder-style setter for the number of regions.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Builder-style setter for the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn worker_count(&self) -> usize {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        if self.threads == 0 {
            self.regions.min(available)
        } else {
            self.threads.min(self.regions).max(1)
        }
    }

    fn loss(&self) -> RatioLoss {
        RatioLoss::new(self.target_ratio, self.tolerance)
    }
}

/// Result of searching one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionOutcome {
    /// The region that was searched.
    pub region: Region,
    /// Best error bound found in the region.
    pub error_bound: f64,
    /// Compression ratio achieved at that bound.
    pub compression_ratio: f64,
    /// Loss at that bound.
    pub loss: f64,
    /// Number of compressor invocations spent in the region.
    pub iterations: usize,
    /// True if the region's search hit the early-termination cutoff.
    pub reached_cutoff: bool,
    /// True if the region was cancelled by another region's success.
    pub cancelled: bool,
    /// The full compression outcome measured at `error_bound`, carried out
    /// of the region so the winning bound need not be re-compressed after
    /// the race (absent only if the best evaluation errored).
    pub measured: Option<CompressionOutcome>,
}

/// Result of a fixed-ratio search on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The recommended error-bound setting.
    pub error_bound: f64,
    /// The outcome of compressing at that setting (with quality metrics when
    /// `measure_final_quality` is set).
    pub best: CompressionOutcome,
    /// True when the achieved ratio lies inside the acceptable region —
    /// i.e. the requested ratio was feasible.
    pub feasible: bool,
    /// Whether a fresh training search ran (false when a previous time-step's
    /// prediction was reused, Algorithm 1).
    pub retrained: bool,
    /// Total number of compressor invocations the *search* spent (the
    /// optional final quality pass of `measure_final_quality` is not a
    /// search evaluation and is not counted).
    pub evaluations: usize,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
    /// Per-region details (empty when the prediction was reused).
    pub regions: Vec<RegionOutcome>,
    /// What the search did with its seeding hint (`None` on cold runs).
    pub hint: Option<HintReport>,
    /// True when a [`CancelToken`] stopped the search early (deadline or
    /// explicit cancel): `best` is then the best-so-far answer, not a
    /// converged one.
    pub deadline_hit: bool,
}

/// The FRaZ fixed-ratio search driver for a single compressor.
pub struct FixedRatioSearch {
    compressor: Arc<dyn Compressor>,
    config: SearchConfig,
    pool: Option<Arc<Pool>>,
    codec_config: String,
    cancel: Option<CancelToken>,
}

impl FixedRatioSearch {
    /// Create a search driver over the given compressor backend.
    ///
    /// Accepts either an owned `Box<dyn Compressor>` (e.g. fresh from
    /// `registry::build`) or a shared `Arc<dyn Compressor>` handle, so one
    /// backend instance can serve several searches concurrently.
    ///
    /// Region tasks run on the process-wide [`fraz_pool::global`] pool
    /// unless [`FixedRatioSearch::with_pool`] installs a dedicated one; no
    /// call to [`FixedRatioSearch::run`] ever spawns an OS thread.
    pub fn new(compressor: impl Into<Arc<dyn Compressor>>, config: SearchConfig) -> Self {
        Self {
            compressor: compressor.into(),
            config,
            pool: None,
            codec_config: String::new(),
            cancel: None,
        }
    }

    /// Cooperatively stop the search when `token` fires (deadline passed or
    /// explicit cancel).  Checked between compressor evaluations only — a
    /// single evaluation is the atom of work — so the outcome after a fired
    /// token is the best-so-far answer with `deadline_hit: true`.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Run this search's region tasks on `pool` instead of the global
    /// pool.  The orchestrator uses this to put every field's region tasks
    /// on its single shared pool.
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Record the canonical codec-options signature
    /// (`fraz_pressio::Options::signature`) so predictors keying on
    /// (codec + options) see the configuration this search actually runs
    /// with.  Defaults to the empty string (default options).
    pub fn with_codec_config(mut self, codec_config: impl Into<String>) -> Self {
        self.codec_config = codec_config.into();
        self
    }

    /// Borrow the underlying compressor.
    pub fn compressor(&self) -> &dyn Compressor {
        self.compressor.as_ref()
    }

    /// A shared handle to the underlying compressor.
    pub fn compressor_handle(&self) -> Arc<dyn Compressor> {
        Arc::clone(&self.compressor)
    }

    /// Borrow the search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The `(lower, upper)` error-bound range the search will cover for this
    /// dataset, honouring `max_error_bound` (`U`).
    pub fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        let (lower, mut upper) = self.compressor.bound_range(dataset);
        if let Some(u) = self.config.max_error_bound {
            if u > lower {
                upper = upper.min(u);
            }
        }
        (lower, upper.max(lower * (1.0 + 1e-9)))
    }

    /// This search's objective in predictor-readable form.
    pub fn hint_target(&self) -> HintTarget {
        HintTarget::Ratio {
            target_ratio: self.config.target_ratio,
            tolerance: self.config.tolerance,
        }
    }

    /// The [`HintQuery`] a [`BoundPredictor`] is consulted with for this
    /// search on `dataset`.
    pub fn hint_query<'a>(&'a self, dataset: &'a Dataset) -> HintQuery<'a> {
        HintQuery {
            dataset,
            codec: self.compressor.name(),
            codec_config: &self.codec_config,
            target: self.hint_target(),
        }
    }

    /// Algorithm 2: region-parallel training on one dataset.
    pub fn run(&self, dataset: &Dataset) -> SearchOutcome {
        self.run_with_hint(dataset, None)
    }

    /// Compatibility shim over [`FixedRatioSearch::run_with_hint`]: a bare
    /// bound becomes a converged [`HintSource::External`] hint.
    pub fn run_with_prediction(&self, dataset: &Dataset, prediction: Option<f64>) -> SearchOutcome {
        let hint = prediction.map(|p| SearchHint::converged(p, HintSource::External));
        self.run_with_hint(dataset, hint.as_ref())
    }

    /// Consult `predictor` for a hint, run, and report the result back via
    /// [`BoundPredictor::observe`] so the predictor learns from this search.
    pub fn run_with_predictor(
        &self,
        dataset: &Dataset,
        predictor: &dyn BoundPredictor,
    ) -> SearchOutcome {
        self.run_prepared(&*self.compressor.prepare(dataset), Some(predictor))
    }

    /// Run on a field the caller prepared with this search's compressor
    /// ([`Compressor::prepare`]), so the caller can compress the answer
    /// from the same preparation.  With a `predictor` this is
    /// [`run_with_predictor`](Self::run_with_predictor), without one
    /// [`run`](Self::run).
    pub fn run_prepared(
        &self,
        field: &dyn PreparedField,
        predictor: Option<&dyn BoundPredictor>,
    ) -> SearchOutcome {
        let Some(predictor) = predictor else {
            return self.search(field, None);
        };
        let query = self.hint_query(field.dataset());
        let hint = predictor.predict(&query);
        let outcome = self.search(field, hint.as_ref());
        predictor.observe(&query, outcome.error_bound, outcome.feasible);
        outcome
    }

    /// Algorithm 1: probe the hinted bound first; fall back to full
    /// region-parallel training when it misses (narrowed to the hint's
    /// bracket, if it carries one).
    pub fn run_with_hint(&self, dataset: &Dataset, hint: Option<&SearchHint>) -> SearchOutcome {
        self.search(&*self.compressor.prepare(dataset), hint)
    }

    /// [`run_with_hint`](Self::run_with_hint) on a prepared field: every
    /// evaluation (probe, regions, fallback, final quality pass) goes
    /// through `field`.
    fn search(&self, field: &dyn PreparedField, hint: Option<&SearchHint>) -> SearchOutcome {
        let start = Instant::now();
        let dataset = field.dataset();
        let loss = self.config.loss();

        // Step 1 of Algorithm 1: probe the hint.  When the final quality
        // pass is requested the probe measures quality directly, so a hint
        // that lands costs exactly ONE compressor call — the probe *is* the
        // verify pass — and `evaluations: 1` is the true invocation count.
        let mut hint_report: Option<HintReport> = None;
        let token_fired = |this: &Self| this.cancel.as_ref().is_some_and(|t| t.is_cancelled());
        if let Some(h) = hint.filter(|h| h.is_valid() && !token_fired(self)) {
            let probe = field.evaluate(h.bound, self.config.measure_final_quality);
            let hit = probe
                .as_ref()
                .is_ok_and(|o| loss.is_acceptable(o.compression_ratio));
            hint_report = Some(HintReport {
                source: h.source,
                bound: h.bound,
                hit,
                probes: 1,
            });
            if hit {
                return SearchOutcome {
                    error_bound: h.bound,
                    feasible: true,
                    retrained: false,
                    evaluations: 1,
                    elapsed: start.elapsed(),
                    regions: Vec::new(),
                    hint: hint_report,
                    best: probe.expect("hit implies a successful evaluation"),
                    deadline_hit: false,
                };
            }
        }
        let probe_evaluations = hint_report.as_ref().map_or(0, |r| r.probes);

        // Step 2: full region-parallel training.  A hint bracket narrows
        // the searched range (clipped to the compressor's valid range).
        let (mut lower, mut upper) = self.bound_range(dataset);
        if let Some((blo, bhi)) = hint.and_then(|h| h.bracket) {
            let (nlo, nhi) = (lower.max(blo), upper.min(bhi));
            if nlo < nhi {
                (lower, upper) = (nlo, nhi);
            }
        }
        let regions = make_error_bounds(
            lower,
            upper,
            self.config.regions,
            self.config.region_overlap,
            self.config.scale,
        );
        let cancel = AtomicBool::new(false);
        let workers = self.config.worker_count().min(regions.len()).max(1);

        // `workers` runner tasks drain the regions through a shared atomic
        // cursor — the same dynamic load balancing as the old mutex-backed
        // queue (any idle runner claims the next region) without a queue
        // or a result mutex, and zero OS threads spawned here.  Highest-
        // bound regions go first (matching the original LIFO pops): for
        // targets well above 1:1 they are the likeliest to contain the
        // answer, which is what makes early termination pay.
        let regions_desc: Vec<Region> = {
            let mut r = regions;
            r.reverse();
            r
        };
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Vec<RegionOutcome>> = vec![Vec::new(); workers];
        if workers == 1 {
            self.run_region_queue(field, &loss, &regions_desc, &next, &cancel, &mut slots[0]);
        } else {
            let pool: &Pool = match &self.pool {
                Some(pool) => pool,
                None => fraz_pool::global(),
            };
            pool.scope(|scope| {
                let cancel = &cancel;
                let loss = &loss;
                let next = &next;
                let regions_desc = &regions_desc;
                for slot in slots.iter_mut() {
                    scope.spawn(move || {
                        self.run_region_queue(field, loss, regions_desc, next, cancel, slot)
                    });
                }
            });
        }
        let regions_out: Vec<RegionOutcome> = slots.into_iter().flatten().collect();

        let mut best: Option<&RegionOutcome> = None;
        for r in &regions_out {
            let better = match best {
                None => true,
                Some(b) => r.loss < b.loss,
            };
            if better {
                best = Some(r);
            }
        }
        let (error_bound, feasible) = match best {
            Some(b) => (b.error_bound, loss.is_acceptable(b.compression_ratio)),
            None => (lower, false),
        };
        // A missed prediction probe still invoked the compressor once.
        let mut evaluations: usize =
            probe_evaluations + regions_out.iter().map(|r| r.iterations).sum::<usize>();
        // The winning region already measured its best bound — reuse that
        // outcome instead of re-running the compressor, and only count an
        // extra evaluation in the rare case we really must re-measure.
        let measured = match best.and_then(|b| b.measured.clone()) {
            Some(m) => m,
            None => {
                evaluations += 1;
                field
                    .evaluate(error_bound, false)
                    .unwrap_or(CompressionOutcome {
                        compressor: self.compressor.name().to_string(),
                        error_bound,
                        compression_ratio: 0.0,
                        bit_rate: 0.0,
                        compressed_bytes: 0,
                        original_bytes: dataset.byte_size(),
                        quality: None,
                    })
            }
        };
        let deadline_hit = token_fired(self);
        // Skip the extra quality pass when the token already fired: the
        // caller asked us to stop, so the answer ships as measured.
        let best = if deadline_hit {
            measured
        } else {
            self.finalize(field, error_bound, measured)
        };
        SearchOutcome {
            error_bound,
            best,
            feasible,
            retrained: true,
            evaluations,
            elapsed: start.elapsed(),
            regions: regions_out,
            hint: hint_report,
            deadline_hit,
        }
    }

    /// One runner task: repeatedly claim the next unstarted region via the
    /// shared cursor and search it, observing and raising the shared
    /// early-termination flag (Algorithm 2, lines 9-14).
    fn run_region_queue(
        &self,
        field: &dyn PreparedField,
        loss: &RatioLoss,
        regions: &[Region],
        next: &AtomicUsize,
        cancel: &AtomicBool,
        out: &mut Vec<RegionOutcome>,
    ) {
        loop {
            if cancel.load(Ordering::Relaxed) {
                break;
            }
            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                // Deadline/cancel: stop every runner, not just this one.
                cancel.store(true, Ordering::Relaxed);
                break;
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(region) = regions.get(index) else {
                break;
            };
            let outcome = self.search_region(field, loss, *region, cancel);
            let acceptable = loss.is_acceptable(outcome.compression_ratio);
            out.push(outcome);
            if acceptable {
                // Early termination: cancel every region that has not
                // finished yet.
                cancel.store(true, Ordering::Relaxed);
                break;
            }
        }
    }

    /// Worker task for one region (the inner call of Algorithm 1:
    /// `train_with_cutoff`).
    fn search_region(
        &self,
        field: &dyn PreparedField,
        loss: &RatioLoss,
        region: Region,
        cancel: &AtomicBool,
    ) -> RegionOutcome {
        // Track the best full outcome seen so the caller can reuse the
        // winning measurement instead of re-compressing after the race.
        let mut best_seen: Option<(f64, CompressionOutcome)> = None;
        let mut objective = |e: f64| {
            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                // The minimizer polls `cancel` between evaluations; raising
                // it here stops this optimization without paying another
                // compressor call, and the gamma loss can never displace a
                // real best-so-far observation.
                cancel.store(true, Ordering::Relaxed);
                return (loss.gamma, 0.0);
            }
            match field.evaluate(e, false) {
                Ok(outcome) => {
                    let l = loss.loss(outcome.compression_ratio);
                    if best_seen.as_ref().is_none_or(|(seen, _)| l < *seen) {
                        best_seen = Some((l, outcome.clone()));
                    }
                    (l, outcome.compression_ratio)
                }
                Err(_) => (loss.gamma, 0.0),
            }
        };
        let optimizer = GlobalMinimizer::new(OptimizerConfig {
            max_evaluations: self.config.max_iterations,
            cutoff: if self.config.use_cutoff {
                loss.cutoff()
            } else {
                0.0
            },
            ..Default::default()
        });
        let trace = optimizer.minimize(&mut objective, region.lower, region.upper, Some(cancel));
        // Both trackers keep the *first* minimum in evaluation order, so
        // this equality holds whenever the best evaluation succeeded; the
        // comparison guards the corner where it errored (loss = gamma).
        let measured = best_seen
            .map(|(_, outcome)| outcome)
            .filter(|outcome| outcome.error_bound == trace.best.x);
        RegionOutcome {
            region,
            error_bound: trace.best.x,
            compression_ratio: trace.best.ratio,
            loss: trace.best.loss,
            iterations: trace.iterations(),
            reached_cutoff: trace.reached_cutoff,
            cancelled: trace.cancelled,
            measured,
        }
    }

    /// Optionally re-measure the chosen bound with full quality metrics.
    fn finalize(
        &self,
        field: &dyn PreparedField,
        error_bound: f64,
        fallback: CompressionOutcome,
    ) -> CompressionOutcome {
        if !self.config.measure_final_quality {
            return fallback;
        }
        field.evaluate(error_bound, true).unwrap_or(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hint::LastConverged;
    use fraz_data::Dims;
    use fraz_pressio::{registry, PressioError};

    fn smooth_field() -> Dataset {
        let (nz, ny, nx) = (8usize, 20usize, 20usize);
        let mut values = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    values.push(
                        ((x as f32 * 0.31).sin() + (y as f32 * 0.17).cos()) * 5.0
                            + (z as f32 * 0.41).sin() * 2.0,
                    );
                }
            }
        }
        Dataset::from_f32("test", "smooth", 0, Dims::d3(nz, ny, nx), values)
    }

    fn quick_config(target: f64) -> SearchConfig {
        SearchConfig {
            regions: 4,
            max_iterations: 16,
            threads: 2,
            ..SearchConfig::new(target, 0.1)
        }
    }

    #[test]
    fn feasible_target_is_hit_within_tolerance() {
        let dataset = smooth_field();
        let search =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), quick_config(10.0));
        let outcome = search.run(&dataset);
        assert!(outcome.feasible, "10:1 should be feasible on smooth data");
        assert!(
            (outcome.best.compression_ratio - 10.0).abs() <= 1.0 + 1e-9,
            "ratio {}",
            outcome.best.compression_ratio
        );
        assert!(outcome.retrained);
        assert!(outcome.evaluations >= 1);
        assert!(outcome.best.quality.is_some());
        // The recommended bound really is what produced that ratio.
        let check = search
            .compressor()
            .evaluate(&dataset, outcome.error_bound, false)
            .unwrap();
        assert!((check.compression_ratio - outcome.best.compression_ratio).abs() < 1e-9);
    }

    #[test]
    fn infeasible_target_reports_closest_ratio() {
        let dataset = smooth_field();
        // A ratio below the codec's effective floor (headers alone prevent
        // 1.01:1 exactly) is infeasible; FRaZ must say so and return its
        // closest observation rather than erroring.
        let config = SearchConfig {
            tolerance: 0.001,
            ..quick_config(1.01)
        };
        let search = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config);
        let outcome = search.run(&dataset);
        assert!(!outcome.feasible);
        assert!(outcome.best.compression_ratio > 0.0);
        assert!(!outcome.regions.is_empty());
    }

    #[test]
    fn prediction_reuse_skips_training() {
        let dataset = smooth_field();
        let search =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), quick_config(10.0));
        let first = search.run(&dataset);
        assert!(first.feasible);
        let second = search.run_with_prediction(&dataset, Some(first.error_bound));
        assert!(second.feasible);
        assert!(!second.retrained, "prediction should have been reused");
        assert_eq!(second.evaluations, 1);
        assert!(second.regions.is_empty());
    }

    #[test]
    fn bad_prediction_falls_back_to_training() {
        let dataset = smooth_field();
        let search =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), quick_config(10.0));
        let outcome = search.run_with_prediction(&dataset, Some(1e-12));
        assert!(
            outcome.retrained,
            "a useless prediction must trigger training"
        );
        assert!(outcome.feasible);
    }

    #[test]
    fn max_error_bound_is_respected() {
        let dataset = smooth_field();
        let range = dataset.stats().value_range();
        let cap = range * 1e-6;
        let config = quick_config(200.0).with_max_error(cap);
        let search = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config);
        let (_, upper) = search.bound_range(&dataset);
        assert!(upper <= cap * (1.0 + 1e-9));
        let outcome = search.run(&dataset);
        // With such a tight error ceiling a 200:1 ratio is infeasible, and
        // the recommended bound must never exceed the ceiling.
        assert!(outcome.error_bound <= cap * (1.0 + 1e-9));
        assert!(!outcome.feasible);
    }

    #[test]
    fn works_with_every_error_bounded_backend() {
        let dataset = smooth_field();
        for name in registry::error_bounded_names() {
            let backend = registry::build_default(&name).unwrap();
            if !backend.supports_dims(&dataset.dims) {
                continue;
            }
            let search = FixedRatioSearch::new(backend, quick_config(8.0));
            let outcome = search.run(&dataset);
            assert!(
                outcome.best.compression_ratio > 1.0,
                "{name}: ratio {}",
                outcome.best.compression_ratio
            );
        }
    }

    #[test]
    fn single_threaded_and_parallel_agree_on_feasibility() {
        let dataset = smooth_field();
        let serial = FixedRatioSearch::new(
            registry::build_default("sz").unwrap(),
            SearchConfig {
                threads: 1,
                ..quick_config(12.0)
            },
        )
        .run(&dataset);
        let parallel = FixedRatioSearch::new(
            registry::build_default("sz").unwrap(),
            SearchConfig {
                threads: 4,
                ..quick_config(12.0)
            },
        )
        .run(&dataset);
        assert_eq!(serial.feasible, parallel.feasible);
    }

    /// A deterministic codec whose ratio is a known monotone function of the
    /// bound, counting every `compress` call — the ground truth against
    /// which `evaluations` accounting is pinned exactly.
    struct CountingCodec {
        calls: AtomicUsize,
        original: Dataset,
    }

    impl CountingCodec {
        const LO: f64 = 1e-6;
        const HI: f64 = 1.0;

        fn new(original: Dataset) -> Self {
            Self {
                calls: AtomicUsize::new(0),
                original,
            }
        }

        fn ratio_at(bound: f64) -> f64 {
            1.0 + 99.0 * ((bound / Self::LO).ln() / (Self::HI / Self::LO).ln())
        }

        /// The bound at which [`CountingCodec::ratio_at`] equals `ratio`.
        fn bound_for(ratio: f64) -> f64 {
            Self::LO * (((ratio - 1.0) / 99.0) * (Self::HI / Self::LO).ln()).exp()
        }
    }

    impl fraz_pressio::Compressor for CountingCodec {
        fn name(&self) -> &str {
            "counting"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (Self::LO, Self::HI)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let bytes = (dataset.byte_size() as f64 / Self::ratio_at(bound)).ceil() as usize;
            Ok(vec![0u8; bytes.max(1)])
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
            Ok(self.original.clone())
        }
    }

    fn counting_search(
        target: f64,
        measure_final_quality: bool,
    ) -> (FixedRatioSearch, Arc<CountingCodec>) {
        let codec = Arc::new(CountingCodec::new(smooth_field()));
        let config = SearchConfig {
            regions: 4,
            max_iterations: 16,
            threads: 1, // serial: the region race is deterministic
            measure_final_quality,
            ..SearchConfig::new(target, 0.1)
        };
        let search = FixedRatioSearch::new(codec.clone() as Arc<dyn Compressor>, config);
        (search, codec)
    }

    #[test]
    fn hinted_hit_costs_exactly_one_compression() {
        let dataset = smooth_field();
        for mfq in [false, true] {
            let (search, codec) = counting_search(10.0, mfq);
            let hint = SearchHint::converged(CountingCodec::bound_for(10.0), HintSource::TuneCache);
            let outcome = search.run_with_hint(&dataset, Some(&hint));
            assert!(outcome.feasible && !outcome.retrained);
            // The probe IS the verify pass: one compressor call total, and
            // `evaluations` reports that true count (the pre-refactor code
            // spent a second, uncounted call on the quality pass).
            assert_eq!(outcome.evaluations, 1, "mfq={mfq}");
            assert_eq!(codec.calls.load(Ordering::Relaxed), 1, "mfq={mfq}");
            assert_eq!(outcome.best.quality.is_some(), mfq);
            let report = outcome.hint.expect("hinted run reports its hint");
            assert!(report.hit);
            assert_eq!(report.probes, 1);
            assert_eq!(report.source, HintSource::TuneCache);
            assert!(outcome.regions.is_empty());
        }
    }

    #[test]
    fn near_miss_counts_probe_plus_training_exactly() {
        let dataset = smooth_field();
        let (search, codec) = counting_search(10.0, false);
        // A hint whose ratio (≈1) is far outside the window: the probe runs,
        // misses, and the full training race follows.
        let hint = SearchHint::converged(CountingCodec::LO, HintSource::External);
        let outcome = search.run_with_hint(&dataset, Some(&hint));
        assert!(outcome.retrained && outcome.feasible);
        let report = outcome.hint.expect("missed hint still reported");
        assert!(!report.hit);
        assert_eq!(report.probes, 1);
        // Every compress call — the missed probe AND the training
        // evaluations — is accounted for, exactly.
        assert_eq!(outcome.evaluations, codec.calls.load(Ordering::Relaxed));
        assert!(outcome.evaluations > 1);
    }

    #[test]
    fn cold_run_counts_every_compression_exactly() {
        let dataset = smooth_field();
        let (search, codec) = counting_search(10.0, false);
        let outcome = search.run(&dataset);
        assert!(outcome.retrained);
        assert!(outcome.hint.is_none(), "cold runs carry no hint report");
        assert_eq!(outcome.evaluations, codec.calls.load(Ordering::Relaxed));
    }

    #[test]
    fn hint_bracket_narrows_the_fallback_range() {
        let dataset = smooth_field();
        let (search, _) = counting_search(10.0, false);
        let answer = CountingCodec::bound_for(10.0);
        // A missing hint bound with a tight bracket around the answer: the
        // fallback race must stay inside the bracket and still converge.
        let hint = SearchHint::seed(CountingCodec::LO, HintSource::Analytic)
            .with_bracket(answer / 10.0, answer * 10.0);
        let outcome = search.run_with_hint(&dataset, Some(&hint));
        assert!(outcome.feasible);
        for region in &outcome.regions {
            assert!(region.region.lower >= answer / 10.0 * (1.0 - 1e-9));
            assert!(region.region.upper <= answer * 10.0 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn predictor_round_trip_learns_and_reuses() {
        let dataset = smooth_field();
        let (search, codec) = counting_search(10.0, false);
        let predictor = LastConverged::new(HintSource::WarmStart);
        let first = search.run_with_predictor(&dataset, &predictor);
        assert!(first.retrained && first.feasible);
        assert_eq!(predictor.bound(), Some(first.error_bound));
        let before = codec.calls.load(Ordering::Relaxed);
        let second = search.run_with_predictor(&dataset, &predictor);
        assert!(!second.retrained);
        assert_eq!(second.evaluations, 1);
        assert_eq!(codec.calls.load(Ordering::Relaxed), before + 1);
        assert_eq!(second.hint.unwrap().source, HintSource::WarmStart);
    }

    #[test]
    fn cancelled_token_stops_training_before_it_starts() {
        let dataset = smooth_field();
        let (search, codec) = counting_search(10.0, false);
        let token = CancelToken::new();
        token.cancel();
        let outcome = search.with_cancel(token).run(&dataset);
        assert!(outcome.deadline_hit);
        assert!(!outcome.feasible);
        // Bounded by the single best-effort measurement, not a full race.
        assert!(codec.calls.load(Ordering::Relaxed) <= 1);
    }

    #[test]
    fn expired_deadline_returns_best_so_far() {
        let dataset = smooth_field();
        let (search, codec) = counting_search(10.0, false);
        let token = CancelToken::with_timeout(Duration::ZERO);
        let search = search.with_cancel(token);
        let outcome = search.run(&dataset);
        assert!(outcome.deadline_hit);
        let spent = codec.calls.load(Ordering::Relaxed);
        // Cancellation latency is bounded by one evaluation per runner plus
        // the final measurement — far below the full race budget.
        assert!(spent <= 4, "spent {spent} evaluations after expiry");
    }

    #[test]
    fn unexpired_token_leaves_search_untouched() {
        let dataset = smooth_field();
        let (search, _) = counting_search(10.0, false);
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        let outcome = search.with_cancel(token).run(&dataset);
        assert!(outcome.feasible);
        assert!(!outcome.deadline_hit);
    }

    #[test]
    fn config_builders() {
        let c = SearchConfig::new(50.0, 0.05)
            .with_regions(6)
            .with_threads(3)
            .with_max_error(0.5);
        assert_eq!(c.regions, 6);
        assert_eq!(c.threads, 3);
        assert_eq!(c.max_error_bound, Some(0.5));
        assert_eq!(c.worker_count(), 3);
        assert_eq!(SearchConfig::new(10.0, 0.1).with_regions(0).regions, 1);
    }
}
