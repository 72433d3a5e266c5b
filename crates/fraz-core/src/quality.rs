//! Fixed-*quality* search — the paper's first future-work item (§VII).
//!
//! FRaZ's conclusion asks for "arbitrary user error bounds … that correspond
//! with the quality of a scientist's analysis result", citing work that
//! prescribes a minimum SSIM for valid climate analyses.  This module
//! generalizes the fixed-ratio machinery to that setting: instead of a target
//! compression ratio, the user states a target value of a *quality metric*
//! (PSNR, SSIM, or a bound on the RMSE/maximum error) and FRaZ searches the
//! error-bound space for the setting that **maximizes compression while still
//! meeting the quality target**.
//!
//! Unlike the ratio objective, quality metrics are (noisily) monotone in the
//! error bound, so a different search strategy is appropriate: the search
//! brackets the constraint boundary with a coarse logarithmic sweep and then
//! bisects it, keeping the most compressive setting that still satisfies the
//! constraint.  (The ratio search's MaxLIPO machinery is unnecessary here —
//! there is no spiky multi-modal landscape to escape.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{registry, BoundKind, CompressionOutcome, Compressor, PreparedField};

use crate::cancel::CancelToken;
use crate::hint::{BoundPredictor, HintQuery, HintReport, HintSource, HintTarget, SearchHint};
use crate::regions::BoundScale;

/// The quality metric a [`FixedQualitySearch`] constrains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QualityMetric {
    /// Peak signal-to-noise ratio in dB; the constraint is `psnr >= target`.
    PsnrAtLeast(f64),
    /// Mean SSIM over the central slice; the constraint is `ssim >= target`.
    SsimAtLeast(f64),
    /// Root-mean-square error; the constraint is `rmse <= target`.
    RmseAtMost(f64),
    /// Maximum pointwise error; the constraint is `max_error <= target`.
    MaxErrorAtMost(f64),
}

impl QualityMetric {
    /// True when the measured quality report satisfies the constraint.
    pub fn is_satisfied(&self, quality: &fraz_metrics::QualityReport) -> bool {
        match *self {
            QualityMetric::PsnrAtLeast(target) => quality.psnr >= target,
            QualityMetric::SsimAtLeast(target) => quality.ssim >= target,
            QualityMetric::RmseAtMost(target) => quality.rmse <= target,
            QualityMetric::MaxErrorAtMost(target) => quality.max_abs_error <= target,
        }
    }

    /// A human-readable description of the constraint.
    pub fn describe(&self) -> String {
        match *self {
            QualityMetric::PsnrAtLeast(t) => format!("PSNR >= {t} dB"),
            QualityMetric::SsimAtLeast(t) => format!("SSIM >= {t}"),
            QualityMetric::RmseAtMost(t) => format!("RMSE <= {t}"),
            QualityMetric::MaxErrorAtMost(t) => format!("max error <= {t}"),
        }
    }
}

/// Configuration of a fixed-quality search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySearchConfig {
    /// The quality constraint to honour.
    pub metric: QualityMetric,
    /// Maximum objective evaluations (each is a compress + decompress +
    /// measure round, so noticeably more expensive than a ratio evaluation).
    pub max_iterations: usize,
    /// Layout of the search on the error-bound axis.
    pub scale: BoundScale,
    /// Stop early once an acceptable setting whose ratio is within
    /// `improvement_tolerance` (relative) of the best seen so far has been
    /// stable for `patience` evaluations.  Smaller = more thorough.
    pub improvement_tolerance: f64,
    /// Maximum allowed error bound (the same `U` as the ratio search).
    pub max_error_bound: Option<f64>,
    /// Seed the search from the codec's closed-form PSNR↔bound model when
    /// its descriptor declares one (see [`fraz_pressio::PsnrBoundModel`]);
    /// codecs without a model bracket as before.  On by default.
    pub analytic_seed: bool,
}

impl QualitySearchConfig {
    /// A search for the given quality constraint with sensible defaults.
    pub fn new(metric: QualityMetric) -> Self {
        Self {
            metric,
            max_iterations: 24,
            scale: BoundScale::Log,
            improvement_tolerance: 0.02,
            max_error_bound: None,
            analytic_seed: true,
        }
    }
}

/// Result of a fixed-quality search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySearchOutcome {
    /// Recommended error-bound setting.
    pub error_bound: f64,
    /// The outcome at that setting (always includes the quality report).
    pub best: CompressionOutcome,
    /// True when at least one evaluated setting satisfied the constraint.
    pub satisfiable: bool,
    /// Number of compress+measure rounds performed.
    pub evaluations: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// What the search did with its seeding hint (`None` on cold runs).
    pub hint: Option<HintReport>,
    /// True when a [`CancelToken`] stopped the search early (deadline or
    /// explicit cancel): `best` is then the best-so-far acceptable setting,
    /// not the boundary-polished one.
    pub deadline_hit: bool,
}

/// Searches for the most compressive error bound that still satisfies a
/// quality constraint.
pub struct FixedQualitySearch {
    compressor: Arc<dyn Compressor>,
    config: QualitySearchConfig,
    pool: Option<Arc<Pool>>,
    codec_config: String,
    cancel: Option<CancelToken>,
}

impl FixedQualitySearch {
    /// Create a search driver over the given compressor backend (owned box
    /// or shared handle).
    ///
    /// The phase-1 bracketing sweep runs its (independent) evaluations as
    /// tasks on the process-wide [`fraz_pool::global`] pool unless
    /// [`with_pool`](Self::with_pool) installs a shared one; no call to
    /// [`run`](Self::run) ever spawns an OS thread.
    pub fn new(compressor: impl Into<Arc<dyn Compressor>>, config: QualitySearchConfig) -> Self {
        Self {
            compressor: compressor.into(),
            config,
            pool: None,
            codec_config: String::new(),
            cancel: None,
        }
    }

    /// Cooperatively stop the search when `token` fires (deadline passed or
    /// explicit cancel).  Checked between compress+measure rounds only, so
    /// cancellation latency is bounded by one evaluation and the outcome is
    /// the best-so-far acceptable setting with `deadline_hit: true`.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Record the canonical codec-options signature
    /// ([`fraz_pressio::Options::signature`]) carried in every
    /// [`HintQuery`], so predictors can key on the exact configuration.
    pub fn with_codec_config(mut self, codec_config: impl Into<String>) -> Self {
        self.codec_config = codec_config.into();
        self
    }

    /// Run the sweep evaluations on `pool` instead of the global pool.  The
    /// CLI runner uses this to put quality searches on the same shared
    /// work-stealing pool as the orchestrator's ratio fields.
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Borrow the underlying compressor.
    pub fn compressor(&self) -> &dyn Compressor {
        self.compressor.as_ref()
    }

    /// Run the search on one dataset.
    ///
    /// When [`QualitySearchConfig::analytic_seed`] is set (the default) and
    /// the codec's descriptor declares a model covering the metric, the
    /// search starts from that analytic first guess (see
    /// [`analytic_hint`](Self::analytic_hint)) instead of the log-spaced
    /// sweep.
    pub fn run(&self, dataset: &Dataset) -> QualitySearchOutcome {
        self.run_prepared(&*self.compressor.prepare(dataset), None)
    }

    /// Ask `predictor` for a seed (falling back to the analytic model when
    /// it declines), run the search, and close the loop through
    /// [`BoundPredictor::observe`].
    pub fn run_with_predictor(
        &self,
        dataset: &Dataset,
        predictor: &dyn BoundPredictor,
    ) -> QualitySearchOutcome {
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
    ) -> QualitySearchOutcome {
        let dataset = field.dataset();
        let query = self.hint_query(dataset);
        let hint = predictor
            .and_then(|p| p.predict(&query))
            .filter(SearchHint::is_valid)
            .or_else(|| {
                if self.config.analytic_seed {
                    self.analytic_hint(dataset)
                } else {
                    None
                }
            });
        let outcome = self.search(field, hint.as_ref());
        if let Some(predictor) = predictor {
            predictor.observe(&query, outcome.error_bound, outcome.satisfiable);
        }
        outcome
    }

    /// The predictor-facing description of this search over `dataset`.
    pub fn hint_query<'a>(&'a self, dataset: &'a Dataset) -> HintQuery<'a> {
        HintQuery {
            dataset,
            codec: self.compressor.name(),
            codec_config: &self.codec_config,
            target: self.hint_target(),
        }
    }

    fn hint_target(&self) -> HintTarget {
        match self.config.metric {
            QualityMetric::PsnrAtLeast(t) => HintTarget::MinPsnr(t),
            QualityMetric::SsimAtLeast(t) => HintTarget::MinSsim(t),
            QualityMetric::RmseAtMost(t) => HintTarget::MaxRmse(t),
            QualityMetric::MaxErrorAtMost(t) => HintTarget::MaxError(t),
        }
    }

    /// The analytic first guess for this search, when the codec's registry
    /// descriptor covers the metric:
    ///
    /// * PSNR targets invert the descriptor's
    ///   [`PsnrBoundModel`](fraz_pressio::PsnrBoundModel);
    /// * RMSE targets use the same uniform-quantization assumption
    ///   (`rmse = e/√3` ⇒ `e = √3·rmse`);
    /// * max-error targets on pointwise-guaranteed codecs *are* the answer
    ///   (bound = target), so the hint is marked converged;
    /// * SSIM has no closed form — `None`, bracket cold.
    pub fn analytic_hint(&self, dataset: &Dataset) -> Option<SearchHint> {
        let descriptor = registry::describe(self.compressor.name())?;
        let hint = match self.config.metric {
            QualityMetric::PsnrAtLeast(target) => {
                let range = dataset.stats().value_range();
                let bound = descriptor.psnr_model?.bound_for_psnr(range, target)?;
                SearchHint::seed(bound, HintSource::Analytic)
                    .with_bracket(bound / 16.0, bound * 16.0)
            }
            QualityMetric::RmseAtMost(target) => {
                descriptor.psnr_model?;
                let bound = 3f64.sqrt() * target;
                SearchHint::seed(bound, HintSource::Analytic)
                    .with_bracket(bound / 16.0, bound * 16.0)
            }
            QualityMetric::MaxErrorAtMost(target) => {
                if !matches!(
                    descriptor.bound_kind,
                    BoundKind::AbsoluteError | BoundKind::AccuracyTolerance
                ) {
                    return None;
                }
                SearchHint::converged(target, HintSource::Analytic)
            }
            QualityMetric::SsimAtLeast(_) => return None,
        };
        hint.is_valid().then_some(hint)
    }

    /// Run the search seeded by `hint` (cold when `None`).
    ///
    /// A converged hint that verifies is accepted outright at one
    /// evaluation.  Any other usable hint replaces the coarse sweep with a
    /// geometric expansion from the probed point, and the usual bisection
    /// polishes the bracket either way.
    pub fn run_with_hint(
        &self,
        dataset: &Dataset,
        hint: Option<&SearchHint>,
    ) -> QualitySearchOutcome {
        self.search(&*self.compressor.prepare(dataset), hint)
    }

    /// [`run_with_hint`](Self::run_with_hint) on a prepared field: every
    /// compress + measure round goes through `field`.
    fn search(&self, field: &dyn PreparedField, hint: Option<&SearchHint>) -> QualitySearchOutcome {
        let start = Instant::now();
        let dataset = field.dataset();
        let (mut lower, mut upper) = self.compressor.bound_range(dataset);
        if let Some(u) = self.config.max_error_bound {
            if u > lower {
                upper = upper.min(u);
            }
        }
        let hint = hint.filter(|h| h.is_valid());
        if let Some((blo, bhi)) = hint.and_then(|h| h.bracket) {
            // A hint bracket narrows the axis the fallback explores.
            let (nlo, nhi) = (lower.max(blo), upper.min(bhi));
            if nlo < nhi {
                lower = nlo;
                upper = nhi;
            }
        }
        let lower = lower;
        let upper = upper.max(lower * (1.0 + 1e-9));

        // Work on a log axis when requested (bounds span decades).
        let to_x = |bound: f64| match self.config.scale {
            BoundScale::Linear => bound,
            BoundScale::Log => bound.log10(),
        };
        let from_x = |x: f64| match self.config.scale {
            BoundScale::Linear => x,
            BoundScale::Log => 10f64.powf(x),
        };

        let (xlo, xhi) = (to_x(lower), to_x(upper));
        let mut evaluations = 0usize;
        let mut best_acceptable: Option<(f64, CompressionOutcome)> = None;

        // One compress + decompress + measure round at axis position `x`,
        // folded into the best-acceptable tracker.
        let evaluate = |x: f64,
                        best: &mut Option<(f64, CompressionOutcome)>,
                        evaluations: &mut usize|
         -> Option<bool> {
            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                // `None` is the caller-side break signal for every loop
                // (expansion, bisection), so a fired token stops the search
                // without another compressor round.
                return None;
            }
            let bound = from_x(x).clamp(lower, upper);
            *evaluations += 1;
            match field.evaluate(bound, true) {
                Ok(outcome) => {
                    let quality = outcome.quality.as_ref().expect("quality requested");
                    let ok = self.config.metric.is_satisfied(quality);
                    if ok {
                        let better = match best {
                            None => true,
                            Some((_, b)) => outcome.compression_ratio > b.compression_ratio,
                        };
                        if better {
                            *best = Some((bound, outcome));
                        }
                    }
                    Some(ok)
                }
                Err(_) => None,
            }
        };

        // Hinted phase: probe the hint.  A converged hint that verifies is
        // final (the probe *is* the verify pass); otherwise the probe
        // anchors a geometric expansion along the axis that brackets the
        // constraint boundary without the coarse sweep.
        let mut hint_report: Option<HintReport> = None;
        let mut bracket: Option<(f64, f64)> = None;
        let mut need_sweep = true;
        if let Some(h) = hint {
            let hx = to_x(h.bound.clamp(lower, upper));
            match evaluate(hx, &mut best_acceptable, &mut evaluations) {
                Some(ok0) => {
                    if h.converged && ok0 {
                        let (bound, best) = best_acceptable.expect("satisfied probe is stored");
                        return QualitySearchOutcome {
                            error_bound: bound,
                            best,
                            satisfiable: true,
                            evaluations,
                            elapsed: start.elapsed(),
                            hint: Some(HintReport {
                                source: h.source,
                                bound: h.bound,
                                hit: true,
                                probes: evaluations,
                            }),
                            deadline_hit: false,
                        };
                    }
                    need_sweep = false;
                    let expansion_budget = (self.config.max_iterations / 2).max(2);
                    let mut step = (xhi - xlo).abs() / 8.0;
                    if step <= 0.0 {
                        step = 1.0;
                    }
                    if ok0 {
                        // Constraint holds at the probe: the boundary (and
                        // better compression) lies above.
                        let mut ok_x = hx;
                        while evaluations < expansion_budget && ok_x < xhi {
                            let next = (ok_x + step).min(xhi);
                            step *= 2.0;
                            match evaluate(next, &mut best_acceptable, &mut evaluations) {
                                Some(true) => ok_x = next,
                                Some(false) => {
                                    bracket = Some((ok_x, next));
                                    break;
                                }
                                None => break,
                            }
                        }
                    } else {
                        // Constraint violated at the probe: walk down until
                        // it holds (or the axis runs out).
                        let mut bad_x = hx;
                        while evaluations < expansion_budget && bad_x > xlo {
                            let next = (bad_x - step).max(xlo);
                            step *= 2.0;
                            match evaluate(next, &mut best_acceptable, &mut evaluations) {
                                Some(true) => {
                                    bracket = Some((next, bad_x));
                                    break;
                                }
                                Some(false) => bad_x = next,
                                None => break,
                            }
                        }
                    }
                    hint_report = Some(HintReport {
                        source: h.source,
                        bound: h.bound,
                        hit: ok0,
                        probes: evaluations,
                    });
                }
                None => {
                    // The probe itself failed to compress: report the miss
                    // and bracket cold.
                    hint_report = Some(HintReport {
                        source: h.source,
                        bound: h.bound,
                        hit: false,
                        probes: evaluations,
                    });
                }
            }
        }

        if need_sweep {
            // Phase 1 (cold): coarse sweep to bracket the constraint
            // boundary.  The quality degrades (noisily) as the bound grows,
            // so the boundary is the largest bound that still satisfies the
            // constraint.  The sweep points are independent, so each
            // compress + decompress + measure round runs as a task on the
            // shared work-stealing pool, writing into its own slot; the fold
            // below stays in sweep order, so the outcome is identical to a
            // serial sweep.
            let sweep_points = (self.config.max_iterations / 2).clamp(4, 12);
            let sweep_xs: Vec<f64> = (0..sweep_points)
                .map(|i| xlo + (xhi - xlo) * i as f64 / (sweep_points - 1) as f64)
                .collect();
            let mut sweep_results: Vec<Option<(f64, bool, CompressionOutcome)>> =
                vec![None; sweep_points];
            // Tasks a fired cancel token skips are not compressor
            // invocations; count only the rounds that actually ran.
            let sweep_ran = AtomicUsize::new(0);
            {
                let pool: &Pool = match &self.pool {
                    Some(pool) => pool,
                    None => fraz_pool::global(),
                };
                pool.scope(|scope| {
                    let from_x = &from_x;
                    let sweep_ran = &sweep_ran;
                    for (slot, &x) in sweep_results.iter_mut().zip(&sweep_xs) {
                        scope.spawn(move || {
                            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                                return;
                            }
                            sweep_ran.fetch_add(1, Ordering::Relaxed);
                            let bound = from_x(x).clamp(lower, upper);
                            if let Ok(outcome) = field.evaluate(bound, true) {
                                let quality = outcome.quality.as_ref().expect("quality requested");
                                let ok = self.config.metric.is_satisfied(quality);
                                *slot = Some((bound, ok, outcome));
                            }
                        });
                    }
                });
            }

            // Fold the sweep in order: track the best acceptable evaluation
            // (highest ratio among those satisfying the constraint) and the
            // bracket around the constraint boundary.
            evaluations += sweep_ran.load(Ordering::Relaxed);
            let mut last_ok: Option<f64> = None;
            let mut first_bad: Option<f64> = None;
            for (&x, result) in sweep_xs.iter().zip(sweep_results.into_iter()) {
                match result {
                    Some((bound, true, outcome)) => {
                        last_ok = Some(x);
                        let better = match &best_acceptable {
                            None => true,
                            Some((_, b)) => outcome.compression_ratio > b.compression_ratio,
                        };
                        if better {
                            best_acceptable = Some((bound, outcome));
                        }
                    }
                    Some((_, false, _)) => {
                        if last_ok.is_some() && first_bad.is_none() {
                            first_bad = Some(x);
                        }
                    }
                    None => {}
                }
            }
            if let (Some(ok_x), Some(bad_x)) = (last_ok, first_bad) {
                bracket = Some((ok_x, bad_x));
            }
        }

        // Phase 2: bisect between the last satisfying and the first violating
        // bound to squeeze out the remaining compression.  Each probe depends
        // on the previous verdict, so this phase is inherently serial.
        let remaining = self.config.max_iterations.saturating_sub(evaluations);
        if let Some((mut ok_x, mut bad_x)) = bracket {
            for _ in 0..remaining {
                if (bad_x - ok_x).abs() <= self.config.improvement_tolerance * (xhi - xlo).abs() {
                    break;
                }
                let mid = 0.5 * (ok_x + bad_x);
                match evaluate(mid, &mut best_acceptable, &mut evaluations) {
                    Some(true) => ok_x = mid,
                    Some(false) => bad_x = mid,
                    None => break,
                }
            }
        }

        let deadline_hit = self.cancel.as_ref().is_some_and(|t| t.is_cancelled());
        match best_acceptable {
            Some((bound, outcome)) => QualitySearchOutcome {
                error_bound: bound,
                best: outcome,
                satisfiable: true,
                evaluations,
                elapsed: start.elapsed(),
                hint: hint_report,
                deadline_hit,
            },
            None => {
                // Nothing satisfied the constraint: fall back to the
                // smallest bound (highest fidelity the compressor offers).
                let fallback = field.evaluate(lower, true).unwrap_or(CompressionOutcome {
                    compressor: self.compressor.name().to_string(),
                    error_bound: lower,
                    compression_ratio: 0.0,
                    bit_rate: 0.0,
                    compressed_bytes: 0,
                    original_bytes: dataset.byte_size(),
                    quality: None,
                });
                QualitySearchOutcome {
                    error_bound: lower,
                    best: fallback,
                    satisfiable: false,
                    evaluations,
                    elapsed: start.elapsed(),
                    hint: hint_report,
                    deadline_hit,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::synthetic;
    use fraz_pressio::registry;

    fn dataset() -> Dataset {
        synthetic::hurricane(8, 20, 20, 1, 77).field("TCf", 0)
    }

    #[test]
    fn metric_satisfaction_logic() {
        let report = fraz_metrics::QualityReport {
            compression_ratio: 10.0,
            bit_rate: 3.2,
            max_abs_error: 0.5,
            rmse: 0.1,
            psnr: 60.0,
            ssim: 0.95,
            acf_error: 0.2,
            num_points: 100,
            original_bytes: 400,
            compressed_bytes: 40,
        };
        assert!(QualityMetric::PsnrAtLeast(50.0).is_satisfied(&report));
        assert!(!QualityMetric::PsnrAtLeast(70.0).is_satisfied(&report));
        assert!(QualityMetric::SsimAtLeast(0.9).is_satisfied(&report));
        assert!(!QualityMetric::SsimAtLeast(0.99).is_satisfied(&report));
        assert!(QualityMetric::RmseAtMost(0.2).is_satisfied(&report));
        assert!(!QualityMetric::RmseAtMost(0.05).is_satisfied(&report));
        assert!(QualityMetric::MaxErrorAtMost(1.0).is_satisfied(&report));
        assert!(!QualityMetric::MaxErrorAtMost(0.1).is_satisfied(&report));
        assert!(QualityMetric::PsnrAtLeast(50.0).describe().contains("PSNR"));
    }

    #[test]
    fn psnr_target_is_met_and_ratio_is_maximized() {
        let d = dataset();
        let config = QualitySearchConfig {
            max_iterations: 20,
            ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))
        };
        let search = FixedQualitySearch::new(registry::build_default("sz").unwrap(), config);
        let outcome = search.run(&d);
        assert!(outcome.satisfiable);
        let quality = outcome.best.quality.as_ref().unwrap();
        assert!(quality.psnr >= 60.0, "psnr {}", quality.psnr);
        // The point of the search: it should compress much better than the
        // most conservative setting while still meeting the target.
        let conservative = search
            .compressor()
            .evaluate(&d, search.compressor().bound_range(&d).0, false)
            .unwrap();
        assert!(outcome.best.compression_ratio > conservative.compression_ratio);
    }

    #[test]
    fn stricter_targets_give_lower_ratios() {
        let d = dataset();
        let run = |psnr: f64| {
            let config = QualitySearchConfig {
                max_iterations: 20,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr))
            };
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config).run(&d)
        };
        let loose = run(40.0);
        let strict = run(90.0);
        assert!(loose.satisfiable && strict.satisfiable);
        assert!(
            loose.best.compression_ratio >= strict.best.compression_ratio,
            "loose {} vs strict {}",
            loose.best.compression_ratio,
            strict.best.compression_ratio
        );
        assert!(strict.best.quality.as_ref().unwrap().psnr >= 90.0);
    }

    #[test]
    fn analytic_seed_reduces_evaluations_and_still_meets_target() {
        let d = dataset();
        let run = |codec: &str, seed: bool| {
            let config = QualitySearchConfig {
                max_iterations: 20,
                analytic_seed: seed,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))
            };
            FixedQualitySearch::new(registry::build_default(codec).unwrap(), config).run(&d)
        };
        for codec in ["sz", "szx"] {
            let cold = run(codec, false);
            let seeded = run(codec, true);
            assert!(cold.hint.is_none(), "{codec}: cold runs carry no hint");
            let report = seeded
                .hint
                .expect("sz-family descriptors declare a psnr model");
            assert_eq!(report.source, HintSource::Analytic);
            assert!(seeded.satisfiable);
            assert!(seeded.best.quality.as_ref().unwrap().psnr >= 60.0);
            assert!(
                seeded.evaluations < cold.evaluations,
                "{codec}: seeded {} vs cold {}",
                seeded.evaluations,
                cold.evaluations
            );
        }
        // ZFP declares no model: run() stays cold and unhinted.
        let zfp = run("zfp", true);
        assert!(zfp.hint.is_none());
        assert!(zfp.satisfiable);
    }

    #[test]
    fn max_error_target_on_pointwise_codec_accepts_in_one_evaluation() {
        let d = dataset();
        let ceiling = d.stats().value_range() * 1e-3;
        let config = QualitySearchConfig {
            max_iterations: 16,
            ..QualitySearchConfig::new(QualityMetric::MaxErrorAtMost(ceiling))
        };
        let outcome =
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config).run(&d);
        // bound = target IS the answer for an absolute-error codec, so the
        // analytic hint is converged and the probe verifies it outright.
        assert!(outcome.satisfiable);
        assert_eq!(outcome.evaluations, 1);
        let report = outcome.hint.unwrap();
        assert!(report.hit);
        assert_eq!(report.source, HintSource::Analytic);
        assert!(outcome.best.quality.as_ref().unwrap().max_abs_error <= ceiling);
    }

    #[test]
    fn impossible_target_reports_unsatisfiable() {
        let d = dataset();
        // SSIM cannot exceed 1, so this constraint is unsatisfiable by
        // construction (a tiny error bound can reach infinite PSNR, so a
        // PSNR target would not work for this test).
        let config = QualitySearchConfig {
            max_iterations: 8,
            ..QualitySearchConfig::new(QualityMetric::SsimAtLeast(1.5))
        };
        let outcome =
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config).run(&d);
        assert!(!outcome.satisfiable);
        assert!(outcome.evaluations >= 4);
    }

    #[test]
    fn cancelled_token_flags_the_outcome() {
        let d = dataset();
        let config = QualitySearchConfig {
            max_iterations: 20,
            analytic_seed: false,
            ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))
        };
        let token = CancelToken::new();
        token.cancel();
        let outcome = FixedQualitySearch::new(registry::build_default("sz").unwrap(), config)
            .with_cancel(token)
            .run(&d);
        assert!(outcome.deadline_hit);
        // A pre-fired token skips every sweep task and bisection round; the
        // only possible spend is the unsatisfiable-fallback measurement.
        assert!(
            !outcome.satisfiable,
            "no evaluation ran, so nothing satisfied"
        );
    }

    #[test]
    fn live_token_does_not_flag_the_outcome() {
        let d = dataset();
        let config = QualitySearchConfig {
            max_iterations: 20,
            ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))
        };
        let token = CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        let outcome = FixedQualitySearch::new(registry::build_default("sz").unwrap(), config)
            .with_cancel(token)
            .run(&d);
        assert!(outcome.satisfiable);
        assert!(!outcome.deadline_hit);
    }

    #[test]
    fn max_error_constraint_is_respected() {
        let d = dataset();
        let ceiling = d.stats().value_range() * 1e-3;
        let config = QualitySearchConfig {
            max_iterations: 16,
            ..QualitySearchConfig::new(QualityMetric::MaxErrorAtMost(ceiling))
        };
        let outcome =
            FixedQualitySearch::new(registry::build_default("zfp").unwrap(), config).run(&d);
        assert!(outcome.satisfiable);
        assert!(outcome.best.quality.as_ref().unwrap().max_abs_error <= ceiling);
    }
}
