//! Metric records, order statistics and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number with its unit, direction and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, better: Better, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        better,
        samples,
    }
}

/// Everything one benchmark run found.
#[derive(Debug)]
pub struct RunResult {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed or whose outputs failed their check.
    pub failed: u64,
    /// Untraced end-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics from the traced run (`--trace 1`).
    pub per_layer: Vec<Metric>,
}

impl RunResult {
    /// Prints a readable table, then the JSON result as the last line.
    pub fn print(&self, trace: bool) {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in metrics {
            println!(
                "{:<32} {:>16} {:<6} {:<6} better  n={}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.better.as_str(),
                m.samples
            );
        }
        println!(
            "checked operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let mut line = String::new();
        write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `q`-quantile (0..=1) of a sample by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        0.0
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Length of the windows latency quantiles are taken in.
pub const LATENCY_WINDOW: Duration = Duration::from_secs(4);

/// Groups `(start, latency_ms)` samples of a phase lasting `span` into
/// [`LATENCY_WINDOW`]s by start time; a trailing partial window joins the
/// last full one.
pub fn latency_windows(
    samples: impl Iterator<Item = (Duration, f64)>,
    span: Duration,
) -> Vec<Vec<f64>> {
    let n = ((span.as_secs_f64() / LATENCY_WINDOW.as_secs_f64()) as usize).max(1);
    let mut windows = vec![Vec::new(); n];
    for (start, ms) in samples {
        let w = (start.as_secs_f64() / LATENCY_WINDOW.as_secs_f64()) as usize;
        windows[w.min(n - 1)].push(ms);
    }
    windows
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.  Workload-specific meanings are documented in `README.md`.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Per-sample input MiB/s (median reported).
    pub mib_per_s: Vec<f64>,
    /// Per-sample decoded MiB/s (median reported).
    pub read_mib_per_s: Vec<f64>,
    pub feasible: (u64, u64),
    pub psnr_db: Vec<f64>,
    /// (input bytes, stored bytes).
    pub container: (u64, u64),
    /// Per-sample operations per second (median reported).
    pub jobs_per_s: Vec<f64>,
    /// Latency samples, in time windows: `p50_ms` and `p99_ms` are the
    /// median over windows of each window's quantile, so that a slow spell
    /// of a shared machine moves one window rather than the whole tail.
    pub latency_ms: Vec<Vec<f64>>,
    /// (within the latency limit and OK, attempted).
    pub slo: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn windowed_latency(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self.latency_ms.iter().map(|w| quantile(w, q)).collect();
        median(&per_window)
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        let latency_samples = self.latency_ms.iter().map(Vec::len).sum();
        vec![
            metric(
                "setup_s",
                median(&self.setup_s),
                "s",
                Better::Lower,
                self.setup_s.len(),
            ),
            metric(
                "mib_per_s",
                median(&self.mib_per_s),
                "MiB/s",
                Better::Higher,
                self.mib_per_s.len(),
            ),
            metric(
                "read_mib_per_s",
                median(&self.read_mib_per_s),
                "MiB/s",
                Better::Higher,
                self.read_mib_per_s.len(),
            ),
            metric(
                "feasible_frac",
                ratio(self.feasible.0 as f64, self.feasible.1 as f64),
                "frac",
                Better::Higher,
                self.feasible.1 as usize,
            ),
            metric(
                "psnr_db",
                mean(&self.psnr_db),
                "dB",
                Better::Higher,
                self.psnr_db.len(),
            ),
            metric(
                "container_ratio",
                ratio(self.container.0 as f64, self.container.1 as f64),
                "ratio",
                Better::Higher,
                1,
            ),
            metric(
                "jobs_per_s",
                median(&self.jobs_per_s),
                "1/s",
                Better::Higher,
                self.jobs_per_s.len(),
            ),
            metric(
                "p50_ms",
                self.windowed_latency(0.5),
                "ms",
                Better::Lower,
                latency_samples,
            ),
            metric(
                "slo_frac",
                ratio(self.slo.0 as f64, self.slo.1 as f64),
                "frac",
                Better::Higher,
                self.slo.1 as usize,
            ),
            metric(
                "ok_frac",
                1.0 - ratio(self.failed as f64, self.attempted as f64),
                "frac",
                Better::Higher,
                self.attempted as usize,
            ),
            metric("peak_rss_mib", peak_rss_mib(), "MiB", Better::Lower, 1),
        ]
    }
}
