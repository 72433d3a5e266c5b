//! End-to-end and per-layer benchmark of FRaZ-rs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//! ```
//!
//! Runs one workload (`batch_ratio_sz`, `archive_psnr_szx` or
//! `service_mix`) in this process, checks every output outside the timed
//! region, prints a metric table and, as its last line, one JSON result.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` alternates untraced work with work through the timing
//! decorators of [`layers`], and reports the per-layer metrics.
//! Scratch files (store objects, tune cache) go under `--workdir`.
//! See `README.md` for what each workload and metric means.

mod archive;
mod batch;
mod layers;
mod report;
mod selftest;
mod service;

use std::path::PathBuf;
use std::time::Duration;

use fraz_data::Dataset;

use report::RunResult;

/// The settings every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub workdir: PathBuf,
    /// Pool workers, server workers and client threads: the machine's
    /// available parallelism.
    pub workers: usize,
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--workdir" => workdir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok((
        workload.ok_or("--workload is required")?,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
            workdir: workdir.ok_or("--workdir is required")?,
            workers,
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Ctx) -> Result<RunResult, String> = match workload.as_str() {
        "batch_ratio_sz" => batch::run,
        "archive_psnr_szx" => archive::run,
        "service_mix" => service::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.workdir.display());
        std::process::exit(1);
    }
    println!(
        "workload {workload} seed {} budget {:.1}s trace {} workers {}",
        ctx.seed,
        ctx.budget.as_secs_f64(),
        ctx.trace as u8,
        ctx.workers
    );
    match run(&ctx) {
        Ok(result) => result.print(ctx.trace),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

/// `max_i |a_i - b_i|` and the PSNR (dB, over `a`'s value range) of a
/// reconstruction, or `None` when the shapes differ.
pub fn compare(original: &Dataset, restored: &Dataset) -> Option<(f64, f64)> {
    if original.dims != restored.dims || original.dtype() != restored.dtype() {
        return None;
    }
    let stats = fraz_metrics::error_stats::ErrorStats::compute(
        &original.values_f64(),
        &restored.values_f64(),
    );
    Some((stats.max_abs_error, stats.psnr))
}

/// True when `ratio` lies in `[target(1 - tolerance), target(1 + tolerance)]`
/// (Equation 1 of the paper): a fixed-ratio search that reports itself
/// feasible must have met this.
pub fn meets_ratio(ratio: f64, target: f64, tolerance: f64) -> bool {
    ratio >= target * (1.0 - tolerance) && ratio <= target * (1.0 + tolerance)
}

/// True when the restored values stay within `bound` of the original ones.
pub fn within_bound(original: &Dataset, restored: &Dataset, bound: f64) -> bool {
    matches!(compare(original, restored), Some((max_err, _)) if max_err <= bound)
}
