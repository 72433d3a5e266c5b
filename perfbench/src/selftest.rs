//! Transparency self-test of the traced run.
//!
//! On a small field, the timing decorators must give byte-identical blobs,
//! identical evaluation outcomes and identical search answers (bound and
//! evaluation count) to the plain codec and store, so that the traced run
//! measures the same program as the untraced one.

use std::sync::Arc;

use fraz_core::{
    FixedQualitySearch, FixedRatioSearch, QualityMetric, QualitySearchConfig, SearchConfig,
};
use fraz_data::{synthetic, Dataset};
use fraz_pressio::registry;
use fraz_pressio::{Compressor, Options};
use fraz_store::{write_array, ArrayReader, ChunkTarget, MemoryStore, Store, StoreWriteConfig};

use crate::layers::{self, TimedCodec, TimedStore, CODECS};

/// Runs every check; prints each mismatch and returns true when none.
pub fn run(seed: u64) -> bool {
    let dataset = synthetic::hurricane(8, 16, 16, 1, seed).field("TCf", 0);
    let mut mismatches = Vec::new();
    if let Err(e) = layers::register_timed_codecs() {
        mismatches.push(format!("registering timed codecs: {e}"));
    }
    for codec in CODECS {
        if let Err(e) = codec_matches(codec, &dataset) {
            mismatches.push(format!("{codec}: {e}"));
        }
    }
    if let Err(e) = store_matches(&dataset) {
        mismatches.push(format!("store: {e}"));
    }
    for m in &mismatches {
        eprintln!("perfbench: self-test mismatch: {m}");
    }
    println!(
        "transparency self-test: {}",
        if mismatches.is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    );
    mismatches.is_empty()
}

fn codec_matches(codec: &str, dataset: &Dataset) -> Result<(), String> {
    let plain = registry::build_arc(codec, &Options::new()).map_err(|e| e.to_string())?;
    let timed = TimedCodec::wrap(codec)?;
    let by_name = registry::build_arc(&layers::timed_name(codec), &Options::new())
        .map_err(|e| e.to_string())?;
    let (lo, hi) = plain.bound_range(dataset);
    for k in 1..=4 {
        let bound = lo * (hi / lo).powf(k as f64 / 5.0);
        let expected = plain.compress(dataset, bound).map_err(|e| e.to_string())?;
        for codec in [&timed, &by_name] {
            if codec.compress(dataset, bound).map_err(|e| e.to_string())? != expected {
                return Err(format!("blob differs at bound {bound:e}"));
            }
            let a = format!("{:?}", plain.evaluate(dataset, bound, true));
            let b = format!("{:?}", codec.evaluate(dataset, bound, true));
            if a != b {
                return Err(format!("evaluate differs at bound {bound:e}"));
            }
        }
        let a = plain.decompress(&expected).map_err(|e| e.to_string())?;
        let b = timed.decompress(&expected).map_err(|e| e.to_string())?;
        if a.buffer.to_le_bytes() != b.buffer.to_le_bytes() {
            return Err(format!("decoded values differ at bound {bound:e}"));
        }
    }
    // Serial searches, so the region race cannot reorder evaluations.
    let ratio = |c: &Arc<dyn Compressor>| {
        let config = SearchConfig::new(8.0, 0.1).with_threads(1);
        let out = FixedRatioSearch::new(Arc::clone(c), config).run(dataset);
        (out.error_bound.to_bits(), out.evaluations, out.feasible)
    };
    if ratio(&plain) != ratio(&timed) {
        return Err("fixed-ratio search answer differs".into());
    }
    let quality = |c: &Arc<dyn Compressor>| {
        let config = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0));
        let out = FixedQualitySearch::new(Arc::clone(c), config).run(dataset);
        (out.error_bound.to_bits(), out.evaluations, out.satisfiable)
    };
    if quality(&plain) != quality(&timed) {
        return Err("fixed-PSNR search answer differs".into());
    }
    Ok(())
}

/// Chunk payloads, bounds and evaluation counts of one store write.
fn stored(store: &dyn Store, codec: &str, dataset: &Dataset) -> Result<Vec<String>, String> {
    let config = StoreWriteConfig::new(vec![4, 8, 8], codec, ChunkTarget::MinPsnr(60.0));
    let report = write_array(store, "t", dataset, &config).map_err(|e| e.to_string())?;
    let reader = ArrayReader::open(store, "t").map_err(|e| e.to_string())?;
    let mut out = vec![format!(
        "{:?}",
        reader.read_all().map_err(|e| e.to_string())?.buffer
    )];
    for (chunk, entry) in report.chunks.iter().zip(&reader.meta().index) {
        let payload = store
            .get_range("t", entry.offset, entry.length)
            .map_err(|e| e.to_string())?;
        out.push(format!(
            "{:?} {} {} {} {payload:?}",
            chunk.error_bound.to_bits(),
            chunk.compressed_bytes,
            chunk.evaluations,
            chunk.feasible
        ));
    }
    Ok(out)
}

fn store_matches(dataset: &Dataset) -> Result<(), String> {
    let plain = stored(&MemoryStore::new(), "szx", dataset)?;
    let timed = stored(
        &TimedStore::new(MemoryStore::new()),
        &layers::timed_name("szx"),
        dataset,
    )?;
    if plain != timed {
        return Err("chunk payloads, bounds or evaluation counts differ".into());
    }
    Ok(())
}
