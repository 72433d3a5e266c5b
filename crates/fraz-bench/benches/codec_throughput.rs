//! Criterion benchmarks: raw compression / decompression throughput of the
//! three codec substrates at a fixed value-range-relative error bound, plus
//! stage-level micro-groups for the lossless substrate (dictionary coder,
//! Huffman entropy stage, bit I/O) so a regression in one stage is visible
//! on its own row instead of being smeared across the codec numbers.
//!
//! These are the building-block costs behind every FRaZ search (each search
//! iteration is one compression), so regressions here inflate every figure's
//! runtime.  A fixed-PSNR search also decompresses and measures quality at
//! every iteration, on store-sized chunks, so the `*/szx_chunk` rows and the
//! `quality` group time those three steps the way a chunked PSNR archive
//! runs them: the field cut into 8×24×24 chunks, one call per chunk.  The
//! `evaluate` group times one search evaluation on a field prepared once
//! (`Compressor::prepare`), as the searches call the codec.
//! `FRAZ_BENCH_SMOKE=1` drops to one timed sample per benchmark;
//! CI combines it with `FRAZ_BENCH_RECORD_DIR` to guard the committed
//! `baselines/codec_throughput.jsonl` rows against large regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fraz_bench::scale::Scale;
use fraz_bench::workloads;
use fraz_data::{Dataset, Dims};
use fraz_lossless::bitio::{BitReader, BitWriter};
use fraz_lossless::huffman;
use fraz_metrics::QualityReport;
use fraz_pressio::registry;

/// One timed sample per point under `FRAZ_BENCH_SMOKE=1` (CI bitrot +
/// regression guard), ten otherwise.
fn sample_size() -> usize {
    if std::env::var_os("FRAZ_BENCH_SMOKE").is_some() {
        1
    } else {
        10
    }
}

/// SZ-like quantization codes for the Huffman micro-group: first-order
/// deltas of the real field, linearly quantized around a centre code — the
/// same skewed, mid-heavy distribution the codec's stage 3 sees.
fn quantization_codes(values: &[f64], error_bound: f64) -> Vec<u32> {
    let centre = 32768i64;
    let mut prev = 0.0f64;
    values
        .iter()
        .map(|&v| {
            let code = centre + ((v - prev) / (2.0 * error_bound)).round().clamp(-3e4, 3e4) as i64;
            prev = v;
            code as u32
        })
        .collect()
}

/// Deterministic mixed-width fields for the bit I/O micro-group (widths and
/// values from a fixed LCG, 1..=24 bits each — the range Huffman codes and
/// distance extras actually use).
fn bitio_fields() -> Vec<(u64, u32)> {
    let mut state = 0x00C0_FFEEu64;
    (0..200_000)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let width = 1 + ((state >> 33) % 24) as u32;
            let value = (state >> 8) & ((1u64 << width) - 1);
            (value, width)
        })
        .collect()
}

/// The field cut into `edge`-sized chunks (C order, edge dividing each
/// axis), each its own dataset as a chunked store writes it.
fn chunks(dataset: &Dataset, edge: [usize; 3]) -> Vec<Dataset> {
    let d = dataset.dims.as_slice();
    let values = dataset.buffer.to_f32_vec();
    let mut out = Vec::new();
    for z0 in (0..d[0]).step_by(edge[0]) {
        for y0 in (0..d[1]).step_by(edge[1]) {
            for x0 in (0..d[2]).step_by(edge[2]) {
                let mut chunk = Vec::with_capacity(edge.iter().product());
                for z in z0..z0 + edge[0] {
                    for y in y0..y0 + edge[1] {
                        let row = (z * d[1] + y) * d[2] + x0;
                        chunk.extend_from_slice(&values[row..row + edge[2]]);
                    }
                }
                let dims = Dims::d3(edge[0], edge[1], edge[2]);
                out.push(Dataset::from_f32("hurricane", "TCf", 0, dims, chunk));
            }
        }
    }
    out
}

fn codec_benchmarks(c: &mut Criterion) {
    let app = workloads::hurricane(Scale::Quick);
    let dataset = app.field("TCf", 0);
    let bound = dataset.stats().value_range() * 1e-3;
    let szx = registry::build_default("szx").unwrap();
    let field_chunks = chunks(&dataset, [8, 24, 24]);
    let chunk_blobs: Vec<Vec<u8>> = field_chunks
        .iter()
        .map(|chunk| szx.compress(chunk, bound).unwrap())
        .collect();

    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes(dataset.byte_size() as u64));
    group.sample_size(sample_size());
    for name in ["sz", "zfp", "mgard", "szx"] {
        let backend = registry::build_default(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &dataset, |b, d| {
            b.iter(|| backend.compress(d, bound).unwrap());
        });
    }
    group.bench_function("szx_chunk", |b| {
        b.iter(|| {
            field_chunks
                .iter()
                .map(|chunk| szx.compress(chunk, bound).unwrap().len())
                .sum::<usize>()
        });
    });
    group.finish();

    // One ratio-search evaluation the way the searches run it: SZ's block
    // plan is built once per field (`prepare`, outside the timed loop) and
    // each evaluation pays only for the bound-dependent stages.  Read next
    // to `compress/sz`, which pays for the plan on every call.
    let mut group = c.benchmark_group("evaluate");
    group.throughput(Throughput::Bytes(dataset.byte_size() as u64));
    group.sample_size(sample_size());
    let sz = registry::build_default("sz").unwrap();
    let prepared = sz.prepare(&dataset);
    group.bench_function("sz_prepared", |b| {
        b.iter(|| prepared.evaluate(bound, false).unwrap());
    });
    group.finish();
    drop(prepared);

    let mut group = c.benchmark_group("decompress");
    group.throughput(Throughput::Bytes(dataset.byte_size() as u64));
    group.sample_size(sample_size());
    for name in ["sz", "zfp", "mgard", "szx"] {
        let backend = registry::build_default(name).unwrap();
        let compressed = backend.compress(&dataset, bound).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &compressed, |b, data| {
            b.iter(|| backend.decompress(data).unwrap());
        });
    }
    group.bench_function("szx_chunk", |b| {
        b.iter(|| {
            chunk_blobs
                .iter()
                .map(|blob| szx.decompress(blob).unwrap().len())
                .sum::<usize>()
        });
    });
    group.finish();

    // The quality pass of a fixed-PSNR evaluation, chunk by chunk and on
    // the whole field, against the szx reconstruction at the same bound.
    let mut group = c.benchmark_group("quality");
    group.throughput(Throughput::Bytes(dataset.byte_size() as u64));
    group.sample_size(sample_size());
    let restored_chunks: Vec<Dataset> = chunk_blobs
        .iter()
        .map(|blob| szx.decompress(blob).unwrap())
        .collect();
    group.bench_function("chunk_8x24x24", |b| {
        b.iter(|| {
            field_chunks
                .iter()
                .zip(&restored_chunks)
                .map(|(chunk, restored)| QualityReport::evaluate(chunk, restored, 1).psnr)
                .sum::<f64>()
        });
    });
    let restored = szx
        .decompress(&szx.compress(&dataset, bound).unwrap())
        .unwrap();
    group.bench_function("field_16x48x48", |b| {
        b.iter(|| QualityReport::evaluate(&dataset, &restored, 1));
    });
    group.finish();

    // The dictionary stage on its own (SZ's stage 4 substrate).
    let mut group = c.benchmark_group("lossless_dictionary");
    let bytes = dataset.buffer.to_le_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.sample_size(sample_size());
    group.bench_function("lzss_compress", |b| {
        b.iter(|| fraz_lossless::compress(&bytes));
    });
    let packed = fraz_lossless::compress(&bytes);
    group.bench_function("lzss_decompress", |b| {
        b.iter(|| fraz_lossless::decompress(&packed).unwrap());
    });
    group.finish();

    // The entropy stage on its own (SZ's stage 3 substrate): canonical
    // Huffman over a realistic skewed quantization-code stream.
    let symbols = quantization_codes(&dataset.values_f64(), bound);
    let mut group = c.benchmark_group("huffman");
    group.throughput(Throughput::Bytes((symbols.len() * 4) as u64));
    group.sample_size(sample_size());
    group.bench_function("huffman_encode", |b| {
        b.iter(|| huffman::encode_symbols(&symbols));
    });
    let packed = huffman::encode_symbols(&symbols);
    group.bench_function("huffman_decode", |b| {
        b.iter(|| huffman::decode_symbols(&packed).unwrap());
    });
    group.finish();

    // The bit layer under everything: mixed-width writes and reads.
    let fields = bitio_fields();
    let total_bits: u64 = fields.iter().map(|&(_, w)| w as u64).sum();
    let mut group = c.benchmark_group("bitio");
    group.throughput(Throughput::Bytes(total_bits / 8));
    group.sample_size(sample_size());
    group.bench_function("bitio_write", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity((total_bits / 8 + 1) as usize);
            for &(v, n) in &fields {
                w.write_bits(v, n);
            }
            w.into_bytes()
        });
    });
    let written = {
        let mut w = BitWriter::with_capacity((total_bits / 8 + 1) as usize);
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        w.into_bytes()
    };
    group.bench_function("bitio_read", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&written);
            let mut acc = 0u64;
            for &(_, n) in &fields {
                acc ^= r.read_bits(n).unwrap();
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, codec_benchmarks);
criterion_main!(benches);
