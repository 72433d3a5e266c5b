//! Blockwise constant/unpredictable classification with IEEE-754 bit
//! truncation — the SZx hot path.
//!
//! The serialized section (after the stream header) is:
//!
//! ```text
//! n_blocks        u64
//! constant_count  u64
//! flags           ⌈n_blocks/8⌉ bytes, bit i set ⇔ block i is constant
//! widths          one u8 per non-constant block (kept bits, in block order)
//! constants       one native-width value per constant block (in block order)
//! payload_len     u64
//! payload         dense LSB-first bit-packed truncated values
//! ```
//!
//! Every count is cross-checked on decode before anything proportional to it
//! is allocated, so a corrupt header yields [`SzxError::Corrupt`], never a
//! panic or an out-of-bounds read.

use fraz_lossless::bytesio::{ByteReader, ByteWriter};
use fraz_lossless::CodingError;

use crate::pack::{self, Packer};
use crate::SzxError;

/// An IEEE-754 scalar the blockwise codec can process (`f32` or `f64`).
pub trait SzxFloat: Copy + PartialOrd {
    /// Total bit width (32 or 64).
    const WIDTH: u32;
    /// Fraction (mantissa) bits.
    const MANT_BITS: u32;
    /// Exponent bias.
    const EXP_BIAS: i32;
    /// Sign + exponent bits — the minimum kept width, at which the entire
    /// mantissa is dropped.
    const SIGN_EXP_BITS: u32;
    /// Everything but the sign bit, widened to `u64`.
    const ABS_MASK: u64;
    /// Exponent-all-ones threshold: `bits & ABS_MASK >= EXP_MASK` ⇔ NaN/±∞.
    const EXP_MASK: u64;

    /// The raw bit pattern, widened to `u64`.
    fn to_bits64(self) -> u64;
    /// Rebuild from a (zero-extended) bit pattern.
    fn from_bits64(bits: u64) -> Self;
    /// Widen to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Midrange of two finite values in the native type.  May overflow to
    /// `+∞` for extreme spreads — the caller's two-sided bound check rejects
    /// that case and falls back to truncation.
    fn midrange(lo: Self, hi: Self) -> Self;
    /// Append at native width.
    fn write_to(self, out: &mut ByteWriter);
    /// Read at native width.
    fn read_from(r: &mut ByteReader) -> Result<Self, CodingError>;
}

impl SzxFloat for f32 {
    const WIDTH: u32 = 32;
    const MANT_BITS: u32 = 23;
    const EXP_BIAS: i32 = 127;
    const SIGN_EXP_BITS: u32 = 9;
    const ABS_MASK: u64 = 0x7fff_ffff;
    const EXP_MASK: u64 = 0x7f80_0000;

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn midrange(lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * 0.5
    }
    fn write_to(self, out: &mut ByteWriter) {
        out.put_f32(self);
    }
    fn read_from(r: &mut ByteReader) -> Result<Self, CodingError> {
        r.get_f32()
    }
}

impl SzxFloat for f64 {
    const WIDTH: u32 = 64;
    const MANT_BITS: u32 = 52;
    const EXP_BIAS: i32 = 1023;
    const SIGN_EXP_BITS: u32 = 12;
    const ABS_MASK: u64 = 0x7fff_ffff_ffff_ffff;
    const EXP_MASK: u64 = 0x7ff0_0000_0000_0000;

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn midrange(lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * 0.5
    }
    fn write_to(self, out: &mut ByteWriter) {
        out.put_f64(self);
    }
    fn read_from(r: &mut ByteReader) -> Result<Self, CodingError> {
        r.get_f64()
    }
}

/// Kept width for an unpredictable block whose largest magnitude has bit
/// pattern `abs_max`, under a bound with exponent `k = ⌊log₂ e⌋`.
///
/// With block exponent `E` (subnormals act at the minimum normal exponent,
/// hence the `.max(1)`), keeping `m = clamp(E − k, 0, MANT_BITS)` mantissa
/// bits makes the truncation error of every member strictly less than
/// `2^(E−m) ≤ 2^k ≤ e`.  Non-finite payloads force the full width so NaN/±∞
/// round-trip bit-exactly.
#[inline]
fn kept_width<F: SzxFloat>(abs_max: u64, k: i32) -> u32 {
    if abs_max >= F::EXP_MASK {
        return F::WIDTH;
    }
    let e = ((abs_max >> F::MANT_BITS) as i32).max(1) - F::EXP_BIAS;
    let m = (e - k).clamp(0, F::MANT_BITS as i32) as u32;
    F::SIGN_EXP_BITS + m
}

/// A block's min, max and largest magnitude bit pattern, by compare-select.
#[derive(Clone, Copy)]
struct Extremes<F> {
    mn: F,
    mx: F,
    abs_max: u64,
}

/// Independent lanes of [`Extremes::of`].
const LANES: usize = 4;

impl<F: SzxFloat> Extremes<F> {
    /// Scan a non-empty block in [`LANES`] independent lanes, so the scan is
    /// not bound by one compare-select chain.  Splitting is exact: min and
    /// max are order-free, and the only freedom, which of `0.0`/`-0.0` wins
    /// a tie, cannot change the stream: the midrange of any such pair is
    /// `+0.0` or the same non-zero value, and the bound checks hold alike.
    /// A NaN lane value sticks only where the block is non-finite, which
    /// `abs_max` already routes to the full-width path.
    #[inline(always)]
    fn of(chunk: &[F]) -> Self {
        let mut lanes = [Self {
            mn: chunk[0],
            mx: chunk[0],
            abs_max: 0,
        }; LANES];
        let groups = chunk.chunks_exact(LANES);
        for &v in groups.remainder() {
            lanes[0].note(v);
        }
        for group in groups {
            for (lane, &v) in lanes.iter_mut().zip(group) {
                lane.note(v);
            }
        }
        let [mut all, rest @ ..] = lanes;
        for lane in rest {
            all.note_lane(&lane);
        }
        all
    }

    #[inline(always)]
    fn note(&mut self, v: F) {
        if v < self.mn {
            self.mn = v;
        }
        if v > self.mx {
            self.mx = v;
        }
        let a = v.to_bits64() & F::ABS_MASK;
        if a > self.abs_max {
            self.abs_max = a;
        }
    }

    #[inline(always)]
    fn note_lane(&mut self, lane: &Self) {
        if lane.mn < self.mn {
            self.mn = lane.mn;
        }
        if lane.mx > self.mx {
            self.mx = lane.mx;
        }
        if lane.abs_max > self.abs_max {
            self.abs_max = lane.abs_max;
        }
    }
}

/// Encode `values` in blocks of `block` values under `error_bound`,
/// appending the serialized section to `out`.
///
/// Classify-then-pack: one scan classifies every block and sizes the
/// payload exactly, then the unpredictable blocks are packed straight into
/// the output.
pub fn encode<F: SzxFloat>(values: &[F], block: usize, error_bound: f64, out: &mut ByteWriter) {
    let k = crate::bound_exponent(error_bound);
    let n_blocks = values.len().div_ceil(block);
    let mut flags = vec![0u8; n_blocks.div_ceil(8)];
    let mut widths: Vec<u8> = Vec::with_capacity(n_blocks);
    let mut constants = ByteWriter::with_capacity(256);
    let mut packed_bits = 0usize;

    for (bi, chunk) in values.chunks(block).enumerate() {
        let Extremes { mn, mx, abs_max } = Extremes::of(chunk);

        // Constant classification: only all-finite blocks qualify (NaN slips
        // through `<`-based min/max), and the midrange must verifiably sit
        // within the bound of *both* extremes — this is what rejects a
        // midrange that overflowed to +∞.
        if abs_max < F::EXP_MASK {
            let mid = F::midrange(mn, mx);
            if mx.to_f64() - mid.to_f64() <= error_bound
                && mid.to_f64() - mn.to_f64() <= error_bound
            {
                flags[bi >> 3] |= 1 << (bi & 7);
                mid.write_to(&mut constants);
                continue;
            }
        }

        let w = kept_width::<F>(abs_max, k);
        widths.push(w as u8);
        packed_bits += chunk.len() * w as usize;
    }

    let constant_count = (n_blocks - widths.len()) as u64;
    out.put_u64(n_blocks as u64);
    out.put_u64(constant_count);
    out.put_bytes(&flags);
    out.put_bytes(&widths);
    out.put_bytes(&constants.into_bytes());
    let payload_len = packed_bits.div_ceil(8);
    out.put_u64(payload_len as u64);

    let mut packer = Packer::new(out.put_zeroed(payload_len));
    let unpredictable = values
        .chunks(block)
        .enumerate()
        .filter(|&(bi, _)| flags[bi >> 3] >> (bi & 7) & 1 == 0);
    for ((_, chunk), &w) in unpredictable.zip(&widths) {
        let w = w as u32;
        let drop = F::WIDTH - w;
        packer.push_all(chunk, w, |v| v.to_bits64() >> drop);
    }
    packer.finish();
}

/// Decode `n` values that were encoded in blocks of `block` values.
pub fn decode<F: SzxFloat>(r: &mut ByteReader, n: usize, block: usize) -> Result<Vec<F>, SzxError> {
    let n_blocks = r.get_u64()?;
    if n_blocks != n.div_ceil(block) as u64 {
        return Err(SzxError::Corrupt(format!(
            "block count {n_blocks} inconsistent with {n} values at block size {block}"
        )));
    }
    let n_blocks = n_blocks as usize;
    let constant_count = r.get_u64()? as usize;
    if constant_count > n_blocks {
        return Err(SzxError::Corrupt(format!(
            "constant count {constant_count} exceeds block count {n_blocks}"
        )));
    }

    let flags = r.get_bytes(n_blocks.div_ceil(8))?;
    let flagged = |bi: usize| flags[bi >> 3] >> (bi & 7) & 1 == 1;
    if (0..n_blocks).filter(|&bi| flagged(bi)).count() != constant_count {
        return Err(SzxError::Corrupt(
            "constant flag bitmap disagrees with constant count".into(),
        ));
    }
    if n_blocks % 8 != 0 && flags[n_blocks >> 3] >> (n_blocks & 7) != 0 {
        return Err(SzxError::Corrupt(
            "stray bits set past the end of the flag bitmap".into(),
        ));
    }

    let widths = r.get_bytes(n_blocks - constant_count)?;
    for &w in widths {
        if (w as u32) < F::SIGN_EXP_BITS || (w as u32) > F::WIDTH {
            return Err(SzxError::Corrupt(format!(
                "kept width {w} outside [{}, {}]",
                F::SIGN_EXP_BITS,
                F::WIDTH
            )));
        }
    }

    let elem = (F::WIDTH / 8) as usize;
    let constants_len = constant_count
        .checked_mul(elem)
        .ok_or_else(|| SzxError::Corrupt("constant section length overflows".into()))?;
    let constants = r.get_bytes(constants_len)?;

    // `(n_blocks - 1) * block < n` whenever `n_blocks` is consistent with
    // `n`, so the last-block length below cannot underflow or overflow.
    let block_len = |bi: usize| {
        if bi + 1 == n_blocks {
            n - (n_blocks - 1) * block
        } else {
            block
        }
    };
    let mut total_bits: u128 = 0;
    let mut widx = 0usize;
    for bi in 0..n_blocks {
        if flagged(bi) {
            continue;
        }
        total_bits += block_len(bi) as u128 * widths[widx] as u128;
        widx += 1;
    }

    let payload_len = r.get_u64()? as usize;
    if payload_len as u128 != total_bits.div_ceil(8) {
        return Err(SzxError::Corrupt(format!(
            "payload length {payload_len} does not match {total_bits} packed bits"
        )));
    }
    let payload = r.get_bytes(payload_len)?;

    // Everything is length-validated; from here on each block is one run.
    let mut out = vec![F::from_bits64(0); n];
    let mut creader = ByteReader::new(constants);
    let mut bit = 0usize;
    let mut widx = 0usize;
    for (bi, dst) in out.chunks_mut(block).enumerate() {
        if flagged(bi) {
            dst.fill(F::read_from(&mut creader)?);
        } else {
            let w = widths[widx] as u32;
            widx += 1;
            let shift = F::WIDTH - w;
            pack::unpack(payload, bit, w, dst, |v| F::from_bits64(v << shift));
            bit += dst.len() * w as usize;
        }
    }
    debug_assert_eq!(bit as u128, total_bits);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::tests::reference::PackWriter;
    use proptest::prelude::*;

    /// The encoder before classify-then-pack: one compare-select chain per
    /// block and a value-at-a-time packer into a second buffer, kept to pin
    /// the stream byte for byte.
    fn reference_encode<F: SzxFloat>(values: &[F], block: usize, error_bound: f64) -> Vec<u8> {
        let mut out = ByteWriter::new();
        let k = crate::bound_exponent(error_bound);
        let n_blocks = values.len().div_ceil(block);
        let mut flags = vec![0u8; n_blocks.div_ceil(8)];
        let mut widths: Vec<u8> = Vec::with_capacity(n_blocks);
        let mut constants = ByteWriter::with_capacity(256);
        let mut packer = PackWriter::new();
        let mut packed_bits = 0usize;
        for (bi, chunk) in values.chunks(block).enumerate() {
            let mut mn = chunk[0];
            let mut mx = chunk[0];
            let mut abs_max = 0u64;
            for &v in chunk {
                if v < mn {
                    mn = v;
                }
                if v > mx {
                    mx = v;
                }
                let a = v.to_bits64() & F::ABS_MASK;
                if a > abs_max {
                    abs_max = a;
                }
            }
            if abs_max < F::EXP_MASK {
                let mid = F::midrange(mn, mx);
                if mx.to_f64() - mid.to_f64() <= error_bound
                    && mid.to_f64() - mn.to_f64() <= error_bound
                {
                    flags[bi >> 3] |= 1 << (bi & 7);
                    mid.write_to(&mut constants);
                    continue;
                }
            }
            let w = kept_width::<F>(abs_max, k);
            widths.push(w as u8);
            let drop = F::WIDTH - w;
            for &v in chunk {
                packer.push(v.to_bits64() >> drop, w);
                packed_bits += w as usize;
            }
        }
        let constant_count = (n_blocks - widths.len()) as u64;
        out.put_u64(n_blocks as u64);
        out.put_u64(constant_count);
        out.put_bytes(&flags);
        out.put_bytes(&widths);
        out.put_bytes(&constants.into_bytes());
        let payload = packer.into_bytes();
        assert_eq!(payload.len(), packed_bits.div_ceil(8));
        out.put_u64(payload.len() as u64);
        out.put_bytes(&payload);
        out.into_bytes()
    }

    /// Values of one regime; `pick` draws from a small set so blocks mix
    /// constant runs, signed zeros, subnormals, NaN and ±∞ with noise.
    fn regime_values(regime: u8, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        (0..n)
            .map(|i| {
                let unit = next() as f64 / (1u64 << 53) as f64 - 0.5;
                match regime {
                    0 => (i as f64 * 0.05).sin() * 3e3 + unit * 1e-2,
                    1 => match next() % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1e-310,
                        3 => -1e-42,
                        _ => 2.5,
                    },
                    2 => match next() % 32 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => unit * 1e5,
                    },
                    _ => {
                        if (i / 50) % 2 == 0 {
                            7.0
                        } else {
                            unit * 1e30
                        }
                    }
                }
            })
            .collect()
    }

    fn encoded<F: SzxFloat>(values: &[F], block: usize, error_bound: f64) -> Vec<u8> {
        let mut out = ByteWriter::new();
        encode(values, block, error_bound, &mut out);
        out.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_is_byte_identical_to_the_reference(
            regime in 0u8..4,
            n in 1usize..700,
            block in prop_oneof![Just(1usize), Just(3), Just(8), Just(64), Just(128), Just(130)],
            bound_exp in -40i32..12,
            seed in any::<u64>(),
        ) {
            let values = regime_values(regime, n, seed);
            let bound = 2f64.powi(bound_exp) * 1.5;
            prop_assert_eq!(encoded(&values, block, bound), reference_encode(&values, block, bound));
            let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
            prop_assert_eq!(encoded(&narrow, block, bound), reference_encode(&narrow, block, bound));
        }
    }

    #[test]
    fn kept_width_tracks_block_exponent() {
        // Block max ≈ 1.0 (E = 0), bound 2^-10 → keep 10 mantissa bits.
        let abs_max = 1.0f32.to_bits() as u64;
        assert_eq!(kept_width::<f32>(abs_max, -10), 9 + 10);
        // Bound larger than the block max → sign+exponent only.
        assert_eq!(kept_width::<f32>(abs_max, 4), 9);
        // Bound far below the ulp → full width.
        assert_eq!(kept_width::<f32>(abs_max, -60), 32);
        // Non-finite forces full width.
        assert_eq!(kept_width::<f32>(f32::NAN.to_bits() as u64, 4), 32);
        // Subnormal blocks act at the minimum normal exponent.
        let tiny = 1u64; // smallest positive subnormal f32
        assert_eq!(kept_width::<f32>(tiny, -127), 9 + 1);
        assert_eq!(kept_width::<f64>(1u64, -1023), 12 + 1);
    }

    #[test]
    fn truncation_error_is_below_bound_at_every_width() {
        let values: Vec<f64> = (0..999).map(|i| (i as f64 * 0.37).sin() * 3e4).collect();
        for k in [-40i32, -20, -6, 0, 10, 20] {
            let eb = 2f64.powi(k);
            let mut w = ByteWriter::new();
            encode(&values, 64, eb, &mut w);
            let bytes = w.into_bytes();
            let decoded = decode::<f64>(&mut ByteReader::new(&bytes), values.len(), 64).unwrap();
            let worst = values
                .iter()
                .zip(&decoded)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(worst <= eb, "k={k}: worst error {worst} > {eb}");
        }
    }

    #[test]
    fn truncated_section_is_an_error_not_a_panic() {
        let values: Vec<f32> = (0..500).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut w = ByteWriter::new();
        encode(&values, 128, 1e-4, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let result = decode::<f32>(&mut ByteReader::new(&bytes[..cut]), values.len(), 128);
            assert!(
                result.is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }
}
