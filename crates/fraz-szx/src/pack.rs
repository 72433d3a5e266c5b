//! Dense fixed-width bit packing for the truncation payload.
//!
//! The kept width is constant across a block, so both directions work a
//! block at a time.  [`Packer`] fills a payload whose exact size the encoder
//! computed up front: it keeps a 64-bit accumulator and spills whole
//! little-endian words straight into the output, and [`Packer::push_all`]
//! joins as many consecutive fields as fit in 64 bits into one push.
//! [`unpack`] reads a block as one run of independent fields — field `i`
//! starts at bit `start + i·w` — served by unaligned 8-byte loads, each
//! covering as many whole fields as fit in its 57 guaranteed bits (one
//! field, plus one byte, for widths above 57 that straddle a word), with a
//! zero-padding fallback only for loads that reach past the last 8 bytes.
//! Bits are packed LSB-first; widths of 0 and 64 are both valid.
//!
//! [`unpack`] performs **no per-value length checks** beyond that fallback —
//! callers validate the payload length against the total bit count up front
//! (the decoder does exactly that), after which a field can only read the
//! final zero-padded byte, never past the slice.

/// LSB-first bit packer writing into a pre-sized payload.
pub struct Packer<'a> {
    out: &'a mut [u8],
    /// Bytes of `out` already written (always a multiple of 8).
    pos: usize,
    acc: u64,
    /// Valid low bits of `acc`, always < 64 between calls.
    nbits: u32,
}

impl<'a> Packer<'a> {
    /// Packer filling `out`, which must be exactly `⌈bits/8⌉` bytes for the
    /// bits that will be pushed.
    pub fn new(out: &'a mut [u8]) -> Self {
        Self {
            out,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `width` bits of `value` (`width` ≤ 64; the unused high
    /// bits of `value` must be zero).
    #[inline]
    pub fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value >> width == 0);
        self.acc |= value << self.nbits;
        self.nbits += width;
        if self.nbits >= 64 {
            self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
            self.pos += 8;
            self.nbits -= 64;
            let spilled = width - self.nbits;
            self.acc = if spilled >= 64 { 0 } else { value >> spilled };
        }
    }

    /// Append `field(v)`'s low `width` bits for every `v` in `values`, in
    /// order.  Consecutive fields are concatenated into one push of up to
    /// 64 bits first: packing is LSB-first, so that is the same bit string.
    #[inline]
    pub fn push_all<V: Copy>(&mut self, values: &[V], width: u32, field: impl Fn(V) -> u64) {
        let grouped = match 64 / width.max(1) {
            1 => 0,
            2 => self.push_groups::<2, V>(values, width, &field),
            3 => self.push_groups::<3, V>(values, width, &field),
            4 | 5 => self.push_groups::<4, V>(values, width, &field),
            _ => self.push_groups::<6, V>(values, width, &field),
        };
        for &v in &values[grouped..] {
            self.push(field(v), width);
        }
    }

    /// Push the whole groups of `K` values at the front of `values`, one
    /// push per group (`K·width` ≤ 64); returns the values pushed.
    #[inline(always)]
    fn push_groups<const K: usize, V: Copy>(
        &mut self,
        values: &[V],
        width: u32,
        field: &impl Fn(V) -> u64,
    ) -> usize {
        debug_assert!(K as u32 * width <= 64);
        for group in values.chunks_exact(K) {
            let mut joined = field(group[0]);
            for (j, &v) in group.iter().enumerate().skip(1) {
                joined |= field(v) << (j as u32 * width);
            }
            self.push(joined, K as u32 * width);
        }
        values.len() - values.len() % K
    }

    /// Write the final partial word (zero-padded on the high side).
    pub fn finish(self) {
        let tail = self.nbits.div_ceil(8) as usize;
        self.out[self.pos..self.pos + tail].copy_from_slice(&self.acc.to_le_bytes()[..tail]);
        debug_assert_eq!(self.pos + tail, self.out.len(), "payload sized exactly");
    }
}

/// Fill `out` with the consecutive `width`-bit fields (`width` ≤ 64)
/// starting at bit `start` of a length-validated payload, each passed
/// through `convert`.
///
/// Fields are independent: field `i` sits at bit `start + i·width`.  One
/// 8-byte load shifted to a field's bit offset holds at least 57 valid
/// bits, so it serves up to `⌊57/width⌋` consecutive fields at once; only
/// wider fields need a ninth byte.
#[inline]
pub fn unpack<T>(data: &[u8], start: usize, width: u32, out: &mut [T], convert: impl Fn(u64) -> T) {
    debug_assert!(width <= 64);
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut bit = start;
    // A fixed group size lets each group's extraction unroll completely.
    let grouped = match 57 / width.max(1) {
        0 | 1 => 0,
        2 => unpack_groups::<2, T>(data, &mut bit, width, mask, out, &convert),
        3 => unpack_groups::<3, T>(data, &mut bit, width, mask, out, &convert),
        4 | 5 => unpack_groups::<4, T>(data, &mut bit, width, mask, out, &convert),
        _ => unpack_groups::<6, T>(data, &mut bit, width, mask, out, &convert),
    };
    for slot in &mut out[grouped..] {
        let (byte, shift) = (bit >> 3, (bit & 7) as u32);
        let mut value = load(data, byte) >> shift;
        if shift + width > 64 {
            value |= (data.get(byte + 8).copied().unwrap_or(0) as u64) << (64 - shift);
        }
        *slot = convert(value & mask);
        bit += width as usize;
    }
}

/// Fill the whole groups of `K` fields at the front of `out`, one load per
/// group (`K·width` ≤ 57), advancing `bit`; returns the fields written.
#[inline(always)]
fn unpack_groups<const K: usize, T>(
    data: &[u8],
    bit: &mut usize,
    width: u32,
    mask: u64,
    out: &mut [T],
    convert: &impl Fn(u64) -> T,
) -> usize {
    debug_assert!(K as u32 * width <= 57);
    let written = out.len() - out.len() % K;
    for group in out.chunks_exact_mut(K) {
        let group: &mut [T; K] = group.try_into().expect("chunks of exactly K");
        let mut word = load(data, *bit >> 3) >> (*bit & 7);
        for slot in group {
            *slot = convert(word & mask);
            word >>= width;
        }
        *bit += K * width as usize;
    }
    written
}

/// Little-endian 8-byte load at `byte`, zero-padded past the end of `data`.
#[inline(always)]
fn load(data: &[u8], byte: usize) -> u64 {
    match data.get(byte..byte + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8-byte slice")),
        None => tail_word(data, byte),
    }
}

/// Little-endian load of the bytes from `byte` on, zero-padded to 8.
#[cold]
fn tail_word(data: &[u8], byte: usize) -> u64 {
    let mut tmp = [0u8; 8];
    if byte < data.len() {
        tmp[..data.len() - byte].copy_from_slice(&data[byte..]);
    }
    u64::from_le_bytes(tmp)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The value-at-a-time writer and reader the block-at-a-time pair
    /// replaced, kept to pin byte identity.
    pub(crate) mod reference {
        pub struct PackWriter {
            buf: Vec<u8>,
            acc: u64,
            nbits: u32,
        }

        impl PackWriter {
            pub fn new() -> Self {
                Self {
                    buf: Vec::new(),
                    acc: 0,
                    nbits: 0,
                }
            }

            pub fn push(&mut self, value: u64, width: u32) {
                self.acc |= value << self.nbits;
                self.nbits += width;
                if self.nbits >= 64 {
                    self.buf.extend_from_slice(&self.acc.to_le_bytes());
                    self.nbits -= 64;
                    let spilled = width - self.nbits;
                    self.acc = if spilled >= 64 { 0 } else { value >> spilled };
                }
            }

            pub fn into_bytes(mut self) -> Vec<u8> {
                while self.nbits > 0 {
                    self.buf.push(self.acc as u8);
                    self.acc >>= 8;
                    self.nbits = self.nbits.saturating_sub(8);
                }
                self.buf
            }
        }

        pub struct PackReader<'a> {
            data: &'a [u8],
            bit_pos: usize,
        }

        impl<'a> PackReader<'a> {
            pub fn new(data: &'a [u8]) -> Self {
                Self { data, bit_pos: 0 }
            }

            fn load(&self, byte: usize) -> u64 {
                if byte + 8 <= self.data.len() {
                    u64::from_le_bytes(self.data[byte..byte + 8].try_into().unwrap())
                } else {
                    let mut tmp = [0u8; 8];
                    if byte < self.data.len() {
                        tmp[..self.data.len() - byte].copy_from_slice(&self.data[byte..]);
                    }
                    u64::from_le_bytes(tmp)
                }
            }

            pub fn read(&mut self, width: u32) -> u64 {
                let byte = self.bit_pos >> 3;
                let shift = (self.bit_pos & 7) as u32;
                self.bit_pos += width as usize;
                let lo = self.load(byte) >> shift;
                let avail = 64 - shift;
                let value = if width <= avail {
                    lo
                } else {
                    lo | (self.load(byte + 8) << avail)
                };
                if width == 64 {
                    value
                } else {
                    value & ((1u64 << width) - 1)
                }
            }
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    fn masked(value: u64, width: u32) -> u64 {
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Pack `blocks` of `(width, values)` both ways and unpack both ways;
    /// all four must agree.
    fn check_blocks(blocks: &[(u32, Vec<u64>)]) {
        let total: usize = blocks.iter().map(|(w, v)| *w as usize * v.len()).sum();
        let mut old = reference::PackWriter::new();
        let mut payload = vec![0u8; total.div_ceil(8)];
        let mut packer = Packer::new(&mut payload);
        for (w, values) in blocks {
            for &v in values {
                old.push(v, *w);
                packer.push(v, *w);
            }
        }
        packer.finish();
        let old = old.into_bytes();
        assert_eq!(payload, old, "packed bytes differ");

        let mut reader = reference::PackReader::new(&old);
        let mut start = 0;
        for (w, values) in blocks {
            let mut run = vec![0; values.len()];
            unpack(&payload, start, *w, &mut run, |v| v);
            let expected: Vec<u64> = values.iter().map(|_| reader.read(*w)).collect();
            assert_eq!(run, expected, "width {w} at bit {start}");
            assert_eq!(&run, values, "width {w} round trip");
            start += *w as usize * values.len();
        }
    }

    #[test]
    fn block_runs_match_the_value_at_a_time_pair() {
        let mut state = 0xFEED_5EED_u64;
        for &block in &[1usize, 3, 7, 8, 64, 128] {
            for &last in &[block, 1, block.div_ceil(2)] {
                let widths = [0u32, 9, 32, 33, 57, 58, 64];
                let blocks: Vec<(u32, Vec<u64>)> = widths
                    .iter()
                    .chain(widths.iter().rev())
                    .enumerate()
                    .map(|(i, &w)| {
                        let len = if i == 2 * widths.len() - 1 {
                            last
                        } else {
                            block
                        };
                        (w, (0..len).map(|_| masked(lcg(&mut state), w)).collect())
                    })
                    .collect();
                check_blocks(&blocks);
            }
        }
    }

    #[test]
    fn every_width_and_offset_matches() {
        let mut state = 7u64;
        for w in 0..=64u32 {
            for lead in [0u32, 1, 5, 7, 13] {
                let blocks = vec![
                    (lead, vec![masked(lcg(&mut state), lead)]),
                    (w, (0..19).map(|_| masked(lcg(&mut state), w)).collect()),
                ];
                check_blocks(&blocks);
            }
        }
    }

    #[test]
    fn payloads_shorter_than_a_word_match() {
        let mut state = 99u64;
        for w in [0u32, 9, 32, 33, 57, 58, 64] {
            for count in 0..=(64 / w.max(1)) as usize {
                if w as usize * count > 63 {
                    break;
                }
                let values = (0..count).map(|_| masked(lcg(&mut state), w)).collect();
                check_blocks(&[(w, values)]);
            }
        }
        // A single full-width value after a 3-bit lead: 9 payload bytes,
        // the last field straddling into the ninth.
        check_blocks(&[(3, vec![0b101]), (64, vec![u64::MAX])]);
    }

    #[test]
    fn mixed_width_roundtrip() {
        let mut state = 0xFEED_5EED_u64;
        let fields: Vec<(u32, Vec<u64>)> = (0..10_000)
            .map(|_| {
                let width = (lcg(&mut state) >> 58) as u32; // 0..=63
                (width, vec![masked(lcg(&mut state), width)])
            })
            .collect();
        check_blocks(&fields);
    }

    #[test]
    fn full_width_values_roundtrip() {
        let values = vec![0u64, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63];
        // Offset by 3 bits so the 64-bit reads straddle words.
        check_blocks(&[(3, vec![0b101]), (64, values)]);
    }

    #[test]
    fn tail_reads_are_zero_padded_not_panics() {
        let mut payload = [0u8; 2];
        let mut packer = Packer::new(&mut payload);
        packer.push(0x3FF, 10);
        packer.finish();
        assert_eq!(payload, [0xFF, 0x03]);
        let mut fields = [0];
        unpack(&payload, 0, 10, &mut fields, |v| v);
        assert_eq!(fields, [0x3FF]);
    }
}
