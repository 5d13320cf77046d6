//! Rice–Golomb coding of non-negative integers, the entropy stage of the
//! CCSDS-like and DWT codecs.
//!
//! A value `v` with parameter `k` is coded as `v >> k` in unary followed
//! by the low `k` bits verbatim. Optimal `k` tracks the mean of the
//! residual distribution.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Maximum Rice parameter supported (samples here are mapped 8–20-bit
/// residuals).
pub const MAX_K: u8 = 24;

/// Encodes one value with parameter `k`.
///
/// # Panics
///
/// Panics if `k > MAX_K`.
#[inline]
pub fn encode(value: u64, k: u8, w: &mut BitWriter) {
    assert!(k <= MAX_K, "rice parameter too large");
    let q = value >> k;
    let rem = value & ((1u64 << k) - 1);
    if q + 1 + u64::from(k) <= 56 {
        // The unary zeros are the leading zeros of one field: a single
        // write of `1 << k | rem` over `q + 1 + k` bits.
        w.write_bits((1u64 << k) | rem, (q + 1) as u8 + k);
    } else {
        w.write_unary(q);
        w.write_bits(rem, k);
    }
}

/// Decodes one value with parameter `k`.
///
/// # Errors
///
/// Returns [`CodecError`] on exhausted input.
///
/// # Panics
///
/// Panics if `k > MAX_K`.
#[inline]
pub fn decode(k: u8, r: &mut BitReader<'_>) -> Result<u64, CodecError> {
    assert!(k <= MAX_K, "rice parameter too large");
    // Fast paths: the whole code lies in the next word of input.
    let window = r.window();
    if window >> 63 == 1 && usize::from(k) < r.remaining() {
        // A zero quotient, the common case: branching on it (rather than
        // counting zeros) keeps the cursor independent of the data, so
        // consecutive decodes overlap.
        let rem = match k {
            0 => 0,
            k => (window << 1) >> (64 - u32::from(k)),
        };
        r.consume(1 + usize::from(k));
        return Ok(rem);
    }
    let q = window.leading_zeros();
    let used = q + 1 + u32::from(k);
    if used <= 56 && used as usize <= r.remaining() {
        let rem = match k {
            0 => 0,
            k => (window << (q + 1)) >> (64 - u32::from(k)),
        };
        r.consume(used as usize);
        return Ok((u64::from(q) << k) | rem);
    }
    let q = r.read_unary()?;
    let rem = r.read_bits(k)?;
    Ok((q << k) | rem)
}

/// Bit cost of coding `value` with parameter `k`.
pub fn cost(value: u64, k: u8) -> u64 {
    (value >> k) + 1 + u64::from(k)
}

/// The `k` in `0..=MAX_K` minimising total bit cost for a block of values
/// (the smallest such `k` on ties).
///
/// The block cost `Σ(v >> k) + n(1 + k)` is convex in `k`: its step
/// `n − Σ⌈(v >> k) / 2⌉` never decreases as `k` grows. So the first `k`
/// whose successor does not cost strictly less is the first minimum, and
/// the search stops there instead of trying every `k`.
pub fn best_k(values: &[u64]) -> u8 {
    best_k_with_cost(values).0
}

/// [`best_k`] and the block's bit cost at that `k`.
fn best_k_with_cost(values: &[u64]) -> (u8, u64) {
    let block_cost = |k: u8| -> u64 { values.iter().map(|&v| cost(v, k)).sum() };
    let mut best = 0u8;
    let mut best_cost = block_cost(0);
    while best < MAX_K {
        let c = block_cost(best + 1);
        if c >= best_cost {
            break;
        }
        best += 1;
        best_cost = c;
    }
    (best, best_cost)
}

/// Maps a signed residual to a non-negative integer (zig-zag: 0, -1, 1,
/// -2, 2 → 0, 1, 2, 3, 4).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Block-adaptive Rice coding: splits `values` into blocks of
/// `block_size`, picks the best `k` per block, and writes a 5-bit `k`
/// header per block. This is the CCSDS-121 adaptive-entropy-coder shape
/// (without the zero-block and second-extension options). Values are
/// drawn one block at a time, so a caller can map them on the fly
/// instead of buffering them all.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub fn encode_blocks(values: impl IntoIterator<Item = u64>, block_size: usize, w: &mut BitWriter) {
    assert!(block_size > 0, "block size must be positive");
    let mut values = values.into_iter();
    let mut block = Vec::with_capacity(block_size);
    loop {
        block.clear();
        block.extend(values.by_ref().take(block_size));
        if block.is_empty() {
            return;
        }
        write_block(&block, best_k(&block), w);
    }
}

/// Writes one block of [`encode_blocks`]: its 5-bit `k`, then each
/// value.
fn write_block(block: &[u64], k: u8, w: &mut BitWriter) {
    w.write_bits(u64::from(k), 5);
    for &v in block {
        encode(v, k, w);
    }
}

/// The per-block parameters [`encode_blocks`] picks for `values`, with
/// the exact length in bits of the stream it writes: 5 bits per block
/// plus each block's cost at its `k`.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub(crate) fn plan_blocks(values: &[u64], block_size: usize) -> (Vec<u8>, u64) {
    let mut bits = 0;
    let ks = values
        .chunks(block_size)
        .map(|block| {
            let (k, cost) = best_k_with_cost(block);
            bits += 5 + cost;
            k
        })
        .collect();
    (ks, bits)
}

/// Writes the stream [`encode_blocks`] writes for `values`, with the
/// per-block parameters `ks` from [`plan_blocks`].
pub(crate) fn write_blocks(values: &[u64], ks: &[u8], block_size: usize, w: &mut BitWriter) {
    for (block, &k) in values.chunks(block_size).zip(ks) {
        write_block(block, k, w);
    }
}

/// Decodes `count` values written by [`encode_blocks`].
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub fn decode_blocks(
    count: usize,
    block_size: usize,
    r: &mut BitReader<'_>,
) -> Result<Vec<u64>, CodecError> {
    assert!(block_size > 0, "block size must be positive");
    // Each sample costs at least one bit, so a header's `count` can never
    // outrun the input: size the buffer by what the input could hold.
    let mut out = Vec::with_capacity(count.min(r.remaining()));
    while out.len() < count {
        let k = r.read_bits(5)? as u8;
        if k > MAX_K {
            return Err(CodecError::new("rice parameter out of range"));
        }
        let n = block_size.min(count - out.len());
        for _ in 0..n {
            out.push(decode(k, r)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop;

    #[test]
    fn zigzag_round_trip_and_order() {
        for v in [-5i64, -1, 0, 1, 5, 1000, -1000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn single_value_round_trip_over_k_range() {
        for k in 0..=10u8 {
            for v in [0u64, 1, 7, 100, 1023] {
                let mut w = BitWriter::new();
                encode(v, k, &mut w);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(decode(k, &mut r).unwrap(), v, "v={v} k={k}");
            }
        }
    }

    #[test]
    fn best_k_tracks_magnitude() {
        let small: Vec<u64> = vec![0, 1, 0, 2, 1, 0];
        let large: Vec<u64> = vec![900, 1000, 1100, 950];
        assert!(best_k(&small) <= 1);
        assert!(best_k(&large) >= 8);
    }

    #[test]
    fn cost_matches_actual_bits() {
        for (v, k) in [(0u64, 0u8), (5, 0), (5, 2), (100, 4), (1000, 10)] {
            let mut w = BitWriter::new();
            encode(v, k, &mut w);
            assert_eq!(w.bit_len() as u64, cost(v, k), "v={v} k={k}");
        }
    }

    #[test]
    fn block_adaptive_beats_fixed_k_on_mixed_data() {
        // First half tiny residuals, second half large: adaptive blocks
        // should beat any single global k.
        let mut values: Vec<u64> = (0u64..256).map(|i| i % 3).collect();
        values.extend((0u64..256).map(|i| 500 + i % 50));

        let mut adaptive = BitWriter::new();
        encode_blocks(values.iter().copied(), 64, &mut adaptive);
        let adaptive_bits = adaptive.bit_len();

        let global_k = best_k(&values);
        let global_bits: u64 = values.iter().map(|&v| cost(v, global_k)).sum();
        assert!(
            (adaptive_bits as u64) < global_bits,
            "adaptive {adaptive_bits} vs global {global_bits}"
        );
    }

    #[test]
    fn blocks_round_trip_including_ragged_tail() {
        let values: Vec<u64> = (0..1000u64).map(|i| (i * 37) % 257).collect();
        let mut w = BitWriter::new();
        encode_blocks(values.iter().copied(), 64, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let back = decode_blocks(values.len(), 64, &mut r).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn planned_blocks_size_and_write_the_encode_blocks_stream() {
        let name = "planned_blocks_size_and_write_the_encode_blocks_stream";
        prop::check(name, 256, |g| {
            // Mostly small values with rare large ones, so some codes
            // take the long unary path.
            let len = g.draw(0..500usize);
            let values: Vec<u64> = (0..len)
                .map(|_| match g.draw(0..16u8) {
                    0 => g.draw(0..1_000_000u64),
                    _ => g.draw(0..8u64),
                })
                .collect();
            let block = g.draw(1usize..128);

            let mut w = BitWriter::new();
            encode_blocks(values.iter().copied(), block, &mut w);
            let want_bits = w.bit_len() as u64;
            let want = w.into_bytes();

            let (ks, bits) = plan_blocks(&values, block);
            assert_eq!(bits, want_bits);
            let mut w = BitWriter::new();
            write_blocks(&values, &ks, block, &mut w);
            assert_eq!(w.into_bytes(), want);
        });
    }

    #[test]
    fn block_round_trips() {
        prop::check("block_round_trips", 256, |g| {
            let values = g.draw(prop::vec(0u64..1_000_000, 0..500));
            let block = g.draw(1usize..128);

            let mut w = BitWriter::new();
            encode_blocks(values.iter().copied(), block, &mut w);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let back = decode_blocks(values.len(), block, &mut r).unwrap();
            assert_eq!(back, values);
        });
    }
}
