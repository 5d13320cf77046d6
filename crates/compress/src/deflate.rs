//! "Mini-deflate": LZ77 + canonical Huffman, the Zip-family codec of
//! Table 4.
//!
//! Stream layout: two serialised Huffman length tables
//! (literal/length alphabet of 286 symbols, distance alphabet of 30
//! symbols) followed by the token stream and an end-of-block symbol.
//! Length and distance values use deflate's standard base+extra-bits
//! binning.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::HuffmanTable;
use crate::lz77::{self, Token};
use crate::{Codec, CodecError};

const EOB: usize = 256;
const LITLEN_SYMBOLS: usize = 286;
const DIST_SYMBOLS: usize = 30;

/// Bits of the two length tables every stream opens with: a 16-bit
/// count and 4 bits per symbol each.
const HEADER_BITS: u64 = (2 * 16 + 4 * (LITLEN_SYMBOLS + DIST_SYMBOLS)) as u64;

/// Length in bytes of the shortest possible stream: the two length
/// tables and a 1-bit end-of-block code.
pub const MIN_STREAM_LEN: usize = (HEADER_BITS as usize + 1).div_ceil(8);

/// Deflate length-code table: (base length, extra bits) for codes 257..=285.
const LENGTH_CODES: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// Deflate distance-code table: (base distance, extra bits) for codes 0..=29.
const DIST_CODES: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// For `k` in `0..256`, the index of the last entry of `codes` (bases
/// ascending) whose base is at most `first + (k << shift)`.
const fn last_base_at_most(codes: &[(u16, u8)], first: usize, shift: u32) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut k = 0;
    while k < 256 {
        let v = first + (k << shift);
        let mut idx = 0;
        while idx + 1 < codes.len() && codes[idx + 1].0 as usize <= v {
            idx += 1;
        }
        table[k] = idx as u8;
        k += 1;
    }
    table
}

/// `LENGTH_INDEX[len - 3]`: the `LENGTH_CODES` entry of a match length.
const LENGTH_INDEX: [u8; 256] = last_base_at_most(&LENGTH_CODES, 3, 0);
/// The `DIST_CODES` entry of a distance: `DIST_INDEX_NEAR[dist - 1]` up
/// to 256, else `DIST_INDEX_FAR[(dist - 1) >> 7]` (every base past 256
/// is 1 plus a multiple of 128, so each 128-block shares one code).
const DIST_INDEX_NEAR: [u8; 256] = last_base_at_most(&DIST_CODES, 1, 0);
const DIST_INDEX_FAR: [u8; 256] = last_base_at_most(&DIST_CODES, 1, 7);

/// Maps a match length, given as `len - 3` (a [`Token::Match`]'s
/// `extra_len`), to (symbol, extra-bit value, extra bits).
#[inline]
fn length_symbol(extra_len: u8) -> (usize, u64, u8) {
    let idx = usize::from(LENGTH_INDEX[usize::from(extra_len)]);
    let (base, extra) = LENGTH_CODES[idx];
    (257 + idx, u64::from(u16::from(extra_len) + 3 - base), extra)
}

/// Maps a distance (1..=32768) to (symbol, extra-bit value, extra bits).
#[inline]
fn distance_symbol(dist: u16) -> (usize, u64, u8) {
    debug_assert!(dist >= 1);
    let x = usize::from(dist.saturating_sub(1));
    let idx = usize::from(if x < 256 {
        DIST_INDEX_NEAR[x]
    } else {
        DIST_INDEX_FAR[(x >> 7).min(255)]
    });
    let (base, extra) = DIST_CODES[idx];
    (idx, u64::from(dist - base), extra)
}

/// The Zip-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct MiniDeflate;

impl MiniDeflate {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl Codec for MiniDeflate {
    fn name(&self) -> &'static str {
        "Zip"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        plan(data).write_into(&mut w);
        w.into_bytes()
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut r = BitReader::new(data);
        let lit_table = HuffmanTable::read_lengths(&mut r)?;
        let dist_table = HuffmanTable::read_lengths(&mut r)?;
        if lit_table.lengths().len() != LITLEN_SYMBOLS || dist_table.lengths().len() != DIST_SYMBOLS
        {
            return Err(CodecError::new(
                "mini-deflate header alphabet size mismatch",
            ));
        }
        let lit = lit_table.decoder();
        let dist = dist_table.decoder();

        let mut out: Vec<u8> = Vec::new();
        loop {
            let sym = lit.decode(&mut r)?;
            if sym == EOB {
                return Ok(out);
            }
            if sym < 256 {
                out.push(sym as u8);
                continue;
            }
            let code = sym - 257;
            if code >= LENGTH_CODES.len() {
                return Err(CodecError::new("invalid length symbol"));
            }
            let (base, extra) = LENGTH_CODES[code];
            let len = base as usize + r.read_bits(extra)? as usize;

            let dsym = dist.decode(&mut r)?;
            if dsym >= DIST_CODES.len() {
                return Err(CodecError::new("invalid distance symbol"));
            }
            let (dbase, dextra) = DIST_CODES[dsym];
            let d = dbase as usize + r.read_bits(dextra)? as usize;
            if d == 0 || d > out.len() {
                return Err(CodecError::new("mini-deflate distance out of range"));
            }
            let start = out.len() - d;
            if d >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping copy: each byte may be one this match wrote.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
}

/// A tokenised input and its Huffman tables: the stream
/// [`MiniDeflate`] writes, sized before a bit of it is written.
#[derive(Debug)]
pub(crate) struct Plan {
    tokens: Vec<Token>,
    lit_table: HuffmanTable,
    dist_table: HuffmanTable,
    bits: u64,
}

/// Tokenises `data` and builds the Huffman tables for its tokens.
pub(crate) fn plan(data: &[u8]) -> Plan {
    let tokens = lz77::tokenize(data);

    // Frequency pass, counting the extra bits as it goes.
    let mut lit_freq = vec![0u64; LITLEN_SYMBOLS];
    let mut dist_freq = vec![0u64; DIST_SYMBOLS];
    let mut extra_bits = 0u64;
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match {
                extra_len,
                distance,
            } => {
                let (ls, _, le) = length_symbol(extra_len);
                let (ds, _, de) = distance_symbol(distance);
                lit_freq[ls] += 1;
                dist_freq[ds] += 1;
                extra_bits += u64::from(le) + u64::from(de);
            }
        }
    }
    lit_freq[EOB] += 1;
    // Distance table must be non-degenerate even with no matches.
    let no_match = dist_freq.iter().all(|&f| f == 0);
    if no_match {
        dist_freq[0] = 1;
    }
    let lit_table = HuffmanTable::from_frequencies(&lit_freq);
    let dist_table = HuffmanTable::from_frequencies(&dist_freq);

    let code_bits = |freqs: &[u64], table: &HuffmanTable| -> u64 {
        freqs
            .iter()
            .zip(table.lengths())
            .map(|(&f, &l)| f * u64::from(l))
            .sum()
    };
    let mut bits = HEADER_BITS + code_bits(&lit_freq, &lit_table) + extra_bits;
    // The dummy distance entry is never coded.
    if !no_match {
        bits += code_bits(&dist_freq, &dist_table);
    }
    Plan {
        tokens,
        lit_table,
        dist_table,
        bits,
    }
}

impl Plan {
    /// Length in bits of the stream [`Plan::write_into`] writes.
    pub(crate) fn bit_len(&self) -> u64 {
        self.bits
    }

    /// Writes the stream: both length tables, the tokens and the
    /// end-of-block code.
    pub(crate) fn write_into(&self, w: &mut BitWriter) {
        let (lit_table, dist_table) = (&self.lit_table, &self.dist_table);
        lit_table.write_lengths(w);
        dist_table.write_lengths(w);
        for t in &self.tokens {
            match *t {
                Token::Literal(b) => lit_table.encode(b as usize, w),
                Token::Match {
                    extra_len,
                    distance,
                } => {
                    let (ls, lv, le) = length_symbol(extra_len);
                    lit_table.encode(ls, w);
                    w.write_bits(lv, le);
                    let (ds, dv, de) = distance_symbol(distance);
                    dist_table.encode(ds, w);
                    w.write_bits(dv, de);
                }
            }
        }
        lit_table.encode(EOB, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    fn round_trip(data: &[u8]) {
        let codec = MiniDeflate::new();
        let packed = codec.compress(data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn binning_tables_cover_full_ranges() {
        for len in 3u16..=258 {
            let (sym, extra_val, extra_bits) = length_symbol((len - 3) as u8);
            assert!((257..286).contains(&sym));
            let (base, eb) = LENGTH_CODES[sym - 257];
            assert_eq!(eb, extra_bits);
            assert_eq!(u64::from(len - base), extra_val);
            assert!(extra_val < (1 << extra_bits.max(1)));
        }
        for dist in 1u16..=32767 {
            let (sym, extra_val, extra_bits) = distance_symbol(dist);
            assert!(sym < 30);
            let (base, _) = DIST_CODES[sym];
            assert_eq!(u64::from(dist - base), extra_val);
            assert!(extra_bits >= 13 || extra_val < (1 << extra_bits.max(1)));
        }
    }

    #[test]
    fn lookup_tables_pick_the_last_code_whose_base_fits() {
        let last = |codes: &[(u16, u8)], v: u16| codes.iter().rposition(|&(b, _)| b <= v);
        for len in 3u16..=258 {
            assert_eq!(
                Some(length_symbol((len - 3) as u8).0 - 257),
                last(&LENGTH_CODES, len)
            );
        }
        for dist in 1u16..=32768 {
            assert_eq!(Some(distance_symbol(dist).0), last(&DIST_CODES, dist));
        }
    }

    #[test]
    fn text_compresses_better_than_half() {
        let data = include_str!("deflate.rs").as_bytes().to_vec();
        let codec = MiniDeflate::new();
        let r = codec.ratio(&data);
        assert!(r > 2.0, "source code should compress ≥2×, got {r}");
        round_trip(&data);
    }

    #[test]
    fn empty_input_gives_the_shortest_stream() {
        assert_eq!(MiniDeflate::new().compress(&[]).len(), MIN_STREAM_LEN);
    }

    #[test]
    fn empty_and_small_inputs() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[1, 2, 3]);
    }

    #[test]
    fn long_runs_compress_hugely() {
        let data = vec![0u8; 100_000];
        let codec = MiniDeflate::new();
        let packed = codec.compress(&data);
        assert!(packed.len() < 1500, "got {}", packed.len());
        round_trip(&data);
    }

    #[test]
    fn matches_at_the_extremes_round_trip() {
        // 32 KiB of noise repeated: the repeat is coded as matches of the
        // longest length from the farthest distance. A run is coded as
        // matches of the longest length from distance 1.
        let mut rng = simkit::rng::Rng64::seed_from_u64(7);
        let mut data: Vec<u8> = (0..lz77::MAX_DISTANCE)
            .map(|_| rng.next_u64() as u8)
            .collect();
        data.extend_from_within(..600);
        data.extend([9u8; 600]);
        let tokens = lz77::tokenize(&data);
        for extreme in [
            Token::back_ref(lz77::MAX_MATCH, lz77::MAX_DISTANCE),
            Token::back_ref(lz77::MAX_MATCH, 1),
        ] {
            assert!(tokens.contains(&extreme), "no {extreme:?}");
        }
        round_trip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let codec = MiniDeflate::new();
        let packed = codec.compress(b"hello world hello world");
        let truncated = &packed[..packed.len() - 3];
        assert!(codec.decompress(truncated).is_err());
    }

    #[test]
    fn round_trips_arbitrary() {
        prop::check("round_trips_arbitrary", 48, |g| {
            let data = g.draw(prop::vec(any::<u8>(), 0..4000));

            round_trip(&data);
        });
    }

    #[test]
    fn plan_length_is_the_stream_length() {
        prop::check("plan_length_is_the_stream_length", 64, |g| {
            // Noise, runs, inputs shorter than a match, and inputs with
            // no match at all (only the dummy distance entry).
            let case = g.draw(0..4u8);
            let data: Vec<u8> = match case {
                0 => g.draw(prop::vec(any::<u8>(), 0..4000)),
                1 => {
                    let run = g.draw(1usize..3000);
                    let mut data = vec![g.draw(any::<u8>()); run];
                    data.extend(g.draw(prop::vec(any::<u8>(), 0..64)));
                    data
                }
                2 => g.draw(prop::vec(any::<u8>(), 0..lz77::MIN_MATCH)),
                _ => {
                    let len = g.draw(0..256usize);
                    let start = g.draw(any::<u8>());
                    (0..len).map(|i| start.wrapping_add(i as u8)).collect()
                }
            };
            let plan = plan(&data);
            if case == 3 {
                assert!(plan.tokens.iter().all(|t| matches!(t, Token::Literal(_))));
            }
            let stream = MiniDeflate::new().compress(&data);
            assert_eq!(plan.bit_len().div_ceil(8), stream.len() as u64);
            let mut w = BitWriter::new();
            plan.write_into(&mut w);
            assert_eq!(w.bit_len() as u64, plan.bit_len());
        });
    }

    #[test]
    fn round_trips_repetitive() {
        prop::check("round_trips_repetitive", 48, |g| {
            let unit = g.draw(prop::vec(any::<u8>(), 1..64));
            let reps = g.draw(1usize..200);

            let data: Vec<u8> = unit
                .iter()
                .cycle()
                .take(unit.len() * reps)
                .copied()
                .collect();
            round_trip(&data);
        });
    }
}
