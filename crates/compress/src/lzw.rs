//! LZW dictionary coding with variable-width codes (9–16 bits) and
//! dictionary reset, in the GIF/TIFF tradition the paper's Table 4 LZW
//! column represents.

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};

const CLEAR_CODE: u32 = 256;
const END_CODE: u32 = 257;
const FIRST_FREE: u32 = 258;
const MAX_BITS: u8 = 16;

/// The LZW codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lzw;

impl Lzw {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

fn code_width(next_code: u32) -> u8 {
    // Width needed to express the next code to be assigned.
    let mut bits = 9u8;
    while (1u32 << bits) < next_code + 1 && bits < MAX_BITS {
        bits += 1;
    }
    bits
}

/// The encoder's dictionary: an open-addressed map from (prefix code,
/// next byte) to the code of their concatenation. It doubles when it
/// would pass half full, so probes stay short and always find a free
/// slot.
struct EncoderDict {
    /// `(prefix << 8 | byte) + 1` per slot; 0 marks an empty slot.
    keys: Vec<u32>,
    codes: Vec<u16>,
    /// Occupied slots.
    len: usize,
    /// Hash shift: the table has `2^(32 - shift)` slots.
    shift: u32,
}

impl EncoderDict {
    /// An empty table of `slots` (a power of two) slots.
    fn with_slots(slots: usize) -> Self {
        Self {
            keys: vec![0; slots],
            codes: vec![0; slots],
            len: 0,
            shift: 32 - slots.trailing_zeros(),
        }
    }

    /// Stores `key → code` in `slot`, the empty slot [`Self::slot`]
    /// returned for `key`.
    fn insert(&mut self, slot: usize, key: u32, code: u16) {
        self.keys[slot] = key;
        self.codes[slot] = code;
        self.len += 1;
        if 2 * self.len > self.keys.len() {
            let old = std::mem::replace(self, Self::with_slots(2 * self.keys.len()));
            for (&key, &code) in old.keys.iter().zip(&old.codes) {
                if key != 0 {
                    let slot = self.slot(key);
                    self.keys[slot] = key;
                    self.codes[slot] = code;
                }
            }
            self.len = old.len;
        }
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    #[inline]
    fn slot(&self, key: u32) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize;
        while self.keys[i] != key && self.keys[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }
}

impl Codec for Lzw {
    fn name(&self) -> &'static str {
        "LZW"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        let mut next_code = FIRST_FREE;

        w.write_bits(u64::from(CLEAR_CODE), code_width(next_code));

        let mut iter = data.iter();
        let Some(&first) = iter.next() else {
            w.write_bits(u64::from(END_CODE), code_width(next_code));
            return w.into_bytes();
        };
        // Room for a code per four input bytes before the first doubling
        // (RGB scenes take one per 4.4 bytes, SAR scenes one per ~100),
        // and never more than a full dictionary's 65,536 at half load.
        let mut dict =
            EncoderDict::with_slots((data.len() / 2).next_power_of_two().clamp(64, 1 << 17));
        let mut current: u32 = u32::from(first);

        for &b in iter {
            let key = ((current << 8) | u32::from(b)) + 1;
            let slot = dict.slot(key);
            if dict.keys[slot] == key {
                current = u32::from(dict.codes[slot]);
            } else {
                w.write_bits(u64::from(current), code_width(next_code));
                dict.insert(slot, key, next_code as u16);
                next_code += 1;
                if next_code >= (1 << MAX_BITS) - 1 {
                    // Dictionary full: emit clear, reset.
                    w.write_bits(u64::from(CLEAR_CODE), code_width(next_code));
                    dict.clear();
                    next_code = FIRST_FREE;
                }
                current = u32::from(b);
            }
        }
        w.write_bits(u64::from(current), code_width(next_code));
        next_code += 1;
        w.write_bits(u64::from(END_CODE), code_width(next_code));
        w.into_bytes()
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut r = BitReader::new(data);
        let mut out = Vec::new();

        // Dictionary: code `FIRST_FREE + k` is the string at `dict[k] =
        // (offset, len)` in `out` — every dictionary string has already
        // been written there once. Codes 0..=255 are the literals.
        let mut dict: Vec<(usize, usize)> = Vec::new();
        // Where the previous code's string sits in `out`.
        let mut prev: Option<(usize, usize)> = None;
        // Codes consumed since the last CLEAR. The encoder performs one
        // dictionary insert per code it writes, so the width of the i-th
        // code after a clear (1-based) is `code_width(257 + i)` on both
        // sides — tracking the count, not the dictionary size, keeps the
        // decoder in lock-step through width changes.
        let mut codes_since_clear: u64 = 0;

        loop {
            let width = code_width((258 + codes_since_clear).min(u64::from(u32::MAX)) as u32);
            if r.remaining() < width as usize {
                return Err(CodecError::new("LZW stream ended without END code"));
            }
            let code = r.read_bits(width)? as u32;
            if code == END_CODE {
                return Ok(out);
            }
            codes_since_clear += 1;
            if code == CLEAR_CODE {
                dict.clear();
                prev = None;
                codes_since_clear = 0;
                continue;
            }
            let next_code = FIRST_FREE + dict.len() as u32;
            let start = out.len();
            if code < 256 {
                out.push(code as u8);
            } else if code < next_code {
                let (offset, len) = dict[(code - FIRST_FREE) as usize];
                out.extend_from_within(offset..offset + len);
            } else {
                // The KwKwK special case: code == next_code, the previous
                // string followed by its own first byte.
                let (offset, len) =
                    prev.ok_or_else(|| CodecError::new("LZW forward reference at start"))?;
                if code != next_code {
                    return Err(CodecError::new("LZW invalid code"));
                }
                out.extend_from_within(offset..offset + len);
                out.push(out[offset]);
            }
            // The new entry is the previous string plus this one's first
            // byte, which `out` holds right after it.
            if let Some((offset, len)) = prev {
                dict.push((offset, len + 1));
            }
            prev = Some((start, out.len() - start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    fn round_trip(data: &[u8]) {
        let codec = Lzw::new();
        let packed = codec.compress(data);
        let back = codec.decompress(&packed).expect("decode");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_single_byte() {
        round_trip(&[]);
        round_trip(&[42]);
    }

    #[test]
    fn repeated_pattern_compresses() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabcabcabc".repeat(50);
        let codec = Lzw::new();
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len() / 3);
        round_trip(&data);
    }

    #[test]
    fn kwkwk_case() {
        // "aaaa..." exercises the code == next_code special case.
        round_trip(&vec![b'a'; 100]);
    }

    #[test]
    fn dictionary_reset_on_large_input() {
        // Enough distinct digrams to overflow a 16-bit dictionary.
        let mut data = Vec::with_capacity(600_000);
        let mut x = 1u32;
        for _ in 0..600_000 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            data.push((x >> 16) as u8);
        }
        round_trip(&data);
    }

    #[test]
    fn garbage_input_errors() {
        let codec = Lzw::new();
        assert!(codec.decompress(&[0xFF, 0xFF, 0xFF]).is_err());
    }

    #[test]
    fn round_trips_arbitrary() {
        prop::check("round_trips_arbitrary", 64, |g| {
            let data = g.draw(prop::vec(any::<u8>(), 0..3000));

            round_trip(&data);
        });
    }

    /// The encoder with a plain `HashMap` dictionary and otherwise the
    /// same code assignment, widths and CLEAR policy as
    /// [`Lzw::compress`]. Returns the stream and how many times it
    /// filled the dictionary and reset.
    fn reference_compress(data: &[u8]) -> (Vec<u8>, usize) {
        let mut w = BitWriter::new();
        let mut next_code = FIRST_FREE;
        let mut resets = 0;
        w.write_bits(u64::from(CLEAR_CODE), code_width(next_code));
        let Some((&first, rest)) = data.split_first() else {
            w.write_bits(u64::from(END_CODE), code_width(next_code));
            return (w.into_bytes(), resets);
        };
        // lint:allow(nondeterministic-iteration) lookup-only dictionary, never iterated
        let mut dict = std::collections::HashMap::<(u32, u8), u32>::new();
        let mut current = u32::from(first);
        for &b in rest {
            if let Some(&code) = dict.get(&(current, b)) {
                current = code;
                continue;
            }
            w.write_bits(u64::from(current), code_width(next_code));
            dict.insert((current, b), next_code);
            next_code += 1;
            if next_code >= (1 << MAX_BITS) - 1 {
                w.write_bits(u64::from(CLEAR_CODE), code_width(next_code));
                dict.clear();
                next_code = FIRST_FREE;
                resets += 1;
            }
            current = u32::from(b);
        }
        w.write_bits(u64::from(current), code_width(next_code));
        next_code += 1;
        w.write_bits(u64::from(END_CODE), code_width(next_code));
        (w.into_bytes(), resets)
    }

    /// Pins the open-addressed dictionary to a plain map, byte for byte:
    /// a table that loses or misplaces an entry on a doubling re-adds
    /// the key under a new code, which still round-trips but changes
    /// the stream. Inputs under 128 bytes start at 64 slots and double
    /// up to three times; every eighth case runs past 65,536 codes, so
    /// the dictionary also fills and resets.
    #[test]
    fn encoder_matches_hashmap_reference() {
        prop::check("encoder_matches_hashmap_reference", 48, |g| {
            let long = g.case() % 8 == 0;
            let len = if long {
                g.draw(150_000usize..200_000)
            } else if g.case() % 2 == 1 {
                g.draw(0usize..128)
            } else {
                g.draw(0usize..4000)
            };
            let alphabet = if long { 256 } else { g.draw(2u16..257) };
            let data: Vec<u8> = g
                .draw(prop::vec(0..alphabet, len..len + 1))
                .into_iter()
                .map(|b| b as u8)
                .collect();
            let (expected, resets) = reference_compress(&data);
            assert_eq!(Lzw::new().compress(&data), expected, "len {len}");
            if long {
                assert!(resets > 0, "{len} bytes never filled the dictionary");
            }
        });
    }

    #[test]
    fn round_trips_textlike() {
        prop::check("round_trips_textlike", 64, |g| {
            let picks = g.draw(prop::vec(0usize..6, 0..2001));
            let text: Vec<u8> = picks.into_iter().map(|i| b"abcde "[i]).collect();
            round_trip(&text);
        });
    }
}
