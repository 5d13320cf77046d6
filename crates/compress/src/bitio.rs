//! MSB-first bit-level I/O used by the entropy coders.
//!
//! Both ends work a machine word at a time: the writer shifts whole
//! fields into a 64-bit accumulator and appends complete 32-bit words,
//! and the reader loads the eight bytes under the cursor as one
//! big-endian word.
//! The streams and the error behaviour (where the cursor stops, which
//! error comes back) are exactly those of a bit-at-a-time loop; the
//! tests below check that against one.

use crate::CodecError;

fn exhausted() -> CodecError {
    CodecError::new("bitstream exhausted")
}

/// Writes bits MSB-first into a growing byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned in the low `pending` bits (the bits
    /// above them are stale and never read).
    acc: u64,
    /// Bits in `acc` not yet flushed to `bytes` (0..32 between calls).
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.put(u64::from(bit), 1);
    }

    /// Appends the low `count` bits of `value`, MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let count = u32::from(count);
        if count > 32 {
            self.put(value >> 32, count - 32);
            self.put(value, 32);
        } else {
            self.put(value, count);
        }
    }

    /// Appends the low `count` (≤ 32) bits of `value`. Fewer than 32
    /// bits are pending, so the field fits beside them; a completed
    /// 32-bit word goes out as one big-endian append.
    #[inline]
    fn put(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 32 && self.pending < 32);
        self.acc = (self.acc << count) | (value & ((1u64 << count) - 1));
        self.pending += count;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Moves the whole bytes among the pending bits to the buffer,
    /// leaving fewer than eight pending.
    fn flush_bytes(&mut self) {
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
    }

    /// Appends `n` zero bits followed by a one bit (unary coding).
    pub fn write_unary(&mut self, n: u64) {
        let mut zeros = n;
        if zeros >= 56 {
            // Fill the partial byte, flush the pending bytes ahead of
            // the run, then append whole zero bytes.
            let pad = (8 - self.pending % 8) % 8;
            self.put(0, pad);
            zeros -= u64::from(pad);
            self.flush_bytes();
            let whole = (zeros / 8) as usize;
            self.bytes.resize(self.bytes.len() + whole, 0);
            zeros %= 8;
        }
        self.write_bits(1, zeros as u8 + 1);
    }

    /// Number of bits written so far.
    #[cfg(test)]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finishes writing (zero-padding the final byte) and returns the
    /// buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_bytes();
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // absolute bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Remaining readable bits.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// The bits from the cursor on, left-aligned in a `u64`: at least
    /// the next 57 (or all that remain), zero-padded past the end.
    #[inline]
    pub(crate) fn window(&self) -> u64 {
        let i = self.pos / 8;
        let word = match self.bytes.get(i..i + 8).map(<[u8; 8]>::try_from) {
            Some(Ok(bytes)) => u64::from_be_bytes(bytes),
            _ => {
                let mut buf = [0u8; 8];
                let tail = self.bytes.get(i..).unwrap_or_default();
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        word << (self.pos % 8)
    }

    /// The next `count` (≤ 56) bits without consuming them, zero-padded
    /// past the end of input.
    #[inline]
    pub(crate) fn peek(&self, count: u8) -> u64 {
        debug_assert!((1..=56).contains(&count));
        self.window() >> (64 - u32::from(count))
    }

    /// Advances the cursor by `count` bits, which must remain.
    #[inline]
    pub(crate) fn consume(&mut self, count: usize) {
        debug_assert!(count <= self.remaining());
        self.pos += count;
    }

    /// Moves the cursor to the end of input and reports exhaustion —
    /// where a bit-at-a-time read that ran out would have left it.
    pub(crate) fn exhaust(&mut self) -> CodecError {
        self.pos = self.bytes.len() * 8;
        exhausted()
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] at end of input.
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        let byte = self.pos / 8;
        let Some(&b) = self.bytes.get(byte) else {
            return Err(exhausted());
        };
        let bit = (b >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `count` bits MSB-first into the low bits of a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if fewer than `count` bits remain; the
    /// cursor is then left at the end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u64, CodecError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if usize::from(count) > self.remaining() {
            return Err(self.exhaust());
        }
        if count == 0 {
            return Ok(0);
        }
        if count > 56 {
            let hi = self.read_bits(count - 32)?;
            return Ok((hi << 32) | self.read_bits(32)?);
        }
        let v = self.peek(count);
        self.pos += usize::from(count);
        Ok(v)
    }

    /// Reads `len` whole bytes (eight bits each, MSB-first), at any bit
    /// alignment.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if fewer than `8 * len` bits remain; the
    /// cursor is then left at the end of input.
    pub fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>, CodecError> {
        if len > self.remaining() / 8 {
            return Err(self.exhaust());
        }
        let (start, shift) = (self.pos / 8, self.pos % 8);
        let out = if shift == 0 {
            self.bytes[start..start + len].to_vec()
        } else {
            // The last of the `len` bytes ends inside byte `start + len`.
            self.bytes[start..=start + len]
                .windows(2)
                .map(|w| (w[0] << shift) | (w[1] >> (8 - shift)))
                .collect()
        };
        self.pos += 8 * len;
        Ok(out)
    }

    /// Reads a unary-coded value (count of zero bits before the first one
    /// bit).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if input ends before the terminating bit, or
    /// if the run is implausibly long (corrupt data guard).
    pub fn read_unary(&mut self) -> Result<u64, CodecError> {
        // A run of more than 2^32 zeros is corrupt; the error leaves the
        // cursor just past the zero that crossed the limit.
        const LIMIT: u64 = 1 << 32;
        let start = self.pos;
        let too_long = |r: &mut Self| {
            r.pos = start + (LIMIT + 1) as usize;
            Err(CodecError::new("unary run too long (corrupt stream)"))
        };
        let mut zeros = 0u64;
        loop {
            let span = self.remaining().min(56);
            if span == 0 {
                return Err(exhausted());
            }
            let lead = self.window().leading_zeros() as usize;
            if lead < span {
                zeros += lead as u64;
                if zeros > LIMIT {
                    return too_long(self);
                }
                self.pos += lead + 1;
                return Ok(zeros);
            }
            zeros += span as u64;
            if zeros > LIMIT {
                return too_long(self);
            }
            self.pos += span;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    #[test]
    fn bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bit(false);
        w.write_bits(0b1011, 4);
        w.write_unary(3);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_unary().unwrap(), 3);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn reading_past_end_errors() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn unary_at_end_of_stream_errors() {
        // All zeros, no terminator within the byte.
        let mut r = BitReader::new(&[0x00]);
        assert!(r.read_unary().is_err());
    }

    /// Bit-at-a-time reference writer: the original `BitWriter`.
    #[derive(Default)]
    struct RefWriter {
        bytes: Vec<u8>,
        bit_pos: u8,
    }

    impl RefWriter {
        fn write_bit(&mut self, bit: bool) {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 1 << (7 - self.bit_pos);
            }
            self.bit_pos = (self.bit_pos + 1) % 8;
        }

        fn write_bits(&mut self, value: u64, count: u8) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn write_unary(&mut self, n: u64) {
            for _ in 0..n {
                self.write_bit(false);
            }
            self.write_bit(true);
        }
    }

    /// Bit-at-a-time reference reader: the original `BitReader`.
    struct RefReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl RefReader<'_> {
        fn remaining(&self) -> usize {
            self.bytes.len() * 8 - self.pos
        }

        fn read_bit(&mut self) -> Result<bool, CodecError> {
            let byte = self.pos / 8;
            if byte >= self.bytes.len() {
                return Err(CodecError::new("bitstream exhausted"));
            }
            let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        fn read_bits(&mut self, count: u8) -> Result<u64, CodecError> {
            let mut v = 0u64;
            for _ in 0..count {
                v = (v << 1) | u64::from(self.read_bit()?);
            }
            Ok(v)
        }

        fn read_unary(&mut self) -> Result<u64, CodecError> {
            let mut n = 0u64;
            loop {
                if self.read_bit()? {
                    return Ok(n);
                }
                n += 1;
            }
        }
    }

    #[test]
    fn writer_matches_bit_at_a_time_reference() {
        prop::check("writer_matches_bit_at_a_time_reference", 300, |g| {
            let mut w = BitWriter::new();
            let mut reference = RefWriter::default();
            for _ in 0..g.draw(0..60u32) {
                // Unmasked values: bits above `count` must be ignored.
                let value = g.draw(any::<u64>());
                match g.draw(0..5u8) {
                    0 => {
                        w.write_bit(value & 1 == 1);
                        reference.write_bit(value & 1 == 1);
                    }
                    1 => {
                        let n = g.draw(0..201u64);
                        w.write_unary(n);
                        reference.write_unary(n);
                    }
                    2 => {
                        // A long run after a partial word: the run's zero
                        // bytes must land behind the pending bits.
                        let count = g.draw(1..32u8);
                        let n = g.draw(56..300u64);
                        w.write_bits(value, count);
                        w.write_unary(n);
                        reference.write_bits(value, count);
                        reference.write_unary(n);
                    }
                    _ => {
                        let count = g.draw(0..65u8);
                        w.write_bits(value, count);
                        reference.write_bits(value, count);
                    }
                }
                let ref_len = reference.bytes.len() * 8 - usize::from((8 - reference.bit_pos) % 8);
                assert_eq!(w.bit_len(), ref_len);
            }
            assert_eq!(w.into_bytes(), reference.bytes);
        });
    }

    #[test]
    fn reader_matches_bit_at_a_time_reference_including_past_the_end() {
        let name = "reader_matches_bit_at_a_time_reference_including_past_the_end";
        prop::check(name, 300, |g| {
            let len = g.draw(0..40usize);
            // Sparse bytes make long unary runs and early exhaustion likely.
            let sparse = g.draw(0..3u8) == 0;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    let b = g.draw(any::<u8>());
                    if sparse && !b.is_multiple_of(5) {
                        0
                    } else {
                        b
                    }
                })
                .collect();
            let mut r = BitReader::new(&bytes);
            let mut reference = RefReader {
                bytes: &bytes,
                pos: 0,
            };
            for step in 0..80 {
                let (got, want) = match g.draw(0..4u8) {
                    0 => (
                        r.read_bit().map(u64::from),
                        reference.read_bit().map(u64::from),
                    ),
                    1 => (r.read_unary(), reference.read_unary()),
                    2 => {
                        // Compared as one number: up to 8 bytes, MSB-first.
                        let len = g.draw(0..9usize);
                        let got = r
                            .read_bytes(len)
                            .map(|b| b.iter().fold(0u64, |v, &byte| (v << 8) | u64::from(byte)));
                        let want = (0..len).try_fold(0u64, |v, _| {
                            Ok::<_, CodecError>((v << 8) | reference.read_bits(8)?)
                        });
                        (got, want)
                    }
                    _ => {
                        let count = g.draw(0..65u8);
                        (r.read_bits(count), reference.read_bits(count))
                    }
                };
                assert_eq!(got, want, "step {step}");
                assert_eq!(r.remaining(), reference.remaining(), "step {step}");
            }
        });
    }

    #[test]
    fn arbitrary_bit_sequences_round_trip() {
        prop::check("arbitrary_bit_sequences_round_trip", 256, |g| {
            let values = g.draw(prop::vec((0u64..u64::MAX, 1u8..65), 1..50));

            let mut w = BitWriter::new();
            for &(v, c) in &values {
                let masked = if c == 64 { v } else { v & ((1u64 << c) - 1) };
                w.write_bits(masked, c);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &(v, c) in &values {
                let masked = if c == 64 { v } else { v & ((1u64 << c) - 1) };
                assert_eq!(r.read_bits(c).unwrap(), masked);
            }
        });
    }

    #[test]
    fn unary_round_trips() {
        prop::check("unary_round_trips", 256, |g| {
            let ns = g.draw(prop::vec(0u64..200, 1..30));

            let mut w = BitWriter::new();
            for &n in &ns {
                w.write_unary(n);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &n in &ns {
                assert_eq!(r.read_unary().unwrap(), n);
            }
        });
    }
}
