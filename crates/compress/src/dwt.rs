//! JPEG2000-style compression: multi-level 2-D integer 5/3 lifting
//! wavelet transform with Rice-coded coefficients.
//!
//! The reversible (integer) 5/3 filter is exactly the one JPEG2000 uses
//! for lossless coding, so this codec plays the "JPEG2000" column of
//! Table 4. A quantising mode provides the "quasi-lossless" lossy regime
//! the paper mentions (10–20× at high quality).

use crate::bitio::{BitReader, BitWriter};
use crate::{deflate, rice};
use crate::{Codec, CodecError, Raster, RasterCodec};

const BLOCK: usize = 64;

/// Forward 1-D integer 5/3 lifting step on `x`, writing low-pass
/// coefficients to the front half (ceil(n/2)) and high-pass to the back.
fn fwd_53(x: &mut [i32], scratch: &mut Vec<i32>) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let half = n / 2; // number of d (high-pass) coefficients
    let s_count = n - half;

    scratch.clear();
    scratch.resize(n, 0);
    let (s, d) = scratch.split_at_mut(s_count);

    // Predict: d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2), symmetric
    // extension at the right edge.
    for i in 0..half {
        let left = x[2 * i];
        let right = if 2 * i + 2 < n {
            x[2 * i + 2]
        } else {
            x[2 * i]
        };
        d[i] = x[2 * i + 1] - ((left + right) >> 1);
    }
    // Update: s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4), symmetric
    // extension on both d edges.
    for i in 0..s_count {
        let dl = if i > 0 {
            d[i - 1]
        } else if half > 0 {
            d[0]
        } else {
            0
        };
        let dr = if i < half {
            d[i]
        } else if half > 0 {
            d[half - 1]
        } else {
            0
        };
        s[i] = x[2 * i] + ((dl + dr + 2) >> 2);
    }
    x.copy_from_slice(scratch);
}

/// Inverse of [`fwd_53`].
fn inv_53(x: &mut [i32], scratch: &mut Vec<i32>) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let half = n / 2;
    let s_count = n - half;
    let (s, d) = x.split_at(s_count);

    scratch.clear();
    scratch.resize(n, 0);
    // Un-update: x[2i] = s[i] - floor((d[i-1] + d[i] + 2) / 4).
    for i in 0..s_count {
        let dl = if i > 0 {
            d[i - 1]
        } else if half > 0 {
            d[0]
        } else {
            0
        };
        let dr = if i < half {
            d[i]
        } else if half > 0 {
            d[half - 1]
        } else {
            0
        };
        scratch[2 * i] = s[i] - ((dl + dr + 2) >> 2);
    }
    // Un-predict: x[2i+1] = d[i] + floor((x[2i] + x[2i+2]) / 2).
    for i in 0..half {
        let left = scratch[2 * i];
        let right = if 2 * i + 2 < n {
            scratch[2 * i + 2]
        } else {
            scratch[2 * i]
        };
        scratch[2 * i + 1] = d[i] + ((left + right) >> 1);
    }
    x.copy_from_slice(scratch);
}

/// The neighbours `(d[i - 1], d[i])` the update step pairs with `s[i]`,
/// mirrored at both ends, for `half` high-pass coefficients (`half > 0`).
#[inline]
fn update_neighbours(i: usize, half: usize) -> (usize, usize) {
    (i.saturating_sub(1), i.min(half - 1))
}

/// [`fwd_53`] down every column of the top-left `w × h` region of a
/// `stride`-wide plane, computed a row at a time so it streams through
/// memory instead of gathering each column.
fn fwd_cols(plane: &mut [i32], stride: usize, w: usize, h: usize, scratch: &mut Vec<i32>) {
    if h < 2 || w == 0 {
        return;
    }
    let half = h / 2;
    let s_count = h - half;
    scratch.clear();
    scratch.resize(h * w, 0);
    let (s, d) = scratch.split_at_mut(s_count * w);
    let row = |y: usize| &plane[y * stride..y * stride + w];
    for i in 0..half {
        let (left, odd) = (row(2 * i), row(2 * i + 1));
        let right = row(if 2 * i + 2 < h { 2 * i + 2 } else { 2 * i });
        for (x, out) in d[i * w..(i + 1) * w].iter_mut().enumerate() {
            *out = odd[x] - ((left[x] + right[x]) >> 1);
        }
    }
    for i in 0..s_count {
        let (dl, dr) = update_neighbours(i, half);
        let (dl, dr) = (&d[dl * w..(dl + 1) * w], &d[dr * w..(dr + 1) * w]);
        let even = row(2 * i);
        for (x, out) in s[i * w..(i + 1) * w].iter_mut().enumerate() {
            *out = even[x] + ((dl[x] + dr[x] + 2) >> 2);
        }
    }
    for (y, src) in scratch.chunks_exact(w).enumerate() {
        plane[y * stride..y * stride + w].copy_from_slice(src);
    }
}

/// Inverse of [`fwd_cols`]: [`inv_53`] down every column.
fn inv_cols(plane: &mut [i32], stride: usize, w: usize, h: usize, scratch: &mut Vec<i32>) {
    if h < 2 || w == 0 {
        return;
    }
    let half = h / 2;
    let s_count = h - half;
    scratch.clear();
    scratch.resize(h * w, 0);
    let row = |y: usize| &plane[y * stride..y * stride + w];
    // Un-update into the even rows, then un-predict the odd ones.
    for i in 0..s_count {
        let (dl, dr) = update_neighbours(i, half);
        let (dl, dr, s) = (row(s_count + dl), row(s_count + dr), row(i));
        for (x, out) in scratch[2 * i * w..(2 * i + 1) * w].iter_mut().enumerate() {
            *out = s[x] - ((dl[x] + dr[x] + 2) >> 2);
        }
    }
    for i in 0..half {
        let (done, rest) = scratch.split_at_mut((2 * i + 1) * w);
        let (odd, below) = rest.split_at_mut(w);
        let left = &done[2 * i * w..];
        let right = if 2 * i + 2 < h { &below[..w] } else { left };
        let d = row(s_count + i);
        for (x, out) in odd.iter_mut().enumerate() {
            *out = d[x] + ((left[x] + right[x]) >> 1);
        }
    }
    for (y, src) in scratch.chunks_exact(w).enumerate() {
        plane[y * stride..y * stride + w].copy_from_slice(src);
    }
}

/// Applies the 2-D transform in place over the top-left `w × h` region of
/// a `stride`-wide plane, for `levels` dyadic levels.
fn fwd_2d(plane: &mut [i32], stride: usize, w: usize, h: usize, levels: u8) {
    let mut scratch = Vec::new();
    let (mut lw, mut lh) = (w, h);
    for _ in 0..levels {
        if lw < 2 && lh < 2 {
            break;
        }
        // Rows.
        for y in 0..lh {
            fwd_53(&mut plane[y * stride..y * stride + lw], &mut scratch);
        }
        fwd_cols(plane, stride, lw, lh, &mut scratch);
        lw = lw.div_ceil(2);
        lh = lh.div_ceil(2);
    }
}

/// Inverse of [`fwd_2d`].
fn inv_2d(plane: &mut [i32], stride: usize, w: usize, h: usize, levels: u8) {
    // Recompute the level geometry outer-to-inner, then invert inner-out.
    let mut dims = Vec::new();
    let (mut lw, mut lh) = (w, h);
    for _ in 0..levels {
        if lw < 2 && lh < 2 {
            break;
        }
        dims.push((lw, lh));
        lw = lw.div_ceil(2);
        lh = lh.div_ceil(2);
    }
    let mut scratch = Vec::new();
    for &(lw, lh) in dims.iter().rev() {
        inv_cols(plane, stride, lw, lh, &mut scratch);
        for y in 0..lh {
            inv_53(&mut plane[y * stride..y * stride + lw], &mut scratch);
        }
    }
}

/// A subband: the half-open rectangle `x0..x1 × y0..y1` of the
/// transformed plane, scanned row by row.
#[derive(Debug, Clone, Copy)]
struct Band {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

impl Band {
    fn len(&self) -> usize {
        (self.x1 - self.x0) * (self.y1 - self.y0)
    }

    /// Plane indices (for a `stride`-wide plane) of each scanned row.
    fn rows(self, stride: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        (self.y0..self.y1).map(move |y| y * stride + self.x0..y * stride + self.x1)
    }
}

/// Splits the transformed plane into subbands in scan order: for each
/// dyadic level the HL, LH, and HH quadrants, then the final LL —
/// coefficients within one subband share statistics, which is what the
/// entropy backend exploits.
fn subband_scan(w: usize, h: usize, levels: u8) -> Vec<Band> {
    let mut bands = Vec::new();
    let (mut lw, mut lh) = (w, h);
    for _ in 0..levels {
        if lw < 2 && lh < 2 {
            break;
        }
        let sw = lw.div_ceil(2);
        let sh = lh.div_ceil(2);
        let rect = |x0, x1, y0, y1| Band { x0, x1, y0, y1 };
        // HL (horizontal detail), LH (vertical detail), HH (diagonal).
        if sw < lw {
            bands.push(rect(sw, lw, 0, sh));
        }
        if sh < lh {
            bands.push(rect(0, sw, sh, lh));
        }
        if sw < lw && sh < lh {
            bands.push(rect(sw, lw, sh, lh));
        }
        lw = sw;
        lh = sh;
    }
    // The residual LL band.
    bands.push(Band {
        x0: 0,
        x1: lw,
        y0: 0,
        y1: lh,
    });
    bands
}

/// Encodes a subband's zigzag-mapped coefficients with whichever backend
/// is smaller: block-adaptive Rice (dense residuals) or varint bytes
/// through the LZ77+Huffman stage (sparse/zero-dominated subbands, where
/// run coding wins by orders of magnitude — the significance-coding role
/// in real JPEG2000). Both candidates are sized exactly before either is
/// written, and only the winner is written, straight into `w`.
fn encode_subband(values: &[u64], w: &mut BitWriter) {
    // Candidate 1: Rice.
    let (ks, rice_bits) = rice::plan_blocks(values, BLOCK);
    let rice_len = rice_bits.div_ceil(8);

    // Candidate 2: varint + mini-deflate. Rice wins ties, and no deflate
    // stream is shorter than its two length tables, so a Rice payload
    // that short wins without planning the alternative.
    let deflated = if rice_len <= deflate::MIN_STREAM_LEN as u64 {
        None
    } else {
        let mut varint = Vec::with_capacity(values.len());
        for &v in values {
            let mut x = v;
            loop {
                let byte = (x & 0x7F) as u8;
                x >>= 7;
                if x == 0 {
                    varint.push(byte);
                    break;
                }
                varint.push(byte | 0x80);
            }
        }
        Some(deflate::plan(&varint))
    };

    // The payload goes out at the stream's bit alignment, zero-padded
    // to its whole byte length as the decoder reads it.
    let payload_bits = match deflated {
        Some(plan) if plan.bit_len().div_ceil(8) < rice_len => {
            w.write_bit(true);
            w.write_bits(plan.bit_len().div_ceil(8), 32);
            plan.write_into(w);
            plan.bit_len()
        }
        _ => {
            w.write_bit(false);
            w.write_bits(rice_len, 32);
            rice::write_blocks(values, &ks, BLOCK, w);
            rice_bits
        }
    };
    w.write_bits(0, ((8 - payload_bits % 8) % 8) as u8);
}

/// Decodes a subband written by [`encode_subband`].
fn decode_subband(count: usize, r: &mut BitReader<'_>) -> Result<Vec<u64>, CodecError> {
    let deflate_backend = r.read_bit()?;
    let len = r.read_bits(32)? as usize;
    if len > 1 << 30 {
        return Err(CodecError::new("DWT subband payload implausibly large"));
    }
    let bytes = r.read_bytes(len)?;
    if deflate_backend {
        let varint = deflate::MiniDeflate::new().decompress(&bytes)?;
        // Every coefficient takes at least one varint byte.
        let mut out = Vec::with_capacity(count.min(varint.len()));
        let mut iter = varint.iter();
        for _ in 0..count {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let &byte = iter
                    .next()
                    .ok_or_else(|| CodecError::new("DWT varint stream truncated"))?;
                v |= u64::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return Err(CodecError::new("DWT varint overlong"));
                }
            }
            out.push(v);
        }
        Ok(out)
    } else {
        let mut sub = BitReader::new(&bytes);
        rice::decode_blocks(count, BLOCK, &mut sub)
    }
}

/// Dyadic levels of the transform every configuration writes.
const LEVELS: u8 = 4;

/// One channel of `img` as an `i32` plane, lifted in place.
fn lift_plane(img: &Raster, channel: usize) -> Vec<i32> {
    let (width, height) = (img.width(), img.height());
    let mut plane: Vec<i32> = (0..width * height)
        .map(|i| i32::from(img.data()[i * img.channels() + channel]))
        .collect();
    fwd_2d(&mut plane, width, width, height, LEVELS);
    plane
}

/// Quantises a lifted `width × height` plane by `quant_shift` and codes
/// it subband by subband.
fn encode_plane(plane: &[i32], width: usize, height: usize, quant_shift: u8, w: &mut BitWriter) {
    let mut mapped = Vec::new();
    for band in subband_scan(width, height, LEVELS) {
        mapped.clear();
        for row in band.rows(width) {
            mapped.extend(
                plane[row]
                    .iter()
                    .map(|&c| rice::zigzag(i64::from(c >> quant_shift))),
            );
        }
        encode_subband(&mapped, w);
    }
}

/// Starts a stream with its header: geometry, levels and quantisation
/// shift.
fn header(width: usize, height: usize, channels: usize, quant_shift: u8) -> BitWriter {
    let mut w = BitWriter::new();
    w.write_bits(width as u64, 32);
    w.write_bits(height as u64, 32);
    w.write_bits(channels as u64, 8);
    w.write_bits(u64::from(LEVELS), 8);
    w.write_bits(u64::from(quant_shift), 8);
    w
}

/// Decodes one `width × height` plane coded over `levels` levels with
/// `quant_shift`, scattering each subband straight into the plane.
/// Nothing is sized from the header's geometry until the first
/// subband's coefficients are in hand, and that subband holds at least
/// a sixth of the plane: a corrupt header declaring a huge plane fails
/// on the input it lacks instead of allocating.
fn decompress_plane(
    width: usize,
    height: usize,
    levels: u8,
    quant_shift: u8,
    r: &mut BitReader<'_>,
) -> Result<Vec<i32>, CodecError> {
    let mut plane: Vec<i32> = Vec::new();
    for band in subband_scan(width, height, levels) {
        let mapped = decode_subband(band.len(), r)?;
        if plane.is_empty() {
            plane = vec![0i32; width * height];
        }
        let mut values = mapped.iter();
        for row in band.rows(width) {
            for (dst, &m) in plane[row].iter_mut().zip(values.by_ref()) {
                let v = rice::unzigzag(m);
                if v.abs() > i64::from(i32::MAX >> (quant_shift + 1)) {
                    return Err(CodecError::new("DWT coefficient out of range"));
                }
                *dst = (v as i32) << quant_shift;
            }
        }
    }
    inv_2d(&mut plane, width, width, height, levels);
    Ok(plane)
}

/// The DWT codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwtCodec {
    /// Right-shift applied to coefficients before coding (0 = lossless).
    quant_shift: u8,
}

impl DwtCodec {
    /// Lossless configuration (integer 5/3, no quantisation), 4 levels.
    pub fn lossless() -> Self {
        Self { quant_shift: 0 }
    }

    /// Lossy configuration: coefficients are right-shifted by
    /// `quant_shift` bits before coding ("quasi-lossless" for 1–2 bits).
    ///
    /// # Panics
    ///
    /// Panics if `quant_shift > 7`.
    pub fn lossy(quant_shift: u8) -> Self {
        assert!(quant_shift <= 7, "quantisation shift too aggressive");
        Self { quant_shift }
    }

    /// Whether this configuration reconstructs exactly.
    #[cfg(test)]
    pub fn is_lossless(&self) -> bool {
        self.quant_shift == 0
    }

    /// Runs the forward transform on every channel of `image` once. The
    /// transform does not depend on the quantisation, which only
    /// right-shifts its coefficients, so one [`Lifted`] encodes at every
    /// shift.
    pub fn lift(image: &Raster) -> Lifted {
        Lifted {
            width: image.width(),
            height: image.height(),
            planes: (0..image.channels())
                .map(|c| lift_plane(image, c))
                .collect(),
        }
    }
}

/// An image after the forward 5/3 transform, one plane per channel (see
/// [`DwtCodec::lift`]).
#[derive(Debug)]
pub struct Lifted {
    width: usize,
    height: usize,
    planes: Vec<Vec<i32>>,
}

impl Lifted {
    /// The stream `DwtCodec::lossy(quant_shift).compress_raster` writes
    /// for the lifted image, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if `quant_shift > 7`.
    pub fn encode(&self, quant_shift: u8) -> Vec<u8> {
        let codec = DwtCodec::lossy(quant_shift);
        let mut w = header(
            self.width,
            self.height,
            self.planes.len(),
            codec.quant_shift,
        );
        for plane in &self.planes {
            encode_plane(plane, self.width, self.height, codec.quant_shift, &mut w);
        }
        w.into_bytes()
    }
}

impl RasterCodec for DwtCodec {
    fn name(&self) -> &'static str {
        "JPEG2000"
    }

    fn compress_raster(&self, image: &Raster) -> Vec<u8> {
        // One plane lifted at a time: the same coding as
        // `Lifted::encode`, without holding every channel's transform.
        let (width, height) = (image.width(), image.height());
        let mut w = header(width, height, image.channels(), self.quant_shift);
        for c in 0..image.channels() {
            let plane = lift_plane(image, c);
            encode_plane(&plane, width, height, self.quant_shift, &mut w);
        }
        w.into_bytes()
    }

    fn decompress_raster(
        &self,
        data: &[u8],
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Raster, CodecError> {
        let mut r = BitReader::new(data);
        let cw = r.read_bits(32)? as usize;
        let ch = r.read_bits(32)? as usize;
        let cc = r.read_bits(8)? as usize;
        let levels = r.read_bits(8)? as u8;
        let quant = r.read_bits(8)? as u8;
        if cw != width || ch != height || cc != channels {
            return Err(CodecError::new("DWT geometry mismatch"));
        }
        // Sized once the first plane has decoded (see `decompress_plane`).
        let mut out = Vec::new();
        for c in 0..channels {
            let plane = decompress_plane(width, height, levels, quant, &mut r)?;
            if c == 0 {
                out = vec![0u8; width * height * channels];
            }
            for (px, &v) in out.chunks_exact_mut(channels).zip(&plane) {
                px[c] = v.clamp(0, 255) as u8;
            }
        }
        Ok(Raster::new(width, height, channels, out))
    }
}

impl Codec for DwtCodec {
    fn name(&self) -> &'static str {
        "JPEG2000"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        // Byte-stream interface: shape into a square-ish single-channel
        // raster, padding with the final byte value to keep edges smooth.
        let stride = (data.len() as f64).sqrt().ceil().max(1.0) as usize;
        let rows = data.len().div_ceil(stride).max(1);
        let mut padded = data.to_vec();
        let pad = data.last().copied().unwrap_or(0);
        padded.resize(rows * stride, pad);
        let img = Raster::new(stride, rows, 1, padded);
        let mut out = (data.len() as u32).to_be_bytes().to_vec();
        out.extend(self.compress_raster(&img));
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if data.len() < 4 {
            return Err(CodecError::new("DWT stream too short"));
        }
        let n = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
        // Geometry is inside the raster header; recover it first.
        let mut r = BitReader::new(&data[4..]);
        let w = r.read_bits(32)? as usize;
        let h = r.read_bits(32)? as usize;
        let c = r.read_bits(8)? as usize;
        if w == 0 || h == 0 || c != 1 || w.checked_mul(h).map_or(true, |x| x > 1 << 31) {
            return Err(CodecError::new("DWT implausible geometry"));
        }
        let img = self.decompress_raster(&data[4..], w, h, 1)?;
        let mut bytes = img.into_data();
        if bytes.len() < n {
            return Err(CodecError::new("DWT payload shorter than header"));
        }
        bytes.truncate(n);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    #[test]
    fn lifting_1d_round_trips_all_lengths() {
        let mut scratch = Vec::new();
        for n in 1..64usize {
            let original: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 256 - 100).collect();
            let mut x = original.clone();
            fwd_53(&mut x, &mut scratch);
            inv_53(&mut x, &mut scratch);
            assert_eq!(x, original, "length {n}");
        }
    }

    #[test]
    fn column_passes_match_the_1d_lifting_on_each_column() {
        let mut scratch = Vec::new();
        for (w, h, stride) in [(1usize, 2usize, 1usize), (3, 5, 4), (7, 8, 7), (5, 13, 9)] {
            let plane: Vec<i32> = (0..stride * h)
                .map(|i| (i as i32 * 7919) % 511 - 255)
                .collect();
            let mut want = plane.clone();
            for x in 0..w {
                let mut col: Vec<i32> = (0..h).map(|y| want[y * stride + x]).collect();
                fwd_53(&mut col, &mut scratch);
                for (y, v) in col.into_iter().enumerate() {
                    want[y * stride + x] = v;
                }
            }
            let mut got = plane.clone();
            fwd_cols(&mut got, stride, w, h, &mut scratch);
            assert_eq!(got, want, "forward {w}x{h}");
            inv_cols(&mut got, stride, w, h, &mut scratch);
            assert_eq!(got, plane, "inverse {w}x{h}");
        }
    }

    #[test]
    fn lifting_2d_round_trips_odd_dimensions() {
        for (w, h) in [(5usize, 7usize), (8, 8), (1, 9), (9, 1), (13, 4)] {
            let original: Vec<i32> = (0..w * h).map(|i| (i as i32 * 31) % 256).collect();
            let mut plane = original.clone();
            fwd_2d(&mut plane, w, w, h, 3);
            inv_2d(&mut plane, w, w, h, 3);
            assert_eq!(plane, original, "{w}x{h}");
        }
    }

    #[test]
    fn smooth_image_energy_concentrates_in_ll() {
        // After transform, high-pass regions of a smooth image are tiny.
        let w = 32usize;
        let mut plane: Vec<i32> = (0..w * w).map(|i| ((i % w) + (i / w)) as i32 * 2).collect();
        fwd_2d(&mut plane, w, w, w, 1);
        // HH quadrant: rows w/2.., cols w/2..
        let hh_energy: i64 = (w / 2..w)
            .flat_map(|y| (w / 2..w).map(move |x| (y, x)))
            .map(|(y, x)| i64::from(plane[y * w + x]).pow(2))
            .sum();
        let ll_energy: i64 = (0..w / 2)
            .flat_map(|y| (0..w / 2).map(move |x| (y, x)))
            .map(|(y, x)| i64::from(plane[y * w + x]).pow(2))
            .sum();
        assert!(
            ll_energy > 100 * hh_energy.max(1),
            "LL {ll_energy} vs HH {hh_energy}"
        );
    }

    #[test]
    fn lossless_raster_round_trip() {
        let mut img = Raster::zeroed(48, 36, 3);
        for y in 0..36 {
            for x in 0..48 {
                img.set(x, y, 0, ((x * 5 + y * 3) % 256) as u8);
                img.set(x, y, 1, ((x * x / 7 + y) % 256) as u8);
                img.set(x, y, 2, (x.min(y) * 4 % 256) as u8);
            }
        }
        let codec = DwtCodec::lossless();
        let packed = codec.compress_raster(&img);
        assert_eq!(codec.decompress_raster(&packed, 48, 36, 3).unwrap(), img);
    }

    #[test]
    fn lossy_mode_is_close_but_smaller() {
        let mut img = Raster::zeroed(64, 64, 1);
        for y in 0..64 {
            for x in 0..64 {
                let v = 128.0 + 60.0 * ((x as f64) / 9.0).sin() + 40.0 * ((y as f64) / 7.0).cos();
                img.set(x, y, 0, v.clamp(0.0, 255.0) as u8);
            }
        }
        let lossless = DwtCodec::lossless();
        let lossy = DwtCodec::lossy(2);
        let ll = lossless.compress_raster(&img);
        let ly = lossy.compress_raster(&img);
        assert!(
            ly.len() < ll.len(),
            "lossy {} vs lossless {}",
            ly.len(),
            ll.len()
        );

        let back = lossy.decompress_raster(&ly, 64, 64, 1).unwrap();
        let max_err = img
            .data()
            .iter()
            .zip(back.data())
            .map(|(&a, &b)| (i16::from(a) - i16::from(b)).unsigned_abs())
            .max()
            .unwrap();
        assert!(max_err <= 16, "max error {max_err}");
        assert!(!lossy.is_lossless());
    }

    #[test]
    fn smooth_images_beat_png_class_ratios() {
        // The DWT should dominate on smooth natural-image-like content.
        let mut img = Raster::zeroed(128, 128, 1);
        for y in 0..128 {
            for x in 0..128 {
                let v = 100.0 + 50.0 * ((x as f64) / 17.0).sin() * ((y as f64) / 13.0).cos();
                img.set(x, y, 0, v.clamp(0.0, 255.0) as u8);
            }
        }
        let dwt = DwtCodec::lossless();
        let ratio = dwt.raster_ratio(&img);
        assert!(ratio > 2.5, "got {ratio}");
    }

    #[test]
    fn byte_interface_round_trips() {
        let codec = DwtCodec::lossless();
        for n in [0usize, 1, 10, 257, 5000] {
            let data: Vec<u8> = (0..n).map(|i| ((i * 13) % 251) as u8).collect();
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "len {n}");
        }
    }

    #[test]
    fn huge_declared_geometry_errors_without_allocating() {
        // A 17-byte stream declaring a 46340 × 46340 plane: the decoder
        // used to allocate the 8.6 GB plane before reading a coefficient,
        // and abort.
        let side = 46_340u32.to_be_bytes();
        let mut stream = vec![0, 0, 0, 0];
        stream.extend_from_slice(&side);
        stream.extend_from_slice(&side);
        stream.extend_from_slice(&[1, 4, 0, 0xFF, 0xFF]);
        assert_eq!(stream.len(), 17);
        assert!(DwtCodec::lossless().decompress(&stream).is_err());
        // The same through the raster interface, three channels.
        let mut raster = side.to_vec();
        raster.extend_from_slice(&side);
        raster.extend_from_slice(&[3, 4, 0, 0x7F, 0xFF, 0xFF, 0xFF]);
        assert!(DwtCodec::lossless()
            .decompress_raster(&raster, 46_340, 46_340, 3)
            .is_err());
    }

    #[test]
    fn lifted_encodes_match_the_codec_at_every_shift() {
        prop::check("lifted_encodes_match_the_codec_at_every_shift", 24, |g| {
            let w = g.draw(1usize..41);
            let h = g.draw(1usize..41);
            let c = g.draw(1usize..5);
            let data: Vec<u8> = (0..w * h * c).map(|_| g.draw(any::<u8>())).collect();
            let img = Raster::new(w, h, c, data);
            let lifted = DwtCodec::lift(&img);
            for shift in 0..=7 {
                assert_eq!(
                    lifted.encode(shift),
                    DwtCodec::lossy(shift).compress_raster(&img),
                    "{w}x{h}x{c} shift {shift}"
                );
            }
        });
    }

    #[test]
    fn lossless_round_trips_arbitrary_rasters() {
        prop::check("lossless_round_trips_arbitrary_rasters", 24, |g| {
            let w = g.draw(1usize..20);
            let h = g.draw(1usize..20);
            let c = g.draw(1usize..4);
            let data: Vec<u8> = (0..w * h * c).map(|_| g.draw(any::<u8>())).collect();
            let img = Raster::new(w, h, c, data);
            let codec = DwtCodec::lossless();
            let packed = codec.compress_raster(&img);
            assert_eq!(codec.decompress_raster(&packed, w, h, c).unwrap(), img);
        });
    }
}
