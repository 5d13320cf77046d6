//! PNG-style compression: adaptive per-row filtering (None / Sub / Up /
//! Average / Paeth) followed by the mini-deflate entropy stage.
//!
//! The filters decorrelate neighbouring pixels so the LZ77+Huffman stage
//! sees runs and skewed distributions — this is why PNG beats plain zip on
//! imagery in Table 4 (2.49 vs 2.38 on RGB).

use crate::bitio::BitReader;
use crate::deflate::MiniDeflate;
use crate::{Codec, CodecError, Raster, RasterCodec};

/// PNG filter types, one byte per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filter {
    None = 0,
    Sub = 1,
    Up = 2,
    Average = 3,
    Paeth = 4,
}

impl Filter {
    fn from_byte(b: u8) -> Result<Self, CodecError> {
        Ok(match b {
            0 => Self::None,
            1 => Self::Sub,
            2 => Self::Up,
            3 => Self::Average,
            4 => Self::Paeth,
            other => return Err(CodecError::new(format!("unknown PNG filter {other}"))),
        })
    }
}

/// The Paeth predictor from the PNG specification.
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let (pa, pb, pc) = {
        let p = i32::from(a) + i32::from(b) - i32::from(c);
        (
            (p - i32::from(a)).abs(),
            (p - i32::from(b)).abs(),
            (p - i32::from(c)).abs(),
        )
    };
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// The filtered value of `row[i]` under `filter` (with `prev` the
/// unfiltered previous row). `bpp` is bytes per pixel.
#[inline]
fn filter_byte(filter: Filter, row: &[u8], prev: &[u8], bpp: usize, i: usize) -> u8 {
    let x = row[i];
    let (left, up_left) = if i >= bpp {
        (row[i - bpp], prev[i - bpp])
    } else {
        (0, 0)
    };
    match filter {
        Filter::None => x,
        Filter::Sub => x.wrapping_sub(left),
        Filter::Up => x.wrapping_sub(prev[i]),
        Filter::Average => x.wrapping_sub(((u16::from(left) + u16::from(prev[i])) / 2) as u8),
        Filter::Paeth => x.wrapping_sub(paeth(left, prev[i], up_left)),
    }
}

/// Appends `row` filtered with `filter` to `out`.
fn filter_row(filter: Filter, row: &[u8], prev: &[u8], bpp: usize, out: &mut Vec<u8>) {
    out.extend((0..row.len()).map(|i| filter_byte(filter, row, prev, bpp, i)));
}

/// Inverts `filter` in place over `row`, given the already-unfiltered
/// previous row.
fn unfilter_row(filter: Filter, row: &mut [u8], prev: &[u8], bpp: usize) {
    for i in 0..row.len() {
        let left = if i >= bpp { row[i - bpp] } else { 0 };
        let up = prev[i];
        let up_left = if i >= bpp { prev[i - bpp] } else { 0 };
        row[i] = match filter {
            Filter::None => row[i],
            Filter::Sub => row[i].wrapping_add(left),
            Filter::Up => row[i].wrapping_add(up),
            Filter::Average => {
                let avg = (u16::from(left) + u16::from(up)) / 2;
                row[i].wrapping_add(avg as u8)
            }
            Filter::Paeth => row[i].wrapping_add(paeth(left, up, up_left)),
        };
    }
}

/// The minimum-sum-of-absolute-differences heuristic PNG encoders use to
/// pick a filter per row. All five filters are scored in one pass; ties go
/// to the earliest in the order None, Sub, Up, Average, Paeth.
fn choose_filter(row: &[u8], prev: &[u8], bpp: usize) -> Filter {
    const ORDER: [Filter; 5] = [
        Filter::None,
        Filter::Sub,
        Filter::Up,
        Filter::Average,
        Filter::Paeth,
    ];
    let mut scores = [0u64; 5];
    for i in 0..row.len() {
        for (score, &f) in scores.iter_mut().zip(&ORDER) {
            *score += u64::from((filter_byte(f, row, prev, bpp, i) as i8).unsigned_abs());
        }
    }
    let mut best = 0;
    for f in 1..ORDER.len() {
        if scores[f] < scores[best] {
            best = f;
        }
    }
    ORDER[best]
}

/// The PNG-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct PngLike;

impl PngLike {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    fn compress_geometry(&self, data: &[u8], stride: usize, bpp: usize) -> Vec<u8> {
        debug_assert!(stride > 0 && data.len() % stride == 0);
        let rows = data.len() / stride;
        let mut filtered = Vec::with_capacity(data.len() + rows);
        let zeros = vec![0u8; if rows > 0 { stride } else { 0 }];
        for r in 0..rows {
            let row = &data[r * stride..(r + 1) * stride];
            let prev = if r > 0 {
                &data[(r - 1) * stride..r * stride]
            } else {
                &zeros[..]
            };
            let f = choose_filter(row, prev, bpp);
            filtered.push(f as u8);
            filter_row(f, row, prev, bpp, &mut filtered);
        }

        // The 9-byte header goes in front of the deflated bytes in place:
        // stride and rows as big-endian u32s around bpp as a byte.
        let mut out = MiniDeflate::new().compress(&filtered);
        let [s0, s1, s2, s3] = (stride as u32).to_be_bytes();
        let [r0, r1, r2, r3] = (rows as u32).to_be_bytes();
        out.splice(0..0, [s0, s1, s2, s3, bpp as u8, r0, r1, r2, r3]);
        out
    }

    fn decompress_geometry(&self, data: &[u8]) -> Result<(Vec<u8>, usize, usize), CodecError> {
        let mut r = BitReader::new(data);
        let stride = r.read_bits(32)? as usize;
        let bpp = r.read_bits(8)? as usize;
        let rows = r.read_bits(32)? as usize;
        if stride == 0 && rows != 0 {
            return Err(CodecError::new("PNG-like zero stride"));
        }
        if bpp == 0 || bpp > 16 || stride.checked_mul(rows).map_or(true, |n| n > 1 << 31) {
            return Err(CodecError::new("PNG-like implausible geometry"));
        }
        let header_bytes = 9; // 32 + 8 + 32 bits, zero-padded
        let filtered = MiniDeflate::new().decompress(&data[header_bytes..])?;
        if filtered.len() != rows * (stride + 1) {
            return Err(CodecError::new("PNG-like filtered length mismatch"));
        }

        // Unfilter in place: each row reads the previous, already
        // unfiltered, row of `out` (an all-zero row above the first).
        let mut out = Vec::with_capacity(rows * stride);
        let zeros = vec![0u8; if rows > 0 { stride } else { 0 }];
        for rix in 0..rows {
            let base = rix * (stride + 1);
            let f = Filter::from_byte(filtered[base])?;
            out.extend_from_slice(&filtered[base + 1..base + 1 + stride]);
            let (done, row) = out.split_at_mut(rix * stride);
            let prev = match rix {
                0 => &zeros[..],
                _ => &done[(rix - 1) * stride..],
            };
            unfilter_row(f, row, prev, bpp);
        }
        Ok((out, stride, bpp))
    }
}

impl Codec for PngLike {
    fn name(&self) -> &'static str {
        "PNG"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        // Treat the buffer as a single-channel square-ish image so the 2-D
        // filters have structure to exploit; exact geometry comes through
        // the RasterCodec path.
        let stride = ((data.len() as f64).sqrt().ceil() as usize).max(1);
        // Pad to a whole number of rows, remembering the original length.
        let rows = data.len().div_ceil(stride);
        let mut padded = data.to_vec();
        padded.resize(rows * stride, 0);
        let mut out = (data.len() as u32).to_be_bytes().to_vec();
        out.extend(self.compress_geometry(&padded, stride, 1));
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if data.len() < 4 {
            return Err(CodecError::new("PNG-like stream too short"));
        }
        let n = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let (mut bytes, _, _) = self.decompress_geometry(&data[4..])?;
        if bytes.len() < n {
            return Err(CodecError::new("PNG-like payload shorter than header"));
        }
        bytes.truncate(n);
        Ok(bytes)
    }
}

impl RasterCodec for PngLike {
    fn name(&self) -> &'static str {
        "PNG"
    }

    fn compress_raster(&self, image: &Raster) -> Vec<u8> {
        self.compress_geometry(image.data(), image.stride(), image.channels())
    }

    fn decompress_raster(
        &self,
        data: &[u8],
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Raster, CodecError> {
        let (bytes, stride, bpp) = self.decompress_geometry(data)?;
        if stride != width * channels || bpp != channels || bytes.len() != width * height * channels
        {
            return Err(CodecError::new("PNG-like geometry mismatch"));
        }
        Ok(Raster::new(width, height, channels, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    #[test]
    fn paeth_matches_spec_cases() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 0, 0), 10); // pa smallest
        assert_eq!(paeth(0, 10, 0), 10); // pb smallest
        assert_eq!(paeth(5, 5, 5), 5);
    }

    #[test]
    fn every_filter_round_trips_per_row() {
        let row: Vec<u8> = (0..48).map(|i| (i * 7 % 256) as u8).collect();
        let prev: Vec<u8> = (0..48).map(|i| (i * 3 % 256) as u8).collect();
        for f in [
            Filter::None,
            Filter::Sub,
            Filter::Up,
            Filter::Average,
            Filter::Paeth,
        ] {
            let mut filtered = Vec::new();
            filter_row(f, &row, &prev, 3, &mut filtered);
            unfilter_row(f, &mut filtered, &prev, 3);
            assert_eq!(filtered, row, "filter {f:?}");
        }
    }

    #[test]
    fn gradient_image_compresses_much_better_than_plain_deflate() {
        // A smooth 2-D gradient: filters turn it into near-constant rows.
        let mut img = Raster::zeroed(64, 64, 1);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, 0, ((x * 2 + y * 3) % 256) as u8);
            }
        }
        let png = PngLike::new();
        let zip = MiniDeflate::new();
        let png_len = png.compress_raster(&img).len();
        let zip_len = zip.compress(img.data()).len();
        assert!(
            png_len * 2 < zip_len,
            "png {png_len} should beat zip {zip_len} by 2x on gradients"
        );
        let back = png
            .decompress_raster(&png.compress_raster(&img), 64, 64, 1)
            .unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn rgb_raster_round_trip() {
        let mut img = Raster::zeroed(16, 9, 3);
        for y in 0..9 {
            for x in 0..16 {
                img.set(x, y, 0, (x * 16) as u8);
                img.set(x, y, 1, (y * 28) as u8);
                img.set(x, y, 2, ((x + y) * 10) as u8);
            }
        }
        let codec = PngLike::new();
        let packed = codec.compress_raster(&img);
        assert_eq!(codec.decompress_raster(&packed, 16, 9, 3).unwrap(), img);
        assert!(codec.decompress_raster(&packed, 9, 16, 3).is_err());
    }

    #[test]
    fn byte_codec_interface_round_trips_nonsquare_lengths() {
        let codec = PngLike::new();
        for n in [0usize, 1, 7, 100, 1000, 4097] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "len {n}");
        }
    }

    #[test]
    fn raster_round_trips() {
        prop::check("raster_round_trips", 32, |g| {
            let w = g.draw(1usize..24);
            let h = g.draw(1usize..24);
            let c = g.draw(1usize..4);
            let data: Vec<u8> = (0..w * h * c).map(|_| g.draw(any::<u8>())).collect();
            let img = Raster::new(w, h, c, data);
            let codec = PngLike::new();
            let packed = codec.compress_raster(&img);
            assert_eq!(codec.decompress_raster(&packed, w, h, c).unwrap(), img);
        });
    }
}
