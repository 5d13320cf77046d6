//! A minimal raster-image container shared by the image-aware codecs and
//! the imagery generator.

use crate::{Codec, CodecError, RasterCodec};

/// An 8-bit interleaved raster image (row-major, channel-interleaved).
///
/// ```
/// use compress::Raster;
/// let img = Raster::zeroed(4, 4, 3);
/// assert_eq!(img.data().len(), 48);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raster {
    width: usize,
    height: usize,
    channels: usize,
    data: Vec<u8>,
}

impl Raster {
    /// Creates a raster from raw interleaved samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * channels` or if any
    /// dimension is zero.
    pub fn new(width: usize, height: usize, channels: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0 && channels > 0, "empty raster");
        assert_eq!(
            data.len(),
            width * height * channels,
            "raster data length must match geometry"
        );
        Self {
            width,
            height,
            channels,
            data,
        }
    }

    /// Creates an all-zero raster.
    pub fn zeroed(width: usize, height: usize, channels: usize) -> Self {
        Self::new(width, height, channels, vec![0; width * height * channels])
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Samples per pixel.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Raw interleaved sample data.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the raster, returning its sample buffer.
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }

    /// Sample at `(x, y, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize, c: usize) -> u8 {
        assert!(x < self.width && y < self.height && c < self.channels);
        self.data[(y * self.width + x) * self.channels + c]
    }

    /// Sets the sample at `(x, y, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: u8) {
        assert!(x < self.width && y < self.height && c < self.channels);
        self.data[(y * self.width + x) * self.channels + c] = v;
    }

    /// Bytes per row (width × channels).
    pub fn stride(&self) -> usize {
        self.width * self.channels
    }

    /// Returns row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[cfg(test)]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height);
        let s = self.stride();
        &self.data[y * s..(y + 1) * s]
    }

    /// Mean sample value (useful for scene statistics).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&b| f64::from(b)).sum::<f64>() / self.data.len() as f64
    }

    /// Shannon entropy of the sample distribution, bits per sample.
    pub fn entropy_bits(&self) -> f64 {
        let mut counts = [0usize; 256];
        for &b in &self.data {
            counts[b as usize] += 1;
        }
        let n = self.data.len() as f64;
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }
}

/// Adapter that runs any byte-stream [`Codec`] as a [`RasterCodec`] by
/// compressing the interleaved sample buffer directly (how generic
/// compressors like LZW or zip are applied to imagery in practice).
#[derive(Debug)]
pub struct ByteCodecAsRaster<C> {
    inner: C,
}

impl<C: Codec> ByteCodecAsRaster<C> {
    /// Wraps a byte codec.
    pub fn new(inner: C) -> Self {
        Self { inner }
    }
}

impl<C: Codec> RasterCodec for ByteCodecAsRaster<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress_raster(&self, image: &Raster) -> Vec<u8> {
        self.inner.compress(image.data())
    }

    fn decompress_raster(
        &self,
        data: &[u8],
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Raster, CodecError> {
        let bytes = self.inner.decompress(data)?;
        if bytes.len() != width * height * channels {
            return Err(CodecError::new(format!(
                "decoded {} bytes but geometry {width}x{height}x{channels} needs {}",
                bytes.len(),
                width * height * channels
            )));
        }
        Ok(Raster::new(width, height, channels, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut img = Raster::zeroed(8, 4, 3);
        img.set(7, 3, 2, 200);
        assert_eq!(img.get(7, 3, 2), 200);
        assert_eq!(img.get(0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "must match geometry")]
    fn wrong_data_length_panics() {
        let _ = Raster::new(4, 4, 3, vec![0; 10]);
    }

    #[test]
    fn rows_are_contiguous() {
        let data: Vec<u8> = (0..24).collect();
        let img = Raster::new(4, 2, 3, data);
        assert_eq!(img.row(0), &(0..12).collect::<Vec<u8>>()[..]);
        assert_eq!(img.row(1), &(12..24).collect::<Vec<u8>>()[..]);
        assert_eq!(img.stride(), 12);
    }

    #[test]
    fn entropy_of_constant_image_is_zero() {
        let img = Raster::zeroed(16, 16, 1);
        assert_eq!(img.entropy_bits(), 0.0);
    }

    #[test]
    fn entropy_of_uniform_bytes_is_eight() {
        let data: Vec<u8> = (0..=255).collect();
        let img = Raster::new(16, 16, 1, data);
        assert!((img.entropy_bits() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matches_hand_computation() {
        let img = Raster::new(2, 1, 1, vec![10, 30]);
        assert_eq!(img.mean(), 20.0);
    }

    #[test]
    fn byte_codec_adapter_round_trips() {
        let img = Raster::new(4, 4, 1, (0..16).map(|i| i * 3).collect());
        let codec = ByteCodecAsRaster::new(crate::rle::Rle::new());
        let packed = codec.compress_raster(&img);
        let back = codec.decompress_raster(&packed, 4, 4, 1).unwrap();
        assert_eq!(back, img);
        // Geometry mismatch is an error, not a panic.
        assert!(codec.decompress_raster(&packed, 5, 5, 1).is_err());
    }
}
