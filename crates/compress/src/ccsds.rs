//! CCSDS-121-style predictive lossless compression: unit-delay predictor
//! plus block-adaptive Rice coding of zig-zag-mapped residuals.
//!
//! A faithful shape for the Table 4 "CCSDS" column: good (~2×) on natural
//! imagery, but — because Rice coding never spends less than one bit per
//! sample without the zero-block extension — capped near 8–10× on the
//! near-empty SAR scenes, exactly the regime where the paper measured
//! 9.89× while zip-family codecs got thousands.

use crate::bitio::{BitReader, BitWriter};
use crate::rice;
use crate::{Codec, CodecError, Raster, RasterCodec};

const BLOCK: usize = 64;

/// The CCSDS-like codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct CcsdsLike;

impl CcsdsLike {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Predict-and-map a sample stream per channel: residual against the
    /// previous sample of the same channel (unit-delay predictor).
    fn residuals(data: &[u8], channels: usize) -> impl Iterator<Item = u64> + '_ {
        let mut prev = vec![0i64; channels];
        data.iter().enumerate().map(move |(i, &b)| {
            let c = i % channels;
            let v = i64::from(b);
            let r = v - prev[c];
            prev[c] = v;
            rice::zigzag(r)
        })
    }

    fn unresiduals(mapped: &[u64], channels: usize) -> Result<Vec<u8>, CodecError> {
        let mut prev = vec![0i64; channels];
        mapped
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let c = i % channels;
                let v = prev[c] + rice::unzigzag(m);
                if !(0..=255).contains(&v) {
                    return Err(CodecError::new("CCSDS residual out of sample range"));
                }
                prev[c] = v;
                Ok(v as u8)
            })
            .collect()
    }

    fn compress_with_channels(&self, data: &[u8], channels: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(data.len() as u64, 32);
        w.write_bits(channels as u64, 8);
        // Mapped as they are coded: the residuals of a whole image as
        // `u64`s would be eight times its size.
        rice::encode_blocks(Self::residuals(data, channels.max(1)), BLOCK, &mut w);
        w.into_bytes()
    }

    fn decompress_inner(&self, data: &[u8]) -> Result<(Vec<u8>, usize), CodecError> {
        let mut r = BitReader::new(data);
        let n = r.read_bits(32)? as usize;
        let channels = r.read_bits(8)? as usize;
        if channels == 0 || channels > 16 {
            return Err(CodecError::new("CCSDS invalid channel count"));
        }
        if n > (1 << 31) {
            return Err(CodecError::new("CCSDS implausible payload size"));
        }
        let mapped = rice::decode_blocks(n, BLOCK, &mut r)?;
        Ok((Self::unresiduals(&mapped, channels)?, channels))
    }
}

impl Codec for CcsdsLike {
    fn name(&self) -> &'static str {
        "CCSDS"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        self.compress_with_channels(data, 1)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(self.decompress_inner(data)?.0)
    }
}

impl RasterCodec for CcsdsLike {
    fn name(&self) -> &'static str {
        "CCSDS"
    }

    fn compress_raster(&self, image: &Raster) -> Vec<u8> {
        // Channel-aware prediction: predict each channel from its own
        // previous sample so interleaving does not wreck the predictor.
        self.compress_with_channels(image.data(), image.channels())
    }

    fn decompress_raster(
        &self,
        data: &[u8],
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Raster, CodecError> {
        let (bytes, coded_channels) = self.decompress_inner(data)?;
        if coded_channels != channels || bytes.len() != width * height * channels {
            return Err(CodecError::new("CCSDS geometry mismatch"));
        }
        Ok(Raster::new(width, height, channels, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    #[test]
    fn smooth_gradient_compresses_well() {
        // Smooth data → tiny residuals → k≈0 blocks.
        let data: Vec<u8> = (0..10_000).map(|i| ((i / 64) % 256) as u8).collect();
        let codec = CcsdsLike::new();
        let r = codec.ratio(&data);
        assert!(r > 3.0, "smooth gradient ratio {r}");
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn rice_floor_caps_ratio_on_zero_data() {
        // All-zero data: 1 bit/sample + headers → ratio just under 8.
        // This is the structural reason the paper's CCSDS SAR ratio (9.89)
        // is tiny next to zip's 2436.
        let data = vec![0u8; 65_536];
        let codec = CcsdsLike::new();
        let r = codec.ratio(&data);
        assert!(r > 6.0 && r < 9.0, "zero-data ratio {r}");
    }

    #[test]
    fn channel_aware_prediction_beats_interleaved_on_color() {
        // Three channels with very different levels: per-channel
        // prediction must beat single-stream prediction.
        let mut img = Raster::zeroed(64, 64, 3);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, 0, 200);
                img.set(x, y, 1, 20);
                img.set(x, y, 2, 120);
            }
        }
        let codec = CcsdsLike::new();
        let aware = codec.compress_raster(&img).len();
        let blind = codec.compress(img.data()).len();
        assert!(aware < blind, "aware {aware} vs blind {blind}");
        let back = codec
            .decompress_raster(&codec.compress_raster(&img), 64, 64, 3)
            .unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn geometry_mismatch_is_error() {
        let img = Raster::zeroed(8, 8, 3);
        let codec = CcsdsLike::new();
        let packed = codec.compress_raster(&img);
        assert!(codec.decompress_raster(&packed, 8, 8, 1).is_err());
        assert!(codec.decompress_raster(&packed, 4, 4, 3).is_err());
    }

    #[test]
    fn huge_declared_sample_count_errors_without_allocating() {
        // The header declares 2^31 samples over 16 bits of payload; the
        // decoder used to reserve 16 GiB for them and abort.
        let codec = CcsdsLike::new();
        assert!(codec.decompress(&[0x80, 0, 0, 0, 1, 0xFF, 0xFF]).is_err());
        assert!(codec.decompress(&[0x80, 0, 0, 0, 1, 0x00, 0x00]).is_err());
    }

    #[test]
    fn round_trips_arbitrary() {
        prop::check("round_trips_arbitrary", 48, |g| {
            let data = g.draw(prop::vec(any::<u8>(), 0..3000));

            let codec = CcsdsLike::new();
            assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
        });
    }

    #[test]
    fn raster_round_trips() {
        prop::check("raster_round_trips", 48, |g| {
            let w = g.draw(1usize..32);
            let h = g.draw(1usize..32);
            let c = g.draw(1usize..4);
            let data: Vec<u8> = (0..w * h * c).map(|_| g.draw(any::<u8>())).collect();
            let img = Raster::new(w, h, c, data);
            let codec = CcsdsLike::new();
            let packed = codec.compress_raster(&img);
            assert_eq!(codec.decompress_raster(&packed, w, h, c).unwrap(), img);
        });
    }
}
