//! From-scratch lossless (and one lossy) image-compression codecs.
//!
//! Table 4 of the paper measures compression ratios for RGB and SAR
//! satellite imagery across JPEG2000, LZW, Zip, RLE, PNG, and CCSDS. We
//! cannot ship those exact implementations, so this crate implements the
//! *algorithmic families* from scratch:
//!
//! | Paper codec | Ours | Module |
//! |---|---|---|
//! | RLE | PackBits-style run-length coding | [`rle`] |
//! | LZW | variable-width LZW with dictionary reset | [`lzw`] |
//! | Zip | LZ77 + canonical Huffman ("mini-deflate") | [`deflate`] ([`lz77`], [`huffman`]) |
//! | PNG | adaptive per-row filters + mini-deflate | [`png`] |
//! | CCSDS 121 | unit-delay predictor + block-adaptive Rice | [`ccsds`] ([`rice`]) |
//! | JPEG2000 | 2-D integer 5/3 lifting DWT, per-subband Rice/deflate backends | [`dwt`] |
//!
//! All codecs except the quantised DWT mode are strictly lossless and
//! property-tested for round-trip identity.
//!
//! # Examples
//!
//! ```
//! use compress::{Codec, CodecKind};
//!
//! let data = b"aaaaaaaaaabbbbbbbbbbcccccccccc".to_vec();
//! let codec = CodecKind::Rle.codec();
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed)?, data);
//! # Ok::<(), compress::CodecError>(())
//! ```

pub mod bitio;
pub mod ccsds;
pub mod deflate;
pub mod dwt;
pub mod huffman;
pub mod lz77;
pub mod lzw;
pub mod png;
pub mod quality;
pub mod raster;
pub mod rice;
pub mod rle;

pub use raster::Raster;

/// Error returned when decoding malformed or truncated compressed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    /// Creates an error with a human-readable cause.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// A byte-stream compressor/decompressor.
///
/// Image-aware codecs (PNG, CCSDS, DWT) additionally implement
/// [`RasterCodec`]; their `Codec` impls treat the input as a single
/// scanline, which is well-defined but weaker.
pub trait Codec {
    /// Human-readable codec name (used in Table 4 output).
    fn name(&self) -> &'static str;

    /// Compresses `data` into a self-contained byte stream.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompresses a stream produced by [`Codec::compress`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed or truncated input.
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Compression ratio achieved on `data` (original / compressed).
    #[cfg(test)]
    fn ratio(&self, data: &[u8]) -> f64 {
        let compressed = self.compress(data);
        if compressed.is_empty() {
            return 1.0;
        }
        data.len() as f64 / compressed.len() as f64
    }
}

/// A codec that understands 2-D image structure.
pub trait RasterCodec {
    /// Human-readable codec name.
    fn name(&self) -> &'static str;

    /// Compresses a raster image.
    fn compress_raster(&self, image: &Raster) -> Vec<u8>;

    /// Decompresses into a raster with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed input or geometry mismatch.
    fn decompress_raster(
        &self,
        data: &[u8],
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Raster, CodecError>;

    /// Compression ratio on a raster (original bytes / compressed bytes).
    fn raster_ratio(&self, image: &Raster) -> f64 {
        let compressed = self.compress_raster(image);
        if compressed.is_empty() {
            return 1.0;
        }
        image.data().len() as f64 / compressed.len() as f64
    }
}

/// The Table 4 codec lineup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// JPEG2000-family: DWT-based (lossless integer 5/3 here).
    Jpeg2000Like,
    /// LZW dictionary coding.
    Lzw,
    /// Zip-family: LZ77 + Huffman.
    ZipLike,
    /// Run-length encoding.
    Rle,
    /// PNG: filtering + LZ77/Huffman.
    PngLike,
    /// CCSDS 121-family: predictive + Rice.
    CcsdsLike,
}

impl CodecKind {
    /// All Table 4 codecs, in the paper's column order.
    pub const ALL: [Self; 6] = [
        Self::Jpeg2000Like,
        Self::Lzw,
        Self::ZipLike,
        Self::Rle,
        Self::PngLike,
        Self::CcsdsLike,
    ];

    /// Table 4 column header.
    pub fn label(self) -> &'static str {
        match self {
            Self::Jpeg2000Like => "JPEG2000",
            Self::Lzw => "LZW",
            Self::ZipLike => "Zip",
            Self::Rle => "RLE",
            Self::PngLike => "PNG",
            Self::CcsdsLike => "CCSDS",
        }
    }

    /// Returns the byte-stream codec implementation.
    pub fn codec(self) -> Box<dyn Codec> {
        match self {
            Self::Jpeg2000Like => Box::new(dwt::DwtCodec::lossless()),
            Self::Lzw => Box::new(lzw::Lzw::new()),
            Self::ZipLike => Box::new(deflate::MiniDeflate::new()),
            Self::Rle => Box::new(rle::Rle::new()),
            Self::PngLike => Box::new(png::PngLike::new()),
            Self::CcsdsLike => Box::new(ccsds::CcsdsLike::new()),
        }
    }

    /// Returns the raster-aware codec implementation.
    pub fn raster_codec(self) -> Box<dyn RasterCodec> {
        match self {
            Self::Jpeg2000Like => Box::new(dwt::DwtCodec::lossless()),
            Self::Lzw => Box::new(raster::ByteCodecAsRaster::new(lzw::Lzw::new())),
            Self::ZipLike => Box::new(raster::ByteCodecAsRaster::new(deflate::MiniDeflate::new())),
            Self::Rle => Box::new(raster::ByteCodecAsRaster::new(rle::Rle::new())),
            Self::PngLike => Box::new(png::PngLike::new()),
            Self::CcsdsLike => Box::new(ccsds::CcsdsLike::new()),
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_codecs_round_trip_plain_text() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog, repeatedly; \
                              the quick brown fox jumps over the lazy dog again."
            .to_vec();
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let packed = codec.compress(&data);
            let back = codec.decompress(&packed).unwrap_or_else(|e| {
                panic!("{} failed to decode its own output: {e}", codec.name())
            });
            assert_eq!(back, data, "{} round trip", codec.name());
        }
    }

    #[test]
    fn all_codecs_handle_empty_input() {
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let packed = codec.compress(&[]);
            let back = codec.decompress(&packed).unwrap();
            assert!(back.is_empty(), "{}", codec.name());
        }
    }

    #[test]
    fn decompressing_garbage_errors_not_panics() {
        let garbage = vec![0xFF, 0x13, 0x37, 0x00, 0x42, 0x99, 0x01];
        for kind in CodecKind::ALL {
            // Must not panic; error or (by coincidence) a decode are fine.
            let _ = kind.codec().decompress(&garbage);
        }
    }

    #[test]
    fn repetitive_data_compresses_well_everywhere_except_nothing() {
        let data = vec![7u8; 4096];
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let r = codec.ratio(&data);
            assert!(r > 4.0, "{} got ratio {r} on constant data", codec.name());
        }
    }

    #[test]
    fn random_data_does_not_compress() {
        let mut rng = simkit::rng::Rng64::seed_from_u64(0x1234_5678);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for kind in CodecKind::ALL {
            let codec = kind.codec();
            let r = codec.ratio(&data);
            assert!(
                r < 1.2,
                "{} claims ratio {r} on incompressible data",
                codec.name()
            );
        }
    }
}
