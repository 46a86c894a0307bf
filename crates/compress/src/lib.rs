//! Sub-sampled keyframe compression for atom payloads.
//!
//! Follows the spatial half of the JHTDB compression study
//! (Wu/Zaki/Meneveau, arXiv:1910.11994): store a spatially sub-sampled
//! *keyframe lattice* per atom plane and re-derive the skipped samples at
//! decode time by Lagrange interpolation on the kept lattice. The error
//! is *bounded by construction*: every sample whose reconstruction misses
//! the configured `max_error` is shipped as a sparse correction holding
//! the original bits, so decode can never be further off than the bound.
//!
//! Three codecs, each self-describing via a one-byte id prefix:
//!
//! * [`CODEC_RAW`] — the identity codec (little-endian `f32`s),
//! * [`CODEC_LOSSLESS`] — bit-exact byte-shuffled varint delta coding of
//!   the `f32` bit patterns ([`lossless`]); NaN/Inf payloads round-trip
//!   bitwise, which the SSD cache tier requires,
//! * [`CODEC_LOSSY`] — the spatial keyframe codec ([`spatial`]) whose
//!   kept lattice is itself lossless-coded.
//!
//! The block storage tier is time-step-major — a block never holds two
//! time-steps of one atom — so the codecs work per record, within one
//! time-step (see DESIGN.md §10).

mod corrections;
pub mod lossless;
pub mod spatial;
pub mod varint;

/// Identity codec id: payload is `n` little-endian `f32`s.
pub const CODEC_RAW: u8 = 0;
/// Bit-exact codec id: shuffle + varint delta of `f32` bit patterns.
pub const CODEC_LOSSLESS: u8 = 1;
/// Keyframe codec id: sub-sampled lattice + corrections.
pub const CODEC_LOSSY: u8 = 2;

/// Which codec the storage tier applies to atom payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionMode {
    /// Store raw samples (the seed behaviour).
    #[default]
    Off,
    /// Bit-exact shuffle + varint delta coding.
    Lossless,
    /// Sub-sampled keyframes with bounded-error reconstruction.
    Lossy,
}

impl CompressionMode {
    /// Stable lower-case name, used on the wire and by `tdbql info`.
    pub fn as_str(self) -> &'static str {
        match self {
            CompressionMode::Off => "off",
            CompressionMode::Lossless => "lossless",
            CompressionMode::Lossy => "lossy",
        }
    }

    /// Parses a mode name (the inverse of [`Self::as_str`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "none" => Some(CompressionMode::Off),
            "lossless" => Some(CompressionMode::Lossless),
            "lossy" => Some(CompressionMode::Lossy),
            _ => None,
        }
    }
}

impl std::fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The compression knob threaded `ClusterConfig` → storage → wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Codec selection; [`CompressionMode::Off`] preserves the seed
    /// on-disk format byte for byte.
    pub mode: CompressionMode,
    /// Keyframe stride per axis for the lossy codec (2 keeps every other
    /// sample plus the far face: 5³ of 8³ = 4.1× fewer samples).
    pub stride: u32,
    /// Absolute reconstruction-error bound for the lossy codec. Samples
    /// the interpolant misses by more than this ship as corrections.
    pub max_error: f64,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self {
            mode: CompressionMode::Off,
            stride: 2,
            max_error: 1e-3,
        }
    }
}

impl CompressionConfig {
    /// A lossless configuration (stride/max_error are ignored).
    pub fn lossless() -> Self {
        Self {
            mode: CompressionMode::Lossless,
            ..Self::default()
        }
    }

    /// A lossy configuration with the given lattice stride and bound.
    pub fn lossy(stride: u32, max_error: f64) -> Self {
        Self {
            mode: CompressionMode::Lossy,
            stride,
            max_error,
        }
    }

    /// Whether any codec other than the identity is active.
    pub fn is_active(&self) -> bool {
        self.mode != CompressionMode::Off
    }
}

/// Decode-side failure: the payload does not parse under its declared
/// codec. Storage maps this onto its corruption error (the payload is
/// CRC-protected, so reaching this means an encoder/decoder bug or a
/// fault-injected corruption, not bit rot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended before the declared structure was complete.
    Truncated,
    /// Unknown codec id byte.
    UnknownCodec(u8),
    /// Structural invariant violated (counts, strides, lengths).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed payload truncated"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id:#x}"),
            CodecError::Invalid(what) => write!(f, "invalid compressed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encoder output plus the stats the storage tier reports as
/// `compress.*` metrics.
#[derive(Debug, Clone)]
pub struct EncodedPlane {
    /// Self-describing payload (codec id byte first).
    pub bytes: Vec<u8>,
    /// Largest |reconstructed − original| the decoder will exhibit for
    /// this plane (0 for raw/lossless; for lossy, the max over samples
    /// *not* shipped as corrections, hence ≤ the configured bound).
    pub max_error: f64,
    /// Sparse corrections stored (lossy only).
    pub corrections: usize,
}

/// Encodes one atom plane (`tdb_zorder::ATOM_POINTS` samples) under
/// `cfg`. The output always begins with the codec id byte, so
/// [`decode_plane_into`] needs no configuration.
pub fn encode_plane(cfg: &CompressionConfig, plane: &[f32]) -> EncodedPlane {
    match cfg.mode {
        CompressionMode::Off => {
            let mut bytes = Vec::with_capacity(1 + plane.len() * 4);
            bytes.push(CODEC_RAW);
            for v in plane {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            EncodedPlane {
                bytes,
                max_error: 0.0,
                corrections: 0,
            }
        }
        CompressionMode::Lossless => {
            let mut bytes = Vec::with_capacity(1 + plane.len());
            bytes.push(CODEC_LOSSLESS);
            lossless::encode(plane, &mut bytes);
            EncodedPlane {
                bytes,
                max_error: 0.0,
                corrections: 0,
            }
        }
        CompressionMode::Lossy => {
            let mut bytes = Vec::new();
            bytes.push(CODEC_LOSSY);
            let stats = spatial::encode(plane, cfg.stride, cfg.max_error, &mut bytes);
            EncodedPlane {
                bytes,
                max_error: stats.max_error,
                corrections: stats.corrections,
            }
        }
    }
}

/// Decodes a self-describing plane payload straight into `out`, whose
/// length is the sample count the payload must hold — the storage tier
/// hands in the plane's slice of its per-block buffer.
pub fn decode_plane_into(bytes: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    let (&codec, body) = bytes.split_first().ok_or(CodecError::Truncated)?;
    match codec {
        CODEC_RAW => {
            if body.len() != out.len() * 4 {
                return Err(CodecError::Invalid("raw payload length"));
            }
            for (o, c) in out.iter_mut().zip(body.chunks_exact(4)) {
                *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
            Ok(())
        }
        CODEC_LOSSLESS => lossless::decode_into(body, out),
        CODEC_LOSSY => spatial::decode_into(body, out),
        other => Err(CodecError::UnknownCodec(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_zorder::ATOM_POINTS;

    fn decode_plane(bytes: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        let mut out = vec![0.0f32; n];
        decode_plane_into(bytes, &mut out)?;
        Ok(out)
    }

    fn smooth_plane() -> Vec<f32> {
        (0..ATOM_POINTS)
            .map(|i| {
                let (x, y, z) = (i % 8, (i / 8) % 8, i / 64);
                ((x as f64 * 0.4).sin() * (y as f64 * 0.3).cos() + 0.1 * z as f64) as f32
            })
            .collect()
    }

    #[test]
    fn mode_names_roundtrip() {
        for m in [
            CompressionMode::Off,
            CompressionMode::Lossless,
            CompressionMode::Lossy,
        ] {
            assert_eq!(CompressionMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(CompressionMode::parse("zstd"), None);
    }

    #[test]
    fn raw_plane_roundtrip_and_self_describing() {
        let plane = smooth_plane();
        let enc = encode_plane(&CompressionConfig::default(), &plane);
        assert_eq!(enc.bytes.first(), Some(&CODEC_RAW));
        assert_eq!(decode_plane(&enc.bytes, plane.len()).unwrap(), plane);
    }

    #[test]
    fn lossless_plane_roundtrip_compresses_smooth_data() {
        let plane = smooth_plane();
        let enc = encode_plane(&CompressionConfig::lossless(), &plane);
        assert_eq!(enc.bytes.first(), Some(&CODEC_LOSSLESS));
        assert!(enc.bytes.len() < plane.len() * 4, "{}", enc.bytes.len());
        assert_eq!(decode_plane(&enc.bytes, plane.len()).unwrap(), plane);
    }

    #[test]
    fn lossy_plane_honours_bound_and_beats_4x_on_smooth_data() {
        let plane = smooth_plane();
        let bound = 1e-3;
        let enc = encode_plane(&CompressionConfig::lossy(2, bound), &plane);
        assert_eq!(enc.bytes.first(), Some(&CODEC_LOSSY));
        let back = decode_plane(&enc.bytes, plane.len()).unwrap();
        for (a, b) in plane.iter().zip(&back) {
            assert!((f64::from(*a) - f64::from(*b)).abs() <= bound);
        }
        assert!(enc.max_error <= bound);
        let ratio = (plane.len() * 4) as f64 / enc.bytes.len() as f64;
        assert!(ratio >= 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn unknown_codec_is_rejected() {
        assert_eq!(
            decode_plane(&[0x77, 1, 2, 3], 1),
            Err(CodecError::UnknownCodec(0x77))
        );
        assert_eq!(decode_plane(&[], 0), Err(CodecError::Truncated));
    }
}
