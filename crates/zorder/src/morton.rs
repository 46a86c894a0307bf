//! Bit-interleaving Morton-code primitives.
//!
//! 3-D codes interleave 21 bits per dimension into a 63-bit code with bit
//! layout `… z2 y2 x2 z1 y1 x1 z0 y0 x0` (x occupies the least significant
//! position of each triple).

/// Largest coordinate representable in a 3-D Morton code (21 bits).
pub const MAX_COORD3: u32 = (1 << 21) - 1;

/// Spreads the low 21 bits of `x` so that consecutive input bits land three
/// positions apart (`b0 -> bit 0`, `b1 -> bit 3`, ...).
#[inline]
pub fn spread3(x: u32) -> u64 {
    debug_assert!(x <= MAX_COORD3, "coordinate {x} exceeds 21 bits");
    let mut v = u64::from(x) & 0x1f_ffff;
    v = (v | (v << 32)) & 0x001f_0000_0000_ffff;
    v = (v | (v << 16)) & 0x001f_0000_ff00_00ff;
    v = (v | (v << 8)) & 0x100f_00f0_0f00_f00f;
    v = (v | (v << 4)) & 0x10c3_0c30_c30c_30c3;
    v = (v | (v << 2)) & 0x1249_2492_4924_9249;
    v
}

/// Inverse of [`spread3`]: collects every third bit back into a dense value.
#[inline]
pub fn compact3(v: u64) -> u32 {
    let mut v = v & 0x1249_2492_4924_9249;
    v = (v | (v >> 2)) & 0x10c3_0c30_c30c_30c3;
    v = (v | (v >> 4)) & 0x100f_00f0_0f00_f00f;
    v = (v | (v >> 8)) & 0x001f_0000_ff00_00ff;
    v = (v | (v >> 16)) & 0x001f_0000_0000_ffff;
    v = (v | (v >> 32)) & 0x1f_ffff;
    v as u32
}

/// Encodes `(x, y, z)` into a 3-D Morton code.
///
/// Matches the JHTDB convention: the code of an atom is the interleaved
/// coordinates of its lower-left corner, with `x` in the least significant
/// interleave slot so that z-order sorts by `z`, then `y`, then `x` at the
/// coarsest level.
#[inline]
pub fn encode3(x: u32, y: u32, z: u32) -> u64 {
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Decodes a 3-D Morton code back into `(x, y, z)`.
#[inline]
pub fn decode3(code: u64) -> (u32, u32, u32) {
    (compact3(code), compact3(code >> 1), compact3(code >> 2))
}

/// Per-row Morton encoder: hoists the `y`/`z` bit spreads out of an x-loop.
///
/// Scan kernels emit hits row by row (fixed `y`, `z`, varying `x`). Encoding
/// each hit with [`encode3`] re-spreads all three coordinates per point;
/// `MortonRow` spreads `y` and `z` once per row so only `x` is spread per
/// point. `MortonRow::encode_x(x)` is bit-identical to `encode3(x, y, z)`.
#[derive(Debug, Clone, Copy)]
pub struct MortonRow {
    yz: u64,
}

impl MortonRow {
    /// Fixes the row coordinates `(y, z)`.
    #[inline]
    pub fn new(y: u32, z: u32) -> Self {
        Self {
            yz: (spread3(y) << 1) | (spread3(z) << 2),
        }
    }

    /// Encodes `(x, y, z)` for the row's `y`, `z`.
    #[inline]
    pub fn encode_x(&self, x: u32) -> u64 {
        spread3(x) | self.yz
    }
}

/// Local (within-atom) coordinates for each 9-bit Morton code.
///
/// For an 8³ atom the low 9 bits of a point code interleave the three 3-bit
/// local offsets, so the whole decode collapses to one table lookup.
const LOCAL3: [(u8, u8, u8); 512] = local3_table();

const fn local3_table() -> [(u8, u8, u8); 512] {
    let mut t = [(0u8, 0u8, 0u8); 512];
    let mut code = 0usize;
    while code < 512 {
        let c = code as u32;
        let x = (c & 1) | ((c >> 2) & 2) | ((c >> 4) & 4);
        let y = ((c >> 1) & 1) | ((c >> 3) & 2) | ((c >> 5) & 4);
        let z = ((c >> 2) & 1) | ((c >> 4) & 2) | ((c >> 6) & 4);
        t[code] = (x as u8, y as u8, z as u8);
        code += 1;
    }
    t
}

/// Batched Morton decoder that amortises the bit-compaction over an atom.
///
/// A 3-D point code splits as `atom_code << 9 | local_code` where
/// `atom_code` is the Morton code of the containing 8³ atom and
/// `local_code` interleaves the three 3-bit in-atom offsets. Streams of
/// codes sorted by z-index visit each atom's 512 points consecutively, so
/// the decoder runs the full [`decode3`] bit-compaction only when the atom
/// changes and serves every other point from a 512-entry local table.
///
/// `decode(code)` is exactly [`decode3`]`(code)` for every code.
#[derive(Debug, Clone)]
pub struct MortonBlockDecoder {
    last_atom: u64,
    base: (u32, u32, u32),
}

impl Default for MortonBlockDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl MortonBlockDecoder {
    /// Creates a decoder with an empty atom cache.
    #[inline]
    pub fn new() -> Self {
        Self {
            // Codes are at most 63 bits, so `code >> 9` never reaches
            // u64::MAX and the cache starts guaranteed-cold.
            last_atom: u64::MAX,
            base: (0, 0, 0),
        }
    }

    /// Decodes a point code, reusing the cached atom base when possible.
    #[inline]
    pub fn decode(&mut self, code: u64) -> (u32, u32, u32) {
        let atom = code >> 9;
        if atom != self.last_atom {
            let (ax, ay, az) = decode3(atom);
            self.base = (ax << 3, ay << 3, az << 3);
            self.last_atom = atom;
        }
        let (dx, dy, dz) = LOCAL3[(code & 0x1ff) as usize];
        (
            self.base.0 | u32::from(dx),
            self.base.1 | u32::from(dy),
            self.base.2 | u32::from(dz),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode3_known_values() {
        assert_eq!(encode3(0, 0, 0), 0);
        assert_eq!(encode3(1, 0, 0), 0b001);
        assert_eq!(encode3(0, 1, 0), 0b010);
        assert_eq!(encode3(0, 0, 1), 0b100);
        assert_eq!(encode3(1, 1, 1), 0b111);
        assert_eq!(encode3(2, 0, 0), 0b001_000);
        // triples (z y x) from coarse to fine: (0,1,0) (0,0,1) (1,1,1)
        assert_eq!(encode3(3, 5, 1), 0b010_001_111);
    }

    #[test]
    fn encode3_max_coordinate_roundtrips() {
        let c = encode3(MAX_COORD3, MAX_COORD3, MAX_COORD3);
        assert_eq!(decode3(c), (MAX_COORD3, MAX_COORD3, MAX_COORD3));
    }

    #[test]
    fn z_order_sorts_nested_octants() {
        // All codes in octant (0..4)^3 are smaller than any code in the
        // octant shifted by +4 in z.
        let mut max_low = 0;
        let mut min_high = u64::MAX;
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    max_low = max_low.max(encode3(x, y, z));
                    min_high = min_high.min(encode3(x, y, z + 4));
                }
            }
        }
        assert!(max_low < min_high);
    }

    #[test]
    fn block_decoder_reuses_atom_base_across_runs() {
        // Two atoms, interleaved visits: the cache must refresh on switch.
        let mut d = MortonBlockDecoder::new();
        let a = encode3(8, 0, 0);
        let b = encode3(0, 8, 16);
        assert_eq!(d.decode(a), (8, 0, 0));
        assert_eq!(d.decode(a | 0b111), decode3(a | 0b111));
        assert_eq!(d.decode(b), (0, 8, 16));
        assert_eq!(d.decode(a), (8, 0, 0));
    }

    proptest! {
        #[test]
        fn roundtrip3(x in 0..=MAX_COORD3, y in 0..=MAX_COORD3, z in 0..=MAX_COORD3) {
            prop_assert_eq!(decode3(encode3(x, y, z)), (x, y, z));
        }

        #[test]
        fn morton_row_matches_encode3(
            y in 0..=MAX_COORD3, z in 0..=MAX_COORD3,
            xs in prop::collection::vec(0..=MAX_COORD3, 1..32),
        ) {
            let row = MortonRow::new(y, z);
            for x in xs {
                prop_assert_eq!(row.encode_x(x), encode3(x, y, z));
            }
        }

        #[test]
        fn block_decoder_matches_decode3(
            codes in prop::collection::vec(0u64..1 << 63, 1..256),
        ) {
            let mut sorted = codes.clone();
            sorted.sort_unstable();
            let mut d = MortonBlockDecoder::new();
            // Sorted order exercises the cache-hit path; raw order the misses.
            for c in sorted.iter().chain(&codes) {
                prop_assert_eq!(d.decode(*c), decode3(*c));
            }
        }

        #[test]
        fn spread_compact_inverse(x in 0..=MAX_COORD3) {
            prop_assert_eq!(compact3(spread3(x)), x);
        }

        #[test]
        fn code_is_monotone_in_octant_level(
            x in 0u32..1024, y in 0u32..1024, z in 0u32..1024, shift in 1u32..10
        ) {
            // Doubling the coarse octant index along any axis strictly
            // increases the code: z-order respects the octree hierarchy.
            let c = encode3(x, y, z);
            let bump = 1u32 << (10 + shift - 1);
            prop_assert!(encode3(x + bump, y, z) > c);
            prop_assert!(encode3(x, y + bump, z) > c);
            prop_assert!(encode3(x, y, z + bump) > c);
        }
    }
}
