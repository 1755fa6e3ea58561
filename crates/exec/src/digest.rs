//! FNV-1a, the one byte-stream digest the workspace's fingerprints fold
//! with: prediction vectors, memory images, BIST weak-cell maps, and the
//! generated-macro reports. Every golden digest the CI gates compare is a
//! fold of this function, so it must never change.

/// FNV-1a offset basis: the state of a digest that has folded nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds `value` as eight little-endian bytes into the FNV-1a state `hash`.
pub fn fnv1a_u64(hash: u64, value: u64) -> u64 {
    fnv1a(hash, &value.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn folds_compose_and_u64_is_little_endian() {
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
        assert_eq!(
            fnv1a_u64(FNV_OFFSET, 0x0102),
            fnv1a(FNV_OFFSET, &[2, 1, 0, 0, 0, 0, 0, 0])
        );
    }
}
