//! FNV-1a, 64-bit: the workspace's one digest. Outcome fingerprints,
//! MCSTRACE checksums and cluster frame checksums all hash with it, so
//! a pinned value means the same thing everywhere.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over bytes and little-endian words.
#[derive(Debug, Clone)]
pub struct Fnv {
    hash: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv { hash: OFFSET_BASIS }
    }

    /// Folds `bytes` into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(PRIME);
        }
    }

    /// Folds `value`'s little-endian bytes into the digest.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a over one byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_bytes(bytes);
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
