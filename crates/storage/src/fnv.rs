//! FNV-1a-64, defined once: the column archive's payload checksum, the
//! optimizer's stage fingerprints and the statistics' value hash all call
//! it.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the text formatted into it through [`std::fmt::Write`],
/// hashed as it is rendered instead of from a rendered copy.
pub struct Fnv(pub u64);

impl Fnv {
    /// The empty hash (the offset basis).
    pub fn new() -> Fnv {
        Fnv(OFFSET_BASIS)
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fold(self.0, s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(OFFSET_BASIS, bytes)
}

#[inline]
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn reference_vectors_and_sinks_agree() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let (mut h, bar) = (Fnv::new(), "bar");
        write!(h, "foo{bar}").unwrap();
        assert_eq!(h.0, fnv1a(b"foobar"), "the text sink hashes the rendered bytes");
    }
}
