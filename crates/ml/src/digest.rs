//! FNV-1a-64 content digests for model artifacts.
//!
//! The artifact store (`pidpiper_core::artifact`) frames every persisted
//! model text with a checksum so a torn write — a process killed mid
//! `fs::write`, a truncated copy — is detected at load time as a typed
//! error instead of being parsed as a (possibly valid-looking) model. The
//! digest primitive lives here, next to the serialization it protects:
//! FNV-1a over the payload bytes, the same cheap, dependency-free hash
//! the test-name hashing elsewhere in the workspace uses, which is plenty
//! for *corruption detection* (it is not, and does not need to be,
//! cryptographic — an adversarial artifact is out of scope; a torn one is
//! not).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 digest of `bytes`.
///
/// # Examples
///
/// ```
/// // Known-answer: FNV-1a-64 of the empty input is the offset basis.
/// assert_eq!(pidpiper_ml::fnv64(b""), 0xcbf2_9ce4_8422_2325);
/// // Single-byte corruption moves the digest.
/// assert_ne!(pidpiper_ml::fnv64(b"model v2"), pidpiper_ml::fnv64(b"model v3"));
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv64`] rendered as the fixed-width lower-hex form the artifact
/// header uses.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_byte_flip_changes_the_digest() {
        let base = b"pidpiper-deployment v2\nthresholds 1.8e1".to_vec();
        let reference = fnv64(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv64(&flipped), reference, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn hex_form_is_fixed_width() {
        assert_eq!(fnv64_hex(b"").len(), 16);
        assert_eq!(fnv64_hex(b""), "cbf29ce484222325");
    }
}
