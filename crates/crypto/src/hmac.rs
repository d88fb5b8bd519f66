//! HMAC (RFC 2104) over SHA-256 and SHA-512.
//!
//! The TNIC attestation kernel (paper §4.1, Algorithm 1) computes
//! `α = hmac(keys[c_id], msg || ID || cnt)`; this module provides that
//! primitive for both the simulated NIC hardware and the host-side TEE
//! baselines.

use crate::sha256::{self, Backend, Sha256};
use crate::sha512::{self, Sha512};

/// Computes `HMAC-SHA-256(key, message)`.
///
/// Keys of any length are accepted: keys longer than the block size are
/// hashed first, exactly as RFC 2104 prescribes.
///
/// # Example
///
/// ```
/// use tnic_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut ctx = HmacSha256::new(key);
    ctx.update(message);
    ctx.finalize()
}

/// Computes `HMAC-SHA-512(key, message)`.
#[must_use]
pub fn hmac_sha512(key: &[u8], message: &[u8]) -> [u8; 64] {
    const BLOCK: usize = sha512::BLOCK_LEN;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..64].copy_from_slice(&sha512::sha512(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0u8; BLOCK];
    let mut opad = [0u8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }
    let mut inner = Sha512::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha512::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// An HMAC-SHA-256 key reduced to its two keyed midstates: the SHA-256
/// chaining values after compressing `key ⊕ ipad` and `key ⊕ opad`.
///
/// This is what the attestation kernel keeps per session (64 bytes in place
/// of the raw key): every MAC then starts from the midstates and skips the
/// two key-block compressions, so a 64-byte attestation costs three
/// compressions instead of five. The raw key cannot be read back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material must never be printed.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Derives the midstates of `key`. Keys of any length are accepted: keys
    /// longer than the block size are hashed first, as RFC 2104 prescribes.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        Self::derive(key, Backend::selected())
    }

    /// `backend` must have passed [`Backend::is_available`].
    fn derive(key: &[u8], backend: Backend) -> Self {
        const BLOCK: usize = sha256::BLOCK_LEN;
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let mut h = Sha256::resume(sha256::H0, 0, backend);
            h.update(key);
            key_block[..32].copy_from_slice(&h.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut block = key_block;
            for b in &mut block {
                *b ^= pad;
            }
            let mut state = sha256::H0;
            backend.compress(&mut state, &block);
            state
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// A fresh incremental MAC context under this key.
    #[must_use]
    pub fn hasher(&self) -> HmacSha256 {
        self.hasher_on(Backend::selected())
    }

    fn hasher_on(&self, backend: Backend) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(self.inner, 1, backend),
            outer: self.outer,
        }
    }

    /// The attestation certificate `α = HMAC(key, msg ‖ ID ‖ cnt)` of the
    /// TNIC attestation kernel (paper §4.1, Algorithm 1): the payload, then
    /// the device id and the counter little-endian.
    #[must_use]
    pub fn attestation_mac(&self, payload: &[u8], device: u32, counter: u64) -> [u8; 32] {
        let mut mac = self.hasher();
        mac.update(payload);
        mac.update(&device.to_le_bytes());
        mac.update(&counter.to_le_bytes());
        mac.finalize()
    }
}

/// Incremental HMAC-SHA-256 context.
///
/// Useful when the authenticated message is assembled from several parts
/// (payload, device id, counter) without intermediate copies, which is how the
/// attestation kernel's data path operates.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Chaining value after the `key ⊕ opad` block.
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Creates a new context keyed with `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).hasher()
    }

    /// Creates a new context keyed with `key` whose every compression runs on
    /// `backend`, for differential tests and backend benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if the CPU cannot run `backend`.
    #[must_use]
    pub fn with_backend(key: &[u8], backend: Backend) -> Self {
        assert!(
            backend.is_available(),
            "SHA-256 backend {} is not supported by this CPU",
            backend.label()
        );
        HmacKey::derive(key, backend).hasher_on(backend)
    }

    /// Feeds more message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let backend = self.inner.backend();
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::resume(self.outer, 1, backend);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Verifies an HMAC-SHA-256 tag in constant time.
#[must_use]
pub fn verify_hmac_sha256(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    crate::ct::ct_eq(&hmac_sha256(key, message), tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac_sha512(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 4231 test case 4: 25-byte key 0x01..=0x19, 50-byte 0xcd data.
    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=0x19u8).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
        assert_eq!(
            hex(&hmac_sha512(&key, &data)),
            "b0ba465637458c6990e5a8c5f61d4af7e576d97ff94b872de76f8050361ee3db\
             a91ca5c11aa25eb4d679275cc5788063a5f19741120c4f2de2adebeb10a298dd"
        );
    }

    // RFC 4231 test case 7: key and data both longer than the block size.
    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger \
                     than block-size data. The key needs to be hashed before being \
                     used by the HMAC algorithm.";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// RFC 2104 written out from scratch on the scalar SHA-256 backend, with
    /// no midstates: `H((K' ⊕ opad) ‖ H((K' ⊕ ipad) ‖ m))`.
    fn reference_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let h = |data: &[u8]| {
            let mut h = Sha256::with_backend(Backend::Scalar);
            h.update(data);
            h.finalize()
        };
        let mut k = if key.len() > 64 {
            h(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(64, 0);
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&h(&inner));
        h(&outer)
    }

    #[test]
    fn midstate_hmac_matches_rfc2104_reference() {
        let bytes: Vec<u8> = (0..431u32).map(|i| (i * 151 + 7) as u8).collect();
        for key_len in 0..=130 {
            let key = &bytes[300..300 + key_len];
            let hmac_key = HmacKey::new(key);
            for msg_len in 0..=300 {
                let msg = &bytes[..msg_len];
                let expected = reference_hmac(key, msg);
                assert_eq!(
                    hmac_sha256(key, msg),
                    expected,
                    "key {key_len} msg {msg_len}"
                );
                let mut ctx = hmac_key.hasher();
                ctx.update(msg);
                assert_eq!(ctx.finalize(), expected, "key {key_len} msg {msg_len}");
            }
        }
    }

    #[test]
    fn every_backend_matches_the_reference() {
        for backend in [Backend::Scalar, Backend::ShaNi] {
            if !backend.is_available() {
                continue;
            }
            for (key_len, msg_len) in [(0, 0), (32, 64), (64, 55), (65, 56), (131, 300)] {
                let key = vec![0x42u8; key_len];
                let msg = vec![0x17u8; msg_len];
                let mut ctx = HmacSha256::with_backend(&key, backend);
                ctx.update(&msg);
                assert_eq!(ctx.finalize(), reference_hmac(&key, &msg), "{backend:?}");
            }
        }
    }

    #[test]
    fn attestation_mac_covers_payload_device_and_counter() {
        let key = HmacKey::new(&[9u8; 32]);
        let payload = [0x5au8; 64];
        let mut joined = payload.to_vec();
        joined.extend_from_slice(&7u32.to_le_bytes());
        joined.extend_from_slice(&42u64.to_le_bytes());
        let tag = key.attestation_mac(&payload, 7, 42);
        assert_eq!(tag, reference_hmac(&[9u8; 32], &joined));
        assert_ne!(tag, key.attestation_mac(&payload, 8, 42));
        assert_ne!(tag, key.attestation_mac(&payload, 7, 43));
        assert_eq!(format!("{key:?}"), "HmacKey(..)");
    }

    #[test]
    fn wikipedia_fox_vector() {
        assert_eq!(
            hex(&hmac_sha256(
                b"key",
                b"The quick brown fox jumps over the lazy dog"
            )),
            "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"session-key-0123456789";
        let parts: [&[u8]; 3] = [b"message", b"||device-7||", b"counter-42"];
        let joined: Vec<u8> = parts.concat();
        let mut ctx = HmacSha256::new(key);
        for p in parts {
            ctx.update(p);
        }
        assert_eq!(ctx.finalize(), hmac_sha256(key, &joined));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac_sha256(b"k", b"m", &tag));
        assert!(!verify_hmac_sha256(b"k", b"m2", &tag));
        assert!(!verify_hmac_sha256(b"k2", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify_hmac_sha256(b"k", b"m", &bad));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"a", b"msg"), hmac_sha256(b"b", b"msg"));
    }
}
