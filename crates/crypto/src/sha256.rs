//! SHA-256 (FIPS 180-4).
//!
//! Used by the attestation kernel's HMAC, by the tamper-evident logs of the
//! A2M and PeerReview systems, and by the remote-attestation measurements.
//!
//! # Backends
//!
//! The compression function has two implementations behind one API:
//!
//! * [`Backend::ShaNi`] — the x86-64 SHA extensions (`sha256rnds2` and
//!   friends), about ten times faster per block than the scalar code.
//! * [`Backend::Scalar`] — portable Rust, the fallback on CPUs without the
//!   extensions and the reference the SHA-NI path is tested against.
//!
//! [`Sha256::new`] picks [`Backend::selected`], the fastest backend the CPU
//! supports, detected at run time; there is no build flag or setting.
//! [`Sha256::with_backend`] pins a backend, for differential tests and for
//! benchmarks that compare the two.

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 compression backend (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar Rust.
    Scalar,
    /// The x86-64 SHA extensions (SHA-NI).
    ShaNi,
}

impl Backend {
    /// The backend every hasher uses by default: SHA-NI when the CPU has it,
    /// scalar otherwise.
    #[must_use]
    pub fn selected() -> Backend {
        if Backend::ShaNi.is_available() {
            Backend::ShaNi
        } else {
            Backend::Scalar
        }
    }

    /// Whether this CPU can run the backend.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => shani::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => false,
        }
    }

    /// Short name for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::ShaNi => "sha-ni",
        }
    }

    /// Compresses every 64-byte block of `blocks` into `state`. Hashers only
    /// hold a backend that [`Backend::is_available`] accepted, so the scalar
    /// loop runs for `ShaNi` only where the CPU lacks the extensions.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if self == Backend::ShaNi && shani::compress_blocks(state, blocks) {
            return;
        }
        for block in blocks.chunks_exact(BLOCK_LEN) {
            compress_scalar(state, block);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use tnic_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher in the initial state, on [`Backend::selected`].
    #[must_use]
    pub fn new() -> Self {
        Self::resume(H0, 0, Backend::selected())
    }

    /// Creates a new hasher on a given backend.
    ///
    /// # Panics
    ///
    /// Panics if the CPU cannot run `backend`.
    #[must_use]
    pub fn with_backend(backend: Backend) -> Self {
        assert!(
            backend.is_available(),
            "SHA-256 backend {} is not supported by this CPU",
            backend.label()
        );
        Self::resume(H0, 0, backend)
    }

    /// A hasher that continues from the chaining value `state` reached
    /// after `blocks` whole blocks of input (an HMAC keyed midstate).
    /// `backend` must have passed [`Backend::is_available`].
    pub(crate) fn resume(state: [u32; 8], blocks: u64, backend: Backend) -> Self {
        Sha256 {
            state,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: blocks * BLOCK_LEN as u64,
            backend,
        }
    }

    /// The backend this hasher compresses on.
    pub(crate) fn backend(&self) -> Backend {
        self.backend
    }

    /// Feeds `data` into the hasher. Whole blocks are compressed straight
    /// from `data`; only a partial block at either end is buffered.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            self.backend.compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = input.len() - input.len() % BLOCK_LEN;
        if whole > 0 {
            self.backend.compress(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, then the 64-bit message length in bits.
        let bit_len = self.total_len.wrapping_mul(8);
        let len = self.buffer_len;
        self.buffer[len] = 0x80;
        self.buffer[len + 1..].fill(0);
        if len >= BLOCK_LEN - 8 {
            // No room for the length field: it goes in one more block.
            self.backend.compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The scalar compression function: one 64-byte block into `state`.
fn compress_scalar(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Computes the SHA-256 digest of `data` in one call.
///
/// # Example
///
/// ```
/// let d = tnic_crypto::sha256::sha256(b"");
/// assert_eq!(hex(&d), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every backend this CPU can run: scalar always, SHA-NI where present.
    fn backends() -> Vec<Backend> {
        [Backend::Scalar, Backend::ShaNi]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    fn digest_on(backend: Backend, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_backend(backend);
        h.update(data);
        h.finalize()
    }

    /// Asserts a FIPS 180-4 vector on every available backend and through
    /// the default [`sha256`].
    fn check_vector(data: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(data)), expected, "selected backend");
        for backend in backends() {
            assert_eq!(hex(&digest_on(backend, data)), expected, "{backend:?}");
        }
    }

    /// SplitMix64: a seeded, dependency-free source of test inputs.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn fill(&mut self, out: &mut [u8]) {
            for b in out {
                *b = self.next() as u8;
            }
        }
    }

    #[test]
    fn empty_vector() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn long_two_block_vector() {
        check_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a_vector() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn selected_backend_is_available() {
        let selected = Backend::selected();
        assert!(selected.is_available());
        assert_eq!(Sha256::new().backend(), selected);
        if Backend::ShaNi.is_available() {
            assert_eq!(selected, Backend::ShaNi, "SHA-NI present but not selected");
        }
    }

    #[test]
    fn shani_compress_matches_scalar_on_random_blocks() {
        if !Backend::ShaNi.is_available() {
            eprintln!("skipped: no sha_ni");
            return;
        }
        let mut rng = SplitMix(0x5eed_0001);
        let mut block = [0u8; BLOCK_LEN];
        for i in 0..10_000 {
            let mut state = [0u32; 8];
            for w in &mut state {
                *w = rng.next() as u32;
            }
            rng.fill(&mut block);
            let mut scalar = state;
            compress_scalar(&mut scalar, &block);
            let mut shani = state;
            Backend::ShaNi.compress(&mut shani, &block);
            assert_eq!(shani, scalar, "block {i}");
        }
    }

    #[test]
    fn shani_update_matches_scalar_at_random_splits() {
        if !Backend::ShaNi.is_available() {
            eprintln!("skipped: no sha_ni");
            return;
        }
        let mut rng = SplitMix(0x5eed_0002);
        let mut data = vec![0u8; 1200];
        for _ in 0..2_000 {
            let len = rng.below(data.len() + 1);
            rng.fill(&mut data[..len]);
            let expected = digest_on(Backend::Scalar, &data[..len]);
            let mut h = Sha256::with_backend(Backend::ShaNi);
            let mut at = 0;
            while at < len {
                let step = 1 + rng.below(len - at);
                h.update(&data[at..at + step]);
                at += step;
            }
            assert_eq!(h.finalize(), expected, "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding logic around the 56/64-byte boundaries.
        for backend in backends() {
            for len in 54..=130usize {
                let data = vec![0xabu8; len];
                let d1 = digest_on(backend, &data);
                let mut h = Sha256::with_backend(backend);
                for b in &data {
                    h.update(std::slice::from_ref(b));
                }
                assert_eq!(h.finalize(), d1, "{backend:?} len {len}");
                assert_eq!(
                    d1,
                    digest_on(Backend::Scalar, &data),
                    "{backend:?} len {len}"
                );
            }
        }
    }
}
