//! SHA-256 compression on the x86 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` performs two rounds per instruction on the state held as the
//! word pairs `ABEF` and `CDGH`; `sha256msg1`/`sha256msg2` extend the message
//! schedule four words at a time. One 64-byte block is 32 `sha256rnds2`
//! instructions instead of the scalar path's 64 rounds of rotates and adds.
//!
//! This is the only module of the crate allowed to use `unsafe`: the
//! instructions are reachable only through `#[target_feature]` functions,
//! and SSE loads and stores take raw pointers.

use super::{BLOCK_LEN, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};
use std::sync::atomic::{AtomicU8, Ordering};

/// CPU probe result: 0 = not probed yet, 1 = extensions absent, 2 = present.
static PROBED: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU has every extension [`compress_blocks`] is compiled for.
/// The CPU is probed once; later calls are a single load. `Relaxed` is
/// enough: the flag publishes no other data, and a racing first probe only
/// repeats the same detection.
#[inline]
pub(super) fn available() -> bool {
    match PROBED.load(Ordering::Relaxed) {
        0 => {
            let present = std::is_x86_feature_detected!("sha")
                && std::is_x86_feature_detected!("sse2")
                && std::is_x86_feature_detected!("ssse3")
                && std::is_x86_feature_detected!("sse4.1");
            PROBED.store(1 + u8::from(present), Ordering::Relaxed);
            present
        }
        probed => probed == 2,
    }
}

/// Compresses every 64-byte block of `blocks` into `state` and returns
/// `true`, or returns `false` without touching `state` if the CPU lacks the
/// extensions. The features are checked once per call, not per block.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed that the CPU supports every
    // feature `compress_blocks_shani` is compiled with.
    unsafe { compress_blocks_shani(state, blocks) };
    true
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte-swaps each 32-bit lane: SHA-256 words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let state_ptr = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes, so lanes 0 and 1 of 16 bytes each are in
    // bounds; `loadu` has no alignment requirement.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state_ptr),
            _mm_loadu_si128(state_ptr.add(1)),
        )
    };
    // Rearrange A..H into the ABEF/CDGH pairs sha256rnds2 works on.
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is exactly 64 bytes, so the four 16-byte loads at
        // offsets 0, 16, 32 and 48 are in bounds; `loadu` accepts any
        // alignment, so reading straight from the caller's slice is sound.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            [
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            ]
        };
        // Four rounds on schedule words `w` with round constants from
        // `K[4 * i..]`.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                // SAFETY: `K` has 64 words and `$i < 16`, so the 16-byte
                // load at word `4 * $i` is in bounds.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast::<__m128i>()) };
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next four schedule words from the previous sixteen
        // (`a` oldest), written over `a`, then four rounds on them.
        macro_rules! schedule_rounds4 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($a, $b), _mm_alignr_epi8($d, $c, 4));
                $a = _mm_sha256msg2_epu32(t, $d);
                rounds4!($a, $i);
            }};
        }
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        schedule_rounds4!(w0, w1, w2, w3, 4);
        schedule_rounds4!(w1, w2, w3, w0, 5);
        schedule_rounds4!(w2, w3, w0, w1, 6);
        schedule_rounds4!(w3, w0, w1, w2, 7);
        schedule_rounds4!(w0, w1, w2, w3, 8);
        schedule_rounds4!(w1, w2, w3, w0, 9);
        schedule_rounds4!(w2, w3, w0, w1, 10);
        schedule_rounds4!(w3, w0, w1, w2, 11);
        schedule_rounds4!(w0, w1, w2, w3, 12);
        schedule_rounds4!(w1, w2, w3, w0, 13);
        schedule_rounds4!(w2, w3, w0, w1, 14);
        schedule_rounds4!(w3, w0, w1, w2, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: the same two in-bounds 16-byte lanes of `state` as the loads.
    unsafe {
        _mm_storeu_si128(state_ptr, dcba);
        _mm_storeu_si128(state_ptr.add(1), hgef);
    }
}
