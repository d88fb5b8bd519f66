//! Cryptographic substrate for the TNIC reproduction.
//!
//! The TNIC paper's attestation kernel is built around HMAC over message
//! payloads, its remote-attestation protocol (Fig. 3) around device key pairs,
//! signatures and a mutually authenticated encrypted channel. This crate
//! provides all of those primitives implemented from scratch so the trusted
//! computing base of the simulated hardware is self-contained:
//!
//! * [`sha256`] / [`sha512`] — FIPS 180-4 hash functions. SHA-256 runs on
//!   the x86-64 SHA extensions (SHA-NI) when the CPU has them, detected once
//!   at run time, and on portable scalar code otherwise; see
//!   [`sha256::Backend`].
//! * [`hmac`] — HMAC (RFC 2104) over either hash, plus [`hmac::HmacKey`],
//!   a SHA-256 key held as its two keyed midstates, which is how the
//!   attestation kernel stores session keys.
//! * [`hkdf`] — HKDF (RFC 5869) key derivation for session keys.
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! * [`secretbox`] — authenticated encryption via ChaCha20 + HMAC-SHA-256
//!   (encrypt-then-MAC), used for bitstream/secret delivery.
//! * [`field25519`], [`scalar25519`], [`edwards`] — Curve25519 arithmetic.
//! * [`ed25519`] — Ed25519 signatures (RFC 8032) for controller and client
//!   certificates.
//! * [`x25519`] — X25519 Diffie–Hellman (RFC 7748) for the attestation channel.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code`; the single exception is the SHA-NI
//! compression module inside [`sha256`], which needs `#[target_feature]`
//! intrinsics and unaligned SSE loads. It is entered only after run-time
//! feature detection, and every `unsafe` block states why it is sound.
//!
//! # Security disclaimer
//!
//! The implementations favour clarity over side-channel resistance: scalar
//! multiplication is not constant time and no blinding is applied. This is a
//! research simulation substrate, not a production cryptography library.
//!
//! # Example
//!
//! ```
//! use tnic_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"session-key", b"message||device||counter");
//! assert_eq!(tag.len(), 32);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod ct;
pub mod ed25519;
pub mod edwards;
pub mod error;
pub mod field25519;
pub mod hkdf;
pub mod hmac;
pub mod scalar25519;
pub mod secretbox;
pub mod sha256;
pub mod sha512;
pub mod x25519;

pub use error::CryptoError;
pub use hmac::{hmac_sha256, hmac_sha512};
pub use sha256::Sha256;
pub use sha512::Sha512;
