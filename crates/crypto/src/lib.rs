//! # apna-crypto
//!
//! From-scratch cryptographic substrate for the APNA reproduction
//! (*Source Accountability with Domain-brokered Privacy*, CoNEXT 2016).
//!
//! The offline crate registry available to this reproduction carries no
//! third-party cryptography, and the paper's EphID construction (Fig. 6)
//! is a nonstandard composition (AES-CTR + truncated CBC-MAC over CT‖IV)
//! that would need hand-rolling regardless. This crate therefore implements
//! every primitive the architecture needs:
//!
//! * [`aes`] — AES-128/192/256 block cipher (FIPS-197), batched
//!   ([`aes::BlockCipher::encrypt_blocks`]) and constant-time on both of
//!   its backends: runtime-detected AES-NI on x86_64, and a bitsliced
//!   Boyar–Peralta software core everywhere else (no secret-indexed table
//!   lookup survives anywhere in this crate's AES path). Pinned to the
//!   FIPS-197 / SP 800-38A vectors in tests, through the multi-block lanes.
//! * [`ctr`] — AES counter mode (SP 800-38A), used for EphID encryption.
//! * [`cbcmac`] — fixed-input-length CBC-MAC, used for the 4-byte EphID tag
//!   (secure only for fixed-length inputs; the API enforces one block).
//! * [`cmac`] — AES-CMAC (RFC 4493) for variable-length per-packet MACs.
//! * [`gcm`] — AES-GCM (SP 800-38D), the CCA-secure payload scheme: one
//!   pass, in place, GHASH on `pclmulqdq` where detected and on a portable
//!   constant-time carry-less multiply everywhere else.
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4).
//! * [`hmac`] / [`hkdf`] — RFC 2104 / RFC 5869 key derivation.
//! * `x25519` (module) — RFC 7748 Diffie-Hellman over Curve25519.
//! * [`ed25519`] — RFC 8032 signatures (certificates, shutoff requests).
//! * [`ct`] — constant-time comparison and selection helpers.
//! * [`hex`] — hex codec used by tests, examples, and diagnostics.
//!
//! ## Security posture
//!
//! This is a research reproduction: the implementations favor clarity and
//! auditability. AES is constant-time on both backends (bitsliced circuit
//! or AES-NI — no secret-dependent table index or branch); scalar
//! multiplication uses masked constant-time selects but no further
//! side-channel hardening. Do not reuse outside simulation.
//!
//! `unsafe` is denied crate-wide and allowed in exactly two modules, both
//! `core::arch` intrinsics behind runtime feature detection: the AES-NI
//! cipher backend and the `pclmulqdq` GHASH kernel.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod aes_ni;
mod aes_soft;
pub mod cbcmac;
pub mod cmac;
pub mod ct;
pub mod ctr;
pub mod ed25519;
pub mod gcm;
mod ghash;
#[cfg(target_arch = "x86_64")]
mod ghash_clmul;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod sha2;
pub mod x25519;

mod field25519;
mod scalar25519;

pub use aes::{Aes128, Aes192, Aes256, BlockCipher, BLOCK_LEN, PARALLEL_BLOCKS};
pub use ed25519::{Signature, SigningKey, VerifyingKey};
pub use gcm::AesGcm128;
pub use x25519::{x25519, PublicKey, SharedSecret, StaticSecret, X25519_BASEPOINT};

/// Error type shared by all primitives in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// An authentication tag or signature failed to verify.
    VerificationFailed,
    /// An encoded public key, point, or scalar was malformed or non-canonical.
    InvalidEncoding,
    /// An input had a length the primitive cannot accept.
    InvalidLength,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::InvalidEncoding => write!(f, "invalid encoding"),
            CryptoError::InvalidLength => write!(f, "invalid input length"),
        }
    }
}

impl std::error::Error for CryptoError {}
