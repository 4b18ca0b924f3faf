//! Simulated PKI substrate for the pRFT reproduction.
//!
//! The paper assumes unforgeable digital signatures under a trusted
//! broadcast-type setup (Section 3.3). We reproduce that with:
//!
//! * a from-scratch [`Sha256`] implementation (validated against FIPS 180-4
//!   test vectors) producing [`prft_types::Digest`]s;
//! * ideal signatures, not MACs: a [`SecretKey`] tags a digest as
//!   `digest ⊕ seed[signer]`, and the [`KeyRegistry`] (the trusted setup)
//!   derives that tag again to verify it. Unforgeability holds *by API
//!   construction* — only the holder of a `SecretKey` can produce a valid
//!   [`Signature`] for its identity, as forgery is negligible for PPTM
//!   adversaries in the paper — and the tag stays keyed (`keys.rs` says
//!   why both matter);
//! * generic [`Signed`] payloads with domain separation and per-slot
//!   (round, phase) binding, and [`ConflictEvidence`] — the double-signature
//!   evidence from which Proof-of-Fraud is assembled (paper, Section 5.3.1).
//!
//! # Example
//!
//! ```
//! use prft_crypto::{KeyRegistry, Signable, Signed, Slot};
//! use prft_types::{Encoder, NodeId};
//!
//! #[derive(Clone, PartialEq, Eq, Debug)]
//! struct Ballot { round: u64, choice: u8 }
//! impl Signable for Ballot {
//!     fn domain(&self) -> &'static str { "Ballot" }
//!     fn slot(&self) -> Slot { Slot { round: self.round, phase: 0 } }
//!     fn signable_bytes(&self) -> Vec<u8> {
//!         let mut e = Encoder::new();
//!         e.u64(self.round).u8(self.choice);
//!         e.into_bytes()
//!     }
//! }
//!
//! let (registry, mut keys) = KeyRegistry::trusted_setup(4, 42);
//! let key = keys.remove(0);
//! let signed = Signed::sign(Ballot { round: 1, choice: 7 }, &key);
//! assert!(signed.verify(&registry));
//! assert_eq!(signed.signer(), NodeId(0));
//! ```

// `deny`, not `forbid`: `sha256.rs` allows exactly one `unsafe` block, the
// call into its `#[target_feature]` round function behind the CPU feature
// test. Every other crate of the workspace forbids it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod evidence;
mod keys;
mod mode;
mod sha256;
mod signed;

pub use evidence::{pof_wire_bytes, verify_pof, ConflictEvidence};
pub use keys::{KeyRegistry, SecretKey, Signature, KAPPA};
pub use mode::VerifyMode;
pub use sha256::Sha256;
pub use signed::{Signable, Signed, Slot};
