//! Adversarial strategies for the rational threat model `RFT(t, k)`.
//!
//! Each strategy from the paper's strategy space is a [`prft_core::Behavior`]
//! implementation. A strategy answers one question per decision point:
//! `on_propose` when it leads a round (honest, equivocate or silent) and
//! `on_ballot(phase, round, value)` for each vote, commit, reveal and final
//! ballot it is about to sign (honest, replace, split or silent), plus
//! whether to expose fraud and whether to join view changes:
//!
//! * [`Abstain`] — `π_abs`: send nothing; indistinguishable from a crash
//!   (the θ=3 liveness attack of Theorem 1);
//! * [`PartialCensor`] — `π_pc`: abstain under honest leaders, censor under
//!   collusion leaders (the θ=2 censorship attack of Theorem 2);
//! * [`ForkColluder`] / [`EquivocatingLeader`] — `π_ds`/`π_fork`: the
//!   coordinated double-signing that seeds a disagreement (the θ=1 attack
//!   that pRFT's accountability defeats, Lemma 4);
//! * [`GarbageVoter`], [`DoubleVoter`] — unconditional byzantine noise.
//!
//! Collusion coordination happens through a shared [`Blackboard`] — the
//! paper allows arbitrary coordination inside `K ∪ T`, and in a
//! single-threaded deterministic simulation a shared blackboard is exactly
//! the "instantaneous secret channel" the adversary gets for free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abstain;
mod byzantine;
mod censor;
mod fork;

pub use abstain::Abstain;
pub use byzantine::{DoubleVoter, GarbageVoter, SilentLeader};
pub use censor::PartialCensor;
pub use fork::{blackboard, Blackboard, EquivocatingLeader, ForkColluder, ForkPlan};
