//! Network models for the three synchrony flavours of the paper
//! (Section 3.3 / Appendix A.3), plus partitions and adversarial scheduling.
//!
//! All models implement [`prft_sim::LinkModel`] and compose by wrapping:
//!
//! * [`SynchronousNet`] — delay uniformly in `[1, Δ_sync]`, known bound;
//! * [`PartiallySynchronousNet`] — before GST the adversary controls delays
//!   (up to delivery by `GST + Δ`); after GST, bounded by `Δ`. Every message
//!   sent at `s` arrives by `max(s, GST) + Δ` — the Dwork-Lynch-Stockmeyer
//!   guarantee;
//! * [`AsynchronousNet`] — finite but unbounded delays (geometric tail);
//! * [`PartitionedNet`] — wraps another model and holds cross-partition
//!   traffic until the window closes (messages are *delayed*, never dropped:
//!   channels are reliable);
//! * [`TargetedDelay`] — an adversarial scheduler that slows selected
//!   sender/receiver pairs over fixed send-time windows (resolved at build
//!   time, never mutated mid-run), used to build the split-vote schedules
//!   in the impossibility experiments.
//!
//! # Example
//!
//! ```
//! use prft_net::{PartiallySynchronousNet, PartitionedNet, PartitionWindow};
//! use prft_sim::{LinkModel, SimRng, SimTime};
//! use prft_types::NodeId;
//!
//! let base = PartiallySynchronousNet::new(SimTime(1_000), SimTime(10));
//! let mut net = PartitionedNet::new(Box::new(base));
//! net.add_window(PartitionWindow::split(
//!     SimTime(0),
//!     SimTime(500),
//!     vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
//! ));
//! let mut rng = SimRng::new(1);
//! // Cross-partition message sent during the window is held past t=500.
//! let at = net.deliver_at(NodeId(0), NodeId(2), SimTime(100), &mut rng);
//! assert!(at >= SimTime(500));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod delay;
mod partition;

pub use adversarial::{DelayRule, TargetedDelay};
pub use delay::{AsynchronousNet, PartiallySynchronousNet, SynchronousNet};
pub use partition::{PartitionWindow, PartitionedNet};
