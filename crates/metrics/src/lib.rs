//! Measurement substrate for the experiments: system-state classification
//! (σ, Table 2's precedence over the verdicts of the one post-run analysis
//! pass), log-log complexity fitting for Table 3, and ASCII table
//! rendering for every regenerated paper artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fit;
mod state;
mod table;

pub use fit::{fit_power_law, PowerLawFit};
pub use state::{classify, StateObservation};
pub use table::AsciiTable;
