//! # moat-workloads — Table-4-calibrated synthetic workloads
//!
//! The paper evaluates MOAT on SPEC-2017 and GAP traces. Real traces are
//! not redistributable, so this crate synthesizes activation streams that
//! reproduce the statistics MOAT's behaviour actually depends on — the
//! per-bank-per-tREFW row-activation histogram and activation rate that
//! the paper reports for every workload in Table 4. Those two statistics
//! are what the synthetic streams reproduce in place of the real traces.
//!
//! ```
//! use moat_workloads::{WorkloadProfile, PROFILES};
//!
//! let roms = WorkloadProfile::by_name("roms").unwrap();
//! assert_eq!(roms.act128, 431); // hottest SPEC workload by 128+ rows
//! assert_eq!(PROFILES.len(), 21);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generator;
mod profiles;
mod trace;

pub use generator::{GeneratorConfig, HistogramCheck, WorkloadStream, GENERATOR_VERSION};
pub use profiles::{Suite, WorkloadProfile, PROFILES};
pub use trace::{binary_to_text, read_trace, text_to_binary, trace_key, write_trace};
