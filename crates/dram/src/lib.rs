//! # moat-dram — DDR5 + PRAC + ABO substrate
//!
//! The DRAM-side substrate for the MOAT reproduction: DDR5 timing
//! parameters per the revised JESD79-5C specification, a functional bank
//! model with Per-Row Activation Counters (PRAC), the spatially contiguous
//! refresh engine, the ALERT Back-Off (ABO) protocol state machine, the
//! ground-truth Rowhammer security ledger, and the [`MitigationEngine`]
//! trait that mitigation designs (MOAT, Panopticon, ...) implement.
//!
//! ## Example: hammering a bank
//!
//! ```
//! use moat_dram::{Bank, DramConfig, Nanos, RowId, SecurityLedger};
//!
//! let cfg = DramConfig::builder().rows_per_bank(1024).build();
//! let mut bank = Bank::new(&cfg);
//! let mut ledger = SecurityLedger::new(&cfg);
//! let mut now = Nanos::ZERO;
//! for _ in 0..100 {
//!     bank.activate(RowId::new(10), now)?;
//!     ledger.on_activate(RowId::new(10));
//!     now += cfg.timing.t_rc;
//! }
//! assert_eq!(bank.counter(RowId::new(10)).get(), 100);
//! assert_eq!(ledger.pressure(RowId::new(11)), 100);
//! # Ok::<(), moat_dram::DramError>(())
//! ```
//!
//! The companion crates build on this substrate: `moat-core` implements the
//! MOAT engine, `moat-trackers` the Panopticon baselines, and `moat-sim`
//! the security and performance simulators.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abo;
mod bank;
mod config;
pub mod env;
mod error;
pub mod hash;
mod hint;
mod ledger;
mod mitigation;
mod refresh;
pub mod testing;
mod timing;
mod types;

pub use abo::{AboLevel, AboPhase, AboProtocol};
pub use bank::Bank;
pub use config::{DramConfig, DramConfigBuilder, RefreshOrder};
pub use error::DramError;
pub use hint::prefetch_read;
pub use ledger::SecurityLedger;
pub use mitigation::{
    EngineFault, IntegrityReport, MitigationEngine, NullEngine, RefMitigationMode,
};
pub use refresh::{RefreshEngine, RefreshedGroup};
pub use timing::DramTiming;
pub use types::{ActCount, BankId, Nanos, RowId};
