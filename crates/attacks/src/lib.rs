//! # moat-attacks — the paper's attack patterns
//!
//! Adaptive attackers (for the security simulator) and request-stream
//! builders (for the performance simulator) reproducing every attack in
//! the paper:
//!
//! * [`JailbreakAttacker`] / [`RandomizedJailbreak`] — breaking
//!   deterministic and randomized Panopticon (§3, Fig. 5).
//! * [`RatchetAttacker`] — exploiting inter-ALERT activations against
//!   MOAT (§5, Figs. 9–10, 15).
//! * [`FeintingAttacker`] — the bound on transparent per-row-counter
//!   schemes (§2.5, Table 2).
//! * [`PostponementAttacker`] — refresh postponement versus the
//!   drain-on-REF Panopticon variant (Appendix B, Fig. 16).
//! * [`StraddleAttacker`] — the reset-straddling pattern of Fig. 7(a)
//!   that unsafe counter reset is vulnerable to.
//! * [`BlacksmithAttacker`] — decoy-thrashing of low-cost SRAM trackers
//!   (the TRRespass/Blacksmith family that motivates PRAC, §1).
//! * [`single_row_stream`] / [`multi_row_stream`] /
//!   [`sync_multibank_stream`] — performance-attack kernels (Fig. 13).
//! * [`tsa_stream`] — the Torrent-of-Staggered-ALERT attack (§7.3,
//!   Fig. 12).
//!
//! ```
//! use moat_attacks::JailbreakAttacker;
//! use moat_dram::Nanos;
//! use moat_sim::{SecurityConfig, SecuritySim};
//! use moat_trackers::{PanopticonConfig, PanopticonEngine};
//!
//! let mut sim = SecuritySim::new(
//!     SecurityConfig::paper_default(),
//!     Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
//! );
//! let report = sim.run(&mut JailbreakAttacker::new(20_000), Nanos::from_millis(2));
//! assert!(report.max_pressure >= 1100); // 9× the design threshold of 128
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blacksmith;
mod feinting;
mod grant;
mod jailbreak;
mod kernels;
mod postponement;
mod ratchet;
mod straddle;
mod tsa;

pub use blacksmith::BlacksmithAttacker;
pub use feinting::FeintingAttacker;
pub use jailbreak::{JailbreakAttacker, RandomizedIteration, RandomizedJailbreak};
pub use kernels::{multi_row_stream, single_row_stream, sync_multibank_stream, KernelStream};
pub use postponement::PostponementAttacker;
pub use ratchet::RatchetAttacker;
pub use straddle::StraddleAttacker;
pub use tsa::tsa_stream;
