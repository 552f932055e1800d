//! # moat-trace — the mmap-backed binary trace store
//!
//! Trace-driven evaluation is the standard methodology for Rowhammer
//! trackers (ABACuS and CoMeT both replay recorded activation traces),
//! and MOAT's sweep experiments (Fig. 11, Tables 5–7, Fig. 17) re-run
//! identical request streams across dozens of configuration cells. This
//! crate records those streams **once** into a compact binary format and
//! replays them **zero-copy** out of a memory map forever after:
//!
//! * [`format`](mod@format) — trace format v2: a 48-byte header (magic, version,
//!   config/seed fingerprint, record count, checksum) plus 16-byte
//!   fixed-width records, with the streaming [`TraceWriter`].
//! * [`reader`] — the validated [`TraceFile`] (mmap-backed) and its
//!   [`TraceReplay`] cursor, a
//!   [`RequestStream`](moat_sim::RequestStream) whose `next_chunk`
//!   decodes records straight out of the mapped file — no per-request
//!   heap traffic.
//! * [`cache`] — the content-addressed [`TraceCache`]: entries are keyed
//!   by a fingerprint of everything the stream depends on, so a hit
//!   replays flat bytes and a miss records while generating.
//!
//! ```
//! use moat_dram::{BankId, Nanos, RowId};
//! use moat_sim::{Request, RequestStream};
//! use moat_trace::{TraceCache, TraceKey};
//!
//! let dir = std::env::temp_dir().join(format!("moat-trace-doc-{}", std::process::id()));
//! let cache = TraceCache::open(&dir)?;
//! let key = TraceKey::new("doctest", 0xD0C);
//! // Miss: generates once, spilling to disk. Hit: replays the map.
//! let trace = cache.open_or_record(&key, || {
//!     (0..100u32).map(|i| Request {
//!         gap: Nanos::new(52),
//!         bank: BankId::new(0),
//!         row: RowId::new(i),
//!     })
//! })?;
//! let mut replay = trace.replay();
//! assert_eq!(replay.next_request().unwrap().row, RowId::new(0));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod failpoint;
pub mod format;
mod mmap;
pub mod reader;

pub use cache::{TraceCache, TraceKey};
pub use format::{
    decode_record, encode_record, record_stream, Fingerprint, TraceHeader, TraceWriter,
    HEADER_BYTES, MAGIC, RECORD_BYTES, VERSION,
};
pub use mmap::Mmap;
pub use reader::{TraceFile, TraceInfo, TraceReplay};
