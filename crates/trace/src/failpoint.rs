//! Deterministic I/O failpoints for chaos-testing the trace store.
//!
//! The trace cache's promise is *graceful degradation*: any disk failure
//! — a full volume at record time, an `mmap` that cannot be established
//! at replay time, a short read of a truncated file — must surface as an
//! `io::Error` the callers already handle by falling back to live stream
//! generation, never as a panic. This module makes those failures
//! reproducible: each failpoint site counts its calls and starts failing
//! after a configured number of successes.
//!
//! Disarmed (the default), every check is a single relaxed atomic load —
//! recording and replay pay nothing. Tests arm them with [`arm`] (e.g.
//! `fail_mmaps_after: Some(2)`: mmaps fail from the third call) and
//! disarm them with [`disarm`].
//!
//! Injected errors are shaped like the real thing: writes fail with
//! `ENOSPC`, reads with `UnexpectedEof` (a short read), mmaps with a
//! generic OS-style error — so callers exercise the exact match arms a
//! production failure would.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Which I/O operations fail, after how many successes. `None` leaves an
/// operation untouched; `Some(n)` lets the first `n` calls through and
/// fails every call after that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultConfig {
    /// Trace-record writes (`TraceWriter::push`/`finish`) fail with
    /// `ENOSPC` after this many successes.
    pub fail_writes_after: Option<u64>,
    /// Memory maps fail after this many successes.
    pub fail_mmaps_after: Option<u64>,
    /// Header reads fail with `UnexpectedEof` (a short read) after this
    /// many successes.
    pub fail_reads_after: Option<u64>,
}

/// Mutable failpoint state: the armed config plus per-site call counts.
#[derive(Debug, Default)]
struct State {
    config: IoFaultConfig,
    writes: u64,
    mmaps: u64,
    reads: u64,
    injected: u64,
}

/// Fast disarmed-path guard: a relaxed load is all a check costs until
/// someone arms the failpoints.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    config: IoFaultConfig {
        fail_writes_after: None,
        fail_mmaps_after: None,
        fail_reads_after: None,
    },
    writes: 0,
    mmaps: 0,
    reads: 0,
    injected: 0,
});

/// Arms the failpoints with `config`, resetting all call counts.
pub fn arm(config: IoFaultConfig) {
    let mut state = STATE.lock().unwrap();
    *state = State {
        config,
        ..State::default()
    };
    ARMED.store(config != IoFaultConfig::default(), Ordering::SeqCst);
}

/// Disarms all failpoints.
pub fn disarm() {
    arm(IoFaultConfig::default());
}

/// How many errors have been injected since the last [`arm`].
pub fn injected() -> u64 {
    STATE.lock().unwrap().injected
}

/// Consults one failpoint site: counts the call and decides failure.
fn check(
    site: fn(&mut State) -> (&mut u64, Option<u64>),
    error: fn() -> io::Error,
) -> io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut state = STATE.lock().unwrap();
    let (calls, limit) = site(&mut state);
    let Some(after) = limit else { return Ok(()) };
    *calls += 1;
    if *calls > after {
        state.injected += 1;
        return Err(error());
    }
    Ok(())
}

/// ENOSPC for the trace-record write path.
pub(crate) fn check_write() -> io::Result<()> {
    check(
        |s| {
            let limit = s.config.fail_writes_after;
            (&mut s.writes, limit)
        },
        || io::Error::from_raw_os_error(28), // ENOSPC
    )
}

/// Failure to establish a memory map.
pub(crate) fn check_mmap() -> io::Result<()> {
    check(
        |s| {
            let limit = s.config.fail_mmaps_after;
            (&mut s.mmaps, limit)
        },
        || io::Error::other("injected mmap failure"),
    )
}

/// A short read of the trace header.
pub(crate) fn check_read() -> io::Result<()> {
    check(
        |s| {
            let limit = s.config.fail_reads_after;
            (&mut s.reads, limit)
        },
        || io::Error::new(io::ErrorKind::UnexpectedEof, "injected short read"),
    )
}
