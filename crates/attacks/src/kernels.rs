//! Basic performance-attack kernels (§7.2, Fig. 13) as request streams for
//! the performance simulator.
//!
//! Each kernel exists in two forms: a *streaming* form
//! ([`single_row_stream`], [`multi_row_stream`], [`sync_multibank_stream`])
//! that implements [`RequestStream`] with an O(1)-state chunked fill —
//! the pattern is regenerated into the simulator's reusable batch buffer
//! instead of being materialized up front — and a `Vec`-returning form
//! kept for call sites that want to inspect or splice the pattern. Both
//! forms emit identical sequences.

use std::borrow::Cow;

use moat_dram::{BankId, Nanos, RowId};
use moat_sim::{Request, RequestStream, ScriptedAttacker, DEFAULT_CHUNK};

/// Streaming attack kernel: a repeating (bank, row) pattern emitted
/// gap-free for a fixed number of requests.
///
/// The pattern state is three words, so cloning and restarting the
/// stream is free — and `next_chunk` fills the batch buffer in one pass
/// with the pattern dispatch hoisted out of the per-request path.
#[derive(Debug, Clone)]
pub struct KernelStream {
    /// The repeating pattern, pre-resolved to typed ids.
    pattern: Vec<(BankId, RowId)>,
    /// Position within the pattern.
    pos: usize,
    /// Requests still to emit.
    remaining: u64,
}

impl KernelStream {
    fn new(pattern: Vec<(BankId, RowId)>, total: u64) -> Self {
        assert!(!pattern.is_empty(), "need a non-empty pattern");
        KernelStream {
            pattern,
            pos: 0,
            remaining: total,
        }
    }

    /// Requests still to be emitted.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Materializes the rest of the stream (the `Vec`-kernel forms).
    pub fn into_vec(mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
        while self.next_chunk(&mut chunk) > 0 {
            out.extend_from_slice(&chunk);
        }
        out
    }
}

impl RequestStream for KernelStream {
    fn next_request(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        let (bank, row) = self.pattern[self.pos];
        self.pos += 1;
        if self.pos == self.pattern.len() {
            self.pos = 0;
        }
        self.remaining -= 1;
        Some(Request {
            gap: Nanos::ZERO,
            bank,
            row,
        })
    }

    /// Chunked fill: one bounds check and one pattern-length wrap per
    /// request, no per-request dispatch.
    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(DEFAULT_CHUNK);
        }
        let n = (buf.capacity() as u64).min(self.remaining) as usize;
        let pattern = &self.pattern;
        let mut pos = self.pos;
        for _ in 0..n {
            let (bank, row) = pattern[pos];
            pos += 1;
            if pos == pattern.len() {
                pos = 0;
            }
            buf.push(Request {
                gap: Nanos::ZERO,
                bank,
                row,
            });
        }
        self.pos = pos;
        self.remaining -= n as u64;
        n
    }
}

/// A kernel is also a script for the security simulator's event-horizon
/// loop
/// ([`SecuritySim::run_semi_scripted`](moat_sim::SecuritySim::run_semi_scripted)):
/// the pattern's rows are handed out run-by-run. The security simulator
/// models a single bank, so the pattern's bank ids are ignored here — a
/// multi-bank kernel collapses onto the one bank under attack.
impl ScriptedAttacker for KernelStream {
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
        let n = (max as u64).min(self.remaining) as usize;
        let pattern = &self.pattern;
        let mut pos = self.pos;
        for _ in 0..n {
            let (_bank, row) = pattern[pos];
            pos += 1;
            if pos == pattern.len() {
                pos = 0;
            }
            buf.push(row);
        }
        self.pos = pos;
        self.remaining -= n as u64;
        n
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("kernel")
    }
}

/// Streaming form of [`single_row_kernel`]: `(A)^n` on one bank.
pub fn single_row_stream(n: u32, bank: u16, row: u32) -> KernelStream {
    KernelStream::new(vec![(BankId::new(bank), RowId::new(row))], u64::from(n))
}

/// Streaming form of [`multi_row_kernel`]: `n` full `(ABCDE...)` cycles
/// on one bank.
pub fn multi_row_stream(n: u32, bank: u16, rows: &[u32]) -> KernelStream {
    assert!(!rows.is_empty(), "need at least one row");
    let pattern = rows
        .iter()
        .map(|&r| (BankId::new(bank), RowId::new(r)))
        .collect();
    KernelStream::new(pattern, u64::from(n) * rows.len() as u64)
}

/// Streaming form of [`synchronized_multibank`]: `n` rounds of every bank
/// hammering the row set in lockstep.
pub fn sync_multibank_stream(n: u32, banks: u16, rows: &[u32]) -> KernelStream {
    assert!(banks > 0 && !rows.is_empty(), "need banks and rows");
    let mut pattern = Vec::with_capacity(rows.len() * banks as usize);
    for &row in rows {
        for b in 0..banks {
            pattern.push((BankId::new(b), RowId::new(row)));
        }
    }
    let total = u64::from(n) * pattern.len() as u64;
    KernelStream::new(pattern, total)
}

/// Fig. 13(a): continuously activate a single row of a single bank,
/// `(A)^n`. With ATH = 64, every ~65th activation triggers an ALERT,
/// costing ~10% throughput.
pub fn single_row_kernel(n: u32, bank: u16, row: u32) -> Vec<Request> {
    single_row_stream(n, bank, row).into_vec()
}

/// Fig. 13(b): cycle over `rows` of one bank, `(ABCDE...)^n` — `n` full
/// cycles. Each row alerts independently; throughput loss matches the
/// single-row case.
pub fn multi_row_kernel(n: u32, bank: u16, rows: &[u32]) -> Vec<Request> {
    multi_row_stream(n, bank, rows).into_vec()
}

/// §7.2: the synchronized multi-bank pattern — every bank hammers its own
/// row set simultaneously (interleaved round-robin across banks). Each
/// ALERT mitigates one row from *each* bank, so the loss stays at the
/// single-bank level (~10%).
pub fn synchronized_multibank(n: u32, banks: u16, rows: &[u32]) -> Vec<Request> {
    sync_multibank_stream(n, banks, rows).into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_dram::{AboLevel, DramConfig, MitigationEngine};
    use moat_sim::{PerfConfig, PerfSim, SlotBudget};

    fn cfg(banks: u16, alerts: bool) -> PerfConfig {
        PerfConfig {
            dram: DramConfig::builder().rows_per_bank(65536).build(),
            banks,
            abo_level: AboLevel::L1,
            budget: SlotBudget::paper_default(),
            alerts_enabled: alerts,
        }
    }

    fn moat() -> Box<dyn MitigationEngine> {
        Box::new(MoatEngine::new(MoatConfig::paper_default()))
    }

    fn loss(stream: &[Request], banks: u16) -> f64 {
        let with = PerfSim::new(cfg(banks, true), moat).run(stream.iter().copied());
        let base = PerfSim::new(cfg(banks, false), moat).run(stream.iter().copied());
        with.slowdown_vs(&base)
    }

    #[test]
    fn streaming_and_vec_kernels_emit_identical_sequences() {
        use moat_sim::RequestStream;
        let rows = [10u32, 20, 30];
        let cases: [(KernelStream, Vec<Request>); 3] = [
            (single_row_stream(100, 1, 7), single_row_kernel(100, 1, 7)),
            (
                multi_row_stream(40, 0, &rows),
                multi_row_kernel(40, 0, &rows),
            ),
            (
                sync_multibank_stream(10, 3, &rows),
                synchronized_multibank(10, 3, &rows),
            ),
        ];
        for (mut stream, vec_form) in cases {
            assert_eq!(stream.remaining() as usize, vec_form.len());
            // Drain via single pulls and odd-sized chunks interleaved.
            let mut got = Vec::new();
            let mut buf = Vec::with_capacity(17);
            loop {
                if let Some(r) = stream.next_request() {
                    got.push(r);
                }
                let n = stream.next_chunk(&mut buf);
                got.extend_from_slice(&buf);
                if n == 0 && stream.remaining() == 0 {
                    break;
                }
            }
            assert_eq!(got, vec_form);
        }
    }

    #[test]
    fn kernel_scripts_run_batched_like_per_step() {
        // A kernel driven through the event-horizon security loop is
        // bit-identical to the same kernel stepped per-slot through the
        // adaptive reference — the multi-row Fig. 13(b) shape, which
        // exercises REF straddles, ALERT episodes, and script exhaustion.
        use moat_dram::Nanos;
        use moat_sim::{Scripted, SecurityConfig, SecuritySim};
        let mk = || {
            SecuritySim::new(
                SecurityConfig::paper_default(),
                MoatEngine::new(MoatConfig::paper_default()),
            )
        };
        let rows = [30_000u32, 30_006, 30_012];
        let script = || multi_row_stream(4_000, 0, &rows);
        let expect = mk().run(&mut Scripted::new(script()), Nanos::from_millis(2));
        let got = mk().run_semi_scripted(&mut script(), Nanos::from_millis(2));
        assert_eq!(got, expect);
        assert!(expect.alerts > 0, "must exercise episodes");
    }

    #[test]
    fn single_row_kernel_loses_about_ten_percent() {
        // Fig. 13(a): 69 ACTs per 76 units ≈ 10% loss.
        let stream = single_row_kernel(20_000, 0, 30_000);
        let l = loss(&stream, 1);
        assert!((0.05..0.20).contains(&l), "loss {l}");
    }

    #[test]
    fn multi_row_kernel_matches_single_row() {
        let single = loss(&single_row_kernel(20_000, 0, 30_000), 1);
        let multi = loss(
            &multi_row_kernel(4_000, 0, &[30_000, 30_006, 30_012, 30_018, 30_024]),
            1,
        );
        assert!(
            (multi - single).abs() < 0.06,
            "single {single} vs multi {multi}"
        );
    }

    #[test]
    fn synchronized_multibank_is_no_worse_than_single_bank() {
        // §7.2: each ALERT mitigates one row per bank, so synchronized
        // multi-bank attacks gain nothing.
        let single = loss(&single_row_kernel(8_000, 0, 30_000), 1);
        let multi = loss(
            &synchronized_multibank(1_600, 4, &[30_000, 30_006, 30_012, 30_018, 30_024]),
            4,
        );
        assert!(
            multi <= single + 0.08,
            "synchronized {multi} should not exceed single-bank {single} by much"
        );
    }
}
