//! The batched generator front-end is an optimization, not a semantic
//! change: `WorkloadStream::next_chunk` must emit exactly the request
//! sequence repeated `next_request` calls produce, for any chunk
//! capacity.

use moat_dram::DramConfig;
use moat_sim::{Request, RequestStream};
use moat_workloads::{GeneratorConfig, WorkloadStream, PROFILES};
use proptest::prelude::*;

fn drain_per_request(mut s: WorkloadStream) -> (Vec<Request>, u64) {
    let mut out = Vec::new();
    while let Some(r) = s.next_request() {
        out.push(r);
    }
    (out, s.emitted())
}

fn drain_batched(mut s: WorkloadStream, cap: usize) -> (Vec<Request>, u64) {
    let mut out = Vec::new();
    let mut buf = Vec::with_capacity(cap);
    while s.next_chunk(&mut buf) > 0 {
        out.extend_from_slice(&buf);
    }
    (out, s.emitted())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random profiles, seeds, bank counts, window counts, and chunk
    /// capacities the batched stream yields the exact same `Request`
    /// sequence (and emission count) as the per-request pull loop. Two
    /// windows queue second-window campaigns before the first emits.
    #[test]
    fn batched_stream_equals_per_request(
        profile_idx in 0usize..PROFILES.len(),
        seed in 0u64..1_000,
        banks in 1u16..3,
        windows in 1u32..3,
        cap in 1usize..300,
    ) {
        let profile = &PROFILES[profile_idx];
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig { banks, windows, seed };
        let (reference, ref_emitted) =
            drain_per_request(WorkloadStream::new(profile, &dram, cfg));
        let (batched, batched_emitted) =
            drain_batched(WorkloadStream::new(profile, &dram, cfg), cap);
        prop_assert_eq!(ref_emitted, batched_emitted);
        prop_assert!(!reference.is_empty());
        prop_assert_eq!(reference, batched);
    }

    /// Mixing the two pull styles mid-stream also cannot change the
    /// sequence: a chunk picks up exactly where single pulls left off.
    #[test]
    fn interleaved_pulls_preserve_the_sequence(
        profile_idx in 0usize..PROFILES.len(),
        singles in 1usize..50,
        cap in 1usize..100,
    ) {
        let profile = &PROFILES[profile_idx];
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig { banks: 1, windows: 1, seed: 11 };
        let (reference, _) = drain_per_request(WorkloadStream::new(profile, &dram, cfg));

        let mut mixed = Vec::new();
        let mut s = WorkloadStream::new(profile, &dram, cfg);
        for _ in 0..singles {
            if let Some(r) = s.next_request() {
                mixed.push(r);
            }
        }
        let mut buf = Vec::with_capacity(cap);
        prop_assert!(s.next_chunk(&mut buf) > 0);
        mixed.extend_from_slice(&buf);
        prop_assert_eq!(&reference[..mixed.len()], &mixed[..]);
    }
}
