//! One timed repetition's cells, run through the workspace's sweep
//! harness (`moat_bench::try_run_cells`, the crash-isolated core of
//! `run_cells`) or — for the thread-count digest check — serially on
//! the calling thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use moat_bench::{try_run_cells, CellOutcome};

use crate::check::Fnv;
use crate::spans::Tracer;

/// Worker threads a repetition uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// The harness's pool (`nproc` workers).
    Harness,
    /// One thread, in input order.
    Serial,
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep<O> {
    /// Each cell's simulated output (`None` if the cell failed).
    pub outs: Vec<Option<O>>,
    /// Each cell's host seconds.
    pub cell_secs: Vec<f64>,
    /// Host wall seconds of the whole repetition.
    pub wall: f64,
    /// Simulated ACTs across all cells.
    pub acts: u64,
    /// Worker threads used.
    pub threads: usize,
}

impl<O> Rep<O> {
    /// Cells that failed.
    pub fn failed(&self) -> usize {
        self.outs.iter().filter(|o| o.is_none()).count()
    }

    /// Digest of every cell's output, in cell order; a failed cell folds
    /// in a marker no output digest produces.
    pub fn digest(&self, fold: impl Fn(&O, &mut Fnv)) -> u64 {
        let mut h = Fnv::default();
        for out in &self.outs {
            match out {
                Some(o) => fold(o, &mut h),
                None => {
                    h.bytes(b"failed-cell");
                }
            }
        }
        h.finish()
    }
}

/// Runs `cells` through `f` (which returns the cell's output and its
/// simulated ACT count). Each cell runs inside a `bench.cell` span with
/// its 1-based index as the cell id, parented to this call's
/// `bench.run_cells` span.
pub fn run<C, O, F>(tr: &Tracer, cells: Vec<C>, threads: Threads, f: F) -> Rep<O>
where
    C: Send + Clone,
    O: Send,
    F: Fn(C) -> (O, u64) + Sync,
{
    tr.span("bench.run_cells", || {
        let parent = tr.current();
        let indexed: Vec<(u32, C)> = (1..).zip(cells).collect();
        let cell = |(id, c): (u32, C)| tr.span_under(parent, "bench.cell", id, || f(c));
        match threads {
            Threads::Harness => {
                let (outcomes, stats) = try_run_cells(indexed, cell);
                let mut outs = Vec::with_capacity(outcomes.len());
                let mut cell_secs = Vec::with_capacity(outcomes.len());
                for (outcome, secs) in outcomes {
                    cell_secs.push(secs);
                    outs.push(match outcome {
                        CellOutcome::Ok { result, .. } => Some(result),
                        CellOutcome::Failed { .. } => None,
                    });
                }
                Rep {
                    outs,
                    cell_secs,
                    wall: stats.wall_seconds,
                    acts: stats.total_acts,
                    threads: stats.threads,
                }
            }
            Threads::Serial => {
                let start = Instant::now();
                let mut rep = Rep {
                    outs: Vec::new(),
                    cell_secs: Vec::new(),
                    wall: 0.0,
                    acts: 0,
                    threads: 1,
                };
                for item in indexed {
                    let cell_start = Instant::now();
                    match catch_unwind(AssertUnwindSafe(|| cell(item))) {
                        Ok((out, acts)) => {
                            rep.outs.push(Some(out));
                            rep.acts += acts;
                        }
                        Err(_) => rep.outs.push(None),
                    }
                    rep.cell_secs.push(cell_start.elapsed().as_secs_f64());
                }
                rep.wall = start.elapsed().as_secs_f64();
                rep
            }
        }
    })
}

/// Rounds of a [`paired_overhead`] probe.
const PAIRED_ROUNDS: usize = 3;

/// Host-time overhead of one variant of every item over another: each
/// round runs `run(item, false)` and `run(item, true)` for every item,
/// alternating which goes first, and the result is the median over
/// rounds of Σ`true` / Σ`false` − 1, in percent — plus whether every
/// item's two outputs were identical.
pub fn paired_overhead<T, R: PartialEq>(items: &[T], run: impl Fn(&T, bool) -> R) -> (f64, bool) {
    let mut ratios = Vec::with_capacity(PAIRED_ROUNDS);
    let mut identical = true;
    for round in 0..PAIRED_ROUNDS {
        let mut secs = [0.0; 2];
        for (i, item) in items.iter().enumerate() {
            let mut outs = [None, None];
            let first = (round + i) % 2;
            for side in [first, 1 - first] {
                let start = Instant::now();
                outs[side] = Some(run(item, side == 1));
                secs[side] += start.elapsed().as_secs_f64();
            }
            identical &= outs[0] == outs[1];
        }
        ratios.push(secs[1] / secs[0] - 1.0);
    }
    (100.0 * crate::stats::median(&ratios), identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_overhead_alternates_and_compares_outputs() {
        let calls = std::cell::RefCell::new(Vec::new());
        let (_, same) = paired_overhead(&[1u32, 2], |&x, armed| {
            calls.borrow_mut().push((x, armed));
            x
        });
        assert!(same);
        let calls = calls.into_inner();
        assert_eq!(calls.len(), 2 * 2 * PAIRED_ROUNDS);
        assert_eq!(&calls[..4], &[(1, false), (1, true), (2, true), (2, false)]);
        let (_, same) = paired_overhead(&[1u32], |&x, armed| x + u32::from(armed));
        assert!(!same);
    }

    #[test]
    fn harness_and_serial_agree_and_failures_count() {
        let tr = Tracer::off();
        let f = |x: u64| {
            assert!(x != 3, "cell 3 crashes");
            (x * x, x)
        };
        let a = run(&tr, vec![1u64, 2, 3, 4], Threads::Harness, f);
        let b = run(&tr, vec![1u64, 2, 3, 4], Threads::Serial, f);
        assert_eq!(a.outs, vec![Some(1), Some(4), None, Some(16)]);
        assert_eq!(a.outs, b.outs);
        assert_eq!(a.failed(), 1);
        assert_eq!(a.acts, 7);
        assert_eq!(b.acts, 7);
        let fold = |o: &u64, h: &mut Fnv| {
            h.u64(*o);
        };
        assert_eq!(a.digest(fold), b.digest(fold));
    }

    #[test]
    fn traced_cells_carry_ids_and_parent() {
        let tr = Tracer::on();
        run(&tr, vec![5u64, 6], Threads::Harness, |x| (x, x));
        let spans = tr.spans();
        let root = spans.iter().find(|s| s.layer == "bench.run_cells").unwrap();
        let mut cells: Vec<_> = spans.iter().filter(|s| s.layer == "bench.cell").collect();
        cells.sort_by_key(|s| s.cell);
        assert_eq!(cells.len(), 2);
        assert_eq!((cells[0].cell, cells[1].cell), (1, 2));
        assert!(cells.iter().all(|s| s.parent == root.id));
    }
}
