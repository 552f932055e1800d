//! Synthetic activation-stream generator calibrated to Table 4.
//!
//! The generator reproduces, per bank per tREFW, the row-activation
//! histogram the paper reports (rows with ≥32/≥64/≥128 activations) and an
//! overall activation rate derived from ACT-PKI under the paper's 8-core
//! 4 GHz rate-mode configuration. Each hot row's activations are emitted
//! as a *burst* over a random sub-window, which reproduces the temporal
//! clustering that makes proactive mitigation occasionally fall behind and
//! trigger ALERTs (§6.3).
//!
//! What the paper took from real SPEC/GAP traces, we synthesize — the
//! histogram plus the rate are precisely the statistics MOAT's behaviour
//! depends on (see the crate docs).

use moat_dram::{BankId, DramConfig, Nanos, RowId};
use moat_sim::{Request, RequestStream, DEFAULT_CHUNK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profiles::WorkloadProfile;

/// Version of the stream-generation algorithm. Folded into every trace
/// cache key (see [`crate::trace_key`]): recorded traces are replayed as
/// stand-ins for fresh generation, so **bump this whenever a change to
/// this module alters the emitted sequence** — otherwise warm caches
/// (developer checkouts, the persisted CI cache) would silently replay
/// the pre-change streams. The unit test
/// `emitted_streams_match_pinned_digests` pins digests of a few emitted
/// streams to this version, among them a 32-bank stream whose
/// same-nanosecond ties across banks fall to the planning index; an
/// ignored test, run in release by CI, pins the paper-scale cactuBSSN
/// stream. A change that keeps them green (the two-stage emission queue,
/// say) keeps the version; one that breaks them bumps the version and the
/// digests together.
pub const GENERATOR_VERSION: u32 = 1;

/// Aggregate instruction rate of the paper's 8-core 4 GHz system at an
/// assumed IPC of 1 (instructions per second).
const INSTR_PER_SEC: f64 = 8.0 * 4.0e9;

/// Total banks in the paper's system (32 banks × 2 sub-channels).
const TOTAL_BANKS: f64 = 64.0;

/// Fraction of peak bank throughput the generator will not exceed.
const MAX_BANK_UTILIZATION: f64 = 0.75;

/// Configuration of the synthetic stream.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Banks to generate traffic for (the sub-channel under simulation).
    pub banks: u16,
    /// Number of tREFW windows to cover.
    pub windows: u32,
    /// RNG seed (streams are fully reproducible).
    pub seed: u64,
}

impl GeneratorConfig {
    /// A scaled-down default: 8 banks, one refresh window.
    pub fn scaled() -> Self {
        GeneratorConfig {
            banks: 8,
            windows: 1,
            seed: 0xA0A7,
        }
    }

    /// Paper-scale: 32 banks, two refresh windows.
    pub fn paper_scale() -> Self {
        GeneratorConfig {
            banks: 32,
            windows: 2,
            seed: 0xA0A7,
        }
    }
}

/// One scheduled burst of activations to a single row.
#[derive(Debug, Clone, Copy)]
struct Campaign {
    /// Time of the campaign's next activation.
    time: u64,
    /// Nanoseconds between consecutive activations of this campaign.
    interval: u64,
    /// Planning order: breaks ties between campaigns due at one instant.
    index: u32,
    row: u32,
    remaining: u32,
    bank: u16,
}

impl Campaign {
    /// The queue key: `time` above `index`, so keys order like
    /// `(time, index)` pairs.
    fn key(&self) -> u128 {
        u128::from(self.time) << 32 | u128::from(self.index)
    }
}

/// One bucket per bit of a 96-bit [`Campaign::key`], plus bucket 0 for
/// keys equal to the last one popped.
const BUCKETS: usize = 97;

/// The largest buffer, in campaigns (32 KiB), a drained bucket keeps for
/// reuse. Low buckets drain on nearly every pop and must not reallocate
/// each time; a high bucket drains rarely, and keeping its buffer would
/// hold memory the stream may never need again.
const KEPT_CAPACITY: usize = 1024;

/// A monotone radix heap of campaigns: the first stage of the
/// [`EmissionQueue`], which orders each campaign's *first* activation.
/// Planning pushes every campaign once and emission pops each once. It
/// pops in ascending `(time, index)` order — the order a
/// `BinaryHeap<Reverse<(time, index)>>` pops — as long as no push
/// precedes the last pop, which holds here: the heap receives no push
/// after its first pop.
///
/// Bucket `b > 0` holds the keys whose highest bit differing from the
/// last popped key is bit `b - 1`. A pop takes the minimum of the lowest
/// non-empty bucket and re-buckets the rest of it against that minimum,
/// which sends every one of them to a lower bucket. Each campaign carries
/// its own state, so emission touches no other array.
#[derive(Debug)]
struct CampaignQueue {
    buckets: [Vec<Campaign>; BUCKETS],
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u128,
    /// The last popped key (0 before the first pop).
    last: u128,
}

impl Default for CampaignQueue {
    fn default() -> Self {
        CampaignQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
        }
    }
}

impl CampaignQueue {
    /// Empties the queue for a fresh plan, keeping every bucket's buffer:
    /// re-planning then refills memory the last plan already touched.
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
        self.last = 0;
    }

    /// Queues `campaign`, whose key must not precede the last popped one.
    fn push(&mut self, campaign: Campaign) {
        let key = campaign.key();
        debug_assert!(key >= self.last, "radix-heap push below the last pop");
        let b = (u128::BITS - (key ^ self.last).leading_zeros()) as usize;
        self.buckets[b].push(campaign);
        self.occupied |= 1 << b;
    }

    /// Removes the campaign with the least `(time, index)`.
    fn pop(&mut self) -> Option<Campaign> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        if b == 0 {
            let campaign = self.buckets[0].pop();
            if self.buckets[0].is_empty() {
                self.occupied &= !1;
            }
            return campaign;
        }
        let mut rest = std::mem::take(&mut self.buckets[b]);
        self.occupied &= !(1 << b);
        let (at, _) = rest
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.key())
            .expect("an occupied bucket is non-empty");
        let campaign = rest.swap_remove(at);
        self.last = campaign.key();
        for c in rest.drain(..) {
            self.push(c);
        }
        if rest.capacity() <= KEPT_CAPACITY {
            self.buckets[b] = rest;
        }
        Some(campaign)
    }
}

/// Width of a follow-up slice, in bits of time: 4096 ns.
///
/// A slice is sorted as one batch, whose fixed cost is two passes over 64
/// counting bins. A slice holds ~1.1 k activations of cactuBSSN at paper
/// density (32 banks) and ~50 of roms at 2 banks, so a narrower slice
/// would spend the bins on too few activations at low density; a wider one
/// would need a third counting pass or bigger bins, and a bigger batch to
/// keep in cache. Every hot follow-up interval at the paper's tREFW is
/// ≥ 10 µs, longer than a slice, so each follow-up there is filed once.
const SLICE_BITS: u32 = 12;

/// Bits of a slice offset that one counting pass sorts on.
const DIGIT_BITS: u32 = SLICE_BITS / 2;

/// One activation of the slice being emitted.
#[derive(Debug, Clone, Copy, Default)]
struct Event {
    /// Nanoseconds past the slice's start.
    offset: u16,
    bank: u16,
    /// The campaign's planning index: orders events due at one instant.
    index: u32,
    row: u32,
}

impl Event {
    /// The sort key: `offset` above `index`.
    fn key(&self) -> u64 {
        u64::from(self.offset) << 32 | u64::from(self.index)
    }
}

/// The second stage of the [`EmissionQueue`]: a calendar of campaigns,
/// filed by the slice of their next activation. It has one 24-byte slot
/// per slice of the stream, 188 KB per 32-ms tREFW.
#[derive(Debug, Default)]
struct FollowUps {
    /// `slices[s]` holds the campaigns next due at a time `t` with
    /// `t >> SLICE_BITS == s`.
    slices: Vec<Vec<Campaign>>,
    /// Emptied slice buffers. Every slice draws from and returns to this
    /// one pool: a buffer kept in its slice would retain that slice's peak,
    /// one entry per follow-up of the whole stream.
    pool: Vec<Vec<Campaign>>,
    /// One past the last slice filed into since the last plan.
    end: usize,
}

impl FollowUps {
    /// Files `campaign` under the slice of its next activation.
    fn file(&mut self, campaign: Campaign) {
        let s = (campaign.time >> SLICE_BITS) as usize;
        if s >= self.slices.len() {
            self.slices.resize_with(s + 1, Vec::new);
        }
        let slice = &mut self.slices[s];
        if slice.capacity() == 0 {
            *slice = self.pool.pop().unwrap_or_default();
        }
        slice.push(campaign);
        self.end = self.end.max(s + 1);
    }

    /// Returns the buffers of slices `from..` to the pool, leaving the
    /// calendar empty if every slice before `from` is.
    fn clear(&mut self, from: usize) {
        for slice in self.slices.iter_mut().take(self.end).skip(from) {
            if slice.capacity() > 0 {
                slice.clear();
                self.pool.push(std::mem::take(slice));
            }
        }
        self.end = 0;
    }

    /// Appends the activations `campaign` has due in the slice starting at
    /// `base` to `events`, then files it under the slice of its next one,
    /// if it has one.
    fn expand(&mut self, mut campaign: Campaign, base: u64, events: &mut Vec<Event>) {
        let slice_end = base + (1 << SLICE_BITS);
        loop {
            events.push(Event {
                offset: (campaign.time - base) as u16,
                bank: campaign.bank,
                index: campaign.index,
                row: campaign.row,
            });
            campaign.remaining -= 1;
            if campaign.remaining == 0 {
                return;
            }
            campaign.time += campaign.interval;
            if campaign.time >= slice_end {
                self.file(campaign);
                return;
            }
        }
    }
}

/// The most events a slice sorts by insertion alone: fewer than clearing
/// and summing the counting passes' 128 bins costs.
const INSERTION_MAX: usize = 32;

/// Sorts one slice's events by `(offset, index)`. Above [`INSERTION_MAX`]
/// events, two stable counting passes on the offset, low digit first,
/// come before the insertion pass, which then only orders equal offsets
/// by index. Equal offsets are rare (campaigns due at one nanosecond), so
/// that pass mostly compares neighbours.
fn sort_events(events: &mut [Event], scratch: &mut Vec<Event>) {
    if events.len() > INSERTION_MAX {
        sort_by_offset(events, scratch);
    }
    for i in 1..events.len() {
        let e = events[i];
        let mut j = i;
        while j > 0 && events[j - 1].key() > e.key() {
            events[j] = events[j - 1];
            j -= 1;
        }
        events[j] = e;
    }
}

/// Stable-sorts `events` by offset: two counting passes of [`DIGIT_BITS`].
fn sort_by_offset(events: &mut [Event], scratch: &mut Vec<Event>) {
    const BINS: usize = 1 << DIGIT_BITS;
    let digit = |e: &Event, shift: u32| usize::from(e.offset >> shift) & (BINS - 1);
    // Per digit value, the next position it sorts to: counts at first.
    let mut slots = [[0usize; BINS]; 2];
    for e in events.iter() {
        slots[0][digit(e, 0)] += 1;
        slots[1][digit(e, DIGIT_BITS)] += 1;
    }
    for bins in &mut slots {
        let mut sum = 0;
        for bin in bins.iter_mut() {
            (*bin, sum) = (sum, sum + *bin);
        }
    }
    if scratch.len() < events.len() {
        scratch.resize(events.len(), Event::default());
    }
    let scratch = &mut scratch[..events.len()];
    for &e in events.iter() {
        let at = &mut slots[0][digit(&e, 0)];
        scratch[*at] = e;
        *at += 1;
    }
    for &e in scratch.iter() {
        let at = &mut slots[1][digit(&e, DIGIT_BITS)];
        events[*at] = e;
        *at += 1;
    }
}

/// The stream's emission queue, in two stages. A [`CampaignQueue`] orders
/// each campaign's first activation; [`FollowUps`] orders every later one
/// by 4096-ns slice ([`SLICE_BITS`]). The stream emits one slice at a time:
/// it pops the starts due in the slice and takes the campaigns filed under
/// it, expands each into its activations until the next one leaves the
/// slice (a later slice, so a slice is complete when it is expanded), and
/// sorts them. The result is the `(time, index)` order of one
/// `BinaryHeap<Reverse<(time, index)>>` over all campaigns.
///
/// Starts stay in the heap, pushed once at planning and popped as their
/// slice comes due, because a stream may be read only in part: a fleet
/// tenant takes 512 activations of a freshly planned stream, and pops only
/// the starts it reaches. Filing every start in a slice at planning would
/// touch every slice of the plan.
#[derive(Debug, Default)]
struct EmissionQueue {
    starts: CampaignQueue,
    /// The least start not yet expanded, popped ahead so the next slice
    /// due is known.
    next_start: Option<Campaign>,
    follow_ups: FollowUps,
    /// The slice after the one being emitted.
    next_slice: usize,
    /// Start time of the slice being emitted.
    base: u64,
    /// Its events in `(time, index)` order, and the next one to emit.
    events: Vec<Event>,
    next_event: usize,
    /// The counting sort's second buffer (its length only grows).
    scratch: Vec<Event>,
}

impl EmissionQueue {
    /// Empties the queue for a fresh plan, keeping its buffers: filed
    /// slices return theirs to the pool, and only the slices used since
    /// the last plan are touched.
    fn clear(&mut self) {
        self.starts.clear();
        self.next_start = None;
        self.follow_ups.clear(self.next_slice);
        self.next_slice = 0;
        self.events.clear();
        self.next_event = 0;
    }

    /// Emits the earliest due activation, timed from `last_time`: the next
    /// event of the current slice, which is first replaced by the next due
    /// slice when spent.
    #[inline]
    fn emit(&mut self, last_time: &mut u64) -> Option<Request> {
        if self.next_event == self.events.len() && !self.advance() {
            return None;
        }
        let event = self.events[self.next_event];
        self.next_event += 1;
        let time = self.base + u64::from(event.offset);
        let request = Request {
            gap: Nanos::new(time.saturating_sub(*last_time)),
            bank: BankId::new(event.bank),
            row: RowId::new(event.row),
        };
        *last_time = time;
        Some(request)
    }

    /// Makes the earliest slice with an activation due the current one, its
    /// events sorted. Returns `false` when no activation is left.
    fn advance(&mut self) -> bool {
        if self.next_start.is_none() {
            self.next_start = self.starts.pop();
        }
        let start_slice = self
            .next_start
            .map_or(usize::MAX, |c| (c.time >> SLICE_BITS) as usize);
        let filed_end = self.follow_ups.end.min(start_slice);
        let mut s = self.next_slice;
        while s < filed_end && self.follow_ups.slices[s].is_empty() {
            s += 1;
        }
        if s >= filed_end {
            s = start_slice;
        }
        if s == usize::MAX {
            return false;
        }
        let base = (s as u64) << SLICE_BITS;
        self.events.clear();
        while let Some(start) = self.next_start.filter(|c| c.time >> SLICE_BITS == s as u64) {
            self.follow_ups.expand(start, base, &mut self.events);
            self.next_start = self.starts.pop();
        }
        if let Some(slice) = self.follow_ups.slices.get_mut(s) {
            let mut filed = std::mem::take(slice);
            for campaign in filed.drain(..) {
                self.follow_ups.expand(campaign, base, &mut self.events);
            }
            if filed.capacity() > 0 {
                self.follow_ups.pool.push(filed);
            }
        }
        sort_events(&mut self.events, &mut self.scratch);
        self.next_slice = s + 1;
        self.base = base;
        self.next_event = 0;
        true
    }
}

/// The merged, time-ordered activation stream for one workload.
///
/// # Examples
///
/// ```
/// use moat_dram::DramConfig;
/// use moat_sim::RequestStream;
/// use moat_workloads::{GeneratorConfig, WorkloadProfile, WorkloadStream};
///
/// let profile = WorkloadProfile::by_name("xalancbmk").unwrap();
/// let mut cfg = GeneratorConfig::scaled();
/// cfg.banks = 2;
/// let mut stream =
///     WorkloadStream::new(profile, &DramConfig::paper_baseline(), cfg);
/// let first = stream.next_request().expect("non-empty stream");
/// assert!(first.bank.index() < 2);
/// ```
///
/// The `Default` stream emits nothing until [`replan`](Self::replan)
/// plans it.
#[derive(Debug, Default)]
pub struct WorkloadStream {
    queue: EmissionQueue,
    last_time: u64,
    total_emitted: u64,
}

impl WorkloadStream {
    /// Builds the stream for `profile` over the given DRAM organization.
    ///
    /// # Panics
    ///
    /// Panics, naming the profile and `rows_per_bank`, if one
    /// bank-window's campaigns need more distinct rows than
    /// `dram.rows_per_bank` provides (rows are sampled without
    /// replacement within a bank-window).
    pub fn new(profile: &WorkloadProfile, dram: &DramConfig, config: GeneratorConfig) -> Self {
        let mut stream = WorkloadStream::default();
        stream.replan(profile, dram, config);
        stream
    }

    /// Discards whatever this stream still holds and plans it afresh,
    /// exactly as [`new`](Self::new) would, reusing the emission queue's
    /// buffers. Callers that build many streams in turn (a fleet shard's
    /// tenants) re-plan one stream instead of allocating each queue anew.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new). A stream left half-planned by that panic is
    /// still safe to re-plan.
    pub fn replan(
        &mut self,
        profile: &WorkloadProfile,
        dram: &DramConfig,
        config: GeneratorConfig,
    ) {
        self.queue.clear();
        self.last_time = 0;
        self.total_emitted = 0;

        let mut rng = StdRng::seed_from_u64(config.seed ^ hash_name(profile.name));
        let trefw_ns = dram.timing.t_refw.as_u64();
        let budget = Self::acts_per_bank_per_window(profile, dram);
        // One bit per row of a bank: the rows one bank-window has used.
        let mut used = vec![0u64; dram.rows_per_bank.div_ceil(64) as usize];
        let mut planned = 0;
        for window in 0..config.windows {
            let window_start = u64::from(window) * trefw_ns;
            for bank in 0..config.banks {
                Self::plan_bank_window(
                    profile,
                    dram,
                    budget,
                    bank,
                    window_start,
                    trefw_ns,
                    &mut rng,
                    &mut used,
                    &mut self.queue.starts,
                    &mut planned,
                );
            }
        }
    }

    /// The activation budget per bank per tREFW: the ACT-PKI-derived rate,
    /// floored by what the hot-row histogram itself requires and capped at
    /// a sane bank utilization.
    pub fn acts_per_bank_per_window(profile: &WorkloadProfile, dram: &DramConfig) -> u64 {
        let trefw_s = dram.timing.t_refw.as_u64() as f64 / 1e9;
        let pki_rate = INSTR_PER_SEC * profile.act_pki / 1000.0 / TOTAL_BANKS;
        let capacity = 1e9 / dram.timing.t_rc.as_u64() as f64 * MAX_BANK_UTILIZATION;
        let from_pki = pki_rate.min(capacity) * trefw_s;
        // The histogram is a hard floor: a workload whose hot rows imply
        // more activations than IPC=1 would produce simply runs at a
        // higher IPC in the paper's OOO cores.
        let floor = profile.min_hot_acts() as f64 * 1.18;
        from_pki.max(floor) as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_bank_window(
        profile: &WorkloadProfile,
        dram: &DramConfig,
        budget: u64,
        bank: u16,
        window_start: u64,
        trefw_ns: u64,
        rng: &mut StdRng,
        used: &mut [u64],
        queue: &mut CampaignQueue,
        planned: &mut u32,
    ) {
        let rows = dram.rows_per_bank;
        let mut spent: u64 = 0;
        // Rows are sampled without replacement within a bank-window:
        // duplicate campaigns would silently push rows across the
        // 32/64/128 bucket lines and distort the Table 4 histogram. A
        // drawn row already in `used` is redrawn. Exhaustion is checked
        // before drawing, so every valid configuration draws the same
        // numbers as without the check.
        used.fill(0);
        let mut sampled: u32 = 0;
        let mut sample_row = move |rng: &mut StdRng| {
            assert!(
                sampled < rows,
                "{} needs more distinct rows per bank-window than rows_per_bank = {rows}",
                profile.name
            );
            loop {
                let r = rng.random_range(0..rows);
                let (word, bit) = (&mut used[(r / 64) as usize], 1u64 << (r % 64));
                if *word & bit == 0 {
                    *word |= bit;
                    sampled += 1;
                    return r;
                }
            }
        };
        let mut schedule = |time: u64, row: u32, remaining: u32, interval: u64| {
            queue.push(Campaign {
                time,
                interval,
                index: *planned,
                row,
                remaining,
                bank,
            });
            *planned += 1;
        };

        // Hot rows: (bucket count, min acts, max extra).
        let buckets = [
            (profile.bucket128(), 128u32, 192u32),
            (profile.bucket64(), 64, 63),
            (profile.bucket32(), 32, 31),
        ];
        for &(count, base, extra_max) in &buckets {
            for _ in 0..count {
                let extra = if extra_max > 0 {
                    // Skew extras low so low-PKI workloads stay in budget.
                    let r: f64 = rng.random();
                    (f64::from(extra_max) * r * r) as u32
                } else {
                    0
                };
                let acts = base + extra;
                spent += u64::from(acts);
                // Hot rows burst over 10–50% of the window.
                let frac = rng.random_range(0.10..0.50);
                let duration = (trefw_ns as f64 * frac) as u64;
                let start =
                    window_start + rng.random_range(0..trefw_ns.saturating_sub(duration).max(1));
                schedule(
                    start,
                    sample_row(rng),
                    acts,
                    (duration / u64::from(acts)).max(52),
                );
            }
        }

        // Cold background: spend the remaining budget on rows below the
        // 32-activation line, spread across the whole window.
        while spent < budget {
            let acts = rng
                .random_range(1..=31u32)
                .min((budget - spent) as u32)
                .max(1);
            spent += u64::from(acts);
            let start = window_start + rng.random_range(0..trefw_ns);
            schedule(start, sample_row(rng), acts, trefw_ns / u64::from(acts) / 4);
        }
    }

    /// Total requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.total_emitted
    }
}

impl RequestStream for WorkloadStream {
    fn next_request(&mut self) -> Option<Request> {
        let request = self.queue.emit(&mut self.last_time)?;
        self.total_emitted += 1;
        Some(request)
    }

    /// Batched generation: one pass over the emission queue per chunk,
    /// with the arrival clock and emission counter held in locals instead
    /// of being written back through `&mut self` per request. Yields
    /// exactly the sequence repeated
    /// [`next_request`](RequestStream::next_request) calls would (pinned
    /// by the `chunk_equivalence` proptest).
    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(DEFAULT_CHUNK);
        }
        let cap = buf.capacity();
        let mut last_time = self.last_time;
        while buf.len() < cap {
            let Some(request) = self.queue.emit(&mut last_time) else {
                break;
            };
            buf.push(request);
        }
        self.last_time = last_time;
        self.total_emitted += buf.len() as u64;
        buf.len()
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Measures the per-bank-per-window activation histogram of a stream —
/// used to verify the generator against Table 4.
#[derive(Debug, Default)]
pub struct HistogramCheck {
    /// Rows with ≥32 activations, averaged per bank per window.
    pub act32: f64,
    /// Rows with ≥64 activations.
    pub act64: f64,
    /// Rows with ≥128 activations.
    pub act128: f64,
    /// Total activations per bank per window.
    pub acts_per_bank: f64,
}

impl HistogramCheck {
    /// Drains `stream` and tabulates per-bank-per-window row activation
    /// counts.
    pub fn measure<S: RequestStream>(
        mut stream: S,
        dram: &DramConfig,
        banks: u16,
        windows: u32,
    ) -> Self {
        use std::collections::HashMap;
        let trefw = dram.timing.t_refw.as_u64();
        let mut counts: HashMap<(u32, u16, u32), u32> = HashMap::new();
        let mut now = 0u64;
        let mut total = 0u64;
        while let Some(r) = stream.next_request() {
            now += r.gap.as_u64();
            let window = (now / trefw) as u32;
            *counts
                .entry((window, r.bank.index(), r.row.index()))
                .or_default() += 1;
            total += 1;
        }
        let cells = f64::from(windows) * f64::from(banks);
        let mut h = HistogramCheck {
            acts_per_bank: total as f64 / cells,
            ..Default::default()
        };
        for &c in counts.values() {
            if c >= 32 {
                h.act32 += 1.0;
            }
            if c >= 64 {
                h.act64 += 1.0;
            }
            if c >= 128 {
                h.act128 += 1.0;
            }
        }
        h.act32 /= cells;
        h.act64 /= cells;
        h.act128 /= cells;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_dram::DramConfig;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// FNV-1a over every emitted `(gap, bank, row)`, and the request count.
    fn stream_digest(profile: &str, dram: &DramConfig, config: GeneratorConfig) -> (u64, u64) {
        let profile = WorkloadProfile::by_name(profile).unwrap();
        let mut stream = WorkloadStream::new(profile, dram, config);
        let (mut n, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
        while let Some(r) = stream.next_request() {
            let bytes = r.gap.as_u64().to_le_bytes().into_iter();
            let bytes = bytes.chain(r.bank.index().to_le_bytes());
            for b in bytes.chain(r.row.index().to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            n += 1;
        }
        (n, h)
    }

    /// Trace caches key recorded streams by [`GENERATOR_VERSION`], so an
    /// emission change that keeps the version would replay stale
    /// recordings. These digests pin version 1's streams.
    #[test]
    fn emitted_streams_match_pinned_digests() {
        let paper = DramConfig::paper_baseline();
        let small = DramConfig::builder().rows_per_bank(16_384).build();
        // 1000 rows leave the row bitset's last word partial, and wrf fills
        // ~57% of them per bank-window, so collisions force many redraws.
        let partial_word = DramConfig::builder().rows_per_bank(1000).build();
        let pinned = [
            ("gcc", paper, 1, 1, 3, 24_854, 0x4786_8003_6d4d_0f5c),
            ("roms", paper, 2, 2, 7, 733_792, 0xe198_d473_c83a_d233),
            (
                "cactuBSSN",
                small,
                1,
                1,
                0xA0A7,
                274_139,
                0xa997_8536_bff5_68b0,
            ),
            ("x264", paper, 2, 2, 1, 62_381, 0xcaf8_0e0a_af66_45ad),
            ("wrf", partial_word, 2, 2, 5, 109_545, 0x85bd_ed1d_8361_295f),
            // 32 banks: 11,303 requests share their nanosecond with the one
            // before, mostly across banks, so ties order by planning index.
            ("gcc", paper, 32, 1, 3, 779_460, 0x3d57_72a3_053c_2398),
        ];
        assert_pinned(&pinned);
    }

    /// cactuBSSN at paper scale, seeded as `repro --full` seeds it: the
    /// densest stream the emission queue serves (17.6 M requests). Too
    /// slow for a debug build.
    #[test]
    #[ignore = "paper scale: CI runs it in release"]
    fn paper_scale_stream_matches_pinned_digest() {
        let paper = DramConfig::paper_baseline();
        let GeneratorConfig {
            banks,
            windows,
            seed,
        } = GeneratorConfig::paper_scale();
        assert_pinned(&[(
            "cactuBSSN",
            paper,
            banks,
            windows,
            seed,
            17_609_751,
            0x13ac_63fa_56c0_9931,
        )]);
    }

    /// Checks each `(profile, dram, banks, windows, seed, count, digest)`
    /// against [`stream_digest`].
    fn assert_pinned(pinned: &[(&str, DramConfig, u16, u32, u64, u64, u64)]) {
        const PINNED_VERSION: u32 = 1;
        assert_eq!(
            GENERATOR_VERSION, PINNED_VERSION,
            "GENERATOR_VERSION changed: re-pin these digests to the new version's streams"
        );
        for &(name, dram, banks, windows, seed, count, digest) in pinned {
            let config = GeneratorConfig {
                banks,
                windows,
                seed,
            };
            assert_eq!(
                stream_digest(name, &dram, config),
                (count, digest),
                "{name} {config:?}: the emitted stream changed. If that is intended, bump \
                 GENERATOR_VERSION and these digests together, or warm trace caches \
                 replay the old streams"
            );
        }
    }

    /// Every remaining request of `stream`.
    fn drain(stream: &mut WorkloadStream) -> Vec<Request> {
        std::iter::from_fn(|| stream.next_request()).collect()
    }

    /// Re-planning a stream in any state emits, request by request, what
    /// a fresh stream emits: no campaign, clock or count of the old plan
    /// survives.
    #[test]
    fn replan_matches_new_from_any_state() {
        let paper = DramConfig::paper_baseline();
        let profile = |name| WorkloadProfile::by_name(name).unwrap();
        let config = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 3,
        };
        let expected = drain(&mut WorkloadStream::new(profile("gcc"), &paper, config));

        let other = GeneratorConfig {
            banks: 2,
            windows: 2,
            seed: 1,
        };
        let mut partly_drained = WorkloadStream::new(profile("x264"), &paper, other);
        for _ in 0..1000 {
            partly_drained
                .next_request()
                .expect("x264 emits 62k requests");
        }
        // 32 banks, stopped a fifth of the way into its window: campaigns
        // mid-burst, campaigns not yet started, and a slice of the emission
        // queue part-emitted.
        let wide = GeneratorConfig {
            banks: 32,
            windows: 1,
            seed: 1,
        };
        let mut wide_partly_drained = WorkloadStream::new(profile("x264"), &paper, wide);
        for _ in 0..100_001 {
            wide_partly_drained
                .next_request()
                .expect("x264 on 32 banks emits 500k requests");
        }
        let mut drained = WorkloadStream::new(profile("gcc"), &paper, config);
        drain(&mut drained);
        let mut half_planned = WorkloadStream::default();
        let too_few_rows = DramConfig::builder().rows_per_bank(4096).build();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            half_planned.replan(profile("cactuBSSN"), &too_few_rows, config)
        }));
        assert!(panic.is_err(), "cactuBSSN needs more than 4096 rows");
        assert_ne!(
            half_planned.queue.starts.occupied, 0,
            "the panic left campaigns queued"
        );

        let cases = [
            ("default", WorkloadStream::default()),
            ("partly drained x264", partly_drained),
            ("partly drained 32-bank x264", wide_partly_drained),
            ("fully drained", drained),
            ("half-planned", half_planned),
        ];
        for (case, mut stream) in cases {
            stream.replan(profile("gcc"), &paper, config);
            assert_eq!(stream.emitted(), 0, "{case}: emission count survived");
            assert!(
                drain(&mut stream) == expected,
                "{case}: re-planned stream differs"
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "cactuBSSN needs more distinct rows per bank-window than rows_per_bank = 4096"
    )]
    fn too_few_rows_per_bank_panics() {
        let profile = WorkloadProfile::by_name("cactuBSSN").unwrap();
        let dram = DramConfig::builder().rows_per_bank(4096).build();
        let cfg = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 1,
        };
        WorkloadStream::new(profile, &dram, cfg);
    }

    fn push_both(
        queue: &mut CampaignQueue,
        reference: &mut BinaryHeap<Reverse<(u64, u32)>>,
        time: u64,
        index: u32,
    ) {
        queue.push(Campaign {
            time,
            interval: 0,
            index,
            row: index,
            remaining: 1,
            bank: 0,
        });
        reference.push(Reverse((time, index)));
    }

    /// `(time, index)` of a popped campaign, checking the payload came
    /// along (`row` mirrors `index` here).
    fn popped(c: Option<Campaign>) -> Option<(u64, u32)> {
        c.map(|c| {
            assert_eq!(c.row, c.index, "campaign state detached from its key");
            (c.time, c.index)
        })
    }

    /// The paper's tREFW in ns, the window the test campaigns start in.
    const TREFW_NS: u64 = 32_000_000;

    /// Campaign `index`, decoded from three codes (the proptest shim has no
    /// `prop_oneof`). It starts in one of three windows, in one of four
    /// slices there, at offset 0 (a slice boundary), 1, 4095 or a random
    /// one, so many campaigns share a start. The interval is the 52-ns
    /// floor, below it, 4095, 4096 or 4097 ns, a random one up to ~4 µs,
    /// a multiple of 4096 ns, or far above a slice. One campaign in four
    /// activates once.
    fn test_campaign(index: u32, (start, interval, acts): (u64, u64, u32)) -> Campaign {
        let (window, slice, kind, random) = (start % 3, start / 3 % 4, start / 12 % 4, start / 48);
        let first_slice = ((window * TREFW_NS) >> SLICE_BITS) + slice;
        let offset = [0, 1, 4095, random][kind as usize];
        let random = interval / 8;
        Campaign {
            time: first_slice << SLICE_BITS | offset,
            interval: [
                52,
                random % 52,
                4095,
                4096,
                4097,
                52 + random,
                4096 * (1 + random % 4),
                100_000 + random * 1000,
            ][(interval % 8) as usize],
            index,
            row: index,
            remaining: if acts < 16 { 1 } else { acts * 5 },
            bank: index as u16 % 32,
        }
    }

    /// The reference emission loop, the two-stage queue's oracle: every
    /// campaign in one `BinaryHeap<Reverse<(time, index)>>`, re-pushed at
    /// `time + interval` after each activation.
    fn heap_emission(mut campaigns: Vec<Campaign>) -> Vec<Request> {
        let mut heap: BinaryHeap<_> = campaigns
            .iter()
            .map(|c| Reverse((c.time, c.index)))
            .collect();
        let mut last_time = 0;
        let mut requests = Vec::new();
        while let Some(Reverse((time, index))) = heap.pop() {
            let c = &mut campaigns[index as usize];
            requests.push(Request {
                gap: Nanos::new(time - last_time),
                bank: BankId::new(c.bank),
                row: RowId::new(c.row),
            });
            last_time = time;
            c.remaining -= 1;
            if c.remaining > 0 {
                c.time += c.interval;
                heap.push(Reverse((c.time, index)));
            }
        }
        requests
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random monotone push/pop interleavings pop from the radix heap
        /// in exactly the reference `BinaryHeap<Reverse<(time, index)>>`
        /// order: many campaigns at one instant (time `0` or `a << s`
        /// with small `a`), zero intervals (`a == 0`), keys spread up to
        /// bit 62 of the time, re-pushes after a pop, and new campaigns
        /// queued mid-stream.
        #[test]
        fn queue_pops_in_binary_heap_order(
            starts in prop::collection::vec((0u64..4, 0u32..62), 0..300),
            ops in prop::collection::vec((0u8..3, 0u64..4, 0u32..40), 1..1500),
        ) {
            let mut queue = CampaignQueue::default();
            let mut reference = BinaryHeap::new();
            for (index, &(a, s)) in starts.iter().enumerate() {
                push_both(&mut queue, &mut reference, a << s, index as u32);
            }
            let mut next_index = starts.len() as u32;
            let mut last_time = 0;
            for (kind, a, s) in ops {
                if kind == 2 {
                    // A new campaign, due no earlier than the last pop.
                    push_both(&mut queue, &mut reference, last_time + (a << s), next_index);
                    next_index += 1;
                    continue;
                }
                let want = reference.pop().map(|Reverse(k)| k);
                prop_assert_eq!(popped(queue.pop()), want);
                if let Some((time, index)) = want {
                    last_time = time;
                    if kind == 0 {
                        // Re-push after an interval of `a << s`.
                        push_both(&mut queue, &mut reference, time + (a << s), index);
                    }
                }
            }
            while let Some(Reverse(want)) = reference.pop() {
                prop_assert_eq!(popped(queue.pop()), Some(want));
            }
            prop_assert!(queue.pop().is_none());
        }

        /// Over random campaign sets (see [`test_campaign`]), the two-stage
        /// queue emits request by request what the reference heap loop
        /// emits, through single pulls and then chunks.
        #[test]
        fn two_stage_queue_emits_in_heap_order(
            codes in prop::collection::vec(
                (0u64..3 * 4 * 4 * 4096, 0u64..8 * 4096, 0u32..64),
                1..300,
            ),
            singles in 0usize..3000,
            cap in 1usize..300,
        ) {
            let campaigns: Vec<Campaign> =
                (0..).zip(codes).map(|(i, c)| test_campaign(i, c)).collect();
            let mut stream = WorkloadStream::default();
            for &c in &campaigns {
                stream.queue.starts.push(c);
            }
            let mut emitted: Vec<Request> =
                std::iter::from_fn(|| stream.next_request()).take(singles).collect();
            let mut chunk = Vec::with_capacity(cap);
            while stream.next_chunk(&mut chunk) > 0 {
                emitted.extend_from_slice(&chunk);
            }
            let expected = heap_emission(campaigns);
            prop_assert_eq!(stream.emitted(), expected.len() as u64);
            prop_assert!(emitted == expected, "the two-stage queue left the heap order");
        }
    }

    fn check(name: &str) -> (HistogramCheck, &'static WorkloadProfile) {
        let profile = WorkloadProfile::by_name(name).unwrap();
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig {
            banks: 2,
            windows: 1,
            seed: 7,
        };
        let stream = WorkloadStream::new(profile, &dram, cfg);
        (HistogramCheck::measure(stream, &dram, 2, 1), profile)
    }

    #[test]
    fn histogram_matches_profile_for_roms() {
        let (h, p) = check("roms");
        assert!(
            (h.act32 - f64::from(p.act32)).abs() / f64::from(p.act32) < 0.10,
            "act32 {} vs {}",
            h.act32,
            p.act32
        );
        assert!(
            (h.act64 - f64::from(p.act64)).abs() / f64::from(p.act64) < 0.10,
            "act64 {} vs {}",
            h.act64,
            p.act64
        );
        assert!(
            (h.act128 - f64::from(p.act128)).abs() / f64::from(p.act128) < 0.12,
            "act128 {} vs {}",
            h.act128,
            p.act128
        );
    }

    #[test]
    fn histogram_matches_profile_for_light_workload() {
        let (h, p) = check("x264");
        assert!((h.act32 - f64::from(p.act32)).abs() < 40.0, "{}", h.act32);
        assert!((h.act64 - f64::from(p.act64)).abs() < 20.0, "{}", h.act64);
        assert!(h.act128 < 5.0, "x264 has no 128+ rows, got {}", h.act128);
    }

    #[test]
    fn stream_is_time_ordered_and_reproducible() {
        let profile = WorkloadProfile::by_name("gcc").unwrap();
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 3,
        };
        let collect = || {
            let mut s = WorkloadStream::new(profile, &dram, cfg);
            let mut v = Vec::new();
            while let Some(r) = s.next_request() {
                v.push((r.gap.as_u64(), r.bank.index(), r.row.index()));
            }
            v
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert!(a.len() > 10_000);
    }

    #[test]
    fn budget_respects_histogram_floor() {
        let dram = DramConfig::paper_baseline();
        for p in &crate::profiles::PROFILES {
            let budget = WorkloadStream::acts_per_bank_per_window(p, &dram);
            assert!(
                budget >= p.min_hot_acts(),
                "{}: budget {budget} below histogram floor {}",
                p.name,
                p.min_hot_acts()
            );
            // And below the bank's physical capacity.
            assert!(budget < 32_000_000 / 52);
        }
    }
}
