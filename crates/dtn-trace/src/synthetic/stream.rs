//! The lazy per-pair contact generators and the one merge that puts
//! them in trace order a block of time at a time: `build()` drains it
//! into the trace's `Vec`, [`ContactStream`] a block at a time.

use std::mem::size_of;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};

use super::plan::{PlanConstants, PlannedPair, TracePlan};
use crate::process::PairLaw;
use crate::trace::Contact;

/// Lazy generator of one pair's raw contact sequence — the pluggable
/// session process with geometric re-detection runs, emitted one
/// contact at a time. Both generation paths run this exact state
/// machine, so their per-pair sequences are identical by construction.
///
/// It holds only what differs between pairs (72 B): the private RNG,
/// the calibrated law and three clocks. Everything the pairs share
/// comes in as the plan's [`PlanConstants`].
pub(super) struct PairContacts {
    rng: StdRng,
    law: PairLaw,
    /// Continuous session-process clock.
    t: f64,
    /// Start slot of the next contact in the current run.
    session_t: u64,
    /// Contacts left in the current run.
    run_left: u64,
}

impl PairContacts {
    pub(super) fn new(pair: &PlannedPair, constants: &PlanConstants) -> Self {
        PairContacts {
            rng: StdRng::seed_from_u64(pair.rng_seed),
            law: constants.law.calibrate(pair.session_rate, pair.rng_seed),
            t: 0.0,
            session_t: 0,
            run_left: 0,
        }
    }

    /// The next raw contact's `(start, end)` in generation order (starts
    /// nondecreasing; `(start, end)` may be locally inverted across run
    /// boundaries when truncation ties two starts — the block merge's
    /// per-bucket sort restores full order). `None` once the session
    /// clock passes the span; the generator is spent then and is not
    /// called again.
    pub(super) fn next_raw(&mut self, c: &PlanConstants) -> Option<(Time, Time)> {
        let g = c.granularity_secs;
        loop {
            if self.run_left == 0 {
                // Resume the session process from the start of the
                // run's last contact (a renewal restart; for the
                // memoryless Poisson reference this is exactly the
                // pre-trait continuation, and for single-contact
                // sessions `t` is unchanged). Before the first session
                // both clocks read 0, so this leaves `t` at 0.
                self.t = self.t.max(self.session_t.saturating_sub(g) as f64);
                self.t = c.law.next_session(&self.law, self.t, &mut self.rng);
                if self.t >= c.span {
                    return None;
                }
                self.run_left = match c.run_ln_continue {
                    // Geometric with mean B: 1 + floor(ln u / ln(1 − 1/B))
                    Some(ln_continue) => {
                        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                        1 + (u.ln() / ln_continue) as u64
                    }
                    None => 1,
                };
                self.session_t = self.t as u64;
            }
            if self.session_t >= c.duration_secs {
                // The rest of the run falls past the observation end.
                self.run_left = 0;
                continue;
            }
            self.run_left -= 1;
            let start = self.session_t;
            let len = self.rng.gen_range(g.div_ceil(2)..=g + g / 2).max(1);
            // `start` is before the observation end and `len ≥ 1`, so
            // the contact is never empty.
            let end = (start + len).min(c.duration_secs);
            // Next re-detection one granularity later.
            self.session_t += g;
            return Some((Time(start), Time(end)));
        }
    }
}

/// One kept pair of the merge (88 B): its endpoints, its generator and,
/// as `ahead`, the end of the contact it pulled past the last block.
struct KeptPair {
    a: NodeId,
    b: NodeId,
    gen: PairContacts,
    /// `Time::ZERO` once the generator is spent (every contact ends after
    /// 0). The contact starts a granularity before the generator's slot
    /// clock, where every `next_raw` leaves it.
    ahead: Time,
}

/// The fewest expected contacts in a block. A block holds about
/// `max(BLOCK_CONTACTS, pairs / 4)`: few enough that a stream's two block
/// buffers stay small beside its pairs, and enough that visiting every
/// pair once a block costs about what the contacts do.
pub(super) const BLOCK_CONTACTS: usize = 4096;

/// Every kept pair's generator, merged into `(start, a, b, end)` order
/// one block of time at a time.
pub(super) struct BlockMerge {
    constants: PlanConstants,
    /// The kept pairs in `(a, b)` order.
    pairs: Vec<KeptPair>,
    /// The blocks left to fill, of the `0..n` the span is cut into.
    todo: Range<u64>,
    /// A block's expected contacts and a quarter more, so a block
    /// buffer rarely regrows.
    capacity: usize,
    /// The block being filled, pair by pair. Allocated by the first fill,
    /// after the caller's output.
    block: Vec<Contact>,
}

impl BlockMerge {
    /// Opens every kept pair's generator; `expected` is the calibrated
    /// contact count, which sizes the blocks.
    pub(super) fn new(plan: TracePlan, expected: usize) -> Self {
        // In `(a, b)` order a block lists each start's contacts nearly in
        // trace order, which leaves the bucket sorts little to do. The
        // plan keeps its own order until here: its calibration sums in it.
        let (c, mut pairs) = (plan.constants, plan.pairs);
        pairs.sort_unstable_by_key(|p| (p.a, p.b));
        let pairs: Vec<KeptPair> = pairs
            .iter()
            .map(|p| {
                let mut gen = PairContacts::new(p, &c);
                let ahead = gen.next_raw(&c).map_or(Time::ZERO, |(_, end)| end);
                let (a, b) = (p.a, p.b);
                KeptPair { a, b, gen, ahead }
            })
            .collect();
        let blocks = (expected / BLOCK_CONTACTS.max(pairs.len() / 4)).max(1);
        BlockMerge {
            constants: c,
            pairs,
            todo: 0..blocks as u64,
            capacity: expected / blocks * 5 / 4,
            block: Vec::new(),
        }
    }

    /// Appends the next block's contacts to `out` in `(start, a, b, end)`
    /// order; `false`, appending nothing, once every block has been.
    pub(super) fn fill(&mut self, out: &mut Vec<Contact>) -> bool {
        let Some(k) = self.todo.next() else {
            return false;
        };
        let (c, n) = (&self.constants, u128::from(self.todo.end));
        // Block `k` is `[at(k), at(k + 1))`; the last one closes at the
        // observation end, before which every contact starts.
        let at = |k| (u128::from(c.duration_secs) * u128::from(k) / n) as u64;
        let (lo, hi, g) = (at(k), at(k + 1), c.granularity_secs);
        self.block.clear();
        self.block.reserve_exact(self.capacity);
        for pair in &mut self.pairs {
            while pair.ahead != Time::ZERO && pair.gen.session_t - g < hi {
                let start = Time(pair.gen.session_t - g);
                self.block
                    .push(Contact::new(pair.a, pair.b, start, pair.ahead));
                pair.ahead = pair.gen.next_raw(c).map_or(Time::ZERO, |(_, end)| end);
            }
        }
        append_in_order(out, &self.block, lo, hi);
        true
    }
}

/// Appends one block's contacts, listed pair by pair and starting in
/// `[lo, hi)`, to `out` in `(start, a, b, end)` order: a stable counting
/// pass by start bucket (a power of two seconds wide, about one contact
/// each), then a sort of each bucket, one pass unless two pairs' starts
/// or an equal-start group of one pair are out of order there.
/// `out` grows by exactly what overruns its reserve.
fn append_in_order(out: &mut Vec<Contact>, block: &[Contact], lo: u64, hi: u64) {
    let width = (hi - lo).div_ceil(block.len().max(1) as u64);
    let shift = width.next_power_of_two().trailing_zeros();
    let bucket = |c: &Contact| ((c.start.as_secs() - lo) >> shift) as usize;
    // Bucket `i` is counted at `offsets[i + 1]`, then starts at
    // `offsets[i]` and, once scattered, ends there.
    let mut offsets = vec![0; ((hi - lo) >> shift) as usize + 2];
    for c in block {
        offsets[bucket(c) + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let base = out.len();
    out.reserve_exact(block.len());
    out.extend_from_slice(block);
    let dest = &mut out[base..];
    for c in block {
        let slot = &mut offsets[bucket(c)];
        dest[*slot] = *c;
        *slot += 1;
    }
    let mut from = 0;
    for &to in &offsets {
        dest[from..to].sort_unstable_by_key(Contact::trace_order);
        from = to;
    }
}

/// A time-ordered stream of synthetic contacts, produced by
/// [`SyntheticTraceBuilder::stream`](super::SyntheticTraceBuilder::stream).
///
/// The block merge [`SyntheticTraceBuilder::build`](super::SyntheticTraceBuilder::build)
/// drains, held open: one lazy per-pair contact process per kept pair
/// and one block of contacts in trace order at a time. A kept pair costs
/// under 120 B ([`heap_bytes`](Self::heap_bytes)): 88 B of generator and
/// merge state and its share of two block buffers, whatever the contact
/// count — which is what lets 100k–1M-node traces feed a simulation
/// without ever existing in RAM. Yields exactly the contacts of `build`
/// in `(start, a, b, end)` order.
pub struct ContactStream {
    nodes: usize,
    trace_duration: Duration,
    merge: BlockMerge,
    /// The block being yielded, in trace order, and its next contact.
    block: Vec<Contact>,
    cursor: usize,
}

impl ContactStream {
    pub(super) fn new(plan: TracePlan, expected: usize) -> Self {
        let mut stream = ContactStream {
            nodes: plan.nodes,
            trace_duration: plan.trace_duration,
            merge: BlockMerge::new(plan, expected),
            block: Vec::new(),
            cursor: 0,
        };
        // Opened with its first block, so `heap_bytes` counts both buffers.
        stream.merge.fill(&mut stream.block);
        stream
    }

    /// Number of nodes of the (virtual) trace.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Observation length of the (virtual) trace; every yielded contact
    /// ends at or before it.
    pub fn duration(&self) -> Duration {
        self.trace_duration
    }

    /// Bytes of heap the stream holds: the pairs and both block buffers.
    pub fn heap_bytes(&self) -> usize {
        let blocks = self.merge.block.capacity() + self.block.capacity();
        self.merge.pairs.capacity() * size_of::<KeptPair>() + blocks * size_of::<Contact>()
    }
}

impl Iterator for ContactStream {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        while self.cursor == self.block.len() {
            self.block.clear();
            self.cursor = 0;
            if !self.merge.fill(&mut self.block) {
                return None;
            }
        }
        self.cursor += 1;
        Some(self.block[self.cursor - 1])
    }
}
