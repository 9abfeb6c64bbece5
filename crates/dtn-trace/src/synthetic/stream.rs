//! [`ContactStream`]: the lazy per-pair contact generators and their
//! k-way merge.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::mem::size_of;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_core::ids::{IdMap, NodeId};
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
    /// boundaries when truncation ties two starts — [`PairStream`]
    /// restores full order). `None` once the session clock passes the
    /// span; the generator is spent then and is not called again.
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

    /// Start of the contact [`next_raw`](Self::next_raw) returned last:
    /// every return leaves the slot clock one granularity past it.
    fn last_start(&self, c: &PlanConstants) -> Time {
        Time(self.session_t - c.granularity_secs)
    }
}

/// One kept pair of the merge (104 B): its endpoints and generator, the
/// end of its contact waiting in the heap (whose key holds the start),
/// and the end of the raw contact pulled ahead to see whether the next
/// start ties. Contacts come out in `(start, end)` order: an equal-start
/// group — a truncation tie at a run boundary, rare — is sorted by end
/// and its rest parked in the stream's group store, keyed by rank.
struct PairStream {
    a: NodeId,
    b: NodeId,
    gen: PairContacts,
    head_end: Time,
    /// End of the raw contact pulled ahead, `Time::ZERO` once the
    /// generator is spent (every contact ends after 0). Its start is
    /// `gen.last_start()`.
    next_end: Time,
    /// Whether the rest of an equal-start group waits in the store.
    grouped: bool,
}

impl PairStream {
    fn open(pair: &PlannedPair, c: &PlanConstants) -> Self {
        let mut stream = PairStream {
            a: pair.a,
            b: pair.b,
            gen: PairContacts::new(pair, c),
            head_end: Time::ZERO,
            next_end: Time::ZERO,
            grouped: false,
        };
        stream.next_end = stream.pull(c);
        stream
    }

    /// Generates the next raw contact and returns its end, or
    /// `Time::ZERO` when the generator is spent.
    fn pull(&mut self, c: &PlanConstants) -> Time {
        self.gen.next_raw(c).map_or(Time::ZERO, |(_, end)| end)
    }

    /// Whether the contact pulled ahead starts at `start`.
    fn pulled_ties(&self, start: Time, c: &PlanConstants) -> bool {
        self.next_end != Time::ZERO && self.gen.last_start(c) == start
    }

    /// The pair's next contact `(start, end)` in full `(start, end)`
    /// order, given the start of the contact it sent last. Buffering
    /// each group of equal starts and sorting it by end reproduces
    /// exactly what the materialized path's global sort does within the
    /// pair (equal ends at one start are equal contacts).
    fn advance(
        &mut self,
        rank: u32,
        sent: Time,
        groups: &mut IdMap<u32, Vec<Time>>,
        c: &PlanConstants,
    ) -> Option<(Time, Time)> {
        if self.grouped {
            let rest = groups.get_mut(&rank).expect("a grouped pair has its group");
            let end = rest.pop().expect("a stored group is never empty");
            if rest.is_empty() {
                groups.remove(&rank);
                self.grouped = false;
            }
            return Some((sent, end));
        }
        if self.next_end == Time::ZERO {
            return None;
        }
        let (start, end) = (self.gen.last_start(c), self.next_end);
        self.next_end = self.pull(c);
        if !self.pulled_ties(start, c) {
            return Some((start, end));
        }
        let mut rest = vec![end];
        while self.pulled_ties(start, c) {
            rest.push(self.next_end);
            self.next_end = self.pull(c);
        }
        // Descending, so each `pop` sends the next end up.
        rest.sort_unstable_by(|x, y| y.cmp(x));
        let first = rest.pop().expect("a group holds two contacts or more");
        groups.insert(rank, rest);
        self.grouped = true;
        Some((start, first))
    }
}

/// The merge's heap key: start, then the pair's rank in `(a, b)` order.
/// No two entries belong to one pair, so `(start, a, b)` decides every
/// comparison and `end` never does.
fn merge_key(start: Time, rank: u32) -> Reverse<u128> {
    Reverse((u128::from(start.as_secs()) << 32) | u128::from(rank))
}

/// The kept pairs in `(a, b)` order, which makes a pair's index in the
/// stream its rank: two stable counting passes (by `b`, then by `a`),
/// `O(pairs + nodes)` and no comparison sort. Each pass reads its input
/// in order and moves the pairs themselves, so the open reads them in
/// order too. The plan keeps its own order until here, because its
/// calibration sums affinities in it.
pub(super) fn rank(pairs: Vec<PlannedPair>, nodes: usize) -> Vec<PlannedPair> {
    let pass = |pairs: Vec<PlannedPair>, endpoint: fn(&PlannedPair) -> NodeId| {
        let mut next = vec![0usize; nodes + 1];
        for p in &pairs {
            next[endpoint(p).index() + 1] += 1;
        }
        for v in 1..=nodes {
            next[v] += next[v - 1];
        }
        let mut sorted = pairs.clone();
        for p in pairs {
            let slot = &mut next[endpoint(&p).index()];
            sorted[*slot] = p;
            *slot += 1;
        }
        sorted
    };
    pass(pass(pairs, |p| p.b), |p| p.a)
}

/// A time-ordered stream of synthetic contacts, produced by
/// [`SyntheticTraceBuilder::stream`](super::SyntheticTraceBuilder::stream).
///
/// A k-way heap merge over one lazy per-pair contact process per kept
/// pair. A kept pair costs 120 B ([`heap_bytes`](Self::heap_bytes)): 104
/// B of generator and merge state and a 16-B heap key, whatever the
/// contact count — which is what lets 100k–1M-node traces feed a
/// simulation without ever existing in RAM. The plan-wide constants are
/// held once, and the rare equal-start group sits in one stream-wide
/// store. Yields exactly the contacts of
/// [`SyntheticTraceBuilder::build`](super::SyntheticTraceBuilder::build)
/// in `(start, a, b, end)` order.
pub struct ContactStream {
    nodes: usize,
    trace_duration: Duration,
    constants: PlanConstants,
    /// The kept pairs in `(a, b)` order: an index is the pair's rank.
    pairs: Vec<PairStream>,
    /// One [`merge_key`] per pair with a contact pending.
    heap: BinaryHeap<Reverse<u128>>,
    /// The unsent rest of each open equal-start group, by rank.
    groups: IdMap<u32, Vec<Time>>,
}

impl ContactStream {
    pub(super) fn new(plan: TracePlan) -> Self {
        let c = plan.constants;
        assert!(
            u32::try_from(plan.pairs.len()).is_ok(),
            "a stream ranks at most 2^32 pairs"
        );
        let mut pairs: Vec<PairStream> = rank(plan.pairs, plan.nodes)
            .iter()
            .map(|p| PairStream::open(p, &c))
            .collect();
        let mut keys = Vec::with_capacity(pairs.len());
        let mut groups = IdMap::default();
        for (rank, pair) in (0u32..).zip(pairs.iter_mut()) {
            if let Some((start, end)) = pair.advance(rank, Time::ZERO, &mut groups, &c) {
                pair.head_end = end;
                keys.push(merge_key(start, rank));
            }
        }
        ContactStream {
            nodes: plan.nodes,
            trace_duration: plan.trace_duration,
            constants: c,
            pairs,
            heap: BinaryHeap::from(keys),
            groups,
        }
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

    /// Bytes of heap the stream holds: the pairs, the merge heap's
    /// slots, and the open equal-start groups (the group table counted
    /// by its capacity, one control byte per slot).
    pub fn heap_bytes(&self) -> usize {
        self.pairs.capacity() * size_of::<PairStream>()
            + self.heap.capacity() * size_of::<Reverse<u128>>()
            + self.groups.capacity() * (size_of::<(u32, Vec<Time>)>() + 1)
            + self
                .groups
                .values()
                .map(|rest| rest.capacity() * size_of::<Time>())
                .sum::<usize>()
    }
}

impl Iterator for ContactStream {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        // The popped pair's next contact replaces its key in place: one
        // sift down, not a pop and a push.
        let mut top = self.heap.peek_mut()?;
        let Reverse(key) = *top;
        let (start, rank) = (Time((key >> 32) as u64), key as u32);
        let pair = &mut self.pairs[rank as usize];
        let contact = Contact::new(pair.a, pair.b, start, pair.head_end);
        match pair.advance(rank, start, &mut self.groups, &self.constants) {
            Some((next_start, end)) => {
                pair.head_end = end;
                *top = merge_key(next_start, rank);
            }
            None => {
                PeekMut::pop(top);
            }
        }
        Some(contact)
    }
}
