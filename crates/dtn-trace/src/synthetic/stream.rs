//! [`ContactStream`]: the lazy per-pair contact generators and their
//! k-way merge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};

use super::plan::{PlannedPair, TracePlan};
use crate::process::{ContactProcess, PairSampler};
use crate::trace::Contact;

/// Lazy generator of one pair's raw contact sequence — the pluggable
/// session process (`ContactProcess`) with geometric re-detection
/// runs, emitted one contact at a time. Both generation paths run this
/// exact state machine, so their per-pair sequences are identical by
/// construction.
pub(super) struct PairContacts {
    a: NodeId,
    b: NodeId,
    rng: StdRng,
    sampler: PairSampler,
    burstiness: f64,
    granularity_secs: u64,
    duration_secs: u64,
    span: f64,
    /// Continuous session-process clock.
    t: f64,
    /// Start slot of the next contact in the current run.
    session_t: u64,
    /// Contacts left in the current run.
    run_left: u64,
    /// Whether a run is open (its end-of-run clock update still due).
    in_run: bool,
    done: bool,
}

impl PairContacts {
    pub(super) fn new(pair: &PlannedPair, plan: &TracePlan) -> Self {
        PairContacts {
            a: pair.a,
            b: pair.b,
            rng: StdRng::seed_from_u64(pair.rng_seed),
            sampler: plan.process.sampler(pair.session_rate, pair.rng_seed),
            burstiness: plan.burstiness,
            granularity_secs: plan.granularity_secs,
            duration_secs: plan.trace_duration.as_secs(),
            span: plan.span,
            t: 0.0,
            session_t: 0,
            run_left: 0,
            in_run: false,
            done: false,
        }
    }

    /// The next raw contact in generation order (starts nondecreasing;
    /// `(start, end)` may be locally inverted across run boundaries when
    /// truncation ties two starts — [`PairStream`] restores full order).
    pub(super) fn next_raw(&mut self) -> Option<Contact> {
        if self.done {
            return None;
        }
        let g = self.granularity_secs;
        loop {
            if self.run_left == 0 {
                if self.in_run {
                    // Resume the session process from the start of the
                    // run's last contact (a renewal restart; for the
                    // memoryless Poisson reference this is exactly the
                    // pre-trait continuation, and for single-contact
                    // sessions `t` is unchanged).
                    self.t = self.t.max(self.session_t.saturating_sub(g) as f64);
                    self.in_run = false;
                }
                self.t = self.sampler.next_session(self.t, &mut self.rng);
                if self.t >= self.span {
                    self.done = true;
                    return None;
                }
                self.run_left = if self.burstiness > 1.0 {
                    // Geometric with mean B: 1 + floor(ln u / ln(1 − 1/B))
                    let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                    1 + (u.ln() / (1.0 - 1.0 / self.burstiness).ln()) as u64
                } else {
                    1
                };
                self.session_t = self.t as u64;
                self.in_run = true;
            }
            if self.session_t >= self.duration_secs {
                // The rest of the run falls past the observation end.
                self.run_left = 0;
                continue;
            }
            self.run_left -= 1;
            let start = Time(self.session_t);
            let len = self.rng.gen_range(g.div_ceil(2)..=g + g / 2).max(1);
            let end = Time((self.session_t + len).min(self.duration_secs.max(self.session_t + 1)));
            // Next re-detection one granularity later.
            self.session_t += g;
            if end > start {
                return Some(Contact::new(self.a, self.b, start, end));
            }
        }
    }
}

/// Wraps a [`PairContacts`] to emit the pair's contacts in full
/// `(start, end)` order: raw contacts arrive with nondecreasing starts,
/// so buffering each group of equal starts and stable-sorting it by end
/// reproduces exactly what the materialized path's global stable sort
/// does within the pair.
struct PairStream {
    gen: PairContacts,
    /// Contacts sharing the current start, sorted by end.
    group: Vec<Contact>,
    group_pos: usize,
    /// First raw contact with a later start, pulled while grouping.
    lookahead: Option<Contact>,
}

impl PairStream {
    fn new(gen: PairContacts) -> Self {
        PairStream {
            gen,
            group: Vec::new(),
            group_pos: 0,
            lookahead: None,
        }
    }

    fn next_contact(&mut self) -> Option<Contact> {
        if self.group_pos < self.group.len() {
            let c = self.group[self.group_pos];
            self.group_pos += 1;
            return Some(c);
        }
        self.group.clear();
        self.group_pos = 0;
        let first = self.lookahead.take().or_else(|| self.gen.next_raw())?;
        let start = first.start;
        self.group.push(first);
        loop {
            match self.gen.next_raw() {
                Some(c) if c.start == start => self.group.push(c),
                other => {
                    self.lookahead = other;
                    break;
                }
            }
        }
        // Stable by end: ties keep generation order, matching the
        // materialized path's stable global sort.
        self.group.sort_by_key(|c| c.end);
        self.group_pos = 1;
        Some(self.group[0])
    }
}

/// Entry of the k-way merge: one pair's next contact, ordered by the
/// trace sort key `(start, a, b, end)`.
struct MergeEntry {
    contact: Contact,
    pair: usize,
}

impl MergeEntry {
    fn key(&self) -> (Time, NodeId, NodeId, Time) {
        (
            self.contact.start,
            self.contact.a,
            self.contact.b,
            self.contact.end,
        )
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for ascending emission.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered stream of synthetic contacts, produced by
/// [`SyntheticTraceBuilder::stream`](super::SyntheticTraceBuilder::stream).
///
/// A k-way heap merge over one lazy per-pair contact process per kept
/// pair: memory is `O(kept pairs)` and independent of the contact
/// count, which is what lets 100k–1M-node traces feed a simulation
/// without ever existing in RAM. Yields exactly the contacts of
/// [`SyntheticTraceBuilder::build`](super::SyntheticTraceBuilder::build) in `(start, a, b, end)` order.
pub struct ContactStream {
    nodes: usize,
    trace_duration: Duration,
    pairs: Vec<PairStream>,
    heap: std::collections::BinaryHeap<MergeEntry>,
}

impl ContactStream {
    pub(super) fn new(plan: TracePlan) -> Self {
        let mut pairs: Vec<PairStream> = plan
            .pairs
            .iter()
            .map(|p| PairStream::new(PairContacts::new(p, &plan)))
            .collect();
        let mut heap = std::collections::BinaryHeap::with_capacity(pairs.len());
        for (idx, pair) in pairs.iter_mut().enumerate() {
            if let Some(contact) = pair.next_contact() {
                heap.push(MergeEntry { contact, pair: idx });
            }
        }
        ContactStream {
            nodes: plan.nodes,
            trace_duration: plan.trace_duration,
            pairs,
            heap,
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
}

impl Iterator for ContactStream {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        let entry = self.heap.pop()?;
        if let Some(contact) = self.pairs[entry.pair].next_contact() {
            self.heap.push(MergeEntry {
                contact,
                pair: entry.pair,
            });
        }
        Some(entry.contact)
    }
}
