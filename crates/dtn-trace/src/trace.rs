//! The contact trace data model.

use dtn_core::ids::NodeId;
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};

/// One contact: two nodes are within radio range during `[start, end)`.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::time::Time;
/// use dtn_trace::trace::Contact;
///
/// let c = Contact::new(NodeId(3), NodeId(1), Time(100), Time(220));
/// // endpoints are normalised so that a < b
/// assert_eq!(c.a, NodeId(1));
/// assert_eq!(c.b, NodeId(3));
/// assert_eq!(c.duration().as_secs(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Contact {
    /// Lower-numbered endpoint.
    pub a: NodeId,
    /// Higher-numbered endpoint.
    pub b: NodeId,
    /// Instant the two nodes come into range.
    pub start: Time,
    /// Instant the contact ends (exclusive).
    pub end: Time,
}

impl Contact {
    /// Creates a contact, normalising the endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if `x == y` or `end <= start`.
    pub fn new(x: NodeId, y: NodeId, start: Time, end: Time) -> Self {
        assert_ne!(x, y, "a node does not contact itself");
        assert!(end > start, "contact must have positive duration");
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        Contact { a, b, start, end }
    }

    /// How long the two nodes stay in range.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// The key a trace orders its contacts by.
    pub(crate) fn trace_order(&self) -> (Time, NodeId, NodeId, Time) {
        (self.start, self.a, self.b, self.end)
    }

    /// Whether `node` participates in this contact.
    pub fn involves(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of the contact.
    pub fn peer_of(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("{node} is not an endpoint of {self:?}")
        }
    }
}

/// An immutable contact trace: a population of nodes plus a
/// start-time-ordered sequence of contacts.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::time::{Duration, Time};
/// use dtn_trace::trace::{Contact, ContactTrace};
///
/// let trace = ContactTrace::new(
///     3,
///     vec![
///         Contact::new(NodeId(0), NodeId(1), Time(50), Time(60)),
///         Contact::new(NodeId(1), NodeId(2), Time(10), Time(30)),
///     ],
///     Duration::minutes(5),
/// );
/// // contacts are sorted by start time on construction
/// assert_eq!(trace.contacts()[0].start, Time(10));
/// assert_eq!(trace.contact_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContactTrace {
    node_count: usize,
    contacts: Vec<Contact>,
    duration: Duration,
}

impl ContactTrace {
    /// Creates a trace from its contacts, sorting them by start time.
    ///
    /// `duration` is the nominal observation length; it is extended to
    /// cover the last contact if necessary.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0` or any contact references a node
    /// `>= node_count`.
    pub fn new(node_count: usize, mut contacts: Vec<Contact>, duration: Duration) -> Self {
        assert!(node_count > 0, "a trace needs at least one node");
        let mut max_end = Time::ZERO;
        for c in &contacts {
            assert!(
                c.b.index() < node_count,
                "contact {c:?} references a node outside the population of {node_count}"
            );
            max_end = max_end.max(c.end);
        }
        contacts.sort_by_key(Contact::trace_order);
        let duration = Duration(duration.as_secs().max(max_end.as_secs()));
        ContactTrace::from_sorted(node_count, contacts, duration)
    }

    /// Takes contacts already in [`Contact::trace_order`] without sorting
    /// them again (checked in debug builds).
    pub(crate) fn from_sorted(nodes: usize, contacts: Vec<Contact>, duration: Duration) -> Self {
        debug_assert!(contacts.is_sorted_by_key(Contact::trace_order));
        ContactTrace {
            node_count: nodes,
            contacts,
            duration,
        }
    }

    /// Number of nodes in the population.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of contacts.
    pub fn contact_count(&self) -> usize {
        self.contacts.len()
    }

    /// The observation length of the trace.
    pub fn duration(&self) -> Duration {
        self.duration
    }

    /// The contacts, ordered by start time.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// The midpoint of the trace — the paper uses the first half as the
    /// warm-up period and generates all data and queries in the second
    /// half (§VI-A).
    pub fn midpoint(&self) -> Time {
        Time(self.duration.as_secs() / 2)
    }

    /// Builds a [`RateTable`] from all contacts that *start* before
    /// `until`, with rates measured over `[0, until]`.
    ///
    /// This is the administrator's warm-up computation in §IV-A.
    pub fn rate_table(&self, until: Time) -> RateTable {
        let mut table = RateTable::new(self.node_count, Time::ZERO);
        for c in self.contacts.iter().take_while(|c| c.start < until) {
            table.record(c.a, c.b, c.start);
        }
        table
    }

    /// Contacts whose start time lies in `[from, to)`.
    pub fn contacts_between(&self, from: Time, to: Time) -> &[Contact] {
        let lo = self.contacts.partition_point(|c| c.start < from);
        let hi = self.contacts.partition_point(|c| c.start < to);
        &self.contacts[lo..hi]
    }

    /// Extracts the sub-trace of contacts starting in `[from, to)`,
    /// re-based so that `from` becomes time zero.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    ///
    /// # Example
    ///
    /// ```
    /// use dtn_core::ids::NodeId;
    /// use dtn_core::time::{Duration, Time};
    /// use dtn_trace::trace::{Contact, ContactTrace};
    ///
    /// let trace = ContactTrace::new(
    ///     2,
    ///     vec![Contact::new(NodeId(0), NodeId(1), Time(500), Time(520))],
    ///     Duration(1000),
    /// );
    /// let slice = trace.slice(Time(400), Time(600));
    /// assert_eq!(slice.contacts()[0].start, Time(100));
    /// assert_eq!(slice.duration(), Duration(200));
    /// ```
    pub fn slice(&self, from: Time, to: Time) -> ContactTrace {
        assert!(from < to, "slice window must be non-empty");
        let contacts = self
            .contacts_between(from, to)
            .iter()
            .map(|c| {
                Contact::new(
                    c.a,
                    c.b,
                    Time(c.start.as_secs() - from.as_secs()),
                    Time(c.end.as_secs() - from.as_secs()),
                )
            })
            .collect();
        ContactTrace::new(self.node_count, contacts, to - from)
    }

    /// Removes every contact of `node` that starts at or after `from` —
    /// the node fails / leaves the network at that instant. Earlier
    /// contacts (including ones still in progress) are kept.
    ///
    /// Useful for robustness studies: what happens to NCL caching when
    /// a central node dies mid-run?
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    ///
    /// # Example
    ///
    /// ```
    /// use dtn_core::ids::NodeId;
    /// use dtn_core::time::{Duration, Time};
    /// use dtn_trace::trace::{Contact, ContactTrace};
    ///
    /// let trace = ContactTrace::new(
    ///     3,
    ///     vec![
    ///         Contact::new(NodeId(0), NodeId(1), Time(10), Time(20)),
    ///         Contact::new(NodeId(0), NodeId(1), Time(100), Time(120)),
    ///         Contact::new(NodeId(1), NodeId(2), Time(150), Time(160)),
    ///     ],
    ///     Duration(500),
    /// );
    /// let failed = trace.fail_node_after(NodeId(0), Time(50));
    /// assert_eq!(failed.contact_count(), 2);
    /// ```
    pub fn fail_node_after(&self, node: NodeId, from: Time) -> ContactTrace {
        assert!(
            node.index() < self.node_count,
            "{node} outside population of {}",
            self.node_count
        );
        let contacts = self
            .contacts
            .iter()
            .filter(|c| !(c.involves(node) && c.start >= from))
            .copied()
            .collect();
        ContactTrace::new(self.node_count, contacts, self.duration)
    }

    /// Per-node contact counts (degree of activity, not graph degree).
    pub fn node_contact_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.node_count];
        for c in &self.contacts {
            counts[c.a.index()] += 1;
            counts[c.b.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ContactTrace {
        ContactTrace::new(
            4,
            vec![
                Contact::new(NodeId(0), NodeId(1), Time(100), Time(160)),
                Contact::new(NodeId(2), NodeId(3), Time(40), Time(70)),
                Contact::new(NodeId(0), NodeId(1), Time(300), Time(350)),
                Contact::new(NodeId(1), NodeId(2), Time(200), Time(230)),
            ],
            Duration(400),
        )
    }

    #[test]
    fn contacts_sorted_on_construction() {
        let t = sample_trace();
        let starts: Vec<u64> = t.contacts().iter().map(|c| c.start.as_secs()).collect();
        assert_eq!(starts, vec![40, 100, 200, 300]);
    }

    #[test]
    fn duration_extends_to_cover_contacts() {
        let t = ContactTrace::new(
            2,
            vec![Contact::new(NodeId(0), NodeId(1), Time(10), Time(500))],
            Duration(100),
        );
        assert_eq!(t.duration(), Duration(500));
    }

    #[test]
    fn midpoint_is_half_duration() {
        assert_eq!(sample_trace().midpoint(), Time(200));
    }

    #[test]
    fn rate_table_counts_contacts_before_cutoff() {
        let t = sample_trace();
        let table = t.rate_table(Time(200));
        assert_eq!(table.contact_count(NodeId(0), NodeId(1)), 1);
        assert_eq!(table.contact_count(NodeId(2), NodeId(3)), 1);
        assert_eq!(table.contact_count(NodeId(1), NodeId(2)), 0);
        // rate measured over [0, 200]
        assert_eq!(table.rate(NodeId(0), NodeId(1), Time(200)), Some(0.005));
    }

    #[test]
    fn contacts_between_slices_by_start() {
        let t = sample_trace();
        let mid = t.contacts_between(Time(100), Time(300));
        assert_eq!(mid.len(), 2);
        assert_eq!(mid[0].start, Time(100));
        assert_eq!(mid[1].start, Time(200));
        assert!(t.contacts_between(Time(500), Time(600)).is_empty());
    }

    #[test]
    fn contact_normalises_endpoints() {
        let c = Contact::new(NodeId(5), NodeId(2), Time(0), Time(10));
        assert_eq!((c.a, c.b), (NodeId(2), NodeId(5)));
        assert!(c.involves(NodeId(5)));
        assert!(!c.involves(NodeId(3)));
        assert_eq!(c.peer_of(NodeId(2)), NodeId(5));
        assert_eq!(c.peer_of(NodeId(5)), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_contact_panics() {
        let _ = Contact::new(NodeId(0), NodeId(1), Time(10), Time(10));
    }

    #[test]
    #[should_panic(expected = "outside the population")]
    fn out_of_population_contact_panics() {
        let _ = ContactTrace::new(
            2,
            vec![Contact::new(NodeId(0), NodeId(5), Time(0), Time(10))],
            Duration(100),
        );
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn peer_of_non_member_panics() {
        let c = Contact::new(NodeId(0), NodeId(1), Time(0), Time(10));
        let _ = c.peer_of(NodeId(9));
    }

    #[test]
    fn slice_rebases_times() {
        let t = sample_trace();
        let s = t.slice(Time(100), Time(250));
        assert_eq!(s.contact_count(), 2);
        assert_eq!(s.contacts()[0].start, Time(0));
        assert_eq!(s.contacts()[1].start, Time(100));
        assert_eq!(s.duration(), Duration(150));
        assert_eq!(s.node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_slice_panics() {
        let _ = sample_trace().slice(Time(100), Time(100));
    }

    #[test]
    fn contact_counts_per_node() {
        let t = sample_trace();
        let counts = t.node_contact_counts();
        assert_eq!(counts, vec![2, 3, 2, 1]);
    }
}
