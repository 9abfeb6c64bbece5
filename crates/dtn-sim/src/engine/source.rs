//! Where the simulator's contacts come from.

use dtn_core::time::{Duration, Time};
use dtn_trace::trace::{Contact, ContactTrace};

/// Where the simulator's contacts come from: a cursor over a
/// time-ordered contact sequence.
///
/// Implemented by [`TraceSource`] (a materialized [`ContactTrace`] —
/// the classic path) and [`StreamSource`] (any time-ordered contact
/// iterator, e.g. `SyntheticTraceBuilder::stream`, which is what lets
/// city-scale populations run without the trace ever existing in RAM).
pub trait ContactSource {
    /// Number of nodes in the population.
    fn node_count(&self) -> usize;

    /// The observation end: the simulation's natural stopping time.
    /// Every contact starts before or at it.
    fn end_time(&self) -> Time;

    /// The next contact, without consuming it. Repeated calls return
    /// the same contact until [`ContactSource::advance`].
    fn peek(&mut self) -> Option<Contact>;

    /// Consumes the contact last returned by [`ContactSource::peek`].
    fn advance(&mut self);
}

/// A [`ContactSource`] replaying a borrowed, materialized
/// [`ContactTrace`].
#[derive(Debug)]
pub struct TraceSource<'t> {
    trace: &'t ContactTrace,
    next: usize,
}

impl<'t> TraceSource<'t> {
    /// Wraps a trace as a contact source (cursor at the beginning).
    pub fn new(trace: &'t ContactTrace) -> Self {
        TraceSource { trace, next: 0 }
    }
}

impl ContactSource for TraceSource<'_> {
    fn node_count(&self) -> usize {
        self.trace.node_count()
    }

    fn end_time(&self) -> Time {
        Time(self.trace.duration().as_secs())
    }

    fn peek(&mut self) -> Option<Contact> {
        self.trace.contacts().get(self.next).copied()
    }

    fn advance(&mut self) {
        self.next += 1;
    }
}

/// A [`ContactSource`] pulling from a time-ordered contact iterator —
/// memory stays whatever the iterator itself holds, regardless of how
/// many contacts flow through.
///
/// # Panics
///
/// Iteration panics if the iterator yields contacts with decreasing
/// start times: event-order violations would silently corrupt every
/// downstream metric, so they fail fast.
#[derive(Debug)]
pub struct StreamSource<I> {
    iter: I,
    nodes: usize,
    end: Time,
    pending: Option<Contact>,
    exhausted: bool,
    last_start: Time,
}

impl<I: Iterator<Item = Contact>> StreamSource<I> {
    /// Wraps a time-ordered contact iterator over `nodes` nodes
    /// observed for `duration`.
    pub fn new(iter: I, nodes: usize, duration: Duration) -> Self {
        StreamSource {
            iter,
            nodes,
            end: Time(duration.as_secs()),
            pending: None,
            exhausted: false,
            last_start: Time::ZERO,
        }
    }
}

impl StreamSource<dtn_trace::synthetic::ContactStream> {
    /// Wraps a synthetic [`ContactStream`], taking the population size
    /// and observation length from the stream itself.
    ///
    /// [`ContactStream`]: dtn_trace::synthetic::ContactStream
    pub fn from_synthetic(stream: dtn_trace::synthetic::ContactStream) -> Self {
        let nodes = stream.node_count();
        let duration = stream.duration();
        StreamSource::new(stream, nodes, duration)
    }
}

impl<I: Iterator<Item = Contact>> ContactSource for StreamSource<I> {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn end_time(&self) -> Time {
        self.end
    }

    fn peek(&mut self) -> Option<Contact> {
        if self.pending.is_none() && !self.exhausted {
            self.pending = self.iter.next();
            match self.pending {
                Some(c) => {
                    assert!(
                        c.start >= self.last_start,
                        "contact stream must be time-ordered: {:?} after {:?}",
                        c.start,
                        self.last_start
                    );
                    self.last_start = c.start;
                }
                None => self.exhausted = true,
            }
        }
        self.pending
    }

    fn advance(&mut self) {
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{gen_event, query_event, DirectDelivery};
    use super::super::{SimConfig, Simulator};
    use super::*;
    use dtn_core::ids::NodeId;
    use dtn_trace::synthetic::SyntheticTraceBuilder;

    #[test]
    fn stream_source_replays_identically_to_trace_source() {
        // The same synthetic population driven once from the
        // materialized trace and once from the streaming generator:
        // every metric must agree bit for bit, because the engine sees
        // the exact same contact sequence.
        let builder = SyntheticTraceBuilder::new(12)
            .duration(Duration::days(1))
            .target_contacts(800)
            .seed(6);
        let trace = builder.build();
        let cfg = SimConfig {
            seed: 4,
            ..SimConfig::default()
        };
        let workload = vec![
            gen_event(1, 0, 1000, 100, 80_000),
            query_event(200, 1, 1, 50_000),
            query_event(900, 5, 1, 50_000),
        ];
        let mut by_trace = Simulator::new(&trace, DirectDelivery::default(), cfg.clone());
        by_trace.add_workload(workload.clone());
        by_trace.run_to_end();
        let mut by_stream = Simulator::from_source(
            StreamSource::from_synthetic(builder.stream()),
            DirectDelivery::default(),
            cfg,
        );
        by_stream.add_workload(workload);
        by_stream.run_to_end();
        assert_eq!(by_trace.metrics(), by_stream.metrics());
        assert_eq!(
            by_trace.rate_table().total_contacts(),
            by_stream.rate_table().total_contacts()
        );
        assert_eq!(
            by_trace.scheme().contacts_seen,
            by_stream.scheme().contacts_seen
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_stream_panics() {
        let contacts = vec![
            Contact::new(NodeId(0), NodeId(1), Time(5000), Time(5100)),
            Contact::new(NodeId(0), NodeId(1), Time(1000), Time(1100)),
        ];
        let source = StreamSource::new(contacts.into_iter(), 2, Duration(10_000));
        let mut sim =
            Simulator::from_source(source, DirectDelivery::default(), SimConfig::default());
        sim.run_to_end();
    }
}
