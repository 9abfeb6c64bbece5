//! Windowed time-series telemetry ("flight recorder").
//!
//! [`Telemetry`] is the optional window series of a
//! [`RecordingProbe`](crate::probe::RecordingProbe): the recorder folds
//! its event stream into fixed-width simulation-time windows of
//! counters and gauges — deliveries and their delay sum, per-NCL query
//! load and hit credit, transmission byte counts, oracle
//! recompute/reuse deltas, cache occupancy. A ten-day city run that
//! would retain millions of events folds into a few hundred windows of
//! fixed-size counters.
//!
//! The engine dispatches in trace order, so simulation time only moves
//! forward through the probe — the fold is a flat window array indexed
//! by `(at − origin) / width`, preallocated from the horizon hint and
//! touched append-only. Folding is alloc-free after setup except for
//! the window array itself if the run overruns the hint (noted at the
//! foot of [`Telemetry::render_table`], bounded by `MAX_OVERRUN`).
//!
//! Every window counter lives in one [`Counter`]-indexed array, so
//! emptiness, [`Telemetry::totals`] and the capture emitter are loops;
//! the totals are the same [`WindowStats`] summed, which makes
//! conservation against [`Metrics`](crate::metrics::Metrics) a strict
//! equality check, not an approximation.

use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

use dtn_core::time::{Duration, Time};

use crate::engine::DeliveryOutcome;
use crate::probe::{ProbeEvent, QueryTrace};

/// The window array never grows past this multiple of its preallocated
/// length: a far-future timestamp (one malformed imported contact at
/// `t ≈ 10^18`) folds into the last window instead of allocating until
/// the process dies.
const MAX_OVERRUN: usize = 4;

/// Declares the window counters once: the enum, [`Counter::ALL`] and
/// the export names are derived from this list, so a new counter is a
/// one-line addition here plus the fold arm that bumps it.
macro_rules! window_counters {
    ($($(#[$doc:meta])* $variant:ident = $name:literal)*) => {
        /// One additive per-window counter, in export order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in export order.
            pub const ALL: [Counter; [$($name),*].len()] = [$(Counter::$variant),*];

            /// Stable snake-case name, the key of the capture's window
            /// lines.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

window_counters! {
    /// Contacts dispatched (`contact_begin`).
    Contacts = "contacts"
    /// Contacts dropped by fault injection (= `Metrics::contacts_lost`).
    ContactsLost = "contacts_lost"
    /// Workload data items injected (= `Metrics::data_generated`).
    DataInjected = "data_injected"
    /// Workload queries issued (= `Metrics::queries_issued`).
    QueriesIssued = "queries_issued"
    /// In-time deliveries, each satisfying a distinct query
    /// (= `Metrics::queries_satisfied`).
    Deliveries = "deliveries"
    /// Duplicate deliveries (= `Metrics::duplicate_deliveries`).
    DuplicateDeliveries = "duplicate_deliveries"
    /// Deliveries past the query's time constraint
    /// (= `Metrics::late_deliveries`).
    LateDeliveries = "late_deliveries"
    /// Deliveries for queries the engine does not know.
    UnknownDeliveries = "unknown_deliveries"
    /// Sum of in-time delivery delays, seconds
    /// (= `Metrics::total_delay_secs`).
    DelaySumSecs = "delay_sum_secs"
    /// Bytes accepted onto contacts (= `Metrics::bytes_transmitted`).
    BytesTransmitted = "bytes_transmitted"
    /// Transmissions rejected for exceeding the contact budget
    /// (= `Metrics::transfers_rejected`).
    TransfersRejected = "transfers_rejected"
    /// Cache-replacement evictions.
    Replacements = "replacements"
    /// Maintenance epochs fired.
    Epochs = "epochs"
    /// Central-node re-elections applied.
    Reelections = "reelections"
    /// Oracle snapshot invalidations.
    OracleInvalidations = "oracle_invalidations"
    /// Oracle snapshot rebuilds.
    OracleRebuilds = "oracle_rebuilds"
    /// Path-table recomputes (delta of the cumulative counter carried
    /// by `oracle_rebuilt` events).
    OracleRecomputes = "oracle_recomputes"
    /// Path-table hits (delta, as above).
    OracleHits = "oracle_hits"
}

/// Counters and gauges folded from one simulation-time window — or,
/// from [`Telemetry::totals`], summed over all of them. Index by
/// [`Counter`] for the additive counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    counters: [u64; Counter::ALL.len()],
    /// Cached copies at the last occupancy sample in this window
    /// (gauge; valid only when `sampled`).
    pub cache_copies: u64,
    /// Cached bytes at that sample (gauge).
    pub cache_bytes: u64,
    /// Whether an occupancy sample landed in this window.
    pub sampled: bool,
    /// Per-NCL-slot query arrivals at central nodes.
    pub ncl_load: Box<[u64]>,
    /// Per-NCL-slot delivered-query credit: a delivery increments the
    /// slot where its query *first* reached a central node.
    pub ncl_hits: Box<[u64]>,
    /// Central arrivals (load side) whose slot was out of range.
    pub ncl_overflow: u64,
}

impl Index<Counter> for WindowStats {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.counters[counter as usize]
    }
}

impl IndexMut<Counter> for WindowStats {
    fn index_mut(&mut self, counter: Counter) -> &mut u64 {
        &mut self.counters[counter as usize]
    }
}

impl WindowStats {
    fn empty(ncl_slots: usize) -> Self {
        WindowStats {
            counters: [0; Counter::ALL.len()],
            cache_copies: 0,
            cache_bytes: 0,
            sampled: false,
            ncl_load: vec![0; ncl_slots].into_boxed_slice(),
            ncl_hits: vec![0; ncl_slots].into_boxed_slice(),
            ncl_overflow: 0,
        }
    }

    /// Whether nothing at all was recorded in this window.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && !self.sampled && self.ncl_load_total() == 0
    }

    /// Query arrivals at central nodes, overflow slots included
    /// (= the probe's `query_at_central` count).
    pub fn ncl_load_total(&self) -> u64 {
        self.ncl_load.iter().sum::<u64>() + self.ncl_overflow
    }

    /// In-window success rate (`deliveries / queries_issued`), `None`
    /// when no queries were issued — note this relates deliveries to
    /// *issues of the same window*, so it dips below run-level success
    /// when delays push deliveries into later windows.
    fn success_rate(&self) -> Option<f64> {
        let issued = self[Counter::QueriesIssued];
        (issued > 0).then(|| self[Counter::Deliveries] as f64 / issued as f64)
    }
}

/// The flight recorder: fixed windows folded from the event stream of
/// the [`RecordingProbe`](crate::probe::RecordingProbe) it is installed
/// on. See the module docs for the discipline.
#[derive(Debug)]
pub struct Telemetry {
    window_secs: u64,
    origin: Time,
    ncl_slots: usize,
    preallocated: usize,
    windows: Vec<WindowStats>,
    /// Harness-declared overlay intervals: (kind, start, end).
    overlays: Vec<(String, Time, Time)>,
}

impl Telemetry {
    /// A recorder dividing `[origin, origin + horizon]` into `windows`
    /// equal windows, each rounded up to whole seconds and at least 1 s
    /// wide.
    ///
    /// Events before the origin (there should be none — install
    /// telemetry at or before the measurement start) clamp into window
    /// 0. The window array is preallocated to cover the horizon;
    /// overrunning it still works (the array grows, up to four times)
    /// but is noted at the foot of [`Telemetry::render_table`]. NCL
    /// slots at or beyond `ncl_slots` land in the per-window overflow
    /// counter.
    pub fn spanning(origin: Time, horizon: Duration, windows: u64, ncl_slots: usize) -> Self {
        let width = horizon.0.div_ceil(windows.max(1)).max(1);
        Telemetry::with_width(origin, width, horizon, ncl_slots)
    }

    /// A recorder of `width`-second windows (`width > 0`) from `origin`,
    /// preallocated to cover `horizon`.
    fn with_width(origin: Time, width: u64, horizon: Duration, ncl_slots: usize) -> Self {
        let prealloc = (horizon.0 / width + 1) as usize;
        Telemetry {
            window_secs: width,
            origin,
            ncl_slots,
            preallocated: prealloc,
            windows: (0..prealloc)
                .map(|_| WindowStats::empty(ncl_slots))
                .collect(),
            overlays: Vec::new(),
        }
    }

    /// Declares that an overlay regime was active over `[start, end)`;
    /// windows overlapping the interval carry the `kind` flag in the
    /// export and the rendered table.
    pub fn mark_overlay(&mut self, kind: &str, start: Time, end: Time) {
        self.overlays.push((kind.to_string(), start, end));
    }

    /// Window width in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Simulation time of window 0's left edge.
    pub fn origin(&self) -> Time {
        self.origin
    }

    /// The folded windows (trailing all-empty windows included).
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Whether recording outgrew the preallocated horizon (the array
    /// reallocated mid-run, or events past four times the horizon
    /// folded into the last window — sums are still exact).
    fn overran_hint(&self) -> bool {
        self.windows.len() > self.preallocated
    }

    /// Overlay kinds active in window `index`.
    pub fn overlays_in(&self, index: usize) -> Vec<&str> {
        let start = self.origin.0 + index as u64 * self.window_secs;
        let end = start + self.window_secs;
        self.overlays
            .iter()
            .filter(|(_, s, e)| s.0 < end && e.0 > start)
            .map(|(k, _, _)| k.as_str())
            .collect()
    }

    fn window_mut(&mut self, at: Time) -> &mut WindowStats {
        let last = (self.preallocated * MAX_OVERRUN - 1) as u64;
        let idx = (at.0.saturating_sub(self.origin.0) / self.window_secs).min(last) as usize;
        while self.windows.len() <= idx {
            self.windows.push(WindowStats::empty(self.ncl_slots));
        }
        &mut self.windows[idx]
    }

    /// Sums every window into whole-run totals (gauges stay zero).
    pub fn totals(&self) -> WindowStats {
        let mut t = WindowStats::empty(self.ncl_slots);
        for w in &self.windows {
            for c in Counter::ALL {
                t[c] += w[c];
            }
            for (sum, lane) in t.ncl_load.iter_mut().zip(w.ncl_load.iter()) {
                *sum += lane;
            }
            for (sum, lane) in t.ncl_hits.iter_mut().zip(w.ncl_hits.iter()) {
                *sum += lane;
            }
            t.ncl_overflow += w.ncl_overflow;
        }
        t
    }

    /// Renders the series as an over-time table (one row per non-empty
    /// window) — the body of `experiments timeline`.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>8} {:>8} {:>7} {:>6} {:>9} {:>10} {:>9} {:>9} overlays",
            "win",
            "t_start",
            "contacts",
            "queries",
            "deliv",
            "succ%",
            "delay_h",
            "tx_MB",
            "ncl_load",
            "orc_rc/h"
        );
        for (i, w) in self.windows.iter().enumerate() {
            if w.is_empty() {
                continue;
            }
            let start = self.origin.0 + i as u64 * self.window_secs;
            let succ = w
                .success_rate()
                .map_or("-".to_string(), |r| format!("{:.1}", r * 100.0));
            let delay_h = if w[Counter::Deliveries] > 0 {
                format!(
                    "{:.2}",
                    w[Counter::DelaySumSecs] as f64 / w[Counter::Deliveries] as f64 / 3600.0
                )
            } else {
                "-".to_string()
            };
            let overlays = self.overlays_in(i).join("+");
            let _ = writeln!(
                out,
                "{:>4} {:>10} {:>8} {:>8} {:>7} {:>6} {:>9} {:>10.2} {:>9} {:>4}/{:<4} {}",
                i,
                start,
                w[Counter::Contacts],
                w[Counter::QueriesIssued],
                w[Counter::Deliveries],
                succ,
                delay_h,
                w[Counter::BytesTransmitted] as f64 / (1024.0 * 1024.0),
                w.ncl_load_total(),
                w[Counter::OracleRecomputes],
                w[Counter::OracleHits],
                overlays
            );
        }
        if self.overran_hint() {
            let _ = writeln!(out, "(window array overran its horizon hint)");
        }
        out
    }

    /// Folds one event into its window. `traces` are the recorder's
    /// query traces (for the first-central slot a delivery credits) and
    /// `oracle_before` its cumulative `(recomputes, hits)` as of the
    /// previous `oracle_rebuilt`.
    pub(crate) fn fold(
        &mut self,
        event: &ProbeEvent,
        traces: &BTreeMap<u64, QueryTrace>,
        oracle_before: (u64, u64),
    ) {
        use Counter::*;
        match *event {
            ProbeEvent::ContactBegin { at, .. } => self.window_mut(at)[Contacts] += 1,
            ProbeEvent::ContactLost { at, .. } => self.window_mut(at)[ContactsLost] += 1,
            ProbeEvent::DataInjected { at, .. } => self.window_mut(at)[DataInjected] += 1,
            ProbeEvent::QueryInjected { at, .. } => self.window_mut(at)[QueriesIssued] += 1,
            ProbeEvent::EpochFired { at, .. } => self.window_mut(at)[Epochs] += 1,
            ProbeEvent::TransmitAccepted { at, bytes } => {
                self.window_mut(at)[BytesTransmitted] += bytes;
            }
            ProbeEvent::TransmitRejected { at, .. } => self.window_mut(at)[TransfersRejected] += 1,
            ProbeEvent::Delivery { at, query, outcome } => match outcome {
                DeliveryOutcome::Accepted { delay } => {
                    let slot = traces.get(&query.0).and_then(|t| t.first_central_ncl);
                    let w = self.window_mut(at);
                    w[Deliveries] += 1;
                    w[DelaySumSecs] += delay.as_secs();
                    if let Some(hits) = slot.and_then(|s| w.ncl_hits.get_mut(s)) {
                        *hits += 1;
                    }
                }
                DeliveryOutcome::Duplicate => self.window_mut(at)[DuplicateDeliveries] += 1,
                DeliveryOutcome::Late => self.window_mut(at)[LateDeliveries] += 1,
                DeliveryOutcome::Unknown => self.window_mut(at)[UnknownDeliveries] += 1,
            },
            ProbeEvent::CacheSampled { at, copies, bytes } => {
                let w = self.window_mut(at);
                w.cache_copies = copies;
                w.cache_bytes = bytes;
                w.sampled = true;
            }
            ProbeEvent::QueryAtCentral { at, ncl, .. } => {
                let w = self.window_mut(at);
                match w.ncl_load.get_mut(ncl) {
                    Some(load) => *load += 1,
                    None => w.ncl_overflow += 1,
                }
            }
            ProbeEvent::ReplacementEvicted { at, .. } => self.window_mut(at)[Replacements] += 1,
            ProbeEvent::CentralReelected { at, .. } => self.window_mut(at)[Reelections] += 1,
            ProbeEvent::OracleRebuilt {
                at,
                table_recomputes,
                table_hits,
                ..
            } => {
                let w = self.window_mut(at);
                w[OracleRebuilds] += 1;
                w[OracleRecomputes] += table_recomputes.saturating_sub(oracle_before.0);
                w[OracleHits] += table_hits.saturating_sub(oracle_before.1);
            }
            ProbeEvent::OracleInvalidated { at } => {
                self.window_mut(at)[OracleInvalidations] += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Counter::*;
    use super::*;
    use crate::probe::{Probe, RecordingProbe};
    use dtn_core::ids::{DataId, NodeId, QueryId};

    /// A recorder folding into a window series with the given layout.
    struct Recorder(RecordingProbe);

    impl Recorder {
        fn record(&mut self, event: &ProbeEvent) {
            self.0.record(event);
        }
    }

    impl std::ops::Deref for Recorder {
        type Target = Telemetry;

        fn deref(&self) -> &Telemetry {
            self.0.telemetry().expect("series installed")
        }
    }

    fn telemetry_from(origin: u64, window: u64, horizon: u64, slots: usize) -> Recorder {
        let series = Telemetry::with_width(Time(origin), window, Duration(horizon), slots);
        Recorder(
            RecordingProbe::new()
                .without_event_stream()
                .with_telemetry(series),
        )
    }

    fn telemetry(window: u64, horizon: u64, slots: usize) -> Recorder {
        telemetry_from(0, window, horizon, slots)
    }

    fn inject(t: &mut Recorder, q: u64, at: u64) {
        t.record(&ProbeEvent::QueryInjected {
            at: Time(at),
            query: QueryId(q),
            requester: NodeId(1),
            data: DataId(0),
            expires_at: Time(at + 1000),
        });
    }

    fn deliver(t: &mut Recorder, q: u64, at: u64, delay: u64) {
        t.record(&ProbeEvent::Delivery {
            at: Time(at),
            query: QueryId(q),
            outcome: DeliveryOutcome::Accepted {
                delay: Duration(delay),
            },
        });
    }

    #[test]
    fn events_land_in_their_windows() {
        let mut t = telemetry(100, 1000, 2);
        inject(&mut t, 0, 10);
        inject(&mut t, 1, 150);
        deliver(&mut t, 0, 250, 240);
        t.record(&ProbeEvent::ContactBegin {
            at: Time(950),
            a: NodeId(0),
            b: NodeId(1),
            budget: 1,
        });
        assert_eq!(t.windows()[0][QueriesIssued], 1);
        assert_eq!(t.windows()[1][QueriesIssued], 1);
        assert_eq!(t.windows()[2][Deliveries], 1);
        assert_eq!(t.windows()[2][DelaySumSecs], 240);
        assert_eq!(t.windows()[9][Contacts], 1);
        assert!(!t.overran_hint());
        let totals = t.totals();
        assert_eq!(totals[QueriesIssued], 2);
        assert_eq!(totals[Deliveries], 1);
        assert_eq!(totals[DelaySumSecs], 240);
    }

    #[test]
    fn window_array_grows_past_the_hint() {
        let mut t = telemetry(10, 100, 1);
        inject(&mut t, 0, 250);
        assert!(t.overran_hint());
        assert_eq!(t.windows()[25][QueriesIssued], 1);
        assert_eq!(t.totals()[QueriesIssued], 1);
    }

    #[test]
    fn far_future_timestamp_folds_into_a_bounded_last_window() {
        // One contact at t ≈ 10^18 from a malformed imported trace used
        // to grow the array window by window until the process died.
        let mut t = telemetry(10, 100, 1);
        let prealloc = t.windows().len();
        inject(&mut t, 0, 5);
        t.record(&ProbeEvent::ContactBegin {
            at: Time(u64::MAX / 2),
            a: NodeId(0),
            b: NodeId(1),
            budget: 1,
        });
        inject(&mut t, 1, u64::MAX / 2 + 7);
        assert_eq!(t.windows().len(), prealloc * MAX_OVERRUN);
        assert!(t.overran_hint());
        let last = t.windows().last().expect("non-empty series");
        assert_eq!((last[Contacts], last[QueriesIssued]), (1, 1));
        // Conservation is untouched: the sums still see every event.
        let totals = t.totals();
        assert_eq!((totals[Contacts], totals[QueriesIssued]), (1, 2));
    }

    #[test]
    fn ncl_hit_credits_the_first_central_slot_in_the_delivery_window() {
        let mut t = telemetry(100, 1000, 3);
        inject(&mut t, 7, 10);
        t.record(&ProbeEvent::QueryAtCentral {
            at: Time(50),
            query: QueryId(7),
            ncl: 2,
        });
        // A later arrival at another slot must not steal the credit.
        t.record(&ProbeEvent::QueryAtCentral {
            at: Time(60),
            query: QueryId(7),
            ncl: 0,
        });
        deliver(&mut t, 7, 250, 240);
        assert_eq!(t.windows()[0].ncl_load, vec![1, 0, 1].into_boxed_slice());
        assert_eq!(t.windows()[2].ncl_hits, vec![0, 0, 1].into_boxed_slice());
        let totals = t.totals();
        assert_eq!(totals.ncl_load_total(), 2);
        assert_eq!(totals.ncl_hits.iter().sum::<u64>(), 1);
    }

    #[test]
    fn out_of_range_slots_count_as_overflow_not_panic() {
        let mut t = telemetry(100, 1000, 2);
        inject(&mut t, 0, 10);
        t.record(&ProbeEvent::QueryAtCentral {
            at: Time(20),
            query: QueryId(0),
            ncl: 17,
        });
        deliver(&mut t, 0, 30, 20);
        assert_eq!(t.windows()[0].ncl_overflow, 1);
        // Overflow first-central slots earn no per-slot hit credit.
        assert!(t.windows()[0].ncl_hits.iter().all(|&h| h == 0));
        assert_eq!(t.totals().ncl_load_total(), 1);
    }

    #[test]
    fn oracle_counters_fold_cumulative_into_deltas() {
        let mut t = telemetry(100, 1000, 1);
        t.record(&ProbeEvent::OracleRebuilt {
            at: Time(10),
            epoch: 1,
            table_recomputes: 40,
            table_hits: 100,
        });
        t.record(&ProbeEvent::OracleRebuilt {
            at: Time(150),
            epoch: 2,
            table_recomputes: 70,
            table_hits: 180,
        });
        assert_eq!(t.windows()[0][OracleRecomputes], 40);
        assert_eq!(t.windows()[0][OracleHits], 100);
        assert_eq!(t.windows()[1][OracleRecomputes], 30);
        assert_eq!(t.windows()[1][OracleHits], 80);
        let totals = t.totals();
        assert_eq!(totals[OracleRebuilds], 2);
        assert_eq!(totals[OracleRecomputes], 70);
        assert_eq!(totals[OracleHits], 180);
    }

    #[test]
    fn delivery_outcomes_split_and_gauges_keep_last_sample() {
        let mut t = telemetry(100, 1000, 1);
        inject(&mut t, 0, 10);
        deliver(&mut t, 0, 20, 10);
        t.record(&ProbeEvent::Delivery {
            at: Time(30),
            query: QueryId(0),
            outcome: DeliveryOutcome::Duplicate,
        });
        t.record(&ProbeEvent::Delivery {
            at: Time(40),
            query: QueryId(0),
            outcome: DeliveryOutcome::Late,
        });
        t.record(&ProbeEvent::CacheSampled {
            at: Time(50),
            copies: 5,
            bytes: 1000,
        });
        t.record(&ProbeEvent::CacheSampled {
            at: Time(60),
            copies: 7,
            bytes: 2000,
        });
        let w = &t.windows()[0];
        assert_eq!(
            (w[Deliveries], w[DuplicateDeliveries], w[LateDeliveries]),
            (1, 1, 1)
        );
        assert!(w.sampled);
        assert_eq!((w.cache_copies, w.cache_bytes), (7, 2000));
        assert_eq!(w.success_rate(), Some(1.0));
    }

    #[test]
    fn overlay_marks_flag_overlapping_windows() {
        let mut series = Telemetry::spanning(Time(0), Duration(1000), 10, 1);
        series.mark_overlay("ncl-blackout", Time(150), Time(350));
        let mut t = Recorder(RecordingProbe::new().with_telemetry(series));
        inject(&mut t, 0, 50);
        inject(&mut t, 1, 250);
        assert!(t.overlays_in(0).is_empty());
        assert_eq!(t.overlays_in(1), vec!["ncl-blackout"]);
        assert_eq!(t.overlays_in(2), vec!["ncl-blackout"]);
        assert_eq!(t.overlays_in(3), vec!["ncl-blackout"]);
        assert!(t.overlays_in(4).is_empty());
        let table = t.render_table();
        assert!(table.contains("ncl-blackout"));
    }

    #[test]
    fn pre_origin_events_clamp_into_window_zero() {
        let mut t = telemetry_from(500, 100, 1000, 1);
        inject(&mut t, 0, 450); // before the origin
        inject(&mut t, 1, 510);
        assert_eq!(t.windows()[0][QueriesIssued], 2);
    }

    #[test]
    fn spanning_layout_rounds_width_up() {
        let t = Telemetry::spanning(Time(0), Duration(1001), 10, 4);
        assert_eq!(t.window_secs(), 101);
        assert_eq!(t.ncl_slots, 4);
        // Degenerate inputs still give a positive width.
        assert_eq!(
            Telemetry::spanning(Time(0), Duration(0), 0, 1).window_secs(),
            1
        );
    }

    #[test]
    fn partial_final_window_covers_the_horizon_remainder() {
        // horizon 250 at width 100: the layout needs a third, partial
        // window. Preallocation rounds up, so the final window covers
        // [200, 300) — events up to and past the 250 s horizon (late
        // deliveries of in-horizon queries) fold into it without
        // growing the array, and conservation holds across the
        // remainder.
        let mut t = telemetry(100, 250, 1);
        assert_eq!(t.windows().len(), 3);
        inject(&mut t, 0, 240); // inside the horizon
        inject(&mut t, 1, 250); // exactly at the horizon
        deliver(&mut t, 0, 299, 59); // trailing event past the horizon
        assert!(!t.overran_hint(), "remainder events fit the prealloc");
        assert_eq!(t.windows()[2][QueriesIssued], 2);
        assert_eq!(t.windows()[2][Deliveries], 1);
        let totals = t.totals();
        assert_eq!(totals[QueriesIssued], 2);
        assert_eq!(totals[Deliveries], 1);
        assert_eq!(totals[DelaySumSecs], 59);
        // One second past the remainder window grows the array (exact
        // accounting, flagged hint overrun).
        inject(&mut t, 2, 300);
        assert!(t.overran_hint());
        assert_eq!(t.windows()[3][QueriesIssued], 1);
        assert_eq!(t.totals()[QueriesIssued], 3);
    }

    #[test]
    fn exact_multiple_horizon_still_accepts_boundary_events() {
        // horizon 200 at width 100: windows [0,100) and [100,200) cover
        // the span, and the rounding rule keeps one spare window so an
        // event at exactly t=200 (closing sample, end-of-run epoch)
        // lands without growing the array.
        let mut t = telemetry(100, 200, 1);
        assert_eq!(t.windows().len(), 3);
        inject(&mut t, 0, 200);
        assert!(!t.overran_hint());
        assert_eq!(t.windows()[2][QueriesIssued], 1);
    }
}
