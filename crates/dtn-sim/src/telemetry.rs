//! Windowed time-series telemetry ("flight recorder").
//!
//! [`Telemetry`] is a [`Probe`] that folds the event stream into
//! fixed-width simulation-time windows of counters and gauges instead
//! of retaining raw events: deliveries and their delay sum, per-NCL
//! query load and hit credit, transmission byte counts, oracle
//! recompute/reuse deltas, cache occupancy. A ten-day city run that
//! would retain millions of events folds into a few hundred windows of
//! fixed-size counters.
//!
//! The engine dispatches in trace order, so simulation time only moves
//! forward through the probe — the fold is a flat window array indexed
//! by `(at − origin) / width`, preallocated from the horizon hint and
//! touched append-only.
//! Recording is alloc-free after setup except for two amortised
//! growths: the per-query first-NCL table (grown on `query_injected`)
//! and the window array itself if the run overruns the hint (tracked in
//! [`Telemetry::overran_hint`]).
//!
//! The JSONL export is versioned ([`Telemetry::SCHEMA`]) so the
//! `experiments compare` run-diff harness can align captures from
//! different builds; [`Telemetry::totals`] sums every window so
//! conservation against [`Metrics`](crate::metrics::Metrics) totals is
//! a strict equality check, not an approximation.

use dtn_core::time::{Duration, Time};

use crate::engine::DeliveryOutcome;
use crate::probe::{Probe, ProbeEvent};

/// No first-central record yet for this query.
const NCL_NONE: u16 = u16::MAX;
/// First-central slot was at or beyond `ncl_slots` (counted as overflow).
const NCL_OVERFLOW: u16 = u16::MAX - 1;

/// Layout of a [`Telemetry`] recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Window width in simulation time.
    pub window: Duration,
    /// Simulation time of window 0's left edge. Events before the
    /// origin (there should be none — install telemetry at or before
    /// the measurement start) clamp into window 0.
    pub origin: Time,
    /// Expected span of the recording, used to preallocate the window
    /// array. Overrunning it still works (the array grows) but is
    /// reported via [`Telemetry::overran_hint`].
    pub horizon: Duration,
    /// Per-NCL slot count for the load/hit columns; slots at or beyond
    /// this land in the per-window overflow counter.
    pub ncl_slots: usize,
}

impl TelemetryConfig {
    /// A layout dividing `[origin, origin + horizon]` into `windows`
    /// equal windows (rounded up to whole seconds).
    pub fn spanning(origin: Time, horizon: Duration, windows: u64, ncl_slots: usize) -> Self {
        TelemetryConfig {
            window: Duration(horizon.0.div_ceil(windows.max(1)).max(1)),
            origin,
            horizon,
            ncl_slots,
        }
    }
}

/// Why a [`TelemetryConfig`] cannot drive a recorder.
///
/// `Duration` is unsigned, so a *negative* width is unrepresentable by
/// construction; zero is the one degenerate layout left to reject —
/// every event would divide into the same (infinite-rate) window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryError {
    /// The window width was zero.
    ZeroWindowWidth,
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::ZeroWindowWidth => {
                write!(f, "telemetry window width must be positive (got 0)")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Counters and gauges folded from one simulation-time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    /// Contacts dispatched (`contact_begin`).
    pub contacts: u64,
    /// Contacts dropped by fault injection.
    pub contacts_lost: u64,
    /// Workload data items injected.
    pub data_injected: u64,
    /// Workload queries issued.
    pub queries_issued: u64,
    /// In-time deliveries (each satisfies a distinct query).
    pub deliveries: u64,
    /// Duplicate deliveries (query already satisfied).
    pub duplicate_deliveries: u64,
    /// Deliveries past the query's time constraint.
    pub late_deliveries: u64,
    /// Deliveries for queries the engine does not know.
    pub unknown_deliveries: u64,
    /// Sum of in-time delivery delays (seconds).
    pub delay_sum_secs: u64,
    /// Bytes accepted onto contacts (`transmit_accepted`).
    pub bytes_transmitted: u64,
    /// Transmissions rejected for exceeding the contact budget.
    pub transfers_rejected: u64,
    /// Cache-replacement evictions.
    pub replacements: u64,
    /// Maintenance epochs fired.
    pub epochs: u64,
    /// Central-node re-elections applied.
    pub reelections: u64,
    /// Oracle snapshot invalidations.
    pub oracle_invalidations: u64,
    /// Oracle snapshot rebuilds.
    pub oracle_rebuilds: u64,
    /// Path-table recomputes this window (delta of the cumulative
    /// counter carried by `oracle_rebuilt` events).
    pub oracle_recomputes: u64,
    /// Path-table hits this window (delta, as above).
    pub oracle_hits: u64,
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

impl WindowStats {
    fn empty(ncl_slots: usize) -> Self {
        WindowStats {
            contacts: 0,
            contacts_lost: 0,
            data_injected: 0,
            queries_issued: 0,
            deliveries: 0,
            duplicate_deliveries: 0,
            late_deliveries: 0,
            unknown_deliveries: 0,
            delay_sum_secs: 0,
            bytes_transmitted: 0,
            transfers_rejected: 0,
            replacements: 0,
            epochs: 0,
            reelections: 0,
            oracle_invalidations: 0,
            oracle_rebuilds: 0,
            oracle_recomputes: 0,
            oracle_hits: 0,
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
        self.contacts == 0
            && self.contacts_lost == 0
            && self.data_injected == 0
            && self.queries_issued == 0
            && self.deliveries == 0
            && self.duplicate_deliveries == 0
            && self.late_deliveries == 0
            && self.unknown_deliveries == 0
            && self.bytes_transmitted == 0
            && self.transfers_rejected == 0
            && self.replacements == 0
            && self.epochs == 0
            && self.reelections == 0
            && self.oracle_invalidations == 0
            && self.oracle_rebuilds == 0
            && !self.sampled
            && self.ncl_overflow == 0
            && self.ncl_load.iter().all(|&c| c == 0)
    }

    /// In-window success rate (`deliveries / queries_issued`), `None`
    /// when no queries were issued — note this relates deliveries to
    /// *issues of the same window*, so it dips below run-level success
    /// when delays push deliveries into later windows.
    pub fn success_rate(&self) -> Option<f64> {
        (self.queries_issued > 0).then(|| self.deliveries as f64 / self.queries_issued as f64)
    }
}

/// Whole-run sums over every window — the conservation surface checked
/// against [`Metrics`](crate::metrics::Metrics) totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryTotals {
    /// Total contacts dispatched.
    pub contacts: u64,
    /// Total contacts lost to fault injection.
    pub contacts_lost: u64,
    /// Total data items injected (= `Metrics::data_generated`).
    pub data_injected: u64,
    /// Total queries issued (= `Metrics::queries_issued`).
    pub queries_issued: u64,
    /// Total in-time deliveries (= `Metrics::queries_satisfied`).
    pub deliveries: u64,
    /// Total duplicate deliveries (= `Metrics::duplicate_deliveries`).
    pub duplicate_deliveries: u64,
    /// Total late deliveries (= `Metrics::late_deliveries`).
    pub late_deliveries: u64,
    /// Total unknown-query deliveries.
    pub unknown_deliveries: u64,
    /// Total delay sum (= `Metrics::total_delay_secs`).
    pub delay_sum_secs: u64,
    /// Total bytes accepted (= `Metrics::bytes_transmitted`).
    pub bytes_transmitted: u64,
    /// Total budget rejections (= `Metrics::transfers_rejected`).
    pub transfers_rejected: u64,
    /// Total replacement evictions.
    pub replacements: u64,
    /// Total epochs fired.
    pub epochs: u64,
    /// Total re-elections.
    pub reelections: u64,
    /// Total oracle invalidations.
    pub oracle_invalidations: u64,
    /// Total oracle rebuilds.
    pub oracle_rebuilds: u64,
    /// Total path-table recomputes (sum of window deltas).
    pub oracle_recomputes: u64,
    /// Total path-table hits (sum of window deltas).
    pub oracle_hits: u64,
    /// Total query arrivals at central nodes, including overflow slots.
    pub ncl_load: u64,
    /// Total delivered-query NCL credits.
    pub ncl_hits: u64,
}

/// The flight recorder: a [`Probe`] folding events into fixed windows.
/// See the module docs for the discipline.
#[derive(Debug)]
pub struct Telemetry {
    window_secs: u64,
    origin: Time,
    ncl_slots: usize,
    preallocated: usize,
    windows: Vec<WindowStats>,
    /// `query id → first central slot` (NCL_NONE until seen).
    query_first_ncl: Vec<u16>,
    last_oracle_recomputes: u64,
    last_oracle_hits: u64,
    /// Harness-declared overlay intervals: (kind, start, end).
    overlays: Vec<(String, Time, Time)>,
}

impl Telemetry {
    /// Version tag of the JSONL window schema. Bump on any change to
    /// the line layout; `experiments compare` refuses unknown versions
    /// rather than misaligning series.
    pub const SCHEMA: &'static str = "dtn-telemetry/2";

    /// A recorder with the given layout; the window array is
    /// preallocated to cover `config.horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the window width is zero. Use
    /// [`Telemetry::try_new`] to handle that as a value instead.
    pub fn new(config: &TelemetryConfig) -> Self {
        match Telemetry::try_new(config) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Telemetry::new`]: rejects a zero window width with a
    /// structured [`TelemetryError`] rather than panicking — the right
    /// entry point when the layout comes from user input (CLI flags,
    /// config files) rather than a programmer constant.
    pub fn try_new(config: &TelemetryConfig) -> Result<Self, TelemetryError> {
        if config.window.0 == 0 {
            return Err(TelemetryError::ZeroWindowWidth);
        }
        let prealloc = (config.horizon.0 / config.window.0 + 1) as usize;
        Ok(Telemetry {
            window_secs: config.window.0,
            origin: config.origin,
            ncl_slots: config.ncl_slots,
            preallocated: prealloc,
            windows: (0..prealloc)
                .map(|_| WindowStats::empty(config.ncl_slots))
                .collect(),
            query_first_ncl: Vec::new(),
            last_oracle_recomputes: 0,
            last_oracle_hits: 0,
            overlays: Vec::new(),
        })
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
    /// reallocated mid-run — accounting is still exact).
    pub fn overran_hint(&self) -> bool {
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
        let idx = (at.0.saturating_sub(self.origin.0) / self.window_secs) as usize;
        while self.windows.len() <= idx {
            self.windows.push(WindowStats::empty(self.ncl_slots));
        }
        &mut self.windows[idx]
    }

    /// Sums every window into whole-run totals.
    pub fn totals(&self) -> TelemetryTotals {
        let mut t = TelemetryTotals::default();
        for w in &self.windows {
            t.contacts += w.contacts;
            t.contacts_lost += w.contacts_lost;
            t.data_injected += w.data_injected;
            t.queries_issued += w.queries_issued;
            t.deliveries += w.deliveries;
            t.duplicate_deliveries += w.duplicate_deliveries;
            t.late_deliveries += w.late_deliveries;
            t.unknown_deliveries += w.unknown_deliveries;
            t.delay_sum_secs += w.delay_sum_secs;
            t.bytes_transmitted += w.bytes_transmitted;
            t.transfers_rejected += w.transfers_rejected;
            t.replacements += w.replacements;
            t.epochs += w.epochs;
            t.reelections += w.reelections;
            t.oracle_invalidations += w.oracle_invalidations;
            t.oracle_rebuilds += w.oracle_rebuilds;
            t.oracle_recomputes += w.oracle_recomputes;
            t.oracle_hits += w.oracle_hits;
            t.ncl_load += w.ncl_load.iter().sum::<u64>() + w.ncl_overflow;
            t.ncl_hits += w.ncl_hits.iter().sum::<u64>();
        }
        t
    }

    /// One `{"type":"window",...}` line per non-empty window (trailing
    /// and interior empty windows are skipped; `index` keeps alignment
    /// exact). The series is preceded elsewhere by a versioned run
    /// header carrying [`Telemetry::SCHEMA`].
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, w) in self.windows.iter().enumerate() {
            if w.is_empty() {
                continue;
            }
            let start = self.origin.0 + i as u64 * self.window_secs;
            let _ = write!(
                out,
                "{{\"type\":\"window\",\"index\":{i},\"start\":{start},\"end\":{}",
                start + self.window_secs
            );
            let _ = write!(
                out,
                ",\"contacts\":{},\"contacts_lost\":{},\"data_injected\":{},\"queries_issued\":{}",
                w.contacts, w.contacts_lost, w.data_injected, w.queries_issued
            );
            let _ = write!(
                out,
                ",\"deliveries\":{},\"duplicate_deliveries\":{},\"late_deliveries\":{},\"unknown_deliveries\":{},\"delay_sum_secs\":{}",
                w.deliveries, w.duplicate_deliveries, w.late_deliveries, w.unknown_deliveries, w.delay_sum_secs
            );
            let _ = write!(
                out,
                ",\"bytes_transmitted\":{},\"transfers_rejected\":{},\"replacements\":{}",
                w.bytes_transmitted, w.transfers_rejected, w.replacements
            );
            let _ = write!(
                out,
                ",\"epochs\":{},\"reelections\":{},\"oracle_invalidations\":{},\"oracle_rebuilds\":{},\"oracle_recomputes\":{},\"oracle_hits\":{}",
                w.epochs, w.reelections, w.oracle_invalidations, w.oracle_rebuilds, w.oracle_recomputes, w.oracle_hits
            );
            if w.sampled {
                let _ = write!(
                    out,
                    ",\"cache_copies\":{},\"cache_bytes\":{}",
                    w.cache_copies, w.cache_bytes
                );
            }
            let join = |xs: &[u64]| {
                xs.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = write!(
                out,
                ",\"ncl_load\":[{}],\"ncl_hits\":[{}],\"ncl_overflow\":{}",
                join(&w.ncl_load),
                join(&w.ncl_hits),
                w.ncl_overflow
            );
            let overlays = self.overlays_in(i);
            if !overlays.is_empty() {
                let list = overlays
                    .iter()
                    .map(|k| format!("\"{k}\""))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(out, ",\"overlays\":[{list}]");
            }
            out.push_str("}\n");
        }
        out
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
            let delay_h = if w.deliveries > 0 {
                format!(
                    "{:.2}",
                    w.delay_sum_secs as f64 / w.deliveries as f64 / 3600.0
                )
            } else {
                "-".to_string()
            };
            let load: u64 = w.ncl_load.iter().sum::<u64>() + w.ncl_overflow;
            let overlays = self.overlays_in(i).join("+");
            let _ = writeln!(
                out,
                "{:>4} {:>10} {:>8} {:>8} {:>7} {:>6} {:>9} {:>10.2} {:>9} {:>4}/{:<4} {}",
                i,
                start,
                w.contacts,
                w.queries_issued,
                w.deliveries,
                succ,
                delay_h,
                w.bytes_transmitted as f64 / (1024.0 * 1024.0),
                load,
                w.oracle_recomputes,
                w.oracle_hits,
                overlays
            );
        }
        if self.overran_hint() {
            let _ = writeln!(out, "(window array overran its horizon hint)");
        }
        out
    }

    fn note_first_central(&mut self, query: u64, slot: u16) {
        let idx = query as usize;
        if idx >= self.query_first_ncl.len() {
            self.query_first_ncl.resize(idx + 1, NCL_NONE);
        }
        if self.query_first_ncl[idx] == NCL_NONE {
            self.query_first_ncl[idx] = slot;
        }
    }
}

impl Probe for Telemetry {
    fn record(&mut self, event: &ProbeEvent) {
        match *event {
            ProbeEvent::ContactBegin { at, .. } => self.window_mut(at).contacts += 1,
            ProbeEvent::ContactEnd { .. } => {}
            ProbeEvent::ContactLost { at, .. } => self.window_mut(at).contacts_lost += 1,
            ProbeEvent::DataInjected { at, .. } => self.window_mut(at).data_injected += 1,
            ProbeEvent::QueryInjected { at, query, .. } => {
                self.window_mut(at).queries_issued += 1;
                // Reserve (and reset) the first-central slot so
                // delivery-time lookups are bounds-safe even for
                // never-routed queries.
                let idx = query.0 as usize;
                if idx >= self.query_first_ncl.len() {
                    self.query_first_ncl.resize(idx + 1, NCL_NONE);
                }
                self.query_first_ncl[idx] = NCL_NONE;
            }
            ProbeEvent::EpochFired { at, .. } => self.window_mut(at).epochs += 1,
            ProbeEvent::TransmitAccepted { at, bytes } => {
                self.window_mut(at).bytes_transmitted += bytes;
            }
            ProbeEvent::TransmitRejected { at, .. } => {
                self.window_mut(at).transfers_rejected += 1;
            }
            ProbeEvent::Delivery { at, query, outcome } => match outcome {
                DeliveryOutcome::Accepted { delay } => {
                    let slot = self
                        .query_first_ncl
                        .get(query.0 as usize)
                        .copied()
                        .unwrap_or(NCL_NONE);
                    let w = self.window_mut(at);
                    w.deliveries += 1;
                    w.delay_sum_secs += delay.as_secs();
                    if (slot as usize) < w.ncl_hits.len() {
                        w.ncl_hits[slot as usize] += 1;
                    }
                }
                DeliveryOutcome::Duplicate => self.window_mut(at).duplicate_deliveries += 1,
                DeliveryOutcome::Late => self.window_mut(at).late_deliveries += 1,
                DeliveryOutcome::Unknown => self.window_mut(at).unknown_deliveries += 1,
            },
            ProbeEvent::CacheSampled { at, copies, bytes } => {
                let w = self.window_mut(at);
                w.cache_copies = copies;
                w.cache_bytes = bytes;
                w.sampled = true;
            }
            ProbeEvent::QueryAtCentral { at, query, ncl } => {
                let slots = self.ncl_slots;
                let slot = if ncl < slots {
                    ncl as u16
                } else {
                    NCL_OVERFLOW
                };
                self.note_first_central(query.0, slot);
                let w = self.window_mut(at);
                if ncl < slots {
                    w.ncl_load[ncl] += 1;
                } else {
                    w.ncl_overflow += 1;
                }
            }
            ProbeEvent::ReplacementEvicted { at, .. } => self.window_mut(at).replacements += 1,
            ProbeEvent::CentralReelected { at, .. } => self.window_mut(at).reelections += 1,
            ProbeEvent::OracleRebuilt {
                at,
                table_recomputes,
                table_hits,
                ..
            } => {
                let d_rc = table_recomputes.saturating_sub(self.last_oracle_recomputes);
                let d_hit = table_hits.saturating_sub(self.last_oracle_hits);
                self.last_oracle_recomputes = table_recomputes;
                self.last_oracle_hits = table_hits;
                let w = self.window_mut(at);
                w.oracle_rebuilds += 1;
                w.oracle_recomputes += d_rc;
                w.oracle_hits += d_hit;
            }
            ProbeEvent::OracleInvalidated { at } => {
                self.window_mut(at).oracle_invalidations += 1;
            }
            ProbeEvent::PushRelay { .. }
            | ProbeEvent::PushSettled { .. }
            | ProbeEvent::QueryRelay { .. }
            | ProbeEvent::BroadcastSpread { .. }
            | ProbeEvent::ResponseDecision { .. }
            | ProbeEvent::ResponseSpawned { .. }
            | ProbeEvent::ResponseRelay { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::{DataId, NodeId, QueryId};

    fn telemetry(window: u64, horizon: u64, slots: usize) -> Telemetry {
        Telemetry::new(&TelemetryConfig {
            window: Duration(window),
            origin: Time(0),
            horizon: Duration(horizon),
            ncl_slots: slots,
        })
    }

    fn inject(t: &mut Telemetry, q: u64, at: u64) {
        t.record(&ProbeEvent::QueryInjected {
            at: Time(at),
            query: QueryId(q),
            requester: NodeId(1),
            data: DataId(0),
            expires_at: Time(at + 1000),
        });
    }

    fn deliver(t: &mut Telemetry, q: u64, at: u64, delay: u64) {
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
        assert_eq!(t.windows()[0].queries_issued, 1);
        assert_eq!(t.windows()[1].queries_issued, 1);
        assert_eq!(t.windows()[2].deliveries, 1);
        assert_eq!(t.windows()[2].delay_sum_secs, 240);
        assert_eq!(t.windows()[9].contacts, 1);
        assert!(!t.overran_hint());
        let totals = t.totals();
        assert_eq!(totals.queries_issued, 2);
        assert_eq!(totals.deliveries, 1);
        assert_eq!(totals.delay_sum_secs, 240);
    }

    #[test]
    fn window_array_grows_past_the_hint() {
        let mut t = telemetry(10, 100, 1);
        inject(&mut t, 0, 5_000);
        assert!(t.overran_hint());
        assert_eq!(t.totals().queries_issued, 1);
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
        assert_eq!(totals.ncl_load, 2);
        assert_eq!(totals.ncl_hits, 1);
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
        assert_eq!(t.totals().ncl_load, 1);
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
        assert_eq!(t.windows()[0].oracle_recomputes, 40);
        assert_eq!(t.windows()[0].oracle_hits, 100);
        assert_eq!(t.windows()[1].oracle_recomputes, 30);
        assert_eq!(t.windows()[1].oracle_hits, 80);
        let totals = t.totals();
        assert_eq!(totals.oracle_rebuilds, 2);
        assert_eq!(totals.oracle_recomputes, 70);
        assert_eq!(totals.oracle_hits, 180);
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
            (w.deliveries, w.duplicate_deliveries, w.late_deliveries),
            (1, 1, 1)
        );
        assert!(w.sampled);
        assert_eq!((w.cache_copies, w.cache_bytes), (7, 2000));
        assert_eq!(w.success_rate(), Some(1.0));
    }

    #[test]
    fn jsonl_skips_empty_windows_and_keeps_indices() {
        let mut t = telemetry(100, 1000, 2);
        inject(&mut t, 0, 10);
        inject(&mut t, 1, 910);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"index\":0"));
        assert!(lines[0].contains("\"start\":0"));
        assert!(lines[0].contains("\"end\":100"));
        assert!(lines[1].contains("\"index\":9"));
        assert!(lines
            .iter()
            .all(|l| l.starts_with("{\"type\":\"window\"") && l.ends_with('}')));
    }

    #[test]
    fn overlay_marks_flag_overlapping_windows() {
        let mut t = telemetry(100, 1000, 1);
        t.mark_overlay("ncl-blackout", Time(150), Time(350));
        inject(&mut t, 0, 50);
        inject(&mut t, 1, 250);
        assert!(t.overlays_in(0).is_empty());
        assert_eq!(t.overlays_in(1), vec!["ncl-blackout"]);
        assert_eq!(t.overlays_in(2), vec!["ncl-blackout"]);
        assert_eq!(t.overlays_in(3), vec!["ncl-blackout"]);
        assert!(t.overlays_in(4).is_empty());
        let jsonl = t.to_jsonl();
        let w2 = jsonl
            .lines()
            .find(|l| l.contains("\"index\":2"))
            .expect("window 2 exported");
        assert!(w2.contains("\"overlays\":[\"ncl-blackout\"]"));
        let table = t.render_table();
        assert!(table.contains("ncl-blackout"));
    }

    #[test]
    fn pre_origin_events_clamp_into_window_zero() {
        let mut t = Telemetry::new(&TelemetryConfig {
            window: Duration(100),
            origin: Time(500),
            horizon: Duration(1000),
            ncl_slots: 1,
        });
        inject(&mut t, 0, 450); // before the origin
        inject(&mut t, 1, 510);
        assert_eq!(t.windows()[0].queries_issued, 2);
    }

    #[test]
    fn spanning_layout_rounds_width_up() {
        let cfg = TelemetryConfig::spanning(Time(0), Duration(1001), 10, 4);
        assert_eq!(cfg.window.0, 101);
        assert_eq!(cfg.ncl_slots, 4);
    }

    #[test]
    fn zero_width_window_is_a_structured_error() {
        let cfg = TelemetryConfig {
            window: Duration(0),
            origin: Time(0),
            horizon: Duration(1000),
            ncl_slots: 1,
        };
        let err = Telemetry::try_new(&cfg).expect_err("zero width rejected");
        assert_eq!(err, TelemetryError::ZeroWindowWidth);
        assert!(err.to_string().contains("positive"), "{err}");
        // `spanning` can never produce the degenerate layout, even from
        // degenerate inputs.
        let cfg = TelemetryConfig::spanning(Time(0), Duration(0), 0, 1);
        assert!(cfg.window.0 > 0);
        assert!(Telemetry::try_new(&cfg).is_ok());
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_width_window_panics_through_the_infallible_constructor() {
        let _ = telemetry(0, 1000, 1);
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
        assert_eq!(t.windows()[2].queries_issued, 2);
        assert_eq!(t.windows()[2].deliveries, 1);
        let totals = t.totals();
        assert_eq!(totals.queries_issued, 2);
        assert_eq!(totals.deliveries, 1);
        assert_eq!(totals.delay_sum_secs, 59);
        // The export reports the full nominal width for the remainder
        // window — edges stay aligned for the compare harness.
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"index\":2,\"start\":200,\"end\":300"));
        // One second past the remainder window grows the array (exact
        // accounting, flagged hint overrun).
        inject(&mut t, 2, 300);
        assert!(t.overran_hint());
        assert_eq!(t.windows()[3].queries_issued, 1);
        assert_eq!(t.totals().queries_issued, 3);
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
        assert_eq!(t.windows()[2].queries_issued, 1);
    }
}
