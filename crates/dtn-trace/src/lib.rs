//! Contact traces for Disruption Tolerant Networks.
//!
//! The paper evaluates on four real traces (Infocom05, Infocom06,
//! MIT Reality, UCSD — Table I). Those traces are not redistributable, so
//! this crate provides a **synthetic trace generator** whose contact
//! processes follow the paper's own network model (§III-B: pairwise
//! Poisson contacts) with per-node *sociability* weights drawn from a
//! truncated power law plus optional community structure. The generator
//! ships presets calibrated to Table I's aggregate statistics (node
//! count, duration, granularity, total contact count), reproducing both
//! knobs the caching scheme actually depends on: Poisson pairwise
//! contacts and a highly skewed contact-rate distribution (Fig. 4).
//!
//! # Example
//!
//! ```
//! use dtn_trace::{TracePreset, synthetic::SyntheticTraceBuilder};
//!
//! let trace = SyntheticTraceBuilder::from_preset(TracePreset::Infocom05)
//!     .scale(0.1) // 10% of the real duration/contacts: fast tests
//!     .seed(1)
//!     .build();
//! assert_eq!(trace.node_count(), 41);
//! assert!(trace.contact_count() > 500);
//! ```

pub mod analysis;
pub mod import;
pub mod io;
pub mod process;
pub mod stats;
pub mod synthetic;
pub mod trace;

use dtn_core::time::Duration;

/// The four traces of the paper's Table I, as calibration presets for the
/// synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePreset {
    /// Infocom 2005 conference, Bluetooth, 41 devices, 3 days.
    Infocom05,
    /// Infocom 2006 conference, Bluetooth, 78 devices, 4 days.
    Infocom06,
    /// MIT Reality Mining, Bluetooth, 97 devices, 246 days.
    MitReality,
    /// UCSD campus, WiFi, 275 devices, 77 days.
    Ucsd,
}

impl TracePreset {
    /// All four presets, in Table I order.
    pub const ALL: [TracePreset; 4] = [
        TracePreset::Infocom05,
        TracePreset::Infocom06,
        TracePreset::MitReality,
        TracePreset::Ucsd,
    ];

    /// Human-readable trace name as printed in Table I.
    pub fn name(self) -> &'static str {
        match self {
            TracePreset::Infocom05 => "Infocom05",
            TracePreset::Infocom06 => "Infocom06",
            TracePreset::MitReality => "MIT Reality",
            TracePreset::Ucsd => "UCSD",
        }
    }

    /// Number of devices (Table I).
    pub fn node_count(self) -> usize {
        match self {
            TracePreset::Infocom05 => 41,
            TracePreset::Infocom06 => 78,
            TracePreset::MitReality => 97,
            TracePreset::Ucsd => 275,
        }
    }

    /// Trace duration (Table I).
    pub fn duration(self) -> Duration {
        match self {
            TracePreset::Infocom05 => Duration::days(3),
            TracePreset::Infocom06 => Duration::days(4),
            TracePreset::MitReality => Duration::days(246),
            TracePreset::Ucsd => Duration::days(77),
        }
    }

    /// Detection granularity, also used as the mean contact duration
    /// (Table I).
    pub fn granularity(self) -> Duration {
        match self {
            TracePreset::Infocom05 | TracePreset::Infocom06 => Duration::secs(120),
            TracePreset::MitReality => Duration::secs(300),
            TracePreset::Ucsd => Duration::secs(20),
        }
    }

    /// Number of internal contacts to calibrate the generator to
    /// (Table I).
    pub fn total_contacts(self) -> u64 {
        match self {
            TracePreset::Infocom05 => 22_459,
            TracePreset::Infocom06 => 182_951,
            TracePreset::MitReality => 114_046,
            TracePreset::Ucsd => 123_225,
        }
    }

    /// The time horizon `T` the paper uses for this trace when computing
    /// NCL selection metrics (§IV-B: 1 h for the Infocom traces, 1 week
    /// for MIT Reality, 3 days for UCSD).
    pub fn ncl_horizon(self) -> Duration {
        match self {
            TracePreset::Infocom05 | TracePreset::Infocom06 => Duration::hours(1),
            TracePreset::MitReality => Duration::weeks(1),
            TracePreset::Ucsd => Duration::days(3),
        }
    }

    /// The number of NCLs the paper's evaluation uses on this trace
    /// (K = 8 for MIT Reality in §VI-B, K = 5 found best for Infocom06 in
    /// §VI-D; the Infocom05/UCSD values follow the Fig. 4 knees).
    pub fn default_ncl_count(self) -> usize {
        match self {
            TracePreset::Infocom05 => 4,
            TracePreset::Infocom06 => 5,
            TracePreset::MitReality => 8,
            TracePreset::Ucsd => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        assert_eq!(TracePreset::Infocom05.node_count(), 41);
        assert_eq!(TracePreset::Infocom06.node_count(), 78);
        assert_eq!(TracePreset::MitReality.node_count(), 97);
        assert_eq!(TracePreset::Ucsd.node_count(), 275);
        assert_eq!(TracePreset::MitReality.duration(), Duration::days(246));
        assert_eq!(TracePreset::Ucsd.granularity(), Duration::secs(20));
        assert_eq!(TracePreset::Infocom06.total_contacts(), 182_951);
    }

    #[test]
    fn horizons_match_section_four() {
        assert_eq!(TracePreset::Infocom05.ncl_horizon(), Duration::hours(1));
        assert_eq!(TracePreset::MitReality.ncl_horizon(), Duration::weeks(1));
        assert_eq!(TracePreset::Ucsd.ncl_horizon(), Duration::days(3));
    }

    #[test]
    fn names() {
        assert_eq!(TracePreset::MitReality.name(), "MIT Reality");
        assert_eq!(TracePreset::ALL.len(), 4);
    }
}
