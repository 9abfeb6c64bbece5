//! Engine configuration: the paper's §VI-A link and buffer model.

use dtn_core::error::CoreError;
use dtn_core::time::Duration;

/// Bytes per megabit, for converting the paper's "Mb" figures.
const MEGABIT_BYTES: u64 = 125_000;

/// Converts megabits to bytes (the paper quotes sizes in Mb).
///
/// # Example
///
/// ```
/// use dtn_sim::engine::megabits;
/// assert_eq!(megabits(100), 12_500_000);
/// ```
pub const fn megabits(mb: u64) -> u64 {
    mb * MEGABIT_BYTES
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Link capacity in bytes/second. Default: 2.1 Mb/s (Bluetooth EDR,
    /// §VI-A).
    pub bandwidth_bytes_per_sec: u64,
    /// Size of a query message in bytes (queries are tiny control
    /// messages). Default: 1 KiB.
    pub query_size_bytes: u64,
    /// Per-node buffer capacity is drawn uniformly from this inclusive
    /// range. Default: 200–600 Mb (§VI-A).
    pub buffer_range: (u64, u64),
    /// Interval between cache-occupancy samples. Default: 6 h.
    pub sample_interval: Duration,
    /// Probability that a contact is lost entirely (radio failure,
    /// interference): the nodes never learn it happened — no rate
    /// update, no scheme hook. Default 0.
    pub contact_loss_probability: f64,
    /// Interval between [`Scheme::on_epoch`](super::Scheme::on_epoch) maintenance callbacks.
    /// `None` (the default) never fires the hook, making the epoch
    /// runtime a strict no-op.
    pub epoch_interval: Option<Duration>,
    /// Runs the invariant audit (see [`crate::audit`]) after every
    /// contact and epoch, accumulating an [`AuditReport`](crate::audit::AuditReport) readable via
    /// [`Simulator::audit_report`](super::Simulator::audit_report). Default `false`: the engine carries
    /// a single `None` and audits cost one predicted branch per event.
    pub audit: bool,
    /// Collects a hierarchical wall-clock phase profile (see
    /// [`crate::profiler`]), readable via [`Simulator::profile_report`](super::Simulator::profile_report).
    /// Default `false`: the engine carries a single `None` and every
    /// span site costs one predicted branch — same zero-cost discipline
    /// as the probe sink and the audit slot.
    pub profile: bool,
    /// RNG seed for buffer assignment and scheme randomness.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bandwidth_bytes_per_sec: 262_500, // 2.1 Mb/s
            query_size_bytes: 1024,
            buffer_range: (megabits(200), megabits(600)),
            sample_interval: Duration::hours(6),
            contact_loss_probability: 0.0,
            epoch_interval: None,
            audit: false,
            profile: false,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Checks the fields the engine cannot run with: a zero bandwidth, an
    /// inverted buffer range, a contact-loss probability outside `[0, 1]`
    /// (NaN included), and a zero sample or epoch interval, which would
    /// never advance the engine's catch-up loops past the clock.
    /// [`Simulator::from_source`](super::Simulator::from_source) panics
    /// on what this refuses.
    pub fn validate(&self) -> Result<(), CoreError> {
        let refuse = |name, reason: &str| {
            Err(CoreError::InvalidParameter {
                name,
                reason: reason.into(),
            })
        };
        if self.bandwidth_bytes_per_sec == 0 {
            return refuse("bandwidth_bytes_per_sec", "bandwidth must be positive");
        }
        if self.buffer_range.0 > self.buffer_range.1 {
            return refuse("buffer_range", "buffer range must be ordered");
        }
        if !(0.0..=1.0).contains(&self.contact_loss_probability) {
            return refuse(
                "contact_loss_probability",
                "contact loss must be a probability",
            );
        }
        if self.sample_interval == Duration(0) {
            return refuse("sample_interval", "sample interval must be positive");
        }
        if self.epoch_interval == Some(Duration(0)) {
            return refuse("epoch_interval", "epoch interval must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{two_node_trace, DirectDelivery};
    use super::super::Simulator;
    use super::*;
    use dtn_core::ids::NodeId;
    use dtn_trace::synthetic::SyntheticTraceBuilder;

    #[test]
    fn buffer_capacities_in_range_and_deterministic() {
        let trace = SyntheticTraceBuilder::new(20).seed(2).build();
        let cfg = SimConfig {
            buffer_range: (1000, 2000),
            seed: 9,
            ..SimConfig::default()
        };
        let sim1 = Simulator::new(&trace, DirectDelivery::default(), cfg.clone());
        let sim2 = Simulator::new(&trace, DirectDelivery::default(), cfg);
        for n in 0..20u32 {
            let c = sim1.buffer_capacity(NodeId(n));
            assert!((1000..=2000).contains(&c));
            assert_eq!(c, sim2.buffer_capacity(NodeId(n)));
        }
    }

    /// The name `validate` refuses `cfg` under.
    fn refused(cfg: SimConfig) -> &'static str {
        match cfg.validate() {
            Err(CoreError::InvalidParameter { name, .. }) => name,
            Ok(()) => panic!("accepted {cfg:?}"),
        }
    }

    #[test]
    fn validate_refuses_what_the_engine_cannot_run() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        let base = SimConfig::default;
        let cases = [
            (
                SimConfig {
                    bandwidth_bytes_per_sec: 0,
                    ..base()
                },
                "bandwidth_bytes_per_sec",
            ),
            (
                SimConfig {
                    buffer_range: (2, 1),
                    ..base()
                },
                "buffer_range",
            ),
            (
                SimConfig {
                    contact_loss_probability: 1.5,
                    ..base()
                },
                "contact_loss_probability",
            ),
            (
                SimConfig {
                    contact_loss_probability: f64::NAN,
                    ..base()
                },
                "contact_loss_probability",
            ),
            (
                SimConfig {
                    sample_interval: Duration(0),
                    ..base()
                },
                "sample_interval",
            ),
            (
                SimConfig {
                    epoch_interval: Some(Duration(0)),
                    ..base()
                },
                "epoch_interval",
            ),
        ];
        for (cfg, name) in cases {
            assert_eq!(refused(cfg), name);
        }
    }

    #[test]
    #[should_panic(expected = "epoch_interval")]
    fn from_source_panics_on_what_validate_refuses() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            epoch_interval: Some(Duration(0)),
            ..SimConfig::default()
        };
        let _ = Simulator::new(&trace, DirectDelivery::default(), cfg);
    }
}
