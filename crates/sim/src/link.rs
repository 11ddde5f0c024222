//! Parameters of a serialized communication link and of its faults:
//! latency and bandwidth, degraded service, and the retransmission budget.

use crate::SimTime;

/// Error returned by [`LinkParams::try_new`] for a malformed bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkParamError {
    /// The bandwidth was NaN or infinite.
    NonFiniteBandwidth(f64),
    /// The bandwidth was zero or negative.
    NonPositiveBandwidth(f64),
}

impl std::fmt::Display for LinkParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkParamError::NonFiniteBandwidth(v) => {
                write!(f, "invalid bandwidth: {v} Gb/s (must be finite)")
            }
            LinkParamError::NonPositiveBandwidth(v) => {
                write!(f, "invalid bandwidth: {v} Gb/s (must be strictly positive)")
            }
        }
    }
}

impl std::error::Error for LinkParamError {}

/// Static parameters of a point-to-point link.
///
/// The paper's cluster has two kinds of links: PCIe attachments from the host
/// to each FPGA, and a secondary bidirectional ring between FPGAs. Both are
/// modeled as a propagation latency plus a serialization rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency applied to every transfer.
    pub latency: SimTime,
    /// Serialization bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
}

impl LinkParams {
    /// Creates link parameters, rejecting NaN, infinite, and non-positive
    /// bandwidths.
    pub fn try_new(latency: SimTime, bandwidth_gbps: f64) -> Result<Self, LinkParamError> {
        if !bandwidth_gbps.is_finite() {
            return Err(LinkParamError::NonFiniteBandwidth(bandwidth_gbps));
        }
        if bandwidth_gbps <= 0.0 {
            return Err(LinkParamError::NonPositiveBandwidth(bandwidth_gbps));
        }
        Ok(LinkParams {
            latency,
            bandwidth_gbps,
        })
    }

    /// Creates link parameters; panicking wrapper around [`Self::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is NaN, infinite, or not strictly
    /// positive.
    pub fn new(latency: SimTime, bandwidth_gbps: f64) -> Self {
        Self::try_new(latency, bandwidth_gbps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Time to serialize `bytes` onto the wire (excluding propagation).
    pub fn serialization_time(&self, bytes: u64) -> SimTime {
        let bits = bytes as f64 * 8.0;
        SimTime::from_ns(bits / self.bandwidth_gbps)
    }
}

/// What a degraded link serves: a bandwidth multiplier plus extra latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedMode {
    /// Multiplier on the nominal bandwidth, in `(0.0, 1.0]`.
    pub bandwidth_factor: f64,
    /// Extra one-way propagation latency while degraded.
    pub extra_latency: SimTime,
}

impl DegradedMode {
    /// Creates a degraded mode.
    ///
    /// # Panics
    ///
    /// Panics unless `bandwidth_factor` is in `(0.0, 1.0]`.
    pub fn new(bandwidth_factor: f64, extra_latency: SimTime) -> Self {
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
        );
        DegradedMode {
            bandwidth_factor,
            extra_latency,
        }
    }

    /// The parameters a link with `nominal` parameters serves while
    /// degraded: scaled bandwidth plus extra latency.
    pub fn apply(&self, nominal: LinkParams) -> LinkParams {
        LinkParams {
            latency: nominal.latency + self.extra_latency,
            bandwidth_gbps: nominal.bandwidth_gbps * self.bandwidth_factor,
        }
    }
}

impl Default for DegradedMode {
    /// A no-op degradation (full bandwidth, no extra latency).
    fn default() -> Self {
        DegradedMode {
            bandwidth_factor: 1.0,
            extra_latency: SimTime::ZERO,
        }
    }
}

/// Bounded retransmission budget with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Maximum number of retransmissions of one transfer before giving up.
    pub max_retransmits: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: SimTime,
}

impl RetransmitPolicy {
    /// Backoff waited before retransmission number `retransmit` (0-based):
    /// `base_backoff * 2^retransmit`, saturating.
    pub fn backoff(&self, retransmit: u32) -> SimTime {
        self.base_backoff.doubled(retransmit)
    }
}

impl Default for RetransmitPolicy {
    /// Three retransmissions starting at a 200 ns backoff.
    fn default() -> Self {
        RetransmitPolicy {
            max_retransmits: 3,
            base_backoff: SimTime::from_ns(200.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_follows_bandwidth() {
        let link = LinkParams::new(SimTime::from_ns(50.0), 100.0);
        // 125 bytes = 1000 bits = 10ns at 100 Gb/s.
        assert_eq!(link.serialization_time(125), SimTime::from_ns(10.0));
        assert_eq!(link.serialization_time(0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkParams::new(SimTime::ZERO, 0.0);
    }

    #[test]
    fn try_new_rejects_malformed_bandwidth() {
        assert!(matches!(
            LinkParams::try_new(SimTime::ZERO, f64::NAN),
            Err(LinkParamError::NonFiniteBandwidth(_))
        ));
        assert!(matches!(
            LinkParams::try_new(SimTime::ZERO, f64::INFINITY),
            Err(LinkParamError::NonFiniteBandwidth(_))
        ));
        assert!(matches!(
            LinkParams::try_new(SimTime::ZERO, -3.0),
            Err(LinkParamError::NonPositiveBandwidth(_))
        ));
        assert!(LinkParams::try_new(SimTime::ZERO, 25.0).is_ok());
    }

    #[test]
    fn degraded_mode_scales_bandwidth_and_adds_latency() {
        let nominal = LinkParams::new(SimTime::from_ns(50.0), 100.0);
        let degraded = DegradedMode::new(0.5, SimTime::from_ns(25.0)).apply(nominal);
        assert_eq!(degraded.bandwidth_gbps, 50.0);
        assert_eq!(degraded.latency, SimTime::from_ns(75.0));
        // 125 bytes at 50 Gb/s = 20ns serialization.
        assert_eq!(degraded.serialization_time(125), SimTime::from_ns(20.0));
        assert_eq!(DegradedMode::default().apply(nominal), nominal);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let policy = RetransmitPolicy {
            max_retransmits: 8,
            base_backoff: SimTime::from_ns(100.0),
        };
        assert_eq!(policy.backoff(0), SimTime::from_ns(100.0));
        assert_eq!(policy.backoff(1), SimTime::from_ns(200.0));
        assert_eq!(policy.backoff(3), SimTime::from_ns(800.0));
        // Huge attempt numbers saturate instead of overflowing.
        assert_eq!(policy.backoff(u32::MAX), policy.backoff(32));
        assert_eq!(SimTime::MAX.doubled(1), SimTime::MAX);
    }
}
