//! Wide-area network model (§VII-E setup).
//!
//! The paper's testbed has one manager with 10 Gbps and workers with
//! 100 Mbps each. Transfers are modelled as bandwidth-bound flows: a
//! point-to-point transfer is limited by the slower endpoint; fan-out /
//! fan-in to `n` workers runs the worker links in parallel but cannot
//! exceed the manager's aggregate link.

use serde::Serialize;

/// Why a [`NetworkModel`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetModelError {
    /// A bandwidth was zero, negative, or non-finite.
    InvalidBandwidth,
    /// The latency was negative or non-finite.
    InvalidLatency,
}

impl std::fmt::Display for NetModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetModelError::InvalidBandwidth => f.write_str("bandwidth must be positive and finite"),
            NetModelError::InvalidLatency => f.write_str("latency must be non-negative and finite"),
        }
    }
}

impl std::error::Error for NetModelError {}

/// Bandwidth parameters for the pool's star topology.
///
/// # Examples
///
/// ```
/// use rpol_sim::NetworkModel;
///
/// let net = NetworkModel::paper_default();
/// // 90.7 MB (ResNet50) to 10 workers: worker links are the bottleneck.
/// let t = net.broadcast_seconds(90_700_000, 10);
/// assert!((t - 7.3).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NetworkModel {
    /// Manager uplink/downlink in bits per second.
    pub manager_bps: f64,
    /// Per-worker uplink/downlink in bits per second.
    pub worker_bps: f64,
    /// Per-message latency in seconds (handshakes, RPC overhead).
    pub latency_s: f64,
}

impl NetworkModel {
    /// The paper's setting: 10 Gbps manager, 100 Mbps workers, 20 ms RTT.
    pub fn paper_default() -> Self {
        Self {
            manager_bps: 10e9,
            worker_bps: 100e6,
            latency_s: 0.02,
        }
    }

    /// Creates a custom model, validating its parameters.
    ///
    /// A bad model (e.g. from CLI-supplied fault profiles) is reported as
    /// a [`NetModelError`] rather than aborting the process.
    ///
    /// # Errors
    ///
    /// Returns an error unless both bandwidths are positive and finite and
    /// the latency is non-negative and finite.
    pub fn new(manager_bps: f64, worker_bps: f64, latency_s: f64) -> Result<Self, NetModelError> {
        if !(manager_bps.is_finite() && worker_bps.is_finite())
            || manager_bps <= 0.0
            || worker_bps <= 0.0
        {
            return Err(NetModelError::InvalidBandwidth);
        }
        if !latency_s.is_finite() || latency_s < 0.0 {
            return Err(NetModelError::InvalidLatency);
        }
        Ok(Self {
            manager_bps,
            worker_bps,
            latency_s,
        })
    }

    /// Seconds to move `bytes` between the manager and one worker.
    pub fn p2p_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + (bytes as f64 * 8.0) / self.manager_bps.min(self.worker_bps)
    }

    /// Seconds for the manager to send `bytes` to each of `n` workers
    /// (e.g. global-model broadcast). Worker links run in parallel;
    /// the manager's aggregate link caps total throughput.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn broadcast_seconds(&self, bytes: u64, n: usize) -> f64 {
        assert!(n > 0, "no workers");
        let per_worker = (bytes as f64 * 8.0) / self.worker_bps;
        let aggregate = (bytes as f64 * 8.0 * n as f64) / self.manager_bps;
        self.latency_s + per_worker.max(aggregate)
    }

    /// Seconds for `n` workers to each upload `bytes` to the manager
    /// (e.g. local-update gather). Symmetric to broadcast in this model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gather_seconds(&self, bytes: u64, n: usize) -> f64 {
        self.broadcast_seconds(bytes, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let net = NetworkModel::paper_default();
        assert_eq!(net.manager_bps, 10e9);
        assert_eq!(net.worker_bps, 100e6);
    }

    #[test]
    fn p2p_limited_by_worker_link() {
        let net = NetworkModel::paper_default();
        // 100 MB over 100 Mbps ≈ 8 s (plus latency).
        let t = net.p2p_seconds(100_000_000);
        assert!((t - 8.02).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn broadcast_parallel_until_manager_saturates() {
        let net = NetworkModel::paper_default();
        let bytes = 100_000_000u64; // 100 MB
                                    // 10 workers: aggregate 8 Gbps < manager 10 Gbps → worker-bound, ≈8 s.
        let t10 = net.broadcast_seconds(bytes, 10);
        assert!((t10 - 8.02).abs() < 0.01, "t10 = {t10}");
        // 200 workers: 160 Gbps demand → manager-bound, ≈16 s.
        let t200 = net.broadcast_seconds(bytes, 200);
        assert!((t200 - 16.02).abs() < 0.01, "t200 = {t200}");
    }

    #[test]
    fn gather_matches_broadcast() {
        let net = NetworkModel::paper_default();
        assert_eq!(
            net.gather_seconds(1_000_000, 10),
            net.broadcast_seconds(1_000_000, 10)
        );
    }

    #[test]
    fn invalid_models_report_errors() {
        assert_eq!(
            NetworkModel::new(0.0, 1.0, 0.0),
            Err(NetModelError::InvalidBandwidth)
        );
        assert_eq!(
            NetworkModel::new(1.0, -5.0, 0.0),
            Err(NetModelError::InvalidBandwidth)
        );
        assert_eq!(
            NetworkModel::new(f64::NAN, 1.0, 0.0),
            Err(NetModelError::InvalidBandwidth)
        );
        assert_eq!(
            NetworkModel::new(1.0, 1.0, -0.1),
            Err(NetModelError::InvalidLatency)
        );
        assert_eq!(
            NetworkModel::new(1.0, 1.0, f64::INFINITY),
            Err(NetModelError::InvalidLatency)
        );
        let ok = NetworkModel::new(10e9, 100e6, 0.02).expect("valid");
        assert_eq!(ok, NetworkModel::paper_default());
    }
}
