//! Capital-cost model with the paper's Alibaba-cloud prices (§VII-E).

use serde::Serialize;

/// Unit prices for compute, wide-area traffic, and storage.
///
/// # Examples
///
/// ```
/// use rpol_sim::CostModel;
///
/// let m = CostModel::paper_default();
/// // One GPU-hour plus 10 GB of traffic.
/// let usd = m.total_usd(3600.0, 10_000_000_000, 0, 0.0);
/// assert!((usd - 2.53).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostModel {
    /// GPU rent in USD per hour (paper: $1.33/h for GA10).
    pub gpu_per_hour: f64,
    /// Wide-area traffic in USD per GB (paper: $0.12/GB).
    pub comm_per_gb: f64,
    /// Storage in USD per GB-month (paper: $5 per 100 GB per month).
    pub storage_per_gb_month: f64,
}

impl CostModel {
    /// The paper's prices.
    pub fn paper_default() -> Self {
        Self {
            gpu_per_hour: 1.33,
            comm_per_gb: 0.12,
            storage_per_gb_month: 0.05,
        }
    }

    /// Total USD for a job consuming `gpu_seconds` of GPU time,
    /// `comm_bytes` of traffic, and `storage_bytes` held for
    /// `storage_months` months.
    ///
    /// # Panics
    ///
    /// Panics on negative inputs.
    pub fn total_usd(
        &self,
        gpu_seconds: f64,
        comm_bytes: u64,
        storage_bytes: u64,
        storage_months: f64,
    ) -> f64 {
        assert!(
            gpu_seconds >= 0.0 && storage_months >= 0.0,
            "negative input"
        );
        let gb = 1_000_000_000.0;
        self.gpu_per_hour * gpu_seconds / 3600.0
            + self.comm_per_gb * comm_bytes as f64 / gb
            + self.storage_per_gb_month * storage_bytes as f64 / gb * storage_months
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prices() {
        let m = CostModel::paper_default();
        assert_eq!(m.gpu_per_hour, 1.33);
        assert_eq!(m.comm_per_gb, 0.12);
        assert_eq!(m.storage_per_gb_month, 0.05);
    }

    #[test]
    fn cost_components_add_up() {
        let m = CostModel::paper_default();
        // 1 hour GPU + 10 GB traffic + 100 GB-month storage.
        let usd = m.total_usd(3600.0, 10_000_000_000, 100_000_000_000, 1.0);
        assert!((usd - (1.33 + 1.2 + 5.0)).abs() < 1e-9, "usd = {usd}");
    }

    #[test]
    fn zero_job_is_free() {
        assert_eq!(CostModel::paper_default().total_usd(0.0, 0, 0, 0.0), 0.0);
    }

    #[test]
    fn comm_dominates_for_big_transfers() {
        let m = CostModel::paper_default();
        let comm_only = m.total_usd(0.0, 62_000_000_000, 0, 0.0);
        // 62 GB (Table III RPoLv1 comm) ≈ $7.44.
        assert!((comm_only - 7.44).abs() < 0.01);
    }
}
