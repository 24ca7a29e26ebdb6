//! The Grouping Value and hot/cold group sizing (the paper's Equations 1
//! and 2).

use vmt_dcsim::{ClusterConfig, SnapshotError};
use vmt_units::Celsius;

/// The user-set Grouping Value (GV).
///
/// The GV is the single tuning knob of VMT. It is *not* a temperature —
/// the paper is explicit that the GV→VMT mapping is configuration-specific
/// and must be derived empirically (its Table II; our `table2`
/// experiment) — but it is expressed on a temperature-like scale so that
/// `GV / PMT` is a sensible ratio:
///
/// ```text
/// hot_group_size = GV / PMT × num_servers        (Equation 1)
/// cold_group_size = num_servers − hot_group_size (Equation 2)
/// ```
///
/// Lower GV → smaller, hotter hot group (melts faster, exhausts sooner);
/// higher GV → larger, cooler hot group (may never fully melt).
///
/// # Examples
///
/// ```
/// use vmt_core::GroupingValue;
/// use vmt_units::Celsius;
///
/// let gv = GroupingValue::new(22.0);
/// // The paper's headline configuration: GV=22, PMT=35.7 °C, 1000
/// // servers → a 616-server hot group.
/// assert_eq!(gv.hot_group_size(Celsius::new(35.7), 1000), 616);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize)]
pub struct GroupingValue(f64);

impl GroupingValue {
    /// Wraps a grouping value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not strictly positive and finite.
    pub fn new(value: f64) -> Self {
        assert!(
            value > 0.0 && value.is_finite(),
            "grouping value must be positive and finite, got {value}"
        );
        Self(value)
    }

    /// The raw value.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Equation 1: the hot-group size for a physical melting temperature
    /// and cluster size, clamped to `[1, num_servers]`.
    ///
    /// # Panics
    ///
    /// Panics if `pmt` is not positive or `num_servers` is zero.
    pub fn hot_group_size(self, pmt: Celsius, num_servers: usize) -> usize {
        assert!(pmt.get() > 0.0, "PMT must be positive, got {pmt}");
        assert!(num_servers > 0, "cluster must have servers");
        let raw = (self.0 / pmt.get() * num_servers as f64).round() as usize;
        raw.clamp(1, num_servers)
    }

    /// Equation 2: the cold-group size.
    pub fn cold_group_size(self, pmt: Celsius, num_servers: usize) -> usize {
        num_servers - self.hot_group_size(pmt, num_servers)
    }
}

impl core::fmt::Display for GroupingValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GV={}", self.0)
    }
}

/// Everything a VMT policy needs to know about its deployment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VmtConfig {
    /// The grouping value.
    pub gv: GroupingValue,
    /// The deployed wax's physical melting temperature.
    pub pmt: Celsius,
    /// Melt fraction above which a server counts as "fully melted"
    /// (VMT-WA's Wax Threshold; the paper fixes 0.98).
    pub wax_threshold: f64,
}

impl VmtConfig {
    /// Builds a config from a GV and the cluster it will run on, taking
    /// the PMT from the cluster's wax deployment.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no wax deployed — VMT without wax is
    /// meaningless.
    pub fn new(gv: GroupingValue, cluster: &ClusterConfig) -> Self {
        let wax = cluster
            .wax
            .as_ref()
            .expect("VMT requires a wax deployment in the cluster config");
        Self {
            gv,
            pmt: wax.material.melt_temperature(),
            wax_threshold: 0.98,
        }
    }

    /// Overrides the wax threshold (Figure 17's sweep).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold ≤ 1`.
    #[must_use]
    pub fn with_wax_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "wax threshold must be in (0, 1], got {threshold}"
        );
        self.wax_threshold = threshold;
        self
    }

    /// Equation 1 applied to a concrete cluster size.
    pub fn hot_group_size(&self, num_servers: usize) -> usize {
        self.gv.hot_group_size(self.pmt, num_servers)
    }

    /// Holds a config that bypassed the constructors (one deserialized
    /// from a snapshot) to their rules: GV positive and finite, PMT
    /// positive and finite, wax threshold in `(0, 1]`. A threshold
    /// above 1 would never count a server as melted, so keep-warm and
    /// melt-driven hot-group growth would silently never fire.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first field out of range.
    pub(crate) fn check(&self) -> Result<(), SnapshotError> {
        let (gv, pmt, threshold) = (self.gv.get(), self.pmt.get(), self.wax_threshold);
        let fault = if !(gv > 0.0 && gv.is_finite()) {
            format!("GV {gv} is not positive and finite")
        } else if !(pmt > 0.0 && pmt.is_finite()) {
            format!("PMT {pmt} is not positive and finite")
        } else if !(threshold > 0.0 && threshold <= 1.0) {
            format!("wax threshold {threshold} is outside (0, 1]")
        } else {
            return Ok(());
        };
        Err(SnapshotError::Corrupt(format!("VMT config: {fault}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_headline_sizes() {
        let pmt = Celsius::new(35.7);
        assert_eq!(GroupingValue::new(22.0).hot_group_size(pmt, 1000), 616);
        assert_eq!(GroupingValue::new(20.0).hot_group_size(pmt, 1000), 560);
        assert_eq!(GroupingValue::new(24.0).hot_group_size(pmt, 1000), 672);
        assert_eq!(GroupingValue::new(22.0).cold_group_size(pmt, 1000), 384);
    }

    #[test]
    fn clamps_to_cluster() {
        let pmt = Celsius::new(35.7);
        // GV above the PMT would exceed the cluster; clamp to all servers.
        assert_eq!(GroupingValue::new(40.0).hot_group_size(pmt, 100), 100);
        // Tiny GV still yields at least one hot server.
        assert_eq!(GroupingValue::new(0.01).hot_group_size(pmt, 100), 1);
    }

    #[test]
    fn config_takes_pmt_from_cluster() {
        let cluster = ClusterConfig::paper_default(100);
        let cfg = VmtConfig::new(GroupingValue::new(22.0), &cluster);
        assert_eq!(cfg.pmt, Celsius::new(35.7));
        assert_eq!(cfg.wax_threshold, 0.98);
        assert_eq!(cfg.hot_group_size(100), 62);
    }

    #[test]
    #[should_panic(expected = "requires a wax deployment")]
    fn config_requires_wax() {
        let cluster = ClusterConfig::without_wax(10);
        VmtConfig::new(GroupingValue::new(22.0), &cluster);
    }

    #[test]
    fn threshold_override_validated() {
        let cluster = ClusterConfig::paper_default(10);
        let cfg = VmtConfig::new(GroupingValue::new(22.0), &cluster).with_wax_threshold(0.9);
        assert_eq!(cfg.wax_threshold, 0.9);
    }

    #[test]
    #[should_panic(expected = "wax threshold must be in")]
    fn zero_threshold_rejected() {
        let cluster = ClusterConfig::paper_default(10);
        let _ = VmtConfig::new(GroupingValue::new(22.0), &cluster).with_wax_threshold(0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_gv_rejected() {
        GroupingValue::new(0.0);
    }

    proptest! {
        /// Group sizes always partition the cluster.
        #[test]
        fn groups_partition(gv in 0.1f64..50.0, n in 1usize..2000) {
            let g = GroupingValue::new(gv);
            let pmt = Celsius::new(35.7);
            prop_assert_eq!(g.hot_group_size(pmt, n) + g.cold_group_size(pmt, n), n);
        }

        /// Hot-group size is monotone in GV.
        #[test]
        fn monotone_in_gv(gv in 0.1f64..49.0, n in 1usize..2000) {
            let pmt = Celsius::new(35.7);
            let a = GroupingValue::new(gv).hot_group_size(pmt, n);
            let b = GroupingValue::new(gv + 1.0).hot_group_size(pmt, n);
            prop_assert!(b >= a);
        }
    }
}
