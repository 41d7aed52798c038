//! Fleet configuration: the shard list and the fleet-level trigger.

use rtm_fpga::part::Part;
use rtm_service::ServiceConfig;

/// Configuration of a [`FleetService`](crate::FleetService): one
/// [`ServiceConfig`] per shard (each with its own device part,
/// allocation strategy, queue order and defragmentation threshold) plus
/// the fleet-level defragmentation trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-shard service configurations. Order defines shard indices.
    pub shards: Vec<ServiceConfig>,
    /// Fleet-level defragmentation trigger: when the *mean*
    /// fragmentation index across all devices exceeds this threshold
    /// after an event, one cycle is forced on the device with the
    /// highest predicted improvement — even if that device's own
    /// threshold was not crossed. Set above `1.0` to disable.
    pub fleet_frag_threshold: f64,
    /// How many ranked devices the router offers a request to before
    /// queueing it. Each offer to a device without an attached plan
    /// costs that device a `make_room` planning pass, so on big fleets
    /// an uncapped retry chain makes every congested arrival pay
    /// O(devices) planning. The cap bounds that cost; requests that
    /// strike out queue on the best-ranked device that reported
    /// "no room", exactly as before.
    pub max_offer_attempts: usize,
    /// Fleet-level rebalancing trigger: when the *worst* per-device
    /// fragmentation index exceeds this threshold after an event — and
    /// a [`RebalancePolicy`](crate::RebalancePolicy) is installed —
    /// the fleet asks the planner for migrations and executes them
    /// inside the shards' idle port windows. Worst rather than mean:
    /// rebalancing drains the one shard that aged badly, a signal a
    /// healthy majority would dilute out of a mean. Set above `1.0` to
    /// disable (the default: rebalancing is opt-in).
    pub rebalance_threshold: f64,
    /// QoS-tier preemption: when a high-tier arrival strikes out on
    /// every ranked shard, evict the cheapest lower-tier resident
    /// (smallest CLB footprint × remaining runtime) — migrating it to a
    /// sibling shard with room, otherwise parking its extracted bundle
    /// for deadline-safe readmission in a later idle window — and admit
    /// the high-tier request in the freed region. Runs on the routing
    /// edge, right after the arrival's offer chain. Off by default:
    /// untiered workloads and existing baselines are unaffected.
    pub preemption: bool,
}

impl FleetConfig {
    /// The default cap on per-request offer attempts (see
    /// [`FleetConfig::max_offer_attempts`]): generous enough that small
    /// fleets keep their full cross-device retry chain, flat for big
    /// ones.
    pub const DEFAULT_MAX_OFFER_ATTEMPTS: usize = 8;

    /// A fleet of `n` identical shards.
    pub fn homogeneous(n: usize, shard: ServiceConfig) -> Self {
        FleetConfig {
            shards: vec![shard; n],
            fleet_frag_threshold: 2.0,
            max_offer_attempts: Self::DEFAULT_MAX_OFFER_ATTEMPTS,
            rebalance_threshold: 2.0,
            preemption: false,
        }
    }

    /// A fleet with one shard per part, all sharing `template` for
    /// everything but the device.
    pub fn heterogeneous(parts: &[Part], template: ServiceConfig) -> Self {
        FleetConfig {
            shards: parts.iter().map(|p| template.with_part(*p)).collect(),
            fleet_frag_threshold: 2.0,
            max_offer_attempts: Self::DEFAULT_MAX_OFFER_ATTEMPTS,
            rebalance_threshold: 2.0,
            preemption: false,
        }
    }

    /// Replaces the fleet-level defragmentation threshold.
    pub fn with_fleet_threshold(mut self, threshold: f64) -> Self {
        self.fleet_frag_threshold = threshold;
        self
    }

    /// Replaces the fleet-level rebalancing threshold.
    pub fn with_rebalance_threshold(mut self, threshold: f64) -> Self {
        self.rebalance_threshold = threshold;
        self
    }

    /// Replaces the per-request offer-attempt cap.
    pub fn with_max_offer_attempts(mut self, cap: usize) -> Self {
        self.max_offer_attempts = cap.max(1);
        self
    }

    /// Enables (or disables) QoS-tier preemption (see
    /// [`FleetConfig::preemption`]).
    pub fn with_preemption(mut self, preemption: bool) -> Self {
        self.preemption = preemption;
        self
    }

    /// Adds one more shard.
    pub fn with_shard(mut self, shard: ServiceConfig) -> Self {
        self.shards.push(shard);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = FleetConfig::homogeneous(3, ServiceConfig::default());
        assert_eq!(c.shards.len(), 3);
        assert!(c.fleet_frag_threshold > 1.0, "disabled by default");
        assert_eq!(
            c.max_offer_attempts,
            FleetConfig::DEFAULT_MAX_OFFER_ATTEMPTS
        );
        assert_eq!(
            c.with_max_offer_attempts(0).max_offer_attempts,
            1,
            "at least one offer always happens"
        );

        let h = FleetConfig::heterogeneous(
            &[Part::Xcv50, Part::Xcv200],
            ServiceConfig::default().with_frag_threshold(0.4),
        )
        .with_fleet_threshold(0.6)
        .with_shard(ServiceConfig::default().with_part(Part::Xcv100));
        assert_eq!(h.shards.len(), 3);
        assert_eq!(h.shards[0].part, Part::Xcv50);
        assert_eq!(h.shards[1].part, Part::Xcv200);
        assert_eq!(h.shards[2].part, Part::Xcv100);
        assert_eq!(h.shards[0].frag_threshold, 0.4, "template propagates");
        assert_eq!(h.fleet_frag_threshold, 0.6);
    }
}
