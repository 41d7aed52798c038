//! The fleet's epoch horizon: where one shard-local segment ends and
//! the cross-shard edges begin.
//!
//! [`FleetService::run`](crate::FleetService::run) advances the fleet
//! epoch by epoch. Each epoch ends at the next **cross-shard event
//! horizon** ([`horizon`]): the earliest instant at which something
//! fleet-level has to happen — a trace event to route, or a shard's
//! next residency expiry, after which the fleet samples fragmentation
//! and evaluates its defrag/rebalance triggers. Everything *between*
//! horizons is shard-local by construction: a shard departing its own
//! residencies, serving its own queue and running its own threshold
//! defrag never reads a sibling. The loop walks those segments in
//! shard-index order on the calling thread; the cross-shard edges
//! (routing, migration, the fleet defrag trigger, report aggregation)
//! run between them in the same fixed order.

use rtm_sched::task::Micros;
use rtm_service::RuntimeService;

/// The next cross-shard event horizon: the earliest of the next trace
/// event and every shard's next residency expiry
/// ([`RuntimeService::next_expiry`]). `None` means the fleet is
/// drained — no pending trace events and no shard has anything
/// self-scheduled — and the run is over. Up to (and including) the
/// returned instant, every shard's work is a pure function of its own
/// state.
///
/// One scan of every shard's residents: no more work than the
/// [`RuntimeService::advance_to`] sweep the epoch runs next, which
/// reads every resident's expiry again.
pub fn horizon(next_trace: Option<Micros>, shards: &[RuntimeService]) -> Option<Micros> {
    let local = shards.iter().filter_map(RuntimeService::next_expiry).min();
    match (next_trace, local) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(Micros::MAX).min(b.unwrap_or(Micros::MAX))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_service::trace::Arrival;
    use rtm_service::{AdmissionBid, OfferOutcome, QosTier, ServiceConfig, ServiceReport};

    fn fleet(n: usize) -> (Vec<RuntimeService>, Vec<ServiceReport>) {
        let shards = (0..n)
            .map(|_| RuntimeService::new(ServiceConfig::default()))
            .collect();
        let reports = (0..n)
            .map(|i| ServiceReport::new(format!("e#{i}")))
            .collect();
        (shards, reports)
    }

    /// Admits a 4×4 function with a residency of `duration` on `shard`
    /// at `at`.
    fn admit(
        shards: &mut [RuntimeService],
        reports: &mut [ServiceReport],
        shard: usize,
        id: u64,
        at: Micros,
        duration: Micros,
    ) {
        let a = Arrival {
            id,
            rows: 4,
            cols: 4,
            duration: Some(duration),
            deadline: None,
            tier: QosTier::Standard,
        };
        let out = shards[shard]
            .admit(at, AdmissionBid::direct(a), &mut reports[shard])
            .unwrap();
        assert_eq!(out, OfferOutcome::Admitted);
    }

    #[test]
    fn horizon_is_min_of_trace_and_local_events() {
        let (mut shards, mut reports) = fleet(2);
        assert_eq!(horizon(None, &shards), None, "drained fleet has no horizon");
        assert_eq!(horizon(Some(50), &shards), Some(50));

        // Shard 1's residency expires at 30_000 + 10_000.
        admit(&mut shards, &mut reports, 1, 7, 30_000, 10_000);
        assert_eq!(horizon(None, &shards), Some(40_000));
        assert_eq!(horizon(Some(35_000), &shards), Some(35_000));
        assert_eq!(horizon(Some(45_000), &shards), Some(40_000));

        // Shard 0's expires later, at 10_000 + 40_000: the earlier one
        // still wins.
        admit(&mut shards, &mut reports, 0, 1, 10_000, 40_000);
        assert_eq!(horizon(None, &shards), Some(40_000), "earliest expiry");
        assert_eq!(horizon(Some(20_000), &shards), Some(20_000));

        // Departing the earlier residency moves the horizon to the
        // later one; departing both leaves only the trace.
        shards[1].depart(7, &mut reports[1]).unwrap();
        assert_eq!(horizon(None, &shards), Some(50_000));
        assert_eq!(horizon(Some(45_000), &shards), Some(45_000));
        shards[0].depart(1, &mut reports[0]).unwrap();
        assert_eq!(horizon(None, &shards), None, "drained again");
        assert_eq!(horizon(Some(50), &shards), Some(50));
    }
}
