//! The fleet's epoch clock: where one shard-local segment ends and the
//! cross-shard edges begin.
//!
//! [`FleetService::run`](crate::FleetService::run) advances the fleet
//! epoch by epoch. Each epoch ends at the next **cross-shard event
//! horizon** ([`horizon`]): the earliest instant at which something
//! fleet-level has to happen — a trace event to route, or a shard's
//! own next local event (a residency expiry) after which the fleet
//! samples fragmentation and evaluates its defrag/rebalance triggers.
//! Everything *between* horizons is shard-local by construction: a
//! shard departing its own residencies, serving its own queue and
//! running its own threshold defrag never reads a sibling. The loop
//! walks those segments in shard-index order on the calling thread; the
//! cross-shard edges (routing, migration, the fleet defrag trigger,
//! report aggregation) run between them in the same fixed order.
//!
//! [`HorizonClock`] answers the horizon incrementally; [`horizon`] is
//! the straight scan it is checked against.

use rtm_sched::task::Micros;
use rtm_service::RuntimeService;

/// The next cross-shard event horizon: the earliest of the next trace
/// event and every shard's next local event
/// ([`RuntimeService::next_local_event`]). `None` means the fleet is
/// drained — no pending trace events and no shard has anything
/// self-scheduled — and the run is over. Up to (and including) the
/// returned instant, every shard's work is a pure function of its own
/// state.
///
/// This is the straight O(shards) scan — the reference semantics. The
/// epoch loop itself asks a [`HorizonClock`], which answers from a
/// lazily-rebuilt min-heap and only re-reads shards whose
/// [`RuntimeService::schedule_version`] moved; the clock
/// `debug_assert`s its answer against this scan on every call.
pub fn horizon(next_trace: Option<Micros>, shards: &[RuntimeService]) -> Option<Micros> {
    let local = shards
        .iter()
        .filter_map(RuntimeService::next_local_event)
        .min();
    match (next_trace, local) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(Micros::MAX).min(b.unwrap_or(Micros::MAX))),
    }
}

/// An incremental horizon: a min-heap of per-shard next events, rebuilt
/// lazily from each shard's [`RuntimeService::schedule_version`]. The
/// straight [`horizon`] scan reads every shard's expiry map (a min over
/// its residents) every epoch — O(fleet residents) per epoch even when
/// nothing changed. The clock pays that read only for shards whose
/// schedule actually moved, pushes their fresh next event, and pops
/// stale heap tops on demand: each schedule change costs O(log shards)
/// amortised, and a quiet epoch costs one version compare per shard.
///
/// Correctness: every current per-shard next event has an entry in the
/// heap (pushed at the version that produced it), so the smallest
/// *valid* top — one whose value still matches the shard's freshly
/// version-checked `seen` value — is the global minimum. Entries
/// invalidated by later versions simply die on pop.
#[derive(Debug, Default)]
pub struct HorizonClock {
    /// Min-heap of `(next_event, shard)` candidates; stale entries are
    /// popped lazily.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Micros, usize)>>,
    /// Per shard: the schedule version last seen, and the next-event
    /// value it produced. The version starts at a sentinel no real
    /// shard reports so the first call refreshes everything.
    seen: Vec<(u64, Option<Micros>)>,
}

impl HorizonClock {
    /// A clock for a fleet of `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        HorizonClock {
            heap: std::collections::BinaryHeap::new(),
            seen: vec![(u64::MAX, None); shard_count],
        }
    }

    /// The next cross-shard event horizon — semantically identical to
    /// [`horizon`]`(next_trace, shards)`, incrementally computed.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not the fleet this clock was sized for.
    pub fn next(
        &mut self,
        next_trace: Option<Micros>,
        shards: &[RuntimeService],
    ) -> Option<Micros> {
        assert_eq!(self.seen.len(), shards.len(), "clock sized for the fleet");
        for (i, s) in shards.iter().enumerate() {
            let v = s.schedule_version();
            if self.seen[i].0 != v {
                let e = s.next_local_event();
                self.seen[i] = (v, e);
                if let Some(t) = e {
                    self.heap.push(std::cmp::Reverse((t, i)));
                }
            }
        }
        let local = loop {
            match self.heap.peek() {
                None => break None,
                Some(&std::cmp::Reverse((t, i))) => {
                    if self.seen[i].1 == Some(t) {
                        break Some(t);
                    }
                    self.heap.pop();
                }
            }
        };
        let result = match (next_trace, local) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(Micros::MAX).min(b.unwrap_or(Micros::MAX))),
        };
        debug_assert_eq!(
            result,
            horizon(next_trace, shards),
            "heap horizon must equal the scan"
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_service::{QosTier, ServiceConfig, ServiceReport};

    fn fleet(n: usize) -> (Vec<RuntimeService>, Vec<ServiceReport>) {
        let shards = (0..n)
            .map(|_| RuntimeService::new(ServiceConfig::default()))
            .collect();
        let reports = (0..n)
            .map(|i| ServiceReport::new(format!("e#{i}")))
            .collect();
        (shards, reports)
    }

    #[test]
    fn horizon_is_min_of_trace_and_local_events() {
        let (mut shards, mut reports) = fleet(2);
        assert_eq!(horizon(None, &shards), None, "drained fleet has no horizon");
        assert_eq!(horizon(Some(50), &shards), Some(50));

        // Give shard 1 a residency expiring at 30_000 + 10_000.
        use rtm_service::trace::Arrival;
        use rtm_service::AdmissionBid;
        let a = Arrival {
            id: 7,
            rows: 4,
            cols: 4,
            duration: Some(10_000),
            deadline: None,
            tier: QosTier::Standard,
        };
        let out = shards[1]
            .admit(30_000, AdmissionBid::direct(a), &mut reports[1])
            .unwrap();
        assert_eq!(out, rtm_service::OfferOutcome::Admitted);
        assert_eq!(horizon(None, &shards), Some(40_000));
        assert_eq!(horizon(Some(35_000), &shards), Some(35_000));
        assert_eq!(horizon(Some(45_000), &shards), Some(40_000));
    }

    #[test]
    fn horizon_clock_tracks_the_scan_through_schedule_changes() {
        use rtm_service::trace::Arrival;
        use rtm_service::AdmissionBid;
        let (mut shards, mut reports) = fleet(3);
        let mut clock = HorizonClock::new(3);
        assert_eq!(clock.next(None, &shards), None);
        assert_eq!(clock.next(Some(50), &shards), Some(50));

        // Admissions with durations schedule expiries on two shards.
        for (shard, id, dur) in [(0usize, 1u64, 40_000u64), (2, 2, 15_000)] {
            let a = Arrival {
                id,
                rows: 4,
                cols: 4,
                duration: Some(dur),
                deadline: None,
                tier: QosTier::Standard,
            };
            let out = shards[shard]
                .admit(10_000, AdmissionBid::direct(a), &mut reports[shard])
                .unwrap();
            assert_eq!(out, rtm_service::OfferOutcome::Admitted);
        }
        assert_eq!(clock.next(None, &shards), Some(25_000), "earliest expiry");
        assert_eq!(clock.next(Some(20_000), &shards), Some(20_000));

        // Departing the earlier residency must invalidate its heap
        // entry: the clock falls back to the later one.
        shards[2].depart(2, &mut reports[2]).unwrap();
        assert_eq!(clock.next(None, &shards), Some(50_000));
        shards[0].depart(1, &mut reports[0]).unwrap();
        assert_eq!(clock.next(None, &shards), None, "drained again");
    }
}
