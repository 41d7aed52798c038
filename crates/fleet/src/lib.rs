//! # rtm-fleet
//!
//! The multi-device sharding layer: where `rtm-service` closes the
//! paper's on-line management story for *one* device, this crate scales
//! it out to a fleet. A [`FleetService`] owns N per-device
//! [`RuntimeService`](rtm_service::RuntimeService) shards (heterogeneous
//! device sizes allowed) and replays one [`Trace`](rtm_service::Trace)
//! across all of them under a shared clock. The decision this layer
//! adds — *which device gets this function* — is a first-class policy
//! ([`RoutingPolicy`]) exactly as in the surrounding literature: QoS
//! driven function allocation (Ullmann et al.) and scalable FPGA
//! resource-management layers both put a cross-device allocator above
//! the per-device placer.
//!
//! What the fleet does per arrival (the plan-reuse admission
//! pipeline):
//!
//! 1. the [`RoutingPolicy`] ranks every device that could physically
//!    hold the request (round-robin, least-utilized,
//!    best-fit-by-free-contiguous-area, or the two-stage
//!    fragmentation-aware policy: a cheap cut on every device's
//!    epoch-cached [`summary`](rtm_core::RunTimeManager::summary),
//!    then the expensive non-mutating
//!    [`preview_admission`](rtm_core::RunTimeManager::preview_admission)
//!    on the top-K survivors only);
//! 2. the fleet **reserves** the request on each ranked device in turn
//!    — **cross-device retry**, capped by
//!    [`FleetConfig::max_offer_attempts`] — seating an epoch-stamped
//!    admission ticket on the first that takes it
//!    ([`RuntimeService::reserve`](rtm_service::RuntimeService::reserve)
//!    accounts the request and reserves the arena region but writes no
//!    frames); a candidate previewed in step 1 carries its epoch-stamped
//!    [`RoomPlan`](rtm_core::RoomPlan) inside the ticket, which the
//!    execute step replays via
//!    [`load_with_plan`](rtm_core::RunTimeManager::load_with_plan)
//!    without planning again (stale plans are detected and re-planned,
//!    never executed);
//! 3. the ticket is **executed** —
//!    [`RuntimeService::execute_reserved`](rtm_service::RuntimeService::execute_reserved)
//!    implements the design and writes configuration frames — in the
//!    epoch's execute phase, right after the routing edge, when every
//!    shard drains its own ticket queue; a device-specific *load*
//!    failure (placement/routing congestion) is then resolved,
//!    recorded and attributed on that shard, and the next-ranked device
//!    gets the request — counted in [`FleetReport::load_failovers`];
//! 4. if nobody can place it right now, the request queues on the
//!    best-ranked device that reported "no room" (served later in that
//!    shard's [`QueueOrder`](rtm_service::QueueOrder));
//! 5. requests no device can ever hold are counted
//!    [`FleetReport::unplaceable`] and dropped, never queued.
//!
//! Each shard keeps its own defragmentation threshold; on top of that a
//! fleet-level trigger ([`FleetConfig::fleet_frag_threshold`]) forces a
//! cycle on the device with the highest predicted gain when the *mean*
//! fragmentation index across the fleet climbs too high. The outcome of
//! a run is a [`FleetReport`]: per-device
//! [`ServiceReport`](rtm_service::ServiceReport)s plus fleet-wide
//! admission totals, retry/unplaceable counts and a fragmentation
//! timeline.
//!
//! The fleet advances epoch by epoch (the [`engine`] module holds its
//! clock): each epoch runs every shard's **shard-local segment**
//! (departures, queue service, threshold defrag) up to the next
//! cross-shard event horizon, then applies the cross-shard edges
//! (routing, migration, the fleet defrag trigger) in shard-index order.
//! Each routing edge is followed by an **execute phase**: every shard
//! drains its own ticket queue before the tickets are resolved. One
//! thread walks the whole epoch in a fixed order, so a run is a pure
//! function of the trace and the configuration — `tests/determinism.rs`
//! pins equal reports and byte-identical event streams for repeat runs
//! over random fleets, scenarios, policies and rebalancers.
//!
//! Routing decides where a function *starts*; the [`rebalance`]
//! subsystem revisits the decision. With a [`RebalancePolicy`]
//! installed ([`FleetService::with_rebalancer`]), the fleet migrates
//! resident functions between devices during **idle port windows** —
//! extract with live state and the unload's undo records, readmit
//! through the plan-reuse pipeline, restore frame-exactly on failure —
//! repairing aged placements (round-robin's combs) that neither
//! admission-time routing nor per-device compaction can fix. A
//! migration is refused outright if its port time could make any
//! queued deadline-bound request late.
//!
//! ## Example
//!
//! ```
//! use rtm_fleet::{FleetConfig, FleetService, routing::BestFitContiguous};
//! use rtm_fpga::part::Part;
//! use rtm_service::{QosTier, ServiceConfig};
//! use rtm_service::trace::{Arrival, Trace, TraceEvent};
//!
//! // Two small devices and a big one.
//! let config = FleetConfig::heterogeneous(
//!     &[Part::Xcv50, Part::Xcv50, Part::Xcv200],
//!     ServiceConfig::default(),
//! );
//! let mut fleet = FleetService::new(config, Box::new(BestFitContiguous));
//!
//! // A request too big for an XCV50 routes to the XCV200.
//! let mut trace = Trace::new("sized-routing");
//! trace.push(0, TraceEvent::Arrival(Arrival {
//!     id: 0, rows: 24, cols: 30, duration: None, deadline: None,
//!     tier: QosTier::Standard,
//! }));
//! let report = fleet.run(&trace).unwrap();
//! assert_eq!(report.admitted(), 1);
//! assert_eq!(fleet.shards()[2].resident_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod fleet;
pub mod rebalance;
pub mod report;
pub mod routing;

pub use config::FleetConfig;
pub use fleet::FleetService;
pub use rebalance::{
    standard_rebalancers, MigrationDirective, MigrationOutcome, RebalancePolicy,
    UtilizationLevelling, WorstShardDrain,
};
pub use report::{FleetReport, FleetSample, ShardOutcome};
pub use routing::{standard_policies, RouteCandidate, RoutingPolicy};
