//! The runtime service loop: replay a trace against the live manager.

use crate::config::{QueueOrder, ServiceConfig};
use crate::report::{AdmissionRecord, DefragSummary, FragSample, ServiceReport};
use crate::trace::{Arrival, Trace, TraceEvent};
use rtm_core::manager::{FunctionId, RunTimeManager};
use rtm_core::{
    AdmissionTicket, CoreError, DefragPlan, ExtractedFunction, LoadFailureReason, PlanStats,
    RelocationReport, RoomPlan,
};
use rtm_fpga::part::Part;
use rtm_netlist::random::RandomCircuit;
use rtm_netlist::techmap::{map_to_luts, MappedNetlist};
use rtm_obs::{EventBuffer, EventKind, EventSink, RejectReason, RtmEvent};
use rtm_place::defrag::Move;
use rtm_sched::admission::AdmissionOutcome;
use rtm_sched::qos::{victim_cost, QosTier};
use rtm_sched::task::Micros;
use std::collections::{BTreeMap, VecDeque};

/// A queued request.
#[derive(Debug, Clone, Copy)]
struct Queued {
    arrival: Arrival,
    queued_at: Micros,
}

/// A typed admission bid: the arrival (which carries its
/// [`QosTier`]) and an optional epoch-stamped rearrangement plan the
/// caller already computed for this request on this device (typically
/// from a frag-aware routing preview). [`RuntimeService::reserve`] and
/// [`RuntimeService::admit`] consume bids.
#[derive(Debug, Clone)]
pub struct AdmissionBid {
    arrival: Arrival,
    plan: Option<RoomPlan>,
}

impl AdmissionBid {
    /// A bid offered straight to this service, without a routed plan.
    pub fn direct(arrival: Arrival) -> Self {
        AdmissionBid {
            arrival,
            plan: None,
        }
    }

    /// A bid delivered by a fleet router, carrying the room plan its
    /// ranking previewed for this device, if any.
    pub fn routed(arrival: Arrival, plan: Option<RoomPlan>) -> Self {
        AdmissionBid { arrival, plan }
    }

    /// The arrival being bid.
    pub fn arrival(&self) -> &Arrival {
        &self.arrival
    }

    /// The caller-held rearrangement plan, if any.
    pub fn plan(&self) -> Option<&RoomPlan> {
        self.plan.as_ref()
    }
}

/// What became of one [`RuntimeService::admit`] — the immediate,
/// queue-bypassing admission attempt a fleet router uses to probe
/// devices before committing a request to one of them. Reject arms
/// carry the attributed [`RejectReason`] so callers no longer have to
/// re-derive it from the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Admitted and resident on this device.
    Admitted,
    /// Refused and accounted (duplicate id or synthesis failure) — the
    /// refusal is deterministic for the request, so the request is
    /// consumed: do not try it elsewhere.
    Dropped {
        /// Why the request was refused.
        reason: RejectReason,
    },
    /// The load failed on *this* device (placement/routing congestion),
    /// recorded here with its attributed reason. The failure is
    /// device-specific — a fleet may retry the next-ranked device.
    LoadFailed {
        /// The attributed load-failure reason.
        reason: RejectReason,
    },
    /// Cannot be placed on this device right now; nothing was recorded,
    /// the caller may try another device or queue it.
    NoRoom,
}

/// What became of one [`RuntimeService::reserve`] — the sequential
/// *decide* half of two-phase admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveOutcome {
    /// Decided and seated: an epoch-stamped ticket now reserves the
    /// arena region and the request is accounted. The load itself runs
    /// when this shard drains its ticket queue
    /// ([`RuntimeService::execute_reserved`]); fetch the result with
    /// [`RuntimeService::resolve_ticket`].
    Reserved,
    /// Refused and accounted at decide time (duplicate id or synthesis
    /// failure) — deterministic for the request, do not retry
    /// elsewhere.
    Dropped {
        /// Why the request was refused.
        reason: RejectReason,
    },
    /// The *reservation* itself failed on this device (a planned
    /// rearrangement move hit congestion, or allocation failed),
    /// recorded with its attributed reason. Device-specific, like a
    /// load failure: the caller may retry the next-ranked device.
    Failed {
        /// The attributed failure reason.
        reason: RejectReason,
    },
    /// Cannot be placed on this device right now; nothing was recorded.
    NoRoom,
}

/// The resolved fate of one executed admission ticket, returned by
/// [`RuntimeService::resolve_ticket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketOutcome {
    /// The design was implemented and the function is resident.
    Executed,
    /// The deferred load failed (already accounted and attributed on
    /// this shard); resolving it cancelled the reservation, so the
    /// caller may failover the request to a sibling.
    Failed {
        /// The attributed load-failure reason.
        reason: RejectReason,
    },
}

/// A seated admission awaiting execution: everything the execute phase
/// needs to finish the load without re-deciding anything.
#[derive(Debug)]
struct PendingTicket {
    trace_id: u64,
    queued_at: Micros,
    ticket: AdmissionTicket,
    design: MappedNetlist,
    /// Simulated instant the function starts (decide time + planned
    /// rearrangement traffic on the reconfiguration port).
    start: Micros,
    duration: Option<Micros>,
    tier: QosTier,
}

/// Execution fate of a ticket, parked until the caller resolves it. A
/// failed ticket keeps its [`FunctionId`] so resolution can cancel the
/// still-seated arena reservation.
#[derive(Debug, Clone, Copy)]
enum ResolvedTicket {
    Executed,
    Failed(FunctionId, RejectReason),
}

/// Why a resident leaves its shard through [`RuntimeService::extract`]
/// and arrives on another through [`RuntimeService::readmit`]. The
/// mechanics are the same either way (a checkpointed extraction bundle,
/// readmitted frame for frame); the kind picks the counters and events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Displacement {
    /// A rebalancing migration: [`ServiceReport::migrations_out`] and
    /// [`ServiceReport::migrations_in`], `MigrationOut` and `MigrationIn`
    /// events.
    Migration,
    /// A preemptive eviction, readmitted on a sibling or later from the
    /// fleet's park queue: [`ServiceReport::evictions_out`] and
    /// [`ServiceReport::evictions_in`], `Evicted` and `Readmitted`
    /// events. Tracked apart from migrations so the rebalancing identity
    /// `Σ migrations_out == Σ migrations_in` survives bundles that are
    /// parked instead of readmitted.
    Eviction,
}

/// A function in flight between shards: the service-level wrapper a
/// fleet carries from [`RuntimeService::extract`] to
/// [`RuntimeService::readmit`]. Besides the core-level
/// [`ExtractedFunction`] snapshot it keeps the *service* identity — the
/// trace id and the absolute residency expiry — so the function's
/// lifecycle continues seamlessly on the new device: it departs at the
/// same simulated time it always would have.
#[derive(Debug, Clone)]
pub struct MigratingFunction {
    trace_id: u64,
    extracted: ExtractedFunction,
    expiry: Option<Micros>,
    tier: QosTier,
}

impl MigratingFunction {
    /// The trace-level id of the migrating function.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The function's QoS tier — carried across migrations and
    /// evictions so the function stays exactly as evictable on its new
    /// shard (or after park readmission) as it was on the old one.
    pub fn tier(&self) -> QosTier {
        self.tier
    }

    /// The core-level snapshot (design, state, checkpoint).
    pub fn extracted(&self) -> &ExtractedFunction {
        &self.extracted
    }

    /// The function's shape (`rows`, `cols`).
    pub fn shape(&self) -> (u16, u16) {
        self.extracted.shape()
    }

    /// CLBs the function occupies — the reconfiguration-port time a
    /// device pays (× `us_per_clb`) to copy it off or on.
    pub fn cells(&self) -> u32 {
        self.extracted.cells()
    }

    /// The absolute residency expiry carried across the migration.
    pub fn expiry(&self) -> Option<Micros> {
        self.expiry
    }
}

/// The event-driven runtime service: the paper's on-line management
/// story closed into a loop. Functions arrive through a [`Trace`], are
/// admitted under an `rtm-sched` [`Policy`](rtm_sched::Policy), become
/// *real* loaded functions on the managed device (placement, routing,
/// configuration frames), get relocated live when fragmentation crosses
/// the configured threshold, and leave when their residency ends.
///
/// State persists across [`RuntimeService::run`] calls — a service is
/// long-running — so replaying a second trace continues from the
/// device state the first one left behind.
///
/// [`RuntimeService::run`] owns the clock for a single device. A
/// multi-device fleet drives the same machinery through the stepping
/// API instead — [`RuntimeService::advance_to`],
/// [`RuntimeService::reserve`] / [`RuntimeService::execute_reserved`] /
/// [`RuntimeService::resolve_ticket`] (or the one-shot
/// [`RuntimeService::admit`]), [`RuntimeService::enqueue`],
/// [`RuntimeService::depart`] and [`RuntimeService::settle`] — keeping
/// one shared clock across all shards while each shard keeps its own
/// queue, residency table and defragmentation trigger. Admission is
/// two-phase: the *decide* step seats an epoch-stamped ticket on the
/// routing edge, and the heavy *execute* step (cells, nets,
/// configuration frames) runs when the shard drains its ticket queue.
///
/// # Examples
///
/// ```
/// use rtm_sched::qos::QosTier;
/// use rtm_service::{RuntimeService, ServiceConfig};
/// use rtm_service::trace::{Arrival, Trace, TraceEvent};
///
/// let mut trace = Trace::new("doc");
/// trace.push(0, TraceEvent::Arrival(Arrival {
///     id: 0, rows: 6, cols: 6, duration: Some(100_000), deadline: None,
///     tier: QosTier::Standard,
/// }));
/// let mut service = RuntimeService::new(ServiceConfig::default());
/// let report = service.run(&trace).unwrap();
/// assert_eq!(report.admitted, 1);
/// assert_eq!(report.departures, 1, "duration expired inside the run");
/// ```
#[derive(Debug)]
pub struct RuntimeService {
    config: ServiceConfig,
    mgr: RunTimeManager,
    now: Micros,
    /// Trace id → manager function id for resident functions.
    resident: BTreeMap<u64, FunctionId>,
    /// Trace id → simulated time its residency expires.
    expiry: BTreeMap<u64, Micros>,
    /// Trace id → QoS tier of every resident — the candidate set
    /// [`RuntimeService::preemption_victim`] ranks when a higher-tier
    /// reserve cannot be seated.
    tier_of: BTreeMap<u64, QosTier>,
    queue: VecDeque<Queued>,
    /// Manager plan-stats snapshot at the start of the current run —
    /// [`RuntimeService::finish`] reports the delta.
    stats_base: PlanStats,
    /// The queue head that last failed to place, with the manager epoch
    /// it failed at. While the head and epoch are unchanged, serving
    /// the queue is a no-op without re-planning: `make_room` is a pure
    /// function of the layout, and deadline slack only shrinks as the
    /// clock advances, so a blocked head stays blocked until the device
    /// mutates.
    head_blocked: Option<(u64, u64)>,
    /// Deterministic event stream, recorded when tracing is enabled
    /// ([`RuntimeService::enable_events`]). `None` keeps the hot path
    /// branch-cheap. Manager-level events (loads, defrag cycles) are
    /// emitted *here*, from the manager's reports — the manager itself
    /// has no simulated clock to stamp them with.
    events: Option<EventBuffer>,
    /// Seated admissions awaiting execution, in decide order. Drained
    /// by [`RuntimeService::execute_reserved`] — and defensively by
    /// every entry point that could otherwise observe a half-admitted
    /// device, so no caller ever sees a reserved-but-unimplemented
    /// function.
    tickets: VecDeque<PendingTicket>,
    /// Executed tickets awaiting [`RuntimeService::resolve_ticket`],
    /// keyed by trace id. A failed entry still holds its arena
    /// reservation until resolution cancels it.
    resolved: BTreeMap<u64, ResolvedTicket>,
    /// Bumped whenever the expiry schedule changes — the cheap dirty
    /// flag a fleet's horizon clock compares before re-reading
    /// [`RuntimeService::next_local_event`].
    schedule_version: u64,
    /// Deterministic failure injection: the next N ticket executions
    /// fail as if the device refused the load (`LoadOther`). Test seam
    /// for the failover nets — a real execute-time failure (routing
    /// congestion under foreign nets) needs a layout too contrived to
    /// pin deterministically across refactors.
    force_fail_loads: u32,
}

// Compile-time `Send` pin: a shard (service + its manager) must stay
// movable across threads, so a fleet can live on any thread its owner
// picks. Holds because every field is owned data and the manager's
// interior mutability is `Cell`/`RefCell` (`Send`, not `Sync`).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RuntimeService>();
};

impl RuntimeService {
    /// A service over a blank device described by `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let mut mgr = RunTimeManager::new(config.part);
        mgr.strategy = config.strategy;
        RuntimeService {
            config,
            mgr,
            now: 0,
            resident: BTreeMap::new(),
            expiry: BTreeMap::new(),
            tier_of: BTreeMap::new(),
            queue: VecDeque::new(),
            stats_base: PlanStats::default(),
            head_blocked: None,
            events: None,
            tickets: VecDeque::new(),
            resolved: BTreeMap::new(),
            schedule_version: 0,
            force_fail_loads: 0,
        }
    }

    /// Makes the next `n` ticket executions fail deterministically, as
    /// if the device refused the load — the seam the failover test
    /// nets use to exercise deferred `LoadFailed` paths on demand.
    #[doc(hidden)]
    pub fn force_execute_failures(&mut self, n: u32) {
        self.force_fail_loads += n;
    }

    /// Installs an [`EventBuffer`] tagged `shard`: from here on every
    /// lifecycle step emits a deterministic [`RtmEvent`] (simulated
    /// timestamps only). Drain with [`RuntimeService::take_events`].
    pub fn enable_events(&mut self, shard: u32) {
        self.events = Some(EventBuffer::new(shard));
    }

    /// True when an event buffer is installed.
    pub fn events_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Drains the recorded events, oldest first (empty when tracing is
    /// disabled).
    pub fn take_events(&mut self) -> Vec<RtmEvent> {
        self.events
            .as_ref()
            .map(EventBuffer::take)
            .unwrap_or_default()
    }

    /// The event sink, when tracing is enabled — the internal
    /// `Option<&dyn EventSink>` threaded through the admission,
    /// departure, defragmentation and migration paths.
    fn sink(&self) -> Option<&dyn EventSink> {
        self.events.as_ref().map(|b| b as &dyn EventSink)
    }

    /// The configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The managed device and function table (read-only).
    pub fn manager(&self) -> &RunTimeManager {
        &self.mgr
    }

    /// The device part this service manages.
    pub fn part(&self) -> Part {
        self.config.part
    }

    /// Current simulated time (µs).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Requests waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Functions currently resident.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// True if this service holds `trace_id` — resident or waiting in
    /// the queue. A fleet uses this to route duplicate arrivals to the
    /// owning shard, so the shard-level duplicate refusal fires there.
    pub fn holds(&self, trace_id: u64) -> bool {
        self.resident.contains_key(&trace_id) || self.queue.iter().any(|q| q.arrival.id == trace_id)
    }

    /// The earliest known residency expiration, if any — the shard's
    /// contribution to a fleet-wide event clock.
    pub fn next_expiry(&self) -> Option<Micros> {
        self.expiry.values().min().copied()
    }

    /// The shard's next **self-scheduled** event: the read-only peek a
    /// fleet uses to compute the next cross-shard horizon. Everything
    /// strictly before this instant is shard-local — this shard will
    /// not unload, admit or defragment anything on its own — so the
    /// fleet may advance the shard to the horizon without a sibling
    /// ever observing intermediate state. Today the only
    /// self-scheduled events are residency
    /// expirations ([`RuntimeService::next_expiry`]); queued deadlines
    /// are *reactive* (checked when the queue is served at a processed
    /// instant) and deliberately not part of the horizon.
    pub fn next_local_event(&self) -> Option<Micros> {
        self.next_expiry()
    }

    /// Monotonic counter bumped whenever the expiry schedule — and
    /// therefore [`RuntimeService::next_local_event`] — may have
    /// changed. A fleet horizon clock keeps per-shard heap entries
    /// fresh by comparing versions instead of re-scanning every shard
    /// every epoch.
    pub fn schedule_version(&self) -> u64 {
        self.schedule_version
    }

    /// Seated admissions not yet executed (the shard's ticket-queue
    /// depth). Zero except between [`RuntimeService::reserve`] and the
    /// next [`RuntimeService::execute_reserved`] drain.
    pub fn pending_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// The resident functions as `(trace_id, manager_id, region)` — the
    /// candidate set a fleet rebalancing planner scores (via
    /// [`RunTimeManager::preview_release`](rtm_core::RunTimeManager::preview_release)
    /// and the region geometry) when deciding what to migrate where.
    pub fn resident_functions(&self) -> Vec<(u64, FunctionId, rtm_fpga::geom::Rect)> {
        self.resident
            .iter()
            .filter_map(|(tid, fid)| self.mgr.function(*fid).map(|f| (*tid, *fid, f.region)))
            .collect()
    }

    /// The manager-level id of one resident trace id (`None` when the
    /// id is not resident here) — the point lookup a fleet uses to
    /// resolve a single migration directive without materialising the
    /// whole resident set.
    pub fn resident_function_id(&self, trace_id: u64) -> Option<FunctionId> {
        self.resident.get(&trace_id).copied()
    }

    /// The requests waiting in this shard's queue, in queue order — a
    /// fleet rebalancing planner reads them to spot *geometry
    /// starvation*: a queued request larger than the shard's largest
    /// free rectangle can only start if residents migrate away, no
    /// amount of local compaction will seat it.
    pub fn queued_requests(&self) -> Vec<Arrival> {
        self.queue.iter().map(|q| q.arrival).collect()
    }

    /// Reconfiguration-port time (µs) this shard can spend on
    /// background work — a migration copy in or out — without making
    /// any *queued* request late: for every queued deadline-bound
    /// request, the port must be free again early enough that the
    /// request could still start by its deadline even if admitting it
    /// costs a worst-case rearrangement of its own area. The tightest
    /// such budget is the idle window; `Micros::MAX` when nothing
    /// queued carries a deadline. Future arrivals are unknown and
    /// deliberately not reserved for — migrations ride the windows the
    /// *known* work leaves open, which is exactly the strip-packing-
    /// with-delays discipline: defragment off the critical path.
    pub fn idle_window(&self) -> Micros {
        self.queue
            .iter()
            .filter_map(|q| {
                q.arrival.deadline.map(|d| {
                    d.saturating_sub(self.now)
                        .saturating_sub(q.arrival.area() as Micros * self.config.us_per_clb)
                })
            })
            .min()
            .unwrap_or(Micros::MAX)
    }

    /// Replays `trace` to completion: every event is processed in time
    /// order, then the clock advances through the remaining known
    /// residency expirations so duration-bound functions depart inside
    /// the run. Returns the structured report.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only for failures that corrupt the
    /// service invariants (a failed unload or defragmentation).
    /// Per-request load failures are absorbed into
    /// [`ServiceReport::failures`] — one bad request must not take the
    /// service down.
    pub fn run(&mut self, trace: &Trace) -> Result<ServiceReport, CoreError> {
        let mut report = ServiceReport::new(trace.name());
        let events = trace.events();
        let mut idx = 0usize;
        loop {
            let next_trace = events.get(idx).map(|e| e.at);
            let now = match (next_trace, self.next_expiry()) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(e)) => e,
                (Some(a), Some(e)) => a.min(e),
            };
            // 1. Clock forward; residencies that expired by now depart.
            self.advance_to(now, &mut report)?;

            // 2. Trace events at this instant, in stream order.
            while idx < events.len() && events[idx].at <= now {
                match events[idx].event {
                    TraceEvent::Arrival(a) => self.enqueue(events[idx].at, a, &mut report)?,
                    TraceEvent::Departure { id } => self.depart(id, &mut report)?,
                }
                idx += 1;
            }

            // 3. Serve the queue, sample fragmentation, defragment if
            //    the trigger fires.
            self.settle(&mut report)?;
        }

        self.finish(&mut report);
        Ok(report)
    }

    /// Advances the clock to `now` (monotonic: an earlier `now` is a
    /// no-op) and departs every residency that expired by then.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from a failed unload.
    pub fn advance_to(&mut self, now: Micros, report: &mut ServiceReport) -> Result<(), CoreError> {
        // Settle any still-pending tickets at their decide-time clock
        // before the clock moves: a departure (or anything else this
        // sweep does) must never observe a half-admitted device.
        self.execute_reserved(report)?;
        self.now = self.now.max(now);
        let due: Vec<u64> = self
            .expiry
            .iter()
            .filter(|(_, t)| **t <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            self.depart(id, report)?;
        }
        Ok(())
    }

    /// Queues an arrival that was submitted at `at` without attempting
    /// admission yet — [`RuntimeService::settle`] (or the next
    /// [`RuntimeService::run`] step) serves it in the configured
    /// [`QueueOrder`]. Advances the clock to `at` so wait times and
    /// residency expirations can never be computed against a stale
    /// clock.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only from draining still-pending
    /// tickets (the events of an earlier admission must land before
    /// this arrival's).
    pub fn enqueue(
        &mut self,
        at: Micros,
        arrival: Arrival,
        report: &mut ServiceReport,
    ) -> Result<(), CoreError> {
        self.execute_reserved(report)?;
        self.now = self.now.max(at);
        report.record_submission(arrival.tier);
        if let Some(s) = self.sink() {
            s.emit(
                self.now,
                EventKind::Arrival {
                    id: arrival.id,
                    rows: arrival.rows,
                    cols: arrival.cols,
                },
            );
            s.emit(self.now, EventKind::Enqueued { id: arrival.id });
        }
        self.queue.push_back(Queued {
            arrival,
            queued_at: at,
        });
        Ok(())
    }

    /// The *decide* half of two-phase admission: runs the routing and
    /// feasibility pipeline for `bid` right now, bypassing the queue,
    /// and on success seats an epoch-stamped [`AdmissionTicket`] that
    /// reserves the arena region and accounts the request — but writes
    /// no cells, nets or frames. The heavy implementation work runs
    /// when this shard next drains its ticket queue
    /// ([`RuntimeService::execute_reserved`] — inside the epoch's
    /// execute phase, for a fleet), and the fate of the ticket is
    /// fetched with [`RuntimeService::resolve_ticket`].
    ///
    /// On [`ReserveOutcome::NoRoom`] nothing is recorded and the caller
    /// may probe another device; the other outcomes account the request
    /// on this shard. Advances the clock to `at` first, so deadline
    /// feasibility, wait times and residency expirations are all judged
    /// at the bid's own time. A valid [`AdmissionBid::plan`] makes the
    /// decision plan-free (executed without re-running `make_room`); a
    /// stale plan is detected and re-planned.
    ///
    /// Still-pending tickets from earlier reservations are executed
    /// first — every entry point that could observe admission state
    /// drains the queue — so per-shard event order is the order in
    /// which requests were decided, whenever the tickets run.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only for invariant-corrupting failures,
    /// exactly like [`RuntimeService::run`].
    pub fn reserve(
        &mut self,
        at: Micros,
        bid: AdmissionBid,
        report: &mut ServiceReport,
    ) -> Result<ReserveOutcome, CoreError> {
        self.execute_reserved(report)?;
        self.now = self.now.max(at);
        let q = Queued {
            arrival: bid.arrival,
            queued_at: at,
        };
        // The Arrival event must precede the outcome event, but a NoRoom
        // bid records nothing — emit speculatively and roll back.
        let mark = self.events.as_ref().map(EventBuffer::mark);
        if let Some(s) = self.sink() {
            s.emit(
                self.now,
                EventKind::Arrival {
                    id: bid.arrival.id,
                    rows: bid.arrival.rows,
                    cols: bid.arrival.cols,
                },
            );
        }
        let outcome = self.decide(&q, bid.plan, report)?;
        if outcome == ReserveOutcome::NoRoom {
            if let (Some(b), Some(m)) = (self.events.as_ref(), mark) {
                b.truncate(m);
            }
        } else {
            report.record_submission(q.arrival.tier);
        }
        Ok(outcome)
    }

    /// The *execute* half of two-phase admission: implements every
    /// seated ticket, oldest first — placement already fixed by the
    /// reservation, so this is pure, shard-local implementation work
    /// (cells, nets, configuration frames). Outcomes are parked for
    /// [`RuntimeService::resolve_ticket`]; a failed load keeps its
    /// arena reservation until resolved.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only for invariant-corrupting failures;
    /// per-ticket load failures are absorbed, attributed and parked,
    /// exactly like [`RuntimeService::run`] absorbs load failures.
    pub fn execute_reserved(&mut self, report: &mut ServiceReport) -> Result<(), CoreError> {
        while let Some(pt) = self.tickets.pop_front() {
            self.execute_one(pt, report)?;
        }
        Ok(())
    }

    /// Resolves the fate of a previously reserved bid. Resolution is
    /// one-shot: it consumes the outcome, and resolving a failed ticket
    /// cancels its arena reservation — until then the region stays
    /// reserved, by design.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTicket`] when `trace_id` has no
    /// executed-but-unresolved ticket here — the id was never reserved,
    /// its ticket has not been executed yet, or it was already resolved.
    /// A typed error instead of a silent no-op: every such call is a
    /// caller losing track of the ticket lifecycle, and the failover
    /// paths must be able to tell "already consumed" apart from a real
    /// outcome.
    pub fn resolve_ticket(&mut self, trace_id: u64) -> Result<TicketOutcome, CoreError> {
        match self
            .resolved
            .remove(&trace_id)
            .ok_or(CoreError::UnknownTicket { trace_id })?
        {
            ResolvedTicket::Executed => Ok(TicketOutcome::Executed),
            ResolvedTicket::Failed(fid, reason) => {
                // The reservation was kept across the failure, so the
                // arena a sibling ranking reads does not depend on
                // when the ticket ran; releasing it is what resolution
                // *means*.
                let cancelled = self.mgr.cancel_reservation(fid);
                debug_assert!(cancelled.is_ok(), "failed ticket must still be seated");
                Ok(TicketOutcome::Failed { reason })
            }
        }
    }

    /// One-shot admission: [`RuntimeService::reserve`], then
    /// immediately execute and resolve — the single-device form of the
    /// two-phase pipeline, running the same machinery as a fleet's
    /// execute phase.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only for invariant-corrupting failures.
    pub fn admit(
        &mut self,
        at: Micros,
        bid: AdmissionBid,
        report: &mut ServiceReport,
    ) -> Result<OfferOutcome, CoreError> {
        let id = bid.arrival.id;
        let decided = self.reserve(at, bid, report)?;
        self.execute_reserved(report)?;
        self.admission_fate(id, decided)
    }

    /// The fate of a decided request once its ticket, if one was seated,
    /// has been drained: a seated ticket resolves to admitted or failed,
    /// and every other decision maps across as is.
    fn admission_fate(
        &mut self,
        id: u64,
        decided: ReserveOutcome,
    ) -> Result<OfferOutcome, CoreError> {
        Ok(match decided {
            ReserveOutcome::NoRoom => OfferOutcome::NoRoom,
            ReserveOutcome::Dropped { reason } => OfferOutcome::Dropped { reason },
            ReserveOutcome::Failed { reason } => OfferOutcome::LoadFailed { reason },
            // A reserved bid always resolves after its drain, so an
            // UnknownTicket here is a real invariant breach — let it
            // propagate.
            ReserveOutcome::Reserved => match self.resolve_ticket(id)? {
                TicketOutcome::Executed => OfferOutcome::Admitted,
                TicketOutcome::Failed { reason } => OfferOutcome::LoadFailed { reason },
            },
        })
    }

    /// Serves the wait queue, samples the fragmentation timeline, and
    /// runs a defragmentation cycle when the index exceeds the
    /// configured threshold. One call per processed instant.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from a failed defragmentation.
    pub fn settle(&mut self, report: &mut ServiceReport) -> Result<(), CoreError> {
        // Pending tickets must become real functions before the queue
        // is served or the defrag trigger reads fragmentation.
        self.execute_reserved(report)?;
        self.serve_queue(report)?;

        // The timeline must show the state the trigger saw, not
        // only the post-defrag recovery.
        report.frag_timeline.push(FragSample {
            at: self.now,
            metrics: self.mgr.fragmentation(),
        });

        if self.mgr.fragmentation().exceeds(self.config.frag_threshold) {
            self.defrag_now(None, report)?;
        }
        Ok(())
    }

    /// Runs one defragmentation cycle immediately, regardless of this
    /// shard's own threshold — the fleet-level trigger. The manager
    /// still refuses plans with no predicted improvement, so forcing a
    /// cycle on an incompressible (or already compact) layout is a
    /// recorded no-op. Returns whether a cycle actually executed.
    ///
    /// `plan` lets a caller that already planned the compaction (a
    /// fleet ranking devices by predicted gain) hand the plan over for
    /// execution via
    /// [`RunTimeManager::defragment_with_plan`](rtm_core::RunTimeManager::defragment_with_plan)
    /// instead of paying a second planning pass; stale plans are
    /// detected and re-planned.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from a failed relocation.
    pub fn defrag_now(
        &mut self,
        plan: Option<DefragPlan>,
        report: &mut ServiceReport,
    ) -> Result<bool, CoreError> {
        // Compaction planning must never see a reserved-but-
        // unimplemented id: drain pending tickets first, like every
        // other admission-state-observing entry point.
        self.execute_reserved(report)?;
        // Both paths execute through the plan pipeline (rtm-lint's
        // plan-discipline rule pins it): a caller-less trigger takes
        // the manager's epoch-cached plan, so a threshold cycle whose
        // gain the trigger already ranked costs no second planning
        // pass.
        let plan = plan.unwrap_or_else(|| self.mgr.cached_defrag_plan());
        let d = self.mgr.defragment_with_plan(&plan, |_, _, _| {})?;
        if d.moves.is_empty() {
            return Ok(false);
        }
        report.defrag_cycles += 1;
        if let Some(s) = self.sink() {
            s.emit(
                self.now,
                EventKind::DefragCycle {
                    before: d.before,
                    after: d.after,
                    moves: d.moves.len(),
                },
            );
        }
        report.defrags.push(DefragSummary {
            at: self.now,
            before: d.before,
            after: d.after,
            moves: d.moves.len(),
            cells_moved: d.cells_moved(),
            frames: d.frames_total(),
        });
        self.account_moves(&d.moves, &d.relocations, report);
        // Consolidated free space may admit queued requests.
        self.serve_queue(report)?;
        report.frag_timeline.push(FragSample {
            at: self.now,
            metrics: self.mgr.fragmentation(),
        });
        Ok(true)
    }

    /// Closes out a run: queue/residency tallies, the final
    /// fragmentation snapshot, and the run's planning-counter delta
    /// (the manager counts for its whole life; the report shows what
    /// *this* run moved).
    pub fn finish(&mut self, report: &mut ServiceReport) {
        report.queued_at_end = self.queue.len();
        report.resident_at_end = self.resident.len();
        report.final_frag = Some(self.mgr.fragmentation());
        let totals = self.mgr.plan_stats();
        report.plan_stats = totals.delta_since(self.stats_base);
        self.stats_base = totals;
    }

    /// Unloads a resident function, or cancels a queued one (counted as
    /// [`ServiceReport::cancelled`]). Unknown ids are ignored (a trace
    /// may depart a function that was never admitted).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from a failed unload.
    pub fn depart(&mut self, trace_id: u64, report: &mut ServiceReport) -> Result<(), CoreError> {
        // A departure may target a function whose admission is still a
        // pending ticket — execute first so it departs as a resident,
        // exactly as it would have under inline execution.
        self.execute_reserved(report)?;
        if let Some(fid) = self.resident_function_id(trace_id) {
            self.forget_resident(trace_id);
            self.mgr.unload(fid)?;
            report.departures += 1;
            if let Some(s) = self.sink() {
                s.emit(self.now, EventKind::Unload { id: trace_id });
            }
        } else {
            let before = self.queue.len();
            let now = self.now;
            let events = self.events.as_ref();
            self.queue.retain(|q| {
                if q.arrival.id == trace_id {
                    if let Some(b) = events {
                        b.emit(
                            now,
                            EventKind::Dequeued {
                                id: trace_id,
                                waited: now - q.queued_at,
                            },
                        );
                    }
                    false
                } else {
                    true
                }
            });
            report.cancelled += before - self.queue.len();
        }
        Ok(())
    }

    /// Extracts a resident function off this shard: the outbound half
    /// of a [`Displacement`]. The function's residency bookkeeping
    /// (trace id, tier, absolute expiry) travels with the returned
    /// [`MigratingFunction`]. The kind's outbound counter moves at once;
    /// a migration's is moved back by [`RuntimeService::restore_migrated`]
    /// if the readmission on the target fails, so completed-migration
    /// counters always balance fleet-wide.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Place`] when `trace_id` is not resident
    /// here (queued requests are routed, not migrated).
    pub fn extract(
        &mut self,
        trace_id: u64,
        kind: Displacement,
        report: &mut ServiceReport,
    ) -> Result<MigratingFunction, CoreError> {
        self.execute_reserved(report)?;
        let fid = self.resident_function_id(trace_id).ok_or(CoreError::Place(
            rtm_place::PlaceError::UnknownTask { id: trace_id },
        ))?;
        let extracted = self.mgr.extract_function(fid)?;
        let (tier, expiry) = self.forget_resident(trace_id);
        let event = match kind {
            Displacement::Migration => {
                report.migrations_out += 1;
                EventKind::MigrationOut { id: trace_id }
            }
            Displacement::Eviction => {
                report.evictions_out += 1;
                EventKind::Evicted {
                    id: trace_id,
                    tier: tier.index() as u8,
                }
            }
        };
        if let Some(s) = self.sink() {
            s.emit(self.now, event);
        }
        Ok(MigratingFunction {
            trace_id,
            extracted,
            expiry,
            tier,
        })
    }

    /// Readmits a displaced function onto this shard: the inbound half
    /// of a [`Displacement`] — a migration target, a preemption victim's
    /// new shard, or a parked bundle's later idle window. `plan` is the
    /// target-side rearrangement plan the caller computed while scoring
    /// this shard (revalidated exactly like any caller-held plan —
    /// stale ⇒ re-planned, never executed). On success the function is
    /// resident here with its original tier and expiry, and the
    /// admission rearrangement traffic is accounted like any other
    /// relocation work.
    ///
    /// # Errors
    ///
    /// Returns an error when the shard already holds the id, no room
    /// can be made, or the implementation fails — in every case this
    /// shard is left without orphan state and the caller still owns the
    /// bundle: it can stay parked, or be
    /// [restored](RuntimeService::restore_migrated) to its source.
    pub fn readmit(
        &mut self,
        at: Micros,
        m: &MigratingFunction,
        plan: Option<RoomPlan>,
        kind: Displacement,
        report: &mut ServiceReport,
    ) -> Result<(), CoreError> {
        self.execute_reserved(report)?;
        self.now = self.now.max(at);
        if self.resident.contains_key(&m.trace_id) {
            return Err(CoreError::Place(rtm_place::PlaceError::DuplicateTask {
                id: m.trace_id,
            }));
        }
        let (rows, cols) = m.shape();
        let plan = self
            .mgr
            .revalidate_room_plan(rows, cols, plan)
            .ok_or(CoreError::Place(rtm_place::PlaceError::NoFit {
                rows,
                cols,
            }))?;
        let lr = self
            .mgr
            .readmit_function(&m.extracted, &plan, |_, _, _| {})?;
        self.make_resident(m.trace_id, lr.id, m.tier, m.expiry);
        let event = match kind {
            Displacement::Migration => {
                report.migrations_in += 1;
                EventKind::MigrationIn { id: m.trace_id }
            }
            Displacement::Eviction => {
                report.evictions_in += 1;
                EventKind::Readmitted {
                    id: m.trace_id,
                    tier: m.tier.index() as u8,
                }
            }
        };
        if let Some(s) = self.sink() {
            s.emit(self.now, event);
        }
        self.account_moves(&lr.moves, &lr.relocations, report);
        Ok(())
    }

    /// Rolls a failed migration back onto this (source) shard from the
    /// extraction checkpoint: the function is resident again — frame
    /// for frame as it was — its expiry is reinstated, and the
    /// optimistic [`ServiceReport::migrations_out`] count moves back
    /// into [`ServiceReport::migrations_restored`].
    ///
    /// # Errors
    ///
    /// Propagates
    /// [`RunTimeManager::restore_function`](rtm_core::RunTimeManager::restore_function)
    /// errors (a restore can only fail if this shard mutated between
    /// the extraction and the rollback, which the fleet's atomic
    /// migration step never allows).
    pub fn restore_migrated(
        &mut self,
        m: &MigratingFunction,
        report: &mut ServiceReport,
    ) -> Result<(), CoreError> {
        let fid = self.mgr.restore_function(&m.extracted)?;
        self.make_resident(m.trace_id, fid, m.tier, m.expiry);
        debug_assert!(
            report.migrations_out > 0,
            "restore must be given the report that recorded the extraction"
        );
        report.migrations_out = report.migrations_out.saturating_sub(1);
        report.migrations_restored += 1;
        if let Some(s) = self.sink() {
            s.emit(self.now, EventKind::MigrationRestored { id: m.trace_id });
        }
        Ok(())
    }

    /// Enters `trace_id` in the residency tables: the one write site
    /// shared by admission, readmission and restore.
    fn make_resident(
        &mut self,
        trace_id: u64,
        fid: FunctionId,
        tier: QosTier,
        expiry: Option<Micros>,
    ) {
        self.resident.insert(trace_id, fid);
        self.tier_of.insert(trace_id, tier);
        if let Some(e) = expiry {
            self.expiry.insert(trace_id, e);
            self.schedule_version += 1;
        }
    }

    /// Drops `trace_id` from the residency tables, returning the tier
    /// and expiry it held: the one removal site shared by departure and
    /// extraction.
    fn forget_resident(&mut self, trace_id: u64) -> (QosTier, Option<Micros>) {
        self.resident.remove(&trace_id);
        let tier = self.tier_of.remove(&trace_id).unwrap_or(QosTier::Standard);
        let expiry = self.expiry.remove(&trace_id);
        if expiry.is_some() {
            self.schedule_version += 1;
        }
        (tier, expiry)
    }

    /// The cheapest resident this shard could sacrifice to seat an
    /// arrival at `tier`: lowest [`victim_cost`] (CLB footprint ×
    /// remaining runtime) among residents of a *strictly* lower tier,
    /// ties broken on trace id. `None` when nothing here is evictable
    /// by `tier`. A `&self` read that does not drain: a function whose
    /// ticket is still pending is not a resident yet, so callers drain
    /// this shard ([`RuntimeService::execute_reserved`]) first — the
    /// fleet's preemption edge does so for every candidate shard.
    ///
    /// `exclude` lists trace ids that are off the table — the fleet
    /// passes the residents it already displaced during the current
    /// preemption episode, so a victim whose bundle *migrated* to a
    /// sibling (still resident fleet-wide) cannot be picked again and
    /// ping-pong between shards forever: each lap of the eviction loop
    /// then displaces a distinct resident, which is what makes the
    /// loop terminate.
    pub fn preemption_victim(&self, tier: QosTier, exclude: &[u64]) -> Option<(u64, u128)> {
        self.resident
            .iter()
            .filter(|(tid, _)| {
                if exclude.contains(tid) {
                    return false;
                }
                let resident_tier = self.tier_of.get(tid).copied().unwrap_or(QosTier::Standard);
                tier.may_preempt(resident_tier)
            })
            .filter_map(|(tid, fid)| {
                let f = self.mgr.function(*fid)?;
                let remaining = self.expiry.get(tid).map(|e| e.saturating_sub(self.now));
                Some((*tid, victim_cost(f.region.area(), remaining)))
            })
            .min_by_key(|(tid, cost)| (*cost, *tid))
    }

    /// Serves the queue in the configured [`QueueOrder`]: drops requests
    /// whose deadline has passed, orders the queue, then admits from the
    /// head until it cannot be placed (a blocked head blocks the queue,
    /// which is what makes each order a real scheduling discipline
    /// rather than a scan).
    fn serve_queue(&mut self, report: &mut ServiceReport) -> Result<(), CoreError> {
        let now = self.now;
        let events = self.events.as_ref();
        self.queue.retain(|q| {
            let overdue = q.arrival.deadline.map(|d| d < now).unwrap_or(false);
            if overdue {
                report.rejected_deadline += 1;
                if let Some(b) = events {
                    let id = q.arrival.id;
                    b.emit(
                        now,
                        EventKind::Dequeued {
                            id,
                            waited: now - q.queued_at,
                        },
                    );
                    b.emit(
                        now,
                        EventKind::Rejected {
                            id,
                            reason: RejectReason::DeadlinePassed,
                        },
                    );
                }
            }
            !overdue
        });
        match self.config.queue_order {
            QueueOrder::Fifo => {}
            QueueOrder::EarliestDeadline => self
                .queue
                .make_contiguous()
                .sort_by_key(|q| (q.arrival.deadline.unwrap_or(Micros::MAX), q.queued_at)),
            QueueOrder::SmallestArea => self
                .queue
                .make_contiguous()
                .sort_by_key(|q| (q.arrival.area(), q.queued_at)),
        }
        while let Some(q) = self.queue.front().copied() {
            // A head that already failed to place at this exact epoch
            // cannot succeed now: the layout is unchanged and deadline
            // slack only shrinks. Skip the redundant planning pass —
            // this is what keeps an idle-but-blocked queue from paying
            // one `make_room` per processed instant.
            if self.head_blocked == Some((q.arrival.id, self.mgr.epoch())) {
                break;
            }
            // Dequeued precedes the admission outcome; a NoRoom head
            // stays queued, so its speculative event rolls back.
            let mark = self.events.as_ref().map(EventBuffer::mark);
            if let Some(s) = self.sink() {
                s.emit(
                    self.now,
                    EventKind::Dequeued {
                        id: q.arrival.id,
                        waited: self.now - q.queued_at,
                    },
                );
            }
            // The full two-phase pipeline, inline: decide, execute,
            // resolve. The queue path therefore emits exactly the same
            // event sequence and touches exactly the same counters as a
            // fleet-routed admission.
            let decided = self.decide(&q, None, report)?;
            self.execute_reserved(report)?;
            if self.admission_fate(q.arrival.id, decided)? == OfferOutcome::NoRoom {
                if let (Some(b), Some(m)) = (self.events.as_ref(), mark) {
                    b.truncate(m);
                }
                self.head_blocked = Some((q.arrival.id, self.mgr.epoch()));
                break;
            }
            self.head_blocked = None;
            self.queue.pop_front();
        }
        Ok(())
    }

    /// The sequential decide step: the routing/feasibility pipeline up
    /// to and including seating the reservation, but no frame writes.
    /// `routed_plan` is a caller-held rearrangement plan (from a
    /// routing preview); whatever happens, deciding runs at most one
    /// planning pass: a valid plan runs zero (reused for both the
    /// deadline-feasibility check and the reservation), and a stale or
    /// absent one is planned once and then executed via
    /// [`RunTimeManager::reserve_room`](rtm_core::RunTimeManager::reserve_room).
    fn decide(
        &mut self,
        q: &Queued,
        routed_plan: Option<RoomPlan>,
        report: &mut ServiceReport,
    ) -> Result<ReserveOutcome, CoreError> {
        let a = q.arrival;
        // A duplicate of a still-resident id would orphan the earlier
        // function in the bookkeeping: refuse it outright.
        if self.resident.contains_key(&a.id) {
            let reason = RejectReason::DuplicateOrSynthesis;
            self.reject(a.id, reason, report);
            return Ok(ReserveOutcome::Dropped { reason });
        }
        // The rearrangement the load would need, so the admission
        // decision can weigh its cost *before* committing. A valid
        // routed plan answers for free; otherwise plan once now.
        let Some(plan) = self.mgr.revalidate_room_plan(a.rows, a.cols, routed_plan) else {
            return Ok(ReserveOutcome::NoRoom);
        };
        if !plan.is_empty() && !self.config.policy.rearranges() {
            return Ok(ReserveOutcome::NoRoom);
        }
        // The reconfiguration port is busy for the whole move traffic;
        // the incoming function starts afterwards. If that would miss
        // the deadline, don't move running functions for nothing — the
        // request stays queued: a departure may yet shrink the plan,
        // and `serve_queue` rejects it once the deadline itself passes.
        let start = self.now + plan.cells_moved() as Micros * self.config.us_per_clb;
        if a.deadline.map(|d| start > d).unwrap_or(false) {
            return Ok(ReserveOutcome::NoRoom);
        }

        let Ok(design) = self.design_for(&a) else {
            let reason = RejectReason::DuplicateOrSynthesis;
            self.reject(a.id, reason, report);
            return Ok(ReserveOutcome::Dropped { reason });
        };
        match self.mgr.reserve_room(a.rows, a.cols, &plan, |_, _, _| {}) {
            Err(e) => {
                // Seating the reservation can fail like a load can: a
                // planned rearrangement move hits congestion on the
                // live device, or allocation falls through. The
                // manager's bookkeeping stays consistent, the service
                // records the casualty — attributed, so fleet autopsies
                // can tell area pressure from wiring congestion — and
                // keeps running.
                let reason = load_reject_reason(&e);
                self.reject(a.id, reason, report);
                Ok(ReserveOutcome::Failed { reason })
            }
            Ok(ticket) => {
                if let Some(s) = self.sink() {
                    s.emit(
                        self.now,
                        EventKind::Reserved {
                            id: a.id,
                            moves: ticket.moves().len(),
                        },
                    );
                }
                self.tickets.push_back(PendingTicket {
                    trace_id: a.id,
                    queued_at: q.queued_at,
                    ticket,
                    design,
                    start,
                    duration: a.duration,
                    tier: a.tier,
                });
                Ok(ReserveOutcome::Reserved)
            }
        }
    }

    /// Executes one seated ticket: the implementation half of an
    /// admission.
    /// Success makes the function resident and records the admission;
    /// failure is absorbed, attributed and parked (reservation kept)
    /// for [`RuntimeService::resolve_ticket`]. Either way the outcome
    /// joins the resolved set.
    fn execute_one(
        &mut self,
        pt: PendingTicket,
        report: &mut ServiceReport,
    ) -> Result<(), CoreError> {
        let id = pt.trace_id;
        let fid = pt.ticket.id();
        let executed = if self.force_fail_loads > 0 {
            // Injected failure (see `force_execute_failures`): nothing
            // is written, exactly like a real execute refusal.
            self.force_fail_loads -= 1;
            Err(RejectReason::LoadOther)
        } else {
            self.mgr
                .execute_reserved(&pt.design, pt.ticket)
                .map_err(|e| load_reject_reason(&e))
        };
        let resolved = match executed {
            Err(reason) => {
                // Same absorption/attribution as a decide-time failure;
                // the arena reservation deliberately stays seated until
                // the ticket is resolved, so sibling-facing metrics are
                // identical whichever phase ran this code.
                self.reject(id, reason, report);
                ResolvedTicket::Failed(fid, reason)
            }
            Ok(lr) => {
                let waited = self.now - pt.queued_at;
                let outcome = if lr.moves.is_empty() {
                    AdmissionOutcome::Immediate { region: lr.region }
                } else {
                    AdmissionOutcome::AfterRearrange {
                        region: lr.region,
                        moves: lr.moves.len(),
                        cells_moved: lr.cells_moved(),
                    }
                };
                // The admission's one write site: the counter and its
                // record, from which immediate admissions and the
                // per-tier roll-up are derived.
                report.admitted += 1;
                report.admissions.push(AdmissionRecord {
                    trace_id: id,
                    at: self.now,
                    waited,
                    tier: pt.tier,
                    outcome,
                });
                if let Some(s) = self.sink() {
                    let frames = lr.frames_total();
                    s.emit(
                        self.now,
                        EventKind::Admitted {
                            id,
                            waited,
                            moves: lr.moves.len(),
                        },
                    );
                    s.emit(self.now, EventKind::Load { id, frames });
                    s.emit(self.now, EventKind::Executed { id, frames });
                }
                self.account_moves(&lr.moves, &lr.relocations, report);
                let expiry = pt.duration.map(|d| pt.start + d);
                self.make_resident(id, lr.id, pt.tier, expiry);
                ResolvedTicket::Executed
            }
        };
        // A reused trace id whose earlier failed ticket was never
        // resolved would leak that ticket's arena reservation when we
        // overwrite the entry: release it.
        if let Some(ResolvedTicket::Failed(old_fid, _)) = self.resolved.insert(id, resolved) {
            let _ = self.mgr.cancel_reservation(old_fid);
        }
        Ok(())
    }

    /// Records a refused or failed admission of `id` on this shard: the
    /// one write site of [`ServiceReport::failures`], its no-slots and
    /// unroutable subsets, and the `Rejected` event.
    fn reject(&self, id: u64, reason: RejectReason, report: &mut ServiceReport) {
        report.failures += 1;
        match reason {
            RejectReason::NoFreeSlots => report.failures_no_slots += 1,
            RejectReason::Unroutable => report.failures_unroutable += 1,
            _ => {}
        }
        if let Some(s) = self.sink() {
            s.emit(self.now, EventKind::Rejected { id, reason });
        }
    }

    /// Folds executed relocation traffic into the report totals.
    fn account_moves(
        &self,
        moves: &[Move],
        relocations: &[RelocationReport],
        report: &mut ServiceReport,
    ) {
        let cells: u32 = moves.iter().map(Move::cells_moved).sum();
        report.function_moves += moves.len();
        report.cells_moved += cells as u64;
        for r in relocations {
            let cost = self.config.cost_model.relocation_cost(self.config.part, r);
            report.frames_written += cost.frames_written;
            report.reconfig_ms += cost.millis();
        }
        report.baseline_halt_ms += moves
            .iter()
            .map(|m| m.cells_moved() as Micros * self.config.us_per_clb)
            .sum::<Micros>() as f64
            / 1000.0;
    }

    /// A synthetic free-running design sized for the request. The logic
    /// depth is kept modest — the *area* reservation is what the trace
    /// exercises; the design only has to be real enough to place, route
    /// and relocate.
    fn design_for(&self, a: &Arrival) -> Result<MappedNetlist, rtm_netlist::NetlistError> {
        let area = a.area();
        let gates = (area / 8).clamp(4, 16) as usize;
        let ffs = (area / 48).clamp(2, 4) as usize;
        let seed = self.config.design_seed ^ a.id.wrapping_mul(0x9e37_79b9);
        map_to_luts(&RandomCircuit::free_running(ffs, gates, seed).generate())
    }
}

/// The attributed reason a reservation or load failed with.
fn load_reject_reason(e: &CoreError) -> RejectReason {
    match e.load_failure_reason() {
        LoadFailureReason::NoFreeSlots => RejectReason::NoFreeSlots,
        LoadFailureReason::Unroutable => RejectReason::Unroutable,
        LoadFailureReason::Other => RejectReason::LoadOther,
    }
}
