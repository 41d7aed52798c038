//! The fleet service: one shared clock, N devices, one router.

use crate::config::FleetConfig;
use crate::engine;
use crate::rebalance::{MigrationDirective, MigrationOutcome, RebalancePolicy};
use crate::report::{FleetReport, FleetSample, ShardOutcome};
use crate::routing::RoutingPolicy;
use rtm_core::{CoreError, RoomPlan};
use rtm_obs::{EventBuffer, EventKind, Phase, PhaseProfiler, RejectReason, RtmEvent, FLEET_SHARD};
use rtm_sched::task::Micros;
use rtm_service::trace::{Arrival, Trace, TraceEvent};
use rtm_service::{
    AdmissionBid, Displacement, MigratingFunction, OfferOutcome, RuntimeService, ServiceReport,
};
use std::collections::BTreeMap;

/// Per-run bookkeeping (reports are per run; shard state persists).
struct RunState {
    /// The fleet report under construction. The fleet-level counters
    /// are bumped in place; `shards`, `load_failovers` and
    /// `parked_at_end` are filled in from the shard reports and the
    /// park queue when the run ends.
    report: FleetReport,
    /// One report per shard, in shard order.
    reports: Vec<ServiceReport>,
}

/// One routed arrival's capped offer chain: the value
/// [`FleetService::route`] and [`FleetService::try_preempt`] advance
/// until a shard admits, drops or queues the arrival, and
/// [`FleetService::close_chain`] closes.
struct OfferChain {
    at: Micros,
    arrival: Arrival,
    /// Devices offered so far (the `offer_chain_len` sample).
    offers: u64,
    /// Best-ranked shard that said "no room" — the queue slot.
    queue_on: Option<usize>,
}

/// How an offer chain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainEnd {
    /// A shard admitted the arrival.
    Admitted,
    /// A shard dropped it (duplicate id or synthesis failure).
    Dropped,
    /// No shard admitted or dropped it: it queues on the chain's queue
    /// slot, if it has one.
    Unseated,
}

/// Who holds a trace id the fleet tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    /// The shard with this index: resident or queued there.
    Shard(usize),
    /// An evicted bundle waiting in the park queue.
    Parked,
}

/// One evicted bundle waiting out congestion in the fleet's park
/// queue, stamped with the instant it was parked (the deadline-safe
/// re-entry clock: readmission happens in a later epoch's trigger
/// edge, inside some shard's idle window, and bundles whose residency
/// expired while parked are dropped instead of readmitted).
#[derive(Debug)]
struct ParkedBundle {
    bundle: MigratingFunction,
    parked_at: Micros,
}

/// The multi-device runtime service: owns N per-device
/// [`RuntimeService`] shards (heterogeneous parts allowed) and replays
/// a [`Trace`] across all of them under one shared clock. Arrivals are
/// routed by the [`RoutingPolicy`]; if the chosen device cannot place a
/// request right now the fleet retries the next-ranked device before
/// queueing it on the best one. Departures and residency expirations
/// are delivered to the shard that owns the function. On top of each
/// shard's own defragmentation threshold, a fleet-level trigger
/// ([`FleetConfig::fleet_frag_threshold`]) forces a cycle on the device
/// with the highest predicted gain.
///
/// Like the single-device service, fleet state persists across
/// [`FleetService::run`] calls: a second trace continues from the
/// device states the first one left behind.
///
/// # Examples
///
/// ```
/// use rtm_fleet::{FleetConfig, FleetService, routing::RoundRobin};
/// use rtm_service::{QosTier, ServiceConfig};
/// use rtm_service::trace::{Arrival, Trace, TraceEvent};
///
/// let config = FleetConfig::homogeneous(2, ServiceConfig::default());
/// let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
///
/// let mut trace = Trace::new("two");
/// for id in 0..2 {
///     trace.push(id * 1_000, TraceEvent::Arrival(Arrival {
///         id, rows: 6, cols: 6, duration: None, deadline: None,
///         tier: QosTier::Standard,
///     }));
/// }
/// let report = fleet.run(&trace).unwrap();
/// assert_eq!(report.admitted(), 2);
/// // Round-robin spread the two functions over the two devices.
/// assert_eq!(fleet.shards()[0].resident_count(), 1);
/// assert_eq!(fleet.shards()[1].resident_count(), 1);
/// ```
#[derive(Debug)]
pub struct FleetService {
    config: FleetConfig,
    policy: Box<dyn RoutingPolicy>,
    /// The rebalancing planner, when migration is enabled (see
    /// [`FleetService::with_rebalancer`]).
    rebalancer: Option<Box<dyn RebalancePolicy>>,
    shards: Vec<RuntimeService>,
    /// Trace id → who holds it: the shard that hosts (or last hosted)
    /// the id, or the park queue. The one map that answers "who holds
    /// this id" for departures and duplicate checks.
    owner: BTreeMap<u64, Holder>,
    /// Evicted bundles no sibling could absorb, awaiting readmission
    /// (see [`ParkedBundle`]). Persists across runs like shard state.
    park: Vec<ParkedBundle>,
    now: Micros,
    /// The fleet-level event buffer (tag [`FLEET_SHARD`]), installed by
    /// [`FleetService::enable_events`]: epoch boundaries and
    /// unplaceable rejections, which no single shard owns.
    fleet_events: Option<EventBuffer>,
    /// The merged deterministic stream: per epoch, the fleet buffer is
    /// drained first, then every shard's buffer in shard-index order.
    event_log: Vec<RtmEvent>,
    /// Wall-clock phase profiler, installed by
    /// [`FleetService::enable_profiler`]. Deliberately *not* part of
    /// any report: reports are compared byte-exact, wall time is
    /// printed beside them.
    profiler: Option<PhaseProfiler>,
}

// Compile-time `Send` pin: the whole fleet must be movable across
// threads, which is what forces `RoutingPolicy` and `RebalancePolicy`
// trait objects to carry the `Send` supertrait — a policy with
// non-`Send` internals would fail here, today, not mid-refactor.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FleetService>();
};

impl FleetService {
    /// A fleet of blank devices described by `config`, routed by
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is empty.
    pub fn new(config: FleetConfig, policy: Box<dyn RoutingPolicy>) -> Self {
        assert!(
            !config.shards.is_empty(),
            "a fleet needs at least one device"
        );
        let shards = config
            .shards
            .iter()
            .map(|c| RuntimeService::new(*c))
            .collect();
        FleetService {
            config,
            policy,
            rebalancer: None,
            shards,
            owner: BTreeMap::new(),
            park: Vec::new(),
            now: 0,
            fleet_events: None,
            event_log: Vec::new(),
            profiler: None,
        }
    }

    /// Enables deterministic event tracing: installs an [`EventBuffer`]
    /// on every shard (tagged with its index) plus the fleet-level
    /// buffer (tagged [`FLEET_SHARD`]). Drain the merged stream with
    /// [`FleetService::take_events`] after a run.
    pub fn enable_events(&mut self) {
        self.fleet_events = Some(EventBuffer::new(FLEET_SHARD));
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.enable_events(i as u32);
        }
    }

    /// Drains the merged event stream recorded so far (empty when
    /// tracing is disabled). The stream is fully deterministic:
    /// replaying the same trace on a fresh fleet yields the same bytes.
    pub fn take_events(&mut self) -> Vec<RtmEvent> {
        self.drain_events();
        std::mem::take(&mut self.event_log)
    }

    /// Installs the wall-clock [`PhaseProfiler`]; shares accumulate
    /// across subsequent runs until [`FleetService::enable_profiler`]
    /// is called again. Read it back via [`FleetService::profiler`].
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(PhaseProfiler::new());
    }

    /// The installed phase profiler, if any.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// Appends the fleet buffer, then every shard buffer in shard-index
    /// order, to the merged log — the single fixed merge point of the
    /// stream.
    fn drain_events(&mut self) {
        if let Some(fleet_buf) = &self.fleet_events {
            self.event_log.extend(fleet_buf.take());
            for s in &mut self.shards {
                self.event_log.extend(s.take_events());
            }
        }
    }

    /// Installs a rebalancing planner: when the *worst* per-device
    /// fragmentation index crosses
    /// [`FleetConfig::rebalance_threshold`] — or some shard's queue is
    /// geometry-starved — the fleet asks it for
    /// [`MigrationDirective`]s and executes them inside the shards'
    /// idle port windows (see [`FleetService::migrate`]).
    pub fn with_rebalancer(mut self, rebalancer: Box<dyn RebalancePolicy>) -> Self {
        self.rebalancer = Some(rebalancer);
        self
    }

    /// The per-device shards (read-only).
    pub fn shards(&self) -> &[RuntimeService] {
        &self.shards
    }

    /// Makes the next `n` admissions on shard `s` fail deterministically
    /// once their ticket is seated, as if the device refused the load —
    /// the failover-net seam (see
    /// `RuntimeService::force_execute_failures`).
    #[doc(hidden)]
    pub fn force_execute_failures(&mut self, s: usize, n: u32) {
        self.shards[s].force_execute_failures(n);
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current simulated time (µs).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Ids the router currently tracks (resident, queued or parked
    /// functions; stale entries are pruned on departure and at the end
    /// of every run, so this stays bounded by live work, not traffic
    /// history).
    pub fn tracked_ids(&self) -> usize {
        self.owner.len()
    }

    /// Mean and worst per-device fragmentation index right now.
    pub fn frag_summary(&self) -> (f64, f64) {
        let mut sum = 0.0;
        let mut worst = 0.0f64;
        for s in &self.shards {
            let frag = s.manager().fragmentation().fragmentation();
            sum += frag;
            worst = worst.max(frag);
        }
        (sum / self.shards.len() as f64, worst)
    }

    /// Replays `trace` to completion across the fleet and returns the
    /// aggregated report. The loop is epoch-based: each iteration
    /// computes the next **cross-shard event horizon**
    /// ([`engine::horizon`] — the earliest trace event or shard-local
    /// residency expiry), advances every shard to that horizon as an
    /// independent shard-local segment, and then applies the
    /// cross-shard edges in fixed shard-index order: trace-event
    /// routing (each arrival admitted in one step, see
    /// [`RuntimeService::admit`]), the settle sweep, the fragmentation
    /// sample, the fleet defrag trigger, the rebalancing migrations and
    /// the park-queue readmission. Nothing runs between the routing
    /// edge and the settle sweep.
    /// Every step runs on the calling thread in a fixed order, so the
    /// [`FleetReport`] is a pure function of the trace and the fleet's
    /// starting state.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only for invariant-corrupting failures
    /// (a failed unload or defragmentation on some shard); per-request
    /// failures are absorbed into the owning shard's report.
    pub fn run(&mut self, trace: &Trace) -> Result<FleetReport, CoreError> {
        // The profiler is moved out for the run (and reinstalled right
        // after) so `run_inner` can borrow it immutably while mutating
        // the shards — same disjoint-borrow move the rebalancing
        // trigger uses for its planner.
        let profiler = self.profiler.take();
        let result = self.run_inner(trace, profiler.as_ref());
        self.profiler = profiler;
        result
    }

    fn run_inner(
        &mut self,
        trace: &Trace,
        profiler: Option<&PhaseProfiler>,
    ) -> Result<FleetReport, CoreError> {
        let n = self.shards.len();
        let mut st = RunState {
            report: FleetReport {
                trace_name: trace.name().to_string(),
                policy: self.policy.name().to_string(),
                rebalancer: self.rebalancer.as_ref().map(|r| r.name().to_string()),
                ..FleetReport::default()
            },
            reports: (0..n)
                .map(|i| ServiceReport::new(format!("{}#{i}", trace.name())))
                .collect(),
        };

        let events = trace.events();
        let mut idx = 0usize;
        loop {
            // The epoch boundary: the next instant at which anything
            // cross-shard can happen. Everything up to it is
            // shard-local by construction.
            let next_trace = events.get(idx).map(|e| e.at);
            let horizon = {
                let _t = profiler.map(|p| p.start(Phase::Horizon));
                engine::horizon(next_trace, &self.shards)
            };
            let Some(now) = horizon else {
                break;
            };
            self.now = self.now.max(now);
            if let Some(fleet_buf) = &self.fleet_events {
                fleet_buf.emit(now, EventKind::EpochBoundary);
            }
            st.report.metrics.inc("epochs");

            // 1. Shard-local segment: every shard advances to the
            //    horizon independently (due residencies depart); no
            //    shard reads a sibling until the cross-shard edges
            //    below.
            {
                let _t = profiler.map(|p| p.start(Phase::Segments));
                for (s, rep) in self.shards.iter_mut().zip(&mut st.reports) {
                    s.advance_to(now, rep)?;
                }
            }

            // 2. Cross-shard edges, in stream order: trace events at
            //    this instant. Each arrival is admitted, dropped or
            //    queued before the next one is ranked.
            let routing = profiler.map(|p| p.start(Phase::Routing));
            while idx < events.len() && events[idx].at <= now {
                match events[idx].event {
                    TraceEvent::Arrival(a) => self.route(events[idx].at, a, &mut st)?,
                    TraceEvent::Departure { id } => self.depart(id, &mut st)?,
                }
                idx += 1;
            }
            drop(routing);

            // 3. Shard-local again: every shard serves its queue,
            //    samples fragmentation and runs its own
            //    threshold-triggered defrag.
            {
                let _t = profiler.map(|p| p.start(Phase::Segments));
                for (s, rep) in self.shards.iter_mut().zip(&mut st.reports) {
                    s.settle(rep)?;
                }
            }

            // The timeline must show the state the fleet trigger saw,
            // not only the post-cycle recovery.
            let sampling = profiler.map(|p| p.start(Phase::Sampling));
            let mean = self.sample(&mut st);
            drop(sampling);

            // Steps 4 and 5 are the migration/trigger edges of the
            // epoch: both trigger scans, the forced defrag cycle and
            // the migrate loop all accrue to one profiler phase.
            let triggers = profiler.map(|p| p.start(Phase::Triggers));

            // 4. Fleet-level trigger: when the mean index climbs past
            //    the fleet threshold, force a cycle on the device where
            //    it buys the most. The ranking reads epoch-cached
            //    summaries (free for devices that have not mutated) and
            //    the winner's `defrag_now` executes its *cached*
            //    compaction plan — ranking by predicted gain already
            //    planned the cycle, so the trigger is plan-free end to
            //    end.
            if mean > self.config.fleet_frag_threshold {
                let best = (0..n)
                    .map(|i| (i, self.shards[i].manager().predicted_defrag_gain()))
                    .filter(|(_, gain)| *gain > 0.0)
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                if let Some((i, _)) = best {
                    if self.shards[i].defrag_now(&mut st.reports[i])? {
                        st.report.fleet_defrags += 1;
                        self.sample(&mut st);
                    }
                }
            }

            // 5. Rebalancing trigger: alongside the defrag trigger,
            //    when the *worst* per-device index climbs past the
            //    rebalance threshold — or some shard's queue is
            //    geometry-starved (a queued request no local compaction
            //    can ever seat) — ask the planner for migrations and
            //    execute them inside the shards' idle port windows.
            //    Worst, not mean: rebalancing exists to drain the one
            //    shard that aged badly, and on a big fleet the healthy
            //    majority would dilute a mean signal forever. Aged
            //    placements (the combs round-robin leaves behind) are
            //    repaired by *moving functions between devices*, which
            //    per-device compaction alone can never do.
            //    The trigger prework (worst index, starvation scan)
            //    only runs when a rebalancer is actually installed —
            //    rebalancer-free fleets keep their old hot-loop cost.
            //    The planner is moved out for the planning call (and
            //    reinstalled right after) so the borrow checker sees
            //    the shard reads and the later `migrate` calls as
            //    disjoint — no `expect` needed to thread the borrow.
            let directives = match self.rebalancer.take() {
                Some(mut rebalancer)
                    if self.frag_summary().1 > self.config.rebalance_threshold
                        || self.shards.iter().any(crate::rebalance::queue_starved) =>
                {
                    let directives = rebalancer.plan(&self.shards);
                    self.rebalancer = Some(rebalancer);
                    directives
                }
                idle => {
                    self.rebalancer = idle;
                    Vec::new()
                }
            };
            let mut moved = false;
            for d in directives {
                match self.migrate(d, &mut st.reports)? {
                    MigrationOutcome::Completed => {
                        st.report.migrations += 1;
                        moved = true;
                    }
                    MigrationOutcome::FailedRestored => st.report.migrations_failed += 1,
                    MigrationOutcome::RefusedUnknown
                    | MigrationOutcome::RefusedNoRoom
                    | MigrationOutcome::RefusedWindow { .. } => st.report.migrations_refused += 1,
                }
            }

            // 6. Park-queue readmission: evicted bundles wait out
            //    congestion in the fleet's park queue; every epoch's
            //    trigger edge retries them oldest-first onto the first
            //    shard (index order) whose planned room fits inside its
            //    idle window — a readmission may never make a queued
            //    deadline-bound request late. Bundles whose residency
            //    expired while parked are dropped, not readmitted.
            if !self.park.is_empty() {
                moved |= self.readmit_parked(&mut st);
            }
            drop(triggers);
            if moved {
                // Migrations mutated layouts on both ends: serve
                // the queues now (a blocked big request may fit the
                // repaired shard) and show the post-repair state on
                // the timeline.
                {
                    let _t = profiler.map(|p| p.start(Phase::Segments));
                    for (s, rep) in self.shards.iter_mut().zip(&mut st.reports) {
                        s.settle(rep)?;
                    }
                }
                let _t = profiler.map(|p| p.start(Phase::Sampling));
                self.sample(&mut st);
            }

            // Merge this epoch's events — fleet buffer first, then
            // every shard in index order — so the stream's order is
            // fixed by construction.
            self.drain_events();
        }

        for (s, rep) in self.shards.iter_mut().zip(&mut st.reports) {
            s.finish(rep);
        }
        self.drain_events();
        // Functions that expired inside the run left the router's
        // tracking map behind; sweep it so a long-lived fleet does not
        // accumulate one stale entry per id ever routed. Parked ids stay
        // tracked until readmitted, expired or departed.
        let shards_ref = &self.shards;
        self.owner.retain(|id, h| match *h {
            Holder::Shard(s) => shards_ref[s].holds(*id),
            Holder::Parked => true,
        });
        let mut report = st.report;
        report.shards = self
            .shards
            .iter()
            .zip(st.reports)
            .map(|(s, report)| ShardOutcome {
                part: s.part(),
                routed: report.submitted,
                report,
            })
            .collect();
        // Every routed arrival is accounted on one shard, plus once more
        // per device-specific failure it failed over from; unplaceable
        // arrivals are accounted nowhere. The difference never goes
        // negative.
        report.load_failovers =
            (report.shard_submitted() + report.unplaceable).saturating_sub(report.submitted);
        report.parked_at_end = self.park.len();
        Ok(report)
    }

    /// Appends the fleet-wide fragmentation right now to the run's
    /// timeline and returns its mean.
    fn sample(&self, st: &mut RunState) -> f64 {
        let (mean, worst) = self.frag_summary();
        st.report.timeline.push(FleetSample {
            at: self.now,
            mean,
            worst,
        });
        mean
    }

    /// Executes one [`MigrationDirective`] right now — the primitive
    /// the rebalancing trigger drives, public so external orchestrators
    /// (and tests) can migrate deliberately.
    ///
    /// The execution order is safety-first, and nothing is touched
    /// until every check passes:
    ///
    /// 1. the directive must name a function resident on `from` and a
    ///    distinct in-range target ([`MigrationOutcome::RefusedUnknown`]);
    /// 2. the target's [`RunTimeManager::plan_room`](rtm_core::RunTimeManager::plan_room)
    ///    must find room for the function's shape
    ///    ([`MigrationOutcome::RefusedNoRoom`]); the readmission
    ///    executes that epoch-stamped plan, and re-plans it if it went
    ///    stale;
    /// 3. the reconfiguration-port time of the copy (function cells
    ///    plus the target's rearrangement moves, priced by each
    ///    shard's [`RuntimeService::port_time`]) must fit inside
    ///    **both** shards' idle windows, so no queued deadline-bound
    ///    request is ever made late ([`MigrationOutcome::RefusedWindow`]);
    /// 4. only then is the function extracted and readmitted. A failed
    ///    readmission restores it on the source from the extraction
    ///    checkpoint, frame for frame
    ///    ([`MigrationOutcome::FailedRestored`]).
    ///
    /// `reports` must hold one [`ServiceReport`] per shard (the per-run
    /// reports inside [`FleetService::run`]; standalone callers pass
    /// their own) — migration counters land on the involved shards.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] only for invariant-corrupting failures
    /// (a restore that itself fails); an ordinary failed readmission is
    /// absorbed as [`MigrationOutcome::FailedRestored`].
    ///
    /// # Panics
    ///
    /// Panics if `reports` does not hold one report per shard.
    pub fn migrate(
        &mut self,
        d: MigrationDirective,
        reports: &mut [ServiceReport],
    ) -> Result<MigrationOutcome, CoreError> {
        assert_eq!(
            reports.len(),
            self.shards.len(),
            "one report per shard, in shard order"
        );
        if d.from == d.to || d.from >= self.shards.len() || d.to >= self.shards.len() {
            return Ok(MigrationOutcome::RefusedUnknown);
        }
        let (src, dst) = (&self.shards[d.from], &self.shards[d.to]);
        let Some(region) = src
            .resident_function_id(d.trace_id)
            .and_then(|fid| src.manager().function(fid))
            .map(|f| f.placement.region)
        else {
            return Ok(MigrationOutcome::RefusedUnknown);
        };
        let Some(room) = dst.manager().plan_room(region.rows, region.cols) else {
            return Ok(MigrationOutcome::RefusedNoRoom);
        };

        // Port-time cost on each side, against each side's idle window:
        // the source pays the extraction copy, the target pays the
        // readmission copy plus whatever rearrangement its room plan
        // executes first.
        let cells = region.area();
        let src_cost = src.port_time(cells);
        let dst_cost = dst.port_time(cells + room.cells_moved());
        let (src_window, dst_window) = (src.idle_window(), dst.idle_window());
        if src_cost > src_window || dst_cost > dst_window {
            let (needed, window) = if src_cost > src_window {
                (src_cost, src_window)
            } else {
                (dst_cost, dst_window)
            };
            return Ok(MigrationOutcome::RefusedWindow { needed, window });
        }

        let now = self.now;
        let bundle = self.shards[d.from].extract(
            d.trace_id,
            Displacement::Migration,
            &mut reports[d.from],
        )?;
        match self.shards[d.to].readmit(
            now,
            &bundle,
            Some(room),
            Displacement::Migration,
            &mut reports[d.to],
        ) {
            Ok(()) => {
                self.owner.insert(d.trace_id, Holder::Shard(d.to));
                Ok(MigrationOutcome::Completed)
            }
            Err(_) => {
                // The target cleaned itself up; put the function back
                // on the source from the checkpoint. A restore failure
                // *is* invariant-corrupting and propagates.
                self.shards[d.from].restore_migrated(&bundle, &mut reports[d.from])?;
                self.owner.insert(d.trace_id, Holder::Shard(d.from));
                Ok(MigrationOutcome::FailedRestored)
            }
        }
    }

    /// Delivers a trace departure to whoever holds the id. A parked
    /// bundle's residency ends where it waits: the bundle is dropped and
    /// counted in [`FleetReport::parked_expired`], so it is never
    /// readmitted. Ids the router never saw are ignored, matching the
    /// single-device service.
    fn depart(&mut self, id: u64, st: &mut RunState) -> Result<(), CoreError> {
        match self.owner.get(&id).copied() {
            Some(Holder::Shard(s)) => {
                self.shards[s].depart(id, &mut st.reports[s])?;
                if !self.shards[s].holds(id) {
                    self.owner.remove(&id);
                }
            }
            Some(Holder::Parked) => {
                self.park.retain(|p| p.bundle.trace_id() != id);
                self.owner.remove(&id);
                st.report.parked_expired += 1;
            }
            None => {}
        }
        Ok(())
    }

    /// Routes one arrival: rank, then offer the arrival down the
    /// ranking, capped at [`FleetConfig::max_offer_attempts`]. Each
    /// offer is one [`RuntimeService::admit`] (reserve, execute and
    /// resolve in one call), so an admission or a drop ends the chain
    /// at once. When the whole ranking said "no room" (or worse), the
    /// arrival may preempt a lower-tier resident
    /// ([`FleetService::try_preempt`]); otherwise it queues on the
    /// best-ranked device that reported "no room", or is rejected as
    /// unplaceable if no device could ever hold it. A candidate that
    /// carries a previewed [`RoomPlan`] hands it to the shard's
    /// admission, so the load executes the routing plan instead of
    /// planning again.
    ///
    /// Failure handling splits by determinism:
    ///
    /// * [`OfferOutcome::Dropped`] (duplicate id or synthesis failure)
    ///   consumes the request — the same design would fail on every
    ///   shard.
    /// * [`OfferOutcome::LoadFailed`] (device-specific congestion, when
    ///   seating the reservation or when implementing the design) moves
    ///   on to the next-ranked device instead of consuming the request.
    ///   Every shard that recorded such a failure accounted the request
    ///   once, which is what [`FleetReport::load_failovers`] counts:
    ///   `Σ shard_submitted = submitted − unplaceable + load_failovers`.
    fn route(&mut self, at: Micros, a: Arrival, st: &mut RunState) -> Result<(), CoreError> {
        st.report.record_submission(a.tier);

        // An id the fleet already holds must be judged by its holder,
        // not shipped to a sibling that would happily admit a twin.
        match self.owner.get(&a.id).copied() {
            // A parked bundle holds the id until it is readmitted or its
            // residency ends, and no shard could tell a twin from it:
            // refuse the twin like a shape no device can hold.
            Some(Holder::Parked) => {
                self.reject_unplaceable(at, a.id, st);
                return Ok(());
            }
            Some(Holder::Shard(s)) => {
                if self.shards[s].holds(a.id) {
                    if self.shards[s].part().holds(a.rows, a.cols) {
                        self.shards[s].enqueue(at, a, &mut st.reports[s])?;
                    } else {
                        // A duplicate whose shape the owning device
                        // cannot even hold would sit at that queue's
                        // head forever (a blocked head blocks the
                        // queue): reject it outright instead.
                        self.reject_unplaceable(at, a.id, st);
                    }
                    return Ok(());
                }
                // The id departed long ago: drop the stale tracking
                // entry and route the reused id like any fresh arrival.
                self.owner.remove(&a.id);
            }
            None => {}
        }

        let mut ranking = self.policy.rank(&a, &self.shards);
        if ranking.is_empty() {
            self.reject_unplaceable(at, a.id, st);
            return Ok(());
        }
        ranking.truncate(self.config.max_offer_attempts.max(1));
        let mut chain = OfferChain {
            at,
            arrival: a,
            offers: 0,
            queue_on: None,
        };
        for cand in ranking {
            match self.offer(&mut chain, cand.shard, cand.plan, st)? {
                OfferOutcome::Admitted => return self.close_chain(&chain, ChainEnd::Admitted, st),
                OfferOutcome::Dropped { .. } => {
                    return self.close_chain(&chain, ChainEnd::Dropped, st)
                }
                // A failure is recorded (and attributed) on this shard
                // and device-specific, so the next-ranked device gets its
                // chance instead of the request being consumed.
                OfferOutcome::LoadFailed { .. } | OfferOutcome::NoRoom => {}
            }
        }
        // The whole ranking said "no room" (or worse), but the arrival
        // may outrank somebody already seated.
        let mut end = ChainEnd::Unseated;
        if self.config.preemption && chain.queue_on.is_some() {
            end = self.try_preempt(&mut chain, st)?;
        }
        self.close_chain(&chain, end, st)
    }

    /// Rejects an arrival at the routing edge as unplaceable: the fleet
    /// counter and a fleet-level `Rejected` event.
    fn reject_unplaceable(&self, at: Micros, id: u64, st: &mut RunState) {
        st.report.unplaceable += 1;
        if let Some(b) = &self.fleet_events {
            b.emit(
                at,
                EventKind::Rejected {
                    id,
                    reason: RejectReason::Unplaceable,
                },
            );
        }
    }

    /// Offers the chain's arrival to shard `s`, with the room plan the
    /// ranking previewed there: counts the offer, and records the shard
    /// that admitted it as the owner, or the first "no room" shard as
    /// the queue slot.
    fn offer(
        &mut self,
        chain: &mut OfferChain,
        s: usize,
        plan: Option<RoomPlan>,
        st: &mut RunState,
    ) -> Result<OfferOutcome, CoreError> {
        chain.offers += 1;
        let bid = AdmissionBid::routed(chain.arrival, plan);
        let outcome = self.shards[s].admit(chain.at, bid, &mut st.reports[s])?;
        match outcome {
            OfferOutcome::Admitted => {
                self.owner.insert(chain.arrival.id, Holder::Shard(s));
            }
            OfferOutcome::NoRoom => {
                chain.queue_on.get_or_insert(s);
            }
            OfferOutcome::Dropped { .. } | OfferOutcome::LoadFailed { .. } => {}
        }
        Ok(outcome)
    }

    /// Closes an arrival's offer chain: the one site that samples
    /// `offer_chain_len`, counts a retry (an admission the first offer
    /// did not seat) and queues an arrival no shard seated. It waits on
    /// the best-ranked shard that said "no room", where a departure may
    /// free room; with no such shard every offered device failed its
    /// load and the request is spent.
    fn close_chain(
        &mut self,
        chain: &OfferChain,
        end: ChainEnd,
        st: &mut RunState,
    ) -> Result<(), CoreError> {
        st.report.metrics.observe("offer_chain_len", chain.offers);
        match end {
            ChainEnd::Admitted if chain.offers > 1 => st.report.retries += 1,
            ChainEnd::Unseated => {
                if let Some(s) = chain.queue_on {
                    self.shards[s].enqueue(chain.at, chain.arrival, &mut st.reports[s])?;
                    self.owner.insert(chain.arrival.id, Holder::Shard(s));
                }
            }
            ChainEnd::Admitted | ChainEnd::Dropped => {}
        }
        Ok(())
    }

    /// The preemption half of the routing edge: while the arrival's
    /// tier can still find a strictly-lower-tier victim somewhere it
    /// could physically fit, evict the fleet-cheapest one (smallest
    /// CLB footprint × remaining runtime, ties on trace id — see
    /// [`RuntimeService::preemption_victim`]) and re-offer the arrival
    /// to the freed shard. Evicted residents are migrated to a sibling
    /// with room when one exists, otherwise parked for deadline-safe
    /// readmission in a later idle window ([`FleetService::readmit_parked`]);
    /// either way their state survives frame-exactly.
    ///
    /// Only "no room" on the freed shard evicts the next victim. An
    /// admission counts a [`FleetReport::preemptions`] and a drop ends
    /// the chain; a failed load ends the episode uncounted, and the
    /// arrival falls back to the queue path ([`ChainEnd::Unseated`]),
    /// with the chain's offers advanced by whatever the attempts cost.
    fn try_preempt(
        &mut self,
        chain: &mut OfferChain,
        st: &mut RunState,
    ) -> Result<ChainEnd, CoreError> {
        let a = chain.arrival;
        let n = self.shards.len();
        let fits = |s: &RuntimeService| s.part().holds(a.rows, a.cols);
        // Residents displaced during this episode: a victim whose
        // bundle migrated to a sibling is resident again and must not
        // be picked twice, or two shards with room for each other's
        // victims would trade them forever. Each lap displaces a
        // distinct resident, so the loop terminates.
        let mut displaced: Vec<u64> = Vec::new();
        loop {
            // The fleet-cheapest victim across every shard whose part
            // could hold the arrival at all. Costs are simulated
            // quantities, never wall time.
            let victim = (0..n)
                .filter(|&s| fits(&self.shards[s]))
                .filter_map(|s| {
                    self.shards[s]
                        .preemption_victim(a.tier, &displaced)
                        .map(|(tid, cost)| (cost, tid, s))
                })
                .min_by_key(|&(cost, tid, _)| (cost, tid));
            let Some((_, tid, vs)) = victim else {
                return Ok(ChainEnd::Unseated);
            };
            displaced.push(tid);
            self.evict_and_dispose(vs, tid, st)?;
            match self.offer(chain, vs, None, st)? {
                OfferOutcome::Admitted => {
                    st.report.preemptions += 1;
                    return Ok(ChainEnd::Admitted);
                }
                OfferOutcome::Dropped { .. } => return Ok(ChainEnd::Dropped),
                OfferOutcome::LoadFailed { .. } => return Ok(ChainEnd::Unseated),
                // Still no room: the next lap evicts the next-cheapest
                // not-yet-displaced victim.
                OfferOutcome::NoRoom => {}
            }
        }
    }

    /// Evicts `tid` off shard `from` and disposes of the bundle: placed
    /// on a sibling ([`FleetService::place`], destination-side checks
    /// only, since the source is being preempted *on* the critical
    /// path), otherwise parked on the fleet's park queue (a `Parked`
    /// event on the fleet stream). Either way the victim's state
    /// travels as a checkpointed extraction bundle, frame for frame.
    fn evict_and_dispose(
        &mut self,
        from: usize,
        tid: u64,
        st: &mut RunState,
    ) -> Result<(), CoreError> {
        // The victim was looked up on this same shard inside this same
        // sequential edge, so it is resident by construction; a miss
        // surfaces as extraction's unknown-id error.
        let bundle =
            self.shards[from].extract(tid, Displacement::Eviction, &mut st.reports[from])?;
        if self.place(&bundle, Some(from), &mut st.reports) {
            st.report.evictions_migrated += 1;
            return Ok(());
        }
        self.owner.insert(tid, Holder::Parked);
        st.report.evictions_parked += 1;
        if let Some(b) = &self.fleet_events {
            b.emit(
                self.now,
                EventKind::Parked {
                    id: tid,
                    tier: bundle.tier().index() as u8,
                },
            );
        }
        self.park.push(ParkedBundle {
            bundle,
            parked_at: self.now,
        });
        Ok(())
    }

    /// Retries every parked bundle, oldest first, through
    /// [`FleetService::place`]. Bundles whose residency expired while
    /// parked are dropped ([`FleetReport::parked_expired`]); the rest
    /// stay parked for a later epoch. Returns whether any readmission
    /// actually moved logic (the caller re-settles queues and
    /// re-samples the timeline, like after a migration wave).
    fn readmit_parked(&mut self, st: &mut RunState) -> bool {
        let now = self.now;
        let mut moved = false;
        let mut still_parked = Vec::new();
        for p in std::mem::take(&mut self.park) {
            if p.bundle.expiry().map(|e| e <= now).unwrap_or(false) {
                self.owner.remove(&p.bundle.trace_id());
                st.report.parked_expired += 1;
            } else if self.place(&p.bundle, None, &mut st.reports) {
                st.report.parked_readmitted += 1;
                st.report
                    .metrics
                    .observe("park_wait_us", now.saturating_sub(p.parked_at));
                moved = true;
            } else {
                still_parked.push(p);
            }
        }
        self.park = still_parked;
        moved
    }

    /// The one placement step for a displaced function: readmits
    /// `bundle` as an eviction on the first shard, in index order and
    /// other than `skip`, whose part holds the bundle's shape, whose
    /// room plan succeeds, and whose idle window covers the copy (the
    /// bundle's CLBs plus the plan's moves), so a readmission never
    /// makes a queued deadline-bound request late. A readmission that
    /// fails leaves that shard clean and the bundle whole, and the
    /// search moves on to the next shard. Returns whether the bundle
    /// was placed; its owner entry then names the new shard.
    fn place(
        &mut self,
        bundle: &MigratingFunction,
        skip: Option<usize>,
        reports: &mut [ServiceReport],
    ) -> bool {
        let (rows, cols) = bundle.shape();
        for t in (0..self.shards.len()).filter(|&t| Some(t) != skip) {
            let shard = &self.shards[t];
            if !shard.part().holds(rows, cols) {
                continue;
            }
            let Some(plan) = shard.manager().plan_room(rows, cols) else {
                continue;
            };
            if shard.port_time(bundle.cells() + plan.cells_moved()) > shard.idle_window() {
                continue;
            }
            if self.shards[t]
                .readmit(
                    self.now,
                    bundle,
                    Some(plan),
                    Displacement::Eviction,
                    &mut reports[t],
                )
                .is_ok()
            {
                self.owner.insert(bundle.trace_id(), Holder::Shard(t));
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::UtilizationLevelling;
    use crate::routing::RoundRobin;
    use rtm_service::trace::{Arrival, TraceEvent};
    use rtm_service::{QosTier, ServiceConfig};

    /// Regression: the rebalancing trigger takes the planner out of
    /// `self` for the planning call and must reinstall it afterwards —
    /// on the triggering path AND the idle path. A dropped planner
    /// would silently disable rebalancing for the rest of the fleet's
    /// life (every later trigger would take `None`), with no error.
    #[test]
    fn rebalancer_survives_both_trigger_paths() {
        // Threshold below any possible index: the planning arm runs on
        // every step of the first trace.
        let config =
            FleetConfig::homogeneous(2, ServiceConfig::default()).with_rebalance_threshold(-1.0);
        let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()))
            .with_rebalancer(Box::new(UtilizationLevelling::default()));

        let mut trace = Trace::new("trigger");
        for id in 0..4u64 {
            trace.push(
                id * 10_000,
                TraceEvent::Arrival(Arrival {
                    id,
                    rows: 4,
                    cols: 4,
                    duration: None,
                    deadline: None,
                    tier: QosTier::Standard,
                }),
            );
        }
        fleet.run(&trace).expect("trace runs");
        assert!(
            fleet.rebalancer.is_some(),
            "planner must be reinstalled after a triggering plan() call"
        );

        // Idle path: raise the threshold out of reach and run again —
        // the `idle` match arm must hand the planner back too.
        fleet.config.rebalance_threshold = f64::INFINITY;
        let mut second = Trace::new("idle");
        second.push(0, TraceEvent::Departure { id: 0 });
        fleet.run(&second).expect("second trace runs");
        assert!(
            fleet.rebalancer.is_some(),
            "planner must survive idle (non-triggering) steps"
        );
    }
}
