//! Replays of a fleet run's arrivals one layer down, with spans around
//! every call into the layer:
//!
//! * the **service replay** drives one `RuntimeService` per shard through
//!   its stepping calls (`reserve`, `execute_reserved`, `advance_to` /
//!   `depart`, `settle`), feeding each shard the arrivals the fleet run
//!   routed to it;
//! * the **manager replay** drives one `RunTimeManager` per shard through
//!   its public calls (`plan_room`, `reserve_room`, `execute_reserved`,
//!   `unload`, `plan_defrag`, `defragment_with_plan`, and
//!   `extract_function` / `readmit_function` for preemption), with the
//!   same routing and a FIFO queue per shard, building each arrival's
//!   design as the service does.
//!
//! Neither replay reproduces the fleet's cross-shard edges exactly
//! (failover, migration windows), so each reports its own deterministic
//! counters to print beside the fleet run's.

use crate::spans::Spans;
use rtm::core::{CoreError, ExtractedFunction, FunctionId, PlanStats, RunTimeManager};
use rtm::netlist::random::RandomCircuit;
use rtm::netlist::techmap::{map_to_luts, MappedNetlist};
use rtm::netlist::NetlistError;
use rtm::obs::{EventKind, RtmEvent, FLEET_SHARD};
use rtm::sched::qos::victim_cost;
use rtm::sched::task::Micros;
use rtm::service::trace::{Arrival, TimedEvent, Trace, TraceEvent};
use rtm::service::{
    AdmissionBid, QosTier, ReserveOutcome, RuntimeService, ServiceConfig, ServiceReport,
    TicketOutcome,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Trace id → the shard the fleet run first admitted it on (or, for an
/// arrival never admitted, the shard that last saw it).
pub fn assignment(events: &[RtmEvent]) -> BTreeMap<u64, usize> {
    let mut admitted: BTreeMap<u64, usize> = BTreeMap::new();
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for e in events.iter().filter(|e| e.shard != FLEET_SHARD) {
        match e.kind {
            EventKind::Admitted { id, .. } => {
                admitted.entry(id).or_insert(e.shard as usize);
            }
            EventKind::Arrival { id, .. } | EventKind::Enqueued { id } => {
                seen.insert(id, e.shard as usize);
            }
            _ => {}
        }
    }
    seen.extend(admitted);
    seen
}

/// The trace's events split per shard by `assignment`; departures follow
/// the arrival they end.
fn split(trace: &Trace, assignment: &BTreeMap<u64, usize>, shards: usize) -> Vec<Vec<TimedEvent>> {
    let mut out = vec![Vec::new(); shards];
    for e in trace.events() {
        let id = match e.event {
            TraceEvent::Arrival(a) => a.id,
            TraceEvent::Departure { id } => id,
        };
        if let Some(&k) = assignment.get(&id) {
            out[k].push(*e);
        }
    }
    out
}

/// What the service replay did.
#[derive(Debug, Default)]
pub struct ServiceReplay {
    pub reports: Vec<ServiceReport>,
    /// Host µs of `reserve` plus `execute_reserved` for each arrival
    /// admitted straight from its reserve.
    pub admit_us: Vec<f64>,
    pub tickets_executed: u64,
    pub errors: Vec<String>,
}

impl ServiceReplay {
    pub fn sum(&self, f: impl Fn(&ServiceReport) -> u64) -> u64 {
        self.reports.iter().map(f).sum()
    }
}

/// Replays each shard's arrivals through a fresh `RuntimeService`.
///
/// # Errors
///
/// Propagates a `CoreError` from the service.
pub fn service_replay(
    configs: &[ServiceConfig],
    trace: &Trace,
    assignment: &BTreeMap<u64, usize>,
    spans: &mut Spans,
) -> Result<ServiceReplay, CoreError> {
    let mut out = ServiceReplay::default();
    for (k, (cfg, events)) in configs
        .iter()
        .zip(split(trace, assignment, configs.len()))
        .enumerate()
    {
        let mut svc = RuntimeService::new(*cfg);
        let mut rep = ServiceReport::new(format!("{}#{k}", trace.name()));
        let mut idx = 0;
        loop {
            let now = match (events.get(idx).map(|e| e.at), svc.next_expiry()) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(e)) => e,
                (Some(a), Some(e)) => a.min(e),
            };
            spans.time("service.depart", None, || svc.advance_to(now, &mut rep))?;
            while let Some(ev) = events.get(idx).filter(|e| e.at <= now) {
                idx += 1;
                match ev.event {
                    TraceEvent::Arrival(a) => {
                        let started = Instant::now();
                        let outcome = spans.time("service.reserve", Some(a.id), || {
                            svc.reserve(ev.at, AdmissionBid::direct(a), &mut rep)
                        })?;
                        match outcome {
                            ReserveOutcome::Reserved => {
                                spans.time("service.execute", Some(a.id), || {
                                    svc.execute_reserved(&mut rep)
                                })?;
                                out.tickets_executed += 1;
                                if svc.resolve_ticket(a.id)? == TicketOutcome::Executed {
                                    out.admit_us.push(started.elapsed().as_secs_f64() * 1e6);
                                }
                            }
                            ReserveOutcome::NoRoom => svc.enqueue(ev.at, a, &mut rep)?,
                            ReserveOutcome::Dropped { .. } | ReserveOutcome::Failed { .. } => {}
                        }
                    }
                    TraceEvent::Departure { id } => {
                        spans.time("service.depart", Some(id), || svc.depart(id, &mut rep))?
                    }
                }
            }
            spans.time("service.settle", None, || svc.settle(&mut rep))?;
        }
        svc.finish(&mut rep);
        if !svc.manager().bookkeeping_consistent() {
            out.errors.push(format!(
                "service replay shard {k}: bookkeeping inconsistent"
            ));
        }
        out.reports.push(rep);
    }
    Ok(out)
}

/// What the manager replay did.
#[derive(Debug, Default)]
pub struct ManagerReplay {
    pub loads: u64,
    pub unloads: u64,
    pub failures: u64,
    pub rejected_deadline: u64,
    pub defrag_moves: u64,
    pub extracts: u64,
    pub readmits: u64,
    pub parked_expired: u64,
    pub designs: u64,
    pub plan_stats: PlanStats,
    pub errors: Vec<String>,
}

struct Pending {
    arrival: Arrival,
    design: MappedNetlist,
}

struct Resident {
    fid: FunctionId,
    expiry: Option<Micros>,
    tier: QosTier,
    area: u32,
}

struct Shard {
    cfg: ServiceConfig,
    mgr: RunTimeManager,
    residents: BTreeMap<u64, Resident>,
    queue: VecDeque<Pending>,
    /// The queue head that last found no room, and the manager epoch it
    /// failed at: re-planning before the layout changes cannot succeed.
    blocked: Option<(u64, u64)>,
}

struct Parked {
    trace_id: u64,
    bundle: ExtractedFunction,
    expiry: Option<Micros>,
    tier: QosTier,
}

enum Attempt {
    Admitted,
    Failed,
    NoRoom,
}

/// The synthetic design the service builds for an arrival.
fn design_for(cfg: &ServiceConfig, a: &Arrival) -> Result<MappedNetlist, NetlistError> {
    let area = a.area();
    let gates = (area / 8).clamp(4, 16) as usize;
    let ffs = (area / 48).clamp(2, 4) as usize;
    let seed = cfg.design_seed ^ a.id.wrapping_mul(0x9e37_79b9);
    map_to_luts(&RandomCircuit::free_running(ffs, gates, seed).generate())
}

/// Replays the trace over one `RunTimeManager` per shard, in global time
/// order, with every arrival on the shard `assignment` names.
///
/// # Errors
///
/// Propagates a `CoreError` that leaves a manager inconsistent (a failed
/// unload, defragmentation or cancellation).
pub fn manager_replay(
    configs: &[ServiceConfig],
    trace: &Trace,
    assignment: &BTreeMap<u64, usize>,
    preemption: bool,
    spans: &mut Spans,
) -> Result<ManagerReplay, CoreError> {
    let mut shards: Vec<Shard> = configs
        .iter()
        .map(|cfg| {
            let mut mgr = RunTimeManager::new(cfg.part);
            mgr.strategy = cfg.strategy;
            Shard {
                cfg: *cfg,
                mgr,
                residents: BTreeMap::new(),
                queue: VecDeque::new(),
                blocked: None,
            }
        })
        .collect();
    let mut park: Vec<Parked> = Vec::new();
    let mut out = ManagerReplay::default();
    let events = trace.events();
    let mut idx = 0;
    loop {
        let next_expiry = shards
            .iter()
            .flat_map(|s| s.residents.values().filter_map(|r| r.expiry))
            .min();
        let now = match (events.get(idx).map(|e| e.at), next_expiry) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(e)) => e,
            (Some(a), Some(e)) => a.min(e),
        };

        // 1. Residencies that expired by now depart.
        for s in &mut shards {
            let due: Vec<u64> = s
                .residents
                .iter()
                .filter(|(_, r)| r.expiry.is_some_and(|e| e <= now))
                .map(|(id, _)| *id)
                .collect();
            for id in due {
                unload(s, id, spans, &mut out)?;
            }
        }

        // 2. Trace events at this instant.
        while let Some(ev) = events.get(idx).filter(|e| e.at <= now) {
            idx += 1;
            match ev.event {
                TraceEvent::Arrival(a) => {
                    let Some(&k) = assignment.get(&a.id) else {
                        continue;
                    };
                    let s = &mut shards[k];
                    out.designs += 1;
                    match spans.time("netlist.synth", Some(a.id), || design_for(&s.cfg, &a)) {
                        Ok(design) => s.queue.push_back(Pending { arrival: a, design }),
                        Err(_) => out.failures += 1,
                    }
                }
                TraceEvent::Departure { id } => {
                    for s in &mut shards {
                        if s.residents.contains_key(&id) {
                            unload(s, id, spans, &mut out)?;
                        }
                        s.queue.retain(|p| p.arrival.id != id);
                    }
                }
            }
        }

        // 3. Queues, 4. parked bundles, 5. threshold-triggered defrag.
        for k in 0..shards.len() {
            serve(&mut shards, k, now, preemption, &mut park, spans, &mut out)?;
        }
        readmit_parked(&mut shards, &mut park, now, spans, &mut out);
        for k in 0..shards.len() {
            let s = &mut shards[k];
            if !s.mgr.fragmentation().exceeds(s.cfg.frag_threshold) {
                continue;
            }
            let plan = spans.time("core.plan_defrag", None, || s.mgr.plan_defrag());
            if plan.moves().is_empty() {
                continue;
            }
            let d = spans.time("core.defragment", None, || {
                s.mgr.defragment_with_plan(&plan, |_, _, _| {})
            })?;
            out.defrag_moves += d.moves.len() as u64;
            serve(&mut shards, k, now, preemption, &mut park, spans, &mut out)?;
        }
    }
    for (k, s) in shards.iter().enumerate() {
        if !s.mgr.bookkeeping_consistent() {
            out.errors.push(format!(
                "manager replay shard {k}: bookkeeping inconsistent"
            ));
        }
        out.plan_stats.merge(s.mgr.plan_stats());
    }
    Ok(out)
}

fn unload(
    s: &mut Shard,
    id: u64,
    spans: &mut Spans,
    out: &mut ManagerReplay,
) -> Result<(), CoreError> {
    if let Some(r) = s.residents.remove(&id) {
        spans.time("core.unload", Some(id), || s.mgr.unload(r.fid))?;
        out.unloads += 1;
    }
    Ok(())
}

/// Serves shard `k`'s queue head-first; a head that finds no room may
/// evict strictly-lower-tier residents when preemption is on.
fn serve(
    shards: &mut [Shard],
    k: usize,
    now: Micros,
    preemption: bool,
    park: &mut Vec<Parked>,
    spans: &mut Spans,
    out: &mut ManagerReplay,
) -> Result<(), CoreError> {
    let before = shards[k].queue.len();
    shards[k]
        .queue
        .retain(|p| p.arrival.deadline.is_none_or(|d| d >= now));
    out.rejected_deadline += (before - shards[k].queue.len()) as u64;
    while let Some(head) = shards[k].queue.pop_front() {
        let (id, tier) = (head.arrival.id, head.arrival.tier);
        if shards[k].blocked == Some((id, shards[k].mgr.epoch())) {
            shards[k].queue.push_front(head);
            break;
        }
        match try_admit(&mut shards[k], &head, now, spans, out)? {
            Attempt::Admitted | Attempt::Failed => shards[k].blocked = None,
            Attempt::NoRoom => {
                shards[k].queue.push_front(head);
                if !(preemption && evict(shards, k, tier, now, park, spans, out)) {
                    shards[k].blocked = Some((id, shards[k].mgr.epoch()));
                    break;
                }
            }
        }
    }
    Ok(())
}

fn try_admit(
    s: &mut Shard,
    p: &Pending,
    now: Micros,
    spans: &mut Spans,
    out: &mut ManagerReplay,
) -> Result<Attempt, CoreError> {
    let a = p.arrival;
    let Some(plan) = spans.time("core.plan_room", Some(a.id), || {
        s.mgr.plan_room(a.rows, a.cols)
    }) else {
        return Ok(Attempt::NoRoom);
    };
    let start = now + plan.cells_moved() as Micros * s.cfg.us_per_clb;
    if a.deadline.is_some_and(|d| start > d) {
        return Ok(Attempt::NoRoom);
    }
    let ticket = match spans.time("core.reserve_room", Some(a.id), || {
        s.mgr.reserve_room(a.rows, a.cols, &plan, |_, _, _| {})
    }) {
        Ok(t) => t,
        Err(_) => {
            out.failures += 1;
            return Ok(Attempt::Failed);
        }
    };
    let fid = ticket.id();
    match spans.time("core.execute_reserved", Some(a.id), || {
        s.mgr.execute_reserved(&p.design, ticket)
    }) {
        Ok(lr) => {
            out.loads += 1;
            s.residents.insert(
                a.id,
                Resident {
                    fid: lr.id,
                    expiry: a.duration.map(|d| start + d),
                    tier: a.tier,
                    area: a.area(),
                },
            );
            Ok(Attempt::Admitted)
        }
        Err(_) => {
            s.mgr.cancel_reservation(fid)?;
            out.failures += 1;
            Ok(Attempt::Failed)
        }
    }
}

/// Evicts shard `k`'s cheapest resident below `tier` (footprint ×
/// remaining runtime): readmitted on the first sibling with room, or
/// parked. False when nothing there is evictable.
fn evict(
    shards: &mut [Shard],
    k: usize,
    tier: QosTier,
    now: Micros,
    park: &mut Vec<Parked>,
    spans: &mut Spans,
    out: &mut ManagerReplay,
) -> bool {
    let victim = shards[k]
        .residents
        .iter()
        .filter(|(_, r)| tier.may_preempt(r.tier))
        .map(|(id, r)| {
            (
                victim_cost(r.area, r.expiry.map(|e| e.saturating_sub(now))),
                *id,
            )
        })
        .min();
    let Some((_, id)) = victim else {
        return false;
    };
    let r = shards[k]
        .residents
        .remove(&id)
        .expect("the victim was chosen among the residents");
    let s = &mut shards[k];
    let bundle = match spans.time("core.extract", Some(id), || s.mgr.extract_function(r.fid)) {
        Ok(b) => b,
        Err(_) => {
            s.residents.insert(id, r);
            return false;
        }
    };
    out.extracts += 1;
    let parked = Parked {
        trace_id: id,
        bundle,
        expiry: r.expiry,
        tier: r.tier,
    };
    if let Some(parked) = readmit(shards, Some(k), parked, spans, out) {
        park.push(parked);
    }
    true
}

/// Readmits a bundle on the first shard (other than `skip`) with room;
/// gives the bundle back when none has.
fn readmit(
    shards: &mut [Shard],
    skip: Option<usize>,
    p: Parked,
    spans: &mut Spans,
    out: &mut ManagerReplay,
) -> Option<Parked> {
    let (rows, cols) = p.bundle.shape();
    for (j, s) in shards.iter_mut().enumerate() {
        if Some(j) == skip {
            continue;
        }
        let Some(plan) = spans.time("core.plan_room", Some(p.trace_id), || {
            s.mgr.plan_room(rows, cols)
        }) else {
            continue;
        };
        if let Ok(lr) = spans.time("core.readmit", Some(p.trace_id), || {
            s.mgr.readmit_function(&p.bundle, &plan, |_, _, _| {})
        }) {
            out.readmits += 1;
            s.residents.insert(
                p.trace_id,
                Resident {
                    fid: lr.id,
                    expiry: p.expiry,
                    tier: p.tier,
                    area: p.bundle.cells(),
                },
            );
            return None;
        }
    }
    Some(p)
}

/// Retries parked bundles oldest first; drops those whose residency ran
/// out while parked.
fn readmit_parked(
    shards: &mut [Shard],
    park: &mut Vec<Parked>,
    now: Micros,
    spans: &mut Spans,
    out: &mut ManagerReplay,
) {
    for p in std::mem::take(park) {
        if p.expiry.is_some_and(|e| e <= now) {
            out.parked_expired += 1;
        } else if let Some(p) = readmit(shards, None, p, spans, out) {
            park.push(p);
        }
    }
}
