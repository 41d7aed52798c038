//! The benchmark's workloads, the fleet run each pass measures, and the
//! checks every pass's output must pass.

use crate::json::{self, Value};
use crate::stats;
use rtm::fleet::routing::{FragAware, LeastUtilized, RoundRobin, RoutingPolicy};
use rtm::fleet::{FleetConfig, FleetReport, FleetService};
use rtm::fpga::part::Part;
use rtm::sched::AdmissionOutcome;
use rtm::service::trace::{Scenario, Trace};
use rtm::service::{QosTier, ServiceConfig};

/// Trace size: full workloads, or the tiny variants the self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    RoundRobin,
    LeastUtilized,
    FragAware,
}

impl Policy {
    fn boxed(self) -> Box<dyn RoutingPolicy> {
        match self {
            Policy::RoundRobin => Box::<RoundRobin>::default(),
            Policy::LeastUtilized => Box::new(LeastUtilized),
            Policy::FragAware => Box::<FragAware>::default(),
        }
    }
}

/// Where a workload's deterministic counters are pinned.
#[derive(Debug, Clone, Copy)]
enum Pinned {
    /// The matching row of the repository's `BENCH_fleet.json`.
    BenchFleet,
    /// Counters recorded here, for a workload `BENCH_fleet.json` lacks.
    Here(&'static [(&'static str, u64)]),
}

/// One benchmark workload: a fleet, a routing policy and a trace.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    scenario: Scenario,
    devices: &'static [Part],
    tiny_devices: &'static [Part],
    copies: u64,
    tiny_copies: u64,
    policy: Policy,
    pub preemption: bool,
    /// The trace seed every run uses unless `--workload-seed` says
    /// otherwise; the pinned counters hold for this seed.
    pub default_seed: u64,
    /// A second seed, kept out of tuning, for confirming later claims.
    pub held_out_seed: u64,
    pinned: Pinned,
}

const XCV50_X64: [Part; 64] = [Part::Xcv50; 64];
const XCV50_X3: [Part; 3] = [Part::Xcv50; 3];
const TIERED: [Part; 3] = [Part::Xcv50, Part::Xcv50, Part::Xcv100];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "load-frag64",
        scenario: Scenario::AdversarialFragmenter,
        devices: &XCV50_X64,
        tiny_devices: &[Part::Xcv50; 2],
        copies: 65,
        tiny_copies: 3,
        policy: Policy::FragAware,
        preemption: false,
        default_seed: 42,
        held_out_seed: 1042,
        pinned: Pinned::BenchFleet,
    },
    Workload {
        name: "preempt-tiered3",
        scenario: Scenario::TieredMix,
        devices: &TIERED,
        tiny_devices: &TIERED,
        copies: 3,
        tiny_copies: 1,
        policy: Policy::RoundRobin,
        preemption: true,
        default_seed: 7,
        held_out_seed: 17,
        pinned: Pinned::BenchFleet,
    },
    Workload {
        name: "compact-churn3",
        scenario: Scenario::SteadyChurn,
        devices: &XCV50_X3,
        tiny_devices: &XCV50_X3,
        copies: 4,
        tiny_copies: 1,
        policy: Policy::LeastUtilized,
        preemption: false,
        default_seed: 3,
        held_out_seed: 11,
        pinned: Pinned::Here(&[
            ("submitted", 96),
            ("defrag_cycles", 22),
            ("function_moves", 94),
            ("frames_written", 728_448),
            ("migrations", 0),
            ("preemptions", 0),
        ]),
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn devices(&self, scale: Scale) -> &'static [Part] {
        match scale {
            Scale::Full => self.devices,
            Scale::Tiny => self.tiny_devices,
        }
    }

    /// The workload's trace (simulated-time schedule; an open loop).
    pub fn trace(&self, seed: u64, scale: Scale) -> Trace {
        let copies = match scale {
            Scale::Full => self.copies,
            Scale::Tiny => self.tiny_copies,
        };
        self.scenario
            .fleet_trace(Part::Xcv50, copies, seed, 170_000)
    }

    /// The fleet under the library's default engine and admission mode.
    pub fn fleet(&self, scale: Scale) -> FleetService {
        let config = FleetConfig::heterogeneous(self.devices(scale), ServiceConfig::default())
            .with_preemption(self.preemption);
        FleetService::new(config, self.policy.boxed())
    }
}

/// The deterministic counters of a fleet report, named as the columns of
/// `BENCH_fleet.json`.
pub fn counters(report: &FleetReport) -> Vec<(&'static str, u64)> {
    let s = report.plan_stats();
    let t = report.tiers();
    let u = |v: usize| v as u64;
    vec![
        ("submitted", u(report.submitted)),
        ("admitted", u(report.admitted())),
        ("retries", u(report.retries)),
        ("load_failovers", u(report.load_failovers)),
        ("unplaceable", u(report.unplaceable)),
        ("queued_at_end", u(report.queued_at_end())),
        ("failures", u(report.failures())),
        ("failures_no_slots", u(report.failures_no_slots())),
        ("failures_unroutable", u(report.failures_unroutable())),
        ("defrag_cycles", u(report.defrag_cycles())),
        ("fleet_defrags", u(report.fleet_defrags)),
        ("function_moves", u(report.function_moves())),
        ("cells_moved", report.cells_moved()),
        ("frames_written", report.frames_written()),
        ("migrations", u(report.migrations)),
        ("migrations_in", u(report.migrations_in())),
        ("migrations_out", u(report.migrations_out())),
        ("migrations_failed", u(report.migrations_failed)),
        ("migrations_refused", u(report.migrations_refused)),
        ("submitted_batch", u(t.submitted_for(QosTier::Batch))),
        ("submitted_standard", u(t.submitted_for(QosTier::Standard))),
        (
            "submitted_interactive",
            u(t.submitted_for(QosTier::Interactive)),
        ),
        ("admitted_batch", u(t.admitted_for(QosTier::Batch))),
        ("admitted_standard", u(t.admitted_for(QosTier::Standard))),
        (
            "admitted_interactive",
            u(t.admitted_for(QosTier::Interactive)),
        ),
        ("preemptions", u(report.preemptions)),
        ("evictions_migrated", u(report.evictions_migrated)),
        ("evictions_parked", u(report.evictions_parked)),
        ("parked_readmitted", u(report.parked_readmitted)),
        ("parked_expired", u(report.parked_expired)),
        ("parked_at_end", u(report.parked_at_end)),
        ("make_room_calls", s.make_room_calls),
        ("previews", s.previews),
        ("compaction_plans", s.compaction_plans),
        ("plans_reused", s.plans_reused),
        ("plans_invalidated", s.plans_invalidated),
        ("summary_hits", s.summary_hits),
        ("summary_misses", s.summary_misses),
    ]
}

/// The end-to-end metrics measured in simulated time, which repeat
/// exactly for a given trace. `start_latency_tail_ms` also returns the
/// percentile and sample count it was taken at.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    pub admitted_ratio: f64,
    pub interactive_admitted_ratio: f64,
    pub port_ms_per_admission: f64,
    pub start_latency_tail_ms: f64,
    pub tail_percentile: f64,
    pub tail_n: usize,
}

/// Computes the simulated end-to-end metrics of one fleet run.
///
/// The configuration port is priced by each shard's own per-CLB model
/// (`ServiceConfig::us_per_clb`): an admitted function costs its area to
/// configure plus whatever it moved to make room, and every relocation
/// (admission rearrangement or defragmentation) costs the cells it moved.
pub fn sim_metrics(fleet: &FleetService, report: &FleetReport) -> Result<SimMetrics, String> {
    let mut port_us = 0f64;
    let mut latencies_us: Vec<f64> = Vec::with_capacity(report.submitted);
    for (shard, outcome) in fleet.shards().iter().zip(&report.shards) {
        let us_per_clb = shard.config().us_per_clb as f64;
        let r = &outcome.report;
        port_us += r.cells_moved as f64 * us_per_clb;
        for a in &r.admissions {
            let (area, moved) = match a.outcome {
                AdmissionOutcome::Immediate { region } => (region.area(), 0),
                AdmissionOutcome::AfterRearrange {
                    region,
                    cells_moved,
                    ..
                } => (region.area(), cells_moved),
                AdmissionOutcome::Deferred => {
                    return Err(format!("admission record {} is not admitted", a.trace_id))
                }
            };
            port_us += area as f64 * us_per_clb;
            latencies_us.push(a.waited as f64 + (area + moved) as f64 * us_per_clb);
        }
    }
    let admitted = report.admitted();
    if admitted == 0 || latencies_us.len() != admitted {
        return Err(format!(
            "{} admission records for {admitted} admissions",
            latencies_us.len()
        ));
    }
    // Requests never served wait forever.
    latencies_us.resize(report.submitted.max(admitted), f64::INFINITY);
    let (tail_us, tail_percentile, tail_n) = stats::tail(&latencies_us)
        .ok_or_else(|| format!("{} arrivals are too few for a tail", latencies_us.len()))?;
    if !tail_us.is_finite() {
        return Err("more than ten arrivals were never admitted: the tail is infinite".into());
    }
    Ok(SimMetrics {
        admitted_ratio: admitted as f64 / report.submitted as f64,
        interactive_admitted_ratio: report.tier_admission_rate(QosTier::Interactive),
        port_ms_per_admission: port_us / 1000.0 / admitted as f64,
        start_latency_tail_ms: tail_us / 1000.0,
        tail_percentile,
        tail_n,
    })
}

/// The sum and flow identities the fleet report pins, and the manager
/// bookkeeping of every shard after the run. Returns every violation.
pub fn check_report(trace: &Trace, fleet: &FleetService, report: &FleetReport) -> Vec<String> {
    let mut errors = Vec::new();
    let mut eq = |what: &str, got: i64, want: i64| {
        if got != want {
            errors.push(format!("{what}: {got} != {want}"));
        }
    };
    let i = |v: usize| v as i64;
    eq(
        "submitted == trace arrivals",
        i(report.submitted),
        i(trace.arrivals()),
    );
    eq(
        "admitted + deadline + failures + cancelled + queued + unplaceable == submitted + failovers",
        i(report.admitted()
            + report.rejected_deadline()
            + report.failures()
            + report.cancelled()
            + report.queued_at_end()
            + report.unplaceable),
        i(report.submitted + report.load_failovers),
    );
    eq(
        "shard submitted + unplaceable == submitted + failovers",
        i(report.shard_submitted() + report.unplaceable),
        i(report.submitted + report.load_failovers),
    );
    eq(
        "migrations_in == migrations",
        i(report.migrations_in()),
        i(report.migrations),
    );
    eq(
        "migrations_out == migrations",
        i(report.migrations_out()),
        i(report.migrations),
    );
    eq(
        "migrations_restored == migrations_failed",
        i(report.migrations_restored()),
        i(report.migrations_failed),
    );
    eq(
        "evictions_out == migrated + parked",
        i(report.evictions_out()),
        i(report.evictions_migrated + report.evictions_parked),
    );
    eq(
        "parked == readmitted + expired + at end",
        i(report.evictions_parked),
        i(report.parked_readmitted + report.parked_expired + report.parked_at_end),
    );
    eq(
        "evictions_in == migrated + readmitted",
        i(report.evictions_in()),
        i(report.evictions_migrated + report.parked_readmitted),
    );
    for (k, s) in report.shards.iter().enumerate() {
        let r = &s.report;
        eq(
            &format!("shard {k} routed == submitted"),
            i(s.routed),
            i(r.submitted),
        );
        eq(
            &format!("shard {k} residency"),
            i(r.resident_at_end),
            i(r.admitted) - i(r.departures) + i(r.migrations_in) - i(r.migrations_out)
                + i(r.evictions_in)
                - i(r.evictions_out),
        );
    }
    for (k, s) in fleet.shards().iter().enumerate() {
        if !s.manager().bookkeeping_consistent() {
            errors.push(format!("shard {k}: manager bookkeeping inconsistent"));
        }
    }
    errors
}

/// Checks the run's counters against where the workload pins them.
/// `baseline` is the text of `BENCH_fleet.json`. Returns every mismatch.
pub fn check_pinned(
    w: &Workload,
    report: &FleetReport,
    devices: usize,
    baseline: &str,
) -> Vec<String> {
    let got = counters(report);
    let value_of = |name: &str| got.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let mut errors = Vec::new();
    match w.pinned {
        Pinned::Here(pins) => {
            for (name, want) in pins {
                if value_of(name) != Some(*want) {
                    errors.push(format!("{name}: {:?} != pinned {want}", value_of(name)));
                }
            }
        }
        Pinned::BenchFleet => match baseline_row(baseline, report, devices, w.preemption) {
            Err(e) => errors.push(e),
            Ok(row) => {
                for (key, want) in row {
                    if let Some(v) = value_of(&key) {
                        if v.to_string() != want {
                            errors.push(format!("{key}: {v} != BENCH_fleet.json {want}"));
                        }
                    }
                }
            }
        },
    }
    errors
}

/// The counter columns of the first `BENCH_fleet.json` row that ran this
/// workload (same trace, fleet size, policy and preemption, no
/// rebalancer). Engine and mode tags are ignored: the baseline gate
/// keeps every engine's and mode's row of one workload identical.
fn baseline_row(
    text: &str,
    report: &FleetReport,
    devices: usize,
    preemption: bool,
) -> Result<Vec<(String, String)>, String> {
    const TAGS: [&str; 7] = [
        "scenario",
        "devices",
        "engine",
        "mode",
        "preemption",
        "policy",
        "rebalancer",
    ];
    let doc = json::parse(text).map_err(|e| format!("BENCH_fleet.json: {e}"))?;
    let Value::Object(top) = doc else {
        return Err("BENCH_fleet.json: not an object".into());
    };
    let Some(Value::Array(runs)) = top.get("runs") else {
        return Err("BENCH_fleet.json: no runs".into());
    };
    let want = [
        ("scenario", report.trace_name.clone()),
        ("devices", devices.to_string()),
        ("preemption", preemption.to_string()),
        ("policy", report.policy.clone()),
        ("rebalancer", "none".to_string()),
    ];
    for run in runs {
        let Value::Object(row) = run else { continue };
        let text_of = |k: &str| row.get(k).and_then(Value::as_text);
        if want
            .iter()
            .all(|(k, v)| text_of(k).as_deref() == Some(v.as_str()))
        {
            return Ok(row
                .iter()
                .filter(|(k, _)| !TAGS.contains(&k.as_str()))
                .filter_map(|(k, v)| v.as_text().map(|t| (k.clone(), t)))
                .collect());
        }
    }
    Err(format!(
        "BENCH_fleet.json has no row for {} on {devices} devices",
        report.trace_name
    ))
}
