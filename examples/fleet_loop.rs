//! The fleet sharding layer end to end: replay fleet-scale versions of
//! all three trace scenarios over a three-device fleet (two XCV50s and
//! an XCV100), once per routing policy, and print the aggregated
//! [`FleetReport`]s.
//!
//! Each scenario is offered at roughly 4/3 of the fleet's single-device
//! capacity (four staggered copies over three devices), so the routing
//! decision — *which device gets this function* — actually matters: on
//! the adversarial-fragmenter scenario the informed policies admit
//! strictly more than state-blind round-robin, which keeps landing big
//! deadline-bound requests on comb-fragmented devices whose
//! rearrangement they cannot afford.
//!
//! ```sh
//! cargo run --release --example fleet_loop
//! ```
//!
//! ## CI perf gate: `--baseline [PATH]`
//!
//! ```sh
//! cargo run --release --example fleet_loop -- --baseline target/BENCH_fleet.json
//! ```
//!
//! Replays a fixed set of deterministic fleet runs — the three-device
//! policy sweep, frag-aware sweeps at N = 16 and N = 64 devices, two
//! round-robin + rebalancing-migration runs (x4 and N = 16), the scale
//! tier (round-robin at N = 256 and N = 1024), and the tiered QoS rows
//! (the tiered mix without, then with preemption; per-tier admitted
//! counters and the preemption/eviction flow counters ride in every
//! row) — and writes every run's counters (admissions, frames written,
//! `make_room` planning passes, plans reused, migrations, …) as JSON.
//! The checked-in `BENCH_fleet.json` is the baseline; `ci.sh` re-runs
//! this mode and fails on any counter difference. Counters are
//! exact-match gated; wall-clock time and the arrivals/s throughput
//! printed next to each row are for the log, never gated. The
//! scale-tier rows also print the epoch loop's wall-clock
//! **phase-share table** (stdout only, never in the JSON) — the
//! `routing` phase carries the admissions, which execute inline on the
//! routing edge, so `execute` reads 0; pass `--profile` to print the
//! table for every row.
//!
//! ## QoS tiers: `--tiered`
//!
//! ```sh
//! cargo run --release --example fleet_loop -- --tiered
//! ```
//!
//! Replays the tiered multi-tenant mix twice — preemptive eviction
//! off, then on — prints both reports and the per-tier admission
//! comparison, and exits nonzero unless preemption strictly improved
//! interactive admissions.
//!
//! ## Deterministic event export: `--trace [PATH]`
//!
//! ```sh
//! cargo run --release --example fleet_loop -- --trace target/fleet_trace.jsonl
//! ```
//!
//! Replays the first gated run (three devices, round-robin, the
//! adversarial x4 trace) with the deterministic event stream enabled,
//! writes it as JSONL, and self-validates: every line must round-trip
//! byte-exact through the (de)serializer, and the event counts must
//! equal the gated report counters (admissions, departures, epochs, …).
//! Exits nonzero on any mismatch — `ci.sh` runs this as a smoke step.

use rtm::fleet::rebalance::{RebalancePolicy, WorstShardDrain};
use rtm::fleet::routing::{standard_policies, FragAware, RoundRobin, RoutingPolicy};
use rtm::fleet::{FleetConfig, FleetReport, FleetService};
use rtm::obs::{to_jsonl_stream, EventKind, RejectReason, RtmEvent, Stopwatch};
use rtm_fpga::part::Part;
use rtm_service::trace::{Scenario, Trace};
use rtm_service::{QosTier, ServiceConfig};
use std::fmt::Write as _;

/// The canonical fleet-scale workload: `copies` staggered copies of
/// `scenario`, sized for the XCV50 (see [`Scenario::fleet_trace`]).
fn fleet_trace(scenario: Scenario, copies: u64, seed: u64) -> Trace {
    scenario.fleet_trace(Part::Xcv50, copies, seed, 170_000)
}

/// One deterministic counter block of the perf baseline, JSON-ready:
/// the row's tags, then every [`FleetReport::counters`] column.
fn json_block(preemption: bool, report: &FleetReport) -> String {
    let mut out = format!(
        "    {{\"scenario\": \"{}\", \"devices\": {}, \"preemption\": {preemption}, \
         \"policy\": \"{}\", \"rebalancer\": \"{}\"",
        report.trace_name,
        report.shards.len(),
        report.policy,
        report.rebalancer.as_deref().unwrap_or("none"),
    );
    for (name, value) in report.counters() {
        let _ = write!(out, ", \"{name}\": {value}");
    }
    out.push('}');
    out
}

/// The deterministic baseline suite: every run the CI gate compares.
/// `profile_all` extends the scale-tier phase-share tables to every row.
fn baseline(path: &str, profile_all: bool) -> Result<(), Box<dyn std::error::Error>> {
    let seed = 42;
    let mut blocks: Vec<String> = Vec::new();
    let mut run = |parts: &[Part],
                   preemption: bool,
                   policy: Box<dyn RoutingPolicy>,
                   rebalancer: Option<Box<dyn RebalancePolicy>>,
                   trace: &Trace,
                   profile: bool| {
        let mut config =
            FleetConfig::heterogeneous(parts, ServiceConfig::default()).with_preemption(preemption);
        if rebalancer.is_some() {
            config = config.with_rebalance_threshold(0.4);
        }
        let mut fleet = FleetService::new(config, policy);
        if let Some(r) = rebalancer {
            fleet = fleet.with_rebalancer(r);
        }
        if profile || profile_all {
            fleet.enable_profiler();
        }
        let sw = Stopwatch::start();
        let report = fleet.run(trace).expect("baseline fleet run stays up");
        let wall = sw.elapsed_secs();
        // Throughput rides next to the counter gate: arrivals the
        // fleet chewed through per second of wall. Printed for the CI
        // log — wall time (and thus this rate) is never gated.
        println!(
            "  {:<26} N={:<4} {:<16} {:>5}/{:<5} admitted, {} make_room, \
             {} reused, {} migrations   [{:.0} ms wall, {:.0} arrivals/s, not gated]",
            report.trace_name,
            parts.len(),
            report.policy,
            report.admitted(),
            report.submitted,
            report.plan_stats().make_room_calls,
            report.plan_stats().plans_reused,
            report.migrations,
            wall * 1e3,
            report.submitted as f64 / wall.max(1e-9),
        );
        // The phase-share table rides in the log the same way: where
        // the wall went, never what the gate compares.
        if let Some(p) = fleet.profiler() {
            println!("{}", p.share_table());
        }
        blocks.push(json_block(preemption, &report));
    };

    // 1. The example's three-device fleet, all four policies, on the
    //    adversarial scenario (the contended run the docs discuss).
    let small = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let adv_x4 = fleet_trace(Scenario::AdversarialFragmenter, 4, seed);
    for policy in standard_policies() {
        run(&small, false, policy, None, &adv_x4, false);
    }

    // 2. Frag-aware at fleet scale: N = 16 and N = 64 homogeneous
    //    XCV50s under (N+1) staggered adversarial copies — the sweeps
    //    the summary cache and two-stage filter make tractable.
    for n in [16usize, 64] {
        let parts = vec![Part::Xcv50; n];
        let trace = fleet_trace(Scenario::AdversarialFragmenter, n as u64 + 1, seed);
        run(
            &parts,
            false,
            Box::<FragAware>::default(),
            None,
            &trace,
            false,
        );
    }

    // 3. Rebalancing migration: state-blind round-robin plus the
    //    worst-shard-drain planner, on the x4 contended fleet and the
    //    N = 16 sweep. The gate pins the repair (admissions match the
    //    informed router, zero admission-time rearrangement at N = 16)
    //    *and* the migration counters themselves.
    run(
        &small,
        false,
        Box::<RoundRobin>::default(),
        Some(Box::<WorstShardDrain>::default()),
        &adv_x4,
        false,
    );
    let parts16 = vec![Part::Xcv50; 16];
    let adv_x17 = fleet_trace(Scenario::AdversarialFragmenter, 17, seed);
    run(
        &parts16,
        false,
        Box::<RoundRobin>::default(),
        Some(Box::<WorstShardDrain>::default()),
        &adv_x17,
        false,
    );

    // 4. The scale tier: round-robin keeps routing O(1)-ish so the
    //    rows measure the epoch loop, not the router. Both rows print
    //    their phase-share tables.
    for n in [256usize, 1024] {
        let parts = vec![Part::Xcv50; n];
        let trace = fleet_trace(Scenario::AdversarialFragmenter, n as u64 + 1, seed);
        run(
            &parts,
            false,
            Box::<RoundRobin>::default(),
            None,
            &trace,
            true,
        );
    }

    // 5. QoS tiers: the tiered multi-tenant mix on the three-device
    //    fleet, once without preemption (the baseline the improvement
    //    is measured against) and once with it. `ci.sh` gates that
    //    `admitted_interactive` is strictly higher with preemption than
    //    without.
    let tiered = fleet_trace(Scenario::TieredMix, 3, 7);
    for preemption in [false, true] {
        run(
            &small,
            preemption,
            Box::<RoundRobin>::default(),
            None,
            &tiered,
            false,
        );
    }

    let json = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", blocks.join(",\n"));
    std::fs::write(path, json)?;
    println!("\nwrote {path}");
    Ok(())
}

/// `--trace`: replay the first gated baseline run with the event stream
/// enabled, export it as JSONL, and self-validate the export — every
/// line must round-trip byte-exact, and the stream must agree with the
/// gated counters event for event. Any mismatch is a hard error (the CI
/// smoke step relies on the exit code).
fn trace_export(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let parts = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let trace = fleet_trace(Scenario::AdversarialFragmenter, 4, 42);
    let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::<RoundRobin>::default());
    fleet.enable_events();
    let report = fleet.run(&trace)?;
    let events = fleet.take_events();
    let text = to_jsonl_stream(&events);
    std::fs::write(path, &text)?;

    // 1. Round trip: parse(line).to_jsonl() == line, for every line.
    for (i, line) in text.lines().enumerate() {
        let parsed = RtmEvent::from_jsonl(line)
            .ok_or_else(|| format!("trace line {} does not parse: {line}", i + 1))?;
        if parsed.to_jsonl() != line {
            return Err(format!("trace line {} does not round-trip byte-exact", i + 1).into());
        }
    }

    // 2. Count identity: the stream and the report describe one run.
    let count = |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let checks = [
        (
            "arrival events == shard-accepted submissions",
            count(|k| matches!(k, EventKind::Arrival { .. })),
            report.shard_submitted(),
        ),
        (
            "admitted events == admissions",
            count(|k| matches!(k, EventKind::Admitted { .. })),
            report.admitted(),
        ),
        (
            "load events == admissions",
            count(|k| matches!(k, EventKind::Load { .. })),
            report.admitted(),
        ),
        (
            "unload events == departures",
            count(|k| matches!(k, EventKind::Unload { .. })),
            report.departures(),
        ),
        (
            "unplaceable rejections == unplaceable counter",
            count(|k| {
                matches!(
                    k,
                    EventKind::Rejected {
                        reason: RejectReason::Unplaceable,
                        ..
                    }
                )
            }),
            report.unplaceable,
        ),
        (
            "defrag events == defrag cycles",
            count(|k| matches!(k, EventKind::DefragCycle { .. })),
            report.defrag_cycles(),
        ),
        (
            "epoch boundaries == epochs counter",
            count(|k| matches!(k, EventKind::EpochBoundary)),
            report.metrics.counter("epochs") as usize,
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(format!("event/counter mismatch: {what}: {got} != {want}").into());
        }
    }
    println!(
        "wrote {path}: {} events; every line round-trips byte-exact and \
         all event counts match the gated report counters",
        events.len()
    );
    Ok(())
}

/// `--tiered`: the QoS story in isolation. Replays the tiered
/// multi-tenant mix (long batch residents, standard churn, an
/// interactive flash crowd) over the three-device fleet twice — with
/// preemptive eviction off, then on — and prints both reports plus the
/// per-tier comparison. With preemption on, a striking-out interactive
/// arrival evicts the cheapest batch resident (smallest CLB
/// footprint × remaining runtime), migrates the bundle to a sibling
/// with room inside its idle window or parks it for deadline-safe
/// readmission, and seats in the freed region.
fn tiered_demo(profile: bool) -> Result<(), Box<dyn std::error::Error>> {
    let parts = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let trace = fleet_trace(Scenario::TieredMix, 3, 7);
    println!(
        "=== tiered mix x3 — {} events, {} arrivals, preemption off vs on ===\n",
        trace.events().len(),
        trace.arrivals()
    );
    let mut reports = Vec::new();
    for preemption in [false, true] {
        let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default())
            .with_preemption(preemption);
        let mut fleet = FleetService::new(config, Box::<RoundRobin>::default());
        if profile {
            fleet.enable_profiler();
        }
        let report = fleet.run(&trace)?;
        println!("{report}");
        if let Some(p) = fleet.profiler() {
            println!("{}", p.share_table());
        }
        reports.push(report);
    }
    println!("=== per-tier admission: preemption off -> on ===");
    let (off, on) = (reports[0].tiers(), reports[1].tiers());
    for tier in QosTier::ALL.into_iter().rev() {
        println!(
            "  {:<12} {}/{} -> {}/{} admitted ({:.3} -> {:.3})",
            tier.name(),
            off.admitted_for(tier),
            off.submitted_for(tier),
            on.admitted_for(tier),
            on.submitted_for(tier),
            off.admission_rate(tier),
            on.admission_rate(tier),
        );
    }
    println!(
        "\nWithout tiers the flash crowd finds the array held wall to wall by\n\
         long-running batch strips and starves in the queue. Preemption lets\n\
         the interactive reservations evict the cheapest batch residents —\n\
         each one extracted live (state and configuration checkpointed),\n\
         migrated to a device with room or parked for readmission in a later\n\
         idle window — and seat in the freed regions.",
    );
    if reports[1].tiers().admitted_for(QosTier::Interactive)
        <= reports[0].tiers().admitted_for(QosTier::Interactive)
    {
        return Err("preemption did not improve interactive admission".into());
    }
    Ok(())
}

fn demo(profile: bool) -> Result<(), Box<dyn std::error::Error>> {
    let parts = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let seed = 42;
    println!(
        "fleet: {} devices ({}), per-shard defrag threshold 0.5, \
         fleet trigger off; rebalancing run: worst-shard-drain at 0.4\n",
        parts.len(),
        parts
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );

    let mut adversarial: Vec<(String, usize, usize)> = Vec::new();
    for scenario in Scenario::ALL {
        let trace = fleet_trace(scenario, 4, seed);
        println!(
            "=== scenario '{scenario}' x4 — {} events, {} arrivals ===\n",
            trace.events().len(),
            trace.arrivals()
        );
        for policy in standard_policies() {
            let name = policy.name().to_string();
            // A fresh fleet per run: every policy faces identical load.
            let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
            let mut fleet = FleetService::new(config, policy);
            if profile {
                fleet.enable_profiler();
            }
            let report = fleet.run(&trace)?;
            println!("{report}");
            if let Some(p) = fleet.profiler() {
                println!("{}", p.share_table());
            }
            if scenario == Scenario::AdversarialFragmenter {
                adversarial.push((name, report.admitted(), report.submitted));
            }
        }
        // The rebalancing run: the state-blind baseline again, but with
        // idle-window migration repairing the comb placements it ages
        // its devices into.
        if scenario == Scenario::AdversarialFragmenter {
            let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default())
                .with_rebalance_threshold(0.4);
            let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()))
                .with_rebalancer(Box::<WorstShardDrain>::default());
            if profile {
                fleet.enable_profiler();
            }
            let report = fleet.run(&trace)?;
            println!("{report}");
            if let Some(p) = fleet.profiler() {
                println!("{}", p.share_table());
            }
            adversarial.push((
                "round-robin + rebalance".to_string(),
                report.admitted(),
                report.submitted,
            ));
        }
        println!();
    }

    println!("=== adversarial-fragmenter: routing policy comparison ===");
    let rr = adversarial
        .iter()
        .find(|(n, _, _)| n == "round-robin")
        .expect("round-robin always runs")
        .1;
    for (name, admitted, submitted) in &adversarial {
        let marker = if *admitted > rr {
            "  <-- beats round-robin"
        } else {
            ""
        };
        println!(
            "  {name:<16} {admitted}/{submitted} admitted ({:.3}){marker}",
            *admitted as f64 / *submitted as f64
        );
    }
    println!(
        "\nState-blind rotation keeps routing big deadline-bound requests onto\n\
         whichever device the counter points at — including freshly comb-\n\
         fragmented ones whose rearrangement cost blows the deadline. The\n\
         informed policies read per-device state (utilisation, largest free\n\
         rectangle, predicted post-placement fragmentation) and buy strictly\n\
         more admissions from the same fleet. Rebalancing migration recovers\n\
         the same admissions *without* informing the router: resident\n\
         functions move between devices during idle port windows (never\n\
         making a queued deadline late), repairing the combs after the fact."
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let profile = args.iter().any(|a| a == "--profile");
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let path = args
            .get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("target/fleet_trace.jsonl");
        println!("fleet_loop --trace: deterministic event export (self-validating)");
        return trace_export(path);
    }
    if args.iter().any(|a| a == "--tiered") {
        println!("fleet_loop --tiered: QoS tiers with preemptive eviction, off vs on");
        return tiered_demo(profile);
    }
    if let Some(i) = args.iter().position(|a| a == "--baseline") {
        let path = args
            .get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("BENCH_fleet.json");
        println!("fleet_loop --baseline: deterministic counter runs (exact-match gated)");
        return baseline(path, profile);
    }
    demo(profile)
}
