//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! self-test checks that the two agree and that a run prints them all.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("arrivals_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("admitted_ratio", "ratio"),
    m("interactive_admitted_ratio", "ratio"),
    m("port_ms_per_admission", "sim_ms"),
    m("start_latency_tail_ms", "sim_ms"),
];

/// Printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // fleet: the phase profiler on the fleet run, and its report.
    m("fleet.horizon_s", "s"),
    m("fleet.segments_s", "s"),
    m("fleet.routing_s", "s"),
    m("fleet.execute_s", "s"),
    m("fleet.triggers_s", "s"),
    m("fleet.sampling_s", "s"),
    m("fleet.epochs", "count"),
    m("fleet.arrivals_per_epoch", "ratio"),
    m("fleet.retries", "count"),
    m("fleet.load_failovers", "count"),
    m("fleet.unplaceable", "count"),
    m("fleet.previews", "count"),
    m("fleet.summary_hit_ratio", "ratio"),
    m("fleet.preemptions", "count"),
    m("fleet.evictions_migrated", "count"),
    m("fleet.evictions_parked", "count"),
    m("fleet.parked_readmitted", "count"),
    m("fleet.parked_expired", "count"),
    m("fleet.reconfig_ms_per_admission", "sim_ms"),
    m("fleet.profiler_overhead_ratio", "ratio"),
    m("trace.untraced_arrivals_per_s", "1/s"),
    m("trace.traced_arrivals_per_s", "1/s"),
    // the host: the calibration's own time, raw (see calib.rs).
    m("host.calibration_s", "s"),
    // service: spans around RuntimeService stepping calls.
    m("service.reserve_s", "s"),
    m("service.reserve_calls", "count"),
    m("service.execute_s", "s"),
    m("service.tickets_executed", "count"),
    m("service.depart_s", "s"),
    m("service.departures", "count"),
    m("service.settle_s", "s"),
    m("service.settle_calls", "count"),
    m("service.admit_us_p50", "us"),
    m("service.admit_us_tail", "us"),
    m("service.defrag_cycles", "count"),
    m("service.function_moves", "count"),
    m("service.cells_moved", "count"),
    m("service.frames_written", "count"),
    m("service.failures", "count"),
    m("service.rejected_deadline", "count"),
    // core: spans around RunTimeManager public calls.
    m("core.plan_room_s", "s"),
    m("core.plan_room_calls", "count"),
    m("core.reserve_room_s", "s"),
    m("core.execute_reserved_s", "s"),
    m("core.loads", "count"),
    m("core.unload_s", "s"),
    m("core.unloads", "count"),
    m("core.plan_defrag_s", "s"),
    m("core.defragment_s", "s"),
    m("core.defrag_moves", "count"),
    m("core.extract_s", "s"),
    m("core.readmit_s", "s"),
    m("core.make_room_calls", "count"),
    m("core.compaction_plans", "count"),
    m("core.plans_reused_ratio", "ratio"),
    // netlist: design synthesis in the manager replay.
    m("netlist.synth_s", "s"),
    m("netlist.designs", "count"),
];
