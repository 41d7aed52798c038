//! End-to-end benchmark of the rtm stack: replays one workload through
//! the public `FleetService` API, checks the output, and prints every
//! metric by name and unit. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload load-frag64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. Each measured pass runs in a child process of its own, so its
//! peak resident memory is its own, and times a fixed calibration around
//! its fleet run, by which its host times are scaled to a reference host
//! (see `calib.rs`).

mod calib;
mod json;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workload;

use metrics::{END_TO_END, PER_LAYER};
use rtm::obs::Phase;
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Scale, Workload};

/// Measured passes an untraced run makes at least, whatever `--seconds`.
const MIN_PASSES: usize = 3;
/// Each pass repeats its set-up for at least this long (and at least
/// `MIN_SETUP_REPS` times) and reports the median: one set-up takes
/// microseconds, too little to time steadily once.
const SETUP_BUDGET_S: f64 = 0.25;
const MIN_SETUP_REPS: usize = 11;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug, Clone)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workload_seed: u64,
    scale: Scale,
    child: Option<ChildKind>,
    replays: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildKind {
    Fleet,
    Traced,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: rtm-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] \
         [--workload-seed N] [--scale full|tiny]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut replays = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--replays" {
            replays = true;
            continue;
        }
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let num = |key: &str| -> Result<Option<u64>, String> {
        kv.get(key)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{key}: '{v}' is not a whole number"))
            })
            .transpose()
    };
    let name = kv.get("workload").ok_or("--workload is required")?;
    let workload = Workload::named(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let scale = match kv.get("scale").map(String::as_str) {
        None | Some("full") => Scale::Full,
        Some("tiny") => Scale::Tiny,
        Some(s) => return Err(format!("--scale: unknown scale '{s}'")),
    };
    let child = match kv.get("child").map(String::as_str) {
        None => None,
        Some("fleet") => Some(ChildKind::Fleet),
        Some("traced") => Some(ChildKind::Traced),
        Some(c) => return Err(format!("--child: unknown kind '{c}'")),
    };
    let trace = match num("trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    for key in kv.keys() {
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "workload-seed",
            "scale",
            "child",
        ]
        .contains(&key.as_str())
        {
            return Err(format!("unknown option --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed: num("seed")?.unwrap_or(0),
        seconds: num("seconds")?.unwrap_or(10) as f64,
        trace,
        workload_seed: num("workload-seed")?.unwrap_or(workload.default_seed),
        scale,
        child,
        replays,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match args.child {
        Some(kind) => child(&args, kind),
        None => parent(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Child: one measured pass, reported as `@key value` lines.
// ---------------------------------------------------------------------

/// Peak resident memory of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mib() -> Result<f64, String> {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's 64-bit `struct rusage`
    // (two `timeval`s, then fourteen `long`s), and the pointer is to a
    // live, writable value of it for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err("getrusage failed".into());
    }
    Ok(usage.maxrss_kib as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mib() -> Result<f64, String> {
    Err("peak RSS is measured on 64-bit Linux only".into())
}

fn child(args: &Args, kind: ChildKind) -> Result<(), String> {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut built = None;
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUP_REPS || setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        drop(built.take());
        let started = Instant::now();
        let trace = w.trace(args.workload_seed, args.scale);
        let fleet = w.fleet(args.scale);
        setups.push(started.elapsed().as_secs_f64());
        built = Some((trace, fleet));
    }
    let (trace, mut fleet) = built.expect("at least one set-up ran");
    if kind == ChildKind::Traced {
        fleet.enable_profiler();
        fleet.enable_events();
    }
    let mut calibration = calib::Calibration::new();
    let before = calibration.run();
    let started = Instant::now();
    let report = fleet.run(&trace);
    let run_s = started.elapsed().as_secs_f64();
    let after = calibration.run();
    let rss = peak_rss_mib()?;
    println!("@calib_s {}", (before + after) / 2.0);
    println!("@arrivals {}", trace.arrivals());
    println!("@setup_s {}", stats::median(&setups).expect("set-ups ran"));
    println!("@run_s {run_s}");
    println!("@peak_rss_mib {rss}");
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            println!("@error fleet run failed: {e}");
            return Ok(());
        }
    };

    for e in workload::check_report(&trace, &fleet, &report) {
        println!("@error {e}");
    }
    if args.scale == Scale::Full && args.workload_seed == w.default_seed {
        let path = format!("{MANIFEST_DIR}/../BENCH_fleet.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for e in workload::check_pinned(w, &report, w.devices(args.scale).len(), &text) {
                    println!("@error {e}");
                }
            }
            Err(e) => println!("@error cannot read {path}: {e}"),
        }
    }
    let sig: Vec<String> = workload::counters(&report)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("@signature {}", sig.join(","));
    match workload::sim_metrics(&fleet, &report) {
        Ok(m) => {
            println!("@admitted_ratio {}", m.admitted_ratio);
            println!(
                "@interactive_admitted_ratio {}",
                m.interactive_admitted_ratio
            );
            println!("@port_ms_per_admission {}", m.port_ms_per_admission);
            println!("@start_latency_tail_ms {}", m.start_latency_tail_ms);
            println!("@tail_at p{:.2} of n={}", m.tail_percentile, m.tail_n);
        }
        Err(e) => println!("@error {e}"),
    }

    if kind == ChildKind::Traced {
        let p = fleet.profiler().ok_or("the profiler was enabled")?;
        for phase in Phase::ALL {
            println!(
                "@phase.{} {}",
                phase.name(),
                p.phase_nanos(phase) as f64 / 1e9
            );
        }
        let events = fleet.take_events();
        if args.replays {
            replays(args, &trace, &fleet, &report, &events)?;
        }
    }
    Ok(())
}

/// Runs both replays with spans, writes the spans out, and reports the
/// per-layer values of the service, core and netlist layers plus the
/// fleet report's counters.
fn replays(
    args: &Args,
    trace: &rtm::service::Trace,
    fleet: &rtm::fleet::FleetService,
    report: &rtm::fleet::FleetReport,
    events: &[rtm::obs::RtmEvent],
) -> Result<(), String> {
    let w = args.workload;
    let layer = |name: &str, v: f64| println!("@layer {name} {v}");
    let epochs = report.metrics.counter("epochs");
    let s = report.plan_stats();
    layer("fleet.epochs", epochs as f64);
    layer(
        "fleet.arrivals_per_epoch",
        report.submitted as f64 / epochs.max(1) as f64,
    );
    layer("fleet.retries", report.retries as f64);
    layer("fleet.load_failovers", report.load_failovers as f64);
    layer("fleet.unplaceable", report.unplaceable as f64);
    layer("fleet.previews", s.previews as f64);
    let lookups = s.summary_hits + s.summary_misses;
    layer(
        "fleet.summary_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            s.summary_hits as f64 / lookups as f64
        },
    );
    layer("fleet.preemptions", report.preemptions as f64);
    layer("fleet.evictions_migrated", report.evictions_migrated as f64);
    layer("fleet.evictions_parked", report.evictions_parked as f64);
    layer("fleet.parked_readmitted", report.parked_readmitted as f64);
    layer("fleet.parked_expired", report.parked_expired as f64);
    layer(
        "fleet.reconfig_ms_per_admission",
        report.reconfig_ms() / report.admitted().max(1) as f64,
    );

    let configs = fleet.config().shards.clone();
    let assignment = replay::assignment(events);
    let mut spans = Spans::new();
    let root = spans.enter("replay.service", None);
    let sr = replay::service_replay(&configs, trace, &assignment, &mut spans)
        .map_err(|e| format!("service replay failed: {e}"))?;
    spans.exit(root);
    let root = spans.enter("replay.manager", None);
    let mr = replay::manager_replay(&configs, trace, &assignment, w.preemption, &mut spans)
        .map_err(|e| format!("manager replay failed: {e}"))?;
    spans.exit(root);
    for e in sr.errors.iter().chain(&mr.errors) {
        println!("@error {e}");
    }

    let dir = format!("{MANIFEST_DIR}/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{}.jsonl", w.name);
    std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    println!("@note spans written to {path}");

    let busy = spans.busy();
    let b = |name: &str| busy.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("service.reserve_s", "service.reserve"),
        ("service.execute_s", "service.execute"),
        ("service.depart_s", "service.depart"),
        ("service.settle_s", "service.settle"),
        ("core.plan_room_s", "core.plan_room"),
        ("core.reserve_room_s", "core.reserve_room"),
        ("core.execute_reserved_s", "core.execute_reserved"),
        ("core.unload_s", "core.unload"),
        ("core.plan_defrag_s", "core.plan_defrag"),
        ("core.defragment_s", "core.defragment"),
        ("core.extract_s", "core.extract"),
        ("core.readmit_s", "core.readmit"),
        ("netlist.synth_s", "netlist.synth"),
    ] {
        layer(metric, b(span).self_s);
    }
    layer("service.reserve_calls", b("service.reserve").calls as f64);
    layer("service.settle_calls", b("service.settle").calls as f64);
    layer("service.tickets_executed", sr.tickets_executed as f64);
    layer("service.departures", sr.sum(|r| r.departures as u64) as f64);
    let p50 = stats::median(&sr.admit_us).unwrap_or(0.0);
    let tail = stats::tail(&sr.admit_us)
        .map(|t| t.0)
        .or_else(|| sr.admit_us.iter().copied().reduce(f64::max))
        .unwrap_or(0.0);
    layer("service.admit_us_p50", p50);
    layer("service.admit_us_tail", tail);
    layer(
        "service.defrag_cycles",
        sr.sum(|r| r.defrag_cycles as u64) as f64,
    );
    layer(
        "service.function_moves",
        sr.sum(|r| r.function_moves as u64) as f64,
    );
    layer("service.cells_moved", sr.sum(|r| r.cells_moved) as f64);
    layer(
        "service.frames_written",
        sr.sum(|r| r.frames_written) as f64,
    );
    layer("service.failures", sr.sum(|r| r.failures as u64) as f64);
    layer(
        "service.rejected_deadline",
        sr.sum(|r| r.rejected_deadline as u64) as f64,
    );
    layer("core.plan_room_calls", b("core.plan_room").calls as f64);
    layer("core.loads", mr.loads as f64);
    layer("core.unloads", mr.unloads as f64);
    layer("core.defrag_moves", mr.defrag_moves as f64);
    let ps = mr.plan_stats;
    layer("core.make_room_calls", ps.make_room_calls as f64);
    layer("core.compaction_plans", ps.compaction_plans as f64);
    let judged = ps.plans_reused + ps.plans_invalidated;
    layer(
        "core.plans_reused_ratio",
        if judged == 0 {
            0.0
        } else {
            ps.plans_reused as f64 / judged as f64
        },
    );
    layer("netlist.designs", mr.designs as f64);

    // The replays' deterministic counters beside the fleet run's.
    let rows: [(&str, String, String, String); 7] = [
        (
            "admitted / loads",
            report.admitted().to_string(),
            sr.sum(|r| r.admitted as u64).to_string(),
            mr.loads.to_string(),
        ),
        (
            "departures / unloads",
            report.departures().to_string(),
            sr.sum(|r| r.departures as u64).to_string(),
            mr.unloads.to_string(),
        ),
        (
            "defrag cycles",
            report.defrag_cycles().to_string(),
            sr.sum(|r| r.defrag_cycles as u64).to_string(),
            "-".into(),
        ),
        (
            "function moves",
            report.function_moves().to_string(),
            sr.sum(|r| r.function_moves as u64).to_string(),
            format!("{} (defrag)", mr.defrag_moves),
        ),
        (
            "frames written",
            report.frames_written().to_string(),
            sr.sum(|r| r.frames_written).to_string(),
            "-".into(),
        ),
        (
            "failures + deadline drops",
            (report.failures() + report.rejected_deadline()).to_string(),
            sr.sum(|r| (r.failures + r.rejected_deadline) as u64)
                .to_string(),
            (mr.failures + mr.rejected_deadline).to_string(),
        ),
        (
            "evictions / extracts",
            report.evictions_out().to_string(),
            "-".into(),
            format!(
                "{} ({} readmitted, {} expired parked)",
                mr.extracts, mr.readmits, mr.parked_expired
            ),
        ),
    ];
    println!(
        "@note {:<26} {:>10} {:>15} {:>15}",
        "counter", "fleet", "service-replay", "manager-replay"
    );
    for (name, f, s, m) in rows {
        println!("@note {name:<26} {f:>10} {s:>15} {m:>15}");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parent: runs passes in child processes and aggregates them.
// ---------------------------------------------------------------------

/// One child pass as the parent reads it back.
#[derive(Debug, Default)]
struct Pass {
    values: BTreeMap<String, String>,
    layers: BTreeMap<String, f64>,
    errors: Vec<String>,
    notes: Vec<String>,
    wall_s: f64,
}

impl Pass {
    fn num(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    fn arrivals(&self) -> u64 {
        self.num("arrivals").map_or(0, |v| v as u64)
    }

    /// A host time of this pass in reference-host seconds: scaled by how
    /// much slower than the reference host the calibration ran.
    fn reference_s(&self, key: &str) -> Option<f64> {
        Some(self.num(key)? * calib::REFERENCE_S / self.num("calib_s")?)
    }

    fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

fn run_child(args: &Args, kind: ChildKind, replays: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name,
        "--workload-seed",
        &args.workload_seed.to_string(),
        "--scale",
        match args.scale {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        },
        "--child",
        match kind {
            ChildKind::Fleet => "fleet",
            ChildKind::Traced => "traced",
        },
    ]);
    if replays {
        cmd.arg("--replays");
    }
    let started = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    let mut pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(rest) = line.strip_prefix('@') else {
            continue;
        };
        let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
        match key {
            "error" => pass.errors.push(value.to_string()),
            "note" => pass.notes.push(value.to_string()),
            "layer" => {
                if let Some((name, v)) = value.split_once(' ') {
                    if let Ok(v) = v.parse() {
                        pass.layers.insert(name.to_string(), v);
                    }
                }
            }
            _ => {
                pass.values.insert(key.to_string(), value.to_string());
            }
        }
    }
    if !out.status.success() {
        pass.errors.push(format!("pass exited with {}", out.status));
    }
    Ok(pass)
}

const SIM_KEYS: [&str; 4] = [
    "admitted_ratio",
    "interactive_admitted_ratio",
    "port_ms_per_admission",
    "start_latency_tail_ms",
];

/// Marks every pass whose simulated results differ from the first
/// pass's: the same trace must give the same results every time.
fn check_repeatable(passes: &mut [Pass]) {
    let Some(first) = passes.first() else {
        return;
    };
    let reference: Vec<(&str, Option<String>)> = std::iter::once("signature")
        .chain(SIM_KEYS)
        .map(|k| (k, first.values.get(k).cloned()))
        .collect();
    for p in passes.iter_mut() {
        for (k, want) in &reference {
            if p.values.get(*k) != want.as_ref() {
                p.errors.push(format!("{k} differs from the first pass"));
            }
        }
    }
}

fn median_of(passes: &[&Pass], key: &str) -> Result<f64, String> {
    let v: Vec<f64> = passes.iter().filter_map(|p| p.num(key)).collect();
    stats::median(&v).ok_or_else(|| format!("no pass reported {key}"))
}

/// Median over passes of a host time in reference-host seconds.
fn median_reference_s(passes: &[&Pass], key: &str) -> Result<f64, String> {
    let v: Vec<f64> = passes.iter().filter_map(|p| p.reference_s(key)).collect();
    stats::median(&v).ok_or_else(|| format!("no pass reported {key} and calib_s"))
}

fn parent(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!(
        "workload {} (trace seed {}, held-out seed {}), {} devices, run seed {}, {} s",
        w.name,
        args.workload_seed,
        w.held_out_seed,
        w.devices(args.scale).len(),
        args.seed,
        args.seconds
    );
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    if args.trace {
        // Alternate untraced and traced passes; the run seed picks which
        // goes first. The first traced pass also runs the replays.
        let traced_first = args.seed % 2 == 1;
        loop {
            let replays = traced.is_empty();
            if traced_first {
                traced.push(run_child(args, ChildKind::Traced, replays)?);
                passes.push(run_child(args, ChildKind::Fleet, false)?);
            } else {
                passes.push(run_child(args, ChildKind::Fleet, false)?);
                traced.push(run_child(args, ChildKind::Traced, replays)?);
            }
            // A further pair costs about two untraced passes.
            let pass_s = passes.last().map_or(0.0, |p| p.wall_s);
            if started.elapsed().as_secs_f64() + 2.0 * pass_s > args.seconds {
                break;
            }
        }
    } else {
        loop {
            passes.push(run_child(args, ChildKind::Fleet, false)?);
            let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
            let typical = stats::median(&walls).unwrap_or(0.0);
            if passes.len() >= MIN_PASSES
                && started.elapsed().as_secs_f64() + typical > args.seconds
            {
                break;
            }
        }
    }

    let n_untraced = passes.len();
    let mut all: Vec<Pass> = passes.into_iter().chain(traced).collect();
    check_repeatable(&mut all);
    let (untraced, traced) = all.split_at(n_untraced);
    for (i, p) in all.iter().enumerate() {
        let kind = if i < n_untraced {
            "pass"
        } else {
            "traced pass"
        };
        println!(
            "{kind} {}: run {:.3} s ({:.3} s on the reference host), set-up {:.6} s, \
             calibration {:.4} s, peak RSS {:.1} MiB{}",
            i + 1,
            p.num("run_s").unwrap_or(f64::NAN),
            p.reference_s("run_s").unwrap_or(f64::NAN),
            p.num("setup_s").unwrap_or(f64::NAN),
            p.num("calib_s").unwrap_or(f64::NAN),
            p.num("peak_rss_mib").unwrap_or(f64::NAN),
            if p.ok() {
                String::new()
            } else {
                format!(", FAILED: {}", p.errors.join("; "))
            }
        );
        for n in &p.notes {
            println!("  {n}");
        }
    }

    let attempted: u64 = all.iter().map(Pass::arrivals).sum();
    let failed: u64 = all.iter().filter(|p| !p.ok()).map(Pass::arrivals).sum();
    let correct = all.iter().all(Pass::ok) && attempted > 0;
    // A failed check marks the run incorrect but still reports what was
    // measured.
    let untraced: Vec<&Pass> = untraced.iter().collect();
    let traced: Vec<&Pass> = traced.iter().collect();
    let arrivals = all.first().map_or(0, Pass::arrivals) as f64;
    if let Some(p) = all.first() {
        if let Some(t) = p.values.get("tail_at") {
            println!(
                "start_latency_tail_ms is the {t} arrivals (never-admitted count as infinite)"
            );
        }
    }

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if !args.trace {
        let run_s = median_reference_s(&untraced, "run_s")?;
        metrics.push(("arrivals_per_s", arrivals / run_s));
        metrics.push(("setup_s", median_reference_s(&untraced, "setup_s")?));
        metrics.push(("peak_rss_mib", median_of(&untraced, "peak_rss_mib")?));
        for key in SIM_KEYS {
            metrics.push((key, median_of(&untraced, key)?));
        }
    } else {
        let untraced_s = median_reference_s(&untraced, "run_s")?;
        let traced_s = median_reference_s(&traced, "run_s")?;
        let both: Vec<&Pass> = untraced.iter().chain(&traced).copied().collect();
        metrics.push(("host.calibration_s", median_of(&both, "calib_s")?));
        let mut phase_s = Vec::new();
        for phase in Phase::ALL {
            phase_s.push((
                phase,
                median_of(&traced, &format!("phase.{}", phase.name()))?,
            ));
        }
        for &(phase, secs) in &phase_s {
            let name: &'static str = match phase {
                Phase::Horizon => "fleet.horizon_s",
                Phase::Segments => "fleet.segments_s",
                Phase::Routing => "fleet.routing_s",
                Phase::Execute => "fleet.execute_s",
                Phase::Triggers => "fleet.triggers_s",
                Phase::Sampling => "fleet.sampling_s",
            };
            metrics.push((name, secs));
        }
        metrics.push(("fleet.profiler_overhead_ratio", traced_s / untraced_s));
        metrics.push(("trace.untraced_arrivals_per_s", arrivals / untraced_s));
        metrics.push(("trace.traced_arrivals_per_s", arrivals / traced_s));
        let with_replays = traced
            .iter()
            .find(|p| !p.layers.is_empty())
            .ok_or("no traced pass ran the replays")?;
        for def in PER_LAYER {
            if let Some(v) = with_replays.layers.get(def.name) {
                metrics.push((def.name, *v));
            }
        }
        cross_check(w.name, &phase_s);
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    for def in wanted {
        let (_, v) = metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", def.name));
        }
        if !out.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{out}}}}}"
    );
    Ok(())
}

/// Compares the traced run's phase shares with the reference layer
/// profile and warns when a workload no longer has the shape it was
/// chosen for. In the default (immediate) admission mode, admission
/// execution runs inline on the routing edge, so it is counted with
/// `routing` plus `execute`.
fn cross_check(workload: &str, phase_s: &[(Phase, f64)]) {
    let total: f64 = phase_s.iter().map(|(_, s)| s).sum();
    if total <= 0.0 {
        return;
    }
    let share = |phases: &[Phase]| {
        phase_s
            .iter()
            .filter(|(p, _)| phases.contains(p))
            .map(|(_, s)| s)
            .sum::<f64>()
            / total
    };
    let (what, got, floor) = match workload {
        "load-frag64" => (
            "admission execution (routing + execute)",
            share(&[Phase::Routing, Phase::Execute]),
            0.90,
        ),
        "preempt-tiered3" => ("shard segments", share(&[Phase::Segments]), 0.60),
        _ => return,
    };
    if got < floor {
        println!(
            "warning: {workload}: {what} is {:.1}% of fleet wall, below the reference {:.0}%",
            100.0 * got,
            100.0 * floor
        );
    } else {
        println!(
            "{workload}: {what} is {:.1}% of fleet wall (reference >= {:.0}%)",
            100.0 * got,
            100.0 * floor
        );
    }
}
