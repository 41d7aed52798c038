//! `frpt` — the FPGA Rearrangement and Programming Tool (paper §4,
//! Fig. 7, CLI edition).
//!
//! A command-driven front end over [`rtm_core::manager::RunTimeManager`]:
//! loads synthetic benchmark functions, relocates CLBs and whole
//! functions at run time, defragments the array, and reports
//! fragmentation and relocation costs. Accepts either co-ordinates
//! ("source and destination of the CLB to be relocated") or scripted
//! commands, mirroring the tool's two input modes.
//!
//! ```text
//! USAGE
//!   frpt [--part XCV200] [--trace <out.jsonl>] <script.frpt>
//!   frpt [--part XCV200] -e "load b01 10x10; status; defrag; status"
//!
//! COMMANDS
//!   load <b01..b13|rand:<ffs>x<gates>> <ROWSxCOLS>   load a function
//!   unload <id>                                      remove a function
//!   move <id> <ROW,COL>                              relocate a function
//!   reloc <id> <R,C,CELL> <R,C,CELL>                 relocate one cell
//!   defrag                                           full compaction
//!   status                                           manager summary
//!   recover                                          restore checkpoint
//! ```

use rtm_core::cost::CostModel;
use rtm_core::manager::{FunctionId, RunTimeManager};
use rtm_fpga::geom::{ClbCoord, Rect};
use rtm_fpga::part::Part;
use rtm_netlist::itc99;
use rtm_netlist::random::RandomCircuit;
use rtm_netlist::techmap::map_to_luts;
use rtm_obs::{to_jsonl_stream, EventBuffer, EventKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("frpt: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut part = Part::Xcv200;
    let mut script: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--part" => {
                i += 1;
                let name = args.get(i).ok_or("--part needs a value")?;
                part = parse_part(name)?;
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).ok_or("--trace needs a path")?.clone());
            }
            "-e" => {
                i += 1;
                script = Some(args.get(i).ok_or("-e needs a command string")?.clone());
            }
            "-h" | "--help" => {
                println!("{}", HELP);
                return Ok(());
            }
            path => {
                script = Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?,
                );
            }
        }
        i += 1;
    }
    let script = script.ok_or("no script given; try --help")?;

    let mut mgr = RunTimeManager::new(part);
    let cost_model = CostModel::paper_default();
    // The manager has no simulated clock, so the trace stamps events
    // with the 1-based command ordinal instead — still deterministic,
    // still wall-clock-free.
    let events = trace_path.as_ref().map(|_| EventBuffer::new(0));
    let mut op: u64 = 0;
    println!(
        "frpt: device {part} ({}x{} CLBs)",
        part.clb_rows(),
        part.clb_cols()
    );

    for raw in script.split([';', '\n']) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        op += 1;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "load" => cmd_load(&mut mgr, &words, events.as_ref(), op)?,
            "unload" => {
                let id = parse_id(&words, 1)?;
                mgr.unload(id).map_err(|e| e.to_string())?;
                if let Some(b) = &events {
                    b.emit(op, EventKind::Unload { id });
                }
                println!("unloaded function {id}");
            }
            "move" => cmd_move(&mut mgr, &cost_model, &words)?,
            "reloc" => cmd_reloc(&mut mgr, &cost_model, &words)?,
            "defrag" => cmd_defrag(&mut mgr, &cost_model, events.as_ref(), op)?,
            "status" => {
                println!("{}", mgr.status());
                println!("planning: {}", mgr.plan_stats());
            }
            "recover" => {
                let n = mgr.recover().map_err(|e| e.to_string())?;
                println!("recovered {n} frames from checkpoint");
            }
            other => return Err(format!("unknown command `{other}` in: {line}")),
        }
    }
    if let (Some(path), Some(b)) = (&trace_path, &events) {
        let stream = b.take();
        std::fs::write(path, to_jsonl_stream(&stream))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace: wrote {} events to {path}", stream.len());
    }
    Ok(())
}

fn cmd_load(
    mgr: &mut RunTimeManager,
    words: &[&str],
    events: Option<&EventBuffer>,
    at: u64,
) -> Result<(), String> {
    let circuit = words.get(1).ok_or("load: missing circuit")?;
    let shape = words.get(2).ok_or("load: missing ROWSxCOLS")?;
    let (rows, cols) = parse_shape(shape)?;
    let netlist = if let Some(spec) = circuit.strip_prefix("rand:") {
        let (ffs, gates) = parse_shape(spec)?;
        RandomCircuit::free_running(ffs as usize, gates as usize, 42).generate()
    } else {
        let profile =
            itc99::profile(circuit).ok_or_else(|| format!("unknown circuit {circuit}"))?;
        itc99::generate(profile, itc99::Variant::FreeRunning)
    };
    let mapped = map_to_luts(&netlist).map_err(|e| e.to_string())?;
    let report = mgr
        .load(&mapped, rows, cols, |_, _, _| {})
        // The attributed reason (no-free-slots vs unroutable) is the
        // routing-failure autopsy: area pressure and wiring congestion
        // call for different fixes.
        .map_err(|e| format!("load failed [{}]: {e}", e.load_failure_reason()))?;
    if let Some(b) = events {
        b.emit(
            at,
            EventKind::Load {
                id: report.id,
                frames: report.frames_total(),
            },
        );
    }
    println!(
        "loaded {} as function {} at {} ({} cells){}",
        circuit,
        report.id,
        report.region,
        mapped.len(),
        if report.moves.is_empty() {
            String::new()
        } else {
            format!(" after {} rearrangement moves", report.moves.len())
        }
    );
    Ok(())
}

fn cmd_move(
    mgr: &mut RunTimeManager,
    cost_model: &CostModel,
    words: &[&str],
) -> Result<(), String> {
    let id = parse_id(words, 1)?;
    let coord = parse_coord(words.get(2).copied().ok_or("move: missing ROW,COL")?)?;
    let region = mgr
        .function(id)
        .ok_or_else(|| format!("unknown function {id}"))?
        .placement
        .region;
    let to = Rect::new(coord, region.rows, region.cols);
    let reports = mgr
        .relocate_function(id, to, |_, _, _| {})
        .map_err(|e| e.to_string())?;
    let total_ms: f64 = reports
        .iter()
        .map(|r| cost_model.relocation_cost(mgr.device().part(), r).millis())
        .sum();
    println!(
        "moved function {id} to {to}: {} cell relocations, {:.1} ms via {}",
        reports.len(),
        total_ms,
        cost_model.interface,
    );
    Ok(())
}

/// `reloc <id> <srcR,srcC,cell> <dstR,dstC,cell>` — the paper's
/// coordinate-pair input mode: relocate one CLB cell of a function.
fn cmd_reloc(
    mgr: &mut RunTimeManager,
    cost_model: &CostModel,
    words: &[&str],
) -> Result<(), String> {
    let id = parse_id(words, 1)?;
    let src = parse_cell_loc(
        words
            .get(2)
            .copied()
            .ok_or("reloc: missing source R,C,cell")?,
    )?;
    let dst = parse_cell_loc(
        words
            .get(3)
            .copied()
            .ok_or("reloc: missing dest R,C,cell")?,
    )?;
    let report = mgr
        .relocate_cell_of(id, src, dst, |_, _, _| {})
        .map_err(|e| e.to_string())?;
    let cost = cost_model.relocation_cost(mgr.device().part(), &report);
    println!("{report}; cost {cost}");
    Ok(())
}

fn cmd_defrag(
    mgr: &mut RunTimeManager,
    cost_model: &CostModel,
    events: Option<&EventBuffer>,
    at: u64,
) -> Result<(), String> {
    // The manager plans the compaction and refuses cycles whose
    // predicted improvement is zero — no relocation traffic for a
    // fragmentation index that would not move.
    let report = mgr.defragment(|_, _, _| {}).map_err(|e| e.to_string())?;
    if report.moves.is_empty() {
        println!(
            "defrag: nothing to do (fragmentation {:.3}; compaction would not improve it)",
            report.before.fragmentation()
        );
        return Ok(());
    }
    if let Some(b) = events {
        b.emit(
            at,
            EventKind::DefragCycle {
                before: report.before,
                after: report.after,
                moves: report.moves.len(),
            },
        );
    }
    let total_ms: f64 = report
        .relocations
        .iter()
        .map(|r| cost_model.relocation_cost(mgr.device().part(), r).millis())
        .sum();
    println!(
        "defrag: {} function moves, {:.1} ms; fragmentation {:.3} -> {:.3}",
        report.moves.len(),
        total_ms,
        report.before.fragmentation(),
        report.after.fragmentation()
    );
    Ok(())
}

fn parse_part(name: &str) -> Result<Part, String> {
    Part::ALL
        .iter()
        .find(|p| p.to_string().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| format!("unknown part {name}"))
}

fn parse_shape(s: &str) -> Result<(u16, u16), String> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| format!("bad shape {s}, want AxB"))?;
    Ok((
        a.parse().map_err(|_| format!("bad number {a}"))?,
        b.parse().map_err(|_| format!("bad number {b}"))?,
    ))
}

fn parse_coord(s: &str) -> Result<ClbCoord, String> {
    let (r, c) = s
        .split_once(',')
        .ok_or_else(|| format!("bad coordinate {s}, want R,C"))?;
    Ok(ClbCoord::new(
        r.parse().map_err(|_| format!("bad number {r}"))?,
        c.parse().map_err(|_| format!("bad number {c}"))?,
    ))
}

fn parse_cell_loc(s: &str) -> Result<(ClbCoord, usize), String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("bad cell location {s}, want R,C,CELL"));
    }
    let r: u16 = parts[0]
        .parse()
        .map_err(|_| format!("bad number {}", parts[0]))?;
    let c: u16 = parts[1]
        .parse()
        .map_err(|_| format!("bad number {}", parts[1]))?;
    let cell: usize = parts[2]
        .parse()
        .map_err(|_| format!("bad number {}", parts[2]))?;
    Ok((ClbCoord::new(r, c), cell))
}

fn parse_id(words: &[&str], idx: usize) -> Result<FunctionId, String> {
    words
        .get(idx)
        .ok_or("missing function id")?
        .parse()
        .map_err(|_| "bad function id".to_string())
}

const HELP: &str = "frpt — FPGA Rearrangement and Programming Tool (DATE 2003 reproduction)

USAGE
  frpt [--part XCV200] [--trace <out.jsonl>] <script.frpt>
  frpt [--part XCV200] -e \"load b01 10x10; status; defrag; status\"

OPTIONS
  --trace <out.jsonl>   export load/unload/defrag events as JSONL
                        (stamped with the command ordinal — the tool
                        has no simulated clock)

COMMANDS (separated by ';' or newlines; '#' starts a comment)
  load <b01..b13|rand:FFSxGATES> <ROWSxCOLS>
  unload <id>
  move <id> <ROW,COL>
  reloc <id> <R,C,CELL> <R,C,CELL>
  defrag
  status
  recover";
