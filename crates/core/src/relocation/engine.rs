//! The dynamic CLB relocation engine: Fig. 2 (two-phase), Fig. 3
//! (auxiliary relocation circuit) and Fig. 4 (procedure flow) as
//! executable device edits.
//!
//! Every procedure step is an ordinary set of configuration-memory
//! writes; the engine snapshots the configuration around each step so the
//! report carries the exact frame traffic (the input to the cost model),
//! and an observer callback is invoked after each step so a harness can
//! keep the system clocking — the relocation happens *while the circuit
//! runs*, which is the paper's whole point.

use crate::error::CoreError;
use crate::relocation::plan::{find_aux_sites, free_slot, RelocationClass, StepKind};
use rtm_fpga::cell::LogicCell;
use rtm_fpga::config::FrameAddress;
use rtm_fpga::geom::Rect;
use rtm_fpga::lut::Lut;
use rtm_fpga::storage::{ClockingClass, StorageKind};
use rtm_fpga::Device;
use rtm_sim::design::PlacedDesign;
use rtm_sim::place::CellLoc;
use rtm_sim::route::NetId;
use std::fmt;

/// Options controlling a relocation.
#[derive(Debug, Clone, Default)]
pub struct RelocationOptions {
    /// Restrict replica/auxiliary routing to this region (default: whole
    /// device).
    pub within: Option<Rect>,
    /// Ablation switch: skip the auxiliary relocation circuit even for
    /// gated-clock/asynchronous cells. The paper predicts (and the
    /// transparency harness observes) state loss when the clock enable is
    /// idle during the move.
    pub skip_aux: bool,
}

/// One executed procedure step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// Which step of Fig. 4 this was.
    pub step: StepKind,
    /// Configuration frames whose contents changed in this step.
    pub frames: Vec<FrameAddress>,
    /// Clock cycles the system must run before the next step.
    pub wait_cycles: u32,
}

/// Observer invoked after each step (used by the verification harness to
/// keep the application clocking between reconfigurations). Receives the
/// design so observation points (feeds, output taps) can be refreshed.
pub type StepObserver<'a> = dyn FnMut(&Device, &PlacedDesign, &StepRecord) + 'a;

/// The outcome of one cell relocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelocationReport {
    /// The procedure class executed.
    pub class: RelocationClass,
    /// Source slot.
    pub src: CellLoc,
    /// Destination slot.
    pub dst: CellLoc,
    /// Auxiliary circuit slots used (empty for two-phase-only classes).
    pub aux_sites: Vec<CellLoc>,
    /// The executed steps with their frame traffic.
    pub steps: Vec<StepRecord>,
}

impl RelocationReport {
    /// Total frame writes across all steps.
    pub fn frames_total(&self) -> usize {
        self.steps.iter().map(|s| s.frames.len()).sum()
    }

    /// Distinct configuration columns touched by any step.
    pub fn columns_touched(&self) -> Vec<u16> {
        let mut cols: Vec<u16> = self
            .steps
            .iter()
            .flat_map(|s| s.frames.iter())
            .filter(|f| f.block == rtm_fpga::config::BlockType::Clb)
            .map(|f| f.major)
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }

    /// Total wait cycles the procedure imposed (time the system kept
    /// running normally — not overhead).
    pub fn wait_cycles_total(&self) -> u32 {
        self.steps.iter().map(|s| s.wait_cycles).sum()
    }
}

impl fmt::Display for RelocationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} relocation {}/{} -> {}/{}: {} steps, {} frames, {} columns",
            self.class,
            self.src.0,
            self.src.1,
            self.dst.0,
            self.dst.1,
            self.steps.len(),
            self.frames_total(),
            self.columns_touched().len(),
        )
    }
}

/// Where the moved cell lives in the design's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DesignSlot {
    Cell(usize),
    Feed(usize),
    Tap(usize),
}

/// Relocates the live logic cell at `src` to the free slot `dst`,
/// executing the procedure appropriate to the cell's clocking class and
/// invoking `observer` after every step.
///
/// On success the design's placement and net tables are updated; the
/// source slot is unconfigured and all its routing released.
///
/// # Errors
///
/// * [`CoreError::SourceUnused`] / [`CoreError::DestinationBusy`] for bad
///   endpoints;
/// * [`CoreError::RamRelocationUnsupported`] for LUT/RAM cells and
///   [`CoreError::RamColumnHazard`] if any rewritten column holds RAM
///   (paper §2);
/// * [`CoreError::NoAuxiliarySite`] if the gated/async procedure finds no
///   free cells for the auxiliary circuit;
/// * routing errors if the replica cannot be connected.
pub fn relocate_cell(
    dev: &mut Device,
    placed: &mut PlacedDesign,
    src: CellLoc,
    dst: CellLoc,
    opts: &RelocationOptions,
    mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
) -> Result<RelocationReport, CoreError> {
    let cfg = dev.clb(src.0)?.cells[src.1];
    if !cfg.is_used() {
        return Err(CoreError::SourceUnused {
            tile: src.0,
            cell: src.1,
        });
    }
    if cfg.ram_mode {
        return Err(CoreError::RamRelocationUnsupported {
            tile: src.0,
            cell: src.1,
        });
    }
    if !free_slot(dev, dst) {
        return Err(CoreError::DestinationBusy {
            tile: dst.0,
            cell: dst.1,
        });
    }
    check_ram_columns(dev, &[src.0.col, dst.0.col])?;

    let slot = design_slot(placed, src)?;

    // Gather the nets touching the source cell.
    let mut input_nets: [Option<NetId>; 4] = [None; 4];
    for (p, slot_net) in input_nets.iter_mut().enumerate() {
        *slot_net = placed.netdb.net_with_sink(PlacedDesign::in_node(src, p));
    }
    let ce_net = placed.netdb.net_with_sink(PlacedDesign::ce_node(src));
    let out_net = placed.netdb.net_with_source(PlacedDesign::out_node(src));

    let mut class = RelocationClass::of(&cfg);
    // A sequential cell nobody observes (no output net) cannot have its
    // state read for transfer — and nobody can tell: fall back to the
    // two-phase procedure.
    if class.needs_auxiliary() && (out_net.is_none() || opts.skip_aux) {
        class = RelocationClass::FreeRunning;
    }

    let mut ctx = Engine {
        dev,
        placed,
        opts,
        slot,
        steps: Vec::new(),
        aux_sites_used: Vec::new(),
        observer: &mut observer,
    };
    if class.needs_auxiliary() {
        ctx.gated_procedure(src, dst, cfg, &input_nets, ce_net, out_net)?
    } else {
        ctx.two_phase_procedure(src, dst, cfg, &input_nets, ce_net, out_net)?
    };
    let (steps, aux_sites) = (ctx.steps, ctx.aux_sites_used);

    Ok(RelocationReport {
        class,
        src,
        dst,
        aux_sites,
        steps,
    })
}

fn design_slot(placed: &PlacedDesign, src: CellLoc) -> Result<DesignSlot, CoreError> {
    if let Some(i) = placed.placement.cell_locs.iter().position(|l| *l == src) {
        return Ok(DesignSlot::Cell(i));
    }
    if let Some(i) = placed.placement.feed_locs.iter().position(|l| *l == src) {
        return Ok(DesignSlot::Feed(i));
    }
    if let Some(i) = placed.placement.tap_locs.iter().position(|l| *l == src) {
        return Ok(DesignSlot::Tap(i));
    }
    Err(CoreError::DesignMismatch {
        detail: format!("cell {}/{} not in the design's placement", src.0, src.1),
    })
}

fn check_ram_columns(dev: &Device, cols: &[u16]) -> Result<(), CoreError> {
    for &col in cols {
        for row in 0..dev.rows() {
            let clb = dev.clb(rtm_fpga::geom::ClbCoord::new(row, col))?;
            if clb.has_ram() {
                return Err(CoreError::RamColumnHazard { column: col });
            }
        }
    }
    Ok(())
}

/// Internal execution context: wraps the device/design and records steps.
struct Engine<'a, F: FnMut(&Device, &PlacedDesign, &StepRecord)> {
    dev: &'a mut Device,
    placed: &'a mut PlacedDesign,
    opts: &'a RelocationOptions,
    slot: DesignSlot,
    steps: Vec<StepRecord>,
    aux_sites_used: Vec<CellLoc>,
    observer: &'a mut F,
}

impl<F: FnMut(&Device, &PlacedDesign, &StepRecord)> Engine<'_, F> {
    /// Runs `body` as one procedure step, recording the frames it touched
    /// and notifying the observer.
    fn step(
        &mut self,
        kind: StepKind,
        body: impl FnOnce(&mut Device, &mut PlacedDesign, &RelocationOptions) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let before = self.dev.config().snapshot();
        body(self.dev, self.placed, self.opts)?;
        let frames = self.dev.config().diff_frames(&before);
        let record = StepRecord {
            step: kind,
            frames,
            wait_cycles: kind.wait_cycles(),
        };
        (self.observer)(self.dev, self.placed, &record);
        self.steps.push(record);
        Ok(())
    }

    /// Fig. 2: the two-phase procedure (combinational and free-running
    /// sequential cells). Returns the replica's output net id.
    fn two_phase_procedure(
        &mut self,
        src: CellLoc,
        dst: CellLoc,
        cfg: LogicCell,
        input_nets: &[Option<NetId>; 4],
        ce_net: Option<NetId>,
        out_net: Option<NetId>,
    ) -> Result<(), CoreError> {
        // Phase 1: copy the internal configuration…
        self.step(StepKind::CopyConfig, |dev, _, _| {
            dev.set_cell(dst.0, dst.1, cfg)?;
            Ok(())
        })?;
        // …and place the inputs of both CLBs in parallel.
        self.step(StepKind::ParallelInputs, |dev, placed, opts| {
            for (p, net) in input_nets.iter().enumerate() {
                if let Some(net) = net {
                    placed.netdb.extend_net(
                        dev,
                        *net,
                        PlacedDesign::in_node(dst, p),
                        opts.within,
                    )?;
                }
            }
            if let Some(net) = ce_net {
                placed
                    .netdb
                    .extend_net(dev, net, PlacedDesign::ce_node(dst), opts.within)?;
            }
            Ok(())
        })?;
        // Phase 2: outputs in parallel, then retire the original.
        self.parallel_and_retire(src, dst, out_net)
    }

    /// Fig. 3/4: the gated-clock / asynchronous procedure with the
    /// auxiliary relocation circuit.
    fn gated_procedure(
        &mut self,
        src: CellLoc,
        dst: CellLoc,
        cfg: LogicCell,
        input_nets: &[Option<NetId>; 4],
        ce_net: Option<NetId>,
        out_net: Option<NetId>,
    ) -> Result<(), CoreError> {
        let ce_net = ce_net.ok_or_else(|| CoreError::DesignMismatch {
            detail: format!("gated cell {}/{} has no routed enable", src.0, src.1),
        })?;
        let out_net = out_net.expect("checked by caller");
        let aux = find_aux_sites(self.dev, dst.0, 3, &[src, dst])?;
        check_ram_columns(self.dev, &[aux[0].0.col, aux[1].0.col, aux[2].0.col])?;
        let (mux_loc, or_loc, comb_loc) = (aux[0], aux[1], aux[2]);
        self.aux_sites_used = aux.clone();

        let mut cfg_bypass = cfg;
        cfg_bypass.d_bypass = true;
        let comb_copy = LogicCell {
            lut: cfg.lut,
            storage: StorageKind::None,
            clocking: ClockingClass::FreeRunning,
            registered_output: false,
            ram_mode: false,
            uses_ce: false,
            d_bypass: false,
        };
        // 2:1 mux (Fig. 3): pin0 = original clock-enable (select), pin1 =
        // original registered output, pin2 = replica combinational output.
        let mux = LogicCell {
            lut: Lut::from_fn(|i| if i[0] { i[2] } else { i[1] }),
            ..comb_copy
        };
        // OR gate with the clock-enable control folded into its truth
        // table: or(ce, control) where `control` is rewritten through the
        // configuration memory.
        let or_inactive = LogicCell {
            lut: Lut::passthrough(0),
            ..comb_copy
        };
        let or_active = LogicCell {
            lut: Lut::constant(true),
            ..comb_copy
        };

        // Step 1: build and connect the auxiliary circuit; parallel the
        // CLB input signals.
        let mut aux_nets: Vec<NetId> = Vec::new();
        self.step(StepKind::ConnectAux, |dev, placed, opts| {
            dev.set_cell(dst.0, dst.1, cfg_bypass)?;
            dev.set_cell(comb_loc.0, comb_loc.1, comb_copy)?;
            dev.set_cell(mux_loc.0, mux_loc.1, mux)?;
            dev.set_cell(or_loc.0, or_loc.1, or_inactive)?;
            for (p, net) in input_nets.iter().enumerate() {
                if let Some(net) = net {
                    placed.netdb.extend_net(
                        dev,
                        *net,
                        PlacedDesign::in_node(comb_loc, p),
                        opts.within,
                    )?;
                    placed.netdb.extend_net(
                        dev,
                        *net,
                        PlacedDesign::in_node(dst, p),
                        opts.within,
                    )?;
                }
            }
            placed
                .netdb
                .extend_net(dev, ce_net, PlacedDesign::in_node(mux_loc, 0), opts.within)?;
            placed
                .netdb
                .extend_net(dev, ce_net, PlacedDesign::in_node(or_loc, 0), opts.within)?;
            placed.netdb.extend_net(
                dev,
                out_net,
                PlacedDesign::in_node(mux_loc, 1),
                opts.within,
            )?;
            let c_out = placed.netdb.route_net(
                dev,
                PlacedDesign::out_node(comb_loc),
                &[PlacedDesign::in_node(mux_loc, 2)],
                opts.within,
            )?;
            let a_out = placed.netdb.route_net(
                dev,
                PlacedDesign::out_node(mux_loc),
                &[PlacedDesign::dx_node(dst)],
                opts.within,
            )?;
            let b_out = placed.netdb.route_net(
                dev,
                PlacedDesign::out_node(or_loc),
                &[PlacedDesign::ce_node(dst)],
                opts.within,
            )?;
            aux_nets.extend([c_out, a_out, b_out]);
            Ok(())
        })?;
        let (c_out, a_out, b_out) = (aux_nets[0], aux_nets[1], aux_nets[2]);

        // Step 2: activate relocation and clock-enable control.
        self.step(StepKind::ActivateControl, |dev, _, _| {
            dev.set_cell(or_loc.0, or_loc.1, or_active)?;
            Ok(())
        })?;
        // Step 3: deactivate clock-enable control.
        self.step(StepKind::DeactivateControl, |dev, _, _| {
            dev.set_cell(or_loc.0, or_loc.1, or_inactive)?;
            Ok(())
        })?;
        // Step 4: connect the clock-enable inputs of both CLBs.
        self.step(StepKind::ConnectCeBoth, |dev, placed, opts| {
            placed
                .netdb
                .extend_net(dev, ce_net, PlacedDesign::ce_node(dst), opts.within)?;
            Ok(())
        })?;
        // Step 5: atomically switch the replica's D source to its own LUT
        // (single configuration bit).
        self.step(StepKind::SwitchDSource, |dev, _, _| {
            dev.set_cell(dst.0, dst.1, cfg)?;
            Ok(())
        })?;
        // Step 6: disconnect all auxiliary relocation circuit signals.
        self.step(StepKind::DisconnectAux, |dev, placed, _| {
            placed.netdb.remove_net(dev, c_out);
            placed.netdb.remove_net(dev, a_out);
            placed.netdb.remove_net(dev, b_out);
            for (p, net) in input_nets.iter().enumerate() {
                if let Some(net) = net {
                    placed
                        .netdb
                        .remove_sink(dev, *net, PlacedDesign::in_node(comb_loc, p));
                }
            }
            placed
                .netdb
                .remove_sink(dev, ce_net, PlacedDesign::in_node(mux_loc, 0));
            placed
                .netdb
                .remove_sink(dev, ce_net, PlacedDesign::in_node(or_loc, 0));
            placed
                .netdb
                .remove_sink(dev, out_net, PlacedDesign::in_node(mux_loc, 1));
            dev.set_cell(comb_loc.0, comb_loc.1, LogicCell::default())?;
            dev.set_cell(mux_loc.0, mux_loc.1, LogicCell::default())?;
            dev.set_cell(or_loc.0, or_loc.1, LogicCell::default())?;
            Ok(())
        })?;

        self.parallel_and_retire(src, dst, Some(out_net))
    }

    /// Updates the design's placement/net tables to point at the replica.
    /// Done as soon as both copies agree (after outputs are paralleled),
    /// so observers tracking the design see a valid location at every
    /// step.
    fn update_tables(
        placed: &mut PlacedDesign,
        slot: DesignSlot,
        dst: CellLoc,
        net: Option<NetId>,
    ) {
        match slot {
            DesignSlot::Cell(i) => {
                placed.placement.cell_locs[i] = dst;
                placed.cell_nets[i] = net;
            }
            DesignSlot::Feed(i) => {
                placed.placement.feed_locs[i] = dst;
                placed.feed_nets[i] = net;
            }
            DesignSlot::Tap(i) => {
                placed.placement.tap_locs[i] = dst;
            }
        }
    }

    /// Shared tail: parallel outputs, disconnect original outputs, then
    /// original inputs; free the source cell.
    fn parallel_and_retire(
        &mut self,
        src: CellLoc,
        dst: CellLoc,
        out_net: Option<NetId>,
    ) -> Result<(), CoreError> {
        let slot = self.slot;
        if let Some(out_net) = out_net {
            let sinks: Vec<_> = self
                .placed
                .netdb
                .net(out_net)
                .expect("live net")
                .sinks()
                .collect();
            if sinks.is_empty() {
                // No observers: just retire the original net.
                self.step(StepKind::DisconnectOrigOutputs, |dev, placed, _| {
                    placed.netdb.remove_net(dev, out_net);
                    Self::update_tables(placed, slot, dst, None);
                    Ok(())
                })?;
            } else {
                self.step(StepKind::ParallelOutputs, |dev, placed, opts| {
                    let new_id = placed.netdb.route_net(
                        dev,
                        PlacedDesign::out_node(dst),
                        &sinks,
                        opts.within,
                    )?;
                    Self::update_tables(placed, slot, dst, Some(new_id));
                    Ok(())
                })?;
                self.step(StepKind::DisconnectOrigOutputs, |dev, placed, _| {
                    placed.netdb.remove_net(dev, out_net);
                    Ok(())
                })?;
            }
        } else {
            Self::update_tables(self.placed, slot, dst, None);
        }
        // Gather the input nets again (the source pins still hold sinks).
        self.step(StepKind::DisconnectOrigInputs, |dev, placed, _| {
            for p in 0..4 {
                let pin = PlacedDesign::in_node(src, p);
                if let Some(net) = placed.netdb.net_with_sink(pin) {
                    placed.netdb.remove_sink(dev, net, pin);
                }
            }
            let ce = PlacedDesign::ce_node(src);
            if let Some(net) = placed.netdb.net_with_sink(ce) {
                placed.netdb.remove_sink(dev, net, ce);
            }
            dev.set_cell(src.0, src.1, LogicCell::default())?;
            dev.set_cell_state(src.0, src.1, false)?;
            Ok(())
        })?;
        Ok(())
    }
}

/// Relocates a cell to a (possibly distant) destination **in stages** of
/// at most `max_hop` CLBs each, as the paper recommends: "the relocation
/// of a complete function may take place in several stages, to avoid an
/// excessive increase in path delays during the relocation interval"
/// (§3). Every intermediate hop is a full transparent relocation; the
/// replica paths therefore never span more than `max_hop` tiles.
///
/// Returns one report per hop.
///
/// # Errors
///
/// As [`relocate_cell`]; additionally fails if no free intermediate slot
/// exists near a waypoint.
///
/// # Panics
///
/// Panics if `max_hop` is zero.
pub fn relocate_cell_staged(
    dev: &mut Device,
    placed: &mut PlacedDesign,
    src: CellLoc,
    dst: CellLoc,
    max_hop: u16,
    opts: &RelocationOptions,
    mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
) -> Result<Vec<RelocationReport>, CoreError> {
    assert!(max_hop > 0, "max_hop must be positive");
    let mut reports = Vec::new();
    let mut cur = src;
    loop {
        let remaining = cur.0.manhattan(dst.0);
        if remaining <= max_hop as u32 {
            reports.push(relocate_cell(dev, placed, cur, dst, opts, &mut observer)?);
            return Ok(reports);
        }
        // Waypoint: step `max_hop` CLBs along the dominant axis toward
        // the destination, then take the nearest free slot.
        let dr = (dst.0.row as i32 - cur.0.row as i32).clamp(-(max_hop as i32), max_hop as i32);
        let budget = max_hop as i32 - dr.abs();
        let dc = (dst.0.col as i32 - cur.0.col as i32).clamp(-budget, budget);
        let target = cur
            .0
            .offset(dr, dc)
            .ok_or_else(|| CoreError::DesignMismatch {
                detail: format!("waypoint from {} out of bounds", cur.0),
            })?;
        let waypoint = crate::relocation::plan::find_aux_sites(dev, target, 1, &[cur, dst])?[0];
        reports.push(relocate_cell(
            dev,
            placed,
            cur,
            waypoint,
            opts,
            &mut observer,
        )?);
        cur = waypoint;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::geom::ClbCoord;
    use rtm_fpga::part::Part;
    use rtm_netlist::random::RandomCircuit;
    use rtm_netlist::techmap::map_to_luts;
    use rtm_sim::design::implement;

    fn setup(seed: u64) -> (Device, PlacedDesign) {
        let netlist = RandomCircuit::free_running(3, 8, seed).generate();
        let mapped = map_to_luts(&netlist).unwrap();
        let mut dev = Device::new(Part::Xcv200);
        let region = Rect::new(ClbCoord::new(2, 2), 8, 8);
        let placed = implement(&mut dev, &mapped, region).unwrap();
        (dev, placed)
    }

    #[test]
    fn source_unused_rejected() {
        let (mut dev, mut placed) = setup(1);
        let err = relocate_cell(
            &mut dev,
            &mut placed,
            (ClbCoord::new(25, 25), 0),
            (ClbCoord::new(26, 26), 0),
            &RelocationOptions::default(),
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SourceUnused { .. }));
    }

    #[test]
    fn destination_busy_rejected() {
        let (mut dev, mut placed) = setup(2);
        let src = placed.placement.cell_locs[0];
        let dst = placed.placement.cell_locs[1]; // occupied by the design
        let err = relocate_cell(
            &mut dev,
            &mut placed,
            src,
            dst,
            &RelocationOptions::default(),
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DestinationBusy { .. }));
    }

    #[test]
    fn foreign_cell_rejected_as_design_mismatch() {
        let (mut dev, mut placed) = setup(3);
        // Configure a cell the design does not know about.
        let alien = (ClbCoord::new(20, 20), 0);
        let cfg = LogicCell {
            lut: Lut::constant(true),
            ..LogicCell::default()
        };
        dev.set_cell(alien.0, alien.1, cfg).unwrap();
        let err = relocate_cell(
            &mut dev,
            &mut placed,
            alien,
            (ClbCoord::new(21, 21), 0),
            &RelocationOptions::default(),
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DesignMismatch { .. }));
    }

    #[test]
    fn within_region_too_small_is_unroutable() {
        let (mut dev, mut placed) = setup(4);
        let src = placed.placement.cell_locs[0];
        // Destination far outside a tiny permitted routing region.
        let opts = RelocationOptions {
            within: Some(Rect::new(ClbCoord::new(2, 2), 3, 3)),
            ..Default::default()
        };
        let err = relocate_cell(
            &mut dev,
            &mut placed,
            src,
            (ClbCoord::new(25, 25), 0),
            &opts,
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Sim(rtm_sim::SimError::Unroutable { .. })
        ));
    }

    #[test]
    fn ram_column_hazard_rejected() {
        let (mut dev, mut placed) = setup(5);
        let src = placed.placement.cell_locs[0];
        let dst = (ClbCoord::new(20, 20), 0);
        // Park a RAM-mode cell in the destination column.
        let ram = LogicCell {
            lut: Lut::constant(true),
            ram_mode: true,
            ..LogicCell::default()
        };
        dev.set_cell(ClbCoord::new(5, dst.0.col), 3, ram).unwrap();
        let err = relocate_cell(
            &mut dev,
            &mut placed,
            src,
            dst,
            &RelocationOptions::default(),
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::RamColumnHazard { .. }));
    }

    #[test]
    fn report_accessors_and_display() {
        let (mut dev, mut placed) = setup(6);
        let src = placed.placement.cell_locs[0];
        let dst = (ClbCoord::new(20, 20), 0);
        let mut observed_steps = 0;
        let report = relocate_cell(
            &mut dev,
            &mut placed,
            src,
            dst,
            &RelocationOptions::default(),
            |_, _, _| observed_steps += 1,
        )
        .unwrap();
        assert_eq!(report.steps.len(), observed_steps);
        assert!(report.wait_cycles_total() >= report.steps.len() as u32);
        assert!(!report.columns_touched().is_empty());
        assert!(report.columns_touched().contains(&src.0.col));
        assert!(report.to_string().contains("relocation"));
        assert_eq!(placed.placement.cell_locs[0], dst, "table updated");
    }

    #[test]
    fn observer_sees_monotonic_procedure() {
        let (mut dev, mut placed) = setup(7);
        let src = placed.placement.cell_locs[0];
        let dst = (ClbCoord::new(22, 22), 1);
        let mut kinds = Vec::new();
        relocate_cell(
            &mut dev,
            &mut placed,
            src,
            dst,
            &RelocationOptions::default(),
            |_, _, r| kinds.push(r.step),
        )
        .unwrap();
        // Two-phase order: copy, inputs, ... original retired last.
        assert_eq!(kinds.first(), Some(&StepKind::CopyConfig));
        assert_eq!(kinds.last(), Some(&StepKind::DisconnectOrigInputs));
        let pi = kinds.iter().position(|k| *k == StepKind::ParallelInputs);
        let po = kinds.iter().position(|k| *k == StepKind::ParallelOutputs);
        let dc = kinds
            .iter()
            .position(|k| *k == StepKind::DisconnectOrigOutputs);
        if let (Some(pi), Some(po), Some(dc)) = (pi, po, dc) {
            assert!(pi < po && po < dc, "phase order violated: {kinds:?}");
        }
    }
}
