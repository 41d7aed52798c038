//! The device: the configuration-memory bit image, with typed mirrors of
//! its logic cells and storage-element state.
//!
//! A PIP *is* its configuration bit: [`Device::has_pip`],
//! [`Device::pips`], [`Device::pips_driving`] and [`Device::pips_from`]
//! read the bits, so no second record of the routing exists to keep in
//! sync. Only the cells and the FF state have typed mirrors, and all
//! mutations go through configuration bits, in both directions:
//!
//! * typed mutators ([`Device::set_clb`], [`Device::set_cell`],
//!   [`Device::add_pip`], …) write the corresponding configuration bits
//!   (and update the mirror), returning the frames whose content changed
//!   — the quantity the relocation cost model accounts;
//! * [`Device::write_frame`] (the path used by the bitstream/JTAG stack)
//!   writes raw frame data and re-decodes the mirrored cells and state
//!   its changed bits control, exactly as the silicon would.
//!
//! One record is not configuration: the routing-node occupancy, a count
//! per node of the routed nets that hold it. Several designs share one
//! device, each with its own net database, and every search must avoid
//! the nodes all of them hold, so the count lives here, once per device.
//! The net databases write it ([`Device::hold_node`],
//! [`Device::release_node`]) where they commit and retract paths; frame
//! writes never touch it. The buffer is allocated when the first net is
//! routed, so a device that is never routed on costs nothing for it.

use crate::cell::{LogicCell, CELL_CONFIG_BITS};
use crate::clb::{Clb, CELLS_PER_CLB};
use crate::config::layout::{
    cell_config_bit, frame_bit_owner, pip_config_bit, state_bit, PIP_BITS_BASE, STATE_BITS_BASE,
};
use crate::config::{ConfigMemory, Frame, FrameAddress, FrameWriteEffect, JournalMark};
use crate::error::FpgaError;
use crate::geom::{ClbCoord, Rect};
use crate::part::{Part, BITS_PER_ROW_PER_FRAME};
use crate::routing::{fixed_link, pip_table, Pip, RouteNode, Wire, WIRE_COUNT};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// The switch pattern by wire index: the (from, to) pairs that drive
/// each wire and the pairs each wire drives, every list sorted, so one
/// tile's PIPs come out in `Pip` order.
struct PipsByWire {
    driving: Vec<Vec<(Wire, Wire)>>,
    from: Vec<Vec<(Wire, Wire)>>,
}

fn pips_by_wire() -> &'static PipsByWire {
    static BY_WIRE: OnceLock<PipsByWire> = OnceLock::new();
    BY_WIRE.get_or_init(|| {
        let mut by = PipsByWire {
            driving: vec![Vec::new(); WIRE_COUNT],
            from: vec![Vec::new(); WIRE_COUNT],
        };
        for &(from, to) in pip_table() {
            by.driving[to.index()].push((from, to));
            by.from[from.index()].push((from, to));
        }
        for list in by.driving.iter_mut().chain(&mut by.from) {
            list.sort_unstable();
        }
        by
    })
}

/// A Virtex-class device instance.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug, Clone)]
pub struct Device {
    part: Part,
    clbs: Vec<Clb>,
    state: Vec<[bool; CELLS_PER_CLB]>,
    config: ConfigMemory,
    /// Routed nets holding each node, at `tile index * WIRE_COUNT +
    /// wire index`; empty until the first hold.
    holds: Vec<u8>,
}

impl Device {
    /// A blank (unconfigured) device.
    pub fn new(part: Part) -> Self {
        let n = part.clb_count() as usize;
        Device {
            part,
            clbs: vec![Clb::default(); n],
            state: vec![[false; CELLS_PER_CLB]; n],
            config: ConfigMemory::new(part),
            holds: Vec::new(),
        }
    }

    /// The part this device instantiates.
    pub fn part(&self) -> Part {
        self.part
    }

    /// CLB rows.
    pub fn rows(&self) -> u16 {
        self.part.clb_rows()
    }

    /// CLB columns.
    pub fn cols(&self) -> u16 {
        self.part.clb_cols()
    }

    /// The rectangle covering the whole CLB array.
    pub fn bounds(&self) -> Rect {
        Rect::new(ClbCoord::new(0, 0), self.rows(), self.cols())
    }

    /// Read-only view of the configuration memory.
    pub fn config(&self) -> &ConfigMemory {
        &self.config
    }

    fn idx(&self, coord: ClbCoord) -> Result<usize, FpgaError> {
        if coord.row >= self.rows() || coord.col >= self.cols() {
            return Err(FpgaError::OutOfBounds {
                coord,
                rows: self.rows(),
                cols: self.cols(),
            });
        }
        Ok(coord.row as usize * self.cols() as usize + coord.col as usize)
    }

    /// The CLB at `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    pub fn clb(&self, coord: ClbCoord) -> Result<&Clb, FpgaError> {
        Ok(&self.clbs[self.idx(coord)?])
    }

    /// Replaces the CLB configuration at `coord`, returning the frames
    /// whose content changed.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    pub fn set_clb(&mut self, coord: ClbCoord, clb: Clb) -> Result<Vec<FrameAddress>, FpgaError> {
        let idx = self.idx(coord)?;
        let mut touched = Vec::new();
        for (cell, config) in clb.cells.iter().enumerate() {
            self.write_cell_bits(coord, cell, config, &mut touched)?;
        }
        // Neighbouring cells share a frame; each cell's frames come in
        // minor order, so the list is sorted with adjacent repeats.
        touched.dedup();
        self.clbs[idx] = clb;
        Ok(touched)
    }

    /// Configures one logic cell, writing only its own configuration
    /// bits, and returns the frames whose content changed.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 4`.
    pub fn set_cell(
        &mut self,
        coord: ClbCoord,
        cell: usize,
        config: LogicCell,
    ) -> Result<Vec<FrameAddress>, FpgaError> {
        assert!(cell < CELLS_PER_CLB, "cell index {cell} out of range");
        let idx = self.idx(coord)?;
        let mut touched = Vec::new();
        self.write_cell_bits(coord, cell, &config, &mut touched)?;
        self.clbs[idx].cells[cell] = config;
        Ok(touched)
    }

    /// Writes a cell's configuration bits one frame at a time (a frame
    /// holds `BITS_PER_ROW_PER_FRAME` consecutive tile bits, so the 24
    /// bits span two frames) and pushes each frame whose content changed,
    /// in minor order.
    fn write_cell_bits(
        &mut self,
        tile: ClbCoord,
        cell: usize,
        config: &LogicCell,
        touched: &mut Vec<FrameAddress>,
    ) -> Result<(), FpgaError> {
        let bits = config
            .encode()
            .iter()
            .rev()
            .fold(0u64, |acc, &b| (acc << 1) | u64::from(b));
        let mut i = 0;
        while i < CELL_CONFIG_BITS {
            let (addr, offset) = cell_config_bit(tile, cell, i);
            let run = (BITS_PER_ROW_PER_FRAME - offset % BITS_PER_ROW_PER_FRAME)
                .min(CELL_CONFIG_BITS - i);
            if self.config.write_bits(addr, offset, run, bits >> i)? {
                touched.push(addr);
            }
            i += run;
        }
        Ok(())
    }

    /// The stored value of a cell's storage element.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 4`.
    pub fn cell_state(&self, coord: ClbCoord, cell: usize) -> Result<bool, FpgaError> {
        assert!(cell < CELLS_PER_CLB, "cell index {cell} out of range");
        Ok(self.state[self.idx(coord)?][cell])
    }

    /// Sets a cell's storage-element value (simulator write-through and the
    /// relocation state-capture path). Mirrored into the configuration
    /// memory's state bit, as Virtex frames capture FF state.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 4`.
    pub fn set_cell_state(
        &mut self,
        coord: ClbCoord,
        cell: usize,
        value: bool,
    ) -> Result<(), FpgaError> {
        assert!(cell < CELLS_PER_CLB, "cell index {cell} out of range");
        let idx = self.idx(coord)?;
        self.state[idx][cell] = value;
        let (addr, offset) = state_bit(coord, cell);
        self.config.set_bit(addr, offset, value)?;
        Ok(())
    }

    /// The configuration bit of `pip`: `None` off the array or outside
    /// the switch pattern.
    fn pip_bit(&self, pip: &Pip) -> Option<(FrameAddress, usize)> {
        self.idx(pip.tile).ok()?;
        pip_config_bit(pip)
    }

    /// True if `pip` is currently active: its configuration bit is set.
    pub fn has_pip(&self, pip: &Pip) -> bool {
        self.pip_bit(pip)
            .is_some_and(|(addr, bit)| matches!(self.config.get_bit(addr, bit), Ok(true)))
    }

    /// Activates a PIP, returning the frames touched (empty if the PIP was
    /// already active).
    ///
    /// Multiple PIPs may drive the same wire — the paper's relocation
    /// deliberately parallels drivers; disagreement between parallel
    /// drivers is detected by the simulator, not forbidden structurally.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] for tiles outside the array and
    /// [`FpgaError::BadFrameAddress`] if the (from, to) pair is not in the
    /// switch pattern.
    pub fn add_pip(&mut self, pip: Pip) -> Result<Vec<FrameAddress>, FpgaError> {
        self.idx(pip.tile)?;
        let Some((addr, offset)) = pip_config_bit(&pip) else {
            return Err(FpgaError::BadFrameAddress {
                detail: format!("no such pip in switch pattern: {pip}"),
            });
        };
        let changed = self.config.set_bit(addr, offset, true)?;
        Ok(if changed { vec![addr] } else { Vec::new() })
    }

    /// Deactivates a PIP, returning the frames touched.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::PipNotActive`] if the PIP is not currently
    /// active.
    pub fn remove_pip(&mut self, pip: &Pip) -> Result<Vec<FrameAddress>, FpgaError> {
        if let Some((addr, offset)) = self.pip_bit(pip) {
            if self.config.set_bit(addr, offset, false)? {
                return Ok(vec![addr]);
            }
        }
        Err(FpgaError::PipNotActive {
            detail: pip.to_string(),
        })
    }

    /// All active PIPs, in (tile, from, to) order, read from their
    /// configuration bits.
    pub fn pips(&self) -> impl Iterator<Item = Pip> {
        let mut active: Vec<Pip> = self
            .config
            .ones()
            .filter_map(|(addr, bit)| {
                let (tile, k) = frame_bit_owner(self.part, addr, bit)?;
                let &(from, to) = pip_table().get(k.checked_sub(PIP_BITS_BASE)?)?;
                Some(Pip::new(tile, from, to))
            })
            .collect();
        active.sort_unstable();
        active.into_iter()
    }

    /// Active PIPs that drive `node`'s wire, in `Pip` order.
    pub fn pips_driving(&self, node: RouteNode) -> Vec<Pip> {
        self.active_pips(node.tile, &pips_by_wire().driving[node.wire.index()])
    }

    /// Active PIPs that listen to `node`'s wire, in `Pip` order.
    pub fn pips_from(&self, node: RouteNode) -> Vec<Pip> {
        self.active_pips(node.tile, &pips_by_wire().from[node.wire.index()])
    }

    fn active_pips(&self, tile: ClbCoord, pairs: &[(Wire, Wire)]) -> Vec<Pip> {
        pairs
            .iter()
            .map(|&(from, to)| Pip::new(tile, from, to))
            .filter(|pip| self.has_pip(pip))
            .collect()
    }

    /// Every routing node reachable downstream of `start` through active
    /// PIPs and fixed segment links (the physical extent of the net driven
    /// from `start`).
    pub fn trace_downstream(&self, start: RouteNode) -> BTreeSet<RouteNode> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            for pip in self.pips_from(node) {
                stack.push(pip.to_node());
            }
            if let Some(next) = fixed_link(node.tile, node.wire, self.rows(), self.cols()) {
                stack.push(next);
            }
        }
        seen
    }

    /// The logic-cell input pins (as route nodes) reached by the net
    /// driven from `start`.
    pub fn sinks_of(&self, start: RouteNode) -> Vec<RouteNode> {
        self.trace_downstream(start)
            .into_iter()
            .filter(|n| matches!(n.wire, Wire::CellIn(_, _) | Wire::CellCe(_)))
            .collect()
    }

    /// Records one more routed net holding `node`. Nodes off the array
    /// are ignored: no search reaches them.
    ///
    /// # Panics
    ///
    /// Panics if 255 nets already hold `node`.
    pub fn hold_node(&mut self, node: RouteNode) {
        let Some(at) = self.node_index(node) else {
            return;
        };
        if self.holds.is_empty() {
            self.holds = vec![0; self.clbs.len() * WIRE_COUNT];
        }
        assert!(self.holds[at] < u8::MAX, "too many nets hold {node}");
        self.holds[at] += 1;
    }

    /// Records one routed net fewer holding `node`.
    ///
    /// # Panics
    ///
    /// Panics if no net holds `node`.
    pub fn release_node(&mut self, node: RouteNode) {
        if let Some(at) = self.node_index(node) {
            let held = self.holds.get(at).is_some_and(|n| *n > 0);
            assert!(held, "{node} released but not held");
            self.holds[at] -= 1;
        }
    }

    fn node_index(&self, node: RouteNode) -> Option<usize> {
        let tile = self.idx(node.tile).ok()?;
        Some(tile * WIRE_COUNT + node.wire.index())
    }

    /// How many routed nets hold `node`.
    pub fn node_holds(&self, node: RouteNode) -> u8 {
        let counts = self.tile_holds(node.tile);
        counts.get(node.wire.index()).copied().unwrap_or(0)
    }

    /// The hold counts of `tile`'s wires, by wire index. Empty off the
    /// array and before the first net is routed.
    pub fn tile_holds(&self, tile: ClbCoord) -> &[u8] {
        let Ok(tile) = self.idx(tile) else {
            return &[];
        };
        let at = tile * WIRE_COUNT;
        self.holds.get(at..at + WIRE_COUNT).unwrap_or(&[])
    }

    /// Every node some routed net holds, with its hold count, in tile
    /// then wire-index order.
    pub fn held_nodes(&self) -> impl Iterator<Item = (RouteNode, u8)> + '_ {
        let cols = usize::from(self.cols());
        self.holds
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(move |(at, n)| {
                let tile = at / WIRE_COUNT;
                let coord = ClbCoord::new((tile / cols) as u16, (tile % cols) as u16);
                (RouteNode::new(coord, Wire::from_index(at % WIRE_COUNT)), *n)
            })
    }

    /// Reads a configuration frame (readback path).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    pub fn read_frame(&self, addr: FrameAddress) -> Result<Frame, FpgaError> {
        self.config.read_frame(addr)
    }

    /// Writes a configuration frame and re-decodes the mirrored cells and
    /// state the changed bits control — the path exercised by the
    /// bitstream/JTAG stack.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] or
    /// [`FpgaError::FrameLengthMismatch`] as appropriate.
    pub fn write_frame(
        &mut self,
        addr: FrameAddress,
        frame: Frame,
    ) -> Result<FrameWriteEffect, FpgaError> {
        let effect = self.config.write_frame(addr, frame)?;
        let mut dirty_cells: BTreeSet<(ClbCoord, usize)> = BTreeSet::new();
        for &bit in &effect.changed_bits {
            let Some((tile, k)) = frame_bit_owner(self.part, addr, bit) else {
                continue;
            };
            // PIP bits need nothing more: a PIP is its bit.
            if k < STATE_BITS_BASE {
                dirty_cells.insert((tile, k / CELL_CONFIG_BITS));
            } else if k < PIP_BITS_BASE {
                let cell = k - STATE_BITS_BASE;
                let value = self.config.get_bit(addr, bit)?;
                let idx = self.idx(tile)?;
                self.state[idx][cell] = value;
            }
        }
        for (tile, cell) in dirty_cells {
            let decoded = self.decode_cell_from_config(tile, cell)?;
            let idx = self.idx(tile)?;
            self.clbs[idx].cells[cell] = decoded;
        }
        Ok(effect)
    }

    /// Makes the current configuration the recovery checkpoint (see
    /// [`ConfigMemory::checkpoint`]).
    pub fn checkpoint(&mut self) {
        self.config.checkpoint();
    }

    /// Writes the last checkpoint back into the device through
    /// [`Device::write_frame`], so the typed resources follow, and
    /// starts a fresh checkpoint level. Returns the number of frames that
    /// differed from the checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates frame-write errors (cannot occur: every image came from
    /// a write to this part).
    pub fn recover(&mut self) -> Result<usize, FpgaError> {
        let images = self.config.checkpoint_records();
        let n = images.len();
        // The checkpoint level already holds an image of each of these
        // frames, so writing them back saves nothing new.
        for (addr, image) in images {
            self.write_frame(addr, image)?;
        }
        self.config.checkpoint();
        Ok(n)
    }

    /// Opens a journal level on the configuration (see
    /// [`ConfigMemory::open_mark`]).
    pub fn open_mark(&mut self) -> JournalMark {
        self.config.open_mark()
    }

    /// Closes the innermost journal level and returns the frames whose
    /// content changed since it was opened, in address order (see
    /// [`ConfigMemory::close_mark`]).
    pub fn close_mark(&mut self, mark: JournalMark) -> Vec<FrameAddress> {
        self.config.close_mark(mark)
    }

    fn decode_cell_from_config(&self, tile: ClbCoord, cell: usize) -> Result<LogicCell, FpgaError> {
        let mut bits = [false; CELL_CONFIG_BITS];
        for (i, slot) in bits.iter_mut().enumerate() {
            let (addr, offset) = cell_config_bit(tile, cell, i);
            *slot = self.config.get_bit(addr, offset)?;
        }
        Ok(LogicCell::decode(&bits))
    }

    /// Rectangular region occupancy: CLB coordinates in `rect` whose CLB is
    /// configured.
    pub fn used_in(&self, rect: Rect) -> Vec<ClbCoord> {
        rect.iter()
            .filter(|c| self.clb(*c).map(|clb| clb.is_used()).unwrap_or(false))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::routing::Dir;
    use proptest::prelude::*;

    fn small() -> Device {
        Device::new(Part::Xcv50)
    }

    #[test]
    fn blank_device_is_empty() {
        let dev = small();
        assert_eq!(dev.rows(), 16);
        assert_eq!(dev.cols(), 24);
        assert!(!dev.clb(ClbCoord::new(0, 0)).unwrap().is_used());
        assert_eq!(dev.pips().count(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dev = small();
        assert!(dev.clb(ClbCoord::new(16, 0)).is_err());
        assert!(dev.clb(ClbCoord::new(0, 24)).is_err());
    }

    #[test]
    fn set_clb_roundtrips_through_config() {
        let mut dev = small();
        let coord = ClbCoord::new(4, 9);
        let mut clb = Clb::default();
        clb.cells[1].lut = Lut::from_bits(0xCAFE);
        clb.cells[1].registered_output = true;
        let touched = dev.set_clb(coord, clb).unwrap();
        assert!(!touched.is_empty());
        assert_eq!(dev.clb(coord).unwrap(), &clb);
        // All touched frames are in the tile's column.
        for addr in &touched {
            assert_eq!(addr.major, 9);
        }
        // Idempotent: rewriting the same CLB touches nothing.
        assert!(dev.set_clb(coord, clb).unwrap().is_empty());
    }

    #[test]
    fn frame_write_decodes_clb() {
        let mut dev = small();
        let coord = ClbCoord::new(2, 3);
        let mut clb = Clb::default();
        clb.cells[0].lut = Lut::from_bits(0xAAAA);
        dev.set_clb(coord, clb).unwrap();

        // Copy the configuration through raw frames to another device.
        let mut dev2 = small();
        for minor in 0..48 {
            let addr = FrameAddress::clb(3, minor);
            let frame = dev.read_frame(addr).unwrap();
            dev2.write_frame(addr, frame).unwrap();
        }
        assert_eq!(dev2.clb(coord).unwrap(), &clb);
    }

    #[test]
    fn pip_add_remove_roundtrip() {
        let mut dev = small();
        let pip = Pip::new(
            ClbCoord::new(1, 1),
            Wire::CellOut(0),
            Wire::Out(Dir::East, 0),
        );
        let touched = dev.add_pip(pip).unwrap();
        assert_eq!(touched.len(), 1);
        assert!(dev.has_pip(&pip));
        assert!(dev.add_pip(pip).unwrap().is_empty(), "re-adding is a no-op");
        dev.remove_pip(&pip).unwrap();
        assert!(!dev.has_pip(&pip));
        assert!(dev.remove_pip(&pip).is_err());
    }

    #[test]
    fn invalid_pip_rejected() {
        let mut dev = small();
        let bad = Pip::new(ClbCoord::new(0, 0), Wire::CellIn(0, 0), Wire::CellOut(0));
        assert!(dev.add_pip(bad).is_err());
    }

    #[test]
    fn frame_write_decodes_pip() {
        let mut dev = small();
        let pip = Pip::new(
            ClbCoord::new(5, 7),
            Wire::CellOut(1),
            Wire::Out(Dir::North, 1),
        );
        dev.add_pip(pip).unwrap();
        let (addr, _) = crate::config::layout::pip_config_bit(&pip).unwrap();
        let frame = dev.read_frame(addr).unwrap();

        let mut dev2 = small();
        dev2.write_frame(addr, frame).unwrap();
        assert!(dev2.has_pip(&pip));
    }

    #[test]
    fn trace_follows_pips_and_segments() {
        let mut dev = small();
        let src_tile = ClbCoord::new(3, 3);
        let dst_tile = ClbCoord::new(3, 4);
        // cell0 output -> east single 0 -> next tile -> cell0 input pin
        dev.add_pip(Pip::new(
            src_tile,
            Wire::CellOut(0),
            Wire::Out(Dir::East, 0),
        ))
        .unwrap();
        // In(West, 0) arrives at dst; pattern allows CellIn(c, p) with
        // p == (0 + c) % 4 or (0 + c + 1) % 4 -> for c=0: p 0 or 1.
        dev.add_pip(Pip::new(
            dst_tile,
            Wire::In(Dir::West, 0),
            Wire::CellIn(0, 0),
        ))
        .unwrap();
        let sinks = dev.sinks_of(RouteNode::new(src_tile, Wire::CellOut(0)));
        assert_eq!(sinks, vec![RouteNode::new(dst_tile, Wire::CellIn(0, 0))]);
    }

    #[test]
    fn state_mirrors_into_config() {
        let mut dev = small();
        let coord = ClbCoord::new(8, 8);
        dev.set_cell_state(coord, 2, true).unwrap();
        assert!(dev.cell_state(coord, 2).unwrap());
        let (addr, bit) = state_bit(coord, 2);
        assert!(dev.config().get_bit(addr, bit).unwrap());

        // And the frame path propagates state back into the typed model.
        let frame = dev.read_frame(addr).unwrap();
        let mut dev2 = small();
        dev2.write_frame(addr, frame).unwrap();
        assert!(dev2.cell_state(coord, 2).unwrap());
    }

    #[test]
    fn multiple_drivers_allowed_and_queryable() {
        let mut dev = small();
        let tile = ClbCoord::new(2, 2);
        let node = RouteNode::new(tile, Wire::Out(Dir::South, 1));
        dev.add_pip(Pip::new(tile, Wire::CellOut(0), Wire::Out(Dir::South, 1)))
            .unwrap();
        dev.add_pip(Pip::new(tile, Wire::CellOut(1), Wire::Out(Dir::South, 1)))
            .unwrap();
        assert_eq!(dev.pips_driving(node).len(), 2);
    }

    #[test]
    fn node_holds_count_nets_and_allocate_on_first_hold() {
        let mut dev = small();
        let node = RouteNode::new(ClbCoord::new(3, 4), Wire::Out(Dir::East, 0));
        assert!(
            dev.tile_holds(node.tile).is_empty(),
            "nothing before a hold"
        );
        dev.hold_node(node);
        dev.hold_node(node);
        assert_eq!(dev.node_holds(node), 2);
        assert_eq!(dev.tile_holds(node.tile).len(), WIRE_COUNT);
        assert_eq!(dev.held_nodes().collect::<Vec<_>>(), vec![(node, 2)]);
        // Frame writes leave the holds alone, even one driving the node.
        let mut other = small();
        let pip = Pip::new(node.tile, Wire::CellOut(0), node.wire);
        let addr = other.add_pip(pip).unwrap()[0];
        dev.write_frame(addr, other.read_frame(addr).unwrap())
            .unwrap();
        assert!(dev.has_pip(&pip));
        assert_eq!(dev.node_holds(node), 2);
        dev.release_node(node);
        dev.release_node(node);
        assert_eq!(dev.held_nodes().count(), 0);
        // Nodes off the array hold nothing.
        let off = RouteNode::new(ClbCoord::new(16, 0), Wire::CellOut(0));
        dev.hold_node(off);
        assert_eq!(dev.node_holds(off), 0);
    }

    #[test]
    fn used_in_reports_occupancy() {
        let mut dev = small();
        let mut clb = Clb::default();
        clb.cells[0].lut = Lut::constant(true);
        dev.set_clb(ClbCoord::new(1, 1), clb).unwrap();
        let used = dev.used_in(Rect::new(ClbCoord::new(0, 0), 4, 4));
        assert_eq!(used, vec![ClbCoord::new(1, 1)]);
    }

    /// The drivers and fan-out of `node` in a set of PIPs, in set order.
    fn listed(set: &BTreeSet<Pip>, node: RouteNode) -> (Vec<Pip>, Vec<Pip>) {
        let at_tile = set.iter().filter(|p| p.tile == node.tile);
        let driving = at_tile.clone().filter(|p| p.to == node.wire);
        let from = at_tile.filter(|p| p.from == node.wire);
        (driving.copied().collect(), from.copied().collect())
    }

    #[test]
    fn every_pip_of_a_tile_lists_in_pip_order() {
        // Table order is wire-index order, which puts `CellDx` after the
        // fabric wires; `Pip` order puts it before them.
        let mut dev = small();
        let tile = ClbCoord::new(2, 2);
        let all: BTreeSet<Pip> = pip_table()
            .iter()
            .map(|&(from, to)| Pip::new(tile, from, to))
            .collect();
        for pip in pip_table().iter().rev() {
            dev.add_pip(Pip::new(tile, pip.0, pip.1)).unwrap();
        }
        assert!(dev.pips().eq(all.iter().copied()));
        for wire in Wire::all() {
            let node = RouteNode::new(tile, wire);
            assert_eq!(
                (dev.pips_driving(node), dev.pips_from(node)),
                listed(&all, node)
            );
        }
    }

    /// The body `set_clb` had before cell-sized writes: every bit of the
    /// four cells through `set_bit`, with the changed frames in a set.
    fn set_clb_bit_by_bit(dev: &mut Device, coord: ClbCoord, clb: Clb) -> Vec<FrameAddress> {
        let mut touched = BTreeSet::new();
        for (cell, config) in clb.cells.iter().enumerate() {
            for (i, bit) in config.encode().iter().enumerate() {
                let (addr, offset) = cell_config_bit(coord, cell, i);
                if dev.config.set_bit(addr, offset, *bit).unwrap() {
                    touched.insert(addr);
                }
            }
        }
        let idx = dev.idx(coord).unwrap();
        dev.clbs[idx] = clb;
        touched.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 16 } else { 600 }))]
        /// PIP queries read the configuration bits as a `BTreeSet<Pip>`
        /// driven through the same random adds and removes would answer,
        /// also after frames copied from a second device overwrite PIPs
        /// of several tiles of one column at once.
        #[test]
        fn pip_queries_match_a_pip_set(
            ops in proptest::collection::vec((0u8..6, 0usize..5, any::<u16>()), 0..40),
        ) {
            let table = pip_table();
            // Three tiles of column 0 (they share frames), one elsewhere
            // and one off the array.
            let tiles = [
                ClbCoord::new(0, 0),
                ClbCoord::new(1, 0),
                ClbCoord::new(15, 0),
                ClbCoord::new(7, 23),
                ClbCoord::new(16, 3),
            ];
            let (mut dev, mut other) = (small(), small());
            let (mut set, mut other_set) = (BTreeSet::new(), BTreeSet::new());
            for (kind, t, r) in ops {
                // Half the time one of eight PIPs, so operations meet.
                let r = usize::from(r);
                let k = if r % 2 == 0 { r / 2 % 8 * (table.len() / 8) } else { r % table.len() };
                let pip = Pip::new(tiles[t], table[k].0, table[k].1);
                let on_array = t < 4;
                match kind {
                    0 | 1 => {
                        let added = dev.add_pip(pip);
                        prop_assert_eq!(added.is_ok(), on_array);
                        if on_array {
                            let fresh = set.insert(pip);
                            prop_assert_eq!(added.unwrap().len(), usize::from(fresh));
                        }
                    }
                    2 => prop_assert_eq!(dev.remove_pip(&pip).is_ok(), set.remove(&pip)),
                    3 | 4 => {
                        if on_array {
                            other.add_pip(pip).unwrap();
                            other_set.insert(pip);
                        }
                    }
                    _ => {
                        if on_array {
                            // Copy the frame holding the PIP's bit.
                            let (addr, _) = pip_config_bit(&pip).unwrap();
                            dev.write_frame(addr, other.read_frame(addr).unwrap()).unwrap();
                            let in_frame = |p: &Pip| pip_config_bit(p).unwrap().0 == addr;
                            set.retain(|p| !in_frame(p));
                            set.extend(other_set.iter().filter(|p| in_frame(p)));
                        }
                    }
                }
                prop_assert_eq!(dev.has_pip(&pip), set.contains(&pip));
                prop_assert!(dev.pips().eq(set.iter().copied()));
            }
            for p in &set {
                prop_assert!(dev.has_pip(p));
            }
            for tile in tiles {
                for wire in Wire::all() {
                    let node = RouteNode::new(tile, wire);
                    prop_assert_eq!((dev.pips_driving(node), dev.pips_from(node)), listed(&set, node));
                }
            }
        }

        /// `set_cell` writes only its own cell's bits, and `set_clb` one
        /// run per frame. The frames they return, the bits they leave and
        /// the images the journal saves match the old routes: `set_clb`
        /// bit by bit, and `set_cell` through it with the CLB's other
        /// three cells at their current values.
        #[test]
        fn cell_writes_match_the_bit_by_bit_route(
            writes in proptest::collection::vec((0u16..16, 0u16..3, 0usize..4, any::<u32>(), any::<bool>()), 1..24),
        ) {
            let (mut dev, mut bitwise) = (small(), small());
            dev.checkpoint();
            bitwise.checkpoint();
            for (row, col, cell, raw, whole) in writes {
                let coord = ClbCoord::new(row, col);
                let mut clb = *bitwise.clb(coord).unwrap();
                // One cell, or all four from rotations of the same bits.
                for c in 0..CELLS_PER_CLB {
                    if whole || c == cell {
                        let mut bits = [false; CELL_CONFIG_BITS];
                        for (i, bit) in bits.iter_mut().enumerate() {
                            *bit = (raw.rotate_left(7 * c as u32) >> i) & 1 == 1;
                        }
                        clb.cells[c] = LogicCell::decode(&bits);
                    }
                }
                let written = if whole {
                    dev.set_clb(coord, clb).unwrap()
                } else {
                    dev.set_cell(coord, cell, clb.cells[cell]).unwrap()
                };
                prop_assert_eq!(written, set_clb_bit_by_bit(&mut bitwise, coord, clb));
                prop_assert_eq!(dev.clb(coord).unwrap(), &clb);
            }
            prop_assert_eq!(dev.config(), bitwise.config());
            prop_assert_eq!(dev.config().images_saved(), bitwise.config().images_saved());
            prop_assert_eq!(dev.config().checkpoint_records(), bitwise.config().checkpoint_records());
        }
    }
}
