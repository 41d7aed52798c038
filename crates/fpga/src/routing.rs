//! The configurable routing fabric: wires, PIPs and the switch pattern.
//!
//! The model follows the Virtex style at the level of detail the paper's
//! mechanism needs:
//!
//! * every CLB tile owns a set of **wires** — cell pins, *single* lines
//!   (span one tile) and *hex* lines (span six tiles) in each direction;
//! * a **PIP** (programmable interconnect point) is a configurable
//!   connection between two wires of the same tile, closed by one bit of
//!   the tile's configuration column;
//! * wires leaving a tile arrive at a fixed offset in a neighbouring tile
//!   (a *fixed link*, not configurable).
//!
//! The exact Virtex PIP set is undocumented; we use a deterministic sparse
//! switch pattern (see [`pip_table`]) sized to fit the published per-column
//! frame budget. This preserves the properties the paper depends on:
//! scarcity of routing, multi-column spans of nets, and per-PIP
//! configuration bits that can be written frame-by-frame.

use crate::geom::ClbCoord;
use std::fmt;
use std::sync::OnceLock;

/// Singles per direction per tile.
pub const SINGLES_PER_DIR: u8 = 8;
/// Hex lines per direction per tile.
pub const HEX_PER_DIR: u8 = 4;
/// Tiles spanned by a hex line.
pub const HEX_SPAN: u16 = 6;

/// Propagation delay of one PIP (switch) in picoseconds.
pub const PIP_DELAY_PS: u64 = 120;
/// Propagation delay of one single-line segment in picoseconds.
pub const SINGLE_DELAY_PS: u64 = 350;
/// Propagation delay of one hex-line segment (six tiles) in picoseconds.
pub const HEX_DELAY_PS: u64 = 800;
/// Delay through a LUT, in picoseconds.
pub const LUT_DELAY_PS: u64 = 460;

/// A compass direction in the CLB array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Toward row 0.
    North,
    /// Toward higher columns.
    East,
    /// Toward higher rows.
    South,
    /// Toward column 0.
    West,
}

impl Dir {
    /// All four directions in index order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// Index 0..4 used by the configuration layout.
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Row/column step of one tile in this direction.
    pub fn step(self) -> (i32, i32) {
        match self {
            Dir::North => (-1, 0),
            Dir::East => (0, 1),
            Dir::South => (1, 0),
            Dir::West => (0, -1),
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::North => "N",
            Dir::East => "E",
            Dir::South => "S",
            Dir::West => "W",
        };
        f.write_str(s)
    }
}

/// A wire within one CLB tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Wire {
    /// Output of logic cell `0..4`.
    CellOut(u8),
    /// Input pin of a logic cell: `(cell 0..4, pin 0..4)`.
    CellIn(u8, u8),
    /// Clock-enable input of logic cell `0..4`.
    CellCe(u8),
    /// Direct flip-flop data (bypass) input of logic cell `0..4` — used
    /// when the cell's `d_bypass` configuration bit routes the storage
    /// element's D from the fabric instead of the LUT (the path the
    /// paper's auxiliary relocation circuit feeds, Fig. 3).
    CellDx(u8),
    /// Single line leaving the tile toward `Dir`, index `0..SINGLES_PER_DIR`.
    Out(Dir, u8),
    /// Single line entering the tile from the `Dir` side.
    In(Dir, u8),
    /// Hex line leaving toward `Dir`, index `0..HEX_PER_DIR`.
    HexOut(Dir, u8),
    /// Hex line entering from the `Dir` side.
    HexIn(Dir, u8),
}

/// Total distinct wires per tile.
pub const WIRE_COUNT: usize = 4 + 16 + 4 + 32 + 32 + 16 + 16 + 4;

impl Wire {
    /// Dense index `0..WIRE_COUNT` for table lookups and config layout.
    pub fn index(self) -> usize {
        match self {
            Wire::CellOut(c) => c as usize,
            Wire::CellIn(c, p) => 4 + c as usize * 4 + p as usize,
            Wire::CellCe(c) => 20 + c as usize,
            Wire::Out(d, i) => 24 + d.index() * 8 + i as usize,
            Wire::In(d, i) => 56 + d.index() * 8 + i as usize,
            Wire::HexOut(d, i) => 88 + d.index() * 4 + i as usize,
            Wire::HexIn(d, i) => 104 + d.index() * 4 + i as usize,
            Wire::CellDx(c) => 120 + c as usize,
        }
    }

    /// Inverse of [`Wire::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= WIRE_COUNT`.
    pub fn from_index(idx: usize) -> Wire {
        match idx {
            0..=3 => Wire::CellOut(idx as u8),
            4..=19 => Wire::CellIn(((idx - 4) / 4) as u8, ((idx - 4) % 4) as u8),
            20..=23 => Wire::CellCe((idx - 20) as u8),
            24..=55 => Wire::Out(Dir::ALL[(idx - 24) / 8], ((idx - 24) % 8) as u8),
            56..=87 => Wire::In(Dir::ALL[(idx - 56) / 8], ((idx - 56) % 8) as u8),
            88..=103 => Wire::HexOut(Dir::ALL[(idx - 88) / 4], ((idx - 88) % 4) as u8),
            104..=119 => Wire::HexIn(Dir::ALL[(idx - 104) / 4], ((idx - 104) % 4) as u8),
            120..=123 => Wire::CellDx((idx - 120) as u8),
            _ => panic!("wire index {idx} out of range"),
        }
    }

    /// All wires of one tile.
    pub fn all() -> impl Iterator<Item = Wire> {
        (0..WIRE_COUNT).map(Wire::from_index)
    }

    /// Delay contributed by driving onto this wire, in picoseconds.
    pub fn segment_delay_ps(self) -> u64 {
        match self {
            Wire::Out(_, _) | Wire::In(_, _) => SINGLE_DELAY_PS,
            Wire::HexOut(_, _) | Wire::HexIn(_, _) => HEX_DELAY_PS,
            _ => 0,
        }
    }

    /// True if the wire is a cell pin (not fabric).
    pub fn is_cell_pin(self) -> bool {
        matches!(
            self,
            Wire::CellOut(_) | Wire::CellIn(_, _) | Wire::CellCe(_) | Wire::CellDx(_)
        )
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wire::CellOut(c) => write!(f, "O{c}"),
            Wire::CellIn(c, p) => write!(f, "I{c}.{p}"),
            Wire::CellCe(c) => write!(f, "CE{c}"),
            Wire::Out(d, i) => write!(f, "{d}OUT{i}"),
            Wire::In(d, i) => write!(f, "{d}IN{i}"),
            Wire::HexOut(d, i) => write!(f, "{d}HEXOUT{i}"),
            Wire::HexIn(d, i) => write!(f, "{d}HEXIN{i}"),
            Wire::CellDx(c) => write!(f, "DX{c}"),
        }
    }
}

/// A wire at a specific tile — a node of the device-wide routing graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteNode {
    /// The tile.
    pub tile: ClbCoord,
    /// The wire within the tile.
    pub wire: Wire,
}

impl RouteNode {
    /// Creates a node.
    pub fn new(tile: ClbCoord, wire: Wire) -> Self {
        RouteNode { tile, wire }
    }
}

impl fmt::Display for RouteNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.tile, self.wire)
    }
}

/// A programmable interconnect point: a configurable connection from
/// `from` to `to` within `tile`'s switch matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pip {
    /// The tile whose switch matrix contains this PIP.
    pub tile: ClbCoord,
    /// Source wire.
    pub from: Wire,
    /// Destination wire (the wire this PIP drives).
    pub to: Wire,
}

impl Pip {
    /// Creates a PIP.
    pub fn new(tile: ClbCoord, from: Wire, to: Wire) -> Self {
        Pip { tile, from, to }
    }

    /// The graph node this PIP drives.
    pub fn to_node(&self) -> RouteNode {
        RouteNode::new(self.tile, self.to)
    }

    /// The graph node this PIP listens to.
    pub fn from_node(&self) -> RouteNode {
        RouteNode::new(self.tile, self.from)
    }
}

impl fmt::Display for Pip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}->{}", self.tile, self.from, self.to)
    }
}

/// The switch pattern: returns true if a PIP from `from` to `to` exists in
/// every tile's switch matrix.
///
/// The pattern is sparse and deterministic, sized so that the per-tile PIP
/// count fits the configuration-column bit budget (see
/// [`crate::config::layout`]).
pub fn pip_exists(from: Wire, to: Wire) -> bool {
    use Wire::*;
    match (from, to) {
        // Cell outputs drive half the singles of every direction.
        (CellOut(c), Out(_, i)) => i % 4 == c || i % 4 == (c + 1) % 4,
        // Cell outputs drive the matching hex line of every direction.
        (CellOut(c), HexOut(_, i)) => i == c,
        // Direct feedback: any cell output to any cell input of the tile.
        (CellOut(_), CellIn(_, _)) => true,
        // Direct connects to the control pins of the tile's cells
        // (Virtex-style direct-connect resources).
        (CellOut(_), CellCe(_)) => true,
        (CellOut(_), CellDx(_)) => true,
        // Incoming singles sink into cell inputs (rotated pin pattern).
        (In(_, i), CellIn(c, p)) => p == (i + c) % 4,
        // Incoming single 0 of each side drives any cell's CE.
        (In(_, i), CellCe(_)) => i == 0,
        // One incoming single per side reaches each cell's FF bypass
        // input: single 2 for even cells, single 6 for odd cells.
        (In(_, i), CellDx(c)) => i == 2 + 4 * (c % 2),
        // Switch-matrix pass-through: index-preserving plus one twisted
        // alternative, to any direction except a U-turn. A wire entering
        // from side `d` was traveling toward `d.opposite()`; exiting back
        // toward `d` would be the U-turn.
        (In(d, i), Out(d2, j)) => d2 != d && (j == i || j == (i + 3) % 8),
        // Hex to singles fan-out (no U-turn).
        (HexIn(d, i), Out(d2, j)) => d2 != d && (j == i * 2 || j == i * 2 + 1),
        // Hex continuation (no U-turn).
        (HexIn(d, i), HexOut(d2, j)) => d2 != d && j == i,
        // Singles 0/4 onto hex line 0 (no U-turn).
        (In(d, i), HexOut(d2, j)) => d2 != d && j == i % 4 && i % 4 == 0,
        // Hex lines sink into cell inputs.
        (HexIn(_, i), CellIn(c, p)) => p == (i + c) % 4,
        _ => false,
    }
}

/// The full ordered table of valid per-tile PIPs.
///
/// The order is the configuration-bit order: PIP `k` of a tile maps to
/// tile-local routing configuration bit `k`.
pub fn pip_table() -> &'static [(Wire, Wire)] {
    static TABLE: OnceLock<Vec<(Wire, Wire)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut v = Vec::new();
        for from in Wire::all() {
            for to in Wire::all() {
                if pip_exists(from, to) {
                    v.push((from, to));
                }
            }
        }
        v
    })
}

/// Index of a (from, to) pair within [`pip_table`], if the PIP exists.
pub fn pip_bit_index(from: Wire, to: Wire) -> Option<usize> {
    // `WIRE_COUNT × WIRE_COUNT` table by wire index; `u16::MAX` marks
    // pairs without a PIP.
    static INDEX: OnceLock<Vec<u16>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        let mut index = vec![u16::MAX; WIRE_COUNT * WIRE_COUNT];
        for (i, (f, t)) in pip_table().iter().enumerate() {
            index[f.index() * WIRE_COUNT + t.index()] = i as u16;
        }
        index
    });
    match index[from.index() * WIRE_COUNT + to.index()] {
        u16::MAX => None,
        i => Some(usize::from(i)),
    }
}

/// Direction, wire index, hop span and the in/outbound wire constructor
/// of a fixed link, destructured from a [`Wire`].
type LinkParts = (Dir, u8, u16, fn(Dir, u8) -> Wire);

/// Where a fabric wire leaving one tile arrives, given the device
/// dimensions. Returns `None` for cell pins, for inbound wires, and at the
/// array edge.
///
/// ```
/// use rtm_fpga::routing::{fixed_link, Wire, Dir};
/// use rtm_fpga::geom::ClbCoord;
/// let dst = fixed_link(ClbCoord::new(5, 5), Wire::Out(Dir::North, 2), 28, 42);
/// assert_eq!(dst.unwrap().tile, ClbCoord::new(4, 5));
/// assert_eq!(dst.unwrap().wire, Wire::In(Dir::South, 2));
/// ```
pub fn fixed_link(tile: ClbCoord, wire: Wire, rows: u16, cols: u16) -> Option<RouteNode> {
    let (dir, idx, span, inbound): LinkParts = match wire {
        Wire::Out(d, i) => (d, i, 1, Wire::In),
        Wire::HexOut(d, i) => (d, i, HEX_SPAN, Wire::HexIn),
        _ => return None,
    };
    let (dr, dc) = dir.step();
    let dest = tile.offset(dr * span as i32, dc * span as i32)?;
    if dest.row >= rows || dest.col >= cols {
        return None;
    }
    Some(RouteNode::new(dest, inbound(dir.opposite(), idx)))
}

/// Reverse of [`fixed_link`]: the outbound wire (at another tile) that
/// feeds an inbound wire, if any.
pub fn fixed_link_rev(tile: ClbCoord, wire: Wire, rows: u16, cols: u16) -> Option<RouteNode> {
    let (dir, idx, span, outbound): LinkParts = match wire {
        Wire::In(d, i) => (d, i, 1, Wire::Out),
        Wire::HexIn(d, i) => (d, i, HEX_SPAN, Wire::HexOut),
        _ => return None,
    };
    // The wire entered from side `dir`, so its source tile lies toward `dir`.
    let (dr, dc) = dir.step();
    let src = tile.offset(dr * span as i32, dc * span as i32)?;
    if src.row >= rows || src.col >= cols {
        return None;
    }
    Some(RouteNode::new(src, outbound(dir.opposite(), idx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_index_roundtrip() {
        for idx in 0..WIRE_COUNT {
            let w = Wire::from_index(idx);
            assert_eq!(w.index(), idx, "wire {w} index mismatch");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wire_from_bad_index_panics() {
        let _ = Wire::from_index(WIRE_COUNT);
    }

    #[test]
    fn pip_table_fits_frame_budget() {
        let n = pip_table().len();
        // See config::layout: routing bits per tile must fit under 764.
        assert!(n > 200, "switch pattern suspiciously small: {n}");
        assert!(
            n <= 764,
            "switch pattern exceeds per-tile frame budget: {n}"
        );
    }

    #[test]
    fn pip_bit_index_matches_table() {
        let table = pip_table();
        for (i, (f, t)) in table.iter().enumerate() {
            assert_eq!(pip_bit_index(*f, *t), Some(i));
        }
        assert_eq!(pip_bit_index(Wire::CellIn(0, 0), Wire::CellOut(0)), None);
    }

    #[test]
    fn no_pip_drives_a_cell_output() {
        for (_, to) in pip_table() {
            assert!(
                !matches!(to, Wire::CellOut(_)),
                "cell outputs are driven by the cell"
            );
        }
    }

    #[test]
    fn fixed_links_are_inverses() {
        let (rows, cols) = (28, 42);
        let tile = ClbCoord::new(10, 10);
        for wire in Wire::all() {
            if let Some(dst) = fixed_link(tile, wire, rows, cols) {
                let back = fixed_link_rev(dst.tile, dst.wire, rows, cols)
                    .expect("reverse link must exist");
                assert_eq!(back.tile, tile);
                assert_eq!(back.wire, wire);
            }
        }
    }

    #[test]
    fn fixed_link_stops_at_edges() {
        assert!(fixed_link(ClbCoord::new(0, 0), Wire::Out(Dir::North, 0), 28, 42).is_none());
        assert!(fixed_link(ClbCoord::new(0, 0), Wire::Out(Dir::West, 0), 28, 42).is_none());
        assert!(fixed_link(ClbCoord::new(27, 41), Wire::Out(Dir::South, 0), 28, 42).is_none());
        assert!(fixed_link(ClbCoord::new(3, 0), Wire::HexOut(Dir::North, 0), 28, 42).is_none());
        assert!(fixed_link(ClbCoord::new(6, 0), Wire::HexOut(Dir::North, 0), 28, 42).is_some());
    }

    #[test]
    fn hex_spans_six_tiles() {
        let dst = fixed_link(ClbCoord::new(0, 0), Wire::HexOut(Dir::South, 1), 28, 42).unwrap();
        assert_eq!(dst.tile, ClbCoord::new(6, 0));
        assert_eq!(dst.wire, Wire::HexIn(Dir::North, 1));
    }

    #[test]
    fn every_cell_input_is_reachable() {
        // Each cell input pin must be drivable by at least one PIP,
        // otherwise placement would strand logic.
        for c in 0..4u8 {
            for p in 0..4u8 {
                let reachable = pip_table().iter().any(|(_, t)| *t == Wire::CellIn(c, p));
                assert!(reachable, "cell {c} pin {p} unreachable");
            }
            let ce = pip_table().iter().any(|(_, t)| *t == Wire::CellCe(c));
            assert!(ce, "cell {c} CE unreachable");
            let dx = pip_table().iter().any(|(_, t)| *t == Wire::CellDx(c));
            assert!(dx, "cell {c} bypass unreachable");
        }
    }

    #[test]
    fn pass_through_has_no_u_turn() {
        for (f, t) in pip_table() {
            if let (Wire::In(d, _), Wire::Out(d2, _)) = (f, t) {
                assert_ne!(*d2, *d, "U-turn pip {f}->{t}");
            }
        }
    }

    #[test]
    fn delays_are_positive_for_fabric() {
        assert!(Wire::Out(Dir::North, 0).segment_delay_ps() > 0);
        assert!(
            Wire::HexOut(Dir::East, 1).segment_delay_ps()
                > Wire::Out(Dir::East, 1).segment_delay_ps()
        );
        assert_eq!(Wire::CellOut(0).segment_delay_ps(), 0);
    }
}
