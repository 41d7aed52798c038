//! The router and live net database.
//!
//! Nets are routed along shortest paths over the device routing graph
//! (PIP candidates + fixed segment links). Every node a net holds
//! is counted on the device ([`Device::hold_node`]): one record shared by
//! the net databases of all the designs on it, so a search avoids every
//! node another net holds, whichever database that net belongs to. The
//! database stays live after implementation: the relocation engine
//! *extends* nets (paralleling a replica input), adds *parallel source*
//! nets (paralleling outputs, Fig. 2 phase 2 / Fig. 5), and retires sinks
//! or whole nets (disconnecting the original CLB), all while other nets
//! keep their resources.
//!
//! The search runs over a *window* (the `within` region, or the whole
//! device) and numbers every window node by a packed `(row, column,
//! wire)` id, with one mark bit per node. Each sink takes two passes
//! guided by a hop lower bound, exact within a few hops of the sink (read
//! from a table per class of sink) and from the fabric's geometry
//! farther out: an A* pass finds the length `d` of the shortest path
//! and the level of every node it closes, then a depth-first walk in
//! the plain search's offer order enters only the nodes that can lie
//! on a path of length `d`, each at its level and once. The first
//! branch the walk completes is the one a plain breadth-first search
//! seeded with the net's nodes returns, for far fewer nodes expanded
//! than that search pops.

use crate::error::SimError;
use rtm_fpga::geom::{ClbCoord, Rect};
use rtm_fpga::routing::{
    fixed_link, fixed_link_rev, pip_exists, pip_table, Pip, RouteNode, Wire, HEX_DELAY_PS,
    HEX_SPAN, PIP_DELAY_PS, SINGLE_DELAY_PS, WIRE_COUNT,
};
use rtm_fpga::Device;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Identifier of a routed net within a [`NetDb`].
pub type NetId = usize;

/// Low bits of a packed node id that hold the wire index.
const WIRE_BITS: u32 = 7;
const WIRE_MASK: u32 = (1 << WIRE_BITS) - 1;
const _: () = assert!(WIRE_COUNT <= 1 << WIRE_BITS);

/// The per-wire structure of the routing graph, the same in every tile:
/// the wires one PIP reaches and where the wire's fixed link lands, by
/// wire index. Built once.
struct WireTables {
    /// `fanout[start[w]..start[w + 1]]` are the wires PIPs drive from
    /// wire `w`, in wire-index order (the order the search tries them).
    start: [u16; WIRE_COUNT + 1],
    fanout: Vec<u8>,
    /// The fixed link of wire `w`: row step, column step and the wire it
    /// arrives on.
    link: [Option<(i8, i8, u8)>; WIRE_COUNT],
}

impl WireTables {
    fn get() -> &'static WireTables {
        static TABLES: OnceLock<WireTables> = OnceLock::new();
        TABLES.get_or_init(|| {
            // A tile far enough from every edge that each link lands.
            let span = HEX_SPAN;
            let mid = ClbCoord::new(span, span);
            let mut start = [0; WIRE_COUNT + 1];
            let mut fanout = Vec::new();
            let mut link = [None; WIRE_COUNT];
            for (i, from) in Wire::all().enumerate() {
                let reached = Wire::all().filter(|to| pip_exists(from, *to));
                fanout.extend(reached.map(|to| to.index() as u8));
                start[i + 1] = fanout.len() as u16;
                link[i] = fixed_link(mid, from, 2 * span + 1, 2 * span + 1).map(|n| {
                    let step = |at: u16| at as i8 - span as i8;
                    (step(n.tile.row), step(n.tile.col), n.wire.index() as u8)
                });
            }
            WireTables {
                start,
                fanout,
                link,
            }
        })
    }

    fn fanout(&self, wire: usize) -> &[u8] {
        &self.fanout[self.start[wire] as usize..self.start[wire + 1] as usize]
    }
}

/// The hop bound is exact below this many hops from the sink: each
/// [`HopTable`] is built to depth `NEAR − 1`, and every node it leaves
/// out is at least `NEAR` hops away.
const NEAR: u8 = 8;
// Hop counts are packed two to a byte (see `HopTable::hops`).
const _: () = assert!(NEAR < 16 && WIRE_COUNT.is_multiple_of(2));

/// The hop count to one sink from every node fewer than [`NEAR`] hops
/// from it on an empty, unbounded fabric: the same PIPs in every tile,
/// and every fixed link present. Nodes are keyed by their tile offset
/// from the sink. Built once per sink class (see [`HopTable::get`]).
struct HopTable {
    /// Offsets run over `-radius..=radius` along each axis.
    radius: i32,
    /// The row of `hops` for each offset of that square, row-major, or
    /// `u16::MAX` where no node is in reach.
    row_of: Vec<u16>,
    /// Hops to the sink by wire index, two wires to a byte: wire `w` in
    /// the low four bits of byte `w / 2` when `w` is even, the high four
    /// when it is odd. [`NEAR`] for a wire that is farther, and for the
    /// class's own wire.
    hops: Vec<[u8; WIRE_COUNT / 2]>,
}

impl HopTable {
    /// The table of `sink`'s class. Two cell pins with the same PIP
    /// predecessors share one: cell pins drive nothing, so every other
    /// node is as many hops from one as from the other, and neither
    /// reaches the other. `CellIn(c, p)` is driven by every `CellOut`
    /// and by the singles and hexes whose index is `p − c` modulo 4, so
    /// it shares by `(p − c) mod 4`; every `CellCe` shares one table,
    /// and `CellDx(c)` shares by `c mod 2`. Every other wire has its
    /// own.
    fn get(sink: Wire) -> &'static HopTable {
        static TABLES: [OnceLock<HopTable>; WIRE_COUNT] = [const { OnceLock::new() }; WIRE_COUNT];
        let class = match sink {
            Wire::CellIn(c, p) => Wire::CellIn(0, (p + 4 - c) % 4),
            Wire::CellCe(_) => Wire::CellCe(0),
            Wire::CellDx(c) => Wire::CellDx(c % 2),
            wire => wire,
        };
        TABLES[class.index()].get_or_init(|| HopTable::build(class))
    }

    /// Breadth-first from `sink` at offset `(0, 0)`, backward over PIP
    /// predecessors and fixed links (an `In` from the `Out` one tile
    /// toward its side, a `HexIn` from the `HexOut` [`HEX_SPAN`] tiles
    /// away), to depth `NEAR − 1`.
    fn build(sink: Wire) -> HopTable {
        let mut into = vec![Vec::new(); WIRE_COUNT];
        for (from, to) in pip_table() {
            into[to.index()].push(*from);
        }
        // A tile far enough from every edge that each link lands.
        let span = HEX_SPAN;
        let mid = ClbCoord::new(span, span);
        let link_into = |wire: Wire| {
            fixed_link_rev(mid, wire, 2 * span + 1, 2 * span + 1).map(|n| {
                let step = |at: u16| i32::from(at) - i32::from(span);
                (step(n.tile.row), step(n.tile.col), n.wire)
            })
        };
        let mut at_sink = [NEAR; WIRE_COUNT];
        at_sink[sink.index()] = 0;
        let mut found = BTreeMap::from([((0, 0), at_sink)]);
        let mut level = vec![(0, 0, sink)];
        for hops in 1..NEAR {
            let mut next = Vec::new();
            for (row, col, wire) in level {
                let back = into[wire.index()].iter().map(|from| (row, col, *from));
                let link = link_into(wire).map(|(dr, dc, from)| (row + dr, col + dc, from));
                for (row, col, from) in back.chain(link) {
                    let seen = found.entry((row, col)).or_insert([NEAR; WIRE_COUNT]);
                    if seen[from.index()] == NEAR {
                        seen[from.index()] = hops;
                        next.push((row, col, from));
                    }
                }
            }
            level = next;
        }
        // Only the sink is 0 hops from itself; for the class's other
        // sinks the class's own wire is out of reach.
        if let Some(at_sink) = found.get_mut(&(0, 0)) {
            at_sink[sink.index()] = NEAR;
        }
        let radius = found
            .keys()
            .map(|(row, col)| row.abs().max(col.abs()))
            .max()
            .unwrap_or(0);
        let side = 2 * radius + 1;
        let mut row_of = vec![u16::MAX; (side * side) as usize];
        for (i, (row, col)) in found.keys().enumerate() {
            row_of[((row + radius) * side + col + radius) as usize] = i as u16;
        }
        HopTable {
            radius,
            row_of,
            hops: found
                .into_values()
                .map(|row| std::array::from_fn(|i| row[2 * i] | (row[2 * i + 1] << 4)))
                .collect(),
        }
    }

    /// Hops to the sink from wire index `wire`, `(row, col)` tiles from
    /// it, or [`NEAR`] when there are at least that many.
    fn hops(&self, (row, col): (i32, i32), wire: usize) -> u8 {
        let side = 2 * self.radius + 1;
        let (row, col) = (row + self.radius, col + self.radius);
        if (row as u32) < side as u32 && (col as u32) < side as u32 {
            let at = self.row_of[(row * side + col) as usize];
            if let Some(hops) = self.hops.get(usize::from(at)) {
                return (hops[wire / 2] >> (4 * (wire % 2))) & 0xF;
            }
        }
        NEAR
    }
}

/// One routed net: a source, and one **full** node path (source → sink)
/// per sink. The paths form a tree: a new path runs along an existing
/// one to the node it branches from, then over nodes no path of the net
/// holds, so any two paths share exactly a common prefix. The paths are
/// the whole record: a node or PIP is the net's while some path runs
/// through it, and a path's own resources are the ones past the longest
/// prefix another path shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The driving node (usually a `CellOut`).
    pub source: RouteNode,
    /// For each sink pin, the complete node sequence from the source.
    pub paths: BTreeMap<RouteNode, Vec<RouteNode>>,
}

impl RoutedNet {
    fn new(source: RouteNode) -> Self {
        RoutedNet {
            source,
            paths: BTreeMap::new(),
        }
    }

    /// The sinks this net reaches.
    pub fn sinks(&self) -> impl Iterator<Item = RouteNode> + '_ {
        self.paths.keys().copied()
    }

    /// Every node the net holds, the source included, in node order.
    pub fn nodes(&self) -> Vec<RouteNode> {
        let mut nodes: Vec<RouteNode> = self.paths.values().flatten().copied().collect();
        nodes.push(self.source);
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Propagation delay from source to `sink` in picoseconds, or `None`
    /// if the sink is not on the net.
    ///
    /// Each PIP costs [`PIP_DELAY_PS`]; driving onto a single or hex
    /// segment costs its segment delay.
    pub fn sink_delay_ps(&self, sink: RouteNode) -> Option<u64> {
        let path = self.paths.get(&sink)?;
        debug_assert_eq!(path.first(), Some(&self.source), "paths are full chains");
        Some(path_delay_ps(path))
    }

    /// The full source → `node` chain along some existing path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the net.
    fn chain_to(&self, node: RouteNode) -> Vec<RouteNode> {
        if node == self.source {
            return vec![node];
        }
        for path in self.paths.values() {
            if let Some(pos) = path.iter().position(|n| *n == node) {
                return path[..=pos].to_vec();
            }
        }
        panic!("node {node} not on net");
    }

    /// The length of the longest prefix of `path` that a path of the net
    /// shares; at least 1, the source, which the net holds from its
    /// creation to its release.
    fn shared_prefix(&self, path: &[RouteNode]) -> usize {
        self.paths
            .values()
            .map(|other| path.iter().zip(other).take_while(|(a, b)| a == b).count())
            .max()
            .map_or(1, |shared| shared.max(1))
    }

    /// Activates a found path: the PIPs and holds of the nodes past the
    /// prefix the net's other paths share.
    fn commit(&mut self, dev: &mut Device, sink: RouteNode, path: Vec<RouteNode>) {
        let shared = self.shared_prefix(&path);
        let branch = &path[shared - 1..];
        for pair in branch.windows(2) {
            if let Some(pip) = hop_pip(pair) {
                dev.add_pip(pip).expect("router only proposes valid pips");
            }
        }
        for node in &branch[1..] {
            dev.hold_node(*node);
        }
        self.paths.insert(sink, path);
    }

    /// Releases a sink's path: the PIPs and holds of the nodes past the
    /// prefix the net's other paths share.
    fn retract(&mut self, dev: &mut Device, sink: RouteNode) {
        let path = self.paths.remove(&sink).expect("sink present");
        let shared = self.shared_prefix(&path);
        let branch = &path[shared - 1..];
        for pair in branch.windows(2) {
            if let Some(pip) = hop_pip(pair) {
                dev.remove_pip(&pip).expect("pip active");
            }
        }
        for node in &branch[1..] {
            dev.release_node(*node);
        }
    }

    /// Retracts every path and releases the source.
    fn release(mut self, dev: &mut Device) {
        while let Some(sink) = self.paths.keys().next().copied() {
            self.retract(dev, sink);
        }
        dev.release_node(self.source);
    }
}

/// The PIP of a hop between two consecutive nodes of a path, or `None`
/// for a fixed link (which leaves its tile). The device's active PIPs are
/// exactly the PIP hops on the paths of its live nets.
pub fn hop_pip(hop: &[RouteNode]) -> Option<Pip> {
    let (a, b) = (hop[0], hop[1]);
    (a.tile == b.tile).then(|| Pip::new(a.tile, a.wire, b.wire))
}

/// Delay along a node sequence (PIP hops + segment drives).
pub fn path_delay_ps(path: &[RouteNode]) -> u64 {
    let mut total = 0;
    for pair in path.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.tile == b.tile {
            total += PIP_DELAY_PS;
            total += match b.wire {
                Wire::Out(_, _) => SINGLE_DELAY_PS,
                Wire::HexOut(_, _) => HEX_DELAY_PS,
                _ => 0,
            };
        }
        // Fixed links cost nothing extra (the segment delay was charged
        // when driving onto the outbound wire).
    }
    total
}

/// Deterministic work counters of the router: how many path searches a
/// [`NetDb`] ran and how many nodes they expanded. Machine-independent,
/// so a change to routing work shows up as an exact diff even when wall
/// time is noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Path searches run: one per sink routed, successful or not.
    pub searches: u64,
    /// Nodes expanded across those searches, in both passes: the
    /// distance pass's closing pops and the nodes the walk enters.
    pub nodes_expanded: u64,
}

impl RouteStats {
    /// The counter movement since `base` (field-wise difference).
    pub fn delta_since(self, base: RouteStats) -> RouteStats {
        RouteStats {
            searches: self.searches - base.searches,
            nodes_expanded: self.nodes_expanded - base.nodes_expanded,
        }
    }

    /// Field-wise accumulation.
    pub fn merge(&mut self, other: RouteStats) {
        self.searches += other.searches;
        self.nodes_expanded += other.nodes_expanded;
    }
}

/// The live net database of one design: its routed nets. The nodes they
/// hold are counted on the device, which every database on it shares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetDb {
    nets: Vec<Option<RoutedNet>>,
    stats: RouteStats,
}

impl NetDb {
    /// An empty database.
    pub fn new() -> Self {
        NetDb::default()
    }

    /// The net behind `id`, if it still exists.
    pub fn net(&self, id: NetId) -> Option<&RoutedNet> {
        self.nets.get(id).and_then(|n| n.as_ref())
    }

    /// All live nets.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &RoutedNet)> {
        self.nets
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
    }

    /// Lifetime search counters of this database (see [`RouteStats`]).
    pub fn route_stats(&self) -> RouteStats {
        self.stats
    }

    /// Routes a new net from `source` to every sink, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unroutable`] if any sink cannot be reached; the
    /// database and device are left unchanged in that case.
    pub fn route_net(
        &mut self,
        dev: &mut Device,
        source: RouteNode,
        sinks: &[RouteNode],
        within: Option<Rect>,
    ) -> Result<NetId, SimError> {
        let mut net = RoutedNet::new(source);
        dev.hold_node(source);
        let mut search = Search::new(dev, within);
        // The net's nodes in node order, grown with each committed branch
        // instead of rebuilt from the paths for every sink.
        let mut nodes = vec![source];
        for sink in sinks {
            match self.find_path(dev, &mut search, &net, &nodes, *sink) {
                Ok((path, new)) => {
                    for &node in &path[new..] {
                        if let Err(at) = nodes.binary_search(&node) {
                            nodes.insert(at, node);
                        }
                    }
                    net.commit(dev, *sink, path);
                }
                Err(e) => {
                    // Roll back everything committed for this net.
                    net.release(dev);
                    return Err(e);
                }
            }
        }
        self.nets.push(Some(net));
        Ok(self.nets.len() - 1)
    }

    /// Extends an existing net to one more sink (paralleling a replica
    /// input with the original, paper Fig. 2 phase 1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unroutable`] if no path exists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live net.
    pub fn extend_net(
        &mut self,
        dev: &mut Device,
        id: NetId,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> Result<(), SimError> {
        let mut net = self.nets[id].take().expect("live net");
        let mut search = Search::new(dev, within);
        let found = self.find_path(dev, &mut search, &net, &net.nodes(), sink);
        let result = found.map(|(path, _)| net.commit(dev, sink, path));
        self.nets[id] = Some(net);
        result
    }

    /// Removes one sink (and the branch exclusively feeding it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live net or `sink` is not on it.
    pub fn remove_sink(&mut self, dev: &mut Device, id: NetId, sink: RouteNode) {
        let net = self.nets[id].as_mut().expect("live net");
        assert!(net.paths.contains_key(&sink), "sink {sink} not on net {id}");
        net.retract(dev, sink);
    }

    /// Merges net `from` into net `into`: `from`'s paths move to `into`,
    /// and the source both nets held is held once. Used by two-phase
    /// routing relocation (paper Fig. 5): the replica path is routed as a
    /// temporary net, the original branch retired, then the replica
    /// absorbed into the original net's bookkeeping. No device bits
    /// change. The nets must share nothing but their source, or the
    /// merged paths would not form a tree.
    ///
    /// # Panics
    ///
    /// Panics if either id is dead, the nets have different sources, or
    /// they share any other node.
    pub fn absorb(&mut self, dev: &mut Device, into: NetId, from: NetId) {
        assert_ne!(into, from, "cannot absorb a net into itself");
        let from_net = self.nets[from].take().expect("live source net");
        let into_net = self.nets[into].as_mut().expect("live target net");
        assert_eq!(
            from_net.source, into_net.source,
            "absorb requires a shared source"
        );
        let held = into_net.nodes();
        for node in from_net.nodes() {
            assert!(
                node == from_net.source || held.binary_search(&node).is_err(),
                "nets share {node} beyond their source"
            );
        }
        into_net.paths.extend(from_net.paths);
        dev.release_node(from_net.source);
    }

    /// The net (if any) having `sink` among its sinks.
    pub fn net_with_sink(&self, sink: RouteNode) -> Option<NetId> {
        self.nets()
            .find(|(_, n)| n.paths.contains_key(&sink))
            .map(|(id, _)| id)
    }

    /// The net (if any) driven from `source`.
    pub fn net_with_source(&self, source: RouteNode) -> Option<NetId> {
        self.nets()
            .find(|(_, n)| n.source == source)
            .map(|(id, _)| id)
    }

    /// Removes an entire net, releasing all its resources.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live net.
    pub fn remove_net(&mut self, dev: &mut Device, id: NetId) {
        self.nets[id].take().expect("live net").release(dev);
    }

    /// Removes every net, releasing all their resources.
    pub fn remove_all(&mut self, dev: &mut Device) {
        for net in self.nets.drain(..).flatten() {
            net.release(dev);
        }
    }

    /// Holds every live net's nodes on `dev` again, for a database put
    /// back on the device its nets were released from: frame writes
    /// restore the routing but not the holds.
    pub fn hold_all(&self, dev: &mut Device) {
        for (_, net) in self.nets() {
            for node in net.nodes() {
                dev.hold_node(node);
            }
        }
    }

    /// A shortest path from `nodes`, the net's current nodes in node
    /// order, to `sink`, the one a plain breadth-first search finds,
    /// counted in [`NetDb::route_stats`]. Returns the full source → sink
    /// path and the index where its nodes new to the net start.
    fn find_path(
        &mut self,
        dev: &Device,
        search: &mut Search,
        net: &RoutedNet,
        nodes: &[RouteNode],
        sink: RouteNode,
    ) -> Result<(Vec<RouteNode>, usize), SimError> {
        // The sink pin itself may be shared (paralleled outputs drive a
        // pin that already belongs to another net), but must not already
        // belong to *this* net.
        if nodes.binary_search(&sink).is_ok() {
            return Err(SimError::SinkOccupied { pin: sink });
        }
        let (branch, pops) = search.run(dev, nodes, sink);
        self.stats.searches += 1;
        self.stats.nodes_expanded += pops;
        let branch = branch.ok_or(SimError::Unroutable {
            from: net.source,
            to: sink,
        })?;
        // The branch runs from the net node it grew from to the sink;
        // prepend the source → branch-point chain so the stored path is
        // a full source → sink chain.
        let mut path = net.chain_to(branch[0]);
        let new = path.len();
        path.extend_from_slice(&branch[1..]);
        Ok((path, new))
    }
}

/// The part of the routing graph one search may use: the tiles of the
/// `within` region clipped to the device (or the whole device), and the
/// per-wire tables of the graph over them. A node inside has the packed
/// id `(row << col_bits | col) << WIRE_BITS | wire`, with row and column
/// relative to the window origin; the id doubles as its mark index.
struct Window {
    rect: Rect,
    col_bits: u32,
    dev_rows: u16,
    dev_cols: u16,
    tables: &'static WireTables,
}

impl Window {
    fn new(dev: &Device, within: Option<Rect>) -> Window {
        let device = dev.bounds();
        let rect = match within {
            None => device,
            Some(r) => r.intersection(&device).unwrap_or_default(),
        };
        Window {
            rect,
            col_bits: u32::from(rect.cols).next_power_of_two().trailing_zeros(),
            dev_rows: dev.rows(),
            dev_cols: dev.cols(),
            tables: WireTables::get(),
        }
    }

    /// Marks needed to index every packed id.
    fn len(&self) -> usize {
        usize::from(self.rect.rows) << (self.col_bits + WIRE_BITS)
    }

    /// The packed id of `wire` at window-relative `(row, col)`, if that
    /// tile is inside the window.
    fn pack(&self, row: i32, col: i32, wire: u32) -> Option<u32> {
        let inside =
            (row as u32) < u32::from(self.rect.rows) && (col as u32) < u32::from(self.rect.cols);
        inside.then(|| ((row as u32) << self.col_bits | col as u32) << WIRE_BITS | wire)
    }

    /// Window-relative row and column of `tile`.
    fn relative(&self, tile: ClbCoord) -> (i32, i32) {
        (
            i32::from(tile.row) - i32::from(self.rect.origin.row),
            i32::from(tile.col) - i32::from(self.rect.origin.col),
        )
    }

    /// The packed id of `node`, if it is inside the window.
    fn id(&self, node: RouteNode) -> Option<u32> {
        let (row, col) = self.relative(node.tile);
        self.pack(row, col, node.wire.index() as u32)
    }

    /// The reference of each start node, in order: its packed id, or
    /// `OUTSIDE + k` for the `k`-th one outside the window.
    fn starts<'a>(&'a self, nodes: &'a [RouteNode]) -> impl Iterator<Item = (u32, RouteNode)> + 'a {
        let mut next_outside = OUTSIDE;
        nodes.iter().map(move |&node| match self.id(node) {
            Some(at) => (at, node),
            None => {
                next_outside += 1;
                (next_outside - 1, node)
            }
        })
    }

    /// Window-relative row and column of packed id `id`.
    fn tile_of(&self, id: u32) -> (i32, i32) {
        let tile = id >> WIRE_BITS;
        let col_mask = (1 << self.col_bits) - 1;
        ((tile >> self.col_bits) as i32, (tile & col_mask) as i32)
    }

    /// The device tile of packed id `id`.
    fn tile(&self, id: u32) -> ClbCoord {
        let (row, col) = self.tile_of(id);
        ClbCoord::new(
            self.rect.origin.row + row as u16,
            self.rect.origin.col + col as u16,
        )
    }

    /// The node behind packed id `id`.
    fn node(&self, id: u32) -> RouteNode {
        RouteNode::new(self.tile(id), Wire::from_index((id & WIRE_MASK) as usize))
    }

    /// True when some net holds window node `at`, as the device counts.
    fn held(&self, dev: &Device, at: u32) -> bool {
        let holds = dev.tile_holds(self.tile(at));
        holds.get((at & WIRE_MASK) as usize).is_some_and(|n| *n > 0)
    }

    /// The [hop bound](Target::bound) from window node `at`.
    fn bound(&self, target: &Target, at: u32) -> u32 {
        target.bound(self.tables, self.tile_of(at), (at & WIRE_MASK) as usize)
    }

    /// The [hop bound](Target::bound) from start node `node`, in or
    /// outside the window.
    fn bound_of(&self, target: &Target, node: RouteNode) -> u32 {
        target.bound(self.tables, self.relative(node.tile), node.wire.index())
    }

    /// The `k`-th offer of reference `at` (a packed id, or `OUTSIDE + i`
    /// for `outside[i]`), or `None` past its last. This is the one
    /// offer order both passes follow: the node's PIP fanout in
    /// wire-index order, then its fixed link. The sink is checked first
    /// (see [`Offer`]). A start node outside the window offers its PIP
    /// fanout in its own tile, outside the window too, so of those only
    /// the sink is usable; its fixed link may enter the window.
    fn offer(
        &self,
        dev: &Device,
        target: &Target,
        outside: &[RouteNode],
        at: u32,
        k: usize,
    ) -> Option<Offer> {
        let next = match at.checked_sub(OUTSIDE) {
            None => {
                let wire = (at & WIRE_MASK) as usize;
                let fanout = self.tables.fanout(wire);
                if let Some(&to) = fanout.get(k) {
                    at & !WIRE_MASK | u32::from(to)
                } else if k == fanout.len() {
                    let (dr, dc, to) = self.tables.link[wire]?;
                    let (row, col) = self.tile_of(at);
                    let (row, col, to) = (row + i32::from(dr), col + i32::from(dc), u32::from(to));
                    match self.pack(row, col, to) {
                        Some(next) => next,
                        None => return Some(Offer::sink_if(target.beyond == Some((row, col, to)))),
                    }
                } else {
                    return None;
                }
            }
            Some(i) => {
                let node = outside[i as usize];
                let fanout = self.tables.fanout(node.wire.index());
                if let Some(&to) = fanout.get(k) {
                    let sink = node.tile == target.node.tile
                        && usize::from(to) == target.node.wire.index()
                        && target.free_pip_from(dev, node.wire);
                    return Some(Offer::sink_if(sink));
                } else if k == fanout.len() {
                    let next = fixed_link(node.tile, node.wire, self.dev_rows, self.dev_cols)?;
                    match self.id(next) {
                        Some(next) => next,
                        None => return Some(Offer::sink_if(next == target.node)),
                    }
                } else {
                    return None;
                }
            }
        };
        Some(if next == target.id {
            Offer::sink_if(target.reached_from(dev, at))
        } else {
            Offer::Node(next)
        })
    }
}

/// What one offer gives a search. The sink is checked before anything
/// else, its mark included, since a sink another net holds may have
/// been marked held by an earlier search of the same call; it ends the
/// search unless it is offered over a PIP that is already active (see
/// [`Target::free_pip_from`]). A node outside the window is never
/// usable, and the only nodes outside it that a search expands are
/// start nodes, which are never the sink; so outside the window an
/// offer ends the search exactly when it reaches the sink.
enum Offer {
    /// A window node other than the sink.
    Node(u32),
    /// The sink, reached.
    Sink,
    /// Nothing a search may use: a node outside the window, or the sink
    /// over an active PIP.
    Unusable,
}

impl Offer {
    fn sink_if(reached: bool) -> Offer {
        if reached {
            Offer::Sink
        } else {
            Offer::Unusable
        }
    }
}

/// The id of a sink outside the window: no packed id is this.
const NONE: u32 = u32::MAX;
/// References from here up (below [`NONE`]) name start nodes outside
/// the window: `OUTSIDE + k` is `Search::outside[k]`. Every packed id is
/// below it.
const OUTSIDE: u32 = 1 << 31;

/// Fixed links needed to cross `delta` tiles along one axis, where a
/// single spans one tile and a hex [`HEX_SPAN`]: whole hexes, then the
/// rest as singles, or as one more hex and singles back.
fn links_along(delta: i32) -> u32 {
    let span = u32::from(HEX_SPAN);
    let (hexes, rest) = (delta.unsigned_abs() / span, delta.unsigned_abs() % span);
    hexes + rest.min(span + 1 - rest)
}

/// The sink of one search: its packed id (or [`NONE`] when it is
/// outside the window), its window-relative position, which `beyond`
/// repeats with its wire when it is on the device but outside the
/// window, and its class's [`HopTable`].
struct Target {
    node: RouteNode,
    id: u32,
    at: (i32, i32),
    beyond: Option<(i32, i32, u32)>,
    near: &'static HopTable,
}

impl Target {
    fn new(window: &Window, sink: RouteNode) -> Target {
        let id = window.id(sink);
        let on_device = sink.tile.row < window.dev_rows && sink.tile.col < window.dev_cols;
        let (row, col) = window.relative(sink.tile);
        Target {
            node: sink,
            id: id.unwrap_or(NONE),
            at: (row, col),
            beyond: (id.is_none() && on_device).then_some((row, col, sink.wire.index() as u32)),
            near: HopTable::get(sink.wire),
        }
    }

    /// A lower bound on the hops (PIPs plus fixed links) to the sink
    /// from wire index `wire` at window-relative `(row, col)`: 0 at the
    /// sink, the exact hop count on an empty, unbounded fabric where the
    /// sink's [`HopTable`] has it (below [`NEAR`]), and otherwise the
    /// larger of `NEAR` and the [fabric bound](Target::fabric_bound).
    ///
    /// The device's routing graph is part of the unbounded fabric: the
    /// same PIPs in every tile, no link that would leave the array, and
    /// holds and the window only take nodes away. So the unbounded hop
    /// count, capped at `NEAR`, is a consistent lower bound on every
    /// search, and so is the fabric bound; the larger of the two is
    /// consistent too, and it is this bound, since where the table has
    /// the hop count the fabric bound is no larger. It is 1 exactly at
    /// the sink's one-hop predecessors.
    fn bound(&self, tables: &WireTables, (row, col): (i32, i32), wire: usize) -> u32 {
        let (row, col) = (row - self.at.0, col - self.at.1);
        if (row, col) == (0, 0) && wire == self.node.wire.index() {
            return 0;
        }
        match self.near.hops((row, col), wire) {
            NEAR => self
                .fabric_bound(tables, (row, col), wire)
                .max(u32::from(NEAR)),
            hops => u32::from(hops),
        }
    }

    /// A lower bound on the hops to the sink from wire index `wire`,
    /// `(row, col)` tiles from it, from the fabric's geometry. Every link
    /// moves along one axis, so the sink is at least `N` =
    /// [`links_along`] the rows plus along the columns links away. With
    /// `N > 0` a path takes those links, a PIP between each two, one PIP
    /// first unless the wire is an `Out`/`HexOut` (the only wires with a
    /// fixed link), and one PIP last unless the sink is an `In`/`HexIn`
    /// (the only wires a link lands on): `2N − 1` plus those two. With
    /// `N = 0` it is 1 unless the node is the sink.
    ///
    /// The bound is consistent: it falls by at most 1 across any PIP
    /// (which keeps `N` and may change only the first-PIP term) and
    /// across any fixed link (which changes `N` by at most 1 and runs
    /// from an outbound wire to an inbound one).
    fn fabric_bound(&self, tables: &WireTables, (row, col): (i32, i32), wire: usize) -> u32 {
        let links = links_along(row) + links_along(col);
        if links == 0 {
            return u32::from(wire != self.node.wire.index());
        }
        let first_pip = u32::from(tables.link[wire].is_none());
        let last_pip = u32::from(!matches!(self.node.wire, Wire::In(..) | Wire::HexIn(..)));
        2 * links - 1 + first_pip + last_pip
    }

    /// True unless the PIP from `wire` into the sink, in the sink's tile,
    /// is already active. A search may not reach its sink through an
    /// active PIP: its other end is a node another net holds, so only a
    /// net sharing one of the search's start nodes (a replica's shared
    /// source) can own it, and two nets owning one PIP would lose it when
    /// either retired.
    fn free_pip_from(&self, dev: &Device, wire: Wire) -> bool {
        !dev.has_pip(&Pip::new(self.node.tile, wire, self.node.wire))
    }

    /// True when the sink, offered from reference `at`, ends the search:
    /// over a fixed link (from another tile, or from a start node outside
    /// the window), or over a free PIP.
    fn reached_from(&self, dev: &Device, at: u32) -> bool {
        at >> WIRE_BITS != self.id >> WIRE_BITS
            || self.free_pip_from(dev, Wire::from_index((at & WIRE_MASK) as usize))
    }
}

/// One bit per window node, by packed id.
struct Marks(Vec<u64>);

impl Marks {
    fn new(len: usize) -> Marks {
        Marks(vec![0; len.div_ceil(64)])
    }

    fn get(&self, at: u32) -> bool {
        self.0[(at >> 6) as usize] >> (at & 63) & 1 != 0
    }

    fn set(&mut self, at: u32) {
        self.0[(at >> 6) as usize] |= 1 << (at & 63);
    }

    fn clear(&mut self, at: u32) {
        self.0[(at >> 6) as usize] &= !(1 << (at & 63));
    }
}

/// The distance pass's open set: `(reference, g)` entries in buckets by
/// `g + h`, each bucket popped last in, first out.
#[derive(Default)]
struct Buckets {
    by_f: Vec<Vec<(u32, u32)>>,
    /// Every bucket below this one is empty.
    least: usize,
}

impl Buckets {
    fn push(&mut self, f: u32, entry: (u32, u32)) {
        let f = f as usize;
        if f >= self.by_f.len() {
            self.by_f.resize_with(f + 1, Vec::new);
        }
        self.by_f[f].push(entry);
        self.least = self.least.min(f);
    }

    fn pop(&mut self) -> Option<(u32, u32)> {
        while let Some(bucket) = self.by_f.get_mut(self.least) {
            if let Some(entry) = bucket.pop() {
                return Some(entry);
            }
            self.least += 1;
        }
        None
    }

    fn clear(&mut self) {
        for bucket in &mut self.by_f {
            bucket.clear();
        }
        self.least = 0;
    }
}

/// Search state of one `route_net`/`extend_net` call. It is built when
/// the call starts, reused across the call's sinks, and dropped when the
/// call returns; no search memory outlives the call.
struct Search {
    window: Window,
    /// Set for the searching net's nodes, for the nodes the running pass
    /// has closed (distance pass) or entered (walk), and for nodes
    /// another net holds, found on their first offer. Between the passes
    /// and searches of one call the net only grows and no other net's
    /// hold changes, so only the closed and entered marks are cleared.
    marks: Marks,
    /// The distance pass's open set.
    open: Buckets,
    /// The nodes the last distance pass closed, each with the `g` it was
    /// closed at, which is its level; in id order once the pass ends.
    closed: Vec<(u32, u32)>,
    /// The walk's path: a `(reference, offers tried)` entry per node,
    /// from the start node it grew from. An entry's index is its node's
    /// level.
    stack: Vec<(u32, usize)>,
    /// The nodes the walk entered, to clear their marks.
    entered: Vec<u32>,
    /// The current search's start nodes outside the window.
    outside: Vec<RouteNode>,
}

impl Search {
    /// The search state of one `route_net`/`extend_net` call over the
    /// window of `within`, with no node marked. The searching net's own
    /// nodes are marked when a search starts; the holds of other nets are
    /// read as nodes are offered.
    fn new(dev: &Device, within: Option<Rect>) -> Search {
        let window = Window::new(dev, within);
        debug_assert!(
            window.len() <= OUTSIDE as usize,
            "packed ids stay below OUTSIDE"
        );
        Search {
            marks: Marks::new(window.len()),
            window,
            open: Buckets::default(),
            closed: Vec::new(),
            stack: Vec::new(),
            entered: Vec::new(),
            outside: Vec::new(),
        }
    }

    /// Searches from a net's `nodes`, in node order, to `sink`. Returns
    /// the branch from the net node it grew from to the sink (if reached)
    /// and the number of nodes the two passes expanded.
    ///
    /// The result is that of the plain FIFO search seeded with `nodes`:
    /// every start node is marked before any is expanded, each node
    /// makes its offers in [offer order](Window::offer), and each offered
    /// node is checked for being the sink, then for being marked, then
    /// for being usable. [`Search::distance`] finds that search's branch
    /// length `d`, and [`Search::walk`] its branch, entering only nodes
    /// that can lie on a branch of length `d`.
    fn run(
        &mut self,
        dev: &Device,
        nodes: &[RouteNode],
        sink: RouteNode,
    ) -> (Option<Vec<RouteNode>>, u64) {
        let target = Target::new(&self.window, sink);
        self.outside.clear();
        for &node in nodes {
            match self.window.id(node) {
                Some(at) => self.marks.set(at),
                None => self.outside.push(node),
            }
        }
        let (length, pops) = self.distance(dev, nodes, &target);
        match length {
            Some(d) => {
                let (branch, more) = self.walk(dev, nodes, &target, d);
                (branch, pops + more)
            }
            None => (None, pops),
        }
    }

    /// The node behind reference `at`.
    fn node(&self, at: u32) -> RouteNode {
        match at.checked_sub(OUTSIDE) {
            Some(k) => self.outside[k as usize],
            None => self.window.node(at),
        }
    }

    /// The distance pass: A* from the start nodes over a bucket queue
    /// keyed on `g + h`, `h` being the [hop bound](Target::bound). A node
    /// is closed (marked) when first popped, and since `h` is consistent
    /// its `g` is the least there is by then, its level in the plain
    /// search; until then it may be queued more than once. The first
    /// node to reach the sink has `h = 1` and the least `g + h` of any
    /// open entry, so no branch is shorter than its `g + 1`, and every
    /// node whose level and `h` sum to less than that is closed by then.
    /// Returns that length, or `None` when the queue runs dry (the sink
    /// is unreachable), and the number of nodes expanded; `closed` keeps
    /// the nodes it closed, with their levels.
    fn distance(
        &mut self,
        dev: &Device,
        nodes: &[RouteNode],
        target: &Target,
    ) -> (Option<u32>, u64) {
        let Search {
            window,
            marks,
            open,
            closed,
            outside,
            ..
        } = self;
        let window = &*window;
        for (at, node) in window.starts(nodes) {
            open.push(window.bound_of(target, node), (at, 0));
        }
        closed.clear();
        let mut pops = 0;
        let mut length = None;
        'pass: while let Some((at, g)) = open.pop() {
            if g > 0 {
                if marks.get(at) {
                    continue;
                }
                marks.set(at);
                closed.push((at, g));
            }
            pops += 1;
            for offer in (0..).map_while(|k| window.offer(dev, target, outside, at, k)) {
                match offer {
                    Offer::Sink => {
                        length = Some(g + 1);
                        break 'pass;
                    }
                    Offer::Node(next) if !marks.get(next) => {
                        if window.held(dev, next) {
                            marks.set(next);
                        } else {
                            open.push(g + 1 + window.bound(target, next), (next, g + 1));
                        }
                    }
                    _ => {}
                }
            }
        }
        for &(at, _) in closed.iter() {
            marks.clear(at);
        }
        closed.sort_unstable();
        open.clear();
        (length, pops)
    }

    /// The walk: the plain search's rules, depth first. From each start
    /// node with `h ≤ d` in turn, it tries the offers of the node on top
    /// of its path in offer order, and enters an offered node at level
    /// `g`, its index on the path, only when `g + h ≤ d`, `g` is the
    /// node's level in the plain search, and the walk has not entered it
    /// before. A node the distance pass closed has its level in
    /// `closed`; one it did not close has a level `g*` with `g* + h ≥ d`,
    /// so `g + h ≤ d` admits it only at `g = g*`. Returns the path when
    /// an offer reaches the sink, and the number of nodes entered, start
    /// nodes included.
    ///
    /// The path is the plain search's branch. Order paths by their
    /// offers: the start node's index, then the offer that reached each
    /// next node. The plain FIFO holds each level in this order of its
    /// nodes' tree paths, a node's tree parent being the first node of
    /// the level before to offer it, so a node's tree path is the first
    /// of its shortest paths. The walk tries paths in this order. Every
    /// node on the tree path of a node with `g + h ≤ d` at its level has
    /// that too, `h` being consistent, so the walk first enters each
    /// node it enters along its tree path, and a path it cuts, at a node
    /// entered before, holds no node's tree path. A branch of length `d`
    /// has every node at its level with `g + h ≤ d`; the plain search's,
    /// from the first node of level `d − 1` in FIFO order to reach the
    /// sink, is the first the walk completes.
    fn walk(
        &mut self,
        dev: &Device,
        nodes: &[RouteNode],
        target: &Target,
        d: u32,
    ) -> (Option<Vec<RouteNode>>, u64) {
        let Search {
            window,
            marks,
            closed,
            stack,
            entered,
            outside,
            ..
        } = self;
        let window = &*window;
        let level = |at: u32| {
            let found = closed.binary_search_by_key(&at, |&(id, _)| id);
            found.ok().map(|i| closed[i].1)
        };
        let mut pops = 0;
        let mut reached = false;
        'walk: for (start, node) in window.starts(nodes) {
            if window.bound_of(target, node) > d {
                continue;
            }
            stack.push((start, 0));
            pops += 1;
            while let Some(top) = stack.last_mut() {
                let (at, k) = *top;
                top.1 += 1;
                let g = stack.len() as u32;
                match window.offer(dev, target, outside, at, k) {
                    None => {
                        stack.pop();
                    }
                    Some(Offer::Sink) => {
                        reached = true;
                        break 'walk;
                    }
                    // Only the sink has `h = 0`, so at `g = d` nothing
                    // else is entered.
                    Some(Offer::Node(next)) => {
                        if g < d
                            && !marks.get(next)
                            && g + window.bound(target, next) <= d
                            && level(next).is_none_or(|level| level == g)
                        {
                            marks.set(next);
                            if !window.held(dev, next) {
                                entered.push(next);
                                stack.push((next, 0));
                                pops += 1;
                            }
                        }
                    }
                    Some(Offer::Unusable) => {}
                }
            }
        }
        for at in entered.drain(..) {
            marks.clear(at);
        }
        let branch = reached.then(|| {
            let path = self.stack.iter().map(|&(at, _)| self.node(at));
            path.chain([target.node]).collect()
        });
        self.stack.clear();
        (branch, pops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtm_fpga::part::Part;
    use rtm_fpga::routing::Dir;
    use std::collections::{BTreeSet, HashMap, VecDeque};

    /// The destination wires one PIP reaches from `wire`.
    fn pip_fanout(wire: Wire) -> &'static [Wire] {
        static TABLE: OnceLock<Vec<Vec<Wire>>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            (0..WIRE_COUNT)
                .map(|i| {
                    let from = Wire::from_index(i);
                    Wire::all().filter(|to| pip_exists(from, *to)).collect()
                })
                .collect()
        });
        &table[wire.index()]
    }

    /// The reference search: the hashed breadth-first search the dense
    /// one replaced (a `HashMap` parent map, the device's holds looked up
    /// per candidate, a `VecDeque` frontier). The net's own nodes are
    /// start nodes, visited before any hold is looked up, and the sink is
    /// not reached over a PIP that is already active. Returns the path or
    /// error and the number of nodes popped.
    fn reference_find_path(
        dev: &Device,
        net: &RoutedNet,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> (Result<Vec<RouteNode>, SimError>, u64) {
        if net.nodes().contains(&sink) {
            return (Err(SimError::SinkOccupied { pin: sink }), 0);
        }
        let usable = |node: RouteNode| -> bool {
            if let Some(r) = within {
                if !r.contains(node.tile) {
                    return false;
                }
            }
            dev.node_holds(node) == 0
        };
        let mut pops = 0;
        let mut parent: HashMap<RouteNode, RouteNode> = HashMap::new();
        let mut queue: VecDeque<RouteNode> = VecDeque::new();
        for n in net.nodes() {
            parent.insert(n, n);
            queue.push_back(n);
        }
        let (rows, cols) = (dev.rows(), dev.cols());
        while let Some(node) = queue.pop_front() {
            pops += 1;
            let push = |next: RouteNode, parent_map: &mut HashMap<_, _>, q: &mut VecDeque<_>| {
                if parent_map.contains_key(&next) {
                    return false;
                }
                if next == sink {
                    let pip = Pip::new(node.tile, node.wire, sink.wire);
                    if node.tile == sink.tile && dev.has_pip(&pip) {
                        return false;
                    }
                    parent_map.insert(next, node);
                    return true;
                }
                if usable(next) {
                    parent_map.insert(next, node);
                    q.push_back(next);
                }
                false
            };
            let mut found = false;
            for to in pip_fanout(node.wire) {
                let next = RouteNode::new(node.tile, *to);
                if push(next, &mut parent, &mut queue) {
                    found = true;
                    break;
                }
            }
            if !found {
                if let Some(next) = fixed_link(node.tile, node.wire, rows, cols) {
                    found = push(next, &mut parent, &mut queue);
                }
            }
            if found {
                let mut branch = vec![sink];
                let mut cur = sink;
                loop {
                    let p = parent[&cur];
                    if p == cur {
                        break;
                    }
                    branch.push(p);
                    cur = p;
                }
                branch.reverse();
                let mut path = net.chain_to(branch[0]);
                path.extend_from_slice(&branch[1..]);
                return (Ok(path), pops);
            }
        }
        let err = SimError::Unroutable {
            from: net.source,
            to: sink,
        };
        (Err(err), pops)
    }

    /// Counts one reference search the way `find_path` counts a dense
    /// one (a `SinkOccupied` rejection is not a search).
    fn counted(
        stats: &mut RouteStats,
        (result, pops): (Result<Vec<RouteNode>, SimError>, u64),
    ) -> Result<Vec<RouteNode>, SimError> {
        if !matches!(result, Err(SimError::SinkOccupied { .. })) {
            stats.searches += 1;
            stats.nodes_expanded += pops;
        }
        result
    }

    /// [`NetDb::route_net`] over the reference search.
    fn reference_route_net(
        db: &mut NetDb,
        dev: &mut Device,
        source: RouteNode,
        sinks: &[RouteNode],
        within: Option<Rect>,
    ) -> Result<NetId, SimError> {
        let mut net = RoutedNet::new(source);
        dev.hold_node(source);
        for sink in sinks {
            let found = reference_find_path(dev, &net, *sink, within);
            match counted(&mut db.stats, found) {
                Ok(path) => net.commit(dev, *sink, path),
                Err(e) => {
                    net.release(dev);
                    return Err(e);
                }
            }
        }
        db.nets.push(Some(net));
        Ok(db.nets.len() - 1)
    }

    /// [`NetDb::extend_net`] over the reference search.
    fn reference_extend_net(
        db: &mut NetDb,
        dev: &mut Device,
        id: NetId,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> Result<(), SimError> {
        let mut net = db.nets[id].take().unwrap();
        let found = reference_find_path(dev, &net, sink, within);
        let result = counted(&mut db.stats, found).map(|path| net.commit(dev, sink, path));
        db.nets[id] = Some(net);
        result
    }

    /// One router operation, applied to a dense and a reference copy.
    /// The `Other` operations act on a second database sharing the
    /// device, as another design does.
    #[derive(Debug, Clone)]
    enum Op {
        Route(RouteNode, Vec<RouteNode>, Option<Rect>),
        Extend(NetId, RouteNode, Option<Rect>),
        Absorb(NetId, NetId),
        RemoveNet(NetId),
        RouteOther(RouteNode, Vec<RouteNode>, Option<Rect>),
        ClearOther,
    }

    /// One device with two databases on it, as two designs share one.
    struct Side {
        dev: Device,
        db: NetDb,
        other: NetDb,
    }

    impl Side {
        fn new(part: Part) -> Side {
            Side {
                dev: Device::new(part),
                db: NetDb::new(),
                other: NetDb::new(),
            }
        }

        /// The device's holds, asserted to count the nodes of both
        /// databases' live nets, and its PIPs, asserted to be exactly the
        /// in-tile hops on those nets' paths.
        fn holds(&self) -> BTreeMap<RouteNode, u8> {
            let held: BTreeMap<RouteNode, u8> = self.dev.held_nodes().collect();
            let mut want = BTreeMap::new();
            let mut hops = BTreeSet::new();
            for (_, net) in self.db.nets().chain(self.other.nets()) {
                for node in net.nodes() {
                    *want.entry(node).or_insert(0) += 1;
                }
                for path in net.paths.values() {
                    hops.extend(path.windows(2).filter_map(hop_pip));
                }
            }
            assert_eq!(held, want, "holds are the live nets' nodes");
            assert!(self.dev.pips().eq(hops), "PIPs are the live paths' hops");
            held
        }
    }

    /// A dense router and a reference router driven in lockstep.
    struct Twin {
        dense: Side,
        reference: Side,
    }

    impl Twin {
        fn new(part: Part) -> Twin {
            Twin {
                dense: Side::new(part),
                reference: Side::new(part),
            }
        }

        /// Applies `op` to both copies and asserts they agree on the
        /// result, on the searches run and on everything left behind,
        /// and that the dense router's pops stay within its bound.
        fn apply(&mut self, op: &Op) {
            let (d, r) = (&mut self.dense, &mut self.reference);
            let before = [d.db.stats, r.db.stats, d.other.stats, r.other.stats];
            match op.clone() {
                Op::Route(source, sinks, within) => {
                    let got = d.db.route_net(&mut d.dev, source, &sinks, within);
                    let want = reference_route_net(&mut r.db, &mut r.dev, source, &sinks, within);
                    assert_eq!(got, want, "{op:?}");
                }
                Op::Extend(id, sink, within) => {
                    let got = d.db.extend_net(&mut d.dev, id, sink, within);
                    let want = reference_extend_net(&mut r.db, &mut r.dev, id, sink, within);
                    assert_eq!(got, want, "{op:?}");
                }
                Op::Absorb(into, from) => {
                    d.db.absorb(&mut d.dev, into, from);
                    r.db.absorb(&mut r.dev, into, from);
                }
                Op::RemoveNet(id) => {
                    d.db.remove_net(&mut d.dev, id);
                    r.db.remove_net(&mut r.dev, id);
                }
                Op::RouteOther(source, sinks, within) => {
                    let got = d.other.route_net(&mut d.dev, source, &sinks, within);
                    let want =
                        reference_route_net(&mut r.other, &mut r.dev, source, &sinks, within);
                    assert_eq!(got, want, "{op:?}");
                }
                Op::ClearOther => {
                    d.other.remove_all(&mut d.dev);
                    r.other.remove_all(&mut r.dev);
                }
            }
            assert_twins(&d.db, &r.db, [before[0], before[1]], op);
            assert_twins(&d.other, &r.other, [before[2], before[3]], op);
            assert_eq!(d.holds(), r.holds(), "holds after {op:?}");
            assert!(d.dev.pips().eq(r.dev.pips()), "device after {op:?}");
        }
    }

    /// The most nodes with `h = 1` toward one sink: its one-hop
    /// predecessors, the wires with a PIP into it and the outbound wire
    /// whose fixed link lands on it. The most is 16, at a `CellIn`: the
    /// four `CellOut`s, eight `In`s and four `HexIn`s. A plain search
    /// pops every node whose distance from the net is at most `d − 2`,
    /// and the distance pass closes no node with `g + h > d`; so the
    /// distance pass expands at most these nodes more than the plain
    /// search pops. The walk enters only nodes with `g + h ≤ d`, each at
    /// its plain level and at most once, and none after the plain
    /// search's winner in FIFO order, so it enters no more nodes than
    /// the plain search pops.
    fn h1_nodes() -> u64 {
        let tables = WireTables::get();
        let predecessors = |sink: Wire| {
            let pips = pip_table().iter().filter(|(_, to)| *to == sink).count();
            let links = tables.link.iter().flatten();
            let links = links.filter(|(_, _, to)| usize::from(*to) == sink.index());
            (pips + links.count()) as u64
        };
        Wire::all().map(predecessors).max().unwrap_or(0)
    }

    /// Asserts that a dense database and its reference twin hold the
    /// same nets after `op` and ran the same searches during it, and
    /// that the dense pops are at most twice the reference's, once per
    /// pass, plus [`h1_nodes`] per search for the distance pass.
    /// `before` holds both counters before `op`, dense first.
    fn assert_twins(dense: &NetDb, reference: &NetDb, before: [RouteStats; 2], op: &Op) {
        assert_eq!(dense.nets, reference.nets, "nets after {op:?}");
        let d = dense.stats.delta_since(before[0]);
        let r = reference.stats.delta_since(before[1]);
        assert_eq!(d.searches, r.searches, "searches in {op:?}");
        assert!(
            d.nodes_expanded <= 2 * r.nodes_expanded + h1_nodes() * r.searches,
            "dense {d:?} against reference {r:?} in {op:?}"
        );
    }

    /// A tile within `reach` of `near`, on the device.
    fn tile_near(rng: &mut StdRng, dev: &Device, near: ClbCoord, reach: i32) -> ClbCoord {
        let pick = |rng: &mut StdRng, at: u16, len: u16| {
            let lo = (i32::from(at) - reach).max(0);
            let hi = (i32::from(at) + reach).min(i32::from(len) - 1);
            rng.gen_range(lo..=hi) as u16
        };
        ClbCoord::new(
            pick(rng, near.row, dev.rows()),
            pick(rng, near.col, dev.cols()),
        )
    }

    /// A sink wire: mostly a cell pin, sometimes any fabric wire.
    fn sink_wire(rng: &mut StdRng) -> Wire {
        let c = rng.gen_range(0..4u8);
        match rng.gen_range(0..8) {
            0 => Wire::CellCe(c),
            1 => Wire::CellDx(c),
            2 => Wire::from_index(rng.gen_range(24..WIRE_COUNT)),
            _ => Wire::CellIn(c, rng.gen_range(0..4u8)),
        }
    }

    /// A routing window for a search that should reach `tiles`:
    /// unbounded, their bounding box with a margin, or a region around
    /// the first that may cut off a sink or some of the net's nodes.
    fn window_for(rng: &mut StdRng, tiles: &[ClbCoord]) -> Option<Rect> {
        let near = tiles[0];
        match rng.gen_range(0..5) {
            0 => None,
            1 | 2 => {
                let margin = rng.gen_range(0..3);
                let lo = |f: fn(&ClbCoord) -> u16| {
                    tiles
                        .iter()
                        .map(f)
                        .min()
                        .unwrap_or(0)
                        .saturating_sub(margin)
                };
                let hi = |f: fn(&ClbCoord) -> u16| tiles.iter().map(f).max().unwrap_or(0) + margin;
                let (top, left) = (lo(|t| t.row), lo(|t| t.col));
                let (bottom, right) = (hi(|t| t.row), hi(|t| t.col));
                Some(Rect::new(
                    ClbCoord::new(top, left),
                    bottom - top + 1,
                    right - left + 1,
                ))
            }
            _ => {
                let origin = ClbCoord::new(
                    near.row.saturating_sub(rng.gen_range(0..5)),
                    near.col.saturating_sub(rng.gen_range(0..5)),
                );
                Some(Rect::new(origin, rng.gen_range(1..9), rng.gen_range(1..9)))
            }
        }
    }

    /// A random operation on `db` (a copy of either twin's database).
    fn random_op(rng: &mut StdRng, dev: &Device, db: &NetDb) -> Op {
        let live: Vec<(NetId, &RoutedNet)> = db.nets().collect();
        match rng.gen_range(0..12) {
            // Extend an existing net, from anywhere on it.
            0..=2 if !live.is_empty() => {
                let (id, net) = live[rng.gen_range(0..live.len())];
                let nodes = net.nodes();
                let near = nodes[rng.gen_range(0..nodes.len())].tile;
                let sink = RouteNode::new(tile_near(rng, dev, near, 3), sink_wire(rng));
                Op::Extend(id, sink, window_for(rng, &[sink.tile, near]))
            }
            // A parallel source driving a sink another net already
            // drives (Fig. 2 phase 2), or a replica from the same source.
            3 | 4 if !live.is_empty() => {
                let (_, net) = live[rng.gen_range(0..live.len())];
                let shared: Vec<RouteNode> = net.sinks().collect();
                if rng.gen_bool(0.5) && !shared.is_empty() {
                    let sink = shared[rng.gen_range(0..shared.len())];
                    let source = RouteNode::new(
                        tile_near(rng, dev, sink.tile, 2),
                        Wire::CellOut(rng.gen_range(0..4u8)),
                    );
                    Op::Route(
                        source,
                        vec![sink],
                        window_for(rng, &[source.tile, sink.tile]),
                    )
                } else {
                    let near = net.source.tile;
                    let sink = RouteNode::new(tile_near(rng, dev, near, 3), sink_wire(rng));
                    Op::Route(net.source, vec![sink], window_for(rng, &[near, sink.tile]))
                }
            }
            5 if live.len() >= 2 => {
                // Absorb a replica into the original it parallels: nets
                // that share their source and no other node, as
                // `relocate_sink_path` leaves them.
                let only_source = |na: &RoutedNet, nb: &RoutedNet| {
                    let held = nb.nodes();
                    na.source == nb.source
                        && na
                            .nodes()
                            .iter()
                            .all(|n| *n == na.source || held.binary_search(n).is_err())
                };
                let by_source = live.iter().find_map(|(a, na)| {
                    live.iter()
                        .find(|(b, nb)| a != b && only_source(na, nb))
                        .map(|(b, _)| (*a, *b))
                });
                match by_source {
                    Some((into, from)) => Op::Absorb(into, from),
                    None => Op::RemoveNet(live[rng.gen_range(0..live.len())].0),
                }
            }
            6 if !live.is_empty() => Op::RemoveNet(live[rng.gen_range(0..live.len())].0),
            // Another design's net, in the way of this database's.
            7 => {
                let (source, sinks, within) = fresh_net(rng, dev);
                Op::RouteOther(source, sinks, within)
            }
            8 => Op::ClearOther,
            _ => {
                let (source, sinks, within) = fresh_net(rng, dev);
                Op::Route(source, sinks, within)
            }
        }
    }

    /// A fresh multi-sink net around a random tile, and its window.
    fn fresh_net(rng: &mut StdRng, dev: &Device) -> (RouteNode, Vec<RouteNode>, Option<Rect>) {
        let near = ClbCoord::new(rng.gen_range(0..dev.rows()), rng.gen_range(0..dev.cols()));
        let source = RouteNode::new(near, Wire::CellOut(rng.gen_range(0..4u8)));
        let sinks: Vec<RouteNode> = (0..rng.gen_range(1..4))
            .map(|_| RouteNode::new(tile_near(rng, dev, near, 3), sink_wire(rng)))
            .collect();
        let mut tiles = vec![near];
        tiles.extend(sinks.iter().map(|s| s.tile));
        (source, sinks, window_for(rng, &tiles))
    }

    #[test]
    fn dense_search_reaches_a_sink_beyond_the_window() {
        // The window holds only the source tile; the sink is the single
        // line arriving one tile east, reached through a fixed link.
        let mut twin = Twin::new(Part::Xcv50);
        let source = out(5, 5, 0);
        let sink = RouteNode::new(ClbCoord::new(5, 6), Wire::In(Dir::West, 0));
        let window = Rect::new(ClbCoord::new(5, 5), 1, 1);
        twin.apply(&Op::Route(source, vec![sink], Some(window)));
        assert!(twin.dense.db.net_with_sink(sink).is_some());
    }

    #[test]
    fn dense_search_grows_from_net_nodes_beyond_the_window() {
        // Extend a net inside a window that excludes its source and
        // trunk: the search starts from nodes outside the window whose
        // fixed links enter it.
        let mut twin = Twin::new(Part::Xcv50);
        twin.apply(&Op::Route(out(5, 2, 0), vec![pin(5, 8, 0, 0)], None));
        let window = Rect::new(ClbCoord::new(4, 7), 3, 3);
        twin.apply(&Op::Extend(0, pin(6, 8, 1, 1), Some(window)));
        let net = twin.dense.db.net(0).unwrap();
        assert_eq!(net.sinks().count(), 2);
        assert!(net.nodes().iter().any(|n| !window.contains(n.tile)));
    }

    #[test]
    fn a_sink_found_held_earlier_in_the_call_stays_reachable() {
        // Another design's net drives pin `b`. Every wire that reaches
        // pin `a` of the same tile also drives `b`, earlier in wire-index
        // order, so the search for `a` finds `b` held first; the next
        // search of the same call must still end at `b`.
        let mut twin = Twin::new(Part::Xcv50);
        let (a, b) = (pin(5, 6, 1, 1), pin(5, 6, 0, 0));
        twin.apply(&Op::RouteOther(out(5, 9, 0), vec![b], None));
        twin.apply(&Op::Route(out(5, 3, 0), vec![a, b], None));
        let net = twin.dense.db.net(0).unwrap();
        assert_eq!(net.sinks().collect::<Vec<_>>(), vec![b, a]);
    }

    #[test]
    fn a_long_walk_matches_the_reference() {
        // Corner to corner across an XCV400, past another database's nets
        // that run along the rows in between: the walk's path is dozens
        // of nodes deep, nearly all of them beyond the sink's hop table.
        let mut twin = Twin::new(Part::Xcv400);
        let (rows, cols) = (twin.dense.dev.rows(), twin.dense.dev.cols());
        for row in [rows / 4, rows / 2, 3 * rows / 4] {
            let sinks = vec![pin(row, cols / 2, 1, 2), pin(row, cols - 3, 2, 3)];
            let band = Rect::new(ClbCoord::new(row - 1, 0), 3, cols);
            twin.apply(&Op::RouteOther(out(row, 2, 0), sinks, Some(band)));
        }
        let sink = pin(rows - 1, cols - 1, 2, 1);
        twin.apply(&Op::Route(out(0, 0, 0), vec![sink], None));
        let path = &twin.dense.db.net(0).unwrap().paths[&sink];
        assert!(path.len() >= 40, "{} nodes", path.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 32 } else { 600 }))]

        /// The dense search returns what the hashed search returned,
        /// within its bound on pops, through random sequences of routes,
        /// extensions, paralleled sinks, absorbs, removals and a second
        /// database's nets on XCV50 and XCV100 devices; after every step
        /// the device's holds and PIPs are the ones the live paths give.
        #[test]
        fn dense_search_matches_hashed_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let part = if rng.gen_bool(0.5) { Part::Xcv50 } else { Part::Xcv100 };
            let mut twin = Twin::new(part);
            for _ in 0..16 {
                let op = random_op(&mut rng, &twin.dense.dev, &twin.dense.db);
                twin.apply(&op);
            }
        }
    }

    fn dev() -> Device {
        Device::new(Part::Xcv50)
    }

    fn out(r: u16, c: u16, cell: u8) -> RouteNode {
        RouteNode::new(ClbCoord::new(r, c), Wire::CellOut(cell))
    }

    fn pin(r: u16, c: u16, cell: u8, p: u8) -> RouteNode {
        RouteNode::new(ClbCoord::new(r, c), Wire::CellIn(cell, p))
    }

    /// Every node of `dev`, tile by tile.
    fn all_nodes(dev: &Device) -> impl Iterator<Item = RouteNode> + '_ {
        dev.bounds()
            .iter()
            .flat_map(|tile| Wire::all().map(move |wire| RouteNode::new(tile, wire)))
    }

    /// The hop count from every node of an empty `dev` to `sink`, by a
    /// breadth-first search backwards over every PIP and fixed link;
    /// `u32::MAX` where the sink is unreachable. Indexed by tile, then
    /// wire.
    fn hops_to(dev: &Device, sink: RouteNode) -> Vec<u32> {
        let mut into = vec![Vec::new(); WIRE_COUNT];
        for (from, to) in pip_table() {
            into[to.index()].push(*from);
        }
        let index = |n: RouteNode| {
            (usize::from(n.tile.row) * usize::from(dev.cols()) + usize::from(n.tile.col))
                * WIRE_COUNT
                + n.wire.index()
        };
        let mut hops = vec![u32::MAX; all_nodes(dev).count()];
        hops[index(sink)] = 0;
        let mut queue = VecDeque::from([sink]);
        while let Some(node) = queue.pop_front() {
            let next = hops[index(node)] + 1;
            let back = into[node.wire.index()]
                .iter()
                .map(|from| RouteNode::new(node.tile, *from))
                .chain(fixed_link_rev(node.tile, node.wire, dev.rows(), dev.cols()));
            for prev in back {
                if hops[index(prev)] == u32::MAX {
                    hops[index(prev)] = next;
                    queue.push_back(prev);
                }
            }
        }
        hops
    }

    #[test]
    fn hop_bound_is_consistent_and_admissible() {
        // Sinks of every wire class, inside the array and on its edges
        // and corners, on an empty XCV50.
        let d = dev();
        let window = Window::new(&d, None);
        let tiles = [(8, 12), (0, 0), (15, 23), (3, 17), (12, 5)];
        let wires = [
            Wire::CellIn(1, 2),
            Wire::CellIn(2, 0),
            Wire::CellCe(3),
            Wire::CellDx(1),
            Wire::In(Dir::West, 3),
            Wire::HexIn(Dir::North, 1),
            Wire::Out(Dir::East, 5),
            Wire::HexOut(Dir::South, 2),
        ];
        for (row, col) in tiles {
            for wire in wires {
                let sink = RouteNode::new(ClbCoord::new(row, col), wire);
                let target = Target::new(&window, sink);
                let hop_bound = |node| window.bound_of(&target, node);
                let hops = hops_to(&d, sink);
                for (node, hops) in all_nodes(&d).zip(hops) {
                    let h = hop_bound(node);
                    assert!(h <= hops, "h({node}) = {h} > {hops} hops to {sink}");
                    assert_eq!(h == 0, node == sink, "h({node}) = {h} toward {sink}");
                    if let Some(next) = fixed_link(node.tile, node.wire, d.rows(), d.cols()) {
                        let step = hop_bound(next);
                        assert!(h <= 1 + step, "link {node} -> {next}: {h} > 1 + {step}");
                    }
                }
                for tile in d.bounds().iter() {
                    for (from, to) in pip_table() {
                        let (from, to) = (RouteNode::new(tile, *from), RouteNode::new(tile, *to));
                        let (h, step) = (hop_bound(from), hop_bound(to));
                        assert!(h <= 1 + step, "PIP {from} -> {to}: {h} > 1 + {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn hop_bound_is_exact_near_the_sink() {
        // Every node fewer than NEAR hops from a sink at the centre of an
        // empty XCV1000 lies inside the array, so there the device's hop
        // counts are the unbounded fabric's. Every cell-pin sink in
        // release; in debug one per class, none the wire its class's
        // table is built from.
        let d = Device::new(Part::Xcv1000);
        let window = Window::new(&d, None);
        let centre = ClbCoord::new(d.rows() / 2, d.cols() / 2);
        let sinks: Vec<Wire> = if cfg!(debug_assertions) {
            let mut sinks: Vec<Wire> = (0..4).map(|k| Wire::CellIn(3, (k + 3) % 4)).collect();
            sinks.extend([Wire::CellCe(3), Wire::CellDx(2), Wire::CellDx(3)]);
            sinks
        } else {
            Wire::all()
                .filter(|w| w.is_cell_pin() && !matches!(w, Wire::CellOut(_)))
                .collect()
        };
        let near = u32::from(NEAR);
        for wire in sinks {
            let sink = RouteNode::new(centre, wire);
            let target = Target::new(&window, sink);
            for (node, hops) in all_nodes(&d).zip(hops_to(&d, sink)) {
                let h = window.bound_of(&target, node);
                assert!(h <= hops, "h({node}) = {h} > {hops} hops to {sink}");
                assert_eq!(h.min(near), hops.min(near), "h({node}) toward {sink}");
            }
        }
    }

    #[test]
    fn routes_neighbouring_connection() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id = db
            .route_net(&mut d, out(3, 3, 0), &[pin(3, 4, 0, 0)], None)
            .unwrap();
        let net = db.net(id).unwrap();
        assert_eq!(net.sinks().collect::<Vec<_>>(), vec![pin(3, 4, 0, 0)]);
        // Device agrees: the sink is downstream of the source.
        let sinks = d.sinks_of(out(3, 3, 0));
        assert!(sinks.contains(&pin(3, 4, 0, 0)));
    }

    #[test]
    fn routes_long_connection_with_positive_delay() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id = db
            .route_net(&mut d, out(0, 0, 1), &[pin(12, 20, 2, 1)], None)
            .unwrap();
        let delay = db
            .net(id)
            .unwrap()
            .sink_delay_ps(pin(12, 20, 2, 1))
            .unwrap();
        assert!(delay > 5_000, "a ~30-tile route is several ns: {delay}ps");
        assert!(d.sinks_of(out(0, 0, 1)).contains(&pin(12, 20, 2, 1)));
    }

    #[test]
    fn multi_sink_fanout_shares_trunk() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sinks = [pin(2, 6, 0, 2), pin(2, 6, 1, 3), pin(4, 6, 0, 2)];
        let id = db.route_net(&mut d, out(2, 2, 0), &sinks, None).unwrap();
        let net = db.net(id).unwrap();
        assert_eq!(net.sinks().count(), 3);
        for s in sinks {
            assert!(d.sinks_of(out(2, 2, 0)).contains(&s), "{s} not reached");
        }
    }

    #[test]
    fn occupancy_blocks_other_nets_and_release_restores() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id1 = db
            .route_net(&mut d, out(5, 5, 0), &[pin(5, 6, 0, 1)], None)
            .unwrap();
        let used_before = db.net(id1).unwrap().nodes();
        // A second net from a different source to a different pin of the
        // same tile must not reuse net 1's nodes.
        let id2 = db
            .route_net(&mut d, out(5, 5, 1), &[pin(5, 6, 1, 2)], None)
            .unwrap();
        let n2 = db.net(id2).unwrap().nodes();
        for n in &n2 {
            assert!(!used_before.contains(n), "{n} reused");
        }
        db.remove_net(&mut d, id1);
        for n in used_before {
            assert_eq!(d.node_holds(n), 0, "{n}");
        }
    }

    #[test]
    fn parallel_source_may_share_sink_pin() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sink = pin(8, 8, 0, 0);
        let _orig = db.route_net(&mut d, out(8, 7, 0), &[sink], None).unwrap();
        // Replica output drives the same pin (Fig. 2 phase 2).
        let replica = db.route_net(&mut d, out(8, 9, 0), &[sink], None).unwrap();
        assert_eq!(
            db.net(replica).unwrap().sinks().collect::<Vec<_>>(),
            vec![sink]
        );
        assert_eq!(d.pips_driving(sink).len(), 2, "two drivers paralleled");
    }

    #[test]
    fn extend_net_adds_sink() {
        let mut d = dev();
        let mut db = NetDb::new();
        let id = db
            .route_net(&mut d, out(1, 1, 0), &[pin(1, 2, 0, 1)], None)
            .unwrap();
        db.extend_net(&mut d, id, pin(2, 2, 1, 2), None).unwrap();
        assert_eq!(db.net(id).unwrap().sinks().count(), 2);
    }

    #[test]
    fn remove_sink_keeps_other_branches() {
        let mut d = dev();
        let mut db = NetDb::new();
        let s1 = pin(3, 5, 0, 3);
        let s2 = pin(5, 3, 0, 3);
        let id = db.route_net(&mut d, out(3, 3, 0), &[s1, s2], None).unwrap();
        db.remove_sink(&mut d, id, s1);
        let net = db.net(id).unwrap();
        assert_eq!(net.sinks().collect::<Vec<_>>(), vec![s2]);
        assert!(d.sinks_of(out(3, 3, 0)).contains(&s2));
        assert!(!d.sinks_of(out(3, 3, 0)).contains(&s1));
    }

    #[test]
    fn within_constraint_respected() {
        let mut d = dev();
        let mut db = NetDb::new();
        let region = Rect::new(ClbCoord::new(0, 0), 4, 4);
        let id = db
            .route_net(&mut d, out(0, 0, 0), &[pin(3, 3, 0, 3)], Some(region))
            .unwrap();
        for node in db.net(id).unwrap().nodes() {
            assert!(region.contains(node.tile), "{node} escapes region");
        }
    }

    #[test]
    fn unroutable_when_region_disconnects() {
        let mut d = dev();
        let mut db = NetDb::new();
        // Region containing only the source tile: sink outside.
        let region = Rect::new(ClbCoord::new(0, 0), 1, 1);
        let (source, sink) = (out(0, 0, 0), pin(5, 5, 0, 0));
        let err = db
            .route_net(&mut d, source, &[sink], Some(region))
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        // Nothing leaked.
        assert_eq!(d.pips().count(), 0);
        assert_eq!(d.held_nodes().count(), 0);
        // The distance pass proves the sink unreachable with no more
        // pops than the plain search, and no walk follows.
        let mut plain = NetDb::new();
        let want = reference_route_net(&mut plain, &mut d, source, &[sink], Some(region));
        assert_eq!(want, Err(err));
        assert_eq!(db.route_stats().searches, 1);
        assert!(
            db.route_stats().nodes_expanded <= plain.route_stats().nodes_expanded,
            "{:?} against {:?}",
            db.route_stats(),
            plain.route_stats()
        );
    }

    #[test]
    fn failed_multi_sink_rolls_back() {
        let mut d = dev();
        let mut db = NetDb::new();
        let region = Rect::new(ClbCoord::new(0, 0), 2, 2);
        let err = db
            .route_net(
                &mut d,
                out(0, 0, 0),
                &[pin(1, 1, 0, 1), pin(10, 10, 0, 0)],
                Some(region),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        assert_eq!(d.pips().count(), 0, "first sink's pips rolled back");
        assert_eq!(d.held_nodes().count(), 0, "and its holds");
    }

    #[test]
    fn absorb_merges_parallel_nets() {
        let mut d = dev();
        let mut db = NetDb::new();
        let source = out(6, 6, 0);
        let s1 = pin(6, 8, 0, 2);
        let s2 = pin(8, 6, 0, 2);
        let orig = db.route_net(&mut d, source, &[s1], None).unwrap();
        let replica = db.route_net(&mut d, source, &[s2], None).unwrap();
        assert_eq!(d.node_holds(source), 2, "both nets hold the source");
        // Another design's net must come through untouched.
        let mut other = NetDb::new();
        let bystander = other
            .route_net(&mut d, out(2, 2, 1), &[pin(2, 4, 1, 0)], None)
            .unwrap();
        let bystanders = other.net(bystander).unwrap().nodes();
        db.absorb(&mut d, orig, replica);
        for node in &bystanders {
            assert_eq!(d.node_holds(*node), 1, "{node}");
        }
        other.remove_net(&mut d, bystander);
        assert!(db.net(replica).is_none(), "absorbed net is gone");
        let n = db.net(orig).unwrap();
        assert_eq!(n.sinks().count(), 2);
        assert!(n.sink_delay_ps(s1).is_some());
        assert!(n.sink_delay_ps(s2).is_some());
        // One hold per node, the shared source included.
        let held: BTreeMap<RouteNode, u8> = d.held_nodes().collect();
        let want: BTreeMap<RouteNode, u8> = n.nodes().into_iter().map(|node| (node, 1)).collect();
        assert_eq!(held, want);
        // And removal still releases everything.
        db.remove_net(&mut d, orig);
        assert_eq!(d.pips().count(), 0);
        assert_eq!(d.held_nodes().count(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond their source")]
    fn absorb_refuses_nets_that_share_more_than_their_source() {
        // A second net from the same source ends on a single line the
        // first net's path drives on its way: merged, the two paths would
        // not form a tree.
        let mut d = dev();
        let mut db = NetDb::new();
        let source = out(6, 6, 0);
        let first = db
            .route_net(&mut d, source, &[pin(6, 9, 0, 2)], None)
            .unwrap();
        let path = &db.net(first).unwrap().paths[&pin(6, 9, 0, 2)];
        let inside = *path
            .iter()
            .find(|n| n.tile != source.tile && matches!(n.wire, Wire::Out(..)))
            .unwrap();
        let second = db.route_net(&mut d, source, &[inside], None).unwrap();
        db.absorb(&mut d, first, second);
    }

    #[test]
    fn another_database_blocks_routing_until_it_releases() {
        // Both windows end at tile (5, 5), so the sink one tile east is
        // reached only over the east single landing on it.
        let mut d = dev();
        let (mut mine, mut theirs) = (NetDb::new(), NetDb::new());
        let sink = RouteNode::new(ClbCoord::new(5, 6), Wire::In(Dir::West, 0));
        let single = RouteNode::new(ClbCoord::new(5, 5), Wire::Out(Dir::East, 0));
        let window = Some(Rect::new(ClbCoord::new(5, 5), 1, 1));
        let wider = Some(Rect::new(ClbCoord::new(5, 4), 1, 2));
        let held = theirs
            .route_net(&mut d, out(5, 4, 0), &[sink], wider)
            .unwrap();
        assert!(theirs.net(held).unwrap().nodes().contains(&single));
        let err = mine
            .route_net(&mut d, out(5, 5, 0), &[sink], window)
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        theirs.remove_net(&mut d, held);
        let id = mine
            .route_net(&mut d, out(5, 5, 0), &[sink], window)
            .unwrap();
        assert!(mine.net(id).unwrap().nodes().contains(&single));
    }

    #[test]
    fn net_lookup_by_sink_and_source() {
        let mut d = dev();
        let mut db = NetDb::new();
        let source = out(1, 1, 2);
        let sink = pin(1, 3, 2, 0);
        let id = db.route_net(&mut d, source, &[sink], None).unwrap();
        assert_eq!(db.net_with_sink(sink), Some(id));
        assert_eq!(db.net_with_source(source), Some(id));
        assert_eq!(db.net_with_sink(pin(9, 9, 0, 0)), None);
        assert_eq!(db.net_with_source(out(9, 9, 0)), None);
    }

    #[test]
    fn route_stats_count_every_search() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sinks = [pin(2, 6, 0, 2), pin(4, 6, 0, 2)];
        db.route_net(&mut d, out(2, 2, 0), &sinks, None).unwrap();
        let routed = db.route_stats();
        assert_eq!(routed.searches, 2);
        assert!(routed.nodes_expanded > 0);
        // A failed search is work too.
        let region = Rect::new(ClbCoord::new(0, 0), 1, 1);
        db.route_net(&mut d, out(0, 0, 0), &[pin(5, 5, 0, 0)], Some(region))
            .unwrap_err();
        let failed = db.route_stats().delta_since(routed);
        assert_eq!(failed.searches, 1);
        assert!(failed.nodes_expanded > 0);
    }

    #[test]
    fn delay_counts_pips_and_segments() {
        let mut d = dev();
        let mut db = NetDb::new();
        let sink = pin(0, 1, 0, 0);
        let id = db.route_net(&mut d, out(0, 0, 0), &[sink], None).unwrap();
        let delay = db.net(id).unwrap().sink_delay_ps(sink).unwrap();
        // Minimum: pip onto single (120+350) + pip into pin (120) = 590.
        assert!(delay >= 590, "delay {delay}");
        assert!(delay < 5_000, "neighbour route should be short: {delay}");
    }
}
