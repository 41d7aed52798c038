//! The router and live net database.
//!
//! Nets are routed with breadth-first search over the device routing
//! graph (PIP candidates + fixed segment links). Every node a net holds
//! is counted on the device ([`Device::hold_node`]): one record shared by
//! the net databases of all the designs on it, so a search avoids every
//! node another net holds, whichever database that net belongs to. The
//! database stays live after implementation: the relocation engine
//! *extends* nets (paralleling a replica input), adds *parallel source*
//! nets (paralleling outputs, Fig. 2 phase 2 / Fig. 5), and retires sinks
//! or whole nets (disconnecting the original CLB), all while other nets
//! keep their resources.
//!
//! The search is dense: it runs over a *window* (the `within` region, or
//! the whole device), numbers every window node by a packed
//! `(row, column, wire)` id, and keeps visited/parent state in one flat
//! slot vector. It visits nodes in exactly the order of a plain FIFO
//! search seeded with the net's nodes, so every path it returns is the
//! one that search would return.

use crate::error::SimError;
use rtm_fpga::geom::{ClbCoord, Rect};
use rtm_fpga::routing::{
    fixed_link, pip_exists, Pip, RouteNode, Wire, HEX_DELAY_PS, HEX_SPAN, PIP_DELAY_PS,
    SINGLE_DELAY_PS, WIRE_COUNT,
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

/// One routed net: a source, and one **full** node path (source → sink)
/// per sink. Paths share trunk segments; every node and PIP is
/// reference-counted once per sink whose signal flows through it, so
/// retiring one sink never strips resources another sink depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The driving node (usually a `CellOut`).
    pub source: RouteNode,
    /// For each sink pin, the complete node sequence from the source.
    pub paths: BTreeMap<RouteNode, Vec<RouteNode>>,
    /// Reference count of each node across paths (plus one for the
    /// source).
    node_refs: BTreeMap<RouteNode, usize>,
    /// Reference count of each PIP across paths.
    pip_refs: BTreeMap<Pip, usize>,
}

impl RoutedNet {
    fn new(source: RouteNode) -> Self {
        let mut node_refs = BTreeMap::new();
        node_refs.insert(source, 1);
        RoutedNet {
            source,
            paths: BTreeMap::new(),
            node_refs,
            pip_refs: BTreeMap::new(),
        }
    }

    /// The sinks this net reaches.
    pub fn sinks(&self) -> impl Iterator<Item = RouteNode> + '_ {
        self.paths.keys().copied()
    }

    /// All nodes currently owned by the net.
    pub fn nodes(&self) -> impl Iterator<Item = RouteNode> + '_ {
        self.node_refs.keys().copied()
    }

    /// All PIPs currently active for the net.
    pub fn pips(&self) -> impl Iterator<Item = Pip> + '_ {
        self.pip_refs.keys().copied()
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

    /// Activates a found path: PIPs on the device, refcounts, and a hold
    /// on each node the net did not hold yet.
    fn commit(&mut self, dev: &mut Device, sink: RouteNode, path: Vec<RouteNode>) {
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.tile == b.tile {
                let pip = Pip::new(a.tile, a.wire, b.wire);
                let count = self.pip_refs.entry(pip).or_insert(0);
                if *count == 0 {
                    dev.add_pip(pip).expect("router only proposes valid pips");
                }
                *count += 1;
            }
        }
        for node in &path {
            let count = self.node_refs.entry(*node).or_insert(0);
            if *count == 0 {
                dev.hold_node(*node);
            }
            *count += 1;
        }
        self.paths.insert(sink, path);
    }

    /// Releases a sink's path: PIPs, refcounts, and the holds of the
    /// nodes no other path of the net uses.
    fn retract(&mut self, dev: &mut Device, sink: RouteNode) {
        let path = self.paths.remove(&sink).expect("sink present");
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.tile == b.tile {
                let pip = Pip::new(a.tile, a.wire, b.wire);
                let count = self.pip_refs.get_mut(&pip).expect("pip refcounted");
                *count -= 1;
                if *count == 0 {
                    self.pip_refs.remove(&pip);
                    dev.remove_pip(&pip).expect("pip active");
                }
            }
        }
        for node in &path {
            let count = self.node_refs.get_mut(node).expect("node refcounted");
            *count -= 1;
            if *count == 0 {
                self.node_refs.remove(node);
                dev.release_node(*node);
            }
        }
    }

    /// Retracts every path and releases the source.
    fn release(mut self, dev: &mut Device) {
        let sinks: Vec<RouteNode> = self.sinks().collect();
        for sink in sinks {
            self.retract(dev, sink);
        }
        dev.release_node(self.source);
    }
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
    /// Search-queue pops across those searches.
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
        for sink in sinks {
            match self.find_path(&mut search, &net, *sink) {
                Ok(path) => net.commit(dev, *sink, path),
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
        let found = self.find_path(&mut search, &net, sink);
        let result = found.map(|path| net.commit(dev, sink, path));
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

    /// Merges net `from` into net `into`: all of `from`'s paths and
    /// resource refcounts move to `into`, and a node both nets held (the
    /// shared source) is held once. Used by two-phase routing
    /// relocation (paper Fig. 5): the replica path is routed as a
    /// temporary net, the original branch retired, then the replica
    /// absorbed into the original net's bookkeeping. No device bits
    /// change.
    ///
    /// # Panics
    ///
    /// Panics if either id is dead, the nets have different sources, or
    /// they share a sink.
    pub fn absorb(&mut self, dev: &mut Device, into: NetId, from: NetId) {
        assert_ne!(into, from, "cannot absorb a net into itself");
        let from_net = self.nets[from].take().expect("live source net");
        let into_net = self.nets[into].as_mut().expect("live target net");
        assert_eq!(
            from_net.source, into_net.source,
            "absorb requires a shared source"
        );
        for (sink, path) in from_net.paths {
            assert!(
                !into_net.paths.contains_key(&sink),
                "nets share sink {sink}"
            );
            into_net.paths.insert(sink, path);
        }
        for (node, count) in from_net.node_refs {
            let refs = into_net.node_refs.entry(node).or_insert(0);
            if *refs > 0 {
                dev.release_node(node);
            }
            *refs += count;
        }
        for (pip, count) in from_net.pip_refs {
            *into_net.pip_refs.entry(pip).or_insert(0) += count;
        }
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

    /// Breadth-first search from the net's current nodes to `sink`,
    /// counted in [`NetDb::route_stats`].
    fn find_path(
        &mut self,
        search: &mut Search,
        net: &RoutedNet,
        sink: RouteNode,
    ) -> Result<Vec<RouteNode>, SimError> {
        // The sink pin itself may be shared (paralleled outputs drive a
        // pin that already belongs to another net), but must not already
        // belong to *this* net.
        if net.node_refs.contains_key(&sink) {
            return Err(SimError::SinkOccupied { pin: sink });
        }
        let (branch, pops) = search.run(net, sink);
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
        path.extend_from_slice(&branch[1..]);
        Ok(path)
    }
}

/// The tiles one search may route through: the `within` region clipped
/// to the device, or the whole device. A node inside has the packed id
/// `(row << col_bits | col) << WIRE_BITS | wire`, with row and column
/// relative to the window origin; the id doubles as its slot index.
struct Window {
    rect: Rect,
    col_bits: u32,
    dev_rows: u16,
    dev_cols: u16,
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
        }
    }

    /// Slots needed to index every packed id.
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

    /// Window-relative row and column of packed id `id`.
    fn tile_of(&self, id: u32) -> (i32, i32) {
        let tile = id >> WIRE_BITS;
        let col_mask = (1 << self.col_bits) - 1;
        ((tile >> self.col_bits) as i32, (tile & col_mask) as i32)
    }

    /// The node behind packed id `id`.
    fn node(&self, id: u32) -> RouteNode {
        let (row, col) = self.tile_of(id);
        let tile = ClbCoord::new(
            self.rect.origin.row + row as u16,
            self.rect.origin.col + col as u16,
        );
        RouteNode::new(tile, Wire::from_index((id & WIRE_MASK) as usize))
    }
}

/// A slot not yet visited whose node is free to use.
const FREE: u32 = u32::MAX;
/// A slot whose node a net other than the searching one holds.
const BLOCKED: u32 = u32::MAX - 1;
/// A slot whose node is one of the net's own (a search start).
const ROOT: u32 = u32::MAX - 2;
/// Parent references from here up (below [`ROOT`]) name start nodes
/// outside the window: `OUTSIDE + k` is `Search::outside[k]`. Every
/// packed id is below it.
const OUTSIDE: u32 = 1 << 31;

/// The sink of one search: its packed id (or [`FREE`], which no node
/// has, when it is outside the window), and its window-relative position
/// when it is on the device but outside the window.
struct Target {
    node: RouteNode,
    id: u32,
    beyond: Option<(i32, i32, u32)>,
}

/// Dense breadth-first search state of one `route_net`/`extend_net`
/// call. It is built when the call starts, reused across the call's
/// sinks, and dropped when the call returns; no search memory outlives
/// the call.
struct Search {
    window: Window,
    tables: &'static WireTables,
    /// Per window node: [`FREE`], [`BLOCKED`], [`ROOT`], or the parent
    /// reference of a visited node (its parent's packed id, or
    /// `OUTSIDE + k`).
    slots: Vec<u32>,
    /// FIFO of discovered nodes by packed id.
    queue: Vec<u32>,
    /// The current search's start nodes outside the window.
    outside: Vec<RouteNode>,
}

impl Search {
    /// The search state of one `route_net`/`extend_net` call: the window
    /// of `within`, with every window node a net holds marked blocked.
    /// The searching net's own nodes turn [`ROOT`] when a search starts.
    fn new(dev: &Device, within: Option<Rect>) -> Search {
        let window = Window::new(dev, within);
        debug_assert!(
            window.len() <= OUTSIDE as usize,
            "packed ids stay below OUTSIDE"
        );
        let mut slots = vec![FREE; window.len()];
        for tile in window.rect.iter() {
            let (row, col) = window.relative(tile);
            for (wire, holds) in dev.tile_holds(tile).iter().enumerate() {
                if *holds > 0 {
                    if let Some(at) = window.pack(row, col, wire as u32) {
                        slots[at as usize] = BLOCKED;
                    }
                }
            }
        }
        Search {
            window,
            tables: WireTables::get(),
            slots,
            queue: Vec::new(),
            outside: Vec::new(),
        }
    }

    /// Searches from `net`'s nodes to `sink`. Returns the branch from
    /// the net node it grew from to the sink (if reached) and the number
    /// of nodes expanded.
    ///
    /// The visiting order is that of a FIFO seeded with `net.nodes()`:
    /// every start node is marked visited before any is expanded, each
    /// node tries its PIP fanout in wire-index order and then its fixed
    /// link, and each candidate is checked for visited, then for being
    /// the sink, then for being usable. A candidate outside the window
    /// is never usable, and the only visited nodes outside it are start
    /// nodes, which are never the sink; so outside the window a
    /// candidate ends the search exactly when it is the sink.
    ///
    /// Between the searches of one call the net only grows, so start
    /// nodes stay [`ROOT`] and only the queued nodes are reset. The
    /// blocked marks stay valid too: the nodes a committed path newly
    /// occupies all become start nodes.
    fn run(&mut self, net: &RoutedNet, sink: RouteNode) -> (Option<Vec<RouteNode>>, u64) {
        let id = self.window.id(sink);
        let on_device =
            sink.tile.row < self.window.dev_rows && sink.tile.col < self.window.dev_cols;
        let target = Target {
            node: sink,
            id: id.unwrap_or(FREE),
            beyond: (id.is_none() && on_device).then(|| {
                let (row, col) = self.window.relative(sink.tile);
                (row, col, sink.wire.index() as u32)
            }),
        };
        self.outside.clear();
        for node in net.nodes() {
            match self.window.id(node) {
                Some(at) => self.slots[at as usize] = ROOT,
                None => self.outside.push(node),
            }
        }
        let mut pops = 0;
        let mut reached = None;
        let mut next_outside = OUTSIDE;
        for node in net.nodes() {
            pops += 1;
            let (from, hit) = match self.window.id(node) {
                Some(at) => (at, self.expand(at, &target)),
                None => {
                    let from = next_outside;
                    next_outside += 1;
                    (from, self.expand_outside(node, from, &target))
                }
            };
            if hit {
                reached = Some(from);
                break;
            }
        }
        let mut head = 0;
        while reached.is_none() {
            let Some(&at) = self.queue.get(head) else {
                break;
            };
            head += 1;
            pops += 1;
            if self.expand(at, &target) {
                reached = Some(at);
            }
        }
        let branch = reached.map(|from| self.branch(sink, from));
        for &at in &self.queue {
            self.slots[at as usize] = FREE;
        }
        self.queue.clear();
        (branch, pops)
    }

    /// Expands window node `at`; true when it reaches the sink.
    fn expand(&mut self, at: u32, target: &Target) -> bool {
        let wire = (at & WIRE_MASK) as usize;
        let tile = at & !WIRE_MASK;
        for &to in self.tables.fanout(wire) {
            if self.visit(tile | u32::from(to), at, target) {
                return true;
            }
        }
        let Some((dr, dc, to)) = self.tables.link[wire] else {
            return false;
        };
        let (row, col) = self.window.tile_of(at);
        let (row, col, to) = (row + i32::from(dr), col + i32::from(dc), u32::from(to));
        match self.window.pack(row, col, to) {
            Some(next) => self.visit(next, at, target),
            None => target.beyond == Some((row, col, to)),
        }
    }

    /// Expands start node `node`, outside the window. Its PIP fanout
    /// stays in its own tile, outside the window, so only the sink can
    /// end the search there; its fixed link may enter the window.
    fn expand_outside(&mut self, node: RouteNode, from: u32, target: &Target) -> bool {
        let fanout = self.tables.fanout(node.wire.index());
        if node.tile == target.node.tile && fanout.contains(&(target.node.wire.index() as u8)) {
            return true;
        }
        let link = fixed_link(
            node.tile,
            node.wire,
            self.window.dev_rows,
            self.window.dev_cols,
        );
        match link {
            Some(next) => match self.window.id(next) {
                Some(at) => self.visit(at, from, target),
                None => next == target.node,
            },
            None => false,
        }
    }

    /// Offers window node `next` as a child of `from`: true when it is
    /// the sink, otherwise queues it if it is unvisited and usable.
    fn visit(&mut self, next: u32, from: u32, target: &Target) -> bool {
        let slot = self.slots[next as usize];
        if slot <= ROOT {
            return false;
        }
        if next == target.id {
            return true;
        }
        if slot == FREE {
            self.slots[next as usize] = from;
            self.queue.push(next);
        }
        false
    }

    /// The branch from a start node to `sink`, whose parent is `from`.
    fn branch(&self, sink: RouteNode, mut from: u32) -> Vec<RouteNode> {
        let mut branch = vec![sink];
        loop {
            if from >= OUTSIDE {
                branch.push(self.outside[(from - OUTSIDE) as usize]);
                break;
            }
            branch.push(self.window.node(from));
            match self.slots[from as usize] {
                ROOT => break,
                parent => from = parent,
            }
        }
        branch.reverse();
        branch
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
    use std::collections::{HashMap, VecDeque};

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
    /// start nodes, visited before any hold is looked up. Returns the
    /// path or error and the number of nodes popped.
    fn reference_find_path(
        dev: &Device,
        net: &RoutedNet,
        sink: RouteNode,
        within: Option<Rect>,
    ) -> (Result<Vec<RouteNode>, SimError>, u64) {
        if net.node_refs.contains_key(&sink) {
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
        /// databases' live nets.
        fn holds(&self) -> BTreeMap<RouteNode, u8> {
            let held: BTreeMap<RouteNode, u8> = self.dev.held_nodes().collect();
            let mut want = BTreeMap::new();
            for (_, net) in self.db.nets().chain(self.other.nets()) {
                for node in net.nodes() {
                    *want.entry(node).or_insert(0) += 1;
                }
            }
            assert_eq!(held, want, "holds are the live nets' nodes");
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
        /// result, on the work done and on everything left behind.
        fn apply(&mut self, op: &Op) {
            let (d, r) = (&mut self.dense, &mut self.reference);
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
            // Equal lifetime counters after every op: equal work by each.
            assert_eq!(d.db, r.db, "nets and work after {op:?}");
            assert_eq!(d.other, r.other, "other nets and work after {op:?}");
            assert_eq!(d.holds(), r.holds(), "holds after {op:?}");
            assert!(d.dev.pips().eq(r.dev.pips()), "device after {op:?}");
        }
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
                let nodes: Vec<RouteNode> = net.nodes().collect();
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
                // Absorb a replica into the original it parallels.
                let by_source = live.iter().find_map(|(a, na)| {
                    live.iter()
                        .find(|(b, nb)| {
                            a != b
                                && na.source == nb.source
                                && na.sinks().all(|s| !nb.paths.contains_key(&s))
                        })
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
        assert!(net.nodes().any(|n| !window.contains(n.tile)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The dense search returns what the hashed search returned and
        /// pops exactly as many nodes, through random sequences of
        /// routes, extensions, paralleled sinks, absorbs, removals and a
        /// second database's nets on XCV50 and XCV100 devices.
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
        let used_before: Vec<RouteNode> = db.net(id1).unwrap().nodes().collect();
        // A second net from a different source to a different pin of the
        // same tile must not reuse net 1's nodes.
        let id2 = db
            .route_net(&mut d, out(5, 5, 1), &[pin(5, 6, 1, 2)], None)
            .unwrap();
        let n2: Vec<RouteNode> = db.net(id2).unwrap().nodes().collect();
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
        let err = db
            .route_net(&mut d, out(0, 0, 0), &[pin(5, 5, 0, 0)], Some(region))
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        // Nothing leaked.
        assert_eq!(d.pips().count(), 0);
        assert_eq!(d.held_nodes().count(), 0);
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
        let bystanders: Vec<RouteNode> = other.net(bystander).unwrap().nodes().collect();
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
        let want: BTreeMap<RouteNode, u8> = n.nodes().map(|node| (node, 1)).collect();
        assert_eq!(held, want);
        // And removal still releases everything.
        db.remove_net(&mut d, orig);
        assert_eq!(d.pips().count(), 0);
        assert_eq!(d.held_nodes().count(), 0);
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
        assert!(theirs.net(held).unwrap().nodes().any(|n| n == single));
        let err = mine
            .route_net(&mut d, out(5, 5, 0), &[sink], window)
            .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }));
        theirs.remove_net(&mut d, held);
        let id = mine
            .route_net(&mut d, out(5, 5, 0), &[sink], window)
            .unwrap();
        assert!(mine.net(id).unwrap().nodes().any(|n| n == single));
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
