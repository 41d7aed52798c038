//! Two-phase relocation of routing resources (paper §3, Fig. 5).
//!
//! "The interconnections involved are first duplicated in order to
//! establish an alternative path, and then disconnected, becoming
//! available to be reused." While both paths are active the effective
//! propagation delay is the longer of the two (Fig. 6) — the timing
//! numbers in the report come from `rtm-sim`'s static analysis.

use crate::error::CoreError;
use rtm_fpga::config::FrameAddress;
use rtm_fpga::geom::Rect;
use rtm_fpga::routing::RouteNode;
use rtm_fpga::Device;
use rtm_sim::delay::ParallelPathTiming;
use rtm_sim::route::{NetDb, NetId};
use std::fmt;

/// Outcome of one routing relocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingRelocationReport {
    /// The net whose branch was moved.
    pub net: NetId,
    /// The sink whose path was replaced.
    pub sink: RouteNode,
    /// Delay of the original path (ps).
    pub old_delay_ps: u64,
    /// Delay of the replica path (ps).
    pub new_delay_ps: u64,
    /// Frames written to duplicate the path (phase 1).
    pub duplicate_frames: Vec<FrameAddress>,
    /// Frames written to retire the original (phase 2).
    pub retire_frames: Vec<FrameAddress>,
}

impl RoutingRelocationReport {
    /// The Fig. 6 timing while both paths were paralleled.
    pub fn parallel_timing(&self) -> ParallelPathTiming {
        ParallelPathTiming {
            original_ps: self.old_delay_ps,
            replica_ps: self.new_delay_ps,
        }
    }
}

impl fmt::Display for RoutingRelocationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rerouted {} on net {}: {}ps -> {}ps ({} + {} frames)",
            self.sink,
            self.net,
            self.old_delay_ps,
            self.new_delay_ps,
            self.duplicate_frames.len(),
            self.retire_frames.len(),
        )
    }
}

/// Relocates the routing of one sink of `net`: duplicates the connection
/// over a disjoint path, calls `between_phases` while both paths are
/// paralleled (the harness runs clock cycles there), then retires the
/// original branch and absorbs the replica into the net.
///
/// # Errors
///
/// Returns [`CoreError::Sim`] wrapping `Unroutable` if no disjoint
/// alternative path exists, and `SinkOccupied`-style errors for sinks not
/// on the net.
pub fn relocate_sink_path(
    dev: &mut Device,
    netdb: &mut NetDb,
    net: NetId,
    sink: RouteNode,
    within: Option<Rect>,
    mut between_phases: impl FnMut(&Device),
) -> Result<RoutingRelocationReport, CoreError> {
    let old_delay_ps = {
        let n = netdb.net(net).ok_or(CoreError::DesignMismatch {
            detail: format!("net {net} is not live"),
        })?;
        n.sink_delay_ps(sink).ok_or(CoreError::DesignMismatch {
            detail: format!("{sink} is not a sink of net {net}"),
        })?
    };
    let source = netdb.net(net).expect("checked").source;

    // Phase 1: duplicate — route a parallel branch from the same source
    // as a temporary net. Its path is automatically disjoint from the
    // original (those nodes are occupied by `net`).
    let before = dev.config().snapshot();
    let replica = netdb.route_net(dev, source, &[sink], within)?;
    let duplicate_frames = dev.config().diff_frames(&before);
    let new_delay_ps = netdb
        .net(replica)
        .expect("just routed")
        .sink_delay_ps(sink)
        .expect("sink present");

    // Both paths are live: let the system run (Fig. 6 window).
    between_phases(dev);

    // Phase 2: disconnect the original branch and adopt the replica.
    let before = dev.config().snapshot();
    netdb.remove_sink(dev, net, sink);
    netdb.absorb(dev, net, replica);
    let retire_frames = dev.config().diff_frames(&before);

    Ok(RoutingRelocationReport {
        net,
        sink,
        old_delay_ps,
        new_delay_ps,
        duplicate_frames,
        retire_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::geom::ClbCoord;
    use rtm_fpga::part::Part;
    use rtm_fpga::routing::Wire;

    fn node(r: u16, c: u16, wire: Wire) -> RouteNode {
        RouteNode::new(ClbCoord::new(r, c), wire)
    }

    #[test]
    fn reroute_keeps_connectivity_throughout() {
        let mut dev = Device::new(Part::Xcv50);
        let mut db = NetDb::new();
        let source = node(4, 4, Wire::CellOut(0));
        let sink = node(4, 8, Wire::CellIn(0, 0));
        let other_sink = node(6, 4, Wire::CellIn(0, 0));
        let net = db
            .route_net(&mut dev, source, &[sink, other_sink], None)
            .unwrap();

        let mut observed_parallel = false;
        let report = relocate_sink_path(&mut dev, &mut db, net, sink, None, |d| {
            // While paralleled: two pips drive the sink's pin path — the
            // sink must still be reachable.
            assert!(d.sinks_of(source).contains(&sink));
            observed_parallel = true;
        })
        .unwrap();
        assert!(observed_parallel);
        assert!(report.old_delay_ps > 0);
        assert!(report.new_delay_ps > 0);
        assert!(!report.duplicate_frames.is_empty());
        assert!(!report.retire_frames.is_empty());

        // After: still connected, other sink untouched, net bookkeeping
        // coherent.
        assert!(dev.sinks_of(source).contains(&sink));
        assert!(dev.sinks_of(source).contains(&other_sink));
        let n = db.net(net).unwrap();
        assert_eq!(n.sinks().count(), 2);
        assert!(n.sink_delay_ps(sink).is_some());
    }

    #[test]
    fn effective_delay_is_max_of_both_paths() {
        let mut dev = Device::new(Part::Xcv50);
        let mut db = NetDb::new();
        let source = node(2, 2, Wire::CellOut(0));
        let sink = node(2, 5, Wire::CellIn(0, 1));
        let net = db.route_net(&mut dev, source, &[sink], None).unwrap();
        let report = relocate_sink_path(&mut dev, &mut db, net, sink, None, |_| {}).unwrap();
        let t = report.parallel_timing();
        assert_eq!(
            t.effective_delay_ps(),
            report.old_delay_ps.max(report.new_delay_ps)
        );
        assert_eq!(
            t.fuzziness_ps(),
            report.old_delay_ps.abs_diff(report.new_delay_ps)
        );
    }

    #[test]
    fn missing_sink_rejected() {
        let mut dev = Device::new(Part::Xcv50);
        let mut db = NetDb::new();
        let source = node(1, 1, Wire::CellOut(0));
        let sink = node(1, 2, Wire::CellIn(0, 1));
        let net = db.route_net(&mut dev, source, &[sink], None).unwrap();
        let bogus = node(9, 9, Wire::CellIn(0, 0));
        let err = relocate_sink_path(&mut dev, &mut db, net, bogus, None, |_| {}).unwrap_err();
        assert!(matches!(err, CoreError::DesignMismatch { .. }));
    }

    #[test]
    fn replica_path_is_disjoint_from_original() {
        let mut dev = Device::new(Part::Xcv50);
        let mut db = NetDb::new();
        let source = node(3, 3, Wire::CellOut(1));
        let sink = node(3, 6, Wire::CellIn(1, 0));
        let net = db.route_net(&mut dev, source, &[sink], None).unwrap();
        let before_nodes: Vec<RouteNode> = db.net(net).unwrap().nodes().collect();
        let report = relocate_sink_path(&mut dev, &mut db, net, sink, None, |_| {}).unwrap();
        // The new path's delay differs from the old (different resources).
        // (Equal-length disjoint detours are possible in principle but the
        // first BFS alternative here is strictly longer.)
        assert_ne!(report.new_delay_ps, 0);
        let after_nodes: Vec<RouteNode> = db.net(net).unwrap().nodes().collect();
        // Old exclusive intermediate nodes were released.
        let released: Vec<_> = before_nodes
            .iter()
            .filter(|n| !after_nodes.contains(n))
            .collect();
        assert!(
            !released.is_empty(),
            "original branch resources must be freed"
        );
    }
}
