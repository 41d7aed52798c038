//! Property-based integration: random circuits, random relocation
//! sequences — transparency must hold for every combination, and the
//! device must end structurally clean.

use proptest::prelude::*;
use rtm::core::verify::TransparencyHarness;
use rtm::fpga::geom::{ClbCoord, Rect};
use rtm::fpga::part::Part;
use rtm::fpga::Device;
use rtm::netlist::random::RandomCircuit;
use rtm::netlist::techmap::map_to_luts;
use rtm::sim::design::implement;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Any sequence of cell relocations on any (small) circuit of any
    /// clocking class is transparent, and the vacated slots are clean.
    #[test]
    fn random_relocation_sequences_are_transparent(
        seed in 0u64..500,
        gated in any::<bool>(),
        moves in 1usize..5,
    ) {
        let netlist = if gated {
            RandomCircuit::gated(4, 12, seed).generate()
        } else {
            RandomCircuit::free_running(4, 12, seed).generate()
        };
        let mapped = map_to_luts(&netlist).unwrap();
        let mut dev = Device::new(Part::Xcv200);
        let region = Rect::new(ClbCoord::new(2, 2), 8, 8);
        let placed = implement(&mut dev, &mapped, region).unwrap();
        let mut h = TransparencyHarness::new(&netlist, dev, placed);
        h.run_cycles(10).unwrap();

        let n_cells = h.placed().design.cells.len();
        for k in 0..moves {
            // Deterministic pseudo-random victim and destination.
            let victim = (seed as usize + k * 7) % n_cells;
            let src = h.placed().cell_loc(victim);
            let dst_tile = ClbCoord::new(
                14 + (seed % 8) as u16 + k as u16,
                14 + ((seed / 8) % 8) as u16 + 2 * k as u16,
            );
            let dst = (dst_tile, k % 4);
            let report = h.relocate_cell(src, dst).unwrap();
            prop_assert!(report.frames_total() > 0);
            // The vacated slot must be unconfigured and unrouted.
            prop_assert!(!h.device().clb(src.0).unwrap().cells[src.1].is_used());
            prop_assert_eq!(
                h.device().node_holds(rtm::sim::design::PlacedDesign::out_node(src)),
                0
            );
            h.run_cycles(5).unwrap();
        }
        h.run_cycles(15).unwrap();
        prop_assert!(
            h.transparent(),
            "seed {seed} gated {gated}: glitches {:?} divergences {:?}",
            h.glitches(),
            h.divergences()
        );
    }

    /// Moving a cell away and back restores a structurally equivalent
    /// implementation (same cell config, same reachable sinks).
    #[test]
    fn relocation_round_trip_restores_structure(seed in 0u64..200) {
        let netlist = RandomCircuit::free_running(3, 10, seed).generate();
        let mapped = map_to_luts(&netlist).unwrap();
        let mut dev = Device::new(Part::Xcv200);
        let region = Rect::new(ClbCoord::new(2, 2), 8, 8);
        let placed = implement(&mut dev, &mapped, region).unwrap();
        let mut h = TransparencyHarness::new(&netlist, dev, placed);
        h.run_cycles(5).unwrap();

        let victim = seed as usize % h.placed().design.cells.len();
        let src = h.placed().cell_loc(victim);
        let config_before = h.device().clb(src.0).unwrap().cells[src.1];
        let sinks_before: Vec<_> = h
            .placed()
            .netdb
            .net_with_source(rtm::sim::design::PlacedDesign::out_node(src))
            .map(|n| h.placed().netdb.net(n).unwrap().sinks().collect())
            .unwrap_or_default();

        let away = (ClbCoord::new(20, 20), 2);
        h.relocate_cell(src, away).unwrap();
        h.run_cycles(5).unwrap();
        h.relocate_cell(away, src).unwrap();
        h.run_cycles(5).unwrap();

        let config_after = h.device().clb(src.0).unwrap().cells[src.1];
        prop_assert_eq!(config_before, config_after);
        let sinks_after: Vec<_> = h
            .placed()
            .netdb
            .net_with_source(rtm::sim::design::PlacedDesign::out_node(src))
            .map(|n| h.placed().netdb.net(n).unwrap().sinks().collect())
            .unwrap_or_default();
        prop_assert_eq!(sinks_before, sinks_after);
        prop_assert!(h.transparent());
    }
}
