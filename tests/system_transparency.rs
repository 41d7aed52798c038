//! The paper's full scenario as one integration test: several
//! applications share the device; the run-time manager rearranges them
//! live to admit a new one; **every** running application is observed
//! throughout — including during every reconfiguration step — against
//! its own golden model, and none may diverge.

use rtm::core::manager::RunTimeManager;
use rtm::fpga::geom::{ClbCoord, Rect};
use rtm::fpga::part::Part;
use rtm::netlist::random::RandomCircuit;
use rtm::netlist::techmap::map_to_luts;
use rtm::netlist::{GoldenSim, Netlist};
use rtm::sim::devsim::DeviceSim;
use rtm::sim::logic::Logic;
use rtm::sim::place::CellLoc;

fn stim(cycle: u64, width: usize, salt: u64) -> Vec<bool> {
    (0..width)
        .map(|b| {
            let mut z = cycle
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(salt)
                .wrapping_add(b as u64);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            (z ^ (z >> 31)) & 1 == 1
        })
        .collect()
}

/// One observed application: golden model + its slots in the shared sim.
struct App<'a> {
    name: String,
    golden: GoldenSim<'a>,
    width: usize,
    feed_idx: Vec<usize>,
    out_idx: Vec<usize>,
    feed_home: Vec<CellLoc>,
    /// Whether each feed's pre-move cell still exists (alias valid).
    feed_home_active: Vec<bool>,
    divergences: usize,
    salt: u64,
}

/// Advances the shared device sim and every golden model one cycle.
fn step_all(dsim: &mut DeviceSim, apps: &mut [App<'_>], cycle: &mut u64) {
    let mut inputs = vec![Logic::X; dsim.feed_count()];
    for app in apps.iter() {
        let s = stim(*cycle, app.width, app.salt);
        for (j, idx) in app.feed_idx.iter().enumerate() {
            inputs[*idx] = Logic::known(s[j]);
        }
    }
    dsim.step_logic(&inputs).unwrap();
    let outs = dsim.outputs();
    for app in apps.iter_mut() {
        let s = stim(*cycle, app.width, app.salt);
        app.golden.step(&s).unwrap();
        let expect = app.golden.outputs();
        for (j, idx) in app.out_idx.iter().enumerate() {
            if outs[*idx].to_bool() != Some(expect[j]) {
                app.divergences += 1;
            }
        }
    }
    *cycle += 1;
}

#[test]
fn applications_survive_live_rearrangement_under_observation() {
    let mut mgr = RunTimeManager::new(Part::Xcv50); // 16x24 CLBs

    let netlists: Vec<Netlist> = (0..2)
        .map(|i| {
            RandomCircuit {
                name: format!("app{i}"),
                ..RandomCircuit::free_running(5, 16, 50 + i as u64)
            }
            .generate()
        })
        .collect();
    let designs: Vec<_> = netlists.iter().map(|n| map_to_luts(n).unwrap()).collect();

    // Load two functions (no moves yet: observation starts first).
    let f1 = mgr.load(&designs[0], 16, 6, |_, _, _| {}).unwrap();
    let f2 = mgr.load(&designs[1], 16, 6, |_, _, _| {}).unwrap();
    let ids = [f1.id, f2.id];

    // One device-wide simulation observing both applications.
    let first = mgr.function(ids[0]).unwrap();
    let mut dsim = DeviceSim::new(mgr.device(), first);
    let mut apps: Vec<App<'_>> = Vec::new();
    for (k, id) in ids.iter().enumerate() {
        let f = mgr.function(*id).unwrap();
        let (feed_idx, out_idx): (Vec<usize>, Vec<usize>) = if k == 0 {
            (
                (0..f.placement.feed_locs.len()).collect(),
                (0..f.placement.tap_locs.len()).collect(),
            )
        } else {
            (
                f.placement
                    .feed_locs
                    .iter()
                    .map(|l| dsim.push_feed(*l))
                    .collect(),
                f.output_locs()
                    .iter()
                    .map(|(n, l)| dsim.push_output(n.clone(), *l))
                    .collect(),
            )
        };
        apps.push(App {
            name: netlists[k].name().to_string(),
            golden: GoldenSim::new(&netlists[k]),
            width: netlists[k].inputs().len(),
            feed_idx,
            out_idx,
            feed_home: f.placement.feed_locs.clone(),
            feed_home_active: vec![true; f.placement.feed_locs.len()],
            divergences: 0,
            salt: 977 * (k as u64 + 1),
        });
    }

    // Steady state.
    let mut cycle = 0u64;
    for _ in 0..25 {
        step_all(&mut dsim, &mut apps, &mut cycle);
    }

    // Push the two functions apart to fragment the array — every move
    // under observation (live state must ride through the relocation).
    for (id, col) in [(f1.id, 18u16), (f2.id, 6u16)] {
        {
            let dsim = &mut dsim;
            let apps = &mut apps;
            let cycle = &mut cycle;
            mgr.relocate_function(
                id,
                Rect::new(ClbCoord::new(0, col), 16, 6),
                |dev, placed, record| {
                    if let Some(app) = apps.iter_mut().find(|a| a.name == placed.design.name) {
                        for (j, loc) in placed.placement.feed_locs.iter().enumerate() {
                            let idx = app.feed_idx[j];
                            dsim.move_feed(idx, *loc);
                            // Alias the pre-move home only while its cell still
                            // exists; once deconfigured the slot may be reused
                            // by another relocated cell and must not be forced.
                            let home = app.feed_home[j];
                            if app.feed_home_active[j] {
                                let gone = *loc != home
                                    && !dev
                                        .clb(home.0)
                                        .map(|c| c.cells[home.1].is_used())
                                        .unwrap_or(false);
                                if gone {
                                    app.feed_home_active[j] = false;
                                } else {
                                    dsim.add_feed_alias(idx, home);
                                }
                            }
                        }
                        for (j, (_, loc)) in placed.output_locs().iter().enumerate() {
                            dsim.move_output(app.out_idx[j], *loc);
                        }
                    }
                    dsim.sync(dev);
                    for _ in 0..record.wait_cycles {
                        step_all(dsim, apps, cycle);
                    }
                },
            )
            .unwrap();
        }
        // Collapse aliases onto the new home.
        let f = mgr.function(id).unwrap();
        let k = ids.iter().position(|x| *x == id).unwrap();
        for (j, loc) in f.placement.feed_locs.iter().enumerate() {
            dsim.move_feed(apps[k].feed_idx[j], *loc);
        }
        apps[k].feed_home = f.placement.feed_locs.clone();
        apps[k].feed_home_active = vec![true; apps[k].feed_home.len()];
        dsim.sync(mgr.device());
    }
    for _ in 0..15 {
        step_all(&mut dsim, &mut apps, &mut cycle);
    }

    // Admit a third function that does not fit without rearrangement,
    // clocking every application through every reconfiguration step.
    let netlist3 = RandomCircuit {
        name: "app2".into(),
        ..RandomCircuit::free_running(5, 16, 99)
    }
    .generate();
    let design3 = map_to_luts(&netlist3).unwrap();
    let report = {
        let dsim = &mut dsim;
        let apps = &mut apps;
        let cycle = &mut cycle;
        mgr.load(&design3, 16, 10, |dev, placed, record| {
            // Refresh observation points of the application being moved.
            if let Some(app) = apps.iter_mut().find(|a| a.name == placed.design.name) {
                for (j, loc) in placed.placement.feed_locs.iter().enumerate() {
                    let idx = app.feed_idx[j];
                    dsim.move_feed(idx, *loc);
                    let home = app.feed_home[j];
                    if app.feed_home_active[j] {
                        let gone = *loc != home
                            && !dev
                                .clb(home.0)
                                .map(|c| c.cells[home.1].is_used())
                                .unwrap_or(false);
                        if gone {
                            app.feed_home_active[j] = false;
                        } else {
                            dsim.add_feed_alias(idx, home);
                        }
                    }
                }
                for (j, (_, loc)) in placed.output_locs().iter().enumerate() {
                    dsim.move_output(app.out_idx[j], *loc);
                }
            }
            dsim.sync(dev);
            for _ in 0..record.wait_cycles {
                step_all(dsim, apps, cycle);
            }
        })
        .unwrap()
    };
    assert!(!report.moves.is_empty(), "a rearrangement must be needed");

    // Collapse feed aliases onto the final locations and keep running.
    for (k, id) in ids.iter().enumerate() {
        let f = mgr.function(*id).unwrap();
        for (j, loc) in f.placement.feed_locs.iter().enumerate() {
            dsim.move_feed(apps[k].feed_idx[j], *loc);
        }
        for (j, (_, loc)) in f.output_locs().iter().enumerate() {
            dsim.move_output(apps[k].out_idx[j], *loc);
        }
        apps[k].feed_home = f.placement.feed_locs.clone();
        apps[k].feed_home_active = vec![true; apps[k].feed_home.len()];
    }
    dsim.sync(mgr.device());
    for _ in 0..40 {
        step_all(&mut dsim, &mut apps, &mut cycle);
    }

    for app in &apps {
        assert_eq!(
            app.divergences, 0,
            "{} diverged during live rearrangement",
            app.name
        );
    }
    assert_eq!(mgr.functions().count(), 3);
}
