//! The defrag-trigger contract: driving the service past the
//! fragmentation threshold must start a relocation cycle that
//! *measurably reduces* `FragMetrics` — the paper's claim, observed on
//! the live device rather than on bookkeeping alone.

use rtm_fpga::part::Part;
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{QosTier, RuntimeService, ServiceConfig};

/// A deterministic comb: four full-height strips, then the odd two
/// depart, shattering the free space into separated gaps.
fn comb_trace() -> Trace {
    let mut trace = Trace::new("comb");
    for i in 0..4u64 {
        trace.push(
            i * 10_000,
            TraceEvent::Arrival(Arrival {
                id: i,
                rows: 16,
                cols: 6,
                duration: None,
                deadline: None,
                tier: QosTier::Standard,
            }),
        );
    }
    // Depart strips 0 and 2: free columns 0..6 and 12..18, occupied
    // strips at 6..12 and 18..24 — largest free rect is half the free
    // area, fragmentation index 0.5.
    trace.push(100_000, TraceEvent::Departure { id: 0 });
    trace.push(110_000, TraceEvent::Departure { id: 2 });
    trace
}

#[test]
fn threshold_crossing_triggers_defrag_that_reduces_fragmentation() {
    let config = ServiceConfig::default()
        .with_part(Part::Xcv50)
        .with_frag_threshold(0.4);
    let mut service = RuntimeService::new(config);
    let report = service.run(&comb_trace()).unwrap();

    assert!(
        report.defrag_cycles >= 1,
        "threshold must trigger: {report}"
    );
    for cycle in &report.defrags {
        assert!(
            cycle.before.exceeds(0.4),
            "cycle started above the threshold: {cycle:?}"
        );
        assert!(
            cycle.after.fragmentation() < cycle.before.fragmentation(),
            "a defrag cycle must reduce fragmentation: {cycle:?}"
        );
        assert!(cycle.moves > 0);
        assert!(cycle.frames > 0, "real configuration frames were written");
    }
    // The surviving strips were compacted into one block on the real
    // device: all free space is contiguous again.
    let final_frag = report.final_frag.unwrap();
    assert_eq!(final_frag.fragmentation(), 0.0, "{report}");
    assert_eq!(service.manager().functions().count(), 2);
    // Relocation traffic was accounted.
    assert!(report.cells_moved > 0);
    assert!(report.reconfig_ms > 0.0);
}

#[test]
fn high_threshold_never_defrags() {
    let config = ServiceConfig::default()
        .with_part(Part::Xcv50)
        .with_frag_threshold(2.0);
    let mut service = RuntimeService::new(config);
    let report = service.run(&comb_trace()).unwrap();
    assert_eq!(report.defrag_cycles, 0);
    assert!(report.final_frag.unwrap().fragmentation() > 0.0);
}

#[test]
fn adversarial_scenario_recovers_through_defrag() {
    let config = ServiceConfig::default()
        .with_part(Part::Xcv50)
        .with_frag_threshold(0.5);
    let mut service = RuntimeService::new(config);
    let trace = Scenario::AdversarialFragmenter.trace(Part::Xcv50, 5);
    let report = service.run(&trace).unwrap();

    assert_eq!(report.failures, 0, "{report}");
    assert!(
        report.peak_frag() > 0.5,
        "the comb must shatter free space: {report}"
    );
    assert!(
        report.defrag_cycles >= 1 || report.admitted > report.immediate(),
        "recovery needs relocation (defrag or load-time rearrangement): {report}"
    );
    // The oversized requests were admitted — the whole point of
    // defragmentation.
    assert_eq!(
        report.admitted, report.submitted,
        "every request eventually admitted: {report}"
    );
    for cycle in &report.defrags {
        assert!(cycle.after.fragmentation() < cycle.before.fragmentation());
    }
}
