//! The deterministic structured event stream.
//!
//! Every event is stamped with *simulated* time ([`Micros`]) and a shard
//! index — never wall clock — so replaying a trace reproduces its
//! stream byte for byte, on any host. The JSONL
//! (de)serializer is hand-rolled (the workspace is offline, no serde):
//! keys are emitted in one fixed order and the parser reads them back
//! positionally, so `parse(line).to_jsonl() == line` by construction.

use rtm_place::frag::FragMetrics;
use rtm_sched::task::Micros;

/// Shard tag used for fleet-level events (routing rejections, epoch
/// boundaries) that are not attributable to any single shard.
pub const FLEET_SHARD: u32 = u32::MAX;

/// Why an arrival was rejected (or dropped) instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request sat queued past its start deadline.
    DeadlinePassed,
    /// Duplicate trace id already resident, or design synthesis failed.
    DuplicateOrSynthesis,
    /// The device had no free region large enough for the shape.
    NoFreeSlots,
    /// A net could not be routed inside the placed region.
    Unroutable,
    /// The load failed for another device-specific reason.
    LoadOther,
    /// No device in the fleet can ever hold the shape (fleet-level).
    Unplaceable,
}

impl RejectReason {
    /// Stable snake_case name used in the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::DeadlinePassed => "deadline_passed",
            RejectReason::DuplicateOrSynthesis => "duplicate_or_synthesis",
            RejectReason::NoFreeSlots => "no_free_slots",
            RejectReason::Unroutable => "unroutable",
            RejectReason::LoadOther => "load_other",
            RejectReason::Unplaceable => "unplaceable",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "deadline_passed" => RejectReason::DeadlinePassed,
            "duplicate_or_synthesis" => RejectReason::DuplicateOrSynthesis,
            "no_free_slots" => RejectReason::NoFreeSlots,
            "unroutable" => RejectReason::Unroutable,
            "load_other" => RejectReason::LoadOther,
            "unplaceable" => RejectReason::Unplaceable,
            _ => return None,
        })
    }
}

/// What happened. Payloads carry only deterministic quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A trace arrival reached a shard (directly or via routing).
    Arrival {
        /// Trace id of the request.
        id: u64,
        /// Requested region height in CLB rows.
        rows: u16,
        /// Requested region width in CLB columns.
        cols: u16,
    },
    /// The arrival could not start immediately and joined the wait queue.
    Enqueued {
        /// Trace id of the request.
        id: u64,
    },
    /// The request left the wait queue (admission retry or cancellation).
    Dequeued {
        /// Trace id of the request.
        id: u64,
        /// Simulated µs spent queued so far.
        waited: Micros,
    },
    /// Admission was decided: an arena region is reserved and accounted,
    /// but no cells, nets or frames have been written yet.
    Reserved {
        /// Trace id of the request.
        id: u64,
        /// Rearrangement moves the seated room plan will execute.
        moves: usize,
    },
    /// A reserved admission finished implementing: design placed, nets
    /// routed, configuration frames written.
    Executed {
        /// Trace id of the request.
        id: u64,
        /// Configuration frames the admission's rearrangement moves
        /// wrote (0 when the function fitted without moving anything);
        /// the function's own frames are not counted.
        frames: usize,
    },
    /// The request was admitted.
    Admitted {
        /// Trace id of the request.
        id: u64,
        /// Simulated µs between submission and admission.
        waited: Micros,
        /// Rearrangement moves executed to open the room.
        moves: usize,
    },
    /// The request was rejected or its load failed terminally.
    Rejected {
        /// Trace id of the request.
        id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// A function's design was written to the device.
    Load {
        /// Trace id of the request.
        id: u64,
        /// Configuration frames the admission's rearrangement moves
        /// wrote (0 when the function fitted without moving anything);
        /// the function's own frames are not counted.
        frames: usize,
    },
    /// A resident function departed and its region was released.
    Unload {
        /// Trace id of the request.
        id: u64,
    },
    /// A defragmentation cycle executed on the shard.
    DefragCycle {
        /// Fragmentation metrics before the cycle.
        before: FragMetrics,
        /// Fragmentation metrics after the cycle.
        after: FragMetrics,
        /// Functions relocated by the cycle.
        moves: usize,
    },
    /// A resident function was extracted for cross-device migration.
    MigrationOut {
        /// Trace id of the migrating function.
        id: u64,
    },
    /// A migrating function was readmitted on this shard.
    MigrationIn {
        /// Trace id of the migrating function.
        id: u64,
    },
    /// A failed migration was rolled back onto this (source) shard.
    MigrationRestored {
        /// Trace id of the migrating function.
        id: u64,
    },
    /// A resident was extracted off this shard because a higher-tier
    /// arrival preempted it (tiered admission).
    Evicted {
        /// Trace id of the evicted function.
        id: u64,
        /// QoS tier index of the *victim* (0 batch, 1 standard,
        /// 2 interactive).
        tier: u8,
    },
    /// An evicted bundle found no shard with room and was parked in
    /// the fleet's park queue for idle-window readmission
    /// (fleet-level event).
    Parked {
        /// Trace id of the parked function.
        id: u64,
        /// QoS tier index of the parked function.
        tier: u8,
    },
    /// An evicted bundle was readmitted — on a migration-target shard
    /// at eviction time, or from the park queue in a later idle window.
    Readmitted {
        /// Trace id of the readmitted function.
        id: u64,
        /// QoS tier index of the readmitted function.
        tier: u8,
    },
    /// The fleet opened a new epoch at this simulated time.
    EpochBoundary,
}

impl EventKind {
    /// Stable snake_case name used in the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::Enqueued { .. } => "enqueued",
            EventKind::Dequeued { .. } => "dequeued",
            EventKind::Reserved { .. } => "reserved",
            EventKind::Executed { .. } => "executed",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Load { .. } => "load",
            EventKind::Unload { .. } => "unload",
            EventKind::DefragCycle { .. } => "defrag_cycle",
            EventKind::MigrationOut { .. } => "migration_out",
            EventKind::MigrationIn { .. } => "migration_in",
            EventKind::MigrationRestored { .. } => "migration_restored",
            EventKind::Evicted { .. } => "evicted",
            EventKind::Parked { .. } => "parked",
            EventKind::Readmitted { .. } => "readmitted",
            EventKind::EpochBoundary => "epoch_boundary",
        }
    }
}

/// One event: simulated timestamp, shard index, payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtmEvent {
    /// Simulated time the event happened at.
    pub at: Micros,
    /// Shard index, or [`FLEET_SHARD`] for fleet-level events.
    pub shard: u32,
    /// The payload.
    pub kind: EventKind,
}

fn frag_json(out: &mut String, m: &FragMetrics) {
    out.push_str(&format!(
        "{{\"free_cells\":{},\"largest_rect\":{},\"total_cells\":{}}}",
        m.free_cells, m.largest_rect, m.total_cells
    ));
}

impl RtmEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"at\":{},\"shard\":{},\"kind\":\"{}\"",
            self.at,
            self.shard,
            self.kind.name()
        );
        match &self.kind {
            EventKind::Arrival { id, rows, cols } => {
                s.push_str(&format!(",\"id\":{id},\"rows\":{rows},\"cols\":{cols}"));
            }
            EventKind::Enqueued { id }
            | EventKind::Unload { id }
            | EventKind::MigrationOut { id }
            | EventKind::MigrationIn { id }
            | EventKind::MigrationRestored { id } => {
                s.push_str(&format!(",\"id\":{id}"));
            }
            EventKind::Dequeued { id, waited } => {
                s.push_str(&format!(",\"id\":{id},\"waited\":{waited}"));
            }
            EventKind::Reserved { id, moves } => {
                s.push_str(&format!(",\"id\":{id},\"moves\":{moves}"));
            }
            EventKind::Executed { id, frames } => {
                s.push_str(&format!(",\"id\":{id},\"frames\":{frames}"));
            }
            EventKind::Admitted { id, waited, moves } => {
                s.push_str(&format!(
                    ",\"id\":{id},\"waited\":{waited},\"moves\":{moves}"
                ));
            }
            EventKind::Rejected { id, reason } => {
                s.push_str(&format!(",\"id\":{id},\"reason\":\"{}\"", reason.name()));
            }
            EventKind::Load { id, frames } => {
                s.push_str(&format!(",\"id\":{id},\"frames\":{frames}"));
            }
            EventKind::DefragCycle {
                before,
                after,
                moves,
            } => {
                s.push_str(",\"before\":");
                frag_json(&mut s, before);
                s.push_str(",\"after\":");
                frag_json(&mut s, after);
                s.push_str(&format!(",\"moves\":{moves}"));
            }
            EventKind::Evicted { id, tier }
            | EventKind::Parked { id, tier }
            | EventKind::Readmitted { id, tier } => {
                s.push_str(&format!(",\"id\":{id},\"tier\":{tier}"));
            }
            EventKind::EpochBoundary => {}
        }
        s.push('}');
        s
    }

    /// Parses one JSON line produced by [`RtmEvent::to_jsonl`]. Returns
    /// `None` on any structural deviation — keys are read back in the
    /// exact order the serializer writes them, so a parsed event
    /// re-serializes to the identical line.
    pub fn from_jsonl(line: &str) -> Option<RtmEvent> {
        let mut c = Cursor(line.trim_end_matches(['\r', '\n']));
        c.lit("{\"at\":")?;
        let at = c.u64()?;
        c.lit(",\"shard\":")?;
        let shard = u32::try_from(c.u64()?).ok()?;
        c.lit(",\"kind\":\"")?;
        let kind_name = c.until_quote()?;
        let kind = match kind_name {
            "arrival" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"rows\":")?;
                let rows = u16::try_from(c.u64()?).ok()?;
                c.lit(",\"cols\":")?;
                let cols = u16::try_from(c.u64()?).ok()?;
                EventKind::Arrival { id, rows, cols }
            }
            "enqueued" | "unload" | "migration_out" | "migration_in" | "migration_restored" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                match kind_name {
                    "enqueued" => EventKind::Enqueued { id },
                    "unload" => EventKind::Unload { id },
                    "migration_out" => EventKind::MigrationOut { id },
                    "migration_in" => EventKind::MigrationIn { id },
                    _ => EventKind::MigrationRestored { id },
                }
            }
            "dequeued" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"waited\":")?;
                let waited = c.u64()?;
                EventKind::Dequeued { id, waited }
            }
            "reserved" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"moves\":")?;
                let moves = usize::try_from(c.u64()?).ok()?;
                EventKind::Reserved { id, moves }
            }
            "executed" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"frames\":")?;
                let frames = usize::try_from(c.u64()?).ok()?;
                EventKind::Executed { id, frames }
            }
            "admitted" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"waited\":")?;
                let waited = c.u64()?;
                c.lit(",\"moves\":")?;
                let moves = usize::try_from(c.u64()?).ok()?;
                EventKind::Admitted { id, waited, moves }
            }
            "rejected" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"reason\":\"")?;
                let reason = RejectReason::from_name(c.until_quote()?)?;
                EventKind::Rejected { id, reason }
            }
            "load" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"frames\":")?;
                let frames = usize::try_from(c.u64()?).ok()?;
                EventKind::Load { id, frames }
            }
            "defrag_cycle" => {
                c.lit(",\"before\":")?;
                let before = c.frag()?;
                c.lit(",\"after\":")?;
                let after = c.frag()?;
                c.lit(",\"moves\":")?;
                let moves = usize::try_from(c.u64()?).ok()?;
                EventKind::DefragCycle {
                    before,
                    after,
                    moves,
                }
            }
            "evicted" | "parked" | "readmitted" => {
                c.lit(",\"id\":")?;
                let id = c.u64()?;
                c.lit(",\"tier\":")?;
                let tier = u8::try_from(c.u64()?).ok()?;
                match kind_name {
                    "evicted" => EventKind::Evicted { id, tier },
                    "parked" => EventKind::Parked { id, tier },
                    _ => EventKind::Readmitted { id, tier },
                }
            }
            "epoch_boundary" => EventKind::EpochBoundary,
            _ => return None,
        };
        c.lit("}")?;
        if !c.0.is_empty() {
            return None;
        }
        Some(RtmEvent { at, shard, kind })
    }
}

/// Serializes a whole stream, one event per line, trailing newline on
/// every line — the `--trace` file format.
pub fn to_jsonl_stream(events: &[RtmEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

/// Positional parser over the fixed-key-order encoding.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    fn lit(&mut self, prefix: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(prefix)?;
        Some(())
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self
            .0
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.0.len());
        if end == 0 {
            return None;
        }
        let v = self.0[..end].parse().ok()?;
        self.0 = &self.0[end..];
        Some(v)
    }

    fn until_quote(&mut self) -> Option<&'a str> {
        let end = self.0.find('"')?;
        let s = &self.0[..end];
        self.0 = &self.0[end + 1..];
        Some(s)
    }

    fn frag(&mut self) -> Option<FragMetrics> {
        self.lit("{\"free_cells\":")?;
        let free_cells = u32::try_from(self.u64()?).ok()?;
        self.lit(",\"largest_rect\":")?;
        let largest_rect = u32::try_from(self.u64()?).ok()?;
        self.lit(",\"total_cells\":")?;
        let total_cells = u32::try_from(self.u64()?).ok()?;
        self.lit("}")?;
        Some(FragMetrics {
            free_cells,
            largest_rect,
            total_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<RtmEvent> {
        let frag_a = FragMetrics {
            free_cells: 40,
            largest_rect: 12,
            total_cells: 96,
        };
        let frag_b = FragMetrics {
            free_cells: 40,
            largest_rect: 40,
            total_cells: 96,
        };
        vec![
            RtmEvent {
                at: 0,
                shard: 0,
                kind: EventKind::Arrival {
                    id: 1,
                    rows: 4,
                    cols: 6,
                },
            },
            RtmEvent {
                at: 5,
                shard: 1,
                kind: EventKind::Enqueued { id: 2 },
            },
            RtmEvent {
                at: 9,
                shard: 1,
                kind: EventKind::Dequeued { id: 2, waited: 4 },
            },
            RtmEvent {
                at: 9,
                shard: 1,
                kind: EventKind::Reserved { id: 2, moves: 3 },
            },
            RtmEvent {
                at: 9,
                shard: 1,
                kind: EventKind::Executed { id: 2, frames: 228 },
            },
            RtmEvent {
                at: 9,
                shard: 1,
                kind: EventKind::Admitted {
                    id: 2,
                    waited: 4,
                    moves: 3,
                },
            },
            RtmEvent {
                at: 10,
                shard: 2,
                kind: EventKind::Rejected {
                    id: 3,
                    reason: RejectReason::NoFreeSlots,
                },
            },
            RtmEvent {
                at: 11,
                shard: 0,
                kind: EventKind::Load { id: 1, frames: 228 },
            },
            RtmEvent {
                at: 90,
                shard: 0,
                kind: EventKind::Unload { id: 1 },
            },
            RtmEvent {
                at: 95,
                shard: 2,
                kind: EventKind::DefragCycle {
                    before: frag_a,
                    after: frag_b,
                    moves: 2,
                },
            },
            RtmEvent {
                at: 100,
                shard: 0,
                kind: EventKind::MigrationOut { id: 4 },
            },
            RtmEvent {
                at: 100,
                shard: 1,
                kind: EventKind::MigrationIn { id: 4 },
            },
            RtmEvent {
                at: 101,
                shard: 0,
                kind: EventKind::MigrationRestored { id: 5 },
            },
            RtmEvent {
                at: 110,
                shard: 1,
                kind: EventKind::Evicted { id: 6, tier: 0 },
            },
            RtmEvent {
                at: 110,
                shard: FLEET_SHARD,
                kind: EventKind::Parked { id: 6, tier: 0 },
            },
            RtmEvent {
                at: 115,
                shard: 2,
                kind: EventKind::Readmitted { id: 6, tier: 0 },
            },
            RtmEvent {
                at: 120,
                shard: FLEET_SHARD,
                kind: EventKind::EpochBoundary,
            },
            RtmEvent {
                at: 121,
                shard: FLEET_SHARD,
                kind: EventKind::Rejected {
                    id: 9,
                    reason: RejectReason::Unplaceable,
                },
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_exactly() {
        for e in sample_events() {
            let line = e.to_jsonl();
            let parsed = RtmEvent::from_jsonl(&line).expect("line parses");
            assert_eq!(parsed, e);
            assert_eq!(parsed.to_jsonl(), line, "round-trip is byte-exact");
        }
    }

    #[test]
    fn stream_round_trips_line_by_line() {
        let events = sample_events();
        let text = to_jsonl_stream(&events);
        let parsed: Vec<RtmEvent> = text
            .lines()
            .map(|l| RtmEvent::from_jsonl(l).expect("parses"))
            .collect();
        assert_eq!(parsed, events);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"at\":1}",
            "{\"at\":x,\"shard\":0,\"kind\":\"epoch_boundary\"}",
            "{\"at\":1,\"shard\":0,\"kind\":\"nope\"}",
            "{\"at\":1,\"shard\":0,\"kind\":\"load\",\"id\":2,\"frames\":3} trailing",
            "{\"at\":1,\"shard\":0,\"kind\":\"rejected\",\"id\":2,\"reason\":\"bogus\"}",
        ] {
            assert!(RtmEvent::from_jsonl(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn every_reason_round_trips() {
        for r in [
            RejectReason::DeadlinePassed,
            RejectReason::DuplicateOrSynthesis,
            RejectReason::NoFreeSlots,
            RejectReason::Unroutable,
            RejectReason::LoadOther,
            RejectReason::Unplaceable,
        ] {
            assert_eq!(RejectReason::from_name(r.name()), Some(r));
        }
    }
}
