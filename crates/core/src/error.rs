//! Error type for relocation and run-time management.

use rtm_fpga::geom::ClbCoord;
use std::fmt;

/// Coarse, attributable reason a [`RunTimeManager::load`] failed — the
/// routing-failure autopsy a service needs to tell congestion apart
/// from capacity.
///
/// A load walks two phases that can fail for different reasons:
/// placement (`implement_counted` could not find cell slots inside the
/// region, or no region existed at all) and routing (free slots
/// existed, but a net could not be wired through the congested switch
/// fabric). Absorbed per-request failures used to be a single opaque
/// counter; classifying them tells an operator whether a fleet needs
/// *bigger devices* or a *better router*.
///
/// [`RunTimeManager::load`]: crate::RunTimeManager::load
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadFailureReason {
    /// Placement-side failure: no free region/cell slots could hold the
    /// design (area pressure, not wiring).
    NoFreeSlots,
    /// Routing-side failure: cells placed, but a net was unroutable (or
    /// its sink pin already claimed) through the shared fabric.
    Unroutable,
    /// Anything else (engine invariants, device errors).
    Other,
}

impl fmt::Display for LoadFailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoadFailureReason::NoFreeSlots => "no-free-slots",
            LoadFailureReason::Unroutable => "unroutable",
            LoadFailureReason::Other => "other",
        })
    }
}

/// Errors raised by the relocation engine and manager.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The source location holds no configured cell.
    SourceUnused {
        /// Tile of the offending location.
        tile: ClbCoord,
        /// Cell index within the CLB.
        cell: usize,
    },
    /// The destination slot is not free.
    DestinationBusy {
        /// Tile of the offending location.
        tile: ClbCoord,
        /// Cell index within the CLB.
        cell: usize,
    },
    /// On-line relocation of LUT/RAM cells is not feasible (paper §2).
    RamRelocationUnsupported {
        /// Tile of the offending location.
        tile: ClbCoord,
        /// Cell index within the CLB.
        cell: usize,
    },
    /// A LUT/RAM cell lies in a column the relocation would rewrite
    /// (paper §2: "LUT/RAMs should not lie in any column that could be
    /// affected by the relocation procedure").
    RamColumnHazard {
        /// The hazardous column.
        column: u16,
    },
    /// No free cells found for the auxiliary relocation circuit.
    NoAuxiliarySite {
        /// Where the search centred.
        near: ClbCoord,
    },
    /// The design view and device diverged (internal invariant).
    DesignMismatch {
        /// Explanation.
        detail: String,
    },
    /// A trace id with no admission ticket to resolve: the service
    /// never reserved it, or its outcome was already resolved
    /// (resolution is one-shot and consumes the outcome).
    UnknownTicket {
        /// The trace id the caller presented.
        trace_id: u64,
    },
    /// An underlying implementation (place/route/sim) error.
    Sim(rtm_sim::SimError),
    /// An underlying device error.
    Fpga(rtm_fpga::FpgaError),
    /// An underlying area-management error.
    Place(rtm_place::PlaceError),
    /// An underlying bitstream error.
    Bitstream(rtm_bitstream::BitstreamError),
}

impl CoreError {
    /// Classifies this error as a [`LoadFailureReason`] so a service
    /// can attribute an absorbed load failure without matching on the
    /// whole error tree.
    pub fn load_failure_reason(&self) -> LoadFailureReason {
        match self {
            CoreError::Place(rtm_place::PlaceError::NoFit { .. })
            | CoreError::Sim(rtm_sim::SimError::RegionTooSmall { .. })
            | CoreError::Sim(rtm_sim::SimError::RegionOutOfBounds { .. }) => {
                LoadFailureReason::NoFreeSlots
            }
            CoreError::Sim(rtm_sim::SimError::Unroutable { .. })
            | CoreError::Sim(rtm_sim::SimError::SinkOccupied { .. }) => {
                LoadFailureReason::Unroutable
            }
            _ => LoadFailureReason::Other,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::SourceUnused { tile, cell } => {
                write!(f, "no configured cell at {tile}/{cell}")
            }
            CoreError::DestinationBusy { tile, cell } => {
                write!(f, "destination {tile}/{cell} is not free")
            }
            CoreError::RamRelocationUnsupported { tile, cell } => {
                write!(
                    f,
                    "cell {tile}/{cell} is in LUT/RAM mode; on-line relocation unsupported"
                )
            }
            CoreError::RamColumnHazard { column } => {
                write!(
                    f,
                    "column {column} holds LUT/RAM cells and would be rewritten"
                )
            }
            CoreError::NoAuxiliarySite { near } => {
                write!(
                    f,
                    "no free cells for the auxiliary relocation circuit near {near}"
                )
            }
            CoreError::DesignMismatch { detail } => write!(f, "design mismatch: {detail}"),
            CoreError::UnknownTicket { trace_id } => {
                write!(f, "ticket {trace_id} is unknown or already resolved")
            }
            CoreError::Sim(e) => write!(f, "implementation error: {e}"),
            CoreError::Fpga(e) => write!(f, "device error: {e}"),
            CoreError::Place(e) => write!(f, "area error: {e}"),
            CoreError::Bitstream(e) => write!(f, "bitstream error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Fpga(e) => Some(e),
            CoreError::Place(e) => Some(e),
            CoreError::Bitstream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rtm_sim::SimError> for CoreError {
    fn from(e: rtm_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<rtm_fpga::FpgaError> for CoreError {
    fn from(e: rtm_fpga::FpgaError) -> Self {
        CoreError::Fpga(e)
    }
}

impl From<rtm_place::PlaceError> for CoreError {
    fn from(e: rtm_place::PlaceError) -> Self {
        CoreError::Place(e)
    }
}

impl From<rtm_bitstream::BitstreamError> for CoreError {
    fn from(e: rtm_bitstream::BitstreamError) -> Self {
        CoreError::Bitstream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_nonempty() {
        let t = ClbCoord::new(1, 2);
        for e in [
            CoreError::SourceUnused { tile: t, cell: 0 },
            CoreError::DestinationBusy { tile: t, cell: 1 },
            CoreError::RamRelocationUnsupported { tile: t, cell: 2 },
            CoreError::RamColumnHazard { column: 9 },
            CoreError::NoAuxiliarySite { near: t },
            CoreError::DesignMismatch { detail: "x".into() },
            CoreError::UnknownTicket { trace_id: 7 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn load_failures_classify_by_phase() {
        use rtm_fpga::routing::{RouteNode, Wire};
        let r = rtm_fpga::geom::Rect::new(ClbCoord::new(0, 0), 2, 2);
        let node = RouteNode::new(ClbCoord::new(0, 0), Wire::CellOut(0));
        let no_slots: CoreError = rtm_place::PlaceError::NoFit { rows: 4, cols: 4 }.into();
        assert_eq!(
            no_slots.load_failure_reason(),
            LoadFailureReason::NoFreeSlots
        );
        let too_small: CoreError = rtm_sim::SimError::RegionTooSmall {
            cells: 9,
            capacity: 4,
            region: r,
        }
        .into();
        assert_eq!(
            too_small.load_failure_reason(),
            LoadFailureReason::NoFreeSlots
        );
        let unroutable: CoreError = rtm_sim::SimError::Unroutable {
            from: node,
            to: node,
        }
        .into();
        assert_eq!(
            unroutable.load_failure_reason(),
            LoadFailureReason::Unroutable
        );
        let other = CoreError::DesignMismatch { detail: "x".into() };
        assert_eq!(other.load_failure_reason(), LoadFailureReason::Other);
        for reason in [
            LoadFailureReason::NoFreeSlots,
            LoadFailureReason::Unroutable,
            LoadFailureReason::Other,
        ] {
            assert!(!reason.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_preserve_source() {
        use std::error::Error;
        let e: CoreError = rtm_fpga::FpgaError::BadFrameAddress { detail: "d".into() }.into();
        assert!(e.source().is_some());
    }
}
