//! Virtex family geometry tables.
//!
//! Frame counts follow the published Virtex configuration architecture:
//! 48 frames per CLB column, 18 configuration bits contributed per CLB row
//! per frame; frame payloads are padded to 32-bit configuration words.
//! The XCV200 (28×42 CLBs) is the part used in the paper's experiments.

use std::fmt;

/// Frames in one CLB configuration column.
pub const FRAMES_PER_CLB_COLUMN: u16 = 48;
/// Configuration bits each frame contributes to one CLB row.
pub const BITS_PER_ROW_PER_FRAME: usize = 18;
/// Frames in the centre (clock) column.
pub const FRAMES_CLOCK_COLUMN: u16 = 8;
/// Frames in each IOB column (two per device, left and right edges).
pub const FRAMES_PER_IOB_COLUMN: u16 = 54;

/// A member of the Virtex device family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Part {
    /// 16×24 CLBs.
    Xcv50,
    /// 20×30 CLBs.
    Xcv100,
    /// 28×42 CLBs — the device used in the paper.
    Xcv200,
    /// 32×48 CLBs.
    Xcv300,
    /// 40×60 CLBs.
    Xcv400,
    /// 56×84 CLBs.
    Xcv800,
    /// 64×96 CLBs.
    Xcv1000,
}

impl Part {
    /// All parts, smallest first.
    pub const ALL: [Part; 7] = [
        Part::Xcv50,
        Part::Xcv100,
        Part::Xcv200,
        Part::Xcv300,
        Part::Xcv400,
        Part::Xcv800,
        Part::Xcv1000,
    ];

    /// CLB rows.
    pub fn clb_rows(self) -> u16 {
        match self {
            Part::Xcv50 => 16,
            Part::Xcv100 => 20,
            Part::Xcv200 => 28,
            Part::Xcv300 => 32,
            Part::Xcv400 => 40,
            Part::Xcv800 => 56,
            Part::Xcv1000 => 64,
        }
    }

    /// CLB columns.
    pub fn clb_cols(self) -> u16 {
        match self {
            Part::Xcv50 => 24,
            Part::Xcv100 => 30,
            Part::Xcv200 => 42,
            Part::Xcv300 => 48,
            Part::Xcv400 => 60,
            Part::Xcv800 => 84,
            Part::Xcv1000 => 96,
        }
    }

    /// True when a `rows`×`cols` function fits this part's CLB array.
    pub fn holds(self, rows: u16, cols: u16) -> bool {
        rows <= self.clb_rows() && cols <= self.clb_cols()
    }

    /// Total CLBs.
    pub fn clb_count(self) -> u32 {
        self.clb_rows() as u32 * self.clb_cols() as u32
    }

    /// Logic cells (four per CLB).
    pub fn cell_count(self) -> u32 {
        self.clb_count() * 4
    }

    /// Payload bits of one frame (before word padding): 18 bits per CLB row
    /// plus one 18-bit pad group at the top and bottom for the IOB rows.
    pub fn frame_payload_bits(self) -> usize {
        BITS_PER_ROW_PER_FRAME * (self.clb_rows() as usize + 2)
    }

    /// Frame length in 32-bit configuration words (padded).
    pub fn frame_words(self) -> usize {
        self.frame_payload_bits().div_ceil(32)
    }

    /// Frame length in bits as shifted through the configuration port.
    pub fn frame_shift_bits(self) -> usize {
        self.frame_words() * 32
    }

    /// Total frames on the device: CLB columns + 2 IOB columns + clock
    /// column.
    pub fn total_frames(self) -> u32 {
        self.clb_cols() as u32 * FRAMES_PER_CLB_COLUMN as u32
            + 2 * FRAMES_PER_IOB_COLUMN as u32
            + FRAMES_CLOCK_COLUMN as u32
    }

    /// Approximate full-configuration size in bits (frames × padded length).
    pub fn config_size_bits(self) -> u64 {
        self.total_frames() as u64 * self.frame_shift_bits() as u64
    }

    /// The JEDEC-style IDCODE used by the boundary-scan model.
    pub fn idcode(self) -> u32 {
        // Family 0x003 (Virtex), size code = index, manufacturer 0x049
        // (Xilinx), LSB always 1 per IEEE 1149.1.
        let size = Part::ALL.iter().position(|p| *p == self).unwrap() as u32 + 1;
        (0x3 << 28) | (size << 21) | (0x049 << 1) | 1
    }
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Part::Xcv50 => "XCV50",
            Part::Xcv100 => "XCV100",
            Part::Xcv200 => "XCV200",
            Part::Xcv300 => "XCV300",
            Part::Xcv400 => "XCV400",
            Part::Xcv800 => "XCV800",
            Part::Xcv1000 => "XCV1000",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcv200_geometry_matches_paper_device() {
        let p = Part::Xcv200;
        assert_eq!(p.clb_rows(), 28);
        assert_eq!(p.clb_cols(), 42);
        assert_eq!(p.clb_count(), 1176);
        assert_eq!(p.cell_count(), 4704);
    }

    #[test]
    fn holds_its_own_clb_array_and_nothing_larger() {
        for p in Part::ALL {
            let (rows, cols) = (p.clb_rows(), p.clb_cols());
            assert!(p.holds(rows, cols), "{p}");
            assert!(!p.holds(rows + 1, cols), "{p}");
            assert!(!p.holds(rows, cols + 1), "{p}");
        }
    }

    #[test]
    fn frame_lengths_grow_with_rows() {
        let mut prev = 0;
        for p in Part::ALL {
            let bits = p.frame_payload_bits();
            assert!(bits > prev, "{p} frame bits must grow");
            prev = bits;
            assert!(p.frame_shift_bits() >= bits);
            assert_eq!(p.frame_shift_bits() % 32, 0);
        }
    }

    #[test]
    fn xcv200_frame_words() {
        // 18 * (28 + 2) = 540 bits -> 17 words.
        assert_eq!(Part::Xcv200.frame_payload_bits(), 540);
        assert_eq!(Part::Xcv200.frame_words(), 17);
    }

    #[test]
    fn total_frames_count() {
        // 42 * 48 + 2 * 54 + 8 = 2132 for XCV200.
        assert_eq!(Part::Xcv200.total_frames(), 2132);
    }

    #[test]
    fn idcodes_distinct_and_lsb_set() {
        let mut seen = std::collections::HashSet::new();
        for p in Part::ALL {
            let id = p.idcode();
            assert_eq!(id & 1, 1, "IEEE 1149.1 requires IDCODE LSB = 1");
            assert!(seen.insert(id), "duplicate idcode for {p}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Part::Xcv200.to_string(), "XCV200");
    }
}
