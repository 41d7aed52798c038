//! The configuration-memory bit image.

use crate::bits::BitVec;
use crate::config::frame::{BlockType, Frame, FrameAddress};
use crate::error::FpgaError;
use crate::part::{Part, FRAMES_CLOCK_COLUMN, FRAMES_PER_CLB_COLUMN, FRAMES_PER_IOB_COLUMN};
use std::collections::BTreeMap;
use std::fmt;

/// The result of writing one frame: which payload bits actually changed.
///
/// The relocation procedure relies on the fact that "rewriting the same
/// configuration data does not generate any transient signals" (paper §2);
/// auditing `changed_bits` against the set of bits a step *intended* to
/// change is how the transparency verifier proves a step is safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameWriteEffect {
    /// The frame that was written.
    pub addr: FrameAddress,
    /// Payload bit positions whose value changed.
    pub changed_bits: Vec<usize>,
}

impl FrameWriteEffect {
    /// True if the write was a pure rewrite (no level changes anywhere).
    pub fn is_transparent_rewrite(&self) -> bool {
        self.changed_bits.is_empty()
    }
}

/// The full configuration memory of one device: a map from frame address
/// to frame payload, all frames initially zero.
///
/// The memory also keeps an undo journal. Once armed by
/// [`ConfigMemory::checkpoint`], it saves a frame's before-image the
/// first time the frame changes after the checkpoint, so the checkpoint
/// stays a complete copy of the configuration ("the program always
/// keeps a complete copy of the current configuration", paper §4)
/// without being recopied. [`ConfigMemory::open_mark`] opens a nested
/// level inside it, and [`ConfigMemory::close_mark`] lists the frames
/// that changed since, in O(frames changed). A memory that is never
/// checkpointed logs only inside open marks. Equality, clones and
/// [`ConfigMemory::snapshot`] ignore the journal.
///
/// ```
/// use rtm_fpga::config::{ConfigMemory, FrameAddress};
/// use rtm_fpga::part::Part;
///
/// # fn main() -> Result<(), rtm_fpga::FpgaError> {
/// let mut mem = ConfigMemory::new(Part::Xcv200);
/// let addr = FrameAddress::clb(0, 0);
/// let mut frame = mem.read_frame(addr)?;
/// frame.set(5, true);
/// let effect = mem.write_frame(addr, frame)?;
/// assert_eq!(effect.changed_bits, vec![5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConfigMemory {
    part: Part,
    // Only frames that have ever been written are stored; absent frames
    // read as all-zero.
    frames: BTreeMap<FrameAddress, Frame>,
    journal: Journal,
}

impl Clone for ConfigMemory {
    /// A copy of the frames with an empty, unarmed journal: the copy is a
    /// new memory that nothing has checkpointed.
    fn clone(&self) -> Self {
        ConfigMemory {
            part: self.part,
            frames: self.frames.clone(),
            journal: Journal::default(),
        }
    }
}

impl PartialEq for ConfigMemory {
    fn eq(&self, other: &Self) -> bool {
        self.part == other.part && self.frames == other.frames
    }
}

impl Eq for ConfigMemory {}

/// An open journal level, returned by [`ConfigMemory::open_mark`] and
/// consumed by [`ConfigMemory::close_mark`]. Marks nest and close
/// innermost first.
#[derive(Debug)]
#[must_use = "a mark must be closed with `close_mark`"]
pub struct JournalMark {
    depth: usize,
}

/// One saved before-image.
struct Undo {
    addr: FrameAddress,
    image: Frame,
    /// The frame's stamp before this image was saved. When the level
    /// folds into its parent, an image whose prior stamp is the parent's
    /// serial is a duplicate: the parent already holds an older one.
    prior: u64,
}

/// The undo log behind the checkpoint and the marks.
///
/// Every level has a serial that is never reused: the checkpoint level's
/// is `base` (zero while unarmed), each open mark's is in `marks`. A
/// frame's stamp is the serial of the level that holds its newest image,
/// so "already saved at this level" is one indexed compare. The log, the
/// marks and the stamps sit behind one box that the first mark or save
/// allocates: arming a memory allocates nothing, and the journal adds
/// four words to every device.
#[derive(Default)]
struct Journal {
    levels: Option<Box<Levels>>,
    base: u64,
    /// The last serial handed out.
    serial: u64,
    /// Images saved over the memory's life.
    saved: u64,
}

#[derive(Default)]
struct Levels {
    /// Saved images, in save order; each open mark owns a suffix.
    log: Vec<Undo>,
    /// Open marks, innermost last: where each starts in `log`, and its
    /// serial.
    marks: Vec<(usize, u64)>,
    /// Per frame, densely indexed; allocated by the first save.
    stamps: Vec<u64>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("images", &self.log().len())
            .field("marks", &self.marks())
            .field("base", &self.base)
            .finish()
    }
}

impl Journal {
    fn log(&self) -> &[Undo] {
        self.levels.as_ref().map_or(&[], |l| &l.log)
    }

    fn marks(&self) -> &[(usize, u64)] {
        self.levels.as_ref().map_or(&[], |l| &l.marks)
    }

    /// The serial of the innermost level; zero when nothing is logged.
    fn level(&self) -> u64 {
        self.marks().last().map_or(self.base, |m| m.1)
    }

    /// Saves `image` as the before-image of the frame at dense index `at`
    /// unless the innermost level already holds one.
    fn save(&mut self, at: usize, frames: usize, addr: FrameAddress, image: &Frame) {
        let level = self.level();
        if level == 0 {
            return;
        }
        let l = self.levels.get_or_insert_with(Box::default);
        if l.stamps.is_empty() {
            l.stamps = vec![0; frames];
        }
        let prior = std::mem::replace(&mut l.stamps[at], level);
        if prior != level {
            l.log.push(Undo {
                addr,
                image: image.clone(),
                prior,
            });
            self.saved += 1;
        }
    }
}

/// Dense index of a validated frame address: the clock column, then the
/// CLB columns, then the two IOB columns.
fn frame_index(part: Part, addr: FrameAddress) -> usize {
    let (first, per_column) = match addr.block {
        BlockType::Clock => (0, FRAMES_CLOCK_COLUMN),
        BlockType::Clb => (usize::from(FRAMES_CLOCK_COLUMN), FRAMES_PER_CLB_COLUMN),
        BlockType::Iob => (
            usize::from(FRAMES_CLOCK_COLUMN)
                + usize::from(part.clb_cols()) * usize::from(FRAMES_PER_CLB_COLUMN),
            FRAMES_PER_IOB_COLUMN,
        ),
    };
    first + usize::from(addr.major) * usize::from(per_column) + usize::from(addr.minor)
}

impl ConfigMemory {
    /// An all-zero configuration memory for `part`.
    pub fn new(part: Part) -> Self {
        ConfigMemory {
            part,
            frames: BTreeMap::new(),
            journal: Journal::default(),
        }
    }

    /// The device this memory belongs to.
    pub fn part(&self) -> Part {
        self.part
    }

    /// Frame payload length in bits.
    pub fn frame_len(&self) -> usize {
        self.part.frame_payload_bits()
    }

    /// Validates that `addr` exists on this part.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] if the column or minor index
    /// is out of range.
    pub fn validate_addr(&self, addr: FrameAddress) -> Result<(), FpgaError> {
        let ok = match addr.block {
            BlockType::Clb => {
                addr.major < self.part.clb_cols() && addr.minor < FRAMES_PER_CLB_COLUMN
            }
            BlockType::Iob => addr.major < 2 && addr.minor < FRAMES_PER_IOB_COLUMN,
            BlockType::Clock => addr.major == 0 && addr.minor < FRAMES_CLOCK_COLUMN,
        };
        if ok {
            Ok(())
        } else {
            Err(FpgaError::BadFrameAddress {
                detail: format!("{addr} on {}", self.part),
            })
        }
    }

    /// Reads a frame (readback).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    pub fn read_frame(&self, addr: FrameAddress) -> Result<Frame, FpgaError> {
        self.validate_addr(addr)?;
        Ok(self
            .frames
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| Frame::zeros(self.frame_len())))
    }

    /// Writes a frame, returning which bits changed.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part and [`FpgaError::FrameLengthMismatch`] if the payload length is
    /// wrong.
    pub fn write_frame(
        &mut self,
        addr: FrameAddress,
        frame: Frame,
    ) -> Result<FrameWriteEffect, FpgaError> {
        self.validate_addr(addr)?;
        if frame.len() != self.frame_len() {
            return Err(FpgaError::FrameLengthMismatch {
                expected: self.frame_len(),
                actual: frame.len(),
            });
        }
        let old = self.read_frame(addr)?;
        let changed_bits = old.diff(&frame);
        if !changed_bits.is_empty() {
            let at = frame_index(self.part, addr);
            let frames = self.part.total_frames() as usize;
            self.journal.save(at, frames, addr, &old);
        }
        self.frames.insert(addr, frame);
        Ok(FrameWriteEffect { addr, changed_bits })
    }

    /// Reads one bit of one frame.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    ///
    /// # Panics
    ///
    /// Panics if `bit` exceeds the frame length.
    pub fn get_bit(&self, addr: FrameAddress, bit: usize) -> Result<bool, FpgaError> {
        Ok(self.read_frame(addr)?.get(bit))
    }

    /// Sets one bit of one frame, returning whether the value changed.
    ///
    /// Note: on real hardware this still costs a whole-frame write; the
    /// cost model accounts frames, not bits.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    ///
    /// # Panics
    ///
    /// Panics if `bit` exceeds the frame length.
    pub fn set_bit(
        &mut self,
        addr: FrameAddress,
        bit: usize,
        value: bool,
    ) -> Result<bool, FpgaError> {
        self.validate_addr(addr)?;
        let len = self.frame_len();
        let at = frame_index(self.part, addr);
        let frames = self.part.total_frames() as usize;
        let frame = self.frames.entry(addr).or_insert_with(|| Frame::zeros(len));
        if frame.get(bit) == value {
            return Ok(false);
        }
        self.journal.save(at, frames, addr, frame);
        frame.set(bit, value);
        Ok(true)
    }

    /// All frame addresses that currently differ from `other`.
    ///
    /// This is the primitive behind partial-bitstream generation: the tool
    /// writes exactly these frames.
    pub fn diff_frames(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        let mut out = Vec::new();
        let zero = Frame::zeros(self.frame_len());
        let mut addrs: Vec<FrameAddress> = self
            .frames
            .keys()
            .chain(other.frames.keys())
            .copied()
            .collect();
        addrs.sort();
        addrs.dedup();
        for addr in addrs {
            let a = self.frames.get(&addr).unwrap_or(&zero);
            let b = other.frames.get(&addr).unwrap_or(&zero);
            if a != b {
                out.push(addr);
            }
        }
        out
    }

    /// Number of frames that have been written at least once.
    pub fn touched_frames(&self) -> usize {
        self.frames.len()
    }

    /// A full copy of the frames, without the journal: the baseline a
    /// partial bitstream or a JBits session diffs against. The §4
    /// recovery copy is the journal's checkpoint level, not a snapshot.
    pub fn snapshot(&self) -> ConfigMemory {
        self.clone()
    }

    /// Makes the current contents the recovery checkpoint: drops every
    /// saved image and arms the journal, so from here on each frame's
    /// first change saves its before-image. Meant for a memory with no
    /// open mark; any that is open is dropped with its images.
    pub fn checkpoint(&mut self) {
        let j = &mut self.journal;
        if let Some(l) = j.levels.as_mut() {
            debug_assert!(l.marks.is_empty(), "checkpoint inside a mark");
            l.marks.clear();
            l.log.clear();
        }
        j.serial += 1;
        j.base = j.serial;
    }

    /// Opens a journal level nested in the current one. Until it is
    /// closed, each frame's first change saves its before-image there,
    /// on an unarmed memory too.
    pub fn open_mark(&mut self) -> JournalMark {
        let j = &mut self.journal;
        j.serial += 1;
        let l = j.levels.get_or_insert_with(Box::default);
        l.marks.push((l.log.len(), j.serial));
        JournalMark {
            depth: l.marks.len(),
        }
    }

    /// Closes the innermost mark and returns the frames that differ from
    /// their content when it was opened, in address order: the list
    /// [`ConfigMemory::diff_frames`] against a snapshot taken at
    /// [`ConfigMemory::open_mark`] would return. The level's images fold
    /// into the enclosing level, which keeps its own older image of a
    /// frame both saved; with no enclosing level (the outermost mark of
    /// an unarmed memory) they are dropped.
    pub fn close_mark(&mut self, mark: JournalMark) -> Vec<FrameAddress> {
        debug_assert_eq!(
            mark.depth,
            self.journal.marks().len(),
            "marks close innermost first"
        );
        let Some((start, _)) = self.journal.levels.as_mut().and_then(|l| l.marks.pop()) else {
            return Vec::new();
        };
        let changed = self.changed_since(start).map(|(addr, _)| addr).collect();
        let part = self.part;
        let parent = self.journal.level();
        let Some(l) = self.journal.levels.as_mut() else {
            return changed;
        };
        if parent == 0 {
            l.log.truncate(start);
            return changed;
        }
        let mut kept = start;
        for i in start..l.log.len() {
            let (addr, prior) = (l.log[i].addr, l.log[i].prior);
            l.stamps[frame_index(part, addr)] = parent;
            if prior != parent {
                l.log.swap(kept, i);
                kept += 1;
            }
        }
        l.log.truncate(kept);
        changed
    }

    /// Before-images the journal has saved over this memory's life, at
    /// every level. An image folded into an enclosing level was saved
    /// once. A clone starts from zero.
    pub fn images_saved(&self) -> u64 {
        self.journal.saved
    }

    /// The frames that changed since `mark` was opened, with their
    /// content at that point, in address order: what writing back undoes
    /// the level.
    pub fn undo_records(&self, mark: &JournalMark) -> Vec<(FrameAddress, Frame)> {
        match self.journal.marks().get(mark.depth - 1) {
            Some(&(start, _)) => self.owned_changes(start),
            None => Vec::new(),
        }
    }

    /// The frames that changed since the last
    /// [`ConfigMemory::checkpoint`], with their checkpointed content, in
    /// address order (empty on an unarmed memory).
    pub fn checkpoint_records(&self) -> Vec<(FrameAddress, Frame)> {
        self.owned_changes(0)
    }

    fn owned_changes(&self, start: usize) -> Vec<(FrameAddress, Frame)> {
        self.changed_since(start)
            .map(|(addr, image)| (addr, image.clone()))
            .collect()
    }

    /// The frames logged from `start` on whose content now differs from
    /// their oldest image there, in address order with that image.
    fn changed_since(&self, start: usize) -> impl Iterator<Item = (FrameAddress, &Frame)> {
        let mut logged: Vec<(FrameAddress, &Frame)> = self.journal.log()[start..]
            .iter()
            .map(|u| (u.addr, &u.image))
            .collect();
        // Stable: an enclosing level's image precedes a nested one's.
        logged.sort_by_key(|(addr, _)| *addr);
        logged.dedup_by_key(|(addr, _)| *addr);
        // Every saved frame is in the map: each save comes with a write.
        logged
            .into_iter()
            .filter(|(addr, image)| self.frames.get(addr) != Some(*image))
    }

    /// Packs every non-zero frame as address + payload words (a trivial
    /// serialisation used by the recovery file format).
    pub fn dump(&self) -> Vec<(FrameAddress, Vec<u32>)> {
        self.frames
            .iter()
            .map(|(addr, frame)| (*addr, frame.as_bits().to_config_words()))
            .collect()
    }

    /// Rebuilds a memory from [`ConfigMemory::dump`] output.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] if a dumped address does not
    /// exist on `part`.
    pub fn restore(part: Part, dump: &[(FrameAddress, Vec<u32>)]) -> Result<Self, FpgaError> {
        let mut mem = ConfigMemory::new(part);
        for (addr, words) in dump {
            let bits = BitVec::from_config_words(words, mem.frame_len());
            mem.write_frame(*addr, Frame::from_bits(bits))?;
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_frames_read_zero() {
        let mem = ConfigMemory::new(Part::Xcv50);
        let f = mem.read_frame(FrameAddress::clb(3, 7)).unwrap();
        assert_eq!(f.as_bits().count_ones(), 0);
        assert_eq!(f.len(), Part::Xcv50.frame_payload_bits());
    }

    #[test]
    fn write_reports_changed_bits_only() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::clb(0, 0);
        let mut f = mem.read_frame(addr).unwrap();
        f.set(1, true);
        f.set(100, true);
        let e1 = mem.write_frame(addr, f.clone()).unwrap();
        assert_eq!(e1.changed_bits, vec![1, 100]);
        // Rewriting identical data: zero transients.
        let e2 = mem.write_frame(addr, f).unwrap();
        assert!(e2.is_transparent_rewrite());
    }

    #[test]
    fn bad_addresses_rejected() {
        let mem = ConfigMemory::new(Part::Xcv50);
        assert!(mem.read_frame(FrameAddress::clb(24, 0)).is_err());
        assert!(mem.read_frame(FrameAddress::clb(0, 48)).is_err());
        assert!(mem.read_frame(FrameAddress::iob(2, 0)).is_err());
        assert!(mem.read_frame(FrameAddress::clock(8)).is_err());
        assert!(mem.read_frame(FrameAddress::clock(7)).is_ok());
    }

    #[test]
    fn wrong_frame_length_rejected() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let err = mem
            .write_frame(FrameAddress::clb(0, 0), Frame::zeros(10))
            .unwrap_err();
        assert!(matches!(err, FpgaError::FrameLengthMismatch { .. }));
    }

    #[test]
    fn set_bit_reports_change() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::clb(1, 1);
        assert!(mem.set_bit(addr, 9, true).unwrap());
        assert!(!mem.set_bit(addr, 9, true).unwrap());
        assert!(mem.get_bit(addr, 9).unwrap());
    }

    #[test]
    fn diff_frames_finds_exactly_differences() {
        let mut a = ConfigMemory::new(Part::Xcv50);
        let mut b = ConfigMemory::new(Part::Xcv50);
        a.set_bit(FrameAddress::clb(2, 3), 0, true).unwrap();
        b.set_bit(FrameAddress::clb(2, 3), 0, true).unwrap();
        a.set_bit(FrameAddress::clb(5, 1), 4, true).unwrap();
        b.set_bit(FrameAddress::clock(2), 8, true).unwrap();
        let d = a.diff_frames(&b);
        assert_eq!(d, vec![FrameAddress::clock(2), FrameAddress::clb(5, 1)]);
        assert_eq!(a.diff_frames(&a.clone()), vec![]);
    }

    fn flip(mem: &mut ConfigMemory, addr: FrameAddress, bit: usize) {
        let v = mem.get_bit(addr, bit).unwrap();
        mem.set_bit(addr, bit, !v).unwrap();
    }

    #[test]
    fn close_mark_lists_exactly_the_changed_frames() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        mem.set_bit(FrameAddress::clb(4, 4), 1, true).unwrap();
        let before = mem.snapshot();
        let mark = mem.open_mark();
        flip(&mut mem, FrameAddress::iob(1, 3), 7);
        flip(&mut mem, FrameAddress::clb(4, 4), 1);
        flip(&mut mem, FrameAddress::clb(4, 4), 2);
        flip(&mut mem, FrameAddress::clock(5), 0);
        // Changed and changed back: not listed.
        flip(&mut mem, FrameAddress::clb(9, 0), 3);
        flip(&mut mem, FrameAddress::clb(9, 0), 3);
        let changed = mem.close_mark(mark);
        assert_eq!(changed, mem.diff_frames(&before));
        assert_eq!(
            changed,
            vec![
                FrameAddress::clock(5),
                FrameAddress::clb(4, 4),
                FrameAddress::iob(1, 3)
            ]
        );
    }

    #[test]
    fn a_write_that_changes_no_bit_logs_nothing() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::clb(2, 2);
        mem.set_bit(addr, 5, true).unwrap();
        mem.checkpoint();
        assert!(!mem.set_bit(addr, 5, true).unwrap());
        assert!(!mem.set_bit(FrameAddress::clb(3, 3), 0, false).unwrap());
        let same = mem.read_frame(addr).unwrap();
        assert!(mem
            .write_frame(addr, same)
            .unwrap()
            .is_transparent_rewrite());
        assert!(
            mem.journal.levels.is_none(),
            "nothing saved, nothing allocated"
        );
        assert!(mem.checkpoint_records().is_empty());
    }

    #[test]
    fn a_folded_mark_keeps_the_parents_older_image() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let (a, b) = (FrameAddress::clb(1, 1), FrameAddress::clb(1, 2));
        mem.checkpoint();
        let at_checkpoint = mem.snapshot();
        flip(&mut mem, a, 0);
        let outer = mem.open_mark();
        let at_outer = mem.snapshot();
        flip(&mut mem, b, 0);
        let inner = mem.open_mark();
        flip(&mut mem, a, 1);
        flip(&mut mem, b, 1);
        assert_eq!(mem.undo_records(&inner).len(), 2);
        assert_eq!(mem.close_mark(inner), vec![a, b]);
        // The outer level kept its own image of `b`, taken before the
        // inner mark opened, and gained the inner level's image of `a`.
        let undo = mem.undo_records(&outer);
        assert_eq!(undo.len(), 2);
        for (addr, image) in &undo {
            assert_eq!(*image, at_outer.read_frame(*addr).unwrap());
        }
        assert_eq!(mem.close_mark(outer), mem.diff_frames(&at_outer));
        // The checkpoint level kept its image of `a`, older than both.
        let records = mem.checkpoint_records();
        assert_eq!(records.len(), 2);
        for (addr, image) in &records {
            assert_eq!(*image, at_checkpoint.read_frame(*addr).unwrap());
        }
        assert_eq!(mem.journal.log().len(), 2, "one image per frame per level");
        // Saved: `a` at the checkpoint, `b` at the outer mark, both at
        // the inner mark; folding copied nothing.
        assert_eq!(mem.images_saved(), 4);
    }

    #[test]
    fn closing_the_outermost_mark_of_an_unarmed_memory_drops_its_log() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        flip(&mut mem, FrameAddress::clb(0, 0), 0);
        assert!(mem.journal.levels.is_none(), "unarmed: no mark, no log");
        let outer = mem.open_mark();
        let inner = mem.open_mark();
        flip(&mut mem, FrameAddress::clb(0, 1), 0);
        assert_eq!(mem.close_mark(inner), vec![FrameAddress::clb(0, 1)]);
        assert_eq!(
            mem.journal.log().len(),
            1,
            "folded into the open outer mark"
        );
        flip(&mut mem, FrameAddress::clb(0, 1), 1);
        assert_eq!(mem.close_mark(outer), vec![FrameAddress::clb(0, 1)]);
        assert!(mem.journal.log().is_empty());
        assert!(mem.journal.marks().is_empty());
        assert!(mem.checkpoint_records().is_empty());
        // A later mark starts from scratch.
        let again = mem.open_mark();
        flip(&mut mem, FrameAddress::clb(0, 1), 1);
        assert_eq!(mem.close_mark(again), vec![FrameAddress::clb(0, 1)]);
    }

    #[test]
    fn equality_clones_and_snapshots_ignore_the_journal() {
        let mut armed = ConfigMemory::new(Part::Xcv50);
        armed.checkpoint();
        let plain = armed.snapshot();
        flip(&mut armed, FrameAddress::clb(6, 6), 4);
        let mut plain_copy = plain.clone();
        flip(&mut plain_copy, FrameAddress::clb(6, 6), 4);
        assert!(!armed.journal.log().is_empty());
        assert_eq!(armed, plain_copy, "same frames, different journals");
        for copy in [armed.snapshot(), armed.clone()] {
            assert_eq!(copy, armed);
            assert!(copy.journal.levels.is_none() && copy.journal.base == 0);
            assert!(copy.checkpoint_records().is_empty());
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut mem = ConfigMemory::new(Part::Xcv100);
        mem.set_bit(FrameAddress::clb(7, 11), 33, true).unwrap();
        mem.set_bit(FrameAddress::iob(1, 20), 2, true).unwrap();
        let dump = mem.dump();
        let back = ConfigMemory::restore(Part::Xcv100, &dump).unwrap();
        assert_eq!(back, mem);
        assert!(back.snapshot().diff_frames(&mem).is_empty());
    }
}
