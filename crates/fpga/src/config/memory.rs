//! The configuration-memory bit image.

use crate::bits::{diff_words, set_positions, BitVec};
use crate::config::frame::{BlockType, Frame, FrameAddress};
use crate::error::FpgaError;
use crate::part::{Part, FRAMES_CLOCK_COLUMN, FRAMES_PER_CLB_COLUMN, FRAMES_PER_IOB_COLUMN};
use std::fmt;

/// What an unwritten frame reads as: the words of the widest frame of
/// any part (the XCV1000's 1,188 bits).
const ZERO_FRAME: [u64; 19] = [0; 19];

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

/// The full configuration memory of one device, all frames initially
/// zero.
///
/// The frames are one flat vector of 64-bit words: each frame's payload,
/// LSB-first and rounded up to whole words, at the frame's dense index
/// (the clock column, then the CLB columns, then the two IOB columns,
/// which is address order). The journal's per-frame stamps use the same
/// index. The first write that changes a bit allocates the vector; until
/// then every frame reads zero with no storage behind it. Equality
/// compares content: a frame written and set back to zero equals one
/// never written.
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
pub struct ConfigMemory {
    part: Part,
    /// Words per frame.
    stride: usize,
    /// Frame `i` at `i * stride..(i + 1) * stride`; empty until the
    /// first change.
    words: Vec<u64>,
    journal: Journal,
}

impl fmt::Debug for ConfigMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self
            .words
            .chunks(self.stride)
            .filter(|frame| frame.iter().any(|w| *w != 0))
            .count();
        f.debug_struct("ConfigMemory")
            .field("part", &self.part)
            .field("nonzero_frames", &nonzero)
            .field("journal", &self.journal)
            .finish()
    }
}

impl Clone for ConfigMemory {
    /// A copy of the frames with an empty, unarmed journal: the copy is a
    /// new memory that nothing has checkpointed.
    fn clone(&self) -> Self {
        ConfigMemory {
            part: self.part,
            stride: self.stride,
            words: self.words.clone(),
            journal: Journal::default(),
        }
    }
}

impl PartialEq for ConfigMemory {
    fn eq(&self, other: &Self) -> bool {
        let zero = |words: &[u64]| words.iter().all(|w| *w == 0);
        self.part == other.part
            && if self.words.is_empty() || other.words.is_empty() {
                zero(&self.words) && zero(&other.words)
            } else {
                self.words == other.words
            }
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

    /// Saves the before-image of the frame at dense index `at`, built by
    /// `image`, unless the innermost level already holds one.
    fn save(
        &mut self,
        at: usize,
        frames: usize,
        addr: FrameAddress,
        image: impl FnOnce() -> Frame,
    ) {
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
                image: image(),
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

/// Every frame address of `part`, in dense-index order, which is also
/// address order.
fn frame_addresses(part: Part) -> impl Iterator<Item = FrameAddress> {
    let clb = (0..part.clb_cols()).flat_map(|major| {
        (0..FRAMES_PER_CLB_COLUMN).map(move |minor| FrameAddress::clb(major, minor))
    });
    let iob = (0..2).flat_map(|major| {
        (0..FRAMES_PER_IOB_COLUMN).map(move |minor| FrameAddress::iob(major, minor))
    });
    (0..FRAMES_CLOCK_COLUMN)
        .map(FrameAddress::clock)
        .chain(clb)
        .chain(iob)
}

impl ConfigMemory {
    /// An all-zero configuration memory for `part`.
    pub fn new(part: Part) -> Self {
        let stride = part.frame_payload_bits().div_ceil(64);
        debug_assert!(stride <= ZERO_FRAME.len(), "{part} frames are wider");
        ConfigMemory {
            part,
            stride,
            words: Vec::new(),
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

    /// The words of the frame at dense index `at`.
    fn words_at(&self, at: usize) -> &[u64] {
        let s = self.stride;
        self.words
            .get(at * s..(at + 1) * s)
            .unwrap_or(&ZERO_FRAME[..s])
    }

    /// The words of the frame at dense index `at`, for a write that
    /// changes them: allocates the store on the first one and saves the
    /// frame's before-image unless the innermost level holds one.
    fn words_to_change(&mut self, at: usize, addr: FrameAddress) -> &mut [u64] {
        let (s, len) = (self.stride, self.frame_len());
        let frames = self.part.total_frames() as usize;
        if self.words.is_empty() {
            self.words = vec![0; frames * s];
        }
        let words = &mut self.words[at * s..(at + 1) * s];
        self.journal.save(at, frames, addr, || {
            Frame::from_bits(BitVec::from_words(len, words))
        });
        words
    }

    fn frame_at(&self, at: usize) -> Frame {
        Frame::from_bits(BitVec::from_words(self.frame_len(), self.words_at(at)))
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
        Ok(self.frame_at(frame_index(self.part, addr)))
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
        let at = frame_index(self.part, addr);
        let new = frame.as_bits().words();
        let changed_bits = diff_words(self.words_at(at), new);
        if !changed_bits.is_empty() {
            self.words_to_change(at, addr).copy_from_slice(new);
        }
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
        self.validate_addr(addr)?;
        let len = self.frame_len();
        assert!(bit < len, "bit index {bit} out of range {len}");
        let word = self.words_at(frame_index(self.part, addr))[bit / 64];
        Ok((word >> (bit % 64)) & 1 == 1)
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
        self.write_bits(addr, bit, 1, u64::from(value))
    }

    /// Sets `n ≤ 64` consecutive bits of one frame, from `offset` on, to
    /// the low `n` bits of `value`, returning whether any bit changed:
    /// one address check, one lookup and at most one journal save for
    /// the run.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or the run passes the frame's end.
    pub(crate) fn write_bits(
        &mut self,
        addr: FrameAddress,
        offset: usize,
        n: usize,
        value: u64,
    ) -> Result<bool, FpgaError> {
        self.validate_addr(addr)?;
        let len = self.frame_len();
        assert!(
            n <= 64 && offset + n <= len,
            "bit index {} out of range {len}",
            offset + n - 1
        );
        let mask = if n == 64 { u64::MAX } else { (1 << n) - 1 };
        let (w, shift) = (offset / 64, offset % 64);
        let value = value & mask;
        // The run's share of each word it covers, as (word, mask, bits):
        // the second share is empty unless the run crosses into the next
        // word.
        let spill = |x: u64| x.checked_shr(64 - shift as u32).unwrap_or(0);
        let shares = [
            (w, mask << shift, value << shift),
            (w + 1, spill(mask), spill(value)),
        ];
        let shares = shares.iter().filter(|share| share.1 != 0);
        let at = frame_index(self.part, addr);
        let current = self.words_at(at);
        if shares.clone().all(|&(i, m, v)| current[i] & m == v) {
            return Ok(false);
        }
        let words = self.words_to_change(at, addr);
        for &(i, m, v) in shares {
            words[i] = (words[i] & !m) | v;
        }
        Ok(true)
    }

    /// Every set bit, as its frame and bit position, in address order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = (FrameAddress, usize)> + '_ {
        frame_addresses(self.part)
            .zip(self.words.chunks(self.stride))
            .flat_map(|(addr, words)| set_positions(words.iter().copied()).map(move |b| (addr, b)))
    }

    /// All frame addresses whose content differs from `other`'s, a
    /// memory of the same part.
    ///
    /// This is the primitive behind partial-bitstream generation: the tool
    /// writes exactly these frames.
    pub fn diff_frames(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        frame_addresses(self.part)
            .enumerate()
            .filter(|&(at, _)| self.words_at(at) != other.words_at(at))
            .map(|(_, addr)| addr)
            .collect()
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
        logged.into_iter().filter(|(addr, image)| {
            self.words_at(frame_index(self.part, *addr)) != image.as_bits().words()
        })
    }

    /// Packs every non-zero frame as address + payload words (a trivial
    /// serialisation used by the recovery file format).
    pub fn dump(&self) -> Vec<(FrameAddress, Vec<u32>)> {
        frame_addresses(self.part)
            .enumerate()
            .filter(|&(at, _)| self.words_at(at).iter().any(|w| *w != 0))
            .map(|(at, addr)| (addr, self.frame_at(at).as_bits().to_config_words()))
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    #[test]
    fn equality_and_dump_see_content_not_writes() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::clb(3, 3);
        mem.set_bit(addr, 7, true).unwrap();
        mem.set_bit(addr, 7, false).unwrap();
        let blank = ConfigMemory::new(Part::Xcv50);
        assert!(mem.diff_frames(&blank).is_empty());
        assert_eq!(
            mem, blank,
            "a frame set back to zero equals an unwritten one"
        );
        assert_eq!(blank, mem);
        assert!(mem.dump().is_empty(), "no non-zero frame to pack");
    }

    #[test]
    fn the_store_is_allocated_by_the_first_change() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::iob(1, 53);
        assert!(!mem.set_bit(addr, 0, false).unwrap());
        let zeros = Frame::zeros(mem.frame_len());
        assert!(mem
            .write_frame(addr, zeros)
            .unwrap()
            .is_transparent_rewrite());
        assert!(mem.words.is_empty(), "nothing changed, nothing stored");
        assert!(mem.set_bit(addr, 323, true).unwrap());
        assert_eq!(mem.words.len(), 1268 * 6, "XCV50: 1,268 frames of 6 words");
        assert_eq!(mem.ones().collect::<Vec<_>>(), vec![(addr, 323)]);
    }

    #[test]
    fn frame_addresses_follow_the_dense_index() {
        for part in Part::ALL {
            let addrs: Vec<FrameAddress> = frame_addresses(part).collect();
            assert_eq!(addrs.len(), part.total_frames() as usize, "{part}");
            for (at, addr) in addrs.iter().enumerate() {
                assert!(ConfigMemory::new(part).validate_addr(*addr).is_ok());
                assert_eq!(frame_index(part, *addr), at, "{addr} on {part}");
            }
            assert!(addrs.windows(2).all(|w| w[0] < w[1]), "address order");
            assert!(part.frame_payload_bits().div_ceil(64) <= ZERO_FRAME.len());
        }
    }

    #[test]
    fn a_run_write_crosses_a_word_boundary() {
        let mut mem = ConfigMemory::new(Part::Xcv100);
        let addr = FrameAddress::clb(2, 5);
        // Bits 54..72: ten in word 0, eight in word 1.
        assert!(mem
            .write_bits(addr, 54, 18, 0b11_0000_0000_0000_0101)
            .unwrap());
        let ones: Vec<usize> = mem.ones().map(|(_, bit)| bit).collect();
        assert_eq!(ones, vec![54, 56, 70, 71]);
        assert!(!mem
            .write_bits(addr, 54, 18, 0b11_0000_0000_0000_0101)
            .unwrap());
        // Only the run's bits: its neighbours stay put.
        mem.set_bit(addr, 53, true).unwrap();
        mem.set_bit(addr, 72, true).unwrap();
        assert!(mem.write_bits(addr, 54, 18, 0).unwrap());
        let ones: Vec<usize> = mem.ones().map(|(_, bit)| bit).collect();
        assert_eq!(ones, vec![53, 72]);
        // The frame's last bit.
        assert!(mem.write_bits(addr, 390, 6, u64::MAX).unwrap());
        assert!(mem.get_bit(addr, 395).unwrap());
    }

    /// Frames as the twin's model holds them: absent frames read zero.
    type Frames = BTreeMap<FrameAddress, Frame>;

    /// The twin's model of a memory: a map of written frames, a copy of
    /// it at the checkpoint (`None` while unarmed) and at each open mark,
    /// and per level the frames that level has saved an image of.
    struct Model {
        len: usize,
        frames: Frames,
        checkpoint: Option<(Frames, BTreeSet<FrameAddress>)>,
        marks: Vec<(Frames, BTreeSet<FrameAddress>, JournalMark)>,
        saved: u64,
    }

    impl Model {
        fn read(&self, frames: &Frames, addr: FrameAddress) -> Frame {
            frames
                .get(&addr)
                .cloned()
                .unwrap_or_else(|| Frame::zeros(self.len))
        }

        fn diff(&self, a: &Frames, b: &Frames) -> Vec<FrameAddress> {
            let addrs: BTreeSet<FrameAddress> = a.keys().chain(b.keys()).copied().collect();
            addrs
                .into_iter()
                .filter(|addr| self.read(a, *addr) != self.read(b, *addr))
                .collect()
        }

        /// The frames that differ from `then`, with their content there.
        fn records(&self, then: &Frames) -> Vec<(FrameAddress, Frame)> {
            let changed = self.diff(&self.frames, then);
            changed
                .into_iter()
                .map(|a| (a, self.read(then, a)))
                .collect()
        }

        /// The innermost level's saved frames.
        fn level(&mut self) -> Option<&mut BTreeSet<FrameAddress>> {
            match self.marks.last_mut() {
                Some(mark) => Some(&mut mark.1),
                None => self.checkpoint.as_mut().map(|c| &mut c.1),
            }
        }

        fn write(&mut self, addr: FrameAddress, frame: Frame) {
            if self.read(&self.frames, addr) != frame
                && self.level().is_some_and(|saved| saved.insert(addr))
            {
                self.saved += 1;
            }
            self.frames.insert(addr, frame);
        }

        fn dump(&self) -> Vec<(FrameAddress, Vec<u32>)> {
            self.frames
                .iter()
                .filter(|(_, frame)| frame.as_bits().count_ones() > 0)
                .map(|(addr, frame)| (*addr, frame.as_bits().to_config_words()))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 24 } else { 1500 }))]
        /// The dense store answers as a map of written frames does,
        /// through random bit and frame writes, checkpoints, nested
        /// marks and write-backs of their records, on the XCV50 (324-bit
        /// frames) and the XCV100 (396-bit frames), at bits 0, 63, 64,
        /// the last and one anywhere.
        #[test]
        fn dense_store_matches_a_frame_map(
            xcv100 in any::<bool>(),
            ops in proptest::collection::vec((0u8..8, 0u8..7, 0usize..5, any::<u16>(), any::<bool>()), 0..48),
        ) {
            let part = if xcv100 { Part::Xcv100 } else { Part::Xcv50 };
            let mut mem = ConfigMemory::new(part);
            let (len, cols) = (mem.frame_len(), part.clb_cols());
            // A few fixed frames, so operations meet, and one anywhere.
            let fixed = [
                FrameAddress::clock(7),
                FrameAddress::clb(0, 0),
                FrameAddress::clb(0, 1),
                FrameAddress::clb(cols - 1, 47),
                FrameAddress::iob(0, 0),
                FrameAddress::iob(1, 53),
            ];
            let mut model = Model {
                len,
                frames: Frames::new(),
                checkpoint: None,
                marks: Vec::new(),
                saved: 0,
            };
            let mut at_checkpoint = mem.snapshot();
            for (kind, a, b, r, value) in ops {
                let addr = fixed
                    .get(usize::from(a))
                    .copied()
                    .unwrap_or(FrameAddress::clb(r % cols, r % FRAMES_PER_CLB_COLUMN));
                let bit = [0, 63, 64, len - 1, usize::from(r) % len][b];
                match kind {
                    0 | 1 => {
                        let mut frame = model.read(&model.frames, addr);
                        let changed = frame.set(bit, value) != value;
                        prop_assert_eq!(mem.set_bit(addr, bit, value).unwrap(), changed);
                        model.write(addr, frame);
                    }
                    2 | 3 => {
                        // The frame with one bit flipped, another frame's
                        // content, or zeros.
                        let old = model.read(&model.frames, addr);
                        let frame = match r % 3 {
                            0 => {
                                let mut f = old.clone();
                                f.set(bit, !f.get(bit));
                                f
                            }
                            1 => model.read(&model.frames, fixed[1]),
                            _ => Frame::zeros(len),
                        };
                        let effect = mem.write_frame(addr, frame.clone()).unwrap();
                        prop_assert_eq!(effect.changed_bits, old.diff(&frame));
                        model.write(addr, frame);
                    }
                    4 => {
                        if model.marks.is_empty() {
                            mem.checkpoint();
                            model.checkpoint = Some((model.frames.clone(), BTreeSet::new()));
                            at_checkpoint = mem.snapshot();
                        }
                    }
                    5 => {
                        let mark = mem.open_mark();
                        model.marks.push((model.frames.clone(), BTreeSet::new(), mark));
                    }
                    6 => {
                        if let Some((at_open, saved, mark)) = model.marks.pop() {
                            let changed = model.diff(&model.frames, &at_open);
                            prop_assert_eq!(mem.close_mark(mark), changed);
                            // The level folds into its parent, if any.
                            if let Some(parent) = model.level() {
                                parent.extend(saved);
                            }
                        }
                    }
                    _ => {
                        // Write back the innermost level's records, as
                        // restoring an extraction or `recover` does.
                        let records = match model.marks.last() {
                            Some(mark) => mem.undo_records(&mark.2),
                            None => mem.checkpoint_records(),
                        };
                        for (addr, image) in records {
                            mem.write_frame(addr, image.clone()).unwrap();
                            model.write(addr, image);
                        }
                    }
                }
                for at in fixed.iter().chain([&addr]) {
                    prop_assert_eq!(mem.read_frame(*at).unwrap(), model.read(&model.frames, *at));
                    let want = model.read(&model.frames, *at).get(bit);
                    prop_assert_eq!(mem.get_bit(*at, bit).unwrap(), want);
                }
                let blank = ConfigMemory::new(part);
                prop_assert_eq!(mem.diff_frames(&blank), model.diff(&model.frames, &Frames::new()));
                prop_assert_eq!(mem.dump(), model.dump());
                let rebuilt = ConfigMemory::restore(part, &model.dump()).unwrap();
                // Both ways: either side's store may be unallocated.
                prop_assert_eq!(&mem, &rebuilt);
                prop_assert_eq!(&rebuilt, &mem);
                prop_assert_eq!(mem.images_saved(), model.saved);
                if let Some((frames, _)) = &model.checkpoint {
                    let changed = model.diff(&model.frames, frames);
                    prop_assert_eq!(mem == at_checkpoint, changed.is_empty());
                    prop_assert_eq!(mem.diff_frames(&at_checkpoint), changed);
                    prop_assert_eq!(mem.checkpoint_records(), model.records(frames));
                } else if model.marks.is_empty() {
                    prop_assert!(mem.checkpoint_records().is_empty());
                }
                if let Some((at_open, _, mark)) = model.marks.last() {
                    prop_assert_eq!(mem.undo_records(mark), model.records(at_open));
                }
            }
        }
    }
}
