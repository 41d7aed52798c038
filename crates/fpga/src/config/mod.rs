//! The configuration memory: frames, column layout and the bit image.
//!
//! "The configuration memory can be visualised as a rectangular array of
//! bits, which are grouped into one-bit wide vertical frames extending from
//! the top to the bottom of the array. A frame is the smallest unit of
//! configuration that can be written to or read from the configuration
//! memory." (paper §2)

mod frame;
pub mod layout;
mod memory;

pub use frame::{BlockType, Frame, FrameAddress};
pub use memory::{ConfigMemory, FrameWriteEffect, JournalMark};
