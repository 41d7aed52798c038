//! The event buffer: where the deterministic stream goes.
//!
//! The service and fleet layers keep an `Option<EventBuffer>` — `None`
//! is disabled tracing and costs one branch and zero allocations.
//! [`EventBuffer`] is `Send`-but-not-`Sync` (a `RefCell` inside), which
//! is exactly the shard-locality contract — each buffer belongs to one
//! shard and moves with it; buffers are only merged between epochs, in
//! shard-index order.

use crate::event::{EventKind, RtmEvent};
use rtm_sched::task::Micros;
use std::cell::RefCell;

/// An in-memory recording buffer tagged with its shard index.
///
/// Shard-local by design: interior mutability via `RefCell` keeps the
/// buffer `Send` (it moves with its shard) but not `Sync` (two threads
/// can never share one buffer), which the compiler enforces wherever a
/// shard is sent to another thread.
#[derive(Debug, Default)]
pub struct EventBuffer {
    shard: u32,
    events: RefCell<Vec<RtmEvent>>,
}

impl EventBuffer {
    /// Creates an empty buffer whose events are tagged `shard`.
    pub fn new(shard: u32) -> Self {
        EventBuffer {
            shard,
            events: RefCell::new(Vec::new()),
        }
    }

    /// The shard tag stamped onto every event.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Records one event at simulated time `at`, tagged with this
    /// buffer's shard (the emitter does not know which shard it is).
    /// Takes `&self` so emitters on non-mutating paths can record too.
    pub fn emit(&self, at: Micros, kind: EventKind) {
        self.events.borrow_mut().push(RtmEvent {
            at,
            shard: self.shard,
            kind,
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded since the last drain.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// A position marker for [`EventBuffer::truncate`].
    ///
    /// Speculative emitters (e.g. an `Arrival` recorded before the
    /// admission attempt resolves) take a mark first and roll back to it
    /// when the attempt turns out to be a no-op.
    pub fn mark(&self) -> usize {
        self.len()
    }

    /// Rolls the buffer back to a previously taken [`EventBuffer::mark`].
    pub fn truncate(&self, mark: usize) {
        self.events.borrow_mut().truncate(mark);
    }

    /// Drains and returns everything recorded so far, oldest first.
    pub fn take(&self) -> Vec<RtmEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_records_in_order_with_its_tag() {
        let buf = EventBuffer::new(3);
        buf.emit(10, EventKind::Enqueued { id: 1 });
        buf.emit(20, EventKind::Unload { id: 1 });
        let events = buf.take();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            RtmEvent {
                at: 10,
                shard: 3,
                kind: EventKind::Enqueued { id: 1 }
            }
        );
        assert_eq!(
            events[1],
            RtmEvent {
                at: 20,
                shard: 3,
                kind: EventKind::Unload { id: 1 }
            }
        );
        assert!(buf.is_empty(), "take drains");
    }

    #[test]
    fn mark_truncate_rolls_back_speculative_events() {
        let buf = EventBuffer::new(0);
        buf.emit(1, EventKind::Enqueued { id: 1 });
        let mark = buf.mark();
        buf.emit(
            2,
            EventKind::Arrival {
                id: 2,
                rows: 1,
                cols: 1,
            },
        );
        buf.truncate(mark);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.take()[0].kind, EventKind::Enqueued { id: 1 });
    }

    #[test]
    fn buffers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<EventBuffer>();
    }
}
