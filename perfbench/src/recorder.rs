//! The benchmark's own counting [`Recorder`]: per-[`EventKind`] event
//! count, `aux` sum and the monotonic wall gap that ended at an event of
//! that kind. O(1) state and no event ring, so tracing a long run costs one
//! clock read and three additions per event.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tnic_obs::{Event, EventKind, Recorder};

const KINDS: usize = EventKind::ALL.len();

/// Per-kind totals accumulated by a [`CountingRecorder`].
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: [u64; KINDS],
    aux_sum: [u64; KINDS],
    gap_ns: [u64; KINDS],
}

impl Tally {
    /// Events of `kind` recorded.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.count[kind as usize]
    }

    /// Sum of the `aux` field over events of `kind` (payload bytes for
    /// attest/verify/send, entry count for responses, 1 per rejected recv).
    pub fn aux_sum(&self, kind: EventKind) -> u64 {
        self.aux_sum[kind as usize]
    }

    /// Wall nanoseconds between each event of `kind` and the event (or the
    /// recorder installation) just before it, summed.
    pub fn gap_ns(&self, kind: EventKind) -> u64 {
        self.gap_ns[kind as usize]
    }
}

/// A recorder that only counts. Installed with [`CountingRecorder::install`]
/// in traced runs; untraced runs install nothing, so `trace_event!` stays a
/// single branch.
pub struct CountingRecorder {
    tally: Rc<RefCell<Tally>>,
    last: Instant,
}

impl CountingRecorder {
    /// Installs a fresh recorder on this thread and returns the shared
    /// tally it fills. Remove it with `tnic_obs::uninstall_recorder`.
    pub fn install() -> Rc<RefCell<Tally>> {
        let tally = Rc::new(RefCell::new(Tally::default()));
        tnic_obs::install_recorder(Box::new(CountingRecorder {
            tally: Rc::clone(&tally),
            last: Instant::now(),
        }));
        tally
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, event: Event) {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let kind = event.kind as usize;
        let mut tally = self.tally.borrow_mut();
        tally.count[kind] += 1;
        tally.aux_sum[kind] += event.aux;
        tally.gap_ns[kind] += gap;
    }

    fn snapshot(&self) -> Vec<Event> {
        Vec::new()
    }
}
