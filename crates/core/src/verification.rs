//! Online verification of the TNIC security lemmas (paper §4.4).
//!
//! The paper proves its protocols with the Tamarin prover over a symbolic
//! model. Tamarin is not available here, so this module provides the runtime
//! counterpart: a [`LemmaMonitor`] that protocol executions feed, as they
//! happen, with the action facts the Tamarin model uses (attestation
//! completion, message send, message accept). The monitor checks the paper's
//! lemmas online, event by event:
//!
//! 1. **Remote attestation** (Eq. 1): whenever the IP vendor finishes
//!    attesting a device, the device finished its part earlier.
//! 2. **Transferable authentication** (Eq. 2): every accepted message was
//!    previously sent by an authentic endpoint, with the same session,
//!    counter and payload.
//! 3. **Non-equivocation** (Eq. 3–5): no accepted message skips earlier sent
//!    messages, no reordering, no duplicate acceptance.
//!
//! Honest executions must satisfy every lemma; adversarial executions (tests
//! inject tampering, replay and equivocation) must either satisfy them or have
//! the offending message rejected before it is ever *accepted* — which is
//! exactly what the monitor validates.
//!
//! # State bound
//!
//! The monitor holds:
//!
//! * one next-expected counter per (receiver, session, sender) link;
//! * the set of device-attested (device, connection) pairs;
//! * one record per attested send that still owes acceptances: its
//!   (sender, session, counter), its payload bytes and the number of
//!   receivers it was addressed to (1 for `auth_send`, one per receiver for
//!   a multicast, none for `local_send`).
//!
//! A record is retired when its last owed acceptance arrives, or when a
//! receiver accepts a later counter on the same stream, skipping it (that
//! skip is itself a non-equivocation violation). In an honest run every
//! send is accepted before the next one is attested, so the state is
//! O(links) plus one in-flight payload, and that payload lives in a buffer
//! the monitor reuses. A delivery that fails keeps its record, so a later
//! external delivery of the same counter is still checked. The record is
//! dropped once the receiver moves past the counter.
//!
//! # Why bytes, not digests
//!
//! An offline checker has to keep every send of the run, so it keeps a
//! digest per send and matches digests. Online, the sent payload is still
//! held when its acceptance arrives. The monitor therefore compares the
//! bytes themselves. Byte equality is exact: it needs no collision
//! argument, and a memory compare costs far less than the two payload
//! hashes per message that digests would need. The monitor computes no
//! hash and charges no virtual time.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use tnic_device::types::{DeviceId, SessionId};

/// Violation lines a report keeps verbatim; later violations are counted
/// but their text is dropped, so a hostile run cannot grow the monitor.
pub const KEPT_VIOLATIONS: usize = 8;

/// The lemma verdict of a run, read from a [`LemmaMonitor`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// The first [`KEPT_VIOLATIONS`] violations, one human-readable line
    /// each.
    pub violations: Vec<String>,
    /// Total violations found, including those whose text was dropped.
    pub violation_count: u64,
    /// Number of send facts examined.
    pub sends: usize,
    /// Number of accept facts examined.
    pub accepts: usize,
    /// Send records still owed an acceptance.
    pub retained_records: usize,
    /// Payload bytes the monitor holds: live records plus the reused
    /// buffer.
    pub retained_payload_bytes: usize,
}

impl VerificationReport {
    /// Returns `true` when every lemma holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violation_count == 0
    }
}

/// An attested send still owed at least one acceptance.
#[derive(Debug)]
struct SendRecord {
    sender: DeviceId,
    session: SessionId,
    counter: u64,
    owed: usize,
    payload: Vec<u8>,
}

impl SendRecord {
    fn matches(&self, sender: DeviceId, session: SessionId, counter: u64) -> bool {
        self.sender == sender && self.session == session && self.counter == counter
    }
}

/// The online lemma monitor (see the module docs for the state bound).
#[derive(Debug, Default)]
pub struct LemmaMonitor {
    device_attested: HashSet<(DeviceId, u64)>,
    next_expected: HashMap<(DeviceId, SessionId, DeviceId), u64>,
    owed: Vec<SendRecord>,
    spare: Vec<u8>,
    sends: usize,
    accepts: usize,
    violations: Vec<String>,
    violation_count: u64,
}

impl LemmaMonitor {
    /// A monitor that has seen nothing.
    #[must_use]
    pub fn new() -> Self {
        LemmaMonitor::default()
    }

    /// The device finished the remote-attestation protocol (`D_tnic(c)`).
    pub fn device_attested(&mut self, device: DeviceId, connection: u64) {
        self.device_attested.insert((device, connection));
    }

    /// The IP vendor finished attesting a device (`D_ipv(c)`). Lemma (1):
    /// the device side must have finished first.
    pub fn vendor_attested(&mut self, device: DeviceId, connection: u64) {
        if !self.device_attested.contains(&(device, connection)) {
            self.flag(|| {
                format!(
                    "remote attestation: vendor attested {device} (connection {connection}) \
                     without a prior device-side attestation"
                )
            });
        }
    }

    /// `sender` attested message `counter` on `session` (`S_e(m)`),
    /// addressed to `receivers` endpoints.
    pub fn sent(
        &mut self,
        sender: DeviceId,
        session: SessionId,
        counter: u64,
        payload: &[u8],
        receivers: usize,
    ) {
        self.sends += 1;
        if receivers == 0 {
            return;
        }
        let mut bytes = std::mem::take(&mut self.spare);
        bytes.clear();
        bytes.reserve_exact(payload.len());
        bytes.extend_from_slice(payload);
        self.owed.push(SendRecord {
            sender,
            session,
            counter,
            owed: receivers,
            payload: bytes,
        });
    }

    /// `receiver` verified and delivered message `counter` on `session`
    /// carrying `sender`'s attestation (`A_e(m)`).
    pub fn accepted(
        &mut self,
        receiver: DeviceId,
        sender: DeviceId,
        session: SessionId,
        counter: u64,
        payload: &[u8],
    ) {
        self.accepts += 1;

        // Lemmas (3)-(5): per (receiver, session, sender), counters are
        // accepted in exactly increasing order from 0, with no gaps and no
        // repeats.
        let next = self
            .next_expected
            .entry((receiver, session, sender))
            .or_insert(0);
        let expected = *next;
        *next = expected.max(counter.saturating_add(1));
        let duplicate = counter < expected;
        if duplicate {
            self.flag(|| {
                format!(
                    "non-equivocation: {receiver} accepted counter {counter} on {session} twice"
                )
            });
        } else if counter > expected {
            self.flag(|| {
                format!(
                    "non-equivocation: {receiver} accepted counter {counter} on {session} \
                     while messages {expected}..{counter} were never accepted (loss/reorder)"
                )
            });
            self.release_skipped(sender, session, expected, counter);
        }

        // Lemma (2): the acceptance matches a send of the same bytes under
        // the same (sender, session, counter).
        let mut found = None;
        for (i, record) in self.owed.iter().enumerate() {
            if record.matches(sender, session, counter) {
                let same = record.payload == payload;
                found = Some((i, same));
                if same {
                    break;
                }
            }
        }
        match found {
            Some((i, same)) => {
                if !same {
                    self.flag(|| {
                        format!(
                            "transferable authentication: {receiver} accepted counter {counter} \
                             on {session} from {sender} with a payload {sender} never sent \
                             under that counter"
                        )
                    });
                }
                // A duplicate consumes nothing: its receiver's acceptance
                // was counted the first time.
                if !duplicate {
                    self.consume(i);
                }
            }
            // The record was retired at the first acceptance; the repeat is
            // already a non-equivocation violation.
            None if duplicate => {}
            None => self.flag(|| {
                format!(
                    "transferable authentication: accepted counter {counter} on {session} \
                     claiming sender {sender} was never sent by it"
                )
            }),
        }
    }

    /// The lemma verdict so far.
    #[must_use]
    pub fn report(&self) -> VerificationReport {
        VerificationReport {
            violations: self.violations.clone(),
            violation_count: self.violation_count,
            sends: self.sends,
            accepts: self.accepts,
            retained_records: self.owed.len(),
            retained_payload_bytes: self
                .owed
                .iter()
                .map(|r| r.payload.capacity())
                .sum::<usize>()
                + self.spare.capacity(),
        }
    }

    /// Total violations found so far.
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    fn flag(&mut self, line: impl FnOnce() -> String) {
        self.violation_count += 1;
        if self.violations.len() < KEPT_VIOLATIONS {
            self.violations.push(line());
        }
    }

    /// Counts one owed acceptance of record `i` as done.
    fn consume(&mut self, i: usize) {
        self.owed[i].owed -= 1;
        if self.owed[i].owed == 0 {
            let record = self.owed.swap_remove(i);
            if record.payload.capacity() > self.spare.capacity() {
                self.spare = record.payload;
            }
        }
    }

    /// A receiver of `sender`'s stream on `session` jumped from `from` to
    /// `to`: the counters in between will never be accepted by it.
    fn release_skipped(&mut self, sender: DeviceId, session: SessionId, from: u64, to: u64) {
        // Backwards, so `consume`'s swap_remove only moves visited records.
        for i in (0..self.owed.len()).rev() {
            let record = &self.owed[i];
            if record.sender == sender
                && record.session == session
                && (from..to).contains(&record.counter)
            {
                self.consume(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u8) -> [u8; 32] {
        [tag; 32]
    }

    fn honest_monitor() -> LemmaMonitor {
        let mut m = LemmaMonitor::new();
        m.device_attested(DeviceId(1), 7);
        m.vendor_attested(DeviceId(1), 7);
        for counter in 0..3u64 {
            m.sent(
                DeviceId(1),
                SessionId(1),
                counter,
                &payload(counter as u8),
                1,
            );
            m.accepted(
                DeviceId(2),
                DeviceId(1),
                SessionId(1),
                counter,
                &payload(counter as u8),
            );
        }
        m
    }

    #[test]
    fn honest_trace_satisfies_all_lemmas() {
        let report = honest_monitor().report();
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(report.sends, 3);
        assert_eq!(report.accepts, 3);
        assert_eq!(report.retained_records, 0);
    }

    #[test]
    fn vendor_attestation_without_device_is_flagged() {
        let mut m = LemmaMonitor::new();
        m.vendor_attested(DeviceId(1), 1);
        let report = m.report();
        assert!(!report.holds());
        assert!(report.violations[0].contains("remote attestation"));
    }

    #[test]
    fn forged_acceptance_is_flagged() {
        let mut m = LemmaMonitor::new();
        m.accepted(DeviceId(2), DeviceId(1), SessionId(1), 0, &payload(9));
        assert!(m
            .report()
            .violations
            .iter()
            .any(|v| v.contains("transferable authentication")));
    }

    #[test]
    fn equivocation_different_payload_same_counter_is_flagged() {
        let mut m = honest_monitor();
        // The sender "sent" counter 3 with one payload but the receiver
        // accepted a different payload under that counter.
        m.sent(DeviceId(1), SessionId(1), 3, &payload(10), 1);
        m.accepted(DeviceId(2), DeviceId(1), SessionId(1), 3, &payload(11));
        let report = m.report();
        assert!(!report.holds());
        // The mismatched acceptance still retires the record.
        assert_eq!(report.retained_records, 0);
    }

    #[test]
    fn double_acceptance_is_flagged() {
        let mut m = honest_monitor();
        m.accepted(DeviceId(2), DeviceId(1), SessionId(1), 0, &payload(0));
        let report = m.report();
        assert!(report.violations.iter().any(|v| v.contains("twice")));
        assert_eq!(report.violation_count, 1);
    }

    #[test]
    fn gap_in_accepted_counters_is_flagged() {
        let mut m = LemmaMonitor::new();
        for counter in [0u64, 2] {
            m.sent(
                DeviceId(1),
                SessionId(1),
                counter,
                &payload(counter as u8),
                1,
            );
            m.accepted(
                DeviceId(2),
                DeviceId(1),
                SessionId(1),
                counter,
                &payload(counter as u8),
            );
        }
        assert!(m
            .report()
            .violations
            .iter()
            .any(|v| v.contains("never accepted")));
    }

    #[test]
    fn empty_trace_trivially_holds() {
        let report = LemmaMonitor::new().report();
        assert!(report.holds());
        assert_eq!((report.sends, report.accepts), (0, 0));
    }

    #[test]
    fn one_byte_payload_difference_under_the_same_counter_is_flagged() {
        let mut m = LemmaMonitor::new();
        let sent = vec![0x5Au8; 4096];
        let mut accepted = sent.clone();
        *accepted.last_mut().unwrap() ^= 1;
        m.sent(DeviceId(1), SessionId(1), 0, &sent, 1);
        m.accepted(DeviceId(2), DeviceId(1), SessionId(1), 0, &accepted);
        let report = m.report();
        assert_eq!(report.violation_count, 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("never sent under that counter"));
    }

    #[test]
    fn skipped_send_is_retired_when_its_receiver_moves_past_it() {
        let mut m = LemmaMonitor::new();
        m.sent(DeviceId(1), SessionId(1), 0, b"lost", 1);
        m.sent(DeviceId(1), SessionId(1), 1, b"next", 1);
        m.accepted(DeviceId(2), DeviceId(1), SessionId(1), 1, b"next");
        let report = m.report();
        assert_eq!(report.violation_count, 1, "the skip is flagged once");
        assert_eq!(report.retained_records, 0, "both records retired");
    }

    #[test]
    fn multicast_record_waits_for_every_addressed_receiver() {
        let mut m = LemmaMonitor::new();
        m.sent(DeviceId(0), SessionId(9), 0, b"bcast", 2);
        m.accepted(DeviceId(1), DeviceId(0), SessionId(9), 0, b"bcast");
        assert_eq!(m.report().retained_records, 1);
        m.accepted(DeviceId(2), DeviceId(0), SessionId(9), 0, b"bcast");
        let report = m.report();
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(report.retained_records, 0);
        // The reused buffer is all that is left: one message.
        assert_eq!(report.retained_payload_bytes, b"bcast".len());
    }

    #[test]
    fn local_sends_keep_no_record() {
        let mut m = LemmaMonitor::new();
        for counter in 0..100 {
            m.sent(DeviceId(0), SessionId(3), counter, &[0u8; 512], 0);
        }
        let report = m.report();
        assert_eq!(report.sends, 100);
        assert_eq!(
            (report.retained_records, report.retained_payload_bytes),
            (0, 0)
        );
    }

    #[test]
    fn violation_text_is_bounded_but_every_violation_counts() {
        let mut m = LemmaMonitor::new();
        for counter in 0..100 {
            m.accepted(DeviceId(2), DeviceId(1), SessionId(1), counter, b"forged");
        }
        let report = m.report();
        assert_eq!(report.violation_count, 100);
        assert_eq!(report.violations.len(), KEPT_VIOLATIONS);
    }
}
