//! A TEE-hosted attestation service.
//!
//! The paper's TEE baselines follow the hybrid-system model (§8.1): the BFT
//! application runs on the untrusted CPU and talks to a separate process —
//! native or inside a TEE — that generates and verifies message attestations
//! with per-session keys and monotonic counters, exactly like the TNIC
//! attestation kernel. This module provides that service: the cryptography is
//! real, the latency is charged from the baseline's calibrated profile.

use crate::profile::{Baseline, BaselineProfile};
use tnic_device::attestation::AttestedMessage;
use tnic_device::counters::CounterStore;
use tnic_device::error::DeviceError;
use tnic_device::keystore::Keystore;
use tnic_device::types::{DeviceId, SessionId};
use tnic_sim::rng::DetRng;
use tnic_sim::time::SimDuration;

/// An attestation service hosted on the CPU (natively or inside a TEE).
#[derive(Debug, Clone)]
pub struct TeeAttestor {
    baseline: Baseline,
    profile: BaselineProfile,
    node: DeviceId,
    keystore: Keystore,
    counters: CounterStore,
    rng: DetRng,
}

impl TeeAttestor {
    /// Creates an attestation service of the given baseline flavour acting on
    /// behalf of logical node `node`.
    #[must_use]
    pub fn new(baseline: Baseline, node: DeviceId, seed: u64) -> Self {
        TeeAttestor {
            baseline,
            profile: baseline.profile(),
            node,
            keystore: Keystore::new(),
            counters: CounterStore::new(),
            rng: DetRng::new(seed),
        }
    }

    /// Which baseline this service emulates.
    #[must_use]
    pub fn baseline(&self) -> Baseline {
        self.baseline
    }

    /// The logical node identifier stamped into attestations.
    #[must_use]
    pub fn node(&self) -> DeviceId {
        self.node
    }

    /// Installs a session key.
    pub fn install_session_key(&mut self, session: SessionId, key: [u8; 32]) {
        self.keystore.install(session, key);
    }

    /// Returns `true` if a key is installed for `session`.
    #[must_use]
    pub fn has_session(&self, session: SessionId) -> bool {
        self.keystore.contains(session)
    }

    fn invocation_cost(&mut self, payload_len: usize) -> SimDuration {
        let access = self.profile.access_transfer.sample(&mut self.rng);
        let compute = self.profile.computation.sample(&mut self.rng);
        let per_byte = SimDuration::from_nanos(
            (self.profile.computation_per_byte_ns * payload_len.saturating_sub(64) as f64) as u64,
        );
        access + compute + per_byte
    }

    /// Generates an attested message, charging the baseline's invocation cost.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed.
    pub fn attest(
        &mut self,
        session: SessionId,
        payload: &[u8],
    ) -> Result<(AttestedMessage, SimDuration), DeviceError> {
        let key = self.keystore.mac_key(session)?;
        let counter = self.counters.next_send(session);
        let mac = key.attestation_mac(payload, self.node.0, counter);
        let cost = self.invocation_cost(payload.len());
        Ok((
            AttestedMessage {
                mac,
                session,
                device: self.node,
                counter,
                payload: payload.to_vec(),
            },
            cost,
        ))
    }

    /// Verifies an attested message and enforces the receive-counter order.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAttestation`] or
    /// [`DeviceError::CounterMismatch`] like the hardware kernel.
    pub fn verify(&mut self, message: &AttestedMessage) -> Result<SimDuration, DeviceError> {
        let key = self.keystore.mac_key(message.session)?;
        let expected_mac = key.attestation_mac(&message.payload, message.device.0, message.counter);
        let cost = self.invocation_cost(message.payload.len());
        if !tnic_crypto::ct::ct_eq(&expected_mac, &message.mac) {
            return Err(DeviceError::BadAttestation);
        }
        let expected = self.counters.expected_recv(message.session);
        if !self
            .counters
            .check_and_advance_recv(message.session, message.counter)
        {
            return Err(DeviceError::CounterMismatch {
                received: message.counter,
                expected,
            });
        }
        Ok(cost)
    }

    /// Verifies only the MAC binding (out-of-order log audits).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAttestation`] on MAC mismatch.
    pub fn verify_binding(
        &mut self,
        message: &AttestedMessage,
    ) -> Result<SimDuration, DeviceError> {
        let key = self.keystore.mac_key(message.session)?;
        let expected_mac = key.attestation_mac(&message.payload, message.device.0, message.counter);
        let cost = self.invocation_cost(message.payload.len());
        if !tnic_crypto::ct::ct_eq(&expected_mac, &message.mac) {
            return Err(DeviceError::BadAttestation);
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(baseline: Baseline) -> (TeeAttestor, TeeAttestor) {
        let mut a = TeeAttestor::new(baseline, DeviceId(1), 1);
        let mut b = TeeAttestor::new(baseline, DeviceId(2), 2);
        a.install_session_key(SessionId(1), [3u8; 32]);
        b.install_session_key(SessionId(1), [3u8; 32]);
        (a, b)
    }

    #[test]
    fn attest_verify_round_trip_all_baselines() {
        for baseline in Baseline::ALL {
            let (mut a, mut b) = pair(baseline);
            let (msg, cost) = a.attest(SessionId(1), b"request").unwrap();
            assert!(cost >= SimDuration::ZERO);
            b.verify(&msg).unwrap_or_else(|e| panic!("{baseline}: {e}"));
        }
    }

    #[test]
    fn tee_attestations_interoperate_with_device_format() {
        // The wire format is shared with the hardware kernel, so a TEE-based
        // sender can be verified by any receiver holding the same session key.
        let (mut a, _) = pair(Baseline::Sgx);
        let (msg, _) = a.attest(SessionId(1), b"x").unwrap();
        let decoded = AttestedMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn counters_and_replay_protection() {
        let (mut a, mut b) = pair(Baseline::SslLib);
        let (m0, _) = a.attest(SessionId(1), b"0").unwrap();
        let (m1, _) = a.attest(SessionId(1), b"1").unwrap();
        assert_eq!(m0.counter, 0);
        assert_eq!(m1.counter, 1);
        b.verify(&m0).unwrap();
        assert!(matches!(
            b.verify(&m0),
            Err(DeviceError::CounterMismatch { .. })
        ));
        b.verify(&m1).unwrap();
    }

    #[test]
    fn tampering_detected() {
        let (mut a, mut b) = pair(Baseline::AmdSev);
        let (mut msg, _) = a.attest(SessionId(1), b"payload").unwrap();
        msg.payload[0] ^= 1;
        assert_eq!(b.verify(&msg), Err(DeviceError::BadAttestation));
    }

    #[test]
    fn unknown_session_rejected() {
        let mut a = TeeAttestor::new(Baseline::Sgx, DeviceId(1), 7);
        assert!(a.attest(SessionId(5), b"x").is_err());
    }

    #[test]
    fn sgx_costs_more_than_native_library() {
        let (mut sgx, _) = pair(Baseline::Sgx);
        let (mut lib, _) = pair(Baseline::SslLib);
        let mut sgx_total = SimDuration::ZERO;
        let mut lib_total = SimDuration::ZERO;
        for _ in 0..50 {
            sgx_total += sgx.attest(SessionId(1), &[0u8; 64]).unwrap().1;
            lib_total += lib.attest(SessionId(1), &[0u8; 64]).unwrap().1;
        }
        assert!(sgx_total > lib_total * 5);
    }

    #[test]
    fn binding_verification_ignores_order() {
        let (mut a, mut b) = pair(Baseline::SslServerIntel);
        let (m0, _) = a.attest(SessionId(1), b"0").unwrap();
        let (m1, _) = a.attest(SessionId(1), b"1").unwrap();
        b.verify_binding(&m1).unwrap();
        b.verify_binding(&m0).unwrap();
    }
}
