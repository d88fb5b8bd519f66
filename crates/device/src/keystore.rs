//! The attestation kernel's key store (paper §4.1).
//!
//! The system designer initialises each TNIC device during bootstrapping with
//! a unique identifier and one shared secret key per session, stored in static
//! on-chip memory. The keys never leave the device; the untrusted host only
//! refers to them by [`SessionId`].
//!
//! A key is stored as its HMAC-SHA-256 midstates ([`HmacKey`], 64 bytes) in
//! place of the 32 raw bytes: the kernel only ever uses a key to MAC, and
//! starting from the midstates saves two of the five compressions of a
//! 64-byte attestation.

use crate::error::DeviceError;
use crate::types::SessionId;
use std::collections::HashMap;
use tnic_crypto::hmac::HmacKey;

/// Per-session symmetric keys held in (simulated) on-chip static memory.
#[derive(Clone, Default)]
pub struct Keystore {
    keys: HashMap<SessionId, HmacKey>,
}

impl std::fmt::Debug for Keystore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material must never be printed.
        f.debug_struct("Keystore")
            .field("sessions", &self.keys.len())
            .finish()
    }
}

impl Keystore {
    /// Creates an empty key store.
    #[must_use]
    pub fn new() -> Self {
        Keystore {
            keys: HashMap::new(),
        }
    }

    /// Installs (or replaces) the key for `session`.
    pub fn install(&mut self, session: SessionId, key: [u8; 32]) {
        self.keys.insert(session, HmacKey::new(&key));
    }

    /// Removes the key for `session`, returning `true` if one was present.
    pub fn remove(&mut self, session: SessionId) -> bool {
        self.keys.remove(&session).is_some()
    }

    /// Looks up the keyed MAC state for `session`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed.
    pub fn mac_key(&self, session: SessionId) -> Result<&HmacKey, DeviceError> {
        self.keys
            .get(&session)
            .ok_or(DeviceError::UnknownSession(session))
    }

    /// Returns `true` if a key is installed for `session`.
    #[must_use]
    pub fn contains(&self, session: SessionId) -> bool {
        self.keys.contains_key(&session)
    }

    /// Number of installed session keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no keys are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sessions with installed keys, in unspecified order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionId> {
        self.keys.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_lookup_remove() {
        let mut ks = Keystore::new();
        assert!(ks.is_empty());
        ks.install(SessionId(1), [7u8; 32]);
        assert!(ks.contains(SessionId(1)));
        assert_eq!(ks.mac_key(SessionId(1)).unwrap(), &HmacKey::new(&[7u8; 32]));
        assert_eq!(ks.len(), 1);
        assert!(ks.remove(SessionId(1)));
        assert!(!ks.remove(SessionId(1)));
        assert_eq!(
            ks.mac_key(SessionId(1)),
            Err(DeviceError::UnknownSession(SessionId(1)))
        );
    }

    #[test]
    fn reinstall_replaces_key() {
        let mut ks = Keystore::new();
        ks.install(SessionId(2), [1u8; 32]);
        ks.install(SessionId(2), [2u8; 32]);
        assert_eq!(ks.mac_key(SessionId(2)).unwrap(), &HmacKey::new(&[2u8; 32]));
        assert_eq!(ks.len(), 1);
    }

    #[test]
    fn debug_never_prints_keys() {
        let mut ks = Keystore::new();
        ks.install(SessionId(3), [0xAB; 32]);
        let s = format!("{ks:?}");
        assert!(!s.contains("171") && !s.to_lowercase().contains("ab, ab"));
        assert!(s.contains("sessions"));
    }

    #[test]
    fn sessions_lists_installed() {
        let mut ks = Keystore::new();
        ks.install(SessionId(1), [0u8; 32]);
        ks.install(SessionId(9), [0u8; 32]);
        let mut s = ks.sessions();
        s.sort();
        assert_eq!(s, vec![SessionId(1), SessionId(9)]);
    }
}
