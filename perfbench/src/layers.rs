//! Wall-clock cost of one call into each layer, timed in-process through the
//! layer's public API at the input size the workload uses. Each figure is
//! the median over `BATCHES` batches of the mean time per call.

use std::hint::black_box;
use std::time::Instant;
use tnic_core::{Baseline, Cluster, NetworkStackKind, NodeId, Provider, SessionId};
use tnic_crypto::ed25519::SigningKey;
use tnic_crypto::hmac::hmac_sha256;
use tnic_crypto::sha256::sha256;
use tnic_peerreview::{EntryKind, SecureLog};

const BATCHES: usize = 7;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median over batches of the mean nanoseconds per call of `f`, after one
/// untimed warm-up batch.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..iters).for_each(|_| f());
    median(
        (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                (0..iters).for_each(|_| f());
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

/// `tnic_crypto` primitives: Ed25519 over the 16 B client reply the BFT
/// replicas sign, HMAC-SHA-256 and SHA-256 over 64 B and 1 KiB.
pub fn crypto() -> Vec<(&'static str, f64)> {
    let signer = SigningKey::from_seed(&[7; 32]);
    let reply = [0x5a_u8; 16];
    let signature = signer.sign(&reply);
    let verifier = signer.verifying_key();
    let key = [9_u8; 32];
    let small = [1_u8; 64];
    let large = [2_u8; 1024];
    vec![
        (
            "crypto.ed25519_sign_ns",
            per_call_ns(10, || {
                black_box(signer.sign(black_box(&reply)));
            }),
        ),
        (
            "crypto.ed25519_verify_ns",
            per_call_ns(5, || {
                black_box(verifier.verify(black_box(&reply), &signature)).expect("valid signature");
            }),
        ),
        (
            "crypto.hmac_64B_ns",
            per_call_ns(500, || {
                black_box(hmac_sha256(&key, black_box(&small)));
            }),
        ),
        (
            "crypto.sha256_64B_ns",
            per_call_ns(1000, || {
                black_box(sha256(black_box(&small)));
            }),
        ),
        (
            "crypto.hmac_1KiB_ns",
            per_call_ns(200, || {
                black_box(hmac_sha256(&key, black_box(&large)));
            }),
        ),
        (
            "crypto.sha256_1KiB_ns",
            per_call_ns(200, || {
                black_box(sha256(black_box(&large)));
            }),
        ),
    ]
}

/// `Provider::attest` and `Provider::verify` (TNIC back-end) on `size`-byte
/// payloads, verified in send order as the receive counters require.
pub fn provider(size: usize) -> (f64, f64) {
    const ITERS: usize = 400;
    let session = SessionId(1);
    let mut sender = Provider::new(Baseline::Tnic, NodeId(0).device(), 1);
    let mut receiver = Provider::new(Baseline::Tnic, NodeId(1).device(), 2);
    sender.install_session_key(session, [3; 32]);
    receiver.install_session_key(session, [3; 32]);
    let payload = vec![4_u8; size];
    let mut attest = Vec::with_capacity(BATCHES + 1);
    let mut verify = Vec::with_capacity(BATCHES + 1);
    for _ in 0..=BATCHES {
        let start = Instant::now();
        let messages: Vec<_> = (0..ITERS)
            .map(|_| {
                sender
                    .attest(session, black_box(&payload))
                    .expect("session key")
                    .0
            })
            .collect();
        attest.push(start.elapsed().as_nanos() as f64 / ITERS as f64);
        let start = Instant::now();
        for message in &messages {
            black_box(receiver.verify(message)).expect("in-order attestation");
        }
        verify.push(start.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    // The first batch is the warm-up.
    (median(attest.split_off(1)), median(verify.split_off(1)))
}

/// One bare `Cluster` hop: `auth_send` plus the receiver's `poll`, with a
/// `size`-byte payload on a fully connected cluster of `nodes` nodes.
pub fn cluster_hop(nodes: u32, size: usize, seed: u64) -> f64 {
    let mut cluster = Cluster::fully_connected(nodes, Baseline::Tnic, NetworkStackKind::Tnic, seed);
    let payload = vec![5_u8; size];
    per_call_ns(200, || {
        cluster
            .auth_send(NodeId(0), NodeId(1), black_box(&payload))
            .expect("connected pair");
        black_box(cluster.poll(NodeId(1)).expect("known node"));
    })
}

/// One `SecureLog::append` of a `size`-byte entry.
pub fn log_append(size: usize) -> f64 {
    let mut log = SecureLog::new();
    let content = vec![6_u8; size];
    per_call_ns(500, || {
        black_box(log.append(EntryKind::Exec, content.clone()));
    })
}
