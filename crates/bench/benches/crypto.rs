//! Micro-benchmarks of the cryptographic substrate (wall clock, ns/op).
//!
//! Run with `cargo bench -p tnic-bench --bench crypto`.
//!
//! SHA-256 and HMAC-SHA-256 are timed on the scalar backend and on the one
//! the CPU selects, side by side, in one process. The run then exits
//! non-zero unless the selected backend is at least [`MIN_SPEEDUP`] times
//! faster than scalar on SHA-256 of 1 KiB and HMAC of 64 B (min of
//! [`ROUNDS`] rounds on each side). On a CPU without the SHA extensions the
//! selected backend is the scalar one and the check prints
//! `skipped: no sha_ni`.

use tnic_bench::time_op;
use tnic_crypto::ed25519::Keypair;
use tnic_crypto::hmac::{HmacKey, HmacSha256};
use tnic_crypto::sha256::{Backend, Sha256};

/// Required selected-over-scalar speedup on SHA-256 1 KiB and HMAC 64 B.
const MIN_SPEEDUP: f64 = 4.0;
/// Timing rounds per measurement; the fastest round counts.
const ROUNDS: usize = 7;

fn sha256_on(backend: Backend, data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_backend(backend);
    h.update(data);
    h.finalize()
}

fn hmac_on(backend: Backend, key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::with_backend(key, backend);
    mac.update(data);
    mac.finalize()
}

/// Fastest of [`ROUNDS`] rounds of `iters` calls, ns/op.
fn min_ns<T>(iters: u64, mut op: impl FnMut() -> T) -> f64 {
    (0..ROUNDS)
        .map(|_| time_op(iters, &mut op))
        .fold(f64::INFINITY, f64::min)
}

/// Fastest of [`ROUNDS`] rounds of `iters` calls of `scalar` and of `fast`,
/// ns/op. The rounds alternate so both sides see the same host load.
fn min_ns_pair<T>(
    iters: u64,
    mut scalar: impl FnMut() -> T,
    mut fast: impl FnMut() -> T,
) -> (f64, f64) {
    (0..ROUNDS).fold((f64::INFINITY, f64::INFINITY), |(a, b), _| {
        (
            a.min(time_op(iters, &mut scalar)),
            b.min(time_op(iters, &mut fast)),
        )
    })
}

fn main() {
    let selected = Backend::selected();
    println!(
        "crypto substrate micro-benchmarks (ns/op, min of {ROUNDS} rounds; selected backend: {})\n",
        selected.label()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>8}",
        "",
        "scalar",
        selected.label(),
        "speedup"
    );
    let key = [7u8; 32];
    let mut speedups = Vec::new();
    for size in [64usize, 1024, 8192] {
        let data = vec![0xA5u8; size];
        let iters = (200_000 / size as u64).max(100);
        let (scalar, fast) = min_ns_pair(
            iters,
            || sha256_on(Backend::Scalar, &data),
            || sha256_on(selected, &data),
        );
        println!(
            "sha256 {size:>5} B:       {scalar:>10.0} {fast:>10.0} {:>7.1}x",
            scalar / fast
        );
        if size == 1024 {
            speedups.push(("sha256 1 KiB", scalar / fast));
        }
    }
    for size in [64usize, 1024, 8192] {
        let data = vec![0x5Au8; size];
        let iters = (200_000 / size as u64).max(100);
        let (scalar, fast) = min_ns_pair(
            iters,
            || hmac_on(Backend::Scalar, &key, &data),
            || hmac_on(selected, &key, &data),
        );
        println!(
            "hmac   {size:>5} B:       {scalar:>10.0} {fast:>10.0} {:>7.1}x",
            scalar / fast
        );
        if size == 64 {
            speedups.push(("hmac 64 B", scalar / fast));
        }
    }
    // The attestation kernel's path: MAC from the keyed midstates the
    // keystore caches, so the two key-block compressions are skipped.
    let midstate = HmacKey::new(&key);
    let payload = [0x5Au8; 64];
    let ns = min_ns(2_000, || midstate.attestation_mac(&payload, 7, 42));
    println!("attestation mac 64 B (cached midstate): {ns:>6.0}");

    let keypair = Keypair::from_seed(&[9u8; 32]);
    let message = [1u8; 64];
    let ns = time_op(50, || keypair.signing.sign(&message));
    println!("ed25519 sign:    {ns:>10.0}");
    let signature = keypair.signing.sign(&message);
    let ns = time_op(50, || keypair.verifying.verify(&message, &signature));
    println!("ed25519 verify:  {ns:>10.0}");

    println!();
    if selected == Backend::Scalar {
        println!("backend speedup check: skipped: no sha_ni");
        return;
    }
    let mut failed = false;
    for (name, speedup) in speedups {
        let ok = speedup >= MIN_SPEEDUP;
        failed |= !ok;
        println!(
            "backend speedup check: {name}: {speedup:.1}x (need >= {MIN_SPEEDUP:.1}x) {}",
            if ok { "ok" } else { "FAILED" }
        );
    }
    if failed {
        std::process::exit(1);
    }
}
