//! The three benchmark workloads, each a closed loop with one client that
//! issues its next operation only after the previous one returned. Every
//! workload runs a fixed amount of work per process (`rep`), so its count
//! and virtual-time results repeat exactly for a given seed.

use crate::recorder::{CountingRecorder, Tally};
use std::time::Instant;
use tnic_a2m::AccountableA2m;
use tnic_bft::{BftConfig, BftCounter};
use tnic_core::{Baseline, CoreError, NetworkStackKind};
use tnic_crypto::sha256::sha256;
use tnic_net::adversary::{FaultPlan, NodeFault};
use tnic_peerreview::{AccountabilityStats, EngineConfig, PeerReview, PeerReviewConfig, Verdict};

/// Client operations per `bft-counter` process.
const BFT_OPS: u64 = 1000;
/// `bft-counter` operations per timing window.
const BFT_WINDOW_OPS: u64 = 25;
/// Audit rounds per `a2m-acct` process (16 operations each).
const A2M_ROUNDS: u64 = 256;
/// Operations between two `a2m-acct` audit rounds.
const A2M_OPS_PER_ROUND: u64 = 16;
/// `a2m-acct` audit rounds per timing window.
const A2M_WINDOW_ROUNDS: u64 = 4;
/// `a2m-acct` replicas, head included.
const A2M_NODES: u32 = 3;
/// Bytes per `a2m-acct` appended entry.
const A2M_ENTRY_LEN: usize = 64;
/// Audit rounds per `peerreview-audit` process.
const PR_ROUNDS: u64 = 8;
/// `peerreview-audit` deployment size; each round sends `4 * PR_NODES`
/// application messages.
const PR_NODES: u32 = 32;
/// The `peerreview-audit` log tamperer.
const PR_TAMPERER: u32 = 1;
/// Constructions per process whose wall times make up `setup_s`.
const SETUPS: usize = 5;

/// A seeded-defect variant used by the benchmark's self-test: the checks
/// must fail on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Run the workload as specified.
    None,
    /// `bft-counter` with a leader that lies in its proofs of execution.
    ByzantineLeader,
    /// `peerreview-audit` without the tamperer, still expecting exposure.
    NoTamperer,
}

/// What one workload process measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds of each construction.
    pub setup_s: Vec<f64>,
    /// Wall nanoseconds of each operation call.
    pub op_wall_ns: Vec<u64>,
    /// Modelled (virtual) nanoseconds each operation advanced the clock.
    pub op_virt_ns: Vec<u64>,
    /// Wall nanoseconds of each `begin_audit_round`.
    pub audit_begin_ns: Vec<u64>,
    /// Wall nanoseconds of each `finish_audit_round`.
    pub audit_finish_ns: Vec<u64>,
    /// Wall nanoseconds of the whole timed phase (operations and audits).
    pub timed_wall_ns: u64,
    /// Wall nanoseconds of each timing window: consecutive slices of the
    /// timed phase that hold the same number of operations (and audit
    /// rounds) and the same seeded work in every process of one seed.
    pub window_wall_ns: Vec<u64>,
    /// End of the last timing window.
    window_mark: Option<Instant>,
    /// Operations that returned an error, did not commit or failed a check.
    pub failed: u64,
    /// Failed checks, described.
    pub errors: Vec<String>,
    /// Audit rounds until every correct witness exposed the tamperer.
    pub detect_audit_rounds: u64,
    /// Client-reply signatures made (each also verified by the client).
    pub signatures: u64,
    /// Witness verdicts of `Exposed` on nodes that follow the protocol.
    pub false_convictions: u64,
    /// Accountability counters at the end of the timed phase.
    pub stats: Option<AccountabilityStats>,
    /// Deployment size (for the same-size cluster of the hop timing).
    pub nodes: u32,
    /// Values that must repeat exactly across processes of one seed.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Layer-boundary counts (traced processes only).
    pub tally: Option<Tally>,
}

impl Rep {
    fn op(&mut self, wall: Instant, virt_ns: u64, ok: Result<(), String>) {
        self.op_wall_ns.push(wall.elapsed().as_nanos() as u64);
        self.op_virt_ns.push(virt_ns);
        if let Err(e) = ok {
            self.fail(e);
        }
    }

    /// Closes the current timing window.
    fn window(&mut self) {
        let now = Instant::now();
        let start = self
            .window_mark
            .replace(now)
            .expect("inside the timed phase");
        self.window_wall_ns
            .push(now.duration_since(start).as_nanos() as u64);
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.check(false, || error);
    }

    fn check(&mut self, ok: bool, error: impl FnOnce() -> String) {
        // Keep the report short; the count of failed operations is exact.
        if !ok && self.errors.len() < 8 {
            self.errors.push(error());
        }
    }

    fn timed<T>(&mut self, traced: bool, body: impl FnOnce(&mut Rep) -> T) -> T {
        let tally = traced.then(CountingRecorder::install);
        let start = Instant::now();
        self.window_mark = Some(start);
        let out = body(self);
        self.timed_wall_ns = start.elapsed().as_nanos() as u64;
        self.window_mark = None;
        if let Some(tally) = tally {
            tnic_obs::uninstall_recorder();
            self.tally = Some(tally.borrow().clone());
        }
        let virt: u64 = self.op_virt_ns.iter().sum();
        self.fingerprint.push(("ops", self.op_wall_ns.len() as u64));
        self.fingerprint.push(("failed", self.failed));
        self.fingerprint.push(("virtual_op_ns_sum", virt));
        self.fingerprint
            .push(("audit_rounds", self.audit_finish_ns.len() as u64));
        self.fingerprint
            .push(("windows", self.window_wall_ns.len() as u64));
        out
    }

    fn record_stats(&mut self, stats: AccountabilityStats) {
        for (name, value) in [
            ("app_messages", stats.app_messages),
            ("control_messages", stats.control_messages),
            ("control_bytes", stats.control_bytes),
            ("log_entries", stats.log_entries),
            ("piggybacked", stats.piggybacked_commitments),
            ("challenges", stats.challenges),
            ("audit_messages", stats.audit_messages),
            ("entries_replayed", stats.entries_replayed),
            ("checkpoints_completed", stats.checkpoints_completed),
            ("pruned_log_entries", stats.pruned_log_entries),
            ("retained_log_entries", stats.retained_log_entries),
            ("retained_log_bytes", stats.retained_log_bytes),
        ] {
            self.fingerprint.push((name, value));
        }
        self.stats = Some(stats);
    }
}

/// Builds the deployment `SETUPS` times and keeps the last one, so one
/// process yields several set-up times.
fn setup<T>(rep: &mut Rep, build: impl Fn() -> Result<T, CoreError>) -> Result<T, CoreError> {
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let start = Instant::now();
        system = Some(build()?);
        rep.setup_s.push(start.elapsed().as_secs_f64());
    }
    Ok(system.expect("SETUPS > 0"))
}

/// Counts `Exposed` verdicts that witnesses hold on nodes outside `faulty`.
fn false_convictions(
    nodes: u32,
    faulty: &[u32],
    witnesses_of: impl Fn(u32) -> Vec<u32>,
    verdict_of: impl Fn(u32, u32) -> Verdict,
) -> u64 {
    (0..nodes)
        .filter(|node| !faulty.contains(node))
        .flat_map(|node| witnesses_of(node).into_iter().map(move |w| (w, node)))
        .filter(|&(w, node)| verdict_of(w, node) == Verdict::Exposed)
        .count() as u64
}

/// A small seeded generator (SplitMix64) for the benchmark's own inputs; the
/// program under test only ever sees the values it produces.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// `BftCounter`, f = 1, batch 8, 60 B request contexts, no accountability;
/// one operation is one `client_increment`.
pub fn bft_counter(seed: u64, traced: bool, defect: Defect) -> Result<Rep, CoreError> {
    let config = BftConfig {
        f: 1,
        batch_size: 8,
        request_len: 60,
    };
    let mut rep = Rep {
        nodes: 2 * config.f + 1,
        ..Rep::default()
    };
    let mut bft = setup(&mut rep, || {
        BftCounter::new(Baseline::Tnic, NetworkStackKind::Tnic, config, seed)
    })?;
    if defect == Defect::ByzantineLeader {
        bft.make_leader_byzantine();
    }
    rep.timed(traced, |rep| {
        for op in 0..BFT_OPS {
            let expected = (op + 1) * config.batch_size as u64;
            let v0 = bft.now();
            let t0 = Instant::now();
            let result = bft.client_increment();
            let virt = bft.now().duration_since(v0).as_nanos();
            let ok = match result {
                Ok(r) => {
                    rep.signatures += r.replies.len() as u64;
                    if !bft.is_committed(&r) {
                        Err(format!("op {op}: no f + 1 matching replies"))
                    } else if r.value != expected {
                        Err(format!("op {op}: committed {} != {expected}", r.value))
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(format!("op {op}: {e}")),
            };
            rep.op(t0, virt, ok);
            if (op + 1) % BFT_WINDOW_OPS == 0 {
                rep.window();
            }
        }
    });
    let expected = BFT_OPS * config.batch_size as u64;
    for node in 0..rep.nodes {
        let value = bft.replica_value(tnic_core::NodeId(node));
        rep.check(value == expected, || {
            format!("replica {node} holds {value}, expected {expected}")
        });
    }
    rep.fingerprint.push(("signatures", rep.signatures));
    rep.fingerprint
        .push(("messages_sent", bft.cluster().stats().messages_sent));
    Ok(rep)
}

/// Accountable A2M over 3 replicas with piggybacked commitments, 2
/// witnesses and a checkpoint every 4 audit rounds: 64 B entries at 1
/// append : 3 lookups of seeded-uniform earlier positions, with an audit
/// round pipelined over every 16 operations.
pub fn a2m_acct(seed: u64, traced: bool) -> Result<Rep, CoreError> {
    let mut rep = Rep {
        nodes: A2M_NODES,
        ..Rep::default()
    };
    let engine = EngineConfig {
        baseline: Baseline::Tnic,
        seed,
        witness_count: Some(2),
        piggyback: true,
        checkpoint_interval: Some(4),
        ..EngineConfig::default()
    };
    let mut a2m = setup(&mut rep, || {
        AccountableA2m::new(
            A2M_NODES,
            Baseline::Tnic,
            NetworkStackKind::Tnic,
            seed,
            engine,
            FaultPlan::all_correct(),
        )
    })?;
    let mut inputs = Inputs(seed);
    let mut entries: Vec<Vec<u8>> = Vec::new();
    rep.timed(traced, |rep| {
        for round in 0..A2M_ROUNDS {
            let t0 = Instant::now();
            let begun = a2m.begin_audit_round();
            rep.audit_begin_ns.push(t0.elapsed().as_nanos() as u64);
            rep.check(begun.is_ok(), || format!("round {round} begin: {begun:?}"));
            for i in 0..A2M_OPS_PER_ROUND {
                let op = round * A2M_OPS_PER_ROUND + i;
                let append = op.is_multiple_of(4);
                let (payload, position) = if append {
                    (inputs.bytes(A2M_ENTRY_LEN), entries.len() as u64)
                } else {
                    (Vec::new(), inputs.below(entries.len() as u64))
                };
                let v0 = a2m.now();
                let t0 = Instant::now();
                let result = if append {
                    a2m.append(&payload)
                } else {
                    a2m.lookup(position)
                };
                let virt = a2m.now().duration_since(v0).as_nanos();
                let ok = match result {
                    Ok(r) if !r.committed => Err(format!("op {op}: replicas diverged")),
                    Ok(r) if append => {
                        if r.output.get(..8) == Some(&position.to_le_bytes()[..]) {
                            Ok(())
                        } else {
                            Err(format!("op {op}: append not placed at {position}"))
                        }
                    }
                    Ok(r) => {
                        let stored = &entries[position as usize];
                        if r.output.first() == Some(&1) && r.output[1..] == stored[..] {
                            Ok(())
                        } else {
                            Err(format!("op {op}: lookup({position}) returned other bytes"))
                        }
                    }
                    Err(e) => Err(format!("op {op}: {e}")),
                };
                rep.op(t0, virt, ok);
                if append {
                    entries.push(payload);
                }
            }
            let t0 = Instant::now();
            let finished = a2m.finish_audit_round();
            rep.audit_finish_ns.push(t0.elapsed().as_nanos() as u64);
            rep.check(finished.is_ok(), || {
                format!("round {round} finish: {finished:?}")
            });
            if (round + 1) % A2M_WINDOW_ROUNDS == 0 {
                rep.window();
            }
        }
    });
    // The replicated log digest is the A2M hash chain over every append.
    let mut digest = [0u8; 32];
    for (position, entry) in entries.iter().enumerate() {
        let mut input = digest.to_vec();
        input.extend_from_slice(&(position as u64).to_le_bytes());
        input.extend_from_slice(entry);
        digest = sha256(&input);
    }
    for node in 0..rep.nodes {
        let held = a2m.replica_digest(tnic_core::NodeId(node));
        rep.check(held == digest, || {
            format!("replica {node} log digest differs")
        });
    }
    rep.false_convictions = false_convictions(
        rep.nodes,
        &[],
        |n| a2m.witnesses_of(n).to_vec(),
        |w, n| a2m.verdict_of(w, n),
    );
    rep.check(rep.false_convictions == 0, || {
        "a correct replica was exposed".into()
    });
    let stats = a2m.acct_stats();
    rep.record_stats(stats);
    rep.fingerprint.push((
        "digest_prefix",
        u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")),
    ));
    Ok(rep)
}

/// PeerReview, n = 32, 8 witnesses, piggybacked commitments, a checkpoint
/// every 2 audit rounds, 1 KiB payloads and a log tamperer (sequence 0) at
/// node 1. One operation is `run_workload(1)`; each audit round spans
/// `4 * n` of them.
pub fn peerreview_audit(seed: u64, traced: bool, defect: Defect) -> Result<Rep, CoreError> {
    let mut rep = Rep {
        nodes: PR_NODES,
        ..Rep::default()
    };
    let config = PeerReviewConfig {
        nodes: PR_NODES,
        baseline: Baseline::Tnic,
        stack: NetworkStackKind::Tnic,
        seed,
        witness_count: Some(8),
        piggyback: true,
        app_payload_len: 1024,
        checkpoint_interval: Some(2),
        ..PeerReviewConfig::default()
    };
    let faults = if defect == Defect::NoTamperer {
        FaultPlan::all_correct()
    } else {
        FaultPlan::single(PR_TAMPERER, NodeFault::TamperLogEntry { seq: 0 })
    };
    let mut pr = setup(&mut rep, || PeerReview::new(config, faults.clone()))?;
    let witnesses = pr.correct_witnesses_of(PR_TAMPERER);
    rep.timed(traced, |rep| {
        for round in 0..PR_ROUNDS {
            let t0 = Instant::now();
            let begun = pr.begin_audit_round();
            rep.audit_begin_ns.push(t0.elapsed().as_nanos() as u64);
            rep.check(begun.is_ok(), || format!("round {round} begin: {begun:?}"));
            for i in 0..4 * u64::from(PR_NODES) {
                let v0 = pr.now();
                let t0 = Instant::now();
                let result = pr.run_workload(1);
                let virt = pr.now().duration_since(v0).as_nanos();
                rep.op(
                    t0,
                    virt,
                    result.map_err(|e| format!("round {round} op {i}: {e}")),
                );
            }
            let t0 = Instant::now();
            let finished = pr.finish_audit_round();
            rep.audit_finish_ns.push(t0.elapsed().as_nanos() as u64);
            rep.check(finished.is_ok(), || {
                format!("round {round} finish: {finished:?}")
            });
            let exposed = witnesses
                .iter()
                .all(|&w| pr.verdict_of(w, PR_TAMPERER) == Verdict::Exposed);
            if exposed && rep.detect_audit_rounds == 0 {
                rep.detect_audit_rounds = round + 1;
            }
            rep.window();
        }
    });
    rep.check(!witnesses.is_empty() && rep.detect_audit_rounds > 0, || {
        format!("tamperer {PR_TAMPERER} not exposed by every correct witness")
    });
    rep.false_convictions = false_convictions(
        rep.nodes,
        &[PR_TAMPERER],
        |n| pr.witnesses_of(n).to_vec(),
        |w, n| pr.verdict_of(w, n),
    );
    rep.check(rep.false_convictions == 0, || {
        "a correct node was exposed".into()
    });
    let stats = pr.stats();
    let ops = rep.op_wall_ns.len() as u64;
    rep.check(stats.app_messages == ops, || {
        format!(
            "{} application messages for {ops} operations",
            stats.app_messages
        )
    });
    let rejected = pr.cluster().stats().messages_rejected;
    rep.check(rejected == 0, || format!("{rejected} messages rejected"));
    rep.record_stats(stats);
    rep.fingerprint
        .push(("detect_audit_rounds", rep.detect_audit_rounds));
    Ok(rep)
}
