//! Benchmark harness for the TNIC reproduction.
//!
//! Two jobs:
//!
//! * a tiny wall-clock timing loop ([`time_op`]) shared by the
//!   `benches/*.rs` targets (the container has no criterion; the targets
//!   are `harness = false` binaries printing ns/op), and
//! * the accountability *scenario runner* used by `src/bin/reproduce.rs`:
//!   each [`Scenario`] drives a PeerReview deployment with one fault plan
//!   injected through `net::adversary` and summarises verdicts, message
//!   overhead and audit latency into a [`ScenarioResult`] row that
//!   [`render_table`] formats for the terminal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod report;

use std::collections::BTreeMap;
use tnic_a2m::AccountableA2m;
use tnic_bft::{BftConfig, BftCounter};
use tnic_core::api::NodeId;
use tnic_core::error::CoreError;
use tnic_cr::ChainReplication;
use tnic_net::adversary::{Adversary, FaultPlan, NodeFault, PartitionSchedule};
use tnic_net::stack::NetworkStackKind;
use tnic_peerreview::audit::Verdict;
use tnic_peerreview::engine::EngineConfig;
use tnic_peerreview::stats::AccountabilityStats;
use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
use tnic_tee::profile::Baseline;

/// Times `op` over `iters` iterations and returns nanoseconds per
/// operation. The closure's result is returned through `std::hint::black_box`
/// so the work is not optimised away.
pub fn time_op<T>(iters: u64, mut op: impl FnMut() -> T) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Runs the same round-robin workload as `PeerReview::run_workload` on a
/// bare cluster — identical payloads (envelope-encoded `incr` commands) and
/// send/poll pattern. `cursor` persists the round-robin position across
/// calls, mirroring `PeerReview`'s workload cursor, so "accountability vs.
/// bare substrate" comparisons stay like-for-like even when `messages` is
/// not a multiple of the node count.
///
/// # Errors
///
/// Propagates attestation/session errors.
pub fn run_bare_workload(
    cluster: &mut tnic_core::api::Cluster,
    cursor: &mut u64,
    messages: u64,
) -> Result<(), CoreError> {
    let nodes = cluster.nodes();
    let payload = tnic_peerreview::workload::app_payload();
    for _ in 0..messages {
        let (from, to) = tnic_peerreview::workload::next_pair(&nodes, cursor);
        cluster.auth_send(from, to, &payload)?;
        cluster.poll(to)?;
    }
    Ok(())
}

/// Severity ordering of verdicts (`Trusted < Suspected < Exposed`).
fn verdict_rank(v: Verdict) -> u8 {
    match v {
        Verdict::Trusted => 0,
        Verdict::Suspected => 1,
        Verdict::Exposed => 2,
    }
}

/// One accountability fault-injection scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// The faulty node (ignored for the fault-free scenario).
    pub faulty_node: u32,
    /// The injected behaviour.
    pub fault: NodeFault,
    /// Rounds of workload + audit.
    pub rounds: u64,
    /// Application messages per round.
    pub messages_per_round: u64,
}

impl Scenario {
    /// The standard scenario suite exercised by `reproduce`: one fault-free
    /// control run plus one scenario per Byzantine behaviour class —
    /// including the audit-side Byzantine *witness* behaviours (forged
    /// evidence, false suspicion, withheld gossip/relays, silent audits).
    #[must_use]
    pub fn suite() -> Vec<Scenario> {
        let base = |name, faulty_node, fault| Scenario {
            name,
            faulty_node,
            fault,
            rounds: 3,
            messages_per_round: 8,
        };
        vec![
            base("fault-free", 0, NodeFault::Correct),
            base("equivocation", 1, NodeFault::Equivocate),
            base(
                "suppression",
                2,
                NodeFault::SuppressAudits { probability: 1.0 },
            ),
            base("log-truncation", 3, NodeFault::TruncateLog { drop_tail: 5 }),
            base("exec-tampering", 1, NodeFault::TamperLogEntry { seq: 0 }),
            base("forge-evidence", 1, NodeFault::ForgeEvidence),
            base("false-suspicion", 2, NodeFault::FalseSuspicion),
            base("withhold-gossip", 1, NodeFault::WithholdGossip),
            base("refuse-relay", 2, NodeFault::RefuseRelay),
            base("silent-witness", 3, NodeFault::SilentWitness),
        ]
    }

    /// The fault plan this scenario injects. `FaultPlan::single` already
    /// normalises a `Correct` assignment to the empty plan.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::single(self.faulty_node, self.fault)
    }

    /// The classification the correct witnesses must reach on the faulty
    /// node. Witness-side omissions (false suspicion, withheld gossip or
    /// relays, silent audits) are not provable — the liar behaves correctly
    /// as an *auditee* — so those scenarios expect `trusted`; a forged
    /// accusation, by contrast, is itself evidence against its author.
    #[must_use]
    pub fn expected_verdict(&self) -> &'static str {
        match self.fault {
            // Witness-side omissions — audit, gossip and cosignature duties
            // alike — are unprovable; the liar stays trusted.
            NodeFault::Correct
            | NodeFault::FalseSuspicion
            | NodeFault::WithholdGossip
            | NodeFault::RefuseRelay
            | NodeFault::SilentWitness
            | NodeFault::WithholdCosignatures
            | NodeFault::ForgeCosignatures => "trusted",
            NodeFault::SuppressAudits { .. } => "suspected",
            NodeFault::Equivocate
            | NodeFault::TruncateLog { .. }
            | NodeFault::TamperLogEntry { .. }
            | NodeFault::ForgeEvidence => "exposed",
        }
    }

    /// Whether every correct witness must agree on the expected verdict. A
    /// `ForgeEvidence` accuser is convicted only by the witnesses that
    /// *received* its forged accusation (the conviction is local evidence,
    /// like a failed replay) — with small rotating witness sets not every
    /// witness of the forger is among the receivers.
    #[must_use]
    pub fn requires_unanimity(&self) -> bool {
        self.fault != NodeFault::ForgeEvidence
    }
}

/// How the commitment protocol runs in a scenario or sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Dedicated announce/gossip messages to an all-to-all witness set (the
    /// classic baseline).
    Dedicated,
    /// Commitments piggybacked on existing traffic, with the given number
    /// of rotating witnesses per node.
    Piggyback {
        /// Witnesses per node (clamped to `1..=n-1` by the deployment).
        witnesses: u32,
    },
    /// Piggybacked commitments plus cosigned checkpointing: every
    /// `interval` audit rounds the audited prefix is certified and
    /// garbage-collected (bounded logs and stored commitments — the
    /// long-running deployment configuration).
    Checkpointed {
        /// Witnesses per node (clamped to `1..=n-1` by the deployment).
        witnesses: u32,
        /// Audit rounds between checkpoint rounds.
        interval: u64,
    },
}

impl CommitMode {
    /// Whether the mode drives the piggyback-pipelined audit rounds
    /// (everything except the dedicated baseline).
    #[must_use]
    pub fn is_piggyback(self) -> bool {
        !matches!(self, CommitMode::Dedicated)
    }

    /// Table/CSV label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            CommitMode::Dedicated => "dedicated".to_string(),
            CommitMode::Piggyback { witnesses } => format!("piggyback(w={witnesses})"),
            CommitMode::Checkpointed {
                witnesses,
                interval,
            } => format!("ckpt(w={witnesses},i={interval})"),
        }
    }

    /// Applies this mode's commitment settings to a deployment
    /// configuration (public so benches can build deployments mode-first).
    pub fn apply(self, config: &mut PeerReviewConfig) {
        match self {
            CommitMode::Dedicated => {}
            CommitMode::Piggyback { witnesses } => {
                config.piggyback = true;
                config.witness_count = Some(witnesses);
            }
            CommitMode::Checkpointed {
                witnesses,
                interval,
            } => {
                config.piggyback = true;
                config.witness_count = Some(witnesses);
                config.checkpoint_interval = Some(interval);
            }
        }
    }

    /// The engine configuration this mode corresponds to.
    #[must_use]
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        match self {
            CommitMode::Dedicated => EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            CommitMode::Piggyback { witnesses } => EngineConfig {
                seed,
                piggyback: true,
                witness_count: Some(witnesses),
                ..EngineConfig::default()
            },
            CommitMode::Checkpointed {
                witnesses,
                interval,
            } => EngineConfig {
                seed,
                piggyback: true,
                witness_count: Some(witnesses),
                checkpoint_interval: Some(interval),
                ..EngineConfig::default()
            },
        }
    }
}

/// Summary of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// The attestation baseline used.
    pub baseline: Baseline,
    /// The commitment mode the run used.
    pub mode: CommitMode,
    /// Commitments that rode on existing traffic.
    pub piggybacked: u64,
    /// The *severest* verdict any correct witness holds on the faulty node
    /// (`trusted`/`FALSE-POSITIVE` summary for the fault-free control run).
    pub verdict: &'static str,
    /// Whether every correct witness agreed on that verdict.
    pub unanimous: bool,
    /// The classification this scenario expects ([`Scenario::expected_verdict`]).
    pub expected: &'static str,
    /// Whether the expectation includes witness unanimity
    /// ([`Scenario::requires_unanimity`]).
    pub requires_unanimity: bool,
    /// The accuracy invariant: every *correct* node is `Trusted` at every
    /// correct witness (false for any run that suspects or exposes a
    /// correct node).
    pub accuracy: bool,
    /// Application messages sent.
    pub app_messages: u64,
    /// Control (commitment/audit) messages sent.
    pub control_messages: u64,
    /// Control messages per application message.
    pub overhead_ratio: f64,
    /// Median audit latency in virtual microseconds.
    pub audit_p50_us: f64,
    /// 99th-percentile audit latency in virtual microseconds.
    pub audit_p99_us: f64,
    /// Total virtual time of the run in microseconds.
    pub virtual_time_us: u64,
    /// Log entries holding a full application payload (see
    /// [`tnic_peerreview::log::LogComposition`]).
    pub log_app_entries: u64,
    /// Log entries holding an ordinary control-traffic digest.
    pub log_ctl_entries: u64,
    /// Log entries holding an audit-protocol (challenge/response) digest.
    pub log_audit_entries: u64,
    /// Log entries fed through audit replay across all witnesses — the
    /// replay-work side of the full-audit O(w²) wall.
    pub entries_replayed: u64,
}

/// Runs `scenario` on a 4-node deployment over `baseline` with dedicated
/// all-to-all commitments (the classic baseline) and summarises it.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_scenario(scenario: &Scenario, baseline: Baseline) -> Result<ScenarioResult, CoreError> {
    run_scenario_mode(scenario, baseline, CommitMode::Dedicated)
}

/// Runs `scenario` on a 4-node deployment over `baseline` in the given
/// commitment mode and summarises it.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_scenario_mode(
    scenario: &Scenario,
    baseline: Baseline,
    mode: CommitMode,
) -> Result<ScenarioResult, CoreError> {
    let stack = if baseline == Baseline::Tnic {
        NetworkStackKind::Tnic
    } else {
        NetworkStackKind::DrctIo
    };
    let mut config = PeerReviewConfig {
        nodes: 4,
        baseline,
        stack,
        seed: 42,
        ..PeerReviewConfig::default()
    };
    mode.apply(&mut config);
    let mut pr = PeerReview::new(config, scenario.fault_plan())?;
    pr.run_scenario(scenario.rounds, scenario.messages_per_round)?;

    let faulty = scenario.faulty_node;
    let witnesses = pr.correct_witnesses_of(faulty);
    let verdicts: Vec<Verdict> = witnesses
        .iter()
        .map(|&w| pr.verdict_of(w, faulty))
        .collect();
    let unanimous = verdicts.windows(2).all(|p| p[0] == p[1]);
    let verdict = if scenario.fault.is_byzantine() {
        // The severest verdict held by any correct witness: exposure
        // evidence can be local (failed replay, received forged
        // accusation), so one convinced witness is the signal.
        verdicts
            .iter()
            .copied()
            .max_by_key(|v| verdict_rank(*v))
            .unwrap_or(Verdict::Trusted)
            .label()
    } else {
        // Control run: every witness of every node must stay trusting.
        let all_trusted = (0..pr.config().nodes).all(|node| {
            pr.witnesses_of(node)
                .iter()
                .all(|&w| pr.verdict_of(w, node) == Verdict::Trusted)
        });
        if all_trusted {
            "trusted"
        } else {
            "FALSE-POSITIVE"
        }
    };
    // Accuracy: no *correct* node is ever suspected or exposed by a
    // correct witness, whatever the injected fault.
    let accuracy = (0..pr.config().nodes).all(|node| {
        scenario.fault.is_byzantine() && node == faulty
            || pr
                .correct_witnesses_of(node)
                .iter()
                .all(|&w| pr.verdict_of(w, node) == Verdict::Trusted)
    });

    let stats = pr.stats();
    Ok(ScenarioResult {
        name: scenario.name,
        baseline,
        mode,
        piggybacked: stats.piggybacked_commitments,
        verdict,
        unanimous,
        expected: scenario.expected_verdict(),
        requires_unanimity: scenario.requires_unanimity(),
        accuracy,
        app_messages: stats.app_messages,
        control_messages: stats.control_messages,
        overhead_ratio: stats.control_overhead_ratio(),
        audit_p50_us: stats.audit_latency.percentile_us(0.5),
        audit_p99_us: stats.audit_latency.percentile_us(0.99),
        virtual_time_us: pr.now().as_micros(),
        log_app_entries: stats.log_app_payload_entries,
        log_ctl_entries: stats.log_control_digest_entries,
        log_audit_entries: stats.log_audit_digest_entries,
        entries_replayed: stats.entries_replayed,
    })
}

/// A traced scenario run: the summary, the captured event snapshot, the
/// ring's total drop count, and the per-node drop attribution.
pub type TracedScenarioRun = (ScenarioResult, Vec<tnic_obs::Event>, u64, Vec<(u32, u64)>);

/// Runs a scenario with the [`tnic_obs`] event recorder installed and
/// returns the result together with the captured snapshot, the ring's
/// total drop count, and the per-node drop attribution — the input for
/// [`report::timeline_section`], the causal verdict chains and the
/// trace exporters.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_scenario_traced(
    scenario: &Scenario,
    baseline: Baseline,
    mode: CommitMode,
    capacity: usize,
) -> Result<TracedScenarioRun, CoreError> {
    let guard = tnic_obs::RecorderGuard::install(capacity);
    let result = run_scenario_mode(scenario, baseline, mode)?;
    let events = guard.snapshot();
    let dropped = guard.dropped();
    let dropped_by_node = guard.dropped_by_node();
    drop(guard);
    Ok((result, events, dropped, dropped_by_node))
}

/// The enabled-recorder cost measured by [`measure_trace_overhead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOverhead {
    /// Fastest untraced run, microseconds.
    pub untraced_us: f64,
    /// Fastest traced run, microseconds.
    pub traced_us: f64,
    /// Events one traced run recorded (retained plus dropped).
    pub events: u64,
}

impl TraceOverhead {
    /// Whole-run slowdown in percent: `(traced / untraced - 1) * 100`.
    #[must_use]
    pub fn pct(&self) -> f64 {
        (self.traced_us / self.untraced_us - 1.0) * 100.0
    }

    /// Wall-clock recording cost per event, nanoseconds.
    #[must_use]
    pub fn ns_per_event(&self) -> f64 {
        (self.traced_us - self.untraced_us) * 1e3 / self.events.max(1) as f64
    }
}

/// Min-of-`iters` wall clock of `run` without and with a recorder built by
/// `recorder` installed. The recorder is built, installed and removed
/// outside the timed region, so the difference is the cost of recording
/// events, not of allocating the ring. Returns `None` if `run` reports a
/// failure or the untraced run is too fast to time.
pub fn measure_trace_overhead(
    iters: u32,
    mut run: impl FnMut() -> bool,
    mut recorder: impl FnMut() -> Box<dyn tnic_obs::Recorder>,
) -> Option<TraceOverhead> {
    let mut untraced = std::time::Duration::MAX;
    let mut traced = std::time::Duration::MAX;
    let mut events = 0;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        if !run() {
            return None;
        }
        untraced = untraced.min(start.elapsed());
        tnic_obs::install_recorder(recorder());
        let start = std::time::Instant::now();
        let ok = run();
        let elapsed = start.elapsed();
        let installed = tnic_obs::uninstall_recorder()?;
        if !ok {
            return None;
        }
        traced = traced.min(elapsed);
        events = installed.snapshot().len() as u64 + installed.dropped();
    }
    (!untraced.is_zero()).then_some(TraceOverhead {
        untraced_us: untraced.as_secs_f64() * 1e6,
        traced_us: traced.as_secs_f64() * 1e6,
        events,
    })
}

/// Formats scenario results as an aligned terminal table.
#[must_use]
pub fn render_table(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<9} {:<15} {:<15} {:>8} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12}\n",
        "scenario",
        "baseline",
        "mode",
        "verdict",
        "app",
        "ctl",
        "ctl/app",
        "rides",
        "audit p50 us",
        "audit p99 us",
        "virt time us"
    ));
    out.push_str(&"-".repeat(134));
    out.push('\n');
    for r in results {
        let verdict = if r.unanimous {
            r.verdict.to_string()
        } else {
            format!("{} (split!)", r.verdict)
        };
        out.push_str(&format!(
            "{:<16} {:<9} {:<15} {:<15} {:>8} {:>8} {:>8.2} {:>8} {:>12.1} {:>12.1} {:>12}\n",
            r.name,
            r.baseline.label(),
            r.mode.label(),
            verdict,
            r.app_messages,
            r.control_messages,
            r.overhead_ratio,
            r.piggybacked,
            r.audit_p50_us,
            r.audit_p99_us,
            r.virtual_time_us
        ));
    }
    out
}

/// Which accountable application a middleware scenario stacks the engine
/// under (the PeerReview engine reused outside its own workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcctApp {
    /// The `2f + 1` BFT replicated counter (`tnic-bft`).
    Bft,
    /// Byzantine chain replication of a KV store (`tnic-cr`).
    Cr,
    /// The replicated attested append-only memory (`tnic-a2m`).
    A2m,
}

impl AcctApp {
    /// Table/CSV label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AcctApp::Bft => "bft",
            AcctApp::Cr => "cr",
            AcctApp::A2m => "a2m",
        }
    }
}

/// One accountability-over-application scenario: the engine stacked under a
/// BFT or chain-replication deployment, fault-free or with one faulty node.
#[derive(Debug, Clone, Copy)]
pub struct AcctScenario {
    /// The application the engine runs under.
    pub app: AcctApp,
    /// Display name.
    pub name: &'static str,
    /// The faulty node and its behaviour (`None` = fault-free control run).
    pub fault: Option<(u32, NodeFault)>,
    /// Rounds of operations + audit.
    pub rounds: u64,
    /// Client operations per round.
    pub ops_per_round: u64,
}

impl AcctScenario {
    /// The `bft-acct`/`cr-acct`/`a2m-acct` suite: a fault-free control run
    /// plus one Byzantine node per application — an equivocating BFT
    /// replica, a tail-tampering chain node and a log-rewriting A2M
    /// replica, each of which the witnesses must *expose* with verifiable
    /// evidence (the protocols alone only tolerate/detect).
    #[must_use]
    pub fn suite() -> Vec<AcctScenario> {
        let base = |app, name, fault| AcctScenario {
            app,
            name,
            fault,
            rounds: 3,
            ops_per_round: 4,
        };
        vec![
            base(AcctApp::Bft, "bft-acct/fault-free", None),
            base(
                AcctApp::Bft,
                "bft-acct/equivocation",
                Some((1, NodeFault::Equivocate)),
            ),
            base(AcctApp::Cr, "cr-acct/fault-free", None),
            base(
                AcctApp::Cr,
                "cr-acct/tail-tampering",
                Some((2, NodeFault::TamperLogEntry { seq: 0 })),
            ),
            base(AcctApp::A2m, "a2m-acct/fault-free", None),
            base(
                AcctApp::A2m,
                "a2m-acct/log-rewriting",
                Some((1, NodeFault::TamperLogEntry { seq: 0 })),
            ),
        ]
    }

    /// The fault plan this scenario injects.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        match self.fault {
            Some((node, fault)) => FaultPlan::single(node, fault),
            None => FaultPlan::all_correct(),
        }
    }
}

/// Summary of one accountability-over-application run.
#[derive(Debug, Clone)]
pub struct AcctScenarioResult {
    /// The application the engine ran under.
    pub app: AcctApp,
    /// Scenario name.
    pub name: &'static str,
    /// The commitment mode the run used.
    pub mode: CommitMode,
    /// Verdict of the correct witnesses on the faulty node ("trusted" for a
    /// clean control run, "FALSE-POSITIVE" if a control run convicted).
    pub verdict: &'static str,
    /// Whether every correct witness agreed on that verdict.
    pub unanimous: bool,
    /// Application (protocol) messages sent.
    pub app_messages: u64,
    /// Accountability control messages sent.
    pub control_messages: u64,
    /// Control messages per application message.
    pub overhead_ratio: f64,
    /// Commitments that rode on protocol traffic.
    pub piggybacked: u64,
    /// Whether every client operation committed at the protocol level (the
    /// injected log-level faults must not break the dataflow).
    pub protocol_committed: bool,
    /// Whether all replicas agree on the committed application state.
    pub state_parity: bool,
    /// Virtual-time cost of accountability: accountable run time divided by
    /// an identical run without the engine.
    pub time_overhead: f64,
    /// Total virtual time of the accountable run in microseconds.
    pub virtual_time_us: u64,
}

/// Judges the witness verdicts of an accountable run: the expected faulty
/// node's classification, or a clean-control check over every pair.
fn judge_verdicts(
    fault: Option<(u32, NodeFault)>,
    nodes: u32,
    witnesses_of: impl Fn(u32) -> Vec<u32>,
    correct_witnesses_of: impl Fn(u32) -> Vec<u32>,
    verdict_of: impl Fn(u32, u32) -> Verdict,
) -> (&'static str, bool) {
    match fault {
        Some((faulty, _)) => {
            let verdicts: Vec<Verdict> = correct_witnesses_of(faulty)
                .into_iter()
                .map(|w| verdict_of(w, faulty))
                .collect();
            let unanimous = verdicts.windows(2).all(|p| p[0] == p[1]);
            (
                verdicts
                    .first()
                    .copied()
                    .unwrap_or(Verdict::Trusted)
                    .label(),
                unanimous,
            )
        }
        None => {
            let all_trusted = (0..nodes).all(|node| {
                witnesses_of(node)
                    .into_iter()
                    .all(|w| verdict_of(w, node) == Verdict::Trusted)
            });
            (
                if all_trusted {
                    "trusted"
                } else {
                    "FALSE-POSITIVE"
                },
                true,
            )
        }
    }
}

fn summarize_acct(
    scenario: &AcctScenario,
    mode: CommitMode,
    stats: &AccountabilityStats,
    verdict: (&'static str, bool),
    protocol_committed: bool,
    state_parity: bool,
    times_us: (u64, u64),
) -> AcctScenarioResult {
    let (acct_time_us, bare_time_us) = times_us;
    AcctScenarioResult {
        app: scenario.app,
        name: scenario.name,
        mode,
        verdict: verdict.0,
        unanimous: verdict.1,
        app_messages: stats.app_messages,
        control_messages: stats.control_messages,
        overhead_ratio: stats.control_overhead_ratio(),
        piggybacked: stats.piggybacked_commitments,
        protocol_committed,
        state_parity,
        time_overhead: if bare_time_us == 0 {
            f64::NAN
        } else {
            acct_time_us as f64 / bare_time_us as f64
        },
        virtual_time_us: acct_time_us,
    }
}

const ACCT_SEED: u64 = 42;

fn run_bft_acct(
    scenario: &AcctScenario,
    mode: CommitMode,
) -> Result<AcctScenarioResult, CoreError> {
    let config = BftConfig::default();
    let piggyback = mode.is_piggyback();
    let mut system = BftCounter::with_accountability(
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        config,
        ACCT_SEED,
        mode.engine_config(ACCT_SEED),
        scenario.fault_plan(),
    )?;
    let mut committed = true;
    for _ in 0..scenario.rounds {
        if piggyback {
            system.begin_audit_round()?;
        }
        for _ in 0..scenario.ops_per_round {
            let result = system.client_increment()?;
            committed &= system.is_committed(&result);
        }
        if piggyback {
            system.finish_audit_round()?;
        } else {
            system.run_audit_round()?;
        }
    }
    system.drain_audits()?;

    // The bare twin: same workload, no engine attached.
    let mut bare = BftCounter::new(Baseline::Tnic, NetworkStackKind::Tnic, config, ACCT_SEED)?;
    for _ in 0..scenario.rounds * scenario.ops_per_round {
        bare.client_increment()?;
    }

    let n = system.replica_count() as u32;
    let parity_value = system.replica_value(tnic_core::api::NodeId(0));
    let state_parity =
        (0..n).all(|i| system.replica_value(tnic_core::api::NodeId(i)) == parity_value);
    let verdict = judge_verdicts(
        scenario.fault,
        n,
        |node| system.witnesses_of(node).to_vec(),
        |node| system.correct_witnesses_of(node),
        |w, node| system.verdict_of(w, node),
    );
    Ok(summarize_acct(
        scenario,
        mode,
        &system.acct_stats(),
        verdict,
        committed,
        state_parity,
        (system.now().as_micros(), bare.now().as_micros()),
    ))
}

fn run_cr_acct(scenario: &AcctScenario, mode: CommitMode) -> Result<AcctScenarioResult, CoreError> {
    let nodes = 3u32;
    let piggyback = mode.is_piggyback();
    let mut system = ChainReplication::with_accountability(
        nodes,
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        ACCT_SEED,
        mode.engine_config(ACCT_SEED),
        scenario.fault_plan(),
    )?;
    let mut committed = true;
    let mut op = 0u32;
    for _ in 0..scenario.rounds {
        if piggyback {
            system.begin_audit_round()?;
        }
        for _ in 0..scenario.ops_per_round {
            let key = format!("key-{op}");
            let result = system.put(key.as_bytes(), b"value")?;
            committed &= result.committed;
            op += 1;
        }
        if piggyback {
            system.finish_audit_round()?;
        } else {
            system.run_audit_round()?;
        }
    }
    system.drain_audits()?;

    // The bare twin: same workload, no engine attached.
    let mut bare = ChainReplication::new(nodes, Baseline::Tnic, NetworkStackKind::Tnic, ACCT_SEED)?;
    for i in 0..scenario.rounds * scenario.ops_per_round {
        bare.put(format!("key-{i}").as_bytes(), b"value")?;
    }

    let digests: Vec<[u8; 32]> = system
        .chain()
        .iter()
        .map(|&n| system.store_digest(n))
        .collect();
    let state_parity = digests.windows(2).all(|w| w[0] == w[1]);
    let verdict = judge_verdicts(
        scenario.fault,
        nodes,
        |node| system.witnesses_of(node).to_vec(),
        |node| system.correct_witnesses_of(node),
        |w, node| system.verdict_of(w, node),
    );
    Ok(summarize_acct(
        scenario,
        mode,
        &system.acct_stats(),
        verdict,
        committed,
        state_parity,
        (system.now().as_micros(), bare.now().as_micros()),
    ))
}

fn run_a2m_acct(
    scenario: &AcctScenario,
    mode: CommitMode,
) -> Result<AcctScenarioResult, CoreError> {
    let nodes = 3u32;
    let piggyback = mode.is_piggyback();
    let mut system = AccountableA2m::new(
        nodes,
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        ACCT_SEED,
        mode.engine_config(ACCT_SEED),
        scenario.fault_plan(),
    )?;
    let mut committed = true;
    let mut op = 0u64;
    for _ in 0..scenario.rounds {
        if piggyback {
            system.begin_audit_round()?;
        }
        for _ in 0..scenario.ops_per_round {
            // Three appends, then a lookup of an existing position.
            let result = if op % 4 == 3 {
                system.lookup(op / 2)?
            } else {
                system.append(format!("entry-{op}").as_bytes())?
            };
            committed &= result.committed;
            op += 1;
        }
        if piggyback {
            system.finish_audit_round()?;
        } else {
            system.run_audit_round()?;
        }
    }
    system.drain_audits()?;

    // The bare twin: identical replication traffic, no engine attached.
    let mut bare = tnic_core::api::Cluster::fully_connected(
        nodes,
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        ACCT_SEED,
    );
    let bare_nodes = bare.nodes();
    for op in 0..scenario.rounds * scenario.ops_per_round {
        let command = if op % 4 == 3 {
            tnic_a2m::lookup_command(op / 2)
        } else {
            tnic_a2m::append_command(format!("entry-{op}").as_bytes())
        };
        let wire = tnic_peerreview::wire::Envelope::App(command).encode();
        for &replica in &bare_nodes[1..] {
            bare.auth_send(bare_nodes[0], replica, &wire)?;
            bare.poll(replica)?;
        }
    }

    let head = system.replica_digest(tnic_core::api::NodeId(0));
    let state_parity = (0..nodes).all(|i| system.replica_digest(tnic_core::api::NodeId(i)) == head);
    let verdict = judge_verdicts(
        scenario.fault,
        nodes,
        |node| system.witnesses_of(node).to_vec(),
        |node| system.correct_witnesses_of(node),
        |w, node| system.verdict_of(w, node),
    );
    Ok(summarize_acct(
        scenario,
        mode,
        &system.acct_stats(),
        verdict,
        committed,
        state_parity,
        (system.now().as_micros(), bare.now().as_micros()),
    ))
}

/// Runs one accountability-over-application scenario in the given
/// commitment mode: the same engine that drives PeerReview stacked under a
/// BFT, chain-replication or replicated-A2M deployment.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_acct_scenario(
    scenario: &AcctScenario,
    mode: CommitMode,
) -> Result<AcctScenarioResult, CoreError> {
    match scenario.app {
        AcctApp::Bft => run_bft_acct(scenario, mode),
        AcctApp::Cr => run_cr_acct(scenario, mode),
        AcctApp::A2m => run_a2m_acct(scenario, mode),
    }
}

/// The bounded-memory report of a long checkpointed PeerReview run (the
/// `reproduce --check --max-retained-entries` CI gate): retained log
/// entries and stored commitments must stay O(checkpoint interval) over an
/// O(rounds) run.
#[derive(Debug, Clone)]
pub struct RetentionReport {
    /// Audit rounds driven.
    pub rounds: u64,
    /// Audit rounds between checkpoint rounds.
    pub checkpoint_interval: u64,
    /// Maximum retained log entries (across all nodes) observed at any
    /// round boundary.
    pub max_retained_entries: u64,
    /// Maximum stored witness commitments observed at any round boundary.
    pub max_retained_commitments: u64,
    /// Retained log entries at the end of the run.
    pub final_retained_entries: u64,
    /// Retained bytes at the end of the run.
    pub final_retained_bytes: u64,
    /// Log entries ever appended (the unbounded twin would retain these).
    pub total_log_entries: u64,
    /// Certified (and pruned) checkpoints.
    pub checkpoints_completed: u64,
    /// Whether every witness of every node ended the run trusting it.
    pub verdicts_clean: bool,
}

/// Drives a fault-free piggybacked PeerReview deployment for `rounds` audit
/// rounds with checkpointing every `checkpoint_interval` rounds, sampling
/// the retained-memory footprint at every round boundary.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_retention_probe(
    rounds: u64,
    checkpoint_interval: u64,
) -> Result<RetentionReport, CoreError> {
    let config = PeerReviewConfig {
        nodes: 4,
        piggyback: true,
        witness_count: Some(2),
        checkpoint_interval: Some(checkpoint_interval),
        seed: 42,
        ..PeerReviewConfig::default()
    };
    let mut pr = PeerReview::new(config, FaultPlan::all_correct())?;
    let mut max_retained_entries = 0u64;
    let mut max_retained_commitments = 0u64;
    for _ in 0..rounds {
        pr.begin_audit_round()?;
        pr.run_workload(4)?;
        pr.finish_audit_round()?;
        let stats = pr.stats();
        max_retained_entries = max_retained_entries.max(stats.retained_log_entries);
        max_retained_commitments = max_retained_commitments.max(stats.retained_commitments);
    }
    pr.drain_audits()?;
    let stats = pr.stats();
    let verdicts_clean = (0..pr.config().nodes).all(|node| {
        pr.witnesses_of(node)
            .iter()
            .all(|&w| pr.verdict_of(w, node) == Verdict::Trusted)
    });
    Ok(RetentionReport {
        rounds,
        checkpoint_interval,
        max_retained_entries,
        max_retained_commitments,
        final_retained_entries: stats.retained_log_entries,
        final_retained_bytes: stats.retained_log_bytes,
        total_log_entries: stats.log_entries,
        checkpoints_completed: stats.checkpoints_completed,
        verdicts_clean,
    })
}

/// Formats accountability-over-application results as an aligned table.
#[must_use]
pub fn render_acct_table(results: &[AcctScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<15} {:<15} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7} {:>7} {:>12}\n",
        "scenario",
        "mode",
        "verdict",
        "app",
        "ctl",
        "ctl/app",
        "rides",
        "time-ovh",
        "commit",
        "parity",
        "virt time us"
    ));
    out.push_str(&"-".repeat(132));
    out.push('\n');
    for r in results {
        let verdict = if r.unanimous {
            r.verdict.to_string()
        } else {
            format!("{} (split!)", r.verdict)
        };
        out.push_str(&format!(
            "{:<24} {:<15} {:<15} {:>8} {:>8} {:>8.2} {:>8} {:>8.2}x {:>7} {:>7} {:>12}\n",
            r.name,
            r.mode.label(),
            verdict,
            r.app_messages,
            r.control_messages,
            r.overhead_ratio,
            r.piggybacked,
            r.time_overhead,
            if r.protocol_committed { "ok" } else { "FAIL" },
            if r.state_parity { "ok" } else { "FAIL" },
            r.virtual_time_us
        ));
    }
    out
}

/// Which workload a sweep point drives the accountability engine under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepApp {
    /// The PeerReview round-robin counter workload (the classic substrate).
    PeerReview,
    /// Accountability stacked on the BFT replicated counter (`bft-acct`).
    Bft,
    /// Accountability stacked on chain replication (`cr-acct`).
    Cr,
    /// Accountability stacked on the replicated A2M (`a2m-acct`).
    A2m,
}

impl SweepApp {
    /// CSV label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweepApp::PeerReview => "peerreview",
            SweepApp::Bft => "bft",
            SweepApp::Cr => "cr",
            SweepApp::A2m => "a2m",
        }
    }
}

/// One point of the accountability parameter sweep (fault-free workload).
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The workload under audit.
    pub app: SweepApp,
    /// Commitment mode.
    pub mode: CommitMode,
    /// Application payload size in bytes (request context for BFT, value
    /// size for chain replication).
    pub payload: usize,
    /// Cluster size.
    pub nodes: u32,
    /// Workload rounds between audit rounds.
    pub audit_period: u64,
    /// Total workload rounds.
    pub rounds: u64,
    /// Application operations per workload round (messages for PeerReview,
    /// client operations for BFT/CR).
    pub messages_per_round: u64,
    /// Audit rounds between cosigned checkpoint rounds (`None` = no
    /// checkpointing; logs retain everything).
    pub checkpoint_interval: Option<u64>,
    /// Crash-recover cycles per audit round on node 1 (0 = no churn; 0.25
    /// = one crash + recovery every 4 audit rounds). PeerReview substrate
    /// only.
    pub churn_rate: f64,
    /// Length (in audit rounds) of a partition window isolating node 1,
    /// opening after the first audit round and healing on schedule (0 = no
    /// partition; the run gets `partition_rounds + 1` challenge retries so
    /// healing clears suspicion). PeerReview substrate only.
    pub partition_rounds: u64,
    /// Charges each witness audits per round (`None` = full audit every
    /// round). Maps to `PeerReviewConfig::audit_sample_size`; the rotating
    /// sample still covers every charge within `ceil(charges / size)`
    /// rounds. PeerReview substrate only.
    pub audit_sample_size: Option<u32>,
    /// Consistent-hash witness shards (`<= 1` = unsharded: witnesses drawn
    /// from the whole cluster). PeerReview substrate only.
    pub shards: u32,
    /// Event-driven sparse simulation core (lazily connected links and an
    /// active-set scheduler) instead of dense n×n iteration — required for
    /// the n ≥ 1000 grid points. PeerReview substrate only.
    pub event_driven: bool,
}

impl SweepPoint {
    /// The engine configuration of this point: the commit mode's config
    /// with the sweep's explicit checkpoint interval as fallback.
    #[must_use]
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        let mut config = self.mode.engine_config(seed);
        config.checkpoint_interval = config.checkpoint_interval.or(self.checkpoint_interval);
        config
    }
}

/// The measured row for one [`SweepPoint`].
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The swept parameters.
    pub point: SweepPoint,
    /// Effective witnesses per node.
    pub witnesses: u32,
    /// Application messages sent.
    pub app_messages: u64,
    /// Dedicated control messages sent.
    pub control_messages: u64,
    /// Commitments that rode on existing traffic.
    pub piggybacked: u64,
    /// Challenges issued.
    pub challenges: u64,
    /// Log entries across all nodes.
    pub log_entries: u64,
    /// Log entries still retained in memory at the end of the run.
    pub retained_entries: u64,
    /// Approximate bytes of retained log entries at the end of the run.
    pub retained_bytes: u64,
    /// Median audit latency (virtual µs).
    pub audit_p50_us: f64,
    /// Tail audit latency (virtual µs).
    pub audit_p99_us: f64,
    /// Median application-send latency (virtual µs).
    pub app_p50_us: f64,
    /// Total virtual time (µs).
    pub virtual_time_us: u64,
    /// Detection latency: audit rounds until every correct witness exposes
    /// a seq-0 log tamperer in a twin run of the same configuration
    /// (PeerReview substrate only; `None` elsewhere or when the twin's
    /// round budget ends before full exposure). Always measured under
    /// *full* auditing, so the sampled columns can be compared against it.
    pub exposure_latency_rounds: Option<u64>,
    /// Audit wire messages (challenges + responses; a batched envelope
    /// counts once) sent over the fault-free run.
    pub audit_messages: u64,
    /// Detection latency of the row's *own* audit configuration: audit
    /// rounds until every correct witness exposes the seq-0 tamperer twin
    /// under the row's sampling/sharding. Equal to
    /// [`SweepRow::exposure_latency_rounds`] when sampling is off; the gap
    /// between the two is the latency price of sampling.
    pub detection_latency_rounds: Option<u64>,
    /// Log entries holding a full application payload.
    pub log_app_entries: u64,
    /// Log entries holding an ordinary control-traffic digest.
    pub log_ctl_entries: u64,
    /// Log entries holding an audit-protocol digest — log growth the audit
    /// machinery inflicts on itself.
    pub log_audit_entries: u64,
    /// Log entries fed through audit replay across all witnesses.
    pub entries_replayed: u64,
}

/// Header line of the sweep CSV.
pub const SWEEP_CSV_HEADER: &str = "app,mode,payload_bytes,nodes,witnesses,audit_period,\
checkpoint_interval,rounds,messages_per_round,app_msgs,ctl_msgs,ctl_per_app,piggybacked,\
challenges,log_entries,retained_entries,retained_bytes,audit_p50_us,audit_p99_us,app_p50_us,\
virt_time_us,exposure_latency_rounds,churn_rate,partition_rounds,audit_sample_size,shards,\
audit_msgs_per_node_round,detection_latency_rounds,log_app_entries,log_ctl_entries,\
log_audit_entries,replayed_entries,replayed_per_node_round";

impl SweepRow {
    /// Control messages per application message.
    #[must_use]
    pub fn ctl_per_app(&self) -> f64 {
        if self.app_messages == 0 {
            0.0
        } else {
            self.control_messages as f64 / self.app_messages as f64
        }
    }

    /// The effective checkpoint interval of the run (from the mode or the
    /// explicit sweep dimension).
    #[must_use]
    pub fn effective_checkpoint_interval(&self) -> Option<u64> {
        match self.point.mode {
            CommitMode::Checkpointed { interval, .. } => Some(interval),
            _ => self.point.checkpoint_interval,
        }
    }

    /// Audit wire messages per node per audit round of the fault-free run
    /// (the drain pass that closes a finite run counts as one more audit
    /// round) — the overhead axis of the detection-latency frontier.
    #[must_use]
    pub fn audit_msgs_per_node_round(&self) -> f64 {
        let audit_rounds = self.point.rounds / self.point.audit_period.max(1) + 1;
        let node_rounds = u64::from(self.point.nodes) * audit_rounds;
        if node_rounds == 0 {
            0.0
        } else {
            self.audit_messages as f64 / node_rounds as f64
        }
    }

    /// Log entries fed through audit replay per node per audit round — the
    /// replay-work companion of [`SweepRow::audit_msgs_per_node_round`]:
    /// under full auditing it grows with the per-round traffic times the
    /// witness count (the O(w²) replay wall); sampling cuts it in
    /// proportion.
    #[must_use]
    pub fn replayed_per_node_round(&self) -> f64 {
        let audit_rounds = self.point.rounds / self.point.audit_period.max(1) + 1;
        let node_rounds = u64::from(self.point.nodes) * audit_rounds;
        if node_rounds == 0 {
            0.0
        } else {
            self.entries_replayed as f64 / node_rounds as f64
        }
    }

    /// The CSV record for this row (matches [`SWEEP_CSV_HEADER`]).
    #[must_use]
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{},{},{},{},{:.1},{:.1},{:.1},{},{},{:.2},{},{},{},{:.2},{},{},{},{},{},{:.2}",
            self.point.app.label(),
            self.point.mode.label(),
            self.point.payload,
            self.point.nodes,
            self.witnesses,
            self.point.audit_period,
            self.effective_checkpoint_interval()
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            self.point.rounds,
            self.point.messages_per_round,
            self.app_messages,
            self.control_messages,
            self.ctl_per_app(),
            self.piggybacked,
            self.challenges,
            self.log_entries,
            self.retained_entries,
            self.retained_bytes,
            self.audit_p50_us,
            self.audit_p99_us,
            self.app_p50_us,
            self.virtual_time_us,
            self.exposure_latency_rounds
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            self.point.churn_rate,
            self.point.partition_rounds,
            self.point
                .audit_sample_size
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            self.point.shards.max(1),
            self.audit_msgs_per_node_round(),
            self.detection_latency_rounds
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            self.log_app_entries,
            self.log_ctl_entries,
            self.log_audit_entries,
            self.entries_replayed,
            self.replayed_per_node_round()
        )
    }
}

/// Runs one fault-free sweep point and measures it.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn run_sweep_point(point: SweepPoint) -> Result<SweepRow, CoreError> {
    match point.app {
        SweepApp::PeerReview => run_peerreview_sweep_point(point),
        SweepApp::Bft => run_bft_sweep_point(point),
        SweepApp::Cr => run_cr_sweep_point(point),
        SweepApp::A2m => run_a2m_sweep_point(point),
    }
}

fn sweep_row(
    point: SweepPoint,
    witnesses: u32,
    stats: &AccountabilityStats,
    virtual_time_us: u64,
    exposure_latency_rounds: Option<u64>,
    detection_latency_rounds: Option<u64>,
) -> SweepRow {
    SweepRow {
        point,
        witnesses,
        app_messages: stats.app_messages,
        control_messages: stats.control_messages,
        piggybacked: stats.piggybacked_commitments,
        challenges: stats.challenges,
        log_entries: stats.log_entries,
        retained_entries: stats.retained_log_entries,
        retained_bytes: stats.retained_log_bytes,
        audit_p50_us: stats.audit_latency.percentile_us(0.5),
        audit_p99_us: stats.audit_latency.percentile_us(0.99),
        app_p50_us: stats.app_latency.percentile_us(0.5),
        virtual_time_us,
        exposure_latency_rounds,
        audit_messages: stats.audit_messages,
        detection_latency_rounds,
        log_app_entries: stats.log_app_payload_entries,
        log_ctl_entries: stats.log_control_digest_entries,
        log_audit_entries: stats.log_audit_digest_entries,
        entries_replayed: stats.entries_replayed,
    }
}

/// Drives `rounds` workload rounds (auditing every `audit_period`) on a
/// built deployment and returns the number of *audit* rounds until every
/// current correct witness of `target` holds an `Exposed` verdict, `None`
/// when the round budget runs out first. The pipeline-draining tail round
/// that closes a finite run counts as one more audit round.
fn drive_until_exposed(
    mut pr: PeerReview,
    target: u32,
    rounds: u64,
    messages_per_round: u64,
    audit_period: u64,
) -> Result<Option<u64>, CoreError> {
    let exposed = |pr: &PeerReview| {
        let witnesses = pr.correct_witnesses_of(target);
        !witnesses.is_empty()
            && witnesses
                .iter()
                .all(|&w| pr.verdict_of(w, target) == Verdict::Exposed)
    };
    // Drive through the ordinary scenario driver, one audit-period chunk at
    // a time, so the probe measures exactly the round structure the
    // scenarios run (no second copy of the piggyback pipeline drive loop).
    let period = audit_period.max(1);
    let mut audit_rounds = 0u64;
    for _ in 0..rounds / period {
        pr.run_scenario_ext(period, messages_per_round, period)?;
        audit_rounds += 1;
        if exposed(&pr) {
            return Ok(Some(audit_rounds));
        }
    }
    // Trailing workload rounds that never reach an audit boundary.
    for _ in 0..rounds % period {
        pr.run_workload(messages_per_round)?;
    }
    pr.drain_audits()?;
    audit_rounds += 1;
    if exposed(&pr) {
        return Ok(Some(audit_rounds));
    }
    Ok(None)
}

/// Whether a sweep point schedules any churn or partition window.
fn point_has_churn(point: &SweepPoint) -> bool {
    point.churn_rate > 0.0 || point.partition_rounds > 0
}

/// The PeerReview deployment config of a sweep point (churned points get
/// enough challenge retries to bridge their partition window).
fn sweep_point_config(point: &SweepPoint) -> PeerReviewConfig {
    let mut config = PeerReviewConfig {
        nodes: point.nodes,
        baseline: Baseline::Tnic,
        stack: NetworkStackKind::Tnic,
        seed: 42,
        app_payload_len: point.payload,
        checkpoint_interval: point.checkpoint_interval,
        ..PeerReviewConfig::default()
    };
    if point.partition_rounds > 0 {
        config.challenge_retries = u32::try_from(point.partition_rounds)
            .unwrap_or(u32::MAX)
            .saturating_add(1);
    }
    point.mode.apply(&mut config);
    // The scaling knobs (orthogonal to the commit mode).
    config.audit_sample_size = point.audit_sample_size;
    config.shards = point.shards.max(1);
    config.event_driven = point.event_driven;
    config
}

/// Drives a churned sweep point: crash-recover cycles at
/// [`SweepPoint::churn_rate`] on node 1 and/or a healed partition window
/// of [`SweepPoint::partition_rounds`] isolating node 1. With a `target`,
/// returns the audit round at which every correct witness of the target
/// held `Exposed` (the churned detection-latency probe); the pipeline
/// drain counts as one more audit round, matching [`drive_until_exposed`].
fn drive_churned_point(
    pr: &mut PeerReview,
    point: &SweepPoint,
    target: Option<u32>,
) -> Result<Option<u64>, CoreError> {
    if point.partition_rounds > 0 {
        pr.cluster_mut()
            .set_partition(PartitionSchedule::new([1], 1, 1 + point.partition_rounds));
    }
    let exposed = |pr: &PeerReview| {
        target.is_some_and(|t| {
            let witnesses = pr.correct_witnesses_of(t);
            !witnesses.is_empty()
                && witnesses
                    .iter()
                    .all(|&w| pr.verdict_of(w, t) == Verdict::Exposed)
        })
    };
    let period = point.audit_period.max(1);
    // A crash-recover cycle spans two audit rounds (down for one, back for
    // the next), so the cycle length is at least 2.
    let cycle = if point.churn_rate > 0.0 {
        ((1.0 / point.churn_rate).round() as u64).max(2)
    } else {
        0
    };
    let mut crashed = false;
    let mut audit_rounds = 0u64;
    for chunk in 0..point.rounds / period {
        pr.run_scenario_ext(period, point.messages_per_round, period)?;
        audit_rounds += 1;
        if exposed(pr) {
            return Ok(Some(audit_rounds));
        }
        if cycle > 0 {
            if crashed {
                pr.recover_node(1)?;
                crashed = false;
            } else if chunk % cycle == 0 {
                pr.crash_node(1);
                crashed = true;
            }
        }
    }
    for _ in 0..point.rounds % period {
        pr.run_workload(point.messages_per_round)?;
    }
    if crashed {
        pr.recover_node(1)?;
    }
    pr.drain_audits()?;
    audit_rounds += 1;
    Ok(exposed(pr).then_some(audit_rounds))
}

/// Detection-latency twin of a PeerReview sweep point: the same
/// configuration (including any churn/partition schedule) with a seq-0
/// log tamperer at node 1, counting *audit* rounds until every correct
/// witness of the tamperer exposes it. With `full_audit` the twin strips
/// sampling, so the measurement is the full-audit baseline the sampled
/// `detection_latency_rounds` column is compared against.
fn sweep_exposure_probe(point: &SweepPoint, full_audit: bool) -> Result<Option<u64>, CoreError> {
    let mut config = sweep_point_config(point);
    if full_audit {
        config.audit_sample_size = None;
    }
    let target = 1u32.min(point.nodes.saturating_sub(1));
    let mut pr = PeerReview::new(
        config,
        FaultPlan::single(target, NodeFault::TamperLogEntry { seq: 0 }),
    )?;
    if point_has_churn(point) {
        drive_churned_point(&mut pr, point, Some(target))
    } else {
        drive_until_exposed(
            pr,
            target,
            point.rounds,
            point.messages_per_round,
            point.audit_period,
        )
    }
}

fn run_peerreview_sweep_point(point: SweepPoint) -> Result<SweepRow, CoreError> {
    let config = sweep_point_config(&point);
    let mut pr = PeerReview::new(config, FaultPlan::all_correct())?;
    if point_has_churn(&point) {
        drive_churned_point(&mut pr, &point, None)?;
    } else {
        pr.run_scenario_ext(point.rounds, point.messages_per_round, point.audit_period)?;
    }
    let stats = pr.stats();
    // The full-audit exposure twin is the baseline the sampled detection
    // column is compared against — but at n >= 10 000 a full-audit run
    // (every witness replaying every charge every round) is exactly the
    // wall the sampled-only rows exist to avoid, so the column stays
    // empty there instead of burning the row's wall-clock budget on it.
    let exposure_latency = if point.audit_sample_size.is_some() && point.nodes >= 10_000 {
        None
    } else {
        sweep_exposure_probe(&point, true)?
    };
    // Under sampling the row's own detection latency differs from the
    // full-audit baseline; without it the twin would be identical, so the
    // second probe is skipped.
    let detection_latency = if point.audit_sample_size.is_some() {
        sweep_exposure_probe(&point, false)?
    } else {
        exposure_latency
    };
    Ok(sweep_row(
        point,
        pr.witnesses_of(0).len() as u32,
        &stats,
        pr.now().as_micros(),
        exposure_latency,
        detection_latency,
    ))
}

fn run_bft_sweep_point(point: SweepPoint) -> Result<SweepRow, CoreError> {
    let f = (point.nodes.max(3) - 1) / 2;
    let config = BftConfig {
        f,
        batch_size: 1,
        request_len: point.payload,
    };
    let piggyback = point.mode.is_piggyback();
    let engine_config = point.engine_config(42);
    let mut system = BftCounter::with_accountability(
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        config,
        42,
        engine_config,
        FaultPlan::all_correct(),
    )?;
    let period = point.audit_period.max(1);
    for round in 0..point.rounds {
        let audit = (round + 1) % period == 0;
        if piggyback && audit {
            system.begin_audit_round()?;
        }
        for _ in 0..point.messages_per_round {
            system.client_increment()?;
        }
        if audit {
            if piggyback {
                system.finish_audit_round()?;
            } else {
                system.run_audit_round()?;
            }
        }
    }
    let stats = system.acct_stats();
    Ok(sweep_row(
        point,
        system.witnesses_of(0).len() as u32,
        &stats,
        system.now().as_micros(),
        None,
        None,
    ))
}

fn run_a2m_sweep_point(point: SweepPoint) -> Result<SweepRow, CoreError> {
    let piggyback = point.mode.is_piggyback();
    let engine_config = point.engine_config(42);
    let mut system = AccountableA2m::new(
        point.nodes.max(2),
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        42,
        engine_config,
        FaultPlan::all_correct(),
    )?;
    let payload = vec![0u8; point.payload];
    let period = point.audit_period.max(1);
    for round in 0..point.rounds {
        let audit = (round + 1) % period == 0;
        if piggyback && audit {
            system.begin_audit_round()?;
        }
        for _ in 0..point.messages_per_round {
            system.append(&payload)?;
        }
        if audit {
            if piggyback {
                system.finish_audit_round()?;
            } else {
                system.run_audit_round()?;
            }
        }
    }
    let stats = system.acct_stats();
    Ok(sweep_row(
        point,
        system.witnesses_of(0).len() as u32,
        &stats,
        system.now().as_micros(),
        None,
        None,
    ))
}

fn run_cr_sweep_point(point: SweepPoint) -> Result<SweepRow, CoreError> {
    let piggyback = point.mode.is_piggyback();
    let engine_config = point.engine_config(42);
    let mut system = ChainReplication::with_accountability(
        point.nodes.max(2),
        Baseline::Tnic,
        NetworkStackKind::Tnic,
        42,
        engine_config,
        FaultPlan::all_correct(),
    )?;
    let value = vec![0u8; point.payload];
    let period = point.audit_period.max(1);
    let mut op = 0u64;
    for round in 0..point.rounds {
        let audit = (round + 1) % period == 0;
        if piggyback && audit {
            system.begin_audit_round()?;
        }
        for _ in 0..point.messages_per_round {
            system.put(&op.to_le_bytes(), &value)?;
            op += 1;
        }
        if audit {
            if piggyback {
                system.finish_audit_round()?;
            } else {
                system.run_audit_round()?;
            }
        }
    }
    let stats = system.acct_stats();
    Ok(sweep_row(
        point,
        system.witnesses_of(0).len() as u32,
        &stats,
        system.now().as_micros(),
        None,
        None,
    ))
}

// ---- verdict-parity harness ---------------------------------------------

/// `(witness, node) → verdict` over a run's *final* witness sets.
pub type VerdictMap = BTreeMap<(u32, u32), Verdict>;

/// One scripted membership event of a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// Crash-stop a node: its links are refused (and counted) while its
    /// log stays intact. For the chain-replication app this fails the
    /// replica over out of the chain.
    Crash {
        /// The crashing node.
        node: u32,
    },
    /// Recover a crashed node: restore its links and re-announce its
    /// sealed log head. For the chain-replication app the replica rejoins
    /// as the new tail.
    Recover {
        /// The recovering node.
        node: u32,
    },
    /// Join a fresh node to the running deployment (PeerReview substrate
    /// only; `id` must equal the current cluster size).
    Join {
        /// Id of the joining node.
        id: u32,
    },
    /// Gracefully depart a node: farewell commitment plus unaudited tail
    /// to its witnesses, then links down (PeerReview substrate only).
    Leave {
        /// The departing node.
        node: u32,
    },
}

/// A scripted membership/partition schedule applied between the rounds of
/// a [`ParitySpec`] run (see [`run_verdict_matrix`]).
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// `(after_round, action)` pairs: each action fires once that many
    /// workload+audit rounds have completed (0 = before the first round).
    pub actions: Vec<(u64, ChurnAction)>,
    /// Partition schedule installed on the cluster before the run
    /// (PeerReview substrate only; its rounds count *audit* rounds).
    pub partition: Option<PartitionSchedule>,
}

impl ChurnPlan {
    /// The actions scheduled to fire after `round` completed rounds.
    fn at(&self, round: u64) -> impl Iterator<Item = &ChurnAction> {
        self.actions
            .iter()
            .filter(move |(r, _)| *r == round)
            .map(|(_, a)| a)
    }

    /// How many nodes the plan joins (they extend the verdict matrix).
    fn joins(&self) -> u32 {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, ChurnAction::Join { .. }))
            .count() as u32
    }
}

/// One accountable run to drive for verdict comparison: any accounted
/// application × fault plan × commit mode, optionally behind a packet-level
/// adversary or a scripted churn plan, compared against a *twin* run (clean
/// network, different commit mode, no checkpointing, …) with
/// [`assert_verdict_parity`].
#[derive(Debug, Clone)]
pub struct ParitySpec {
    /// The workload under audit.
    pub app: SweepApp,
    /// Commitment mode.
    pub mode: CommitMode,
    /// Injected node-level Byzantine behaviours.
    pub faults: FaultPlan,
    /// Cluster size (BFT derives `f` from it; clamped per app).
    pub nodes: u32,
    /// Rounds of workload + audit.
    pub rounds: u64,
    /// Application operations per round.
    pub ops_per_round: u64,
    /// Determinism seed (twin runs must share it).
    pub seed: u64,
    /// Checkpoint interval applied on top of the mode (the mode's own
    /// interval wins when both are set) — lets a *dedicated*-mode run
    /// checkpoint, which [`CommitMode`] alone cannot express.
    pub checkpoint_interval: Option<u64>,
    /// Packet-level adversary installed on the delivery path. Only the
    /// PeerReview substrate exposes its cluster for this; the harness
    /// panics if set for another app.
    pub adversary: Option<Adversary>,
    /// Scripted membership churn applied between rounds. Crash/recover is
    /// supported on the PeerReview and chain-replication substrates;
    /// join/leave and partitions on PeerReview only (the harness panics
    /// otherwise).
    pub churn: Option<ChurnPlan>,
    /// Challenge re-sends before a silent node is downgraded to suspected
    /// (0 = classic single-shot challenges) — lets churn runs bridge
    /// crash/partition windows without a false downgrade.
    pub challenge_retries: u32,
    /// Drain the piggyback audit pipeline at the end of the run.
    pub drain: bool,
    /// Charges each witness audits per round (`None` = full audit) — the
    /// sampled-auditing twin axis.
    pub audit_sample_size: Option<u32>,
    /// Consistent-hash witness shards (`<= 1` = unsharded).
    pub shards: u32,
    /// Event-driven sparse simulation core instead of dense n×n iteration
    /// (PeerReview substrate only; the other drivers build their clusters
    /// internally).
    pub event_driven: bool,
    /// Round-digest batching of audit-protocol log entries (`false` =
    /// classic per-envelope control digests — the measurement twin for
    /// batching-parity runs).
    pub round_audit_digests: bool,
}

impl ParitySpec {
    /// A 4-node, 3-round × 8-ops spec with the defaults twin runs share.
    #[must_use]
    pub fn new(app: SweepApp, mode: CommitMode, faults: FaultPlan) -> Self {
        ParitySpec {
            app,
            mode,
            faults,
            nodes: 4,
            rounds: 3,
            ops_per_round: 8,
            seed: 42,
            checkpoint_interval: None,
            adversary: None,
            churn: None,
            challenge_retries: 0,
            drain: true,
            audit_sample_size: None,
            shards: 1,
            event_driven: false,
            round_audit_digests: true,
        }
    }

    fn engine_config(&self) -> EngineConfig {
        let mut config = self.mode.engine_config(self.seed);
        config.checkpoint_interval = config.checkpoint_interval.or(self.checkpoint_interval);
        config.challenge_retries = self.challenge_retries;
        config.audit_sample_size = self.audit_sample_size;
        config.shards = self.shards.max(1);
        config.round_audit_digests = self.round_audit_digests;
        config
    }
}

/// The observable outcome of one accountable run, for parity comparison.
#[derive(Debug, Clone)]
pub struct ParityOutcome {
    /// Cluster size of the run.
    pub nodes: u32,
    /// Byzantine node ids under the run's fault plan.
    pub byzantine: Vec<u32>,
    /// `(witness, node) → verdict` over the final witness sets.
    pub verdicts: VerdictMap,
    /// `(witness, node) → misbehaviour labels` of the evidence held.
    pub evidence: BTreeMap<(u32, u32), Vec<&'static str>>,
    /// The run's accountability counters.
    pub stats: AccountabilityStats,
    /// Messages the cluster transport sent / rejected (0 where the app does
    /// not expose its cluster).
    pub messages_sent: u64,
    /// Messages the cluster transport rejected (duplicates, tampering).
    pub messages_rejected: u64,
    /// Sends refused because an endpoint was crashed or departed (0 where
    /// the app does not expose its cluster).
    pub messages_unreachable: u64,
    /// Sends refused by an open partition cut (0 where the app does not
    /// expose its cluster).
    pub messages_partitioned: u64,
    /// Total virtual time of the run in microseconds.
    pub virtual_time_us: u64,
}

impl ParityOutcome {
    /// `witness`'s verdict on `node` ([`Verdict::Trusted`] if the pair is
    /// not in the final witness relation).
    #[must_use]
    pub fn verdict_of(&self, witness: u32, node: u32) -> Verdict {
        self.verdicts
            .get(&(witness, node))
            .copied()
            .unwrap_or(Verdict::Trusted)
    }

    /// The evidence labels `witness` holds against `node`.
    #[must_use]
    pub fn evidence_of(&self, witness: u32, node: u32) -> &[&'static str] {
        self.evidence
            .get(&(witness, node))
            .map_or(&[], Vec::as_slice)
    }

    /// The witnesses of `node` that are correct under the fault plan.
    #[must_use]
    pub fn correct_witnesses_of(&self, node: u32) -> Vec<u32> {
        self.verdicts
            .keys()
            .filter(|&&(w, n)| n == node && !self.byzantine.contains(&w))
            .map(|&(w, _)| w)
            .collect()
    }

    /// **The accuracy invariant**: every correct node is `Trusted` (not
    /// merely un-exposed) at every correct witness.
    #[must_use]
    pub fn accuracy_clean(&self) -> bool {
        self.verdicts.iter().all(|(&(w, n), &v)| {
            self.byzantine.contains(&w) || self.byzantine.contains(&n) || v == Verdict::Trusted
        })
    }
}

/// Runs one accountable deployment per the spec and collects its verdict
/// matrix (over the run's final witness sets), evidence labels and
/// counters.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
///
/// # Panics
///
/// Panics if [`ParitySpec::adversary`] is set for an app other than
/// [`SweepApp::PeerReview`] (the other drivers do not expose their cluster).
pub fn run_verdict_matrix(spec: &ParitySpec) -> Result<ParityOutcome, CoreError> {
    assert!(
        spec.adversary.is_none() || spec.app == SweepApp::PeerReview,
        "packet-level adversaries are only supported on the PeerReview substrate"
    );
    assert!(
        spec.churn.is_none() || matches!(spec.app, SweepApp::PeerReview | SweepApp::Cr),
        "churn plans are only supported on the PeerReview and chain-replication substrates"
    );
    let byzantine = spec.faults.byzantine_nodes();
    // The four accountable systems share a verdict/witness surface but no
    // trait; the macros stamp the common round-driving loop and outcome
    // assembly once per arm instead of copy-pasting them.
    macro_rules! drive_acct_rounds {
        ($system:expr, $op:expr) => {{
            let piggyback = spec.mode.is_piggyback();
            for _ in 0..spec.rounds {
                if piggyback {
                    $system.begin_audit_round()?;
                }
                for _ in 0..spec.ops_per_round {
                    $op;
                }
                if piggyback {
                    $system.finish_audit_round()?;
                } else {
                    $system.run_audit_round()?;
                }
            }
            if spec.drain {
                $system.drain_audits()?;
            }
        }};
    }
    macro_rules! acct_outcome {
        ($system:expr, $nodes:expr, $stats:expr, $sent:expr, $rejected:expr,
         $unreachable:expr, $partitioned:expr) => {{
            let nodes: u32 = $nodes;
            let mut verdicts = VerdictMap::new();
            let mut evidence = BTreeMap::new();
            for node in 0..nodes {
                for &w in $system.witnesses_of(node) {
                    verdicts.insert((w, node), $system.verdict_of(w, node));
                    let labels: Vec<&'static str> = $system
                        .evidence_of(w, node)
                        .iter()
                        .map(|e| e.label())
                        .collect();
                    if !labels.is_empty() {
                        evidence.insert((w, node), labels);
                    }
                }
            }
            ParityOutcome {
                nodes,
                byzantine,
                verdicts,
                evidence,
                stats: $stats,
                messages_sent: $sent,
                messages_rejected: $rejected,
                messages_unreachable: $unreachable,
                messages_partitioned: $partitioned,
                virtual_time_us: $system.now().as_micros(),
            }
        }};
    }
    match spec.app {
        SweepApp::PeerReview => {
            let mut config = PeerReviewConfig {
                nodes: spec.nodes,
                baseline: Baseline::Tnic,
                stack: NetworkStackKind::Tnic,
                seed: spec.seed,
                checkpoint_interval: spec.checkpoint_interval,
                challenge_retries: spec.challenge_retries,
                audit_sample_size: spec.audit_sample_size,
                shards: spec.shards.max(1),
                event_driven: spec.event_driven,
                round_audit_digests: spec.round_audit_digests,
                ..PeerReviewConfig::default()
            };
            spec.mode.apply(&mut config);
            let piggyback = config.piggyback;
            let mut pr = PeerReview::new(config, spec.faults.clone())?;
            if let Some(adversary) = spec.adversary.clone() {
                pr.cluster_mut()
                    .set_adversary(adversary, spec.seed ^ 0xAD5A);
            }
            if let Some(plan) = &spec.churn {
                if let Some(schedule) = plan.partition.clone() {
                    pr.cluster_mut().set_partition(schedule);
                }
                // Churn runs drive round by round so scripted actions land
                // between rounds, exactly where an operator would apply
                // them.
                apply_peerreview_churn(&mut pr, plan, 0)?;
                for round in 1..=spec.rounds {
                    if piggyback {
                        pr.begin_audit_round()?;
                        pr.run_workload(spec.ops_per_round)?;
                        pr.finish_audit_round()?;
                    } else {
                        pr.run_workload(spec.ops_per_round)?;
                        pr.run_audit_round()?;
                    }
                    apply_peerreview_churn(&mut pr, plan, round)?;
                }
            } else {
                pr.run_scenario(spec.rounds, spec.ops_per_round)?;
            }
            if spec.drain {
                pr.drain_audits()?;
            }
            let nodes = spec.nodes + spec.churn.as_ref().map_or(0, ChurnPlan::joins);
            let cluster_stats = pr.cluster().stats();
            Ok(acct_outcome!(
                pr,
                nodes,
                pr.stats(),
                cluster_stats.messages_sent,
                cluster_stats.messages_rejected,
                cluster_stats.messages_unreachable,
                cluster_stats.messages_partitioned
            ))
        }
        SweepApp::Bft => {
            let f = (spec.nodes.max(3) - 1) / 2;
            let config = BftConfig {
                f,
                ..BftConfig::default()
            };
            let mut system = BftCounter::with_accountability(
                Baseline::Tnic,
                NetworkStackKind::Tnic,
                config,
                spec.seed,
                spec.engine_config(),
                spec.faults.clone(),
            )?;
            drive_acct_rounds!(system, system.client_increment()?);
            let cluster_stats = system.cluster().stats();
            Ok(acct_outcome!(
                system,
                system.replica_count() as u32,
                system.acct_stats(),
                cluster_stats.messages_sent,
                cluster_stats.messages_rejected,
                cluster_stats.messages_unreachable,
                cluster_stats.messages_partitioned
            ))
        }
        SweepApp::Cr => {
            let nodes = spec.nodes.max(2);
            let mut system = ChainReplication::with_accountability(
                nodes,
                Baseline::Tnic,
                NetworkStackKind::Tnic,
                spec.seed,
                spec.engine_config(),
                spec.faults.clone(),
            )?;
            let mut op = 0u64;
            if let Some(plan) = &spec.churn {
                assert!(
                    plan.partition.is_none(),
                    "partition churn is only supported on the PeerReview substrate"
                );
                let piggyback = spec.mode.is_piggyback();
                apply_cr_churn(&mut system, plan, 0)?;
                for round in 1..=spec.rounds {
                    if piggyback {
                        system.begin_audit_round()?;
                    }
                    for _ in 0..spec.ops_per_round {
                        system.put(&op.to_le_bytes(), b"value")?;
                        op += 1;
                    }
                    if piggyback {
                        system.finish_audit_round()?;
                    } else {
                        system.run_audit_round()?;
                    }
                    apply_cr_churn(&mut system, plan, round)?;
                }
                if spec.drain {
                    system.drain_audits()?;
                }
            } else {
                drive_acct_rounds!(system, {
                    system.put(&op.to_le_bytes(), b"value")?;
                    op += 1;
                });
            }
            let cluster_stats = system.cluster().stats();
            Ok(acct_outcome!(
                system,
                nodes,
                system.acct_stats(),
                cluster_stats.messages_sent,
                cluster_stats.messages_rejected,
                cluster_stats.messages_unreachable,
                cluster_stats.messages_partitioned
            ))
        }
        SweepApp::A2m => {
            let nodes = spec.nodes.max(2);
            let mut system = AccountableA2m::new(
                nodes,
                Baseline::Tnic,
                NetworkStackKind::Tnic,
                spec.seed,
                spec.engine_config(),
                spec.faults.clone(),
            )?;
            let mut op = 0u64;
            drive_acct_rounds!(system, {
                system.append(format!("entry-{op}").as_bytes())?;
                op += 1;
            });
            Ok(acct_outcome!(
                system,
                nodes,
                system.acct_stats(),
                0,
                0,
                0,
                0
            ))
        }
    }
}

/// Applies the churn actions scheduled after `round` to a PeerReview
/// deployment.
fn apply_peerreview_churn(
    pr: &mut PeerReview,
    plan: &ChurnPlan,
    round: u64,
) -> Result<(), CoreError> {
    for action in plan.at(round) {
        match *action {
            ChurnAction::Crash { node } => pr.crash_node(node),
            ChurnAction::Recover { node } => pr.recover_node(node)?,
            ChurnAction::Join { id } => pr.join_node(id)?,
            ChurnAction::Leave { node } => pr.depart_node(node)?,
        }
    }
    Ok(())
}

/// Applies the churn actions scheduled after `round` to an accountable
/// chain-replication deployment (crash = fail-over, recover = rejoin as
/// tail).
fn apply_cr_churn(
    system: &mut ChainReplication,
    plan: &ChurnPlan,
    round: u64,
) -> Result<(), CoreError> {
    for action in plan.at(round) {
        match *action {
            ChurnAction::Crash { node } => system.fail_over(NodeId(node)),
            ChurnAction::Recover { node } => system.rejoin(NodeId(node))?,
            ChurnAction::Join { .. } | ChurnAction::Leave { .. } => {
                panic!("join/leave churn is only supported on the PeerReview substrate")
            }
        }
    }
    Ok(())
}

// ---- membership-churn robustness scenarios ------------------------------

/// One membership-churn robustness scenario: a scripted [`ChurnPlan`]
/// (plus an optional fault plan) driven through [`run_verdict_matrix`],
/// with the verdict-settle delay measured in audit rounds beyond the churn
/// schedule.
#[derive(Debug, Clone)]
pub struct ChurnScenario {
    /// Display name (`churn/…`).
    pub name: &'static str,
    /// The substrate under churn ([`SweepApp::PeerReview`] or
    /// [`SweepApp::Cr`]).
    pub app: SweepApp,
    /// Cluster size before any join.
    pub nodes: u32,
    /// Injected node-level Byzantine behaviours.
    pub faults: FaultPlan,
    /// The scripted membership/partition schedule.
    pub churn: ChurnPlan,
    /// Challenge retries configured for the run (bridges partition and
    /// crash windows without a false downgrade).
    pub challenge_retries: u32,
    /// Rounds by which every churn action has fired and any partition has
    /// healed; the settle delay counts rounds beyond this.
    pub settle_round: u64,
    /// Node expected `Exposed` at every correct witness (tamper cases).
    pub expected_exposed: Option<u32>,
    /// Correct nodes that end the run down for good (failed-over, never
    /// recovered): they may settle as `Suspected` — silence is never
    /// proof — but must never be `Exposed`.
    pub allow_suspected: Vec<u32>,
}

impl ChurnScenario {
    /// The churn robustness suite exercised by `reproduce`: crash-rejoin
    /// (honest and tampering), partition-heal, join, leave (honest and
    /// tampering) on the PeerReview substrate, plus head/middle/tail
    /// fail-over and fail-over-rejoin for the chain-replication app.
    #[must_use]
    pub fn suite() -> Vec<ChurnScenario> {
        let pr = |name, faults, actions: Vec<(u64, ChurnAction)>, settle_round| ChurnScenario {
            name,
            app: SweepApp::PeerReview,
            nodes: 4,
            faults,
            churn: ChurnPlan {
                actions,
                partition: None,
            },
            challenge_retries: 0,
            settle_round,
            expected_exposed: None,
            allow_suspected: Vec::new(),
        };
        let cr_failover = |name, node| ChurnScenario {
            name,
            app: SweepApp::Cr,
            nodes: 3,
            faults: FaultPlan::all_correct(),
            churn: ChurnPlan {
                actions: vec![(1, ChurnAction::Crash { node })],
                partition: None,
            },
            challenge_retries: 0,
            settle_round: 2,
            expected_exposed: None,
            // The failed-over replica never recovers: its witnesses may
            // keep it suspected (silence is not proof) but never exposed.
            allow_suspected: vec![node],
        };
        let crash_rejoin = vec![
            (1, ChurnAction::Crash { node: 1 }),
            (2, ChurnAction::Recover { node: 1 }),
        ];
        vec![
            pr(
                "churn/crash-rejoin",
                FaultPlan::all_correct(),
                crash_rejoin.clone(),
                3,
            ),
            {
                let mut s = pr(
                    "churn/crash-rejoin-tamper",
                    FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
                    crash_rejoin,
                    3,
                );
                s.expected_exposed = Some(1);
                s
            },
            {
                let mut s = pr("churn/partition-heal", FaultPlan::all_correct(), vec![], 4);
                s.churn.partition = Some(PartitionSchedule::new([1], 1, 3));
                s.challenge_retries = 3;
                s
            },
            pr(
                "churn/join",
                FaultPlan::all_correct(),
                vec![(1, ChurnAction::Join { id: 4 })],
                3,
            ),
            pr(
                "churn/leave",
                FaultPlan::all_correct(),
                vec![(2, ChurnAction::Leave { node: 2 })],
                3,
            ),
            {
                let mut s = pr(
                    "churn/leave-tamper",
                    FaultPlan::single(2, NodeFault::TamperLogEntry { seq: 0 }),
                    vec![(2, ChurnAction::Leave { node: 2 })],
                    3,
                );
                s.expected_exposed = Some(2);
                s
            },
            cr_failover("churn/cr-failover-head", 0),
            cr_failover("churn/cr-failover-middle", 1),
            cr_failover("churn/cr-failover-tail", 2),
            {
                let mut s = cr_failover("churn/cr-failover-rejoin", 1);
                s.churn.actions.push((2, ChurnAction::Recover { node: 1 }));
                s.settle_round = 3;
                s.allow_suspected.clear();
                s
            },
        ]
    }

    /// The [`ParitySpec`] of this scenario over `mode` with a total round
    /// budget of `rounds`.
    #[must_use]
    pub fn spec(&self, mode: CommitMode, rounds: u64) -> ParitySpec {
        let mut spec = ParitySpec::new(self.app, mode, self.faults.clone());
        spec.nodes = self.nodes;
        spec.rounds = rounds;
        spec.challenge_retries = self.challenge_retries;
        spec.churn = Some(self.churn.clone());
        spec
    }

    /// Whether the verdicts have settled: every correct pair back to
    /// `Trusted` (permanently-down nodes may stay `Suspected`) and the
    /// expected tamperer, if any, `Exposed` at every correct witness.
    #[must_use]
    pub fn settled(&self, outcome: &ParityOutcome) -> bool {
        let clean = outcome.verdicts.iter().all(|(&(w, n), &v)| {
            if outcome.byzantine.contains(&w) || outcome.byzantine.contains(&n) {
                return true;
            }
            if self.allow_suspected.contains(&n) {
                v != Verdict::Exposed
            } else {
                v == Verdict::Trusted
            }
        });
        let exposed = self.expected_exposed.is_none_or(|t| {
            let witnesses = outcome.correct_witnesses_of(t);
            !witnesses.is_empty()
                && witnesses
                    .iter()
                    .all(|&w| outcome.verdict_of(w, t) == Verdict::Exposed)
        });
        clean && exposed
    }
}

/// The measured outcome of one churn scenario in one commit mode.
#[derive(Debug, Clone)]
pub struct ChurnScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Commitment mode of the run.
    pub mode: CommitMode,
    /// Aggregate verdict label reached by the correct witnesses.
    pub verdict: &'static str,
    /// The expected verdict label.
    pub expected: &'static str,
    /// Whether the verdicts settled within the round budget.
    pub settled: bool,
    /// Audit rounds beyond the churn schedule until the verdicts settled
    /// (`None` = never within the budget).
    pub settle_delay_rounds: Option<u64>,
    /// No correct node was ever exposed at a correct witness (exposure is
    /// permanent, so the final matrix covers the whole run).
    pub accuracy: bool,
    /// Joins performed.
    pub joins: u64,
    /// Graceful departures performed.
    pub departures: u64,
    /// Crash-stops injected.
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Challenge re-sends by the retry/backoff machinery.
    pub challenge_retries: u64,
    /// Sends refused because an endpoint was down.
    pub messages_unreachable: u64,
    /// Sends refused by an open partition cut.
    pub messages_partitioned: u64,
}

/// The most severe verdict any correct witness holds over any correct
/// node outside `skip` (nodes that legitimately end the run down).
fn worst_correct_verdict(outcome: &ParityOutcome, skip: &[u32]) -> Verdict {
    outcome
        .verdicts
        .iter()
        .filter(|(&(w, n), _)| {
            !outcome.byzantine.contains(&w) && !outcome.byzantine.contains(&n) && !skip.contains(&n)
        })
        .map(|(_, &v)| v)
        .max_by_key(|&v| verdict_rank(v))
        .unwrap_or(Verdict::Trusted)
}

/// Runs one churn scenario in `mode`, growing the round budget one audit
/// round at a time past the churn schedule (up to `max_extra_rounds`
/// beyond it) until the verdicts settle — the measured settle delay is the
/// robustness analogue of the exposure-latency probe. Every probe run is a
/// fresh deterministic deployment of the same spec, so the final outcome
/// is exactly the reported run.
///
/// # Errors
///
/// Propagates cluster/session errors from the runs.
pub fn run_churn_scenario(
    scenario: &ChurnScenario,
    mode: CommitMode,
    max_extra_rounds: u64,
) -> Result<ChurnScenarioResult, CoreError> {
    let mut settle_delay = None;
    let mut outcome = None;
    for extra in 0..=max_extra_rounds {
        let run = run_verdict_matrix(&scenario.spec(mode, scenario.settle_round + extra))?;
        let settled = scenario.settled(&run);
        outcome = Some(run);
        if settled {
            settle_delay = Some(extra);
            break;
        }
    }
    let outcome = outcome.expect("the round-budget loop runs at least once");
    let accuracy = outcome.verdicts.iter().all(|(&(w, n), &v)| {
        outcome.byzantine.contains(&w) || outcome.byzantine.contains(&n) || v != Verdict::Exposed
    });
    let verdict = match scenario.expected_exposed {
        Some(t) => {
            let witnesses = outcome.correct_witnesses_of(t);
            if !witnesses.is_empty()
                && witnesses
                    .iter()
                    .all(|&w| outcome.verdict_of(w, t) == Verdict::Exposed)
            {
                "exposed"
            } else {
                "NOT exposed"
            }
        }
        None => worst_correct_verdict(&outcome, &scenario.allow_suspected).label(),
    };
    let expected = if scenario.expected_exposed.is_some() {
        "exposed"
    } else {
        "trusted"
    };
    Ok(ChurnScenarioResult {
        name: scenario.name,
        mode,
        verdict,
        expected,
        settled: settle_delay.is_some(),
        settle_delay_rounds: settle_delay,
        accuracy,
        joins: outcome.stats.joins,
        departures: outcome.stats.departures,
        crashes: outcome.stats.crashes,
        recoveries: outcome.stats.recoveries,
        challenge_retries: outcome.stats.challenge_retries,
        messages_unreachable: outcome.messages_unreachable,
        messages_partitioned: outcome.messages_partitioned,
    })
}

/// Renders the churn-robustness results table.
#[must_use]
pub fn render_churn_table(results: &[ChurnScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<15} {:<12} {:<10} {:>6} {:>9} {:>13} {:>7} {:>7} {:>6}\n",
        "scenario",
        "mode",
        "verdict",
        "expected",
        "delay",
        "accuracy",
        "j/l/c/r",
        "retry",
        "unrch",
        "part"
    ));
    out.push_str(&"-".repeat(122));
    out.push('\n');
    for r in results {
        out.push_str(&format!(
            "{:<26} {:<15} {:<12} {:<10} {:>6} {:>9} {:>13} {:>7} {:>7} {:>6}\n",
            r.name,
            r.mode.label(),
            r.verdict,
            r.expected,
            r.settle_delay_rounds
                .map_or_else(|| "never".to_string(), |d| format!("+{d}")),
            if r.accuracy { "ok" } else { "FAIL" },
            format!(
                "{}/{}/{}/{}",
                r.joins, r.departures, r.crashes, r.recoveries
            ),
            r.challenge_retries,
            r.messages_unreachable,
            r.messages_partitioned
        ));
    }
    out
}

/// Drives a 4-node PeerReview deployment round by round (8 messages per
/// round, one audit round each) and returns the number of audit rounds
/// until every *current correct witness* of `target` holds an `Exposed`
/// verdict — the detection latency of whatever fault the plan injects.
/// Returns `None` when exposure is not reached within `max_rounds` (the
/// drain round that closes the piggyback pipeline tail counts as one more
/// round).
///
/// This is the completeness-cost probe for Byzantine audit witnesses: a
/// relay-refusing or gossip-withholding witness delays commitment
/// propagation to its fellows, and the rotating direct announcements bound
/// that delay — measured here, gated in `reproduce --check` via
/// `--max-exposure-latency-rounds`.
///
/// # Errors
///
/// Propagates cluster/session errors from the run.
pub fn measure_exposure_latency(
    mode: CommitMode,
    faults: FaultPlan,
    target: u32,
    max_rounds: u64,
) -> Result<Option<u64>, CoreError> {
    let mut config = PeerReviewConfig {
        nodes: 4,
        seed: 42,
        ..PeerReviewConfig::default()
    };
    mode.apply(&mut config);
    let pr = PeerReview::new(config, faults)?;
    drive_until_exposed(pr, target, max_rounds, 8, 1)
}

/// One row of the sampled-auditing scaling probe driven by `reproduce`:
/// an 8-node piggyback deployment measured fault-free for the traffic
/// half, plus a seq-0 log-tamperer twin for the detection half.
#[derive(Debug, Clone)]
pub struct SampledProbeRow {
    /// Probe label (`full audit`, `sampled (k=1)`, …).
    pub label: String,
    /// Charges each witness audits per round (`None` = full audit).
    pub audit_sample_size: Option<u32>,
    /// Audit wire messages per node per audit round of the fault-free run
    /// (the drain pass counts as one more audit round).
    pub audit_msgs_per_node_round: f64,
    /// Transport messages that carried audit traffic
    /// (`ClusterStats::messages_audit`).
    pub messages_audit: u64,
    /// Audit elements that rode a batched envelope instead of their own
    /// message (`ClusterStats::messages_batched`).
    pub messages_batched: u64,
    /// Audit rounds until every correct witness exposed the tamperer twin
    /// (`None` = never within the probe's round budget).
    pub detection_latency_rounds: Option<u64>,
}

/// Runs one sampled-auditing scaling probe configuration: 8 nodes,
/// piggybacked commitments over rotating 3-witness sets, 8 audit rounds ×
/// 8 messages. Full audit (`None`) is the baseline the sampled rows are
/// compared against; `coverage_window` forces every pair to be audited at
/// least once per window on top of the rotating sample.
///
/// # Errors
///
/// Propagates cluster/session errors from the runs.
pub fn run_sampled_probe(
    audit_sample_size: Option<u32>,
    coverage_window: u64,
) -> Result<SampledProbeRow, CoreError> {
    const NODES: u32 = 8;
    const ROUNDS: u64 = 8;
    const MSGS: u64 = 8;
    let mut config = PeerReviewConfig {
        nodes: NODES,
        seed: 42,
        audit_sample_size,
        audit_coverage_window: coverage_window,
        ..PeerReviewConfig::default()
    };
    CommitMode::Piggyback { witnesses: 3 }.apply(&mut config);
    let mut pr = PeerReview::new(config, FaultPlan::all_correct())?;
    pr.run_scenario_ext(ROUNDS, MSGS, 1)?;
    let stats = pr.stats();
    let cluster = pr.cluster().stats();
    let twin = PeerReview::new(
        config,
        FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
    )?;
    let detection = drive_until_exposed(twin, 1, 4 * (ROUNDS + coverage_window), MSGS, 1)?;
    let audit_rounds = ROUNDS + 1;
    Ok(SampledProbeRow {
        label: audit_sample_size
            .map_or_else(|| "full audit".to_string(), |k| format!("sampled (k={k})")),
        audit_sample_size,
        audit_msgs_per_node_round: stats.audit_messages as f64
            / (u64::from(NODES) * audit_rounds) as f64,
        messages_audit: cluster.messages_audit,
        messages_batched: cluster.messages_batched,
        detection_latency_rounds: detection,
    })
}

/// Every `(witness, node)` verdict divergence between a run and its twin,
/// formatted for assertion messages (empty = exact parity). Pairs present
/// in only one run (rotation can change the final witness relation) are
/// compared against `Trusted`.
#[must_use]
pub fn verdict_divergences(subject: &ParityOutcome, twin: &ParityOutcome) -> Vec<String> {
    let mut out = Vec::new();
    let pairs: std::collections::BTreeSet<(u32, u32)> = subject
        .verdicts
        .keys()
        .chain(twin.verdicts.keys())
        .copied()
        .collect();
    for (w, n) in pairs {
        let a = subject.verdict_of(w, n);
        let b = twin.verdict_of(w, n);
        if a != b {
            out.push(format!(
                "witness {w} of node {n}: {} vs twin {}",
                a.label(),
                b.label()
            ));
        }
    }
    out
}

/// Asserts exact verdict parity between a run and its twin.
///
/// # Panics
///
/// Panics with the divergence list when any `(witness, node)` verdict
/// differs.
pub fn assert_verdict_parity(subject: &ParityOutcome, twin: &ParityOutcome, context: &str) {
    let divergences = verdict_divergences(subject, twin);
    assert!(
        divergences.is_empty(),
        "{context}: verdicts diverge from the twin:\n  {}",
        divergences.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring recorder that burns `cost` of wall clock on every event: the
    /// defect the `trace-overhead` gate exists to catch.
    struct SlowRecorder {
        ring: tnic_obs::RingRecorder,
        cost: std::time::Duration,
    }

    impl tnic_obs::Recorder for SlowRecorder {
        fn record(&mut self, event: tnic_obs::Event) {
            let start = std::time::Instant::now();
            while start.elapsed() < self.cost {
                std::hint::spin_loop();
            }
            self.ring.record(event);
        }

        fn snapshot(&self) -> Vec<tnic_obs::Event> {
            self.ring.snapshot()
        }
    }

    #[test]
    fn injected_per_event_recorder_cost_trips_trace_overhead_gate() {
        let scenario = Scenario::suite()
            .into_iter()
            .find(|s| s.name == "exec-tampering")
            .unwrap();
        let mode = CommitMode::Piggyback { witnesses: 2 };
        let run = || run_scenario_mode(&scenario, Baseline::Tnic, mode).is_ok();
        let cost = std::time::Duration::from_micros(50);
        let slow = measure_trace_overhead(2, run, || {
            Box::new(SlowRecorder {
                ring: tnic_obs::RingRecorder::with_capacity(1 << 12),
                cost,
            })
        })
        .expect("probe runs");
        assert!(slow.events > 0, "the scenario records events");
        assert!(
            slow.ns_per_event() >= 0.9 * cost.as_nanos() as f64,
            "{slow:?}"
        );
        let gate = gates::trace_overhead_gate(Some(slow.pct()), 150.0);
        assert!(!gate.passed, "{slow:?}");
    }

    #[test]
    fn suite_covers_every_fault_class_once() {
        let suite = Scenario::suite();
        assert_eq!(suite.len(), 10);
        assert_eq!(
            suite.iter().filter(|s| !s.fault.is_byzantine()).count(),
            1,
            "exactly one control run"
        );
        assert_eq!(
            suite.iter().filter(|s| s.fault.is_witness_fault()).count(),
            5,
            "every audit-side witness fault has a row"
        );
        // Only the forging accuser is provable among the witness faults.
        for s in &suite {
            if s.fault.is_witness_fault() {
                let expected = if s.fault == NodeFault::ForgeEvidence {
                    "exposed"
                } else {
                    "trusted"
                };
                assert_eq!(s.expected_verdict(), expected, "{}", s.name);
            }
        }
        assert!(!Scenario::suite()[5].requires_unanimity());
    }

    #[test]
    fn scenario_runner_classifies_equivocation() {
        let scenario = &Scenario::suite()[1];
        assert_eq!(scenario.name, "equivocation");
        let result = run_scenario(scenario, Baseline::Tnic).unwrap();
        assert_eq!(result.verdict, "exposed");
        assert!(result.unanimous);
        assert!(result.control_messages > 0);
    }

    #[test]
    fn every_fault_scenario_keeps_its_verdict_in_both_commit_modes() {
        for scenario in Scenario::suite() {
            let expected = scenario.expected_verdict();
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let result = run_scenario_mode(&scenario, Baseline::Tnic, mode).unwrap();
                assert_eq!(
                    result.verdict,
                    expected,
                    "{} in {}",
                    scenario.name,
                    mode.label()
                );
                if scenario.requires_unanimity() {
                    assert!(result.unanimous, "{} in {}", scenario.name, mode.label());
                }
                assert!(
                    result.accuracy,
                    "{} in {}: a correct node lost its clean record",
                    scenario.name,
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn relay_refusing_witness_costs_bounded_detection_latency() {
        let mode = CommitMode::Piggyback { witnesses: 2 };
        let tamper = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
        let baseline = measure_exposure_latency(mode, tamper.clone(), 1, 8)
            .unwrap()
            .expect("tamperer exposed on a clean witness set");
        for witness_fault in [
            NodeFault::WithholdGossip,
            NodeFault::RefuseRelay,
            NodeFault::SilentWitness,
        ] {
            let mut faults = tamper.clone();
            faults.set(2, witness_fault);
            let delayed = measure_exposure_latency(mode, faults, 1, 8)
                .unwrap()
                .unwrap_or_else(|| panic!("{witness_fault:?} must not prevent exposure"));
            assert!(
                delayed <= baseline + 2,
                "{witness_fault:?}: latency {delayed} rounds vs baseline {baseline} — \
                 the rotation bound is broken"
            );
        }
    }

    #[test]
    fn piggybacking_meets_the_overhead_target_on_fault_free_runs() {
        let scenario = &Scenario::suite()[0];
        let dedicated = run_scenario(scenario, Baseline::Tnic).unwrap();
        let piggy = run_scenario_mode(
            scenario,
            Baseline::Tnic,
            CommitMode::Piggyback { witnesses: 2 },
        )
        .unwrap();
        assert!(
            piggy.overhead_ratio <= 2.0,
            "ctl/app {:.2} exceeds 2.0",
            piggy.overhead_ratio
        );
        assert!(piggy.overhead_ratio < dedicated.overhead_ratio / 3.0);
        assert!(piggy.piggybacked > 0);
        assert_eq!(dedicated.piggybacked, 0);
    }

    #[test]
    fn sweep_rows_report_the_swept_parameters() {
        let row = run_sweep_point(SweepPoint {
            app: SweepApp::PeerReview,
            mode: CommitMode::Piggyback { witnesses: 2 },
            payload: 256,
            nodes: 4,
            audit_period: 2,
            rounds: 4,
            messages_per_round: 8,
            checkpoint_interval: None,
            churn_rate: 0.0,
            partition_rounds: 0,
            audit_sample_size: None,
            shards: 1,
            event_driven: false,
        })
        .unwrap();
        assert_eq!(row.witnesses, 2);
        assert_eq!(row.app_messages, 32);
        assert!(row.piggybacked > 0);
        let csv = row.to_csv();
        assert!(csv.starts_with("peerreview,piggyback(w=2),256,4,2,2,-,4,8,32,"));
        let cols: Vec<&str> = csv.split(',').collect();
        let headers: Vec<&str> = SWEEP_CSV_HEADER.split(',').collect();
        assert_eq!(cols.len(), headers.len(), "row matches header arity");
        let col = |name: &str| cols[headers.iter().position(|h| *h == name).unwrap()];
        assert_eq!(col("churn_rate"), "0.00");
        assert_eq!(col("partition_rounds"), "0");
        assert_eq!(col("audit_sample_size"), "-", "full audit prints a dash");
        assert_eq!(col("shards"), "1");
        assert!(
            col("audit_msgs_per_node_round").parse::<f64>().unwrap() > 0.0,
            "audits actually ran: {csv}"
        );
        assert_eq!(
            col("detection_latency_rounds"),
            col("exposure_latency_rounds"),
            "without sampling the two latency columns coincide"
        );
    }

    #[test]
    fn bft_and_cr_sweep_points_measure_the_stacked_engine() {
        for app in [SweepApp::Bft, SweepApp::Cr, SweepApp::A2m] {
            let row = run_sweep_point(SweepPoint {
                app,
                mode: CommitMode::Piggyback { witnesses: 2 },
                payload: 64,
                nodes: 3,
                audit_period: 1,
                rounds: 3,
                messages_per_round: 4,
                checkpoint_interval: None,
                churn_rate: 0.0,
                partition_rounds: 0,
                audit_sample_size: None,
                shards: 1,
                event_driven: false,
            })
            .unwrap();
            assert_eq!(row.witnesses, 2, "{app:?}");
            assert!(row.app_messages > 0, "{app:?}");
            assert!(row.challenges > 0, "{app:?}: audits actually ran");
            assert!(row.log_entries > 0, "{app:?}");
            let csv = row.to_csv();
            assert!(csv.starts_with(app.label()), "{app:?}");
            assert_eq!(csv.split(',').count(), SWEEP_CSV_HEADER.split(',').count());
        }
    }

    #[test]
    fn churn_suite_settles_cleanly_in_both_modes() {
        // The acceptance matrix of the robustness claim: crash-rejoin,
        // partition-heal, join, leave and chain fail-over — honest and
        // tampering — in both commit modes. No correct node is ever
        // exposed, tampering churners always are, and verdicts settle
        // within the CI bound.
        for scenario in ChurnScenario::suite() {
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let result = run_churn_scenario(&scenario, mode, 8).unwrap();
                assert!(
                    result.accuracy,
                    "{} [{}]: a correct node was exposed under churn",
                    scenario.name,
                    mode.label()
                );
                assert_eq!(
                    result.verdict,
                    result.expected,
                    "{} [{}]",
                    scenario.name,
                    mode.label()
                );
                let delay = result.settle_delay_rounds.unwrap_or_else(|| {
                    panic!(
                        "{} [{}]: verdicts never settled",
                        scenario.name,
                        mode.label()
                    )
                });
                assert!(
                    delay <= 6,
                    "{} [{}]: settle delay {delay} exceeds the CI bound",
                    scenario.name,
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn churn_runs_keep_verdict_parity_across_commit_modes() {
        // A crash-rejoin schedule must classify identically whether
        // commitments are dedicated or piggybacked — churn does not break
        // the commit-mode equivalence the parity harness asserts elsewhere.
        let churn = ChurnPlan {
            actions: vec![
                (1, ChurnAction::Crash { node: 1 }),
                (2, ChurnAction::Recover { node: 1 }),
            ],
            partition: None,
        };
        let mut dedicated = ParitySpec::new(
            SweepApp::PeerReview,
            CommitMode::Dedicated,
            FaultPlan::all_correct(),
        );
        dedicated.rounds = 4;
        dedicated.churn = Some(churn);
        let mut piggyback = dedicated.clone();
        piggyback.mode = CommitMode::Piggyback { witnesses: 2 };
        let a = run_verdict_matrix(&dedicated).unwrap();
        let b = run_verdict_matrix(&piggyback).unwrap();
        assert!(a.stats.crashes == 1 && a.stats.recoveries == 1);
        assert!(
            a.messages_unreachable > 0,
            "crash window must refuse (and count) sends, not lose them"
        );
        assert_verdict_parity(&a, &b, "crash-rejoin dedicated vs piggyback");
    }

    #[test]
    fn churned_sweep_points_carry_the_new_columns_and_still_detect() {
        // Crash-recover churn cycles.
        let churned = run_sweep_point(SweepPoint {
            app: SweepApp::PeerReview,
            mode: CommitMode::Piggyback { witnesses: 2 },
            payload: 64,
            nodes: 4,
            audit_period: 1,
            rounds: 8,
            messages_per_round: 8,
            checkpoint_interval: None,
            churn_rate: 0.25,
            partition_rounds: 0,
            audit_sample_size: None,
            shards: 1,
            event_driven: false,
        })
        .unwrap();
        let csv = churned.to_csv();
        assert!(csv.contains(",0.25,0,"), "{csv}");
        assert_eq!(csv.split(',').count(), SWEEP_CSV_HEADER.split(',').count());
        assert!(
            churned.exposure_latency_rounds.is_some(),
            "the tamperer twin must still be detected under churn"
        );
        // A healed partition window.
        let partitioned = run_sweep_point(SweepPoint {
            app: SweepApp::PeerReview,
            mode: CommitMode::Dedicated,
            payload: 64,
            nodes: 4,
            audit_period: 1,
            rounds: 8,
            messages_per_round: 8,
            checkpoint_interval: None,
            churn_rate: 0.0,
            partition_rounds: 2,
            audit_sample_size: None,
            shards: 1,
            event_driven: false,
        })
        .unwrap();
        let csv = partitioned.to_csv();
        assert!(csv.contains(",0.00,2,"), "{csv}");
        assert!(
            partitioned.exposure_latency_rounds.is_some(),
            "detection must land once the partition heals"
        );
    }

    #[test]
    fn sampled_sharded_event_driven_point_cuts_audit_traffic() {
        // The scaling-frontier columns at a mid-size point: sampling with
        // sharded witnesses on the event-driven core trades bounded
        // detection latency for audit traffic.
        let base = SweepPoint {
            app: SweepApp::PeerReview,
            mode: CommitMode::Piggyback { witnesses: 4 },
            payload: 64,
            nodes: 12,
            audit_period: 1,
            rounds: 6,
            messages_per_round: 12,
            checkpoint_interval: None,
            churn_rate: 0.0,
            partition_rounds: 0,
            audit_sample_size: None,
            shards: 2,
            event_driven: true,
        };
        let full = run_sweep_point(base).unwrap();
        let sampled = run_sweep_point(SweepPoint {
            audit_sample_size: Some(1),
            rounds: 10,
            ..base
        })
        .unwrap();
        assert!(full.audit_msgs_per_node_round() > 0.0);
        assert!(
            sampled.audit_msgs_per_node_round() < full.audit_msgs_per_node_round() / 2.0,
            "sampling must cut audit traffic: {} vs {}",
            sampled.audit_msgs_per_node_round(),
            full.audit_msgs_per_node_round()
        );
        let full_latency = full
            .detection_latency_rounds
            .expect("full audit detects the twin tamperer");
        let sampled_latency = sampled
            .detection_latency_rounds
            .expect("sampling still detects the twin tamperer");
        assert!(
            sampled_latency >= full_latency,
            "sampling can only delay detection: {sampled_latency} vs {full_latency}"
        );
        let csv = sampled.to_csv();
        let cols: Vec<&str> = csv.split(',').collect();
        let headers: Vec<&str> = SWEEP_CSV_HEADER.split(',').collect();
        assert_eq!(cols.len(), headers.len());
        let col = |name: &str| cols[headers.iter().position(|h| *h == name).unwrap()];
        assert_eq!(col("audit_sample_size"), "1");
        assert_eq!(col("shards"), "2");
        assert_eq!(col("detection_latency_rounds"), sampled_latency.to_string());
    }

    #[test]
    fn event_driven_and_sampled_churn_runs_keep_verdict_parity() {
        // The churned half of the parity claim: a crash-rejoin schedule
        // classifies identically on the dense and event-driven cores (with
        // identical transport message counts), and sampled auditing settles
        // to the same final verdicts — in both commit modes, honest and
        // tampering.
        let plans = [
            FaultPlan::all_correct(),
            FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
        ];
        for mode in [
            CommitMode::Dedicated,
            CommitMode::Piggyback { witnesses: 2 },
        ] {
            for faults in &plans {
                let mut base = ParitySpec::new(SweepApp::PeerReview, mode, faults.clone());
                base.rounds = 6;
                base.challenge_retries = 2;
                base.churn = Some(ChurnPlan {
                    actions: vec![
                        (1, ChurnAction::Crash { node: 2 }),
                        (2, ChurnAction::Recover { node: 2 }),
                    ],
                    partition: None,
                });
                let dense = run_verdict_matrix(&base).unwrap();
                let mut spec = base.clone();
                spec.event_driven = true;
                let event = run_verdict_matrix(&spec).unwrap();
                let context = format!("event-driven churn [{}] {faults:?}", mode.label());
                assert_verdict_parity(&dense, &event, &context);
                assert_eq!(
                    dense.messages_sent, event.messages_sent,
                    "{context}: the schedulers must send the same messages"
                );
                assert_eq!(dense.stats.challenges, event.stats.challenges, "{context}");
                let mut spec = base.clone();
                spec.audit_sample_size = Some(1);
                let sampled = run_verdict_matrix(&spec).unwrap();
                let context = format!("sampled churn [{}] {faults:?}", mode.label());
                assert_verdict_parity(&dense, &sampled, &context);
                assert!(
                    sampled.stats.challenges < dense.stats.challenges,
                    "{context}: sampling must issue fewer challenges"
                );
            }
        }
    }

    #[test]
    fn round_digest_batching_keeps_fault_suite_verdict_parity() {
        // The acceptance matrix of the batching claim, fault half: every
        // scenario of the fault suite classifies identically with round
        // digests on (default) and off (the per-message twin), in both
        // commit modes — and batching strictly shrinks the audit-protocol
        // share of the logs.
        let mut batched_total = 0u64;
        let mut twin_total = 0u64;
        for scenario in Scenario::suite() {
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let batched = ParitySpec::new(SweepApp::PeerReview, mode, scenario.fault_plan());
                let mut twin = batched.clone();
                twin.round_audit_digests = false;
                let a = run_verdict_matrix(&batched).unwrap();
                let b = run_verdict_matrix(&twin).unwrap();
                let context = format!("round-digest {} [{}]", scenario.name, mode.label());
                assert_verdict_parity(&a, &b, &context);
                assert!(
                    a.stats.log_audit_digest_entries <= b.stats.log_audit_digest_entries,
                    "{context}: batching never inflates the audit share"
                );
                assert_eq!(
                    a.stats.log_app_payload_entries, b.stats.log_app_payload_entries,
                    "{context}: application entries are untouched"
                );
                batched_total += a.stats.log_audit_digest_entries;
                twin_total += b.stats.log_audit_digest_entries;
            }
        }
        assert!(
            batched_total * 5 <= twin_total,
            "round digests cut audit-protocol entries >= 5x across the suite: \
             {batched_total} vs {twin_total}"
        );
    }

    #[test]
    fn round_digest_batching_keeps_churn_suite_verdict_parity() {
        // The churn half: crash-rejoin, partition-heal, join, leave and
        // chain fail-over classify identically with round digests on and
        // off, in both commit modes.
        for scenario in ChurnScenario::suite() {
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let rounds = scenario.settle_round + 4;
                let batched = scenario.spec(mode, rounds);
                let mut twin = batched.clone();
                twin.round_audit_digests = false;
                let a = run_verdict_matrix(&batched).unwrap();
                let b = run_verdict_matrix(&twin).unwrap();
                let context = format!("round-digest {} [{}]", scenario.name, mode.label());
                assert_verdict_parity(&a, &b, &context);
            }
        }
    }

    #[test]
    fn sampled_detection_lands_within_the_coverage_bound() {
        // The sampled-auditing safety property, swept over sample sizes and
        // sample seeds: a tampering node is exposed within the coverage
        // window plus the full-audit exposure pipeline slack, never missed.
        // The `rotate` axis runs the same bound across epoch witness
        // rotations: the backstop's per-pair clock must carry through the
        // handover (an incoming witness inheriting no offset would restart
        // the stagger and stretch the worst case past the window).
        let window = 4u64;
        let slack = 4u64;
        for rotate in [false, true] {
            for sample_size in 1..=3u32 {
                for sample_seed in [1u64, 42, 0xfeed] {
                    let config = PeerReviewConfig {
                        nodes: 6,
                        seed: 42,
                        audit_sample_size: Some(sample_size),
                        audit_sample_seed: sample_seed,
                        audit_coverage_window: window,
                        witness_count: if rotate { Some(3) } else { None },
                        checkpoint_interval: if rotate { Some(2) } else { None },
                        rotate_witnesses: rotate,
                        ..PeerReviewConfig::default()
                    };
                    let pr = PeerReview::new(
                        config,
                        FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 }),
                    )
                    .unwrap();
                    let latency = drive_until_exposed(pr, 1, 4 * (window + slack), 8, 1)
                        .unwrap()
                        .unwrap_or_else(|| {
                            panic!(
                                "rotate {rotate} size {sample_size} seed {sample_seed:#x}: \
                                 tamperer never exposed"
                            )
                        });
                    assert!(
                        latency <= window + slack,
                        "rotate {rotate} size {sample_size} seed {sample_seed:#x}: \
                         detection took {latency} > {} rounds",
                        window + slack
                    );
                }
            }
        }
    }

    #[test]
    fn acct_suite_covers_both_apps_with_control_runs() {
        let suite = AcctScenario::suite();
        assert_eq!(suite.len(), 6);
        for app in [AcctApp::Bft, AcctApp::Cr, AcctApp::A2m] {
            assert_eq!(
                suite
                    .iter()
                    .filter(|s| s.app == app && s.fault.is_none())
                    .count(),
                1,
                "one control run per app"
            );
            assert_eq!(
                suite
                    .iter()
                    .filter(|s| s.app == app && s.fault.is_some())
                    .count(),
                1,
                "one Byzantine run per app"
            );
        }
    }

    #[test]
    fn acct_scenarios_classify_and_keep_protocol_health_in_both_modes() {
        for scenario in AcctScenario::suite() {
            let expected = if scenario.fault.is_some() {
                "exposed"
            } else {
                "trusted"
            };
            for mode in [
                CommitMode::Dedicated,
                CommitMode::Piggyback { witnesses: 2 },
            ] {
                let result = run_acct_scenario(&scenario, mode).unwrap();
                assert_eq!(
                    result.verdict,
                    expected,
                    "{} in {}",
                    scenario.name,
                    mode.label()
                );
                assert!(result.unanimous, "{}", scenario.name);
                assert!(
                    result.protocol_committed,
                    "{}: log-level faults must not break the dataflow",
                    scenario.name
                );
                assert!(result.state_parity, "{}", scenario.name);
                assert!(result.control_messages > 0);
                assert!(
                    result.time_overhead > 1.0,
                    "{}: accountability costs virtual time",
                    scenario.name
                );
                if matches!(mode, CommitMode::Piggyback { .. }) {
                    assert!(result.piggybacked > 0, "{}", scenario.name);
                }
            }
        }
    }

    #[test]
    fn acct_table_renders_one_row_per_result() {
        let result = run_acct_scenario(
            &AcctScenario::suite()[0],
            CommitMode::Piggyback { witnesses: 2 },
        )
        .unwrap();
        let table = render_acct_table(&[result]);
        assert!(table.contains("bft-acct/fault-free"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn scenario_runner_reports_clean_control_run() {
        let result = run_scenario(&Scenario::suite()[0], Baseline::Tnic).unwrap();
        assert_eq!(result.verdict, "trusted");
        assert!(result.unanimous);
        assert_eq!(result.app_messages, 24);
    }

    #[test]
    fn table_renders_one_row_per_result() {
        let results = vec![run_scenario(&Scenario::suite()[0], Baseline::Tnic).unwrap()];
        let table = render_table(&results);
        assert!(table.contains("fault-free"));
        assert!(table.contains("TNIC"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn time_op_measures_real_work() {
        let ns = time_op(10, || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        assert!(
            ns >= 50_000.0,
            "10 x 50us sleeps must average at least 50us/op, got {ns}"
        );
        // The zero-iteration path must not divide by zero.
        let zero_iters = time_op(0, || ());
        assert!(zero_iters.is_finite() && zero_iters >= 0.0);
    }
}
