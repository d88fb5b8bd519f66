//! Reproduction runner: executes the PeerReview fault-injection scenarios
//! — on the raw substrate and stacked under the BFT and chain-replication
//! transforms — prints results tables, and generates a markdown perf
//! report.
//!
//! Usage: `cargo run --release -p tnic-bench --bin reproduce
//! [--all-baselines] [--check] [--max-ctl-app RATIO] [--max-acct-ctl-app RATIO]
//! [--max-retained-entries N] [--max-exposure-latency-rounds N]
//! [--max-verdict-delay-rounds N] [--max-audit-msgs-per-node-round RATE]
//! [--max-audit-log-fraction F] [--max-trace-overhead-pct PCT]
//! [--trace-out DIR] [--report PATH]`
//!
//! The `audit-log-share` gate bounds the fraction of every scenario's log
//! taken by audit-protocol digest entries (`--max-audit-log-fraction`,
//! default 0.5): with round-digest batching one `AuditRound` entry per
//! audit round replaces the per-envelope digest flood, so audit metadata
//! can no longer dominate the very logs being audited.
//!
//! With `--trace-out DIR` the traced scenarios additionally export their
//! assembled cross-node timeline as Chrome trace-event JSON
//! (`DIR/trace-<scenario>.chrome.json`, loadable at
//! <https://ui.perfetto.dev>) and compact JSONL
//! (`DIR/trace-<scenario>.jsonl`). A wall-clock probe compares the traced
//! and untraced exec-tampering runs; `--max-trace-overhead-pct` (default
//! 150) bounds the enabled-recorder slowdown under `--check`. Alongside
//! the markdown report the run emits a machine-readable
//! `BENCH_report.json` (gate outcomes, per-scenario numbers, the metrics
//! registry), and **any** failing gate writes a bounded flight-recorder
//! dump to `reports/flightrec-reproduce.json` — trace tail, metrics
//! snapshot and log-composition breakdown — so a red CI run carries its
//! own post-mortem.
//!
//! Every PeerReview scenario runs a 4-node accountable deployment (3 rounds
//! × 8 application messages) with one Byzantine behaviour injected through
//! `tnic_net::adversary` — three times: with dedicated all-to-all
//! commitments (the classic baseline), with commitments piggybacked on
//! application traffic over a rotating 2-witness set, and with
//! piggybacking plus cosigned checkpointing every audit round (the
//! long-running configuration — the whole fault suite must classify
//! identically with garbage collection on). Besides the classic node
//! faults the suite injects the audit-side Byzantine *witness* behaviours
//! (forged evidence, false suspicion, withheld gossip, refused relays,
//! silent audits): the accuracy half of the accountability claim — a
//! correct node is never exposed, even when witnesses lie — is asserted on
//! every row. The table reports the verdict reached by the correct
//! witnesses, the control-message overhead per mode and the audit latency
//! distribution, so the piggybacking win is measured, not asserted. With
//! `--all-baselines` the suite additionally runs over every attestation
//! back-end (the paper's §8.3 methodology) instead of TNIC only.
//!
//! An exposure-latency probe then quantifies the *completeness* cost of
//! lying witnesses in piggyback mode: a seq-0 log tamperer with a
//! gossip-withholding / relay-refusing / silent first witness must still
//! be exposed by the remaining correct witnesses, within
//! `--max-exposure-latency-rounds` (default 6) audit rounds — the rotating
//! announcement target bounds the delay.
//!
//! The `bft-acct`/`cr-acct`/`a2m-acct` suite then stacks the *same*
//! accountability engine under the BFT counter, the replicated KV chain
//! and the replicated A2M, and a 200-audit-round retention probe certifies
//! the bounded-memory story (see `tnic_bench::run_retention_probe`).
//!
//! A sampled-auditing probe (`tnic_bench::run_sampled_probe`) compares full
//! auditing against rotating samples of size 2 and 1: the `audit-traffic`
//! gate bounds audit messages per node per audit round for sampled rows
//! (`--max-audit-msgs-per-node-round`, default 4.0) and the
//! `sampled-detection-latency` gate requires a log tamperer's exposure to
//! land within `--max-exposure-latency-rounds` plus the coverage window —
//! sampling must buy traffic, not lose detection.
//!
//! A membership-churn suite (`tnic_bench::ChurnScenario`) then drives
//! crash-rejoin (honest and tampering), partition healing, live joins,
//! graceful leaves (honest and tampering) and chain-replication
//! head/middle/tail fail-overs through the same verdict-parity harness in
//! both commit modes: no correct node is ever exposed under churn, faulty
//! churners still are, and the verdict-settle delay after the churn
//! schedule is measured and bounded by `--max-verdict-delay-rounds`
//! (default 6) under `--check`.
//!
//! Two scenarios (exec-tampering and forge-evidence) additionally run with
//! the `tnic_obs` event recorder installed; the report reconstructs each
//! verdict's causal chain (commitment → challenge → response → replay →
//! verdict, or evidence → verdict) with a per-phase virtual-time
//! breakdown — where the exposure latency actually went.
//!
//! Results land in a markdown report (default `reports/reproduce.md`,
//! override with `--report PATH`): verdict tables, virtual throughput,
//! ctl/app overhead, latency percentiles, allocation counts, event-count
//! metrics per traced scenario and the verdict timelines.
//!
//! `--check` turns the run into a CI gate. Every gate is *named* and
//! evaluated independently (`tnic_bench::gates`); a failing run prints
//! each broken gate by name — never just the first — and exits non-zero.
//! Verdict/accuracy/completeness gates are fatal even without `--check`;
//! the overhead and memory bounds (`--max-ctl-app`, `--max-acct-ctl-app`,
//! the relative [`CKPT_OVERHEAD_FACTOR`], `--max-retained-entries`,
//! `--max-exposure-latency-rounds`) only gate under `--check`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tnic_bench::gates::{self, GateOutcome};
use tnic_bench::{
    measure_exposure_latency, render_acct_table, render_churn_table, render_table, report,
    run_acct_scenario, run_churn_scenario, run_retention_probe, run_sampled_probe,
    run_scenario_mode, run_scenario_traced, AcctScenario, AcctScenarioResult, ChurnScenario,
    ChurnScenarioResult, CommitMode, SampledProbeRow, Scenario, ScenarioResult,
};
use tnic_net::adversary::{FaultPlan, NodeFault};
use tnic_obs::metrics::MetricsRegistry;
use tnic_tee::profile::Baseline;

/// System allocator wrapper counting every allocation, so the report can
/// state whole-process allocation counts for the run.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MODES: [CommitMode; 3] = [
    CommitMode::Dedicated,
    CommitMode::Piggyback { witnesses: 2 },
    CommitMode::Checkpointed {
        witnesses: 2,
        interval: 1,
    },
];

/// Audit rounds and checkpoint interval of the bounded-memory probe.
const PROBE_ROUNDS: u64 = 200;
const PROBE_INTERVAL: u64 = 4;

/// A fault-free checkpointed row may cost at most this factor over the
/// corresponding piggyback row's ctl/app ratio (interval 1 is the
/// worst case — every audit round pays proposals, cosignatures and a
/// commit certificate; measured ~2.0-2.5x today).
const CKPT_OVERHEAD_FACTOR: f64 = 3.0;

/// Ring capacity for the traced scenario runs (events, not bytes).
const TRACE_CAPACITY: usize = 1 << 18;

/// Coverage window of the sampled-auditing probe: every pair is audited at
/// least once per this many rounds on top of the rotating sample, so the
/// sampled-detection-latency gate bound is
/// `--max-exposure-latency-rounds + SAMPLED_COVERAGE_WINDOW`.
const SAMPLED_COVERAGE_WINDOW: u64 = 4;

fn main() {
    let mut all_baselines = false;
    let mut check = false;
    let mut max_ctl_app = 2.0f64;
    let mut max_acct_ctl_app = 3.0f64;
    let mut max_retained_entries = 600u64;
    let mut max_exposure_latency_rounds = 6u64;
    let mut max_verdict_delay_rounds = 6u64;
    let mut max_audit_msgs_per_node_round = 4.0f64;
    let mut max_audit_log_fraction = 0.5f64;
    let mut max_trace_overhead_pct = 150.0f64;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut report_path = std::path::PathBuf::from("reports/reproduce.md");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all-baselines" => all_baselines = true,
            "--check" => check = true,
            "--max-ctl-app" => {
                max_ctl_app = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--max-ctl-app requires a number");
                    std::process::exit(2);
                });
            }
            "--max-acct-ctl-app" => {
                max_acct_ctl_app = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--max-acct-ctl-app requires a number");
                    std::process::exit(2);
                });
            }
            "--max-retained-entries" => {
                max_retained_entries =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-retained-entries requires a number");
                        std::process::exit(2);
                    });
            }
            "--max-exposure-latency-rounds" => {
                max_exposure_latency_rounds =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-exposure-latency-rounds requires a number");
                        std::process::exit(2);
                    });
            }
            "--max-verdict-delay-rounds" => {
                max_verdict_delay_rounds =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-verdict-delay-rounds requires a number");
                        std::process::exit(2);
                    });
            }
            "--max-audit-msgs-per-node-round" => {
                max_audit_msgs_per_node_round =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-audit-msgs-per-node-round requires a number");
                        std::process::exit(2);
                    });
            }
            "--max-audit-log-fraction" => {
                max_audit_log_fraction =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-audit-log-fraction requires a number in [0, 1]");
                        std::process::exit(2);
                    });
            }
            "--max-trace-overhead-pct" => {
                max_trace_overhead_pct =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-trace-overhead-pct requires a number");
                        std::process::exit(2);
                    });
            }
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("--trace-out requires a directory");
                    std::process::exit(2);
                }
            },
            "--report" => match args.next() {
                Some(path) => report_path = std::path::PathBuf::from(path),
                None => {
                    eprintln!("--report requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: reproduce [--all-baselines] [--check] [--max-ctl-app RATIO] \
                     [--max-acct-ctl-app RATIO] [--max-retained-entries N] \
                     [--max-exposure-latency-rounds N] [--max-verdict-delay-rounds N] \
                     [--max-audit-msgs-per-node-round RATE] [--max-audit-log-fraction F] \
                     [--max-trace-overhead-pct PCT] [--trace-out DIR] [--report PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let baselines: Vec<Baseline> = if all_baselines {
        Baseline::ALL.to_vec()
    } else {
        vec![Baseline::Tnic]
    };

    println!("TNIC PeerReview accountability scenarios");
    println!(
        "4 nodes, 3 rounds x 8 application messages; dedicated = all-to-all witnesses, \
         piggyback = rotating 2-witness sets\n"
    );

    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut failed_runs: Vec<String> = Vec::new();
    for baseline in baselines {
        for scenario in Scenario::suite() {
            for mode in MODES {
                match run_scenario_mode(&scenario, baseline, mode) {
                    Ok(result) => results.push(result),
                    Err(err) => {
                        let line = format!(
                            "scenario {} over {} ({}): {err}",
                            scenario.name,
                            baseline.label(),
                            mode.label()
                        );
                        eprintln!("{line}");
                        failed_runs.push(line);
                    }
                }
            }
        }
    }

    println!("{}", render_table(&results));
    println!(
        "expectations: fault-free=trusted, equivocation/log-truncation/exec-tampering=exposed, \
         suppression=suspected, forge-evidence=exposed (the accuser!), other witness \
         faults=trusted — in every commitment mode, with accuracy (no correct node ever \
         suspected or exposed) on every row"
    );

    for r in &results {
        if r.name == "fault-free" && matches!(r.mode, CommitMode::Piggyback { .. }) {
            println!(
                "\npiggybacking [{}]: ctl/app {:.2} (dedicated baseline: {:.2}), {} commitments rode",
                r.baseline.label(),
                r.overhead_ratio,
                results
                    .iter()
                    .find(|d| {
                        d.name == "fault-free"
                            && d.baseline == r.baseline
                            && d.mode == CommitMode::Dedicated
                    })
                    .map_or(f64::NAN, |d| d.overhead_ratio),
                r.piggybacked
            );
        }
    }

    // ---- traced runs: causal verdict timelines ---------------------------

    let trace_mode = CommitMode::Piggyback { witnesses: 2 };
    let mut registry = MetricsRegistry::new();
    let mut timeline_sections: Vec<String> = Vec::new();
    // The traced snapshots, kept for the exporters and the flight recorder
    // (first entry = exec-tampering, the exposure chain a post-mortem wants).
    let mut traces: Vec<(&'static str, Vec<tnic_obs::Event>, u64)> = Vec::new();
    for scenario in Scenario::suite() {
        if scenario.name != "exec-tampering" && scenario.name != "forge-evidence" {
            continue;
        }
        match run_scenario_traced(&scenario, Baseline::Tnic, trace_mode, TRACE_CAPACITY) {
            Ok((_, events, dropped, dropped_by_node)) => {
                report::accumulate_events(&mut registry, scenario.name, &events);
                let scope = registry.scope(scenario.name);
                scope.inc("events_dropped", dropped);
                for (node, count) in &dropped_by_node {
                    scope.set_node_gauge("events_dropped", *node, *count as f64);
                }
                timeline_sections.push(report::timeline_section(scenario.name, &events, dropped));
                traces.push((scenario.name, events, dropped));
            }
            Err(err) => {
                let line = format!("traced scenario {}: {err}", scenario.name);
                eprintln!("{line}");
                failed_runs.push(line);
            }
        }
    }
    if let Some(dir) = &trace_out {
        for (name, events, _) in &traces {
            let assembler = tnic_obs::assemble::TraceAssembler::new(events.clone());
            let chrome = tnic_obs::export::chrome_trace(&assembler);
            let jsonl = tnic_obs::export::jsonl(&assembler.ordered());
            if let Err(err) = std::fs::create_dir_all(dir)
                .and_then(|()| {
                    std::fs::write(dir.join(format!("trace-{name}.chrome.json")), chrome)
                })
                .and_then(|()| std::fs::write(dir.join(format!("trace-{name}.jsonl")), jsonl))
            {
                let line = format!("trace export {name}: {err}");
                eprintln!("{line}");
                failed_runs.push(line);
            } else {
                println!(
                    "trace exported: {} (Chrome/Perfetto + JSONL)",
                    dir.join(format!("trace-{name}.chrome.json")).display()
                );
            }
        }
    }

    // ---- enabled-recorder overhead probe ---------------------------------

    // Min-of-N wall clock of the identical scenario with and without the
    // ring recorder installed: min (not mean) sheds scheduler noise. The
    // ring is allocated and installed before the clock starts, so the
    // remaining delta is the per-event recording cost the `trace-overhead`
    // gate bounds.
    let trace_overhead = Scenario::suite()
        .into_iter()
        .find(|s| s.name == "exec-tampering")
        .and_then(|scenario| {
            tnic_bench::measure_trace_overhead(
                5,
                || run_scenario_mode(&scenario, Baseline::Tnic, trace_mode).is_ok(),
                || Box::new(tnic_obs::RingRecorder::with_capacity(TRACE_CAPACITY)),
            )
        });
    if let Some(m) = trace_overhead {
        // A ring slot holds one `Event`: the recorder's bytes per event.
        let event_bytes = std::mem::size_of::<tnic_obs::Event>();
        println!(
            "\nenabled-recorder overhead: {:.1}% wall clock on exec-tampering \
             (gate: <= {max_trace_overhead_pct:.0}%): {:.0} ns and {} B per recorded \
             event, {} events, {:.0} -> {:.0} us",
            m.pct(),
            m.ns_per_event(),
            event_bytes,
            m.events,
            m.untraced_us,
            m.traced_us
        );
        let scope = registry.scope("tracing");
        scope.set_gauge("trace_overhead_pct", m.pct());
        scope.set_gauge("trace_ns_per_event", m.ns_per_event());
        scope.set_gauge("trace_bytes_per_event", event_bytes as f64);
    }

    // ---- accountability stacked on the BFT / CR transforms --------------

    println!(
        "\naccountability as middleware: the same engine under the BFT counter and the KV chain\n\
         (3 nodes, 3 rounds x 4 client operations; time-ovh = virtual time vs engine-free twin)\n"
    );
    let mut acct_results: Vec<AcctScenarioResult> = Vec::new();
    for scenario in AcctScenario::suite() {
        for mode in MODES {
            match run_acct_scenario(&scenario, mode) {
                Ok(result) => acct_results.push(result),
                Err(err) => {
                    let line = format!("scenario {} ({}): {err}", scenario.name, mode.label());
                    eprintln!("{line}");
                    failed_runs.push(line);
                }
            }
        }
    }
    println!("{}", render_acct_table(&acct_results));
    println!(
        "expectations: fault-free=trusted, equivocation/tail-tampering=exposed — in both modes, \
         with protocol commits and replica parity intact"
    );
    for r in &acct_results {
        if r.name.ends_with("fault-free") && matches!(r.mode, CommitMode::Piggyback { .. }) {
            println!(
                "{}: ctl/app {:.2}, time overhead {:.2}x, {} commitments rode",
                r.name, r.overhead_ratio, r.time_overhead, r.piggybacked
            );
        }
    }

    // ---- membership churn, crash-recovery and partition healing ----------

    println!(
        "\nmembership churn: crash-rejoin, partition-heal, join, leave and chain fail-over \
         under accountability, in both commit modes\n\
         (delay = audit rounds past the churn schedule until verdicts settle; \
         gate: <= {max_verdict_delay_rounds} rounds)\n"
    );
    let churn_modes = [
        CommitMode::Dedicated,
        CommitMode::Piggyback { witnesses: 2 },
    ];
    let mut churn_results: Vec<ChurnScenarioResult> = Vec::new();
    for scenario in ChurnScenario::suite() {
        for mode in churn_modes {
            match run_churn_scenario(&scenario, mode, max_verdict_delay_rounds + 2) {
                Ok(result) => churn_results.push(result),
                Err(err) => {
                    let line =
                        format!("churn scenario {} ({}): {err}", scenario.name, mode.label());
                    eprintln!("{line}");
                    failed_runs.push(line);
                }
            }
        }
    }
    println!("{}", render_churn_table(&churn_results));
    println!(
        "expectations: tampering recoverers/leavers=exposed, every other row=trusted — \
         honest crash-recovery, healed partitions, joins, departures and chain fail-overs \
         never cost a correct node its clean record"
    );

    // ---- exposure latency under Byzantine audit witnesses ----------------

    println!(
        "\nexposure latency (piggyback w=2): audit rounds until every correct witness \
         exposes a seq-0 log tamperer at node 1, with its first witness (node 2) lying \
         (gate: <= {max_exposure_latency_rounds} rounds)"
    );
    let tamper = FaultPlan::single(1, NodeFault::TamperLogEntry { seq: 0 });
    let latency_mode = CommitMode::Piggyback { witnesses: 2 };
    let mut baseline_latency = None;
    let mut latency_cases: Vec<(String, Option<u64>)> = Vec::new();
    let witness_cases: [(&str, Option<NodeFault>); 4] = [
        ("honest witnesses", None),
        ("withhold-gossip witness", Some(NodeFault::WithholdGossip)),
        ("refuse-relay witness", Some(NodeFault::RefuseRelay)),
        ("silent witness", Some(NodeFault::SilentWitness)),
    ];
    for (case, witness_fault) in witness_cases {
        let mut plan = tamper.clone();
        if let Some(fault) = witness_fault {
            plan.set(2, fault);
        }
        match measure_exposure_latency(latency_mode, plan, 1, max_exposure_latency_rounds + 2) {
            Ok(latency) => {
                if let Some(rounds) = latency {
                    let delta = baseline_latency.map_or_else(String::new, |base: u64| {
                        format!(" (+{} vs honest)", rounds.saturating_sub(base))
                    });
                    println!("  {case:<26} exposed after {rounds} round(s){delta}");
                    if witness_fault.is_none() {
                        baseline_latency = Some(rounds);
                    }
                } else {
                    println!("  {case:<26} NEVER EXPOSED");
                }
                latency_cases.push((case.to_string(), latency));
            }
            Err(err) => {
                let line = format!("exposure latency [{case}]: {err}");
                eprintln!("{line}");
                failed_runs.push(line);
            }
        }
    }

    // ---- bounded-memory probe: long-running checkpointed deployment ------

    println!(
        "\nretention probe: {PROBE_ROUNDS} audit rounds, checkpoint every {PROBE_INTERVAL}, \
         piggyback w=2 (retained entries/commitments must stay O(interval), not O(rounds))"
    );
    let retention = match run_retention_probe(PROBE_ROUNDS, PROBE_INTERVAL) {
        Ok(report) => {
            println!(
                "  max retained entries {} / max stored commitments {} (of {} entries ever \
                 appended); final retained {} entries / {} bytes; {} checkpoints certified",
                report.max_retained_entries,
                report.max_retained_commitments,
                report.total_log_entries,
                report.final_retained_entries,
                report.final_retained_bytes,
                report.checkpoints_completed
            );
            Some(report)
        }
        Err(err) => {
            let line = format!("retention probe: {err}");
            eprintln!("{line}");
            failed_runs.push(line);
            None
        }
    };

    // ---- sampled-auditing scaling probe ----------------------------------

    println!(
        "\nsampled auditing probe: 8 nodes piggyback w=3, full audit vs rotating samples \
         (audit-traffic gate: <= {max_audit_msgs_per_node_round:.1} audit msgs/node/audit-round \
         for sampled rows; detection gate: <= {} audit rounds)",
        max_exposure_latency_rounds + SAMPLED_COVERAGE_WINDOW
    );
    let mut probe_rows: Vec<SampledProbeRow> = Vec::new();
    let mut audit_cases: Vec<(String, f64)> = Vec::new();
    let mut sampled_cases: Vec<(String, Option<u64>)> = Vec::new();
    for (sample, window) in [
        (None, 0),
        (Some(2), SAMPLED_COVERAGE_WINDOW),
        (Some(1), SAMPLED_COVERAGE_WINDOW),
    ] {
        match run_sampled_probe(sample, window) {
            Ok(row) => {
                println!(
                    "  {:<14} {:.2} audit msgs/node/round ({} audit wire msgs, {} batched), \
                     detection {}",
                    row.label,
                    row.audit_msgs_per_node_round,
                    row.messages_audit,
                    row.messages_batched,
                    row.detection_latency_rounds
                        .map_or_else(|| "NEVER".to_string(), |r| format!("{r} round(s)"))
                );
                let scope = registry.scope("sampled-auditing");
                scope.inc(&format!("{}_messages_audit", row.label), row.messages_audit);
                scope.inc(
                    &format!("{}_messages_batched", row.label),
                    row.messages_batched,
                );
                if row.audit_sample_size.is_some() {
                    audit_cases.push((row.label.clone(), row.audit_msgs_per_node_round));
                    sampled_cases.push((row.label.clone(), row.detection_latency_rounds));
                }
                probe_rows.push(row);
            }
            Err(err) => {
                let line = format!("sampled probe (sample {sample:?}): {err}");
                eprintln!("{line}");
                failed_runs.push(line);
            }
        }
    }

    // ---- named gates -----------------------------------------------------

    // Deviations from the accountability claims: fatal with or without
    // `--check`.
    let mut deviation_gates = vec![
        gates::verdict_gate(&results),
        gates::accuracy_gate(&results),
        gates::acct_verdict_gate(&acct_results),
        gates::churn_verdict_gate(&churn_results),
        gates::churn_accuracy_gate(&churn_results),
        gates::exposure_completeness_gate(&latency_cases),
        gates::execution_gate(&failed_runs),
    ];
    // Perf/memory bounds: enforced under `--check` only.
    let mut bound_gates = vec![
        gates::piggyback_overhead_gate(&results, max_ctl_app),
        gates::checkpoint_overhead_gate(&results, CKPT_OVERHEAD_FACTOR),
        gates::acct_overhead_gate(&acct_results, max_acct_ctl_app, CKPT_OVERHEAD_FACTOR),
        gates::exposure_latency_gate(&latency_cases, max_exposure_latency_rounds),
        gates::churn_delay_gate(&churn_results, max_verdict_delay_rounds),
        gates::audit_traffic_gate(&audit_cases, max_audit_msgs_per_node_round),
        gates::audit_log_share_gate(&results, max_audit_log_fraction),
        gates::sampled_detection_latency_gate(
            &sampled_cases,
            max_exposure_latency_rounds + SAMPLED_COVERAGE_WINDOW,
        ),
        gates::trace_overhead_gate(trace_overhead.map(|m| m.pct()), max_trace_overhead_pct),
    ];
    if let Some(retention) = &retention {
        deviation_gates.push(gates::retention_verdict_gate(retention));
        bound_gates.push(gates::retention_bounds_gate(
            retention,
            max_retained_entries,
        ));
    }
    let all_gates: Vec<GateOutcome> = deviation_gates
        .iter()
        .chain(bound_gates.iter())
        .cloned()
        .collect();

    println!();
    print!("{}", gates::render_summary(&all_gates));

    // ---- markdown report -------------------------------------------------

    let total_app_messages = results.iter().map(|r| r.app_messages).sum::<u64>()
        + acct_results.iter().map(|r| r.app_messages).sum::<u64>();
    let mut sections = vec![
        report::scenario_section(&results),
        report::acct_section(&acct_results),
        report::churn_section(&churn_results),
        report::log_composition_section(&results),
    ];
    sections.extend(timeline_sections);
    sections.push(report::scaling_section(&probe_rows));
    sections.push(registry.render_markdown());
    sections.push(report::allocs_section(
        ALLOCATIONS.load(Ordering::Relaxed),
        total_app_messages,
    ));
    sections.push(report::gates_section(&all_gates));
    match report::write_report(&report_path, "TNIC reproduction report", &sections) {
        Ok(()) => println!("\nreport written to {}", report_path.display()),
        Err(err) => {
            eprintln!("cannot write report {}: {err}", report_path.display());
            std::process::exit(1);
        }
    }

    // Machine-readable twin of the markdown report, diffable across PRs.
    let headline = [("total_app_messages", total_app_messages.to_string())];
    let json = report::report_json(&all_gates, &results, &registry, &headline);
    let json_path = std::path::Path::new("BENCH_report.json");
    match std::fs::write(json_path, json) {
        Ok(()) => println!("machine-readable report written to {}", json_path.display()),
        Err(err) => eprintln!("cannot write {}: {err}", json_path.display()),
    }

    let deviations_ok = deviation_gates.iter().all(|g| g.passed);
    let bounds_ok = bound_gates.iter().all(|g| g.passed);
    if deviations_ok && (bounds_ok || !check) {
        println!("all fatal gates passed");
    } else {
        let broken: Vec<&str> = all_gates
            .iter()
            .filter(|g| !g.passed)
            .map(|g| g.name)
            .collect();
        println!("FAILED gates: {}", broken.join(", "));
        // Flight recorder: every red run carries its own post-mortem — the
        // exec-tampering trace tail, the metrics snapshot and the
        // log-composition breakdown, bounded and CI-artifacted.
        let reason = format!("failing gates: {}", broken.join(", "));
        let (events, dropped) = traces
            .first()
            .map_or((&[] as &[tnic_obs::Event], 0), |(_, e, d)| {
                (e.as_slice(), *d)
            });
        let composition = report::log_composition_json(&results);
        let sections = [
            ("metrics", registry.render_json()),
            ("log_composition", composition),
        ];
        let flight_dir = report_path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(
                || std::path::PathBuf::from("reports"),
                std::path::Path::to_path_buf,
            );
        match tnic_obs::flight::write_flight_record(
            &flight_dir,
            "reproduce",
            &reason,
            events,
            dropped,
            4096,
            &sections,
        ) {
            Ok(path) => println!("flight record written to {}", path.display()),
            Err(err) => eprintln!("cannot write flight record: {err}"),
        }
        std::process::exit(1);
    }
}
