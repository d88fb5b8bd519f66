//! Named CI gates over the reproduction results.
//!
//! `reproduce --check` used to lump every failure into two flat lists; a
//! broken run printed *a* reason but not *which gate* tripped, and a gate
//! that failed after the first one could hide entirely. Each gate here is
//! a pure function from collected results to a [`GateOutcome`] carrying
//! the gate's stable name and the full list of violations, so the runner
//! can evaluate **every** gate, print each failing one by name, and exit
//! non-zero if any failed.

use crate::{AcctScenarioResult, ChurnScenarioResult, CommitMode, RetentionReport, ScenarioResult};

/// The verdict of one named gate: pass/fail plus every violation it found.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Stable gate name (`scenario-verdicts`, `retention`, …).
    pub name: &'static str,
    /// Whether the gate passed.
    pub passed: bool,
    /// One line per violation (empty when passed).
    pub violations: Vec<String>,
}

impl GateOutcome {
    /// A gate outcome from a violation list: empty = pass.
    #[must_use]
    pub fn from_violations(name: &'static str, violations: Vec<String>) -> Self {
        GateOutcome {
            name,
            passed: violations.is_empty(),
            violations,
        }
    }
}

/// The failing subset of `gates`.
#[must_use]
pub fn failed(gates: &[GateOutcome]) -> Vec<&GateOutcome> {
    gates.iter().filter(|g| !g.passed).collect()
}

/// Renders the per-gate summary: one line per gate, `ok` or `FAIL`
/// followed by every violation — so a multi-gate failure names each
/// broken gate, not just the first.
#[must_use]
pub fn render_summary(gates: &[GateOutcome]) -> String {
    let mut out = String::from("gates:\n");
    for gate in gates {
        if gate.passed {
            out.push_str(&format!("  {:<24} ok\n", gate.name));
        } else {
            out.push_str(&format!(
                "  {:<24} FAIL ({} violation(s))\n",
                gate.name,
                gate.violations.len()
            ));
            for v in &gate.violations {
                out.push_str(&format!("    - {v}\n"));
            }
        }
    }
    out
}

/// Every scenario's verdict matches its expected classification (with
/// unanimity where the scenario requires it).
#[must_use]
pub fn verdict_gate(results: &[ScenarioResult]) -> GateOutcome {
    let violations = results
        .iter()
        .filter(|r| (r.requires_unanimity && !r.unanimous) || r.verdict != r.expected)
        .map(|r| {
            format!(
                "{} [{} / {}]: expected {}, got {}{}",
                r.name,
                r.baseline.label(),
                r.mode.label(),
                r.expected,
                r.verdict,
                if r.unanimous { "" } else { " (split)" }
            )
        })
        .collect();
    GateOutcome::from_violations("scenario-verdicts", violations)
}

/// No correct node ever loses its clean record, whatever the injected
/// fault (the accuracy half of the accountability claim).
#[must_use]
pub fn accuracy_gate(results: &[ScenarioResult]) -> GateOutcome {
    let violations = results
        .iter()
        .filter(|r| !r.accuracy)
        .map(|r| {
            format!(
                "{} [{} / {}]: a correct node lost its clean record",
                r.name,
                r.baseline.label(),
                r.mode.label()
            )
        })
        .collect();
    GateOutcome::from_violations("accuracy", violations)
}

/// Fault-free piggyback rows stay under the absolute ctl/app bound.
#[must_use]
pub fn piggyback_overhead_gate(results: &[ScenarioResult], max_ctl_app: f64) -> GateOutcome {
    let violations = results
        .iter()
        .filter(|r| {
            r.name == "fault-free"
                && matches!(r.mode, CommitMode::Piggyback { .. })
                && r.overhead_ratio > max_ctl_app
        })
        .map(|r| {
            format!(
                "fault-free [{} / {}]: ctl/app {:.2} exceeds {max_ctl_app:.2}",
                r.baseline.label(),
                r.mode.label(),
                r.overhead_ratio
            )
        })
        .collect();
    GateOutcome::from_violations("piggyback-overhead", violations)
}

/// Fault-free checkpointed rows cost at most `factor`× the matching
/// piggyback row (a missing piggyback row trips the gate rather than
/// silently passing it).
#[must_use]
pub fn checkpoint_overhead_gate(results: &[ScenarioResult], factor: f64) -> GateOutcome {
    let mut violations = Vec::new();
    for r in results {
        if r.name != "fault-free" || !matches!(r.mode, CommitMode::Checkpointed { .. }) {
            continue;
        }
        let piggy = results
            .iter()
            .find(|d| {
                d.name == r.name
                    && d.baseline == r.baseline
                    && matches!(d.mode, CommitMode::Piggyback { .. })
            })
            .map_or(f64::NAN, |d| d.overhead_ratio);
        if piggy.is_nan() || r.overhead_ratio > factor * piggy {
            violations.push(format!(
                "fault-free [{} / {}]: ctl/app {:.2} exceeds {factor:.1}x the piggyback \
                 row's {piggy:.2}",
                r.baseline.label(),
                r.mode.label(),
                r.overhead_ratio
            ));
        }
    }
    GateOutcome::from_violations("checkpoint-overhead", violations)
}

/// The accountability-as-middleware rows classify correctly and keep the
/// protocol healthy (liveness + replica parity).
#[must_use]
pub fn acct_verdict_gate(results: &[AcctScenarioResult]) -> GateOutcome {
    let mut violations = Vec::new();
    for r in results {
        let expected = if r.name.ends_with("fault-free") {
            "trusted"
        } else {
            "exposed"
        };
        if !r.unanimous || r.verdict != expected {
            violations.push(format!(
                "{} [{}]: expected {expected}, got {}{}",
                r.name,
                r.mode.label(),
                r.verdict,
                if r.unanimous { "" } else { " (split)" }
            ));
        }
        if !r.protocol_committed {
            violations.push(format!(
                "{} [{}]: protocol lost liveness under accountability",
                r.name,
                r.mode.label()
            ));
        }
        if !r.state_parity {
            violations.push(format!(
                "{} [{}]: replicas diverged under accountability",
                r.name,
                r.mode.label()
            ));
        }
    }
    GateOutcome::from_violations("acct-verdicts", violations)
}

/// Fault-free middleware rows stay under the stacked ctl/app bound
/// (absolute for piggyback, `factor`× the piggyback row for checkpointed).
#[must_use]
pub fn acct_overhead_gate(
    results: &[AcctScenarioResult],
    max_acct_ctl_app: f64,
    factor: f64,
) -> GateOutcome {
    let mut violations = Vec::new();
    for r in results {
        if !r.name.ends_with("fault-free") {
            continue;
        }
        match r.mode {
            CommitMode::Piggyback { .. } if r.overhead_ratio > max_acct_ctl_app => {
                violations.push(format!(
                    "{} [{}]: ctl/app {:.2} exceeds {max_acct_ctl_app:.2}",
                    r.name,
                    r.mode.label(),
                    r.overhead_ratio
                ));
            }
            CommitMode::Checkpointed { .. } => {
                let piggy = results
                    .iter()
                    .find(|d| d.name == r.name && matches!(d.mode, CommitMode::Piggyback { .. }))
                    .map_or(f64::NAN, |d| d.overhead_ratio);
                if piggy.is_nan() || r.overhead_ratio > factor * piggy {
                    violations.push(format!(
                        "{} [{}]: ctl/app {:.2} exceeds {factor:.1}x the piggyback row's \
                         {piggy:.2}",
                        r.name,
                        r.mode.label(),
                        r.overhead_ratio
                    ));
                }
            }
            _ => {}
        }
    }
    GateOutcome::from_violations("acct-overhead", violations)
}

/// Every churn scenario reaches its expected verdict (faulty churners
/// exposed, honest ones not) — a deviation, fatal with or without
/// `--check`. Settle timing lives in [`churn_delay_gate`].
#[must_use]
pub fn churn_verdict_gate(results: &[ChurnScenarioResult]) -> GateOutcome {
    let violations = results
        .iter()
        .filter(|r| r.verdict != r.expected)
        .map(|r| {
            format!(
                "{} [{}]: expected {}, got {}",
                r.name,
                r.mode.label(),
                r.expected,
                r.verdict
            )
        })
        .collect();
    GateOutcome::from_violations("churn-verdicts", violations)
}

/// No correct node is ever exposed under churn, crash-recovery or
/// partition healing — the accuracy half of the accountability claim must
/// survive membership change (fatal with or without `--check`).
#[must_use]
pub fn churn_accuracy_gate(results: &[ChurnScenarioResult]) -> GateOutcome {
    let violations = results
        .iter()
        .filter(|r| !r.accuracy)
        .map(|r| {
            format!(
                "{} [{}]: a correct node was exposed under churn",
                r.name,
                r.mode.label()
            )
        })
        .collect();
    GateOutcome::from_violations("churn-accuracy", violations)
}

/// Every churn scenario's verdicts settle within `max_rounds` audit rounds
/// after the churn schedule completes (a bound, enforced under `--check`
/// via `--max-verdict-delay-rounds`).
#[must_use]
pub fn churn_delay_gate(results: &[ChurnScenarioResult], max_rounds: u64) -> GateOutcome {
    let violations = results
        .iter()
        .filter_map(|r| match r.settle_delay_rounds {
            Some(delay) if delay > max_rounds => Some(format!(
                "{} [{}]: settled {delay} rounds after the churn schedule, bound is {max_rounds}",
                r.name,
                r.mode.label()
            )),
            None => Some(format!(
                "{} [{}]: verdicts never settled within the round budget",
                r.name,
                r.mode.label()
            )),
            _ => None,
        })
        .collect();
    GateOutcome::from_violations("churn-verdict-delay", violations)
}

/// Every exposure-latency case detects its tamperer *at all* — a lying
/// witness may delay exposure but never prevent it (a completeness
/// deviation, fatal with or without `--check`).
#[must_use]
pub fn exposure_completeness_gate(cases: &[(String, Option<u64>)]) -> GateOutcome {
    let violations = cases
        .iter()
        .filter(|(_, latency)| latency.is_none())
        .map(|(case, _)| {
            format!("{case}: tamperer never exposed — a lying witness prevented detection")
        })
        .collect();
    GateOutcome::from_violations("exposure-completeness", violations)
}

/// Every exposing case stays within the round bound (a perf bound,
/// enforced under `--check`).
#[must_use]
pub fn exposure_latency_gate(cases: &[(String, Option<u64>)], max_rounds: u64) -> GateOutcome {
    let violations = cases
        .iter()
        .filter_map(|(case, latency)| match latency {
            Some(rounds) if *rounds > max_rounds => {
                Some(format!("{case}: {rounds} rounds exceed {max_rounds}"))
            }
            _ => None,
        })
        .collect();
    GateOutcome::from_violations("exposure-latency", violations)
}

/// Every audit-traffic case stays under the per-node-per-audit-round wire
/// bound — the overhead axis of the sampled-auditing frontier (a bound,
/// enforced under `--check` via `--max-audit-msgs-per-node-round`).
#[must_use]
pub fn audit_traffic_gate(cases: &[(String, f64)], max_per_node_round: f64) -> GateOutcome {
    let violations = cases
        .iter()
        .filter(|(_, rate)| *rate > max_per_node_round)
        .map(|(case, rate)| {
            format!("{case}: {rate:.2} audit msgs/node/round exceed {max_per_node_round:.2}")
        })
        .collect();
    GateOutcome::from_violations("audit-traffic", violations)
}

/// Every scenario's logs keep their audit-protocol share under
/// `max_fraction` — the storage axis of the audit-log inflation feedback:
/// without round-digest batching, every challenge/response envelope lands
/// a per-message control digest in both endpoint logs, the next audit
/// replays those entries, and the audit share compounds with witness count
/// (a bound, enforced under `--check` via `--max-audit-log-fraction`).
#[must_use]
pub fn audit_log_share_gate(results: &[ScenarioResult], max_fraction: f64) -> GateOutcome {
    let violations = results
        .iter()
        .filter_map(|r| {
            let total = r.log_app_entries + r.log_ctl_entries + r.log_audit_entries;
            if total == 0 {
                return None;
            }
            #[allow(clippy::cast_precision_loss)]
            let share = r.log_audit_entries as f64 / total as f64;
            (share > max_fraction).then(|| {
                format!(
                    "{} [{} / {}]: audit entries are {:.0}% of the log ({} of {}), bound is {:.0}%",
                    r.name,
                    r.baseline.label(),
                    r.mode.label(),
                    share * 100.0,
                    r.log_audit_entries,
                    total,
                    max_fraction * 100.0
                )
            })
        })
        .collect();
    GateOutcome::from_violations("audit-log-share", violations)
}

/// Every sampled-auditing case still detects its tamperer within the
/// round bound — sampling trades detection latency for audit traffic but
/// must never lose detection outright (`None` always violates).
#[must_use]
pub fn sampled_detection_latency_gate(
    cases: &[(String, Option<u64>)],
    max_rounds: u64,
) -> GateOutcome {
    let violations = cases
        .iter()
        .filter_map(|(case, latency)| match latency {
            Some(rounds) if *rounds > max_rounds => Some(format!(
                "{case}: sampled detection took {rounds} rounds, bound is {max_rounds}"
            )),
            None => Some(format!(
                "{case}: sampled auditing never detected the tamperer"
            )),
            _ => None,
        })
        .collect();
    GateOutcome::from_violations("sampled-detection-latency", violations)
}

/// The long-running checkpointed deployment keeps its verdicts clean and
/// actually certifies checkpoints.
#[must_use]
pub fn retention_verdict_gate(report: &RetentionReport) -> GateOutcome {
    let mut violations = Vec::new();
    if !report.verdicts_clean {
        violations.push("false verdict in a fault-free long run".to_string());
    }
    if report.checkpoints_completed == 0 {
        violations.push("no checkpoint ever certified".to_string());
    }
    GateOutcome::from_violations("retention-verdicts", violations)
}

/// The long-running checkpointed deployment keeps memory O(interval), not
/// O(rounds) (a bound, enforced under `--check`).
#[must_use]
pub fn retention_bounds_gate(report: &RetentionReport, max_retained_entries: u64) -> GateOutcome {
    let mut violations = Vec::new();
    if report.max_retained_entries > max_retained_entries {
        violations.push(format!(
            "{} retained entries exceed {max_retained_entries}",
            report.max_retained_entries
        ));
    }
    if report.max_retained_commitments > max_retained_entries {
        violations.push(format!(
            "{} stored commitments exceed {max_retained_entries}",
            report.max_retained_commitments
        ));
    }
    GateOutcome::from_violations("retention-bounds", violations)
}

/// Every row's online lemma monitor ended its run clean: no row accepted
/// a message its sender never sent (or sent with other bytes), skipped or
/// repeated a counter, or finished a vendor attestation without the device
/// side (see `tnic_core::verification`).
#[must_use]
pub fn lemmas_gate(
    results: &[ScenarioResult],
    acct_results: &[AcctScenarioResult],
    churn_results: &[ChurnScenarioResult],
) -> GateOutcome {
    let mut violations = Vec::new();
    let mut note = |row: String, count: u64| {
        if count > 0 {
            violations.push(format!("{row}: {count} lemma violation(s)"));
        }
    };
    for r in results {
        let row = format!("{} [{} / {}]", r.name, r.baseline.label(), r.mode.label());
        note(row, r.lemma_violations);
    }
    for r in acct_results {
        note(
            format!("{} [{}]", r.name, r.mode.label()),
            r.lemma_violations,
        );
    }
    for r in churn_results {
        note(
            format!("{} [{}]", r.name, r.mode.label()),
            r.lemma_violations,
        );
    }
    GateOutcome::from_violations("lemmas", violations)
}

/// Every scheduled run actually executed (no scenario erred out).
#[must_use]
pub fn execution_gate(failed_runs: &[String]) -> GateOutcome {
    GateOutcome::from_violations("execution", failed_runs.to_vec())
}

/// Recording with the event ring enabled stays within the named wall-clock
/// budget over the identical untraced run (a bound, enforced under
/// `--check` via `--max-trace-overhead-pct`). `measured_pct` is the
/// relative slowdown in percent (`(traced/untraced - 1) * 100`, min-of-N
/// on both sides to shed scheduler noise); `None` — the measurement could
/// not run — passes, the gate bounds a measured regression rather than
/// requiring the measurement.
#[must_use]
pub fn trace_overhead_gate(measured_pct: Option<f64>, max_pct: f64) -> GateOutcome {
    let violations = match measured_pct {
        Some(pct) if pct > max_pct => vec![format!(
            "enabled-recorder overhead {pct:.1}% exceeds {max_pct:.1}%"
        )],
        _ => Vec::new(),
    };
    GateOutcome::from_violations("trace-overhead", violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_tee::profile::Baseline;

    fn row(
        name: &'static str,
        mode: CommitMode,
        verdict: &'static str,
        expected: &'static str,
        overhead_ratio: f64,
    ) -> ScenarioResult {
        ScenarioResult {
            name,
            baseline: Baseline::Tnic,
            mode,
            piggybacked: 0,
            verdict,
            unanimous: true,
            expected,
            requires_unanimity: true,
            accuracy: true,
            app_messages: 24,
            control_messages: 24,
            overhead_ratio,
            audit_p50_us: 0.0,
            audit_p99_us: 0.0,
            virtual_time_us: 1,
            log_app_entries: 0,
            log_ctl_entries: 0,
            log_audit_entries: 0,
            entries_replayed: 0,
            lemma_violations: 0,
        }
    }

    #[test]
    fn trace_overhead_gate_bounds_the_measured_slowdown() {
        assert!(trace_overhead_gate(Some(12.0), 50.0).passed);
        assert!(trace_overhead_gate(None, 50.0).passed, "unmeasured passes");
        let gate = trace_overhead_gate(Some(80.0), 50.0);
        assert!(!gate.passed);
        assert!(gate.violations[0].contains("80.0% exceeds 50.0%"));
    }

    #[test]
    fn passing_gates_report_ok() {
        let results = [row(
            "fault-free",
            CommitMode::Piggyback { witnesses: 2 },
            "trusted",
            "trusted",
            1.0,
        )];
        let gates = [
            verdict_gate(&results),
            accuracy_gate(&results),
            piggyback_overhead_gate(&results, 2.0),
        ];
        assert!(gates.iter().all(|g| g.passed));
        assert!(failed(&gates).is_empty());
        let summary = render_summary(&gates);
        assert!(summary.contains("scenario-verdicts"));
        assert!(!summary.contains("FAIL"));
    }

    #[test]
    fn every_failing_gate_is_named_not_just_the_first() {
        // Two independent gates broken at once: the verdict deviates AND the
        // piggyback overhead bound is blown. Both must surface by name.
        let results = [
            row(
                "equivocation",
                CommitMode::Dedicated,
                "trusted",
                "exposed",
                1.0,
            ),
            row(
                "fault-free",
                CommitMode::Piggyback { witnesses: 2 },
                "trusted",
                "trusted",
                9.5,
            ),
        ];
        let gates = [
            verdict_gate(&results),
            accuracy_gate(&results),
            piggyback_overhead_gate(&results, 2.0),
        ];
        let failing = failed(&gates);
        assert_eq!(failing.len(), 2);
        let summary = render_summary(&gates);
        assert!(summary.contains("scenario-verdicts"), "{summary}");
        assert!(summary.contains("piggyback-overhead"), "{summary}");
        assert!(
            summary.contains("expected exposed, got trusted"),
            "{summary}"
        );
        assert!(summary.contains("ctl/app 9.50 exceeds 2.00"), "{summary}");
        // The accuracy gate stays clean in between.
        assert!(summary.contains("accuracy                 ok"), "{summary}");
    }

    #[test]
    fn checkpoint_gate_trips_on_missing_piggyback_row() {
        let results = [row(
            "fault-free",
            CommitMode::Checkpointed {
                witnesses: 2,
                interval: 1,
            },
            "trusted",
            "trusted",
            1.5,
        )];
        let gate = checkpoint_overhead_gate(&results, 3.0);
        assert!(!gate.passed, "NaN piggyback baseline must trip the gate");
    }

    #[test]
    fn exposure_gates_distinguish_slow_from_never() {
        let cases = vec![
            ("honest witnesses".to_string(), Some(2)),
            ("silent witness".to_string(), Some(9)),
            ("withhold-gossip witness".to_string(), None),
        ];
        let latency = exposure_latency_gate(&cases, 6);
        assert!(!latency.passed);
        assert_eq!(latency.violations.len(), 1);
        assert!(latency.violations[0].contains("9 rounds exceed 6"));
        let completeness = exposure_completeness_gate(&cases);
        assert!(!completeness.passed);
        assert_eq!(completeness.violations.len(), 1);
        assert!(completeness.violations[0].contains("never exposed"));
    }

    #[test]
    fn audit_traffic_gate_bounds_the_wire_rate() {
        let cases = vec![
            ("full audit".to_string(), 12.5),
            ("sampled (k=1)".to_string(), 1.2),
        ];
        let gate = audit_traffic_gate(&cases, 4.0);
        assert!(!gate.passed);
        assert_eq!(gate.violations.len(), 1);
        assert!(
            gate.violations[0].contains("12.50 audit msgs/node/round exceed 4.00"),
            "{:?}",
            gate.violations
        );
        assert!(audit_traffic_gate(&cases[1..], 4.0).passed);
    }

    #[test]
    fn audit_log_share_gate_bounds_the_storage_fraction() {
        let mut inflated = row(
            "fault-free",
            CommitMode::Dedicated,
            "trusted",
            "trusted",
            1.0,
        );
        inflated.log_app_entries = 100;
        inflated.log_ctl_entries = 50;
        inflated.log_audit_entries = 450; // 75% of the log is audit digests
        let mut batched = inflated.clone();
        batched.name = "fault-free-batched";
        batched.log_audit_entries = 10; // ~6%
        let empty = row("no-logs", CommitMode::Dedicated, "trusted", "trusted", 1.0);
        let gate = audit_log_share_gate(&[inflated, batched.clone(), empty], 0.5);
        assert!(!gate.passed);
        assert_eq!(gate.violations.len(), 1, "{:?}", gate.violations);
        assert!(
            gate.violations[0].contains("75% of the log (450 of 600), bound is 50%"),
            "{:?}",
            gate.violations
        );
        assert!(audit_log_share_gate(&[batched], 0.5).passed);
    }

    #[test]
    fn sampled_detection_gate_distinguishes_slow_from_never() {
        let cases = vec![
            ("sampled (k=2)".to_string(), Some(3)),
            ("sampled (k=1)".to_string(), Some(11)),
            ("sampled (k=1, hostile)".to_string(), None),
        ];
        let gate = sampled_detection_latency_gate(&cases, 8);
        assert!(!gate.passed);
        assert_eq!(gate.violations.len(), 2, "{:?}", gate.violations);
        assert!(gate.violations.iter().any(|v| v.contains("11 rounds")));
        assert!(gate.violations.iter().any(|v| v.contains("never detected")));
        assert!(sampled_detection_latency_gate(&cases[..1], 8).passed);
    }

    fn churn_row(
        name: &'static str,
        verdict: &'static str,
        expected: &'static str,
        delay: Option<u64>,
        accuracy: bool,
    ) -> ChurnScenarioResult {
        ChurnScenarioResult {
            name,
            mode: CommitMode::Piggyback { witnesses: 2 },
            verdict,
            expected,
            settled: delay.is_some(),
            settle_delay_rounds: delay,
            accuracy,
            joins: 0,
            departures: 0,
            crashes: 1,
            recoveries: 1,
            challenge_retries: 0,
            messages_unreachable: 4,
            messages_partitioned: 0,
            lemma_violations: 0,
        }
    }

    #[test]
    fn churn_gates_check_verdicts_accuracy_and_settle_delay() {
        let results = [
            churn_row("churn/crash-rejoin", "trusted", "trusted", Some(1), true),
            churn_row(
                "churn/leave-tamper",
                "NOT exposed",
                "exposed",
                Some(0),
                false,
            ),
            churn_row("churn/partition-heal", "suspected", "trusted", None, true),
            churn_row("churn/join", "trusted", "trusted", Some(9), true),
        ];
        let verdicts = churn_verdict_gate(&results);
        assert!(!verdicts.passed);
        assert_eq!(verdicts.violations.len(), 2, "{:?}", verdicts.violations);
        let accuracy = churn_accuracy_gate(&results);
        assert!(!accuracy.passed);
        assert_eq!(accuracy.violations.len(), 1);
        assert!(accuracy.violations[0].contains("leave-tamper"));
        let delay = churn_delay_gate(&results, 6);
        assert!(!delay.passed);
        assert_eq!(delay.violations.len(), 2, "{:?}", delay.violations);
        assert!(delay.violations.iter().any(|v| v.contains("never settled")));
        assert!(delay.violations.iter().any(|v| v.contains("bound is 6")));
        // The clean subset passes all three gates.
        let clean = [churn_row(
            "churn/crash-rejoin",
            "trusted",
            "trusted",
            Some(1),
            true,
        )];
        assert!(churn_verdict_gate(&clean).passed);
        assert!(churn_accuracy_gate(&clean).passed);
        assert!(churn_delay_gate(&clean, 6).passed);
    }

    #[test]
    fn retention_gates_check_every_bound() {
        let report = RetentionReport {
            rounds: 200,
            checkpoint_interval: 4,
            max_retained_entries: 900,
            max_retained_commitments: 10,
            final_retained_entries: 20,
            final_retained_bytes: 1000,
            total_log_entries: 5000,
            checkpoints_completed: 0,
            verdicts_clean: true,
        };
        let bounds = retention_bounds_gate(&report, 600);
        assert!(!bounds.passed);
        assert_eq!(bounds.violations.len(), 1, "{:?}", bounds.violations);
        let verdicts = retention_verdict_gate(&report);
        assert!(!verdicts.passed, "zero certified checkpoints must trip");
        assert!(verdicts.violations[0].contains("no checkpoint"));
    }
}
