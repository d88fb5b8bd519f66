//! One benchmark process: runs one workload once (fixed work, fresh
//! process, single thread) and prints its raw measurements as one JSON line
//! on stdout. `run.py` starts these processes, checks them and aggregates
//! the metrics.
//!
//! ```text
//! perfbench --workload <bft-counter|a2m-acct|peerreview-audit> --seed <n>
//!           [--traced] [--defect <byzantine-leader|no-tamperer>]
//! ```

mod layers;
mod recorder;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use tnic_obs::EventKind;
use workloads::{Defect, Rep};

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    defect: Defect,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut defect = Defect::None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--traced" => traced = true,
            "--defect" => {
                defect = match value()?.as_str() {
                    "byzantine-leader" => Defect::ByzantineLeader,
                    "no-tamperer" => Defect::NoTamperer,
                    other => return Err(format!("unknown defect {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        traced,
        defect,
    })
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A JSON object written field by field (the values are numbers, number
/// arrays, strings and nested objects).
#[derive(Default)]
struct Json(String);

impl Json {
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":");
        &mut self.0
    }

    fn num(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = write!(self.key(key), "{value}");
    }

    fn list<T: std::fmt::Display>(&mut self, key: &str, values: &[T]) {
        let out = self.key(key);
        out.push('[');
        for (i, v) in values.iter().enumerate() {
            let _ = write!(out, "{}{v}", if i == 0 { "" } else { "," });
        }
        out.push(']');
    }

    fn str(&mut self, key: &str, value: &str) {
        self.key(key).push_str(&quoted(value));
    }

    fn obj(&mut self, key: &str, value: Json) {
        self.key(key).push_str(&value.finish());
    }

    fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

fn quoted(value: &str) -> String {
    let mut out = String::from('"');
    for c in value.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Layer-boundary counts, accountability counters and the in-process cost
/// of one call into each layer, for a traced process.
fn layers(rep: &Rep, seed: u64) -> Json {
    let mut out = Json::default();
    let tally = rep.tally.as_ref().expect("traced process");
    for kind in EventKind::ALL {
        let label = kind.label();
        out.num(&format!("count.{label}"), tally.count(kind));
        out.num(&format!("aux.{label}"), tally.aux_sum(kind));
        out.num(&format!("gap_ns.{label}"), tally.gap_ns(kind));
    }
    let mean = |kind| tally.aux_sum(kind) / tally.count(kind).max(1);
    if let Some(stats) = &rep.stats {
        for (name, value) in [
            ("log_entries", stats.log_entries),
            ("log_app_entries", stats.log_app_payload_entries),
            ("log_ctl_entries", stats.log_control_digest_entries),
            ("log_audit_entries", stats.log_audit_digest_entries),
            ("piggybacked", stats.piggybacked_commitments),
            ("retained_entries", stats.retained_log_entries),
            ("retained_bytes", stats.retained_log_bytes),
            ("challenges", stats.challenges),
            ("audit_messages", stats.audit_messages),
            ("entries_replayed", stats.entries_replayed),
            ("checkpoints_completed", stats.checkpoints_completed),
            ("pruned_entries", stats.pruned_log_entries),
        ] {
            out.num(&format!("stats.{name}"), value);
        }
        let entry = stats.retained_log_bytes / stats.retained_log_entries.max(1);
        out.num("log.append_ns", layers::log_append(entry as usize));
    }
    for (name, ns) in layers::crypto() {
        out.num(name, ns);
    }
    let (attest, verify) = layers::provider(mean(EventKind::Attest) as usize);
    out.num("provider.attest_ns", attest);
    out.num("provider.verify_ns", verify);
    let hop = layers::cluster_hop(rep.nodes, mean(EventKind::Send) as usize, seed);
    out.num("cluster.hop_ns", hop);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, traced, defect) = (args.seed, args.traced, args.defect);
    let result = match args.workload.as_str() {
        "bft-counter" => workloads::bft_counter(seed, traced, defect),
        "a2m-acct" => workloads::a2m_acct(seed, traced),
        "peerreview-audit" => workloads::peerreview_audit(seed, traced, defect),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {} failed to set up: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut out = Json::default();
    out.str("workload", &args.workload);
    out.num("seed", seed);
    out.num("peak_rss_kb", peak_rss_kb());
    out.list("setup_s", &rep.setup_s);
    out.list("op_wall_ns", &rep.op_wall_ns);
    out.list("op_virt_ns", &rep.op_virt_ns);
    out.list("audit_begin_ns", &rep.audit_begin_ns);
    out.list("audit_finish_ns", &rep.audit_finish_ns);
    out.num("timed_wall_ns", rep.timed_wall_ns);
    out.list("window_wall_ns", &rep.window_wall_ns);
    out.num("failed", rep.failed);
    out.num("detect_audit_rounds", rep.detect_audit_rounds);
    out.num("signatures", rep.signatures);
    out.num("false_convictions", rep.false_convictions);
    let errors: Vec<String> = rep.errors.iter().map(|e| quoted(e)).collect();
    out.key("errors")
        .push_str(&format!("[{}]", errors.join(",")));
    let mut fingerprint = Json::default();
    for (name, value) in &rep.fingerprint {
        fingerprint.num(name, value);
    }
    out.obj("fingerprint", fingerprint);
    if traced {
        out.obj("layers", layers(&rep, seed));
    }
    println!("{}", out.finish());
    ExitCode::SUCCESS
}
