//! The repository's end-to-end benchmark: three seeded workloads driven
//! through the public APIs only, every answer checked, one JSON result
//! line. See README.md for what each workload measures and why.
//!
//! ```sh
//! perfbench --workload tune_cold --seed 1 --seconds 10 --trace 0 \
//!     --shardd path/to/sorl-shardd
//! ```

mod common;
mod fleet;
mod open_mix;
mod tune_cold;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run (name, unit).
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_share", "share"),
    ("top1_slowdown", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (name, unit). A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("model.encode_rows_ms", "ms"),
    ("model.row_bytes_written", "bytes"),
    ("ranksvm.score_kernel_ms", "ms"),
    ("ranksvm.rows_scored", "count"),
    ("ranksvm.kernel_bytes_read", "bytes"),
    ("ranksvm.select_topk_ms", "ms"),
    ("ranksvm.active_kernel", "1_if_avx2"),
    ("core.unattributed_share", "share"),
    ("core.trace_overhead_ms", "ms"),
    ("gen.tsgen_s", "s"),
    ("ranksvm.train_s", "s"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.batch_size_mean", "count"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.batch_p99_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.scored_per_miss", "share"),
    ("serve.evictions_per_request", "share"),
    ("serve.shed_share", "share"),
    ("serve.snapshot.decode_s", "s"),
    ("serve.snapshot.bytes", "bytes"),
    ("shard.route_us", "us"),
    ("shard.rtt_p50_us", "us"),
    ("shard.rtt_p99_us", "us"),
    ("shard.link_overhead_us", "us"),
    ("shard.boot_s", "s"),
];

const WORKLOADS: [&str; 3] = ["tune_cold", "fleet_hot_tcp", "serve_open_mix"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shardd: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload tune_cold|fleet_hot_tcp|serve_open_mix \
                     --seed N --seconds S --trace 0|1 [--shardd PATH]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut shardd = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&"unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(value == "1"),
            "--shardd" => shardd = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
        shardd,
    })
}

/// What a workload run found: counts, metrics and report lines.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Answers that differed from their reference (a subset of `failed`).
    pub wrong: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Hash of the first requests the seed generates.
    pub stream_hash: String,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name);
        assert!(known, "undeclared metric {name}");
        println!("  {name} = {value}");
        self.metrics.insert(name, value);
    }
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    println!(
        "perfbench {} seed={} seconds={} {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let outcome = match args.workload.as_str() {
        "tune_cold" => tune_cold::run(&args, &mut report),
        "fleet_hot_tcp" => fleet::run(&args, &mut report),
        _ => open_mix::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut idle = Vec::new();
    for &(name, unit) in declared {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => {
                idle.push(name);
                0.0
            }
            None => panic!("workload did not report {name}"),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    if !idle.is_empty() {
        println!("layers not exercised by {} (reported as 0): {}", args.workload, idle.join(" "));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"nproc\": {nproc}, \
         \"active_kernel\": \"{}\", \"mode\": \"{}\", \"stream_hash\": \"{}\"}}",
        args.workload,
        args.seed,
        commit(),
        ranksvm::kernel::active_kernel(),
        if args.trace { "traced" } else { "untraced" },
        report.stream_hash,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
