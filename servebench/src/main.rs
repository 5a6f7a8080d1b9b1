//! `servebench`: the end-to-end and per-layer benchmark of `winslett-serve`.
//!
//! ```text
//! servebench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats trials until `--seconds` have passed (at least
//! `MIN_TRIALS`). Each trial seeds a fresh store, starts the release server
//! with its shipped defaults, sends a fixed, seeded operation script,
//! `SIGKILL`s the server and checks the reopened directory. Latencies are
//! pooled over the run's trials; set-up time is the median trial's.
//!
//! Every metric is printed as `name value unit` on its own line; the last
//! line is one JSON object with the metrics `BENCHMARK.json` names (the
//! end-to-end ones untraced, the per-layer ones with `--trace 1`). Any
//! correctness mismatch makes the exit code nonzero.

mod gen;
mod layers;
mod proc;
mod served;
mod store;
mod trace;

use gen::Workload;
use served::Trial;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, percentile, Samples, Tracer};

/// Trials per run at least, so `setup_s` is a median of several set-ups.
const MIN_TRIALS: usize = 3;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where runs keep their directories and span logs, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_run";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        server: PathBuf::from(get("--server")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// One named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Per-trial values behind a median, printed so the spread shows.
    trials: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `<prefix>_p50_us` and `<prefix>_p99_us` of `samples`, if any.
    fn latency(&mut self, prefix: &str, samples: &[f64]) {
        if let (Some(p50), Some(p99)) = (median(samples), percentile(samples, 0.99)) {
            self.add(&format!("{prefix}_p50_us"), p50, "us");
            self.add(&format!("{prefix}_p99_us"), p99, "us");
            self.add(&format!("{prefix}_samples"), samples.len() as f64, "count");
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The named metrics, in order; a missing one is a benchmark bug.
    fn pick(&self, names: &[&str]) -> Result<Vec<(String, f64, &'static str)>, String> {
        names
            .iter()
            .map(|&n| {
                self.metrics
                    .iter()
                    .find(|m| m.name == n)
                    .map(|m| (m.name.clone(), m.value, m.unit))
                    .ok_or_else(|| format!("metric {n} was not measured"))
            })
            .collect()
    }
}

/// The headline operation of each workload: its latency samples, and the
/// completed count per second of script time.
fn headline(w: Workload) -> (&'static str, &'static str) {
    match w {
        Workload::ReadMostly => ("read", "reads_per_s"),
        Workload::LargeStoreWrites => ("write", "writes_per_s"),
        Workload::TxnContended => ("txn", "txn_stmts_per_s"),
        Workload::ReplicaRyw => ("ryw", "ryw_per_s"),
    }
}

fn pooled(trials: &[Trial]) -> Samples {
    let mut all = Samples::default();
    for t in trials {
        for c in &t.conns {
            all.merge(c.lat.clone());
        }
    }
    all
}

fn completed(samples: &[f64]) -> f64 {
    samples.iter().filter(|&&us| us < served::MISSED_US).count() as f64
}

/// Headline operations one trial's script completed.
fn trial_ops(w: Workload, t: &Trial) -> f64 {
    let count = |name: &str| {
        t.conns
            .iter()
            .map(|c| completed(c.lat.get(name)))
            .sum::<f64>()
    };
    match w {
        Workload::ReadMostly => completed(t.conns[0].lat.get("read")),
        Workload::LargeStoreWrites => count("write"),
        Workload::TxnContended => t.conns.iter().map(|c| c.committed_stmts as f64).sum(),
        Workload::ReplicaRyw => count("ryw"),
    }
}

/// Headline operations completed per second of one trial's script.
fn trial_rate(w: Workload, t: &Trial) -> f64 {
    // The reader's own clock: the paced writer may finish later.
    let secs = match w {
        Workload::ReadMostly => t.conns[0].busy_s,
        _ => t.script_s,
    };
    trial_ops(w, t) / secs
}

/// The end-to-end metrics of a set of trials. Every latency is printed
/// pooled over the trials; the headline p50 and rate are medians of the
/// per-trial values, so one disturbed trial cannot move them far.
fn end_to_end(w: Workload, trials: &[Trial], report: &mut Report) {
    let lat = pooled(trials);
    for name in ["read", "write", "txn", "ryw"] {
        report.latency(name, lat.get(name));
    }
    let (op, rate_name) = headline(w);
    let rates: Vec<f64> = trials.iter().map(|t| trial_rate(w, t)).collect();
    report.add(rate_name, median(&rates).unwrap_or(0.0), "1/s");
    let p50s: Vec<f64> = trials
        .iter()
        .filter_map(|t| {
            let mut s = Samples::default();
            for c in &t.conns {
                s.merge(c.lat.clone());
            }
            median(s.get(op))
        })
        .collect();
    report.add("op_p50_us", median(&p50s).unwrap_or(0.0), "us");
    report.trials.push(("op_p50_us", p50s));
    report.trials.push(("ops_per_s", rates));
    let p99 = report.get(&format!("{op}_p99_us")).unwrap_or(0.0);
    report.add("op_p99_us", p99, "us");
    let rate = report.get(rate_name).unwrap_or(0.0);
    report.add("ops_per_s", rate, "1/s");
    // Server CPU per headline operation: the cost side of the rate, and
    // far less sensitive than wall time to the host's other tenants.
    // Pooled over the trials: CPU time is counted in 10 ms ticks.
    let cpu: f64 = trials.iter().map(|t| t.server_cpu_s).sum();
    let ops: f64 = trials.iter().map(|t| trial_ops(w, t)).sum();
    report.add("server_cpu_us_per_op", cpu * 1e6 / ops.max(1.0), "us");
    let attempted: u64 = trials.iter().map(Trial::attempted).sum();
    let failed: u64 = trials.iter().map(Trial::failed).sum();
    report.add(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac",
    );
    let setups: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    report.add("setup_s", median(&setups).unwrap_or(0.0), "s");
    let rss: Vec<f64> = trials.iter().map(|t| t.rss_mb).collect();
    report.add("peak_rss_mb", median(&rss).unwrap_or(0.0), "MiB");
}

/// The end-to-end metrics `BENCHMARK.json` bounds. Wall-clock latencies
/// and rates are printed but not bounded: on a shared two-vCPU host their
/// ten-run quartile spread reaches 0.35 of the median when the host's
/// other tenants are busy, wider than any bound a regression gate could
/// use, while server CPU time per operation stays within 0.1.
const CONTRACT: &[&str] = &["server_cpu_us_per_op", "setup_s", "peak_rss_mb"];

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let work = Path::new(WORK_DIR).join(args.workload.name());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let clock = Instant::now();
    let tracer = args.trace.then(|| Tracer::new(clock));

    let mut trials = Vec::new();
    while trials.len() < MIN_TRIALS || clock.elapsed().as_secs_f64() < args.seconds {
        let script = gen::generate(args.workload, args.seed, trials.len());
        // A traced run's first trial is untraced: the pair gives the
        // tracing overhead.
        let traced = tracer.as_ref().filter(|_| !trials.is_empty());
        trials.push(served::run_trial(&args.server, &script, &work, traced)?);
        if args.trace && trials.len() == 2 {
            break;
        }
    }

    let mut report = Report::default();
    let mut mismatches: Vec<String> = trials.iter().flat_map(|t| t.mismatches.clone()).collect();
    let attempted: u64 = trials.iter().map(Trial::attempted).sum();
    let failed: u64 = trials.iter().map(Trial::failed).sum();
    let mut fail_kinds = std::collections::BTreeMap::<String, u64>::new();
    for c in trials.iter().flat_map(|t| &t.conns) {
        for (k, n) in &c.failures {
            *fail_kinds.entry(k.clone()).or_default() += n;
        }
    }

    let contract: Vec<(String, f64, &str)> = if args.trace {
        let (untraced, traced) = trials.split_at(1);
        end_to_end(args.workload, traced, &mut report);
        let mut base = Report::default();
        end_to_end(args.workload, untraced, &mut base);
        let key = "op_p50_us";
        if let (Some(t), Some(u)) = (report.get(key), base.get(key)) {
            report.add("trace.overhead_frac", t / u - 1.0, "frac");
        }
        let script = gen::generate(args.workload, args.seed, 1);
        let layer = layers::run(&script, &work.join("layers"), &traced[0])?;
        mismatches.extend(layer.mismatches.iter().cloned());
        layer.report(&traced[0], &mut report);
        let mut spans: Vec<trace::Span> = traced
            .iter()
            .flat_map(|t| &t.conns)
            .filter_map(|c| c.tracer.as_ref())
            .flat_map(|t| t.spans.iter().cloned())
            .collect();
        spans.extend(layer.spans);
        let path = work.join(format!("spans-{}.jsonl", args.seed));
        std::fs::write(&path, trace::spans_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} written to {}", spans.len(), path.display());
        report.pick(layers::CONTRACT)?
    } else {
        end_to_end(args.workload, &trials, &mut report);
        report.pick(CONTRACT)?
    };

    println!(
        "workload {} seed {} trials {} nproc {} profile {}",
        args.workload.name(),
        args.seed,
        trials.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (name, values) in &report.trials {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        println!("trials.{name} [{}]", shown.join(", "));
    }
    for (k, n) in &fail_kinds {
        println!("failures.{k} {n} count");
    }
    for m in &mismatches {
        println!("MISMATCH {m}");
    }
    let correct = mismatches.is_empty();
    println!("{}", json_line(correct, attempted, failed, &contract));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
