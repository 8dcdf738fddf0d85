//! The rrfd benchmark: end-to-end and per-layer figures for the batch
//! pool, the implication lattice and the DPOR explorer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     [--threads <n>] [--spans <file>]
//! ```
//!
//! Run from the repository root (the lattice check reads `EXPERIMENTS.md`).
//! Every line but the last is for people: the host block, one line per
//! metric, and notes. The last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (a layer the workload does not reach reports 0). See `README.md`.

mod dpor;
mod host;
mod lattice;
mod pool;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_p10_per_s", "1/s"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("mix.build_ns_per_instance", "ns"),
    ("engine.start_ns_per_instance", "ns"),
    ("engine.step_ns_per_round", "ns"),
    ("engine.self_ns_per_round", "ns"),
    ("engine.rounds_per_instance", "count"),
    ("protocol.emit_ns_per_round", "ns"),
    ("protocol.deliver_ns_per_round", "ns"),
    ("protocol.heard_per_round", "count"),
    ("adversary.next_round_ns_per_round", "ns"),
    ("adversary.suspicions_per_round", "count"),
    ("model.admits_ns_per_round", "ns"),
    ("monitor.observe_ns_per_round", "ns"),
    ("monitor.compiled_evals_per_round", "count"),
    ("pool.batch_over_loop", "ratio"),
    ("pool.shard_scaling", "ratio"),
    ("lattice.compile_ns", "ns"),
    ("lattice.fingerprint_ns", "ns"),
    ("lattice.walk_ns", "ns"),
    ("lattice.render_ns", "ns"),
    ("memo.parse_ns", "ns"),
    ("memo.render_ns", "ns"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("dpor.ns_per_class", "ns"),
    ("dpor.scaling", "ratio"),
    ("dpor.classes", "count"),
    ("dpor.revisits", "count"),
    ("dpor.sleep_set_blocked", "count"),
    ("dpor.useful_ratio", "ratio"),
    ("dpor.steals", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "pool_mix",
    "pool_wide_monitored",
    "lattice_cold",
    "lattice_warm",
    "dpor_ring8",
];

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Spreads a run's set-ups over its measurement window: the first runs
/// before measuring, the others at even intervals inside the window, so
/// `setup_s` samples the host's speed the way the measurements do.
#[derive(Debug)]
pub struct Setups {
    start: Instant,
    window: Duration,
    done: usize,
}

impl Setups {
    /// Starts the schedule; call after the first set-up.
    #[must_use]
    pub fn after_first(window: Duration) -> Self {
        Setups {
            start: Instant::now(),
            window,
            done: 1,
        }
    }

    /// `true` when the next set-up is due; counts it as done.
    pub fn due(&mut self) -> bool {
        let at = self.window.mul_f64(self.done as f64 / SETUP_REPEATS as f64);
        let due = self.done < SETUP_REPEATS && self.start.elapsed() >= at;
        self.done += usize::from(due);
        due
    }

    /// Set-ups still owed once the window has closed; counts them as done.
    pub fn owed(&mut self) -> usize {
        let owed = SETUP_REPEATS.saturating_sub(self.done);
        self.done = SETUP_REPEATS;
        owed
    }
}

/// What a workload is run with.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measurement phase lasts (set-up excluded).
    pub measure: Duration,
    /// Shards / workers for the parallel passes; never above
    /// `available_parallelism`.
    pub threads: usize,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// One duration per set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for people: sample counts, which tail percentile, failures.
    pub notes: Vec<String>,
    /// The last traced pass's spans, for `--spans`.
    pub spans: Option<trace::Recording>,
}

/// Failure notes printed per run, at most.
const MAX_FAILURE_NOTES: usize = 20;

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records `count` failed operations and why.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        let shown = self
            .notes
            .iter()
            .filter(|n| n.starts_with("FAILED"))
            .count();
        if shown < MAX_FAILURE_NOTES {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Records both timing metrics from per-operation times in
    /// nanoseconds, each operation being its own iteration.
    pub fn operations(&mut self, times_ns: &[f64], tail_target: f64, what: &str) {
        let rates: Vec<f64> = times_ns.iter().map(|t| 1e9 / t.max(1.0)).collect();
        self.throughput(&rates, what);
        let mut sorted = times_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.latency_tail(&sorted, tail_target, what);
    }

    /// Records `throughput_p10_per_s`: the rate (operations per second)
    /// nine iterations in ten reached, the 10th percentile of
    /// per-iteration rates. Mean and median go into the notes.
    pub fn throughput(&mut self, rates: &[f64], what: &str) {
        let mut sorted = rates.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.metric(
            "throughput_p10_per_s",
            stats::percentile(&sorted, 10.0).unwrap_or(0.0),
        );
        self.notes.push(format!(
            "throughput over {} iterations of {what}: mean {:.1}/s, median {:.1}/s, \
             within-run quartile spread {:.3}",
            rates.len(),
            rates.iter().sum::<f64>() / rates.len().max(1) as f64,
            stats::median(&sorted).unwrap_or(0.0),
            stats::quartile_spread(rates).unwrap_or(0.0)
        ));
    }

    /// Records `latency_tail_us` from sorted per-operation times in
    /// nanoseconds; `target` caps the percentile (see [`stats::tail`]).
    pub fn latency_tail(&mut self, sorted_ns: &[f64], target: f64, what: &str) {
        self.notes.push(format!(
            "latency over {} {what}: mean {:.3} us, median {:.3} us",
            sorted_ns.len(),
            sorted_ns.iter().sum::<f64>() / sorted_ns.len().max(1) as f64 / 1e3,
            stats::median(sorted_ns).unwrap_or(0.0) / 1e3,
        ));
        match stats::tail(sorted_ns, target) {
            Some(tail) => {
                self.metric("latency_tail_us", tail.value / 1e3);
                self.notes.push(format!(
                    "latency_tail_us is p{} of {} {what}",
                    tail.percentile, tail.samples
                ));
            }
            None => self.notes.push(format!(
                "only {} {what}: too few for a tail",
                sorted_ns.len()
            )),
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    threads: Option<usize>,
    spans: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--threads <n>] [--spans <file>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut threads, mut spans) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--threads" => threads = Some(number()? as usize),
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
        threads,
        spans,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "pool_mix" => pool::run(&pool::PoolSpec::pool_mix()?, ctx),
        "pool_wide_monitored" => pool::run(&pool::PoolSpec::wide_monitored()?, ctx),
        "lattice_cold" => lattice::run(lattice::Half::Cold, ctx),
        "lattice_warm" => lattice::run(lattice::Half::Warm, ctx),
        "dpor_ring8" => dpor::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = host::available_parallelism();
    let threads = args.threads.unwrap_or(cores);
    if threads == 0 || threads > cores {
        eprintln!("perfbench: refusing {threads} shards/workers: available_parallelism is {cores}");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        threads,
        traced: args.traced,
    };

    let outcome = match run_workload(&args.workload, &ctx) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_mb = host::peak_rss_mb();

    let (shards, workers) = match args.workload.as_str() {
        w if w.starts_with("pool_") => (Some(threads), None),
        "dpor_ring8" => (None, Some(threads)),
        _ => (None, None),
    };
    let or_null = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
    println!(
        "{{\"host\": {{\"available_parallelism\": {cores}, \"rustc\": {}, \"git_rev\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"shards\": {}, \
         \"workers\": {}}}}}",
        json_str(host::RUSTC_VERSION),
        json_str(&host::git_rev()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        or_null(shards),
        or_null(workers),
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }

    let setup_s = stats::median_of(&outcome.setup_s);
    println!(
        "setup: {} set-ups, median {setup_s} s",
        outcome.setup_s.len()
    );
    let table: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match name {
            "setup_s" => Some(setup_s),
            "peak_rss_mb" => Some(peak_rss_mb),
            // A layer the workload does not reach spends nothing in it.
            _ if args.traced => Some(outcome.value(name).unwrap_or(0.0)),
            _ => outcome.value(name),
        };
        let Some(value) = value.filter(|v| v.is_finite()) else {
            eprintln!(
                "perfbench: {}: metric {name} was not measured",
                args.workload
            );
            return ExitCode::FAILURE;
        };
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    if let (Some(path), Some(spans)) = (&args.spans, &outcome.spans) {
        if let Err(e) = std::fs::write(path, spans.to_tsv()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of one list in `BENCHMARK.json`, in order.
    fn listed_names(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json lists no {key}"));
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        list.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn metric_and_workload_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        assert_eq!(listed_names(&json, "workloads"), WORKLOADS.to_vec());
        assert_eq!(listed_names(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(listed_names(&json, "per_layer"), names(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must carry unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload pool_mix --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.traced), (3, 2, true));
        assert!(args("--workload nosuch --seed 3 --seconds 2 --trace 0").is_err());
        assert!(args("--workload pool_mix --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload pool_mix --seed 3 --seconds 2 --trace 2").is_err());
        assert!(args("--workload pool_mix --seconds 2 --trace 0").is_err());
        assert!(args("--workload pool_mix --seed x --seconds 2 --trace 0").is_err());
        assert!(args("--workload pool_mix --seed 1 --seconds 2 --trace 0 --bogus 1").is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
