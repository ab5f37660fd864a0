//! The repository's benchmark (see README.md).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process, pinned to one CPU, and prints its metrics; the
//! last line of standard output is the result as one JSON object. Without
//! `--workload` it runs every workload, each in a fresh process, untraced
//! then traced; `--agree` does that twice and compares the two sets.

mod host;
mod json;
mod ladder;
mod measure;
mod metrics;
mod spans;
mod stat;
mod suite;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use ladder::Ladder;
use measure::Outcome;
use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use spans::Spans;

/// How long one run measures unless told otherwise: `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The seed the applications default to (the paper's date).
pub const DEFAULT_SEED: u64 = 20010618;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub agree: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        agree: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be from 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.agree && args.workload.is_some() {
        return Err("--agree compares whole suites; it takes no --workload".into());
    }
    Ok(args)
}

/// Look `name` up in `values`.
fn value_of(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The contract's result object: every declared metric of the run's kind,
/// in table order. A declared metric the run did not produce is a failed
/// check, not a hole.
fn result_json(outcome: &mut Outcome, trace: bool) -> Json {
    let declared: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = if trace { &outcome.per_layer } else { &outcome.end_to_end };
    let mut metrics = Vec::new();
    for m in declared {
        match value_of(values, m.name).filter(|v| v.is_finite()) {
            Some(v) => {
                let entry = Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]);
                metrics.push((m.name, entry));
            }
            None => outcome.checks.check(false, || format!("metric {} was not measured", m.name)),
        }
    }
    Json::obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_values(title: &str, values: &Values) {
    println!("{title}");
    for &(name, v) in values {
        let unit = metrics::declared().find(|m| m.name == name).map_or("", |m| m.unit);
        println!("  {name:<40} {v:>16.6} {unit}");
    }
}

/// One workload, in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = workload::find(name) else {
        let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; the workloads are {}", known.join(", "));
        return ExitCode::from(2);
    };
    // Before anything spawns a thread. No pinning, no report: an unpinned
    // run measures the host scheduler (README, "Pinning").
    let pinning = match host::pin() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot confine the process to one CPU ({e}); refusing to measure");
            return ExitCode::from(3);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = host::tree_stamp(&here.join(".."));
    println!(
        "# workload={name} seed={} seconds={} trace={} host_cpus={} cpu={} tree={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        pinning.allowed.count(),
        pinning.cpu,
        tree.as_deref().unwrap_or("none"),
    );
    println!("# {}", spec.why);

    let mut spans = Spans::new();
    let (mut outcome, _) = spans.time("process", |sp| {
        let workload = spec.build(args.seed);
        // The rungs of a traced run, at the workload's node count.
        let ladder = Ladder::new(workload.nodes(), args.seed, 1);
        measure::measure(&*workload, &ladder, args.seconds as f64, args.trace, Some(&pinning), sp)
    });
    println!("# repetitions={}", outcome.reps);
    print_values("end to end (tracing off):", &outcome.end_to_end);
    if args.trace {
        print_values("per layer (traced repetition and ladder):", &outcome.per_layer);
    }
    let result = result_json(&mut outcome, args.trace);
    for f in &outcome.checks.failures {
        println!("FAILED {f}");
    }

    if args.trace {
        let named = |values: &Values| Json::obj(values.iter().map(|&(n, v)| (n, Json::Num(v))));
        let doc = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("tree", tree.map_or(Json::Null, Json::Str)),
            ("host_cpus", Json::Num(pinning.allowed.count() as f64)),
            ("cpu", Json::Num(pinning.cpu as f64)),
            ("attempted", Json::Num(outcome.checks.attempted as f64)),
            ("failed", Json::Num(outcome.checks.failed as f64)),
            ("end_to_end", named(&outcome.end_to_end)),
            ("per_layer", named(&outcome.per_layer)),
            ("spans", spans.to_json()),
        ]);
        let dir = here.join("out");
        let file = dir.join(format!("{name}.trace.json"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, doc.emit()))
        {
            eprintln!("cannot write {}: {e}", file.display());
            return ExitCode::from(4);
        }
        println!("# spans and counts written to {}", file.display());
    }

    println!("{}", result.emit());
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: [--workload <name>] [--seed <u64>] [--seconds <1-60>] [--trace <0|1>] [--agree]");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests;
