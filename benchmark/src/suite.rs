//! The whole suite: every workload in a fresh process of its own, untraced
//! then traced; and the agreement mode, which runs the suite twice and
//! holds the second set against the first by the benchmark's own bounds.

use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{declared, END_TO_END};
use crate::stat::worse_by;
use crate::workload::WORKLOADS;
use crate::Args;

/// One workload's two result lines.
struct Row {
    name: &'static str,
    end_to_end: Json,
    per_layer: Json,
    attempted: f64,
    failed: f64,
}

impl Row {
    fn get(&self, metric: &str) -> Option<f64> {
        [&self.end_to_end, &self.per_layer]
            .iter()
            .find_map(|set| set.get(metric)?.get("value")?.as_f64())
    }
}

/// Run one workload in a child process, pass its report through, and parse
/// the result line. The child waits to be reaped before this returns.
fn child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    println!("{report}");
    Json::parse(last).map_err(|e| format!("{name} ({}) printed no result: {e}", out.status))
}

fn run_set(args: &Args) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let untraced = child(w.name, args, false)?;
        let traced = child(w.name, args, true)?;
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        rows.push(Row {
            name: w.name,
            attempted: num(&untraced, "attempted") + num(&traced, "attempted"),
            failed: num(&untraced, "failed") + num(&traced, "failed"),
            end_to_end: untraced.get("metrics").cloned().unwrap_or(Json::Null),
            per_layer: traced.get("metrics").cloned().unwrap_or(Json::Null),
        });
    }
    Ok(rows)
}

fn summary(rows: &[Row]) {
    print!("\n{:<14}", "workload");
    for m in &END_TO_END {
        print!(" {:>14}", format!("{} ({})", m.name, m.unit));
    }
    println!(" {:>12}", "failed/checks");
    for r in rows {
        print!("{:<14}", r.name);
        for m in &END_TO_END {
            print!(" {:>14.6}", r.get(m.name).unwrap_or(f64::NAN));
        }
        println!(" {:>12}", format!("{}/{}", r.failed, r.attempted));
    }
    let sim = |name: &str| rows.iter().find(|r| r.name == name)?.get("sim_time_s");
    if let (Some(master), Some(rse)) = (sim("bh32_master"), sim("bh32_rse")) {
        println!(
            "\nbh32_master.sim_time_s / bh32_rse.sim_time_s = {:.2}   (paper Table 1: 53.6 s / 35.5 s = 1.51; \
             shape only — the input is 1/32 of the paper's, see EXPERIMENTS.md)",
            master / rse
        );
    }
}

/// Hold `second` against `first`: every end-to-end metric within its bound,
/// every count and virtual time identical. Prints each delta; returns how
/// many disagree.
fn disagreements(first: &[Row], second: &[Row]) -> usize {
    let mut bad = 0;
    println!(
        "\n{:<14} {:<40} {:>14} {:>14} {:>9}",
        "workload", "metric", "first", "second", "worse by"
    );
    for (a, b) in first.iter().zip(second) {
        for m in declared() {
            let name = m.name;
            let (Some(x), Some(y)) = (a.get(name), b.get(name)) else {
                println!("{:<14} {name:<40} missing", a.name);
                bad += 1;
                continue;
            };
            let delta = if x == y { 0.0 } else { worse_by(x, y, m.better) };
            let ok = if m.exact { x == y } else { m.bound.is_none_or(|b| delta <= b) };
            let verdict = match (ok, m.exact, m.bound) {
                (false, ..) => "DISAGREES",
                (true, true, _) => "identical",
                (true, false, Some(_)) => "within bound",
                (true, false, None) => "",
            };
            println!(
                "{:<14} {name:<40} {x:>14.6} {y:>14.6} {:>8.2}% {verdict}",
                a.name,
                delta * 100.0
            );
            bad += !ok as usize;
        }
    }
    bad
}

pub fn run(args: &Args) -> ExitCode {
    let sets = if args.agree { 2 } else { 1 };
    let mut results: Vec<Vec<Row>> = Vec::new();
    for _ in 0..sets {
        match run_set(args) {
            Ok(rows) => {
                summary(&rows);
                results.push(rows);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let failed: f64 = results.iter().flatten().map(|r| r.failed).sum();
    // NaN (a result line without counts) must not pass for zero.
    let mut ok = failed == 0.0;
    if let [first, second] = &results[..] {
        let bad = disagreements(first, second);
        println!("\n{bad} metrics disagree between the two sets");
        ok &= bad == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
