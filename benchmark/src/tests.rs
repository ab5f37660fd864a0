//! Tests of the benchmark as a whole (each module tests its own parts).

use repseq_apps::barnes_hut::{BarnesHut, BhConfig};
use repseq_core::SeqMode;

use crate::json::Json;
use crate::ladder::Ladder;
use crate::measure::{measure, Outcome};
use crate::metrics::{Raw, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stat::Better;
use crate::workload::{AppWorkload, Done, Output, Rep, Workload, WORKLOADS};
use crate::{parse_args, result_json, value_of, RUN_SECONDS};

/// `BENCHMARK.json` is written by hand; the tables in `metrics.rs` and
/// `workload.rs` are what the program measures. They must say the same.
#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json");
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key).and_then(Json::as_arr).unwrap().iter().map(|s| s.as_str().unwrap()).collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));

    let field =
        |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
    let entries = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

    let declared: Vec<(String, String)> =
        entries("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
    let measured: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
    assert_eq!(declared, measured);
    assert!(measured.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let better = |entry: &Json| match field(entry, "better").as_str() {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => panic!("better: {other}"),
    };
    let declared: Vec<_> = entries("end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), better(m), m.get("bound").unwrap().as_f64()))
        .collect();
    let measured: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better, m.bound))
        .collect();
    assert_eq!(declared, measured);
    assert!(declared.contains(&("setup_s".into(), "s".into(), Better::Lower, Some(0.25))));

    let declared: Vec<_> = entries("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), better(m)))
        .collect();
    let measured: Vec<_> =
        PER_LAYER.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better)).collect();
    assert_eq!(declared, measured);
}

#[test]
fn the_contract_arguments_parse_and_others_are_refused() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv("--workload kv32_skew --seed 7 --seconds 10 --trace 1")).unwrap();
    assert_eq!(
        (a.workload.as_deref(), a.seed, a.seconds, a.trace),
        (Some("kv32_skew"), 7, 10, true)
    );
    let a = parse_args(&argv("--agree")).unwrap();
    assert!(a.agree && a.workload.is_none() && a.seconds == RUN_SECONDS);
    for bad in [
        "--seed x",
        "--seconds 0",
        "--seconds 61",
        "--trace 2",
        "--reps 3",
        "--seed",
        "--agree --workload x",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad} was accepted");
    }
}

fn keys(object: &Json) -> Vec<&str> {
    match object {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Every declared metric is in the result, with nothing else beside it.
fn assert_complete(outcome: &mut Outcome) {
    assert_eq!(outcome.checks.failures, Vec::<String>::new());
    for trace in [false, true] {
        let result = result_json(outcome, trace);
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
        assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let names = keys(result.get("metrics").unwrap());
        let declared: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(names, declared);
    }
    for m in &END_TO_END {
        assert!(value_of(&outcome.end_to_end, m.name).unwrap() > 0.0, "{} must never be 0", m.name);
    }
}

/// The ladder at 1/100 of its operation counts, through the whole path:
/// reference, repetitions, checks, traced repetition, rung numbers.
#[test]
fn smoke_ladder_at_a_hundredth() {
    let ladder = Ladder::new(32, 7, 100);
    let mut outcome = measure(&ladder, &ladder, 0.0, true, None, &mut Spans::new());
    assert_complete(&mut outcome);
    let layers = &outcome.per_layer;
    assert!(value_of(layers, "net.unicast_self_ns").unwrap() > 0.0);
    assert!(value_of(layers, "sim.cross_resumes").unwrap() > 0.0, "the traced pass records traces");
    for rung in PER_LAYER.iter().filter(|m| m.name.ends_with("_ns") || m.name.ends_with("_us")) {
        assert!(value_of(layers, rung.name).unwrap() > 0.0, "{} reports a cost", rung.name);
    }
}

/// A 4-node Barnes-Hut `tiny()` through the same path, with a small ladder
/// for its rung numbers.
#[test]
fn smoke_barnes_hut_on_four_nodes() {
    let app =
        AppWorkload::<BarnesHut> { nodes: 4, mode: SeqMode::Replicated, cfg: BhConfig::tiny() };
    let mut spans = Spans::new();
    let mut outcome = measure(&app, &Ladder::new(4, 7, 100), 0.0, true, None, &mut spans);
    assert_complete(&mut outcome);
    assert_eq!(outcome.reps, 2, "zero seconds still measure the minimum of repetitions");
    // reference, rep[0], rep[1] and traced_rep (3 each), three ladder passes
    // (3 each), the unpinned rung, and the identity of counts across
    // repetitions.
    assert_eq!(outcome.checks.attempted, 1 + 9 + 9 + 1 + 1);
    let layers = &outcome.per_layer;
    assert!(value_of(layers, "net.messages").unwrap() > 0.0);
    assert!(value_of(layers, "apps.body_1node_s").unwrap() > 0.0);
    let spans = spans.to_json();
    let names: Vec<&str> =
        spans.as_arr().unwrap().iter().map(|s| s.get("name").unwrap().as_str().unwrap()).collect();
    for want in
        ["reference", "rep[0]", "setup", "run", "check", "traced_rep", "ladder[2]", "unpinned"]
    {
        assert!(names.contains(&want), "no span named {want} in {names:?}");
    }
}

/// A workload whose repetition goes wrong in one of the ways the checks
/// exist for.
enum Faulty {
    WrongValue,
    MessageLeftBehind,
    DoesNotComplete,
}

impl Workload for Faulty {
    fn nodes(&self) -> usize {
        2
    }

    fn reference(&self) -> Result<(Output, f64), String> {
        Ok((vec![42], 0.001))
    }

    fn rep(&self, _traced: bool, _spans: &mut Spans) -> Rep {
        let done = |output, backlog| {
            let raw = Raw { events: 10, backlog, ..Raw::default() };
            Ok(Done { raw, output, p99_ms: None, rungs: Vec::new() })
        };
        let done = match self {
            Faulty::WrongValue => done(vec![41], 0),
            Faulty::MessageLeftBehind => done(vec![42], 5),
            Faulty::DoesNotComplete => Err("deadlock".to_string()),
        };
        Rep { setup_s: 0.001, run_s: 0.05, rss_after_setup_mb: 1.0, done }
    }
}

#[test]
fn failed_checks_are_counted_and_a_failed_repetition_gives_no_timing() {
    let run = |w: Faulty| measure(&w, &Ladder::new(2, 1, 100), 0.0, false, None, &mut Spans::new());
    // reference, three checks on each of two repetitions, identity of counts.
    for w in [Faulty::WrongValue, Faulty::MessageLeftBehind] {
        let mut outcome = run(w);
        assert_eq!((outcome.checks.attempted, outcome.checks.failed), (8, 2));
        assert_eq!(value_of(&outcome.end_to_end, "wall_s"), Some(0.05));
        assert_eq!(result_json(&mut outcome, false).get("correct"), Some(&Json::Bool(false)));
    }
    let mut outcome = run(Faulty::DoesNotComplete);
    assert_eq!((outcome.checks.attempted, outcome.checks.failed), (7, 6));
    assert!(outcome.end_to_end.is_empty(), "a repetition that failed contributes no timing");
    // ... and every metric the result then lacks is one more failed check.
    let result = result_json(&mut outcome, false);
    assert_eq!(result.get("failed"), Some(&Json::Num(6.0 + END_TO_END.len() as f64)));
    assert_eq!(keys(result.get("metrics").unwrap()), Vec::<&str>::new());
}
