//! One run of one workload: reference, timed repetitions for the given
//! number of seconds, the checks, and — with tracing — one traced
//! repetition plus the ladder for the per-layer numbers.

use std::time::Instant;

use repseq_stats::host as host_counters;

use crate::host::{CpuSet, Pinning};
use crate::ladder::Ladder;
use crate::metrics::{layer_values, Values};
use crate::spans::Spans;
use crate::stat::{median, range_share};
use crate::workload::{Done, Output, Rep, Workload};

/// Repetitions a run makes however short `--seconds` is: two, so that the
/// 256-node workload — one repetition of which outlasts the run — still has
/// a second one to average with and to check its counts against.
const MIN_REPS: usize = 2;

/// Ladder passes behind the rung numbers of an application workload's
/// traced run (the ladder workload itself uses its timed repetitions).
const LADDER_PASSES: usize = 3;

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The three checks on a repetition: it ran to completion, it left no
    /// message undelivered, and its output equals the reference bit for
    /// bit. A repetition that did not complete fails all three.
    pub fn rep(&mut self, label: &str, rep: &Rep, reference: &Output) {
        let done = rep.done.as_ref();
        self.check(done.is_ok(), || format!("{label}: {}", done.err().unwrap()));
        let backlog = done.map_or(u64::MAX, |d| d.raw.backlog);
        self.check(backlog == 0, || format!("{label}: {backlog} messages left in mailboxes"));
        self.check(done.is_ok_and(|d| d.output == *reference), || {
            format!(
                "{label}: output {:x?} differs from the reference {reference:x?}",
                done.ok().map(|d| &d.output)
            )
        });
    }
}

#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub reps: usize,
    pub end_to_end: Values,
    /// Empty unless the run was traced.
    pub per_layer: Values,
}

/// What must not differ between two repetitions of one input.
fn fingerprint(d: &Done) -> (u64, u64, u64) {
    (d.raw.sim_time_ns, d.raw.events, d.raw.messages())
}

/// Median of each rung over the given passes.
fn rung_medians(passes: &[&Done]) -> Values {
    let Some(first) = passes.first() else { return Vec::new() };
    first
        .rungs
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            (name, median(&passes.iter().map(|d| d.rungs[i].1).collect::<Vec<_>>()))
        })
        .collect()
}

/// Run `workload` and reduce it to metrics. `ladder` supplies the rung
/// numbers of a traced run. `pinning` is `None` only in tests, which cannot
/// confine the test harness's threads.
pub fn measure(
    workload: &dyn Workload,
    ladder: &Ladder,
    seconds: f64,
    trace: bool,
    pinning: Option<&Pinning>,
    spans: &mut Spans,
) -> Outcome {
    let mut out = Outcome::default();
    let checks = &mut out.checks;

    let (reference, _) = spans.time("reference", |_| workload.reference());
    checks.check(reference.is_ok(), || format!("reference: {}", reference.as_ref().err().unwrap()));
    let Ok((reference, body_1node_s)) = reference else { return out };

    // Timed repetitions, tracing off: as many as fit, at least MIN_REPS.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut lengths = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let label = format!("rep[{}]", reps.len());
        let (rep, length) = spans.time(&label, |sp| {
            let rep = workload.rep(false, sp);
            sp.time("check", |_| checks.rep(&label, &rep, &reference));
            rep
        });
        reps.push(rep);
        lengths.push(length);
        if reps.len() == 1 {
            // What one run of the workload in a fresh process needs. Later
            // repetitions add what the allocator kept of earlier ones
            // (measured: 151 MB after the first repetition of kv32_skew,
            // 190 MB after the third), and how many fit depends on the host.
            peak_rss_mb = crate::host::peak_rss_mb();
        }
        let full = started.elapsed().as_secs_f64() + median(&lengths) > seconds;
        if full && reps.len() >= MIN_REPS {
            break;
        }
    }
    out.reps = reps.len();

    // A repetition that failed contributes no timing.
    let good: Vec<(&Rep, &Done)> =
        reps.iter().filter_map(|r| r.done.as_ref().ok().map(|d| (r, d))).collect();
    let Some(&(_, first)) = good.first() else { return out };
    let walls: Vec<f64> = good.iter().map(|(r, _)| r.run_s).collect();
    let wall_s = median(&walls);
    out.end_to_end = vec![
        ("wall_s", wall_s),
        ("setup_s", median(&good.iter().map(|(r, _)| r.setup_s).collect::<Vec<_>>())),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_time_s", first.raw.sim_time_s()),
        // A batch workload serves one request: the run.
        ("sim_p99_ms", first.p99_ms.unwrap_or(first.raw.sim_time_s() * 1e3)),
    ];

    let mut same = good.iter().all(|(_, d)| fingerprint(d) == fingerprint(first));
    if trace {
        host_counters::reset();
        let (traced, _) = spans.time("traced_rep", |sp| workload.rep(true, sp));
        let counters = host_counters::snapshot();
        checks.rep("traced_rep", &traced, &reference);
        if let Ok(done) = &traced.done {
            same &= fingerprint(done) == fingerprint(first);
            let mut layers = layer_values(&done.raw, &counters);
            layers.extend([
                ("sim.host_ns_per_event", wall_s * 1e9 / first.raw.events.max(1) as f64),
                ("apps.body_1node_s", body_1node_s),
                ("host.first_rep_ratio", walls[0] / wall_s),
                ("host.rep_spread", range_share(&walls)),
                ("host.rss_after_setup_mb", traced.rss_after_setup_mb),
                ("host.trace_overhead_share", (traced.run_s - wall_s) / wall_s),
            ]);
            layers.extend(ladder_values(ladder, &good, pinning, checks, spans));
            out.per_layer = layers;
        }
    }
    checks.check(same, || {
        "sim_time_s, sim.events or net.messages differ between repetitions of one input".into()
    });
    out
}

/// The rung numbers: from the timed repetitions when the workload is itself
/// a ladder, else from a few passes of `ladder`; plus the first rung once
/// more with the affinity mask widened to every allowed CPU.
fn ladder_values(
    ladder: &Ladder,
    good: &[(&Rep, &Done)],
    pinning: Option<&Pinning>,
    checks: &mut Checks,
    spans: &mut Spans,
) -> Values {
    let own: Vec<&Done> = good.iter().map(|&(_, d)| d).filter(|d| !d.rungs.is_empty()).collect();
    let mut values = if own.is_empty() {
        let (reference, _) = ladder.reference().expect("the ladder's reference is a constant");
        let passes: Vec<Rep> = (0..LADDER_PASSES)
            .map(|i| {
                let label = format!("ladder[{i}]");
                let (rep, _) = spans.time(&label, |sp| ladder.rep(false, sp));
                checks.rep(&label, &rep, &reference);
                rep
            })
            .collect();
        rung_medians(&passes.iter().filter_map(|r| r.done.as_ref().ok()).collect::<Vec<_>>())
    } else {
        rung_medians(&own)
    };

    let confine = |set: CpuSet| set.apply().expect("an affinity mask that was valid a moment ago");
    if let Some(p) = pinning {
        confine(p.allowed);
    }
    let (unpinned, _) = spans.time("unpinned", |sp| ladder.pingpong(false, sp));
    if let Some(p) = pinning {
        confine(CpuSet::only(p.cpu));
    }
    checks.check(unpinned.as_ref().is_ok_and(|r| r.ok), || "unpinned ping-pong failed".into());
    if let Ok(r) = unpinned {
        values.push(("sim.pingpong_unpinned_ns", r.cost()));
    }
    values
}
