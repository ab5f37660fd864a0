//! Divergence reporting: when a lossy schedule violates the oracle or an
//! invariant, say *which* kernel event first diverged from a clean run of
//! the same workload, and which loss decision is to blame.

use repseq_dsm::LaunchOutcome;
use repseq_net::LossEvent;
use repseq_sim::{first_divergence, TraceEntry};

use crate::harness::{HarnessConfig, Schedule};

fn fmt_loss_event(e: &LossEvent) -> String {
    format!(
        "t={}ns {} {}->{} pair_seq={} ({:?})",
        e.at.nanos(),
        if e.multicast { "mcast" } else { "ucast" },
        e.src,
        e.dst,
        e.pair_seq,
        e.class,
    )
}

fn fmt_trace_entry(e: &TraceEntry) -> String {
    format!(
        "t={}ns seq={} pid={} {}",
        e.time.nanos(),
        e.seq,
        e.pid,
        if e.is_delivery() { "deliver" } else { "wake" },
    )
}

/// Render the full failure report for one schedule: the violated invariant,
/// the protocol probes, the tail of the loss log, and — when both the
/// failing run and its lossless twin carry traces — the first divergent
/// kernel event plus the last loss decision at or before it.
pub fn render_failure(
    workload: &str,
    cfg: &HarnessConfig,
    sched: Schedule,
    why: &str,
    lossy: &LaunchOutcome,
    clean: &LaunchOutcome,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "torture schedule failed: workload={workload} nodes={} rse_timeout={:?} \
         seed={} drop={}‰ unicast={}\n",
        cfg.nodes, cfg.rse_timeout, sched.seed, sched.drop_per_mille, sched.unicast
    ));
    out.push_str(&format!("  violation: {why}\n"));
    for probe in &lossy.probes {
        out.push_str(&format!("  probe[{}]: {probe:?}\n", probe.node));
    }
    let drops = &lossy.loss_events;
    let last = drops.len().min(10);
    out.push_str(&format!("  {} frames dropped; last {last}:\n", drops.len()));
    for e in &drops[drops.len() - last..] {
        out.push_str(&format!("    {}\n", fmt_loss_event(e)));
    }
    let traces = match (&lossy.result, &clean.result) {
        (Ok(l), Ok(c)) => l.trace.as_deref().zip(c.trace.as_deref()),
        _ => None,
    };
    match traces {
        None => out.push_str("  (no trace pair: a run did not complete, see violation above)\n"),
        Some((lt, ct)) => match first_divergence(ct, lt) {
            None => out.push_str("  traces identical: failure is not schedule-induced\n"),
            Some(d) => {
                out.push_str(&format!("  first divergent kernel event (index {}):\n", d.index));
                out.push_str(&format!(
                    "    clean: {}\n",
                    d.a.as_ref().map_or("<end of trace>".into(), fmt_trace_entry)
                ));
                out.push_str(&format!(
                    "    lossy: {}\n",
                    d.b.as_ref().map_or("<end of trace>".into(), fmt_trace_entry)
                ));
                // The loss decision responsible: the last drop at or before
                // the divergent event's time in the lossy run.
                let at = d.b.map(|e| e.time);
                let culprit = match at {
                    Some(t) => drops.iter().rfind(|e| e.at <= t),
                    None => drops.last(),
                };
                match culprit {
                    Some(e) => {
                        out.push_str(&format!("  offending loss decision: {}\n", fmt_loss_event(e)))
                    }
                    None => out.push_str("  no loss decision precedes the divergence\n"),
                }
            }
        },
    }
    out
}
