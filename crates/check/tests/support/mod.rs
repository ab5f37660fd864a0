//! Shared helpers for the pin test crates: canonical rendering of a run's
//! determinism-relevant residue and byte-exact comparison against the
//! committed pins under `tests/pins/`.
//!
//! Used by `pins.rs` (the committed reference, owns regeneration) and
//! `determinism.rs` (holds unpinned workloads to their own previous run).
#![allow(dead_code)]

use std::fmt::Write as _;
use std::path::PathBuf;

use repseq_sim::SimReport;
use repseq_stats::StatsSnapshot;

/// Render a simulation report + statistics snapshot (+ optional
/// app-result debug string) as stable, human-diffable text.
pub fn render(report: &SimReport, stats: &StatsSnapshot, result: &str) -> String {
    let mut s = String::new();
    writeln!(s, "end_time_ns: {}", report.end_time.nanos()).unwrap();
    writeln!(s, "events_processed: {}", report.events_processed).unwrap();
    writeln!(s, "proc_clocks:").unwrap();
    for (name, t) in &report.proc_clocks {
        writeln!(s, "  {name}: {}", t.nanos()).unwrap();
    }
    writeln!(s, "mailbox_backlog:").unwrap();
    for (name, n) in &report.mailbox_backlog {
        writeln!(s, "  {name}: {n}").unwrap();
    }
    render_stats(&mut s, stats);
    writeln!(s, "result: {result}").unwrap();
    s
}

pub fn render_stats(s: &mut String, stats: &StatsSnapshot) {
    writeln!(s, "total_time_ns: {}", stats.total_time.nanos()).unwrap();
    writeln!(s, "seq_time_ns: {}", stats.seq_time().nanos()).unwrap();
    writeln!(s, "par_time_ns: {}", stats.par_time().nanos()).unwrap();
    for (i, node) in stats.nodes.iter().enumerate() {
        writeln!(s, "node {i}:").unwrap();
        for (j, sec) in node.sections.iter().enumerate() {
            writeln!(s, "  section {j}: {sec:?}").unwrap();
        }
    }
}

pub fn pin_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/pins").join(format!("{name}.pin"))
}

/// True when this invocation is regenerating the pins.
fn regenerating() -> bool {
    std::env::var("REPSEQ_PIN_REGEN").map(|v| v == "1").unwrap_or(false)
}

/// Compare `rendered` against the committed pin, or rewrite the pin when
/// `REPSEQ_PIN_REGEN=1`.
pub fn check_pin(name: &str, rendered: &str) {
    let path = pin_path(name);
    if regenerating() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("pin dir");
        std::fs::write(&path, rendered).expect("pin write");
        eprintln!("regenerated pin {}", path.display());
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pin {} ({e}); run with REPSEQ_PIN_REGEN=1", name));
    assert_eq!(
        pinned,
        rendered,
        "fingerprint for `{name}` drifted from the pre-refactor pin \
         ({}). The pinned modes must stay bit-identical across refactors.",
        path.display()
    );
}
