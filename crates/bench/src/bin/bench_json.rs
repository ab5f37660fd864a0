//! Emit the deterministic artifacts — `BENCH_table1.json`,
//! `BENCH_modes.json`, `BENCH_kv.json` — into the current directory:
//!
//! ```text
//! cargo run --release -p repseq-bench --bin bench_json && git diff --exit-code
//! ```
//!
//! Every value in them is a virtual time or a count
//! (`repseq_bench::artifacts` builds and gates them), so a run from the
//! repository root that leaves `git status` clean is the proof the
//! committed files describe the committed code. There is nothing to
//! configure: the sizes are the committed ones, about five seconds in all.

use repseq_bench::{artifacts, write_artifact, Json};

/// A file name and the function that builds what goes in it.
type Artifact = (&'static str, fn() -> Json);

const ARTIFACTS: [Artifact; 3] = [
    ("BENCH_table1.json", artifacts::table1),
    ("BENCH_modes.json", artifacts::modes),
    ("BENCH_kv.json", artifacts::kv),
];

fn main() {
    for (file, build) in ARTIFACTS {
        write_artifact(file, &build());
    }
}
