//! Emit the deterministic artifacts — the six `BENCH_*.json` of
//! `repseq_bench::artifacts::ARTIFACTS` — into the current directory, and
//! render every table in them between its `<!-- bench_json:NAME -->` and
//! `<!-- /bench_json -->` markers in `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run --release -p repseq-bench --bin bench_json && git diff --exit-code
//! ```
//!
//! Every value is a virtual time or a count, and every shape the
//! reproduction claims of the paper is an assertion on the way (a broken
//! one exits non-zero, EXPERIMENTS.md untouched), so a run from the
//! repository root that leaves `git status` clean is the proof that the
//! committed files and the document describe the committed code. There is
//! nothing to configure: the sizes are the committed ones, ≈ 20 s in all.

use repseq_bench::{artifacts::ARTIFACTS, splice_tables, write_artifact};

const DOCUMENT: &str = "EXPERIMENTS.md";

fn main() {
    let mut doc = std::fs::read_to_string(DOCUMENT)
        .unwrap_or_else(|e| panic!("{DOCUMENT}: {e} (run from the repository root)"));
    for (file, build) in ARTIFACTS {
        let value = build();
        write_artifact(file, &value);
        doc = splice_tables(doc, &value).unwrap_or_else(|e| panic!("{DOCUMENT}: {e}"));
    }
    std::fs::write(DOCUMENT, doc).unwrap_or_else(|e| panic!("writing {DOCUMENT}: {e}"));
    println!("wrote {DOCUMENT}");
}
