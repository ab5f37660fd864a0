//! Property test for the KV serving path: under arbitrary loss schedules,
//! node counts, and sequential-execution strategies, the table and
//! serving pages must match the reference memory **byte for byte at every
//! section boundary** — the harness checkpoints the audit set after each
//! replicated write section and each parallel read phase, so a hot-key
//! read served from a stale replicated page is caught at the boundary
//! where it happened, not just at the end of the run.

use proptest::prelude::*;
use repseq_check::{kv_serving, run_schedule, HarnessConfig, Schedule};
use repseq_dsm::SeqMode;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hot_key_reads_match_reference_at_every_section_boundary(
        seed in 0u64..256,
        rate_idx in 0usize..4,
        flags in 0u8..2,
        nodes_idx in 0usize..3,
        mode_idx in 0usize..3,
    ) {
        let unicast = flags != 0;
        let drop_per_mille = [0u32, 100, 250, 400][rate_idx];
        let nodes = [3usize, 4, 8][nodes_idx];
        let seq_mode =
            [SeqMode::MasterOnly, SeqMode::Replicated, SeqMode::MasterPush][mode_idx];
        let cfg = HarnessConfig { nodes, seq_mode, ..HarnessConfig::default() };
        let sched = Schedule { seed, drop_per_mille, unicast };
        let out = run_schedule(kv_serving, &cfg, sched)
            .unwrap_or_else(|why| panic!("kv_serving diverged from reference:\n{why}"));
        if drop_per_mille == 0 {
            prop_assert_eq!(out.drops, 0, "lossless schedule must not drop frames");
        }
    }
}
