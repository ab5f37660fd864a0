//! The applications' outputs, pinned: Barnes-Hut's checksum bits and
//! interaction count, Ilink's likelihood bits and update counts, KV's
//! final-table fingerprint and served-value fold. The
//! `repseq-check` pins print these values too, but a pin is regenerated
//! whole whenever a virtual time moves, and the benchmark compares a run
//! with a 1-node run of the same code. These constants move only when
//! what the applications compute moves, so they catch a change that
//! shifts every node's result alike.

use repseq_apps::barnes_hut::{BarnesHut, BhConfig};
use repseq_apps::ilink::{Ilink, IlinkConfig};
use repseq_apps::kv::{KvConfig, KvStore};
use repseq_core::{RunConfig, Runtime};

/// The Plummer bodies and the physics (opening criterion, step,
/// softening) both feed this row.
#[test]
fn bh_tiny_computes_the_pinned_checksum() {
    for rc in [RunConfig::original(4), RunConfig::broadcast(4), RunConfig::optimized(4)] {
        let mode = rc.seq_mode;
        let mut rt = Runtime::new(rc);
        let app = BarnesHut::setup(&mut rt, BhConfig::tiny());
        let (r, _) = rt.run_value(move |team| app.run(team)).expect("barnes-hut run failed");
        assert_eq!(
            (r.checksum.to_bits(), r.interactions),
            (0x4065_c650_7f8b_2407, 51_885),
            "{mode:?}: checksum {} ({:#018x}), {} interactions",
            r.checksum,
            r.checksum.to_bits(),
            r.interactions
        );
    }
}

#[test]
fn ilink_tiny_computes_the_pinned_likelihood() {
    for rc in [RunConfig::original(4), RunConfig::optimized(4)] {
        let mode = rc.seq_mode;
        let mut rt = Runtime::new(rc);
        let app = Ilink::setup(&mut rt, IlinkConfig::tiny());
        let (r, _) = rt.run_value(move |team| app.run(team)).expect("ilink run failed");
        assert_eq!(
            (r.likelihood.to_bits(), r.parallel_updates, r.sequential_updates),
            (0x4140_02fe_626e_ea95, 2, 28),
            "{mode:?}: likelihood {} ({:#018x})",
            r.likelihood,
            r.likelihood.to_bits()
        );
    }
}

#[test]
fn kv_tiny_serves_the_pinned_values() {
    for rc in [RunConfig::original(4), RunConfig::optimized(4), RunConfig::master_push(4)] {
        let mode = rc.seq_mode;
        let mut rt = Runtime::new(rc);
        let kv = KvStore::setup(&mut rt, KvConfig::tiny());
        let (r, _) = rt.run_value(move |team| kv.run(team)).expect("kv run failed");
        assert_eq!(
            (r.fingerprint, r.read_xor),
            (0x8c2c_b42c_76e2_1b11, 0xb47c_0e02_1f23_4baf),
            "{mode:?}: fingerprint {:#018x} read_xor {:#018x}",
            r.fingerprint,
            r.read_xor
        );
    }
}
