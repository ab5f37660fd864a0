//! The page table as the one home of per-page protocol state: the peers'
//! valid notices as a common stamp plus exceptions, the `valid_changed`
//! worklist, the presized table of a launched cluster, the resend path of
//! the sorted fetch plan (its probe before any reply, its recovery under
//! loss), and the one shared segment every node is seeded from.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use repseq_dsm::{
    AppFn, Cluster, ClusterConfig, DsmConfig, DsmNode, LaunchOutcome, NodeState, PageId, ShArray,
    SharedSegment, Vc,
};
use repseq_net::LossConfig;
use repseq_sim::Dur;
use repseq_stats::{MsgClass, Section, Stats};

const N: usize = 4;
const ME: usize = 1;
const PAGES: u32 = 6;

/// A hand-built state: no segment, so the page table grows on touch.
fn state() -> NodeState {
    let cfg = DsmConfig::default();
    let segment = Arc::new(SharedSegment::new(cfg.page_size, 0));
    NodeState::new(ME, N, cfg, segment)
}

/// Write page `p` in an interval of its own: the page's valid notice
/// advances and is due for the next exchange.
fn touch(st: &mut NodeState, p: PageId) {
    st.write_fault(p);
    st.close_interval();
}

/// Write `pages` inside a replicated section: at exit they are retired —
/// valid on every node at the section's entry time, nothing to announce.
fn retire(st: &mut NodeState, pages: &BTreeSet<PageId>) {
    st.enter_replicated();
    for &p in pages {
        st.write_fault(p);
    }
    st.exit_replicated();
}

/// The representation the page-table column replaced, kept as the
/// reference: one map of exchanged valid notices per node, and the set of
/// own pages to announce.
struct Model {
    known: Vec<HashMap<PageId, Vc>>,
    changed: BTreeSet<PageId>,
    own: HashMap<PageId, Vc>,
    vc: Vc,
}

#[derive(Debug, Clone)]
enum Op {
    Touch(PageId),
    Announce(usize, PageId, Vec<u32>),
    Retire(BTreeSet<PageId>),
    TakeDelta,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..6, 0usize..N, 0u32..PAGES, prop::collection::vec(0u32..5, N..N + 1)).prop_map(
        |(kind, q, p, entries)| match kind {
            0 => Op::Touch(p),
            1 | 2 => Op::Announce(q, p, entries),
            // A section retires one or two pages.
            3 | 4 => Op::Retire([p, entries[0] % PAGES].into()),
            _ => Op::TakeDelta,
        },
    );
    prop::collection::vec(op, 1..40)
}

fn vc_of(entries: &[u32]) -> Vc {
    let mut vc = Vc::zero(N);
    for (q, &v) in entries.iter().enumerate() {
        vc.set(q, v);
    }
    vc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of announcements, retirements and delta
    /// takes — announce-after-retire and retire-after-announce of the same
    /// `(q, p)` included — every peer lookup and every delta equals the
    /// per-node-map model's.
    #[test]
    fn common_stamp_plus_exceptions_matches_the_per_node_maps(ops in ops()) {
        let mut st = state();
        let mut m = Model {
            known: vec![HashMap::new(); N],
            changed: BTreeSet::new(),
            own: HashMap::new(),
            vc: Vc::zero(N),
        };
        for op in ops {
            match op {
                Op::Touch(p) => {
                    touch(&mut st, p);
                    m.vc.set(ME, m.vc.get(ME) + 1);
                    m.own.entry(p).or_insert_with(|| Vc::zero(N)).set(ME, m.vc.get(ME));
                    m.changed.insert(p);
                }
                Op::Announce(q, p, entries) => {
                    let vc = vc_of(&entries);
                    st.merge_valid_deltas(&[(q, p, vc.clone())]);
                    m.known[q].insert(p, vc);
                }
                Op::Retire(pages) => {
                    retire(&mut st, &pages);
                    for p in pages {
                        m.own.insert(p, m.vc.clone());
                        m.changed.remove(&p);
                        for known in &mut m.known {
                            known.insert(p, m.vc.clone());
                        }
                    }
                }
                Op::TakeDelta => {
                    let want: Vec<(PageId, Vc)> = std::mem::take(&mut m.changed)
                        .into_iter()
                        .map(|p| (p, m.own[&p].clone()))
                        .collect();
                    prop_assert_eq!(st.take_valid_delta(), want);
                }
            }
            for p in 0..PAGES {
                for q in (0..N).filter(|&q| q != ME) {
                    prop_assert_eq!(st.page_mut(p).peer_valid_at(q), m.known[q].get(&p));
                }
            }
        }
    }
}

/// The `valid_changed` worklist's edges: marked twice, announced once;
/// retired between mark and exchange, not announced; re-marked after the
/// retirement, announced again (once, though the worklist names it twice).
#[test]
fn valid_changed_worklist_edges() {
    let pages = |delta: Vec<(PageId, Vc)>| delta.into_iter().map(|d| d.0).collect::<Vec<_>>();
    let mut st = state();
    touch(&mut st, 3);
    touch(&mut st, 3);
    touch(&mut st, 1);
    assert_eq!(pages(st.take_valid_delta()), vec![1, 3]);
    assert!(st.take_valid_delta().is_empty(), "drained");

    touch(&mut st, 3);
    touch(&mut st, 5);
    retire(&mut st, &[3].into());
    assert_eq!(pages(st.take_valid_delta()), vec![5], "page 3's validity is common knowledge");

    touch(&mut st, 3);
    retire(&mut st, &[3].into());
    touch(&mut st, 3);
    let delta = st.take_valid_delta();
    assert_eq!(pages(delta.clone()), vec![3]);
    assert_eq!(delta[0].1, st.page_mut(3).valid_at);
}

fn cluster(n: usize) -> (Cluster, Arc<Stats>) {
    let stats = Stats::new(n);
    (Cluster::new(ClusterConfig::paper(n), Arc::clone(&stats)), stats)
}

/// A launched cluster sizes every node's table for the whole segment: the
/// last allocated page has a slot on every node and the page after it has
/// none — touching pages never grew the table (which, in this debug build,
/// would also have tripped `page_mut`'s assertion).
#[test]
fn a_launched_cluster_never_grows_its_page_tables() {
    let n = 2;
    let (mut cl, _) = cluster(n);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(3 * 512);
    let last = arr.page_span(cl.config().dsm.page_size).1;
    let apps: Vec<AppFn> = (0..n)
        .map(|_| {
            Box::new(move |nd: DsmNode| {
                if nd.is_master() {
                    arr.set(&nd, arr.len() - 1, 9)?;
                }
                nd.barrier()?;
                assert_eq!(arr.get(&nd, arr.len() - 1)?, 9);
                assert_eq!(arr.get(&nd, 0)?, 0);
                Ok(())
            }) as AppFn
        })
        .collect();
    let outcome = cl.launch_inspect(apps);
    outcome.result.as_ref().expect("run completes");
    for slot in outcome.page_slots(last) {
        assert!(slot.starts_with("Some(PageMeta"), "{slot}");
    }
    assert_eq!(outcome.page_slots(last + 1), vec!["None"; n]);
}

/// Node 0 reads one page that nodes 1 and 2 wrote: node 1 one word (a
/// small diff), node 2 the rest (a whole-page one). So one fetch asks two
/// owners, node 1 first in plan order. Returns the run's outcome and each
/// node's diff frames.
fn two_owner_fetch(cfg: ClusterConfig) -> (LaunchOutcome, Vec<u64>) {
    let n = 3;
    let stats = Stats::new(n);
    let mut cl = Cluster::new(cfg, Arc::clone(&stats));
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(512);
    let sum = Arc::new(Mutex::new(0u64));
    let sum2 = Arc::clone(&sum);
    let apps: Vec<AppFn> = (0..n)
        .map(|_| {
            let sum = Arc::clone(&sum2);
            Box::new(move |nd: DsmNode| {
                match nd.node() {
                    1 => arr.set(&nd, 0, 7)?,
                    2 => {
                        for k in 1..512 {
                            arr.set(&nd, k, k as u64)?;
                        }
                    }
                    _ => {}
                }
                nd.barrier()?;
                if nd.is_master() {
                    let mut s = 0;
                    for k in 0..512 {
                        s += arr.get(&nd, k)?;
                    }
                    *sum.lock().unwrap() = s;
                }
                nd.barrier()?;
                // Outlive the resend, so node 2 is seen answering it.
                nd.ctx().sleep(Dur::from_millis(2))?;
                Ok(())
            }) as AppFn
        })
        .collect();
    let outcome = cl.launch_inspect(apps);
    outcome.result.as_ref().expect("run completes");
    assert_eq!(*sum.lock().unwrap(), 7 + (1..512).sum::<u64>());
    let snap = stats.snapshot();
    let frames = (0..n).map(|q| snap.nodes[q].section(Section::Startup).diff_messages).collect();
    (outcome, frames)
}

fn with_timeout(us: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(3);
    cfg.dsm.rse_timeout = Dur::from_micros(us);
    cfg
}

/// A fetch whose owners answer at different speeds: the resend after a
/// timeout goes to exactly the owners still outstanding, with the interval
/// list the plan first asked them for. Node 1's small diff is back well
/// inside the timeout (set mid-way between the two replies' arrival), node
/// 2's whole-page one is not, so only node 2 is asked again.
#[test]
fn resend_asks_only_the_owners_still_outstanding() {
    let (_, frames) = two_owner_fetch(with_timeout(600));
    // Node 0: two requests and the one resend. Node 1 answered once and
    // was not asked again; node 2 was slow: asked again, answered twice.
    assert_eq!(frames, [3, 1, 2]);
}

/// A timeout below both owners' replies (node 1's lands near 160 µs, node
/// 2's near 800 µs). Before any reply a timeout probes the first owner in
/// plan order only: at 100 µs node 1 alone is asked again. Node 2 is asked
/// again only once node 1 has answered, at 300 and at 700 µs.
#[test]
fn a_timeout_before_any_reply_probes_the_first_owner_only() {
    let (_, frames) = two_owner_fetch(with_timeout(100));
    // Node 0: two requests, the probe and two resends to node 2.
    assert_eq!(frames, [5, 2, 3]);
}

/// Unicast loss that drops both of a two-owner fetch's first requests, and
/// later frames of the same fetch: the probes and resends still complete
/// it within `rse_max_retries` (the run would panic otherwise). Seed pinned
/// by scanning.
#[test]
fn a_fetch_whose_first_requests_are_all_dropped_still_completes() {
    let mut cfg = with_timeout(100);
    cfg.net.loss = Some(LossConfig { drop_per_mille: 500, seed: 22, unicast: true });
    let (outcome, _) = two_owner_fetch(cfg);
    let dropped = |dst| {
        outcome
            .loss_events
            .iter()
            .any(|e| (e.src, e.dst, e.pair_seq, e.class) == (0, dst, 0, MsgClass::DiffRequest))
    };
    assert!(dropped(1) && dropped(2), "loss log: {:?}", outcome.loss_events);
}

/// A preloaded page and a never-preloaded page of the one shared segment
/// read back correctly, and a write to one node's copy of either never
/// reaches the segment the other nodes start from.
#[test]
fn preloaded_and_untouched_pages_read_back() {
    let n = 3;
    let (mut cl, _) = cluster(n);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(2 * 512);
    let vals: Vec<u64> = (0..512).map(|k| k * 3 + 1).collect();
    cl.preload(arr, &vals);
    let apps: Vec<AppFn> = (0..n)
        .map(|_| {
            Box::new(move |nd: DsmNode| {
                // Node 2 dirties its private copies first: nobody
                // synchronizes with it before reading, so the others must
                // still see the initial image.
                if nd.node() == 2 {
                    arr.set(&nd, 5, 99)?;
                    arr.set(&nd, 512 + 5, 99)?;
                } else {
                    for k in (0..512).step_by(31) {
                        assert_eq!(arr.get(&nd, k)?, k as u64 * 3 + 1, "preloaded page");
                        assert_eq!(arr.get(&nd, 512 + k)?, 0, "never-preloaded page");
                    }
                }
                Ok(())
            }) as AppFn
        })
        .collect();
    cl.launch(apps).expect("run completes");
}
