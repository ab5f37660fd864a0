//! Page-guard equivalence: random range-write programs executed through
//! the bulk guard API (`with_slices` / `with_slices_mut`) must leave
//! exactly the memory the element-wise API leaves, and both must match
//! the single-copy reference memory — byte for byte, on every node.
//!
//! Two element types on purpose: `u64` (8 bytes, never straddles a page
//! on an aligned array) and `[u64; 3]` (24 bytes, straddles — exercising
//! the guards' detached singleton-run path).

#![allow(clippy::type_complexity)]

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use repseq_check::{Mem, RefMem};
use repseq_dsm::{Cluster, ClusterConfig, DsmNode, ShArray};
use repseq_sim::Stopped;
use repseq_stats::Stats;

const N_NODES: usize = 2;
/// 700 × 8 B spans two 4 KiB pages.
const U64_LEN: usize = 700;
/// 180 × 24 B spans two 4 KiB pages with a straddling element.
const TRIP_LEN: usize = 180;

/// One phase: `(start, raw_len, seed)`; executed by node `phase_idx % n`,
/// writing a clamped range of both arrays. Phases are separated by
/// barriers, so the program is race-free.
type Program = Vec<(usize, usize, u64)>;

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec((0usize..U64_LEN, 1usize..96, 1u64..1_000_000), 1..5)
}

fn u64_val(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64 * 31)
}

fn trip_val(seed: u64, i: usize) -> [u64; 3] {
    [u64_val(seed, i), u64_val(seed, i) ^ 0xAAAA, i as u64]
}

fn clamp_u64(start: usize, raw_len: usize) -> (usize, usize) {
    (start, raw_len.min(U64_LEN - start))
}

fn clamp_trip(start: usize, raw_len: usize) -> (usize, usize) {
    let s = start % TRIP_LEN;
    (s, raw_len.min(TRIP_LEN - s))
}

/// Run the program on a fresh cluster; `guards` picks the access API.
/// Returns each node's final view of both arrays.
fn run_on_dsm(prog: &Program, guards: bool) -> Vec<(Vec<u64>, Vec<[u64; 3]>)> {
    let stats = Stats::new(N_NODES);
    let mut cl = Cluster::new(ClusterConfig::paper(N_NODES), stats);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(U64_LEN);
    let trip: ShArray<[u64; 3]> = cl.alloc_array_page_aligned(TRIP_LEN);
    let out = Arc::new(Mutex::new(vec![(Vec::new(), Vec::new()); N_NODES]));
    let prog = Arc::new(prog.clone());

    let mut apps: Vec<Box<dyn FnOnce(DsmNode) -> Result<(), Stopped> + Send>> = Vec::new();
    for me in 0..N_NODES {
        let prog = Arc::clone(&prog);
        let out = Arc::clone(&out);
        apps.push(Box::new(move |node: DsmNode| {
            for (k, &(start, raw_len, seed)) in prog.iter().enumerate() {
                if k % N_NODES == me {
                    let (us, ul) = clamp_u64(start, raw_len);
                    let (ts, tl) = clamp_trip(start, raw_len);
                    if guards {
                        arr.with_slices_mut(&node, us..us + ul, |run| {
                            let first = run.first_index();
                            for j in 0..run.len() {
                                run.set(j, u64_val(seed, first + j));
                            }
                            Ok(())
                        })?;
                        trip.with_slices_mut(&node, ts..ts + tl, |run| {
                            let first = run.first_index();
                            for j in 0..run.len() {
                                run.set(j, trip_val(seed, first + j));
                            }
                            Ok(())
                        })?;
                    } else {
                        for i in us..us + ul {
                            arr.set(&node, i, u64_val(seed, i))?;
                        }
                        for i in ts..ts + tl {
                            trip.set(&node, i, trip_val(seed, i))?;
                        }
                    }
                }
                node.barrier()?;
            }
            // Read back everything on every node.
            let (mut u, mut t) = (Vec::with_capacity(U64_LEN), Vec::with_capacity(TRIP_LEN));
            if guards {
                arr.with_slices(&node, 0..U64_LEN, |run| {
                    for j in 0..run.len() {
                        u.push(run.get(j));
                    }
                    Ok(())
                })?;
                trip.with_slices(&node, 0..TRIP_LEN, |run| {
                    for j in 0..run.len() {
                        t.push(run.get(j));
                    }
                    Ok(())
                })?;
            } else {
                for i in 0..U64_LEN {
                    u.push(arr.get(&node, i)?);
                }
                for i in 0..TRIP_LEN {
                    t.push(trip.get(&node, i)?);
                }
            }
            out.lock().unwrap()[me] = (u, t);
            Ok(())
        }));
    }

    // Addresses are allocation-order deterministic; keep them for the
    // reference replay before the cluster is consumed.
    cl.launch(apps).expect("simulation must complete");
    let views = std::mem::take(&mut *out.lock().unwrap());
    views
}

/// Replay the program on the single-copy reference memory and read back
/// the ground-truth arrays (little-endian, the DSM's Pod encoding).
fn run_on_reference(prog: &Program) -> (Vec<u64>, Vec<[u64; 3]>) {
    // Same deterministic allocator as `run_on_dsm`.
    let stats = Stats::new(N_NODES);
    let mut cl = Cluster::new(ClusterConfig::paper(N_NODES), stats);
    let arr: ShArray<u64> = cl.alloc_array_page_aligned(U64_LEN);
    let trip: ShArray<[u64; 3]> = cl.alloc_array_page_aligned(TRIP_LEN);
    let page_size = cl.config().dsm.page_size;

    let mut m = RefMem::new(page_size);
    for &(start, raw_len, seed) in prog {
        let (us, ul) = clamp_u64(start, raw_len);
        for i in us..us + ul {
            m.st(arr.addr(i), u64_val(seed, i)).unwrap();
        }
        let (ts, tl) = clamp_trip(start, raw_len);
        for i in ts..ts + tl {
            let v = trip_val(seed, i);
            for (lane, &w) in v.iter().enumerate() {
                m.st(trip.addr(i) + 8 * lane as u64, w).unwrap();
            }
        }
    }
    let u: Vec<u64> = (0..U64_LEN).map(|i| m.ld(arr.addr(i)).unwrap()).collect();
    let t: Vec<[u64; 3]> = (0..TRIP_LEN)
        .map(|i| {
            let mut v = [0u64; 3];
            for (lane, slot) in v.iter_mut().enumerate() {
                *slot = m.ld(trip.addr(i) + 8 * lane as u64).unwrap();
            }
            v
        })
        .collect();
    (u, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Guard-based and element-wise access must be byte-identical to each
    /// other and to the reference memory, on every node.
    #[test]
    fn guards_match_elementwise_and_reference(prog in program_strategy()) {
        let (ref_u, ref_t) = run_on_reference(&prog);
        let by_guards = run_on_dsm(&prog, true);
        let by_elems = run_on_dsm(&prog, false);
        for node in 0..N_NODES {
            prop_assert_eq!(&by_guards[node].0, &ref_u, "guards vs reference (u64), node {}", node);
            prop_assert_eq!(&by_guards[node].1, &ref_t, "guards vs reference (triple), node {}", node);
            prop_assert_eq!(&by_elems[node].0, &ref_u, "elements vs reference (u64), node {}", node);
            prop_assert_eq!(&by_elems[node].1, &ref_t, "elements vs reference (triple), node {}", node);
        }
    }
}
