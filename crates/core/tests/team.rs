//! Team-level integration tests: the three execution systems (Original,
//! Optimized, Broadcast-ablation) agree on results and differ on traffic
//! exactly the way the paper says they should.

use std::sync::{Arc, Mutex};

use repseq_core::{RunConfig, Runtime, SeqMode, Team, Worker};
use repseq_dsm::ShArray;
use repseq_sim::Dur;
use repseq_stats::StatsSnapshot;

/// A miniature of the paper's application shape: iterate
/// [sequential: rebuild `tree` from `parts`] →
/// [parallel: update own slice of `parts` reading the whole `tree`].
fn mini_app(mode: SeqMode, n: usize, iters: usize) -> (Vec<u64>, StatsSnapshot) {
    let mut rt =
        Runtime::new(RunConfig { cluster: repseq_dsm::ClusterConfig::paper(n), seq_mode: mode });
    let pages_of_tree = 4usize;
    let tree: ShArray<u64> = rt.alloc_array_page_aligned(pages_of_tree * 512);
    let parts: ShArray<u64> = rt.alloc_array_page_aligned(n * 512);
    let init: Vec<u64> = (0..parts.len() as u64).collect();
    rt.preload(parts, &init);
    let stats = rt.stats();
    let (out, _) = rt
        .run_value(move |team| {
            team.start_measurement();
            for _ in 0..iters {
                let (first, last) = tree.page_span();
                team.sequential_broadcasting(
                    move |nd| {
                        // Deterministic "tree build" reading every particle.
                        let mut acc = 0u64;
                        for i in 0..parts.len() {
                            acc = acc.wrapping_add(parts.get(nd, i)?);
                        }
                        for k in 0..tree.len() {
                            tree.set(nd, k, acc.wrapping_add(k as u64))?;
                        }
                        Ok(())
                    },
                    (first..=last).collect(),
                )?;
                team.parallel(move |nd| {
                    for i in nd.my_block(parts.len()) {
                        let t = tree.get(nd, i % tree.len())?;
                        let v = parts.get(nd, i)?;
                        parts.set(nd, i, v.wrapping_mul(3).wrapping_add(t))?;
                    }
                    Ok(())
                })?;
            }
            team.end_measurement();
            team.node().read_all(parts)
        })
        .expect("run failed");
    (out, stats.snapshot())
}

#[test]
fn three_systems_compute_identical_results() {
    let (orig, s_orig) = mini_app(SeqMode::MasterOnly, 4, 2);
    let (opt, s_opt) = mini_app(SeqMode::Replicated, 4, 2);
    let (bc, s_bc) = mini_app(SeqMode::MasterOnlyBroadcast, 4, 2);
    assert_eq!(orig, opt, "Original and Optimized must agree");
    assert_eq!(orig, bc, "Original and Broadcast must agree");

    // Table-shape checks (scaled): the optimized system slashes
    // parallel-section diff traffic; its sequential sections cost more.
    let (po, pr, pb) = (s_orig.par_agg(), s_opt.par_agg(), s_bc.par_agg());
    assert!(
        pr.diff_bytes * 3 < po.diff_bytes,
        "optimized parallel diff data must collapse: {} vs {}",
        pr.diff_bytes,
        po.diff_bytes
    );
    // The broadcast ablation eliminates tree fetches but not the rest:
    // between the two extremes.
    assert!(pb.diff_bytes < po.diff_bytes, "broadcast must reduce parallel traffic");
    assert!(
        s_opt.seq_agg().messages > s_orig.seq_agg().messages,
        "replication adds sequential-section messages (forwards, acks)"
    );
    // Flow-control machinery really ran.
    assert!(s_opt.seq_agg().null_acks > 0);
    assert!(s_opt.seq_agg().forwarded_requests > 0);
    assert_eq!(s_orig.seq_agg().null_acks, 0);
    // The paper's headline: total time improves under replication.
    assert!(
        s_opt.total_time < s_orig.total_time,
        "optimized must beat original: {} vs {}",
        s_opt.total_time,
        s_orig.total_time
    );
}

/// Which nodes run a sequential body, per mode: the master alone, except
/// under replication, where every node does (§5.2).
#[test]
fn sequential_bodies_run_where_the_mode_says() {
    let (n, k) = (4, 3);
    for mode in [
        SeqMode::MasterOnly,
        SeqMode::MasterOnlyBroadcast,
        SeqMode::MasterPush,
        SeqMode::Replicated,
    ] {
        let runs = Arc::new(Mutex::new(vec![0usize; n]));
        let counted = Arc::clone(&runs);
        let rt = Runtime::new(RunConfig {
            cluster: repseq_dsm::ClusterConfig::paper(n),
            seq_mode: mode,
        });
        rt.run(move |team| {
            for _ in 0..k {
                let counted = Arc::clone(&counted);
                team.sequential(move |nd| {
                    counted.lock().unwrap()[nd.node()] += 1;
                    Ok(())
                })?;
            }
            Ok(())
        })
        .unwrap();
        let expected = if mode == SeqMode::Replicated { vec![k; n] } else { vec![k, 0, 0, 0] };
        assert_eq!(*runs.lock().unwrap(), expected, "{mode:?}");
    }
}

#[test]
fn optimized_sequential_section_is_slower_but_parallel_is_faster() {
    let (_, s_orig) = mini_app(SeqMode::MasterOnly, 4, 2);
    let (_, s_opt) = mini_app(SeqMode::Replicated, 4, 2);
    assert!(
        s_opt.seq_time() > s_orig.seq_time(),
        "replicated sequential sections pay the multicast overhead: {} vs {}",
        s_opt.seq_time(),
        s_orig.seq_time()
    );
    assert!(
        s_opt.par_time() < s_orig.par_time(),
        "contention-free parallel sections must be faster: {} vs {}",
        s_opt.par_time(),
        s_orig.par_time()
    );
}

#[test]
fn parallel_for_schedules_cover_iterations() {
    for cyclic in [false, true] {
        let n = 3;
        let mut rt = Runtime::new(RunConfig::original(n));
        let marks: ShArray<u32> = rt.alloc_array_page_aligned(96);
        let (all, _) = rt
            .run_value(move |team| {
                let body = move |nd: &repseq_dsm::DsmNode, i: usize| {
                    marks.set(nd, i, (nd.node() + 1) as u32)
                };
                if cyclic {
                    team.parallel_for_cyclic(96, body)?;
                } else {
                    team.parallel_for_block(96, body)?;
                }
                let mut all = true;
                for i in 0..96 {
                    let v = marks.get(team.node(), i)?;
                    let expect = if cyclic { (i % 3 + 1) as u32 } else { (i / 32 + 1) as u32 };
                    all &= v == expect;
                }
                Ok(all)
            })
            .unwrap();
        assert!(all, "cyclic={cyclic}");
    }
}

#[test]
fn conditional_parallelization_if_clause() {
    // Ilink's pattern: the master examines the amount of work and runs the
    // update in parallel only above a threshold (§6.2.1).
    let n = 3;
    let mut rt = Runtime::new(RunConfig::optimized(n));
    let x: ShArray<u64> = rt.alloc_array_page_aligned(64);
    let (done, _) = rt
        .run_value(move |team| {
            for round in 0..4usize {
                let work = if round % 2 == 0 { 100 } else { 1 };
                let threshold = 10;
                if work > threshold {
                    team.parallel_for_block(64, move |nd, i| {
                        let v = x.get(nd, i)?;
                        x.set(nd, i, v + 1)
                    })?;
                } else {
                    team.sequential(move |nd| {
                        for i in 0..64 {
                            let v = x.get(nd, i)?;
                            x.set(nd, i, v + 10)?;
                        }
                        Ok(())
                    })?;
                }
            }
            Ok((x.get(team.node(), 0)?, x.get(team.node(), 63)?))
        })
        .unwrap();
    assert_eq!(done, (22, 22), "2 parallel +1s and 2 sequential +10s");
}

#[test]
fn locks_inside_parallel_regions() {
    let n = 4;
    let mut rt = Runtime::new(RunConfig::original(n));
    let counter = rt.alloc_var::<u64>();
    let (result, _) = rt
        .run_value(move |team| {
            team.parallel(move |nd| {
                for _ in 0..3 {
                    nd.lock(1)?;
                    let v = counter.get(nd)?;
                    nd.charge(Dur::from_micros(5));
                    counter.set(nd, v + 1)?;
                    nd.unlock(1)?;
                }
                Ok(())
            })?;
            counter.get(team.node())
        })
        .unwrap();
    assert_eq!(result, 12);
}

#[test]
fn barriers_inside_parallel_regions() {
    let n = 3;
    let mut rt = Runtime::new(RunConfig::optimized(n));
    let stage: ShArray<u64> = rt.alloc_array_page_aligned(n);
    rt.run(move |team| {
        team.parallel(move |nd| {
            stage.set(nd, nd.node(), (nd.node() as u64 + 1) * 7)?;
            nd.barrier()?;
            // After the internal barrier every node sees everyone's write.
            let mut s = 0;
            for q in 0..nd.n_nodes() {
                s += stage.get(nd, q)?;
            }
            assert_eq!(s, 7 + 14 + 21);
            Ok(())
        })
    })
    .unwrap();
}

#[test]
fn worker_read_all_bulk_reads() {
    let n = 2;
    let mut rt = Runtime::new(RunConfig::original(n));
    let data: ShArray<f64> = rt.alloc_array_page_aligned(700);
    let vals: Vec<f64> = (0..700).map(|i| i as f64 * 0.5).collect();
    rt.preload(data, &vals);
    let (got, _) = rt.run_value(move |team| team.node().read_all(data)).unwrap();
    assert_eq!(got.len(), 700);
    assert_eq!(got[699], 699.0 * 0.5);
}

#[test]
fn measurement_spans_sections() {
    let n = 2;
    let mut rt = Runtime::new(RunConfig::original(n));
    let x: ShArray<u64> = rt.alloc_array_page_aligned(8);
    let stats = rt.stats();
    rt.run(move |team| {
        team.start_measurement();
        team.sequential(move |nd| x.set(nd, 0, 1))?;
        team.parallel(move |nd| {
            nd.charge(Dur::from_millis(2));
            let _ = x.get(nd, 0)?;
            Ok(())
        })?;
        team.end_measurement();
        Ok(())
    })
    .unwrap();
    let snap = stats.snapshot();
    assert!(snap.total_time >= Dur::from_millis(2));
    assert!(snap.par_time() >= Dur::from_millis(2));
    let sum = snap.seq_time() + snap.par_time();
    assert!(sum <= snap.total_time + Dur::from_millis(1), "sections fit inside the total");
}

/// Both modes handle a program whose first section is parallel (no
/// sequential prologue).
#[test]
fn parallel_first_program() {
    for mode in [SeqMode::MasterOnly, SeqMode::Replicated] {
        let n = 3;
        let mut rt = Runtime::new(RunConfig {
            cluster: repseq_dsm::ClusterConfig::paper(n),
            seq_mode: mode,
        });
        let a: ShArray<u64> = rt.alloc_array_page_aligned(n);
        let (sum, _) = rt
            .run_value(move |team| {
                team.parallel(move |nd| a.set(nd, nd.node(), 5))?;
                team.sequential(move |nd| {
                    let mut s = 0;
                    for q in 0..a.len() {
                        s += a.get(nd, q)?;
                    }
                    a.set(nd, 0, s)
                })?;
                a.get(team.node(), 0)
            })
            .unwrap();
        assert_eq!(sum, 15, "{mode:?}");
    }
}

/// Teams can print (guarded) from replicated sections without duplicating
/// output — smoke-tested via the guard logic.
#[test]
fn master_print_guard() {
    let n = 2;
    let rt = Runtime::new(RunConfig::optimized(n));
    let printed = Arc::new(Mutex::new(0usize));
    let printed2 = Arc::clone(&printed);
    rt.run(move |team| {
        let printed3 = Arc::clone(&printed2);
        team.sequential(move |nd| {
            if nd.is_master() {
                // Stand-in for Team::master_print: count instead of print.
                *printed3.lock().unwrap() += 1;
            }
            Team::master_print(nd, format_args!(""));
            Ok(())
        })?;
        Ok(())
    })
    .unwrap();
    assert_eq!(*printed.lock().unwrap(), 1, "exactly one node executes guarded I/O");
}
