//! Repository-level integration tests: the whole stack (engine → network →
//! DSM → runtime → applications) through the facade crate, mixing features
//! that the per-crate suites exercise separately.

use repseq::core::{RunConfig, Runtime, SeqMode, Worker};
use repseq::dsm::{ClusterConfig, ShArray};
use repseq::sim::Dur;

/// A program mixing every synchronization feature: replicated sequential
/// sections, parallel regions with internal barriers, locks, conditional
/// parallelism and reductions — all in one run.
#[test]
fn kitchen_sink_program() {
    for mode in [SeqMode::MasterOnly, SeqMode::Replicated] {
        let n = 5;
        let mut rt = Runtime::new(RunConfig { cluster: ClusterConfig::paper(n), seq_mode: mode });
        let grid: ShArray<u64> = rt.alloc_array_page_aligned(n * 128);
        let ticket = rt.alloc_var::<u64>();
        let ((tickets, probe), _) = rt
            .run_value(move |team| {
                team.start_measurement();
                // Replicated/sequential init.
                team.sequential(move |nd| {
                    for i in 0..grid.len() {
                        grid.set(nd, i, i as u64)?;
                    }
                    Ok(())
                })?;
                // Parallel phase with internal barrier and a lock-protected
                // ticket counter.
                team.parallel(move |nd| {
                    for i in nd.my_block(grid.len()) {
                        let v = grid.get(nd, i)?;
                        grid.set(nd, i, v * 2)?;
                    }
                    nd.barrier()?;
                    // After the barrier, read a neighbour's block.
                    let other = (nd.node() + 1) % nd.n_nodes();
                    let i = other * 128;
                    assert_eq!(grid.get(nd, i)?, (i as u64) * 2);
                    nd.lock(9)?;
                    let t = ticket.get(nd)?;
                    nd.charge(Dur::from_micros(3));
                    ticket.set(nd, t + 1)?;
                    nd.unlock(9)?;
                    Ok(())
                })?;
                // Conditional parallelism.
                for round in 0..2 {
                    if round == 0 {
                        team.parallel_for_cyclic(64, move |nd, i| {
                            let v = grid.get(nd, i)?;
                            grid.set(nd, i, v + 1)
                        })?;
                    } else {
                        team.sequential(move |nd| {
                            for i in 0..64 {
                                let v = grid.get(nd, i)?;
                                grid.set(nd, i, v + 1)?;
                            }
                            Ok(())
                        })?;
                    }
                }
                team.end_measurement();
                Ok((ticket.get(team.node())?, grid.get(team.node(), 10)?))
            })
            .unwrap();
        assert_eq!(tickets, n as u64, "{mode:?}: every node took the lock once");
        assert_eq!(probe, 10 * 2 + 2, "{mode:?}: grid[10] = 10*2 + two increments");
    }
}

/// Full determinism at the facade level: two identical runs produce the
/// same event count, end time and statistics.
#[test]
fn end_to_end_runs_are_reproducible() {
    let run = || {
        let n = 4;
        let mut rt = Runtime::new(RunConfig::optimized(n));
        let app = repseq::apps::barnes_hut::BarnesHut::setup(
            &mut rt,
            repseq::apps::barnes_hut::BhConfig::tiny(),
        );
        let stats = rt.stats();
        let report = rt
            .run(move |team| {
                app.run(team)?;
                Ok(())
            })
            .unwrap();
        let snap = stats.snapshot();
        (
            report.end_time.nanos(),
            report.events_processed,
            snap.total_agg().messages,
            snap.total_agg().bytes,
            snap.par_agg().diff_bytes,
        )
    };
    assert_eq!(run(), run());
}

/// The headline claim, end to end at a contention-heavy node count: with
/// everything composed through the facade, replicated sequential execution
/// still wins on the Barnes-Hut workload.
#[test]
fn headline_improvement_holds_end_to_end() {
    let run = |mode| {
        let n = 16;
        let mut rt = Runtime::new(RunConfig { cluster: ClusterConfig::paper(n), seq_mode: mode });
        let mut cfg = repseq::apps::barnes_hut::BhConfig::scaled(2048);
        cfg.timesteps = 2;
        let app = repseq::apps::barnes_hut::BarnesHut::setup(&mut rt, cfg);
        let stats = rt.stats();
        rt.run(move |team| {
            app.run(team)?;
            Ok(())
        })
        .unwrap();
        stats.snapshot()
    };
    let orig = run(SeqMode::MasterOnly);
    let opt = run(SeqMode::Replicated);
    assert!(
        opt.total_time < orig.total_time,
        "optimized must win at 16 nodes: {} vs {}",
        opt.total_time,
        orig.total_time
    );
    assert!(opt.par_agg().diff_bytes < orig.par_agg().diff_bytes);
}

/// Loss injection composes with the full application stack: a lossy hub
/// still yields bit-identical physics via the recovery path.
#[test]
fn lossy_multicast_does_not_corrupt_applications() {
    let run = |loss: Option<repseq::net::LossConfig>| {
        let mut cluster = ClusterConfig::paper(3);
        cluster.net.loss = loss;
        cluster.dsm.rse_timeout = Dur::from_millis(25);
        let mut rt = Runtime::new(RunConfig { cluster, seq_mode: SeqMode::Replicated });
        let app = repseq::apps::barnes_hut::BarnesHut::setup(
            &mut rt,
            repseq::apps::barnes_hut::BhConfig::tiny(),
        );
        rt.run_value(move |team| app.run(team)).unwrap().0
    };
    let clean = run(None);
    let lossy = run(Some(repseq::net::LossConfig::multicast_only(150, 99)));
    assert_eq!(clean, lossy, "loss recovery must preserve the physics");
}
