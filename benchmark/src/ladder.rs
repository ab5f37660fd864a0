//! The null-body ladder: one rung per layer, each adding a layer over the
//! previous with no application work, so each layer does most of the work
//! in exactly one rung. Every rung is timed from here, around calls into
//! the layer's public functions, and reports host time per operation.
//!
//! The seed draws the inputs — message delays and sizes, which words a
//! writer dirties — so virtual times move a little with it while the
//! operation counts stay fixed.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use repseq_core::{RunConfig, Runtime, SeqMode};
use repseq_dsm::{AppFn, Cluster, ClusterConfig, Diff, DsmNode, IntervalRecord, IntervalStore, Vc};
use repseq_net::{NetConfig, Network, Nic};
use repseq_sim::{Ctx, Dur, Sim, SimError, SimTime, Stopped};
use repseq_stats::{MsgClass, Section, Stats, StatsRef};

use crate::host;
use crate::metrics::{Raw, Values, PER_LAYER};
use crate::spans::Spans;
use crate::workload::{splitmix64, Done, Output, Rep, Workload};

pub struct Ladder {
    nodes: usize,
    seed: u64,
    /// Divides every operation count (1 in the benchmark; the smoke test
    /// runs at 1/100).
    div: u64,
}

/// What one rung measured.
pub struct Rung {
    /// The per-layer metric the rung reports.
    metric: &'static str,
    setup_s: f64,
    run_s: f64,
    ops: u64,
    raw: Raw,
    /// Its outputs were what its inputs imply.
    pub ok: bool,
}

impl Rung {
    /// Host time per operation, in the unit the metric is declared in.
    pub fn cost(&self) -> f64 {
        let unit = PER_LAYER.iter().find(|m| m.name == self.metric).map(|m| m.unit);
        let per_s = match unit {
            Some("ns") => 1e9,
            Some("us") => 1e6,
            other => panic!("{} is declared in {other:?}, not a time per operation", self.metric),
        };
        self.run_s * per_s / self.ops as f64
    }
}

pub type RungResult = Result<Rung, String>;

fn sim_err(e: SimError) -> String {
    format!("{e:?}")
}

/// Time a rung: `setup` builds the simulation, `run` drives it and checks
/// its outputs.
fn rung<S>(
    spans: &mut Spans,
    metric: &'static str,
    ops: u64,
    setup: impl FnOnce() -> S,
    run: impl FnOnce(S) -> Result<(Raw, bool), String>,
) -> RungResult {
    let (parts, _) = spans.time(metric, |sp| {
        let (built, setup_s) = sp.time("setup", |_| setup());
        let (out, run_s) = sp.time("run", |_| run(built));
        out.map(|(raw, ok)| Rung { metric, setup_s, run_s, ops, raw, ok })
    });
    parts
}

/// A rung with nothing to simulate: a loop over a layer's pure function.
fn host_loop(
    spans: &mut Spans,
    metric: &'static str,
    ops: u64,
    body: impl FnOnce() -> bool,
) -> RungResult {
    rung(spans, metric, ops, || (), |()| Ok((Raw::default(), body())))
}

/// A registry that counts from the first event, under the parallel tag
/// (the ladder has no program sections; the tag only has to be a measured
/// one).
fn measuring_stats(nodes: usize) -> StatsRef {
    let stats = Stats::new(nodes);
    stats.start_measurement(SimTime::ZERO);
    stats.set_section(Section::Parallel, SimTime::ZERO);
    stats
}

impl Ladder {
    pub fn new(nodes: usize, seed: u64, div: u64) -> Ladder {
        assert!(nodes >= 2, "the ladder needs two nodes to exchange a frame");
        Ladder { nodes, seed, div }
    }

    fn ops(&self, full: u64) -> u64 {
        (full / self.div).max(1)
    }

    /// `count` values in `lo..lo + span`, drawn from the seed; `stream`
    /// keeps the rungs' inputs independent.
    fn draws(&self, stream: u64, count: u64, lo: u64, span: u64) -> Arc<Vec<u64>> {
        let base = splitmix64(self.seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        Arc::new((0..count).map(|i| lo + splitmix64(base.wrapping_add(i)) % span).collect())
    }

    /// Bare kernel, two processes, one message each way per round trip:
    /// every event resumes the other process.
    pub fn pingpong(&self, traced: bool, spans: &mut Spans) -> RungResult {
        let trips = self.ops(10_000);
        let delays = self.draws(1, trips, 500, 1000);
        let echoed = Arc::new(AtomicU64::new(0));
        let want_end = 2 * delays.iter().sum::<u64>();
        let want_echo = trips * (trips + 1) / 2;
        rung(
            spans,
            "sim.pingpong_ns",
            2 * trips,
            || {
                let mut sim = Sim::<u64>::new();
                sim.record_trace(traced);
                let (d, sum) = (Arc::clone(&delays), Arc::clone(&echoed));
                sim.spawn("ping", move |ctx| {
                    for (i, &ns) in d.iter().enumerate() {
                        ctx.send(1, i as u64, ctx.now() + Dur::from_nanos(ns));
                        sum.fetch_add(ctx.recv()?.msg, Relaxed);
                    }
                    Ok(())
                });
                let d = Arc::clone(&delays);
                sim.spawn("pong", move |ctx| {
                    for &ns in d.iter() {
                        let m = ctx.recv()?.msg;
                        ctx.send(0, m + 1, ctx.now() + Dur::from_nanos(ns));
                    }
                    Ok(())
                });
                sim
            },
            |sim| {
                let report = sim.run().map_err(sim_err)?;
                let ok = report.end_time.nanos() == want_end && echoed.load(Relaxed) == want_echo;
                Ok((Raw::from_sim(&report), ok))
            },
        )
    }

    /// Bare kernel, every other node's process sending to one receiver.
    fn fanin(&self, traced: bool, spans: &mut Spans) -> RungResult {
        let senders = self.nodes as u64 - 1;
        let each = self.ops(20_000).div_ceil(senders);
        let gaps = self.draws(2, senders * each, 100, 400);
        let got = Arc::new(AtomicU64::new(0));
        let want = (senders * each) * (senders * each - 1) / 2;
        rung(
            spans,
            "sim.fanin_ns",
            senders * each,
            || {
                let mut sim = Sim::<u64>::new();
                sim.record_trace(traced);
                let sum = Arc::clone(&got);
                sim.spawn("sink", move |ctx| {
                    for _ in 0..senders * each {
                        sum.fetch_add(ctx.recv()?.msg, Relaxed);
                    }
                    Ok(())
                });
                for s in 0..senders {
                    let gaps = Arc::clone(&gaps);
                    sim.spawn(&format!("src{s}"), move |ctx| {
                        let mut at = ctx.now();
                        for k in s * each..(s + 1) * each {
                            at += Dur::from_nanos(gaps[k as usize]);
                            ctx.send(0, k, at);
                        }
                        Ok(())
                    });
                }
                sim
            },
            |sim| {
                let report = sim.run().map_err(sim_err)?;
                Ok((Raw::from_sim(&report), got.load(Relaxed) == want))
            },
        )
    }

    /// Bare kernel, one process sleeping: the process resumes itself.
    fn timer(&self, traced: bool, spans: &mut Spans) -> RungResult {
        let sleeps = self.ops(20_000);
        let naps = self.draws(3, sleeps, 500, 1000);
        let want_end = naps.iter().sum::<u64>();
        rung(
            spans,
            "sim.timer_ns",
            sleeps,
            || {
                let mut sim = Sim::<u64>::new();
                sim.record_trace(traced);
                sim.spawn("sleeper", move |ctx| {
                    for &ns in naps.iter() {
                        ctx.sleep(Dur::from_nanos(ns))?;
                    }
                    Ok(())
                });
                sim
            },
            |sim| {
                let report = sim.run().map_err(sim_err)?;
                Ok((Raw::from_sim(&report), report.end_time.nanos() == want_end))
            },
        )
    }

    /// The ping-pong again, each message now a frame through the switch
    /// model of an n-node network. Also returns the host ns spent inside
    /// `Nic::unicast` itself (it never yields, so the calls can be timed
    /// where they are made): the network layer's self time, which the
    /// difference of two 10 µs rungs is too noisy to show.
    fn unicast(&self, traced: bool, spans: &mut Spans) -> Result<(Rung, f64), String> {
        let trips = self.ops(5_000);
        let sizes = self.draws(4, trips, 16, 1024);
        let echoed = Arc::new(AtomicU64::new(0));
        let want_echo = trips * (trips + 1) / 2;
        let stats = measuring_stats(self.nodes);
        let inside = Arc::new(AtomicU64::new(0));
        let send =
            |nic: &Nic, ctx: &Ctx<u64>, to: usize, bytes: u64, msg: u64, spent: &AtomicU64| {
                let t = Instant::now();
                nic.unicast(ctx, to, to, MsgClass::Other, bytes, msg);
                spent.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
            };
        let r = rung(
            spans,
            "net.unicast_ns",
            2 * trips,
            || {
                let net = Network::new(NetConfig::paper(self.nodes), Arc::clone(&stats));
                let mut sim = Sim::<u64>::new();
                sim.record_trace(traced);
                let (nic, sz, sum, st, spent) = (
                    net.nic(0),
                    Arc::clone(&sizes),
                    Arc::clone(&echoed),
                    Arc::clone(&stats),
                    Arc::clone(&inside),
                );
                sim.spawn("ping", move |ctx| {
                    for (i, &bytes) in sz.iter().enumerate() {
                        send(&nic, &ctx, 1, bytes, i as u64, &spent);
                        sum.fetch_add(ctx.recv()?.msg, Relaxed);
                    }
                    st.end_measurement(ctx.now());
                    Ok(())
                });
                let (nic, sz, spent) = (net.nic(1), Arc::clone(&sizes), Arc::clone(&inside));
                sim.spawn("pong", move |ctx| {
                    for &bytes in sz.iter() {
                        let m = ctx.recv()?.msg;
                        send(&nic, &ctx, 0, bytes, m + 1, &spent);
                    }
                    Ok(())
                });
                sim
            },
            |sim| {
                let report = sim.run().map_err(sim_err)?;
                let raw = Raw::from_run(&report, &stats.snapshot(), 0);
                let ok = echoed.load(Relaxed) == want_echo && raw.messages() == 2 * trips;
                Ok((raw, ok))
            },
        )?;
        Ok((r, inside.load(Relaxed) as f64 / (2 * trips) as f64))
    }

    /// One sender multicasting through the hub model to a handler on every
    /// node; the cost is per delivered copy.
    fn multicast(&self, traced: bool, spans: &mut Spans) -> RungResult {
        let n = self.nodes;
        let frames = self.ops(500);
        let sizes = self.draws(5, frames, 16, 1024);
        let correct = Arc::new(AtomicU64::new(0));
        let want = frames * (frames - 1) / 2;
        let stats = measuring_stats(n);
        rung(
            spans,
            "net.multicast_ns",
            frames * n as u64,
            || {
                let net = Network::new(NetConfig::paper(n), Arc::clone(&stats));
                let mut sim = Sim::<u64>::new();
                sim.record_trace(traced);
                for h in 0..n {
                    let (good, st) = (Arc::clone(&correct), Arc::clone(&stats));
                    sim.spawn(&format!("handler{h}"), move |ctx| {
                        let mut sum = 0;
                        for _ in 0..frames {
                            sum += ctx.recv()?.msg;
                        }
                        good.fetch_add((sum == want) as u64, Relaxed);
                        if h == 0 {
                            st.end_measurement(ctx.now());
                        }
                        Ok(())
                    });
                }
                let nic = net.nic(0);
                let dsts: Vec<(usize, usize)> = (0..n).map(|h| (h, h)).collect();
                sim.spawn("sender", move |ctx| {
                    for (i, &bytes) in sizes.iter().enumerate() {
                        nic.multicast(&ctx, &dsts, MsgClass::Other, bytes, i as u64);
                    }
                    Ok(())
                });
                sim
            },
            |sim| {
                let report = sim.run().map_err(sim_err)?;
                let raw = Raw::from_run(&report, &stats.snapshot(), 0);
                Ok((raw, correct.load(Relaxed) == n as u64 && raw.messages() == frames))
            },
        )
    }

    /// Run one application on every node of an n-node cluster (`make_app`
    /// allocates what it shares first), node 0 closing the measured region
    /// when it is done.
    fn cluster_rung<A>(
        &self,
        spans: &mut Spans,
        (metric, ops, traced): (&'static str, u64, bool),
        make_app: impl FnOnce(&mut Cluster) -> A,
        check: impl FnOnce(&Raw) -> bool,
    ) -> RungResult
    where
        A: Fn(&DsmNode) -> Result<(), Stopped> + Send + Sync + 'static,
    {
        let stats = measuring_stats(self.nodes);
        rung(
            spans,
            metric,
            ops,
            || {
                let mut cluster =
                    Cluster::new(ClusterConfig::paper(self.nodes), Arc::clone(&stats));
                cluster.record_trace(traced);
                let app = Arc::new(make_app(&mut cluster));
                let apps: Vec<AppFn> = (0..self.nodes)
                    .map(|_| {
                        let app = Arc::clone(&app);
                        Box::new(move |nd: DsmNode| {
                            app(&nd)?;
                            if nd.is_master() {
                                nd.stats().end_measurement(nd.ctx().now());
                            }
                            Ok(())
                        }) as AppFn
                    })
                    .collect();
                (cluster, apps)
            },
            |(cluster, apps)| {
                let report = cluster.launch(apps).map_err(sim_err)?;
                let raw = Raw::from_run(&report, &stats.snapshot(), 0);
                let ok = check(&raw);
                Ok((raw, ok))
            },
        )
    }

    /// Empty application, barriers only.
    fn barrier(&self, traced: bool, spans: &mut Spans) -> RungResult {
        let barriers = self.ops(100);
        let passed = Arc::new(AtomicU64::new(0));
        let (count, n) = (Arc::clone(&passed), self.nodes as u64);
        self.cluster_rung(
            spans,
            ("dsm.sync.barrier_us", barriers, traced),
            |_| {
                move |nd: &DsmNode| {
                    for _ in 0..barriers {
                        nd.barrier()?;
                        count.fetch_add(1, Relaxed);
                    }
                    Ok(())
                }
            },
            move |_| passed.load(Relaxed) == barriers * n,
        )
    }

    /// The paper's request storm in miniature: node 0 dirties a few words
    /// of every page, then every other node reads one of them, all at once.
    fn fault(&self, traced: bool, spans: &mut Spans) -> RungResult {
        const WORDS: usize = 512; // u64 per 4 KB page
        let pages = self.ops(32) as usize;
        let faults = (self.nodes as u64 - 1) * pages as u64;
        let dirty = self.draws(6, pages as u64, 1, 64);
        let want: u64 = (0..pages).map(|p| p as u64 + dirty[p]).sum();
        let correct = Arc::new(AtomicU64::new(0));
        let good = Arc::clone(&correct);
        self.cluster_rung(
            spans,
            ("dsm.fetch.fault_us", faults, traced),
            |cluster| {
                let a = cluster.alloc_array_page_aligned::<u64>(pages * WORDS);
                move |nd: &DsmNode| {
                    if nd.is_master() {
                        for p in 0..pages {
                            for w in 0..dirty[p] as usize {
                                a.set(nd, p * WORDS + w, p as u64 + dirty[p])?;
                            }
                        }
                    }
                    nd.barrier()?;
                    if !nd.is_master() {
                        let mut sum = 0;
                        for p in 0..pages {
                            sum += a.get(nd, p * WORDS)?;
                        }
                        good.fetch_add((sum == want) as u64, Relaxed);
                    }
                    nd.barrier()
                }
            },
            move |raw| correct.load(Relaxed) == faults / pages as u64 && raw.page_faults >= faults,
        )
    }

    /// `Team::sequential` writing part of one page, then an empty
    /// `Team::parallel`, under one of the three strategies.
    fn section(
        &self,
        mode: SeqMode,
        metric: &'static str,
        traced: bool,
        spans: &mut Spans,
    ) -> RungResult {
        let sections = self.ops(20);
        let words = self.draws(7, sections, 1, 256);
        let last = Arc::new(AtomicU64::new(0));
        let stats = Stats::new(self.nodes);
        rung(
            spans,
            metric,
            sections,
            || {
                let cfg = RunConfig { cluster: ClusterConfig::paper(self.nodes), seq_mode: mode };
                let mut rt = Runtime::with_stats(cfg, Arc::clone(&stats));
                rt.record_trace(traced);
                let page = rt.alloc_array_page_aligned::<u64>(512);
                (rt, page)
            },
            |(rt, page)| {
                let seen = Arc::clone(&last);
                let report = rt
                    .run(move |team| {
                        team.start_measurement();
                        for (i, &w) in words.iter().enumerate() {
                            team.sequential(move |nd| {
                                for k in 0..w as usize {
                                    page.set(nd, k, i as u64 + 1)?;
                                }
                                Ok(())
                            })?;
                            team.parallel(|_| Ok(()))?;
                        }
                        team.end_measurement();
                        seen.store(page.get(team.node(), 0)?, Relaxed);
                        Ok(())
                    })
                    .map_err(sim_err)?;
                let raw = Raw::from_run(&report, &stats.snapshot(), 0);
                Ok((raw, last.load(Relaxed) == sections))
            },
        )
    }

    /// `Vc::merge` of two `width`-wide clocks neither of which dominates,
    /// into a shared buffer — the copy-then-maximum path an acquire takes.
    fn vc_merge(&self, width: usize, metric: &'static str, spans: &mut Spans) -> RungResult {
        let merges = self.ops(6_400_000 / width as u64);
        let ticks = self.draws(8, 2 * width as u64, 1, 1000);
        let (mut a, mut b) = (Vc::zero(width), Vc::zero(width));
        for q in 0..width {
            a.set(q, ticks[q] as u32);
            b.set(q, ticks[width + q] as u32);
        }
        host_loop(spans, metric, merges, || {
            let mut ok = true;
            for _ in 0..merges {
                let mut m = a.clone();
                m.merge(black_box(&b));
                ok &= black_box(&m).get(0) == a.get(0).max(b.get(0));
            }
            ok
        })
    }

    /// `IntervalStore::records_unknown_to` for a peer one interval behind
    /// on every node, over a store of `per_node` intervals per node: the
    /// cost of the scan as records pile up with no garbage collection.
    fn unknown_to(&self, per_node: u32, metric: &'static str, spans: &mut Spans) -> RungResult {
        const OWNERS: usize = 32;
        let calls = self.ops(640_000 / per_node as u64);
        let pages = self.draws(9, OWNERS as u64 * per_node as u64, 0, 1024);
        rung(
            spans,
            metric,
            calls,
            || {
                let mut store = IntervalStore::new(OWNERS);
                let mut theirs = Vc::zero(OWNERS);
                for owner in 0..OWNERS {
                    for ivx in 1..=per_node {
                        let mut vc = Vc::zero(OWNERS);
                        vc.set(owner, ivx);
                        let page = pages[owner * per_node as usize + ivx as usize - 1] as u32;
                        store.insert(IntervalRecord::new(owner, ivx, vc, vec![page]));
                    }
                    theirs.set(owner, per_node - 1);
                }
                (store, theirs)
            },
            |(store, theirs)| {
                let mut ok = true;
                for _ in 0..calls {
                    ok &= black_box(store.records_unknown_to(black_box(&theirs))).len() == OWNERS;
                }
                Ok((Raw::default(), ok))
            },
        )
    }

    /// `Diff::create` over a page with a few scattered dirty runs, and
    /// `Diff::apply` of the result.
    fn diff(&self, spans: &mut Spans) -> Result<[Rung; 2], String> {
        let (creates, applies) = (self.ops(20_000), self.ops(200_000));
        let bytes = self.draws(10, 4096, 0, 256);
        let twin: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let mut page = twin.clone();
        for &at in self.draws(11, 16, 0, 4096 - 8).iter() {
            for b in &mut page[at as usize..at as usize + 8] {
                *b = !*b;
            }
        }
        let diff = Diff::create(&twin, &page);
        let create = host_loop(spans, "dsm.dataplane.diff_create_sparse_ns", creates, || {
            let mut ok = true;
            for _ in 0..creates {
                ok &= black_box(Diff::create(black_box(&twin), black_box(&page))) == diff;
            }
            ok
        })?;
        let apply = host_loop(spans, "dsm.dataplane.diff_apply_ns", applies, || {
            let mut buf = twin.clone();
            let mut ok = true;
            for _ in 0..applies {
                ok &= black_box(&diff).apply(black_box(&mut buf)).is_ok();
            }
            ok && buf == page
        })?;
        Ok([create, apply])
    }

    /// `ShArray::get` on a page that is present and in the software TLB.
    fn read_hit(&self, spans: &mut Spans) -> RungResult {
        const WORDS: usize = 512;
        let reads = self.ops(2_000_000);
        let vals = self.draws(12, WORDS as u64, 0, 1 << 32);
        let want = (0..reads).map(|i| vals[i as usize % WORDS]).fold(0u64, u64::wrapping_add);
        let (sum, spent) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (sum2, spent2) = (Arc::clone(&sum), Arc::clone(&spent));
        let mut r = rung(
            spans,
            "dsm.dataplane.read_hit_ns",
            reads,
            || {
                let mut cluster = Cluster::new(ClusterConfig::paper(1), Stats::new(1));
                let arr = cluster.alloc_array_page_aligned::<u64>(WORDS);
                cluster.preload(arr, &vals);
                let app: AppFn = Box::new(move |nd: DsmNode| {
                    // Timed inside the process: spawning it is not a read.
                    let t = Instant::now();
                    let mut s = 0u64;
                    for i in 0..reads as usize {
                        s = s.wrapping_add(arr.get(&nd, i % WORDS)?);
                    }
                    spent2.store(t.elapsed().as_nanos() as u64, Relaxed);
                    sum2.store(s, Relaxed);
                    Ok(())
                });
                (cluster, app)
            },
            |(cluster, app)| {
                let report = cluster.launch(vec![app]).map_err(sim_err)?;
                Ok((Raw::from_sim(&report), sum.load(Relaxed) == want))
            },
        )?;
        r.run_s = spent.load(Relaxed) as f64 * 1e-9;
        Ok(r)
    }

    /// Every rung once, in order, and what each costs per operation. `Err`
    /// if a simulation did not complete.
    fn pass(&self, traced: bool, spans: &mut Spans) -> Result<(Vec<Rung>, Values), String> {
        let mut rungs = vec![
            self.pingpong(traced, spans)?,
            self.fanin(traced, spans)?,
            self.timer(traced, spans)?,
        ];
        let (unicast, unicast_self_ns) = self.unicast(traced, spans)?;
        rungs.extend([
            unicast,
            self.multicast(traced, spans)?,
            self.barrier(traced, spans)?,
            self.fault(traced, spans)?,
            self.section(SeqMode::MasterOnly, "core.section_us.master_only", traced, spans)?,
            self.section(SeqMode::Replicated, "core.section_us.rse", traced, spans)?,
            self.section(SeqMode::MasterPush, "core.section_us.master_push", traced, spans)?,
            self.vc_merge(32, "dsm.consistency.vc_merge32_ns", spans)?,
            self.vc_merge(256, "dsm.consistency.vc_merge256_ns", spans)?,
            self.unknown_to(32, "dsm.consistency.unknown_to_1k_us", spans)?,
            self.unknown_to(320, "dsm.consistency.unknown_to_10k_us", spans)?,
        ]);
        rungs.extend(self.diff(spans)?);
        rungs.push(self.read_hit(spans)?);
        let mut values: Values = rungs.iter().map(|r| (r.metric, r.cost())).collect();
        values.push(("net.unicast_self_ns", unicast_self_ns));
        Ok((rungs, values))
    }
}

const RUNGS: usize = 17;

impl Workload for Ladder {
    fn nodes(&self) -> usize {
        self.nodes
    }

    /// Every rung checks its own outputs against what its inputs imply;
    /// the reference is "all of them held". There is no application body.
    fn reference(&self) -> Result<(Output, f64), String> {
        Ok((vec![1; RUNGS], 0.0))
    }

    /// `run_s` is the rungs' sum and virtual time the sum of their virtual
    /// end times.
    fn rep(&self, traced: bool, spans: &mut Spans) -> Rep {
        let rss_after_setup_mb = host::rss_mb();
        let pass = self.pass(traced, spans);
        let (mut setup_s, mut run_s) = (0.0, 0.0);
        let done = pass.map(|(rungs, values)| {
            let mut raw = Raw::default();
            for r in &rungs {
                setup_s += r.setup_s;
                run_s += r.run_s;
                raw.absorb(&r.raw);
            }
            let output = rungs.iter().map(|r| r.ok as u64).collect();
            Done { raw, output, p99_ms: None, rungs: values }
        });
        Rep { setup_s, run_s, rss_after_setup_mb, done }
    }
}
