//! Barnes-Hut N-body simulation (SPLASH-2 style), structured exactly as the
//! paper describes (§6.1.1):
//!
//! * each timestep rebuilds the shared octree in a **sequential section**
//!   that reads every particle;
//! * the following **parallel section** partitions particles by walking the
//!   tree in Morton order with segment sizes weighted by the previous
//!   step's per-particle work, then evaluates forces (reading the tree and
//!   most particles) and writes per-particle accelerations;
//! * a second parallel phase advances each node's own particles.
//!
//! Under the base system every tree page is fetched from the master at the
//! start of the force phase — the §3 contention storm. Under replicated
//! sequential execution every node builds the tree locally and the storm
//! disappears.

pub mod plummer;
pub mod tree;

use repseq_core::sched::weighted_segments;
use repseq_core::{Stopped, Team, Worker};
use repseq_dsm::{ShArray, ShVar};
use repseq_sim::Dur;

use plummer::plummer_model;
use tree::{force_on, Cell, Octree};

/// Opening criterion.
const THETA: f64 = 1.0;
/// Integration step.
const DT: f64 = 0.025;
/// Softening (squared).
const EPS2: f64 = 0.05 * 0.05;
/// Modeled cost of one body-cell interaction (the dominant term; tuned so
/// full-scale sequential execution lands near the paper's 359 s, see
/// EXPERIMENTS.md).
const INTERACTION_NS: f64 = 2300.0;
/// Modeled cost per level descended during tree insertion.
const DESCENT_NS: f64 = 450.0;
/// Modeled cost per cell created / COM accumulated.
const CELL_NS: f64 = 700.0;
/// Modeled cost of one kinematic update.
const UPDATE_NS: f64 = 300.0;

/// Barnes-Hut experiment parameters.
#[derive(Debug, Clone)]
pub struct BhConfig {
    /// Number of bodies (the paper runs 131072).
    pub n_bodies: usize,
    /// Timesteps (the paper runs 2).
    pub timesteps: usize,
    /// Initial-condition seed.
    pub seed: u64,
}

impl BhConfig {
    /// Paper-scale configuration (131072 bodies, 2 timesteps).
    pub fn paper() -> BhConfig {
        BhConfig { n_bodies: 131_072, timesteps: 2, seed: 20010618 }
    }

    /// Laptop-scale configuration preserving the paper's shape.
    pub fn scaled(n_bodies: usize) -> BhConfig {
        BhConfig { n_bodies, ..BhConfig::paper() }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> BhConfig {
        BhConfig::scaled(512)
    }
}

/// Shared-heap handles of the Barnes-Hut data (all `Copy`, captured by the
/// section closures like the translator's shared-variable addresses).
#[derive(Clone, Copy)]
struct Handles {
    pos: ShArray<[f64; 3]>,
    vel: ShArray<[f64; 3]>,
    acc: ShArray<[f64; 3]>,
    mass: ShArray<f64>,
    work: ShArray<f64>,
    cells: ShArray<Cell>,
    order: ShArray<u32>,
    bounds: ShArray<u32>,
    n_cells: ShVar<u32>,
}

/// A prepared Barnes-Hut run.
pub struct BarnesHut {
    cfg: BhConfig,
    h: Handles,
}

/// Result of a run: a deterministic checksum over the final phase space
/// (identical across execution modes) plus the interaction count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BhResult {
    pub checksum: f64,
    pub interactions: u64,
}

impl BarnesHut {
    /// Allocate and preload the shared data on a runtime.
    pub fn setup(rt: &mut repseq_core::Runtime, cfg: BhConfig) -> BarnesHut {
        let n = cfg.n_bodies;
        let bodies = plummer_model(n, cfg.seed);
        let nodes = rt.config().nodes();
        let h = Handles {
            pos: rt.alloc_array_page_aligned(n),
            vel: rt.alloc_array_page_aligned(n),
            acc: rt.alloc_array_page_aligned(n),
            mass: rt.alloc_array_page_aligned(n),
            work: rt.alloc_array_page_aligned(n),
            cells: rt.alloc_array_page_aligned(2 * n + 64),
            order: rt.alloc_array_page_aligned(n),
            // Sized for the actual cluster, floored at the historical 64 so
            // layouts (and thus pins) at small scales are byte-identical.
            bounds: rt.alloc_array_page_aligned(nodes.max(64) + 1),
            n_cells: rt.alloc_var(),
        };
        let pos: Vec<[f64; 3]> = bodies.iter().map(|b| b.pos).collect();
        let vel: Vec<[f64; 3]> = bodies.iter().map(|b| b.vel).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        rt.preload(h.pos, &pos);
        rt.preload(h.vel, &vel);
        rt.preload(h.mass, &mass);
        // Uniform initial work estimate so the first partition is balanced.
        rt.preload(h.work, &vec![1.0f64; n]);
        BarnesHut { cfg, h }
    }

    /// Execute the simulation on a team; returns the deterministic result.
    pub fn run(&self, team: &Team) -> Result<BhResult, Stopped> {
        let h = self.h;
        let n = self.cfg.n_bodies;
        let n_nodes = team.node().n_nodes();
        assert!(n_nodes < h.bounds.len(), "bounds array sized for {} nodes", h.bounds.len() - 1);

        team.start_measurement();
        for _step in 0..self.cfg.timesteps {
            // ---- sequential section: tree build (§6.1.1) ----
            let (c_first, c_last) = h.cells.page_span();
            let (o_first, o_last) = h.order.page_span();
            let (b_first, b_last) = h.bounds.page_span();
            let mut bc_pages: Vec<u32> = (c_first..=c_last).collect();
            bc_pages.extend(o_first..=o_last);
            bc_pages.extend(b_first..=b_last);
            team.sequential_broadcasting(
                move |nd| {
                    nd.race_label("bh::tree_build");
                    // Read every particle (the replicated version multicasts
                    // these pages — "the particles are multicast during the
                    // replicated execution").
                    let pos = nd.read_all(h.pos)?;
                    let mass = nd.read_all(h.mass)?;
                    let work = nd.read_all(h.work)?;
                    let t = Octree::build(&pos, &mass);
                    nd.charge(Dur::from_secs_f64(
                        (t.stats.descents as f64 * DESCENT_NS
                            + t.stats.cells_created as f64 * CELL_NS)
                            * 1e-9,
                    ));
                    assert!(t.cells.len() <= h.cells.len(), "cell pool exhausted");
                    let order = t.morton_order();
                    // Cost-weighted Morton partition for the next phase.
                    let w: Vec<f64> = order.iter().map(|&b| work[b as usize]).collect();
                    let segs = weighted_segments(&w, n_nodes);
                    h.cells.write_range(nd, 0, &t.cells)?;
                    h.n_cells.set(nd, t.cells.len() as u32)?;
                    h.order.write_range(nd, 0, &order)?;
                    let segs32: Vec<u32> = segs.iter().map(|&s| s as u32).collect();
                    h.bounds.write_range(nd, 0, &segs32)?;
                    Ok(())
                },
                bc_pages,
            )?;

            // ---- parallel section: force evaluation ----
            team.parallel(move |nd| {
                nd.race_label("bh::forces");
                let me = nd.node();
                let n_cells = h.n_cells.get(nd)? as usize;
                let mut cells = vec![Cell::default(); n_cells];
                h.cells.read_range(nd, 0, &mut cells)?;
                let pos = nd.read_all(h.pos)?;
                let mass = nd.read_all(h.mass)?;
                let lo = h.bounds.get(nd, me)? as usize;
                let hi = h.bounds.get(nd, me + 1)? as usize;
                // Guard-based rewrite: iterate the Morton segment straight
                // from the page bytes (one read fault per order page, no
                // intermediate vector). The scattered per-body acc/work
                // writes stay element-wise: each is one page-table check.
                h.order.with_slices(nd, lo..hi, |run| {
                    for j in 0..run.len() {
                        let b = run.get(j) as usize;
                        let (acc, inter) = force_on(&cells, n, &pos, &mass, b, THETA, EPS2);
                        nd.charge(Dur::from_secs_f64(inter as f64 * INTERACTION_NS * 1e-9));
                        h.acc.set(nd, b, acc)?;
                        h.work.set(nd, b, inter as f64)?;
                    }
                    Ok(())
                })
            })?;

            // ---- parallel section: kinematic update of own particles ----
            team.parallel(move |nd| {
                nd.race_label("bh::update");
                let me = nd.node();
                let lo = h.bounds.get(nd, me)? as usize;
                let hi = h.bounds.get(nd, me + 1)? as usize;
                h.order.with_slices(nd, lo..hi, |run| {
                    for j in 0..run.len() {
                        let b = run.get(j) as usize;
                        let a = h.acc.get(nd, b)?;
                        let mut v = h.vel.get(nd, b)?;
                        let mut p = h.pos.get(nd, b)?;
                        for d in 0..3 {
                            v[d] += a[d] * DT;
                            p[d] += v[d] * DT;
                        }
                        h.vel.set(nd, b, v)?;
                        h.pos.set(nd, b, p)?;
                        nd.charge(Dur::from_secs_f64(UPDATE_NS * 1e-9));
                    }
                    Ok(())
                })
            })?;
        }
        team.end_measurement();

        // Deterministic checksum (outside the measured run).
        let nd = team.node();
        let pos = nd.read_all(h.pos)?;
        let vel = nd.read_all(h.vel)?;
        let work = nd.read_all(h.work)?;
        let mut checksum = 0.0f64;
        for i in 0..n {
            for d in 0..3 {
                checksum += pos[i][d] * (1.0 + d as f64) + vel[i][d] * 0.25;
            }
        }
        let interactions = work.iter().map(|&w| w as u64).sum();
        Ok(BhResult { checksum, interactions })
    }
}
