//! A synthetic genetic-linkage workload with the structure of parallel
//! Ilink (§6.2.1, following Dwarkadas et al., "Parallelization of general
//! linkage analysis problems"):
//!
//! * a shared *bank* of genarrays sized for the largest nuclear family,
//!   reused for every family;
//! * when the computation moves to a new family the **master reinitializes
//!   the whole pool sequentially** — the paper's worst contention source,
//!   since every thread must then read the family members' genarrays;
//! * per-person updates are parallelized **cyclically over the non-zero
//!   entries**, guarded by an `if(work > threshold)` clause; each thread
//!   writes its share of entries straight into the target genarray (the
//!   multiple-writer protocol merges the false sharing), and **the master
//!   sums the contributions** in the following sequential section — the
//!   read that, under replicated execution, broadcasts "the contributions
//!   made by each thread during the previous iteration ... to all
//!   threads" (§6.2.2) and thereby strips the next parallel update of its
//!   fetch storm.
//!
//! The generator replaces the proprietary CLP pedigree input with a
//! deterministic synthetic pedigree of the same shape (see DESIGN.md); the
//! numerics are a stand-in with the same data-flow: updating one member
//! reads every other family member's genarray. Non-zero entries are modeled as a
//! contiguous cluster per member (recombination locality), so sparse reads
//! touch the pages a real index array would.

use std::sync::Arc;

use repseq_core::{Stopped, Team};
use repseq_dsm::{page_of, ShArray, ShVar, PAGE_SIZE};
use repseq_sim::Dur;

/// Modeled cost per (non-zero entry × family member) in an update: ≈ the
/// paper's compute rate, 96.8 s of sequential-program parallel-part time
/// over ~3000 threshold-exceeding updates of ~600 non-zeros × ~6 members.
const ENTRY_NS: f64 = 9_000.0;
/// Modeled cost per element of the sequential pool reinitialization.
const INIT_NS: f64 = 60.0;
/// Modeled cost per element merged by the master.
const MERGE_NS: f64 = 120.0;

/// Ilink experiment parameters.
#[derive(Debug, Clone)]
pub struct IlinkConfig {
    /// Nuclear families per outer iteration.
    pub n_families: usize,
    /// Genotype-probability array length per person.
    pub genarray_len: usize,
    /// Outer iterations (likelihood evaluations; the paper's CLP input
    /// needs 180).
    pub iterations: usize,
    /// The `if`-clause threshold on the amount of update work (non-zero
    /// count × family size).
    pub threshold: usize,
    /// Pedigree seed.
    pub seed: u64,
}

impl IlinkConfig {
    /// Paper-shaped configuration (sized so full-scale sequential time
    /// lands near the paper's 99 s; see EXPERIMENTS.md).
    pub fn paper() -> IlinkConfig {
        IlinkConfig {
            n_families: 12,
            genarray_len: 2048,
            iterations: 180,
            threshold: 1_000,
            seed: 1994,
        }
    }

    /// Laptop-scale configuration preserving the shape.
    pub fn scaled(iterations: usize) -> IlinkConfig {
        IlinkConfig {
            iterations,
            n_families: 4,
            genarray_len: 1024,
            threshold: 500,
            ..IlinkConfig::paper()
        }
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> IlinkConfig {
        IlinkConfig { n_families: 3, genarray_len: 512, iterations: 2, threshold: 600, seed: 7 }
    }
}

/// One nuclear family of the synthetic pedigree.
#[derive(Debug, Clone)]
pub struct Family {
    /// Member count (2 parents + children).
    pub members: usize,
    /// Non-zero entry count per member's genarray.
    pub nnz: Vec<usize>,
    /// Start of each member's non-zero cluster.
    pub nz_start: Vec<usize>,
}

/// Deterministic synthetic pedigree: family sizes 4–7, non-zero counts
/// spanning both sides of the parallelization threshold.
pub fn make_pedigree(cfg: &IlinkConfig) -> Vec<Family> {
    let mut rng = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    (0..cfg.n_families)
        .map(|_| {
            let members = 4 + (next() % 4) as usize;
            let nnz: Vec<usize> = (0..members)
                .map(|_| {
                    // Mostly small updates (below the if-clause threshold,
                    // as in CLP) with a quarter of large, work-dominating
                    // ones.
                    if next() % 4 != 0 {
                        8 + (next() % 32) as usize
                    } else {
                        let hi = cfg.genarray_len / 2;
                        let lo = cfg.genarray_len / 8;
                        lo + (next() as usize) % (hi - lo)
                    }
                })
                .collect();
            let nz_start =
                nnz.iter().map(|&z| (next() as usize) % (cfg.genarray_len - z + 1)).collect();
            Family { members, nnz, nz_start }
        })
        .collect()
}

/// The pool reinitialization's values, the same on every node: member
/// `m`'s row on visit `(iter, fam)` starts at `iter * 31 + fam * 7 + m * 3`,
/// so every family visit rewrites everything.
fn pool_bases(cfg: &IlinkConfig, max_members: usize) -> Arc<[f64]> {
    let n = cfg.iterations * 31 + cfg.n_families * 7 + max_members * 3 + cfg.genarray_len;
    (0..n).map(|x| 0.5 + (x as f64 * 0.001).sin() * 0.25).collect()
}

/// Handles to the shared data.
#[derive(Clone, Copy)]
struct Handles {
    /// The bank: `max_members` rows of `genarray_len` probabilities.
    bank: ShArray<f64>,
    /// Accumulated likelihood.
    likelihood: ShVar<f64>,
}

/// A prepared Ilink run.
pub struct Ilink {
    cfg: IlinkConfig,
    pedigree: Vec<Family>,
    h: Handles,
}

/// Result: the accumulated likelihood (deterministic, independent of node
/// count — contributions merge in entry order) and the update counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlinkResult {
    pub likelihood: f64,
    pub parallel_updates: u64,
    pub sequential_updates: u64,
}

impl Ilink {
    /// Allocate the shared bank sized for the largest family.
    pub fn setup(rt: &mut repseq_core::Runtime, cfg: IlinkConfig) -> Ilink {
        let pedigree = make_pedigree(&cfg);
        let max_members = pedigree.iter().map(|f| f.members).max().unwrap_or(0);
        let h = Handles {
            bank: rt.alloc_array_page_aligned(max_members * cfg.genarray_len),
            likelihood: rt.alloc_var(),
        };
        Ilink { cfg, pedigree, h }
    }

    /// The synthetic pedigree in use.
    pub fn pedigree(&self) -> &[Family] {
        &self.pedigree
    }

    /// The value of non-zero `k` of `target` given the family rows: every
    /// member's non-zero cluster but `target`'s, in member order, end to
    /// end (what [`Ilink::read_clusters`] reads).
    #[inline]
    fn entry_value(fam: &Family, rows: &[f64], target: usize, k: usize) -> f64 {
        let (mut val, mut row) = (1.0f64, 0);
        for m in (0..fam.members).filter(|&m| m != target) {
            let z = fam.nnz[m];
            val *= rows[row + (k * 7 + m * 13) % z] + 0.5;
            row += z;
        }
        val
    }

    /// Read every member's non-zero cluster from the bank but `target`'s,
    /// end to end into one buffer. [`Ilink::entry_value`] never reads the
    /// target member's own row, and in the parallel update the workers are
    /// concurrently writing it — reading it there would be a genuine data
    /// race (flagged by `repseq-check`'s detector), so the update paths
    /// skip it.
    fn read_clusters(
        nd: &repseq_dsm::DsmNode,
        h: &Handles,
        fam: &Family,
        len: usize,
        target: usize,
    ) -> Result<Vec<f64>, Stopped> {
        let others = (0..fam.members).filter(|&m| m != target);
        let mut rows = vec![0.0; others.clone().map(|m| fam.nnz[m]).sum()];
        let mut row = 0;
        for m in others {
            let (start, nnz) = (m * len + fam.nz_start[m], fam.nnz[m]);
            h.bank.read_range(nd, start, &mut rows[row..row + nnz])?;
            row += nnz;
        }
        Ok(rows)
    }

    /// Execute on a team.
    pub fn run(&self, team: &Team) -> Result<IlinkResult, Stopped> {
        let cfg = &self.cfg;
        let h = self.h;
        let n_nodes = team.node().n_nodes();
        assert!(n_nodes <= 64, "contribution buffers sized for 64 nodes");
        let mut parallel_updates = 0u64;
        let mut sequential_updates = 0u64;
        let max_members = self.pedigree.iter().map(|f| f.members).max().unwrap_or(0);
        let bases = pool_bases(cfg, max_members);

        team.start_measurement();
        for iter in 0..cfg.iterations {
            for (fam_id, fam) in self.pedigree.iter().enumerate() {
                // ---- sequential: reinitialize the pool for this family
                // ("the whole pool of genarrays are overwritten by the
                // master thread", §6.2.1) ----
                let (members, len) = (fam.members, cfg.genarray_len);
                let bases = Arc::clone(&bases);
                team.sequential(move |nd| {
                    nd.race_label("ilink::init");
                    // One write fault per page; each replica copies the
                    // run's shared values into its own pages.
                    for m in 0..members {
                        let x = iter * 31 + fam_id * 7 + m * 3;
                        h.bank.write_range(nd, m * len, &bases[x..x + len])?;
                    }
                    nd.charge(Dur::from_secs_f64(members as f64 * len as f64 * INIT_NS * 1e-9));
                    Ok(())
                })?;

                // ---- per-person updates ----
                for target in 0..fam.members {
                    let nnz = fam.nnz[target];
                    let work = nnz * fam.members;
                    let famq = fam.clone();
                    if work > cfg.threshold {
                        parallel_updates += 1;
                        // Parallel: cyclic assignment of non-zero entries
                        // (§6.2.1); each worker reads the family members'
                        // genarrays and writes its share of the target
                        // genarray directly (the multiple-writer protocol
                        // merges the interleaved writes).
                        let famp = famq.clone();
                        team.parallel(move |nd| {
                            nd.race_label("ilink::update");
                            let me = nd.node();
                            let stride = nd.n_nodes();
                            let rows = Self::read_clusters(nd, &h, &famp, len, target)?;
                            let start = famp.nz_start[target];
                            let mut visited = 0u64;
                            // Guard-based rewrite of the cyclic update: walk
                            // the assigned entries one page at a time, taking
                            // the write fault once per page and setting only
                            // this node's strided positions (the pages
                            // faulted — and the bytes written — are exactly
                            // those of the element-wise protocol, so the
                            // multiple-writer merge is unchanged).
                            let mut k = me;
                            while k < nnz {
                                let idx = target * len + start + k;
                                let a = h.bank.addr(idx);
                                let in_page = page_of(a).1;
                                let avail = ((PAGE_SIZE - in_page) / 8).min(nnz - k);
                                let cnt = avail.div_ceil(stride);
                                let span = (cnt - 1) * stride + 1;
                                h.bank.with_slices_mut(nd, idx..idx + span, |run| {
                                    for j in 0..cnt {
                                        let val =
                                            Self::entry_value(&famp, &rows, target, k + j * stride);
                                        run.set(j * stride, val);
                                        visited += 1;
                                    }
                                    Ok(())
                                })?;
                                k += cnt * stride;
                            }
                            nd.charge(Dur::from_secs_f64(
                                visited as f64 * famp.members as f64 * ENTRY_NS * 1e-9,
                            ));
                            Ok(())
                        })?;
                        // Sequential: the master sums the threads'
                        // contributions ("the master thread sums up the
                        // contributions of each of the threads"). Under
                        // replicated execution this read is what multicasts
                        // the previous parallel section's writes to every
                        // node.
                        team.sequential(move |nd| {
                            nd.race_label("ilink::merge");
                            let start = famq.nz_start[target];
                            let mut vals = vec![0.0f64; nnz];
                            h.bank.read_range(nd, target * len + start, &mut vals)?;
                            // Likelihood in entry order: independent of the
                            // node count.
                            let sum: f64 = vals.iter().sum();
                            let lik = h.likelihood.get(nd)?;
                            h.likelihood.set(nd, lik + sum / (nnz as f64 * famq.members as f64))?;
                            nd.charge(Dur::from_secs_f64(nnz as f64 * MERGE_NS * 1e-9));
                            Ok(())
                        })?;
                    } else {
                        sequential_updates += 1;
                        // Below the threshold: the master updates alone.
                        team.sequential(move |nd| {
                            nd.race_label("ilink::seq_update");
                            let rows = Self::read_clusters(nd, &h, &famq, len, target)?;
                            let mut vals = vec![0.0f64; nnz];
                            for (k, v) in vals.iter_mut().enumerate() {
                                *v = Self::entry_value(&famq, &rows, target, k);
                            }
                            let start = famq.nz_start[target];
                            h.bank.write_range(nd, target * len + start, &vals)?;
                            let sum: f64 = vals.iter().sum();
                            let lik = h.likelihood.get(nd)?;
                            h.likelihood.set(nd, lik + sum / (nnz as f64 * famq.members as f64))?;
                            nd.charge(Dur::from_secs_f64(
                                nnz as f64 * famq.members as f64 * ENTRY_NS * 1e-9,
                            ));
                            Ok(())
                        })?;
                    }
                }
            }
        }
        team.end_measurement();
        let likelihood = h.likelihood.get(team.node())?;
        Ok(IlinkResult { likelihood, parallel_updates, sequential_updates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pedigree_is_deterministic_and_mixed() {
        let cfg = IlinkConfig::paper();
        let a = make_pedigree(&cfg);
        let b = make_pedigree(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.nnz, y.nnz);
            assert_eq!(x.nz_start, y.nz_start);
        }
        // The threshold must actually split the updates.
        let (mut small, mut big) = (0, 0);
        for f in &a {
            for &nnz in &f.nnz {
                if nnz * f.members > cfg.threshold {
                    big += 1;
                } else {
                    small += 1;
                }
            }
        }
        assert!(big > 0 && small > 0, "need both kinds of updates: {big} big, {small} small");
    }

    #[test]
    fn family_shapes_are_sane() {
        let cfg = IlinkConfig::paper();
        for f in make_pedigree(&cfg) {
            assert!((4..=7).contains(&f.members));
            for (&nnz, &start) in f.nnz.iter().zip(&f.nz_start) {
                assert!(nnz >= 8 && nnz <= cfg.genarray_len / 2);
                assert!(start + nnz <= cfg.genarray_len, "cluster must fit in the genarray");
            }
        }
    }

    #[test]
    fn entry_value_reads_every_other_member() {
        let fam = Family { members: 3, nnz: vec![4, 4, 4], nz_start: vec![0, 0, 0] };
        // Target 1: the rows of members 0 and 2, and their product
        // (1+0.5)*(3+0.5).
        let rows = [[1.0; 4], [3.0; 4]].concat();
        let v = Ilink::entry_value(&fam, &rows, 1, 0);
        assert!((v - 1.5 * 3.5).abs() < 1e-12);
    }
}
