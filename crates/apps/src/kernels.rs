//! A minimal contention kernel: the §3 pathology distilled. The master
//! rewrites a block of pages in a sequential section; every node then reads
//! all of it in the parallel section. Used by `examples/contention_demo.rs`
//! and the apps tests.
//!
//! Both phases run on the page-guard API (`with_slices` /
//! `with_slices_mut`): the fault is taken once per page and elements
//! encode/decode straight from the page bytes, with no intermediate
//! element vector.

use repseq_core::{Stopped, Team};
use repseq_dsm::{ShArray, PAGE_SIZE};
use repseq_sim::Dur;

/// Modeled per-element compute cost in the parallel phase.
const READ_NS: f64 = 40.0;

/// Kernel parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Pages of shared data rewritten each iteration.
    pub pages: usize,
    /// Iterations.
    pub iters: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig { pages: 16, iters: 4 }
    }
}

/// A prepared kernel run.
pub struct ContentionKernel {
    cfg: KernelConfig,
    data: ShArray<u64>,
    sums: ShArray<u64>,
}

impl ContentionKernel {
    /// Allocate the shared block.
    pub fn setup(rt: &mut repseq_core::Runtime, cfg: KernelConfig) -> ContentionKernel {
        let elems = cfg.pages * PAGE_SIZE / 8;
        ContentionKernel {
            data: rt.alloc_array_page_aligned(elems),
            sums: rt.alloc_array_page_aligned(64),
            cfg,
        }
    }

    /// Run; returns a checksum identical across execution modes.
    pub fn run(&self, team: &Team) -> Result<u64, Stopped> {
        let data = self.data;
        let sums = self.sums;
        team.start_measurement();
        for it in 0..self.cfg.iters {
            let stamp = (it as u64 + 1) * 0x9E37;
            team.sequential(move |nd| {
                data.with_slices_mut(nd, 0..data.len(), |run| {
                    let first = run.first_index() as u64;
                    for j in 0..run.len() {
                        run.set(j, (first + j as u64).wrapping_mul(stamp));
                    }
                    Ok(())
                })
            })?;
            team.parallel(move |nd| {
                let mut s = 0u64;
                data.with_slices(nd, 0..data.len(), |run| {
                    for j in 0..run.len() {
                        s = s.wrapping_add(run.get(j));
                    }
                    Ok(())
                })?;
                nd.charge(Dur::from_secs_f64(data.len() as f64 * READ_NS * 1e-9));
                sums.set(nd, nd.node(), s)
            })?;
        }
        team.end_measurement();
        let mut check = 0u64;
        for q in 0..team.node().n_nodes() {
            check = check.wrapping_add(sums.get(team.node(), q)?);
        }
        Ok(check)
    }
}
