//! Torture workloads: phase lists written against [`Mem`] so the harness
//! can run them both on the DSM cluster and on the reference memory.

use std::sync::Arc;

use repseq_dsm::{Cluster, PageId, ShArray, PAGE_SIZE};
use repseq_sim::Stopped;

use crate::oracle::Mem;

/// A sequential body. Under `SeqMode::Replicated` it runs identically on
/// every node, so it must not branch on node identity — the reference
/// replays it exactly once.
pub type RepBody = Arc<dyn Fn(&mut dyn Mem) -> Result<(), Stopped> + Send + Sync>;

/// A parallel body, given `(mem, me, n)`. The harness appends a barrier
/// after it, so its checkpoint sees every node's writes. The reference
/// replays the bodies sequentially in node order, so cross-node effects
/// must be commutative (disjoint blocks, or lock-protected accumulation).
pub type ParBody = Arc<dyn Fn(&mut dyn Mem, usize, usize) -> Result<(), Stopped> + Send + Sync>;

/// One oracle-checkpointed phase of a workload.
pub enum Phase {
    /// A sequential section (`run_sequential` under the harness's
    /// `seq_mode`: on every node when replicated, else on the master
    /// only); checkpoint at the end of the body.
    Replicated(RepBody),
    /// A parallel section (`run_parallel`); the harness runs the body, a
    /// barrier, then the checkpoint.
    Parallel(ParBody),
}

/// A workload instance: its phases plus the shared pages the oracle audits.
/// Built against a concrete [`Cluster`] so the bodies capture real heap
/// addresses; allocation is deterministic, so rebuilding against a fresh
/// cluster yields identical addresses.
pub struct Workload {
    /// Display name for reports.
    pub name: &'static str,
    /// The phase list, run in order.
    pub phases: Vec<Phase>,
    /// Pages compared against the reference at every checkpoint.
    pub audit: Vec<PageId>,
}

/// A workload constructor the harness can re-invoke per schedule.
pub type Builder = fn(&mut Cluster, usize) -> Workload;

fn audit_of<T: repseq_dsm::Pod>(arr: ShArray<T>) -> Vec<PageId> {
    let (a, b) = arr.page_span();
    (a..=b).collect()
}

/// The dedicated RSE-heavy kernel: each timestep, every node rewrites its
/// page of `data` in parallel, then a replicated section reads *all* of
/// `data` (n-1 invalid pages per node → forwarded requests, reply chains,
/// null acks on every timestep) and rewrites the `tree` pages from the
/// running sum. This is the §5.4.2 machinery at its densest.
pub fn rse_kernel(cl: &mut Cluster, n: usize) -> Workload {
    let per_page = PAGE_SIZE / 8;
    let data: ShArray<u64> = cl.alloc_array_page_aligned(n * per_page);
    let tree: ShArray<u64> = cl.alloc_array_page_aligned(2 * per_page);
    let mut phases = Vec::new();
    for t in 0..2u64 {
        let chunk = data.len() / n;
        phases.push(Phase::Parallel(Arc::new(move |m: &mut dyn Mem, me: usize, _n: usize| {
            for k in me * chunk..(me + 1) * chunk {
                let prior = if t == 0 { 0 } else { m.ld(data.addr(k))? };
                m.st(data.addr(k), prior ^ (k as u64 * 31 + t * 7 + 1))?;
            }
            m.charge_us(5);
            Ok(())
        }) as ParBody));
        phases.push(Phase::Replicated(Arc::new(move |m: &mut dyn Mem| {
            let mut s = 0u64;
            for k in 0..data.len() {
                s = s.wrapping_add(m.ld(data.addr(k))?);
            }
            for j in 0..tree.len() {
                m.st(tree.addr(j), s.wrapping_mul(j as u64 + 1).wrapping_add(t))?;
            }
            Ok(())
        }) as RepBody));
    }
    let mut audit = audit_of(data);
    audit.extend(audit_of(tree));
    Workload { name: "rse_kernel", phases, audit }
}

/// The full-stack mix (the shape of `tests/full_stack.rs`'s kitchen sink):
/// replicated init, block-parallel update with a lock-protected ticket,
/// a neighbour-reading phase, a replicated checksum, and a cyclic update.
pub fn kitchen_sink(cl: &mut Cluster, n: usize) -> Workload {
    let per_page = PAGE_SIZE / 8;
    let grid: ShArray<u64> = cl.alloc_array_page_aligned(n * per_page);
    let ticket: ShArray<u64> = cl.alloc_array_page_aligned(1);
    let sums: ShArray<u64> = cl.alloc_array_page_aligned(n);
    let mut phases = Vec::new();
    // Replicated init.
    phases.push(Phase::Replicated(Arc::new(move |m: &mut dyn Mem| {
        for i in 0..grid.len() {
            m.st(grid.addr(i), i as u64 * 3 + 1)?;
        }
        m.st(ticket.addr(0), 0)
    }) as RepBody));
    // Block-parallel doubling plus a lock-protected ticket counter.
    let chunk = grid.len() / n;
    phases.push(Phase::Parallel(Arc::new(move |m: &mut dyn Mem, me: usize, _n: usize| {
        for i in me * chunk..(me + 1) * chunk {
            let v = m.ld(grid.addr(i))?;
            m.st(grid.addr(i), v * 2)?;
        }
        m.lock(9)?;
        let t = m.ld(ticket.addr(0))?;
        m.charge_us(3);
        m.st(ticket.addr(0), t + 1)?;
        m.unlock(9)
    }) as ParBody));
    // Each node folds its right neighbour's block into a per-node slot
    // (reads cross-block data written in the previous phase).
    phases.push(Phase::Parallel(Arc::new(move |m: &mut dyn Mem, me: usize, n: usize| {
        let other = (me + 1) % n;
        let mut s = 0u64;
        for i in other * chunk..(other + 1) * chunk {
            s = s.wrapping_add(m.ld(grid.addr(i))?);
        }
        m.st(sums.addr(me), s)
    }) as ParBody));
    // Replicated checksum over everything.
    phases.push(Phase::Replicated(Arc::new(move |m: &mut dyn Mem| {
        let mut s = m.ld(ticket.addr(0))?;
        for i in 0..n {
            s = s.wrapping_add(m.ld(sums.addr(i))?);
        }
        for i in 0..grid.len() {
            s = s.wrapping_add(m.ld(grid.addr(i))?);
        }
        m.st(sums.addr(0), s)
    }) as RepBody));
    // Cyclic update: node `me` owns every n-th element.
    phases.push(Phase::Parallel(Arc::new(move |m: &mut dyn Mem, me: usize, n: usize| {
        let mut i = me;
        while i < grid.len() {
            let v = m.ld(grid.addr(i))?;
            m.st(grid.addr(i), v + 1)?;
            i += n;
        }
        Ok(())
    }) as ParBody));
    let mut audit = audit_of(grid);
    audit.extend(audit_of(ticket));
    audit.extend(audit_of(sums));
    audit.sort_unstable();
    audit.dedup();
    Workload { name: "kitchen_sink", phases, audit }
}

/// The KV serving loop as a torture workload: a miniature of
/// `repseq_apps::kv` phrased over [`Mem`] so the oracle and the race
/// certifier cover the serving shape — per-shard replicated write
/// sections applying a zipfian batch's updates, alternating with a
/// parallel phase where every node serves the batch's reads cyclically
/// and folds what it saw into a per-node slot. Key→page placement, value
/// derivation, and the trace generator are the real ones from the apps
/// crate, so a divergence here indicts the serving path itself.
pub fn kv_serving(cl: &mut Cluster, _n: usize) -> Workload {
    use repseq_apps::kv::{trace, Layout};
    use repseq_sim::splitmix64;

    let per_page = PAGE_SIZE / 8;
    // One page per shard: keys_per_shard * record_slots == per_page.
    let record_slots = 8usize;
    let n_shards = 4usize;
    let n_keys = n_shards * per_page / record_slots;
    let lay = Layout::new(n_keys, n_shards);
    let seed = 0x5eed_2001u64;
    let (reqs, _) = trace::generate(seed, 64, n_keys, 0.99, 700, 1_000_000.0);
    let batch = 32usize;

    let table: ShArray<u64> = cl.alloc_array_page_aligned(n_keys * record_slots);
    let served: ShArray<u64> = cl.alloc_array_page_aligned(per_page);
    let mut phases = Vec::new();
    for (b, chunk) in reqs.chunks(batch).enumerate() {
        // The batch's writes, grouped by shard, applied in one replicated
        // section per touched shard (the app's per-shard write sections).
        for s in 0..n_shards {
            let writes: Vec<(usize, u64)> = chunk
                .iter()
                .enumerate()
                .filter(|(_, r)| r.write && lay.shard_of(r.key as usize) == s)
                .map(|(i, r)| (r.key as usize, (b * batch + i) as u64))
                .collect();
            if writes.is_empty() {
                continue;
            }
            let writes = Arc::new(writes);
            phases.push(Phase::Replicated(Arc::new(move |m: &mut dyn Mem| {
                for &(key, write_seq) in writes.iter() {
                    let val = splitmix64(seed ^ ((key as u64) << 24) ^ write_seq);
                    let base = lay.flat(key) * record_slots;
                    for j in 0..record_slots {
                        m.st(table.addr(base + j), splitmix64(val ^ j as u64))?;
                    }
                }
                Ok(())
            }) as RepBody));
        }
        // Cyclic read serving: node `me` takes every n-th read and XORs
        // the record it observed into its own slot (disjoint per node, so
        // the reference's sequential replay commutes).
        let reads: Vec<usize> = chunk.iter().filter(|r| !r.write).map(|r| r.key as usize).collect();
        let reads = Arc::new(reads);
        phases.push(Phase::Parallel(Arc::new(move |m: &mut dyn Mem, me: usize, n: usize| {
            let mut fold = m.ld(served.addr(me))?;
            for (i, &key) in reads.iter().enumerate() {
                if i % n != me {
                    continue;
                }
                let base = lay.flat(key) * record_slots;
                for j in 0..record_slots {
                    fold ^= m.ld(table.addr(base + j))?.rotate_left(j as u32);
                }
            }
            m.st(served.addr(me), fold)
        }) as ParBody));
    }
    let mut audit = audit_of(table);
    audit.extend(audit_of(served));
    audit.sort_unstable();
    audit.dedup();
    Workload { name: "kv_serving", phases, audit }
}
