//! A sharded key-value store served from the DSM, driven by an open-loop
//! zipfian load generator.
//!
//! The serving loop alternates the paper's two section kinds, batch by
//! batch:
//!
//! * every batch's **writes** are routed through per-shard *named
//!   sequential sections* — under replicated sequential execution each node
//!   applies the writes to its own copy of the shard's pages, under
//!   MasterOnly the master alone holds the fresh pages;
//! * the batch's **reads** then run in a *parallel section*, cyclically
//!   assigned to nodes. Under MasterOnly every node's hot-key reads
//!   converge on the master (the §3 contention storm, now on
//!   request/response traffic); under replication they hit local pages.
//!
//! Arrivals are open-loop (fixed rate, zipfian keys, seeded — see
//! [`trace`]): the generator never waits for the system, so when a batch
//! takes longer than its arrival window the backlog shows up as queueing
//! delay in the p99/p999 *simulated* latencies, computed from virtual
//! timestamps.
//!
//! Both record bodies — a write rewriting a record's `record_slots` slots,
//! a read folding them — are page runs (`ShArray::with_slices{,_mut}`):
//! the page is resolved once per run and each slot is a plain load or
//! store, where an element-wise loop probed the software TLB 256 times a
//! record on every replica. The fault sequence is unchanged: the loop's
//! first access to a page took the fault and the rest rode the
//! translation, and a run takes that same fault when it is acquired;
//! the race detector and the TLB counters still see every slot.

pub mod layout;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use repseq_core::{Runtime, Stopped, Team, Worker};
use repseq_dsm::{PageId, ShArray};
use repseq_sim::Dur;

pub use layout::Layout;
pub use trace::{splitmix64, Request};

/// KV-serving experiment parameters.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Total keys; must stripe evenly over shards, and each shard must
    /// occupy a whole number of pages.
    pub n_keys: usize,
    /// Shards (one named sequential section per shard per batch).
    pub n_shards: usize,
    /// Consecutive `u64` slots per key: a write rewrites the whole record,
    /// a read returns its fold. Record-sized values are what give the
    /// serving sections real diff volume — the §5.4.3 bandwidth asymmetry
    /// (one multicast vs n unicast copies of every fresh page).
    pub record_slots: usize,
    /// Requests in the open-loop trace.
    pub n_requests: usize,
    /// Reads per 1000 requests (900 = 90 % reads).
    pub read_per_mille: u32,
    /// Zipfian skew exponent (0 = uniform; ~1 = classic hot-key skew).
    pub zipf_theta: f64,
    /// Open-loop arrival rate, requests per virtual second.
    pub arrival_rps: f64,
    /// Requests dispatched per serving batch (arrivals are uniform, so a
    /// count batch equals a fixed arrival-time window).
    pub batch: usize,
    /// Trace seed — the only randomness source (no host RNG).
    pub seed: u64,
    /// Modeled service cost of one read.
    pub read_ns: f64,
    /// Modeled service cost of one write.
    pub write_ns: f64,
}

impl KvConfig {
    /// Full-scale serving configuration.
    pub fn paper() -> KvConfig {
        KvConfig {
            n_keys: 16_384,
            n_shards: 16,
            record_slots: 256,
            n_requests: 4096,
            read_per_mille: 900,
            zipf_theta: 0.99,
            arrival_rps: 50_000.0,
            batch: 256,
            seed: 20010618,
            read_ns: 1_500.0,
            write_ns: 2_500.0,
        }
    }

    /// Laptop-scale configuration preserving the serving shape.
    pub fn scaled(n_requests: usize) -> KvConfig {
        KvConfig { n_keys: 4096, n_shards: 4, n_requests, ..KvConfig::paper() }
    }

    /// Tiny configuration for tests (4 shards of exactly four 4 KB pages).
    pub fn tiny() -> KvConfig {
        KvConfig {
            n_keys: 512,
            n_shards: 4,
            record_slots: 16,
            n_requests: 256,
            batch: 64,
            ..KvConfig::paper()
        }
    }

    /// Weak-scale the serving batches to an `n`-node cluster: the batch
    /// grows so every node keeps a constant per-batch share of requests
    /// (each node's hot-key reads then hit the freshly written pages every
    /// batch — a bigger cluster serves proportionally more traffic), and
    /// the trace and arrival rate grow to keep the batch count and the
    /// offered load per node fixed.
    pub fn weak_scaled(mut self, n: usize) -> KvConfig {
        let batches = (self.n_requests / self.batch).max(1);
        let batch = self.batch.max(2 * n);
        let grow = batch as f64 / self.batch as f64;
        self.batch = batch;
        self.n_requests = batches * batch;
        self.arrival_rps *= grow;
        self
    }

    /// Same workload at a different skew point.
    pub fn with_skew(mut self, theta: f64) -> KvConfig {
        self.zipf_theta = theta;
        self
    }

    /// Same workload at a different arrival rate.
    pub fn with_rate(mut self, rps: f64) -> KvConfig {
        self.arrival_rps = rps;
        self
    }
}

/// Static label table so per-shard sections have stable names for the race
/// detector (labels must be `&'static str`).
static SHARD_LABELS: [&str; 16] = [
    "kv::write_shard00",
    "kv::write_shard01",
    "kv::write_shard02",
    "kv::write_shard03",
    "kv::write_shard04",
    "kv::write_shard05",
    "kv::write_shard06",
    "kv::write_shard07",
    "kv::write_shard08",
    "kv::write_shard09",
    "kv::write_shard10",
    "kv::write_shard11",
    "kv::write_shard12",
    "kv::write_shard13",
    "kv::write_shard14",
    "kv::write_shard15",
];

/// The section label of shard `s` (shards beyond the table share labels).
pub fn shard_label(s: usize) -> &'static str {
    SHARD_LABELS[s % SHARD_LABELS.len()]
}

/// A prepared KV-serving run.
pub struct KvStore {
    cfg: KvConfig,
    lay: Layout,
    table: ShArray<u64>,
    trace: Arc<Vec<Request>>,
    trace_hash: u64,
    page_size: usize,
}

/// Result of a serving run. `fingerprint`, `read_xor`, `reads`, `writes`
/// and `trace_hash` are strategy-invariant (the correctness gates);
/// latency percentiles and throughput are the strategy-dependent
/// measurements, over *virtual* time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvResult {
    /// Deterministic fold over the final table contents.
    pub fingerprint: u64,
    /// Fingerprint of the request trace (host-thread-invariance pin).
    pub trace_hash: u64,
    /// XOR-fold of every value served to a read (order-independent).
    pub read_xor: u64,
    /// Read requests served.
    pub reads: u64,
    /// Write requests applied.
    pub writes: u64,
    /// Median request latency, virtual nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Measured (virtual) duration of the serving run.
    pub total: Dur,
    /// Requests per virtual second.
    pub throughput_rps: f64,
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

impl KvStore {
    /// Allocate the table and generate the request trace (host-side, from
    /// the seed only).
    pub fn setup(rt: &mut Runtime, cfg: KvConfig) -> KvStore {
        let lay = Layout::new(cfg.n_keys, cfg.n_shards);
        let page_size = rt.page_size();
        assert!(cfg.record_slots >= 1);
        assert_eq!(
            lay.keys_per_shard() * cfg.record_slots * 8 % page_size,
            0,
            "each shard must occupy a whole number of pages \
             ({} keys/shard × {} slots × 8 B vs {page_size} B pages)",
            lay.keys_per_shard(),
            cfg.record_slots
        );
        let table = rt.alloc_array_page_aligned(cfg.n_keys * cfg.record_slots);
        let (trace, trace_hash) = trace::generate(
            cfg.seed,
            cfg.n_requests,
            cfg.n_keys,
            cfg.zipf_theta,
            cfg.read_per_mille,
            cfg.arrival_rps,
        );
        KvStore { cfg, lay, table, trace: Arc::new(trace), trace_hash, page_size }
    }

    /// The generated request trace.
    pub fn trace(&self) -> &[Request] {
        &self.trace
    }

    /// The trace fingerprint (pure function of the seed).
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// The pages shard `s` occupies (`record_slots` slots per key).
    fn shard_pages(&self, s: usize) -> Vec<PageId> {
        let r = self.lay.shard_range(s);
        let rs = self.cfg.record_slots;
        let first = (self.table.addr(r.start * rs) / self.page_size as u64) as PageId;
        let last = ((self.table.addr(r.end * rs - 1) + 7) / self.page_size as u64) as PageId;
        (first..=last).collect()
    }

    /// Serve the trace on a team; returns the deterministic result.
    pub fn run(&self, team: &Team) -> Result<KvResult, Stopped> {
        let cfg = self.cfg.clone();
        let lay = self.lay;
        let table = self.table;
        let n_req = self.trace.len();
        let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0u64; n_req]));
        let read_xor = Arc::new(AtomicU64::new(0));
        let gap_ns = 1e9 / cfg.arrival_rps;

        team.start_measurement();
        let t0 = team.now();
        let mut write_seq = 0u64;
        for (b, batch) in self.trace.chunks(cfg.batch).enumerate() {
            let base = b * cfg.batch;
            // Open-loop dispatch: the batch is served once its arrival
            // window has closed. If serving has fallen behind, dispatch
            // immediately — the backlog becomes queueing delay.
            let close = t0 + Dur::from_nanos(((base + batch.len()) as f64 * gap_ns).round() as u64);
            let now = team.now();
            if now < close {
                team.charge(close.since(now));
            }

            // Writes, grouped into one named sequential section per shard.
            let mut by_shard: Vec<Vec<(usize, u32, u64)>> = vec![Vec::new(); lay.n_shards];
            for (j, r) in batch.iter().enumerate() {
                if r.write {
                    let val = splitmix64(cfg.seed ^ ((r.key as u64) << 24) ^ write_seq);
                    write_seq += 1;
                    by_shard[lay.shard_of(r.key as usize)].push((base + j, r.key, val));
                }
            }
            for (s, writes) in by_shard.into_iter().enumerate() {
                if writes.is_empty() {
                    continue;
                }
                let body_writes = writes.clone();
                let write_ns = cfg.write_ns;
                let rs = cfg.record_slots;
                team.sequential_broadcasting(
                    move |nd| {
                        nd.race_label(shard_label(s));
                        for &(_, key, val) in &body_writes {
                            let base = lay.flat(key as usize) * rs;
                            table.with_slices_mut(nd, base..base + rs, |run| {
                                let j0 = run.first_index() - base;
                                for k in 0..run.len() {
                                    run.set(k, splitmix64(val ^ (j0 + k) as u64));
                                }
                                Ok(())
                            })?;
                        }
                        nd.charge(Dur::from_secs_f64(body_writes.len() as f64 * write_ns * 1e-9));
                        Ok(())
                    },
                    self.shard_pages(s),
                )?;
                // A write completes when its section's results are
                // consistent cluster-wide: the section end.
                let done = team.now();
                let mut lat = latencies.lock().unwrap();
                for &(rid, ..) in &writes {
                    lat[rid] = done.since(t0 + self.trace[rid].arrival).nanos();
                }
            }

            // Reads, served in a parallel section (cyclic assignment).
            let reads: Arc<Vec<(usize, u32)>> = Arc::new(
                batch
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.write)
                    .map(|(j, r)| (base + j, r.key))
                    .collect(),
            );
            if !reads.is_empty() {
                let lat = Arc::clone(&latencies);
                let xor = Arc::clone(&read_xor);
                let tr = Arc::clone(&self.trace);
                let read_ns = cfg.read_ns;
                let rs = cfg.record_slots;
                team.parallel(move |nd| {
                    nd.race_label("kv::serve_reads");
                    let (me, n) = (nd.node(), nd.n_nodes());
                    for idx in (me..reads.len()).step_by(n) {
                        let (rid, key) = reads[idx];
                        let base = lay.flat(key as usize) * rs;
                        let mut v = 0u64;
                        table.with_slices(nd, base..base + rs, |run| {
                            let j0 = run.first_index() - base;
                            for k in 0..run.len() {
                                v ^= run.get(k).rotate_left((j0 + k) as u32);
                            }
                            Ok(())
                        })?;
                        xor.fetch_xor(v ^ splitmix64(rid as u64), Ordering::Relaxed);
                        nd.charge(Dur::from_secs_f64(read_ns * 1e-9));
                        lat.lock().unwrap()[rid] =
                            nd.ctx().now().since(t0 + tr[rid].arrival).nanos();
                    }
                    Ok(())
                })?;
            }
        }
        team.end_measurement();
        let total = team.now().since(t0);

        // Deterministic final-state fingerprint (outside the measured run).
        let vals = team.node().read_all(table)?;
        let mut fingerprint = splitmix64(cfg.seed);
        for v in vals {
            fingerprint = splitmix64(fingerprint ^ v);
        }

        let mut sorted = latencies.lock().unwrap().clone();
        sorted.sort_unstable();
        let writes = self.trace.iter().filter(|r| r.write).count() as u64;
        Ok(KvResult {
            fingerprint,
            trace_hash: self.trace_hash,
            read_xor: read_xor.load(Ordering::Relaxed),
            reads: n_req as u64 - writes,
            writes,
            p50_ns: percentile(&sorted, 0.50),
            p99_ns: percentile(&sorted, 0.99),
            p999_ns: percentile(&sorted, 0.999),
            total,
            throughput_rps: n_req as f64 / total.as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn shard_labels_are_stable_and_static() {
        assert_eq!(shard_label(0), "kv::write_shard00");
        assert_eq!(shard_label(15), "kv::write_shard15");
        assert_eq!(shard_label(16), shard_label(0));
    }
}
