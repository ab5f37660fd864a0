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
//! Both record bodies are page runs, so each page is resolved once and
//! each slot is a plain load or store. A write copies the record's
//! `record_slots` values, which the master generates once for every
//! replica (`ShArray::write_range`); a read copies them into a buffer
//! its node reuses (`ShArray::read_range`, in place on a page the node
//! never stored into) and folds them. The faults are the element-wise
//! loop's, and the race detector and the mapped-access counters see
//! every slot.

pub mod layout;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use repseq_core::{Runtime, Stopped, Team, Worker};
use repseq_dsm::{page_of, PageId, ShArray, PAGE_SIZE};
use repseq_sim::{splitmix64, Dur};

pub use layout::Layout;
pub use trace::Request;

/// Reads per 1000 requests (90 % reads).
const READ_PER_MILLE: u32 = 900;
/// Modeled service cost of one read.
const READ_NS: f64 = 1_500.0;
/// Modeled service cost of one write.
const WRITE_NS: f64 = 2_500.0;

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
    /// Zipfian skew exponent (0 = uniform; ~1 = classic hot-key skew).
    pub zipf_theta: f64,
    /// Open-loop arrival rate, requests per virtual second.
    pub arrival_rps: f64,
    /// Requests dispatched per serving batch (arrivals are uniform, so a
    /// count batch equals a fixed arrival-time window).
    pub batch: usize,
    /// Trace seed — the only randomness source (no host RNG).
    pub seed: u64,
}

impl KvConfig {
    /// Full-scale serving configuration.
    pub fn paper() -> KvConfig {
        KvConfig {
            n_keys: 16_384,
            n_shards: 16,
            record_slots: 256,
            n_requests: 4096,
            zipf_theta: 0.99,
            arrival_rps: 50_000.0,
            batch: 256,
            seed: 20010618,
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
        assert!(cfg.record_slots >= 1);
        assert_eq!(
            lay.keys_per_shard() * cfg.record_slots * 8 % PAGE_SIZE,
            0,
            "each shard must occupy a whole number of pages \
             ({} keys/shard × {} slots × 8 B vs {PAGE_SIZE} B pages)",
            lay.keys_per_shard(),
            cfg.record_slots
        );
        let table = rt.alloc_array_page_aligned(cfg.n_keys * cfg.record_slots);
        let (trace, trace_hash) = trace::generate(
            cfg.seed,
            cfg.n_requests,
            cfg.n_keys,
            cfg.zipf_theta,
            READ_PER_MILLE,
            cfg.arrival_rps,
        );
        KvStore { cfg, lay, table, trace: Arc::new(trace), trace_hash }
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
        let first = page_of(self.table.addr(r.start * rs)).0;
        let last = page_of(self.table.addr(r.end * rs - 1) + 7).0;
        (first..=last).collect()
    }

    /// Serve the trace on a team; returns the deterministic result.
    pub fn run(&self, team: &Team) -> Result<KvResult, Stopped> {
        let cfg = &self.cfg;
        let (lay, table, rs) = (self.lay, self.table, cfg.record_slots);
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
                // Every replica writes the same records: generate them
                // once here, and each node copies them into its pages.
                let keys: Vec<u32> = writes.iter().map(|&(_, key, _)| key).collect();
                let recs: Vec<u64> = writes
                    .iter()
                    .flat_map(|&(_, _, val)| (0..rs as u64).map(move |j| splitmix64(val ^ j)))
                    .collect();
                team.sequential_broadcasting(
                    move |nd| {
                        nd.race_label(shard_label(s));
                        for (&key, rec) in keys.iter().zip(recs.chunks(rs)) {
                            table.write_range(nd, lay.flat(key as usize) * rs, rec)?;
                        }
                        nd.charge(Dur::from_secs_f64(keys.len() as f64 * WRITE_NS * 1e-9));
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
                team.parallel(move |nd| {
                    nd.race_label("kv::serve_reads");
                    let (me, n) = (nd.node(), nd.n_nodes());
                    let mut rec = vec![0u64; rs];
                    for idx in (me..reads.len()).step_by(n) {
                        let (rid, key) = reads[idx];
                        table.read_range(nd, lay.flat(key as usize) * rs, &mut rec)?;
                        let v = (0..rs).fold(0u64, |v, j| v ^ rec[j].rotate_left(j as u32));
                        xor.fetch_xor(v ^ splitmix64(rid as u64), Ordering::Relaxed);
                        nd.charge(Dur::from_secs_f64(READ_NS * 1e-9));
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
