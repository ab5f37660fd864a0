//! Deterministic open-loop request-trace generation.
//!
//! Everything here is a pure function of the harness seed: the sampler is
//! counter-based splitmix64 (no host RNG, no iteration-order state), so the
//! trace is bit-identical across platforms and reruns — the property
//! `check/tests/determinism.rs` pins.

use repseq_sim::{splitmix64, Dur};

/// One request of the open-loop trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The key, in popularity rank order (0 is the hottest).
    pub key: u32,
    /// Write (`true`) or read.
    pub write: bool,
    /// Arrival offset from the start of the measured run.
    pub arrival: Dur,
}

/// A uniform draw in `[0, 1)` from stream `stream` of `seed` at counter
/// `i` — counter-based, so sample `i` never depends on samples before it.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let x = splitmix64(seed ^ splitmix64(stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ i));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipfian key sampler over `n` ranks with exponent `theta`
/// (`p(rank) ∝ 1/(rank+1)^theta`; `theta = 0` is uniform). Sampling is an
/// inverse-CDF binary search over a precomputed table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `n` keys.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n >= 1 && theta >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Map a uniform `u ∈ [0, 1)` to a key rank.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Generate the open-loop trace: `n_requests` zipfian keys with a
/// `read_per_mille` read mix, arriving at a fixed rate (arrival `i` at
/// `i / arrival_rps` seconds). Returns the trace and its fingerprint.
pub fn generate(
    seed: u64,
    n_requests: usize,
    n_keys: usize,
    zipf_theta: f64,
    read_per_mille: u32,
    arrival_rps: f64,
) -> (Vec<Request>, u64) {
    assert!(arrival_rps > 0.0);
    assert!(read_per_mille <= 1000);
    let zipf = Zipf::new(n_keys, zipf_theta);
    let gap_ns = 1e9 / arrival_rps;
    let mut trace = Vec::with_capacity(n_requests);
    for i in 0..n_requests as u64 {
        let key = zipf.sample(unit(seed, 1, i)) as u32;
        let write = unit(seed, 2, i) >= read_per_mille as f64 / 1000.0;
        let arrival = Dur::from_nanos((i as f64 * gap_ns).round() as u64);
        trace.push(Request { key, write, arrival });
    }
    let h = hash(&trace, seed);
    (trace, h)
}

/// Fingerprint a trace (used by the host-thread-invariance pin).
pub fn hash(trace: &[Request], seed: u64) -> u64 {
    let mut h = splitmix64(seed);
    for r in trace {
        h = splitmix64(
            h ^ r.key as u64 ^ ((r.write as u64) << 32) ^ r.arrival.nanos().rotate_left(17),
        );
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_the_seed() {
        let (a, ha) = generate(42, 500, 1024, 0.99, 900, 1e6);
        let (b, hb) = generate(42, 500, 1024, 0.99, 900, 1e6);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
        let (_, hc) = generate(43, 500, 1024, 0.99, 900, 1e6);
        assert_ne!(ha, hc, "different seeds must give different traces");
    }

    #[test]
    fn zipf_skew_concentrates_on_the_head() {
        let (skewed, _) = generate(7, 4000, 1024, 1.1, 1000, 1e6);
        let (uniform, _) = generate(7, 4000, 1024, 0.0, 1000, 1e6);
        let head_hits = |t: &[Request]| t.iter().filter(|r| r.key < 16).count();
        assert!(
            head_hits(&skewed) > 5 * head_hits(&uniform),
            "skewed {} vs uniform {}",
            head_hits(&skewed),
            head_hits(&uniform)
        );
        // Every key is in range either way.
        assert!(skewed.iter().all(|r| (r.key as usize) < 1024));
    }

    #[test]
    fn read_mix_is_roughly_honored() {
        let (t, _) = generate(11, 10_000, 256, 0.5, 900, 1e6);
        let writes = t.iter().filter(|r| r.write).count();
        assert!((700..1300).contains(&writes), "expected ~1000 writes, got {writes}");
    }

    #[test]
    fn arrivals_are_open_loop_at_the_configured_rate() {
        let (t, _) = generate(3, 10, 64, 0.9, 900, 1e5);
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.arrival, Dur::from_nanos(i as u64 * 10_000));
        }
    }
}
