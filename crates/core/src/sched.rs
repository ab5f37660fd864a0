//! Work-sharing schedules for parallel loops.
//!
//! The paper's prototype "supports static block or cyclic partition of
//! loops" (§2.1); both are provided here, plus a weighted block partition
//! (Barnes-Hut splits particles by recorded per-particle work, §6.1.1).

use std::ops::Range;

/// The contiguous block of `total` iterations assigned to `me` of `n`
/// workers. Remainder iterations go to the lowest-numbered workers, so
/// block sizes differ by at most one.
pub fn block_range(me: usize, n: usize, total: usize) -> Range<usize> {
    assert!(me < n && n > 0);
    let base = total / n;
    let extra = total % n;
    let start = me * base + me.min(extra);
    let len = base + usize::from(me < extra);
    start..start + len
}

/// The iterations assigned to `me` of `n` workers under a cyclic schedule
/// (iteration `i` goes to worker `i % n`) — how Ilink spreads the non-zero
/// genarray entries (§6.2.1).
pub fn cyclic_iter(me: usize, n: usize, total: usize) -> impl Iterator<Item = usize> {
    assert!(me < n && n > 0);
    (me..total).step_by(n)
}

/// Split `0..weights.len()` into `n` contiguous segments of approximately
/// equal total weight; returns the boundaries (the Barnes-Hut
/// Morton-ordered, cost-weighted partition: "the size of a segment is
/// weighted according to the workload recorded from the previous
/// iteration", §6.1.1). Segment `i` is `bounds[i]..bounds[i+1]`.
pub fn weighted_segments(weights: &[f64], n: usize) -> Vec<usize> {
    assert!(n > 0);
    let total: f64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(0);
    let mut acc = 0.0;
    let mut next = 1;
    for (i, w) in weights.iter().enumerate() {
        // Close segments whose weight quota is filled; each remaining
        // segment targets an equal share of the remaining weight.
        while next < n && acc >= total * next as f64 / n as f64 {
            bounds.push(i);
            next += 1;
        }
        acc += w;
        let _ = i;
    }
    while bounds.len() < n {
        bounds.push(weights.len());
    }
    bounds.push(weights.len());
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_is_exact_and_balanced() {
        for total in [0usize, 1, 7, 32, 100, 101] {
            for n in [1usize, 2, 3, 8] {
                let mut seen = vec![false; total];
                let mut sizes = Vec::new();
                for me in 0..n {
                    let r = block_range(me, n, total);
                    sizes.push(r.len());
                    for i in r {
                        assert!(!seen[i], "iteration {i} assigned twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total {total}, n {n}: not covered");
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced blocks: {sizes:?}");
            }
        }
    }

    #[test]
    fn blocks_are_contiguous_and_in_order() {
        let r0 = block_range(0, 3, 10);
        let r1 = block_range(1, 3, 10);
        let r2 = block_range(2, 3, 10);
        assert_eq!(r0, 0..4);
        assert_eq!(r1, 4..7);
        assert_eq!(r2, 7..10);
    }

    #[test]
    fn cyclic_partition_is_exact() {
        for total in [0usize, 1, 9, 32] {
            for n in [1usize, 2, 4] {
                let mut seen = vec![false; total];
                for me in 0..n {
                    for i in cyclic_iter(me, n, total) {
                        assert!(!seen[i]);
                        seen[i] = true;
                        assert_eq!(i % n, me);
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn weighted_segments_cover_and_balance() {
        let weights: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
        let n = 4;
        let bounds = weighted_segments(&weights, n);
        assert_eq!(bounds.len(), n + 1);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[n], 100);
        let total: f64 = weights.iter().sum();
        for i in 0..n {
            assert!(bounds[i] <= bounds[i + 1]);
            let seg: f64 = weights[bounds[i]..bounds[i + 1]].iter().sum();
            assert!(seg <= total / n as f64 * 2.0 + 8.0, "segment {i} too heavy: {seg} of {total}");
        }
    }

    #[test]
    fn weighted_segments_handle_degenerate_inputs() {
        assert_eq!(weighted_segments(&[], 3), vec![0, 0, 0, 0]);
        let one = weighted_segments(&[5.0], 2);
        assert_eq!(one[0], 0);
        assert_eq!(one[2], 1);
        // All-zero weights still produce a valid cover.
        let z = weighted_segments(&[0.0; 10], 2);
        assert_eq!(z[0], 0);
        assert_eq!(z[2], 10);
    }
}
