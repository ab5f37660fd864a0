//! Deterministic message-loss injection.
//!
//! Drop decisions are keyed on `(seed, src, dst, per-pair sequence)` via
//! splitmix64, so the decision for the k-th frame on a link depends only on
//! the seed and that link's own traffic history — never on unrelated frames
//! elsewhere in the cluster, and never on frame contents. This keeps runs
//! reproducible (same seed ⇒ same drops) while making per-link loss
//! independent: turning unicast loss on or off, or adding traffic on another
//! link, cannot perturb the multicast drop sequence a regression test was
//! pinned to. Required for reproducible tests of the timeout-recovery path
//! (§5.4.2).

use std::collections::HashMap;

use repseq_sim::splitmix64;
use repseq_stats::MsgClass;

use crate::config::LossConfig;

/// May the injector drop a frame of `class`? One rule for both media. Diff
/// traffic and page broadcasts may be lost: the §5.4.2 recovery path and
/// the next demand fetch repair them. Synchronization, lock and
/// valid-notice frames may not: the DSM treats their delivery as
/// acknowledged, and makes no recovery claim for them.
pub(crate) fn may_drop(class: MsgClass) -> bool {
    class.is_diff_message() || class == MsgClass::Broadcast
}

pub(crate) struct LossState {
    cfg: LossConfig,
    /// Per-(src, dst, medium) frame sequence numbers. The hub (multicast)
    /// and the switch (unicast) keep separate streams so enabling unicast
    /// loss cannot shift the multicast decision sequence even on the same
    /// node pair.
    pair_seq: HashMap<(usize, usize, bool), u64>,
}

impl LossState {
    pub(crate) fn new(cfg: LossConfig) -> Self {
        LossState { cfg, pair_seq: HashMap::new() }
    }

    /// Does the injector decide for a frame of `class` on this medium?
    /// Those it [`may_drop`]: on the hub always, on the switch only with
    /// [`LossConfig::unicast`] set.
    pub(crate) fn covers(&self, class: MsgClass, multicast: bool) -> bool {
        may_drop(class) && (multicast || self.cfg.unicast)
    }

    /// Decide whether the frame from `src` to `dst` (on the hub if
    /// `multicast`, else the switch) is dropped. Returns the decision and
    /// the per-pair sequence number it was keyed on (for the loss log, so a
    /// failing schedule names the exact decision to replay).
    pub(crate) fn drop_frame(&mut self, src: usize, dst: usize, multicast: bool) -> (bool, u64) {
        let seq = self.pair_seq.entry((src, dst, multicast)).or_insert(0);
        let k = *seq;
        *seq += 1;
        let x = splitmix64(
            self.cfg
                .seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((src as u64) << 32)
                .wrapping_add((dst as u64) << 16)
                .wrapping_add(multicast as u64),
        );
        ((x % 1000) < self.cfg.drop_per_mille as u64, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_deterministic() {
        let mut a = LossState::new(LossConfig { drop_per_mille: 100, seed: 42, unicast: true });
        let mut b = LossState::new(LossConfig { drop_per_mille: 100, seed: 42, unicast: true });
        for i in 0..1000 {
            assert_eq!(
                a.drop_frame(i % 7, i % 5, i % 2 == 0),
                b.drop_frame(i % 7, i % 5, i % 2 == 0)
            );
        }
    }

    #[test]
    fn loss_rate_is_roughly_right() {
        let mut l = LossState::new(LossConfig { drop_per_mille: 100, seed: 7, unicast: true });
        let drops = (0..10_000).filter(|_| l.drop_frame(0, 1, true).0).count();
        assert!((800..1200).contains(&drops), "expected ~1000 drops, got {drops}");
    }

    #[test]
    fn zero_rate_never_drops() {
        let mut l = LossState::new(LossConfig { drop_per_mille: 0, seed: 7, unicast: true });
        assert!(!(0..1000).any(|_| l.drop_frame(1, 2, true).0));
    }

    /// The core order-independence property: the decision for the k-th
    /// frame on a pair is a pure function of (seed, src, dst, medium, k),
    /// so interleaving traffic on other links — or unicast traffic on the
    /// *same* pair — cannot perturb it.
    #[test]
    fn pair_sequences_are_independent() {
        let cfg = LossConfig { drop_per_mille: 300, seed: 9, unicast: true };
        // Run A: only multicast on the (0 -> 1) pair.
        let mut a = LossState::new(cfg);
        let seq_a: Vec<(bool, u64)> = (0..500).map(|_| a.drop_frame(0, 1, true)).collect();
        // Run B: the same stream interleaved with heavy unrelated traffic,
        // including unicast on the very same (0 -> 1) pair.
        let mut b = LossState::new(cfg);
        let mut seq_b = Vec::new();
        for i in 0..500usize {
            b.drop_frame(2, 3, true);
            b.drop_frame(0, 1, false);
            b.drop_frame(i % 4, 3, false);
            seq_b.push(b.drop_frame(0, 1, true));
            b.drop_frame(3, 0, true);
        }
        assert_eq!(seq_a, seq_b, "per-pair decisions must ignore other links");
    }

    /// Per-pair sequence numbers count each link's own frames.
    #[test]
    fn pair_seq_counts_per_link() {
        let mut l = LossState::new(LossConfig { drop_per_mille: 0, seed: 1, unicast: true });
        assert_eq!(l.drop_frame(0, 1, true).1, 0);
        assert_eq!(l.drop_frame(0, 2, true).1, 0);
        assert_eq!(l.drop_frame(0, 1, true).1, 1);
        assert_eq!(l.drop_frame(0, 1, false).1, 0);
        assert_eq!(l.drop_frame(1, 0, true).1, 0);
        assert_eq!(l.drop_frame(0, 1, true).1, 2);
    }
}
