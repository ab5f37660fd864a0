//! The unit tests of `repseq_sim::Rng`, kept out of `src` (the crate root
//! includes this file by path).

use super::Rng;

#[test]
fn deterministic_per_seed() {
    let mut a = Rng::new(42);
    let mut b = Rng::new(42);
    let mut c = Rng::new(43);
    let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
    let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
    assert_eq!(xs, ys);
    assert_ne!(xs, zs);
}

#[test]
fn gen_range_respects_bounds() {
    let mut rng = Rng::new(7);
    for _ in 0..10_000 {
        let f = rng.uniform(-1.0..1.0);
        assert!((-1.0..1.0).contains(&f));
        let u = rng.index(3..10);
        assert!((3..10).contains(&u));
    }
}

#[test]
fn f64_is_roughly_uniform() {
    let mut rng = Rng::new(1);
    let n = 100_000;
    let mean: f64 = (0..n).map(|_| rng.uniform(0.0..1.0)).sum::<f64>() / n as f64;
    assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
}
