//! Plummer-model initial conditions, as used by SPLASH-2 Barnes-Hut.
//!
//! Deterministic for a given seed: replicated sequential execution demands
//! bit-identical inputs on every node, and the experiments demand
//! reproducible runs.

use repseq_sim::Rng;

/// One body of the N-body system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub mass: f64,
}

/// Generate `n` bodies from the Plummer distribution (virialized sphere;
/// Aarseth, Henon & Wielen 1974 rejection scheme), scaled to standard
/// units. Total mass is 1.
pub fn plummer_model(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = Rng::new(seed);
    let mut bodies = Vec::with_capacity(n);
    let m = if n > 0 { 1.0 / n as f64 } else { 0.0 };
    // Truncate the outermost orbits so the bounding cube stays sane.
    let rmax = 10.0;
    for _ in 0..n {
        // Radius from the inverse cumulative mass profile.
        let r = loop {
            let x = rng.uniform(1e-8..1.0);
            let r = (x.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
            if r < rmax {
                break r;
            }
        };
        let pos = sphere_point(&mut rng, r);
        // Velocity magnitude by von Neumann rejection on g(q) = q²(1-q²)^3.5.
        let q = loop {
            let q = rng.uniform(0.0..1.0);
            let g = rng.uniform(0.0..0.1);
            if g < q * q * (1.0 - q * q).powf(3.5) {
                break q;
            }
        };
        let vmag = q * (2.0f64).sqrt() * (1.0 + r * r).powf(-0.25);
        let vel = sphere_point(&mut rng, vmag);
        bodies.push(Body { pos, vel, mass: m });
    }
    bodies
}

/// A uniformly random point on the sphere of radius `r`.
fn sphere_point(rng: &mut Rng, r: f64) -> [f64; 3] {
    loop {
        let x = rng.uniform(-1.0..1.0);
        let y = rng.uniform(-1.0..1.0);
        let z = rng.uniform(-1.0..1.0);
        let d2 = x * x + y * y + z * z;
        if d2 > 1e-12 && d2 <= 1.0 {
            let s = r / d2.sqrt();
            return [x * s, y * s, z * s];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a = plummer_model(100, 7);
        let b = plummer_model(100, 7);
        assert_eq!(a, b);
        let c = plummer_model(100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn total_mass_is_one_and_positions_bounded() {
        let bodies = plummer_model(1000, 3);
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for b in &bodies {
            let r2: f64 = b.pos.iter().map(|x| x * x).sum();
            assert!(r2 < 10.0 * 10.0 * 1.01);
            assert!(b.pos.iter().all(|x| x.is_finite()));
            assert!(b.vel.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn mass_is_centrally_concentrated() {
        let bodies = plummer_model(4000, 11);
        let inside: usize =
            bodies.iter().filter(|b| b.pos.iter().map(|x| x * x).sum::<f64>() < 1.0).count();
        // The Plummer profile has ~35% of mass within the scale radius.
        let frac = inside as f64 / 4000.0;
        assert!((0.2..0.5).contains(&frac), "central fraction {frac}");
    }
}
