//! Bit-exact digests of served and in-process results, and the quality
//! measure against ground truth.
//!
//! Every operation a connection performs leaves one digest: a submit the
//! digest of its acked outcomes, a `Query` the bits of the position, a
//! `Checkpoint` the bytes of the JSON. The in-process replay produces the
//! same sequence; any difference is a failed operation.

use fluxprint_engine::StepOutcome;
use fluxprint_fluxd::WireOutcome;
use fluxprint_geometry::Point2;

use crate::spec::Fnv;

/// Digest of one round outcome through `to_bits` of every field the
/// wire carries.
pub fn outcome_digest(time: f64, residual: f64, estimates: &[(f64, f64)], active: &[bool]) -> u64 {
    let mut h = Fnv::new();
    h.f64(time);
    h.f64(residual);
    for &(x, y) in estimates {
        h.f64(x);
        h.f64(y);
    }
    for &a in active {
        h.bytes(&[u8::from(a)]);
    }
    h.finish()
}

/// Digest of a served outcome.
pub fn wire_digest(o: &WireOutcome) -> u64 {
    outcome_digest(o.time, o.residual, &o.estimates, &o.active)
}

/// Digest of an in-process outcome (the fields the wire carries).
pub fn step_digest(o: &StepOutcome) -> u64 {
    let estimates: Vec<(f64, f64)> = o.estimates.iter().map(|p| (p.x, p.y)).collect();
    outcome_digest(o.time, o.residual, &estimates, &o.active)
}

/// Folds the digests of one submit's outcomes into the op's digest.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.u64(d);
    }
    h.finish()
}

/// Digest of a queried position.
pub fn position_digest(x: f64, y: f64) -> u64 {
    let mut h = Fnv::new();
    h.f64(x);
    h.f64(y);
    h.finish()
}

/// Digest of a checkpoint document.
pub fn checkpoint_digest(json: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(json.as_bytes());
    h.finish()
}

/// Mean distance between estimates and true positions under the best
/// assignment of estimates to users: the tracker's user labels are not
/// the generator's, so identity-free matching is the fair score. Exact
/// enumeration of assignments (the benchmark tracks at most three
/// users per session).
pub fn matched_error(estimates: &[(f64, f64)], truth: &[Point2]) -> f64 {
    let k = truth.len().min(estimates.len());
    if k == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..k).collect();
    let mut best = f64::INFINITY;
    permute(&mut order, 0, &mut |perm| {
        let total: f64 = perm
            .iter()
            .enumerate()
            .map(|(i, &j)| truth[i].distance(Point2::new(estimates[j].0, estimates[j].1)))
            .sum();
        best = best.min(total);
    });
    best / k as f64
}

fn permute(order: &mut [usize], at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == order.len() {
        visit(order);
        return;
    }
    for i in at..order.len() {
        order.swap(at, i);
        permute(order, at + 1, visit);
        order.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_error_ignores_labels() {
        let truth = [Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let swapped = [(10.0, 1.0), (0.0, 1.0)];
        assert!((matched_error(&swapped, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = outcome_digest(1.0, 0.5, &[(1.0, 2.0)], &[true]);
        let b = outcome_digest(
            1.0,
            0.5,
            &[(1.0, f64::from_bits(2.0f64.to_bits() + 1))],
            &[true],
        );
        let c = outcome_digest(1.0, 0.5, &[(1.0, 2.0)], &[false]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
