//! Advanced-level Brownian bridge: RNG interleaving and cache-to-cache
//! fusion (paper §IV-C2).
//!
//! * [`build_paths_interleaved`] — "a chunk of numbers small enough to fit
//!   into lowest-level cache is generated and then consumed from LLC by
//!   the bridge construction": each `W`-path group fills a group-sized
//!   normal buffer from its own independent stream immediately before
//!   constructing the group, so the randoms never round-trip to DRAM.
//! * [`simulate_fused`] — "the sequence can also be divided into chunks
//!   and left in LLC for the next compute stage": the constructed paths
//!   are handed straight to a consumer functional and only one double per
//!   path (the functional's value) is written out.

use super::simd::{build_group_in_place, transpose_out};
use super::BridgePlan;
use finbench_rng::normal::fill_standard_normal_icdf;
use finbench_rng::StreamFamily;
use finbench_simd::F64v;

/// Build `n_paths` (multiple of `W`) paths, generating each group's
/// normals on the fly from `family` stream `group_index`. Deterministic in
/// `(family seed, W, n_paths)`.
pub fn build_paths_interleaved<const W: usize>(
    plan: &BridgePlan,
    family: &StreamFamily,
    out: &mut [f64],
    n_paths: usize,
) {
    assert_eq!(
        n_paths % W,
        0,
        "n_paths must be a multiple of the SIMD width"
    );
    let points = plan.points();
    let per = plan.randoms_per_path();
    assert_eq!(out.len(), n_paths * points, "output buffer size mismatch");

    let mut chunk = vec![0.0; per * W];
    let mut group = vec![F64v::<W>::zero(); points];
    for (g, rows) in out.chunks_exact_mut(W * points).enumerate() {
        let mut rng = family.stream(g as u64);
        fill_standard_normal_icdf(&mut rng, &mut chunk);
        build_group_in_place::<W>(plan, &chunk, &mut group);
        transpose_out(&group, rows);
    }
}

/// Fused construction + consumption. `functional` maps a finished group of
/// paths (`points` vectors, lane = path) to one value per lane; only these
/// per-path values are written to `out` (length `n_paths`), keeping the
/// full paths cache-resident.
pub fn simulate_fused<const W: usize>(
    plan: &BridgePlan,
    family: &StreamFamily,
    n_paths: usize,
    out: &mut [f64],
    functional: impl Fn(&[F64v<W>]) -> F64v<W>,
) {
    assert_eq!(
        n_paths % W,
        0,
        "n_paths must be a multiple of the SIMD width"
    );
    assert_eq!(out.len(), n_paths, "one output per path");
    let mut chunk = vec![0.0; plan.randoms_per_path() * W];
    let mut group = vec![F64v::<W>::zero(); plan.points()];
    for g in 0..n_paths / W {
        let mut rng = family.stream(g as u64);
        fill_standard_normal_icdf(&mut rng, &mut chunk);
        build_group_in_place::<W>(plan, &chunk, &mut group);
        functional(&group).store(out, g * W);
    }
}

/// The running-average functional (the payoff core of an arithmetic Asian
/// option): mean of the path over its `2^depth` non-origin points.
pub fn path_average<const W: usize>(path: &[F64v<W>]) -> F64v<W> {
    let mut acc = F64v::<W>::zero();
    for v in &path[1..] {
        acc += *v;
    }
    acc * (1.0 / (path.len() - 1) as f64)
}

/// The terminal-value functional.
pub fn path_terminal<const W: usize>(path: &[F64v<W>]) -> F64v<W> {
    *path.last().expect("path must be non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_is_deterministic() {
        let plan = BridgePlan::new(5, 1.0);
        let fam = StreamFamily::new(404);
        let mut a = vec![0.0; 32 * plan.points()];
        let mut b = vec![0.0; 32 * plan.points()];
        build_paths_interleaved::<8>(&plan, &fam, &mut a, 32);
        build_paths_interleaved::<8>(&plan, &fam, &mut b, 32);
        assert_eq!(a, b);
        let other = StreamFamily::new(405);
        build_paths_interleaved::<8>(&plan, &other, &mut b, 32);
        assert_ne!(a, b);
    }

    #[test]
    fn interleaved_matches_manual_two_phase() {
        // Generating the same chunks up front and running the plain SIMD
        // kernel must give identical paths: interleaving only changes
        // *when* randoms are produced, not *what* is computed.
        let plan = BridgePlan::new(4, 2.0);
        let fam = StreamFamily::new(11);
        let n_paths = 16;
        let per = plan.randoms_per_path();

        let mut fused = vec![0.0; n_paths * plan.points()];
        build_paths_interleaved::<8>(&plan, &fam, &mut fused, n_paths);

        let mut normals = vec![0.0; n_paths * per];
        for (g, chunk) in normals.chunks_mut(per * 8).enumerate() {
            fill_standard_normal_icdf(&mut fam.stream(g as u64), chunk);
        }
        let mut staged = vec![0.0; n_paths * plan.points()];
        crate::brownian_bridge::simd::build_paths_simd::<8>(&plan, &normals, &mut staged, n_paths);
        assert_eq!(fused, staged);
    }

    #[test]
    fn fused_functional_matches_materialized_paths() {
        let plan = BridgePlan::new(5, 1.0);
        let fam = StreamFamily::new(2026);
        let n_paths = 24;
        let points = plan.points();

        let mut avgs = vec![0.0; n_paths];
        simulate_fused::<8>(&plan, &fam, n_paths, &mut avgs, path_average);

        let mut paths = vec![0.0; n_paths * points];
        build_paths_interleaved::<8>(&plan, &fam, &mut paths, n_paths);
        for p in 0..n_paths {
            let row = &paths[p * points..(p + 1) * points];
            let want: f64 = row[1..].iter().sum::<f64>() / (points - 1) as f64;
            assert!((avgs[p] - want).abs() < 1e-12, "path {p}");
        }
    }

    #[test]
    fn terminal_functional_variance() {
        // W(T) ~ N(0, T): check across many fused paths.
        let plan = BridgePlan::new(6, 3.0);
        let fam = StreamFamily::new(8);
        let n_paths = 20_000;
        let mut terms = vec![0.0; n_paths];
        simulate_fused::<8>(&plan, &fam, n_paths, &mut terms, path_terminal);
        let m = finbench_rng::normal::moments(&terms);
        assert!(m.mean.abs() < 0.07, "mean {}", m.mean);
        assert!((m.variance - 3.0).abs() < 0.15, "var {}", m.variance);
    }
}
