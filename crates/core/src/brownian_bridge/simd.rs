//! Intermediate-level Brownian bridge: vertical vectorization, one path
//! per SIMD lane (paper §IV-C2).
//!
//! "Minor modifications are needed to ensure that random numbers are
//! loaded in vector-width chunks": for a group of `W` paths the normals
//! are stored transposed, `randoms[step·W + lane]`, so every consumption
//! is one aligned vector load. [`transpose_randoms`] converts a
//! path-major buffer into this layout; [`transpose_out`] is the inverse
//! map, applied to a built group.

use super::BridgePlan;
use finbench_simd::{isa_fn, F64v};

/// Transpose a `[path][step]` random buffer into the `[step][lane]` group
/// layout the SIMD kernel consumes (group-by-group).
pub fn transpose_randoms<const W: usize>(randoms: &[f64], per_path: usize) -> Vec<f64> {
    assert_eq!(
        randoms.len() % (per_path * W),
        0,
        "buffer must hold whole groups"
    );
    let n_groups = randoms.len() / (per_path * W);
    let mut out = vec![0.0; randoms.len()];
    for g in 0..n_groups {
        let base = g * per_path * W;
        for lane in 0..W {
            for step in 0..per_path {
                out[base + step * W + lane] = randoms[base + lane * per_path + step];
            }
        }
    }
    out
}

isa_fn! {
    /// Build `W` paths at once, in place. `randoms` is in `[step][lane]`
    /// layout (length `plan.randoms_per_path() * W`); `buf` is the
    /// caller-owned `[point][lane]` scratch of `plan.points()` vectors, every
    /// one of which is overwritten. Level `d` writes the midpoints of its
    /// `2^d` spans at stride `2^(depth − d)`, so a point is stored once and
    /// never copied.
    pub fn build_group_in_place<const W: usize>(
        plan: &BridgePlan,
        randoms: &[f64],
        buf: &mut [F64v<W>],
    ) {
        let steps = plan.steps();
        assert_eq!(buf.len(), steps + 1, "scratch must hold one vector per point");
        assert!(
            randoms.len() >= plan.randoms_per_path() * W,
            "not enough randoms"
        );

        buf[0] = F64v::zero();
        buf[steps] = F64v::<W>::load(randoms, 0) * plan.last_sig;
        let mut zs = &randoms[W..steps * W];
        let (spans, end) = buf.split_at_mut(steps);
        for (d, ((w_l, w_r), sig)) in plan.w_l.iter().zip(&plan.w_r).zip(&plan.sig).enumerate() {
            let s = steps >> d;
            let (level, rest) = zs.split_at(W << d);
            zs = rest;
            // Span `c` is `spans[c·s..(c + 1)·s]`: its left end at 0, its
            // midpoint at s/2, its right end the next span's left end.
            // Right to left, so that end is carried, not reloaded.
            let mut right = end[0];
            for (((span, z), (wl, wr)), sg) in spans
                .chunks_exact_mut(s)
                .zip(level.chunks_exact(W))
                .zip(w_l.iter().zip(w_r))
                .zip(sig)
                .rev()
            {
                let left = span[0];
                span[s / 2] = left * *wl + right * *wr + F64v::<W>::load(z, 0) * *sg;
                right = left;
            }
        }
    }
}

isa_fn! {
    /// Write a built `[point][lane]` group out as row-major `[lane][point]`.
    pub fn transpose_out<const W: usize>(buf: &[F64v<W>], out: &mut [f64]) {
        let points = buf.len();
        assert_eq!(out.len(), W * points, "output must hold W paths");
        for (lane, row) in out.chunks_exact_mut(points).enumerate() {
            for (slot, v) in row.iter_mut().zip(buf) {
                *slot = v[lane];
            }
        }
    }
}

/// Build `n_paths` paths (`n_paths` must be a multiple of `W`; callers
/// with ragged counts pad or fall back to the reference kernel). `randoms`
/// holds whole groups in `[step][lane]` layout; `out` is row-major
/// `[path][point]`.
pub fn build_paths_simd<const W: usize>(
    plan: &BridgePlan,
    randoms: &[f64],
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
    let mut group = vec![F64v::<W>::zero(); points];
    for (zs, rows) in randoms
        .chunks_exact(per * W)
        .zip(out.chunks_exact_mut(W * points))
    {
        build_group_in_place::<W>(plan, zs, &mut group);
        transpose_out(&group, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brownian_bridge::reference::build_paths;
    use finbench_rng::{normal::fill_standard_normal_icdf, Mt19937_64};

    #[test]
    fn transpose_round_trips() {
        let per = 8;
        let buf: Vec<f64> = (0..per * 4 * 3).map(|i| i as f64).collect();
        let t = transpose_randoms::<4>(&buf, per);
        for g in 0..3 {
            for lane in 0..4 {
                for step in 0..per {
                    assert_eq!(
                        t[g * per * 4 + step * 4 + lane],
                        buf[g * per * 4 + lane * per + step]
                    );
                }
            }
        }
        // `transpose_out` is the `[step][lane] -> [path][step]` inverse.
        let mut back = vec![0.0; buf.len()];
        for (group, rows) in t.chunks(per * 4).zip(back.chunks_mut(per * 4)) {
            let vecs: Vec<F64v<4>> = (0..per).map(|step| F64v::load(group, step * 4)).collect();
            transpose_out(&vecs, rows);
        }
        assert_eq!(back, buf);
    }

    #[test]
    fn simd_matches_reference_exactly() {
        let plan = BridgePlan::new(6, 1.5);
        let per = plan.randoms_per_path();
        let n_paths = 16;
        let mut rng = Mt19937_64::new(99);
        let mut randoms = vec![0.0; n_paths * per];
        fill_standard_normal_icdf(&mut rng, &mut randoms);

        let mut ref_out = vec![0.0; n_paths * plan.points()];
        build_paths::<f64>(&plan, &randoms, &mut ref_out, n_paths);

        let transposed = transpose_randoms::<8>(&randoms, per);
        let mut simd_out = vec![0.0; n_paths * plan.points()];
        build_paths_simd::<8>(&plan, &transposed, &mut simd_out, n_paths);

        for i in 0..ref_out.len() {
            assert_eq!(
                ref_out[i].to_bits(),
                simd_out[i].to_bits(),
                "point {i}: {} vs {}",
                ref_out[i],
                simd_out[i]
            );
        }
    }

    /// The group build as it was before it iterated each level's slices:
    /// every point, weight and random by index.
    fn build_group_by_index<const W: usize>(
        plan: &BridgePlan,
        randoms: &[f64],
        buf: &mut [F64v<W>],
    ) {
        let steps = plan.steps();
        buf[0] = F64v::zero();
        buf[steps] = F64v::<W>::load(randoms, 0) * plan.last_sig;
        let mut i = W;
        for d in 0..plan.depth {
            let s = steps >> d;
            let (w_l, w_r, sig) = (&plan.w_l[d], &plan.w_r[d], &plan.sig[d]);
            for c in 0..(1usize << d) {
                let z = F64v::<W>::load(randoms, i);
                i += W;
                buf[c * s + s / 2] = buf[c * s] * w_l[c] + buf[(c + 1) * s] * w_r[c] + z * sig[c];
            }
        }
    }

    fn check_build<const W: usize>(depth: usize, groups: usize) {
        // A plan whose weights and deviations differ span by span, so a
        // coefficient taken from the wrong span shows.
        let mut plan = BridgePlan::new(depth, 1.7);
        for d in 0..depth {
            for c in 0..1 << d {
                plan.w_l[d][c] += 0.01 * c as f64;
                plan.w_r[d][c] -= 0.003 * c as f64;
                plan.sig[d][c] *= 1.0 + 0.02 * c as f64;
            }
        }
        let (per, points) = (plan.randoms_per_path(), plan.points());
        let n_paths = groups * W;
        let mut rng = Mt19937_64::new(depth as u64 * 1000 + groups as u64);
        let mut randoms = vec![0.0; n_paths * per];
        fill_standard_normal_icdf(&mut rng, &mut randoms);
        let mut want = vec![0.0; n_paths * points];
        let mut group = vec![F64v::<W>::zero(); points];
        for (zs, rows) in randoms
            .chunks_exact(per * W)
            .zip(want.chunks_exact_mut(W * points))
        {
            build_group_by_index::<W>(&plan, zs, &mut group);
            for (lane, row) in rows.chunks_exact_mut(points).enumerate() {
                for (slot, v) in row.iter_mut().zip(&group) {
                    *slot = v[lane];
                }
            }
        }
        let mut got = vec![0.0; n_paths * points];
        build_paths_simd::<W>(&plan, &randoms, &mut got, n_paths);
        for i in 0..want.len() {
            assert_eq!(
                want[i].to_bits(),
                got[i].to_bits(),
                "W={W} depth {depth}, {groups} groups, point {i}"
            );
        }
    }

    #[test]
    fn slice_build_has_the_bits_of_the_indexed_build() {
        for groups in crate::black_scholes::soa::tests::LENGTHS {
            check_build::<8>(6, groups);
        }
        for depth in 0..=8 {
            check_build::<8>(depth, 3);
            check_build::<4>(depth, 5);
        }
    }

    #[test]
    fn widths_agree() {
        let plan = BridgePlan::new(4, 1.0);
        let per = plan.randoms_per_path();
        let n_paths = 8;
        let mut rng = Mt19937_64::new(5);
        let mut randoms = vec![0.0; n_paths * per];
        fill_standard_normal_icdf(&mut rng, &mut randoms);

        let t4 = transpose_randoms::<4>(&randoms, per);
        let mut out4 = vec![0.0; n_paths * plan.points()];
        build_paths_simd::<4>(&plan, &t4, &mut out4, n_paths);

        let t8 = transpose_randoms::<8>(&randoms, per);
        let mut out8 = vec![0.0; n_paths * plan.points()];
        build_paths_simd::<8>(&plan, &t8, &mut out8, n_paths);

        for i in 0..out4.len() {
            assert_eq!(out4[i].to_bits(), out8[i].to_bits(), "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the SIMD width")]
    fn ragged_path_count_panics() {
        let plan = BridgePlan::new(3, 1.0);
        let randoms = vec![0.0; 8 * 8];
        let mut out = vec![0.0; 5 * plan.points()];
        build_paths_simd::<4>(&plan, &randoms, &mut out, 5);
    }
}
