//! Property tests for the vector classes: every lane-wise operation must
//! agree with its scalar counterpart on arbitrary inputs, and the
//! mask/select algebra must behave like per-lane booleans.

use finbench_simd::{F64v, F64vec4, F64vec8, LaneMask, Lanes};
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    -1e12f64..1e12
}

fn lanes4() -> impl Strategy<Value = [f64; 4]> {
    [finite(), finite(), finite(), finite()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arithmetic_matches_scalar(a in lanes4(), b in lanes4()) {
        let va = F64vec4::new(a);
        let vb = F64vec4::new(b);
        for i in 0..4 {
            prop_assert_eq!((va + vb)[i].to_bits(), (a[i] + b[i]).to_bits());
            prop_assert_eq!((va - vb)[i].to_bits(), (a[i] - b[i]).to_bits());
            prop_assert_eq!((va * vb)[i].to_bits(), (a[i] * b[i]).to_bits());
            if b[i] != 0.0 {
                prop_assert_eq!((va / vb)[i].to_bits(), (a[i] / b[i]).to_bits());
            }
            prop_assert_eq!((-va)[i].to_bits(), (-a[i]).to_bits());
        }
    }

    #[test]
    fn fma_and_unary_match_scalar(a in lanes4(), b in lanes4(), c in lanes4()) {
        let (va, vb, vc) = (F64vec4::new(a), F64vec4::new(b), F64vec4::new(c));
        let fma = va.mul_add(vb, vc);
        let abs = va.abs();
        for i in 0..4 {
            prop_assert_eq!(fma[i].to_bits(), a[i].mul_add(b[i], c[i]).to_bits());
            prop_assert_eq!(abs[i].to_bits(), a[i].abs().to_bits());
            prop_assert_eq!(va.max(vb)[i].to_bits(), a[i].max(b[i]).to_bits());
            prop_assert_eq!(va.min(vb)[i].to_bits(), a[i].min(b[i]).to_bits());
        }
    }

    #[test]
    fn select_is_lanewise_if(a in lanes4(), b in lanes4()) {
        let (va, vb) = (F64vec4::new(a), F64vec4::new(b));
        let m = va.lt(vb);
        let sel = m.select(va, vb);
        for i in 0..4 {
            let want = if a[i] < b[i] { a[i] } else { b[i] };
            prop_assert_eq!(sel[i].to_bits(), want.to_bits());
        }
        // select(m, x, x) == x and de-morgan on masks.
        prop_assert_eq!(m.select(va, va).to_array(), va.to_array());
        let not_m = !m;
        prop_assert!(!m.and(not_m).any());
        prop_assert!(m.or(not_m).all());
    }

    #[test]
    fn horizontal_sums_match_scalar_order(a in lanes4()) {
        let v = F64vec4::new(a);
        let want = a[0] + a[1] + a[2] + a[3];
        prop_assert_eq!(v.hsum().to_bits(), want.to_bits());
        prop_assert_eq!(v.hmax(), a.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        prop_assert_eq!(v.hmin(), a.iter().cloned().fold(f64::INFINITY, f64::min));
    }

    #[test]
    fn load_store_round_trip(data in proptest::collection::vec(finite(), 8..64), off in 0usize..8) {
        let off = off.min(data.len().saturating_sub(8));
        if data.len() >= off + 8 {
            let v = F64v::<8>::load(&data, off);
            let mut out = vec![0.0; data.len()];
            v.store(&mut out, off);
            for i in 0..8 {
                prop_assert_eq!(out[off + i].to_bits(), data[off + i].to_bits());
            }
        }
    }

    #[test]
    fn gather_scatter_inverse(idx in proptest::collection::vec(0usize..64, 8)) {
        let src: Vec<f64> = (0..64).map(|i| i as f64 * 1.5).collect();
        let idx: [usize; 8] = idx.try_into().unwrap();
        let v = F64v::<8>::gather(&src, idx);
        for i in 0..8 {
            prop_assert_eq!(v[i], src[idx[i]]);
        }
        // Scatter back to the same (possibly duplicated) indices: each
        // target must hold the value of the *last* lane writing it.
        let mut dst = vec![f64::NAN; 64];
        v.scatter(&mut dst, idx);
        for i in 0..8 {
            if !idx[i + 1..].contains(&idx[i]) {
                prop_assert_eq!(dst[idx[i]], v[i]);
            }
        }
    }

    #[test]
    fn batch_math_matches_scalar_on_random_slices(
        data in proptest::collection::vec(-40.0f64..40.0, 1..128),
    ) {
        let mut out = vec![0.0; data.len()];
        finbench_simd::batch::vd_exp(&data, &mut out);
        for (x, y) in data.iter().zip(&out) {
            prop_assert_eq!(y.to_bits(), finbench_math::exp(*x).to_bits());
        }
        finbench_simd::batch::vd_norm_cdf(&data, &mut out);
        for (x, y) in data.iter().zip(&out) {
            prop_assert_eq!(y.to_bits(), finbench_math::norm_cdf(*x).to_bits());
        }
    }

    #[test]
    fn wide_vector_agrees_with_two_narrow(a in lanes4(), b in lanes4()) {
        // An 8-lane op is exactly two independent 4-lane ops.
        let mut wide = [0.0; 8];
        wide[..4].copy_from_slice(&a);
        wide[4..].copy_from_slice(&b);
        let v8 = F64vec8::new(wide) * 3.5 + 1.25;
        let lo = F64vec4::new(a) * 3.5 + 1.25;
        let hi = F64vec4::new(b) * 3.5 + 1.25;
        for i in 0..4 {
            prop_assert_eq!(v8[i].to_bits(), lo[i].to_bits());
            prop_assert_eq!(v8[i + 4].to_bits(), hi[i].to_bits());
        }
    }
}
