//! Run-time ISA dispatch: one generic body per sweep, instantiated per
//! instruction-set tier.
//!
//! The workspace builds for baseline x86-64 (SSE2) — no `target-cpu`, no
//! `RUSTFLAGS` — so that one binary runs everywhere. On that baseline an
//! `F64v<8>` is eight doubles pushed through 2-lane `mulpd`, `floor` is a
//! libm call (no SSE4.1 `roundsd`) and `mul_add` is a libm `fma` call.
//! Instead of forking the build, every sweep is written **once** over
//! `F64v<W>` as an [`IsaOp`] whose `run` is `#[inline(always)]`, and
//! [`dispatch`] calls it from inside a `#[target_feature]` wrapper picked
//! by the tier [`Isa::detected`] found on this host. Inlining `run` (and
//! the `#[inline(always)]` leaf math under it) into the wrapper makes LLVM
//! compile that one body again with AVX2+FMA or AVX-512 enabled: `[f64; 4]`
//! lane loops become `ymm` arithmetic, `floor` becomes `vroundpd`,
//! `mul_add` becomes `vfmadd`.
//!
//! The portable instantiation is the bit-exact oracle. rustc never
//! contracts `a * b + c` into an FMA on its own, hardware `vfmadd` and
//! libm `fma` are both correctly rounded, and `vroundpd` ≡ `floor`, so
//! every tier produces identical bits (`tests/isa_identity.rs` pins it).
//!
//! There is no knob: no Cargo feature, environment variable or config
//! field selects a tier. The one override is [`dispatch_as`], for tests
//! and `bench-report`'s portable-vs-active comparison.

use std::cell::Cell;
use std::sync::OnceLock;

/// An instruction-set tier a sweep can be instantiated for, ordered from
/// the baseline up: a higher tier implies every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The build's baseline target (SSE2 on x86-64): the oracle.
    Portable,
    /// 256-bit AVX2 with FMA3.
    Avx2Fma,
    /// AVX-512 F/DQ/VL/BW (on top of AVX2+FMA).
    Avx512,
}

/// Cached [`Isa::detected`] result.
static DETECTED: OnceLock<Isa> = OnceLock::new();

thread_local! {
    /// Tier forced by an enclosing [`dispatch_as`] on this thread.
    static FORCED: Cell<Option<Isa>> = const { Cell::new(None) };
}

impl Isa {
    /// Every tier, lowest first.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2Fma, Isa::Avx512];

    /// Short lower-case name, as printed on the `isa:` line and stored in
    /// `BENCH_<n>.json` host fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2Fma => "avx2+fma",
            Isa::Avx512 => "avx512",
        }
    }

    /// The highest tier this CPU supports, probed once and cached.
    pub fn detected() -> Isa {
        *DETECTED.get_or_init(probe)
    }

    /// True if this host can run sweeps instantiated for `self`.
    pub fn supported(self) -> bool {
        self <= Isa::detected()
    }

    /// `self` if a host whose highest tier is `detected` can run it, else
    /// the [`Isa::Portable`] fallback.
    fn or_portable(self, detected: Isa) -> Isa {
        if self <= detected {
            self
        } else {
            Isa::Portable
        }
    }

    /// The tier [`dispatch`] uses on this thread right now: the one forced
    /// by an enclosing [`dispatch_as`], else [`Isa::detected`].
    pub fn active() -> Isa {
        FORCED.with(Cell::get).unwrap_or_else(Isa::detected)
    }

    /// The `isa: <tier> (detected: …)` line `finbench list` / `native` /
    /// `bench-report` print, so a report says which instantiation it timed.
    pub fn describe() -> String {
        format!(
            "isa: {} (detected: {})",
            Isa::active().name(),
            detected_features()
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn probe() -> Isa {
    let avx2_fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    let avx512 = avx2_fma
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512bw");
    if avx512 {
        Isa::Avx512
    } else if avx2_fma {
        Isa::Avx2Fma
    } else {
        Isa::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Isa {
    Isa::Portable
}

/// The CPU features the probe looks at that this host reports, space
/// separated (`none` if it has none of them).
#[cfg(target_arch = "x86_64")]
fn detected_features() -> String {
    let probes = [
        ("sse4.1", is_x86_feature_detected!("sse4.1")),
        ("avx2", is_x86_feature_detected!("avx2")),
        ("fma", is_x86_feature_detected!("fma")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
        ("avx512dq", is_x86_feature_detected!("avx512dq")),
        ("avx512vl", is_x86_feature_detected!("avx512vl")),
        ("avx512bw", is_x86_feature_detected!("avx512bw")),
    ];
    let found: Vec<&str> = probes
        .iter()
        .filter_map(|&(name, has)| has.then_some(name))
        .collect();
    if found.is_empty() {
        "none".to_string()
    } else {
        found.join(" ")
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detected_features() -> String {
    "none".to_string()
}

/// A sweep written once and instantiated per ISA tier.
///
/// Implementations **must** mark `run` `#[inline(always)]`, and everything
/// hot that `run` calls must be `#[inline(always)]` too: only code inlined
/// into the `#[target_feature]` wrapper is compiled for the tier; a callee
/// left out of line keeps the baseline instruction set (still correct,
/// still the same bits — just not faster). [`isa_fn!`](crate::isa_fn)
/// writes the boilerplate for free functions.
pub trait IsaOp {
    /// What the sweep returns.
    type Output;
    /// The sweep body.
    fn run(self) -> Self::Output;
}

/// Closures are ops too — for tests and `bench-report`, which use
/// [`dispatch_as`] only for the tier it forces on the sweeps called
/// inside (a closure body carries no `#[inline(always)]`, so it is not
/// itself reliably instantiated for the tier).
impl<R, F: FnOnce() -> R> IsaOp for F {
    type Output = R;
    #[inline(always)]
    fn run(self) -> R {
        self()
    }
}

/// Run `op` instantiated for this thread's [`Isa::active`] tier.
#[inline]
pub fn dispatch<Op: IsaOp>(op: Op) -> Op::Output {
    run_on(Isa::active(), op)
}

/// Run `op` instantiated for `isa`, and force that tier on every
/// [`dispatch`] `op` reaches on this thread (`finbench-parallel` runs
/// its workers under the dispatching thread's tier, so pooled sweeps
/// follow it too).
/// A tier this host does not support falls back to [`Isa::Portable`].
///
/// This is the only tier override, and it exists for tests,
/// `bench-report` and the pool's workers; production code calls
/// [`dispatch`].
pub fn dispatch_as<Op: IsaOp>(isa: Isa, op: Op) -> Op::Output {
    struct Restore(Option<Isa>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|f| f.set(self.0));
        }
    }
    let tier = isa.or_portable(Isa::detected());
    let _restore = Restore(FORCED.with(|f| f.replace(Some(tier))));
    run_on(tier, op)
}

/// `tier` must be supported by this host: both callers pass either
/// [`Isa::detected`] or a tier checked with [`Isa::supported`], and
/// `FORCED` is only ever written with such a tier.
#[inline(always)]
fn run_on<Op: IsaOp>(tier: Isa, op: Op) -> Op::Output {
    match tier {
        // SAFETY: `tier` is at most `Isa::detected()`, and `probe` returns
        // `Avx512` only after `is_x86_feature_detected!` confirmed every
        // feature `run_avx512` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { run_avx512(op) },
        // SAFETY: as above — `probe` returns `Avx2Fma` or higher only after
        // `is_x86_feature_detected!` confirmed `avx2` and `fma`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { run_avx2_fma(op) },
        _ => op.run(),
    }
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2_fma<Op: IsaOp>(op: Op) -> Op::Output {
    op.run()
}

/// # Safety
/// The CPU must support AVX-512 F/DQ/VL/BW, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw,avx2,fma")]
unsafe fn run_avx512<Op: IsaOp>(op: Op) -> Op::Output {
    op.run()
}

/// Define a free function whose body is dispatched per ISA tier.
///
/// Wraps an ordinary `fn` item — arguments bound to plain identifiers,
/// generic over `const` `usize` parameters or over one bounded type
/// parameter, or not at all. The body becomes the `#[inline(always)]`
/// [`IsaOp::run`] of a hidden op and the function itself just calls
/// [`dispatch`], so the signature — and every caller — is unchanged.
///
/// ```
/// finbench_simd::isa_fn! {
///     /// `y[i] = a * x[i] + y[i]`.
///     pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
///         for (y, x) in y.iter_mut().zip(x) {
///             *y = a.mul_add(*x, *y);
///         }
///     }
/// }
/// let mut y = [1.0, 1.0];
/// axpy(2.0, &[1.0, 2.0], &mut y);
/// assert_eq!(y, [3.0, 5.0]);
/// ```
#[macro_export]
macro_rules! isa_fn {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident <$(const $c:ident : usize),+> ($($args:tt)*) $(-> $ret:ty)? $body:block
    ) => {
        $crate::isa_fn! { @op [$(#[$meta])*] [$vis] $name [] [$($c),+] ($($args)*) [$($ret)?] $body }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident <$t:ident : $bound:path> ($($args:tt)*) $(-> $ret:ty)? $body:block
    ) => {
        $crate::isa_fn! { @op [$(#[$meta])*] [$vis] $name [$t: $bound] [] ($($args)*) [$($ret)?] $body }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ($($args:tt)*) $(-> $ret:ty)? $body:block
    ) => {
        $crate::isa_fn! { @op [$(#[$meta])*] [$vis] $name [] [] ($($args)*) [$($ret)?] $body }
    };
    (
        @op [$(#[$meta:meta])*] [$vis:vis] $name:ident [$($t:ident : $bound:path)?] [$($c:ident),*]
        ($($arg:ident : $ty:ty),* $(,)?) [$($ret:ty)?] $body:block
    ) => {
        $(#[$meta])*
        // One out-of-line copy per instantiation: a sweep that calls
        // another dispatched sweep (a scenario row pricing its book) would
        // otherwise inline the callee's three-way dispatch, portable body
        // included, into each of its own three instantiations.
        #[inline(never)]
        $vis fn $name<$($t: $bound,)? $(const $c: usize),*>($($arg: $ty),*) $(-> $ret)? {
            struct Op<$($t,)? $(const $c: usize,)* Args>(
                ::core::marker::PhantomData<($($t,)?)>,
                Args,
            );
            impl<$($t: $bound,)? $(const $c: usize),*> $crate::isa::IsaOp
                for Op<$($t,)? $($c,)* ($($ty,)*)>
            {
                type Output = $crate::isa_fn!(@ret $($ret)?);
                #[inline(always)]
                fn run(self) -> Self::Output {
                    let ($($arg,)*) = self.1;
                    $body
                }
            }
            $crate::isa::dispatch(Op::<$($t,)? $($c,)* _>(
                ::core::marker::PhantomData,
                ($($arg,)*),
            ))
        }
    };
    (@ret) => { () };
    (@ret $ret:ty) => { $ret };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ActiveTier;
    impl IsaOp for ActiveTier {
        type Output = Isa;
        #[inline(always)]
        fn run(self) -> Isa {
            Isa::active()
        }
    }

    #[test]
    fn tiers_are_ordered_lowest_first() {
        assert!(Isa::Portable < Isa::Avx2Fma && Isa::Avx2Fma < Isa::Avx512);
        assert!(Isa::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn detection_is_cached_and_stable() {
        let first = Isa::detected();
        assert_eq!(DETECTED.get(), Some(&first));
        assert_eq!(Isa::detected(), first);
        assert_eq!(first, probe());
        assert!(Isa::Portable.supported());
        // A supported tier implies every lower one.
        for isa in Isa::ALL {
            assert_eq!(isa.supported(), isa <= first);
        }
    }

    #[test]
    fn dispatch_uses_the_detected_tier() {
        assert_eq!(dispatch(ActiveTier), Isa::detected());
    }

    #[test]
    fn dispatch_as_forces_nested_dispatch_and_restores() {
        let before = Isa::active();
        for isa in Isa::ALL.into_iter().filter(|i| i.supported()) {
            assert_eq!(dispatch_as(isa, ActiveTier), isa);
            assert_eq!(dispatch_as(isa, || dispatch(ActiveTier)), isa);
            // Nested overrides unwind in order.
            let nested = dispatch_as(isa, || {
                let inner = dispatch_as(Isa::Portable, ActiveTier);
                (inner, Isa::active())
            });
            assert_eq!(nested, (Isa::Portable, isa));
        }
        assert_eq!(Isa::active(), before);
    }

    #[test]
    fn dispatch_as_restores_the_tier_after_a_panic() {
        let before = Isa::active();
        let caught = std::panic::catch_unwind(|| dispatch_as(Isa::Portable, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(Isa::active(), before);
    }

    #[test]
    fn unsupported_tier_falls_back_to_portable() {
        for isa in Isa::ALL.into_iter().filter(|i| !i.supported()) {
            assert_eq!(dispatch_as(isa, ActiveTier), Isa::Portable);
        }
        // Whatever this host is, the rule on a lesser one: not the next
        // tier down, the oracle.
        assert_eq!(Isa::Avx512.or_portable(Isa::Avx2Fma), Isa::Portable);
        assert_eq!(Isa::Avx2Fma.or_portable(Isa::Portable), Isa::Portable);
        assert_eq!(Isa::Avx2Fma.or_portable(Isa::Avx512), Isa::Avx2Fma);
        assert_eq!(Isa::Portable.or_portable(Isa::Portable), Isa::Portable);
    }

    #[test]
    fn the_override_is_per_thread() {
        let seen = dispatch_as(Isa::Portable, || {
            std::thread::scope(|s| s.spawn(Isa::active).join().expect("probe thread"))
        });
        assert_eq!(seen, Isa::detected());
    }

    isa_fn! {
        fn scaled_sum<const W: usize>(xs: &[f64], k: f64) -> f64 {
            xs.chunks(W).map(|c| c.iter().sum::<f64>() * k).sum()
        }
    }

    isa_fn! {
        fn fill(out: &mut [f64], v: f64) {
            out.fill(v);
        }
    }

    #[test]
    fn isa_fn_keeps_signature_and_result_on_every_tier() {
        let xs: Vec<f64> = (0..37).map(|i| i as f64 * 0.25).collect();
        let want = dispatch_as(Isa::Portable, || scaled_sum::<4>(&xs, 3.0));
        for isa in Isa::ALL {
            let got = dispatch_as(isa, || scaled_sum::<4>(&xs, 3.0));
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let mut out = [0.0; 5];
        fill(&mut out, 2.5);
        assert_eq!(out, [2.5; 5]);
    }
}
