//! Advanced-level PSOR: the paper's wavefront vectorization (Fig. 7).
//!
//! ## The scheme
//!
//! Projected SOR carries two dependences: `u^{k+1}_j` needs `u^{k+1}_{j−1}`
//! (same iteration, previous point) and `u^k_{j+1}` (previous iteration,
//! next point). In the `(iteration, position)` plane the computation is a
//! 2-D dataflow whose legal hyperplanes are `t = 2k + j`: lane `w` of the
//! wavefront computes **iteration `k+w+1` at position `s − 2w`** at sweep
//! step `s`. All cross-lane inputs then come from the previous two steps:
//!
//! * `left  = u^{k+w+1}_{j−1}` — lane `w`'s own output at step `s−1`;
//! * `right = u^{k+w}_{j+1}`  — lane `w−1`'s output at step `s−1`;
//! * `old   = u^{k+w}_{j}`    — lane `w−1`'s output at step `s−2`;
//!
//! with lane 0 reading `u` itself and boundary lanes reading the
//! (iteration-invariant) boundary values. One pass of `s` over
//! `[lo, hi + 2(L−1)]` advances the whole interior by `L` PSOR iterations
//! — the paper's "unroll the convergence loop by a factor of the vector
//! width ... we now check for convergence every 4 or 8 iterations".
//!
//! Every `(k, j)` iterate is produced by the *same floating-point
//! expression* as the scalar Lis. 7, so a fixed iteration count yields
//! **bit-identical** state (asserted in tests, and under every ISA tier in
//! `tests/isa_identity.rs`).
//!
//! ## The packed pass
//!
//! `psor_pass` is one `isa_fn!` body over [`F64v`]: `zmm` arithmetic on
//! an AVX-512 host, `ymm` under AVX2+FMA (`packed_check.sh` gates it).
//!
//! * **The shift is a register permute.** `right` and `old` are the last two
//!   steps' outputs moved up one lane ([`F64v::shift_up`]), `u[s+1]` and
//!   `u[s]` entering lane 0. No row goes through memory: a block that kept
//!   the rows in memory read `right` as the previous row loaded one lane
//!   over, a load spanning the two stores that wrote it, which missed store
//!   forwarding on every step (864 against 1 355 solves/s for the per-lane
//!   scalar loop this pass replaced).
//! * **Masks only in the triangles.** A step where every lane sits strictly
//!   inside `(lo, hi)` has no select and no per-lane branch; the prologue
//!   and epilogue triangles (Fig. 7) blend in the boundary values with one
//!   comparison each.
//! * **Two registers per step.** A step is one dependent chain of eight
//!   operations plus the permute, about 40 cycles, so one `W = 8` register
//!   left the core mostly idle. A pass carries two `W`-lane registers, lanes
//!   `0..W` and `W..2W` (the second fed by the first's top lane), and
//!   advances `L = 2W` iterations at about the cost of `W`: on a 2.9 GHz
//!   AVX-512 Xeon a steady step of 16 lanes takes ~51 cycles (~41
//!   European: the projection's `max` and its NaN blend sit on the chain), a
//!   triangle step ~65.
//!
//! The pass keeps the `W`-iteration convergence schedule: besides leaving
//! iteration `k+2W` in `u`, it writes lane `W−1`'s row (iteration `k+W`) to
//! a scratch row the solve owns and returns both tracked lanes' errors. If
//! lane `W−1`'s error already meets `eps`, the solve takes that row and
//! counts `W` iterations; otherwise it counts `2W` and checks lane `2W−1`.
//! Iteration counts and bits are therefore those of a loop of `W`-wide
//! blocks: 808 iterations on the 100-step paper problem, as before.
//!
//! ## Two data layouts
//!
//! * [`psor_solve_wavefront`] — lanes read `b[s−2w]`, `g[s−2w]` where the
//!   grid stores them: stride-2 gathers per step (the paper's intermediate
//!   "manual SIMD" bar, still penalized by irregular access).
//! * [`psor_solve_wavefront_soa`] — `b`/`g` are physically re-laid once per
//!   time step (the paper's data-structure-transform bar) into buffers the
//!   solve owns: positions of one parity, from the top down, so that each
//!   register of a step is one contiguous load. The transform is `O(n)`
//!   copies, not an `O(nL)` `[step][lane]` table with each point repeated
//!   in every lane.
//!
//! Fig. 8's order (transform ≥ strided) holds, narrowly. Median of seven
//! runs, each the fastest of 400 solves of the registry's quick problem on
//! a 2-vCPU AVX-512 Xeon (scalar PSOR: 282 solves/s): strided 1 664 and
//! transform 1 747 under AVX-512, 1 422 and 1 513 under AVX2+FMA, 1 342 and
//! 1 327 portable. The pass is latency-bound: the strided rung's gathers
//! (under AVX-512 two masked loads and one permute per register) sit off
//! the dependency chain, and the per-time-step copy into the skewed buffers
//! pays back most of what the unit-stride loads save. The paper puts the
//! transform's larger gain on KNC's gathers, a cost an out-of-order AVX
//! core mostly hides.

use finbench_simd::{isa_fn, F64v, Lanes};

/// Iteration cap of every solve, as in the scalar
/// [`psor_solve`](super::reference::psor_solve).
const MAX_ITERS: usize = 10_000;

/// The two registers of a pass: lanes `0..W` and `W..2W`.
type Pair<const W: usize> = [F64v<W>; 2];

/// What every lane of a pass shares: the interior `[lo, hi]` and the SOR
/// coefficients.
#[derive(Clone, Copy)]
struct Sor {
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
}

impl Sor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        u: &[f64],
        lo: usize,
        hi: usize,
        alphah: f64,
        coeff: f64,
        omega: f64,
        american: bool,
    ) -> Self {
        assert!(lo >= 1 && hi >= lo && hi + 1 < u.len());
        Self {
            lo,
            hi,
            alphah,
            coeff,
            omega,
            american,
        }
    }

    /// `reference::psor_sweep`'s update in every lane — the same
    /// expression, so the same bits.
    #[inline(always)]
    fn relax<const W: usize, const AMERICAN: bool>(
        self,
        b: F64v<W>,
        g: F64v<W>,
        left: F64v<W>,
        right: F64v<W>,
        old: F64v<W>,
    ) -> F64v<W> {
        let y = self.coeff * (b + self.alphah * (left + right));
        let val = old + self.omega * (y - old);
        if AMERICAN {
            val.max(g)
        } else {
            val
        }
    }
}

/// Where lane `v` of step `s` finds position `s − 2v` of `b` or `g`.
trait Rows: Copy {
    /// Both registers of step `s`, every lane inside `(lo, hi)`.
    fn interior<const W: usize>(self, src: &[f64], s: usize) -> Pair<W>;
    /// Both registers of any step of a pass; an idle lane reads a value no
    /// active lane consumes.
    fn any<const W: usize>(self, src: &[f64], s: usize) -> Pair<W>;
}

/// `b` and `g` as the grid stores them: a register is `W` loads two apart
/// (the manual-SIMD level's stride-2 gathers).
#[derive(Clone, Copy)]
struct Strided {
    lo: usize,
    hi: usize,
}

impl Rows for Strided {
    #[inline(always)]
    fn interior<const W: usize>(self, src: &[f64], s: usize) -> Pair<W> {
        // Positions s − 2(2W − 1) ..= s: one bounds check per step.
        let top = 4 * W - 2;
        let win = &src[s - top..=s];
        let mut pair = [[0.0; W]; 2];
        for (h, lanes) in pair.iter_mut().enumerate() {
            for (w, lane) in lanes.iter_mut().enumerate() {
                *lane = win[top - 2 * (h * W + w)];
            }
        }
        [F64v(pair[0]), F64v(pair[1])]
    }

    #[inline(always)]
    fn any<const W: usize>(self, src: &[f64], s: usize) -> Pair<W> {
        // An idle lane reads the nearest interior point.
        let (lo, hi) = (self.lo as isize, self.hi as isize);
        let mut pair = [[0.0; W]; 2];
        for (h, lanes) in pair.iter_mut().enumerate() {
            for (w, lane) in lanes.iter_mut().enumerate() {
                let j = s as isize - (2 * (h * W + w)) as isize;
                *lane = src[j.clamp(lo, hi) as usize];
            }
        }
        [F64v(pair[0]), F64v(pair[1])]
    }
}

/// The data-structure transform (Fig. 8): position `j` of the interior
/// goes to half `(top − j) mod 2`, slot `(top − j) / 2` of a buffer
/// [`Skew::len`] long. Lane `v` of step `s` wants position `s − 2v`, which
/// lands in slot `(top − s)/2 + v` of the half of `s`'s parity, so a step's
/// `2W` lanes are consecutive and each register is one load.
#[derive(Clone, Copy)]
struct Skew {
    /// The last step of a pass, `hi + 2(2W − 1)`.
    top: usize,
    /// Slots per half: enough for every lane of every step from `lo` on.
    half: usize,
}

impl Skew {
    fn new<const W: usize>(lo: usize, hi: usize) -> Self {
        Self {
            top: hi + 4 * W - 2,
            half: (hi - lo) / 2 + 4 * W - 1,
        }
    }

    fn len(self) -> usize {
        2 * self.half
    }

    /// Buffer index of position `top − d`.
    #[inline(always)]
    fn slot(self, d: usize) -> usize {
        (d & 1) * self.half + d / 2
    }

    /// Copy `src[lo..=hi]` into `dst` in skewed order. The slots of
    /// positions outside the interior keep what they hold: only idle lanes
    /// read them.
    fn fill(self, src: &[f64], lo: usize, hi: usize, dst: &mut [f64]) {
        for j in lo..=hi {
            dst[self.slot(self.top - j)] = src[j];
        }
    }
}

impl Rows for Skew {
    #[inline(always)]
    fn interior<const W: usize>(self, src: &[f64], s: usize) -> Pair<W> {
        let i = self.slot(self.top - s);
        [F64v::load(src, i), F64v::load(src, i + W)]
    }

    #[inline(always)]
    fn any<const W: usize>(self, src: &[f64], s: usize) -> Pair<W> {
        self.interior(src, s)
    }
}

/// Lane positions `s − 2v` of both registers at step `s`, as doubles
/// (exact for any grid that fits in memory).
#[inline(always)]
fn positions<const W: usize>(s: usize) -> Pair<W> {
    let mut pos = [[0.0; W]; 2];
    for (h, lanes) in pos.iter_mut().enumerate() {
        for (w, lane) in lanes.iter_mut().enumerate() {
            *lane = s as f64 - (2 * (h * W + w)) as f64;
        }
    }
    [F64v(pos[0]), F64v(pos[1])]
}

/// The wavefront between two steps: both registers' outputs at the last two
/// steps, and the squared-update sums of lanes `W−1` and `2W−1`.
struct Front<const W: usize> {
    prev1: Pair<W>,
    prev2: Pair<W>,
    err: [f64; 2],
}

impl<const W: usize> Front<W> {
    /// Step `s`: every lane's update, lane `W−1`'s value to `row` and lane
    /// `2W−1`'s to `u`. `EDGE` is a step of the prologue or epilogue
    /// triangle, where idle lanes and lanes at the boundary exist; without
    /// it the step has no mask and no per-lane branch.
    #[inline(always)]
    fn step<const EDGE: bool, const AMERICAN: bool>(
        &mut self,
        sor: Sor,
        s: usize,
        (b, g): (Pair<W>, Pair<W>),
        u: &mut [f64],
        row: &mut [f64],
    ) {
        let Sor { lo, hi, .. } = sor;
        // Lane 0 reads iteration k from `u` (past `hi` it is idle, and any
        // in-bounds value will do); lane W reads lane W−1.
        let (right0, old0) = if EDGE {
            (u[(s + 1).min(hi + 1)], u[s.min(hi + 1)])
        } else {
            (u[s + 1], u[s])
        };
        let [p1, q1] = self.prev1;
        let [p2, q2] = self.prev2;
        let mut left = self.prev1;
        let mut right = [p1.shift_up(right0), q1.shift_up(p1[W - 1])];
        let old = [p2.shift_up(old0), q2.shift_up(p2[W - 1])];
        if EDGE {
            // The lane at j = lo reads the left boundary and the lane at
            // j = hi the right one; the lanes beyond them are idle, so one
            // comparison each picks them out.
            let pos = positions::<W>(s);
            let (at_lo, at_hi) = (F64v::splat(lo as f64), F64v::splat(hi as f64));
            for h in 0..2 {
                left[h] = pos[h].le(at_lo).select(F64v::splat(u[lo - 1]), left[h]);
                right[h] = pos[h].ge(at_hi).select(F64v::splat(u[hi + 1]), right[h]);
            }
        }
        let new = [
            sor.relax::<W, AMERICAN>(b[0], g[0], left[0], right[0], old[0]),
            sor.relax::<W, AMERICAN>(b[1], g[1], left[1], right[1], old[1]),
        ];
        // The tracked lanes sum their squared updates in `j` order, as the
        // scalar sweep does.
        for h in 0..2 {
            let lag = 2 * (h * W + W - 1);
            if !EDGE || (lo + lag..=hi + lag).contains(&s) {
                let (val, d) = (new[h][W - 1], new[h][W - 1] - old[h][W - 1]);
                self.err[h] += d * d;
                if h == 0 {
                    row[s - lag] = val;
                } else {
                    u[s - lag] = val;
                }
            }
        }
        self.prev2 = self.prev1;
        self.prev1 = new;
    }
}

/// One pass: the prologue triangle, the steady range where every lane is
/// strictly inside `(lo, hi)`, and the epilogue triangle. No closure and no
/// run-time branch sits in a step: either kept the step's values out of
/// vector registers (a step cost 2–3× its dependency chain).
#[inline(always)]
fn pass<const W: usize, const AMERICAN: bool>(
    sor: Sor,
    rows: impl Rows,
    b: &[f64],
    g: &[f64],
    u: &mut [f64],
    row: &mut [f64],
) -> (f64, f64) {
    let Sor { lo, hi, .. } = sor;
    let last = hi + 4 * W - 2;
    let steady = lo + 4 * W - 1;
    let mut front = Front::<W> {
        prev1: [F64v::zero(); 2],
        prev2: [F64v::zero(); 2],
        err: [0.0; 2],
    };
    let mut s = lo;
    while s < steady.min(last + 1) {
        let bg = (rows.any(b, s), rows.any(g, s));
        front.step::<true, AMERICAN>(sor, s, bg, u, row);
        s += 1;
    }
    while s < hi {
        let bg = (rows.interior(b, s), rows.interior(g, s));
        front.step::<false, AMERICAN>(sor, s, bg, u, row);
        s += 1;
    }
    while s <= last {
        let bg = (rows.any(b, s), rows.any(g, s));
        front.step::<true, AMERICAN>(sor, s, bg, u, row);
        s += 1;
    }
    (front.err[0], front.err[1])
}

isa_fn! {
    /// One wavefront pass: PSOR iterations `k+1 ..= k+2W` over the interior
    /// in two `W`-lane registers, reading `b`/`g` in place or, given a
    /// [`Skew`], from skewed copies. Leaves iteration `k+2W` in `u` and
    /// iteration `k+W` in `row[lo..=hi]`, and returns the two iterations'
    /// errors `(e_{k+W}, e_{k+2W})`, each the bits of the scalar sweep's.
    fn psor_pass<const W: usize>(
        sor: Sor,
        b: &[f64],
        g: &[f64],
        skew: Option<Skew>,
        u: &mut [f64],
        row: &mut [f64],
    ) -> (f64, f64) {
        let strided = Strided { lo: sor.lo, hi: sor.hi };
        match (skew, sor.american) {
            (None, true) => pass::<W, true>(sor, strided, b, g, u, row),
            (None, false) => pass::<W, false>(sor, strided, b, g, u, row),
            (Some(skew), true) => pass::<W, true>(sor, skew, b, g, u, row),
            (Some(skew), false) => pass::<W, false>(sor, skew, b, g, u, row),
        }
    }
}

/// Run passes until an iteration's error meets `eps` or `max_iters`
/// iterations are counted, on the `W`-iteration schedule: lane `W−1`'s
/// error decides first, and if it meets `eps` its row becomes `u`.
/// Returns the iterations counted and the last counted one's error.
#[allow(clippy::too_many_arguments)]
fn converge<const W: usize>(
    sor: Sor,
    b: &[f64],
    g: &[f64],
    skew: Option<Skew>,
    u: &mut [f64],
    row: &mut Vec<f64>,
    eps: f64,
    max_iters: usize,
) -> (usize, f64) {
    let Sor { lo, hi, .. } = sor;
    row.resize(u.len(), 0.0);
    let mut iters = 0;
    loop {
        let (e_mid, e_last) = psor_pass::<W>(sor, b, g, skew, u, row);
        if e_mid <= eps || iters + W >= max_iters {
            u[lo..=hi].copy_from_slice(&row[lo..=hi]);
            return (iters + W, e_mid);
        }
        iters += 2 * W;
        if e_last <= eps || iters >= max_iters {
            return (iters, e_last);
        }
    }
}

/// What a wavefront solve keeps from one call to the next, so that a time
/// step allocates nothing: the row lane `W−1` leaves, and the skewed `b`
/// and `g` of [`psor_solve_wavefront_soa`].
#[derive(Debug, Default)]
pub struct WavefrontScratch {
    row: Vec<f64>,
    b: Vec<f64>,
    g: Vec<f64>,
}

/// Wavefront PSOR with in-place strided access to `b`/`g` (manual-SIMD
/// level). Returns total iterations performed (a multiple of `W`).
#[allow(clippy::too_many_arguments)]
pub fn psor_solve_wavefront<const W: usize>(
    u: &mut [f64],
    b: &[f64],
    g: &[f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    eps: f64,
    scratch: &mut WavefrontScratch,
) -> usize {
    let sor = Sor::new(u, lo, hi, alphah, coeff, omega, american);
    converge::<W>(sor, b, g, None, u, &mut scratch.row, eps, MAX_ITERS).0
}

/// Run exactly `blocks` wavefront blocks (= `blocks·W` PSOR iterations)
/// with no convergence check — the fixed-iteration entry point of the
/// bit-exactness tests. Returns the last iteration's error.
#[allow(clippy::too_many_arguments)]
pub fn psor_solve_wavefront_fixed_blocks<const W: usize>(
    u: &mut [f64],
    b: &[f64],
    g: &[f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    blocks: usize,
) -> f64 {
    let sor = Sor::new(u, lo, hi, alphah, coeff, omega, american);
    if blocks == 0 {
        return 0.0;
    }
    // No sum of squares is below -inf: no pass stops early.
    let eps = f64::NEG_INFINITY;
    converge::<W>(sor, b, g, None, u, &mut Vec::new(), eps, blocks * W).1
}

/// Wavefront PSOR over skewed copies of `b`/`g` (data-transform level): the
/// hot loop reads each register with one unit-stride load. The copy is
/// charged to this call, as in the paper, and lands in `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn psor_solve_wavefront_soa<const W: usize>(
    u: &mut [f64],
    b: &[f64],
    g: &[f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    eps: f64,
    scratch: &mut WavefrontScratch,
) -> usize {
    let sor = Sor::new(u, lo, hi, alphah, coeff, omega, american);
    let skew = Skew::new::<W>(lo, hi);
    let WavefrontScratch { row, b: bs, g: gs } = scratch;
    for (src, dst) in [(b, &mut *bs), (g, &mut *gs)] {
        dst.resize(skew.len(), 0.0);
        skew.fill(src, lo, hi, dst);
    }
    converge::<W>(sor, bs, gs, Some(skew), u, row, eps, MAX_ITERS).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crank_nicolson::reference::psor_sweep;

    /// Deterministic pseudo-random test vectors.
    fn test_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut draw = || {
            state = finbench_rng::SplitMix64::mix(state);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let u: Vec<f64> = (0..n).map(|_| draw() * 2.0).collect();
        let b: Vec<f64> = (0..n).map(|_| draw()).collect();
        let g: Vec<f64> = (0..n).map(|_| draw() * 1.5).collect();
        (u, b, g)
    }

    const ALPHA: f64 = 1.46;
    const ALPHAH: f64 = ALPHA / 2.0;
    const COEFF: f64 = 1.0 / (1.0 + ALPHA);

    #[allow(clippy::too_many_arguments)]
    fn scalar_k_sweeps(
        u: &mut [f64],
        b: &[f64],
        g: &[f64],
        lo: usize,
        hi: usize,
        omega: f64,
        american: bool,
        k: usize,
    ) -> f64 {
        let mut last = 0.0;
        for _ in 0..k {
            last = psor_sweep(u, b, g, lo, hi, ALPHAH, COEFF, omega, american);
        }
        last
    }

    fn assert_bits(want: &[f64], got: &[f64], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}: length");
        for (j, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{what} j={j}: {w} vs {g}");
        }
    }

    /// One pass of the packed block in either layout against `W` and `2W`
    /// scalar sweeps: the row, `u`, both errors, every bit.
    fn check_pass<const W: usize>(n: usize, american: bool, omega: f64) {
        let (u0, b, g) = test_system(n, 1234 + n as u64);
        let (lo, hi) = (1, n - 2);
        let mut mid = u0.clone();
        let e_mid = scalar_k_sweeps(&mut mid, &b, &g, lo, hi, omega, american, W);
        let mut last = mid.clone();
        let e_last = scalar_k_sweeps(&mut last, &b, &g, lo, hi, omega, american, W);

        let sor = Sor::new(&u0, lo, hi, ALPHAH, COEFF, omega, american);
        let skew = Skew::new::<W>(lo, hi);
        let (mut bs, mut gs) = (vec![f64::NAN; skew.len()], vec![f64::NAN; skew.len()]);
        skew.fill(&b, lo, hi, &mut bs);
        skew.fill(&g, lo, hi, &mut gs);
        for (layout, b, g, skew) in [("strided", &b, &g, None), ("skewed", &bs, &gs, Some(skew))] {
            let what = format!("W={W} n={n} american={american} {layout}");
            let mut u = u0.clone();
            let mut row = vec![f64::NAN; n];
            let (e1, e2) = psor_pass::<W>(sor, b, g, skew, &mut u, &mut row);
            assert_bits(&mid[lo..=hi], &row[lo..=hi], &format!("{what} row"));
            assert_bits(&last, &u, &format!("{what} u"));
            assert_eq!(e_mid.to_bits(), e1.to_bits(), "{what} e_mid");
            assert_eq!(e_last.to_bits(), e2.to_bits(), "{what} e_last");
        }
    }

    #[test]
    fn one_block_is_bit_identical_to_w_scalar_sweeps() {
        for american in [false, true] {
            // Interiors shorter than a full wavefront (4W − 1 = 31 steps at
            // W = 8) run the prologue/epilogue path only.
            for n in [3usize, 4, 9, 16, 17, 18, 33, 34, 35, 36, 64, 256] {
                check_pass::<8>(n, american, 1.3);
            }
            for n in [3usize, 5, 19, 64] {
                check_pass::<4>(n, american, 1.7);
            }
        }
        // The fixed-block entry point takes lane W−1's row after one block.
        let n = 37;
        let (u0, b, g) = test_system(n, 1234);
        let mut us = u0.clone();
        let err_s = scalar_k_sweeps(&mut us, &b, &g, 1, n - 2, 1.3, true, 8);
        let mut uw = u0.clone();
        let err_w = psor_solve_wavefront_fixed_blocks::<8>(
            &mut uw,
            &b,
            &g,
            1,
            n - 2,
            ALPHAH,
            COEFF,
            1.3,
            true,
            1,
        );
        assert_bits(&us, &uw, "one block");
        assert_eq!(err_s.to_bits(), err_w.to_bits());
    }

    #[test]
    fn multiple_blocks_track_scalar() {
        let n = 128;
        let (u0, b, g) = test_system(n, 777);
        let (lo, hi) = (1, n - 2);
        for blocks in [2, 3, 5] {
            let mut us = u0.clone();
            let err_s = scalar_k_sweeps(&mut us, &b, &g, lo, hi, 1.5, true, 8 * blocks);
            let mut uw = u0.clone();
            let err_w = psor_solve_wavefront_fixed_blocks::<8>(
                &mut uw, &b, &g, lo, hi, ALPHAH, COEFF, 1.5, true, blocks,
            );
            assert_bits(&us, &uw, &format!("blocks={blocks}"));
            assert_eq!(err_s.to_bits(), err_w.to_bits(), "blocks={blocks}");
        }
    }

    #[test]
    fn width_one_block_equals_one_scalar_sweep() {
        for n in [3usize, 5, 19, 64] {
            check_pass::<1>(n, false, 1.0);
            check_pass::<1>(n, true, 1.0);
        }
        let n = 32;
        let (u0, b, g) = test_system(n, 5);
        let mut us = u0.clone();
        let err_s = scalar_k_sweeps(&mut us, &b, &g, 1, n - 2, 1.0, true, 1);
        let mut uw = u0.clone();
        let err_w = psor_solve_wavefront_fixed_blocks::<1>(
            &mut uw,
            &b,
            &g,
            1,
            n - 2,
            ALPHAH,
            COEFF,
            1.0,
            true,
            1,
        );
        assert_eq!(err_s.to_bits(), err_w.to_bits());
        assert_bits(&us, &uw, "W=1");
    }

    /// The plain `W = 8` block loop the solvers must reproduce: `8` scalar
    /// sweeps, then a convergence check.
    fn block_loop(u: &mut [f64], b: &[f64], g: &[f64], omega: f64, eps: f64) -> usize {
        let hi = u.len() - 2;
        let mut iters = 0;
        loop {
            let e = scalar_k_sweeps(u, b, g, 1, hi, omega, true, 8);
            iters += 8;
            if e <= eps || iters >= MAX_ITERS {
                return iters;
            }
        }
    }

    /// An American solve of the whole interior with the test coefficients,
    /// strided or (`soa`) over skewed copies.
    fn solve<const W: usize>(soa: bool, u: &mut [f64], b: &[f64], g: &[f64], eps: f64) -> usize {
        let f = if soa {
            psor_solve_wavefront_soa::<W>
        } else {
            psor_solve_wavefront::<W>
        };
        let (hi, mut scratch) = (u.len() - 2, WavefrontScratch::default());
        f(u, b, g, 1, hi, ALPHAH, COEFF, 1.2, true, eps, &mut scratch)
    }

    #[test]
    fn solves_keep_the_w8_schedule_and_bits() {
        let n = 40;
        let (u0, b, g) = test_system(n, 99);
        // The scalar error after each multiple of 8 iterations.
        let mut probe = u0.clone();
        let errors: Vec<f64> = (0..6)
            .map(|_| scalar_k_sweeps(&mut probe, &b, &g, 1, n - 2, 1.2, true, 8))
            .collect();
        // Converged at lane 7 of the second pass (24 iterations: the solve
        // takes lane 7's row), at lane 15 of the second pass (32), and
        // never (the 10 000-iteration cap).
        for (eps, half) in [(errors[2], 8), (errors[3], 0), (-1.0, 0)] {
            let mut want = u0.clone();
            let iters = block_loop(&mut want, &b, &g, 1.2, eps);
            assert_eq!(iters % 16, half, "eps={eps:e}: {iters} iterations");
            for soa in [false, true] {
                let mut u = u0.clone();
                assert_eq!(
                    solve::<8>(soa, &mut u, &b, &g, eps),
                    iters,
                    "eps={eps:e} soa={soa}"
                );
                assert_bits(&want, &u, &format!("eps={eps:e} soa={soa}"));
            }
        }
    }

    #[test]
    fn widths_4_and_8_reach_same_fixed_point() {
        let n = 96;
        let (u0, b, g) = test_system(n, 9);
        let mut u4 = u0.clone();
        let mut u8 = u0.clone();
        solve::<4>(false, &mut u4, &b, &g, 1e-26);
        solve::<8>(false, &mut u8, &b, &g, 1e-26);
        for j in 0..n {
            assert!(
                (u4[j] - u8[j]).abs() < 1e-11,
                "j={j}: {} vs {}",
                u4[j],
                u8[j]
            );
        }
    }

    #[test]
    fn soa_variant_identical_to_strided_variant() {
        let n = 200;
        let (u0, b, g) = test_system(n, 31);
        let mut ua = u0.clone();
        let mut ub = u0.clone();
        let ia = solve::<8>(false, &mut ua, &b, &g, 1e-24);
        let ib = solve::<8>(true, &mut ub, &b, &g, 1e-24);
        assert_eq!(ia, ib);
        assert_bits(&ua, &ub, "soa vs strided");
    }

    #[test]
    fn skew_layout_places_entries_correctly() {
        let src: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let (lo, hi) = (1, 10);
        let skew = Skew::new::<4>(lo, hi);
        let mut sk = vec![-1.0; skew.len()];
        skew.fill(&src, lo, hi, &mut sk);
        // Every step's two registers are unit-stride loads, and lane v of
        // step s holds src[s − 2v] wherever that is an interior point.
        for s in lo..=skew.top {
            let [a, b] = <Skew as Rows>::any::<4>(skew, &sk, s);
            for (v, got) in a.to_array().into_iter().chain(b.to_array()).enumerate() {
                let j = s as isize - 2 * v as isize;
                if (lo as isize..=hi as isize).contains(&j) {
                    assert_eq!(got, j as f64, "s={s} lane {v}");
                } else {
                    assert_eq!(got, -1.0, "s={s} lane {v} is idle");
                }
            }
        }
    }

    #[test]
    fn wavefront_converges_on_manufactured_problem() {
        // Same manufactured diffusion system as the reference tests.
        let n = 64;
        let alpha = 0.8;
        let target: Vec<f64> = (0..n)
            .map(|j| (j as f64 * 0.37).sin().abs() + 0.5)
            .collect();
        let mut b = vec![0.0; n];
        for j in 1..n - 1 {
            b[j] = (1.0 + alpha) * target[j] - 0.5 * alpha * (target[j - 1] + target[j + 1]);
        }
        let g = vec![f64::NEG_INFINITY; n];
        let mut u = vec![0.0; n];
        u[0] = target[0];
        u[n - 1] = target[n - 1];
        let iters = psor_solve_wavefront::<8>(
            &mut u,
            &b,
            &g,
            1,
            n - 2,
            alpha / 2.0,
            1.0 / (1.0 + alpha),
            1.2,
            false,
            1e-28,
            &mut WavefrontScratch::default(),
        );
        assert!(iters < 10_000);
        for j in 0..n {
            assert!((u[j] - target[j]).abs() < 1e-10, "j={j}");
        }
    }
}
