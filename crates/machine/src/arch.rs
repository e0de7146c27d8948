//! Architecture specifications — the paper's Table I, plus the calibrated
//! microarchitectural throughput constants the cost model charges.

/// Instruction issue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// Aggressive out-of-order core (SNB-EP): dependency chains and extra
    /// instructions are largely hidden.
    OutOfOrder,
    /// In-order core (KNC): relies on 4-way SMT and unrolling to hide
    /// latency; instruction overhead hits throughput directly.
    InOrder,
}

/// One modeled architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchSpec {
    /// Display name.
    pub name: &'static str,
    /// Sockets × cores per socket.
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core.
    pub smt: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Double-precision SIMD lanes (4 = 256-bit AVX, 8 = 512-bit).
    pub simd_width_dp: u32,
    /// Whether the vector unit fuses multiply-add (KNC) or issues one
    /// multiply and one add per cycle on separate ports (SNB-EP); both
    /// yield 2 flops/lane/cycle at peak.
    pub fma: bool,
    /// Issue discipline.
    pub issue: Issue,
    /// L1 data cache per core (KB).
    pub l1_kb: u32,
    /// L2 cache per core (KB).
    pub l2_kb: u32,
    /// Shared L3 per chip (KB), 0 if absent.
    pub l3_kb: u32,
    /// DRAM capacity (GB).
    pub dram_gb: u32,
    /// STREAM bandwidth (GB/s) — the paper's Table I row.
    pub stream_bw_gbs: f64,

    // --- Calibrated throughput constants (cycles per double-precision
    // element at full vector width; see DESIGN.md §"machine model"). ---
    /// Vectorized `exp` cost (SVML-class).
    pub exp_cpe: f64,
    /// Vectorized heavy transcendental (`erf`/`cnd`/`ln`, which carry a
    /// division) cost. Higher relative to `exp` on KNC because its
    /// in-order pipeline cannot hide the divide latency.
    pub heavy_cpe: f64,
    /// Cost of a standalone divide or square root per element (the
    /// unpipelined slow ops of both vector units).
    pub div_cpe: f64,
    /// Normally-distributed RNG cost (MT + inverse CDF), calibrated to
    /// Table II row 3.
    pub normal_rng_cpe: f64,
    /// Uniform RNG cost (MT + scale), calibrated to Table II row 4.
    pub uniform_rng_cpe: f64,
    /// Cycles per cache line touched by a gather/scatter.
    pub gather_cycles_per_line: f64,
}

impl ArchSpec {
    /// Total cores.
    pub fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Aggregate core-cycles per second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cores() as f64 * self.clock_ghz * 1e9
    }

    /// Peak double-precision Gflop/s: 2 flops/lane/cycle (mul+add or FMA)
    /// × lanes × cores × clock.
    pub fn peak_dp_gflops(&self) -> f64 {
        2.0 * self.simd_width_dp as f64 * self.cores() as f64 * self.clock_ghz
    }

    /// Peak single-precision Gflop/s (twice the lanes).
    pub fn peak_sp_gflops(&self) -> f64 {
        2.0 * self.peak_dp_gflops()
    }

    /// STREAM bandwidth in bytes/second.
    pub fn bw_bytes_per_sec(&self) -> f64 {
        self.stream_bw_gbs * 1e9
    }
}

/// The Intel Xeon E5-2680 node ("SNB-EP"): 2 × 8 out-of-order cores,
/// 2-way SMT, 2.7 GHz, 256-bit AVX.
pub const SNB_EP: ArchSpec = ArchSpec {
    name: "SNB-EP",
    sockets: 2,
    cores_per_socket: 8,
    smt: 2,
    clock_ghz: 2.7,
    simd_width_dp: 4,
    fma: false,
    issue: Issue::OutOfOrder,
    l1_kb: 32,
    l2_kb: 256,
    l3_kb: 20_480,
    dram_gb: 128,
    stream_bw_gbs: 76.0,
    exp_cpe: 4.0,
    heavy_cpe: 4.0,
    div_cpe: 3.5,
    normal_rng_cpe: 24.0,
    uniform_rng_cpe: 3.2,
    gather_cycles_per_line: 2.0,
};

/// A nominal approximation of the build host, for planning only: the core
/// count is real (`available_parallelism`), everything else is a generic
/// out-of-order AVX2-class core with SNB-EP's calibrated throughput
/// constants and ~12 GB/s of STREAM bandwidth per core. The planner only
/// needs the *relative* compute-vs-bandwidth classification, not absolute
/// rates, so a nominal spec is sufficient. Where it guesses wrong, the fix
/// is a measured per-device plan, not a hand-set override.
pub fn host_spec() -> ArchSpec {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    ArchSpec {
        name: "host",
        sockets: 1,
        cores_per_socket: cores,
        smt: 1,
        clock_ghz: 3.0,
        simd_width_dp: 4,
        fma: true,
        issue: Issue::OutOfOrder,
        l1_kb: 32,
        l2_kb: 512,
        l3_kb: 8_192,
        dram_gb: 16,
        stream_bw_gbs: (12.0 * cores as f64).min(80.0),
        exp_cpe: SNB_EP.exp_cpe,
        heavy_cpe: SNB_EP.heavy_cpe,
        div_cpe: SNB_EP.div_cpe,
        normal_rng_cpe: SNB_EP.normal_rng_cpe,
        uniform_rng_cpe: SNB_EP.uniform_rng_cpe,
        gather_cycles_per_line: SNB_EP.gather_cycles_per_line,
    }
}

/// The Intel Xeon Phi "Knights Corner" coprocessor ("KNC"): 60 in-order
/// cores, 4-way SMT, 1.09 GHz, 512-bit SIMD with FMA.
pub const KNC: ArchSpec = ArchSpec {
    name: "KNC",
    sockets: 1,
    cores_per_socket: 60,
    smt: 4,
    clock_ghz: 1.09,
    simd_width_dp: 8,
    fma: true,
    issue: Issue::InOrder,
    l1_kb: 32,
    l2_kb: 512,
    l3_kb: 0,
    dram_gb: 4,
    stream_bw_gbs: 150.0,
    exp_cpe: 2.2,
    heavy_cpe: 4.7,
    div_cpe: 4.0,
    normal_rng_cpe: 12.6,
    uniform_rng_cpe: 2.6,
    gather_cycles_per_line: 8.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_peaks() {
        // Paper Table I: SNB-EP 346 DP Gflop/s, 691 SP; KNC 1063 DP,
        // 2127 SP. Our spec-derived peaks must land within 2% / 5%.
        let snb = SNB_EP.peak_dp_gflops();
        assert!((snb - 346.0).abs() / 346.0 < 0.02, "SNB DP {snb}");
        let knc = KNC.peak_dp_gflops();
        assert!((knc - 1063.0).abs() / 1063.0 < 0.05, "KNC DP {knc}");
        assert!((SNB_EP.peak_sp_gflops() - 691.0).abs() / 691.0 < 0.02);
        assert!((KNC.peak_sp_gflops() - 2127.0).abs() / 2127.0 < 0.05);
    }

    #[test]
    fn peak_ratio_as_reported() {
        // §III-A: "in terms of peak compute, KNC is 3.2x faster" —
        // computed as (60/16)·(512/256)·(1.09/2.7) ≈ 3.0; the spec ratio
        // must sit in [2.9, 3.3].
        let ratio = KNC.peak_dp_gflops() / SNB_EP.peak_dp_gflops();
        assert!((2.9..=3.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bandwidth_ratio() {
        // 150/76 ≈ 2x — the factor the bandwidth-bound kernels inherit.
        let r = KNC.stream_bw_gbs / SNB_EP.stream_bw_gbs;
        assert!((1.9..=2.1).contains(&r));
    }

    #[test]
    fn core_counts() {
        assert_eq!(SNB_EP.cores(), 16);
        assert_eq!(KNC.cores(), 60);
        assert_eq!(SNB_EP.cores() * SNB_EP.smt, 32);
        assert_eq!(KNC.cores() * KNC.smt, 240);
    }

    #[test]
    fn cycles_per_sec() {
        assert!((SNB_EP.cycles_per_sec() - 43.2e9).abs() < 1e6);
        assert!((KNC.cycles_per_sec() - 65.4e9).abs() < 1e6);
    }

    #[test]
    fn host_spec_is_sane() {
        let h = host_spec();
        assert_eq!(h.name, "host");
        assert!(h.cores() >= 1);
        assert!(h.peak_dp_gflops() > 0.0);
        assert!(h.bw_bytes_per_sec() > 0.0);
    }

    #[test]
    fn rng_constants_reproduce_table2_rates() {
        // Table II rows 3-4: normal 1.79e9 / 5.21e9, uniform 13.31e9 /
        // 25.134e9 per second. rate = cycles_per_sec / cpe.
        let snb_n = SNB_EP.cycles_per_sec() / SNB_EP.normal_rng_cpe;
        assert!((snb_n - 1.79e9).abs() / 1.79e9 < 0.05, "{snb_n}");
        let knc_n = KNC.cycles_per_sec() / KNC.normal_rng_cpe;
        assert!((knc_n - 5.21e9).abs() / 5.21e9 < 0.05, "{knc_n}");
        let snb_u = SNB_EP.cycles_per_sec() / SNB_EP.uniform_rng_cpe;
        assert!((snb_u - 13.31e9).abs() / 13.31e9 < 0.05, "{snb_u}");
        let knc_u = KNC.cycles_per_sec() / KNC.uniform_rng_cpe;
        assert!((knc_u - 25.134e9).abs() / 25.134e9 < 0.05, "{knc_u}");
    }
}
