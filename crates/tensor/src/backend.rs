//! Kernel-backend selection: the one value every hot compute kernel is
//! handed.
//!
//! A [`KernelBackend`] is either [`KernelBackend::Scalar`] — the reference
//! loops, kept as ground truth for tests and benchmarks — or
//! [`KernelBackend::Simd`] at one [`SimdLevel`]: explicit `std::arch`
//! intrinsics (AVX2 or SSE2 on x86, NEON on aarch64). **Every backend
//! produces bit-identical results for every kernel** — the Ditto
//! equivalence chain (and the serve memo's cross-request guarantees) rest
//! on exact accumulator values, so a backend is only ever a *performance*
//! choice. The integer kernels reassociate freely (wrapping-`i32` addition
//! is associative, so SIMD sums equal the scalar ones exactly). The `f32`
//! kernels never reassociate: every SIMD lane is one independent output
//! element whose products — every one, a zero operand included — are
//! folded in ascending-`k` order from the output's initial value with
//! separate correctly rounded `mul`/`add` (never FMA), which is
//! bit-identical to the scalar fold by construction.
//!
//! # One value, passed down
//!
//! Every kernel reads its level from the backend value it is given, never
//! from a global: the `*_with` entry points take it as an argument, and a
//! level without a kernel for some op (NEON activations, the f32 kernels
//! off x86-64 and aarch64) runs the scalar loop for that op. Only the
//! un-suffixed entry points (`ops::matmul`, `quant::kernels::int_matmul`,
//! …) and compiled plans (`diffusion::plan::TracePlan::execute`) call
//! [`active`], the process default.
//!
//! # Selection
//!
//! [`active`] is resolved once, on first use, from `DITTO_KERNEL_BACKEND`
//! (case-insensitive) and never changes afterwards:
//!
//! | value | backend |
//! |---|---|
//! | unset, empty or `auto` | [`KernelBackend::detect`]: `simd` at the best level the CPU has, else `scalar` |
//! | `scalar` | the reference loops |
//! | `simd` | `simd` at the best level the CPU has |
//! | `simd:avx2`, `simd:sse2`, `simd:neon` | `simd` at that level — below the hardware's (SSE2 on an AVX2 host) it runs that level's real kernels |
//!
//! Any other value, or a level the CPU cannot run, warns once on stderr and
//! falls back to detection, so a job pinned to `simd:avx2` degrades on an
//! older host instead of dying. Serve responses and perfbench rows report
//! [`KernelBackend::resolved_name`] (`scalar`, `simd:avx2`, …), which
//! [`KernelBackend::parse`] accepts back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The compute-kernel implementations a process can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Reference scalar loops (`ikj` order; the integer ones skip zero
    /// activations, the `f32` one computes every product).
    Scalar,
    /// Explicit SIMD intrinsics at one level for both the integer and
    /// `f32` kernels (fixed-order lane reduction keeps the float results
    /// bit-identical).
    Simd(SimdLevel),
}

/// Explicit-SIMD instruction tier. Variants are declared ascending, so the
/// derived ordering ranks kernel width: `Neon < Sse2 < Avx2`.
///
/// NEON and SSE2 are both 128-bit, but only the x86 tiers widen to AVX2;
/// use [`SimdLevel::is_hw_supported`] — not the ordering — to ask whether
/// a level can *run* here, since the ISA families never overlap on one
/// host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// 128-bit aarch64 NEON kernels.
    Neon,
    /// 128-bit x86 SSE2 kernels.
    Sse2,
    /// 256-bit x86 AVX2 kernels.
    Avx2,
}

impl SimdLevel {
    /// Every level, ascending.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Neon, SimdLevel::Sse2, SimdLevel::Avx2];

    /// Lower-case name, as in `simd:<name>`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Neon => "neon",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a level name (case-insensitive).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        SimdLevel::ALL.into_iter().find(|l| l.name().eq_ignore_ascii_case(s))
    }

    /// The best level the host silicon supports, detected once: AVX2 then
    /// SSE2 on x86 (`is_x86_feature_detected!`), NEON on aarch64 (it is
    /// baseline), none elsewhere.
    pub fn detect() -> Option<SimdLevel> {
        static LEVEL: OnceLock<Option<SimdLevel>> = OnceLock::new();
        *LEVEL.get_or_init(detect_hw_level)
    }

    /// Whether the host silicon can execute this level: NEON on an aarch64
    /// host, an x86 tier on an x86 host detected at or above it.
    pub fn is_hw_supported(self) -> bool {
        match (self, SimdLevel::detect()) {
            (SimdLevel::Neon, hw) => hw == Some(SimdLevel::Neon),
            (level, Some(hw)) => hw != SimdLevel::Neon && hw >= level,
            (_, None) => false,
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn detect_hw_level() -> Option<SimdLevel> {
    if std::arch::is_x86_feature_detected!("avx2") {
        Some(SimdLevel::Avx2)
    } else if std::arch::is_x86_feature_detected!("sse2") {
        Some(SimdLevel::Sse2)
    } else {
        None
    }
}

#[cfg(target_arch = "aarch64")]
fn detect_hw_level() -> Option<SimdLevel> {
    Some(SimdLevel::Neon)
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64")))]
fn detect_hw_level() -> Option<SimdLevel> {
    None
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl KernelBackend {
    /// Every backend value, `scalar` first and then the SIMD levels
    /// ascending. Filter with [`KernelBackend::is_available`] (or use
    /// [`KernelBackend::available`]) before dispatching.
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Simd(SimdLevel::Neon),
        KernelBackend::Simd(SimdLevel::Sse2),
        KernelBackend::Simd(SimdLevel::Avx2),
    ];

    /// The name serve responses, perfbench rows and dispatch counts report:
    /// `scalar`, or `simd:<level>`. [`KernelBackend::parse`] inverts it.
    pub fn resolved_name(self) -> String {
        self.to_string()
    }

    /// Parses a backend name (case-insensitive): `scalar`, `simd:<level>`,
    /// or `simd` for the best level the host detects (`None` on a host
    /// with no SIMD). `auto` is not a name; [`active`] resolves it.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        let s = s.to_ascii_lowercase();
        match s.as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "simd" => SimdLevel::detect().map(KernelBackend::Simd),
            _ => s.strip_prefix("simd:").and_then(SimdLevel::parse).map(KernelBackend::Simd),
        }
    }

    /// Whether this backend can run on the current host: `Scalar` always,
    /// `Simd` when the host supports its level.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Simd(level) => level.is_hw_supported(),
        }
    }

    /// The backends available on this host, in [`KernelBackend::ALL`]
    /// order — the axis every cross-backend bit-identity test iterates. An
    /// AVX2 host yields `[scalar, simd:sse2, simd:avx2]`.
    pub fn available() -> Vec<KernelBackend> {
        KernelBackend::ALL.into_iter().filter(|b| b.is_available()).collect()
    }

    /// The fastest available backend: `Simd` at the detected level, or
    /// `Scalar` on a host without SIMD.
    pub fn detect() -> KernelBackend {
        SimdLevel::detect().map_or(KernelBackend::Scalar, KernelBackend::Simd)
    }

    /// Position in [`KernelBackend::ALL`].
    fn index(self) -> usize {
        match self {
            KernelBackend::Scalar => 0,
            KernelBackend::Simd(SimdLevel::Neon) => 1,
            KernelBackend::Simd(SimdLevel::Sse2) => 2,
            KernelBackend::Simd(SimdLevel::Avx2) => 3,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelBackend::Scalar => f.write_str("scalar"),
            KernelBackend::Simd(level) => write!(f, "simd:{level}"),
        }
    }
}

/// The process-wide default kernel backend, resolved from
/// `DITTO_KERNEL_BACKEND` on first use (see the module docs) and fixed for
/// the life of the process.
pub fn active() -> KernelBackend {
    static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let (backend, warning) = resolve(std::env::var("DITTO_KERNEL_BACKEND").ok().as_deref());
        if let Some(warning) = warning {
            eprintln!("{warning}");
        }
        backend
    })
}

/// The backend `DITTO_KERNEL_BACKEND` set to `raw` selects, and the warning
/// to print when `raw` names no backend this host can run.
fn resolve(raw: Option<&str>) -> (KernelBackend, Option<String>) {
    let detected = KernelBackend::detect();
    let raw = raw.unwrap_or("").trim();
    if raw.is_empty() || raw.eq_ignore_ascii_case("auto") {
        return (detected, None);
    }
    match KernelBackend::parse(raw).filter(|b| b.is_available()) {
        Some(backend) => (backend, None),
        None => (
            detected,
            Some(format!(
                "[tensor] DITTO_KERNEL_BACKEND `{raw}` is unknown or not available on this host \
                 (expected auto, scalar, simd, simd:avx2, simd:sse2 or simd:neon); using \
                 `{detected}`"
            )),
        ),
    }
}

// --------------------------------------------------------------------------
// Kernel-dispatch counting (the tensor-level telemetry probe).
// --------------------------------------------------------------------------

/// The hot kernels whose dispatches the telemetry layer counts. One entry
/// per public dispatcher, not per inner loop: a tensor-level convolution
/// counts once as `conv2d_f32` *and* once as `matmul_f32` for the matmul
/// it lowers to — the counts report actual kernel invocations, not
/// logical operations. A compiled plan's conv counts only its matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchKernel {
    /// The f32 matmul: `tensor::ops::matmul_acc_with` and every lowered
    /// convolution.
    MatmulF32,
    /// `tensor::ops::conv2d_into_with` (the tensor-level conv).
    Conv2dF32,
    /// `quant::kernels::int_matmul_with`.
    IntMatmul,
    /// `quant::kernels::delta_matmul_update_with`.
    DeltaMatmulUpdate,
    /// `quant::kernels::attention_delta_scores_with`.
    AttentionDeltaScores,
    /// `quant::kernels::int_scores_with`.
    IntScores,
}

impl DispatchKernel {
    /// Every counted kernel, in table order.
    pub const ALL: [DispatchKernel; 6] = [
        DispatchKernel::MatmulF32,
        DispatchKernel::Conv2dF32,
        DispatchKernel::IntMatmul,
        DispatchKernel::DeltaMatmulUpdate,
        DispatchKernel::AttentionDeltaScores,
        DispatchKernel::IntScores,
    ];

    /// Stable snake-case name matching the perfbench kernel labels.
    pub fn name(self) -> &'static str {
        match self {
            DispatchKernel::MatmulF32 => "matmul_f32",
            DispatchKernel::Conv2dF32 => "conv2d_f32",
            DispatchKernel::IntMatmul => "int_matmul",
            DispatchKernel::DeltaMatmulUpdate => "delta_matmul_update",
            DispatchKernel::AttentionDeltaScores => "attention_delta_scores",
            DispatchKernel::IntScores => "int_scores",
        }
    }
}

/// Whether dispatch counting is on. Off by default: every counted
/// dispatcher pays exactly one relaxed load and one branch.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// `kernel × backend` dispatch counters, the backend axis in
/// [`KernelBackend::ALL`] order.
static DISPATCHES: [[AtomicU64; 4]; DispatchKernel::ALL.len()] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const Z: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const B: [AtomicU64; 4] = [Z; 4];
    [B; DispatchKernel::ALL.len()]
};

/// Turns kernel-dispatch counting on or off (the telemetry layer flips
/// this when a sink is configured; it is never on by default).
pub fn set_dispatch_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether dispatch counting is currently enabled (one relaxed load).
#[inline]
pub fn dispatch_counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Records one kernel dispatch on `backend` when counting is on. The off
/// path is one relaxed load and a branch — cheap enough for every
/// dispatcher entry.
#[inline]
pub fn count_dispatch(kernel: DispatchKernel, backend: KernelBackend) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    DISPATCHES[kernel as usize][backend.index()].fetch_add(1, Ordering::Relaxed);
}

/// One non-zero dispatch counter row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchCount {
    /// Kernel name (`matmul_f32`, …).
    pub kernel: &'static str,
    /// Resolved backend label (`scalar`, `simd:avx2`, …).
    pub backend: String,
    /// Cumulative dispatches since process start (or the last reset).
    pub count: u64,
}

/// A snapshot of every non-zero dispatch counter, in stable kernel-major /
/// backend order. Counters are cumulative — repeated snapshots report
/// running totals, so exporters can emit the latest one.
pub fn dispatch_counts() -> Vec<DispatchCount> {
    let mut rows = Vec::new();
    for kernel in DispatchKernel::ALL {
        for backend in KernelBackend::ALL {
            let count = DISPATCHES[kernel as usize][backend.index()].load(Ordering::Relaxed);
            if count > 0 {
                rows.push(DispatchCount {
                    kernel: kernel.name(),
                    backend: backend.resolved_name(),
                    count,
                });
            }
        }
    }
    rows
}

/// Zeroes every dispatch counter (test isolation; production exporters
/// rely on cumulative totals instead).
pub fn reset_dispatch_counts() {
    for slot in DISPATCHES.iter().flatten() {
        slot.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for b in KernelBackend::ALL {
            let name = b.resolved_name();
            assert_eq!(KernelBackend::parse(&name), Some(b));
            assert_eq!(KernelBackend::parse(&name.to_uppercase()), Some(b));
        }
        assert_eq!(KernelBackend::parse("simd"), SimdLevel::detect().map(KernelBackend::Simd));
        for bad in ["auto", "tiled", "none", "simd:none", "simd:avx512", "", "warp9"] {
            assert_eq!(KernelBackend::parse(bad), None, "{bad}");
        }
    }

    /// Every value `DITTO_KERNEL_BACKEND` can take resolves as the module
    /// docs say: a resolved name is taken as given, `auto` / empty / unset
    /// detect silently, and anything the host cannot run detects with one
    /// warning naming the variable.
    #[test]
    fn env_values_resolve_as_documented() {
        let detected = KernelBackend::detect();
        for b in KernelBackend::available() {
            assert_eq!(resolve(Some(&b.resolved_name())), (b, None));
        }
        for quiet in [None, Some(""), Some("  "), Some("auto"), Some("AUTO")] {
            assert_eq!(resolve(quiet), (detected, None), "{quiet:?}");
        }
        assert_eq!(resolve(Some(" Scalar ")), (KernelBackend::Scalar, None));
        if let Some(level) = SimdLevel::detect() {
            assert_eq!(resolve(Some("simd")), (KernelBackend::Simd(level), None));
        }
        let unavailable =
            KernelBackend::ALL.into_iter().filter(|b| !b.is_available()).map(|b| b.resolved_name());
        let unknown = ["tiled", "none", "simd:none", "simd:avx512", "warp9"].map(String::from);
        for raw in unknown.into_iter().chain(unavailable) {
            let (backend, warning) = resolve(Some(&raw));
            assert_eq!(backend, detected, "{raw}");
            let warning = warning.unwrap_or_else(|| panic!("`{raw}` resolved without a warning"));
            assert!(
                warning.contains("DITTO_KERNEL_BACKEND") && warning.contains(&raw),
                "{warning}"
            );
        }
    }

    #[test]
    fn level_names_roundtrip_through_parse() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
            assert_eq!(SimdLevel::parse(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("none"), None);
        assert_eq!(SimdLevel::parse("avx512"), None);
    }

    #[test]
    fn ladder_ordering_is_explicit() {
        assert!(SimdLevel::Neon < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        for pair in SimdLevel::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn available_levels_match_hardware() {
        let avail = KernelBackend::available();
        for b in KernelBackend::ALL {
            assert_eq!(avail.contains(&b), b.is_available());
        }
        #[cfg(target_arch = "x86_64")]
        {
            assert!(SimdLevel::detect() >= Some(SimdLevel::Sse2), "x86-64 baseline includes SSE2");
            assert!(avail.contains(&KernelBackend::Simd(SimdLevel::Sse2)));
            assert!(!SimdLevel::Neon.is_hw_supported(), "NEON never runs on x86");
        }
        #[cfg(target_arch = "aarch64")]
        {
            assert_eq!(SimdLevel::detect(), Some(SimdLevel::Neon), "NEON is aarch64 baseline");
            assert_eq!(avail, vec![KernelBackend::Scalar, KernelBackend::Simd(SimdLevel::Neon)]);
        }
    }

    #[test]
    fn portable_backends_are_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        let avail = KernelBackend::available();
        assert_eq!(avail.first(), Some(&KernelBackend::Scalar));
        assert_eq!(avail.len(), 1 + SimdLevel::ALL.iter().filter(|l| l.is_hw_supported()).count());
    }

    #[test]
    fn detect_prefers_simd_when_available() {
        match SimdLevel::detect() {
            Some(level) => assert_eq!(KernelBackend::detect(), KernelBackend::Simd(level)),
            None => assert_eq!(KernelBackend::detect(), KernelBackend::Scalar),
        }
        assert!(KernelBackend::detect().is_available());
    }

    #[test]
    fn resolved_names_are_level_qualified() {
        let names: Vec<String> = KernelBackend::ALL.iter().map(|b| b.resolved_name()).collect();
        assert_eq!(names, ["scalar", "simd:neon", "simd:sse2", "simd:avx2"]);
    }

    /// The process default is resolved once, is runnable here, and is what
    /// the variable of this test process names (or detection).
    #[test]
    fn active_is_resolved_once_and_available() {
        let first = active();
        assert!(first.is_available());
        assert_eq!(active(), first);
        let env = std::env::var("DITTO_KERNEL_BACKEND").ok();
        assert_eq!(resolve(env.as_deref()).0, first);
    }

    #[test]
    fn dispatch_counting_is_gated_and_labeled() {
        // `int_scores` is never dispatched by other tests in this binary,
        // so its rows are race-free even under the parallel test harness.
        let row = |rows: &[DispatchCount], backend: &str| {
            rows.iter()
                .find(|r| r.kernel == "int_scores" && r.backend == backend)
                .map_or(0, |r| r.count)
        };
        let sse2 = KernelBackend::Simd(SimdLevel::Sse2);
        let avx2 = KernelBackend::Simd(SimdLevel::Avx2);
        let before: Vec<u64> =
            ["scalar", "simd:sse2", "simd:avx2"].map(|b| row(&dispatch_counts(), b)).to_vec();
        count_dispatch(DispatchKernel::IntScores, KernelBackend::Scalar);
        assert_eq!(
            row(&dispatch_counts(), "scalar"),
            before[0],
            "dispatches must not be counted while counting is off"
        );
        set_dispatch_counting(true);
        assert!(dispatch_counting());
        count_dispatch(DispatchKernel::IntScores, KernelBackend::Scalar);
        count_dispatch(DispatchKernel::IntScores, sse2);
        count_dispatch(DispatchKernel::IntScores, avx2);
        count_dispatch(DispatchKernel::IntScores, avx2);
        set_dispatch_counting(false);
        let rows = dispatch_counts();
        assert_eq!(row(&rows, "scalar"), before[0] + 1);
        assert_eq!(row(&rows, "simd:sse2"), before[1] + 1);
        assert_eq!(row(&rows, "simd:avx2"), before[2] + 2);
    }
}
