//! Kernel-backend selection: the process-wide seam every hot compute
//! kernel dispatches through.
//!
//! Three backends exist, and **all of them produce bit-identical results
//! for every kernel** — the Ditto equivalence chain (and the serve memo's
//! cross-request guarantees) rest on exact accumulator values, so a
//! backend is only ever a *performance* choice:
//!
//! * [`KernelBackend::Scalar`] — the pre-tiling reference loops, kept as
//!   ground truth for tests and benchmarks.
//! * [`KernelBackend::Tiled`] — cache-blocked, autovectorization-friendly
//!   loop nests (the previous default). Bit-identical to scalar because
//!   tiling only reorders *which output rows are visited when*; each
//!   output element still accumulates in ascending-`k` order.
//! * [`KernelBackend::Simd`] — explicit `std::arch` intrinsics at the
//!   active [`SimdLevel`] (AVX2/SSE2 on x86, NEON on aarch64). The integer
//!   kernels reassociate freely (wrapping-`i32` addition is associative,
//!   so SIMD sums equal the scalar ones exactly). The `f32` kernels never
//!   reassociate: every SIMD lane is one independent output element whose
//!   products are folded in ascending-`k` order from an explicit `0.0`
//!   seed with separate correctly rounded `mul`/`add` (never FMA), which
//!   is bit-identical to the scalar fold by construction.
//!
//! # The SIMD-level ladder
//!
//! [`SimdLevel`] orders the instruction tiers `None < Neon < Sse2 < Avx2`.
//! Two levels matter at runtime:
//!
//! * [`hw_simd_level`] — what the host silicon supports, detected once and
//!   immutable for the life of the process.
//! * [`simd_level`] — the *active* level every `Simd`-backend kernel
//!   dispatches on. Resolved on first use from `DITTO_SIMD_LEVEL`
//!   (`avx2`, `sse2`, `neon`, `none`, or `auto`; values the hardware
//!   cannot run warn once on stderr and fall back to detection), and
//!   overridable at runtime with [`set_simd_level`] — the hook the
//!   cross-level bit-identity test matrices and perfbench's per-level rows
//!   use to exercise SSE2 kernels on an AVX2 host.
//!
//! Forcing the level *down* is always allowed (an AVX2 host runs SSE2
//! code); forcing it up or across ISA families is not ([`set_simd_level`]
//! rejects, the env fallback warns). `DITTO_SIMD_LEVEL=none` makes the
//! `Simd` backend unavailable, so `DITTO_KERNEL_BACKEND=simd` degrades to
//! `tiled` — and the serve protocol reports the *resolved* backend (e.g.
//! `tiled`, or `simd:sse2`) via [`KernelBackend::resolved_name`], never
//! the requested one.
//!
//! # Selection
//!
//! The active backend is resolved once per process, in this order:
//!
//! 1. `DITTO_KERNEL_BACKEND` — `scalar`, `tiled`, `simd`, or `auto`. An
//!    unknown or unavailable value warns on stderr and falls through to
//!    detection, so a `simd` job on a host without SIMD degrades
//!    gracefully instead of dying.
//! 2. CPU detection ([`KernelBackend::detect`]): `Simd` wherever the
//!    intrinsics exist, `Tiled` elsewhere.
//!
//! [`set_active`] overrides the resolved backend at runtime — the serve
//! wire protocol's optional `backend` field and the cross-backend test
//! matrices go through it. Because every backend is bit-identical, a
//! concurrent override can never change any result, only its speed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// The compute-kernel implementations a process can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Reference scalar loops (`ikj` order, zero-skip).
    Scalar,
    /// Cache-blocked tiled loops relying on autovectorization.
    Tiled,
    /// Explicit SIMD intrinsics at the active [`SimdLevel`] for both the
    /// integer and `f32` kernels (fixed-order lane reduction keeps the
    /// float results bit-identical).
    Simd,
}

/// Explicit-SIMD instruction tier. Variants are declared ascending so the
/// derived ordering is the ladder itself: `None < Neon < Sse2 < Avx2`.
///
/// The ordering ranks kernel width/throughput (NEON and SSE2 are both
/// 128-bit, but the x86 tiers can widen to AVX2 while NEON cannot); use
/// [`SimdLevel::is_hw_supported`] — not the ordering — to ask whether a
/// level can *run* here, since the ISA families never overlap on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// No SIMD intrinsics; the `Simd` backend is unavailable.
    None,
    /// 128-bit aarch64 NEON kernels.
    Neon,
    /// 128-bit x86 SSE2 kernels.
    Sse2,
    /// 256-bit x86 AVX2 kernels.
    Avx2,
}

impl SimdLevel {
    /// Every level, ascending the ladder.
    pub const ALL: [SimdLevel; 4] =
        [SimdLevel::None, SimdLevel::Neon, SimdLevel::Sse2, SimdLevel::Avx2];

    /// Wire/log name of the level, as accepted by [`SimdLevel::parse`] and
    /// `DITTO_SIMD_LEVEL`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Neon => "neon",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a level name (case-insensitive). Returns `None` for unknown
    /// names — including `auto`, which callers resolve through
    /// [`hw_simd_level`] instead.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(SimdLevel::None),
            "neon" => Some(SimdLevel::Neon),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Whether the host silicon can execute this level. `None` always can
    /// (it just means "no SIMD"); NEON requires an aarch64 host; the x86
    /// tiers require detected x86 features at or above the level.
    pub fn is_hw_supported(self) -> bool {
        match self {
            SimdLevel::None => true,
            SimdLevel::Neon => hw_simd_level() == SimdLevel::Neon,
            level => hw_simd_level() >= level,
        }
    }

    fn encode(self) -> u8 {
        match self {
            SimdLevel::None => 1,
            SimdLevel::Neon => 2,
            SimdLevel::Sse2 => 3,
            SimdLevel::Avx2 => 4,
        }
    }

    fn decode(v: u8) -> Option<SimdLevel> {
        match v {
            1 => Some(SimdLevel::None),
            2 => Some(SimdLevel::Neon),
            3 => Some(SimdLevel::Sse2),
            4 => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One-time runtime CPU-feature detection: the best SIMD level the host
/// silicon supports. Immutable for the life of the process — the *active*
/// level ([`simd_level`]) starts here but can be forced lower.
///
/// On x86/x86-64 this probes AVX2 then SSE2 with
/// `is_x86_feature_detected!`; aarch64 always has NEON (it is baseline);
/// every other architecture returns [`SimdLevel::None`].
pub fn hw_simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect_hw_simd_level)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn detect_hw_simd_level() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else if std::arch::is_x86_feature_detected!("sse2") {
        SimdLevel::Sse2
    } else {
        SimdLevel::None
    }
}

#[cfg(target_arch = "aarch64")]
fn detect_hw_simd_level() -> SimdLevel {
    SimdLevel::Neon
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64")))]
fn detect_hw_simd_level() -> SimdLevel {
    SimdLevel::None
}

/// The SIMD levels this host can run, ascending the ladder (always
/// starting with [`SimdLevel::None`]) — the axis the cross-level
/// bit-identity matrices and perfbench's per-level rows sweep. An AVX2
/// host yields `[none, sse2, avx2]`; an aarch64 host `[none, neon]`.
pub fn available_simd_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL.into_iter().filter(|l| l.is_hw_supported()).collect()
}

/// The process-wide active SIMD level: 0 = unresolved, else
/// `SimdLevel::encode`.
static ACTIVE_LEVEL: AtomicU8 = AtomicU8::new(0);

/// The *active* SIMD level every `Simd`-backend kernel dispatches on,
/// resolving `DITTO_SIMD_LEVEL` / hardware detection on first use. One
/// relaxed atomic load on the hot path.
pub fn simd_level() -> SimdLevel {
    match SimdLevel::decode(ACTIVE_LEVEL.load(Ordering::Relaxed)) {
        Some(l) => l,
        None => {
            let resolved = resolve_level_from_env();
            // Publish only if still unresolved, so a racing
            // `set_simd_level` override is never clobbered (same CAS
            // pattern as the backend's `ACTIVE`).
            match ACTIVE_LEVEL.compare_exchange(
                0,
                resolved.encode(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => resolved,
                Err(winner) => {
                    SimdLevel::decode(winner).expect("non-zero ACTIVE_LEVEL values are encodings")
                }
            }
        }
    }
}

/// Error returned by [`set_simd_level`] for a level the host cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelUnavailable {
    /// The rejected level.
    pub level: SimdLevel,
}

impl std::fmt::Display for LevelUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simd level `{}` is not supported by this host (hardware level: `{}`)",
            self.level,
            hw_simd_level()
        )
    }
}

impl std::error::Error for LevelUnavailable {}

/// Overrides the active SIMD level for the rest of the process (or until
/// the next call) — the test hook that lets an AVX2 host exercise its SSE2
/// kernels, or force `None` to make the `Simd` backend unavailable.
/// Results are bit-identical across levels, so flipping this concurrently
/// with running kernels is benign — it changes speed, never values.
///
/// # Errors
///
/// [`LevelUnavailable`] if the host silicon cannot execute `level`
/// (forcing *up* the ladder, or across ISA families); the active level is
/// left unchanged.
pub fn set_simd_level(level: SimdLevel) -> Result<(), LevelUnavailable> {
    if !level.is_hw_supported() {
        return Err(LevelUnavailable { level });
    }
    ACTIVE_LEVEL.store(level.encode(), Ordering::Relaxed);
    Ok(())
}

/// Resolves the startup SIMD level from `DITTO_SIMD_LEVEL`, falling back
/// to hardware detection with a (once-only) stderr warning on unknown or
/// hardware-unsupported values.
fn resolve_level_from_env() -> SimdLevel {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let warn_once = |msg: String| {
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!("{msg}");
        }
    };
    match std::env::var("DITTO_SIMD_LEVEL") {
        Ok(raw) if !raw.trim().is_empty() && !raw.trim().eq_ignore_ascii_case("auto") => {
            match SimdLevel::parse(raw.trim()) {
                Some(l) if l.is_hw_supported() => l,
                Some(l) => {
                    let fallback = hw_simd_level();
                    warn_once(format!(
                        "[tensor] DITTO_SIMD_LEVEL={l} is not supported by this host; \
                         using `{fallback}`"
                    ));
                    fallback
                }
                None => {
                    let fallback = hw_simd_level();
                    warn_once(format!(
                        "[tensor] unknown DITTO_SIMD_LEVEL `{raw}` \
                         (expected none|neon|sse2|avx2|auto); using `{fallback}`"
                    ));
                    fallback
                }
            }
        }
        _ => hw_simd_level(),
    }
}

impl KernelBackend {
    /// Every backend, in `scalar < tiled < simd` "optimization order".
    /// Filter with [`KernelBackend::is_available`] (or use
    /// [`KernelBackend::available`]) before dispatching.
    pub const ALL: [KernelBackend; 3] =
        [KernelBackend::Scalar, KernelBackend::Tiled, KernelBackend::Simd];

    /// Canonical lower-case name, as accepted by [`KernelBackend::parse`],
    /// `DITTO_KERNEL_BACKEND`, and the serve wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Tiled => "tiled",
            KernelBackend::Simd => "simd",
        }
    }

    /// The *resolved* name, qualifying `Simd` with the active instruction
    /// level (`simd:avx2`, `simd:sse2`, `simd:neon`). Serve responses and
    /// perfbench rows report this instead of [`KernelBackend::name`] so a
    /// `simd` request that resolved lower is never reported as bare
    /// `simd`. `Scalar`/`Tiled` resolve to their plain names.
    pub fn resolved_name(self) -> String {
        match self {
            KernelBackend::Scalar | KernelBackend::Tiled => self.name().to_string(),
            KernelBackend::Simd => format!("simd:{}", simd_level().name()),
        }
    }

    /// Parses a backend name (case-insensitive). Returns `None` for
    /// unknown names — including `auto`, which callers resolve through
    /// [`KernelBackend::detect`] instead.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "tiled" => Some(KernelBackend::Tiled),
            "simd" => Some(KernelBackend::Simd),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host. `Scalar` and
    /// `Tiled` are portable; `Simd` requires a non-`None` *active* SIMD
    /// level — so `DITTO_SIMD_LEVEL=none` (or `set_simd_level(None)`)
    /// makes it unavailable even on SIMD-capable silicon.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar | KernelBackend::Tiled => true,
            KernelBackend::Simd => simd_level() != SimdLevel::None,
        }
    }

    /// The backends available on this host, in [`KernelBackend::ALL`]
    /// order — the axis every cross-backend bit-identity test iterates.
    pub fn available() -> Vec<KernelBackend> {
        KernelBackend::ALL.into_iter().filter(|b| b.is_available()).collect()
    }

    /// The best available backend: `Simd` where intrinsics exist (at the
    /// active level), `Tiled` elsewhere.
    pub fn detect() -> KernelBackend {
        if KernelBackend::Simd.is_available() {
            KernelBackend::Simd
        } else {
            KernelBackend::Tiled
        }
    }

    fn encode(self) -> u8 {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Tiled => 2,
            KernelBackend::Simd => 3,
        }
    }

    fn decode(v: u8) -> Option<KernelBackend> {
        match v {
            1 => Some(KernelBackend::Scalar),
            2 => Some(KernelBackend::Tiled),
            3 => Some(KernelBackend::Simd),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`set_active`] for a backend the host cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendUnavailable {
    /// The rejected backend.
    pub backend: KernelBackend,
}

impl std::fmt::Display for BackendUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel backend `{}` is not available on this host", self.backend)
    }
}

impl std::error::Error for BackendUnavailable {}

/// The process-wide active backend: 0 = unresolved, else
/// `KernelBackend::encode`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The process-wide active kernel backend, resolving
/// `DITTO_KERNEL_BACKEND` / CPU detection on first use (see the module
/// docs for the order). This is one relaxed atomic load on the hot path.
pub fn active() -> KernelBackend {
    match KernelBackend::decode(ACTIVE.load(Ordering::Relaxed)) {
        Some(b) => b,
        None => {
            let resolved = resolve_from_env();
            // Publish only if still unresolved: a plain store could
            // clobber a `set_active` override that raced with this
            // resolution. Racing first calls resolve the same value, so
            // whichever install wins is correct either way.
            match ACTIVE.compare_exchange(
                0,
                resolved.encode(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => resolved,
                Err(winner) => {
                    KernelBackend::decode(winner).expect("non-zero ACTIVE values are encodings")
                }
            }
        }
    }
}

/// Overrides the active backend for the rest of the process (or until the
/// next call). Results are bit-identical across backends, so flipping this
/// concurrently with running kernels is benign — it changes speed, never
/// values.
///
/// # Errors
///
/// [`BackendUnavailable`] if the host cannot run `backend`; the active
/// backend is left unchanged.
pub fn set_active(backend: KernelBackend) -> Result<(), BackendUnavailable> {
    if !backend.is_available() {
        return Err(BackendUnavailable { backend });
    }
    ACTIVE.store(backend.encode(), Ordering::Relaxed);
    Ok(())
}

/// Resolves the startup backend from `DITTO_KERNEL_BACKEND`, falling back
/// to detection with a (once-only) stderr warning on unknown or
/// unavailable values.
fn resolve_from_env() -> KernelBackend {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let warn_once = |msg: String| {
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!("{msg}");
        }
    };
    match std::env::var("DITTO_KERNEL_BACKEND") {
        Ok(raw) if !raw.trim().is_empty() && !raw.trim().eq_ignore_ascii_case("auto") => {
            match KernelBackend::parse(raw.trim()) {
                Some(b) if b.is_available() => b,
                Some(b) => {
                    let fallback = KernelBackend::detect();
                    warn_once(format!(
                        "[tensor] DITTO_KERNEL_BACKEND={b} is not available on this host \
                         (simd level: {}); using `{fallback}`",
                        simd_level().name()
                    ));
                    fallback
                }
                None => {
                    let fallback = KernelBackend::detect();
                    warn_once(format!(
                        "[tensor] unknown DITTO_KERNEL_BACKEND `{raw}` \
                         (expected scalar|tiled|simd|auto); using `{fallback}`"
                    ));
                    fallback
                }
            }
        }
        _ => KernelBackend::detect(),
    }
}

// --------------------------------------------------------------------------
// Kernel-dispatch counting (the tensor-level telemetry probe).
// --------------------------------------------------------------------------

/// The hot kernels whose dispatches the telemetry layer counts. One entry
/// per public dispatcher, not per inner loop: a convolution that lowers to
/// im2col counts once as `conv2d_f32` *and* once as `matmul_f32` for the
/// matmul it rides — the counts report actual kernel invocations, not
/// logical operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchKernel {
    /// `tensor::ops::matmul_acc_with` (also reached via `matmul`/im2col).
    MatmulF32,
    /// `tensor::ops::matvec_with`.
    MatvecF32,
    /// `tensor::ops::conv2d_into_with` (shape-classed route).
    Conv2dF32,
    /// `tensor::ops::conv2d_direct_into_with` — the lowering-free direct
    /// path the compiled-plan `Conv2dDirect` opcode dispatches (SIMD strip
    /// kernel or the portable direct loop; never im2col).
    Conv2dDirectF32,
    /// `quant::kernels::int_matmul_with`.
    IntMatmul,
    /// No dispatcher counts it any more: the integer direct convolution is
    /// gone (integer convs lower to im2col + `int_matmul`). The row stays,
    /// always zero, because `benchmark/` reads it by name.
    IntConv2dDirect,
    /// `quant::kernels::delta_matmul_update_with`.
    DeltaMatmulUpdate,
    /// `quant::kernels::attention_delta_scores_with`.
    AttentionDeltaScores,
    /// `quant::kernels::int_scores_with`.
    IntScores,
}

impl DispatchKernel {
    /// Every counted kernel, in table order.
    pub const ALL: [DispatchKernel; 9] = [
        DispatchKernel::MatmulF32,
        DispatchKernel::MatvecF32,
        DispatchKernel::Conv2dF32,
        DispatchKernel::Conv2dDirectF32,
        DispatchKernel::IntMatmul,
        DispatchKernel::IntConv2dDirect,
        DispatchKernel::DeltaMatmulUpdate,
        DispatchKernel::AttentionDeltaScores,
        DispatchKernel::IntScores,
    ];

    /// Stable snake-case name matching the perfbench kernel labels.
    pub fn name(self) -> &'static str {
        match self {
            DispatchKernel::MatmulF32 => "matmul_f32",
            DispatchKernel::MatvecF32 => "matvec_f32",
            DispatchKernel::Conv2dF32 => "conv2d_f32",
            DispatchKernel::Conv2dDirectF32 => "conv2d_direct_f32",
            DispatchKernel::IntMatmul => "int_matmul",
            DispatchKernel::IntConv2dDirect => "int_conv2d_direct",
            DispatchKernel::DeltaMatmulUpdate => "delta_matmul_update",
            DispatchKernel::AttentionDeltaScores => "attention_delta_scores",
            DispatchKernel::IntScores => "int_scores",
        }
    }
}

/// Whether dispatch counting is on. Off by default: every counted
/// dispatcher pays exactly one relaxed load and one branch.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// `kernel × backend × simd-level` dispatch counters. Scalar/tiled
/// dispatches land in the `SimdLevel::None` slot (their level is
/// irrelevant); `Simd` dispatches land in the slot of the level *resolved
/// at call time*, so a mid-run `set_simd_level` shows up as separate rows.
static DISPATCHES: [[[AtomicU64; 4]; 3]; 9] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const Z: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const L: [AtomicU64; 4] = [Z; 4];
    #[allow(clippy::declare_interior_mutable_const)]
    const B: [[AtomicU64; 4]; 3] = [L; 3];
    [B; 9]
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

/// Records one kernel dispatch when counting is on. The off path is one
/// relaxed load and a branch — cheap enough for every dispatcher entry.
#[inline]
pub fn count_dispatch(kernel: DispatchKernel, backend: KernelBackend) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let level = match backend {
        KernelBackend::Simd => simd_level(),
        _ => SimdLevel::None,
    };
    DISPATCHES[kernel as usize][backend.encode() as usize - 1][level.encode() as usize - 1]
        .fetch_add(1, Ordering::Relaxed);
}

/// One non-zero dispatch counter row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchCount {
    /// Kernel name (`matmul_f32`, …).
    pub kernel: &'static str,
    /// Resolved backend label (`scalar`, `tiled`, `simd:avx2`, …).
    pub backend: String,
    /// Cumulative dispatches since process start (or the last reset).
    pub count: u64,
}

/// A snapshot of every non-zero dispatch counter, in stable
/// kernel-major/backend/level order. Counters are cumulative — repeated
/// snapshots report running totals, so exporters can emit the latest one.
pub fn dispatch_counts() -> Vec<DispatchCount> {
    let mut rows = Vec::new();
    for kernel in DispatchKernel::ALL {
        for backend in KernelBackend::ALL {
            for level in SimdLevel::ALL {
                let n = DISPATCHES[kernel as usize][backend.encode() as usize - 1]
                    [level.encode() as usize - 1]
                    .load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                let label = match backend {
                    KernelBackend::Simd => format!("simd:{}", level.name()),
                    other => other.name().to_string(),
                };
                rows.push(DispatchCount { kernel: kernel.name(), backend: label, count: n });
            }
        }
    }
    rows
}

/// Zeroes every dispatch counter (test isolation; production exporters
/// rely on cumulative totals instead).
pub fn reset_dispatch_counts() {
    for kernel in &DISPATCHES {
        for backend in kernel {
            for slot in backend {
                slot.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
            assert_eq!(KernelBackend::parse(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(KernelBackend::parse("auto"), None);
        assert_eq!(KernelBackend::parse("warp9"), None);
    }

    #[test]
    fn level_names_roundtrip_through_parse() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
            assert_eq!(SimdLevel::parse(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("avx512"), None);
    }

    #[test]
    fn ladder_ordering_is_explicit() {
        assert!(SimdLevel::None < SimdLevel::Neon);
        assert!(SimdLevel::Neon < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        // ALL ascends the ladder.
        for pair in SimdLevel::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn available_levels_match_hardware() {
        let avail = available_simd_levels();
        assert_eq!(avail.first(), Some(&SimdLevel::None), "`none` is always available");
        for l in SimdLevel::ALL {
            assert_eq!(avail.contains(&l), l.is_hw_supported());
        }
        #[cfg(target_arch = "x86_64")]
        {
            assert_ne!(hw_simd_level(), SimdLevel::None, "x86-64 baseline includes SSE2");
            assert!(avail.contains(&SimdLevel::Sse2));
            assert!(!avail.contains(&SimdLevel::Neon), "NEON never runs on x86");
        }
        #[cfg(target_arch = "aarch64")]
        {
            assert_eq!(hw_simd_level(), SimdLevel::Neon, "NEON is aarch64 baseline");
            assert_eq!(avail, vec![SimdLevel::None, SimdLevel::Neon]);
        }
    }

    #[test]
    fn portable_backends_are_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::Tiled.is_available());
        let avail = KernelBackend::available();
        assert!(avail.len() >= 2);
        assert_eq!(avail.contains(&KernelBackend::Simd), KernelBackend::Simd.is_available());
    }

    #[test]
    fn detect_prefers_simd_when_available() {
        let detected = KernelBackend::detect();
        if KernelBackend::Simd.is_available() {
            assert_eq!(detected, KernelBackend::Simd);
        } else {
            assert_eq!(detected, KernelBackend::Tiled);
        }
    }

    #[test]
    fn resolved_names_are_level_qualified() {
        assert_eq!(KernelBackend::Scalar.resolved_name(), "scalar");
        assert_eq!(KernelBackend::Tiled.resolved_name(), "tiled");
        // Another test in this binary owns (and mutates) the active level,
        // so only assert the shape here: `simd:<parseable level>`.
        let resolved = KernelBackend::Simd.resolved_name();
        let suffix = resolved.strip_prefix("simd:").expect("Simd resolves level-qualified");
        assert!(SimdLevel::parse(suffix).is_some(), "unknown level `{suffix}`");
    }

    #[test]
    fn set_active_switches_and_rejects_unavailable() {
        // One test owns the globals to avoid cross-test interference on
        // the asserted-active values (results never depend on them, but
        // these assertions do). Restore the resolved defaults afterwards.
        let initial = active();
        for b in KernelBackend::available() {
            set_active(b).unwrap();
            assert_eq!(active(), b);
        }
        if !KernelBackend::Simd.is_available() {
            set_active(KernelBackend::Tiled).unwrap();
            let err = set_active(KernelBackend::Simd).unwrap_err();
            assert_eq!(err.backend, KernelBackend::Simd);
            assert_eq!(active(), KernelBackend::Tiled, "failed set must not switch");
        }
        set_active(initial).unwrap();

        // Level overrides: every hardware-supported level can be forced,
        // forcing `None` makes the `Simd` backend unavailable, and
        // hardware-unsupported levels are rejected without switching.
        let initial_level = simd_level();
        for l in available_simd_levels() {
            set_simd_level(l).unwrap();
            assert_eq!(simd_level(), l);
            assert_eq!(KernelBackend::Simd.is_available(), l != SimdLevel::None);
            if l == SimdLevel::None {
                assert_eq!(
                    set_active(KernelBackend::Simd).unwrap_err().backend,
                    KernelBackend::Simd
                );
                assert_eq!(KernelBackend::detect(), KernelBackend::Tiled);
            }
        }
        for l in SimdLevel::ALL {
            if !l.is_hw_supported() {
                set_simd_level(hw_simd_level()).unwrap();
                let err = set_simd_level(l).unwrap_err();
                assert_eq!(err.level, l);
                assert_eq!(simd_level(), hw_simd_level(), "failed set must not switch");
            }
        }
        set_simd_level(initial_level).unwrap();
        set_active(initial).unwrap();
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
        let before = row(&dispatch_counts(), "scalar");
        count_dispatch(DispatchKernel::IntScores, KernelBackend::Scalar);
        assert_eq!(
            row(&dispatch_counts(), "scalar"),
            before,
            "dispatches must not be counted while counting is off"
        );
        set_dispatch_counting(true);
        assert!(dispatch_counting());
        count_dispatch(DispatchKernel::IntScores, KernelBackend::Scalar);
        count_dispatch(DispatchKernel::IntScores, KernelBackend::Tiled);
        count_dispatch(DispatchKernel::IntScores, KernelBackend::Simd);
        set_dispatch_counting(false);
        let rows = dispatch_counts();
        assert_eq!(row(&rows, "scalar"), before + 1);
        assert!(row(&rows, "tiled") >= 1);
        // The Simd row is labeled with the level resolved at call time
        // (`simd:<level>`); another test may flip the level concurrently,
        // so only the label shape is asserted.
        assert!(rows
            .iter()
            .any(|r| r.kernel == "int_scores" && r.backend.starts_with("simd:") && r.count >= 1));
    }
}
