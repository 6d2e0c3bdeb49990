//! Micro-kernel layer: shared tiled-loop structure, one instance set per
//! [`Backend`].
//!
//! This module owns the *how* of every GEMM: the stage-level packing and
//! the panel-level loops live here once, and the innermost register-tile
//! arithmetic is dispatched to the scalar / AVX2 / NEON instance named
//! by the plan's [`Backend`]. The callers in [`crate::matrix`] and
//! [`crate::quant`] keep the *global* level — shape checks, kernel
//! choice from the total row count, and the row-panel split across the
//! compute pool — so the three [`TilingScheme`](crate::tiling::TilingScheme)
//! levels map onto three layers of code.
//!
//! Stage buffers are thread-locals ping-ponged between consecutive
//! k-panels (double buffering: the pack of panel `p` writes the buffer
//! panel `p - 2` vacated, never the one panel `p - 1`'s tiles may still
//! have in flight in the store pipeline). Pool workers are long-lived
//! threads, so after the first GEMM the steady state allocates nothing.
//!
//! Dispatch safety: the AVX2 arms execute `#[target_feature]` functions,
//! which is only defined when the host really has AVX2+FMA. Every plan
//! that crosses a trust boundary goes through
//! [`KernelPlan::sanitized`](crate::plan::KernelPlan::sanitized), which
//! replaces unavailable backends with [`Backend::Scalar`], and the
//! dispatchers below re-check availability in debug builds.

use std::cell::RefCell;

use crate::matrix::TILE_ROWS;
use crate::quant::QTILE_ROWS;
use crate::tiling::Backend;

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

/// Fused multiply-add `a * b + c`, the one accumulation primitive every
/// matmul kernel in this crate goes through.
///
/// Rust never contracts `a * b + c` into a hardware FMA on its own (it
/// would change the rounding), which leaves half the machine's FLOP/s on
/// the table. When the build targets an FMA-capable CPU (the workspace
/// `.cargo/config.toml` passes `-C target-cpu=native`) this compiles to a
/// single fused instruction; otherwise it falls back to plain mul+add
/// rather than a libm `fmaf` call, which would be orders of magnitude
/// slower. Routing *all* kernels through the same primitive keeps the
/// batched, per-sample, and naive-oracle paths bit-identical to each
/// other within any one build.
#[inline(always)]
pub(crate) fn fma(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

thread_local! {
    /// Double-buffered f32 stage: two packing buffers alternated across
    /// consecutive k-panels of the tiled matmul.
    static STAGE_F32: RefCell<[Vec<f32>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// Debug-build guard behind every SIMD dispatch arm: a sanitized plan
/// can never carry an unavailable backend, so hitting this means a
/// caller skipped [`KernelPlan::sanitized`](crate::plan::KernelPlan::sanitized).
#[inline]
fn debug_check_available(backend: Backend) {
    debug_assert!(
        backend.is_available(),
        "backend {backend} dispatched on a host without it; plan not sanitized?"
    );
}

/// Tile-level dispatch of the k-panel broadcast-FMA kernel.
#[inline]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
fn tile_fma_dispatch<const TC: usize>(
    backend: Backend,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    k0: usize,
    k1: usize,
    stage: &[f32],
    acc: &mut [[f32; TC]; TILE_ROWS],
) {
    match backend {
        Backend::Scalar => scalar::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: Avx2 only reaches dispatch through a sanitized
            // plan, which guarantees AVX2+FMA are present at runtime.
            unsafe { avx2::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc),
        // Backends for other architectures are unreachable on this one
        // (sanitized plans never carry them) but must still compile.
        #[allow(unreachable_patterns)]
        _ => scalar::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc),
    }
}

/// Dispatch of the streaming `out += x * b` row update. The zero-skip
/// stays at the call sites.
#[inline]
pub(crate) fn axpy_dispatch(backend: Backend, x: f32, b: &[f32], out: &mut [f32]) {
    match backend {
        Backend::Scalar => scalar::axpy(x, b, out),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2+FMA at runtime.
            unsafe { avx2::axpy(x, b, out) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::axpy(x, b, out),
        #[allow(unreachable_patterns)]
        _ => scalar::axpy(x, b, out),
    }
}

/// Dispatch of the lane-parallel dot product.
#[inline]
fn dot_dispatch(backend: Backend, a: &[f32], b: &[f32]) -> f32 {
    match backend {
        Backend::Scalar => scalar::dot_lanes(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2+FMA at runtime.
            unsafe { avx2::dot_lanes(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::dot_lanes(a, b),
        #[allow(unreachable_patterns)]
        _ => scalar::dot_lanes(a, b),
    }
}

/// Dispatch of the 2×4 dot-product register tile.
#[inline]
fn tile_2x4_dispatch(
    backend: Backend,
    a0: &[f32],
    a1: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [[f32; 4]; 2] {
    match backend {
        Backend::Scalar => scalar::tile_2x4(a0, a1, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2+FMA at runtime.
            unsafe { avx2::tile_2x4(a0, a1, b0, b1, b2, b3) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::tile_2x4(a0, a1, b0, b1, b2, b3),
        #[allow(unreachable_patterns)]
        _ => scalar::tile_2x4(a0, a1, b0, b1, b2, b3),
    }
}

/// Dispatch of the 4-row int8 tile. Bit-identical across backends
/// (exact integer accumulation), so this needs no accuracy gate.
#[inline]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) fn qtile_dispatch<const TC: usize>(
    backend: Backend,
    x_q: &[i8],
    k: usize,
    w: &[i8],
    n: usize,
    i0: usize,
    j0: usize,
    acc: &mut [[i32; TC]; QTILE_ROWS],
) {
    match backend {
        Backend::Scalar => scalar::qtile::<TC>(x_q, k, w, n, i0, j0, acc),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2 at runtime.
            unsafe { avx2::qtile::<TC>(x_q, k, w, n, i0, j0, acc) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::qtile::<TC>(x_q, k, w, n, i0, j0, acc),
        #[allow(unreachable_patterns)]
        _ => scalar::qtile::<TC>(x_q, k, w, n, i0, j0, acc),
    }
}

/// Dispatch of the single-row int8 strip kernel. Bit-identical across
/// backends (exact integer accumulation). AVX2 runs the scalar kernel,
/// which the compiler auto-vectorises: a `madd_epi16` row kernel only
/// tied it at batch 1, where no second row reuses a widened weight pair.
#[inline]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) fn qrow_dispatch<const TC: usize>(
    backend: Backend,
    x_row: &[i8],
    w: &[i8],
    n: usize,
    j0: usize,
    jw: usize,
    acc: &mut [i32; TC],
) {
    match backend {
        Backend::Scalar => scalar::qrow::<TC>(x_row, w, n, j0, jw, acc),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::qrow::<TC>(x_row, w, n, j0, jw, acc),
        #[allow(unreachable_patterns)]
        _ => scalar::qrow::<TC>(x_row, w, n, j0, jw, acc),
    }
}

/// Dispatch of the packed-row i8×i8→i32 dot product. Bit-identical
/// across backends (exact integer accumulation).
#[inline]
pub(crate) fn qdot_dispatch(backend: Backend, a: &[i8], b: &[i8]) -> i32 {
    match backend {
        Backend::Scalar => scalar::qdot(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2 at runtime.
            unsafe { avx2::qdot(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::qdot(a, b),
        #[allow(unreachable_patterns)]
        _ => scalar::qdot(a, b),
    }
}

/// Dispatch of the 4-rows-vs-one-query i8 dot-product tile.
/// Bit-identical across backends (exact integer accumulation).
#[inline]
pub(crate) fn qdot4_dispatch(
    backend: Backend,
    q: &[i8],
    r0: &[i8],
    r1: &[i8],
    r2: &[i8],
    r3: &[i8],
) -> [i32; 4] {
    match backend {
        Backend::Scalar => scalar::qdot4(q, r0, r1, r2, r3),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2 at runtime.
            unsafe { avx2::qdot4(q, r0, r1, r2, r3) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::qdot4(q, r0, r1, r2, r3),
        #[allow(unreachable_patterns)]
        _ => scalar::qdot4(q, r0, r1, r2, r3),
    }
}

/// Tiled-matmul panel: output rows `[r0, r1)` of `lhs · rhs`, written
/// into `panel` (panel-local indexing; must arrive zeroed or holding the
/// running accumulation).
///
/// The loop realises the f32 [`TilingScheme`](crate::tiling::TilingScheme):
/// per `TC`-wide column strip, each `panel_k`-deep slice of `rhs` is
/// packed into the thread's stage buffer (alternating between the two
/// buffers), the 4-row register tiles of the panel consume the packed
/// strip through the backend's `tile_fma`, remainder rows take the
/// zero-skipping single-row path over the same stage, and the ragged
/// column tail (`n % TC`) runs the streaming axpy update directly on
/// `rhs`. Packing changes addresses, not values or accumulation order,
/// so the scalar backend stays bit-identical to the pre-stage kernel.
#[allow(clippy::too_many_arguments)] // panel geometry is inherently wide
pub(crate) fn matmul_tiled_panel<const TC: usize>(
    backend: Backend,
    lhs: &[f32],
    k_total: usize,
    rhs: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    panel: &mut [f32],
    panel_k: usize,
) {
    let panel_k = panel_k.max(1);
    let base = r0 * n;
    let row = |i: usize| &lhs[i * k_total..(i + 1) * k_total];
    STAGE_F32.with(|cell| {
        let mut bufs = cell.borrow_mut();
        let mut j = 0;
        while j + TC <= n {
            let mut k0 = 0;
            let mut parity = 0;
            while k0 < k_total {
                let k1 = (k0 + panel_k).min(k_total);
                let stage = &mut bufs[parity];
                stage.clear();
                stage.resize((k1 - k0) * TC, 0.0);
                for (idx, k) in (k0..k1).enumerate() {
                    stage[idx * TC..(idx + 1) * TC]
                        .copy_from_slice(&rhs[k * n + j..k * n + j + TC]);
                }
                let stage = &bufs[parity];
                let mut i = r0;
                while i + TILE_ROWS <= r1 {
                    let mut acc = [[0.0f32; TC]; TILE_ROWS];
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let at = (i + r) * n + j - base;
                        acc_row.copy_from_slice(&panel[at..at + TC]);
                    }
                    tile_fma_dispatch::<TC>(
                        backend,
                        row(i),
                        row(i + 1),
                        row(i + 2),
                        row(i + 3),
                        k0,
                        k1,
                        stage,
                        &mut acc,
                    );
                    for (r, acc_row) in acc.iter().enumerate() {
                        let at = (i + r) * n + j - base;
                        panel[at..at + TC].copy_from_slice(acc_row);
                    }
                    i += TILE_ROWS;
                }
                // Row remainder: one row at a time, zero-skip restored.
                while i < r1 {
                    let mut acc = [0.0f32; TC];
                    let at = i * n + j - base;
                    acc.copy_from_slice(&panel[at..at + TC]);
                    scalar::row_tail_fma::<TC>(row(i), k0, k1, stage, &mut acc);
                    panel[at..at + TC].copy_from_slice(&acc);
                    i += 1;
                }
                k0 = k1;
                parity ^= 1;
            }
            j += TC;
        }
        // Column tail (n % TC): streaming zero-skip axpy over the tail.
        if j < n {
            for i in r0..r1 {
                for (k, &x) in row(i).iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    let b_tail = &rhs[k * n + j..(k + 1) * n];
                    let (o0, o1) = (i * n + j - base, (i + 1) * n - base);
                    axpy_dispatch(backend, x, b_tail, &mut panel[o0..o1]);
                }
            }
        }
    });
}

/// Axpy-matmul panel: output rows `[r0, r1)` via the zero-skipping
/// streaming kernel — the small-batch and per-sample (`rows == 1`) path,
/// where post-ReLU sparsity beats register tiling.
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) fn matmul_axpy_panel(
    backend: Backend,
    lhs: &[f32],
    k_total: usize,
    rhs: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    panel: &mut [f32],
) {
    for i in r0..r1 {
        let a_row = &lhs[i * k_total..(i + 1) * k_total];
        let out_row = &mut panel[(i - r0) * n..(i - r0 + 1) * n];
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            axpy_dispatch(backend, a, &rhs[k * n..(k + 1) * n], out_row);
        }
    }
}

/// `lhs · rhsᵀ` panel: output rows `[r0, r1)` as 2×4 register tiles of
/// dot products with single-row/column tails.
#[allow(clippy::too_many_arguments)] // panel geometry is inherently wide
pub(crate) fn matmul_transpose_panel(
    backend: Backend,
    lhs: &[f32],
    k_total: usize,
    rhs: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    panel: &mut [f32],
) {
    let base = r0 * n;
    let a_row = |i: usize| &lhs[i * k_total..(i + 1) * k_total];
    let b_row = |j: usize| &rhs[j * k_total..(j + 1) * k_total];
    let mut i = r0;
    while i + 2 <= r1 {
        let a0 = a_row(i);
        let a1 = a_row(i + 1);
        let mut j = 0;
        while j + 4 <= n {
            let t = tile_2x4_dispatch(
                backend,
                a0,
                a1,
                b_row(j),
                b_row(j + 1),
                b_row(j + 2),
                b_row(j + 3),
            );
            panel[i * n + j - base..i * n + j + 4 - base].copy_from_slice(&t[0]);
            panel[(i + 1) * n + j - base..(i + 1) * n + j + 4 - base].copy_from_slice(&t[1]);
            j += 4;
        }
        while j < n {
            let b = b_row(j);
            panel[i * n + j - base] = dot_dispatch(backend, a0, b);
            panel[(i + 1) * n + j - base] = dot_dispatch(backend, a1, b);
            j += 1;
        }
        i += 2;
    }
    if i < r1 {
        let a0 = a_row(i);
        for j in 0..n {
            panel[i * n + j - base] = dot_dispatch(backend, a0, b_row(j));
        }
    }
}

/// `lhsᵀ · rhs` panel: output rows `[c0, c1)` — i.e. columns `c0..c1`
/// of `lhs` — via the r-outer, zero-skipping gradient scatter.
#[allow(clippy::too_many_arguments)] // panel geometry is inherently wide
pub(crate) fn transpose_matmul_panel(
    backend: Backend,
    lhs: &[f32],
    lhs_cols: usize,
    rows: usize,
    rhs: &[f32],
    n: usize,
    c0: usize,
    c1: usize,
    panel: &mut [f32],
) {
    for r in 0..rows {
        let a_row = &lhs[r * lhs_cols + c0..r * lhs_cols + c1];
        let b_row = &rhs[r * n..(r + 1) * n];
        for (i, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            axpy_dispatch(backend, a, b_row, &mut panel[i * n..(i + 1) * n]);
        }
    }
}
