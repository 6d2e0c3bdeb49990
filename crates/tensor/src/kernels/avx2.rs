//! AVX2 + FMA micro-kernels (`x86_64`, runtime-detected).
//!
//! Every function here mirrors its scalar sibling's *loop and
//! accumulation structure*: each output element is one fused
//! multiply-add chain in ascending `k`, and horizontal reductions store
//! the vector lanes to an array and sum them in the same sequential
//! order as the scalar lane sums. On an FMA-contracted build (the
//! workspace passes `-C target-cpu=native`) that typically makes the
//! f32 results bit-equal to scalar, but the contract is only the
//! DESIGN.md §14 accuracy-agreement gate — never byte equality. The
//! int8 kernels accumulate in exact integer arithmetic and *are*
//! bit-identical to scalar.
//!
//! Callers must only dispatch here after
//! [`Backend::Avx2.is_available()`](crate::tiling::Backend::is_available)
//! returned true — the `#[target_feature]` functions are `unsafe`
//! precisely because executing them on a non-AVX2 host is undefined.

use std::arch::x86_64::*;

use super::fma;
use crate::matrix::TILE_ROWS;
use crate::quant::QTILE_ROWS;

/// f32 lanes per 256-bit vector.
const VL: usize = 8;

/// AVX2 instance of [`super::scalar::tile_fma`]: broadcast-FMA over one
/// k-panel for a 4-row × `TC`-column tile, reading the packed stage.
///
/// # Safety
/// Requires AVX2 + FMA at runtime. `TC` must be a multiple of 8, and
/// `stage` must hold at least `(k1 - k0) * TC` elements.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) unsafe fn tile_fma<const TC: usize>(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    k0: usize,
    k1: usize,
    stage: &[f32],
    acc: &mut [[f32; TC]; TILE_ROWS],
) {
    debug_assert!(TC.is_multiple_of(VL) && TC / VL <= 4);
    debug_assert!(stage.len() >= (k1 - k0) * TC);
    let nv = TC / VL;
    let mut vacc = [[_mm256_setzero_ps(); 4]; TILE_ROWS];
    for (row, vrow) in acc.iter().zip(vacc.iter_mut()) {
        for (v, lane) in vrow.iter_mut().take(nv).enumerate() {
            // SAFETY: `v * VL + VL <= TC`, in bounds of the `[f32; TC]` row.
            *lane = unsafe { _mm256_loadu_ps(row.as_ptr().add(v * VL)) };
        }
    }
    for k in k0..k1 {
        let x = [
            _mm256_set1_ps(a0[k]),
            _mm256_set1_ps(a1[k]),
            _mm256_set1_ps(a2[k]),
            _mm256_set1_ps(a3[k]),
        ];
        let at = (k - k0) * TC;
        for v in 0..nv {
            // SAFETY: `at + v * VL + VL <= (k1 - k0) * TC <= stage.len()`.
            let b = unsafe { _mm256_loadu_ps(stage.as_ptr().add(at + v * VL)) };
            for (xr, vrow) in x.iter().zip(vacc.iter_mut()) {
                vrow[v] = _mm256_fmadd_ps(*xr, b, vrow[v]);
            }
        }
    }
    for (row, vrow) in acc.iter_mut().zip(vacc.iter()) {
        for (v, lane) in vrow.iter().take(nv).enumerate() {
            // SAFETY: same bounds as the load above.
            unsafe { _mm256_storeu_ps(row.as_mut_ptr().add(v * VL), *lane) };
        }
    }
}

/// AVX2 instance of [`super::scalar::axpy`]: `out += x * b` with a
/// scalar tail. The caller decides the zero-skip.
///
/// # Safety
/// Requires AVX2 + FMA at runtime. `b.len()` must be ≥ `out.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn axpy(x: f32, b: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert!(b.len() >= n);
    let xv = _mm256_set1_ps(x);
    let mut i = 0;
    while i + VL <= n {
        // SAFETY: `i + VL <= n <= b.len()`, so both 8-lane windows are
        // in bounds; `out` is exclusively borrowed.
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            let ov = _mm256_loadu_ps(out.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_fmadd_ps(xv, bv, ov));
        }
        i += VL;
    }
    while i < n {
        out[i] = fma(x, b[i], out[i]);
        i += 1;
    }
}

/// Sum the lanes of `v` sequentially, mirroring the scalar kernels'
/// `acc.iter().sum()` reduction order.
#[target_feature(enable = "avx2")]
unsafe fn hsum_ordered(v: __m256) -> f32 {
    let mut lanes = [0.0f32; VL];
    // SAFETY: `lanes` is exactly one 256-bit vector wide.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
    lanes.iter().sum()
}

/// AVX2 instance of [`super::scalar::dot_lanes`].
///
/// # Safety
/// Requires AVX2 + FMA at runtime. `b.len()` must be ≥ `a.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    debug_assert!(b.len() >= k);
    let chunks = k / VL;
    let mut acc = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: `c * VL + VL <= k` for both operands.
        unsafe {
            let av = _mm256_loadu_ps(a.as_ptr().add(c * VL));
            let bv = _mm256_loadu_ps(b.as_ptr().add(c * VL));
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
    }
    // SAFETY: AVX2 is enabled for this function.
    let mut s = unsafe { hsum_ordered(acc) };
    for t in chunks * VL..k {
        s = fma(a[t], b[t], s);
    }
    s
}

/// AVX2 instance of [`super::scalar::tile_2x4`]: eight vector
/// accumulators, six loads and eight FMAs per 8-deep chunk.
///
/// # Safety
/// Requires AVX2 + FMA at runtime. All six slices must be at least
/// `a0.len()` long.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn tile_2x4(
    a0: &[f32],
    a1: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [[f32; 4]; 2] {
    let k = a0.len();
    debug_assert!(
        a1.len() >= k && b0.len() >= k && b1.len() >= k && b2.len() >= k && b3.len() >= k
    );
    let chunks = k / VL;
    let mut acc = [[_mm256_setzero_ps(); 4]; 2];
    for c in 0..chunks {
        let base = c * VL;
        // SAFETY: `base + VL <= k`, in bounds of every operand slice.
        unsafe {
            let x0 = _mm256_loadu_ps(a0.as_ptr().add(base));
            let x1 = _mm256_loadu_ps(a1.as_ptr().add(base));
            let bv = [
                _mm256_loadu_ps(b0.as_ptr().add(base)),
                _mm256_loadu_ps(b1.as_ptr().add(base)),
                _mm256_loadu_ps(b2.as_ptr().add(base)),
                _mm256_loadu_ps(b3.as_ptr().add(base)),
            ];
            for (j, &b) in bv.iter().enumerate() {
                acc[0][j] = _mm256_fmadd_ps(x0, b, acc[0][j]);
                acc[1][j] = _mm256_fmadd_ps(x1, b, acc[1][j]);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
        for (v, o) in acc_row.iter().zip(out_row.iter_mut()) {
            // SAFETY: AVX2 is enabled for this function.
            *o = unsafe { hsum_ordered(*v) };
        }
    }
    for t in chunks * VL..k {
        let x0 = a0[t];
        let x1 = a1[t];
        out[0][0] = fma(x0, b0[t], out[0][0]);
        out[0][1] = fma(x0, b1[t], out[0][1]);
        out[0][2] = fma(x0, b2[t], out[0][2]);
        out[0][3] = fma(x0, b3[t], out[0][3]);
        out[1][0] = fma(x1, b0[t], out[1][0]);
        out[1][1] = fma(x1, b1[t], out[1][1]);
        out[1][2] = fma(x1, b2[t], out[1][2]);
        out[1][3] = fma(x1, b3[t], out[1][3]);
    }
    out
}

/// int8 weight columns per 128-bit load of the madd GEMM kernels.
const QCOLS: usize = 16;

/// k steps whose activations are packed into pairs at a time by the
/// madd GEMM kernels (a 128-byte stack buffer per row).
const KBLOCK: usize = 64;

/// Pack the activations `x` (at most [`KBLOCK`] of them) as i16 pairs,
/// one i32 per k-pair — low half `x[2p]`, high half `x[2p + 1]` (zero
/// past the end) — the broadcast operand of `madd_epi16`. Returns the
/// number of pairs written.
#[inline]
fn pack_x_pairs(x: &[i8], out: &mut [i32; KBLOCK / 2]) -> usize {
    debug_assert!(x.len() <= KBLOCK);
    let mut pairs = x.chunks_exact(2);
    for (o, xy) in out.iter_mut().zip(&mut pairs) {
        *o = (i32::from(xy[0]) & 0xFFFF) | (i32::from(xy[1]) << 16);
    }
    let full = x.len() / 2;
    if let [last] = pairs.remainder() {
        out[full] = i32::from(*last) & 0xFFFF;
        return full + 1;
    }
    full
}

/// Load the 16-column chunk at column `col` of weight rows `kk` and
/// `kk + 1` (an all-zero row when `kk + 1 == k`, the odd last step),
/// interleave them byte by byte and widen to i16: the `madd_epi16`
/// operands for columns `col..col + 8` and `col + 8..col + 16`, each
/// i32 lane holding the pair `(w[kk][j], w[kk + 1][j])`. The resident
/// row-major layout is untouched; k-pairs are formed on the fly.
///
/// # Safety
/// Requires AVX2 at runtime. `col + 16 <= n`, `kk < k`, and `w` must
/// cover `k × n`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_k_pair(w: &[i8], n: usize, k: usize, kk: usize, col: usize) -> [__m256i; 2] {
    debug_assert!(kk < k && w.len() >= k * n);
    // SAFETY: `kk * n + col + 16 <= kk * n + n <= k * n <= w.len()`, and
    // the same for row `kk + 1` when it exists.
    let (r0, r1) = unsafe {
        (
            _mm_loadu_si128(w.as_ptr().add(kk * n + col).cast()),
            if kk + 1 < k {
                _mm_loadu_si128(w.as_ptr().add((kk + 1) * n + col).cast())
            } else {
                _mm_setzero_si128()
            },
        )
    };
    [
        _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(r0, r1)),
        _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(r0, r1)),
    ]
}

/// `acc += madd(w, x)`: per i32 lane `w[kk][j]·x[kk] + w[kk+1][j]·x[kk+1]`,
/// exact (a pair sum is at most 2·127²).
#[inline]
#[target_feature(enable = "avx2")]
fn madd_acc(acc: __m256i, w: __m256i, x: __m256i) -> __m256i {
    _mm256_add_epi32(acc, _mm256_madd_epi16(w, x))
}

/// AVX2 instance of [`super::scalar::qtile`]: i8×i8→i32 for a 4-row ×
/// `TC`-column tile through `cvtepi8_epi16` + `madd_epi16`, two k steps
/// per multiply-accumulate (the `qdot` technique below; the broadcast
/// `mullo_epi32` form this replaced lost to auto-vectorised scalar).
/// Integer accumulation is exactly associative, so this is
/// bit-identical to the scalar kernel by construction.
///
/// The tile is processed one 16-column chunk at a time: eight
/// accumulators, two weight vectors and the broadcast activation pair
/// fit the sixteen AVX2 vector registers without spilling. Activation
/// pairs are packed per [`KBLOCK`] k steps into a stack buffer, so the
/// inner loop broadcasts them straight from memory.
///
/// # Safety
/// Requires AVX2 at runtime. `TC` must be 16 or 32, `j0 + TC <= n`, and
/// the slices must cover a full `4 × k` (resp. `k × n`) block starting
/// at `i0` (resp. row 0).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn qtile<const TC: usize>(
    x_q: &[i8],
    k: usize,
    w: &[i8],
    n: usize,
    i0: usize,
    j0: usize,
    acc: &mut [[i32; TC]; QTILE_ROWS],
) {
    debug_assert!(TC.is_multiple_of(QCOLS) && TC <= 2 * QCOLS);
    debug_assert!(j0 + TC <= n && w.len() >= k * n && x_q.len() >= (i0 + QTILE_ROWS) * k);
    let x: [&[i8]; QTILE_ROWS] = std::array::from_fn(|r| &x_q[(i0 + r) * k..(i0 + r + 1) * k]);
    let mut xp = [[0i32; KBLOCK / 2]; QTILE_ROWS];
    for c in 0..TC / QCOLS {
        let col = j0 + c * QCOLS;
        let mut vacc = [[_mm256_setzero_si256(); 2]; QTILE_ROWS];
        for k0 in (0..k).step_by(KBLOCK) {
            let k1 = (k0 + KBLOCK).min(k);
            let mut pairs = 0;
            for (xr, row) in xp.iter_mut().zip(x.iter()) {
                pairs = pack_x_pairs(&row[k0..k1], xr);
            }
            for p in 0..pairs {
                if (xp[0][p] | xp[1][p] | xp[2][p] | xp[3][p]) == 0 {
                    // Same post-ReLU zero skip as scalar: adding exact
                    // integer zeros is a no-op either way.
                    continue;
                }
                // SAFETY: `col + QCOLS <= j0 + TC <= n` and
                // `k0 + 2p < k1 <= k`.
                let wv = unsafe { load_k_pair(w, n, k, k0 + 2 * p, col) };
                for (vrow, xr) in vacc.iter_mut().zip(xp.iter()) {
                    let xv = _mm256_set1_epi32(xr[p]);
                    vrow[0] = madd_acc(vrow[0], wv[0], xv);
                    vrow[1] = madd_acc(vrow[1], wv[1], xv);
                }
            }
        }
        for (row, vrow) in acc.iter_mut().zip(vacc.iter()) {
            for (h, v) in vrow.iter().enumerate() {
                // SAFETY: `c * QCOLS + h * VL + VL <= TC`, in bounds of
                // the `[i32; TC]` row.
                unsafe { _mm256_storeu_si256(row.as_mut_ptr().add(c * QCOLS + h * VL).cast(), *v) };
            }
        }
    }
}

/// Sum the 8 i32 lanes of `v` (exact: integer addition is associative).
///
/// # Safety
/// Requires AVX2 at runtime.
#[target_feature(enable = "avx2")]
unsafe fn hsum_i32(v: __m256i) -> i32 {
    let mut lanes = [0i32; VL];
    // SAFETY: `lanes` is exactly one 256-bit vector wide.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
    lanes.iter().sum()
}

/// i8 elements consumed per vector step of the qdot kernels.
const QSTEP: usize = 16;

/// Load 16 int8 values at `p` widened to 16 lanes of i16.
///
/// # Safety
/// Requires AVX2 at runtime; `p` must be valid for a 16-byte read.
#[target_feature(enable = "avx2")]
unsafe fn load16_i8_as_i16(p: *const i8) -> __m256i {
    // SAFETY: caller guarantees 16 readable bytes at `p`.
    let bytes = unsafe { _mm_loadu_si128(p.cast()) };
    _mm256_cvtepi8_epi16(bytes)
}

/// AVX2 instance of [`super::scalar::qdot`]: widen both rows to i16 and
/// multiply-accumulate pairs with `madd_epi16` (products of two i8
/// values fit i16×i16→i32 exactly; a pair sum is ≤ 2·127², far from
/// overflow), 16 elements per step with a scalar tail. Unlike the
/// broadcast int8 GEMM kernels — where `mullo_epi32` lost to
/// auto-vectorised scalar on the autotune host — this row-vs-row shape
/// maps directly onto the i16 MAC unit. Bit-identical to scalar (exact
/// integer accumulation).
///
/// # Safety
/// Requires AVX2 at runtime. `b.len()` must be ≥ `a.len()`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn qdot(a: &[i8], b: &[i8]) -> i32 {
    let k = a.len();
    debug_assert!(b.len() >= k);
    let chunks = k / QSTEP;
    let mut acc = _mm256_setzero_si256();
    for c in 0..chunks {
        // SAFETY: `c * QSTEP + QSTEP <= k`, in bounds of both operands.
        unsafe {
            let av = load16_i8_as_i16(a.as_ptr().add(c * QSTEP));
            let bv = load16_i8_as_i16(b.as_ptr().add(c * QSTEP));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
        }
    }
    // SAFETY: AVX2 is enabled for this function.
    let mut s = unsafe { hsum_i32(acc) };
    for t in chunks * QSTEP..k {
        s += i32::from(a[t]) * i32::from(b[t]);
    }
    s
}

/// AVX2 instance of [`super::scalar::qdot4`]: four rows against one
/// query, the query chunk loaded once per step and reused across the
/// four row MACs. Bit-identical to scalar (exact integer accumulation).
///
/// # Safety
/// Requires AVX2 at runtime. All four row slices must be at least
/// `q.len()` long.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn qdot4(q: &[i8], r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> [i32; 4] {
    let k = q.len();
    debug_assert!(r0.len() >= k && r1.len() >= k && r2.len() >= k && r3.len() >= k);
    let chunks = k / QSTEP;
    let mut acc = [_mm256_setzero_si256(); 4];
    for c in 0..chunks {
        let at = c * QSTEP;
        // SAFETY: `at + QSTEP <= k`, in bounds of the query and (by the
        // length contract) of every row.
        unsafe {
            let qv = load16_i8_as_i16(q.as_ptr().add(at));
            let rv = [
                load16_i8_as_i16(r0.as_ptr().add(at)),
                load16_i8_as_i16(r1.as_ptr().add(at)),
                load16_i8_as_i16(r2.as_ptr().add(at)),
                load16_i8_as_i16(r3.as_ptr().add(at)),
            ];
            for (a, &r) in acc.iter_mut().zip(rv.iter()) {
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(qv, r));
            }
        }
    }
    let mut out = [0i32; 4];
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        // SAFETY: AVX2 is enabled for this function.
        *o = unsafe { hsum_i32(a) };
    }
    for t in chunks * QSTEP..k {
        let qv = i32::from(q[t]);
        out[0] += qv * i32::from(r0[t]);
        out[1] += qv * i32::from(r1[t]);
        out[2] += qv * i32::from(r2[t]);
        out[3] += qv * i32::from(r3[t]);
    }
    out
}
