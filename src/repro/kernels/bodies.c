/* The baseline kernel bodies as strict-IEEE C loops (docs/kernels.md,
 * "Compiled bodies"; built and loaded by compiled.py).
 *
 * Every cell is computed in the NumPy baseline's exact per-element order,
 * so the results are its bit patterns: build with -ffp-contract=off and
 * never with -ffast-math (a fused multiply-add rounds once where the
 * baseline rounds twice).  Arrays are C-contiguous and padded, `H`/`W`
 * their two fastest extents, `z0 .. c1` the region's padded indices; only
 * the region's cells are written.  A reduction is the reference reduction
 * (kernels/base.py, `reference_dot`), summed as the region is streamed and
 * returned as a double.  `restrict` marks what the caller has checked:
 * `out` is not `p`, and the written arrays of the Chebyshev step and of
 * CG's two passes overlap no other operand.
 *
 * The file compiles its bodies twice, T = double (suffix _d) and T = float
 * (suffix _f), by including itself. */
#include <stddef.h>

#ifndef T
/* CLONED: each body is also compiled for AVX2, and glibc's ifunc resolver
 * picks the copy once, at load time, so the object still runs on any
 * x86-64 CPU.  The bits cannot move: every cell keeps its order of
 * operations, each lane of a reduction is still summed in sequence, and
 * -ffp-contract=off holds in both copies (no fused multiply-add).  Empty
 * off x86-64, without target_clones, or without glibc (ifunc). */
#include <limits.h>   /* defines __GLIBC__ on glibc */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif
#define LANES 8
#define T double
#define N(name) name##_d
#include __FILE__
#undef T
#undef N
#define T float
#define N(name) name##_f
#include __FILE__
#else

/* (A p)[i]: the centre coefficient 1 + the cell's face coefficients,
 * slowest axis first and high face before low, times p; then the taps
 * subtracted in that same order.  `sy`/`sz` are the row and plane pitch. */
#define CELL2(i) \
    T d = (((ky[i + sy] + (T)1) + ky[i]) + kx[i + 1]) + kx[i]; \
    T a = d * p[i]; \
    a = a - ky[i + sy] * p[i + sy]; a = a - ky[i] * p[i - sy]; \
    a = a - kx[i + 1] * p[i + 1];   a = a - kx[i] * p[i - 1];
#define CELL3(i) \
    T d = (((((kz[i + sz] + (T)1) + kz[i]) + ky[i + sy]) + ky[i]) \
           + kx[i + 1]) + kx[i]; \
    T a = d * p[i]; \
    a = a - kz[i + sz] * p[i + sz]; a = a - kz[i] * p[i - sz]; \
    a = a - ky[i + sy] * p[i + sy]; a = a - ky[i] * p[i - sy]; \
    a = a - kx[i + 1] * p[i + 1];   a = a - kx[i] * p[i - 1];

/* The region's rows, each one run of `nc` cells from `i0` in the padded
 * arrays; `j0` counts the region's cells before the row (C order). */
#define ROWS2(...) { \
    const size_t sy = W, nc = c1 - c0; size_t j0 = 0; \
    for (size_t r = r0; r < r1; r++, j0 += nc) { \
        const size_t i0 = r * sy + c0; (void)j0; __VA_ARGS__ } }
#define ROWS3(...) { \
    const size_t sy = W, sz = H * W, nc = c1 - c0; size_t j0 = 0; \
    for (size_t z = z0; z < z1; z++) \
        for (size_t r = r0; r < r1; r++, j0 += nc) { \
            const size_t i0 = z * sz + r * sy + c0; (void)j0; __VA_ARGS__ } }
#define CELLS for (size_t i = i0, e = i0 + nc; i < e; i++)

/* The reference reduction: cell j of the region adds its product to lane
 * j % LANES, each lane in sequence from +0, in T; the lanes are combined
 * pairwise.  `lanes` adds one row of n cells, the first being cell j, with
 * the blocks whose first cell is lane 0's unrolled: those lanes stay in
 * registers. */
CLONED static void N(lanes)(T *restrict s, const T *a, const T *b,
                            size_t j, size_t n)
{
    T l[LANES];
    size_t k = 0;
    for (int m = 0; m < LANES; m++) l[m] = s[m];
    for (; k < n && (j + k) % LANES; k++) l[(j + k) % LANES] += a[k] * b[k];
    for (; k + LANES <= n; k += LANES)
        for (int m = 0; m < LANES; m++) l[m] += a[k + m] * b[k + m];
    for (; k < n; k++) l[(j + k) % LANES] += a[k] * b[k];
    for (int m = 0; m < LANES; m++) s[m] = l[m];
}
#define DOT T s[8] = {0};
#define ADD(a, b) N(lanes)(s, a + i0, b + i0, j0, nc);
#define SUM (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])))

#define ARGS2 const T *kx, const T *ky, const T *restrict p, T *restrict out
#define ARGS3 const T *kx, const T *ky, const T *kz, \
              const T *restrict p, T *restrict out
#define BOUNDS2 size_t W, size_t r0, size_t r1, size_t c0, size_t c1
#define BOUNDS3 size_t H, size_t W, size_t z0, size_t z1, \
                size_t r0, size_t r1, size_t c0, size_t c1

/* out[R] = (A p)[R] */
CLONED void N(stencil2)(ARGS2, BOUNDS2) ROWS2(CELLS { CELL2(i) out[i] = a; })
CLONED void N(stencil3)(ARGS3, BOUNDS3) ROWS3(CELLS { CELL3(i) out[i] = a; })

/* ... and <p, A p>, each row summed while it is in cache */
CLONED double N(apply_dot2)(ARGS2, BOUNDS2)
{ DOT ROWS2(CELLS { CELL2(i) out[i] = a; } ADD(p, out)) return SUM; }
CLONED double N(apply_dot3)(ARGS3, BOUNDS3)
{ DOT ROWS3(CELLS { CELL3(i) out[i] = a; } ADD(p, out)) return SUM; }

/* ... and y[R] += alpha * out[R], and <y, y> */
#define AXPY_OUT { T t = a * (T)alpha; y[i] = y[i] + t; }
CLONED double N(apply_axpy_dot2)(ARGS2, T *y, double alpha, BOUNDS2)
{ DOT ROWS2(CELLS { CELL2(i) out[i] = a; AXPY_OUT } ADD(y, y)) return SUM; }
CLONED double N(apply_axpy_dot3)(ARGS3, T *y, double alpha, BOUNDS3)
{ DOT ROWS3(CELLS { CELL3(i) out[i] = a; AXPY_OUT } ADD(y, y)) return SUM; }

/* <a, b> over the region of two arrays of one padded shape */
CLONED double N(dot2)(const T *a, const T *b, BOUNDS2)
{ DOT ROWS2(ADD(a, b)) return SUM; }
CLONED double N(dot3)(const T *a, const T *b, BOUNDS3)
{ DOT ROWS3(ADD(a, b)) return SUM; }

/* y += alpha x and y = beta y + x at cell i: NumPy's two passes' order */
#define AXPY(y, x, alpha) { T t = x[i] * (T)(alpha); y[i] = y[i] + t; }
#define AYPX(y, x, beta) { T t = y[i] * (T)(beta); y[i] = t + x[i]; }

/* ... over n contiguous cells; y may be x */
CLONED void N(axpy)(T *y, double alpha, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) AXPY(y, x, alpha) }
CLONED void N(aypx)(T *y, double beta, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) AYPX(y, x, beta) }

/* ... over the region: what CG's pass leaves pending, x += alpha p and
 * p = beta p + z, applied when something reads them (CGState.settle) */
CLONED void N(axpy2)(T *restrict y, double alpha, const T *restrict x,
                     BOUNDS2) ROWS2(CELLS AXPY(y, x, alpha))
CLONED void N(axpy3)(T *restrict y, double alpha, const T *restrict x,
                     BOUNDS3) ROWS3(CELLS AXPY(y, x, alpha))
CLONED void N(aypx2)(T *restrict y, double beta, const T *restrict x,
                     BOUNDS2) ROWS2(CELLS AYPX(y, x, beta))
CLONED void N(aypx3)(T *restrict y, double beta, const T *restrict x,
                     BOUNDS3) ROWS3(CELLS AYPX(y, x, beta))

/* CG's residual update on the region: res += -alpha w; with `dot` (the
 * identity preconditioner) it returns <res, res>, else 0. */
#define CG_RESIDUAL CELLS AXPY(res, w, -alpha) if (dot) ADD(res, res)
#define RESIDUAL T *restrict res, const T *restrict w, int dot
CLONED double N(cg_residual2)(RESIDUAL, BOUNDS2, double alpha)
{ DOT ROWS2(CG_RESIDUAL) return SUM; }
CLONED double N(cg_residual3)(RESIDUAL, BOUNDS3, double alpha)
{ DOT ROWS3(CG_RESIDUAL) return SUM; }

/* CG's pass (solvers/operator.py, CGStep): the previous iteration's
 * x += alpha p on the interior `z0 .. c1`, then p = beta p + z on the ring
 * `Z0 .. C1` (the interior grown by one cell toward neighbours, whose
 * ghosts of z were just exchanged: each ghost of p becomes the neighbour's
 * own cell), then w = A p on the interior with <p, w>.  One pass over the
 * ring's rows, the stencil `behind` rows after the updates: a row's
 * stencil reads the p of the next row (2-D) or of the next plane (3-D: a
 * plane's rows behind), which must be the new one; a cell's x update
 * reads p before the direction writes it. */
#define INSIDE(pz, pr) (z0 <= (pz) && (pz) < z1 && r0 <= (pr) && (pr) < r1)
#define X_ROW for (size_t i = row + c0; i < row + c1; i++) AXPY(x, p, alpha)
#define P_ROW for (size_t i = row + C0; i < row + C1; i++) AYPX(p, z, beta)
#define PASS(CELL, behind) { \
    const size_t nc = c1 - c0, nr = R1 - R0, rows = (Z1 - Z0) * nr; \
    size_t j0 = 0; \
    for (size_t k = 0; k < rows + (behind); k++) { \
        if (k < rows) { \
            const size_t pz = Z0 + k / nr, pr = R0 + k % nr, \
                         row = pz * sz + pr * sy; \
            if (INSIDE(pz, pr)) { X_ROW } \
            P_ROW } \
        if (k < (behind)) continue; \
        const size_t pz = Z0 + (k - (behind)) / nr, \
                     pr = R0 + (k - (behind)) % nr, i0 = pz * sz + pr * sy + c0; \
        if (!INSIDE(pz, pr)) continue; \
        CELLS { CELL(i) w[i] = a; } ADD(p, w) j0 += nc; } }
#define PASS_ARGS T *restrict p, T *restrict w, T *restrict x, \
                  const T *restrict z
CLONED double N(cg_pass2)(const T *kx, const T *ky, PASS_ARGS, BOUNDS2,
                          size_t R0, size_t R1, size_t C0, size_t C1,
                          double alpha, double beta)
{
    const size_t z0 = 0, z1 = 1, Z0 = 0, Z1 = 1, sy = W, sz = 0;
    DOT PASS(CELL2, 1) return SUM;
}
CLONED double N(cg_pass3)(const T *kx, const T *ky, const T *kz, PASS_ARGS,
                          BOUNDS3, size_t Z0, size_t Z1, size_t R0, size_t R1,
                          size_t C0, size_t C1, double alpha, double beta)
{
    const size_t sy = W, sz = H * W;
    DOT PASS(CELL3, R1 - R0) return SUM;
}

/* One Chebyshev inner step (solvers/chebyshev.py) on the region: w = A p;
 * acc += p on the interior `i*` bounds only (inside the region); then per
 * cell res = res + w·(−1) — written `res - w`, the same bits — w =
 * (res·m)·scale (res·scale without m) and p = p·beta + w: the order of the
 * separate passes it replaces.  One pass over the region's rows, the rest
 * of the step `lag` rows behind the stencil: the tail writes p, which the
 * stencils of the next row (2-D) or of the next plane (3-D: a plane's rows
 * behind) still read; a row's acc update reads p before its tail. */
#define TAIL(i) \
    T t = res[i] - w[i]; res[i] = t; \
    if (m) t = t * m[i]; \
    w[i] = t * (T)scale; t = p[i] * (T)beta; p[i] = t + w[i];
#define STEP T *restrict p, T *restrict w, T *restrict res, T *restrict acc, \
             const T *restrict m
/* Row k of the region, counted from 0 in C order: its first cell. */
#define ROW(k) ((z0 + (k) / nr) * sz + (r0 + (k) % nr) * sy + c0)
#define INNER(k) (iz0 <= z0 + (k) / nr && z0 + (k) / nr < iz1 \
                  && ir0 <= r0 + (k) % nr && r0 + (k) % nr < ir1)
#define LAGGED(CELL, lag) { \
    const size_t nc = c1 - c0, nr = r1 - r0, rows = (z1 - z0) * nr; \
    for (size_t k = 0; k < rows + (lag); k++) { \
        if (k < rows) { const size_t i0 = ROW(k); CELLS { CELL(i) w[i] = a; } } \
        if (k < (lag)) continue; \
        const size_t j = k - (lag), i0 = ROW(j); \
        if (INNER(j)) for (size_t i = i0 + ic0 - c0; i < i0 + ic1 - c0; i++) \
            acc[i] = acc[i] + p[i]; \
        CELLS { TAIL(i) } } }

CLONED void N(chebyshev_step2)(const T *kx, const T *ky, STEP, BOUNDS2,
                               size_t ir0, size_t ir1, size_t ic0, size_t ic1,
                               double scale, double beta)
{
    const size_t z0 = 0, z1 = 1, iz0 = 0, iz1 = 1, sy = W, sz = 0;
    LAGGED(CELL2, 1)
}
CLONED void N(chebyshev_step3)(const T *kx, const T *ky, const T *kz, STEP,
                               BOUNDS3, size_t iz0, size_t iz1, size_t ir0,
                               size_t ir1, size_t ic0, size_t ic1,
                               double scale, double beta)
{
    const size_t sy = W, sz = H * W;
    LAGGED(CELL3, r1 - r0)
}

#undef TAIL
#undef STEP
#undef ROW
#undef INNER
#undef LAGGED
#undef AXPY
#undef AYPX
#undef AXPY_OUT
#undef CG_RESIDUAL
#undef RESIDUAL
#undef INSIDE
#undef X_ROW
#undef P_ROW
#undef PASS
#undef PASS_ARGS
#undef CELL2
#undef CELL3
#undef ROWS2
#undef ROWS3
#undef CELLS
#undef DOT
#undef ADD
#undef SUM
#undef ARGS2
#undef ARGS3
#undef BOUNDS2
#undef BOUNDS3
#endif
