/* The baseline kernel bodies as strict-IEEE C loops (docs/kernels.md,
 * "Compiled bodies"; built and loaded by compiled.py, whose BODIES table
 * lists every kernel's arguments).
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
 * Each kernel is written once.  The file includes itself once per element
 * type T (double, suffix _d; float, _f) and, inside that, once per
 * dimension D (2, 3): `NAME(kernel, D, S)` is `stencil2_d` and so on.  A
 * few per-D macros carry every difference between the dimensions; 2-D is
 * one plane (`z0 = 0`, `z1 = 1`, plane pitch `sz = 0`) with no `kz`. */
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
#define PASTE(kernel, d, s) kernel##d##s
#define NAME(kernel, d, s) PASTE(kernel, d, s)

/* (A p)[i]: the centre coefficient 1 + the cell's face coefficients,
 * slowest axis first and high face before low, times p; then the taps
 * subtracted in that same order.  `sy`/`sz` are the row and plane pitch;
 * ZD/ZTAPS are the `kz` terms (2-D: the 1 alone, and none). */
#define CELL(i) \
    T d = (((ZD + ky[i + sy]) + ky[i]) + kx[i + 1]) + kx[i]; \
    T a = d * p[i]; ZTAPS \
    a = a - ky[i + sy] * p[i + sy]; a = a - ky[i] * p[i - sy]; \
    a = a - kx[i + 1] * p[i + 1];   a = a - kx[i] * p[i - 1];

/* The region's rows, each one run of `nc` cells from `i0` in the padded
 * arrays; `j0` counts the region's cells before the row (C order). */
#define ROWS(...) { \
    PITCH const size_t nc = c1 - c0; size_t j0 = 0; \
    for (size_t z = z0; z < z1; z++) \
        for (size_t r = r0; r < r1; r++, j0 += nc) { \
            const size_t i0 = z * sz + r * sy + c0; (void)j0; __VA_ARGS__ } }
#define CELLS for (size_t i = i0, e = i0 + nc; i < e; i++)

/* The reference reduction's state: `lanes` below adds one row to it. */
#define DOT T s[8] = {0};
#define ADD(a, b) NAME(lanes, , S)(s, a + i0, b + i0, j0, nc);
#define SUM (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])))

/* y += alpha x and y = beta y + x at cell i: NumPy's two passes' order */
#define AXPY(y, x, alpha) { T t = x[i] * (T)(alpha); y[i] = y[i] + t; }
#define AYPX(y, x, beta) { T t = y[i] * (T)(beta); y[i] = t + x[i]; }

#define ARGS FACES, const T *restrict p, T *restrict out

/* One pass over the rows `Z0 .. R1` (`nr` rows a plane, C order): row k's
 * AHEAD, then row k - lag's BEHIND, each with its plane `pz`, its row
 * `pr` and its first padded cell `row`.  The two blocks are #defined
 * before each use: the rows BEHIND reads must be the ones AHEAD wrote. */
#define AT(k) const size_t pz = Z0 + (k) / nr, pr = R0 + (k) % nr, \
                           row = pz * sz + pr * sy;
#define LAG_PASS(lag) { \
    const size_t nc = c1 - c0, nr = R1 - R0, rows = (Z1 - Z0) * nr; \
    for (size_t k = 0; k < rows + (lag); k++) { \
        if (k < rows) { AT(k) AHEAD } \
        if (k >= (lag)) { AT(k - (lag)) BEHIND } } }
#define INSIDE(pz, pr) (z0 <= (pz) && (pz) < z1 && r0 <= (pr) && (pr) < r1)

#define T double
#define S _d
#include __FILE__
#undef T
#undef S
#define T float
#define S _f
#include __FILE__

#elif !defined(D)
/* The reference reduction: cell j of the region adds its product to lane
 * j % LANES, each lane in sequence from +0, in T; the lanes are combined
 * pairwise (SUM).  `lanes` adds one row of n cells, the first being cell
 * j, with the blocks whose first cell is lane 0's unrolled: those lanes
 * stay in registers. */
CLONED static void NAME(lanes, , S)(T *restrict s, const T *a, const T *b,
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

/* axpy and aypx over n contiguous cells; y may be x */
CLONED void NAME(axpy, , S)(T *y, double alpha, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) AXPY(y, x, alpha) }
CLONED void NAME(aypx, , S)(T *y, double beta, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) AYPX(y, x, beta) }

#define D 2
#include __FILE__
#undef D
#define D 3
#include __FILE__
#undef D

#else
#if D == 2
#define FACES const T *kx, const T *ky
#define BOUNDS size_t W, size_t r0, size_t r1, size_t c0, size_t c1
#define RING size_t R0, size_t R1, size_t C0, size_t C1
#define INTERIOR size_t ir0, size_t ir1, size_t ic0, size_t ic1
#define PITCH const size_t z0 = 0, z1 = 1, sy = W, sz = 0;
#define ONE_PLANE(lo, hi) const size_t lo = 0, hi = 1;
#define ZD (T)1
#define ZTAPS
#define PLANE 1
#else
#define FACES const T *kx, const T *ky, const T *kz
#define BOUNDS size_t H, size_t W, size_t z0, size_t z1, \
               size_t r0, size_t r1, size_t c0, size_t c1
#define RING size_t Z0, size_t Z1, size_t R0, size_t R1, size_t C0, size_t C1
#define INTERIOR size_t iz0, size_t iz1, size_t ir0, size_t ir1, \
                 size_t ic0, size_t ic1
#define PITCH const size_t sy = W, sz = H * W;
#define ONE_PLANE(lo, hi)
#define ZD ((kz[i + sz] + (T)1) + kz[i])
#define ZTAPS a = a - kz[i + sz] * p[i + sz]; a = a - kz[i] * p[i - sz];
#define PLANE nr
#endif

/* out[R] = (A p)[R] */
CLONED void NAME(stencil, D, S)(ARGS, BOUNDS)
ROWS(CELLS { CELL(i) out[i] = a; })

/* ... and <p, A p>, each row summed while it is in cache */
CLONED double NAME(apply_dot, D, S)(ARGS, BOUNDS)
{ DOT ROWS(CELLS { CELL(i) out[i] = a; } ADD(p, out)) return SUM; }

/* ... and y[R] += alpha * out[R], and <y, y> */
CLONED double NAME(apply_axpy_dot, D, S)(ARGS, T *y, double alpha, BOUNDS)
{
    DOT ROWS(CELLS { CELL(i) out[i] = a; { T t = a * (T)alpha;
                                           y[i] = y[i] + t; } } ADD(y, y))
    return SUM;
}

/* <a, b> over the region of two arrays of one padded shape */
CLONED double NAME(dot, D, S)(const T *a, const T *b, BOUNDS)
{ DOT ROWS(ADD(a, b)) return SUM; }

/* axpy and aypx over the region: what CG's pass leaves pending, x +=
 * alpha p and p = beta p + z, applied when something reads them
 * (CGState.settle) */
CLONED void NAME(axpy, D, S)(T *restrict y, double alpha, const T *restrict x,
                             BOUNDS) ROWS(CELLS AXPY(y, x, alpha))
CLONED void NAME(aypx, D, S)(T *restrict y, double beta, const T *restrict x,
                             BOUNDS) ROWS(CELLS AYPX(y, x, beta))

/* CG's residual update on the region: res += -alpha w; with `dot` (the
 * identity preconditioner) it returns <res, res>, else 0. */
CLONED double NAME(cg_residual, D, S)(T *restrict res, const T *restrict w,
                                      int dot, BOUNDS, double alpha)
{ DOT ROWS(CELLS AXPY(res, w, -alpha) if (dot) ADD(res, res)) return SUM; }

/* CG's pass (solvers/operator.py, CGStep): the previous iteration's
 * x += alpha p on the interior `z0 .. c1`, then p = beta p + z on the ring
 * `Z0 .. C1` (the interior grown by one cell toward neighbours, whose
 * ghosts of z were just exchanged: each ghost of p becomes the neighbour's
 * own cell), then w = A p on the interior with <p, w>.  The stencil runs a
 * PLANE of rows behind the updates: a row's stencil reads the p of the
 * next row (2-D) or of the next plane (3-D), which must be the new one; a
 * cell's x update reads p before the direction writes it. */
#define AHEAD \
    if (INSIDE(pz, pr)) for (size_t i = row + c0; i < row + c1; i++) \
        AXPY(x, p, alpha) \
    for (size_t i = row + C0; i < row + C1; i++) AYPX(p, z, beta)
#define BEHIND if (INSIDE(pz, pr)) { const size_t i0 = row + c0; \
    CELLS { CELL(i) w[i] = a; } ADD(p, w) j0 += nc; }
CLONED double NAME(cg_pass, D, S)(FACES, T *restrict p, T *restrict w,
                                  T *restrict x, const T *restrict z,
                                  BOUNDS, RING, double alpha, double beta)
{
    PITCH ONE_PLANE(Z0, Z1) DOT size_t j0 = 0;
    LAG_PASS(PLANE) return SUM;
}
#undef AHEAD
#undef BEHIND

/* One Chebyshev inner step (solvers/chebyshev.py) on the region: w = A p;
 * acc += p on the interior `i*` bounds only (inside the region); then per
 * cell res = res + w·(−1) — written `res - w`, the same bits — w =
 * (res·m)·scale (res·scale without m) and p = p·beta + w: the order of the
 * separate passes it replaces.  The rest of the step runs a PLANE of rows
 * behind the stencil: it writes p, which the stencils of the next row
 * (2-D) or of the next plane (3-D) still read; a row's acc update reads p
 * before its tail writes it. */
#define AHEAD const size_t i0 = row + c0; CELLS { CELL(i) w[i] = a; }
#define BEHIND const size_t i0 = row + c0; \
    if (iz0 <= pz && pz < iz1 && ir0 <= pr && pr < ir1) \
        for (size_t i = row + ic0; i < row + ic1; i++) \
            acc[i] = acc[i] + p[i]; \
    CELLS { T t = res[i] - w[i]; res[i] = t; \
        if (m) t = t * m[i]; \
        w[i] = t * (T)scale; t = p[i] * (T)beta; p[i] = t + w[i]; }
CLONED void NAME(chebyshev_step, D, S)(FACES, T *restrict p, T *restrict w,
                                       T *restrict res, T *restrict acc,
                                       const T *restrict m, BOUNDS, INTERIOR,
                                       double scale, double beta)
{
    PITCH ONE_PLANE(iz0, iz1)
    const size_t Z0 = z0, Z1 = z1, R0 = r0, R1 = r1;
    LAG_PASS(PLANE)
}
#undef AHEAD
#undef BEHIND

#undef FACES
#undef BOUNDS
#undef RING
#undef INTERIOR
#undef PITCH
#undef ONE_PLANE
#undef ZD
#undef ZTAPS
#undef PLANE
#endif
