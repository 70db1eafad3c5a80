/* The baseline kernel bodies as strict-IEEE C loops (docs/kernels.md,
 * "Compiled bodies"; built and loaded by compiled.py).
 *
 * Every cell is computed in the NumPy baseline's exact per-element order,
 * so the results are its bit patterns: build with -ffp-contract=off and
 * never with -ffast-math (a fused multiply-add rounds once where the
 * baseline rounds twice).  Arrays are C-contiguous and padded, `H`/`W`
 * their two fastest extents, `z0 .. c1` the region's padded indices; only
 * the region's cells are written.  `restrict` marks what the caller has
 * checked: `out` is not `p`, `dot_*` is workspace the backend owns, and
 * the written arrays of the Chebyshev step and of CG's region updates
 * overlap no other operand.
 *
 * The file compiles its bodies twice, T = double (suffix _d) and T = float
 * (suffix _f), by including itself. */
#include <stddef.h>

#ifndef T
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

/* The region's cells: `i` in the padded arrays, `j` in the contiguous
 * (region-shaped) dot operands. */
#define ROWS2 \
    const size_t sy = W, nc = c1 - c0; \
    for (size_t r = r0; r < r1; r++) \
        for (size_t i = r * sy + c0, j = (r - r0) * nc, e = i + nc; \
             i < e; i++, j++)
#define ROWS3 \
    const size_t sy = W, sz = H * W, nc = c1 - c0, nr = r1 - r0; \
    for (size_t z = z0; z < z1; z++) \
        for (size_t r = r0; r < r1; r++) \
            for (size_t i = z * sz + r * sy + c0, \
                 j = ((z - z0) * nr + (r - r0)) * nc, e = i + nc; \
                 i < e; i++, j++)

#define ARGS2 const T *kx, const T *ky, const T *restrict p, T *restrict out
#define ARGS3 const T *kx, const T *ky, const T *kz, \
              const T *restrict p, T *restrict out
#define BOUNDS2 size_t W, size_t r0, size_t r1, size_t c0, size_t c1
#define BOUNDS3 size_t H, size_t W, size_t z0, size_t z1, \
                size_t r0, size_t r1, size_t c0, size_t c1

/* out[R] = (A p)[R] */
void N(stencil2)(ARGS2, BOUNDS2)
{ ROWS2 { CELL2(i) out[i] = a; (void)j; } }
void N(stencil3)(ARGS3, BOUNDS3)
{ ROWS3 { CELL3(i) out[i] = a; (void)j; } }

/* ... and the operands of <p, A p>, contiguous, for the reference dot */
void N(apply_dot2)(ARGS2, T *restrict dot_p, T *restrict dot_w, BOUNDS2)
{ ROWS2 { CELL2(i) out[i] = a; dot_p[j] = p[i]; dot_w[j] = a; } }
void N(apply_dot3)(ARGS3, T *restrict dot_p, T *restrict dot_w, BOUNDS3)
{ ROWS3 { CELL3(i) out[i] = a; dot_p[j] = p[i]; dot_w[j] = a; } }

/* ... and y[R] += alpha * out[R], with y[R] contiguous for <y, y> */
void N(apply_axpy_dot2)(ARGS2, T *y, double alpha, T *restrict dot_y, BOUNDS2)
{ ROWS2 { CELL2(i) out[i] = a; T t = a * (T)alpha;
          dot_y[j] = y[i] = y[i] + t; } }
void N(apply_axpy_dot3)(ARGS3, T *y, double alpha, T *restrict dot_y, BOUNDS3)
{ ROWS3 { CELL3(i) out[i] = a; T t = a * (T)alpha;
          dot_y[j] = y[i] = y[i] + t; } }

/* y += alpha x and y = beta y + x at cell i: NumPy's two passes' order */
#define AXPY(y, x, alpha) { T t = x[i] * (T)(alpha); y[i] = y[i] + t; }
#define AYPX(y, x, beta) { T t = y[i] * (T)(beta); y[i] = t + x[i]; }

/* ... over n contiguous cells; y may be x */
void N(axpy)(T *y, double alpha, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) AXPY(y, x, alpha) }
void N(aypx)(T *y, double beta, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) AYPX(y, x, beta) }

/* ... over the region: CG's direction update p = beta p + z */
void N(aypx2)(T *restrict y, double beta, const T *restrict x, BOUNDS2)
{ ROWS2 { AYPX(y, x, beta) (void)j; } }
void N(aypx3)(T *restrict y, double beta, const T *restrict x, BOUNDS3)
{ ROWS3 { AYPX(y, x, beta) (void)j; } }

/* CG's update on the region: x += alpha p, then res += -alpha w, and —
 * for <r, r> with the identity preconditioner — res[R] contiguous into
 * dot_r. */
#define CG_UPDATE \
    { AXPY(x, p, alpha) AXPY(res, w, -alpha) if (dot_r) dot_r[j] = res[i]; }
#define UPDATE T *restrict x, T *restrict res, const T *restrict p, \
               const T *restrict w, double alpha, T *restrict dot_r
void N(cg_update2)(UPDATE, BOUNDS2) { ROWS2 CG_UPDATE }
void N(cg_update3)(UPDATE, BOUNDS3) { ROWS3 CG_UPDATE }

/* One Chebyshev inner step (solvers/chebyshev.py) on the region: w = A p;
 * acc += p on the interior `i*` bounds only (inside the region); then per
 * cell res = res + w·(−1) — written `res - w`, the same bits — w =
 * (res·m)·scale (res·scale without m) and p = p·beta + w: the order of the
 * separate passes it replaces.  The stencil is a pass of its own because
 * the tail writes p, which neighbouring cells' stencils read; so is the
 * interior, whose acc update reads p before the tail writes it. */
#define TAIL(i) \
    T t = res[i] - w[i]; res[i] = t; \
    if (m) t = t * m[i]; \
    w[i] = t * (T)scale; t = p[i] * (T)beta; p[i] = t + w[i];
#define STEP T *restrict p, T *restrict w, T *restrict res, T *restrict acc, \
             const T *restrict m, double scale, double beta

static void N(accumulate2)(T *restrict acc, const T *restrict p, BOUNDS2)
{ ROWS2 { acc[i] = acc[i] + p[i]; (void)j; } }
static void N(accumulate3)(T *restrict acc, const T *restrict p, BOUNDS3)
{ ROWS3 { acc[i] = acc[i] + p[i]; (void)j; } }

void N(chebyshev_step2)(const T *kx, const T *ky, STEP, BOUNDS2,
                        size_t ir0, size_t ir1, size_t ic0, size_t ic1)
{
    { ROWS2 { CELL2(i) w[i] = a; (void)j; } }
    N(accumulate2)(acc, p, W, ir0, ir1, ic0, ic1);
    { ROWS2 { TAIL(i) (void)j; } }
}
void N(chebyshev_step3)(const T *kx, const T *ky, const T *kz, STEP, BOUNDS3,
                        size_t iz0, size_t iz1, size_t ir0, size_t ir1,
                        size_t ic0, size_t ic1)
{
    { ROWS3 { CELL3(i) w[i] = a; (void)j; } }
    N(accumulate3)(acc, p, H, W, iz0, iz1, ir0, ir1, ic0, ic1);
    { ROWS3 { TAIL(i) (void)j; } }
}

#undef TAIL
#undef STEP
#undef AXPY
#undef AYPX
#undef CG_UPDATE
#undef UPDATE
#undef CELL2
#undef CELL3
#undef ROWS2
#undef ROWS3
#undef ARGS2
#undef ARGS3
#undef BOUNDS2
#undef BOUNDS3
#endif
