/* The baseline kernel bodies as strict-IEEE C loops (docs/kernels.md,
 * "Compiled bodies"; built and loaded by compiled.py).
 *
 * Every cell is computed in the NumPy baseline's exact per-element order,
 * so the results are its bit patterns: build with -ffp-contract=off and
 * never with -ffast-math (a fused multiply-add rounds once where the
 * baseline rounds twice).  Arrays are C-contiguous and padded, `H`/`W`
 * their two fastest extents, `z0 .. c1` the region's padded indices; only
 * the region's cells are written.  `restrict` marks what the caller has
 * checked: `out` is not `p`, and `dot_*` is workspace the backend owns.
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

/* y += alpha x and y = beta y + x over n contiguous cells; y may be x */
void N(axpy)(T *y, double alpha, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) { T t = x[i] * (T)alpha; y[i] = y[i] + t; } }
void N(aypx)(T *y, double beta, const T *x, size_t n)
{ for (size_t i = 0; i < n; i++) { T t = y[i] * (T)beta; y[i] = t + x[i]; } }

#undef CELL2
#undef CELL3
#undef ROWS2
#undef ROWS3
#undef ARGS2
#undef ARGS3
#undef BOUNDS2
#undef BOUNDS3
#endif
