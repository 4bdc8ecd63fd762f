"""Every pass of a model, compiled from C: the forward, the training step
and the stacked read, the functions of one CPython extension module.

`bind(params, g2, input, acts, grads, looked_up, on, sizes, d, lr, eps)`,
called once per model, returns its net: a capsule named
`delayfeed._kernel.net` that holds the model's arrays and its layout
until it is freed. The arrays are one-dimensional, C-contiguous and
writable, of C long for `looked_up` (one entry per field, each pass's
rows) and `on` (the scratch, as long as the widest layer), else float64:
`params` and `g2`, a table of d-entry rows per field and then the dense
block, every layer's (n, m) weights and then every layer's m biases for
the layer widths `sizes`, a tuple ending in one or two outputs; `input`
of sizes[0], d per field and then the numeric slots; `acts` of
sum(sizes[1:]); `grads`, the dense block's gradient and then the input's.
Anything else raises TypeError, ValueError or BufferError.

A pass is one call that takes the net, the pass's (field, token) pairs, a
tuple or a list of the first k fields' pairs, the values of its numeric
slots as a list of floats, and last the model's row memo, a dict of
(field, token) pairs to rows of its embedding tables, and returns Python
floats. `forward(net, pairs, values, memo)` looks each pair's row up in
the memo, writes the rows into `looked_up` and the values into the input
vector's numeric slots, gathers those rows into the first k fields'
slots, writes zeros into the later fields' slots, and runs the dense
layers: ReLU after each hidden layer, the output layer's log-rates
clamped to [-30, 30], then `exp`. Every layer sums in one fixed order,
input i outer and output j inner, each pre-activation from 0.0 upwards
and then its bias. It returns the rate, or the (rate_plus, rate_minus)
pair of a model of two outputs.

`train_step(net, pairs, values, labels, memo)`, `labels` a tuple of one
float per output, runs that forward, the backward of the summed Poisson
NLL against the labels and the AdaGrad update, and returns the loss. The
backward writes each layer's delta, its bias gradient, and the k rows'
entries of the input gradient into `grads`; each sums over the layer's
outputs in order from 0.0, and a unit whose ReLU output is not above 0
gets 0.0. The update forms each weight gradient h[i] * delta[j], h the
layer's input, where it applies it: AdaGrad, one fixed order of IEEE
operations (`adagrad_at`), two entries at a time in SSE2 lanes that each
give the one-entry form's bits (`update`). When the loss or a gradient it
would apply is not finite, which it checks from the gradients' structure
(`finite_grads`), it writes no parameter and no accumulator, and the step
raises FloatingPointError: `non-finite loss or gradient (loss=...); step
not applied`.

`read(nets, pairs, memo)`, `nets` the tuple of a `RegressorStack`'s
models' nets, returns the stack's served rate on one serving input: each
model's forward on those rows with all numeric slots zero, and their
rates (rate_plus - rate_minus with two outputs) summed from 0.0 in model
order, the IEEE operations of that sum written left to right in Python.

The kernel keeps a pass's rows until they are checked, a layer's active
inputs in the backward and a layer's columns in the update in `on`, not
on the C stack, so a layer of any width runs on a thread of small stack.
Every pass checks its arguments before it writes anything (`fill`). It
raises KeyError for a pair the memo lacks, whose row is not of the field
at its position or that is beyond the last field: the model then looks
the pairs up in Python, which refuses an input that is not the first k
fields in order, and calls again. Any other bad argument raises TypeError
or ValueError. Each pass checks its net with `PyCapsule_IsValid`, and
raises TypeError for anything but a net of `bind`; `read` raises
TypeError for nets that are no tuple or hold anything but nets, and
ValueError for none or for a net of another layout than the first's. A
net is known by its capsule's name, so a net of one build of this source
runs through another build's passes, as the tests' build without SSE2
does.

`exp` and `log` are fdlibm's, in the source, and each operation is one
IEEE double operation: the module is built with `-ffp-contract=off`,
which keeps the compiler from fusing a multiply into an add, and with no
`-march`, so it takes the same code path, and gives the same bits, on
every x86-64 host; the update's lanes are SSE2, which every x86-64 CPU
has (a compiler without `__SSE2__` builds the one-entry loop). libm is
not used, because glibc picks its `exp` and `log` by CPU. The build also
pins code placement, `-falign-functions=64 -falign-loops=32`, so that an
edit to one function does not move another's timing: built without the
pin, this source's `read` took 4.55-4.72 µs a call against 4.12-4.25 with
it, and `forward` 1.34-1.48 against 1.30-1.34 (`tests/time_passes.py` on
a 2-core x86-64 VM). `exp` and `log` are exported for the tests'
references, as is `update(net, k)`, the per-element AdaGrad of a step
from all of `grads`, which the caller fills, to the dense parameters and
the first k rows of `looked_up`: it returns 0, or 1 when a gradient is
not finite and it wrote nothing, and raises ValueError for a k outside
[0, fields] or one of those rows outside the tables.

The module is compiled once per source, command, Python include directory
and extension suffix, by `build`, into the package's `__pycache__/` when
this module is first imported; a C compiler, `cc`, and the running
Python's headers (`Python.h`) must be there then.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* fd_exp and fd_log are __ieee754_exp and __ieee754_log of fdlibm 5.3,
 * errors below 1 ulp, with word access through memcpy:
 *
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunSoft, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 */

static int32_t high_word(double x)
{
    uint64_t u;
    memcpy(&u, &x, 8);
    return (int32_t)(u >> 32);
}

static uint32_t low_word(double x)
{
    uint64_t u;
    memcpy(&u, &x, 8);
    return (uint32_t)u;
}

static double with_high_word(double x, int32_t hi)
{
    uint64_t u;
    memcpy(&u, &x, 8);
    u = (u & 0xffffffffu) | (uint64_t)(uint32_t)hi << 32;
    memcpy(&x, &u, 8);
    return x;
}

/* y with k added to its exponent */
static double add_exponent(double y, int32_t k)
{
    uint64_t u;
    memcpy(&u, &y, 8);
    u += (uint64_t)(int64_t)k << 52;
    memcpy(&y, &u, 8);
    return y;
}

double fd_exp(double x)
{
    static const double
        one = 1.0,
        half[2] = {0.5, -0.5},
        huge = 1.0e+300,
        twom1000 = 9.33263618503218878990e-302,
        o_threshold = 7.09782712893383973096e+02,
        u_threshold = -7.45133219101941108420e+02,
        ln2HI[2] = {6.93147180369123816490e-01, -6.93147180369123816490e-01},
        ln2LO[2] = {1.90821492927058770002e-10, -1.90821492927058770002e-10},
        invln2 = 1.44269504088896338700e+00,
        P1 = 1.66666666666666019037e-01,
        P2 = -2.77777777770155933842e-03,
        P3 = 6.61375632143793436117e-05,
        P4 = -1.65339022054652515390e-06,
        P5 = 4.13813679705723846039e-08;
    double y, hi = 0.0, lo = 0.0, c, t;
    int32_t k = 0;
    int32_t hx = high_word(x);
    int xsb = (hx >> 31) & 1;           /* sign bit of x */
    hx &= 0x7fffffff;                   /* high word of |x| */

    if (hx >= 0x40862E42) {             /* |x| >= 709.78... */
        if (hx >= 0x7ff00000) {
            if (((hx & 0xfffff) | low_word(x)) != 0)
                return x + x;           /* NaN */
            return xsb == 0 ? x : 0.0;  /* exp(+-inf) = {inf, 0} */
        }
        if (x > o_threshold)
            return huge * huge;         /* overflow */
        if (x < u_threshold)
            return twom1000 * twom1000; /* underflow */
    }
    if (hx > 0x3fd62e42) {              /* |x| > 0.5 ln2 */
        if (hx < 0x3FF0A2B2) {          /* and |x| < 1.5 ln2 */
            hi = x - ln2HI[xsb];
            lo = ln2LO[xsb];
            k = 1 - xsb - xsb;
        } else {
            k = (int32_t)(invln2 * x + half[xsb]);
            t = k;
            hi = x - t * ln2HI[0];      /* t * ln2HI is exact here */
            lo = t * ln2LO[0];
        }
        x = hi - lo;
    } else if (hx < 0x3e300000) {       /* |x| < 2**-28 */
        return one + x;
    }
    t = x * x;
    c = x - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    if (k == 0)
        return one - ((x * c) / (c - 2.0) - x);
    y = one - ((lo - (x * c) / (2.0 - c)) - hi);
    if (k >= -1021)
        return add_exponent(y, k);
    return add_exponent(y, k + 1000) * twom1000;
}

double fd_log(double x)
{
    static const double
        ln2_hi = 6.93147180369123816490e-01,
        ln2_lo = 1.90821492927058770002e-10,
        two54 = 1.80143985094819840000e+16,
        Lg1 = 6.666666666666735130e-01,
        Lg2 = 3.999999999940941908e-01,
        Lg3 = 2.857142874366239149e-01,
        Lg4 = 2.222219843214978396e-01,
        Lg5 = 1.818357216161805012e-01,
        Lg6 = 1.531383769920937332e-01,
        Lg7 = 1.479819860511658591e-01,
        zero = 0.0;
    double hfsq, f, s, z, R, w, t1, t2, dk;
    int32_t k = 0, i, j;
    int32_t hx = high_word(x);
    uint32_t lx = low_word(x);

    if (hx < 0x00100000) {              /* x < 2**-1022 */
        if (((hx & 0x7fffffff) | lx) == 0)
            return -two54 / zero;       /* log(+-0) = -inf */
        if (hx < 0)
            return (x - x) / zero;      /* log(-#) = NaN */
        k -= 54;                        /* subnormal: scale x up */
        x *= two54;
        hx = high_word(x);
    }
    if (hx >= 0x7ff00000)
        return x + x;
    k += (hx >> 20) - 1023;
    hx &= 0x000fffff;
    i = (hx + 0x95f64) & 0x100000;
    x = with_high_word(x, hx | (i ^ 0x3ff00000));  /* x or x/2 */
    k += i >> 20;
    f = x - 1.0;
    if ((0x000fffff & (2 + hx)) < 3) {  /* |f| < 2**-20 */
        if (f == zero) {
            if (k == 0)
                return zero;
            dk = (double)k;
            return dk * ln2_hi + dk * ln2_lo;
        }
        R = f * f * (0.5 - 0.33333333333333333 * f);
        if (k == 0)
            return f - R;
        dk = (double)k;
        return dk * ln2_hi - ((R - dk * ln2_lo) - f);
    }
    s = f / (2.0 + f);
    dk = (double)k;
    z = s * s;
    i = hx - 0x6147a;
    w = z * z;
    j = 0x6b851 - hx;
    t1 = w * (Lg2 + w * (Lg4 + w * Lg6));
    t2 = z * (Lg1 + w * (Lg3 + w * (Lg5 + w * Lg7)));
    i |= j;
    R = t2 + t1;
    if (i > 0) {
        hfsq = 0.5 * f * f;
        if (k == 0)
            return f - (hfsq - s * (hfsq + R));
        return dk * ln2_hi - ((hfsq - (s * (hfsq + R) + dk * ln2_lo)) - f);
    }
    if (k == 0)
        return f - s * (f - R);
    return dk * ln2_hi - ((s * (f - R) - dk * ln2_lo) - f);
}

/* ---- the passes ---- */

struct net {
    double *rows, *rows_g2;     /* every field's embedding rows, d each */
    double *dense, *dense_g2;   /* every layer's weights, then its biases */
    double *input;              /* d slots per field, then the numeric ones */
    double *acts;               /* each layer's output */
    double *grads;              /* the dense gradient, then the input's; a
                                   step writes the deltas and the rows' */
    long *looked_up;            /* the rows of a pass's k fields */
    long *on;                   /* scratch: a pass's rows, a layer's units */
    long n_rows, n_layers, n_slots, n_dense, n_weights, d;
    double lr, eps;
    Py_buffer views[7];         /* the arrays `bind` took, held until the
                                   handle is freed */
    long sizes[];               /* n_layers + 1 layer widths */
};

/* the rows `rows` names into the first k fields' slots, zeros into the
   later fields' */
static void gather(const struct net *t, const long *rows, long k)
{
    long d = t->d;
    for (long j = 0; j < k; j++)
        memcpy(t->input + j * d, t->rows + rows[j] * d, d * sizeof(double));
    memset(t->input + k * d, 0, (t->n_slots - k * d) * sizeof(double));
}

/* the layers on the input vector: each layer's output into acts (ReLU
   after a hidden layer; a NaN stays NaN), the rates into `rates` */
static void layers(const struct net *t, double *rates)
{
    const long *size = t->sizes;
    long L = t->n_layers;
    const double *h = t->input, *w = t->dense, *b = t->dense + t->n_dense;
    double *z = t->acts;
    for (long l = 1; l <= L; l++)
        b -= size[l];
    for (long l = 0; l < L; l++) {
        long n = size[l], m = size[l + 1];
        for (long j = 0; j < m; j++)
            z[j] = 0.0;
        for (long i = 0; i < n; i++, w += m) {
            double x = h[i];
            for (long j = 0; j < m; j++)
                z[j] += x * w[j];
        }
        for (long j = 0; j < m; j++)
            z[j] += b[j];
        if (l < L - 1)
            for (long j = 0; j < m; j++)
                if (z[j] < 0.0)
                    z[j] = 0.0;
        b += m;
        h = z;
        z += m;
    }
    for (long j = 0; j < size[L]; j++) {
        double v = h[j];
        v = v < -30.0 ? -30.0 : v > 30.0 ? 30.0 : v;
        rates[j] = fd_exp(v);
    }
}

/* g[i] for each of the n_on rows i that `on` lists: the sum over j of
   w[i * m + j] * v[j], from 0.0 in j order. Four rows at a time, so that
   four independent sums are in flight. */
static void matvec(const double *w, const double *v, long m,
                   const long *on, long n_on, double *g)
{
    long r = 0;
    for (; r + 4 <= n_on; r += 4) {
        const double *w0 = w + on[r] * m, *w1 = w + on[r + 1] * m,
                     *w2 = w + on[r + 2] * m, *w3 = w + on[r + 3] * m;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (long j = 0; j < m; j++) {
            s0 += w0[j] * v[j];
            s1 += w1[j] * v[j];
            s2 += w2[j] * v[j];
            s3 += w3[j] * v[j];
        }
        g[on[r]] = s0;
        g[on[r + 1]] = s1;
        g[on[r + 2]] = s2;
        g[on[r + 3]] = s3;
    }
    for (; r < n_on; r++) {
        const double *wr = w + on[r] * m;
        double s = 0.0;
        for (long j = 0; j < m; j++)
            s += wr[j] * v[j];
        g[on[r]] = s;
    }
}

/* after `layers`, the gradients of the summed Poisson NLL against labels
   y into grads, but for the weights'; returns that loss */
static double backward(const struct net *t, const double *rates,
                       const double *y, long k)
{
    const long *size = t->sizes;
    long L = t->n_layers;
    const double *w = t->dense + t->n_weights;
    const double *act = t->acts + (t->n_dense - t->n_weights);
    double *gb = t->grads + t->n_dense;
    double loss = 0.0;
    gb -= size[L];
    for (long j = 0; j < size[L]; j++) {
        loss += rates[j] - y[j] * fd_log(rates[j]);
        gb[j] = rates[j] - y[j];
    }
    for (long l = L - 1; l >= 0; l--) {
        /* a layer's bias gradient is its pre-activation's gradient, its
           delta; its weight gradient h[i] * delta[j] is formed by `update`
           where it applies it */
        long n = size[l], m = size[l + 1], n_on = 0;
        const double *delta = gb;
        act -= m;
        const double *h = l ? act - n : t->input;
        w -= n * m;
        /* the gradient of this layer's input: of the previous layer's
           units, 0.0 where inactive, or of the looked-up rows' slots */
        long *on = t->on;
        if (l) {
            gb -= n;
            for (long i = 0; i < n; i++) {
                gb[i] = 0.0;
                on[n_on] = i;
                n_on += h[i] > 0.0;
            }
            matvec(w, delta, m, on, n_on, gb);
        } else {
            for (long i = 0; i < k * t->d; i++)
                on[n_on++] = i;
            matvec(w, delta, m, on, n_on, t->grads + t->n_dense);
        }
    }
    return loss;
}

/* AdaGrad on one entry: a += g*g; s = g*lr; den = sqrt(a); den += eps;
   s /= den; p -= s. Where s is zero it skips the division, whose quotient
   would be that same signed zero (den > 0), so the skip gives the full
   update's bits. */
static inline void adagrad_at(double *p, double *a, double g, double lr,
                              double eps)
{
    double s = g * g;
    *a += s;
    s = g * lr;
    if (s != 0.0) {
        double den = sqrt(*a);
        den += eps;
        s /= den;
    }
    *p -= s;
}

static void adagrad(double *restrict p, double *restrict a,
                    const double *restrict g, long n, double lr, double eps)
{
    for (long i = 0; i < n; i++)
        adagrad_at(p + i, a + i, g[i], lr, eps);
}

#ifdef __SSE2__
/* adagrad_at on two entries, one per lane, with the same IEEE operations.
   The zero skip is a blend: where s is zero the lane subtracts s, not the
   quotient, so every accumulator, a NaN one included, gives adagrad_at's
   bits. */
static inline void adagrad_pd(__m128d *p, __m128d *a, __m128d g, __m128d lr,
                              __m128d eps)
{
    *a = _mm_add_pd(*a, _mm_mul_pd(g, g));
    __m128d s = _mm_mul_pd(g, lr);
    __m128d den = _mm_add_pd(_mm_sqrt_pd(*a), eps);
    __m128d q = _mm_div_pd(s, den);
    __m128d nz = _mm_cmpneq_pd(s, _mm_setzero_pd());
    *p = _mm_sub_pd(*p, _mm_or_pd(_mm_and_pd(nz, q), _mm_andnot_pd(nz, s)));
}
#endif

/* adagrad on n contiguous entries, two at a time where SSE2 is there */
static void adagrad_packed(double *restrict p, double *restrict a,
                           const double *restrict g, long n, double lr,
                           double eps)
{
    long i = 0;
#ifdef __SSE2__
    __m128d lr2 = _mm_set1_pd(lr), eps2 = _mm_set1_pd(eps);
    for (; i + 2 <= n; i += 2) {
        __m128d pv = _mm_loadu_pd(p + i), av = _mm_loadu_pd(a + i);
        adagrad_pd(&pv, &av, _mm_loadu_pd(g + i), lr2, eps2);
        _mm_storeu_pd(p + i, pv);
        _mm_storeu_pd(a + i, av);
    }
#endif
    for (; i < n; i++)
        adagrad_at(p + i, a + i, g[i], lr, eps);
}

/* AdaGrad on a weight row whose gradients x * delta[j] are all signed
   zeros: adagrad_at with the division it would skip left out */
static void adagrad_zero(double *restrict p, double *restrict a, double x,
                         const double *restrict delta, long m, double lr)
{
    for (long j = 0; j < m; j++) {
        double g = x * delta[j];
        a[j] += g * g;
        p[j] -= g * lr;
    }
}

int kernel_update(const struct net *t, long k)
{
    long d = t->d;
    for (long i = 0; i < t->n_dense + d * k; i++)
        if (!isfinite(t->grads[i]))
            return 1;
    adagrad(t->dense, t->dense_g2, t->grads, t->n_dense, t->lr, t->eps);
    for (long j = 0; j < k; j++) {
        long row = t->looked_up[j] * d;
        adagrad(t->rows + row, t->rows_g2 + row,
                t->grads + t->n_dense + j * d, d, t->lr, t->eps);
    }
    return 0;
}

/* the largest |x[i]|, or NaN when an x[i] is NaN */
static double max_abs(const double *x, long n)
{
    double top = 0.0;
    for (long i = 0; i < n; i++) {
        double v = fabs(x[i]);
        if (v > top || v != v)
            top = v;
    }
    return top;
}

/* whether every gradient of a step's update is finite, after `backward`.
   A layer's bias gradient is its delta and its weight gradient h[i] *
   delta[j], h its input: each is finite when every h and delta is and
   fl(max|h| * max|delta|) is, because rounding is monotone; an infinite or
   NaN h or delta makes that product infinite or NaN too. The looked-up
   rows' gradients are sums, checked one by one. */
static int finite_grads(const struct net *t, long k)
{
    const long *size = t->sizes;
    const double *h = t->input, *delta = t->grads + t->n_weights;
    for (long l = 0; l < t->n_layers; l++) {
        if (!isfinite(max_abs(h, size[l]) * max_abs(delta, size[l + 1])))
            return 0;
        h = l ? h + size[l] : t->acts;
        delta += size[l + 1];
    }
    return isfinite(max_abs(t->grads + t->n_dense, k * t->d));
}

/* the AdaGrad update of a step whose gradients are finite: the dense
   parameters, then in place each looked-up row. The weight gradient g =
   h[i] * delta[j], h a layer's input, is formed here, where it is
   applied, and never stored. A weight row whose input is zero, and a
   column whose delta is, has signed zero gradients, so they take
   adagrad_zero's operations; the other entries take adagrad_at, two at a
   time where SSE2 is there, as do the biases, whose gradients are the
   deltas, and the rows. A layer's columns of non-zero delta are listed
   from the front of the scratch `on`, the others from its back: each
   column is written at both ends and one end advances, so no branch is
   taken. */
static void update(const struct net *t, long k)
{
    const long *size = t->sizes;
    long n_w = t->n_weights, *on = t->on;
    double *p = t->dense, *a = t->dense_g2, lr = t->lr, eps = t->eps;
    const double *h = t->input, *delta = t->grads + n_w;
#ifdef __SSE2__
    __m128d lr2 = _mm_set1_pd(lr), eps2 = _mm_set1_pd(eps);
#endif
    for (long l = 0; l < t->n_layers; l++) {
        long n = size[l], m = size[l + 1], n_on = 0, n_off = m;
        for (long j = 0; j < m; j++) {
            long nz = delta[j] != 0.0;
            on[n_on] = j;
            on[n_off - 1] = j;
            n_on += nz;
            n_off -= 1 - nz;
        }
        for (long i = 0; i < n; i++, p += m, a += m) {
            double x = h[i];
            if (x == 0.0 || n_on == 0) {
                adagrad_zero(p, a, x, delta, m, lr);
                continue;
            }
            long r = 0;
#ifdef __SSE2__
            __m128d x2 = _mm_set1_pd(x);
            for (; r + 2 <= n_on; r += 2) {
                long j0 = on[r], j1 = on[r + 1];
                __m128d pv = _mm_set_pd(p[j1], p[j0]);
                __m128d av = _mm_set_pd(a[j1], a[j0]);
                __m128d gv = _mm_mul_pd(x2, _mm_set_pd(delta[j1], delta[j0]));
                adagrad_pd(&pv, &av, gv, lr2, eps2);
                _mm_storel_pd(p + j0, pv);
                _mm_storeh_pd(p + j1, pv);
                _mm_storel_pd(a + j0, av);
                _mm_storeh_pd(a + j1, av);
            }
#endif
            for (; r < n_on; r++) {
                long j = on[r];
                adagrad_at(p + j, a + j, x * delta[j], lr, eps);
            }
            for (long r = n_on; r < m; r++) {
                long j = on[r];
                double g = x * delta[j];
                a[j] += g * g;
                p[j] -= g * lr;
            }
        }
        h = l ? h + n : t->acts;
        delta += m;
    }
    adagrad_packed(p, a, t->grads + n_w, t->n_dense - n_w, lr, eps);
    for (long j = 0; j < k; j++) {
        long row = t->looked_up[j] * t->d;
        adagrad_packed(t->rows + row, t->rows_g2 + row,
                       t->grads + t->n_dense + j * t->d, t->d, lr, eps);
    }
}

void kernel_forward(const struct net *t, long k, double *rates)
{
    gather(t, t->looked_up, k);
    layers(t, rates);
}

int kernel_train_step(const struct net *t, long k, const double *y,
                      double *loss)
{
    double rates[2];
    gather(t, t->looked_up, k);
    layers(t, rates);
    *loss = backward(t, rates, y, k);
    if (!isfinite(*loss) || !finite_grads(t, k))
        return 1;
    update(t, k);
    return 0;
}

/* one model's rate on the serving input of the k rows `rows`, every
   numeric slot zero: rate_plus - rate_minus with two outputs */
double kernel_read(const struct net *t, const long *rows, long k)
{
    double rates[2];
    gather(t, rows, k);
    memset(t->input + t->n_slots, 0,
           (t->sizes[0] - t->n_slots) * sizeof(double));
    layers(t, rates);
    return t->sizes[t->n_layers] == 2 ? rates[0] - rates[1] : rates[0];
}

/* ---- the Python entries ---- */

static Py_ssize_t refuse(PyObject *type, const char *format, ...)
{
    va_list args;
    va_start(args, format);
    PyErr_FormatV(type, format, args);
    va_end(args);
    return -1;
}

/* The rows of `pairs`, a tuple or a list of at most one (field, token)
   pair per field, looked up in `memo`, a dict of (field, token) pairs to
   rows, into looked_up, and, unless `values` is NULL, values, a list of
   one float per numeric slot, into those slots. The row of the pair at
   position j must be of field j: in [j * buckets, (j + 1) * buckets).
   Returns k, the number of pairs, or -1 with an error set and nothing
   written: KeyError for a pair the memo lacks, whose row is of another
   field or that is beyond the last field, TypeError or ValueError for any
   other bad argument. The rows wait in the scratch `on` until all is
   checked. */
static Py_ssize_t fill(const struct net *t, PyObject *pairs, PyObject *values,
                       PyObject *memo)
{
    long n_fields = t->n_slots / t->d, n_numeric = t->sizes[0] - t->n_slots;
    if (!PyTuple_Check(pairs) && !PyList_Check(pairs))
        return refuse(PyExc_TypeError, "pairs must be a tuple or a list, not "
                      "%.100s", Py_TYPE(pairs)->tp_name);
    if (!PyDict_Check(memo))
        return refuse(PyExc_TypeError, "memo must be a dict, not %.100s",
                      Py_TYPE(memo)->tp_name);
    Py_ssize_t k = PySequence_Fast_GET_SIZE(pairs);
    if (k > n_fields)
        return refuse(PyExc_KeyError, "%zd pairs for %ld fields", k,
                      n_fields);
    long buckets = k ? t->n_rows / n_fields : 0;
    for (Py_ssize_t j = 0; j < k; j++) {
        /* a key's __eq__ may run Python code, which may shrink a list */
        if (PySequence_Fast_GET_SIZE(pairs) != k)
            return refuse(PyExc_RuntimeError, "pairs changed size");
        PyObject *pair = PySequence_Fast_GET_ITEM(pairs, j);
        Py_INCREF(pair);
        PyObject *row = PyDict_GetItemWithError(memo, pair);
        Py_DECREF(pair);
        if (!row)
            return PyErr_Occurred() ? -1 : refuse(PyExc_KeyError, "pair %zd "
                                                  "is not in the memo", j);
        int overflow;
        if (!PyLong_Check(row))
            return refuse(PyExc_TypeError, "the row of pair %zd must be an "
                          "int, not %.100s", j, Py_TYPE(row)->tp_name);
        long r = PyLong_AsLongAndOverflow(row, &overflow);
        if (overflow || r < 0 || r >= t->n_rows)
            return refuse(PyExc_ValueError, "the row of pair %zd is %R, not "
                          "in [0, %ld)", j, row, t->n_rows);
        if (r < j * buckets || r >= (j + 1) * buckets)
            return refuse(PyExc_KeyError, "the row of pair %zd is %ld, not "
                          "of field %zd", j, r, j);
        t->on[j] = r;
    }
    if (values) {
        if (!PyList_Check(values))
            return refuse(PyExc_TypeError, "values must be a list, not "
                          "%.100s", Py_TYPE(values)->tp_name);
        if (PyList_GET_SIZE(values) != n_numeric)
            return refuse(PyExc_ValueError, "%zd values for %ld numeric "
                          "slots", PyList_GET_SIZE(values), n_numeric);
        for (Py_ssize_t i = 0; i < n_numeric; i++) {
            PyObject *value = PyList_GET_ITEM(values, i);
            if (!PyFloat_Check(value))
                return refuse(PyExc_TypeError, "value %zd must be a float, "
                              "not %.100s", i, Py_TYPE(value)->tp_name);
        }
        for (Py_ssize_t i = 0; i < n_numeric; i++)
            t->input[t->n_slots + i] =
                PyFloat_AS_DOUBLE(PyList_GET_ITEM(values, i));
    }
    memcpy(t->looked_up, t->on, k * sizeof(long));
    return k;
}

/* a net's name, which every build of this source takes */
#define NET "delayfeed._kernel.net"

/* the net of `arg`, a handle of `bind`; NULL with TypeError for anything
   else */
static struct net *net_of(PyObject *arg)
{
    if (PyCapsule_IsValid(arg, NET))
        return PyCapsule_GetPointer(arg, NET);
    PyErr_Format(PyExc_TypeError, "a pass takes a net of bind, not %.100s",
                 Py_TYPE(arg)->tp_name);
    return NULL;
}

static int takes(const char *name, Py_ssize_t n, Py_ssize_t nargs)
{
    if (nargs == n)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", name, n,
                 nargs);
    return 0;
}

static void free_net(PyObject *net)
{
    struct net *t = PyCapsule_GetPointer(net, NET);
    for (int i = 0; i < 7; i++)
        PyBuffer_Release(&t->views[i]);
    PyMem_Free(t);
}

/* bind(params, g2, input, acts, grads, looked_up, on, sizes, d, lr, eps):
   the net of these arrays, which it holds until it is freed */
static PyObject *py_bind(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    if (!takes("bind", 11, nargs))
        return NULL;
    PyObject *sizes = args[7];
    if (!PyTuple_Check(sizes) || !PyFloat_Check(args[9])
        || !PyFloat_Check(args[10]))
        return PyErr_Format(PyExc_TypeError, "bind takes a tuple of sizes "
                            "and float lr and eps");
    long L = PyTuple_GET_SIZE(sizes) - 1, d = PyLong_AsLong(args[8]);
    if (d == -1 && PyErr_Occurred())
        return NULL;
    struct net *t = PyMem_Calloc(1, sizeof *t + (L + 1) * sizeof(long));
    PyObject *net = t ? PyCapsule_New(t, NET, free_net) : PyErr_NoMemory();
    if (!net) {
        PyMem_Free(t);
        return NULL;
    }
    Py_ssize_t len[7];
    for (int i = 0; i < 7; i++) {
        Py_buffer *view = &t->views[i];
        if (PyObject_GetBuffer(args[i], view, PyBUF_C_CONTIGUOUS |
                               PyBUF_WRITABLE | PyBUF_FORMAT) < 0)
            goto fail;
        if (view->ndim != 1 || strcmp(view->format, i < 5 ? "d" : "l")) {
            PyErr_Format(PyExc_ValueError, "argument %d must be a "
                         "one-dimensional array of %s", i,
                         i < 5 ? "float64" : "C long");
            goto fail;
        }
        len[i] = view->shape[0];
    }
    /* each width is bounded by its array before any product is taken */
    long n_fields = len[5], n_acts = 0, n_dense = 0, widest = 0;
    int ok = L >= 1 && d >= 1;
    for (long l = 0; ok && l <= L; l++) {
        long m = PyLong_AsLong(PyTuple_GET_ITEM(sizes, l));
        if (m == -1 && PyErr_Occurred())
            goto fail;
        ok = m >= 0 && m <= len[l ? 3 : 2];
        t->sizes[l] = m;
        n_acts += l ? m : 0;
        n_dense += l ? t->sizes[l - 1] * m + m : 0;
        widest = m > widest ? m : widest;
    }
    /* params: n_fields tables of d-entry rows, then the dense block */
    long n_emb = len[0] - n_dense;
    if (!(ok && t->sizes[0] == len[2] && n_acts == len[3]
          && t->sizes[L] >= 1 && t->sizes[L] <= 2 && widest <= len[6]
          && len[4] == n_dense + len[2] && len[1] == len[0]
          && n_fields <= len[2] / d && n_emb >= 0
          && (n_fields ? n_emb % (n_fields * d) == 0 : n_emb == 0))) {
        PyErr_Format(PyExc_ValueError, "model kernel buffers do not match "
                     "layers %R: params %zd, g2 %zd, input %zd, acts %zd, "
                     "grads %zd, %zd fields of %ld, %zd scratch entries",
                     sizes, len[0], len[1], len[2], len[3], len[4], len[5],
                     d, len[6]);
        goto fail;
    }
    t->rows = t->views[0].buf, t->dense = t->rows + n_emb;
    t->rows_g2 = t->views[1].buf, t->dense_g2 = t->rows_g2 + n_emb;
    t->input = t->views[2].buf, t->acts = t->views[3].buf;
    t->grads = t->views[4].buf;
    t->looked_up = t->views[5].buf, t->on = t->views[6].buf;
    t->n_rows = n_emb / d, t->n_layers = L, t->n_slots = n_fields * d;
    t->n_dense = n_dense, t->n_weights = n_dense - n_acts, t->d = d;
    t->lr = PyFloat_AS_DOUBLE(args[9]), t->eps = PyFloat_AS_DOUBLE(args[10]);
    return net;
fail:
    Py_DECREF(net);
    return NULL;
}

static PyObject *py_forward(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    const struct net *t;
    double rates[2];
    if (!takes("forward", 4, nargs) || !(t = net_of(args[0])))
        return NULL;
    Py_ssize_t k = fill(t, args[1], args[2], args[3]);
    if (k < 0)
        return NULL;
    kernel_forward(t, k, rates);
    if (t->sizes[t->n_layers] == 1)
        return PyFloat_FromDouble(rates[0]);
    return Py_BuildValue("(dd)", rates[0], rates[1]);
}

static PyObject *py_train_step(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    const struct net *t;
    double y[2], loss;
    if (!takes("train_step", 5, nargs) || !(t = net_of(args[0])))
        return NULL;
    PyObject *labels = args[3];
    long n_out = t->sizes[t->n_layers];
    if (!PyTuple_Check(labels))
        return PyErr_Format(PyExc_TypeError, "labels must be a tuple, not "
                            "%.100s", Py_TYPE(labels)->tp_name);
    if (PyTuple_GET_SIZE(labels) != n_out)
        return PyErr_Format(PyExc_ValueError, "%zd labels for %ld outputs",
                            PyTuple_GET_SIZE(labels), n_out);
    for (long j = 0; j < n_out; j++) {
        PyObject *label = PyTuple_GET_ITEM(labels, j);
        if (!PyFloat_Check(label))
            return PyErr_Format(PyExc_TypeError, "label %ld must be a "
                                "float, not %.100s", j,
                                Py_TYPE(label)->tp_name);
        y[j] = PyFloat_AS_DOUBLE(label);
    }
    Py_ssize_t k = fill(t, args[1], args[2], args[4]);
    if (k < 0)
        return NULL;
    if (!kernel_train_step(t, k, y, &loss))
        return PyFloat_FromDouble(loss);
    PyObject *value = PyFloat_FromDouble(loss);
    if (value) {
        PyErr_Format(PyExc_FloatingPointError, "non-finite loss or gradient "
                     "(loss=%R); step not applied", value);
        Py_DECREF(value);
    }
    return NULL;
}

static PyObject *py_read(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    if (!takes("read", 3, nargs))
        return NULL;
    PyObject *nets = args[0];
    if (!PyTuple_Check(nets))
        return PyErr_Format(PyExc_TypeError, "read takes a tuple of nets, "
                            "not %.100s", Py_TYPE(nets)->tp_name);
    Py_ssize_t n = PyTuple_GET_SIZE(nets);
    if (n == 0)
        return PyErr_Format(PyExc_ValueError, "read takes at least one net");
    const struct net *first = net_of(PyTuple_GET_ITEM(nets, 0)), *t;
    for (Py_ssize_t r = 0; r < n; r++) {
        if (!first || !(t = net_of(PyTuple_GET_ITEM(nets, r))))
            return NULL;
        long L = t->n_layers;
        if (t->n_rows != first->n_rows || t->d != first->d
            || t->n_slots != first->n_slots || L != first->n_layers
            || memcmp(t->sizes, first->sizes, (L + 1) * sizeof(long)))
            return PyErr_Format(PyExc_ValueError, "net %zd is not of net "
                                "0's layout", r);
    }
    Py_ssize_t k = fill(first, args[1], NULL, args[2]);
    if (k < 0)
        return NULL;
    double total = 0.0;
    for (Py_ssize_t r = 0; r < n; r++)
        total += kernel_read(PyCapsule_GetPointer(PyTuple_GET_ITEM(nets, r),
                                                  NET), first->looked_up, k);
    return PyFloat_FromDouble(total);
}

static PyObject *py_update(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    const struct net *t;
    if (!takes("update", 2, nargs) || !(t = net_of(args[0])))
        return NULL;
    long k = PyLong_AsLong(args[1]), n_fields = t->n_slots / t->d;
    if (k == -1 && PyErr_Occurred())
        return NULL;
    if (k < 0 || k > n_fields)
        return PyErr_Format(PyExc_ValueError, "k is %ld, not in [0, %ld]", k,
                            n_fields);
    for (long j = 0; j < k; j++)
        if (t->looked_up[j] < 0 || t->looked_up[j] >= t->n_rows)
            return PyErr_Format(PyExc_ValueError, "looked-up row %ld is %ld, "
                                "not in [0, %ld)", j, t->looked_up[j],
                                t->n_rows);
    return PyLong_FromLong(kernel_update(t, k));
}

static PyObject *py_exp(PyObject *self, PyObject *arg)
{
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(fd_exp(x));
}

static PyObject *py_log(PyObject *self, PyObject *arg)
{
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(fd_log(x));
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"bind", FASTCALL(py_bind), "bind(params, g2, input, acts, grads, "
     "looked_up, on, sizes, d, lr, eps)"},
    {"forward", FASTCALL(py_forward), "forward(net, pairs, values, memo)"},
    {"train_step", FASTCALL(py_train_step),
     "train_step(net, pairs, values, labels, memo)"},
    {"read", FASTCALL(py_read), "read(nets, pairs, memo)"},
    {"update", FASTCALL(py_update), "update(net, k)"},
    {"exp", py_exp, METH_O, "exp(x)"},
    {"log", py_log, METH_O, "log(x)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT, .m_name = "delayfeed._kernel",
    .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
"""

# the running Python's headers, which SOURCE includes
INCLUDE = sysconfig.get_paths()["include"]
COMMAND = ("cc", "-O3", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-math-errno", "-falign-functions=64", "-falign-loops=32",
           "-x", "c", "-")


def build(out_dir) -> Path:
    """The path of the extension module compiled from SOURCE in `out_dir`,
    named after a hash of the source, COMMAND, INCLUDE and the running
    Python's extension suffix, so that no interpreter loads another's
    build. Runs the compiler only when that file is not there yet: into a
    temporary file of `out_dir`, then renamed, so that concurrent builds
    never load a half-written module, and then deletes the earlier builds
    of `out_dir` with the same extension suffix, leaving one per
    interpreter. A missing or failing compiler, or a missing `Python.h`,
    raises RuntimeError naming the command."""
    out_dir = Path(out_dir)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256(
        "\0".join((SOURCE, *COMMAND, INCLUDE, suffix)).encode()).hexdigest()
    lib = out_dir / f"kernel_{digest[:16]}{suffix}"
    if lib.exists():
        return lib
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"kernel_{digest[:16]}.", suffix=".tmp",
                               dir=out_dir)
    os.close(fd)
    command = [*COMMAND, f"-I{INCLUDE}", "-o", tmp]
    try:
        subprocess.run(command, input=SOURCE, text=True, capture_output=True,
                       check=True)
        os.replace(tmp, lib)
    except (OSError, subprocess.CalledProcessError) as exc:
        os.unlink(tmp)
        detail = getattr(exc, "stderr", None) or exc
        raise RuntimeError(f"cannot build the model kernel: "
                           f"`{' '.join(command)}` failed: {detail}") from exc
    for old in out_dir.glob(f"kernel_*{suffix}"):
        if old != lib:
            old.unlink(missing_ok=True)
    return lib


def _load(lib):
    spec = importlib.util.spec_from_file_location("delayfeed._kernel", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_module = _load(build(Path(__file__).with_name("__pycache__")))
bind, forward, train_step = _module.bind, _module.forward, _module.train_step
read, update, exp, log = _module.read, _module.update, _module.exp, _module.log
