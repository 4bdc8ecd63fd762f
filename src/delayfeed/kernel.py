"""Every pass of a model, compiled from C: the forward, the training step
and the stacked read, the functions of one CPython extension module.

A model's `Net`, made once by `bind`, holds the addresses of its buffers
and its layout. A pass is one call that takes the `Net`'s address as an
int (`ctypes.addressof`), the pass's (field, token) pairs, a tuple or a
list of the first k fields' pairs, the values of its numeric slots as a
list of floats, and last the model's row memo, a dict of (field, token)
pairs to rows of its embedding tables, and returns Python floats.
`forward(net, pairs, values, memo)` looks each pair's row up in the memo,
writes the rows into `net.looked_up` and the values into the input
vector's numeric slots, gathers those rows into the first k fields' slots,
writes zeros into the later fields' slots, and runs the dense layers: ReLU
after each hidden layer, the output layer's log-rates clamped to [-30,
30], then `exp`. Every layer sums in one fixed order, input i outer and
output j inner, each pre-activation from 0.0 upwards and then its bias. It
returns the rate, or the (rate_plus, rate_minus) pair of a model of two
outputs.

`train_step(net, pairs, values, labels, memo)`, `labels` a tuple of one
float per output, runs that forward and the backward of the summed Poisson
NLL against the labels, writing `net.loss`, each layer's delta, which is
its bias gradient, and the input gradient's first d * k entries, the
looked-up rows' (`Net.grads`: laid out like the dense parameters, then the
input vector; a step leaves the weights' block as it was). Each gradient of
a layer's input sums over that layer's outputs in order, from 0.0; a
hidden unit whose ReLU output is not above 0 gets 0.0. A layer's weight
gradient h[i] * delta[j], h the layer's input, is never stored: the update
forms each product where it applies it. The update refuses the step,
writing no parameter and no accumulator, when the loss or a gradient it
would apply is not finite. It checks that from the gradients' structure:
the bias gradients are the deltas and the weight gradients those
products, so all of them are finite when every h and delta is and so is
fl(max|h| * max|delta|), rounding being monotone; the looked-up rows'
gradients are checked one by one. Otherwise it applies AdaGrad to each
entry, of the dense parameters and then in place of each looked-up row:
accum += g*g; s = g*lr; den = sqrt(accum); den += eps; s /= den; param -=
s. Where s is zero it skips the division, whose quotient would be that
same signed zero (den > 0), so the skip gives the full update's bits. A
weight row whose input is zero, and a column whose delta is zero, has
signed zero gradients: those entries take accum += g*g; param -= g*lr
alone, with no branch. The other weight entries, the biases and the rows'
entries run two at a time, one per SSE2 lane, each lane the same IEEE
operations; there the skip is a blend, s where s is zero and the quotient
elsewhere, so each lane gives the one-entry form's bits for every
accumulator, a NaN one included. An odd last entry runs alone. The step
returns the loss, or None when it refused the step.

`read(stack, pairs, memo)` returns the served rate of a `RegressorStack`
on one serving input: each model's forward on those rows with all numeric
slots zero, and their rates (rate_plus - rate_minus with two outputs)
summed from 0.0 in model order, the IEEE operations of that sum written
left to right in Python. A model has one or two outputs.

The kernel keeps a pass's rows until they are checked, a layer's active
inputs in the backward and a layer's columns in the update in the model's
scratch `Net.on`, not on the C stack, so a layer of any width runs on a
thread of small stack. Every pass checks its arguments before it writes
anything. It raises KeyError for a pair the memo lacks, a pair whose row
is not of the field at its position (row // buckets != j), or more pairs
than the layout has fields: the model then looks the pairs up in Python,
which refuses an input that is not the first k fields in order, and calls
again. It raises TypeError for pairs that are no tuple or list, a memo
that is no dict, a pair that cannot be hashed, a memo row that is no int,
values that are no list, labels that are no tuple, or a value or label
that is no float, and ValueError for a memo row outside the tables or a
count of values or labels other than the layout's. The address is not
checked: it must be that of a live `Net`, or of a `Stack` for `read`.

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
a 2-core x86-64 VM). `exp` and `log` are exported here, for the tests'
references, as is `update(net, k)`, the tests' entry to the per-element
AdaGrad of a step: it scans `Net.grads`, the weights' block included,
which the caller fills, for a non-finite entry, and applies AdaGrad from
it, one entry at a time, to the dense parameters and to the first k rows
that `net.looked_up` names; it returns 0, or 1 when it refused the
update.

The module is compiled once per source, command, Python include directory
and extension suffix, by `build`, into the package's `__pycache__/` when
this module is first imported; a C compiler, `cc`, and the running
Python's headers (`Python.h`) must be there then.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

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
    const long *sizes;          /* n_layers + 1 layer widths */
    long *looked_up;            /* the rows of a pass's k fields */
    long *on;                   /* scratch: a pass's rows, a layer's units */
    long n_rows, n_layers, n_slots, n_dense, d;
    double lr, eps;
    double loss;                /* a step's loss */
};

struct stack {
    const struct net *const *nets;
    long n_nets;
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
    long L = t->n_layers, n_w = 0, n_acts = 0;
    for (long l = 0; l < L; l++) {
        n_w += size[l] * size[l + 1];
        n_acts += size[l + 1];
    }
    const double *w = t->dense + n_w, *act = t->acts + n_acts;
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
    /* g * 0.0 is NaN for an infinite or NaN g, else a zero: four sums of
       those, so that four are in flight */
    const double *g = t->grads;
    long n = t->n_dense + d * k, i = 0;
    double z0 = 0.0, z1 = 0.0, z2 = 0.0, z3 = 0.0;
    for (; i + 4 <= n; i += 4) {
        z0 += g[i] * 0.0;
        z1 += g[i + 1] * 0.0;
        z2 += g[i + 2] * 0.0;
        z3 += g[i + 3] * 0.0;
    }
    for (; i < n; i++)
        z0 += g[i] * 0.0;
    if (!(z0 == 0.0 && z1 == 0.0 && z2 == 0.0 && z3 == 0.0))
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

/* the number of weights, every layer's (n, m) */
static long n_weights(const struct net *t)
{
    long n_w = 0;
    for (long l = 0; l < t->n_layers; l++)
        n_w += t->sizes[l] * t->sizes[l + 1];
    return n_w;
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
    const double *h = t->input, *delta = t->grads + n_weights(t);
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
    long n_w = n_weights(t), *on = t->on;
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

int kernel_train_step(struct net *t, long k, const double *y)
{
    double rates[2];
    gather(t, t->looked_up, k);
    layers(t, rates);
    t->loss = backward(t, rates, y, k);
    if (!isfinite(t->loss) || !finite_grads(t, k))
        return 1;
    update(t, k);
    return 0;
}

double kernel_read(const struct stack *s, long k)
{
    const long *rows = s->nets[0]->looked_up;
    double total = 0.0, rates[2];
    for (long r = 0; r < s->n_nets; r++) {
        const struct net *t = s->nets[r];
        gather(t, rows, k);
        memset(t->input + t->n_slots, 0,
               (t->sizes[0] - t->n_slots) * sizeof(double));
        layers(t, rates);
        total += t->sizes[t->n_layers] == 2 ? rates[0] - rates[1] : rates[0];
    }
    return total;
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

/* the struct at the address `arg`, an int; NULL with an error set for
   anything else or for 0 */
static void *at(PyObject *arg)
{
    void *p = PyLong_AsVoidPtr(arg);
    if (p == NULL && !PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "a pass takes a model's address, "
                        "not 0");
    return p;
}

static int takes(const char *name, Py_ssize_t n, Py_ssize_t nargs)
{
    if (nargs == n)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", name, n,
                 nargs);
    return 0;
}

static PyObject *py_forward(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    const struct net *t;
    double rates[2];
    if (!takes("forward", 4, nargs) || !(t = at(args[0])))
        return NULL;
    Py_ssize_t k = fill(t, args[1], args[2], args[3]);
    if (k < 0)
        return NULL;
    kernel_forward(t, k, rates);
    if (t->sizes[t->n_layers] == 1)
        return PyFloat_FromDouble(rates[0]);
    PyObject *pair = PyTuple_New(2);
    for (int j = 0; pair && j < 2; j++) {
        PyObject *rate = PyFloat_FromDouble(rates[j]);
        if (!rate)
            Py_CLEAR(pair);
        else
            PyTuple_SET_ITEM(pair, j, rate);
    }
    return pair;
}

static PyObject *py_train_step(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    struct net *t;
    double y[2];
    if (!takes("train_step", 5, nargs) || !(t = at(args[0])))
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
    if (kernel_train_step(t, k, y))
        Py_RETURN_NONE;
    return PyFloat_FromDouble(t->loss);
}

static PyObject *py_read(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    const struct stack *s;
    if (!takes("read", 3, nargs) || !(s = at(args[0])))
        return NULL;
    Py_ssize_t k = fill(s->nets[0], args[1], NULL, args[2]);
    if (k < 0)
        return NULL;
    return PyFloat_FromDouble(kernel_read(s, k));
}

static PyObject *py_update(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    const struct net *t;
    if (!takes("update", 2, nargs) || !(t = at(args[0])))
        return NULL;
    long k = PyLong_AsLong(args[1]);
    if (k == -1 && PyErr_Occurred())
        return NULL;
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
    {"forward", FASTCALL(py_forward), "forward(net, pairs, values, memo)"},
    {"train_step", FASTCALL(py_train_step),
     "train_step(net, pairs, values, labels, memo)"},
    {"read", FASTCALL(py_read), "read(stack, pairs, memo)"},
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


class Net(ctypes.Structure):
    """One model's argument to every pass, made once by `bind`: its
    buffers' addresses and layout, then `loss`, the loss of its last step,
    which a refused step leaves for the caller to report."""

    _fields_ = [
        ("rows", ctypes.c_void_p), ("rows_g2", ctypes.c_void_p),
        ("dense", ctypes.c_void_p), ("dense_g2", ctypes.c_void_p),
        ("input", ctypes.c_void_p), ("acts", ctypes.c_void_p),
        ("grads", ctypes.c_void_p),
        ("sizes", ctypes.POINTER(ctypes.c_long)),
        ("looked_up", ctypes.POINTER(ctypes.c_long)),
        ("on", ctypes.POINTER(ctypes.c_long)),
        ("n_rows", ctypes.c_long), ("n_layers", ctypes.c_long),
        ("n_slots", ctypes.c_long), ("n_dense", ctypes.c_long),
        ("d", ctypes.c_long),
        ("lr", ctypes.c_double), ("eps", ctypes.c_double),
        ("loss", ctypes.c_double),
    ]


class Stack(ctypes.Structure):
    """The models `read` runs, made once by `bind_stack`."""

    _fields_ = [("nets", ctypes.POINTER(ctypes.POINTER(Net))),
                ("n_nets", ctypes.c_long)]


def bind(rows, rows_g2, dense, dense_g2, input, acts, grads, looked_up, on,
         sizes, lr, eps) -> Net:
    """The `Net` of these buffers, which the caller keeps alive as long as
    it: `rows` and `rows_g2` of shape (m, d), every field's table of m /
    fields rows in field order; `dense` and `dense_g2`, every layer's (n,
    m) weights and then every layer's m biases for the layer widths
    `sizes`, at most two outputs; `input` of sizes[0] entries, d per field
    of `looked_up` and then the numeric slots; `acts` of sum(sizes[1:]);
    `grads` of dense.size + sizes[0]; all C-contiguous float64;
    `looked_up`, a ctypes array of c_long, one entry per field, into which
    each pass writes its rows; and `on`, the passes' scratch, a ctypes
    array of c_long with an entry per unit of the widest layer, the input
    and the output included."""
    arrays = rows, rows_g2, dense, dense_g2, input, acts, grads
    if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays):
        raise ValueError("the model kernel takes C-contiguous float64 arrays")
    sizes = [int(s) for s in sizes]
    layers = list(zip(sizes, sizes[1:]))
    n_dense = sum(n * m + m for n, m in layers)
    (n_rows, d), n_slots = rows.shape, rows.shape[1] * len(looked_up)
    if not (layers and rows_g2.shape == rows.shape
            and dense.shape == dense_g2.shape == (n_dense,)
            and input.shape == (sizes[0],) and n_slots <= sizes[0]
            and acts.shape == (sum(sizes[1:]),)
            and grads.shape == (n_dense + sizes[0],)
            and sizes[-1] <= 2 and len(on) >= max(sizes)):
        raise ValueError(
            f"model kernel buffers do not match layers {sizes}: rows "
            f"{rows.shape}, rows_g2 {rows_g2.shape}, dense {dense.shape}, "
            f"dense_g2 {dense_g2.shape}, input {input.shape}, acts "
            f"{acts.shape}, grads {grads.shape}, {len(looked_up)} fields, "
            f"{len(on)} scratch entries")
    return Net(rows.ctypes.data, rows_g2.ctypes.data, dense.ctypes.data,
               dense_g2.ctypes.data, input.ctypes.data, acts.ctypes.data,
               grads.ctypes.data, (ctypes.c_long * len(sizes))(*sizes),
               looked_up, on, n_rows, len(layers), n_slots, n_dense, d, lr,
               eps)


def bind_stack(nets) -> Stack:
    """The `Stack` of these `Net`s, which share one layout and which the
    caller keeps alive as long as it."""
    pointers = (ctypes.POINTER(Net) * len(nets))(*map(ctypes.pointer, nets))
    return Stack(pointers, len(nets))


def _load(lib):
    spec = importlib.util.spec_from_file_location("delayfeed._kernel", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_module = _load(build(Path(__file__).with_name("__pycache__")))
forward, train_step, read = _module.forward, _module.train_step, _module.read
update, exp, log = _module.update, _module.exp, _module.log
