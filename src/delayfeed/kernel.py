"""Every pass of a model, compiled from C: the forward, the training step
and the stacked read.

A model's `Net`, made once by `bind`, holds the addresses of its buffers
and, inline, the rates `out`, a step's labels `y` and its `loss`, so a
pass takes two arguments. `forward(net, k)` gathers the k embedding rows
that `net.looked_up` names into the first k fields' slots of the input
vector, writes zeros into the later fields' slots (the caller has written
the numeric slots), and runs the dense layers into `net.out`: ReLU after
each hidden layer, the output layer's log-rates clamped to [-30, 30],
then `exp`. Every layer sums in one fixed order, input i outer and output
j inner, each pre-activation from 0.0 upwards and then its bias.

`train_step(net, k)` runs that forward and the backward of the summed
Poisson NLL against `net.y`, writing `net.loss` and the gradients
(`Net.grads`: the dense gradient, laid out like the dense parameters,
then the input gradient's first d * k entries, the looked-up rows'). Each
gradient of a layer's input sums over that layer's outputs in order, from
0.0; a hidden unit whose ReLU output is not above 0 gets 0.0. The
backward lists a layer's active inputs in the model's scratch `Net.on`,
not on the C stack, so a layer of any width runs on a thread of small
stack. Then `update` refuses the step, writing no parameter and no
accumulator, when the loss or an entry of those gradients is not finite;
otherwise it applies AdaGrad element by element, to the dense parameters
and then in place to each looked-up row: accum += g*g; s = g*lr;
den = sqrt(accum); den += eps; s /= den; param -= s. Where s is zero it
skips the division, whose quotient would be that same signed zero
(den > 0), so the skip gives the full update's bits; about three quarters
of a step's dense gradient is exactly zero.

`read(stack, k)` returns the served rate of a `RegressorStack` on one
serving input: each model's forward with all numeric slots zero, on the
rows its first model's `looked_up` names, and their rates (rate_plus -
rate_minus with two outputs) summed from 0.0 in model order, the IEEE
operations of that sum written left to right in Python. A model has one
or two outputs.

`exp` and `log` are fdlibm's, in the source, and each operation is one
IEEE double operation: the library is built with `-ffp-contract=off`,
which keeps the compiler from fusing a multiply into an add, and with no
`-march`, so it takes the same code path, and gives the same bits, on
every x86-64 host. libm is not used, because glibc picks its `exp` and
`log` by CPU. The two are exported as `exp` and `log` here, for the
tests' references.

The library is compiled once per source and command, by `build`, into the
package's `__pycache__/` when the module is first imported; a C compiler,
`cc`, must be on PATH then.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

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
    double *grads;              /* the dense gradient, then the input's */
    const long *sizes;          /* n_layers + 1 layer widths */
    const long *looked_up;      /* the rows of a pass's k fields */
    long *on;                   /* a layer's active inputs, in the backward */
    long n_layers, n_slots, n_dense, d;
    double lr, eps;
    double out[2], y[2], loss;  /* a pass's rates, a step's labels and loss */
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
   y into grads; returns that loss */
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
    double *gw = t->grads + n_w, *gb = t->grads + t->n_dense;
    double loss = 0.0;
    gb -= size[L];
    for (long j = 0; j < size[L]; j++) {
        loss += rates[j] - y[j] * fd_log(rates[j]);
        gb[j] = rates[j] - y[j];
    }
    for (long l = L - 1; l >= 0; l--) {
        /* a layer's bias gradient is its pre-activation's gradient */
        long n = size[l], m = size[l + 1], n_on = 0;
        const double *delta = gb;
        act -= m;
        const double *h = l ? act - n : t->input;
        w -= n * m;
        gw -= n * m;
        for (long i = 0; i < n; i++)
            for (long j = 0; j < m; j++)
                gw[i * m + j] = h[i] * delta[j];
        /* the gradient of this layer's input: of the previous layer's
           units, 0.0 where inactive, or of the looked-up rows' slots */
        long *on = t->on;
        if (l) {
            gb -= n;
            for (long i = 0; i < n; i++) {
                gb[i] = 0.0;
                if (h[i] > 0.0)
                    on[n_on++] = i;
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

static void adagrad(double *restrict p, double *restrict a,
                    const double *restrict g, long n, double lr, double eps)
{
    for (long i = 0; i < n; i++) {
        double s = g[i] * g[i];
        a[i] += s;
        s = g[i] * lr;
        if (s != 0.0) {
            double den = sqrt(a[i]);
            den += eps;
            s /= den;
        }
        p[i] -= s;
    }
}

int kernel_update(const struct net *t, int k)
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

void kernel_forward(struct net *t, int k)
{
    gather(t, t->looked_up, k);
    layers(t, t->out);
}

int kernel_train_step(struct net *t, int k)
{
    gather(t, t->looked_up, k);
    layers(t, t->out);
    t->loss = backward(t, t->out, t->y, k);
    if (!isfinite(t->loss))
        return 1;
    return kernel_update(t, k);
}

double kernel_read(const struct stack *s, int k)
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
"""

COMMAND = ("cc", "-O3", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-math-errno", "-x", "c", "-")


def build(out_dir) -> Path:
    """The path of the compiled SOURCE in `out_dir`, named after a hash of
    the source and COMMAND. Runs the compiler only when that file is not
    there yet: into a temporary file of `out_dir`, then renamed, so that
    concurrent builds never load a half-written library. A missing or
    failing compiler raises RuntimeError naming the command."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256("\0".join((SOURCE, *COMMAND)).encode()).hexdigest()
    lib = out_dir / f"kernel_{digest[:16]}.so"
    if lib.exists():
        return lib
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{lib.stem}.", suffix=".tmp", dir=out_dir)
    os.close(fd)
    command = [*COMMAND, "-o", tmp]
    try:
        subprocess.run(command, input=SOURCE, text=True, capture_output=True,
                       check=True)
        os.replace(tmp, lib)
    except (OSError, subprocess.CalledProcessError) as exc:
        os.unlink(tmp)
        detail = getattr(exc, "stderr", None) or exc
        raise RuntimeError(f"cannot build the model kernel: "
                           f"`{' '.join(command)}` failed: {detail}") from exc
    return lib


class Net(ctypes.Structure):
    """One model's arguments to every pass, made once by `bind`: its
    buffers' addresses and layout, then `out`, the rates of its last
    forward or step, `y`, the labels the caller writes before a step, and
    `loss`, that step's loss. Reading the fields `out` and `y` gives ctypes
    arrays that share the structure's memory; a pass uses one entry of
    each per output."""

    _fields_ = [
        ("rows", ctypes.c_void_p), ("rows_g2", ctypes.c_void_p),
        ("dense", ctypes.c_void_p), ("dense_g2", ctypes.c_void_p),
        ("input", ctypes.c_void_p), ("acts", ctypes.c_void_p),
        ("grads", ctypes.c_void_p),
        ("sizes", ctypes.POINTER(ctypes.c_long)),
        ("looked_up", ctypes.POINTER(ctypes.c_long)),
        ("on", ctypes.POINTER(ctypes.c_long)),
        ("n_layers", ctypes.c_long), ("n_slots", ctypes.c_long),
        ("n_dense", ctypes.c_long), ("d", ctypes.c_long),
        ("lr", ctypes.c_double), ("eps", ctypes.c_double),
        ("out", ctypes.c_double * 2), ("y", ctypes.c_double * 2),
        ("loss", ctypes.c_double),
    ]


class Stack(ctypes.Structure):
    """The models `read` runs, made once by `bind_stack`."""

    _fields_ = [("nets", ctypes.POINTER(ctypes.POINTER(Net))),
                ("n_nets", ctypes.c_long)]


def bind(rows, rows_g2, dense, dense_g2, input, acts, grads, looked_up, on,
         sizes, lr, eps) -> Net:
    """The `Net` of these buffers, which the caller keeps alive as long as
    it: `rows` and `rows_g2` of shape (m, d); `dense` and `dense_g2`, every
    layer's (n, m) weights and then every layer's m biases for the layer
    widths `sizes`, at most two outputs; `input` of sizes[0] entries, d per
    field of `looked_up` and then the numeric slots; `acts` of
    sum(sizes[1:]); `grads` of dense.size + sizes[0]; all C-contiguous
    float64; `looked_up`, a ctypes array of c_long, one entry per field;
    and `on`, the backward's scratch, a ctypes array of c_long with an
    entry per input of the widest layer. Before each pass the caller
    writes the numeric slots of `input` and the first k entries of
    `looked_up`, rows below m, and before a step the labels `Net.y`."""
    arrays = rows, rows_g2, dense, dense_g2, input, acts, grads
    if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays):
        raise ValueError("the model kernel takes C-contiguous float64 arrays")
    sizes = [int(s) for s in sizes]
    layers = list(zip(sizes, sizes[1:]))
    n_dense = sum(n * m + m for n, m in layers)
    (_, d), n_slots = rows.shape, rows.shape[1] * len(looked_up)
    if not (layers and rows_g2.shape == rows.shape
            and dense.shape == dense_g2.shape == (n_dense,)
            and input.shape == (sizes[0],) and n_slots <= sizes[0]
            and acts.shape == (sum(sizes[1:]),)
            and grads.shape == (n_dense + sizes[0],)
            and sizes[-1] <= 2 and len(on) >= max(sizes[:-1])):
        raise ValueError(
            f"model kernel buffers do not match layers {sizes}: rows "
            f"{rows.shape}, rows_g2 {rows_g2.shape}, dense {dense.shape}, "
            f"dense_g2 {dense_g2.shape}, input {input.shape}, acts "
            f"{acts.shape}, grads {grads.shape}, {len(looked_up)} fields, "
            f"{len(on)} scratch entries")
    return Net(rows.ctypes.data, rows_g2.ctypes.data, dense.ctypes.data,
               dense_g2.ctypes.data, input.ctypes.data, acts.ctypes.data,
               grads.ctypes.data, (ctypes.c_long * len(sizes))(*sizes),
               looked_up, on, len(layers), n_slots, n_dense, d, lr, eps)


def bind_stack(nets) -> Stack:
    """The `Stack` of these `Net`s, which share one layout and which the
    caller keeps alive as long as it."""
    pointers = (ctypes.POINTER(Net) * len(nets))(*map(ctypes.pointer, nets))
    return Stack(pointers, len(nets))


_library = ctypes.CDLL(str(build(Path(__file__).with_name("__pycache__"))))


def _entry(name, restype, *argtypes):
    function = getattr(_library, name)
    function.restype, function.argtypes = restype, argtypes
    return function


def address(obj) -> ctypes.c_void_p:
    """A pass's one pointer argument, its `Net` or `Stack`: the address of
    a ctypes object, which the caller keeps alive as long as it, as a
    `c_void_p` made once, as a typed pointer would cost a conversion on
    every call."""
    return ctypes.c_void_p(ctypes.addressof(obj))


_P, _K = ctypes.c_void_p, ctypes.c_int
forward = _entry("kernel_forward", None, _P, _K)
train_step = _entry("kernel_train_step", _K, _P, _K)
read = _entry("kernel_read", ctypes.c_double, _P, _K)
update = _entry("kernel_update", _K, _P, _K)
exp = _entry("fd_exp", ctypes.c_double, ctypes.c_double)
log = _entry("fd_log", ctypes.c_double, ctypes.c_double)
