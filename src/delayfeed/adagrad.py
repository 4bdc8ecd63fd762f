"""The training step's AdaGrad update, compiled from C.

`adagrad_step(step, k)` refuses a step, writing nothing, when an entry of
its gradient is not finite. Otherwise it applies AdaGrad in place, to the
dense parameters and then to each of the k looked-up embedding rows,
element by element: accum += g*g; den = sqrt(accum); den += eps;
s = g*lr; s /= den; param -= s. Each operation is one IEEE double operation,
the ones numpy's element-wise ufuncs make, and `-ffp-contract=off` keeps the
compiler from fusing a multiply into an add, so the results are bit for bit
those of the same update in numpy.

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

struct step {
    double *dense, *dense_g2;
    double *rows, *rows_g2;
    const double *grads;
    const long *looked_up;
    long n_dense, d;
    double lr, eps;
};

static void adagrad(double *restrict p, double *restrict a,
                    const double *restrict g, long n, double lr, double eps)
{
    for (long i = 0; i < n; i++) {
        double s = g[i] * g[i];
        a[i] += s;
        double den = sqrt(a[i]);
        den += eps;
        s = g[i] * lr;
        s /= den;
        p[i] -= s;
    }
}

int adagrad_step(const struct step *t, long k)
{
    long n = t->n_dense + t->d * k;
    for (long i = 0; i < n; i++)
        if (!isfinite(t->grads[i]))
            return 1;
    adagrad(t->dense, t->dense_g2, t->grads, t->n_dense, t->lr, t->eps);
    for (long j = 0; j < k; j++) {
        long row = t->looked_up[j] * t->d;
        adagrad(t->rows + row, t->rows_g2 + row,
                t->grads + t->n_dense + j * t->d, t->d, t->lr, t->eps);
    }
    return 0;
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
    lib = out_dir / f"adagrad_{digest[:16]}.so"
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
        raise RuntimeError(f"cannot build the AdaGrad kernel: "
                           f"`{' '.join(command)}` failed: {detail}") from exc
    return lib


class Step(ctypes.Structure):
    """One model's arguments to `adagrad_step`, made once by `bind`."""

    _fields_ = [
        ("dense", ctypes.c_void_p), ("dense_g2", ctypes.c_void_p),
        ("rows", ctypes.c_void_p), ("rows_g2", ctypes.c_void_p),
        ("grads", ctypes.c_void_p), ("looked_up", ctypes.c_void_p),
        ("n_dense", ctypes.c_long), ("d", ctypes.c_long),
        ("lr", ctypes.c_double), ("eps", ctypes.c_double),
    ]


def bind(dense, dense_g2, rows, rows_g2, grads, looked_up, lr, eps) -> Step:
    """The `Step` of these buffers, which the caller keeps alive as long as
    it: `dense` and `dense_g2` of n entries, `rows` and `rows_g2` of shape
    (m, d), `grads` of n + d * len(looked_up) entries (the dense gradient,
    then one row's after another), all C-contiguous float64, and
    `looked_up`, a ctypes array of c_long. Before each call the caller
    writes the first k entries of `looked_up`, distinct rows below m, and
    the first n + d * k entries of `grads`."""
    arrays = dense, dense_g2, rows, rows_g2, grads
    if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays):
        raise ValueError("the AdaGrad kernel takes C-contiguous float64 arrays")
    n, (_, d) = dense.size, rows.shape
    if (dense_g2.shape != dense.shape or rows_g2.shape != rows.shape
            or grads.size != n + d * len(looked_up)):
        raise ValueError(
            f"AdaGrad kernel buffers do not match: dense {dense.shape}, "
            f"dense_g2 {dense_g2.shape}, rows {rows.shape}, rows_g2 "
            f"{rows_g2.shape}, grads {grads.shape}, {len(looked_up)} rows")
    return Step(dense.ctypes.data, dense_g2.ctypes.data, rows.ctypes.data,
                rows_g2.ctypes.data, grads.ctypes.data,
                ctypes.addressof(looked_up), n, d, lr, eps)


_library = ctypes.CDLL(str(build(Path(__file__).with_name("__pycache__"))))
adagrad_step = _library.adagrad_step
adagrad_step.argtypes = [ctypes.POINTER(Step), ctypes.c_long]
adagrad_step.restype = ctypes.c_int
