"""The compiled tridiagonal kernel, the step loops of the forward, tangent
and backward marches, the optimizer's weighted pairing and two-loop, and
the row writer of the trajectory CSV (cmarch.c).

The source is compiled when the kernel is first needed (the first operator
factored, or the output directory a command is about to make), never at
import, by the compiler that CC names, or else sysconfig's CC, with FLAGS:
-ffp-contract=off and no -ffast-math or -march=native, so no multiply-add is
fused and at every optimization level the factor is reference LAPACK's
dpttrf bit for bit, the twisted solve the recurrences tests/test_helmholtz.py
writes out, and every frame the numpy expressions the loops mirror.
The shared object is cached in the package's __pycache__, named by a hash
of the source, the flags, the compiler command and its --version output,
and written to a temporary file that is renamed into place; a private
directory under the system temp directory takes it when __pycache__ cannot
be written. Once it is loaded, the other cmarch-*.so objects of its
directory are removed, so the cache holds one object per directory. It is
loaded once with ctypes.PyDLL, so every call holds the GIL: the row writer
hands the floats outside its exact fast range to CPython's own repr
formatter, which allocates with PyMem_*. A compiler that is missing or
fails raises KernelBuildError, an OSError.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelBuildError

SOURCE = Path(__file__).with_name("cmarch.c")
FLAGS = ["-O2", "-std=c11", "-ffp-contract=off", "-fPIC", "-shared"]
_P, _I, _S, _D = (ctypes.c_void_p, ctypes.c_int, ctypes.c_ssize_t,
                  ctypes.c_double)
ARGTYPES = {"pttrf": [_I, _P, _P], "ptts2": [_I, _S, _P, _P, _P],
            "forward_march": [_P] * 4 + [_I, _S, _S] + [_D] * 4 + [_P] * 4,
            "tangent_march": [_P] * 4 + [_I] + [_S] * 5 + [_D] * 4
            + [_P, _S] * 3 + [_P] * 3,
            "march_back": [_P] * 4 + [_I, _S, _S, _S] + [_D] * 5
            + [_P, _S] * 5 + [_P, _P],
            "pair": [_S, _S] + [_D] * 3 + [_P, _S] * 3,
            "two_loop": [_S, _S, _D, _S, _P, _P, _D, _P, _P],
            "csv_rows": [_S, _S, _S] + [_P] * 3 + [_I] + [_P] * 3 + [_S]
            + [_P] * 3}
# CPython's repr formatter and the free of what it returns, for csv_rows
_PYAPI = [ctypes.cast(getattr(ctypes.pythonapi, f), _P)
          for f in ("PyOS_double_to_string", "PyMem_Free")]
RESTYPES = {"csv_rows": _S, "pair": _D, "two_loop": _D}
CSV_BUFFER = 1 << 16  # bytes of CSV text per write


def cache_dirs() -> list:
    """Where the shared object may be cached, in order of preference."""
    return [SOURCE.parent / "__pycache__",
            Path(tempfile.gettempdir()) / f"mchcontrol-{os.getuid()}"]


def _run(cc: list, args: list) -> str:
    """The compiler's stdout; KernelBuildError naming the compiler, and its
    stderr, if it cannot start or fails."""
    what = f"cannot build the march kernel: C compiler {' '.join(cc)!r}"
    try:
        done = subprocess.run(cc + args, capture_output=True, text=True)
    except OSError as exc:
        raise KernelBuildError(f"{what} did not start: {exc}") from exc
    if done.returncode:
        raise KernelBuildError(f"{what} exited {done.returncode}: "
                               f"{done.stderr.strip()}")
    return done.stdout


def _build() -> Path:
    """The cached shared object, compiled into the first cache directory
    that can be written if none holds it yet."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC")
                     or "cc")
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), " ".join(FLAGS + cc).encode(),
         _run(cc, ["--version"]).encode()])).hexdigest()[:16]
    name = f"cmarch-{key}.so"
    dirs = cache_dirs()
    for i, d in enumerate(dirs):
        try:
            d.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = d.stat()
            # a fallback that another user could write is not trusted
            if i and (st.st_uid != os.getuid() or st.st_mode & 0o022):
                continue
            if (d / name).is_file():
                return d / name
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=d)
        except OSError:  # cannot be written: the next directory
            continue
        os.close(fd)
        try:
            _run(cc, FLAGS + ["-o", tmp, str(SOURCE)])
            os.replace(tmp, d / name)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return d / name
    raise KernelBuildError("cannot build the march kernel: no cache "
                           "directory can be written: "
                           + ", ".join(map(str, dirs)))


@functools.cache
def library():
    """The loaded kernel, once per process. An object that another process
    removed between its build and its load is built once more. Once it is
    loaded, the other cmarch-*.so objects of its directory go; one that is
    already gone, or cannot be removed, is left alone."""
    path = _build()
    try:
        lib = ctypes.PyDLL(str(path))
    except OSError:
        if path.exists():
            raise
        path = _build()
        lib = ctypes.PyDLL(str(path))
    for old in path.parent.glob("cmarch-*.so"):
        if old.name != path.name:
            try:
                old.unlink()
            except OSError:
                pass
    for fname, argtypes in ARGTYPES.items():
        getattr(lib, fname).argtypes = argtypes
        getattr(lib, fname).restype = RESTYPES.get(fname)
    return lib


def _rows(what: str, shape: tuple, arrays, dims: str = "(N+1, n)") -> list:
    """(a, row stride in items) for each array of shape, a C-ordered copy
    unless its rows are float64 with unit item stride; else ValueError
    naming what and dims, the shape in words."""
    if any(a.shape != shape for a in arrays):
        raise ValueError(f"{what} that is not {dims}")
    arrays = [a if a.dtype == np.float64 and a.strides[1] == 8
              and not a.strides[0] % 8
              else np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
    return [(a, a.strides[0] // 8) for a in arrays]


def _check(fname: str, *arrays) -> None:
    """ValueError naming fname unless each (array, shape) pair is a
    C-ordered float64 array of that shape."""
    if any(a.shape != shape or a.dtype != np.float64
           or not a.flags.c_contiguous for a, shape in arrays):
        raise ValueError(f"{fname}: an array of the wrong layout")


def forward_march(vsolver, dsolver, k0: int, h2: float, c: float,
                  dt2: float, dtk: float, Yp, Up, UX, smax) -> None:
    """forward_march of cmarch.c, on C-ordered float64 arrays Yp and Up
    (N+1, n+2), UX (N+1, n) and smax (N,)."""
    N, n = UX.shape[0] - 1, UX.shape[1]
    _check("forward_march", (Yp, (N + 1, n + 2)), (Up, (N + 1, n + 2)),
           (UX, (N + 1, n)), (smax, (N,)))
    library().forward_march(*vsolver._factors, *dsolver._factors, n, N, k0,
                            h2, c, dt2, dtk, Yp.ctypes.data, Up.ctypes.data,
                            UX.ctypes.data, smax.ctypes.data)


def tangent_march(ksolver, dsolver, k0: int, s1: int, i0: int, dt: float,
                  cc: float, h2: float, k: float, y, u, ux, q, Mp,
                  Vp) -> None:
    """tangent_march of cmarch.c on the base frames y, u, ux (any layout)
    into zeroed Mp, Vp (N+1, n+2), adding q, the rows dt*q of steps
    k0..s1-1 from node i0; Mp, Vp and q are C-ordered float64."""
    N, n = Mp.shape[0] - 1, Mp.shape[1] - 2
    if not (0 <= k0 < s1 <= N and q.ndim == 2
            and 0 <= i0 < i0 + q.shape[1] <= n):
        raise ValueError(f"tangent_march: rows {q.shape} of steps {k0}.."
                         f"{s1} from node {i0}, not in 0..{N} x 0..{n}")
    _check("tangent_march", (Mp, (N + 1, n + 2)), (Vp, (N + 1, n + 2)),
           (q, (s1 - k0, q.shape[1])))
    bases = _rows("tangent_march: a base frame array", (N + 1, n),
                  (y, u, ux))
    library().tangent_march(
        *ksolver._factors, *dsolver._factors, n, N, k0, s1, i0, q.shape[1],
        dt, cc, h2, k, *(x for a, s in bases for x in (a.ctypes.data, s)),
        q.ctypes.data, Mp.ctypes.data, Vp.ctypes.data)


def march_back(ksolver, dsolver, stop: int, top: int, dt: float, cc: float,
               h2: float, k: float, last: float, y, u, ux, source, minus,
               lam) -> None:
    """march_back of cmarch.c on the base frames y, u, ux and the source
    less minus (minus None: the source alone), all (N+1, n) of any layout,
    filling frames stop..top-1 of the C-ordered float64 (N+1, n)
    multiplier lam in place."""
    N, n = lam.shape[0] - 1, lam.shape[1]
    if not 0 <= stop < top <= N:
        raise ValueError(f"march_back: frames {stop}..{top} of 0..{N}")
    _check("march_back", (lam, (N + 1, n)))
    rows = _rows("march_back: a base frame or source array", lam.shape,
                 (y, u, ux, source) + (() if minus is None else (minus,)))
    ptrs = [x for a, s in rows for x in (a.ctypes.data, s)]
    if minus is None:  # a NULL minus: the source alone
        ptrs += [None, 0]
    work = np.zeros(4 * n + 4)
    library().march_back(
        *ksolver._factors, *dsolver._factors, n, N, stop, top, dt, cc, h2, k,
        last, *ptrs, lam.ctypes.data, work.ctypes.data)


def pair(scale: float, w_end: float, w_mid: float, p, q, z=None) -> float:
    """pair of cmarch.c: scale times the weighted sum over the rows of the
    row pairings of p - z and q - z (of p and q for z None), 2-D arrays of
    one shape (any layout), the rows weighted w_end first and last and
    w_mid between and added in row order."""
    rows = _rows("pair: a block", p.shape, (p, q) if z is None else (p, q, z),
                 "of the first one's shape")
    ptrs = [x for a, s in rows for x in (a.ctypes.data, s)]
    if z is None:  # a NULL z: no shift
        ptrs += [None, 0]
    return library().pair(*p.shape, scale, w_end, w_mid, *ptrs)


def two_loop(scale: float, memory, gamma: float, g):
    """(d, <g, d>): d = -H g by two_loop of cmarch.c, over memory, the
    (s, y, rho, address of s, address of y) entries of the L-BFGS pairs,
    oldest first, whose s and y are C-ordered float64 blocks of g's shape;
    every pairing is pair's with scale and unit weights, so with the Q0
    weight as scale it is inner_q0's bit for bit. The addresses and rho go
    in numpy arrays: a ctypes array type of each new length would stay
    cached."""
    m = len(memory)
    _check("two_loop", (g, g.shape))
    d = np.empty_like(g)
    sy = np.array([e[k] for k in (3, 4) for e in memory], dtype=np.uintp)
    rho = np.array([e[2] for e in memory] + [0.0] * m)
    slope = library().two_loop(*g.shape, scale, m, sy.ctypes.data,
                               rho.ctypes.data, gamma, g.ctypes.data,
                               d.ctypes.data)
    return d, slope


def write_csv(f, t, x, cols) -> None:
    """Write the CSV rows t,x,c_0,... of every (frame, node), frame by frame,
    to the binary file f, each float as repr writes it: t holds the N+1
    frame times, x the n nodes and cols (N+1, n) arrays of any layout. Each
    node's x is formatted once, into a zeroed label store, and the text
    passes through one buffer of CSV_BUFFER bytes (more if one row could
    exceed it)."""
    lib = library()
    t, x = (np.ascontiguousarray(a, dtype=np.float64) for a in (t, x))
    cols = _rows("write_csv: a column", (len(t), len(x)), cols)
    ptrs = (_P * len(cols))(*(c.ctypes.data for c, _ in cols))
    lds = (_S * len(cols))(*(s for _, s in cols))
    # csv_rows reserves VALUE_MAX = 32 bytes a value for the next row and
    # keeps each node's label in a slot of as many
    buf = ctypes.create_string_buffer(max(CSV_BUFFER, 32 * (len(cols) + 2)))
    lab = ctypes.create_string_buffer(32 * len(x))
    size = _S()
    r, end = 0, len(t) * len(x)
    while r < end:
        r = lib.csv_rows(r, end, len(x), t.ctypes.data, x.ctypes.data, lab,
                         len(cols), ptrs, lds, buf, len(buf),
                         ctypes.byref(size), *_PYAPI)
        if r < 0:
            raise MemoryError("csv_rows: the repr formatter failed")
        f.write(memoryview(buf)[:size.value])
