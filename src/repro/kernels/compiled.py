"""The baseline's hot bodies as strict-IEEE C loops (``bodies.c``), built
once per machine with the system C compiler and loaded with ``ctypes``.

``numpy`` names the reference *bit patterns*, not a library: wherever a C
compiler is present :func:`baseline` — what ``get_backend("numpy")``
constructs — is a :class:`CompiledBackend`, whose stencil chains, ``axpy``
and ``aypx`` stream each array through cache once instead of once per
ufunc pass, and whose every reduction is still the one reference
``np.dot`` over contiguous workspace.  Elsewhere it is the pure
:class:`~repro.kernels.numpy_backend.NumpyBackend`, silently;
:func:`baseline_bodies` tells which.  ``docs/kernels.md`` ("Compiled
bodies") has the flag policy, the cache rules and the measurements.
"""

from __future__ import annotations

import contextlib
import os
import platform
import shutil
import stat
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from repro.kernels.numpy_backend import (_DOT_A, _DOT_B, NumpyBackend, _dot,
                                         _operands)
from repro.utils.errors import ConfigurationError

SOURCE = Path(__file__).with_name("bodies.c")

#: ``-ffp-contract=off``: no fused multiply-add, which rounds once where
#: the baseline rounds twice (the default contracts on aarch64 and under
#: ``-mfma``).  Never ``-ffast-math``/``-Ofast`` (reassociation, flushed
#: denormals) and never ``-march=*`` (the cached object would belong to
#: one CPU; measured slower here besides).
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: Python floats beyond this do not fit a C ``float``: NumPy warns on the
#: cast, so such a call is NumPy's.
_FLOAT_MAX = 3.4e38


class BuildError(Exception):
    """Why there are no compiled bodies (``str()`` is the reason)."""


def _compiler() -> str | None:
    """The system C compiler; no environment variable is read."""
    return next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)


def _cache_dirs():
    """Where the built object may live, best first — always a path a later
    process finds again, so one process per machine pays the build."""
    with contextlib.suppress(RuntimeError):   # no home directory
        yield Path.home() / ".cache" / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def _private(path, kind) -> bool:
    """``path`` is a ``kind`` (``stat.S_ISREG``/``S_ISDIR``) owned by this
    user that no one else can write: code is loaded from it."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & 0o022)


def _build(cc: str, source, flags, target: Path) -> None:
    """Compile ``source`` into ``target``: built under a unique name beside
    it and renamed into place, so processes and threads starting at once
    all succeed and leave one complete file."""
    import subprocess
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem + ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *flags, "-o", tmp, str(source)],
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            raise BuildError(f"{cc} failed: " + (
                done.stderr.strip().splitlines() or ["no message"])[0])
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    except subprocess.TimeoutExpired as exc:
        raise BuildError(f"{cc} timed out") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _open(cc: str, source, flags, target: Path):
    """``target`` loaded, built first when absent; a cached object that is
    not a private regular file, or does not load, is rebuilt once."""
    import ctypes
    if _private(target, stat.S_ISREG):
        with contextlib.suppress(OSError):
            # CDLL, not PyDLL: the loops run with the GIL released.
            return ctypes.CDLL(str(target))
    _build(cc, source, flags, target)
    if not _private(target, stat.S_ISREG):
        raise BuildError(f"{target} is not a private regular file")
    return ctypes.CDLL(str(target))


def _declare(lib) -> dict:
    """The bodies of ``lib`` by ``(kernel, dimension, dtype)`` — dimension
    0 for the flat BLAS-1 pair — with their ``argtypes`` set."""
    import ctypes
    ptr, size, real = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_double
    signatures = {(kernel, 0): [ptr, real, ptr, size]
                  for kernel in ("axpy", "aypx")}
    for ndim in (2, 3):
        tail = [size] * (ndim - 1 + 2 * ndim)   # pitches, then bounds
        signatures["stencil", ndim] = [ptr] * (ndim + 2) + tail
        signatures["apply_dot", ndim] = [ptr] * (ndim + 4) + tail
        signatures["apply_axpy_dot", ndim] = (
            [ptr] * (ndim + 3) + [real, ptr] + tail)
    bodies = {}
    for (kernel, ndim), argtypes in signatures.items():
        for char in "df":
            fn = getattr(lib, f"{kernel}{ndim or ''}_{char}")
            fn.argtypes, fn.restype = argtypes, None
            bodies[kernel, ndim, np.dtype(char)] = fn
    return bodies


def load(source=SOURCE, flags=FLAGS) -> tuple:
    """``(bodies, path of the shared object)`` for ``source`` built with
    ``flags``; :class:`BuildError` says why not.  The object is keyed by
    everything that decides its contents and cached per user."""
    import hashlib
    import subprocess
    cc = _compiler()
    if cc is None:
        raise BuildError("no C compiler (cc, gcc or clang) on PATH")
    try:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=60).stdout.split("\n")[0]
    except (OSError, subprocess.SubprocessError) as exc:
        raise BuildError(f"{cc} --version: {exc}") from exc
    key = hashlib.sha256("\0".join(
        [Path(source).read_text(), *flags, version, platform.machine()]
    ).encode()).hexdigest()[:20]
    reason = "no cache directory"
    for directory in _cache_dirs():
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            if _private(directory, stat.S_ISDIR):
                target = directory / f"kernels-{key}.so"
                return _declare(_open(cc, source, flags, target)), str(target)
            reason = f"{directory} is not a private directory"
        except OSError as exc:   # not writable, or dlopen refused
            reason = f"{directory}: {exc}"
    raise BuildError(reason)


_lock = threading.Lock()
_process = None   # this process's (bodies | None, path | reason), set once


def _process_bodies() -> tuple:
    global _process
    with _lock:
        if _process is None:
            try:
                _process = load()
            except BuildError as exc:
                _process = (None, str(exc))
        return _process


def baseline_bodies() -> tuple:
    """``("compiled", path of the shared object)`` or ``("numpy", why the
    baseline runs its NumPy bodies in this process)``."""
    bodies, where = _process_bodies()
    return ("compiled" if bodies else "numpy", where)


def baseline() -> NumpyBackend:
    """The ``numpy`` backend of this process: compiled where it can be."""
    bodies, _ = _process_bodies()
    return CompiledBackend(bodies) if bodies else NumpyBackend()


def _scalar_fits(alpha, dtype: np.dtype) -> bool:
    """``alpha`` is a Python float that ``dtype`` holds.  NumPy keeps the
    arithmetic in the arrays' dtype for one, as the C loops do; a NumPy
    scalar may widen it."""
    return type(alpha) is float and (dtype.char == "d"
                                     or abs(alpha) < _FLOAT_MAX)


class CompiledBackend(NumpyBackend):
    """The baseline bit patterns from the loops of ``bodies.c``.

    The checks, the workspace and every reduction are ``NumpyBackend``'s;
    a call whose operands the loops cannot take goes to its bodies whole.
    """

    def __init__(self, bodies: dict | None = None) -> None:
        super().__init__()
        if bodies is None:
            bodies, reason = _process_bodies()
            if bodies is None:
                raise ConfigurationError(f"no compiled bodies: {reason}")
        self._bodies = bodies
        self._addresses = {}

    def _at(self, a: np.ndarray) -> int:
        """The address of ``a``'s first cell.  ``ndarray.ctypes`` takes
        2 µs a time — four times the arithmetic of a 32² stencil — and a
        solve passes the same few arrays every iteration, so addresses
        are remembered per array object: the weak reference tells a dead
        array's reused ``id`` apart, the size an array resized in place."""
        known = self._addresses.get(id(a))
        if known is None or known[0]() is not a or known[1] != a.nbytes:
            if len(self._addresses) >= 64:   # a solve holds a dozen arrays
                self._addresses.clear()
            known = self._addresses[id(a)] = (weakref.ref(a), a.nbytes,
                                              a.ctypes.data)
        return known[2]

    def _chain(self, kernel: str, faces, p, out, bounds, *more):
        """``(body, operand addresses, region shape)`` of one stencil
        chain — after ``NumpyBackend``'s own checks, so a refused call
        raises what it always raised — or ``None`` where the operands are
        not what the loops assume: one native float/double dtype, the
        stencil's ring inside the arrays, and ``out`` (and the chain's
        ``y``) writeable and overlapping no other operand."""
        g = self._plan(faces, p, out, bounds, 8, *more)[0]
        arrays = (*faces, p, out, *more)
        body = self._bodies.get((kernel, p.ndim, p.dtype))
        if (body is None or any(a.dtype != p.dtype for a in arrays)
                or not all(0 < lo <= hi < n for lo, hi, n in
                           zip(bounds[::2], bounds[1::2], p.shape))):
            return None
        at = [self._at(a) for a in arrays]
        for a, written in zip(arrays[p.ndim + 1:], at[p.ndim + 1:]):
            if not a.flags.writeable or sum(
                    abs(written - other) < p.nbytes for other in at) != 1:
                return None
        return body, at, g.shape

    def stencil_apply(self, *args):
        faces, p, out, _, bounds = _operands(args)
        chain = self._chain("stencil", faces, p, out, bounds)
        if chain is None:
            return super().stencil_apply(*args)
        body, at, _ = chain
        body(*at, *p.shape[1:], *bounds)

    def apply_dot(self, *args):
        faces, p, out, _, bounds = _operands(args)
        chain = self._chain("apply_dot", faces, p, out, bounds)
        if chain is None:
            return super().apply_dot(*args)
        body, at, shape = chain
        pr = self._buf(_DOT_A, shape, p.dtype)
        wr = self._buf(_DOT_B, shape, p.dtype)
        body(*at, self._at(pr), self._at(wr), *p.shape[1:], *bounds)
        return _dot(pr, wr)

    def apply_axpy_dot(self, *args):
        faces, p, out, (y, alpha), bounds = _operands(args, 2)
        chain = (self._chain("apply_axpy_dot", faces, p, out, bounds, y)
                 if _scalar_fits(alpha, p.dtype) else None)
        if chain is None:
            return super().apply_axpy_dot(*args)
        body, at, shape = chain
        yr = self._buf(_DOT_A, shape, p.dtype)
        body(*at, alpha, self._at(yr), *p.shape[1:], *bounds)
        return _dot(yr, yr)

    def _flat(self, kernel: str, y, alpha, x) -> bool:
        """Run ``kernel`` (``axpy``/``aypx``) on ``y`` and ``x`` and say
        so — if they are contiguous runs of one native float/double dtype
        and length, the same run or disjoint ones."""
        body = self._bodies.get((kernel, 0, y.dtype))
        if (body is None or x.dtype != y.dtype or x.shape != y.shape
                or not (y.flags.c_contiguous and x.flags.c_contiguous
                        and y.flags.writeable)
                or not _scalar_fits(alpha, y.dtype)):
            return False
        to, of = self._at(y), self._at(x)
        if 0 < abs(to - of) < y.nbytes:
            return False
        body(to, alpha, of, y.size)
        return True

    def axpy(self, y, alpha, x):
        if not self._flat("axpy", y, alpha, x):
            super().axpy(y, alpha, x)

    def aypx(self, y, beta, x):
        if not self._flat("aypx", y, beta, x):
            super().aypx(y, beta, x)
