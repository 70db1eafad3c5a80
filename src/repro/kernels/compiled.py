"""The baseline's hot bodies as strict-IEEE C loops (``bodies.c``), built
once per machine with the system C compiler and loaded with ``ctypes``.

``numpy`` names the reference *bit patterns*, not a library: wherever a C
compiler is present :func:`baseline` — what ``get_backend("numpy")``
constructs — is a :class:`CompiledBackend`, whose stencil chains, ``axpy``
and ``aypx`` stream each array through cache once instead of once per
ufunc pass, and whose reductions sum the reference order
(:func:`~repro.kernels.base.reference_dot`) as they stream, with no
operand copied; elsewhere it is the pure NumPy replay, silently
(:func:`baseline_bodies` tells which).  ``docs/kernels.md`` ("Compiled
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
from functools import partial
from pathlib import Path

import numpy as np

from repro.kernels.numpy_backend import NumpyBackend, _operands
from repro.utils.errors import ConfigurationError

SOURCE = Path(__file__).with_name("bodies.c")

#: ``-ffp-contract=off``: no fused multiply-add, which rounds once where
#: the baseline rounds twice (the default contracts on aarch64 and under
#: ``-mfma``).  Never ``-ffast-math``/``-Ofast`` (reassociation, flushed
#: denormals) and never ``-march=*`` (the cached object would belong to
#: one CPU): the wider vectors come from ``bodies.c``'s ``CLONED`` macro,
#: an AVX2 copy of each body beside the baseline one, picked at load time.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: Python floats beyond this do not fit a C ``float``: NumPy warns on the
#: cast, so such a call is NumPy's.
_FLOAT_MAX = 3.4e38


#: Every kernel of ``bodies.c``, built for 2-D and 3-D, double and float:
#: its arguments — ``F`` the faces, ``B`` the pitches and the region's
#: bounds (a flat run: its length), ``R`` CG's ring or the Chebyshev
#: interior, ``p`` a pointer, ``r`` a double, ``i`` an int — and whether
#: it returns the reference reduction of its region (``c_double``).
BODIES = {
    "stencil": ("F p p B", False),
    "apply_dot": ("F p p B", True),
    "apply_axpy_dot": ("F p p p r B", True),
    "dot": ("p p B", True),
    "axpy": ("p r p B", False),
    "aypx": ("p r p B", False),
    "cg_residual": ("p p i B r", True),
    "cg_pass": ("F p p p p B R r r", True),
    "chebyshev_step": ("F p p p p p B R r r", False),
}
#: The kernels also built over one flat run (dimension 0).
FLAT = ("axpy", "aypx")


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
    0 for the :data:`FLAT` pair — with the ``argtypes`` and ``restype``
    :data:`BODIES` gives them."""
    import ctypes
    bodies = {}
    for kernel, (layout, reducing) in BODIES.items():
        for ndim in (0, 2, 3) if kernel in FLAT else (2, 3):
            codes = {"p": [ctypes.c_void_p], "r": [ctypes.c_double],
                     "i": [ctypes.c_int], "F": [ctypes.c_void_p] * ndim,
                     "B": [ctypes.c_size_t] * (3 * ndim - 1 if ndim else 1),
                     "R": [ctypes.c_size_t] * (2 * ndim)}
            for char in "df":
                fn = getattr(lib, f"{kernel}{ndim or ''}_{char}")
                fn.argtypes = [t for code in layout.split()
                               for t in codes[code]]
                fn.restype = ctypes.c_double if reducing else None
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


def _region(a: np.ndarray) -> tuple | None:
    """The pitches and bounds that make view ``a`` the region of a padded
    C-order array whose first cell is ``a``'s — the ``dot`` body's tail —
    or None: a layout no such array has (a 1-D run is one row)."""
    item, strides = a.itemsize, a.strides
    if (not 0 < a.ndim <= 3 or strides[-1] != item
            or any(s <= 0 or s % item for s in strides)):
        return None
    if a.ndim == 1:
        return a.size, 0, 1, 0, a.size
    pitches = [s // item for s in strides[:-1]]    # 3-D: H·W, W
    if a.ndim == 3:
        if pitches[0] % pitches[1]:
            return None
        pitches[0] //= pitches[1]
    return (*pitches, *(b for n in a.shape for b in (0, n)))


def _scalar_fits(alpha, dtype: np.dtype) -> bool:
    """``alpha`` is a Python float that ``dtype`` holds.  NumPy keeps the
    arithmetic in the arrays' dtype for one, as the C loops do; a NumPy
    scalar may widen it."""
    return type(alpha) is float and (dtype.char == "d"
                                     or abs(alpha) < _FLOAT_MAX)


def _c(code: str, *values) -> list:
    """``values`` as prebuilt ``ctypes`` arguments — ``p`` pointers (None
    stays NULL), ``z`` sizes, ``i`` ints — so a bound body's call
    converts only its scalars."""
    import ctypes
    kind = {"p": ctypes.c_void_p, "z": ctypes.c_size_t, "i": ctypes.c_int}
    return [v if v is None else kind[code](v) for v in values]


def _within(inner, *outer) -> bool:
    """Bounds ``inner`` lie inside each of the bounds ``outer``."""
    return all(o[k] <= inner[k] <= inner[k + 1] <= o[k + 1]
               for o in outer for k in range(0, len(inner), 2))


class CompiledBackend(NumpyBackend):
    """The baseline bit patterns from the loops of ``bodies.c``.

    The checks are ``NumpyBackend``'s, and the reductions its bits; a
    call whose operands the loops cannot take goes to its bodies whole.
    """

    def __init__(self, bodies: dict | None = None) -> None:
        super().__init__()
        if bodies is None:
            bodies, reason = _process_bodies()
            if bodies is None:
                raise ConfigurationError(f"no compiled bodies: {reason}")
        self._bodies = bodies
        self._addresses = {}

    def __reduce__(self):
        # ctypes bodies and raw addresses do not travel: a copy or pickle
        # is the receiving process's baseline, the same bits.
        return baseline, ()

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

    def _chain(self, kernel: str, faces, p, out, bounds, *more,
               written=None):
        """``(body, operand addresses)`` of one stencil chain — after
        ``NumpyBackend``'s own checks, so a refused call raises what it
        always raised — or ``None`` where the operands are
        not what the loops assume: one native float/double dtype, the
        stencil's ring inside the arrays, and the ``written`` operands
        (default: ``out`` and the chain's ``more``) writeable and
        overlapping no other operand."""
        self._plan(faces, p, out, bounds, 8, *more)
        arrays = (*faces, p, out, *more)
        body = self._bodies.get((kernel, p.ndim, p.dtype))
        if (body is None or any(a.dtype != p.dtype for a in arrays)
                or not all(0 < lo <= hi < n for lo, hi, n in
                           zip(bounds[::2], bounds[1::2], p.shape))):
            return None
        at = [self._at(a) for a in arrays]
        for a in (out, *more) if written is None else written:
            here = self._at(a)
            if not a.flags.writeable or sum(
                    abs(here - other) < p.nbytes for other in at) != 1:
                return None
        return body, at

    def _stencil(self, kernel: str, args, numpy, extra: int = 0):
        """``kernel``'s body on a stencil chain's ``args`` (``extra``: an array
        and its scalar), or ``numpy``'s where the body cannot take them."""
        faces, p, out, more, bounds = _operands(args, extra)
        chain = (not more or _scalar_fits(more[1], p.dtype)) and (
            self._chain(kernel, faces, p, out, bounds, *more[:1]))
        if not chain:
            return numpy(*args)
        body, at = chain
        return body(*at, *more[1:], *p.shape[1:], *bounds)

    def stencil_apply(self, *args):
        return self._stencil("stencil", args, super().stencil_apply)

    def apply_dot(self, *args):
        return self._stencil("apply_dot", args, super().apply_dot)

    def apply_axpy_dot(self, *args):
        return self._stencil("apply_axpy_dot", args, super().apply_axpy_dot,
                             2)

    def dot(self, a, b):
        """The ``dot`` body over the region two views of one layout span
        (``Field`` interiors: no copy); NumPy's lanes otherwise."""
        body = self._bodies.get(("dot", max(a.ndim, 2), a.dtype))
        tail = _region(a)
        if (body is None or tail is None or b.dtype != a.dtype
                or b.shape != a.shape or b.strides != a.strides):
            return super().dot(a, b)
        return body(a.ctypes.data, b.ctypes.data, *tail)

    def _chains(self, kernel: str, faces, p, w, more, regions):
        """``_chain``'s ``(body, addresses)`` on each of ``regions`` — ``p``,
        ``w`` and ``more[:2]`` written — or None where one fails."""
        chains = [self._chain(kernel, faces, p, w, region, *more,
                              written=(p, w, *more[:2])) for region in regions]
        return chains if all(chains) else None

    def bind_chebyshev(self, faces, d, w, r, z, inv_diag, regions, interior):
        # One packed call per extension, the interior inside each region.
        more = (r, z) if inv_diag is None else (r, z, inv_diag)
        chains = _within(interior, *regions) and self._chains(
            "chebyshev_step", faces, d, w, more, regions)
        if not chains:
            return None
        n = len(faces) + 4
        return _Bound((*faces, d, w, *more), d.dtype, steps=[
            partial(body, *_c("p", *at[:n], at[n] if inv_diag is not None
                              else None),
                    *_c("z", *d.shape[1:], *region, *interior))
            for (body, at), region in zip(chains, regions)])

    def bind_cg(self, faces, x, r, p, w, z, bounds, ring):
        # Once per solve, the interior inside the ring and the ring inside
        # the arrays; ``z`` is ``r`` or only read.
        more = (x, r) if z is r else (x, r, z)
        whole = tuple(b for size in p.shape for b in (0, size))
        chains = _within(bounds, ring) and _within(ring, whole) and (
            self._chains("apply_dot", faces, p, w, more, [bounds]))
        if not chains:
            return None
        ((apply_dot, at),) = chains
        n, tail = len(faces), _c("z", *p.shape[1:], *bounds)
        cg_pass, cg_residual, axpy, aypx = (
            self._bodies[kernel, n, p.dtype]
            for kernel in ("cg_pass", "cg_residual", "axpy", "aypx"))
        at = _c("p", *at)
        f, (p_, w_, x_, r_), z_ = at[:n], at[n:n + 4], at[-1]
        return _Bound(
            (*faces, p, w, *more), p.dtype,
            apply_dot=partial(apply_dot, *f, p_, w_, *tail),
            cg_pass=partial(cg_pass, *f, p_, w_, x_, z_, *tail,
                            *_c("z", *ring)),
            # z is r: <r, r> rides the update.
            cg_residual=partial(cg_residual, r_, w_, *_c("i", int(z is r)),
                                *tail),
            update_x=lambda alpha: axpy(x_, alpha, p_, *tail),
            update_p=lambda beta: aypx(p_, beta, z_, *tail))

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


class _Bound:
    """Bodies bound once to the addresses of ``arrays``, which it keeps
    alive: each an attribute (``KernelBackend.bind_cg`` and
    ``bind_chebyshev`` name them).  No body checks its scalars: the
    caller asks :meth:`fits` first."""

    def __init__(self, arrays, dtype, **bodies):
        self.arrays, self.dtype = arrays, dtype
        self._double = dtype.char == "d"
        vars(self).update(bodies)

    def fits(self, *scalars) -> bool:
        """The bodies may take every one of ``scalars``: NumPy would keep
        the arithmetic in the arrays' dtype (:func:`_scalar_fits`; for
        doubles, any Python float)."""
        if self._double:   # every one a Python float, with no generator
            return {*map(type, scalars)} <= {float}
        return all(_scalar_fits(s, self.dtype) for s in scalars)
