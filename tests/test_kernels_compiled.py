"""The loader of the compiled baseline bodies (``repro.kernels.compiled``):
where the object is cached and when it is rebuilt, what happens without a
compiler, and what the loops hand back to NumPy.  The bits the loops
produce are the equivalence battery's business
(``tests/test_kernels_equivalence.py``); nothing here reads an
environment variable — the compiler and cache-directory lookups are
patched.
"""

import ctypes
import os
import platform
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import (CompiledBackend, NumpyBackend, baseline_bodies,
                           compiled, get_backend)

pytestmark = pytest.mark.skipif(
    compiled._compiler() is None, reason="no C compiler on this machine")

SRC = Path(compiled.__file__).parents[2]


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory and a process that has not looked yet."""
    monkeypatch.setattr(compiled, "_cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(compiled, "_process", None)
    return tmp_path / "cache"


def test_no_compiler_is_the_numpy_replay_silently(cache, monkeypatch):
    monkeypatch.setattr(compiled, "_compiler", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert type(get_backend("numpy")) is NumpyBackend
    kind, reason = baseline_bodies()
    assert kind == "numpy" and "no C compiler" in reason
    assert not cache.exists()


def test_compile_error_is_the_numpy_replay_with_the_compilers_words(
        cache, tmp_path, monkeypatch):
    broken = tmp_path / "bodies.c"
    broken.write_text(compiled.SOURCE.read_text() + "\nthis is not C\n")
    monkeypatch.setattr(compiled, "load", partial(compiled.load, broken))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert type(get_backend("numpy")) is NumpyBackend
    kind, reason = baseline_bodies()
    assert kind == "numpy" and "error" in reason and "\n" not in reason
    assert list(cache.iterdir()) == []          # no half-built object left


_CHILD = """
import sys
from pathlib import Path
from repro.kernels import baseline_bodies, compiled, get_backend
compiled._cache_dirs = lambda: [Path(sys.argv[1])]
get_backend("numpy")
print(*baseline_bodies())
"""


def _children(count, cache):
    """``count`` fresh interpreters asking for the baseline at once."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    started = [subprocess.Popen([sys.executable, "-c", _CHILD, str(cache)],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
               for _ in range(count)]
    done = [(child.communicate(timeout=300), child.returncode)
            for child in started]
    assert all(code == 0 and not err for (_, err), code in done), done
    return [out.split() for (out, _), _ in done]


def test_processes_starting_at_once_leave_one_object_and_later_ones_build_nothing(
        tmp_path):
    cache = tmp_path / "cache"
    said = _children(4, cache)
    (built,) = cache.iterdir()                  # one object, no temp file
    assert said == [["compiled", str(built)]] * 4
    assert os.stat(cache).st_mode & 0o777 == 0o700
    before = built.stat().st_mtime_ns
    assert _children(1, cache) == [["compiled", str(built)]]
    assert built.stat().st_mtime_ns == before
    assert list(cache.iterdir()) == [built]


@pytest.mark.parametrize("damage", ["truncated", "group-writable"])
def test_untrusted_cached_object_is_rebuilt_once_then_used(tmp_path, damage):
    """In fresh processes: ``dlopen`` hands a process that already loaded
    a path its old mapping whatever the file holds now."""
    cache = tmp_path / "cache"
    ((_, path),) = _children(1, cache)
    whole = os.path.getsize(path)
    if damage == "truncated":
        os.truncate(path, 100)      # a crash before the data hit the disk
    else:
        os.chmod(path, 0o770)
    damaged = os.stat(path).st_mtime_ns
    assert _children(1, cache) == [["compiled", path]]
    rebuilt = os.stat(path)
    assert rebuilt.st_size == whole and rebuilt.st_mode & 0o777 == 0o700
    assert rebuilt.st_mtime_ns != damaged or damage != "truncated"
    assert _children(1, cache) == [["compiled", path]]
    assert os.stat(path).st_mtime_ns == rebuilt.st_mtime_ns
    assert [entry.name for entry in cache.iterdir()] == [Path(path).name]


def test_body_table_is_what_loads_cloned():
    """Every kernel of ``compiled.BODIES`` — 2-D and 3-D, flat too for
    the ``FLAT`` pair, double and float — is a loaded body, and no other
    is; a reducing one returns ``c_double``, the rest nothing.  On
    x86-64 with glibc, ``bodies.c`` builds each body twice (its
    ``CLONED`` macro) behind an ifunc resolver: every body has one.  A
    guard that quietly expanded to nothing would bring back the
    baseline-ISA-only object, the same bits but slower."""
    kind, path = baseline_bodies()
    if kind != "compiled":
        pytest.skip(path)
    bodies, lib = compiled._process_bodies()[0], ctypes.CDLL(path)
    cloned = (platform.machine() == "x86_64"
              and platform.libc_ver()[0] == "glibc")
    seen = set()
    for kernel, (_, reducing) in compiled.BODIES.items():
        for ndim in (0, 2, 3) if kernel in compiled.FLAT else (2, 3):
            for char in "df":
                name = f"{kernel}{ndim or ''}_{char}"
                body = bodies[kernel, ndim, np.dtype(char)]
                assert body.restype is (
                    ctypes.c_double if reducing else None), name
                assert not cloned or lib[f"{name}.resolver"], name
                seen.add((kernel, ndim, np.dtype(char)))
    assert seen == set(bodies)


def _outcome(call, *arrays):
    """What ``call`` did: the exception it raised or the bytes it left in
    ``arrays``, and the warnings on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
            result = [a.tobytes() for a in arrays]
        except (ValueError, IndexError) as exc:
            result = type(exc)
    return result, [str(w.message) for w in caught]


def test_operands_the_loops_cannot_take_are_numpys():
    """A call the C loops must not run goes back to the NumPy replay —
    same bits, same warnings, same refusals: a NumPy scalar beside float32
    arrays (NumPy widens the arithmetic), a Python float no float32 holds,
    a byte-swapped dtype, strided or partly overlapping runs, and bounds
    whose ring leaves the arrays (which the loops would read)."""
    rng = np.random.default_rng(23)
    y0, x0 = rng.standard_normal((2, 8, 8))
    faces = rng.uniform(0.1, 2.0, (2, 8, 8))

    def cases(k):
        for name, alpha, dtype in (("axpy", np.float64(1 / 3), "f"),
                                   ("aypx", np.float64(1 / 3), "f"),
                                   ("axpy", 1e300, "f"), ("aypx", 0.3, ">f8"),
                                   ("axpy", 0.3, ">f4")):
            y, x = y0.astype(dtype), x0.astype(dtype)
            yield _outcome(lambda: getattr(k, name)(y, alpha, x), y)
        y, x = y0.copy(), x0.copy()
        yield _outcome(lambda: k.aypx(y[:, 1:3], 0.3, x[:, 1:3]), y)
        y = y0.copy().reshape(-1)
        yield _outcome(lambda: k.axpy(y[1:], 0.3, y[:-1]), y)
        kx, ky, p, y = (a.astype("f") for a in (*faces, x0, y0))
        out = np.zeros_like(p)
        yield _outcome(lambda: k.apply_axpy_dot(kx, ky, p, out, y,
                                                np.float64(1 / 3), 1, 7, 1, 7),
                       out, y)
        out = np.zeros_like(x0)
        yield _outcome(lambda: k.stencil_apply(*faces, x0, out, 0, 8, 0, 8),
                       out)

    for pure, routed in zip(cases(NumpyBackend()), cases(CompiledBackend())):
        assert pure == routed


def test_chebyshev_steps_the_loops_cannot_take_run_nothing():
    """``bind_chebyshev`` binds nothing where the step's ``restrict``
    promise would break — ``z`` that is ``r``, a read-only ``d`` — or an
    interior reaches outside a region; a bound step does not fit — the
    operator then takes the separate passes — where its bits could
    differ from the passes': a NumPy scalar, or a Python float no
    float32 holds, beside float32 arrays."""
    rng = np.random.default_rng(29)
    kx, ky, d, w, r, z = (rng.standard_normal((8, 8)).astype("f")
                          for _ in range(6))
    frozen = d.copy()
    frozen.flags.writeable = False
    inner, regions = (2, 6, 2, 6), [(2, 6, 2, 6), (1, 7, 1, 7)]
    k = CompiledBackend()
    before = [a.tobytes() for a in (d, w, r, z)]
    for call in ((d, w, r, r, None, regions, inner),
                 (frozen, w, r, z, None, regions, inner),
                 (d, w, r, z, None, regions[:1], regions[1])):
        assert k.bind_chebyshev((kx, ky), *call) is None
    bound = k.bind_chebyshev((kx, ky), d, w, r, z, None, regions, inner)
    for scale, beta in ((np.float64(0.5), 0.25), (0.5, np.float32(0.25)),
                        (1e39, 0.25)):
        assert bound.fits(scale, beta) is False
    assert [a.tobytes() for a in (d, w, r, z)] == before
    assert bound.fits(0.5, 0.25) is True
    bound.steps[1](0.5, 0.25)
    assert [a.tobytes() for a in (d, w, r, z)] != before
