"""A pytest plugin that runs a session as on a machine without a C
compiler: ``python -m pytest -p tests.no_compiler ...``.

``get_backend("numpy")`` then builds the pure ``NumpyBackend`` — its
``bind_chebyshev`` and ``bind_cg`` bind nothing, so every solve makes
the separate passes, the reference — and the tests of the compiled loops
skip.  No environment variable selects this.
"""

from repro.kernels import compiled


def pytest_configure(config):
    compiled._compiler = lambda: None
    compiled._process = None   # in case a conftest looked already
