from fractions import Fraction as F

import numpy as np
import pytest

import graphlim.density as density_module
from graphlim import density_exact, eigendecompose, kernel_matrix, step_graphon, threads
from graphlim.corpus import complete_graph

SETTER, GETTER = threads._blas_threads()
needs_openblas = pytest.mark.skipif(SETTER is None, reason="numpy's BLAS is not OpenBLAS")


@pytest.fixture
def blas_count():
    """Run a test with the process's BLAS count at 3, restored afterwards."""
    before = GETTER()
    SETTER(3)
    try:
        yield 3
    finally:
        SETTER(before)


@needs_openblas
def test_scope_holds_one_thread_and_restores_the_count(blas_count):
    with threads.one_blas_thread():
        assert GETTER() == 1
        with threads.one_blas_thread():
            assert GETTER() == 1
        assert GETTER() == 1
    assert GETTER() == blas_count
    with pytest.raises(RuntimeError, match="body"):
        with threads.one_blas_thread():
            raise RuntimeError("body")
    assert GETTER() == blas_count


@needs_openblas
def test_scope_without_the_symbols_does_nothing(monkeypatch, blas_count):
    monkeypatch.setattr(threads, "_blas_threads", lambda: (None, None))
    with threads.one_blas_thread():
        assert GETTER() == blas_count
    with pytest.raises(RuntimeError, match="body"):
        with threads.one_blas_thread():
            raise RuntimeError("body")
    assert GETTER() == blas_count


@needs_openblas
def test_engine_products_run_on_one_thread_and_leave_the_count(monkeypatch, blas_count):
    counts = []

    def setter(count):
        counts.append(count)
        SETTER(count)

    monkeypatch.setattr(threads, "_blas_threads", lambda: (setter, GETTER))
    b = 32
    graphon = step_graphon([F(1, b)] * b, [[F((i + j) % 3, 2) for j in range(b)] for i in range(b)])
    k4 = complete_graph(4)
    plan = density_module._plan_for(4, k4.edges, [1] * b, {}, (), 2)
    assert plan.tier is np.float64 and plan.blas
    density_exact(k4, graphon)
    assert counts == [1, blas_count]
    density_exact(complete_graph(2), graphon)  # no BLAS step: no scope
    assert counts == [1, blas_count]
    assert GETTER() == blas_count
    eigendecompose(kernel_matrix(graphon))  # outside the scope: LAPACK's own threads
    assert counts == [1, blas_count]
    assert GETTER() == blas_count


def test_blas_symbols_are_found_in_the_mapped_library():
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its config only
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in config.get("name", ""):
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert SETTER is not None and GETTER() >= 1

