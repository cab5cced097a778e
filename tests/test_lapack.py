"""The ctypes LAPACK bindings against scipy's own wrappers, bit for bit.

This is a cross-library check: ``_lapack`` binds the routines from the
OpenBLAS numpy links (ILP64 symbols, 64-bit integer arguments), while
``scipy.linalg`` calls its own OpenBLAS build through LP64 wrappers.
``dstevd``, ``dstebz`` and ``dsytrd`` are called with the arguments scipy
passes, so their results must equal ``eigh_tridiagonal``,
``eigvalsh_tridiagonal(select="i")`` and ``lapack.dsytrd`` with the
optimal ``lwork`` exactly, not just to a tolerance.  ``dsytrd_leading``
runs the same blocked loop as ``lapack.dsytrd``, stopped early, so where
that loop is blocked its prefix must be bit-equal too.
"""
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

import spreadq.cli
from spreadq import (
    DomainError,
    LapackError,
    _lapack,
    eigendecompose,
    evolve_amplitudes,
    householder_hessenberg,
    sample_goe,
)

ORDERS = (1, 2, 3, 17, 300)


def tridiagonals():
    rng = np.random.default_rng(20261018)
    for K in ORDERS:
        yield K, rng.standard_normal(K), rng.standard_normal(K - 1)
    # a zero off-diagonal entry splits T into two blocks
    d, e = rng.standard_normal(17), np.abs(rng.standard_normal(16))
    e[7] = 0.0
    yield "split", d, e


@pytest.mark.parametrize("label, d, e", list(tridiagonals()))
def test_dstevd_equals_eigh_tridiagonal(label, d, e):
    values, vectors = _lapack.dstevd(d, e)
    expected_values, expected_vectors = eigh_tridiagonal(d, e)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(vectors, expected_vectors)
    assert vectors.flags.f_contiguous


@pytest.mark.parametrize("label, d, e", list(tridiagonals()))
def test_dstebz_equals_eigvalsh_tridiagonal_at_both_ends(label, d, e):
    for i in (0, d.size - 1):
        expected = eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))
        assert np.array_equal([_lapack.dstebz(d, e, i)], expected)


@pytest.mark.parametrize("n", [K for K in ORDERS if K >= 2] + [1000])
def test_dsytrd_equals_scipy_dsytrd_with_optimal_lwork(n):
    rng = np.random.default_rng(20261019 + n)
    raw = rng.standard_normal((n, n))
    ham = (raw + raw.T) / 2
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    _, expected_d, expected_e, _, info = lapack.dsytrd(ham, lower=1,
                                                       lwork=lwork)
    assert info == 0
    d, e = _lapack.dsytrd(np.array(ham, order="F"))
    assert np.array_equal(d, expected_d)
    assert np.array_equal(e, expected_e)


def blocked_columns(n, nb):
    """Columns ``lapack.dsytrd`` reduces in its blocked loop: panels of nb
    while more than nx columns remain, with reference LAPACK's crossover
    nx = max(nb, ILAENV(3, 'DSYTRD')) = nb = 32; none at n <= nb."""
    return nb * -(-(n - nb) // nb) if n > nb else 0


@pytest.mark.parametrize("n", [K for K in ORDERS if K >= 2] + [64, 1000])
def test_dsytrd_leading_is_the_prefix_of_scipy_dsytrd(n):
    rng = np.random.default_rng(20261020 + n)
    raw = rng.standard_normal((n, n))
    ham = (raw + raw.T) / 2
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    _, full_d, full_e, _, info = lapack.dsytrd(ham, lower=1, lwork=lwork)
    assert info == 0
    blocked = blocked_columns(n, lwork // n)
    tol = 1e-14 * np.max(np.abs(np.linalg.eigvalsh(ham)))
    depths = {1, 2, 3, 20, 33, n // 2, blocked, blocked + 1, n - 1, n}
    for depth in sorted(K for K in depths if 1 <= K <= n):
        a = np.array(ham, order="F")
        d, e = _lapack.dsytrd_leading(a, depth)
        assert d.shape == (depth,) and e.shape == (depth - 1,)
        if depth - 1 <= blocked:
            assert np.array_equal(e, full_e[:depth - 1])
            assert np.array_equal(d[:-1], full_d[:depth - 1])
        # the last a_n, and every entry past the blocked loop, to rounding
        np.testing.assert_allclose(d, full_d[:depth], rtol=0, atol=tol)
        np.testing.assert_allclose(e, full_e[:depth - 1], rtol=0, atol=tol)


def test_dsytrd_leading_checks_its_array_and_depth():
    ham = np.eye(4, order="F")
    for bad in (np.eye(4, order="C"), np.eye(4, dtype=np.float32, order="F"),
                np.eye(8, order="F")[::2, ::2]):
        with pytest.raises(DomainError, match="Fortran-ordered float64"):
            _lapack.dsytrd_leading(bad, 2)
    for depth in (0, 5, 2.0):
        with pytest.raises(DomainError, match="depth"):
            _lapack.dsytrd_leading(ham, depth)


@pytest.mark.parametrize("reduction", [
    _lapack.dsytrd, _lapack.dsytrd_2stage,
    lambda a: _lapack.dsytrd_leading(a, 1)])
def test_reductions_need_a_square_array_of_order_two(reduction):
    for shape in ((1, 1), (3, 2)):
        with pytest.raises(DomainError, match="square array"):
            reduction(np.ones(shape, order="F"))


def test_bindings_leave_their_inputs_unchanged():
    rng = np.random.default_rng(3)
    d, e = rng.standard_normal(40), rng.standard_normal(39)
    d0, e0 = d.copy(), e.copy()
    _lapack.dstevd(d, e)
    _lapack.dstebz(d, e, 39)
    assert np.array_equal(d, d0) and np.array_equal(e, e0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["d", "e"])
def test_non_finite_entries_rejected(bad, where):
    d, e = np.ones(5), np.ones(4)
    (d if where == "d" else e)[2] = bad
    with pytest.raises(DomainError, match="finite"):
        _lapack.dstevd(d, e)
    with pytest.raises(DomainError, match="finite"):
        _lapack.dstebz(d, e, 0)


def test_shapes_and_indices_checked():
    with pytest.raises(DomainError):
        _lapack.dstevd(np.ones(3), np.ones(3))
    with pytest.raises(DomainError):
        _lapack.dstevd(np.ones(0), np.ones(0))
    with pytest.raises(DomainError):
        _lapack.dstebz(np.ones(3), np.ones(2), 3)
    with pytest.raises(DomainError):
        _lapack.dstebz(np.ones(3), np.ones(2), -1)


# position of INFO among each raw routine's arguments
INFO_ARGUMENT = {"_STEVD": 10, "_STEBZ": 17, "_SYTRD": 9,
                 "_SYTRD_2STAGE": 12}


def failing_routine(info_argument):
    def routine(*args):
        args[info_argument].value = 2

    return routine


@pytest.mark.parametrize("routine, call", [
    ("_STEVD", lambda: _lapack.dstevd(np.ones(4), np.ones(3))),
    ("_STEBZ", lambda: _lapack.dstebz(np.ones(4), np.ones(3), 0)),
    ("_SYTRD", lambda: _lapack.dsytrd(np.eye(4, order="F"))),
    ("_SYTRD_2STAGE", lambda: _lapack.dsytrd_2stage(np.eye(4, order="F"))),
])
def test_nonzero_info_raises_lapack_error(monkeypatch, routine, call):
    monkeypatch.setattr(_lapack, routine,
                        failing_routine(INFO_ARGUMENT[routine]))
    with pytest.raises(LapackError, match="info=2"):
        call()


def test_dsytrd_leading_raises_on_a_failed_workspace_query(monkeypatch):
    # the panel width comes from dsytrd's workspace query
    monkeypatch.setattr(_lapack, "_SYTRD",
                        failing_routine(INFO_ARGUMENT["_SYTRD"]))
    with pytest.raises(LapackError, match="dsytrd failed with info=2"):
        _lapack.dsytrd_leading(np.eye(4, order="F"), 3)


@pytest.mark.parametrize("routine, name", [("_STEVD", "dstevd"),
                                           ("_STEBZ", "dstebz"),
                                           ("_SYTRD", "dsytrd")])
def test_nonzero_info_exits_3_without_run_directory(tmp_path, monkeypatch,
                                                    capsys, routine, name):
    monkeypatch.setattr(_lapack, routine,
                        failing_routine(INFO_ARGUMENT[routine]))
    out = tmp_path / "run"
    code = spreadq.cli.main(["frm", "--dim", "30", "--realizations", "1",
                             "--tpoints", "20", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "LapackError" in err and f"{name} failed with info=2" in err
    assert not out.exists()


def test_a_retired_pool_restarts_with_bit_identical_results():
    # the command line retires the BLAS workers between members; the next
    # threaded call starts them again and must give the bits a live pool
    # gives
    n = 600

    def member():
        lc = householder_hessenberg(sample_goe(n, 5).H, 0, overwrite_h=True)
        spectrum = eigendecompose(lc)
        phi = evolve_amplitudes(spectrum, np.linspace(0.0, 20.0, 200))
        return lc.a, lc.b, spectrum.values, spectrum.vectors, phi

    np.ones((n, n)) @ np.ones((n, n))  # a live pool
    live = member()
    _lapack.retire_threads()
    restarted = member()
    assert all(np.array_equal(x, y) for x, y in zip(live, restarted))
