"""The ctypes LAPACK bindings against scipy's own wrappers, bit for bit.

This is a cross-library check: ``_lapack`` binds the routines from the
OpenBLAS numpy links (ILP64 symbols, 64-bit integer arguments), while
``scipy.linalg`` calls its own OpenBLAS build through LP64 wrappers.
``dstevd`` and ``dstebz`` are called with the arguments scipy passes, so
their results must equal ``eigh_tridiagonal`` and
``eigvalsh_tridiagonal(select="i")`` exactly, not just to a tolerance.
"""
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import spreadq.cli
from spreadq import DomainError, LapackError, _lapack

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
INFO_ARGUMENT = {"_STEVD": 10, "_STEBZ": 17, "_SYTRD_2STAGE": 12}


def failing_routine(info_argument):
    def routine(*args):
        args[info_argument].value = 2

    return routine


@pytest.mark.parametrize("routine, call", [
    ("_STEVD", lambda: _lapack.dstevd(np.ones(4), np.ones(3))),
    ("_STEBZ", lambda: _lapack.dstebz(np.ones(4), np.ones(3), 0)),
    ("_SYTRD_2STAGE", lambda: _lapack.dsytrd_2stage(np.eye(4, order="F"))),
])
def test_nonzero_info_raises_lapack_error(monkeypatch, routine, call):
    monkeypatch.setattr(_lapack, routine,
                        failing_routine(INFO_ARGUMENT[routine]))
    with pytest.raises(LapackError, match="info=2"):
        call()


@pytest.mark.parametrize("routine, name", [("_STEVD", "dstevd"),
                                           ("_STEBZ", "dstebz")])
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

