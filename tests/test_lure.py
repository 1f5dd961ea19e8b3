"""Model-layer tests: nonlinearity banks, validation, augmentation,
serialization, the BLAS thread scope and the process pool."""

import multiprocessing
import os
import pickle
import signal
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scalar
from sarlab import lure
from sarlab.lure import (LureSystem, TanhBank, Violation, augment, get_nonlinearity,
                         load_system, read_json, save_system, system_from_dict,
                         system_to_dict, validate, write_json)

TANH1 = 0.7615941559557649  # tanh(1) to double precision


def test_tanh_bank_forward_values():
    bank = TanhBank(np.array([1.0, 2.0]))
    out = bank(np.array([1.0, 0.5]))
    assert out == pytest.approx([TANH1, TANH1], abs=1e-15)
    assert bank(np.zeros(2)) == pytest.approx([0.0, 0.0], abs=0.0)


def test_tanh_bank_bias_centering():
    # centered units vanish at 0 regardless of bias
    bank = TanhBank(np.array([3.0]), biases=np.array([-0.7]))
    assert bank(np.zeros(1))[0] == 0.0
    assert bank(np.array([0.2]))[0] == pytest.approx(
        np.tanh(3.0 * 0.2 - 0.7) - np.tanh(-0.7), abs=1e-15)


def _old_bank(bank, y):
    """The bank's expression before it reused one array in place."""
    return np.tanh(bank.slopes * np.asarray(y, dtype=float) + bank.biases) - bank._tanh_biases


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def test_bank_and_drift_keep_the_expression_bits_and_their_argument():
    # both reuse one fresh array in place; they must give the bits of the
    # expressions they replaced and never write into what they are given
    rng = np.random.default_rng(12)
    n, m = 5, 7
    slopes = rng.uniform(0.5, 2.0, m)
    sys = LureSystem(a=rng.standard_normal((n, n)), f_gain=rng.standard_normal((n, m)),
                     c=rng.standard_normal((m, n)), sigma=0.0,
                     nonlinearity=TanhBank(slopes, rng.standard_normal(m)),
                     sector_slopes=slopes, deriv_bounds=slopes)
    bank = sys.nonlinearity
    ys = [0.37, _read_only(4.0 * rng.standard_normal(m)),
          _read_only(4.0 * rng.standard_normal((9, m))), (4.0 * rng.standard_normal(m)).tolist()]
    for y in ys:
        before = np.array(y, dtype=float)
        out = bank(y)
        assert out.tobytes() == _old_bank(bank, y).tobytes()
        assert out.shape == np.broadcast_shapes(np.shape(y), (m,))
        assert np.array(y).tobytes() == before.tobytes()
    xs = [_read_only(3.0 * rng.standard_normal(n)), _read_only(3.0 * rng.standard_normal((9, n))),
          (3.0 * rng.standard_normal(n)).tolist()]
    for x in xs:
        before = np.array(x, dtype=float)
        old = x @ sys.a.T + _old_bank(bank, x @ sys.c.T) @ sys.f_gain.T
        assert sys.drift(x).tobytes() == old.tobytes()
        assert np.array(x).tobytes() == before.tobytes()
    with pytest.raises(ValueError):  # a scalar is no state, as before
        sys.drift(0.37)


def test_tanh_bank_bias_shape_mismatch():
    with pytest.raises(ValueError):
        TanhBank(np.ones(2), biases=np.ones(3))


def test_registry_roundtrip_and_unknown():
    # "tanh_bank" is the one name a system file holds; the name of older
    # embedding files is unknown like any other
    bank = get_nonlinearity("tanh_bank", slopes=np.ones(1), biases=np.array([0.5]))
    np.testing.assert_array_equal(bank.slopes, [1.0])
    np.testing.assert_array_equal(bank.biases, [0.5])
    np.testing.assert_array_equal(get_nonlinearity("tanh_bank", slopes=np.ones(2)).biases,
                                  np.zeros(2))
    for name in ("morris_lecar_bank", "nope"):
        with pytest.raises(KeyError):
            get_nonlinearity(name, slopes=np.ones(1), biases=np.array([0.5]))


def test_validate_clean_scalar():
    assert validate(make_scalar(-1.0, 0.5)) == []


def test_validate_dimension_errors():
    sys = make_scalar(-1.0, 0.5)
    for code, change in (("dim_f_gain", {"f_gain": np.zeros((1, 2))}),
                         ("dim_a", {"a": np.zeros((1, 2))}),
                         ("dim_c", {"c": np.ones((1, 2))}),
                         ("dim_sector_slopes", {"sector_slopes": np.ones(2)}),
                         ("dim_deriv_bounds", {"deriv_bounds": np.ones(2)})):
        codes = {v.code for v in validate(replace(sys, **change))}
        assert code in codes


def test_validate_sign_errors():
    sys = make_scalar(-1.0, -0.5)
    codes = {v.code for v in validate(sys)}
    assert "sigma_negative" in codes
    sys2 = make_scalar(-1.0, 0.5, s=1.0)
    bad = LureSystem(sys2.a, sys2.f_gain, sys2.c, 0.5, sys2.nonlinearity,
                     np.array([-1.0]), sys2.deriv_bounds)
    assert "bad_sector_slope" in {v.code for v in validate(bad)}


def test_validate_orthonormality_warning():
    # two units reading the same scalar state: C^T C = 2 != 1
    bank = TanhBank(np.ones(2))
    sys = LureSystem(a=np.array([[-1.0]]), f_gain=np.zeros((1, 2)),
                     c=np.array([[1.0], [1.0]]), sigma=0.0, nonlinearity=bank,
                     sector_slopes=np.ones(2), deriv_bounds=np.ones(2))
    vs = validate(sys)
    warn = [v for v in vs if v.code == "c_not_orthonormal"]
    assert len(warn) == 1 and warn[0].severity == "warning"
    assert warn[0].value == pytest.approx(1.0)  # ||diag(2)-1||_F over 1x1 block


def test_validate_flags_non_finite_data():
    ok = make_scalar(-1.0, 0.5)
    bank, s, d = ok.nonlinearity, ok.sector_slopes, ok.deriv_bounds
    cases = [
        LureSystem(np.array([[np.nan]]), ok.f_gain, ok.c, 0.5, bank, s, d),
        ok.with_sigma(np.inf),
        LureSystem(ok.a, ok.f_gain, ok.c, 0.5, bank, np.array([np.inf]), np.array([np.inf])),
        LureSystem(ok.a, ok.f_gain, ok.c, 0.5, TanhBank(np.ones(1), np.array([np.nan])), s, d),
    ]
    for sys in cases:
        assert "non_finite" in {v.code for v in validate(sys) if v.severity == "error"}


def test_validate_checks_the_bank_against_the_sector():
    def codes(bank, sector, deriv):
        sys = LureSystem(a=-np.eye(2), f_gain=np.eye(2), c=np.eye(2), sigma=0.1,
                         nonlinearity=bank, sector_slopes=sector, deriv_bounds=deriv)
        return {v.code for v in validate(sys) if v.severity == "error"}

    steep = TanhBank(np.array([3.0, 1.0]))
    assert codes(steep, np.ones(2), 5.0 * np.ones(2)) == {"bank_outside_sector"}
    assert codes(steep, 5.0 * np.ones(2), np.ones(2)) == {"bank_outside_sector"}
    assert codes(steep, np.array([3.0, 1.0]), np.array([3.0, 1.0])) == set()
    assert codes(TanhBank(np.ones(1)), np.ones(2), np.ones(2)) == {"dim_bank"}
    assert codes(loose_sector_system().nonlinearity, 2.0 * np.ones(2), 2.0 * np.ones(2)) == set()


def test_augment_block_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = np.arange(1.0, 7.0).reshape(2, 3)
    a_bar, f_bar = augment(a, f, kappa=2.0)
    expect_a = np.array([[1, 2, 0], [3, 4, 0], [0, 0, -2.0]])
    expect_f = np.vstack([f, np.zeros((1, 3))])
    np.testing.assert_array_equal(a_bar, expect_a)
    np.testing.assert_array_equal(f_bar, expect_f)


def test_augment_rejects_narrow_and_bad_kappa():
    with pytest.raises(ValueError):
        augment(np.eye(3), np.zeros((3, 2)), 1.0)  # m < n
    with pytest.raises(ValueError):
        augment(np.eye(1), np.zeros((1, 1)), 0.0)
    with pytest.raises(ValueError, match="square"):
        augment(np.ones((2, 3)), np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError, match="one row per physical state"):
        augment(np.eye(2), np.zeros((3, 3)), 1.0)


def test_drift_on_stacked_states():
    sys = make_scalar(-1.0, 0.0, f=0.5)
    xs = np.array([[0.3], [-0.2], [1.0]])
    single = np.vstack([sys.drift(x) for x in xs])
    np.testing.assert_allclose(sys.drift(xs), single, atol=1e-15)


def test_serialization_roundtrip():
    sys = make_scalar(-0.3, 0.8, f=0.25, s=2.0, delta=2.0)
    d = system_to_dict(sys)
    back = system_from_dict(d)
    np.testing.assert_array_equal(back.a, sys.a)
    np.testing.assert_array_equal(back.f_gain, sys.f_gain)
    assert back.sigma == sys.sigma
    np.testing.assert_array_equal(back.nonlinearity.slopes, sys.nonlinearity.slopes)
    np.testing.assert_array_equal(back.nonlinearity.biases, [0.0])
    # the loaded bank matches the zero-bias bank pointwise
    y = np.array([0.37])
    np.testing.assert_array_equal(back.nonlinearity(y), sys.nonlinearity(y))


def test_save_load_file(tmp_path):
    sys = make_scalar(0.1, 0.7)
    path = tmp_path / "sys.json"
    save_system(sys, path)
    again = load_system(path)
    assert again.sigma == 0.7 and again.n == 1 and again.m == 1


def test_save_load_keeps_bank_biases(tmp_path):
    # the unit biases travel in the JSON, so the reloaded system has the saved drift
    rng = np.random.default_rng(1)
    slopes = rng.uniform(0.5, 2.0, 4)
    sys = LureSystem(a=-np.eye(4), f_gain=rng.standard_normal((4, 4)),
                     c=rng.standard_normal((4, 4)), sigma=0.3,
                     nonlinearity=TanhBank(slopes, rng.standard_normal(4)),
                     sector_slopes=slopes, deriv_bounds=slopes)
    path = tmp_path / "sys.json"
    save_system(sys, path)
    again = load_system(path)
    x = rng.standard_normal((5, 4))
    np.testing.assert_array_equal(again.drift(x), sys.drift(x))
    np.testing.assert_array_equal(again.nonlinearity.biases, sys.nonlinearity.biases)


def loose_sector_system():
    # units of slope 1 under a sector bound of 2: the JSON must keep both
    return LureSystem(a=-np.eye(2), f_gain=np.array([[1.0, 0.5], [-0.3, 2.0]]),
                      c=np.eye(2), sigma=0.4, nonlinearity=TanhBank(np.ones(2)),
                      sector_slopes=2.0 * np.ones(2), deriv_bounds=2.0 * np.ones(2))


def test_roundtrip_keeps_units_looser_than_their_sector():
    sys = loose_sector_system()
    back = system_from_dict(system_to_dict(sys))
    x = np.random.default_rng(3).standard_normal((6, 2))
    np.testing.assert_array_equal(back.drift(x), sys.drift(x))
    np.testing.assert_array_equal(back.nonlinearity.slopes, [1.0, 1.0])
    np.testing.assert_array_equal(back.sector_slopes, [2.0, 2.0])


def test_pickled_system_keeps_the_drift():
    rng = np.random.default_rng(4)
    sys = LureSystem(a=-np.eye(3), f_gain=rng.standard_normal((3, 3)),
                     c=rng.standard_normal((3, 3)), sigma=0.2,
                     nonlinearity=TanhBank(rng.uniform(0.5, 2.0, 3), rng.standard_normal(3)),
                     sector_slopes=np.ones(3), deriv_bounds=np.ones(3))
    back = pickle.loads(pickle.dumps(sys))
    x = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(back.drift(x), sys.drift(x))


def test_unpickled_system_and_bank_stay_read_only():
    # sweep workers receive pickled systems; they must be as frozen as the original
    rng = np.random.default_rng(6)
    sys = LureSystem(a=-np.eye(2), f_gain=rng.standard_normal((2, 2)),
                     c=np.eye(2), sigma=0.3,
                     nonlinearity=TanhBank(rng.uniform(0.5, 2.0, 2), rng.standard_normal(2)),
                     sector_slopes=2.0 * np.ones(2), deriv_bounds=2.0 * np.ones(2))
    back = pickle.loads(pickle.dumps(sys))
    bank = back.nonlinearity
    arrays = [back.a, back.f_gain, back.c, back.sector_slopes, back.deriv_bounds,
              bank.slopes, bank.biases]
    assert not any(a.flags.writeable for a in arrays)
    assert not pickle.loads(pickle.dumps(sys.nonlinearity)).slopes.flags.writeable
    assert back.sigma == sys.sigma
    x = rng.standard_normal((5, 2))
    np.testing.assert_array_equal(back.drift(x), sys.drift(x))


def test_saving_a_plain_callable_nonlinearity_says_why_it_fails():
    # only a TanhBank saves to JSON, so a system refuses anything else when built
    with pytest.raises(TypeError, match="nonlinearity must be a TanhBank, not ufunc"):
        LureSystem(a=-np.eye(1), f_gain=np.ones((1, 1)), c=np.eye(1), sigma=0.0,
                   nonlinearity=np.tanh, sector_slopes=np.ones(1), deriv_bounds=np.ones(1))


def test_old_format_dict_is_rejected():
    # files written before unit_slopes existed, under the bank name the
    # Morris-Lecar pipeline used, are refused instead of loading with the
    # sector slopes as the units'; so is a document without any bank key
    rng = np.random.default_rng(5)
    slopes = rng.uniform(0.5, 2.0, 3)
    sys = LureSystem(a=-np.eye(3), f_gain=rng.standard_normal((3, 3)),
                     c=rng.standard_normal((3, 3)), sigma=0.0,
                     nonlinearity=TanhBank(slopes, rng.standard_normal(3)),
                     sector_slopes=slopes, deriv_bounds=slopes)
    doc = system_to_dict(sys)
    x = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(system_from_dict(doc).drift(x), sys.drift(x))
    for key in ("nonlinearity", "unit_slopes", "biases"):
        with pytest.raises(KeyError, match=key):
            system_from_dict({k: v for k, v in doc.items() if k != key})
    del doc["unit_slopes"]
    doc["nonlinearity"] = "morris_lecar_bank"
    with pytest.raises(KeyError):
        system_from_dict(doc)


def test_read_json_accepts_only_an_object(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [1.0, 2.5], "b": None})
    assert read_json(path) == {"a": [1.0, 2.5], "b": None}
    for text, message in (("{not json", "malformed JSON in"),
                          ("[1, 2]", "expected a JSON object")):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_json(path)
    with pytest.raises(OSError):
        read_json(tmp_path / "missing.json")


def test_matrices_are_frozen():
    sys = make_scalar(-1.0, 0.0)
    with pytest.raises(ValueError):
        sys.a[0, 0] = 5.0


@settings(max_examples=60, deadline=None)
@given(slope=st.floats(0.05, 10.0), y=st.floats(-20.0, 20.0), bias=st.floats(-2.0, 2.0))
def test_centered_tanh_unit_respects_its_sector(slope, y, bias):
    bank = TanhBank(np.array([slope]), biases=np.array([bias]))
    fy = bank(np.array([y]))[0]
    # 0 <= y f(y) and f(f - s y) <= 0, up to roundoff
    assert y * fy >= -1e-12
    assert fy * (fy - slope * y) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(slope=st.floats(0.05, 8.0), y=st.floats(-5.0, 5.0), bias=st.floats(-1.5, 1.5))
def test_centered_tanh_unit_slope_bound(slope, y, bias):
    bank = TanhBank(np.array([slope]), biases=np.array([bias]))
    h = 1e-6
    num = (bank(np.array([y + h]))[0] - bank(np.array([y - h]))[0]) / (2 * h)
    assert num <= slope * (1 + 1e-6) + 1e-9


def test_violation_is_plain_record():
    v = Violation("warning", "x", "msg", 1.0)
    assert (v.severity, v.code, v.value) == ("warning", "x", 1.0)


# -- the one-BLAS-thread scope ----------------------------------------------

class _FakeBlas:
    """A (get, set) pair over one library's thread count."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


@pytest.fixture
def fresh_blas_lookup():
    lure._openblas_thread_controls.cache_clear()
    yield
    lure._openblas_thread_controls.cache_clear()


def test_one_blas_thread_restores_every_count_also_on_raise(monkeypatch):
    libs = [_FakeBlas(3), _FakeBlas(5)]
    monkeypatch.setattr(lure, "_openblas_thread_controls",
                        lambda: tuple((lib.get, lib.set) for lib in libs))
    with lure._one_blas_thread():
        assert [lib.count for lib in libs] == [1, 1]
    assert [lib.count for lib in libs] == [3, 5]
    with pytest.raises(KeyError), lure._one_blas_thread():
        assert [lib.count for lib in libs] == [1, 1]
        raise KeyError("inside the block")
    assert [lib.count for lib in libs] == [3, 5]


def test_one_blas_thread_on_the_loaded_openblas():
    # NumPy and SciPy are imported, so every OpenBLAS they ship is mapped
    controls = lure._openblas_thread_controls()
    with open(lure._PROC_MAPS) as fh:
        assert bool(controls) == ("openblas" in fh.read())
    before = [get() for get, _ in controls]
    with pytest.raises(RuntimeError), lure._one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
        raise RuntimeError("inside the block")
    assert [get() for get, _ in controls] == before


@pytest.mark.parametrize("maps", [None, "00400000-00452000 r-xp 00000000 08:02 173521 "
                                        "/usr/bin/python3\n"])
def test_one_blas_thread_without_openblas_does_nothing(maps, monkeypatch, tmp_path,
                                                       fresh_blas_lookup):
    real = lure._openblas_thread_controls()
    before = [get() for get, _ in real]
    path = tmp_path / "maps"
    if maps is not None:  # else the file is missing, as without /proc
        path.write_text(maps)
    monkeypatch.setattr(lure, "_PROC_MAPS", str(path))
    lure._openblas_thread_controls.cache_clear()
    assert lure._openblas_thread_controls() == ()
    ran = False
    with lure._one_blas_thread():
        assert [get() for get, _ in real] == before
        ran = True
    assert ran and [get() for get, _ in real] == before


# -- the process pool ------------------------------------------------------------

def test_fork_map_yields_in_input_order_with_the_workers_warnings(pools):
    offset = 10  # the workers inherit the closure through the fork

    def shifted(i):
        if i == 2:
            warnings.warn(f"item {i} warned", RuntimeWarning)
        time.sleep(0.02 * (4 - i))  # the later items finish first
        return i + offset

    with pytest.warns(RuntimeWarning, match="item 2 warned"):
        assert list(lure._fork_map(shifted, range(5), 2)) == [10, 11, 12, 13, 14]
    assert pools == ([2] if lure._usable_cores() > 1 else [])
    assert multiprocessing.active_children() == []


def test_fork_map_stopped_early_leaves_no_worker():
    results = lure._fork_map(lambda i: time.sleep(0.2 * i) or i, range(4), 2)
    assert next(results) == 0
    results.close()  # the other worker is still asleep
    assert multiprocessing.active_children() == []


def test_fork_map_in_a_pool_worker_runs_in_process():
    # a daemonic pool worker may not start children of its own
    def inner(i):
        return list(lure._fork_map(lambda j: i * j, range(3), 2))

    assert list(lure._fork_map(inner, range(2), 2)) == [[0, 0, 0], [0, 1, 2]]


def test_fork_map_raises_when_a_worker_dies(monkeypatch):
    # the pool would start a new worker and wait for the dead one's task forever
    monkeypatch.setattr(lure, "_POOL_POLL_S", 0.05)

    def killed(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match="exit code -9"):
        list(lure._fork_map(killed, range(3), 2))
    assert multiprocessing.active_children() == []
