"""Network tests: forward pass, backprop gradients, training behavior,
sector extraction, embedding assembly, serialization."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parent_layout_doc
from sarlab import shallow
from sarlab.lure import _usable_cores, c_defect
from sarlab.shallow import (ShallowNet, TrainOptions, embed,
                            extract_bounds, load_embedding, load_net,
                            loss_and_grad, save_embedding, save_net, train)

TANH1 = 0.7615941559557649


def tiny_net():
    # 1 input, 1 unit, 1 output: y = 2 tanh(x) + 0.5
    return ShallowNet(w1=[[1.0]], b1=[0.0], w2=[[2.0]], b2=[0.5])


def test_forward_known_values():
    net = tiny_net()
    assert net(np.array([1.0]))[0] == pytest.approx(2 * TANH1 + 0.5, abs=1e-15)
    assert net(np.array([0.0]))[0] == pytest.approx(0.5, abs=0.0)


def test_forward_zero_weights_returns_bias():
    net = ShallowNet(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), [1.5, -0.5])
    out = net(np.array([[0.3, -4.0], [100.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.5, -0.5], [1.5, -0.5]])


def test_forward_batch_matches_single():
    net = ShallowNet([[0.5, -1.0], [2.0, 0.1]], [0.1, -0.2],
                     [[1.0, 0.3]], [0.0])
    xs = np.array([[0.2, 0.4], [-1.0, 2.0]])
    batch = net(xs)
    singles = np.vstack([net(x) for x in xs])
    np.testing.assert_allclose(batch, singles, atol=1e-15)


def test_shape_validation():
    with pytest.raises(ValueError):
        ShallowNet(np.zeros((2, 1)), np.zeros(3), np.zeros((1, 2)), np.zeros(1))


def test_gradcheck_against_central_differences():
    rng = np.random.default_rng(0)
    net = ShallowNet(rng.standard_normal((4, 2)), rng.standard_normal(4),
                     rng.standard_normal((3, 4)), rng.standard_normal(3))
    x = rng.standard_normal((12, 2))
    t = rng.standard_normal((12, 3))
    _, g = loss_and_grad(net, x, t)
    eps = 1e-6
    for field in ("w1", "b1", "w2", "b2"):
        arr = getattr(net, field).copy()
        g_arr = getattr(g, field)
        it = np.ndindex(arr.shape)
        for idx in it:
            for sgn, store in ((1, "hi"), (-1, "lo")):
                pert = {f: getattr(net, f).copy() for f in ("w1", "b1", "w2", "b2")}
                pert[field][idx] += sgn * eps
                val = loss_and_grad(ShallowNet(**pert), x, t)[0]
                if store == "hi":
                    hi = val
                else:
                    lo = val
            num = (hi - lo) / (2 * eps)
            assert abs(num - g_arr[idx]) <= 1e-5 * max(1.0, abs(num)), (field, idx)


def test_train_constant_target():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(400, 2))
    t = np.full((400, 1), 3.25)
    res = train(x, t, hidden=3, options=TrainOptions(epochs=120, seed=0))
    assert res.diverged.tolist() == [False]
    assert res.final_rms.shape == (1, 1) and res.final_rms[0, 0] < 1e-4


def test_train_identity_target():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(2000, 1))
    res = train(x, x, hidden=6, options=TrainOptions(epochs=300, seed=0))
    assert res.diverged.tolist() == [False]
    assert 1 <= res.loss_history.shape[1] <= 300  # epochs caps the L-BFGS iterations
    assert res.final_rms[0, 0] < 0.01


def test_train_zero_samples_errors():
    with pytest.raises(ValueError):
        train(np.zeros((0, 2)), np.zeros((0, 1)), hidden=2)


def test_train_needs_a_hidden_unit():
    with pytest.raises(ValueError, match="hidden must be >= 1"):
        train(np.zeros((5, 2)), np.zeros((5, 1)), hidden=0)


def test_train_row_mismatch_errors():
    with pytest.raises(ValueError):
        train(np.zeros((5, 2)), np.zeros((4, 1)), hidden=2)
    with pytest.raises(ValueError, match="rows"):  # a stack of three target sets
        train(np.zeros((5, 2)), np.zeros((3, 4, 1)), hidden=2)


def test_train_warns_when_undersampled():
    with pytest.warns(UserWarning, match="samples"):
        train(np.random.default_rng(0).uniform(-1, 1, (8, 1)),
              np.zeros((8, 1)), hidden=4, options=TrainOptions(epochs=2))


def test_non_finite_target_sets_diverged():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(128, 1))
    t = 100.0 * x
    t[7, 0] = np.inf
    with pytest.warns(UserWarning, match="diverged"):
        res = train(x, t, hidden=2, options=TrainOptions(epochs=50))
    assert res.diverged.tolist() == [True]
    assert not np.isfinite(res.loss_history).any()


def test_train_is_deterministic_by_seed():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(128, 1))
    t = np.tanh(2 * x)
    a = train(x, t, hidden=3, options=TrainOptions(epochs=20, seed=9))
    b = train(x, t, hidden=3, options=TrainOptions(epochs=20, seed=9))
    for field in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(a.nets[0], field), getattr(b.nets[0], field))
    np.testing.assert_array_equal(a.loss_history, b.loss_history)
    np.testing.assert_array_equal(a.final_rms, b.final_rms)


def test_loss_history_is_non_increasing():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(400, 2))
    targets = np.stack([np.column_stack([np.sin(x[:, 0]), x[:, 0] * x[:, 1]]),
                        np.column_stack([np.exp(-x[:, 1] ** 2), np.cos(x[:, 0])]),
                        np.column_stack([x[:, 0], np.zeros(400)])])
    res = train(x, targets, 4, TrainOptions(epochs=80, seed=1))
    assert res.loss_history.shape[0] == 3 and 1 <= res.loss_history.shape[1] <= 80
    assert np.isfinite(res.loss_history).all()
    assert (np.diff(res.loss_history, axis=1) <= 0.0).all()


# -- a stack of nets against single-target runs ------------------------------

@pytest.mark.parametrize("n, d, q", [(301, 2, 2), (130, 1, 1), (97, 3, 3)])
def test_stacked_nets_equal_single_target_calls(n, d, q):
    # k = 3 target sets of different scales; net i runs on seed opts.seed + i
    rng = np.random.default_rng(n)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    targets = np.stack([np.sin((i + 1) * x[:, :1] + np.arange(q)) * 10.0 ** i for i in range(3)])
    opts = TrainOptions(epochs=25, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # (97, 3, 3) is undersampled on purpose
        res = train(x, targets, 4, opts)
        solo = [train(x, t, 4, replace(opts, seed=opts.seed + i))
                for i, t in enumerate(targets)]
    assert res.final_rms.shape == (3, q)
    for i, one in enumerate(solo):
        for field in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(res.nets[i], field),
                                          getattr(one.nets[0], field))
        ran = one.loss_history.shape[1]
        np.testing.assert_array_equal(res.loss_history[i, :ran], one.loss_history[0])
        # a net that stopped early holds its final loss in the longer stack
        assert (res.loss_history[i, ran:] == one.loss_history[0, -1]).all()
        np.testing.assert_array_equal(res.final_rms[i], one.final_rms[0])
        assert res.diverged[i] == one.diverged[0]


def test_single_target_is_a_stack_of_one():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(300, 2))
    t = np.column_stack([x[:, 0] * x[:, 1], np.cos(x[:, 0])])
    opts = TrainOptions(epochs=10, seed=3)
    flat, stacked = train(x, t, 5, opts), train(x, t[None], 5, opts)
    assert len(flat.nets) == 1 and flat.loss_history.shape == (1, 10)
    np.testing.assert_array_equal(flat.nets[0].w1, stacked.nets[0].w1)
    np.testing.assert_array_equal(flat.loss_history, stacked.loss_history)


def test_one_diverging_net_leaves_the_others_training():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(100, 1))
    bad = np.sin(3 * x)
    bad[5, 0] = np.nan
    targets = np.stack([bad, x, np.full_like(x, 2.0)])
    with pytest.warns(UserWarning, match=r"net 0 diverged"):
        res = train(x, targets, 2, TrainOptions(epochs=50))
    assert res.diverged.tolist() == [True, False, False]
    assert np.isnan(res.loss_history[0]).all()
    assert np.isfinite(res.loss_history[1:]).all()
    assert (res.final_rms[1:] < 1e-2).all()


def test_pooled_fits_equal_their_solo_fits(pools):
    # more nets than pool workers, so each worker fits several in turn
    rng = np.random.default_rng(12)
    x = rng.uniform(-2.0, 2.0, size=(400, 2))
    targets = np.stack([np.tanh((i + 1) * x[:, :1] - x[:, 1:]) + i for i in range(8)])
    opts = TrainOptions(epochs=30, seed=1)
    res = train(x, targets, 4, opts)
    assert pools == ([_usable_cores() + 1] if _usable_cores() > 1 else [])
    assert multiprocessing.active_children() == []
    for i, target in enumerate(targets):
        one = train(x, target, 4, replace(opts, seed=opts.seed + i))
        for field in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(res.nets[i], field),
                                          getattr(one.nets[0], field))
        np.testing.assert_array_equal(res.loss_history[i, :one.loss_history.shape[1]],
                                      one.loss_history[0])


def test_one_net_fit_starts_no_pool(pools):
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, size=(200, 1))
    train(x, np.sin(2 * x), 3, TrainOptions(epochs=5))
    assert pools == []


def test_a_raising_objective_reaches_the_caller(monkeypatch):
    # net 1's target is constant, so its scaled target is all zeros
    loss_grad = shallow._loss_grad

    def failing(params, xt, tt, grads, work):
        if not tt.any():
            raise FloatingPointError("net 1's objective failed")
        return loss_grad(params, xt, tt, grads, work)

    monkeypatch.setattr(shallow, "_loss_grad", failing)
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(200, 1))
    targets = np.stack([np.sin(x), np.full_like(x, 3.0), x ** 2])
    raised = []

    def run():
        try:
            train(x, targets, 3, TrainOptions(epochs=200))
        except FloatingPointError as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(raised) == 1 and "net 1" in str(raised[0])
    assert multiprocessing.active_children() == []


_FIT_IN_CHILD = """
import contextlib, sys
import numpy as np
from sarlab import shallow
shallow._one_blas_thread = contextlib.nullcontext  # the environment sets the threads
rng = np.random.default_rng(11)
x = rng.uniform(-3.0, 3.0, size=(10000, 2))
targets = np.stack([np.column_stack([np.sin(i + x[:, 0]) * x[:, 1], np.tanh(x[:, 0] - i)])
                    for i in range(3)])
res = shallow.train(x, targets, 10, shallow.TrainOptions(epochs=40, seed=2))
parts = [getattr(net, f).ravel() for net in res.nets for f in ("w1", "b1", "w2", "b2")]
np.save(sys.argv[1], np.concatenate(parts + [res.loss_history.ravel()]))
"""


def test_blas_thread_count_changes_no_training_bits(tmp_path):
    # train holds OpenBLAS at one thread; that is safe only because a fit
    # under the default thread count has the same bits
    src = str(Path(shallow.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, base.get("PYTHONPATH", "")])
    out = {}
    for name, env in (("default", base), ("one", {**base, "OPENBLAS_NUM_THREADS": "1"})):
        out[name] = tmp_path / f"{name}.npy"
        subprocess.run([sys.executable, "-c", _FIT_IN_CHILD, str(out[name])],
                       env=env, check=True, timeout=120)
    default, one = np.load(out["default"]), np.load(out["one"])
    assert default.shape == one.shape and default.tobytes() == one.tobytes()


def test_train_options_are_epochs_and_seed():
    # training is full-batch: batch_size is read-only and spans any data set
    opts = TrainOptions()
    assert (opts.epochs, opts.seed) == (300, 0)
    assert opts.batch_size >= 2 ** 31
    with pytest.raises(TypeError):
        TrainOptions(lr=0.1)
    with pytest.raises(ValueError):
        TrainOptions(epochs=0)


def test_extract_bounds_row_norm_oracle():
    net = ShallowNet([[3.0, 4.0]], [0.2], [[1.0]], [0.0])
    bounds = extract_bounds(net)
    assert bounds.slopes[0] == pytest.approx(5.0, abs=1e-15)
    np.testing.assert_allclose(bounds.directions[0], [0.6, 0.8], atol=1e-15)
    assert bounds.biases[0] == 0.2
    assert bounds.kept.tolist() == [0]


def test_extract_bounds_prunes_dead_units():
    net = ShallowNet([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]], np.zeros(3),
                     np.ones((1, 3)), [0.0])
    bounds = extract_bounds(net)
    assert bounds.kept.tolist() == [0, 2]
    np.testing.assert_allclose(bounds.slopes, [1.0, 2.0])


def test_save_load_net_bit_exact(tmp_path):
    net = tiny_net()
    f = tmp_path / "net.json"
    save_net(net, f)
    back = load_net(f)
    for field in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(back, field), getattr(net, field))


# -- embedding assembly ------------------------------------------------------

def two_unit_net():
    # 2 inputs -> 2 units -> 1 output; zero biases so the net vanishes at 0
    return ShallowNet([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0], [[0.5, -0.25]], [0.0])


def test_embed_shapes_and_bank():
    net = two_unit_net()
    a_phys = -np.eye(2)
    emb = embed([net], [np.array([[1.0], [0.0]])], a_phys, kappa=1.0)
    sys = emb.system
    assert sys.n == sys.m == 2
    assert emb.n_phys == 2
    # physical F columns are combiner @ w2 per unit
    np.testing.assert_allclose(sys.f_gain, [[0.5, -0.25], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(sys.c, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(sys.sector_slopes, [1.0, 2.0], atol=1e-15)


def test_embed_pads_fictitious_states():
    # 1 physical state, 3 units -> 2 fictitious states
    net = ShallowNet([[1.0], [2.0], [0.5]], np.zeros(3), [[1.0, 1.0, 1.0]], [0.0])
    emb = embed([net], [np.array([[1.0]])], [[-1.0]], kappa=2.0)
    sys = emb.system
    assert sys.n == 3 and emb.n_phys == 1
    np.testing.assert_allclose(sys.a[1:, 1:], -2.0 * np.eye(2), atol=1e-15)
    assert np.all(sys.f_gain[1:] == 0.0)
    np.testing.assert_allclose(sys.c.T @ sys.c, np.eye(3), atol=1e-15)


def random_vanishing_net(rng, n_phys, hidden):
    """A random net from n_phys inputs to n_phys outputs that vanishes at 0."""
    net = ShallowNet(rng.standard_normal((hidden, n_phys)), rng.standard_normal(hidden),
                     rng.standard_normal((n_phys, hidden)), np.zeros(n_phys))
    return replace(net, b2=-net(np.zeros(n_phys)))


@settings(max_examples=30, deadline=None)
@given(n_phys=st.sampled_from([1, 2, 3]), extra=st.integers(0, 6),
       seed=st.integers(0, 2**16))
def test_embed_output_map_is_orthogonal(n_phys, extra, seed):
    rng = np.random.default_rng(seed)
    net = random_vanishing_net(rng, n_phys, n_phys + extra)
    emb = embed([net], [np.eye(n_phys)], rng.standard_normal((n_phys, n_phys)),
                kappa=1.0)
    assert c_defect(emb.system) <= 1e-12
    # each unit still reads its own direction of the physical deviation
    bounds = extract_bounds(net)
    np.testing.assert_allclose(emb.system.c[:, :n_phys] @ emb.lift, bounds.directions,
                               atol=1e-12)


def test_embed_rejects_units_that_miss_a_physical_direction():
    # every unit reads V + N (or its negative), so nothing sees V - N
    net = ShallowNet([[1.0, 1.0], [2.0, 2.0], [-0.5, -0.5]], np.zeros(3),
                     [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="span fewer than 2"):
        embed([net], [np.eye(2)], -np.eye(2), kappa=1.0)


def test_embed_recenter_shifts_unit_biases():
    net = ShallowNet([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.1], [[0.5, -0.25]], [0.0])
    x_star = np.array([0.3, -0.2])
    star_out = net(x_star)
    emb = embed([net], [np.array([[1.0], [0.0]])], -np.eye(2), kappa=1.0,
                x_star=x_star, const_drift=-np.array([star_out[0], 0.0]))
    # unit biases become b1 + (w1 . x_star): direction-scaled form
    expected = np.array([0.0 + 0.3, 0.1 + 2.0 * (-0.2)])
    np.testing.assert_allclose(emb.system.nonlinearity(np.zeros(2)), 0.0, atol=1e-15)
    bank_b = expected  # recentred unit must vanish at deviation 0 by construction
    probe = emb.system.nonlinearity(np.array([0.1, 0.1]))
    manual = np.tanh(emb.system.sector_slopes * 0.1 + bank_b) - np.tanh(bank_b)
    np.testing.assert_allclose(probe, manual, atol=1e-15)


def test_embed_offset_gate():
    net = two_unit_net()
    x_star = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="offset"):
        embed([net], [np.array([[1.0], [0.0]])], -np.eye(2), kappa=1.0,
              x_star=x_star)  # net(x*) != 0 and no compensating const drift


def test_embed_validates_combiner_shape():
    net = two_unit_net()
    comb = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        embed([net], [np.eye(3)], -np.eye(2), kappa=1.0)
    with pytest.raises(ValueError, match="a_phys must be square"):
        embed([net], [comb], -np.ones((2, 3)), kappa=1.0)
    with pytest.raises(ValueError, match="x_star must have one entry per physical state"):
        embed([net], [comb], -np.eye(2), kappa=1.0, x_star=np.zeros(3))
    with pytest.raises(ValueError, match="need one combiner per net"):
        embed([net, net], [comb], -np.eye(2), kappa=1.0)
    with pytest.raises(ValueError, match="net input dimension"):
        embed([net], [np.ones((3, 1))], -np.eye(3), kappa=1.0)


def test_embedding_roundtrip(tmp_path):
    net = two_unit_net()
    emb = embed([net], [np.array([[1.0], [0.0]])], -np.eye(2), kappa=1.5)
    f = tmp_path / "emb.json"
    save_embedding(emb, f)
    back = load_embedding(f)
    assert back.kappa == 1.5 and back.n_phys == 2
    np.testing.assert_array_equal(back.lift, emb.lift)
    np.testing.assert_array_equal(back.system.a, emb.system.a)
    np.testing.assert_array_equal(back.system.f_gain, emb.system.f_gain)
    np.testing.assert_array_equal(back.system.sector_slopes, emb.system.sector_slopes)


def test_embedding_roundtrip_keeps_the_drift(tmp_path):
    # a random 4-unit net: its unit biases must survive save/load
    rng = np.random.default_rng(1)
    net = ShallowNet(rng.standard_normal((4, 2)), rng.standard_normal(4),
                     rng.standard_normal((1, 4)), [0.0])
    net = ShallowNet(net.w1, net.b1, net.w2, -net(np.zeros(2)))  # vanish at the origin
    emb = embed([net], [np.array([[1.0], [0.0]])], -np.eye(2), kappa=1.0)
    f = tmp_path / "emb.json"
    save_embedding(emb, f)
    back = load_embedding(f)
    x = rng.standard_normal((5, emb.system.n))
    np.testing.assert_array_equal(back.system.drift(x), emb.system.drift(x))
    # the bank is plain data, so the embedded system also pickles exactly
    unpickled = pickle.loads(pickle.dumps(emb.system))
    np.testing.assert_array_equal(unpickled.drift(x), emb.system.drift(x))


@settings(max_examples=30, deadline=None)
@given(w=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
       b=st.floats(-1, 1), x=st.lists(st.floats(-2, 2), min_size=2, max_size=2))
def test_extract_bounds_slope_is_row_norm(w, b, x):
    net = ShallowNet([w], [b], [[1.0]], [0.0])
    norm = float(np.hypot(*w))
    bounds = extract_bounds(net)
    if norm <= 1e-12:
        assert bounds.kept.size == 0
    else:
        assert bounds.slopes[0] == pytest.approx(norm, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_loss_is_half_mean_squared_error(seed):
    rng = np.random.default_rng(seed)
    net = ShallowNet(rng.standard_normal((2, 1)), rng.standard_normal(2),
                     rng.standard_normal((1, 2)), rng.standard_normal(1))
    x = rng.standard_normal((7, 1))
    t = rng.standard_normal((7, 1))
    loss, _ = loss_and_grad(net, x, t)
    manual = 0.5 * np.mean(np.sum((net(x) - t) ** 2, axis=1))
    assert loss == pytest.approx(manual, rel=1e-12)


def test_unlifted_embedding_file_is_rejected(tmp_path):
    # a file written before embed lifted its output basis: C = [D 0], no lift
    rng = np.random.default_rng(5)
    emb = embed([random_vanishing_net(rng, 2, 6)], [np.eye(2)], -np.eye(2), kappa=1.0)
    f = tmp_path / "old.json"
    f.write_text(json.dumps(parent_layout_doc(emb)))
    with pytest.raises(KeyError, match="lift"):
        load_embedding(f)
