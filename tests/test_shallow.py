"""Network tests: forward pass, backprop gradients, training behavior,
sector extraction, embedding assembly, serialization."""

import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert res.loss_history.shape == (1, 300)
    assert res.final_rms[0, 0] < 0.01


def test_train_zero_samples_errors():
    with pytest.raises(ValueError):
        train(np.zeros((0, 2)), np.zeros((0, 1)), hidden=2)


def test_train_row_mismatch_errors():
    with pytest.raises(ValueError):
        train(np.zeros((5, 2)), np.zeros((4, 1)), hidden=2)
    with pytest.raises(ValueError, match="rows"):  # a stack of three target sets
        train(np.zeros((5, 2)), np.zeros((3, 4, 1)), hidden=2)


def test_train_warns_when_undersampled():
    with pytest.warns(UserWarning, match="samples"):
        train(np.random.default_rng(0).uniform(-1, 1, (8, 1)),
              np.zeros((8, 1)), hidden=4, options=TrainOptions(epochs=2))


def test_train_divergence_keeps_last_finite_iterate():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(128, 1))
    t = 100.0 * x
    with pytest.warns(UserWarning, match="diverged"):
        res = train(x, t, hidden=2,
                    options=TrainOptions(epochs=50, lr=4e3))
    assert res.diverged.tolist() == [True]
    net = res.nets[0]
    assert np.isfinite(net.w1).all() and np.isfinite(net.b2).all()
    assert np.isfinite(res.loss_history).all() and res.loss_history.shape[1] < 50


def test_train_is_deterministic_by_seed():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(128, 1))
    t = np.tanh(2 * x)
    a = train(x, t, hidden=3, options=TrainOptions(epochs=20, seed=9))
    b = train(x, t, hidden=3, options=TrainOptions(epochs=20, seed=9))
    np.testing.assert_array_equal(a.nets[0].w1, b.nets[0].w1)
    np.testing.assert_array_equal(a.loss_history, b.loss_history)


# -- the stacked trainer against a single-net reference loop -----------------

def oracle_train(x, t, hidden, opts):
    """The single-net minibatch SGD loop that train() generalizes to a stack
    of nets: (net, loss history, final rms, diverged)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(t, dtype=float))
    n, d = x.shape
    q, h = t.shape[1], hidden

    def mse_and_grads(w1, b1, w2, b2, x, t):
        m = x.shape[0]
        a1 = np.tanh(x @ w1.T + b1)
        rn = (a1 @ w2.T + b2 - t) / m
        dz1 = (rn @ w2) * (1.0 - a1 * a1)
        return dz1.T @ x, dz1.sum(axis=0), rn.T @ a1, rn.sum(axis=0)

    x_mu = 0.5 * (x.min(axis=0) + x.max(axis=0))
    x_half = np.maximum(0.5 * (x.max(axis=0) - x.min(axis=0)), 1e-12)
    t_mu = 0.5 * (t.min(axis=0) + t.max(axis=0))
    t_half = np.maximum(0.5 * (t.max(axis=0) - t.min(axis=0)), 1e-12)
    xn = (x - x_mu) / x_half
    tn = (t - t_mu) / t_half
    rng = np.random.default_rng(opts.seed)
    w1 = rng.uniform(-1, 1, size=(h, d)) / np.sqrt(d)
    b1 = rng.uniform(-1, 1, size=h) / np.sqrt(d)
    w2 = rng.uniform(-1, 1, size=(q, h)) / np.sqrt(h)
    b2 = np.zeros(q)
    vel = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    history, diverged = [], False
    last_good = (w1.copy(), b1.copy(), w2.copy(), b2.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(opts.epochs):
            lr = opts.lr / (1.0 + opts.lr_decay * epoch)
            order = rng.permutation(n)
            for start in range(0, n, opts.batch_size):
                idx = order[start:start + opts.batch_size]
                grads = mse_and_grads(w1, b1, w2, b2, xn[idx], tn[idx])
                for p, v, g in zip((w1, b1, w2, b2), vel, grads):
                    v *= 0.9  # train's momentum
                    v -= lr * g
                    p += v
            r = np.tanh(xn @ w1.T + b1) @ w2.T + b2 - tn
            loss = 0.5 * float(np.sum(r * r)) / n
            if not np.isfinite(loss):
                w1, b1, w2, b2 = last_good
                diverged = True
                break
            history.append(loss)
            last_good = (w1.copy(), b1.copy(), w2.copy(), b2.copy())
    net = ShallowNet(w1 / x_half[None, :], b1 - w1 @ (x_mu / x_half),
                     t_half[:, None] * w2, t_mu + t_half * b2)
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean((net(x) - t) ** 2, axis=0))
    return net, np.asarray(history), rms, diverged


def assert_matches_oracle(res, x, targets, hidden, opts):
    """Net i of a stacked result equals a solo oracle run on seed opts.seed + i."""
    for i, t in enumerate(targets):
        net, history, rms, diverged = oracle_train(x, t, hidden, replace(opts, seed=opts.seed + i))
        for field in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(res.nets[i], field), getattr(net, field))
        np.testing.assert_array_equal(res.loss_history[i, :history.size], history)
        assert np.isnan(res.loss_history[i, history.size:]).all()
        np.testing.assert_array_equal(res.final_rms[i], rms)
        assert res.diverged[i] == diverged


@pytest.mark.parametrize("n, d, q, batch", [(301, 2, 2, 64), (130, 1, 1, 32), (97, 3, 3, 128)])
def test_stacked_nets_equal_solo_oracle_runs(n, d, q, batch):
    # ragged last batches (n not a multiple of batch_size), k = 3 distinct seeds
    rng = np.random.default_rng(n)
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    targets = np.stack([np.sin((i + 1) * x[:, :1] + np.arange(q)) * 10.0 ** i for i in range(3)])
    opts = TrainOptions(epochs=25, batch_size=batch, lr=0.02, lr_decay=0.004, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # (97, 3, 3) is undersampled on purpose
        res = train(x, targets, 4, opts)
    assert res.loss_history.shape == (3, 25) and res.final_rms.shape == (3, q)
    assert_matches_oracle(res, x, targets, 4, opts)


def test_single_target_is_a_stack_of_one():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(300, 2))
    t = np.column_stack([x[:, 0] * x[:, 1], np.cos(x[:, 0])])
    opts = TrainOptions(epochs=10, seed=3)
    flat, stacked = train(x, t, 5, opts), train(x, t[None], 5, opts)
    assert len(flat.nets) == 1 and flat.loss_history.shape == (1, 10)
    np.testing.assert_array_equal(flat.nets[0].w1, stacked.nets[0].w1)
    np.testing.assert_array_equal(flat.loss_history, stacked.loss_history)
    assert_matches_oracle(flat, x, t[None], 5, opts)


def test_one_diverging_net_leaves_the_others_training():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(100, 1))
    targets = np.stack([np.sin(3 * x), x, np.full_like(x, 2.0)])
    # at this step size net 0 (seed 0) blows up part-way; nets 1 and 2 do not
    opts = TrainOptions(epochs=200, batch_size=32, lr=2.41)
    with pytest.warns(UserWarning, match=r"net \d diverged"):
        res = train(x, targets, 2, opts)
    assert res.diverged.any() and not res.diverged.all()
    assert res.loss_history.shape == (3, 200)
    assert_matches_oracle(res, x, targets, 2, opts)


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
    assert np.all(sys.c[:, 1:] == 0.0)


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
    with pytest.raises(ValueError):
        embed([net], [np.eye(3)], -np.eye(2), kappa=1.0)


def test_embedding_roundtrip(tmp_path):
    net = two_unit_net()
    emb = embed([net], [np.array([[1.0], [0.0]])], -np.eye(2), kappa=1.5)
    f = tmp_path / "emb.json"
    save_embedding(emb, f)
    back = load_embedding(f)
    assert back.kappa == 1.5 and back.n_phys == 2
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
