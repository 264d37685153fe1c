"""Spline-edge networks: forward oracle, exact gradients, serialization."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kanbench import kan as kan_module
from kanbench.bench import build_model, load_matrix, prepare
from kanbench.bspline import SplineSpec, basis_grad_matrix, basis_matrix
from kanbench.forecast import iterative_forecast_batch
from kanbench.kan import (
    KanLayer,
    KanNetwork,
    from_json_dict,
    kan_backward,
    kan_forward_batch,
    kan_init,
    to_json_dict,
)
from kanbench.numcore import make_rng, sigmoid, silu, silu_grad
from kanbench.optim import TrainConfig, train


def small_net(dims=(4, 3, 1), seed=0, spec=SplineSpec(5, 3)):
    return kan_init(list(dims), spec, make_rng(seed))


def headline_fit_features():
    """The network, encoded training features and targets of the first
    headline KAN config, as its fit builds them from the pipeline's windows."""
    headline = Path(__file__).resolve().parent.parent / "configs" / "headline.json"
    config = next(c for c in load_matrix(headline) if c.model == "kan")
    prepared = prepare(config)
    net = build_model(config, prepared.scaled.shape[1], make_rng(config.seed))
    return net, net.encode(prepared.train.inputs), prepared.train.targets


class TestInit:
    def test_shapes(self):
        net = small_net()
        assert net.dims == [4, 3, 1]
        l0, l1 = net.layers
        assert l0.coef.shape == (3, 4, 8) and l0.base.shape == (3, 4)
        assert l1.coef.shape == (1, 3, 8) and l1.base.shape == (1, 3)
        assert net.n_params == 3 * 4 * 8 + 3 * 4 + 1 * 3 * 8 + 1 * 3

    def test_init_statistics(self):
        net = kan_init([50, 40, 1], SplineSpec(5, 3), make_rng(1))
        coef = net.layers[0].coef
        assert abs(coef.std() - 0.1) < 0.01
        base = net.layers[0].base
        assert abs(base.std() - 1.0 / np.sqrt(50)) < 0.02

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            kan_init([4], SplineSpec(3, 2), make_rng(0))
        with pytest.raises(ValueError):
            kan_init([4, 0, 1], SplineSpec(3, 2), make_rng(0))

    def test_final_layer_must_be_scalar(self):
        net = small_net()
        with pytest.raises(ValueError, match="single output"):
            KanNetwork(net.layers[:1])  # ends with out_dim=3

    def test_layer_dims_must_chain(self):
        a, b = small_net().layers
        bad = KanLayer(5, 1, b.spec, np.zeros((1, 5, b.spec.n_basis)), np.zeros((1, 5)))
        with pytest.raises(ValueError, match="chain"):
            KanNetwork([a, bad])


class TestForwardOracle:
    def test_single_edge_is_base_silu_plus_spline(self):
        # [1,1] network: output = base*silu(x) + spline(x), recomputed from parts
        spec = SplineSpec(4, 2)
        rng = make_rng(5)
        coef = rng.normal(size=(1, 1, spec.n_basis))
        base = np.array([[0.7]])
        net = KanNetwork([KanLayer(1, 1, spec, coef, base)])
        x = np.array([0.0, 0.2, 0.55, 0.9, 1.0])
        expected = 0.7 * silu(x) + basis_matrix(spec, x) @ coef[0, 0]
        got = kan_forward_batch(net, *net.encode(x[:, None]))
        assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_node_sums_incoming_edges(self):
        # [2,1]: output equals the sum of the two single-edge sub-networks
        spec = SplineSpec(3, 2)
        rng = make_rng(9)
        coef = rng.normal(size=(1, 2, spec.n_basis))
        base = rng.normal(size=(1, 2))
        net = KanNetwork([KanLayer(2, 1, spec, coef, base)])
        x = np.array([0.3, 0.8])
        parts = []
        for i in range(2):
            sub = KanNetwork([KanLayer(1, 1, spec, coef[:, i : i + 1], base[:, i : i + 1])])
            parts.append(kan_forward_batch(sub, *sub.encode(x[None, i : i + 1]))[0])
        whole = kan_forward_batch(net, *net.encode(x[None]))[0]
        assert whole == pytest.approx(sum(parts), abs=1e-12)

    def test_batch_matches_scalar(self):
        # rows are independent: B rows at once equal each row with B=1
        net = small_net()
        x = make_rng(2).uniform(-0.2, 1.2, size=(9, 4))
        batch = kan_forward_batch(net, *net.encode(x))
        singles = [kan_forward_batch(net, *net.encode(row[None]))[0] for row in x]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_input_validation(self):
        net = small_net()
        with pytest.raises(ValueError):
            kan_forward_batch(net, *net.encode(np.full((1, 2), 0.1)))  # wrong width
        with pytest.raises(ValueError):
            kan_forward_batch(net, *net.encode(np.full((2, 4), np.nan)))


class TestEncode:
    def net(self):
        return kan_init([4 * 3, 5, 1], SplineSpec(4, 3), make_rng(30))

    def test_windows_encode_row_by_row(self):
        net = self.net()
        windows = make_rng(31).uniform(-0.2, 1.2, size=(7, 4, 3))
        silu_x, basis = net.encode(windows)
        assert silu_x.shape == (7, 4, 3) and basis.shape == (7, 4, 3 * 7)
        rows = [net.encode(windows[:, t : t + 1]) for t in range(4)]
        assert np.array_equal(silu_x, np.concatenate([r[0] for r in rows], axis=1))
        assert np.array_equal(basis, np.concatenate([r[1] for r in rows], axis=1))

    def test_encoded_input_gives_raw_results_exactly(self):
        net = self.net()
        windows = make_rng(32).uniform(-0.2, 1.2, size=(7, 4, 3))
        y = make_rng(33).normal(size=7)
        encoded = net.encode(windows)
        want = net.predict_window_batch(windows)
        assert np.array_equal(net.predict_window_batch(encoded), want)
        assert np.array_equal(net.predict_window_batch(windows.reshape(7, 12)), want)
        loss_e, grad_e = net.batch_loss_and_grad(encoded, y)
        loss_r, grad_r = net.batch_loss_and_grad(windows, y)
        assert loss_e == loss_r and np.array_equal(grad_e, grad_r)
        # rows picked from the encoded arrays, as Adam's minibatches are
        idx = np.array([5, 0, 3])
        picked = tuple(a[idx] for a in encoded)
        assert np.array_equal(net.predict_window_batch(picked),
                              net.predict_window_batch(windows[idx]))

    def test_bad_input_rejected_before_any_computation(self, monkeypatch):
        net = self.net()
        windows = make_rng(34).uniform(0.0, 1.0, size=(2, 4, 3))
        silu_x, basis = net.encode(windows)
        y = np.zeros(2)

        def computed(*args, **kwargs):
            raise AssertionError("computation started on rejected input")

        # basis_matrix checks its input before computing; silu and the
        # layer contractions must never run
        for name in ("silu", "_forward"):
            monkeypatch.setattr(kan_module, name, computed)
        nan_silu, inf_basis = silu_x.copy(), basis.copy()
        nan_silu[1, 2, 0] = np.nan
        inf_basis[0, 3, 5] = np.inf
        bad_pairs = [
            (silu_x, basis[..., :-1]),  # basis width not in_dim·n_basis
            (silu_x, basis.reshape(2, -1)),  # basis rows not shaped like silu rows
            (silu_x[:1], basis),  # batch sizes disagree
            (silu_x[:, :3], basis[:, :3]),  # 9 inputs for a 12-input layer
            (nan_silu, basis),
            (silu_x, inf_basis),
        ]
        for pair in bad_pairs:
            for call in (lambda: kan_forward_batch(net, *pair),
                         lambda: kan_backward(net, *pair, y),
                         lambda: net.predict_window_batch(pair),
                         lambda: net.batch_loss_and_grad(pair, y)):
                with pytest.raises(ValueError):
                    call()
        bad_raw = [np.full((2, 5), 0.1), np.full((2, 2, 3), 0.1), np.full((2, 4, 3), np.nan),
                   np.full(12, 0.1)]
        for raw in bad_raw:
            with pytest.raises(ValueError):
                net.predict_window_batch(raw)
            with pytest.raises(ValueError):
                net.batch_loss_and_grad(raw, y)
        for wrong_arity in [(silu_x,), (silu_x, basis, basis)]:
            with pytest.raises(ValueError, match="pair"):
                net.predict_window_batch(wrong_arity)


    def test_encode_peaks_at_its_features(self):
        # one fit's training windows at the headline shape: the basis is
        # evaluated block by block into the result and silu in the
        # sigmoid's buffer, so little is held besides the two outputs
        net = kan_init([20 * 6, 8, 1], SplineSpec(3, 2), make_rng(38))
        windows = make_rng(39).uniform(-0.1, 1.1, size=(984, 20, 6))
        tracemalloc.start()
        try:
            silu_x, basis = net.encode(windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (silu_x.nbytes + basis.nbytes)

    def test_encode_is_row_major_whatever_the_window_layout(self):
        net = small_net(dims=(12, 3, 1))
        windows = make_rng(42).uniform(size=(5, 4, 3))
        want = net.encode(windows)
        # column-major, and each window's (F, L) block transposed, as the
        # windows of a column-major series are
        for laid_out in (np.asfortranarray(windows),
                         np.ascontiguousarray(windows.transpose(0, 2, 1)).transpose(0, 2, 1)):
            got = net.encode(laid_out)
            for a, b in zip(got, want):
                assert a.flags.c_contiguous
                assert np.array_equal(a, b)

    def test_fit_reads_its_encoded_features_in_place(self):
        # each L-BFGS evaluation reshapes the encoded pair to rows: views,
        # not a 0.94 MB copy of the silu features per evaluation
        net, (silu_x, basis), _ = headline_fit_features()
        rows = kan_module._check_features(net, silu_x, basis, trusted=True)
        assert np.shares_memory(rows[0], silu_x) and np.shares_memory(rows[1], basis)

    def test_backward_peaks_at_a_few_hidden_bases(self):
        # a full-batch loss+grad on the first headline fit's features: each
        # layer's basis and silu go once its gradient is formed, and w·dphi
        # goes into w, so besides its input the call holds about two
        # hidden-layer bases (about 5.5 with a copy of the silu features)
        net, (silu_x, basis), y = headline_fit_features()
        assert silu_x.shape == (984, 20, 6)
        kan_backward(net, silu_x, basis, y)
        tracemalloc.start()
        try:
            kan_backward(net, silu_x, basis, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (984 * 8 * 5 * 8)

    def test_encoded_features_are_scanned_once(self, monkeypatch):
        # encode rejects non-finite input itself; training (both optimizers),
        # a rollout and a raw-window prediction never scan its features again
        net = self.net()
        scans = []
        scan = kan_module.check_finite
        monkeypatch.setattr(kan_module, "check_finite",
                            lambda what, *arrays: scans.append(what) or scan(what, *arrays))
        x = make_rng(35).uniform(0.0, 1.0, size=(40, 4, 3))
        y = make_rng(36).uniform(0.0, 1.0, size=40)
        for optimizer in ("lbfgs", "adam"):
            train(net, x, y, TrainConfig(optimizer=optimizer, max_epochs=2, batch_size=16))
        iterative_forecast_batch(net, x[:5], [7, 7, 3, 2, 1], close_col=0)
        net.predict_window_batch(x)
        assert scans == []
        # a hand-built pair is scanned, and so are rows selected from one
        pair = tuple(net.encode(x[:4]))
        net.predict_window_batch(pair)
        net.predict_window_batch(type(pair)(a[[3, 1]] for a in pair))
        assert scans == ["encoded inputs"] * 2

    def test_rows_of_a_bad_hand_built_pair_rejected_before_any_computation(self, monkeypatch):
        net = self.net()
        silu_x, basis = net.encode(make_rng(37).uniform(0.0, 1.0, size=(4, 4, 3)))
        silu_x = silu_x.copy()
        silu_x[2, 1, 0] = np.nan
        pair = (silu_x, basis)

        def computed(*args, **kwargs):
            raise AssertionError("computation started on rejected input")

        monkeypatch.setattr(kan_module, "_forward", computed)
        for features in (pair, type(pair)(a[[2, 0]] for a in pair),
                         type(pair)(a[1:3] for a in pair)):
            with pytest.raises(ValueError, match="finite"):
                net.predict_window_batch(features)
            with pytest.raises(ValueError, match="finite"):
                net.batch_loss_and_grad(features, np.zeros(len(features[0])))


class TestGradients:
    @pytest.mark.parametrize("dims", [(3, 1), (4, 3, 1), (2, 5, 2, 1)])
    def test_matches_central_difference(self, dims):
        net = small_net(dims, seed=sum(dims))
        rng = make_rng(17)
        x = rng.uniform(0.05, 0.95, size=(5, dims[0]))
        y = rng.normal(size=5)
        _, g = kan_backward(net, *net.encode(x), y)
        flat = net.pack()
        h = 1e-5
        for i in range(0, flat.size, max(1, flat.size // 60)):  # spot-check coords
            fp = flat.copy(); fp[i] += h
            net.unpack(fp)
            lp, _ = kan_backward(net, *net.encode(x), y)
            fm = flat.copy(); fm[i] -= h
            net.unpack(fm)
            lm, _ = kan_backward(net, *net.encode(x), y)
            num = (lp - lm) / (2 * h)
            assert g[i] == pytest.approx(num, rel=1e-4, abs=1e-8)
        net.unpack(flat)

    def test_loss_is_mse(self):
        net = small_net()
        x = make_rng(3).uniform(0, 1, size=(6, 4))
        y = make_rng(4).normal(size=6)
        loss, _ = kan_backward(net, *net.encode(x), y)
        preds = kan_forward_batch(net, *net.encode(x))
        assert loss == pytest.approx(float(np.mean((preds - y) ** 2)), abs=1e-14)

    def test_zero_residual_zero_gradient(self):
        net = small_net()
        x = make_rng(6).uniform(0, 1, size=(4, 4))
        y = kan_forward_batch(net, *net.encode(x))
        loss, grads = kan_backward(net, *net.encode(x), y)
        assert loss == pytest.approx(0.0, abs=1e-28)
        assert np.allclose(grads, 0.0, atol=1e-14)

    def test_batch_loss_and_grad_packs_flat(self):
        net = small_net()
        x = make_rng(8).uniform(0, 1, size=(3, 4))
        y = np.zeros(3)
        loss, flat = net.batch_loss_and_grad(x, y)
        assert flat.shape == (net.n_params,)
        assert np.isfinite(loss)
        # (B, L, F) windows train exactly as their row-major (B, L*F) flattening
        windows = x.reshape(3, 2, 2)
        loss_w, flat_w = net.batch_loss_and_grad(windows, y)
        assert loss_w == loss and np.array_equal(flat_w, flat)
        assert np.array_equal(net.predict_window_batch(windows),
                              kan_forward_batch(net, *net.encode(x)))


def einsum_forward_backward(net, x, y):
    """Predictions, loss and flat gradient with every (o, i, p) contraction
    written as an explicit einsum. Oracle for the kernel's reshaped matmuls."""
    acts, phis = [x], []
    for l in net.layers:
        a = acts[-1]
        phi = basis_matrix(l.spec, a.reshape(-1)).reshape(a.shape[0], l.in_dim, l.spec.n_basis)
        acts.append(silu(a) @ l.base.T + np.einsum("bip,oip->bo", phi, l.coef))
        phis.append(phi)
    resid = acts[-1][:, 0] - y
    delta = (2.0 / x.shape[0]) * resid[:, None]
    grads = []
    for li in reversed(range(len(net.layers))):
        l, a = net.layers[li], acts[li]
        grads = [np.einsum("bo,bip->oip", delta, phis[li]), delta.T @ silu(a)] + grads
        dphi = basis_grad_matrix(l.spec, a.reshape(-1)).reshape(phis[li].shape)
        w = np.einsum("bo,oip->bip", delta, l.coef)
        delta = (delta @ l.base) * silu_grad(a, sigmoid(a)) + np.einsum("bip,bip->bi", w, dphi)
    flat = np.concatenate([g.ravel() for g in grads])
    return acts[-1][:, 0], float(np.mean(resid**2)), flat


class TestContractions:
    def test_forward_and_gradient_equal_einsum_oracle(self):
        # unequal widths and a non-square grid pin the (o, i, p) reshape order
        net = kan_init([6, 3, 1], SplineSpec(4, 3), make_rng(13))
        rng = make_rng(14)
        x = rng.uniform(-0.2, 1.2, size=(11, 6))
        y = rng.normal(size=11)
        preds, loss, flat = einsum_forward_backward(net, x, y)
        got = kan_forward_batch(net, *net.encode(x))
        np.testing.assert_allclose(got, preds, rtol=0, atol=1e-12)
        got_loss, got_flat = kan_backward(net, *net.encode(x), y)
        assert got_loss == pytest.approx(loss, rel=0, abs=1e-12)
        assert got_flat.shape == (net.n_params,)
        np.testing.assert_allclose(got_flat, flat, rtol=0, atol=1e-12)


class TestPackUnpack:
    def test_round_trip(self):
        net = small_net()
        flat = net.pack()
        other = small_net(seed=99)
        other.unpack(flat)
        assert np.array_equal(other.pack(), flat)
        x = make_rng(1).uniform(0, 1, size=(3, 4))
        assert np.allclose(kan_forward_batch(net, *net.encode(x)),
                           kan_forward_batch(other, *other.encode(x)))

    def test_wrong_length_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.unpack(np.zeros(net.n_params + 1))


class TestSerialization:
    def test_json_round_trip_exact(self):
        net = small_net((3, 2, 1), seed=21)
        loaded = from_json_dict(json.loads(json.dumps(to_json_dict(net))))
        assert loaded.dims == net.dims
        assert np.array_equal(loaded.pack(), net.pack())
        assert loaded.layers[0].spec == net.layers[0].spec

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            from_json_dict({"kind": "lstm"})

    def test_layer_count_must_match_dims(self):
        d = to_json_dict(small_net((4, 1), seed=5))
        d["dims"] = [4, 1, 1]  # one layer entry for two layers' worth of dims
        with pytest.raises(ValueError, match="layers"):
            from_json_dict(d)

    @pytest.mark.parametrize("field,value", [("grid_size", 3.0), ("degree", 2.5), ("grid_size", True)])
    def test_non_integer_spline_size_rejected(self, field, value):
        d = to_json_dict(small_net((2, 1), seed=4))
        d["spec"][field] = value
        with pytest.raises(ValueError, match=field):
            from_json_dict(d)

    @pytest.mark.parametrize("field,change", [
        ("kind", lambda d: d.pop("kind")),
        ("spec", lambda d: d.pop("spec")),
        ("degree", lambda d: d["spec"].pop("degree")),
        ("grid_size", lambda d: d["spec"].pop("grid_size")),
        ("domain_hi", lambda d: d["spec"].update(domain_hi="1")),
        ("dims", lambda d: d.pop("dims")),
        ("dims", lambda d: d.update(dims=[3, 0, 1])),
        ("layers", lambda d: d.pop("layers")),
        ("coef", lambda d: d["layers"][0]["coef"].pop()),
        ("coef", lambda d: d["layers"][1].pop("coef")),
        ("base", lambda d: d["layers"][0].update(base=[1.0, "x", 2.0])),
        ("base", lambda d: d["layers"][1]["base"].append(0.5)),
        # np.array would read either as a number
        ("coef", lambda d: d["layers"][0]["coef"].__setitem__(0, "0.12")),
        ("base", lambda d: d["layers"][1]["base"].__setitem__(0, True)),
    ], ids=[
        "no-kind", "no-spec", "no-degree", "no-grid_size", "text-domain_hi", "no-dims",
        "zero-dim", "no-layers", "short-coef", "no-coef", "text-base", "long-base",
        "quoted-coef", "bool-base",
    ])
    def test_malformed_checkpoint_names_field(self, field, change):
        d = to_json_dict(small_net((3, 2, 1), seed=6))
        change(d)
        with pytest.raises(ValueError, match=field):
            from_json_dict(d)

    def test_dict_round_trip(self):
        net = small_net((2, 1), seed=33)
        clone = from_json_dict(to_json_dict(net))
        assert np.array_equal(clone.pack(), net.pack())
