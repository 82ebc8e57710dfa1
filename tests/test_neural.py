"""Neural blocks: Fourier lifting, forward passes, manual gradients, weights I/O."""

import numpy as np
import pytest

from caransac.neural import (
    ARCHITECTURE,
    BundleGrads,
    ForwardTape,
    LinearLayer,
    Mlp,
    MlpBundle,
    StateStepTape,
    WeightFormatError,
    _apply_activation,
    _apply_activation_inplace,
    backward,
    decode_inliers,
    fourier_lift,
    init_state,
    load_weights,
    save_weights,
    state_transform,
)
from caransac.training import loss_inlier, loss_inlier_grad


def small_bundle(seed=0, scale=0.5) -> MlpBundle:
    """Full-architecture bundle with shrunken weights for well-behaved tests."""
    bundle = MlpBundle.initialize(seed)
    for net in bundle.nets().values():
        for layer in net.layers:
            layer.w *= scale
    return bundle


def forward_loss(bundle, side, a, labels):
    """side -> init -> one state update -> decode -> mean cross-entropy."""
    f = init_state(bundle, side)
    f = state_transform(bundle, f, a)
    probs = decode_inliers(bundle, f)
    return loss_inlier(probs, labels)


def analytic_grads(bundle, side, a, labels) -> BundleGrads:
    tape = ForwardTape()
    f = init_state(bundle, side, tape.init)
    step = StateStepTape(attention=None)
    f = state_transform(bundle, f, a, step)
    probs = decode_inliers(bundle, f, step.decoder)
    tape.steps.append(step)
    return backward(bundle, tape, [loss_inlier_grad(probs, labels)])


class TestFourierLift:
    def test_zero(self):
        v = fourier_lift(0.0)
        assert v.shape == (16,)
        assert np.allclose(v[0::2], 0.0)
        assert np.allclose(v[1::2], 1.0)

    def test_one(self):
        v = fourier_lift(1.0)
        # sin(2^k pi) = 0 for all k; cos alternates with the parity of 2^k
        assert np.abs(v[0::2]).max() < 1e-12
        assert v[1] == pytest.approx(-1.0)  # cos(pi)
        assert np.allclose(v[3::2], 1.0)  # cos(2pi), cos(4pi), ...

    def test_half(self):
        v = fourier_lift(0.5)
        assert v[0] == pytest.approx(1.0)  # sin(pi/2)
        assert v[1] == pytest.approx(0.0, abs=1e-12)  # cos(pi/2)

    def test_vectorized(self):
        x = np.array([0.0, 0.25, 1.0])
        v = fourier_lift(x)
        assert v.shape == (3, 16)
        assert np.allclose(v[0], fourier_lift(0.0))


@pytest.mark.filterwarnings("error")
def test_sigmoid_saturates_without_overflow():
    # exp(-z) overflows below z of about -709.78; clipping -z at 709 changes
    # nothing above -709 and keeps far-negative outputs finite
    z = np.concatenate([np.linspace(-709.0, 40.0, 2001), [-709.5, -800.0, -1e6, -np.inf]])
    out = _apply_activation(z, "sigmoid")
    assert np.array_equal(_apply_activation_inplace(z.copy(), "sigmoid"), out)
    assert np.array_equal(out[:2001], 1.0 / (1.0 + np.exp(-z[:2001])))
    assert np.isfinite(out).all() and (out[2001:] >= 0.0).all() and (out[2001:] < 1e-300).all()


class TestForwardOps:
    def test_identical_side_info_identical_rows(self):
        bundle = small_bundle()
        f = init_state(bundle, np.array([0.3, 0.7, 0.3]))
        assert np.array_equal(f[0], f[2])
        assert not np.array_equal(f[0], f[1])

    def test_zero_weights_zero_state(self):
        bundle = small_bundle()
        for layer in bundle.init_state.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        f = init_state(bundle, np.array([0.1, 0.9]))
        assert np.all(f == 0.0)

    def test_permutation_of_inputs_permutes_rows(self, rng):
        bundle = small_bundle()
        side = rng.uniform(0, 1, 7)
        perm = rng.permutation(7)
        f = init_state(bundle, side)
        assert np.allclose(init_state(bundle, side[perm]), f[perm])
        assert np.allclose(decode_inliers(bundle, f[perm]), decode_inliers(bundle, f)[perm])

    def test_decoder_open_interval(self, rng):
        bundle = small_bundle()
        f = rng.normal(size=(20, 128)) * 100.0
        p = decode_inliers(bundle, f)
        assert (p > 0).all() and (p < 1).all()

    def test_decoder_zero_final_layer_gives_half(self, rng):
        bundle = small_bundle()
        bundle.inlier_decoder.layers[-1].w[...] = 0.0
        bundle.inlier_decoder.layers[-1].b[...] = 0.0
        p = decode_inliers(bundle, rng.normal(size=(5, 128)))
        assert np.allclose(p, 0.5)

    def test_decoder_monotone_in_final_bias(self, rng):
        bundle = small_bundle()
        f = rng.normal(size=(6, 128))
        p0 = decode_inliers(bundle, f)
        bundle.inlier_decoder.layers[-1].b += 0.5
        p1 = decode_inliers(bundle, f)
        assert (p1 > p0).all()

    def test_identical_rows_identical_probabilities(self, rng):
        bundle = small_bundle()
        row = rng.normal(size=128)
        p = decode_inliers(bundle, np.stack([row, row]))
        assert p[0] == p[1]


class TestStateTransform:
    def test_zero_attention_contribution_uniform(self, rng):
        bundle = small_bundle()
        f = rng.normal(size=(4, 128))
        out = state_transform(bundle, f, np.zeros((4, 4)))
        # with A = 0 the gated branch is mlp2(0), identical for every row
        y2 = bundle.mlp2.forward(np.zeros((1, 128)))
        expected = bundle.mlp1.forward(np.concatenate([f, np.repeat(y2, 4, axis=0)], axis=1))
        assert np.allclose(out, expected)

    def test_identity_attention_single_row(self, rng):
        bundle = small_bundle()
        f = rng.normal(size=(1, 128))
        out = state_transform(bundle, f, np.eye(1))
        inner = bundle.mlp2.forward(bundle.mlp3.forward(f))
        expected = bundle.mlp1.forward(np.concatenate([f, inner], axis=1))
        assert np.allclose(out, expected)

    def test_matches_row_loop(self, rng):
        bundle = small_bundle()
        n = 5
        f = rng.normal(size=(n, 128))
        a = rng.uniform(0, 0.3, size=(n, n))
        a = 0.5 * (a + a.T)
        out = state_transform(bundle, f, a)
        # brute-force: per-row MLPs and an explicit double loop for A @ mlp3(F)
        y3 = np.stack([bundle.mlp3.forward(f[i : i + 1])[0] for i in range(n)])
        g = np.zeros_like(y3)
        for i in range(n):
            for k in range(n):
                g[i] += a[i, k] * y3[k]
        y2 = np.stack([bundle.mlp2.forward(g[i : i + 1])[0] for i in range(n)])
        expected = np.stack(
            [
                bundle.mlp1.forward(np.concatenate([f[i], y2[i]])[None, :])[0]
                for i in range(n)
            ]
        )
        assert np.abs(out - expected).max() < 1e-12

    def test_permutation_equivariance(self, rng):
        bundle = small_bundle()
        n = 6
        f = rng.normal(size=(n, 128))
        a = rng.uniform(0, 0.2, size=(n, n))
        a = 0.5 * (a + a.T)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        out_permuted = state_transform(bundle, f[perm], p @ a @ p.T)
        assert np.abs(out_permuted - state_transform(bundle, f, a)[perm]).max() < 1e-12

    def test_duplicate_rows_stay_duplicates(self, rng):
        bundle = small_bundle()
        f = rng.normal(size=(3, 128))
        f[2] = f[0]
        a = rng.uniform(0, 0.3, size=(3, 3))
        a[2, :] = a[0, :]
        a[:, 2] = a[:, 0]
        out = state_transform(bundle, f, a)
        assert np.allclose(out[0], out[2])


class TestBackward:
    def test_gradients_match_finite_differences(self, rng):
        bundle = small_bundle(seed=3)
        n, m = 6, 3
        side = rng.uniform(0.05, 0.95, n)
        s = rng.uniform(0, 1, size=(n, m))
        a = s @ s.T / s.sum()
        labels = rng.integers(0, 2, n).astype(float)

        grads = analytic_grads(bundle, side, a, labels)
        h = 1e-6

        def violation(fd, an):
            # 1e-4 relative with a 1e-8 absolute floor
            return abs(fd - an) / (1e-8 + 1e-4 * max(abs(fd), abs(an)))

        worst = 0.0
        checked = 0
        for name, net in bundle.nets().items():
            for li, layer in enumerate(net.layers):
                # spot-check a deterministic subsample of each layer's weights
                flat_idx = rng.permutation(layer.w.size)[:8]
                for idx in flat_idx:
                    r, c = np.unravel_index(idx, layer.w.shape)
                    orig = layer.w[r, c]
                    layer.w[r, c] = orig + h
                    up = forward_loss(bundle, side, a, labels)
                    layer.w[r, c] = orig - h
                    dn = forward_loss(bundle, side, a, labels)
                    layer.w[r, c] = orig
                    fd = (up - dn) / (2 * h)
                    an = grads.nets[name][li][0][r, c]
                    worst = max(worst, violation(fd, an))
                    checked += 1
                bi = int(rng.integers(0, layer.b.size))
                orig = layer.b[bi]
                layer.b[bi] = orig + h
                up = forward_loss(bundle, side, a, labels)
                layer.b[bi] = orig - h
                dn = forward_loss(bundle, side, a, labels)
                layer.b[bi] = orig
                fd = (up - dn) / (2 * h)
                an = grads.nets[name][li][1][bi]
                worst = max(worst, violation(fd, an))
                checked += 1
        assert checked > 100
        assert worst <= 1.0

    def test_zero_loss_grad_zero_param_grads(self, rng):
        bundle = small_bundle()
        tape = ForwardTape()
        f = init_state(bundle, rng.uniform(0, 1, 4), tape.init)
        step = StateStepTape(attention=None)
        f = state_transform(bundle, f, np.eye(4) * 0.2, step)
        decode_inliers(bundle, f, step.decoder)
        tape.steps.append(step)
        grads = backward(bundle, tape, [np.zeros(4)])
        assert np.all(grads.flat() == 0.0)

    def test_loss_ignoring_attention_branch_leaves_mlp23_untouched(self, rng):
        # a decode of the raw initial state never touches mlp2/mlp3
        bundle = small_bundle()
        tape = ForwardTape()
        f = init_state(bundle, rng.uniform(0, 1, 5), tape.init)
        step = StateStepTape(attention=None)  # update skipped entirely
        probs = decode_inliers(bundle, f, step.decoder)
        tape.steps.append(step)
        labels = np.ones(5)
        grads = backward(bundle, tape, [loss_inlier_grad(probs, labels)])
        for dw, db in grads.nets["mlp2"] + grads.nets["mlp3"]:
            assert np.all(dw == 0.0) and np.all(db == 0.0)
        assert any(np.any(dw != 0.0) for dw, _ in grads.nets["init_state"])

    def test_missing_tape_errors(self):
        bundle = small_bundle()
        with pytest.raises(ValueError):
            backward(bundle, ForwardTape(), [np.zeros(3)])


class TestSerialization:
    def test_round_trip_bit_identical(self, rng):
        bundle = MlpBundle.initialize(7)
        bundle.alpha = 1.2345678901234567
        blob = save_weights(bundle)
        loaded = load_weights(blob)
        assert loaded.alpha == bundle.alpha
        for name, net in bundle.nets().items():
            other = loaded.nets()[name]
            for la, lb in zip(net.layers, other.layers):
                assert np.array_equal(la.w, lb.w)
                assert np.array_equal(la.b, lb.b)
                assert la.activation == lb.activation
        assert save_weights(loaded) == blob

    def test_truncated_file_errors(self):
        blob = save_weights(MlpBundle.initialize(0))
        lines = blob.decode("ascii").splitlines()
        truncated = "\n".join(lines[: len(lines) // 2]).encode("ascii")
        with pytest.raises(WeightFormatError):
            load_weights(truncated)

    def test_swapped_shape_errors_name_layer(self):
        text = save_weights(MlpBundle.initialize(0)).decode("ascii")
        bad = text.replace("layer inlier_decoder.0 leaky_relu 64 128",
                           "layer inlier_decoder.0 leaky_relu 128 64")
        with pytest.raises(WeightFormatError, match="inlier_decoder.0"):
            load_weights(bad.encode("ascii"))

    def test_bad_version_errors(self):
        text = save_weights(MlpBundle.initialize(0)).decode("ascii")
        bad = text.replace("caransac-weights 1", "caransac-weights 99", 1)
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(bad.encode("ascii"))

    def test_architecture_dimensions(self):
        dims = {name: (o, i) for name, o, i, _ in ARCHITECTURE}
        assert dims["init_state.0"] == (128, 16)
        assert dims["init_state.1"] == (128, 128)
        assert dims["inlier_decoder.0"] == (64, 128)
        assert dims["inlier_decoder.1"] == (32, 64)
        assert dims["inlier_decoder.2"] == (1, 32)
        assert dims["mlp1.0"] == (128, 256)
        assert dims["mlp2.0"] == (128, 128)
        assert dims["mlp3.2"] == (128, 128)

    def test_alpha_must_be_positive(self):
        bundle = MlpBundle.initialize(0)
        with pytest.raises(ValueError):
            MlpBundle(
                bundle.init_state,
                bundle.inlier_decoder,
                bundle.mlp1,
                bundle.mlp2,
                bundle.mlp3,
                alpha=0.0,
            )
