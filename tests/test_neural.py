"""Neural blocks: Fourier lifting, forward passes, manual gradients, weights I/O."""

import hashlib

import numpy as np
import pytest

from caransac.neural import (
    ARCHITECTURE,
    LEAKY_SLOPE,
    BundleGrads,
    ForwardTape,
    Mlp,
    PARAM_COUNT,
    MlpBundle,
    StateStepTape,
    WeightFormatError,
    _apply_activation_inplace,
    backward,
    decode_inliers,
    fourier_lift,
    init_state,
    load_weights,
    save_weights,
    state_transform,
)
from caransac.scoring import ConsensusProduct
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
    step = StateStepTape(attention=a)
    f = state_transform(bundle, f, a, step)
    probs = decode_inliers(bundle, f, step.decoder)
    tape.steps.append(step)
    return backward(bundle, tape, [loss_inlier_grad(probs, labels)])


class TestFourierLift:
    def test_zero(self):
        v = fourier_lift(np.array([0.0]))[0]
        assert v.shape == (16,)
        assert np.allclose(v[0::2], 0.0)
        assert np.allclose(v[1::2], 1.0)

    def test_one(self):
        v = fourier_lift(np.array([1.0]))[0]
        # sin(2^k pi) = 0 for all k; cos alternates with the parity of 2^k
        assert np.abs(v[0::2]).max() < 1e-12
        assert v[1] == pytest.approx(-1.0)  # cos(pi)
        assert np.allclose(v[3::2], 1.0)  # cos(2pi), cos(4pi), ...

    def test_half(self):
        v = fourier_lift(np.array([0.5]))[0]
        assert v[0] == pytest.approx(1.0)  # sin(pi/2)
        assert v[1] == pytest.approx(0.0, abs=1e-12)  # cos(pi/2)

    def test_vectorized(self):
        x = np.array([0.0, 0.25, 1.0])
        v = fourier_lift(x)
        assert v.shape == (3, 16)
        assert np.allclose(v[0], fourier_lift(np.array([0.0]))[0])


@pytest.mark.filterwarnings("error")
def test_sigmoid_saturates_without_overflow():
    # exp(-z) overflows below z of about -709.78; clipping -z at 709 changes
    # nothing above -709 and keeps far-negative outputs finite
    z = np.concatenate([np.linspace(-709.0, 40.0, 2001), [-709.5, -800.0, -1e6, -np.inf]])
    out = _apply_activation_inplace(z.copy(), "sigmoid")
    assert np.array_equal(out[:2001], 1.0 / (1.0 + np.exp(-z[:2001])))
    assert np.isfinite(out).all() and (out[2001:] >= 0.0).all() and (out[2001:] < 1e-300).all()

    # float32 exp overflows above about 88.72, so the clip follows the dtype:
    # -z is clipped at 88 there, and the output stays float32 and finite
    z32 = np.concatenate([np.linspace(-88.0, 40.0, 1281), [-88.5, -100.0, -709.5, -1e6, -np.inf]])
    z32 = z32.astype(np.float32)
    out32 = _apply_activation_inplace(z32.copy(), "sigmoid")
    assert out32.dtype == np.float32
    assert np.array_equal(out32[:1281], 1.0 / (1.0 + np.exp(-z32[:1281])))
    assert np.isfinite(out32).all() and (out32[1281:] >= 0.0).all() and (out32[1281:] < 1e-38).all()


# the activations as separate out-of-place expressions, against which the one
# in-place kernel is checked bit for bit
_OUT_OF_PLACE = {
    "leaky_relu": lambda z: np.maximum(z, LEAKY_SLOPE * z),
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0 if z.dtype == np.float64 else 88.0))),
    "none": lambda z: z,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", sorted(_OUT_OF_PLACE))
def test_activation_matches_out_of_place_expression(rng, activation, dtype):
    z = np.concatenate([rng.normal(scale=10.0, size=500), [0.0, -0.0, -1e6, 1e6]]).astype(dtype)
    buffer = z.copy()
    out = _apply_activation_inplace(buffer, activation)
    assert out is buffer  # the pre-activation buffer holds the output
    assert out.dtype == dtype
    assert np.array_equal(out, _OUT_OF_PLACE[activation](z))


class TestPrecision:
    """A bundle's dtype sets the precision of the learned blocks; the decoded
    probabilities are float64 whatever it is."""

    def test_astype_accepts_float32_and_float64_only(self):
        bundle = small_bundle()
        f32 = bundle.astype(np.float32)
        assert f32.dtype == np.float32 and bundle.dtype == np.float64
        for net, net32 in zip(bundle.nets().values(), f32.nets().values()):
            for layer, layer32 in zip(net.layers, net32.layers):
                assert layer32.w.dtype == layer32.b.dtype == np.float32
                assert np.array_equal(layer32.w, layer.w.astype(np.float32))
        assert f32.alpha == bundle.alpha
        assert f32.astype(np.float64).dtype == np.float64
        assert f32.copy().dtype == np.float32
        for dtype in (np.float16, np.longdouble, np.int64, np.complex128):
            if np.dtype(dtype) == np.float64:
                continue  # longdouble is float64 on some platforms
            with pytest.raises(ValueError):
                bundle.astype(dtype)

    def test_float32_bundle_stays_float32(self, rng):
        # no float64 input may promote the state: the side information and
        # the attention's scores arrive as float64
        bundle = small_bundle().astype(np.float32)
        n = 40
        tape = ForwardTape()
        f = init_state(bundle, rng.uniform(0, 1, n), tape.init)
        assert f.dtype == np.float32
        s = rng.uniform(0, 1, size=(n, 7))
        op = ConsensusProduct(s.astype(np.float32), float(s.sum()))
        step = StateStepTape(attention=op)
        f = state_transform(bundle, f, op, step)
        assert f.dtype == np.float32
        probs = decode_inliers(bundle, f, step.decoder)
        assert probs.dtype == np.float64 and probs.shape == (n,)
        for x, y in tape.init + step.mlp3 + step.mlp2 + step.mlp1 + step.decoder:
            assert x.dtype == y.dtype == np.float32

    @pytest.mark.parametrize(
        "bias, raw_value, expect", [(100.0, 1.0, 1.0 - 1e-12), (-200.0, 0.0, 1e-12)]
    )
    def test_saturated_float32_decoder_stays_inside_open_interval(self, rng, bias, raw_value, expect):
        # the float32 sigmoid reaches 1.0 exactly, and 1 - 1e-12 rounds to 1.0
        # in float32, so the clip must run after the cast to float64
        bundle = small_bundle().astype(np.float32)
        last = bundle.inlier_decoder.layers[-1]
        last.w[...] = 0.0
        last.b[...] = bias
        f = init_state(bundle, rng.uniform(0, 1, 10))
        raw = bundle.inlier_decoder.forward(f)[:, 0]
        assert raw.dtype == np.float32
        assert np.allclose(raw, raw_value, rtol=0.0, atol=1e-37)
        probs = decode_inliers(bundle, f)
        assert probs.dtype == np.float64
        assert ((probs > 0.0) & (probs < 1.0)).all()
        assert np.all(probs == expect)

    def test_float32_matches_float64_closely(self, rng):
        bundle = small_bundle()
        side = rng.uniform(0, 1, 50)
        s = rng.uniform(0, 1, size=(50, 9))

        def run(b):
            f = init_state(b, side)
            f = state_transform(b, f, ConsensusProduct(s.astype(b.dtype), float(s.sum())))
            return decode_inliers(b, f)

        assert np.abs(run(bundle) - run(bundle.astype(np.float32))).max() < 1e-5


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
        a = np.eye(4) * 0.2
        step = StateStepTape(attention=a)
        f = state_transform(bundle, f, a, step)
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

    @pytest.mark.parametrize(
        "line, replacement, message",
        [
            ("alpha ", "alpha inf", "alpha"),
            ("alpha ", "alpha abc", "alpha"),
            ("leaky_relu_slope ", "leaky_relu_slope abc", "slope"),
            ("layer inlier_decoder.1 ", None, "layer inlier_decoder.1 row 0"),
            ("bias ", "bias " + " ".join(["0.0"] * 127 + ["abc"]), "layer init_state.0 bias"),
        ],
        ids=["alpha_inf", "alpha_abc", "slope_abc", "weight_abc", "bias_abc"],
    )
    def test_bad_number_names_its_line(self, line, replacement, message):
        lines = save_weights(MlpBundle.initialize(0)).decode("ascii").splitlines()
        i = next(k for k, text in enumerate(lines) if text.startswith(line))
        if replacement is None:  # the first weight row under the header
            i += 1
            replacement = " ".join(["xyz"] + lines[i].split()[1:])
        lines[i] = replacement
        with pytest.raises(WeightFormatError, match=message):
            load_weights("\n".join(lines).encode("ascii"))

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
        with pytest.raises(ValueError):
            MlpBundle(MlpBundle.initialize(0).params, alpha=0.0)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_alpha_must_be_finite(self, alpha):
        bundle = MlpBundle.initialize(0)
        with pytest.raises(ValueError, match="finite"):
            MlpBundle(bundle.params, alpha=alpha)
        # a field set after construction is caught by the copies built from it
        bundle.alpha = alpha
        for copy in (bundle.copy, lambda: bundle.astype(np.float32)):
            with pytest.raises(ValueError, match="finite"):
                copy()

    def test_initial_weights_are_pinned(self):
        # the Xavier draws, their order and the text format together
        digest = hashlib.sha256(save_weights(MlpBundle.initialize(0))).hexdigest()
        assert digest == "a8da5170e780eee784fbeb85584ab6655095768fc80c015dd9669054df0633b1"

    def test_non_finite_weight_is_a_format_error(self):
        lines = save_weights(MlpBundle.initialize(0)).decode("ascii").splitlines()
        i = lines.index(next(t for t in lines if t.startswith("layer mlp2.1 "))) + 1
        lines[i] = " ".join(["nan"] + lines[i].split()[1:])
        with pytest.raises(WeightFormatError, match="finite"):
            load_weights("\n".join(lines).encode("ascii"))


class TestParameterVector:
    """One vector holds every network parameter; layers and gradients view it."""

    @pytest.mark.parametrize(
        "params",
        [
            np.zeros(PARAM_COUNT - 1),
            np.zeros((1, PARAM_COUNT)),
            np.full(PARAM_COUNT, np.nan),
            np.where(np.arange(PARAM_COUNT) == PARAM_COUNT // 2, -np.inf, 0.0),
            np.zeros(PARAM_COUNT, dtype=np.int64),
            np.zeros(PARAM_COUNT, dtype=np.float16),
        ],
        ids=["short", "2d", "nan", "one_inf", "int", "float16"],
    )
    def test_constructor_rejects_bad_params(self, params):
        with pytest.raises(ValueError):
            MlpBundle(params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layers_view_params(self, dtype):
        bundle = MlpBundle.initialize(0).astype(dtype)
        assert bundle.params.shape == (PARAM_COUNT,) and bundle.dtype == dtype
        bundle.params[:3] = [1.0, 2.0, 3.0]
        assert np.array_equal(bundle.init_state.layers[0].w[0, :3], [1.0, 2.0, 3.0])
        bundle.params[...] = np.arange(PARAM_COUNT)
        # ARCHITECTURE order, each layer's weights row-major, then its bias
        start = 0
        for name, n_out, n_in, act in ARCHITECTURE:
            net, idx = name.split(".")
            layer = bundle.nets()[net].layers[int(idx)]
            assert layer.activation == act and layer.w.dtype == layer.b.dtype == dtype
            assert np.shares_memory(layer.w, bundle.params) and np.shares_memory(layer.b, bundle.params)
            assert np.array_equal(layer.w.ravel(), np.arange(start, start + n_out * n_in))
            start += n_out * n_in
            assert np.array_equal(layer.b, np.arange(start, start + n_out))
            start += n_out
        assert start == PARAM_COUNT
        bundle.params[:] = 0.0
        assert not bundle.mlp1.layers[0].w.any()

    def test_copies_share_no_memory(self):
        bundle = MlpBundle.initialize(0)
        for copy in (bundle.copy(), bundle.astype(np.float64), bundle.astype(np.float32)):
            assert not np.shares_memory(copy.params, bundle.params)
            for net, net_copy in zip(bundle.nets().values(), copy.nets().values()):
                for layer, layer_copy in zip(net.layers, net_copy.layers):
                    assert not np.shares_memory(layer_copy.w, bundle.params)
                    assert np.shares_memory(layer_copy.w, copy.params)

    def test_gradient_views_write_into_vec(self):
        nets = MlpBundle.initialize(0).nets()
        vec = np.zeros(PARAM_COUNT)
        grads = BundleGrads(vec, alpha=0.5)
        for name, pairs in grads.nets.items():
            assert len(pairs) == len(nets[name].layers)
            for dw, db in pairs:
                dw += 1.0
                db += 2.0
        weights = sum(o * i for _, o, i, _ in ARCHITECTURE)
        assert (vec == 1.0).sum() == weights and (vec == 2.0).sum() == PARAM_COUNT - weights
        assert np.array_equal(grads.flat(), np.append(vec, 0.5))
