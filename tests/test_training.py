"""Training: losses, synthetic-data statistics, and learning smoke checks."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from caransac.geometry import (
    ESSENTIAL,
    FUNDAMENTAL,
    ModelHypothesis,
    PoseUndecidable,
    fundamental_from_pose,
    homogenize,
    sampson_sq_arrays,
)
from caransac.evaluation import FAILURE_ERROR_DEG
from caransac.neural import ARCHITECTURE, BundleGrads, MlpBundle
from caransac.training import (
    EPSILON,
    GRAD_CLIP,
    MOMENTUM,
    POSE_CLAMP_DEG,
    POSE_WEIGHT,
    PairSpec,
    TrainConfig,
    aggregate_loss,
    batch_weights,
    clamped_pose_error,
    evaluate_loss,
    generate_synthetic,
    loss_inlier,
    loss_inlier_grad,
    model_pose_error,
    pair_forward,
    pair_gradients,
    pair_labels,
    recover_pose,
    train,
    _Momentum,
    _alpha_gradient,
)


def relabel(pair, label_px=1.0):
    """The pair with its labels recomputed from the squared-Sampson rule."""
    m = pair.matches
    f_gt = fundamental_from_pose(pair.pose, pair.k1, pair.k2)
    labels = sampson_sq_arrays(f_gt.m, homogenize(m.p1), homogenize(m.p2)) < label_px**2
    return replace(pair, matches=replace(m, labels=labels))


class TestLossInlier:
    def test_uniform_half_is_log_two(self):
        probs = np.full(10, 0.5)
        labels = np.array([1, 0] * 5, dtype=float)
        assert loss_inlier(probs, labels) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_predictions_vanish(self):
        labels = np.array([1.0, 0.0, 1.0])
        probs = np.array([1 - 1e-12, 1e-12, 1 - 1e-12])
        assert loss_inlier(probs, labels) < 1e-10

    def test_two_point_example(self):
        value = loss_inlier(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2, abs=1e-12)
        assert value == pytest.approx(0.1643, abs=1e-4)

    def test_gradient_matches_finite_differences(self, rng):
        probs = rng.uniform(0.05, 0.95, 12)
        labels = rng.integers(0, 2, 12).astype(float)
        grad = loss_inlier_grad(probs, labels)
        h = 1e-7
        for i in range(12):
            up = probs.copy()
            up[i] += h
            dn = probs.copy()
            dn[i] -= h
            fd = (loss_inlier(up, labels) - loss_inlier(dn, labels)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(20):
            probs = rng.uniform(1e-6, 1 - 1e-6, 30)
            labels = rng.integers(0, 2, 30).astype(float)
            assert loss_inlier(probs, labels) >= 0.0


class TestLossPose:
    def test_perfect_estimate(self):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=1.0, noise_sigma_px=0.0, seed=1))
        model = fundamental_from_pose(pair.pose, pair.k1, pair.k2)
        assert clamped_pose_error(model, pair, POSE_CLAMP_DEG) < 1e-5

    def test_clamped_at_thirty(self):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=1.0, noise_sigma_px=0.0, seed=2))
        from caransac.geometry import RelativePose, rodrigues

        bad_pose = RelativePose(
            rodrigues(np.array([0.0, math.radians(45.0), 0.0])) @ pair.pose.rotation,
            pair.pose.translation,
        )
        model = fundamental_from_pose(bad_pose, pair.k1, pair.k2)
        assert clamped_pose_error(model, pair, POSE_CLAMP_DEG) == pytest.approx(30.0)

    def test_intermediate_error_passes_through(self):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=1.0, noise_sigma_px=0.0, seed=3))
        from caransac.geometry import RelativePose, rodrigues

        tilted = RelativePose(
            rodrigues(np.array([0.0, 0.0, math.radians(10.0)])) @ pair.pose.rotation,
            pair.pose.translation,
        )
        model = fundamental_from_pose(tilted, pair.k1, pair.k2)
        assert clamped_pose_error(model, pair, POSE_CLAMP_DEG) == pytest.approx(10.0, abs=1e-3)

    @pytest.mark.parametrize("clamp, expected", [(POSE_CLAMP_DEG, 30.0), (FAILURE_ERROR_DEG, 180.0)])
    def test_zero_model_clamps(self, clamp, expected):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=1.0, noise_sigma_px=0.0, seed=4))
        assert clamped_pose_error(ModelHypothesis.zero(FUNDAMENTAL), pair, clamp) == expected

    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    def test_zero_model_has_no_pose(self, kind):
        # refused first, before the fundamental kind's calibrated upgrade
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=1.0, noise_sigma_px=0.0, seed=4))
        with pytest.raises(PoseUndecidable, match="zero model"):
            recover_pose(ModelHypothesis.zero(kind), pair.matches, pair.k1, pair.k2)


class TestAggregateLoss:
    def test_four_batch_weights(self):
        assert EPSILON == 0.1
        assert np.allclose(batch_weights(4), [0.729, 0.81, 0.9, 1.0])

    def test_two_batches_weighted_by_the_constants(self):
        losses = [(1.0, 6.0), (2.0, 12.0)]
        expected = (1.0 - EPSILON) * (1.0 + POSE_WEIGHT * 6.0) + (2.0 + POSE_WEIGHT * 12.0)
        assert aggregate_loss(losses) == pytest.approx(expected, rel=1e-12)

    def test_single_batch(self):
        assert POSE_WEIGHT == 1.0 / 60.0
        value = aggregate_loss([(0.4, 6.0)])
        assert type(value) is float
        assert value == pytest.approx(0.4 + 0.1)

    def test_no_batches_rejected(self):
        with pytest.raises(ValueError, match="at least one batch"):
            aggregate_loss([])

    def test_monotone_in_components(self, rng):
        base = [(0.5, 10.0), (0.4, 5.0), (0.3, 2.0)]
        value = aggregate_loss(base)
        for q in range(3):
            for comp in range(2):
                bumped = [list(x) for x in base]
                bumped[q][comp] += 0.1
                assert aggregate_loss([tuple(x) for x in bumped]) > value


class TestSettings:
    def test_train_config_eight_settings(self):
        names = {f.name for f in dataclasses.fields(TrainConfig)}
        assert names == {
            "epochs", "learning_rate", "seed", "model_kind", "batches", "batch_size",
            "pairs_per_update", "consensus_update",
        }

    @pytest.mark.parametrize(
        "removed",
        ["epsilon", "pose_weight", "pose_clamp_deg", "momentum", "grad_clip", "val_fraction",
         "freeze_mlps", "alpha_fd_step"],
    )
    def test_train_config_removed_settings_rejected(self, removed):
        with pytest.raises(TypeError):
            TrainConfig(**{removed: None})

    @pytest.mark.parametrize("bad", [0, -1])
    def test_pairs_per_update_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="pairs_per_update"):
            TrainConfig(pairs_per_update=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_epochs_must_be_positive(self, bad):
        # zero epochs used to return the untrained bundle
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=bad)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_pair_spec_noise_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="noise"):
            PairSpec(noise_sigma_px=bad)

    @pytest.mark.parametrize("bad", [-1.0, 3.0, float("nan")])
    def test_pair_spec_overlap_must_be_in_unit_interval(self, bad):
        with pytest.raises(ValueError, match="side_info_overlap"):
            PairSpec(side_info_overlap=bad)

    def test_pair_spec_five_settings(self):
        names = {f.name for f in dataclasses.fields(PairSpec)}
        assert names == {"n", "inlier_rate", "noise_sigma_px", "side_info_overlap", "seed"}

    @pytest.mark.parametrize("removed", ["width", "height", "inlier_label_px"])
    def test_pair_spec_removed_settings_rejected(self, removed):
        with pytest.raises(TypeError):
            PairSpec(**{removed: None})


class TestGenerateSynthetic:
    def test_noise_free_all_inliers(self):
        pair = generate_synthetic(PairSpec(n=50, inlier_rate=1.0, noise_sigma_px=0.0, seed=5))
        labels = pair_labels(pair)
        assert labels.all()
        f = fundamental_from_pose(pair.pose, pair.k1, pair.k2)
        p1, p2 = pair.matches.p1, pair.matches.p2
        assert sampson_sq_arrays(f.m, homogenize(p1), homogenize(p2)).max() < 1e-18

    def test_label_fraction_near_rate(self):
        pair = generate_synthetic(PairSpec(n=1000, inlier_rate=0.2, noise_sigma_px=0.5, seed=6))
        frac = pair_labels(pair).mean()
        assert 0.15 <= frac <= 0.25

    def test_zero_overlap_side_info_separates(self):
        pair = generate_synthetic(
            PairSpec(n=300, inlier_rate=0.5, noise_sigma_px=0.0, side_info_overlap=0.0, seed=7)
        )
        labels = pair_labels(pair)
        side = pair.matches.side
        assert side[labels].max() < 0.5 + 1e-12
        assert side[~labels].min() > 0.5 - 1e-12

    def test_relabel_idempotent(self):
        pair = generate_synthetic(PairSpec(n=200, inlier_rate=0.4, noise_sigma_px=1.0, seed=8))
        once = relabel(pair)
        twice = relabel(once)
        assert pair_labels(once).tolist() == pair_labels(twice).tolist()
        assert pair_labels(once).tolist() == pair_labels(pair).tolist()

    def test_deterministic_given_seed(self):
        a = generate_synthetic(PairSpec(n=100, inlier_rate=0.5, noise_sigma_px=0.5, seed=9))
        b = generate_synthetic(PairSpec(n=100, inlier_rate=0.5, noise_sigma_px=0.5, seed=9))
        pa, pb = a.matches.p1, b.matches.p1
        assert np.array_equal(pa, pb)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PairSpec(n=100, inlier_rate=0.0)
        with pytest.raises(ValueError):
            PairSpec(n=100, noise_sigma_px=-1.0)
        with pytest.raises(ValueError):
            PairSpec(n=4)


@pytest.fixture(scope="module")
def tiny_dataset():
    rng = np.random.default_rng(42)
    pairs = []
    for i in range(14):
        rate = float(rng.choice([0.4, 0.6, 0.8]))
        pairs.append(
            generate_synthetic(
                PairSpec(n=120, inlier_rate=rate, noise_sigma_px=0.5, side_info_overlap=0.6, seed=300 + i)
            )
        )
    return pairs


class TestPrecisionPolicy:
    """Training runs in float64; a float32 bundle is for inference only."""

    def test_pair_gradients_rejects_float32(self, tiny_dataset):
        cfg = TrainConfig(batches=1, batch_size=32)
        with pytest.raises(ValueError, match="float64"):
            pair_gradients(MlpBundle.initialize(0).astype(np.float32), tiny_dataset[0], cfg, 0)

    def test_train_rejects_float32_initial(self, tiny_dataset):
        cfg = TrainConfig(epochs=1, batches=1, batch_size=32)
        with pytest.raises(ValueError, match="float64"):
            train(tiny_dataset[:2], cfg, initial=MlpBundle.initialize(0).astype(np.float32))


def _split(vec):
    """Per-layer [w, b] copies of a flat parameter or gradient vector."""
    layers, end = [], 0
    for _, n_out, n_in, _ in ARCHITECTURE:
        start, mid, end = end, end + n_out * n_in, end + n_out * (n_in + 1)
        layers.append([vec[start:mid].reshape(n_out, n_in).copy(), vec[mid:end].copy()])
    return layers


def reference_momentum_step(layers, vel, alpha, vel_alpha, grads, grad_alpha, lr):
    """The per-layer momentum-and-clip loop: clip the network gradients by
    their joint norm (alpha entered as 0), clip alpha's on its own, then
    update each layer's velocity and parameters in place."""
    norm = float(np.linalg.norm(np.concatenate([g.ravel() for pair in grads for g in pair] + [np.array([0.0])])))
    if norm > GRAD_CLIP:
        for dw, db in grads:
            dw *= GRAD_CLIP / norm
            db *= GRAD_CLIP / norm
    grad_alpha = float(np.clip(grad_alpha, -GRAD_CLIP, GRAD_CLIP))
    for (w, b), (dw, db), v in zip(layers, grads, vel):
        v[0][...] = MOMENTUM * v[0] - lr * dw
        v[1][...] = MOMENTUM * v[1] - lr * db
        w += v[0]
        b += v[1]
    vel_alpha = MOMENTUM * vel_alpha - lr * grad_alpha
    return max(alpha + vel_alpha, 1e-3), vel_alpha


def test_momentum_step_matches_per_layer_reference():
    bundle = MlpBundle.initialize(3)
    layers = _split(bundle.params)
    vel = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]
    alpha, vel_alpha = bundle.alpha, 0.0
    optimizer = _Momentum(bundle)
    rng = np.random.default_rng(11)
    norms = []
    # clipped, unclipped, clipped; alpha's gradient clipped in the first and last
    for scale, grad_alpha, lr in ((40.0, 3.0, 0.05), (0.3, -0.2, 0.05), (5.0, -7.5, 0.02)):
        vec = rng.normal(size=bundle.params.size)
        vec *= scale / np.linalg.norm(vec)
        norms.append(float(np.linalg.norm(vec)))
        alpha, vel_alpha = reference_momentum_step(
            layers, vel, alpha, vel_alpha, _split(vec), grad_alpha, lr
        )
        optimizer.step(bundle, BundleGrads(vec.copy(), grad_alpha), lr)
        assert np.array_equal(bundle.params, np.concatenate([a.ravel() for pair in layers for a in pair]))
        assert np.array_equal(optimizer.vel, np.concatenate([a.ravel() for pair in vel for a in pair]))
        assert bundle.alpha == alpha and optimizer.vel_alpha == vel_alpha
    assert norms[0] > GRAD_CLIP > norms[1] and norms[2] > GRAD_CLIP


class TestTrain:
    def test_one_epoch_reduces_training_loss(self, tiny_dataset):
        cfg = TrainConfig(
            epochs=2, learning_rate=0.03, seed=2, batches=2, batch_size=128, pairs_per_update=4
        )
        init = evaluate_loss(MlpBundle.initialize(cfg.seed), tiny_dataset[:10], cfg)
        result = train(tiny_dataset[:10], cfg, val=tiny_dataset[10:])
        final = evaluate_loss(result.bundle, tiny_dataset[:10], cfg)
        assert final < init

    def test_separable_side_info_learned_fast(self):
        # with disjoint side-information supports the initializer alone can
        # classify; a short run should push the first-batch cross-entropy low
        rng = np.random.default_rng(11)
        pairs = [
            generate_synthetic(
                PairSpec(
                    n=150,
                    inlier_rate=float(rng.uniform(0.3, 0.7)),
                    noise_sigma_px=0.3,
                    side_info_overlap=0.0,
                    seed=500 + i,
                )
            )
            for i in range(20)
        ]
        cfg = TrainConfig(
            epochs=6, learning_rate=0.05, seed=3, batches=1, batch_size=128, pairs_per_update=4
        )
        result = train(pairs[:16], cfg, val=pairs[16:])
        bces = []
        for i, pair in enumerate(pairs[16:]):
            per_batch = pair_forward(result.bundle, pair, cfg, 900 + i)[1]
            bces.append(per_batch[0][0])
        assert float(np.mean(bces)) < 0.1

    def test_alpha_moves_with_a_wide_decoder(self):
        # alpha only matters once probabilities spread; with a near-uniform
        # decoder the weights rescale globally and the refinement is
        # invariant. Train alpha against a wide decoder on high-noise pairs,
        # where the weighting genuinely shifts the fit.
        rng = np.random.default_rng(21)
        pairs = [
            generate_synthetic(
                PairSpec(
                    n=150,
                    inlier_rate=float(rng.uniform(0.5, 0.8)),
                    noise_sigma_px=2.0,
                    side_info_overlap=0.5,
                    seed=700 + i,
                )
            )
            for i in range(10)
        ]
        cfg = TrainConfig(
            epochs=4,
            learning_rate=0.1,
            seed=4,
            batches=4,
            batch_size=256,
            pairs_per_update=2,
        )
        start = MlpBundle.initialize(cfg.seed)
        start.inlier_decoder.layers[-1].w *= 40.0
        result = train(pairs, cfg, initial=start)
        assert abs(result.history[-1]["alpha"] - 1.0) > 1e-3

    def test_pair_forward_returns_the_engine_config(self, tiny_dataset):
        cfg = TrainConfig(seed=6, batches=2, batch_size=64, consensus_update=False)
        loss, per_batch, _, _, engine_cfg = pair_forward(
            MlpBundle.initialize(cfg.seed), tiny_dataset[0], cfg, 77
        )
        assert (engine_cfg.batches, engine_cfg.batch_size) == (2, 64)
        assert (engine_cfg.seed, engine_cfg.consensus_update) == (77, False)
        assert loss == aggregate_loss(per_batch)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig())

    def test_history_is_logged(self, tiny_dataset):
        lines = []
        cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=5, batches=1, batch_size=64)
        result = train(tiny_dataset[:6], cfg, val=tiny_dataset[6:8], log=lines.append)
        assert len(result.history) == 2
        assert len(lines) == 2
        assert all("val_loss" in line for line in lines)

    def test_refinement_error_in_alpha_fd_clamps_both_sides(self, tiny_dataset, monkeypatch):
        # a finite-difference refinement that fails scores the clamped pose
        # loss on both sides, so the alpha gradient is exactly zero
        import caransac.training as training_mod

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("refinement failed")

        monkeypatch.setattr(training_mod, "refine_alpha_arrays", failing)
        cfg = TrainConfig(seed=6, batches=1, batch_size=64)
        _, grads = pair_gradients(MlpBundle.initialize(cfg.seed), tiny_dataset[0], cfg, 77)
        assert grads.alpha == 0.0

    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    def test_zero_prerefine_model_has_zero_alpha_gradient(self, tiny_dataset, kind):
        # both refinements of the zero model raise RefineUnderdetermined and
        # score the clamp, so the finite difference is exactly zero
        cfg = TrainConfig(seed=6, batches=1, batch_size=64, model_kind=kind)
        bundle = MlpBundle.initialize(cfg.seed)
        pair = tiny_dataset[1]  # a pair whose own gradient is not zero
        _, _, record, data, engine_cfg = pair_forward(bundle, pair, cfg, 77)
        assert _alpha_gradient(bundle, record, data, pair, engine_cfg) != 0.0
        record.last_prerefine_model = ModelHypothesis.zero(kind)
        assert _alpha_gradient(bundle, record, data, pair, engine_cfg) == 0.0

    def test_gradient_sign_spot_check(self, tiny_dataset):
        # bumping a parameter along +grad direction increases the loss for
        # parameters with meaningful gradient magnitude
        cfg = TrainConfig(epochs=1, seed=6, batches=2, batch_size=128)
        bundle = MlpBundle.initialize(cfg.seed)
        pair = tiny_dataset[0]
        loss0, grads = pair_gradients(bundle, pair, cfg, 77)
        rng = np.random.default_rng(0)
        layer = bundle.inlier_decoder.layers[0]
        gw = grads.nets["inlier_decoder"][0][0]
        strong = np.argwhere(np.abs(gw) > np.percentile(np.abs(gw), 99.5))
        checked = agree = 0
        for r, c in strong[:20]:
            step = 1e-4
            layer.w[r, c] += step * np.sign(gw[r, c])
            loss1 = pair_forward(bundle, pair, cfg, 77)[0]
            layer.w[r, c] -= step * np.sign(gw[r, c])
            checked += 1
            if loss1 > loss0:
                agree += 1
        assert checked >= 10
        assert agree / checked >= 0.9
