"""Acceptance suite: one test per release criterion, each printing a verdict line.

Criteria 4-6 share one trained-model context (two short trainings plus a
200-pair benchmark at a 20% inlier rate); the remaining criteria run
self-contained. Every tolerance is pinned here, not configurable.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from caransac import formats, neural
from caransac.cli import main as cli_main
from caransac.engine import LEARNED_COMPONENTS
from caransac.evaluation import (
    benchmark,
    learned_runtime_share,
    make_ca_method,
    make_lmlo_method,
    make_msac_method,
)
from caransac.neural import (
    ARCHITECTURE,
    BundleGrads,
    ForwardTape,
    MlpBundle,
    StateStepTape,
    _apply_activation_inplace,
    backward,
    decode_inliers,
    fourier_lift,
    init_state,
    state_transform,
)
from caransac.training import (
    PairSpec,
    TrainConfig,
    generate_synthetic,
    loss_inlier,
    loss_inlier_grad,
    pair_forward,
    pair_labels,
    train,
)

from conftest import dense_attention


def _announce(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: attention properties on 1000 random score matrices


def test_criterion_1_attention_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sym = worst_eq2 = worst_eig = 0.0
    lo_sum, hi_sum = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 33))
        s = rng.uniform(0.0, 1.0, size=(n, m))
        a = dense_attention(s)
        worst_sym = max(worst_sym, float(np.abs(a - a.T).max()))
        sums = a.sum(axis=1)
        lo_sum = min(lo_sum, float(sums.min()))
        hi_sum = max(hi_sum, float(sums.max()))
        totals = s.sum(axis=0)
        expected = s @ (totals / totals.sum())
        worst_eq2 = max(worst_eq2, float(np.abs(sums - expected).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(a).min()))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sym < 1e-12
        and worst_eq2 < 1e-12
        and lo_sum >= 0.0
        and hi_sum <= 1.0 + 1e-12
        and worst_eig >= -1e-10
        and elapsed < 10.0
    )
    _announce(
        1,
        ok,
        f"1000 matrices: sym {worst_sym:.2e}, row-sum identity {worst_eq2:.2e}, "
        f"row sums in [{lo_sum:.2e}, {hi_sum:.6f}], min eig {worst_eig:.2e}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: every MLP parameter gradient vs central finite differences


class _GradCheckPath:
    """Full forward path (init -> one state update -> decode -> BCE) with
    cached stage inputs, supporting batched re-evaluation from any layer.

    The finite-difference side only ever re-runs the suffix downstream of the
    perturbed layer; the arithmetic is the ordinary forward, so the check
    stays an independent oracle for the reverse-mode gradients.
    """

    def __init__(self, bundle, side, a, labels):
        self.bundle = bundle
        self.a = a
        self.labels = labels
        self.layers = []  # (name, layer, input)
        x = fourier_lift(side)
        nets = bundle.nets()
        wiring = (
            ("init_state", None),
            ("mlp3", "state"),
            ("mlp2", "attention"),
            ("mlp1", "concat"),
            ("inlier_decoder", None),
        )
        self.stage_results = {}
        for net_name, structural in wiring:
            if structural == "state":
                self.stage_results["f0"] = x
            elif structural == "attention":
                self.stage_results["y3"] = x
                x = a @ x
            elif structural == "concat":
                self.stage_results["y2"] = x
                x = np.concatenate([self.stage_results["f0"], x], axis=1)
            for li, layer in enumerate(nets[net_name].layers):
                self.layers.append((f"{net_name}.{li}", layer, x))
                x = _apply_activation_inplace(x @ layer.w.T + layer.b, layer.activation)
        self.probs = np.clip(x[:, 0], 1e-12, 1.0 - 1e-12)

    def _loss_from(self, start_idx, z_block):
        """Losses for a block of perturbed pre-activations at layer start_idx.

        ``z_block`` has shape (B, n, out). Subsequent layers are applied to
        the whole block at once; structural stages (attention product,
        concatenation) are replayed where the pipeline crosses them.
        """
        name, layer, _ = self.layers[start_idx]
        y = _apply_activation_inplace(z_block.copy(), layer.activation)
        b, n = y.shape[0], y.shape[1]
        f0 = None
        for idx in range(start_idx + 1, len(self.layers) + 1):
            prev_name = self.layers[idx - 1][0]
            if prev_name == "init_state.1":
                f0 = y
            if idx == len(self.layers):
                break
            name, layer, _ = self.layers[idx]
            if name == "mlp2.0":
                y = np.matmul(self.a, y)
            elif name == "mlp1.0":
                base_f0 = self.stage_results["f0"] if f0 is None else f0
                if base_f0.ndim == 2:
                    base_f0 = np.broadcast_to(base_f0, (b,) + base_f0.shape)
                y = np.concatenate([base_f0, y], axis=2)
            flat = y.reshape(b * n, -1)
            y = _apply_activation_inplace(flat @ layer.w.T + layer.b, layer.activation).reshape(
                b, n, -1
            )
        probs = np.clip(y[..., 0], 1e-12, 1.0 - 1e-12)
        l = self.labels
        return -np.mean(l * np.log(probs) + (1.0 - l) * np.log(1.0 - probs), axis=1)

    def fd_layer_gradients(self, layer_idx, h, chunk=2048):
        """Central-difference gradients of every parameter of one layer."""
        name, layer, x = self.layers[layer_idx]
        z_base = x @ layer.w.T + layer.b
        n, out = z_base.shape
        n_in = layer.w.shape[1]
        grads_w = np.empty_like(layer.w)
        flat = [(r, c) for r in range(out) for c in range(n_in)]
        for start in range(0, len(flat), chunk):
            block = flat[start : start + chunk]
            zb = np.broadcast_to(z_base, (len(block), n, out)).copy()
            for i, (r, c) in enumerate(block):
                zb[i, :, r] += h * x[:, c]
            up = self._loss_from(layer_idx, zb)
            zb = np.broadcast_to(z_base, (len(block), n, out)).copy()
            for i, (r, c) in enumerate(block):
                zb[i, :, r] -= h * x[:, c]
            dn = self._loss_from(layer_idx, zb)
            for i, (r, c) in enumerate(block):
                grads_w[r, c] = (up[i] - dn[i]) / (2 * h)
        zb = np.broadcast_to(z_base, (out, n, out)).copy()
        for r in range(out):
            zb[r, :, r] += h
        up = self._loss_from(layer_idx, zb)
        zb = np.broadcast_to(z_base, (out, n, out)).copy()
        for r in range(out):
            zb[r, :, r] -= h
        dn = self._loss_from(layer_idx, zb)
        grads_b = (up - dn) / (2 * h)
        return grads_w, grads_b


def _kink_clearance(path) -> float:
    """Distance of the closest leaky-relu pre-activation to its kink.

    Central differences are invalid within h of the kink (the loss is only
    piecewise-smooth there), so the test instance must keep clear of it.
    """
    clearance = np.inf
    for name, layer, x in path.layers:
        if layer.activation != "leaky_relu":
            continue
        z = x @ layer.w.T + layer.b
        clearance = min(clearance, float(np.abs(z).min()))
    return clearance


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    n, m = 6, 3
    bundle = None
    for candidate_seed in range(202, 230):
        rng = np.random.default_rng(candidate_seed)
        cand = MlpBundle.initialize(candidate_seed)
        side = rng.uniform(0.05, 0.95, n)
        s = rng.uniform(0, 1, size=(n, m))
        a = s @ s.T / s.sum()
        labels = rng.integers(0, 2, n).astype(float)
        # perturbations shift pre-activations by at most a few times h; a
        # 1e-5 clearance keeps every central difference on one slope
        if _kink_clearance(_GradCheckPath(cand, side, a, labels)) > 1e-5:
            bundle = cand
            break
    assert bundle is not None, "no kink-free random instance found"

    # analytic gradients through the recorded tape
    tape = ForwardTape()
    f = init_state(bundle, side, tape.init)
    step = StateStepTape(attention=a)
    f = state_transform(bundle, f, a, step)
    probs = decode_inliers(bundle, f, step.decoder)
    tape.steps.append(step)
    analytic = backward(bundle, tape, [loss_inlier_grad(probs, labels)])

    path = _GradCheckPath(bundle, side, a, labels)
    assert abs(loss_inlier(path.probs, labels) - loss_inlier(probs, labels)) < 1e-12

    h = 1e-6
    worst = 0.0
    checked = 0
    for idx, (name, layer, _) in enumerate(path.layers):
        net, li = name.split(".")
        fd_w, fd_b = path.fd_layer_gradients(idx, h)
        an_w, an_b = analytic.nets[net][int(li)]
        for fd, an in ((fd_w, an_w), (fd_b, an_b)):
            err = np.abs(fd - an)
            tol = 1e-8 + 1e-4 * np.maximum(np.abs(fd), np.abs(an))
            worst = max(worst, float((err / tol).max()))
            checked += fd.size
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and checked == sum(o * i + o for _, o, i, _ in ARCHITECTURE) and elapsed < 60.0
    _announce(
        2,
        ok,
        f"{checked} parameters, worst violation ratio {worst:.3f} "
        f"(1e-4 relative, 1e-8 floor), {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: geometry oracles


def test_criterion_3_geometry_oracles():
    from caransac.geometry import (
        FUNDAMENTAL,
        decompose_essential_arrays,
        normalize_matches,
        pose_error,
        sampson_sq_arrays,
    )
    from caransac.refinement import RefineConfig, _lm_refine_arrays
    from reference_refinement import _cost

    from conftest import fit, make_scene

    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_sampson = 0.0
    worst_pose = 0.0
    worst_sv = 0.0
    cost_violations = 0
    for _ in range(20):
        scene = make_scene(rng, n_inliers=40)
        p1, p2 = scene["data"].p1, scene["data"].p2
        model = fit(p1[:8], p2[:8], FUNDAMENTAL)
        res = sampson_sq_arrays(model.m, scene["data"])
        worst_sampson = max(worst_sampson, float(res.max()))

        normalized = normalize_matches(scene["data"], scene["k1"], scene["k2"])
        pose = decompose_essential_arrays(scene["e_gt"].m, normalized.p1, normalized.p2)
        worst_pose = max(worst_pose, pose_error(pose, scene["pose"]))

        noisy = make_scene(rng, n_inliers=50, noise_px=0.8)
        np1, np2 = noisy["data"].p1, noisy["data"].p2
        np1h, np2h = noisy["data"].p1h, noisy["data"].p2h
        start = fit(np1[:10], np2[:10], FUNDAMENTAL)
        cfg = RefineConfig()
        w = np.ones(50)
        refined = _lm_refine_arrays(start, noisy["data"], "cauchy", w, cfg, 2.25, cfg.max_iterations)
        sv = np.linalg.svd(refined.m, compute_uv=False)
        worst_sv = max(worst_sv, float(sv[2]))
        if _cost(refined.m, np1h, np2h, w, "cauchy", 2.25) > _cost(
            start.m, np1h, np2h, w, "cauchy", 2.25
        ):
            cost_violations += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sampson < 1e-8
        and worst_pose < np.degrees(1e-6)
        and worst_sv < 1e-10
        and cost_violations == 0
        and elapsed < 30.0
    )
    _announce(
        3,
        ok,
        f"8-point max residual {worst_sampson:.2e}, pose round-trip {worst_pose:.2e} deg, "
        f"rank-2 drift {worst_sv:.2e}, LM cost regressions {cost_violations}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criteria 4-6: trained context


TRAIN_SECONDS_BUDGET = 15 * 60
EVAL_SECONDS_BUDGET = 5 * 60


def _suite_pairs(rng, count, rates, seed0, n_lo, n_hi, overlap=0.9):
    out = []
    for i in range(count):
        rate = float(rng.choice(rates))
        n = int(rng.integers(n_lo, n_hi + 1))
        out.append(
            generate_synthetic(
                PairSpec(
                    n=n,
                    inlier_rate=rate,
                    noise_sigma_px=0.5,
                    side_info_overlap=overlap,
                    seed=seed0 + i,
                )
            )
        )
    return out


@pytest.fixture(scope="module")
def trained_ctx():
    rng = np.random.default_rng(0)
    train_pairs = _suite_pairs(rng, 120, [0.2, 0.3, 0.4, 0.5, 0.6, 0.8], 10_000, 200, 400)
    val_pairs = _suite_pairs(rng, 16, [0.2, 0.4, 0.6], 20_000, 200, 400)
    eval_pairs = _suite_pairs(rng, 200, [0.2], 30_000, 250, 350)

    t0 = time.perf_counter()
    cfg = TrainConfig(epochs=3, learning_rate=0.03, seed=5, pairs_per_update=4)
    full = train(train_pairs, cfg, val=val_pairs)
    cfg_nc = TrainConfig(
        epochs=3, learning_rate=0.03, seed=5, pairs_per_update=4, consensus_update=False
    )
    no_consensus = train(train_pairs, cfg_nc, val=val_pairs)
    train_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    methods = {
        "full": make_ca_method(full.bundle, "essential"),
        "lmlo": make_lmlo_method("essential"),
        "nc": make_ca_method(no_consensus.bundle, "essential", consensus_update=False),
        "msac": make_msac_method("essential"),
    }
    reports = benchmark(methods, eval_pairs, (4, 256), [0])
    eval_seconds = time.perf_counter() - t0
    return {
        "full": full,
        "nc": no_consensus,
        "cfg": cfg,
        "val_pairs": val_pairs,
        "eval_pairs": eval_pairs,
        "reports": reports,
        "train_seconds": train_seconds,
        "eval_seconds": eval_seconds,
    }


def test_criterion_4_ablation_direction(trained_ctx):
    r = trained_ctx["reports"]
    full, lmlo, nc, msac = r["full"], r["lmlo"], r["nc"], r["msac"]
    ordering_map20 = full.map20 > lmlo.map20 > nc.map20
    beats_map20 = full.map20 > nc.map20 and full.map20 > msac.map20
    beats_median = full.median_deg < nc.median_deg and full.median_deg < msac.median_deg
    within_budget = (
        trained_ctx["train_seconds"] < TRAIN_SECONDS_BUDGET
        and trained_ctx["eval_seconds"] < EVAL_SECONDS_BUDGET
    )
    ok = ordering_map20 and beats_map20 and beats_median and within_budget
    _announce(
        4,
        ok,
        "MAP20 full/lmlo/nc/msac = "
        f"{full.map20:.1f}/{lmlo.map20:.1f}/{nc.map20:.1f}/{msac.map20:.1f}, "
        f"median = {full.median_deg:.2f}/{lmlo.median_deg:.2f}/"
        f"{nc.median_deg:.2f}/{msac.median_deg:.2f} deg, "
        f"train {trained_ctx['train_seconds']:.0f}s, eval {trained_ctx['eval_seconds']:.0f}s",
    )
    assert ok


def test_criterion_5_iteration_batching_direction(trained_ctx):
    bundle = trained_ctx["full"].bundle
    eval_pairs = trained_ctx["eval_pairs"]
    seeds = [0, 1, 2, 3, 4]
    method = {"ca": make_ca_method(bundle, "essential")}
    single = benchmark(method, eval_pairs, (1, 256), seeds)["ca"]
    double = benchmark(method, eval_pairs, (2, 128), seeds)["ca"]
    ok = single.median_deg > double.median_deg
    _announce(
        5,
        ok,
        f"median pose error 1x256 = {single.median_deg:.2f} deg vs "
        f"2x128 = {double.median_deg:.2f} deg over 200 pairs x 5 seeds",
    )
    assert ok


def test_criterion_6_probability_sharpening(trained_ctx):
    bundle = trained_ctx["full"].bundle
    cfg = trained_ctx["cfg"]
    pairs = trained_ctx["val_pairs"] + trained_ctx["eval_pairs"][:34]
    sharpened = 0
    for i, pair in enumerate(pairs):
        batches = pair_forward(bundle, pair, cfg, 606 + i)[2]
        labels = pair_labels(pair)
        first = loss_inlier(batches[0].probs, labels)
        last = loss_inlier(batches[-1].probs, labels)
        sharpened += last < first
    frac = sharpened / len(pairs)
    ok = frac >= 0.8
    _announce(
        6,
        ok,
        f"cross-entropy after batch 4 < after batch 1 on {sharpened}/{len(pairs)} pairs "
        f"({frac*100:.0f}%)",
    )
    assert ok


def test_criterion_4_trained_high_inlier_accuracy(trained_ctx):
    # companion check: with calibrated probabilities the loop reaches the
    # tight accuracy target on the easy suite
    from caransac.training import model_pose_error

    bundle = trained_ctx["full"].bundle
    method = make_ca_method(bundle, "essential")
    rng = np.random.default_rng(9)
    pairs = _suite_pairs(rng, 100, [0.8], 50_000, 200, 300, overlap=0.9)
    good = 0
    for idx, pair in enumerate(pairs):
        res = method(pair, (4, 256), 7000 + idx)
        try:
            if model_pose_error(res.model, pair) < 1.0:
                good += 1
        except Exception:
            pass
    ok = good >= 95
    _announce(4, ok, f"companion accuracy: {good}/100 easy pairs under 1 deg")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: runtime share of the learned components


def test_criterion_7_runtime_share(trained_ctx):
    bundle = trained_ctx["full"].bundle
    rng = np.random.default_rng(7)
    pairs = _suite_pairs(rng, 3, [0.5], 60_000, 2000, 2000, overlap=0.8)
    ca = make_ca_method(bundle, "essential")
    ca(pairs[0], (4, 256), 123)  # warm the allocator and BLAS before timing
    report = benchmark({"ca": ca}, pairs, (4, 256), [0, 1])["ca"]
    timing = report.timing
    share = learned_runtime_share(timing)
    total = timing["total"]
    parts = sum(v for k, v in timing.items() if k != "total")
    sums_ok = abs(parts - total) / total < 0.01
    ok = share < 0.35 and sums_ok
    learned_ms = sum(timing.get(k, 0.0) for k in LEARNED_COMPONENTS) * 1e3
    # the share depends on both: the learned blocks are GEMMs that gain from a
    # second BLAS thread and from float32, while LM and sampling do not
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", f"unset ({os.cpu_count()} cores)")
    _announce(
        7,
        ok,
        f"learned components {share*100:.1f}% of {total:.2f}s over 3 pairs at n=2000 "
        f"({learned_ms:.0f}ms learned, {neural.INFERENCE_DTYPE}, "
        f"OPENBLAS_NUM_THREADS={blas_threads}), breakdown sums within "
        f"{abs(parts-total)/total*100:.2f}%",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: bit-identical commands under fixed seeds


def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    def run(*args):
        assert cli_main([str(a) for a in args]) == 0

    results = []
    for rep in ("one", "two"):
        root = tmp_path / rep
        data = root / "data"
        run("synth", "--pairs", 4, "--n", 80, "--inlier-rate", 0.6, "--noise", 0.5,
            "--seed", 11, "--out-dir", data)
        weights = root / "weights.txt"
        run("train", "--data", data, "--epochs", 1, "--seed", 3,
            "--batches", 2, "--batch-size", 64, "--out-weights", weights)
        run("estimate", "--matches", data / "pair_0000.matches.txt",
            "--calib", data / "pair_0000.calib.txt", "--model-kind", "essential",
            "--weights", weights, "--batches", 2, "--batch-size", 64,
            "--seed", 5, "--report", root / "report.txt")
        run("bench", "--data", data, "--methods", "ca,msac,lmlo", "--budget", "2x64",
            "--seeds", "0,1", "--weights", weights, "--model-kind", "essential",
            "--out", root / "bench.txt")
        results.append(_tree_bytes(root))
    identical = results[0].keys() == results[1].keys() and all(
        results[0][k] == results[1][k] for k in results[0]
    )
    differing = [k for k in results[0] if results[0].get(k) != results[1].get(k)]
    _announce(
        8,
        identical,
        f"{len(results[0])} files from synth/train/estimate/bench byte-identical"
        + ("" if identical else f"; differing: {differing}"),
    )
    assert identical
