"""Robustness contract: degenerate input and determinism across BLAS thread counts.

Every engine, on every seeded adversarial scene below, either raises
InsufficientData or returns a finite model that is the zero matrix or has
unit Frobenius norm, with finite inlier probabilities in [0, 1]. Warnings
count as failures: degenerate input must not reach a NaN or a division by
zero on its way to that result.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import caransac
from caransac.engine import EngineConfig, ca_ransac, lm_lo_baseline, msac_ransac_baseline
from caransac.geometry import ESSENTIAL, FUNDAMENTAL, CameraIntrinsics, Matches, normalize_matches, rodrigues
from caransac.neural import MlpBundle, load_weights
from caransac.sampling import InsufficientData

from conftest import make_pose, make_scene, take

SCENES = (
    "identical",
    "collinear",
    "planar",
    "eight_points",
    "all_outliers",
    "scale_1e7",
    "duplicated",
    "pure_rotation",
)
K1 = CameraIntrinsics(700.0, 700.0, 320.0, 240.0)
K2 = CameraIntrinsics(735.0, 665.0, 310.0, 250.0)
TRAINED_WEIGHTS = Path(__file__).resolve().parents[1] / "perfbench" / "weights.txt"


def _project(x: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    return np.column_stack([x[:, 0] / x[:, 2] * k.fx + k.cx, x[:, 1] / x[:, 2] * k.fy + k.cy])


def adversarial_scene(name: str) -> Matches:
    """A seeded degenerate or extreme pixel-coordinate scene."""
    rng = np.random.default_rng(SCENES.index(name) + 500)
    if name == "identical":
        n = 20
        p1 = np.tile([10.0, 20.0], (n, 1))
        p2 = np.tile([30.0, 40.0], (n, 1))
    elif name == "collinear":
        t = rng.uniform(0.0, 1.0, 40)
        p1 = np.column_stack([100.0 + 300.0 * t, 50.0 + 200.0 * t])
        p2 = np.column_stack([80.0 + 250.0 * t, 300.0 - 100.0 * t])
    elif name == "planar":
        # every 3D point on one plane: the views are related by a homography
        uv = rng.uniform(-1.0, 1.0, size=(40, 2))
        x1 = np.column_stack([uv, 6.0 + 0.5 * uv[:, 0] - 0.3 * uv[:, 1]])
        pose = make_pose(rng)
        p1, p2 = _project(x1, K1), _project(x1 @ pose.rotation.T + pose.translation, K2)
    elif name == "eight_points":
        return make_scene(rng, n_inliers=8)["data"]
    elif name == "all_outliers":
        p1 = rng.uniform(0.0, 640.0, size=(60, 2))
        p2 = rng.uniform(0.0, 640.0, size=(60, 2))
    elif name == "scale_1e7":
        data = make_scene(rng, n_inliers=40, n_outliers=20, noise_px=0.5)["data"]
        p1, p2 = data.p1 * 1.5e4, data.p2 * 1.5e4
    elif name == "duplicated":
        data = make_scene(rng, n_inliers=14, n_outliers=6, noise_px=0.5)["data"]
        return take(data, np.tile(np.arange(len(data)), 3))
    else:  # pure rotation: zero baseline, so no epipolar geometry exists
        x1 = np.column_stack([rng.uniform(-1.5, 1.5, (40, 2)), rng.uniform(5.0, 9.0, 40)])
        rotation = rodrigues(np.array([0.05, -0.2, 0.1]))
        p1, p2 = _project(x1, K1), _project(x1 @ rotation.T, K2)
    return Matches(p1, p2, rng.uniform(0.0, 1.0, len(p1)))


@pytest.fixture(scope="module")
def bundle():
    return MlpBundle.initialize(0)


@pytest.fixture(scope="module")
def trained_bundle():
    return load_weights(TRAINED_WEIGHTS.read_bytes())


def run_engine(
    method: str, matches: Matches, kind: str, bundle: MlpBundle, budget=(4, 256), seed=3
):
    if kind == ESSENTIAL:
        matches = normalize_matches(matches, K1, K2)
        threshold = 1.5**2 / (K1.fx * K2.fx)
    else:
        threshold = 1.5**2
    cfg = EngineConfig(
        batches=budget[0], batch_size=budget[1], model_kind=kind, msac_threshold=threshold,
        seed=seed,
    )
    if method == "ca":
        return ca_ransac(matches, bundle, cfg)
    if method == "msac":
        return msac_ransac_baseline(matches, cfg)
    return lm_lo_baseline(matches, cfg)


@pytest.mark.filterwarnings("error")
class TestAdversarialScenes:
    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    @pytest.mark.parametrize("method", ["ca", "msac", "lmlo"])
    @pytest.mark.parametrize("scene", SCENES)
    def test_zero_or_unit_model_and_finite_probabilities(self, bundle, scene, method, kind):
        matches = adversarial_scene(scene)
        try:
            res = run_engine(method, matches, kind, bundle)
        except InsufficientData:
            return
        assert_contract(res, len(matches))
        if scene == "identical":
            # every sample is degenerate: the loop survives on the zero model
            assert res.model.is_zero
            assert [b.best_score for b in res.batches] == [0.0] * 4

    # the trained bundle over many small batches drives decoder
    # pre-activations far below -709, where an unclipped sigmoid's exp overflows
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "scene, kind",
        [("scale_1e7", ESSENTIAL), ("duplicated", FUNDAMENTAL), ("pure_rotation", ESSENTIAL)],
    )
    def test_trained_bundle_over_many_small_batches(self, trained_bundle, scene, kind, seed):
        matches = adversarial_scene(scene)
        res = run_engine("ca", matches, kind, trained_bundle, budget=(100, 3), seed=seed)
        assert_contract(res, len(matches))

    # the float32 bundle the inference adapters run; on "identical" no batch
    # finds a valid model, and its zero attention must not promote the state
    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    @pytest.mark.parametrize("scene", SCENES)
    def test_float32_bundle(self, bundle, scene, kind):
        matches = adversarial_scene(scene)
        try:
            res = run_engine("ca", matches, kind, bundle.astype(np.float32))
        except InsufficientData:
            return
        assert_contract(res, len(matches))
        assert res.inlier_probs.dtype == np.float64

    @pytest.mark.parametrize(
        "scene, kind",
        [("scale_1e7", ESSENTIAL), ("duplicated", FUNDAMENTAL), ("pure_rotation", ESSENTIAL)],
    )
    def test_float32_trained_bundle_over_many_small_batches(self, trained_bundle, scene, kind):
        # far past float32's exp limit: the sigmoid clips -z at 88 there
        matches = adversarial_scene(scene)
        f32 = trained_bundle.astype(np.float32)
        res = run_engine("ca", matches, kind, f32, budget=(100, 3), seed=0)
        assert_contract(res, len(matches))


def assert_contract(res, n: int) -> None:
    """A finite zero or unit-norm model and n finite probabilities in [0, 1]."""
    m = res.model.m
    assert np.isfinite(m).all()
    if res.model.is_zero:
        assert not m.any()
    else:
        assert abs(np.linalg.norm(m) - 1.0) < 1e-9
    probs = res.inlier_probs
    assert probs.shape == (n,)
    assert np.isfinite(probs).all() and (probs >= 0.0).all() and (probs <= 1.0).all()


# ---------------------------------------------------------------------------
# determinism across BLAS thread counts

MODEL_TOL = 1e-8
PROBS_TOL = 1e-12

_RUN_CA = """
import sys
import numpy as np
from caransac.engine import ca_ransac, engine_inputs
from caransac.neural import MlpBundle
from caransac.training import PairSpec, generate_synthetic

pair = generate_synthetic(PairSpec(n=2000, inlier_rate=0.3, seed=1))
data, cfg = engine_inputs(pair.matches, "essential", 1.5, (pair.k1, pair.k2), (4, 256), 0)
res = ca_ransac(data, MlpBundle.initialize(0), cfg)
np.save(sys.argv[1], np.concatenate([res.model.m.ravel(), res.inlier_probs]))
"""


def test_thread_counts_agree_within_tolerance(tmp_path):
    src = str(Path(caransac.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}.npy"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CA, str(out)], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(np.load(out))
    one, two = outputs
    assert np.abs(one[:9] - two[:9]).max() <= MODEL_TOL
    assert np.abs(one[9:] - two[9:]).max() <= PROBS_TOL


# float32 inference (the bundle cast as the evaluation and CLI adapters cast
# it): byte-identical at a fixed thread count. Across thread counts the
# float32 probabilities move about 1e-7 apart; measured on the pair above:
# 1.8e-10 (model) and 1.2e-7 (probabilities).
MODEL_TOL_FLOAT32 = 1e-8
PROBS_TOL_FLOAT32 = 1e-6

_RUN_CA_FLOAT32 = _RUN_CA.replace(
    "MlpBundle.initialize(0)", "MlpBundle.initialize(0).astype(np.float32)"
)
assert _RUN_CA_FLOAT32 != _RUN_CA


def test_float32_runs_byte_identical_and_thread_counts_agree_within_tolerance(tmp_path):
    src = str(Path(caransac.__file__).resolve().parent.parent)
    outputs = []
    for run, threads in enumerate(("1", "1", "2")):
        out = tmp_path / f"run_{run}_threads_{threads}.npy"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CA_FLOAT32, str(out)], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(np.load(out))
    one, again, two = outputs
    assert one.tobytes() == again.tobytes()
    assert np.abs(one[:9] - two[:9]).max() <= MODEL_TOL_FLOAT32
    assert np.abs(one[9:] - two[9:]).max() <= PROBS_TOL_FLOAT32
