"""Plain-text file formats for the command-line workflows.

Everything the suite writes it can read back losslessly: floats are emitted
with ``repr`` (shortest exact round-trip) and parsed strictly (NaN/Inf and
column-count mismatches are rejected with the file and row named). Formats:

* matches:   header ``x1 y1 x2 y2 side_info [gt_inlier]``, one row per
             correspondence (a ``Matches`` column set), side_info in
             [0, 1], gt_inlier encoded as 0/1
* calib:     two lines, each a row-major 3x3 intrinsic matrix (zero skew)
* pose:      line 1 row-major 3x3 rotation, line 2 unit translation
* manifest:  dataset magic, pair count, one pair stem per line
* report:    estimation output (model, optional pose, per-batch scores,
             inlier probabilities)
* config:    ``key = value`` lines, ``#`` comments; unknown keys rejected
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import MODEL_KINDS, CameraIntrinsics, Matches, RelativePose
from .training import SyntheticPair

DATASET_MAGIC = "caransac-dataset"
REPORT_MAGIC = "caransac-report"
FORMAT_VERSION = 1

MATCHES_SUFFIX = ".matches.txt"
CALIB_SUFFIX = ".calib.txt"
POSE_SUFFIX = ".pose.txt"


class FileFormatError(Exception):
    """A file does not conform to its declared grammar."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(token: str, path: Path, row: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FileFormatError(f"{path}: row {row}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise FileFormatError(f"{path}: row {row}: non-finite value {token!r}")
    return value


def _read_lines(path: Path) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# matches


def write_matches(path: Path, matches: Matches) -> None:
    labeled = matches.labels is not None
    header = "x1 y1 x2 y2 side_info" + (" gt_inlier" if labeled else "")
    rows = [header]
    columns = np.column_stack([matches.p1, matches.p2, matches.side]).tolist()
    for i, values in enumerate(columns):
        row = " ".join(_fmt(v) for v in values)
        if labeled:
            row += f" {int(matches.labels[i])}"
        rows.append(row)
    Path(path).write_text("\n".join(rows) + "\n")


def read_matches(path: Path) -> Matches:
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise FileFormatError(f"{path}: empty matches file")
    header = lines[0].split()
    if header == ["x1", "y1", "x2", "y2", "side_info"]:
        labeled = False
    elif header == ["x1", "y1", "x2", "y2", "side_info", "gt_inlier"]:
        labeled = True
    else:
        raise FileFormatError(f"{path}: unrecognized matches header {lines[0]!r}")
    expected = 6 if labeled else 5
    values, labels = [], []
    for row, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != expected:
            raise FileFormatError(
                f"{path}: row {row}: expected {expected} columns, found {len(tokens)}"
            )
        parsed = [_parse_float(t, path, row) for t in tokens[:5]]
        if not 0.0 <= parsed[4] <= 1.0:
            raise FileFormatError(f"{path}: row {row}: side_info must be in [0, 1], got {tokens[4]}")
        values.append(parsed)
        if labeled:
            if tokens[5] not in ("0", "1"):
                raise FileFormatError(f"{path}: row {row}: gt_inlier must be 0 or 1")
            labels.append(tokens[5] == "1")
    cols = np.array(values, dtype=np.float64).reshape(-1, 5)
    return Matches(
        cols[:, 0:2], cols[:, 2:4], cols[:, 4], np.array(labels, dtype=bool) if labeled else None
    )


# ---------------------------------------------------------------------------
# calibration and pose


def write_calibration(path: Path, k1: CameraIntrinsics, k2: CameraIntrinsics) -> None:
    lines = [" ".join(_fmt(v) for v in k.matrix().ravel()) for k in (k1, k2)]
    Path(path).write_text("\n".join(lines) + "\n")


def _intrinsics_from_row(tokens: list[str], path: Path, row: int) -> CameraIntrinsics:
    if len(tokens) != 9:
        raise FileFormatError(f"{path}: row {row}: expected 9 matrix entries")
    m = np.array([_parse_float(t, path, row) for t in tokens]).reshape(3, 3)
    if not (m[0, 1] == 0 and np.array_equal(m[2], [0.0, 0.0, 1.0]) and m[1, 0] == 0):
        raise FileFormatError(f"{path}: row {row}: not a zero-skew intrinsic matrix")
    try:
        return CameraIntrinsics(m[0, 0], m[1, 1], m[0, 2], m[1, 2])
    except ValueError as exc:
        raise FileFormatError(f"{path}: row {row}: {exc}") from None


def read_calibration(path: Path) -> tuple[CameraIntrinsics, CameraIntrinsics]:
    path = Path(path)
    lines = [l for l in _read_lines(path) if l.strip()]
    if len(lines) != 2:
        raise FileFormatError(f"{path}: expected exactly two intrinsic matrices")
    return (
        _intrinsics_from_row(lines[0].split(), path, 1),
        _intrinsics_from_row(lines[1].split(), path, 2),
    )


def write_pose(path: Path, pose: RelativePose) -> None:
    lines = [
        " ".join(_fmt(v) for v in pose.rotation.ravel()),
        " ".join(_fmt(v) for v in pose.translation),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_pose(r_tokens: list[str], t_tokens: list[str], path: Path, row: int) -> RelativePose:
    """A pose from its rotation tokens (file row ``row``) and unit-translation
    tokens (row ``row + 1``)."""
    if len(r_tokens) != 9:
        raise FileFormatError(f"{path}: row {row}: expected 9 rotation entries, found {len(r_tokens)}")
    if len(t_tokens) != 3:
        raise FileFormatError(
            f"{path}: row {row + 1}: expected 3 translation entries, found {len(t_tokens)}"
        )
    r = np.array([_parse_float(t, path, row) for t in r_tokens]).reshape(3, 3)
    t = np.array([_parse_float(v, path, row + 1) for v in t_tokens])
    if abs(np.linalg.norm(t) - 1.0) > 1e-6:
        raise FileFormatError(f"{path}: row {row + 1}: translation must be a unit vector")
    try:
        return RelativePose(r, t)
    except ValueError as exc:
        raise FileFormatError(f"{path}: row {row}: {exc}") from None


def read_pose(path: Path) -> RelativePose:
    path = Path(path)
    lines = [l for l in _read_lines(path) if l.strip()]
    if len(lines) != 2:
        raise FileFormatError(f"{path}: expected a rotation line and a translation line")
    return _parse_pose(lines[0].split(), lines[1].split(), path, 1)


# ---------------------------------------------------------------------------
# datasets


def write_pair(out_dir: Path, pair: SyntheticPair) -> None:
    out_dir = Path(out_dir)
    write_matches(out_dir / (pair.name + MATCHES_SUFFIX), pair.matches)
    write_calibration(out_dir / (pair.name + CALIB_SUFFIX), pair.k1, pair.k2)
    write_pose(out_dir / (pair.name + POSE_SUFFIX), pair.pose)


def read_pair(data_dir: Path, name: str) -> SyntheticPair:
    data_dir = Path(data_dir)
    matches = read_matches(data_dir / (name + MATCHES_SUFFIX))
    k1, k2 = read_calibration(data_dir / (name + CALIB_SUFFIX))
    pose = read_pose(data_dir / (name + POSE_SUFFIX))
    return SyntheticPair(matches, pose, k1, k2, name=name)


def write_manifest(path: Path, names: list[str]) -> None:
    lines = [f"{DATASET_MAGIC} {FORMAT_VERSION}", f"pairs {len(names)}"] + list(names)
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path: Path) -> list[str]:
    path = Path(path)
    lines = _read_lines(path)
    if len(lines) < 2 or lines[0].split() != [DATASET_MAGIC, str(FORMAT_VERSION)]:
        raise FileFormatError(f"{path}: not a dataset manifest")
    count_fields = lines[1].split()
    if len(count_fields) != 2 or count_fields[0] != "pairs":
        raise FileFormatError(f"{path}: malformed pair count")
    try:
        count = int(count_fields[1])
    except ValueError:
        raise FileFormatError(f"{path}: row 2: pair count {count_fields[1]!r} is not an integer") from None
    names = [l for l in lines[2:] if l.strip()]
    if len(names) != count:
        raise FileFormatError(f"{path}: manifest lists {len(names)} pairs, header says {count_fields[1]}")
    return names


def read_dataset(data_dir: Path) -> list[SyntheticPair]:
    data_dir = Path(data_dir)
    names = read_manifest(data_dir / "manifest.txt")
    return [read_pair(data_dir, name) for name in names]


# ---------------------------------------------------------------------------
# estimation reports


@dataclass
class Report:
    kind: str
    model: np.ndarray
    pose: RelativePose | None
    per_batch_best_score: list[float]
    inlier_probs: np.ndarray


def write_report(path: Path, report: Report) -> None:
    lines = [f"{REPORT_MAGIC} {FORMAT_VERSION}", f"kind {report.kind}", "model"]
    for row in np.asarray(report.model).reshape(3, 3):
        lines.append(" ".join(_fmt(v) for v in row))
    if report.pose is not None:
        lines.append("pose_rotation " + " ".join(_fmt(v) for v in report.pose.rotation.ravel()))
        lines.append("pose_translation " + " ".join(_fmt(v) for v in report.pose.translation))
    lines.append(
        "per_batch_best_score " + " ".join(_fmt(v) for v in report.per_batch_best_score)
    )
    lines.append("inlier_probs " + " ".join(_fmt(v) for v in report.inlier_probs))
    Path(path).write_text("\n".join(lines) + "\n")


def read_report(path: Path) -> Report:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0].split() != [REPORT_MAGIC, str(FORMAT_VERSION)]:
        raise FileFormatError(f"{path}: not an estimation report")
    try:
        return _parse_report(lines, path)
    except IndexError:
        raise FileFormatError(f"{path}: truncated report") from None


def _parse_report(lines: list[str], path: Path) -> Report:
    kind_fields = lines[1].split()
    if len(kind_fields) != 2 or kind_fields[0] != "kind" or kind_fields[1] not in MODEL_KINDS:
        raise FileFormatError(f"{path}: malformed kind line")
    if lines[2] != "model":
        raise FileFormatError(f"{path}: missing model section")
    rows = []
    for i in range(3):
        tokens = lines[3 + i].split()
        if len(tokens) != 3:
            raise FileFormatError(f"{path}: row {4 + i}: expected 3 model entries, found {len(tokens)}")
        rows.append([_parse_float(t, path, 4 + i) for t in tokens])
    model = np.array(rows)
    idx = 6
    pose = None
    if idx < len(lines) and lines[idx].startswith("pose_rotation"):
        r_fields = lines[idx].split()
        t_fields = lines[idx + 1].split()
        if r_fields[0] != "pose_rotation" or not t_fields or t_fields[0] != "pose_translation":
            raise FileFormatError(f"{path}: row {idx + 1}: malformed pose lines")
        pose = _parse_pose(r_fields[1:], t_fields[1:], path, idx + 1)
        idx += 2
    fields = lines[idx].split()
    if fields[0] != "per_batch_best_score":
        raise FileFormatError(f"{path}: missing per_batch_best_score")
    scores = [_parse_float(t, path, idx + 1) for t in fields[1:]]
    fields = lines[idx + 1].split()
    if fields[0] != "inlier_probs":
        raise FileFormatError(f"{path}: missing inlier_probs")
    probs = np.array([_parse_float(t, path, idx + 2) for t in fields[1:]])
    return Report(kind_fields[1], model, pose, scores, probs)


# ---------------------------------------------------------------------------
# run configuration

# keys a config file may set, mirrored by CLI flags (flags win)
CONFIG_KEYS = frozenset(
    {
        "batches",
        "batch_size",
        "model_kind",
        "threshold_px",
        "seed",
        "epochs",
        "learning_rate",
    }
)


def read_config(path: Path) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for row, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FileFormatError(f"{path}: row {row}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise FileFormatError(f"{path}: row {row}: unknown key {key!r}")
        if not value:
            raise FileFormatError(f"{path}: row {row}: empty value for {key!r}")
        out[key] = value
    return out
