"""File formats: lossless round trips and strict parsing."""

import numpy as np
import pytest

from caransac import formats
from caransac.formats import (
    FileFormatError,
    Report,
    read_calibration,
    read_config,
    read_dataset,
    read_manifest,
    read_matches,
    read_pair,
    read_pose,
    read_report,
    write_calibration,
    write_manifest,
    write_matches,
    write_pair,
    write_pose,
    write_report,
)
from caransac.geometry import CameraIntrinsics, Matches, RelativePose, rodrigues
from caransac.training import PairSpec, generate_synthetic


@pytest.fixture
def pair():
    return generate_synthetic(PairSpec(n=40, inlier_rate=0.6, noise_sigma_px=0.5, seed=77))


class TestMatches:
    def test_round_trip_lossless(self, tmp_path, pair):
        path = tmp_path / "m.txt"
        write_matches(path, pair.matches)
        back = read_matches(path)
        a = pair.matches
        assert len(back) == len(a)
        assert np.array_equal(a.p1, back.p1)
        assert np.array_equal(a.p2, back.p2)
        assert np.array_equal(a.side, back.side)
        assert np.array_equal(a.labels, back.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        data = Matches(np.array([[1.5, 2.5]]), np.array([[3.5, 4.5]]), np.array([0.25]))
        path = tmp_path / "m.txt"
        write_matches(path, data)
        back = read_matches(path)
        assert back.labels is None

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("x1 y1 x2 y2 side_info\n1 2 3 4 0.5\n1 2 3\n")
        with pytest.raises(FileFormatError, match="row 3"):
            read_matches(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("x1 y1 x2 y2 side_info\n1 nan 3 4 0.5\n")
        with pytest.raises(FileFormatError, match="non-finite"):
            read_matches(path)

    @pytest.mark.parametrize("side", ["1.5", "-0.25"])
    def test_side_info_out_of_range_names_row(self, tmp_path, side):
        path = tmp_path / "m.txt"
        path.write_text(f"x1 y1 x2 y2 side_info\n1 2 3 4 0.5\n1 2 3 4 {side}\n")
        with pytest.raises(FileFormatError, match=r"m\.txt: row 3: side_info must be in \[0, 1\]"):
            read_matches(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a b c\n")
        with pytest.raises(FileFormatError, match="header"):
            read_matches(path)


class TestCalibrationAndPose:
    def test_calibration_round_trip(self, tmp_path):
        k1 = CameraIntrinsics(612.25, 598.5, 320.0, 240.0)
        k2 = CameraIntrinsics(701.0, 699.5, 310.5, 251.25)
        path = tmp_path / "calib.txt"
        write_calibration(path, k1, k2)
        r1, r2 = read_calibration(path)
        assert (r1.fx, r1.fy, r1.cx, r1.cy) == (k1.fx, k1.fy, k1.cx, k1.cy)
        assert (r2.fx, r2.fy, r2.cx, r2.cy) == (k2.fx, k2.fy, k2.cx, k2.cy)

    def test_skewed_matrix_rejected(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("600 5 320 0 600 240 0 0 1\n600 0 320 0 600 240 0 0 1\n")
        with pytest.raises(FileFormatError, match="zero-skew"):
            read_calibration(path)

    def test_pose_round_trip(self, tmp_path):
        pose = RelativePose(
            rodrigues(np.array([0.1, -0.2, 0.3])), np.array([0.48, -0.6, 0.64])
        )
        path = tmp_path / "pose.txt"
        write_pose(path, pose)
        back = read_pose(path)
        assert np.array_equal(back.rotation, pose.rotation)
        assert np.array_equal(back.translation, pose.translation)

    def test_non_unit_translation_rejected(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_text("1 0 0 0 1 0 0 0 1\n1 1 0\n")
        with pytest.raises(FileFormatError, match="unit"):
            read_pose(path)


class TestDatasets:
    def test_pair_round_trip(self, tmp_path, pair):
        write_pair(tmp_path, pair)
        back = read_pair(tmp_path, pair.name)
        assert len(back.matches) == len(pair.matches)
        assert np.array_equal(back.pose.rotation, pair.pose.rotation)
        assert back.k1.fx == pair.k1.fx

    def test_manifest_round_trip(self, tmp_path):
        names = [f"pair_{i:04d}" for i in range(5)]
        write_manifest(tmp_path / "manifest.txt", names)
        assert read_manifest(tmp_path / "manifest.txt") == names

    def test_manifest_count_mismatch(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("caransac-dataset 1\npairs 3\nonly_one\n")
        with pytest.raises(FileFormatError, match="manifest"):
            read_manifest(tmp_path / "manifest.txt")

    def test_dataset_round_trip(self, tmp_path, pair):
        pair.name = "pair_0000"
        write_pair(tmp_path, pair)
        write_manifest(tmp_path / "manifest.txt", ["pair_0000"])
        back = read_dataset(tmp_path)
        assert len(back) == 1
        assert back[0].name == "pair_0000"


class TestReport:
    def test_round_trip_with_pose(self, tmp_path, pair):
        report = Report(
            kind="fundamental",
            model=np.arange(9, dtype=float).reshape(3, 3) / 10.0,
            pose=pair.pose,
            per_batch_best_score=[1.5, 2.5],
            inlier_probs=np.array([0.1, 0.9, 0.5]),
        )
        path = tmp_path / "report.txt"
        write_report(path, report)
        back = read_report(path)
        assert np.array_equal(back.model, report.model)
        assert np.array_equal(back.pose.rotation, report.pose.rotation)
        assert back.per_batch_best_score == report.per_batch_best_score
        assert np.array_equal(back.inlier_probs, report.inlier_probs)

    def test_round_trip_without_pose(self, tmp_path):
        report = Report("essential", np.eye(3) / np.sqrt(3), None, [0.5], np.array([0.5]))
        path = tmp_path / "report.txt"
        write_report(path, report)
        back = read_report(path)
        assert back.pose is None
        assert back.kind == "essential"

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("hello\n")
        with pytest.raises(FileFormatError):
            read_report(path)


    @pytest.mark.parametrize(
        "row, replacement, message",
        [
            (5, "0.0 1.0 2.0 3.0", "row 5: expected 3 model entries, found 4"),
            (7, "pose_rotation 1 1 1 1 1 1 1 1 1", "row 7: rotation must be orthonormal"),
            (7, "pose_rotation 1 0 0 0 1 0 0 0", "row 7: expected 9 rotation entries, found 8"),
            (8, "pose_translation 0.0 0.0 0.0", "row 8: translation must be a unit vector"),
        ],
        ids=["model_row_4_values", "rotation_not_orthonormal", "rotation_8_values", "zero_translation"],
    )
    def test_malformed_rows_named(self, tmp_path, pair, row, replacement, message):
        report = Report("essential", np.eye(3) / np.sqrt(3), pair.pose, [0.5], np.array([0.5]))
        path = tmp_path / "report.txt"
        write_report(path, report)
        lines = path.read_text().splitlines()
        lines[row - 1] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=rf"report\.txt: {message}"):
            read_report(path)


class TestRunConfig:
    def test_parse_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nbatches = 2\nthreshold_px = 2.0\n\nseed = 7\n")
        assert read_config(path) == {"batches": "2", "threshold_px": "2.0", "seed": "7"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(FileFormatError, match="unknown key"):
            read_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batches 2\n")
        with pytest.raises(FileFormatError, match="key = value"):
            read_config(path)
