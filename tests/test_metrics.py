"""Press-accuracy scoring: per-frame precision/recall/F1 and clip reports."""

import json

import numpy as np
import pytest

import _synth
from pianomotion import hand, metrics, midi


def rows(*frames):
    """(len(frames), 88) key flags from per-frame key sets."""
    return _synth.matrix_from_frames(frames).data.astype(bool)


def test_frame_prf_partial_overlap():
    p, r, f1 = metrics.frame_prf(rows({40, 42})[0], rows({40, 44, 45})[0])
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(1.0 / 3.0)
    assert f1 == pytest.approx(0.4)  # 2 * (1/2) * (1/3) / (5/6)


def test_frame_prf_conventions():
    pred = rows(set(), {40}, set(), {40}, {40})
    truth = rows(set(), set(), {40}, {40}, {41})
    assert metrics.frame_prf(pred, truth).tolist() == [
        [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]


def test_score_matrices_averages_per_frame():
    # Frame 0: exact. Frame 1: one of three predictions is right.
    pred = rows({40}, {40, 42, 44})
    truth = rows({40}, {40})
    report = metrics.score_matrices(pred, truth)
    assert report.precision == pytest.approx((1.0 + 1.0 / 3.0) / 2.0 * 100.0)
    assert report.recall == pytest.approx(100.0)
    # Per-frame F1 values are 1 and 0.5; their mean is 75, which differs
    # from the harmonic mean of the averaged precision and recall (80).
    assert report.f1 == pytest.approx(75.0)
    assert report.n_frames == 2
    assert report.n_scored_frames == 2


def test_score_matrices_accepts_key_matrices(rng):
    data = (rng.random((12, 88)) < 0.15).astype(np.uint8)
    matrix = midi.KeyMatrix(60.0, data)
    report_a = metrics.score_matrices(matrix, data.astype(bool))
    report_b = metrics.score_matrices(data, matrix)
    assert report_a.f1 == 100.0
    assert report_b.f1 == 100.0
    assert np.array_equal(report_a.per_frame, report_b.per_frame)


def test_score_matrices_skip_vacuous():
    pred = rows(set(), {40}, set())
    truth = rows(set(), {41}, set())
    full = metrics.score_matrices(pred, truth)
    skipped = metrics.score_matrices(pred, truth, skip_vacuous=True)
    assert full.f1 == pytest.approx(200.0 / 3.0)
    assert full.n_scored_frames == 3
    assert skipped.f1 == 0.0
    assert skipped.n_scored_frames == 1
    assert np.isnan(skipped.per_frame[0]).all()


def test_score_matrices_errors():
    with pytest.raises(ValueError, match="mismatch"):
        metrics.score_matrices(rows({40}), rows({40}, {41}))
    with pytest.raises(ValueError, match="empty"):
        metrics.score_matrices(np.zeros((0, 88)), np.zeros((0, 88)))
    with pytest.raises(ValueError, match="vacuous"):
        metrics.score_matrices(rows(set()), rows(set()), skip_vacuous=True)
    with pytest.raises(ValueError, match="88"):
        metrics.score_matrices([{40}], [{40}])


def test_report_json_fields():
    report = metrics.score_matrices(rows({40}), rows({40}))
    payload = json.loads(report.to_json())
    assert payload == {
        "precision": 100.0,
        "recall": 100.0,
        "f1": 100.0,
        "n_frames": 1,
        "n_scored_frames": 1,
    }


def test_extracted_presses_reads_fingertips(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    chord = _synth.pressing_pose(geom, skeletons, {8: 40, 7: 42, 6: 44},
                                 center_key=42)
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, chord)])
    presses = metrics.extracted_presses(clip, skeletons, geom)
    assert [presses.keys_at(f) for f in range(presses.n_frames)] == [{40}, {40, 42, 44}]


def test_clip_metrics_end_to_end(geom, skeletons):
    press = _synth.pressing_pose(geom, skeletons, {7: 40})
    hover = _synth.hover_pose(geom, 1, 40)
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press), (parked, hover)])
    truth = _synth.matrix_from_frames([{40}, {40}], fps=60.0)
    report = metrics.clip_metrics(clip, skeletons, geom, truth)
    # Frame 0 scores (1, 1, 1); frame 1 misses the held note entirely.
    assert report.precision == pytest.approx(50.0)
    assert report.recall == pytest.approx(50.0)
    assert report.f1 == pytest.approx(50.0)


def test_clip_metrics_rejects_fps_mismatch(geom, skeletons):
    pose = _synth.hover_pose(geom, 1, 40)
    clip = _synth.pose_clip(60.0, [(pose, pose)])
    truth = _synth.matrix_from_frames([set()], fps=59.94)
    with pytest.raises(ValueError, match="fps"):
        metrics.clip_metrics(clip, skeletons, geom, truth)


def test_clip_metrics_respects_activation_depth(geom, skeletons):
    # A 5 mm press clears a 4 mm activation threshold but not 6 mm.
    press = _synth.pressing_pose(geom, skeletons, {7: 40}, depth={7: 0.005})
    parked = _synth.parked_pose(0)
    clip = _synth.pose_clip(60.0, [(parked, press)])
    truth = _synth.matrix_from_frames([{40}], fps=60.0)
    deep = metrics.clip_metrics(clip, skeletons, geom, truth,
                                activation_depth=0.006)
    shallow = metrics.clip_metrics(clip, skeletons, geom, truth,
                                   activation_depth=0.004)
    assert deep.recall == 0.0
    assert shallow.recall == 100.0
