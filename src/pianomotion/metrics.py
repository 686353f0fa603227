"""Frame-level precision/recall/F1 between predicted and reference key presses.

Scores are computed per frame on the sets of pressed keys and then averaged
arithmetically over frames.  Because the F1 average is the mean of per-frame
F1 values, it is generally NOT the harmonic mean of the averaged precision
and recall; reporting both conventions side by side is a common source of
confusion, so this module only ever averages per-frame values.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import keyboard as kb
from .hand import MotionClip, SkeletonPair, clip_fingertips
from .keyboard import KeyboardGeometry
from .midi import NUM_KEYS, KeyMatrix


def frame_prf(pred, truth) -> np.ndarray:
    """Precision, recall and F1 of (..., 88) boolean key rows, as (..., 3)
    fractions in [0, 1].

    Follows the usual set conventions: a frame where both rows are empty
    scores (1, 1, 1); an empty denominator otherwise scores 0 for that
    component, and F1 is 0 whenever precision + recall is 0.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    tp = np.count_nonzero(pred & truth, axis=-1)
    n_pred = np.count_nonzero(pred, axis=-1)
    n_truth = np.count_nonzero(truth, axis=-1)
    p = np.where(n_pred > 0, tp / np.maximum(n_pred, 1), 0.0)
    r = np.where(n_truth > 0, tp / np.maximum(n_truth, 1), 0.0)
    s = p + r
    f1 = np.where(s > 0.0, 2.0 * p * r / np.where(s > 0.0, s, 1.0), 0.0)
    vacuous = (n_pred == 0) & (n_truth == 0)
    return np.where(vacuous[..., None], 1.0, np.stack([p, r, f1], axis=-1))


@dataclasses.dataclass(eq=False)
class MetricReport:
    """Averaged frame metrics on a percent scale, plus per-frame detail."""

    precision: float
    recall: float
    f1: float
    n_frames: int
    n_scored_frames: int
    per_frame: np.ndarray      # (n_frames, 3) fractions; NaN rows were skipped

    def to_json_obj(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n_frames": self.n_frames,
            "n_scored_frames": self.n_scored_frames,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))


def score_matrices(pred, truth, skip_vacuous: bool = False) -> MetricReport:
    """Score a predicted press sequence against a reference one.

    Both arguments are KeyMatrix instances or (F, 88) arrays of key flags;
    they must cover the same number of frames.  When skip_vacuous is set,
    frames where both rows are empty are excluded from the averages instead
    of counting as perfect.
    """
    pred, truth = (np.asarray(m.data if isinstance(m, KeyMatrix) else m,
                              dtype=bool) for m in (pred, truth))
    for rows in (pred, truth):
        if rows.ndim != 2 or rows.shape[1] != NUM_KEYS:
            raise ValueError("expected (frames, 88) key rows, got shape %s"
                             % (rows.shape,))
    if len(pred) != len(truth):
        raise ValueError("frame count mismatch: %d vs %d"
                         % (len(pred), len(truth)))
    n = len(pred)
    if n == 0:
        raise ValueError("cannot score an empty clip")

    per_frame = frame_prf(pred, truth)
    if skip_vacuous:
        per_frame[~pred.any(axis=1) & ~truth.any(axis=1)] = np.nan
    scored = int(np.count_nonzero(~np.isnan(per_frame[:, 0])))
    if scored == 0:
        raise ValueError("no scorable frames (all frames vacuous)")
    means = np.nanmean(per_frame, axis=0)
    return MetricReport(
        precision=float(means[0]) * 100.0,
        recall=float(means[1]) * 100.0,
        f1=float(means[2]) * 100.0,
        n_frames=n,
        n_scored_frames=scored,
        per_frame=per_frame,
    )


def extracted_presses(clip: MotionClip, skeletons: SkeletonPair,
                      geom: KeyboardGeometry,
                      activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH) -> KeyMatrix:
    """The keys the clip's fingertips press, frame by frame."""
    return KeyMatrix(clip.fps, kb.pressed_keys(
        geom, clip_fingertips(clip, skeletons), activation_depth))


def clip_metrics(clip: MotionClip, skeletons: SkeletonPair,
                 geom: KeyboardGeometry, midi: KeyMatrix,
                 activation_depth: float = kb.DEFAULT_ACTIVATION_DEPTH,
                 skip_vacuous: bool = False) -> MetricReport:
    """Score a motion clip's extracted key presses against a key matrix."""
    midi.check_clip(clip)
    pred = extracted_presses(clip, skeletons, geom, activation_depth)
    return score_matrices(pred, midi, skip_vacuous=skip_vacuous)
