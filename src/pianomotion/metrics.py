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
from typing import Iterable, Sequence

import numpy as np

from . import keyboard as kb
from .hand import MotionClip, SkeletonPair, clip_fingertips
from .keyboard import KeyboardGeometry
from .midi import KeyMatrix


def frame_prf(pred: Iterable[int], truth: Iterable[int]):
    """Precision, recall, F1 for one frame, as fractions in [0, 1].

    Follows the usual set conventions: a frame where both sets are empty
    scores (1, 1, 1); an empty denominator otherwise scores 0 for that
    component, and F1 is 0 whenever precision + recall is 0.
    """
    pred = set(pred)
    truth = set(truth)
    if not pred and not truth:
        return 1.0, 1.0, 1.0
    tp = len(pred & truth)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(truth) if truth else 0.0
    f1 = 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0
    return p, r, f1


def _frame_sets(obj) -> list:
    if isinstance(obj, KeyMatrix):
        return [obj.keys_at(i) for i in range(obj.n_frames)]
    return [set(fr) for fr in obj]


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

    Both arguments are KeyMatrix instances or sequences of per-frame key
    collections; they must cover the same number of frames.  When
    skip_vacuous is set, frames where both sets are empty are excluded from
    the averages instead of counting as perfect.
    """
    pred_sets = _frame_sets(pred)
    truth_sets = _frame_sets(truth)
    if len(pred_sets) != len(truth_sets):
        raise ValueError("frame count mismatch: %d vs %d"
                         % (len(pred_sets), len(truth_sets)))
    n = len(pred_sets)
    if n == 0:
        raise ValueError("cannot score an empty clip")

    per_frame = np.full((n, 3), np.nan)
    scored = 0
    for i, (ps, ts) in enumerate(zip(pred_sets, truth_sets)):
        if skip_vacuous and not ps and not ts:
            continue
        per_frame[i] = frame_prf(ps, ts)
        scored += 1
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
