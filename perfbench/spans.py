"""Spans and counts around the public functions of every pianomotion module.

Nothing under src/ is edited: `Tracer.install` replaces each traced
function in every namespace that holds it (the defining module and each
module that imported it by name), and methods on their class, so callers
reach the wrapper through the same lookup they already make.  Spans
(id, name, start, end, parent id) stay in memory until `dump`.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

# Per layer (module): the public functions whose calls, busy time and self
# time the traced run reports.  Dotted names are methods.
LAYERS = {
    "reconstruction": ["triangulate_observations", "ransac_triangulate",
                       "smooth_trajectory", "fit_skeleton"],
    "hand": ["fk_jacobian", "tip_jacobian", "forward_kinematics", "clip_fingertips",
             "finite_diff_velocities", "MotionClip.from_json", "MotionClip.to_json"],
    "midi_ik": ["detect_press_errors", "ik_targets", "refine"],
    "keyboard": ["extract_pressed", "key_depths"],
    "metrics": ["clip_metrics"],
    "rewards": ["evaluate_rewards", "segment_fingering", "goal_state", "pose_state"],
    "midi": ["parse_midi", "quantize", "matrix_from_json", "matrix_to_json"],
    "retrieval": ["build_index", "WindowIndex.save", "WindowIndex.load", "retrieve",
                  "merge_segments"],
}
# Traced for a count only (their time is inside a span listed above).
COUNTED = {"rewards": ["assign_fingering"]}
CLI_STAGES = ["quantize", "triangulate", "fit", "refine", "eval", "extract-press",
              "goalstate", "reward", "index", "retrieve"]


def _fit_pre(tracer, args, kwargs):
    return tracer.calls("hand.fk_jacobian")


def _fit_post(tracer, args, kwargs, result, jac_at_entry):
    c = tracer.counts
    c["fit.jacobians"] += tracer.calls("hand.fk_jacobian") - jac_at_entry
    c["fit.hand_frames"] += int((~np.asarray(result.copied)).sum())
    rms = np.asarray(result.residual_rms, dtype=float)
    tracer.samples["fit.residual_mm"].extend((rms[np.isfinite(rms)] * 1e3).tolist())


def _ransac_post(tracer, args, kwargs, result, _):
    c = tracer.counts
    c["ransac.attempted"] += 1
    if result.valid:
        views = kwargs.get("valid")
        n_views = int(np.sum(views)) if views is not None else len(result.inliers)
        c["ransac.valid"] += 1
        c["ransac.views_rejected"] += n_views - int(np.sum(result.inliers))
        c["ransac.ambiguous"] += int(bool(result.ambiguous))


def _fingertips_post(tracer, args, kwargs, result, _):
    tracer.counts["clip_fingertips.frames"] += len(result)


def _refine_pre(tracer, args, kwargs):
    return tracer.calls("hand.tip_jacobian")


def _refine_post(tracer, args, kwargs, result, jac_at_entry):
    c = tracer.counts
    problem = args[0]
    c["refine.jacobians"] += tracer.calls("hand.tip_jacobian") - jac_at_entry
    c["refine.target_frames"] += int(np.asarray(problem.targets.mask).any(axis=1).sum())
    c["refine.epochs"] += max(0, len(result.loss_curve) - 1)
    c["refine.targets"] += result.n_targets


def _retrieve_post(tracer, args, kwargs, result, _):
    index = args[0]
    tracer.counts["retrieve.window_pairs"] += len(result.matches) * index.n_windows


def _merge_post(tracer, args, kwargs, result, _):
    tracer.counts["merge_segments.segments"] += len(result)


HOOKS = {
    "reconstruction.fit_skeleton": (_fit_pre, _fit_post),
    "reconstruction.ransac_triangulate": (None, _ransac_post),
    "hand.clip_fingertips": (None, _fingertips_post),
    "midi_ik.refine": (_refine_pre, _refine_post),
    "retrieval.retrieve": (None, _retrieve_post),
    "retrieval.merge_segments": (None, _merge_post),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []            # (span id, name index, start, end, parent id)
        self.stats = {}            # name -> [calls, busy s, self s]
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack = []           # [span id, child seconds] of open spans
        self._next_id = 0
        self._undo = []

    def calls(self, name):
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def _wrap(self, name, fn):
        name_idx = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        pre, post = HOOKS.get(name, (None, None))
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            state = pre(self, args, kwargs) if pre else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                spans.append((span_id, name_idx, start, end,
                              parent[0] if parent is not None else -1))
            if post:
                post(self, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, package, module, attr, name):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(name, original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(package):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, module, cls_name, attr, name):
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def install(self):
        """Wrap every traced function of the pianomotion package."""
        import importlib
        for layer, funcs in list(LAYERS.items()) + list(COUNTED.items()):
            module = importlib.import_module("pianomotion." + layer)
            for func in funcs:
                name = "%s.%s" % (layer, func)
                if "." in func:
                    self._patch_method(module, *func.split("."), name)
                else:
                    self._patch_function("pianomotion", module, func, name)
        cli = importlib.import_module("pianomotion.cli")
        for stage in CLI_STAGES:
            self._patch_function("pianomotion.cli", cli,
                                 "cmd_" + stage.replace("-", "_"), "cli." + stage)

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def layer_metrics(self):
        """Per-function calls, busy and self seconds plus the derived counts."""
        out = {}
        for layer, funcs in LAYERS.items():
            for func in funcs:
                calls, busy, self_s = self.stats.get("%s.%s" % (layer, func), (0, 0.0, 0.0))
                key = "%s.%s" % (layer, func)
                out[key + ".calls"] = (calls, "count")
                out[key + ".s"] = (busy, "s")
                out[key + ".self_s"] = (self_s, "s")
        for stage in CLI_STAGES:
            out["cli.%s.self_s" % stage] = (self.stats.get("cli." + stage, (0, 0, 0.0))[2], "s")
        c = self.counts
        out["reconstruction.ransac_triangulate.valid_frac"] = (
            c["ransac.valid"] / max(1.0, c["ransac.attempted"]), "ratio")
        out["reconstruction.ransac_triangulate.views_rejected"] = (c["ransac.views_rejected"], "count")
        out["reconstruction.ransac_triangulate.ambiguous"] = (c["ransac.ambiguous"], "count")
        out["reconstruction.fit_skeleton.jac_per_hand_frame"] = (
            c["fit.jacobians"] / max(1.0, c["fit.hand_frames"]), "ratio")
        res = self.samples["fit.residual_mm"]
        out["reconstruction.fit_skeleton.residual_mm_p50"] = (
            float(np.median(res)) if res else 0.0, "mm")
        out["hand.clip_fingertips.frames"] = (c["clip_fingertips.frames"], "count")
        out["midi_ik.refine.epochs"] = (c["refine.epochs"], "count")
        out["midi_ik.refine.loss_evals"] = (
            c["refine.jacobians"] / max(1.0, 2.0 * c["refine.target_frames"]), "count")
        out["midi_ik.refine.targets"] = (c["refine.targets"], "count")
        out["rewards.assign_fingering.calls"] = (self.calls("rewards.assign_fingering"), "count")
        busy = self.stats.get("retrieval.retrieve", (0, 0.0, 0.0))[1]
        out["retrieval.retrieve.window_pairs"] = (c["retrieve.window_pairs"], "count")
        out["retrieval.retrieve.pairs_per_s"] = (
            c["retrieve.window_pairs"] / busy if busy else 0.0, "1/s")
        out["retrieval.merge_segments.segments"] = (c["merge_segments.segments"], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "names": self.names, "spans": self.spans}, fh)
