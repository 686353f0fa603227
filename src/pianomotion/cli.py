"""Command-line pipeline: MIDI processing, reconstruction, refinement, eval.

Every subcommand reads explicit input files, validates them, and writes its
outputs atomically (temp file + rename), so interrupted runs never leave a
half-written artifact.  All randomized stages take explicit seeds and the
same inputs always produce byte-identical outputs.  Exit codes: 0 success,
1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import tempfile
import zipfile

import numpy as np

from . import hand, keyboard, metrics, midi, midi_ik, reconstruction
from . import retrieval, rewards

CONFIG_ENV = "PIANOMOTION_CONFIG"

# Defaults for every tunable reachable from the command line or the config
# file.  A config file may override any subset; flags win over the config.
_DEFAULTS = {
    "fps": midi.DEFAULT_FPS,
    "keyboard": None,
    "skeleton": None,
    "seed": 0,
    "tolerance": midi.DEFAULT_SYNC_TOLERANCE,
    "span": midi.DEFAULT_GRID_SPAN,
    "step": midi.DEFAULT_GRID_STEP,
    "mode": "constant",
    "reproj_threshold": reconstruction.DEFAULT_REPROJ_THRESHOLD,
    "ransac_iters": reconstruction.DEFAULT_RANSAC_ITERS,
    "cutoff": reconstruction.DEFAULT_CUTOFF_HZ,
    "order": reconstruction.DEFAULT_FILTER_ORDER,
    "max_gap": reconstruction.DEFAULT_MAX_GAP,
    "max_iter": reconstruction.DEFAULT_FIT_ITERS,
    "limit_weight": 0.0,
    "activation_depth": keyboard.DEFAULT_ACTIVATION_DEPTH,
    "smoothness": midi_ik.DEFAULT_SMOOTHNESS,
    "epochs": midi_ik.DEFAULT_EPOCHS,
    "exit_clearance": midi_ik.DEFAULT_EXIT_CLEARANCE,
    "press_margin": midi_ik.DEFAULT_PRESS_MARGIN,
    "max_displacement": midi_ik.DEFAULT_MAX_DISPLACEMENT,
    "window_len": retrieval.DEFAULT_WINDOW_LEN,
    "stride": retrieval.DEFAULT_STRIDE,
    "energy_sign": -1.0,
    "skip_vacuous": False,
}

_CONFIG_CHOICES = {"mode": ("constant", "decaying"),
                   "energy_sign": (-1.0, 1.0)}
# What a config value must be, by the type of its field's default (NaN
# fails the finite number's comparison).
_CONFIG_KINDS = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float)
            and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: type(v) is str),
    type(None): ("a string or null", lambda v: v is None or type(v) is str)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError("cannot read %s: %s" % (path, exc))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError("cannot read %s: %s" % (path, exc))


def _atomic_write(path: str, data) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, mode, **({} if mode == "wb"
                                        else {"newline": "\n"})) as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError("cannot write %s: %s" % (path, exc))


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            obj = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ValueError("config %s is not valid JSON: %s" % (path, exc))
        if not isinstance(obj, dict):
            raise ValueError("config %s must be a JSON object" % path)
        for key, value in obj.items():
            if key not in _DEFAULTS:
                raise ValueError("config %s: unknown field %r" % (path, key))
            kind, ok = _CONFIG_KINDS[type(_DEFAULTS[key])]
            if not ok(value):
                raise ValueError("config %s: field %r must be %s"
                                 % (path, key, kind))
            if key in _CONFIG_CHOICES and value not in _CONFIG_CHOICES[key]:
                raise ValueError("config %s: field %r must be one of %s"
                                 % (path, key, _CONFIG_CHOICES[key]))
            cfg[key] = value
    return cfg


def _get(args, cfg: dict, key: str):
    value = getattr(args, key, None)
    return cfg[key] if value is None else value


def _get_fps(args, cfg: dict):
    fps = _get(args, cfg, "fps")          # _load_config checked its type
    if not 0 < fps < np.inf:
        raise ValueError("fps must be a finite positive number, got %r"
                         % (fps,))
    return fps


def _parse(what: str, path: str, parse):
    """parse(the text of path); a malformed file is a validation error."""
    text = _read_text(path)
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError("%s %s: %s" % (what, path, exc))


def _load_keyboard(args, cfg) -> keyboard.KeyboardGeometry:
    path = _get(args, cfg, "keyboard")
    return keyboard.build_keyboard(None if path is None else _parse(
        "keyboard config", path, keyboard.KeyboardConfig.from_json))


def _load_skeletons(args, cfg) -> hand.SkeletonPair:
    path = _get(args, cfg, "skeleton")
    if path is None:
        return hand.SkeletonPair.default()
    return _parse("skeleton config", path, hand.SkeletonPair.from_json)


def _load_clip(path: str) -> hand.MotionClip:
    return _parse("motion clip", path, hand.MotionClip.from_json)


def _load_notes(path: str, data: bytes | None = None) -> midi.NoteList:
    """Parse a MIDI file, from its bytes when the caller already read them."""
    if data is None:
        data = _read_bytes(path)
    try:
        return midi.parse_midi(data, source=path)
    except midi.MidiParseError as exc:
        raise ValueError("%s: %s" % (path, exc))


def _load_key_matrix(path: str, fps: float) -> midi.KeyMatrix:
    """Load a key matrix from a MIDI file or a matrix JSON file.

    MIDI files are quantized at the given fps; matrix files carry their
    own fps, which must agree.
    """
    data = _read_bytes(path)
    if data[:4] == b"MThd":
        notes = _load_notes(path, data)
        n_frames = max(1, int(np.ceil(notes.duration() * fps)))
        return midi.quantize(notes, fps, n_frames)
    try:
        matrix = midi.matrix_from_json(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError("%s: %s" % (path, exc))
    if not isinstance(matrix, midi.KeyMatrix):
        raise ValueError(
            "%s: need a binary key matrix, got a condition matrix" % path)
    if abs(matrix.fps - fps) > 1e-9:
        raise ValueError("%s: matrix fps %g does not match clip fps %g"
                         % (path, matrix.fps, fps))
    return matrix


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --------------------------------------------------------------------------
# Subcommands


def cmd_quantize(args, cfg):
    fps = _get_fps(args, cfg)
    notes = _load_notes(args.midi)
    n_frames = args.frames or max(1, int(np.ceil(notes.duration() * fps)))
    matrix = midi.quantize(notes, fps, n_frames)
    if args.dry_run:
        return 0
    text = midi.matrix_to_json(matrix) + "\n"
    _emit(args, text)
    if args.csv:
        _atomic_write(args.csv, midi.matrix_to_csv(matrix))
    return 0


def cmd_condition(args, cfg):
    fps = _get_fps(args, cfg)
    mode = _get(args, cfg, "mode")
    notes = _load_notes(args.midi)
    n_frames = args.frames or max(1, int(np.ceil(notes.duration() * fps)))
    matrix = midi.condition_matrix(notes, fps, n_frames, mode=mode)
    if args.dry_run:
        return 0
    _emit(args, midi.matrix_to_json(matrix) + "\n")
    return 0


def cmd_sync(args, cfg):
    notes_a = _load_notes(args.a)
    notes_b = _load_notes(args.b)
    tol = _get(args, cfg, "tolerance")
    grid = midi.offset_grid(_get(args, cfg, "span"), _get(args, cfg, "step"))
    if args.dry_run:
        return 0
    offset, count = midi.find_offset(notes_a, notes_b, grid, tol)
    _emit(args, _dump({"offset": offset, "matches": count,
                       "notes_a": len(notes_a), "notes_b": len(notes_b)}))
    return 0


def cmd_triangulate(args, cfg):
    rig = _parse("cameras", args.cameras, reconstruction.CameraRig.from_json)
    obs = _parse("keypoints", args.keypoints, lambda text: (
        reconstruction.KeypointObservations.from_csv(text, rig.image_size)
        if args.keypoints.endswith(".csv")
        else reconstruction.KeypointObservations.from_json(text)))
    fps = _get_fps(args, cfg)
    max_iters = _get(args, cfg, "ransac_iters")
    reconstruction.check_triangulation(obs.n_views, rig, max_iters)
    if not args.no_filter:
        reconstruction.check_filter(_get(args, cfg, "cutoff"), fps,
                                    _get(args, cfg, "order"))
    if args.dry_run:
        return 0
    result = reconstruction.triangulate_observations(
        obs, rig, fps,
        reproj_threshold=_get(args, cfg, "reproj_threshold"),
        max_iters=max_iters, seed=_get(args, cfg, "seed"))
    traj = result.trajectory
    if not args.no_filter:
        traj = reconstruction.smooth_trajectory(
            traj, cutoff_hz=_get(args, cfg, "cutoff"),
            order=_get(args, cfg, "order"),
            max_gap=_get(args, cfg, "max_gap"))
    _emit(args, traj.to_json() + "\n")
    if args.report:
        res = result.ransac
        rejected = obs.valid.sum(axis=1) - res.inliers.sum(axis=-1)
        shown = res.valid & np.isfinite(res.residual)
        _atomic_write(args.report, _dump({
            "n_frames": obs.n_frames,
            "valid_points": int(res.valid.sum()),
            "views_rejected": int(rejected[res.valid].sum()),
            "ambiguous": int(res.ambiguous.sum()),
            "consensus_points": int(res.consensus.sum()),
            "residual_px": np.where(shown, res.residual, None).tolist(),
        }))
    return 0


def cmd_fit(args, cfg):
    traj = _parse("trajectory", args.trajectory,
                  reconstruction.JointTrajectory.from_json)
    skeletons = _load_skeletons(args, cfg)
    init = _load_clip(args.init) if args.init else None
    reconstruction.check_fit(traj.n_frames, init,
                             _get(args, cfg, "limit_weight"))
    if args.dry_run:
        return 0
    result = reconstruction.fit_skeleton(
        traj, skeletons, init=init,
        max_iter=_get(args, cfg, "max_iter"),
        soft_limit_weight=_get(args, cfg, "limit_weight"))
    _emit(args, result.clip.to_json() + "\n")
    if args.report:
        rms = result.residual_rms
        _atomic_write(args.report, _dump({
            "n_frames": result.clip.n_frames,
            "copied_frames": int(result.copied.sum()),
            "residual_rms": np.where(np.isfinite(rms), rms, None).tolist(),
            "iterations": np.where(result.copied, None,
                                   result.iterations).tolist(),
            "stop": result.stop.tolist(),
        }))
    return 0


def cmd_refine(args, cfg):
    clip = _load_clip(args.clip)
    skeletons = _load_skeletons(args, cfg)
    geom = _load_keyboard(args, cfg)
    matrix = _load_key_matrix(args.midi, clip.fps)
    matrix.check_clip(clip)
    keyboard.check_activation_depth(geom, _get(args, cfg, "activation_depth"))
    midi_ik.check_refine(_get(args, cfg, "smoothness"),
                         _get(args, cfg, "epochs"))
    if args.dry_run:
        return 0
    try:
        result, before, after = midi_ik.refine_to_midi(
            clip, skeletons, geom, matrix,
            activation_depth=_get(args, cfg, "activation_depth"),
            smoothness=_get(args, cfg, "smoothness"),
            epochs=_get(args, cfg, "epochs"),
            exit_clearance=_get(args, cfg, "exit_clearance"),
            press_margin=_get(args, cfg, "press_margin"),
            max_displacement=_get(args, cfg, "max_displacement"))
    except (RuntimeError, FloatingPointError) as exc:
        # The displacement guard, and numpy errors where np.seterr raises.
        raise ValueError("refinement failed: %s" % exc)
    _emit(args, result.clip.to_json() + "\n")
    if args.report:
        report = result.report_obj()
        report["errors_before"] = int(np.count_nonzero(before))
        report["errors_after"] = int(np.count_nonzero(after))
        _atomic_write(args.report, _dump(report))
    return 0


def cmd_extract_press(args, cfg):
    clip = _load_clip(args.clip)
    skeletons = _load_skeletons(args, cfg)
    geom = _load_keyboard(args, cfg)
    keyboard.check_activation_depth(geom, _get(args, cfg, "activation_depth"))
    if args.dry_run:
        return 0
    pressed = metrics.extracted_presses(
        clip, skeletons, geom, _get(args, cfg, "activation_depth"))
    _emit(args, midi.matrix_to_json(pressed) + "\n")
    return 0


def cmd_eval(args, cfg):
    clip = _load_clip(args.clip)
    skeletons = _load_skeletons(args, cfg)
    geom = _load_keyboard(args, cfg)
    matrix = _load_key_matrix(args.midi, clip.fps)
    matrix.check_clip(clip)
    keyboard.check_activation_depth(geom, _get(args, cfg, "activation_depth"))
    if args.dry_run:
        return 0
    report = metrics.clip_metrics(
        clip, skeletons, geom, matrix,
        activation_depth=_get(args, cfg, "activation_depth"),
        skip_vacuous=bool(_get(args, cfg, "skip_vacuous")))
    _emit(args, report.to_json() + "\n")
    if args.per_frame:
        lines = ["frame,precision,recall,f1"]
        for f, row in enumerate(report.per_frame):
            if np.any(np.isnan(row)):
                lines.append("%d,,," % f)
            else:
                lines.append("%d,%r,%r,%r" % (f, *map(float, row)))
        _atomic_write(args.per_frame, "\n".join(lines) + "\n")
    return 0


def cmd_index(args, cfg):
    fps = _get_fps(args, cfg)
    dataset = []
    for path in args.dataset:
        name = os.path.splitext(os.path.basename(path))[0]
        matrix = _load_key_matrix(path, fps)
        dataset.append((name, matrix))
    index = retrieval.build_index(dataset,
                                  window_len=int(_get(args, cfg, "window_len")),
                                  stride=int(_get(args, cfg, "stride")))
    if args.dry_run:
        return 0
    archive = io.BytesIO()
    index.save(archive)
    _atomic_write(args.output, archive.getvalue())
    return 0


def cmd_retrieve(args, cfg):
    try:
        index = retrieval.WindowIndex.load(args.index)
    except (OSError, zipfile.BadZipFile) as exc:
        raise OSError("cannot read index %s: %s" % (args.index, exc))
    except (KeyError, ValueError) as exc:
        raise ValueError("index %s is not a frame index (%s); rebuild it "
                         "with `pianomotion index`" % (args.index, exc))
    query = _load_key_matrix(args.query, _get_fps(args, cfg))
    if args.dry_run:
        return 0
    result = retrieval.retrieve(index, query)
    segments = retrieval.merge_segments(result, index)
    payload = {
        "window_len": index.window_len,
        "stride": index.stride,
        "n_query_windows": len(result.matches),
        "segments": [s.to_json_obj() for s in segments],
    }
    if args.full:
        payload["matches"] = [int(m) for m in result.matches]
        payload["distances"] = [float(d) for d in result.distances]
    _emit(args, _dump(payload))
    return 0


def cmd_goalstate(args, cfg):
    fps = _get_fps(args, cfg)
    matrix = _load_key_matrix(args.midi, fps)
    if args.frame is not None and not 0 <= args.frame < matrix.n_frames:
        raise ValueError("frame %d outside the segment range" % args.frame)
    if args.dry_run:
        return 0
    segments = rewards.merged_goals(matrix)
    first, last = ((0, matrix.n_frames) if args.frame is None
                   else (args.frame, args.frame + 1))
    # Slot s of a frame in segment i shows segment i + s, or zeros past
    # the last one: each segment's key cells are formatted once.
    cells = [",".join("1" if k in seg.keys else "0"
                      for k in range(1, midi.NUM_KEYS + 1))
             for seg in segments]
    empty = ",".join("0" * midi.NUM_KEYS)
    lines = ["frame,slot," + ",".join("k%d" % k for k in range(1, 89))
             + ",timer"]
    for i, seg in enumerate(segments):
        for f in range(max(seg.start, first), min(seg.end, last)):
            for slot, j in enumerate(range(i, i + rewards.GOAL_SLOTS)):
                if j < len(segments):
                    lines.append("%d,%d,%s,%d" % (f, slot, cells[j],
                                                  segments[j].end - f))
                else:
                    lines.append("%d,%d,%s,0" % (f, slot, empty))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_reward(args, cfg):
    clip = _load_clip(args.clip)
    skeletons = _load_skeletons(args, cfg)
    geom = _load_keyboard(args, cfg)
    matrix = _load_key_matrix(args.midi, clip.fps)
    reference = _load_clip(args.reference) if args.reference else None
    matrix.check_clip(clip)
    if reference is not None:
        matrix.check_clip(reference, "reference")
    if args.dry_run:
        return 0
    r = rewards.evaluate_rewards(
        clip, skeletons, geom, matrix, reference=reference,
        energy_sign=float(_get(args, cfg, "energy_sign")))
    _emit(args, "".join(_dump({
        "frame": f,
        "targets": _key_values(r.r_target[f], r.targets[f]),
        "nontargets": _key_values(r.r_nontarget[f], r.r_nontarget[f] > 0.0),
        "r_correct": correct,
        "r_energy": energy,
        "energy_sign": r.energy_sign,
        "total": total,
    }) for f, (correct, energy, total) in enumerate(zip(
        r.r_correct.tolist(), r.r_energy.tolist(), r.total.tolist()))))
    return 0


def _key_values(values, keep) -> dict:
    """{"key": value} of one frame's (88,) values where `keep` holds."""
    keys = np.flatnonzero(keep)
    return dict(zip((keys + 1).astype(str).tolist(), values[keys].tolist()))


# --------------------------------------------------------------------------
# Argument wiring


def _add_tunables(p: argparse.ArgumentParser, *names: str):
    """A flag --name-with-dashes per tunable, typed like its default."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=type(_DEFAULTS[name]))


def _add_common(p: argparse.ArgumentParser, output: bool = True):
    p.add_argument("--config", help="pipeline config JSON (or $%s)" % CONFIG_ENV)
    p.add_argument("--dry-run", action="store_true",
                   help="validate inputs, write nothing")
    if output:
        p.add_argument("-o", "--output", help="output path (default stdout)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in
    it, so every `main` call can share it."""
    parser = _Parser(prog="pianomotion",
                     description="MIDI-grounded piano hand-motion pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", parents=[], help="MIDI to binary key matrix")
    p.add_argument("--midi", required=True)
    _add_tunables(p, "fps")
    p.add_argument("--frames", type=int, help="frame count (default: cover the file)")
    p.add_argument("--csv", help="also write a dense CSV")
    _add_common(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("condition", help="MIDI to duration-weighted matrix")
    p.add_argument("--midi", required=True)
    _add_tunables(p, "fps")
    p.add_argument("--frames", type=int)
    p.add_argument("--mode", choices=("constant", "decaying"))
    _add_common(p)
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("sync", help="recover the time offset between two MIDI files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_tunables(p, "tolerance", "span", "step")
    _add_common(p)
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("triangulate", help="2D keypoints to a smoothed 3D trajectory")
    p.add_argument("--keypoints", required=True)
    p.add_argument("--cameras", required=True)
    _add_tunables(p, "fps", "reproj_threshold", "ransac_iters", "seed",
                  "cutoff", "order", "max_gap")
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--report", help="write a triangulation report JSON")
    _add_common(p)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("fit", help="fit hand skeletons to a 3D trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--skeleton")
    p.add_argument("--init", help="initial motion clip")
    _add_tunables(p, "max_iter", "limit_weight")
    p.add_argument("--report", help="write a fit report JSON")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("refine", help="IK-refine a clip to match its MIDI")
    p.add_argument("--clip", required=True)
    p.add_argument("--midi", required=True)
    p.add_argument("--keyboard")
    p.add_argument("--skeleton")
    _add_tunables(p, "activation_depth", "smoothness", "epochs",
                  "exit_clearance", "press_margin", "max_displacement")
    p.add_argument("--report", help="write a refinement report JSON")
    _add_common(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("extract-press", help="extract the clip's pressed keys")
    p.add_argument("--clip", required=True)
    p.add_argument("--keyboard")
    p.add_argument("--skeleton")
    _add_tunables(p, "activation_depth")
    _add_common(p)
    p.set_defaults(func=cmd_extract_press)

    p = sub.add_parser("eval", help="precision/recall/F1 of a clip against MIDI")
    p.add_argument("--clip", required=True)
    p.add_argument("--midi", required=True)
    p.add_argument("--keyboard")
    p.add_argument("--skeleton")
    _add_tunables(p, "activation_depth")
    p.add_argument("--skip-vacuous", dest="skip_vacuous", action="store_const",
                   const=True)
    p.add_argument("--per-frame", dest="per_frame", help="per-frame CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("index", help="build a retrieval index from key matrices")
    p.add_argument("--dataset", nargs="+", required=True,
                   help="key matrix JSON or MIDI files; clip id = basename")
    _add_tunables(p, "fps", "window_len", "stride")
    p.add_argument("--config", help="pipeline config JSON (or $%s)" % CONFIG_ENV)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("-o", "--output", required=True, help="index file (.npz)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="match a query matrix against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True)
    _add_tunables(p, "fps")
    p.add_argument("--full", action="store_true",
                   help="include per-window matches and distances")
    _add_common(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("goalstate", help="dump 5x89 goal states as CSV")
    p.add_argument("--midi", required=True)
    _add_tunables(p, "fps")
    p.add_argument("--frame", type=int, help="one frame (default: all)")
    _add_common(p)
    p.set_defaults(func=cmd_goalstate)

    p = sub.add_parser("reward", help="per-frame reward breakdown as JSON lines")
    p.add_argument("--clip", required=True)
    p.add_argument("--midi", required=True)
    p.add_argument("--keyboard")
    p.add_argument("--skeleton")
    p.add_argument("--reference", help="reference clip for fingering")
    p.add_argument("--energy-sign", dest="energy_sign", type=float,
                   choices=(-1.0, 1.0))
    _add_common(p)
    p.set_defaults(func=cmd_reward)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
