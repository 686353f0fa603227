"""88-key keyboard geometry and key-press queries.

Keys are indexed 1..88 starting at A0. The keyboard-local frame has x running
left to right along the keyboard, y along the key length from the fallboard
(y=0) toward the player, and z up; white key rest surfaces sit at
`base_height`, black keys `black_key_rise` above them. A global pose
(translation + yaw about z) places the keyboard in the world.

Key presses are modeled as vertical displacement of the key surface; a key
sounds when pressed past 90% of its travel distance. Every press and depth
query goes through `locate_keys`, which finds the key under a batch of
world points and their depth below its rest surface.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .midi import NUM_KEYS

_BLACK_PITCH_CLASSES = {1, 3, 6, 8, 10}  # C#, D#, F#, G#, A#
SOUNDING_RATIO = 0.9  # key sounds above this fraction of travel, strict
DEFAULT_ACTIVATION_DEPTH = 0.004


def is_black_key(key: int) -> bool:
    return (key + 20) % 12 in _BLACK_PITCH_CLASSES


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class KeyboardConfig:
    """Dimensions in meters; defaults follow standard acoustic keyboards."""

    white_key_width: float = 0.0235
    white_key_length: float = 0.150
    black_key_width: float = 0.0137
    black_key_length: float = 0.095
    black_key_rise: float = 0.012
    octave_span: float = 0.165
    travel: float = 0.010
    target_length_fraction: float = 0.85
    base_height: float = 0.0
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "position":
                if not (isinstance(value, tuple) and len(value) == 3
                        and all(map(_finite, value))):
                    raise ValueError(f"position must be 3 finite numbers, got {reprlib.repr(value)}")
            elif not _finite(value):
                raise ValueError(f"{field.name} must be a finite number, got {reprlib.repr(value)}")
        for name in (
            "white_key_width",
            "white_key_length",
            "black_key_width",
            "black_key_length",
            "black_key_rise",
            "octave_span",
            "travel",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.target_length_fraction <= 1:
            raise ValueError("target_length_fraction must be in (0, 1]")
        if self.white_key_width > self.octave_span / 7:
            raise ValueError("white keys wider than the octave span allows")

    @staticmethod
    def from_json(text: str) -> "KeyboardConfig":
        # Integers parse as floats, so one too large for a float reads inf.
        payload = json.loads(text, parse_int=float)
        if not isinstance(payload, dict):
            raise ValueError("a keyboard config must be a JSON object")
        unknown = sorted(set(payload) - {field.name for field in fields(KeyboardConfig)})
        if unknown:
            raise ValueError(f"unknown fields {reprlib.repr(unknown)}")
        if isinstance(payload.get("position"), list):
            payload["position"] = tuple(payload["position"])
        return KeyboardConfig(**payload)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


class KeyboardGeometry:
    """Immutable layout of the 88 keys plus the global keyboard pose.

    Footprints are axis-aligned rectangles in the keyboard-local plane; black
    key footprints overlap the rear portion of their white neighbors and win
    containment queries there.
    """

    def __init__(self, config: KeyboardConfig):
        self.config = config
        pitch = config.octave_span / 7  # white key spacing, center to center
        boxes = np.zeros((NUM_KEYS, 4))  # x0, x1, y0, y1
        rest = np.zeros(NUM_KEYS)
        white_slot = 0
        for key in range(1, NUM_KEYS + 1):
            if is_black_key(key):
                center = white_slot * pitch  # boundary between neighbor whites
                boxes[key - 1] = (
                    center - config.black_key_width / 2,
                    center + config.black_key_width / 2,
                    0.0,
                    config.black_key_length,
                )
                rest[key - 1] = config.base_height + config.black_key_rise
            else:
                x0 = white_slot * pitch + (pitch - config.white_key_width) / 2
                boxes[key - 1] = (x0, x0 + config.white_key_width, 0.0, config.white_key_length)
                rest[key - 1] = config.base_height
                white_slot += 1
        self.boxes = boxes
        self.rest_heights = rest
        self.travels = np.full(NUM_KEYS, config.travel)
        self._black = np.array([is_black_key(k) for k in range(1, NUM_KEYS + 1)])
        # (88, 2) x-interval of each key's top surface alongside the black
        # keys (y up to black_key_length): a white key's box less the strips
        # its black neighbours cover, taken by one scan of the black keys in
        # order over every white key at once; a black key's own box.
        x0, x1 = boxes[:, 0].copy(), boxes[:, 1].copy()
        for bx0, bx1 in boxes[self._black, :2]:
            over = ~self._black & (bx1 > x0) & (bx0 < x1)
            left = over & (bx0 <= x0)
            x0 = np.where(left, np.maximum(x0, bx1), x0)
            x1 = np.where(over & ~left, np.minimum(x1, bx0), x1)
        self.exposed = np.stack([x0, x1], axis=1)
        self._cos = np.cos(config.yaw)
        self._sin = np.sin(config.yaw)
        self._origin = np.asarray(config.position, dtype=np.float64)

    def to_local(self, point) -> np.ndarray:
        """Keyboard-local coordinates of world points (..., 3)."""
        p = np.asarray(point, dtype=np.float64) - self._origin
        x, y = p[..., 0], p[..., 1]
        return np.stack([self._cos * x + self._sin * y, -self._sin * x + self._cos * y, p[..., 2]],
                        axis=-1)

    def to_world(self, point) -> np.ndarray:
        """World coordinates of keyboard-local points (..., 3)."""
        p = np.asarray(point, dtype=np.float64)
        x, y = p[..., 0], p[..., 1]
        return np.stack([self._cos * x - self._sin * y, self._sin * x + self._cos * y, p[..., 2]],
                        axis=-1) + self._origin


def build_keyboard(config: KeyboardConfig | None = None) -> KeyboardGeometry:
    """Lay out the 88 keys for a config; deterministic."""
    return KeyboardGeometry(config or KeyboardConfig())


def locate_keys(geom: KeyboardGeometry, points) -> tuple[np.ndarray, np.ndarray]:
    """Key under each world point, and the point's depth below its rest surface.

    `points` is (..., 3).  Returns keys (...) in 1..88, 0 where the point's
    horizontal projection lies outside every footprint, and depths (...),
    the key's rest height minus the point's local z (-inf off the keys).
    Footprint edges are inclusive, a black key wins over the white key
    beneath it, and of two keys of one colour sharing the point the lower
    wins.
    """
    local = geom.to_local(points)
    x, y = local[..., 0], local[..., 1]
    keys = np.zeros(x.shape, dtype=np.int64)
    for colour in (~geom._black, geom._black):          # black last: it wins
        idx = np.flatnonzero(colour)
        x0, x1, y0, y1 = geom.boxes[idx].T
        # Both edges rise with the key within a colour, so the boxes that
        # hold x are a run of keys, from the first right edge >= x; every
        # key of a colour spans the same length.
        i = np.minimum(np.searchsorted(x1, x), len(idx) - 1)
        hit = (x0[i] <= x) & (x <= x1[i]) & (y0[i] <= y) & (y <= y1[i])
        keys = np.where(hit, idx[i] + 1, keys)
    depths = np.where(keys > 0, geom.rest_heights[keys - 1] - local[..., 2], -np.inf)
    return keys, depths


def key_for_point(geom: KeyboardGeometry, point) -> int | None:
    """Key whose footprint contains a world point's horizontal projection,
    or None outside all footprints (see `locate_keys`)."""
    return int(locate_keys(geom, point)[0]) or None


def key_target_position(geom: KeyboardGeometry, key) -> np.ndarray:
    """Press target on the exposed top surface of a key (int) or of keys
    (n,), in world coordinates (3,) or (n, 3).

    85% (configurable) along the key length from the fallboard toward the
    player, centered on the exposed width at that point.
    """
    k = np.asarray(key) - 1
    if not np.all((0 <= k) & (k < NUM_KEYS)):
        raise ValueError(f"key must be in 1..88, got {reprlib.repr(key)}")
    _, _, y0, y1 = geom.boxes[k].T
    y = y0 + geom.config.target_length_fraction * (y1 - y0)
    x0, x1 = np.where((y <= geom.config.black_key_length)[..., None],
                      geom.exposed[k], geom.boxes[k, :2]).T
    return geom.to_world(np.stack([(x0 + x1) / 2, y, geom.rest_heights[k]], axis=-1))


def pressed_keys(geom: KeyboardGeometry, fingertips, activation_depth: float) -> np.ndarray:
    """(..., 88) flags of the keys some fingertip of (..., n, 3) holds at
    least activation_depth below their rest surface."""
    keys, depths = locate_keys(geom, np.atleast_2d(np.asarray(fingertips, dtype=np.float64)))
    return located_presses(geom, keys, depths, activation_depth)


def check_activation_depth(geom: KeyboardGeometry, activation_depth: float) -> None:
    """Refuse an activation depth outside (0, the keyboard's least travel]."""
    if not 0 < activation_depth <= float(np.min(np.asarray(geom.travels))):
        raise ValueError(
            f"activation_depth must be in (0, min travel], got {activation_depth}"
        )


def located_presses(geom: KeyboardGeometry, keys, depths, activation_depth: float) -> np.ndarray:
    """`pressed_keys` of points already located: keys and depths (..., n)
    from `locate_keys` give (..., 88) flags.

    Equal to thresholding `key_depths`, whose clamp to the travel cannot
    lower a depth below activation_depth, since that may not exceed the
    travel.
    """
    check_activation_depth(geom, activation_depth)
    out = np.zeros(keys.shape[:-1] + (NUM_KEYS + 1,), dtype=bool)
    hit = depths >= activation_depth                    # -inf off the keys
    out[np.nonzero(hit)[:-1] + (keys[hit],)] = True
    return out[..., 1:]


def extract_pressed(geom: KeyboardGeometry, fingertips, activation_depth: float) -> set[int]:
    """Keys pressed by any of the fingertips, world points (n, 3)."""
    return set((np.flatnonzero(pressed_keys(geom, fingertips, activation_depth)) + 1).tolist())


def key_depths(geom: KeyboardGeometry, fingertips) -> np.ndarray:
    """Per-key press depth implied by fingertip heights: (..., n, 3) world
    points give (..., 88).

    For each key, the deepest fingertip over it sets the depth (clamped to
    the key's travel); keys with no fingertip over them read 0.
    """
    keys, depth = locate_keys(geom, np.atleast_2d(np.asarray(fingertips, dtype=np.float64)))
    out = np.zeros(keys.shape[:-1] + (NUM_KEYS,))
    live = depth > 0
    k = keys[live] - 1
    np.maximum.at(out, np.nonzero(live)[:-1] + (k,), np.minimum(depth[live], geom.travels[k]))
    return out
