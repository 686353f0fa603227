"""88-key keyboard geometry and key-press queries.

Keys are indexed 1..88 starting at A0. The keyboard-local frame has x running
left to right along the keyboard, y along the key length from the fallboard
(y=0) toward the player, and z up; white key rest surfaces sit at
`base_height`, black keys `black_key_rise` above them. A global pose
(translation + yaw about z) places the keyboard in the world.

Key presses are modeled as vertical displacement of the key surface; a key
sounds when pressed past 90% of its travel distance. Key sets are plain
Python sets of key indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .midi import NUM_KEYS

_BLACK_PITCH_CLASSES = {1, 3, 6, 8, 10}  # C#, D#, F#, G#, A#
SOUNDING_RATIO = 0.9  # key sounds above this fraction of travel, strict
DEFAULT_ACTIVATION_DEPTH = 0.004


def is_black_key(key: int) -> bool:
    return (key + 20) % 12 in _BLACK_PITCH_CLASSES


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
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a keyboard config must be a JSON object")
        if "position" in payload:
            payload["position"] = tuple(payload["position"])
        return KeyboardConfig(**payload)

    def to_json(self) -> str:
        payload = {
            "white_key_width": self.white_key_width,
            "white_key_length": self.white_key_length,
            "black_key_width": self.black_key_width,
            "black_key_length": self.black_key_length,
            "black_key_rise": self.black_key_rise,
            "octave_span": self.octave_span,
            "travel": self.travel,
            "target_length_fraction": self.target_length_fraction,
            "base_height": self.base_height,
            "position": list(self.position),
            "yaw": self.yaw,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class KeyState:
    """Press state of one key: depth below rest, clamped to [0, travel]."""

    depth: float
    travel: float

    def __post_init__(self):
        if not 0 <= self.depth <= self.travel:
            raise ValueError(f"depth must be in [0, travel], got {self.depth}")

    @property
    def ratio(self) -> float:
        return self.depth / self.travel

    @property
    def touched(self) -> bool:
        return self.depth > 0

    @property
    def sounding(self) -> bool:
        return self.ratio > SOUNDING_RATIO


class KeyboardGeometry:
    """Immutable layout of the 88 keys plus the global keyboard pose.

    Footprints are axis-aligned rectangles in the keyboard-local plane; black
    key footprints overlap the rear portion of their white neighbors and win
    containment queries there.
    """

    def __init__(self, config: KeyboardConfig):
        self.config = config
        pitch = config.octave_span / 7  # white key spacing, center to center
        colors = []
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
                colors.append("black")
            else:
                x0 = white_slot * pitch + (pitch - config.white_key_width) / 2
                boxes[key - 1] = (x0, x0 + config.white_key_width, 0.0, config.white_key_length)
                rest[key - 1] = config.base_height
                colors.append("white")
                white_slot += 1
        self.colors = tuple(colors)
        self.boxes = boxes
        self.rest_heights = rest
        self.travels = np.full(NUM_KEYS, config.travel)
        self._black = np.array([is_black_key(k) for k in range(1, NUM_KEYS + 1)])
        self._cos = np.cos(config.yaw)
        self._sin = np.sin(config.yaw)
        self._origin = np.asarray(config.position, dtype=np.float64)

    def to_local(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=np.float64) - self._origin
        return np.array(
            [self._cos * p[0] + self._sin * p[1], -self._sin * p[0] + self._cos * p[1], p[2]]
        )

    def to_world(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=np.float64)
        return (
            np.array(
                [self._cos * p[0] - self._sin * p[1], self._sin * p[0] + self._cos * p[1], p[2]]
            )
            + self._origin
        )

    def travel_of(self, key: int) -> float:
        return float(self.travels[key - 1])

    def rest_height(self, key: int) -> float:
        """Rest surface height in keyboard-local z."""
        return float(self.rest_heights[key - 1])


def build_keyboard(config: KeyboardConfig | None = None) -> KeyboardGeometry:
    """Lay out the 88 keys for a config; deterministic."""
    return KeyboardGeometry(config or KeyboardConfig())


def key_for_point(geom: KeyboardGeometry, point) -> int | None:
    """Key whose footprint contains the point's horizontal projection.

    Black keys win over the white key beneath them; returns None outside all
    footprints. Accepts world coordinates.
    """
    local = geom.to_local(point)
    x, y = local[0], local[1]
    boxes = geom.boxes
    inside = (boxes[:, 0] <= x) & (x <= boxes[:, 1]) & (boxes[:, 2] <= y) & (y <= boxes[:, 3])
    black_hits = np.flatnonzero(inside & geom._black)
    if black_hits.size:
        return int(black_hits[0]) + 1
    white_hits = np.flatnonzero(inside)
    if white_hits.size:
        return int(white_hits[0]) + 1
    return None


def _exposed_interval(geom: KeyboardGeometry, key: int, y: float) -> tuple[float, float]:
    """Exposed x-interval of a white key at length coordinate y."""
    x0, x1, _, _ = geom.boxes[key - 1]
    if y > geom.config.black_key_length:
        return x0, x1
    for black in np.flatnonzero(geom._black):
        bx0, bx1 = geom.boxes[black, 0], geom.boxes[black, 1]
        if bx1 <= x0 or bx0 >= x1:
            continue
        if bx0 <= x0:
            x0 = max(x0, bx1)
        else:
            x1 = min(x1, bx0)
    return x0, x1


def key_target_position(geom: KeyboardGeometry, key: int) -> np.ndarray:
    """Press target on the key's exposed top surface, in world coordinates.

    85% (configurable) along the key length from the fallboard toward the
    player, centered on the exposed width at that point.
    """
    if not 1 <= key <= NUM_KEYS:
        raise ValueError(f"key must be in 1..88, got {key}")
    _, _, y0, y1 = geom.boxes[key - 1]
    y = y0 + geom.config.target_length_fraction * (y1 - y0)
    if geom._black[key - 1]:
        x0, x1 = geom.boxes[key - 1, 0], geom.boxes[key - 1, 1]
    else:
        x0, x1 = _exposed_interval(geom, key, y)
    return geom.to_world(np.array([(x0 + x1) / 2, y, geom.rest_heights[key - 1]]))


def extract_pressed(geom: KeyboardGeometry, fingertips, activation_depth: float) -> set[int]:
    """Keys pressed by any fingertip.

    A key is pressed when a fingertip projects horizontally onto it and sits
    at least activation_depth below its rest surface. `fingertips` is any
    iterable of 3D world points (normally 10).
    """
    if not 0 < activation_depth <= float(np.min(np.asarray(geom.travels))):
        raise ValueError(
            f"activation_depth must be in (0, min travel], got {activation_depth}"
        )
    pressed: set[int] = set()
    for tip in np.atleast_2d(np.asarray(fingertips, dtype=np.float64)):
        key = key_for_point(geom, tip)
        if key is None:
            continue
        depth = geom.rest_heights[key - 1] - geom.to_local(tip)[2]
        if depth >= activation_depth:
            pressed.add(key)
    return pressed


def key_state_from_depth(geom: KeyboardGeometry, key: int, depth: float) -> KeyState:
    """Clamp a raw press depth into the key's [0, travel] range."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    travel = geom.travel_of(key)
    return KeyState(min(depth, travel), travel)


def key_depths(geom: KeyboardGeometry, fingertips) -> np.ndarray:
    """Per-key press depth implied by fingertip heights, shape (88,).

    For each key, the deepest fingertip over it sets the depth (clamped to
    the key's travel); keys with no fingertip over them read 0.
    """
    depths = np.zeros(NUM_KEYS)
    for tip in np.atleast_2d(np.asarray(fingertips, dtype=np.float64)):
        key = key_for_point(geom, tip)
        if key is None:
            continue
        depth = geom.rest_heights[key - 1] - geom.to_local(tip)[2]
        if depth > 0:
            depths[key - 1] = max(depths[key - 1], min(depth, geom.travels[key - 1]))
    return depths


def with_pose(geom: KeyboardGeometry, position, yaw: float) -> KeyboardGeometry:
    """Same key layout under a new global pose."""
    return KeyboardGeometry(replace(geom.config, position=tuple(position), yaw=yaw))
