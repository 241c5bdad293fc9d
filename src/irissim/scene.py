"""Subjects, rig geometry and mirror aiming.

World frame: the mirror's rotation centre is the origin, z points up.  The
camera hangs above the mirror looking straight down, with its lens principal
plane ``lens_height_mm`` above the origin, so the folded optical path length
to a subject is the eye-to-mirror distance plus that height.

Mirror orientation is the pan/tilt of its surface normal: pan is the azimuth
of the normal's horizontal projection (measured from +y), tilt its elevation.
A subject eye level with the mirror at azimuth 0 therefore needs pan 0,
tilt 45.

A subject's eye stands at ``position_mm`` until t = 0 and from then on
walks at the constant ``velocity_mmps``; seeded head jitter rides on top.
``subject_at`` places a subject straight out from the mirror, on +y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

EYE_DROP_MM = 120.0  # eye line sits this far below the top of the head

_JITTER_COMPONENTS = 8
JITTER_BANDWIDTH_HZ = 2.0
# N sinusoids of amplitude sigma * sqrt(2 / N) per axis reach at most 4 sigma
JITTER_REACH_SIGMAS = math.sqrt(2.0 * _JITTER_COMPONENTS)


@dataclass(frozen=True)
class RigGeometry:
    lens_height_mm: float = 200.0
    mirror_height_mm: float = 1000.0  # mirror centre above the floor


@dataclass(frozen=True)
class Subject:
    subject_id: str
    identity_seed: int
    position_mm: tuple[float, float, float]  # eye centre at t = 0
    velocity_mmps: tuple[float, float, float] = (0.0, 0.0, 0.0)  # walks from t = 0
    jitter_sigma_mm: float = 3.0
    motion_seed: int = 0


def subject_at(subject_id: str, identity_seed: int, distance_mm: float,
               height_mm: float, rig: RigGeometry, **kwargs) -> Subject:
    """Place a standing subject on the +y axis by horizontal distance and body height."""
    z = height_mm - EYE_DROP_MM - rig.mirror_height_mm
    return Subject(subject_id, identity_seed, (0.0, distance_mm, z), **kwargs)


@functools.lru_cache(maxsize=256)
def _jitter_bank(seed: int, sigma: float):
    """Per-axis sinusoid parameters for band-limited stationary head jitter."""
    freqs = np.empty((3, _JITTER_COMPONENTS))
    phases = np.empty((3, _JITTER_COMPONENTS))
    for axis in range(3):
        rng = np.random.default_rng((int(seed), 0x4A495454, axis))
        freqs[axis] = rng.uniform(0.2 * JITTER_BANDWIDTH_HZ, JITTER_BANDWIDTH_HZ,
                                   _JITTER_COMPONENTS)
        phases[axis] = rng.uniform(0.0, 2.0 * math.pi, _JITTER_COMPONENTS)
    amp = sigma * math.sqrt(2.0 / _JITTER_COMPONENTS)
    return freqs, phases, amp


def _jitter(subject: Subject, t_ms: float) -> tuple[np.ndarray, np.ndarray]:
    """Head jitter offset in mm and its rate in mm per second."""
    if subject.jitter_sigma_mm == 0.0:
        return np.zeros(3), np.zeros(3)
    freqs, phases, amp = _jitter_bank(subject.motion_seed, subject.jitter_sigma_mm)
    phase = 2.0 * math.pi * freqs * (t_ms / 1000.0) + phases
    return (amp * np.sin(phase).sum(axis=1),
            amp * (2.0 * math.pi * freqs * np.cos(phase)).sum(axis=1))


def eye_position(subject: Subject, t_ms: float) -> np.ndarray:
    """Eye centre at time t: the walk plus head jitter.

    The walk holds still before t = 0 and then moves at constant velocity;
    the jitter term is a seeded sum of sinusoids below the configured
    bandwidth, so the motion is continuous and reproducible sample for sample.
    """
    walked = np.asarray(subject.velocity_mmps) * (max(t_ms, 0.0) / 1000.0)
    return subject.position_mm + walked + _jitter(subject, t_ms)[0]


def eye_velocity(subject: Subject, t_ms: float) -> np.ndarray:
    """Instantaneous eye velocity in mm/s (the walk's plus the jitter derivative)."""
    walk = np.asarray(subject.velocity_mmps if t_ms > 0.0 else (0.0, 0.0, 0.0))
    return walk + _jitter(subject, t_ms)[1]


def line_of_sight_mm(eye_pos, rig: RigGeometry) -> float:
    """Folded optical path: eye to mirror centre plus mirror to lens."""
    return float(np.linalg.norm(eye_pos)) + rig.lens_height_mm


def mirror_normal(pan_deg: float, tilt_deg: float) -> np.ndarray:
    p = math.radians(pan_deg)
    t = math.radians(tilt_deg)
    return np.array([math.cos(t) * math.sin(p), math.cos(t) * math.cos(p), math.sin(t)])


def reflect(v: np.ndarray, normal: np.ndarray) -> np.ndarray:
    return v - 2.0 * np.dot(v, normal) * normal


def aim_angles(eye_pos) -> tuple[float, float]:
    """Mirror pan/tilt that folds the downward camera axis onto the eye.

    The normal must bisect the eye direction and the vertical, so tilt is
    45 degrees plus half the eye's elevation.  Raises for a degenerate
    target straight underneath the mirror.
    """
    e = np.asarray(eye_pos, dtype=float)
    r = np.linalg.norm(e)
    if r == 0.0:
        raise ValueError("eye position coincides with the mirror centre")
    e_hat = e / r
    bis = e_hat + np.array([0.0, 0.0, 1.0])
    norm = np.linalg.norm(bis)
    if norm < 1e-12:
        raise ValueError("target directly underneath the mirror is unreachable")
    n = bis / norm
    pan = math.degrees(math.atan2(n[0], n[1]))
    tilt = math.degrees(math.asin(np.clip(n[2], -1.0, 1.0)))
    return pan, tilt


def reflected_view_dir(pan_deg: float, tilt_deg: float) -> np.ndarray:
    """Direction the camera looks after the fold, for a given mirror pose."""
    n = mirror_normal(pan_deg, tilt_deg)
    return reflect(np.array([0.0, 0.0, -1.0]), n)

