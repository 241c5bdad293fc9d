"""Procedural iris texture.

Each identity is a seed.  The pattern lives on a polar sheet (radial x
angular) so it wraps seamlessly around the pupil: multi-octave value noise
for the stromal mottle plus a few angular furrow harmonics that drift with
radius.  Values are reflectances in [0.25, 0.65].  Each octave weights its
two bracketing lattice rows once and gathers the angular corners from
them, so a sheet costs one row gather and four column gathers per octave.

A sheet is a pure function of its seed, so the last few are kept and
handed out read-only: a sweep renders one identity hundreds of times.
"""

from __future__ import annotations

import functools

import numpy as np

SHEET_RADIAL = 64
SHEET_ANGULAR = 512

_OCTAVES = 4
_PERSISTENCE = 0.55
_FURROWS = 3
_FURROW_WEIGHT = 0.18


def _value_noise_polar(rng: np.random.Generator, nr: int, na: int,
                       lat_r: int, lat_a: int) -> np.ndarray:
    """Bilinear value noise on an (lat_r x lat_a) lattice, periodic in angle."""
    grid = rng.uniform(-1.0, 1.0, size=(lat_r + 1, lat_a))
    r = np.linspace(0, lat_r, nr, endpoint=False)
    a = np.linspace(0, lat_a, na, endpoint=False)
    r0 = np.floor(r).astype(int)
    ra = (r - r0)[:, None]
    a0 = np.floor(a).astype(int)
    aa = (a - a0)[None, :]
    r1 = np.minimum(r0 + 1, lat_r)
    a1 = (a0 + 1) % lat_a
    sr = ra * ra * (3 - 2 * ra)
    sa = aa * aa * (3 - 2 * aa)
    # weight the lattice rows, then gather columns: each corner term is the
    # same product, in the same order, as g00 * (1 - sr) * (1 - sa)
    near = grid[r0] * (1 - sr)
    far = grid[r1] * sr
    return (near[:, a0] * (1 - sa) + near[:, a1] * sa
            + far[:, a0] * (1 - sa) + far[:, a1] * sa)


def iris_texture(identity_seed: int) -> np.ndarray:
    """Reflectance sheet for one identity, rows pupil-to-limbus (read-only)."""
    return _sheet(int(identity_seed))


# 4 sheets of 256 KiB: every reuse in the experiments (two alternating
# multiperson subjects at most) while an identity walk stays flat in memory
@functools.lru_cache(maxsize=4)
def _sheet(identity_seed: int) -> np.ndarray:
    nr, na = SHEET_RADIAL, SHEET_ANGULAR
    rng = np.random.default_rng((identity_seed, 77))
    out = np.zeros((nr, na))
    amp, total = 1.0, 0.0
    for octave in range(_OCTAVES):
        out += amp * _value_noise_polar(rng, nr, na, 4 * 2 ** octave, 8 * 2 ** octave)
        total += amp
        amp *= _PERSISTENCE
    out /= total

    r = np.linspace(0, 1, nr)[:, None]
    theta = np.linspace(0, 2 * np.pi, na, endpoint=False)[None, :]
    furrows = np.zeros((nr, na))
    for _ in range(_FURROWS):
        n_f = rng.integers(9, 28)
        phi = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(-2.0, 2.0)  # radians of angular drift over the radius
        furrows += np.cos(n_f * theta + phi + beta * r * 2 * np.pi)
    out = out + _FURROW_WEIGHT * furrows / _FURROWS

    lo, hi = np.percentile(out, [1, 99])
    out = np.clip((out - lo) / (hi - lo), 0.0, 1.0)
    sheet = 0.25 + 0.40 * out
    sheet.flags.writeable = False
    return sheet
