"""Procedural iris texture.

Each identity is a seed.  The pattern lives on a polar sheet (radial x
angular) so it wraps seamlessly around the pupil: multi-octave value noise
for the stromal mottle plus a few angular furrow harmonics that drift with
radius.  Values are reflectances in [0.25, 0.65].  Each octave's bilinear
smoothstep noise is ``Wr @ grid @ Wa.T`` with a radial and a periodic
angular interpolation matrix of two nonzeros a row, built once per shape.
It is taken as two passes that gather those nonzeros: the radial pass on
the small lattice, then one angular pass over the sheet.  Each furrow is an
outer product of its radial and angular cosines and sines.

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


# the eight a sheet uses: four octaves, each one radial and one angular
@functools.lru_cache(maxsize=8)
def _weights(n: int, lattice: int, columns: int) -> tuple[np.ndarray, ...]:
    """Smoothstep interpolation weights of n points spread over [0, lattice).

    The rows of an (n x columns) matrix with two nonzeros each, as
    ``(lower, upper, 1 - s, s)``: point i takes weight 1 - s at column
    ``lower[i]`` and s at ``upper[i]``, its upper lattice neighbour taken
    modulo ``columns`` (the two share column 0 when ``columns`` is 1).
    Read-only, since every caller shares them.
    """
    x = np.linspace(0, lattice, n, endpoint=False)
    lower = np.floor(x).astype(np.intp)
    f = x - lower
    s = f * f * (3 - 2 * f)
    weights = (lower, (lower + 1) % columns, 1 - s, s)
    for w in weights:
        w.flags.writeable = False
    return weights


def _value_noise_polar(rng: np.random.Generator, nr: int, na: int,
                       lat_r: int, lat_a: int) -> np.ndarray:
    """Bilinear value noise on an (lat_r x lat_a) lattice, periodic in angle."""
    grid = rng.uniform(-1.0, 1.0, size=(lat_r + 1, lat_a))
    # points stay below lat_r, so the radial upper neighbour never wraps
    r0, r1, wr0, wr1 = _weights(nr, lat_r, lat_r + 1)
    a0, a1, wa0, wa1 = _weights(na, lat_a, lat_a)
    # gathered, not multiplied as dense matrices: a product big enough to
    # wake OpenBLAS's thread pool leaves its threads spinning after it
    # returns, on the core a --parallel run's other worker needs
    rows = grid[r0] * wr0[:, None] + grid[r1] * wr1[:, None]
    return np.take(rows, a0, axis=1) * wa0 + np.take(rows, a1, axis=1) * wa1


def _furrows(rng: np.random.Generator, nr: int, na: int) -> np.ndarray:
    """Sum of ``_FURROWS`` angular harmonics cos(n*theta + phi + beta*2*pi*r)."""
    r = np.linspace(0, 1, nr)[:, None]
    theta = np.linspace(0, 2 * np.pi, na, endpoint=False)[None, :]
    furrows = np.zeros((nr, na))
    for _ in range(_FURROWS):
        n_f = rng.integers(9, 28)
        phi = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(-2.0, 2.0)  # radians of angular drift over the radius
        # cos(a + b) as an outer product takes nr + na cosines, not nr * na
        a = n_f * theta + phi
        b = beta * r * 2 * np.pi
        furrows += np.cos(b) * np.cos(a) - np.sin(b) * np.sin(a)
    return furrows


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

    out = out + _FURROW_WEIGHT * _furrows(rng, nr, na) / _FURROWS

    lo, hi = np.percentile(out, [1, 99])
    out = np.clip((out - lo) / (hi - lo), 0.0, 1.0)
    sheet = 0.25 + 0.40 * out
    sheet.flags.writeable = False
    return sheet
