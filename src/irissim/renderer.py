"""Eye-region image formation.

Produces the sensor crop around one eye for a given optical train state,
mirror pose and subject.  Radiometry is deliberately simple (matte
reflectances, constant illumination); what matters for the pipeline is
that geometry, defocus, astigmatism, motion smear and sensor noise are
faithful to the configured state and reproducible from the seeds.

An exposure runs in two stages.  The clean-optics stage draws the eye (a
polar map of the iris disk's box, which depends only on the geometry and is
cached for one geometry, looked up in the identity's texture sheet) and
applies, in order, the defocus disk (diameter from the blur-circle model),
anisotropic blur growing with the square of positive tunable-lens power
(membrane sag under drive), motion smear over the exposure and optical
transmission.  Outside the iris disk's box the eye is flat sclera, which no
stage changes, so the stage draws and filters only the iris window: the
union of the tight-crop box (``_MARGIN`` iris radii about the iris centre)
and the iris disk's box grown by the optics' summed kernel reach, whose edge
padding at a canvas side is the canvas's own.  The stage is a pure function
of the frame geometry, so a one-entry cache (``_clean_image``) serves every
repeat exposure of one geometry from a single render of that window.

Which stages a render runs and how big it is are decided once, by
``_layout``: the side of the largest array a render builds is the canvas or
the transform ``fftconvolve`` makes of the window edge-padded by the widest
kernel.  ``render_eye`` reads the stages and the side from it and checks the
side before it builds any kernel or window, raising RenderTooWide when it is
wider than the sensor (``optics.SENSOR_PX_H``); ``_clean_image`` cuts its
window by the same call.  Validation checks every sight it plans with
``render_side``, the tight crop's side; only a render knows its defocus
disk, so a sweep cell far out of focus meets the rule at run time.

The exposure stage adds Gaussian read noise from the frame's noise seed to
the tight-crop box, clips and quantizes, once per call, in one box-sized
buffer.  The noise is the first box-size normals of the seed's stream
(``read_noise``).  Every sweep cell of repeat r exposes with that repeat's
seed, so the streams of the last few seeds are held and each exposure slices
its normals from them, drawing only what a larger box adds.  The iom run's
two heads expose frame i back to back under frame i's seed, so the second
slices the stream the first just drew, and each frame's stream is drawn
once.  On a tight crop the box is the whole canvas.  A larger canvas, such
as the 640x480 frame, is the clean sclera grey (``SCLERA_GREY``) outside the
window and noise-free outside the box: nothing downstream reads beyond the
iris.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import optics
from .devices import SensorParams
from .optics import OpticalTrain
from .scene import RigGeometry, line_of_sight_mm, reflected_view_dir
from .texture import SHEET_ANGULAR, SHEET_RADIAL, iris_texture

REFLECTANCE_SCLERA = 0.80
REFLECTANCE_PUPIL = 0.05
REFLECTANCE_LID = 0.55
PUPIL_FRACTION = 0.40  # pupil diameter as a fraction of iris diameter
LID_FRACTION = 0.15    # of the iris vertical extent covered from the top
TRANSMISSION = 0.8     # mirror and lens train throughput
READ_NOISE_GREY = 2.0
SCLERA_GREY = np.uint8(np.clip(REFLECTANCE_SCLERA * TRANSMISSION * 255.0, 0, 255))

# anisotropic blur sigma in px per (positive diopter)^2; set by calibration
DEFAULT_K_AST = 0.1908002

BASE_WIDTH = 640
BASE_HEIGHT = 480
_MARGIN = 1.3  # tight-crop (and noise box) half side per iris radius: ``_tight_half``


def _scipy_root() -> Path:
    """The installed scipy's directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("scipy is not installed")
    return Path(spec.origin).parent


def _scipy_core(name: str):
    """scipy's compiled module ``name``, loaded from its file under scipy's directory.

    Only the module's own file is loaded: its packages (``scipy.fft``,
    ``scipy.ndimage``) cost most of a cold start and are never called here.
    The module is registered under its own name, so a later import of the
    public package in the same process reuses it.  A missing file fails the
    import: nothing falls back to other code.
    """
    if name in sys.modules:
        return sys.modules[name]
    stem = _scipy_root().joinpath(*name.split(".")[1:])
    path = next((p for p in (stem.with_name(stem.name + suffix)
                             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
                 if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's compiled module {name} is missing: "
                          f"no {stem.name}*.so in {stem.parent}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_pocketfft = _scipy_core("scipy.fft._pocketfft.pypocketfft")
_nd_image = _scipy_core("scipy.ndimage._nd_image")


class TargetMissed(Exception):
    """The eye is not on the folded optical axis closely enough to image."""


@dataclass(eq=False)
class Frame:
    image: np.ndarray  # uint8 grey
    cx: float
    cy: float
    r_pupil_px: float
    r_iris_px: float
    px_across_iris: float
    blur_px: float
    astig_sigma_px: float
    motion_px: float
    power_dpt: float
    offset_px: tuple[float, float]


def disk_reach(diameter_px: float) -> int:
    """The half width of ``disk_kernel(diameter_px)``: the radius and its antialiased rim."""
    return int(math.ceil(diameter_px / 2.0 + 0.5))


def disk_kernel(diameter_px: float) -> np.ndarray:
    """Defocus disk with an antialiased rim, normalized to unit sum."""
    r = diameter_px / 2.0
    c = disk_reach(diameter_px)
    n = 2 * c + 1
    yy, xx = np.mgrid[0:n, 0:n]
    rr = np.hypot(yy - c, xx - c)
    k = np.clip(r - rr + 0.5, 0.0, 1.0)
    return k / k.sum()


def line_reach(length_px: float) -> int:
    """The half width of ``line_kernel(length_px, ...)``: half the smear and one spare
    cell for the bilinear splat."""
    return int(math.ceil(length_px / 2.0)) + 1


def line_kernel(length_px: float, direction: tuple[float, float]) -> np.ndarray:
    """Uniform smear along a direction, splatted bilinearly."""
    half = length_px / 2.0
    c = line_reach(length_px)
    n = 2 * c + 1
    dx, dy = direction
    norm = math.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm
    k = np.zeros((n, n))
    steps = max(8, int(8 * length_px))
    for s in np.linspace(-half, half, steps):
        x = c + s * dx
        y = c + s * dy
        x0, y0 = int(math.floor(x)), int(math.floor(y))
        fx, fy = x - x0, y - y0
        k[y0, x0] += (1 - fx) * (1 - fy)
        k[y0, x0 + 1] += fx * (1 - fy)
        k[y0 + 1, x0] += (1 - fx) * fy
        k[y0 + 1, x0 + 1] += fx * fy
    return k / k.sum()


def _zero_padded(a: np.ndarray, shape: list[int]) -> np.ndarray:
    out = np.zeros(shape, a.dtype)
    out[:a.shape[0], :a.shape[1]] = a
    return out


def fftconvolve(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``scipy.signal.fftconvolve(img, kernel, mode="same")``, bit for bit.

    ``img`` is real 2-D with no side of 1 (``_convolve_same`` pads it by
    n // 2 all round) and ``kernel`` is odd n x n with n >= 3, so scipy
    transforms both axes.  These are the pocketfft calls it makes: both
    inputs zero-padded to ``good_size(s + n - 1, True)`` per axis, a forward
    ``r2c`` over axes (0, 1) of each (norm code 0, no scaling), then one
    ``c2r`` of the product (norm code 2, scaled by 1/size) back to the padded
    width, on one worker.
    """
    n = kernel.shape[0]
    shape = [_pocketfft.good_size(s + n - 1, True) for s in img.shape]
    spectra = [_pocketfft.r2c(_zero_padded(a, shape), (0, 1), True, 0, None, 1)
               for a in (img, kernel)]
    full = _pocketfft.c2r(spectra[0] * spectra[1], (0, 1), shape[1], False, 2, None, 1)
    c = n // 2
    h, w = img.shape
    return full[c:c + h, c:c + w]


def gaussian_reach(sd: float) -> int:
    """The radius in pixels of ``gaussian_filter``'s Gaussian: scipy's at truncate 4."""
    return int(4.0 * sd + 0.5)


def gaussian_filter(img: np.ndarray, sigma) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(img, sigma, mode="nearest")``.

    Bit for bit: axis by axis, one ``correlate1d`` with the reversed
    normalised Gaussian of radius ``gaussian_reach(sigma)``, in mode code 0
    (nearest), in place on a copy of ``img``; an axis whose sigma is at most
    1e-15 is skipped.  ``sigma`` is a scalar or one value per axis.
    """
    out = np.array(img)
    sigmas = np.broadcast_to(np.asarray(sigma, dtype=float), (out.ndim,))
    for axis, sd in enumerate(sigmas.tolist()):
        if sd > 1e-15:
            _nd_image.correlate1d(out, _gaussian_weights(sd), axis, out, 0, 0.0, 0)
    return out


def _gaussian_weights(sd: float) -> np.ndarray:
    """scipy's ``_gaussian_kernel1d`` for order 0, reversed into a new array."""
    radius = gaussian_reach(sd)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sd * sd) * x ** 2)
    # correlate1d reads the weights forwards from the first one, ignoring
    # strides: a reversed view's first weight is its base's last, so it would
    # read past the end
    return (phi / phi.sum())[::-1].copy()


def _convolve_same(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # edge-pad so the smear does not drag in black from outside the crop
    pad = kernel.shape[0] // 2
    padded = np.pad(img, pad, mode="edge")
    out = fftconvolve(padded, kernel)
    return out[pad:-pad, pad:-pad]


def _image_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sensor (u, w) directions around a viewing axis; u is horizontal."""
    u = np.cross(axis, np.array([0.0, 0.0, 1.0]))
    nu = np.linalg.norm(u)
    u = u / nu if nu > 1e-9 else np.array([1.0, 0.0, 0.0])
    return u, np.cross(axis, u)


def _image_offset_px(train: OpticalTrain, power_dpt: float, pan_deg: float,
                     tilt_deg: float, e_hat: np.ndarray) -> tuple[float, float]:
    """Where the eye along ``e_hat`` lands off the crop centre, from the aim residual."""
    v = reflected_view_dir(pan_deg, tilt_deg)
    delta = e_hat - np.dot(e_hat, v) * v  # transverse angular error, radians
    u, w = _image_basis(v)
    scale = optics.effective_focal_length(train, power_dpt) / optics.PIXEL_PITCH_MM
    return float(np.dot(delta, u) * scale), float(np.dot(delta, w) * scale)


def render_eye(train: OpticalTrain, *, power_dpt: float, pan_deg: float,
               tilt_deg: float, eye_pos_mm, identity_seed: int, noise_seed: int,
               eye_velocity_mmps=(0.0, 0.0, 0.0),
               exposure_ms: float = SensorParams.exposure_ms,
               rig: RigGeometry = RigGeometry(), k_ast: float = DEFAULT_K_AST,
               base_canvas: tuple[int, int] = (BASE_HEIGHT, BASE_WIDTH)) -> Frame:
    """Render the eye crop for one exposure.

    Raises TargetMissed when the folded axis is so far off the eye that the
    iris would not fit on the crop (typically a mirror still in flight).
    ``base_canvas`` sets the minimum crop size, (height, width); pass (0, 0)
    for the tight crop used in bulk sweeps.  Raises RenderTooWide before it
    builds a kernel or a window when the render is wider than the sensor.
    """
    d = line_of_sight_mm(eye_pos_mm, rig)
    px = optics.pixels_across_iris(train, d)
    r_i = px / 2.0
    r_p = PUPIL_FRACTION * r_i

    e = np.asarray(eye_pos_mm, dtype=float)
    e_hat = e / np.linalg.norm(e)
    off_x, off_y = _image_offset_px(train, power_dpt, pan_deg, tilt_deg, e_hat)

    half, width, height, cx, cy = _crop(r_i, base_canvas, (off_x, off_y))
    if (cx - 1.05 * r_i < 0 or cx + 1.05 * r_i >= width
            or cy - 1.05 * r_i < 0 or cy + 1.05 * r_i >= height):
        raise TargetMissed(
            f"iris centre offset ({off_x:.0f},{off_y:.0f}) px leaves the crop"
        )

    blur_px = float(optics.blur_on_sensor_mm(train, power_dpt, d) / optics.PIXEL_PITCH_MM)
    astig_sigma = float(k_ast * max(0.0, power_dpt) ** 2)

    v = np.asarray(eye_velocity_mmps, dtype=float)
    v_perp = v - np.dot(v, e_hat) * e_hat
    motion_px = (float(np.linalg.norm(v_perp)) * (exposure_ms / 1000.0)
                 * (px / optics.IRIS_DIAMETER_MM))

    (disk, _, smear), *_, side = _layout(width, height, cx, cy, r_i, blur_px, astig_sigma,
                                         motion_px)
    _check_side(side, r_i, disk, f"line of sight {d:.6g} mm with the train focused at "
                                 f"{train.d_ref_mm:.6g} mm")
    mdir = (1.0, 0.0)  # without a smear the cache key holds a fixed direction
    if smear is not None:
        u, w = _image_basis(e_hat)
        mdir = (float(np.dot(v_perp, u)), float(np.dot(v_perp, w)))
    window, rows, cols = _clean_image(identity_seed, width, height, cx, cy, r_p, r_i,
                                      blur_px, astig_sigma, motion_px, mdir)

    y0, y1 = _span(cy, half, height)
    x0, x1 = _span(cx, half, width)
    box = window[y0 - rows.start:y1 - rows.start, x0 - cols.start:x1 - cols.start]
    # rng.normal(0, s, shape) is 0 + s * z, so s * z + box gives the same sums
    noise = read_noise(noise_seed, box.size).reshape(box.shape) * READ_NOISE_GREY
    noise += box
    noisy = np.clip(noise, 0, 255, out=noise).astype(np.uint8)
    if noisy.shape == (height, width):  # a tight crop: the box is the canvas
        img = noisy
    else:
        img = np.full((height, width), SCLERA_GREY, dtype=np.uint8)
        img[rows, cols] = np.clip(window, 0, 255)
        img[y0:y1, x0:x1] = noisy

    return Frame(
        image=img, cx=cx, cy=cy, r_pupil_px=r_p, r_iris_px=r_i,
        px_across_iris=px, blur_px=blur_px, astig_sigma_px=astig_sigma,
        motion_px=motion_px, power_dpt=power_dpt, offset_px=(off_x, off_y),
    )


# one entry: the sweeps expose every repeat of a geometry back to back, and
# the entry is the iris window alone, never a whole 640x480 canvas
@functools.lru_cache(maxsize=1)
def _clean_image(identity_seed: int, width: int, height: int, cx: float, cy: float,
                 r_p: float, r_i: float, blur_px: float, astig_sigma: float,
                 motion_px: float, mdir: tuple[float, float]
                 ) -> tuple[np.ndarray, slice, slice]:
    """The noise-free iris window in grey levels (read-only): optics, no noise.

    Returns the window with the canvas rows and columns it covers; the canvas
    outside it is flat sclera.
    """
    (disk, sigma, smear), rows, cols, (iy, ix), _ = _layout(
        width, height, cx, cy, r_i, blur_px, astig_sigma, motion_px)
    img = _draw_eye(identity_seed, cols.stop - cols.start, rows.stop - rows.start,
                    cx - cols.start, cy - rows.start, r_p, r_i)
    y0, y1 = (i - rows.start for i in iy)
    x0, x1 = (i - cols.start for i in ix)
    optics_window = img[y0:y1, x0:x1]
    if disk is not None:
        optics_window = _convolve_same(optics_window, disk_kernel(disk))
    if sigma:
        optics_window = gaussian_filter(optics_window, sigma)
    if smear is not None:
        optics_window = _convolve_same(optics_window, line_kernel(smear, mdir))
    img[y0:y1, x0:x1] = optics_window
    img = img * TRANSMISSION * 255.0
    img.flags.writeable = False
    return img, rows, cols


class RenderTooWide(ValueError):
    """A render would build an array wider than the sensor (``_check_side``)."""


def render_side(r_i: float, *, where: str) -> None:
    """Raise RenderTooWide, naming ``where``, when the tight crop about an iris ``r_i``
    px in radius, the least a render of it builds, is wider than the sensor: how
    validation checks a sight it plans before any optics are known."""
    _check_side(2 * _tight_half(r_i), r_i, None, where)


def _check_side(side: int, r_i: float, disk: float | None, where: str) -> None:
    """Raise RenderTooWide, naming ``where``, when a render of an iris ``r_i`` px in
    radius, through a defocus disk of diameter ``disk`` (None when off), builds an
    array ``side`` px wide that is wider than the sensor: the camera holds no frame
    that wide, and the arrays grow with the side's square."""
    if side > optics.SENSOR_PX_H:
        through = f" through a {disk:.0f} px defocus disk" if disk is not None else ""
        raise RenderTooWide(f"{where} images {2 * r_i:.6g} px across the iris{through}, "
                            f"a {side} px crop wider than the {optics.SENSOR_PX_H} px sensor")


def _tight_half(r_i: float) -> int:
    """The half side of the tight crop, and of the noise box, about an iris of radius ``r_i``."""
    return math.ceil(_MARGIN * r_i)


def _crop(r_i: float, canvas: tuple[int, int], offset: tuple[float, float]
          ) -> tuple[int, int, int, float, float]:
    """The tight crop's half side, then the canvas's width and height, at least
    ``canvas`` (height, width), and the iris centre ``offset`` px off its middle."""
    half = _tight_half(r_i)
    width, height = max(canvas[1], 2 * half), max(canvas[0], 2 * half)
    return half, width, height, width / 2.0 + offset[0], height / 2.0 + offset[1]


def _layout(width: int, height: int, cx: float, cy: float, r_i: float, blur_px: float,
            astig_sigma: float, motion_px: float):
    """Where a render's optics stage works, and the side of the largest array it builds.

    Returns the stages that run (the disk's diameter, the astigmatic Gaussian's
    row and column sigmas and the smear's length, each None when off), the
    canvas rows and columns of the iris window, the (start, stop) rows and
    columns the stages filter, and the side of the largest array the render
    builds, which ``render_eye`` checks against the sensor.  Outside the iris
    disk's box the eye is flat sclera, which every stage leaves flat, so the
    stages run on that box grown by their summed reach (a kernel's half width,
    or the Gaussian's ``gaussian_reach``).  The window also covers the
    tight-crop box the exposure adds noise to.
    """
    disk = blur_px if blur_px > 0.05 else None
    sigma = (astig_sigma, 0.3 * astig_sigma) if astig_sigma > 0.05 else None
    smear = motion_px if motion_px > 0.5 else None
    pads = [reach(p) for p, reach in ((disk, disk_reach), (smear, line_reach)) if p is not None]
    oy, ox = (r_i + sum(pads) + gaussian_reach(s) for s in sigma or (0.0, 0.0))
    half = _tight_half(r_i)
    rows = slice(*_span(cy, max(half, oy), height))
    cols = slice(*_span(cx, max(half, ox), width))
    inner = _span(cy, oy, height), _span(cx, ox, width)
    side = max(width, height)
    if pads:  # _convolve_same edge-pads by a half width, fftconvolve adds the width less one
        filtered = max(hi - lo for lo, hi in inner)
        side = max(side, _pocketfft.good_size(filtered + 4 * max(pads), True))
    return (disk, sigma, smear), rows, cols, inner, side


def _span(c: float, r: float, n: int) -> tuple[int, int]:
    """Pixel rows (or columns) within ``r`` of ``c`` plus one spare, clipped to [0, n)."""
    lo = min(max(math.floor(c - r), 0), n)
    return lo, max(min(math.ceil(c + r) + 1, n), lo)


def _draw_eye(identity_seed: int, width: int, height: int,
              cx: float, cy: float, r_p: float, r_i: float) -> np.ndarray:
    rows, cols, ann, index, pupil, lid = _polar_map(width, height, cx, cy, r_p, r_i)
    img = np.full((height, width), REFLECTANCE_SCLERA)
    box = img[rows, cols]
    box[ann] = iris_texture(identity_seed).ravel()[index]
    box[pupil] = REFLECTANCE_PUPIL
    box[lid] = REFLECTANCE_LID
    return img


# one entry: the identity-free half of a draw, which the hd-curve template and
# both eyes of every impostor pair share at the base geometry
@functools.lru_cache(maxsize=1)
def _polar_map(width: int, height: int, cx: float, cy: float, r_p: float, r_i: float
               ) -> tuple[slice, slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where a draw of this geometry puts the iris sheet, pupil and lid (read-only).

    Returns the iris disk's box as canvas rows and columns, then, over that
    box, the annulus mask, the flat sheet index of each annulus pixel, the
    pupil mask and the lid mask.  Every pixel the iris, pupil or lid covers
    lies inside the box.
    """
    y0, y1 = _span(cy, r_i, height)
    x0, x1 = _span(cx, r_i, width)
    yy, xx = np.ogrid[y0:y1, x0:x1]
    dy, dx = np.broadcast_arrays(yy - cy, xx - cx)
    rr = np.hypot(dy, dx)

    ann = (rr >= r_p) & (rr < r_i)
    theta = np.arctan2(dy[ann], dx[ann])
    # arctan2 is in [-pi, pi], where "% 2pi" adds 2pi to exactly the negatives
    theta[theta < 0] += 2 * np.pi
    radial = (rr[ann] - r_p) / (r_i - r_p)
    nr, na = SHEET_RADIAL, SHEET_ANGULAR
    ri_idx = np.clip((radial * nr).astype(int), 0, nr - 1)
    ai_idx = (theta / (2 * np.pi) * na).astype(int) % na
    index = ri_idx * na + ai_idx

    pupil = rr < r_p
    lid = (yy < (cy - r_i * (1 - 2 * LID_FRACTION))) & (rr < r_i)
    for a in (ann, index, pupil, lid):
        a.flags.writeable = False
    return slice(y0, y1), slice(x0, x1), ann, index, pupil, lid


# streams held: every sweep cell of repeat r exposes with that repeat's noise
# seed, so the canonical 5 repeats of a cell all find their stream; a sweep
# with more repeats cycles more seeds than the cache holds and misses on
# almost every exposure
_NOISE_STREAMS = 5


def read_noise(noise_seed: int, n: int) -> np.ndarray:
    """The first ``n`` standard normals of the noise seed's read-noise stream.

    Flat float64 and read-only, equal to
    ``np.random.default_rng((noise_seed, 0x4652414D)).standard_normal(n)``:
    the generator fills sequentially, so a stream drawn for a smaller box
    is the prefix of one drawn for a larger box.
    """
    return _noise_stream(int(noise_seed)).take(n)


class _NoiseStream:
    """One seed's generator and the prefix of its normals drawn so far."""

    def __init__(self, noise_seed: int):
        self.rng = np.random.default_rng((noise_seed, 0x4652414D))
        self.drawn = np.empty(0)
        self.drawn.flags.writeable = False

    def take(self, n: int) -> np.ndarray:
        if n > self.drawn.size:
            self.drawn = np.concatenate(
                (self.drawn, self.rng.standard_normal(n - self.drawn.size)))
            self.drawn.flags.writeable = False
        return self.drawn[:n]


# keyed on a Python int: read_noise converts, so np.int64(5) and 5 share one
@functools.lru_cache(maxsize=_NOISE_STREAMS)
def _noise_stream(noise_seed: int) -> _NoiseStream:
    return _NoiseStream(noise_seed)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM, the plainest thing every viewer still opens."""
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())
