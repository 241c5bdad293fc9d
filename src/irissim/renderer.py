"""Eye-region image formation.

Produces the sensor crop around one eye for a given optical train state,
mirror pose and subject.  Radiometry is deliberately simple (matte
reflectances, constant illumination); what matters for the pipeline is
that geometry, defocus, astigmatism, motion smear and sensor noise are
faithful to the configured state and reproducible from the seeds.

An exposure runs in two stages.  The clean-optics stage draws the eye and
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

The exposure stage adds Gaussian read noise from the frame's noise seed to
the tight-crop box, clips and quantizes, once per call.  On a tight crop the
box is the whole canvas.  A larger canvas, such as the 640x480 frame, is
the clean sclera grey (``SCLERA_GREY``) outside the window and noise-free
outside the box: nothing downstream reads beyond the iris.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.ndimage import gaussian_filter

from . import optics
from .optics import OpticalTrain
from .scene import RigGeometry, line_of_sight_mm, reflected_view_dir
from .texture import iris_texture

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
_MARGIN = 1.3  # tight-crop (and noise box) half side per iris radius


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


def disk_kernel(diameter_px: float) -> np.ndarray:
    """Defocus disk with an antialiased rim, normalized to unit sum."""
    r = diameter_px / 2.0
    n = 2 * int(math.ceil(r + 0.5)) + 1
    c = n // 2
    yy, xx = np.mgrid[0:n, 0:n]
    rr = np.hypot(yy - c, xx - c)
    k = np.clip(r - rr + 0.5, 0.0, 1.0)
    return k / k.sum()


def line_kernel(length_px: float, direction: tuple[float, float]) -> np.ndarray:
    """Uniform smear along a direction, splatted bilinearly."""
    half = length_px / 2.0
    n = 2 * (int(math.ceil(half)) + 1) + 1  # one spare cell for the bilinear splat
    c = n // 2
    dx, dy = direction
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        dx, dy = 1.0, 0.0
    else:
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


def fftconvolve(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``scipy.signal.fftconvolve(img, kernel, mode="same")``, bit for bit.

    ``img`` is real 2-D with no side of 1 (``_convolve_same`` pads it by
    n // 2 all round) and ``kernel`` is odd n x n with n >= 3, so scipy
    transforms both axes: these are its pocketfft calls at its fast lengths,
    without the cost of importing ``scipy.signal``.
    """
    n = kernel.shape[0]
    shape = [fft.next_fast_len(s + n - 1, True) for s in img.shape]
    full = fft.irfftn(fft.rfftn(img, shape) * fft.rfftn(kernel, shape), shape)
    c = n // 2
    h, w = img.shape
    return full[c:c + h, c:c + w]


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


def _image_offset_px(train: OpticalTrain, power_dpt: float,
                     pan_deg: float, tilt_deg: float, eye_pos) -> tuple[float, float]:
    """Where the eye lands relative to the crop centre, from the aim residual."""
    e = np.asarray(eye_pos, dtype=float)
    e_hat = e / np.linalg.norm(e)
    v = reflected_view_dir(pan_deg, tilt_deg)
    delta = e_hat - np.dot(e_hat, v) * v  # transverse angular error, radians
    u, w = _image_basis(v)
    scale = optics.effective_focal_length(train, power_dpt) / optics.PIXEL_PITCH_MM
    return float(np.dot(delta, u) * scale), float(np.dot(delta, w) * scale)


def render_eye(train: OpticalTrain, *, power_dpt: float, pan_deg: float,
               tilt_deg: float, eye_pos_mm, identity_seed: int, noise_seed: int,
               eye_velocity_mmps=(0.0, 0.0, 0.0), exposure_ms: float = 3.0,
               rig: RigGeometry = RigGeometry(), k_ast: float = DEFAULT_K_AST,
               base_canvas: tuple[int, int] | None = None) -> Frame:
    """Render the eye crop for one exposure.

    Raises TargetMissed when the folded axis is so far off the eye that the
    iris would not fit on the crop (typically a mirror still in flight).
    ``base_canvas`` sets the minimum crop size; pass (0, 0) for the tight
    crop used in bulk sweeps.
    """
    d = line_of_sight_mm(eye_pos_mm, rig)
    px = optics.pixels_across_iris(train, d)
    r_i = px / 2.0
    r_p = PUPIL_FRACTION * r_i

    off_x, off_y = _image_offset_px(train, power_dpt, pan_deg, tilt_deg, eye_pos_mm)

    min_h, min_w = base_canvas if base_canvas is not None else (BASE_HEIGHT, BASE_WIDTH)
    half = math.ceil(_MARGIN * r_i)  # the tight crop's half side
    width = max(min_w, 2 * half)
    height = max(min_h, 2 * half)
    cx = width / 2.0 + off_x
    cy = height / 2.0 + off_y
    if (cx - 1.05 * r_i < 0 or cx + 1.05 * r_i >= width
            or cy - 1.05 * r_i < 0 or cy + 1.05 * r_i >= height):
        raise TargetMissed(
            f"iris centre offset ({off_x:.0f},{off_y:.0f}) px leaves the crop"
        )

    blur_mm = optics.blur_on_sensor_mm(train, power_dpt, d)
    blur_px = blur_mm / optics.PIXEL_PITCH_MM
    astig_sigma = k_ast * max(0.0, power_dpt) ** 2

    e = np.asarray(eye_pos_mm, dtype=float)
    e_hat = e / np.linalg.norm(e)
    v = np.asarray(eye_velocity_mmps, dtype=float)
    v_perp = v - np.dot(v, e_hat) * e_hat
    motion_px = (float(np.linalg.norm(v_perp)) * (exposure_ms / 1000.0)
                 * (px / optics.IRIS_DIAMETER_MM))

    mdir = (1.0, 0.0)  # without a smear the cache key holds a fixed direction
    if motion_px > 0.5:
        u, w = _image_basis(e_hat)
        mdir = (float(np.dot(v_perp, u)), float(np.dot(v_perp, w)))
    window, rows, cols = _clean_image(identity_seed, width, height, cx, cy, r_p, r_i,
                                      float(blur_px), float(astig_sigma), motion_px, mdir)

    y0, y1 = _span(cy, half, height)
    x0, x1 = _span(cx, half, width)
    box = window[y0 - rows.start:y1 - rows.start, x0 - cols.start:x1 - cols.start]
    rng = np.random.default_rng((int(noise_seed), 0x4652414D))
    noisy = np.clip(box + rng.normal(0.0, READ_NOISE_GREY, box.shape), 0, 255).astype(np.uint8)
    if noisy.shape == (height, width):  # a tight crop: the box is the canvas
        img = noisy
    else:
        img = np.full((height, width), SCLERA_GREY, dtype=np.uint8)
        img[rows, cols] = np.clip(window, 0, 255)
        img[y0:y1, x0:x1] = noisy

    return Frame(
        image=img, cx=cx, cy=cy, r_pupil_px=r_p, r_iris_px=r_i,
        px_across_iris=px, blur_px=float(blur_px), astig_sigma_px=float(astig_sigma),
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
    disk = disk_kernel(blur_px) if blur_px > 0.05 else None
    line = line_kernel(motion_px, mdir) if motion_px > 0.5 else None
    sigma = (astig_sigma, 0.3 * astig_sigma) if astig_sigma > 0.05 else None
    # Outside the iris disk's box the eye is flat sclera, which every stage
    # leaves flat, so the stages run on that box grown by their summed reach
    # (a kernel's half width; gaussian_filter truncates at 4 sigma).  The
    # window also covers the tight-crop box the exposure adds noise to.
    reach = sum(k.shape[0] // 2 for k in (disk, line) if k is not None)
    ry, rx = (int(4.0 * s + 0.5) for s in sigma) if sigma else (0, 0)
    oy, ox = r_i + reach + ry, r_i + reach + rx
    half = math.ceil(_MARGIN * r_i)
    rows = slice(*_span(cy, max(half, oy), height))
    cols = slice(*_span(cx, max(half, ox), width))
    img = _draw_eye(identity_seed, cols.stop - cols.start, rows.stop - rows.start,
                    cx - cols.start, cy - rows.start, r_p, r_i)
    y0, y1 = (i - rows.start for i in _span(cy, oy, height))
    x0, x1 = (i - cols.start for i in _span(cx, ox, width))
    optics_window = img[y0:y1, x0:x1]
    if disk is not None:
        optics_window = _convolve_same(optics_window, disk)
    if sigma:
        optics_window = gaussian_filter(optics_window, sigma=sigma, mode="nearest")
    if line is not None:
        optics_window = _convolve_same(optics_window, line)
    img[y0:y1, x0:x1] = optics_window
    img = img * TRANSMISSION * 255.0
    img.flags.writeable = False
    return img, rows, cols


def _span(c: float, r: float, n: int) -> tuple[int, int]:
    """Pixel rows (or columns) within ``r`` of ``c`` plus one spare, clipped to [0, n)."""
    lo = min(max(math.floor(c - r), 0), n)
    return lo, max(min(math.ceil(c + r) + 1, n), lo)


def _draw_eye(identity_seed: int, width: int, height: int,
              cx: float, cy: float, r_p: float, r_i: float) -> np.ndarray:
    tex = iris_texture(identity_seed)
    img = np.full((height, width), REFLECTANCE_SCLERA)
    # every pixel the iris, pupil or lid covers lies inside the iris disk's box
    y0, y1 = _span(cy, r_i, height)
    x0, x1 = _span(cx, r_i, width)
    box = img[y0:y1, x0:x1]
    yy, xx = np.ogrid[y0:y1, x0:x1]
    dy, dx = np.broadcast_arrays(yy - cy, xx - cx)
    rr = np.hypot(dy, dx)

    ann = (rr >= r_p) & (rr < r_i)
    theta = np.arctan2(dy[ann], dx[ann]) % (2 * np.pi)
    radial = (rr[ann] - r_p) / (r_i - r_p)
    nr, na = tex.shape
    ri_idx = np.clip((radial * nr).astype(int), 0, nr - 1)
    ai_idx = (theta / (2 * np.pi) * na).astype(int) % na
    box[ann] = tex[ri_idx, ai_idx]

    box[rr < r_p] = REFLECTANCE_PUPIL
    lid = yy < (cy - r_i * (1 - 2 * LID_FRACTION))
    box[lid & (rr < r_i)] = REFLECTANCE_LID
    return img


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM, the plainest thing every viewer still opens."""
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())
