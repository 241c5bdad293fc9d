"""Every name a package or test module imports is read somewhere in that module,
every function, class and module constant the package defines is used somewhere
in the package, every package function reads each of its parameters, only
the renderer reads the sensor width and crop margin that size a render, and
importing the command line leaves out every scipy package, jsonschema and the
process pool, and builds no texture weight matrix."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "irissim"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_module_imports_a_name_it_never_reads():
    # perfbench/ is left out: it changes only together with the benchmark it runs
    paths = MODULES + sorted(TESTS.glob("*.py"))
    unread = [f"{path.parent.name}/{path.name}: {name}"
              for path in paths for name in unused_imports(path.read_text())]
    assert unread == []


def used_names(source: str) -> set[str]:
    """Names read as a bare name or an attribute; imports alone do not count."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.fixture(scope="module")
def names_in_use() -> set[str]:
    return set().union(*(used_names(p.read_text()) for p in MODULES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_function_and_class_is_used(path, names_in_use):
    defined = [node.name for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [name for name in defined if name not in names_in_use]
    assert unused == []


def module_constants(source: str) -> list[str]:
    """The names a module's top-level assignments bind."""
    names = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [n.id for target in targets for n in ast.walk(target)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_constant_is_read(path, names_in_use):
    # a constant whose one rule was deleted is left behind unread
    unread = [name for name in module_constants(path.read_text())
              if name not in names_in_use and name != "__version__"]
    assert unread == []


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each argument its function's body never loads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}.{p.arg}" for p in params
                       if p.arg not in read and p.arg not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    # a flag the function never reads only looks like a choice the caller makes
    unread = [f"{path.name}: {name}" for path in MODULES
              for name in unread_parameters(path.read_text())]
    assert unread == []


def test_only_the_renderer_sizes_a_render():
    # renderer.render_side states the window rule once; validation calls it
    readers = {name: [p.stem for p in MODULES if name in used_names(p.read_text())]
               for name in ("SENSOR_PX_H", "_MARGIN")}
    assert readers == {"SENSOR_PX_H": ["optics", "renderer"], "_MARGIN": ["renderer"]}


def test_one_site_raises_render_too_wide():
    # validation and rendering share one message format only if one line writes it
    sites = [f"{path.stem}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "RenderTooWide"]
    assert len(sites) == 1, sites


SCIPY_PACKAGES = ("scipy", "scipy.fft", "scipy.ndimage", "scipy.special",
                  "scipy.signal", "scipy.stats")

# after irissim, the public packages load on the two C modules it registered
PUBLIC_SCIPY_PROBE = """
import numpy as np
import scipy.fft, scipy.ndimage
from irissim import renderer
img = np.random.default_rng(0).random((40, 50))
kernel = renderer.disk_kernel(3.0)
assert kernel.shape == (5, 5)
assert np.array_equal(renderer.gaussian_filter(img, (2.0, 0.6)),
                      scipy.ndimage.gaussian_filter(img, (2.0, 0.6), mode="nearest"))
shape = [scipy.fft.next_fast_len(s + 4, True) for s in img.shape]
full = scipy.fft.irfftn(scipy.fft.rfftn(img, shape) * scipy.fft.rfftn(kernel, shape), shape)
assert np.array_equal(renderer.fftconvolve(img, kernel), full[2:42, 2:52])
assert scipy.fft._pocketfft.basic.pfft is renderer._pocketfft
assert scipy.ndimage._filters._nd_image is renderer._nd_image
print("ok")
"""


def _fresh(probe: str) -> list[str]:
    """The words ``probe`` prints in a fresh interpreter: other tests import
    scipy's packages, jsonschema and the process pool into this one."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.split()


def test_cli_import_leaves_out_every_scipy_package():
    probe = ("import sys, irissim.cli; "
             f"print(sorted(set({SCIPY_PACKAGES!r}) & set(sys.modules)))\n"
             + PUBLIC_SCIPY_PROBE)
    assert _fresh(probe) == ["[]", "ok"]


# a serial run needs none of these: jsonschema is the test oracle of the schema
# walker, and the process pool is imported when a --parallel run starts one
SERIAL_RUN_LEAVES_OUT = ("jsonschema", "concurrent.futures.process", "multiprocessing")


def test_cli_import_and_validation_leave_out_jsonschema_and_the_pool():
    probe = ("import sys, irissim.cli; from irissim import config; "
             "config.validate_config(config.default_config('iom')); "
             f"print(sorted(set({SERIAL_RUN_LEAVES_OUT!r}) & set(sys.modules)))")
    assert _fresh(probe) == ["[]"]


def test_cli_import_builds_no_texture_weight_matrix():
    # they are built on a sheet's first octave, so setup time never pays for them
    probe = ("import irissim.cli; from irissim import texture; "
             "print(texture._weights.cache_info().currsize)")
    assert _fresh(probe) == ["0"]
