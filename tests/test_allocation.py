"""Memory behaviour of the eval path and of the CLI process.

The library stages allocate only the arrays they keep, so repeated eval
passes reuse memory instead of faulting fresh pages in. Only `cli.entry`,
which owns its process, retunes glibc's allocator; importing the package
or calling `main` leaves it alone.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from ensograph import cli
from ensograph.cube import anomalies, climatology
from ensograph.grid import GridSpec
from helpers import random_sst

SRC = str(Path(__file__).resolve().parents[1] / "src")

FAULTS_PER_PASS_BOUND = 2000

# Ten `eval` passes through cli.main on the long-record shape (1800 months,
# 21 x 66 cells, a horizon-7 model on the 130 ONI-box nodes), each measured
# with getrusage of this process.
EVAL_PASSES = r"""
import contextlib, io, json, resource, sys
from pathlib import Path
from ensograph import cli, grid, stgnn, synth
from ensograph.cube import save_cube

root = Path(sys.argv[1])
lats = tuple(float(v) for v in range(-20, 21, 2))
lons = tuple(float(v) for v in range(150, 281, 2))
cube, _ = synth.generate(synth.SynthConfig(lats=lats, lons=lons, months=1800, start=(1871, 1), seed=1))
save_cube(cube, root / "cube.json")
nodes = grid.region_nodes(cube.grid, grid.ONI_BOX)
config = stgnn.ModelConfig(n_nodes=len(nodes), horizon=7, seed=1)
stgnn.save_checkpoint(root / "m.ckpt", stgnn.init_params(config), config, 1.0, 1,
                      base_period=(1871, 1973), grid=cube.grid, nodes=nodes)
args = ["eval", "--data", str(root / "cube.json"), "--checkpoint", str(root / "m.ckpt"),
        "--out", str(root / "skill.csv")]
faults = []
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def _env(**extra):
    path = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts depend on glibc malloc")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_repeated_eval_passes_stay_under_the_fault_budget(tmp_path, threads):
    # A fresh process, since glibc's dynamic mmap threshold depends on what the
    # process freed before. The first pass pays for the heap's growth, and the
    # threshold can take up to three more passes to settle, so the bound holds
    # the median of the later passes. Whole-cube float64 temporaries and
    # batch-256 activations cost 5k to 10k faults on every pass.
    proc = subprocess.run([sys.executable, "-c", EVAL_PASSES, str(tmp_path)],
                          env=_env(OPENBLAS_NUM_THREADS=threads),
                          capture_output=True, text=True, timeout=300, check=True)
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert statistics.median(faults[1:]) < FAULTS_PER_PASS_BOUND, f"minor faults per eval pass: {faults}"


def test_cube_stages_make_no_whole_cube_float64_temporary():
    # numpy reports its buffers to tracemalloc. A float64 copy of the cube, or of
    # its base years, would cost 8 or 4 bytes a cell; anomalies keep 5 (float32
    # values and the mask), and their finiteness check, two reductions on a finite
    # cube, takes no whole-cube temporary
    grid = GridSpec(tuple(float(v) for v in range(-20, 21, 2)), tuple(float(v) for v in range(150, 281, 2)))
    cube = random_sst(np.random.default_rng(3), grid, n_time=600, start=(1871, 1), missing_frac=0.01)
    clim = climatology(cube, (1871, 1900))
    for stage, bound in ((lambda: climatology(cube, (1871, 1900)), 2.0), (lambda: anomalies(cube, clim), 5.5)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cube.values.size < bound


def _recording_libc(calls, has_mallopt=True):
    libc = types.SimpleNamespace()
    if has_mallopt:
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        libc.mallopt = mallopt
    return libc


def test_entry_pins_the_allocator_and_main_does_not(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _recording_libc(calls))
    assert cli.main(["synth", "--out", str(tmp_path / "c"), "--months", "24"]) == 0
    assert calls == []
    monkeypatch.setattr(sys, "argv", ["ensograph", "--version"])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0
    assert calls == [(-3, 32 << 20), (-1, 512 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_entry_without_mallopt_does_nothing_more(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _recording_libc([], has_mallopt=False))
    monkeypatch.setattr(sys, "argv", ["ensograph", "--version"])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0


def test_importing_the_package_leaves_the_allocator_alone():
    code = (
        "import ctypes, numpy, pkgutil, importlib\n"
        "opened = []\n"
        "ctypes.CDLL = lambda *a, **k: opened.append(a)\n"
        "import ensograph\n"
        "for mod in pkgutil.iter_modules(ensograph.__path__):\n"
        "    if mod.name != '__main__':\n"
        "        importlib.import_module('ensograph.' + mod.name)\n"
        "print(opened)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
