"""Every ``repro`` module imports on its own, in a fresh process.

An import cycle only shows when a module is the *first* of its cycle to
be imported, so each module is imported in a process that has loaded no
``repro`` module before.  A fresh interpreter that never imports
``repro`` preloads numpy, then forks one child per module: the child's
``repro`` imports start from nothing, as in a new interpreter.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

_DRIVER = r"""
import importlib, json, multiprocessing, os, sys, traceback
import numpy  # third-party only: no repro module is loaded before the forks


def check(name):
    try:
        importlib.import_module(name)
    except BaseException:
        return name, traceback.format_exc().strip().splitlines()[-1]
    return name, None


if __name__ == "__main__":
    # maxtasksperchild=1: every module gets a new fork of this process.
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(4, os.cpu_count() or 1), maxtasksperchild=1) as pool:
        results = pool.map(check, sys.argv[1:], chunksize=1)
    print(json.dumps({name: error for name, error in results if error}))
"""


def _modules():
    return sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def test_module_list_covers_the_package():
    modules = _modules()
    assert "repro.wire" in modules
    assert "repro.core.server" in modules
    assert len(modules) > 50


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_every_module_imports_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *_modules()],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {}


def test_world_import_leaves_the_http_exporter_unloaded():
    # ``repro.obs`` loads its HTTP exporter (and with it ``http.server``,
    # ``email`` and ``ssl``) only when one of its names is first used.
    probe = (
        "import sys, repro.sim.world\n"
        "print('http.server' in sys.modules)\n"
        "from repro.obs import MetricsHTTPServer, PROMETHEUS_CONTENT_TYPE\n"
        "print('http.server' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
