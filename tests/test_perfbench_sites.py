"""What the benchmark runner relies on when it imports the package.

The tracer looks each (module, attribute path) up when it installs, so a
renamed function or a dropped import fails the traced run before it starts.
Each benchmark set-up purges and re-imports the package, so anything that
keeps the previous import alive is counted in the run's peak memory.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers  # dataclasses resolve annotations through it
    spec.loader.exec_module(layers)
    return [(layer.name, module, path)
            for layer in layers.LAYERS for module, path in layer.sites]


@pytest.mark.parametrize("layer, module, path", _sites(), ids=str)
def test_site_resolves_to_a_callable(layer, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{layer}: {module}.{path} is not callable"


_REIMPORT = """
import gc, importlib, sys
def purge():
    for name in [m for m in sys.modules if m.split(".")[0] == "rainbowmatch"]:
        del sys.modules[name]
for _ in range(3):
    purge()
    importlib.import_module("rainbowmatch.cli")
purge()
gc.collect()
print(sum(1 for o in gc.get_objects()
          if isinstance(o, type) and o.__module__.startswith("rainbowmatch")))
"""


def test_reimport_releases_the_previous_package():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _REIMPORT], check=True,
                         capture_output=True, text=True, cwd=src).stdout
    assert out.split() == ["0"]
