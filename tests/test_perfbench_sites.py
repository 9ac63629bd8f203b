"""What the benchmark runner relies on when it imports the package.

The tracer looks each (module, attribute path) up when it installs, so a
renamed function or a dropped import fails the traced run before it starts.
Its counters read the wrapped calls' arguments and results, so a reshaped
argument fails only once a traced call returns.  Each benchmark set-up purges
and re-imports the package, so anything that keeps the previous import alive
is counted in the run's peak memory.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowmatch import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _sites():
    layers = _load("layers", "perfbench_layers")
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


def test_traced_solves_record_every_counter(tmp_path, monkeypatch):
    layers = _load("layers", "perfbench_layers")
    # spans.py imports its layer table as the top-level module "layers"
    monkeypatch.setitem(sys.modules, "layers", layers)
    spans = _load("spans", "perfbench_spans")
    circulant, ab = tmp_path / "circulant.json", tmp_path / "ab.json"
    assert cli.main(["generate", "--family", "circulant_two_factor", "--d", "20",
                     "--extra", "15", "-o", str(circulant)]) == 0
    assert cli.main(["generate", "--family", "ab_bipartite", "--n", "32",
                     "--extra", "0", "-o", str(ab)]) == 0

    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["solve", "--solver", "alspach", "-o", str(tmp_path / "a.json"),
                           str(circulant)]),
                 cli.main(["solve", "--solver", "sampling", "-o", str(tmp_path / "s.json"),
                           str(ab)])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]

    counted = {layer.name for layer in layers.LAYERS if layer.counters}
    seen = {name for name, *_ in tracer.spans}
    assert {"solvers.hypergraph.nibble_match", "solvers.augment.augment_flagged",
            "solvers.two_factor.alspach_solve", "solvers.sampling.sampling_solve"} <= seen
    for name, _start, _end, _parent, _request, counts in tracer.spans:
        if name in counted:
            assert counts, f"{name} recorded no counters"
    nibble = [counts for name, *_, counts in tracer.spans
              if name == "solvers.hypergraph.nibble_match"]
    assert all(0 < c["triples"] <= c["colours"] == 20 for c in nibble)


def test_traced_generate_and_verify_hit_the_generator_sites(tmp_path, monkeypatch):
    layers = _load("layers", "perfbench_layers")
    monkeypatch.setitem(sys.modules, "layers", layers)
    spans = _load("spans", "perfbench_spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["generate", "--family", family, *args,
                           "-o", str(tmp_path / f"{family}.json")])
                 for family, args in (("latin_random", ["--n", "6"]),
                                      ("ab_bipartite", ["--n", "8", "--extra", "2"]),
                                      ("circulant_two_factor", ["--d", "4"]))]
        codes.append(cli.main(["verify", "--theorem", "grinblat_weak", "--n", "9",
                               "--trials", "1", "-o", str(tmp_path / "v.json")]))
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    seen = {name for name, *_ in tracer.spans}
    assert {"generators.gen_latin", "generators.gen_ab", "generators.gen_two_factorized",
            "generators.gen_grinblat", "solvers.greedy.greedy_maximal",
            "verification.check"} <= seen
