"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every criterion is implemented as a pure function of fixed seeds returning a
JSON-serializable report.  Every criterion but 9 (the oracle against brute
force) and 10(a) (an augment property) runs checkers that `verify --theorem`
runs (`verification.THEOREMS`) at its own seeds, and generates and solves
nothing itself.  When the module's first test starts, a child Python process
with a different PYTHONHASHSEED starts too; it runs criteria 10 down to 1 and
prints their serialized reports, and the final test checks that they are
byte-identical to this process's, so a report that depends on hash order or
on state an earlier criterion left behind fails it.  Run as a script, this
module is that child.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowmatch
from rainbowmatch.generators import gen_ab, gen_grinblat, gen_latin
from rainbowmatch.graph import ColoredMultigraph
from rainbowmatch.seeding import derive_seed
from rainbowmatch.solvers import augment_flagged, exact_max_rainbow, greedy_maximal
from rainbowmatch.verification import THEOREMS
from test_exact import brute_force_max  # the oracle's own unit tests use it too

BASE_SEED = 20250824
# a hung child fails criterion 11 rather than the whole run
CHILD_TIMEOUT_S = 3600
_reports: dict[str, dict] = {}
# one human-readable verdict line per criterion; conftest prints these in the
# terminal summary, after pytest's output capture has been torn down
verdict_lines: list[str] = []


def _record(name: str, report: dict) -> dict:
    _reports[name] = report
    verdict = "PASS" if report["pass"] else "FAIL"
    line = f"[acceptance {name}] {verdict} :: {report['detail']}"
    verdict_lines.append(line)
    print(line)
    return report


def _cells(theorem_id: str, n: int, trials: int, *tag) -> list[tuple[bool, float]]:
    """(passed, margin) of THEOREMS[theorem_id]'s checker on `trials` cells at
    size n, with instance and solver seeds derived from BASE_SEED and tag."""
    checker = THEOREMS[theorem_id].checker
    return [checker(n, derive_seed(BASE_SEED, *tag, trial, "i"),
                    derive_seed(BASE_SEED, *tag, trial, "s"))
            for trial in range(trials)]


def _defect_free(theorem_id: str, n: int, trials: int, *tag) -> int:
    """Trials in which a strong checker passed: its pipeline reached defect 0."""
    return sum(passed for passed, _ in _cells(theorem_id, n, trials, *tag))


# -- criterion 1: maximal-matching size invariant on (n, 3n) instances -------

def criterion_1() -> dict:
    violations = []
    for n in (25, 100, 400):
        bound = n - math.isqrt(n)
        for trial, (passed, margin) in enumerate(
                _cells("grinblat_weak", n, 50, "c1", n)):
            if not passed:
                violations.append([n, trial, int(margin) + bound])
    return {"pass": not violations, "violations": violations,
            "detail": f"{len(violations)} size-bound violations over 150 trials"}


def test_criterion_1_greedy_size_invariant():
    assert _record("01", criterion_1())["pass"]


# -- criterion 2: strong clique-union pipeline -------------------------------

def criterion_2() -> dict:
    per_n = {}
    ok = True
    for n in (64, 100):
        wins = _defect_free("grinblat_strong", n, 50, f"c2-{n}")
        per_n[str(n)] = wins
        ok = ok and wins >= 49
    return {"pass": ok, "defect_free": per_n,
            "detail": f"defect-0 trials per n: {per_n} (need >= 49/50)"}


def test_criterion_2_strong_clique_union_pipeline():
    assert _record("02", criterion_2())["pass"]


# -- criterion 3: strong bipartite pipeline ----------------------------------

def criterion_3() -> dict:
    per_n = {}
    ok = True
    for n in (64, 256):
        wins = _defect_free("ab_bipartite_strong", n, 50, f"c3-{n}")
        per_n[str(n)] = wins
        ok = ok and wins >= 49
    return {"pass": ok, "defect_free": per_n,
            "detail": f"defect-0 trials per n: {per_n} (need >= 49/50)"}


def test_criterion_3_strong_bipartite_pipeline():
    assert _record("03", criterion_3())["pass"]


# -- criterion 4: oracle-certified lower bounds ------------------------------

def criterion_4() -> dict:
    cells = {}
    bad = []
    # (cell name, theorem, n, optimum wanted, the optimum at margin 0); these
    # theorems read no seed
    for name, theorem_id, n, want, top in (
            [("two_k4", "two_k4_lb", 3, 2, 3)]
            + [(f"triangle_lb_{n}", "triangle_lb", n, n - 1, n - 1)
               for n in range(3, 11)]
            + [(f"latin_{n}", "latin_optimum", n, n - 1 + n % 2, n)
               for n in (4, 6, 3, 5, 7)]):
        [(passed, margin)] = _cells(theorem_id, n, 1, "c4")
        certified = not math.isnan(margin)  # nan: the oracle ran out of nodes
        cells[name] = {"size": top - int(margin) if certified else None,
                       "want": want, "certified": certified}
        if not passed:
            bad.append(name)
    return {"pass": not bad, "cells": cells,
            "detail": f"{len(bad)} failing cells: {bad}" if bad
            else f"all {len(cells)} optima certified"}


def test_criterion_4_oracle_lower_bounds():
    assert _record("04", criterion_4())["pass"]


# -- criterion 5: full-size matchings on tight clique-union instances --------

def criterion_5() -> dict:
    failures = []
    checker = THEOREMS["expander_full"].checker  # reads no solver seed
    for n, m in ((20, 1), (50, 3), (100, 10)):  # m = ceil(n^2/1000)
        for trial in range(20):
            passed, margin = checker(n, derive_seed(BASE_SEED, "c5", n, m, trial), 0)
            if not passed:
                failures.append([n, m, trial,
                                 None if math.isnan(margin) else n + int(margin)])
    return {"pass": not failures, "failures": failures,
            "detail": f"{len(failures)} failures over 60 trials"}


def test_criterion_5_expander_full_size():
    assert _record("05", criterion_5())["pass"]


# -- criterion 6: edge-disjoint matchings ------------------------------------

def criterion_6() -> dict:
    # ceil(16^0.25) = 2 matchings of >= 16 - ceil(16^0.75) = 8 edges each
    passed, margin = THEOREMS["edge_disjoint"].checker(
        16, derive_seed(BASE_SEED, "c6"), 0)  # reads no solver seed
    return {"pass": passed, "margin": margin,
            "detail": f"2 edge-disjoint matchings of >= n - 8 edges at n = 16, "
                      f"smallest size - (n - 8) = {margin}"}


def test_criterion_6_edge_disjoint_matchings():
    assert _record("06", criterion_6())["pass"]


# -- criterion 7: 2-factorized pipeline in the tight regime ------------------

def criterion_7() -> dict:
    per_d = {}
    ok = True
    for d in (20, 40):
        wins = _defect_free("alspach_strong", d, 20, "c7", d)
        per_d[str(d)] = wins
        ok = ok and wins >= 19
    return {"pass": ok, "defect_free": per_d,
            "detail": f"defect-0 trials per d: {per_d} (need >= 19/20)"}


def test_criterion_7_two_factor_pipeline():
    assert _record("07", criterion_7())["pass"]


# -- criterion 8: orientation/bipartition reduction soundness ----------------

def criterion_8() -> dict:
    checker = THEOREMS["reduction_lift"].checker  # d = 10, 4 extra vertices
    iseed = derive_seed(BASE_SEED, "c8")  # one circulant; 50 reduction seeds
    bad = [trial for trial in range(50)
           if not checker(10, iseed, derive_seed(BASE_SEED, "c8", trial))[0]]
    return {"pass": not bad, "bad": bad,
            "detail": f"{len(bad)} invalid lifts over 50 runs"}


def test_criterion_8_reduction_soundness():
    assert _record("08", criterion_8())["pass"]


# -- criterion 9: oracle equals exhaustive enumeration -----------------------

def criterion_9() -> dict:
    rng = random.Random(derive_seed(BASE_SEED, "c9"))
    mismatches = []
    for idx in range(200):
        n_vertices = rng.randint(2, 6)
        n_colors = rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(1, 8)):
            u, v = rng.sample(range(n_vertices), 2)
            edges.append((u, v, rng.randrange(n_colors)))
        g = ColoredMultigraph(n_vertices, n_colors, edges)
        size, _, certified = exact_max_rainbow(g)
        if not certified or size != brute_force_max(g):
            mismatches.append(idx)
    return {"pass": not mismatches, "mismatches": mismatches,
            "detail": f"{len(mismatches)} mismatches over 200 tiny instances"}


def test_criterion_9_oracle_equivalence():
    assert _record("09", criterion_9())["pass"]


# -- criterion 10: substituted property checks for desk-unreachable bounds ---

def criterion_10() -> dict:
    # (a) augmentation is monotone and idempotent across a corpus sample
    prop_fail = []
    corpus = [gen_latin(8, "random", 1), gen_ab(20, 5, False, 2),
              gen_ab(20, 5, True, 3), gen_grinblat(15, 45, 3, 4)]
    for gi, g in enumerate(corpus):
        for trial in range(5):
            sseed = derive_seed(BASE_SEED, "c10a", gi, trial)
            start = greedy_maximal(g, "random", sseed)
            once, _ = augment_flagged(g, start, seed=sseed)
            twice, _ = augment_flagged(g, once, seed=sseed)
            if len(once) < len(start) or sorted(twice.pairs) != sorted(once.pairs):
                prop_fail.append([gi, trial])

    # (b) general (non-bipartite) pipeline at generous surplus and
    # (c) bounded-multiplicity clique-union pipeline
    per_run = {}
    ok_runs = True
    for run, theorem_id, tag in (("general", "ab_general_strong", "c10b"),
                                 ("multiplicity", "grinblat_multiplicity", "c10c")):
        for n in (64, 100):
            wins = _defect_free(theorem_id, n, 50, f"{tag}-{n}")
            per_run[f"{run}_{n}"] = wins
            ok_runs = ok_runs and wins >= 49

    ok = not prop_fail and ok_runs
    return {"pass": ok, "property_failures": prop_fail, "defect_free": per_run,
            "detail": f"augment property failures: {len(prop_fail)}; "
                      f"defect-0 per run: {per_run} (need >= 49/50)"}


def test_criterion_10_substituted_property_checks():
    assert _record("10", criterion_10())["pass"]


# -- criterion 11: determinism of every report above -------------------------

CRITERIA = {
    "01": criterion_1, "02": criterion_2, "03": criterion_3,
    "04": criterion_4, "05": criterion_5, "06": criterion_6,
    "07": criterion_7, "08": criterion_8, "09": criterion_9,
    "10": criterion_10,
}


def _child_env() -> dict:
    """This environment with another PYTHONHASHSEED than ours, importing the
    same rainbowmatch package."""
    env = dict(os.environ)
    ours = env.get("PYTHONHASHSEED", "")
    env["PYTHONHASHSEED"] = str((int(ours) + 1) % 2 ** 32) if ours.isdigit() else "1"
    src = str(Path(rainbowmatch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="module", autouse=True)
def rerun():
    """The child re-run, started with the module's first test so that it runs
    beside criteria 1-10, and killed and reaped however the module ends."""
    with subprocess.Popen([sys.executable, __file__], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            yield proc
        finally:
            proc.kill()


def test_criterion_11_reports_are_deterministic(rerun):
    # a criterion this run deselected is computed here, while the child runs
    ours = {name: json.dumps(_reports.get(name) or fn(), sort_keys=True)
            for name, fn in CRITERIA.items()}
    out, err = rerun.communicate(timeout=CHILD_TIMEOUT_S)
    assert rerun.returncode == 0, err
    again = json.loads(out)
    diffs = [name for name in CRITERIA if ours[name] != again[name]]
    report = {"pass": not diffs, "non_deterministic": diffs,
              "detail": f"{len(diffs)} criteria with differing re-run reports"}
    assert _record("11", report)["pass"]


if __name__ == "__main__":
    # the re-run criterion 11 compares against: criteria 10 down to 1
    json.dump({name: json.dumps(CRITERIA[name](), sort_keys=True)
               for name in reversed(CRITERIA)}, sys.stdout)
