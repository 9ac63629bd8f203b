"""SHA-256 pins of `generate` files, `solve` reports, `check` reports and
`sweep` rows.

An entry of `generators.FAMILIES`, `cli.SOLVERS`, `verification.THEOREMS` or
`verification.PIPELINES` that calls its generator, solver or split
probability differently changes a digest here.
"""

import hashlib
import json
from collections import Counter

import pytest

from rainbowmatch.cli import main
from rainbowmatch.verification import check, sweep_surplus


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (family, options, digest of the written instance file)
GENERATE_PINS = [
    ("latin_cayley", ["--n", "5"],
     "f777014201236cdea0622253a7ed6254ca04682fc6e0fc890dc2710533f8279d"),
    ("latin_cayley", ["--n", "8"],
     "a7604a625667ac0688dfe6e04d6575e28914795c5bc19036249c187294f6845d"),
    ("latin_random", ["--n", "6", "--seed", "3"],
     "1cd5b474558a6ce535a9e32de1c7039bb2b616e511b3ef202be774fd683f7280"),
    ("latin_random", ["--n", "9", "--seed", "11"],
     "59fd8c1a9c2a82f8dd4aecfa64ec7685e48424acf9f35458241fb2c77a0db0fa"),
    ("ab_bipartite", ["--n", "8", "--extra", "2", "--seed", "1"],
     "6e723454dc6e0b424b0e525c24992a52c327c65d37c5eb76dae6a91c9ee240cf"),
    ("ab_bipartite", ["--n", "12", "--seed", "5"],
     "850cd68d95460e63fd50fa44dd395596fe80c4f1538bddbef39568ee74da8d33"),
    ("ab_general", ["--n", "8", "--extra", "2", "--seed", "1"],
     "efc565f50f03212c79f0030e04ae92e9bb4c7d1bd4b12cafa22e31cac439f764"),
    ("ab_general", ["--n", "10", "--extra", "3", "--seed", "7"],
     "39be6ec9da1fc1e7d0f9be64f1a7f6963a635aaf4c1f6246ff00f2cb6f98c39d"),
    ("grinblat", ["--n", "6", "--v", "18", "--m", "6", "--seed", "2"],
     "cdb14dd6cf1e39b5ccbc2caf72c71d39012e30f4bca76d5c1a640c2f6c888e17"),
    # m = 2 binds: three rejected cliques reshuffle their colour's tail
    ("grinblat", ["--n", "10", "--v", "24", "--m", "2", "--seed", "4"],
     "7f4465c7897490e78b06c5e7ca138e006c48034711c3343bd46e6e786b7cc28a"),
    # m >= n never checks the cap; a pool of 350 shuffles past 256 ids
    ("grinblat", ["--n", "100", "--v", "300", "--m", "100", "--seed", "5"],
     "52f67be76887d343852f1ef21f103e183a53d4dc508b60054966b4e8107ebdce"),
    ("triangle_lb", ["--n", "3"],
     "30a5546a4ee002b333ee3fb926330926b854110b08ad0853c646f27fbb5aa59a"),
    ("triangle_lb", ["--n", "6"],
     "8537e4a68f3771949f83c25d9595d3829791f13d86145fd93e7c400b0fc5069f"),
    ("two_k4", [],
     "3f4266726162c7f6279997b42caa798acdd34e01d8c4bc73b6b66da3f66af89c"),
    ("two_k4", ["--seed", "9"],
     "3f4266726162c7f6279997b42caa798acdd34e01d8c4bc73b6b66da3f66af89c"),
    ("multiplicity_lb", ["--n", "5", "--d", "2", "--seed", "1"],
     "0e1e98d41a6d5f3bbe3e910b744a5d7864b994c81d3709f8a4e2465359587406"),
    ("multiplicity_lb", ["--n", "7", "--d", "3", "--seed", "2"],
     "41bb34a18c21dba85e73fe5062360c2b9e5ebc351425309d3a97f6208da9943a"),
    ("circulant_two_factor", ["--d", "4", "--extra", "2"],
     "90ef138a99b18e9fafa55536ca4554784ccb0644f95d16781b28e5a16c60f25b"),
    ("circulant_two_factor", ["--d", "7", "--seed", "3"],
     "68748815a2497547e44e88ae8f871c63a3845626bf746df5aea751f7bc034a4c"),
    # 8,460 edges: more than one of save_instance's blocks
    ("circulant_two_factor", ["--d", "60", "--extra", "20"],
     "1117fd4d34a74bf34c1d80379ca7d08e7a7697e7a3b5c225e0d3c388d8791d5a"),
    ("symmetric_latin_two_factor", ["--d", "3"],
     "c55673bffcbf41e25fdfdd7a0db7b59ed1c4c35fdcb19b9b5f80ce11f3fc00cf"),
    ("symmetric_latin_two_factor", ["--d", "5", "--seed", "1"],
     "167326e357200a1bfcce5c85b141600ccd7cb9c85e511dd5aaa34a9429b403fb"),
]


def _pin_ids(pins):
    """family-k for the k-th pin of each family."""
    seen = Counter()
    ids = []
    for family, *_ in pins:
        ids.append(f"{family}-{seen[family]}")
        seen[family] += 1
    return ids


@pytest.mark.parametrize("family, options, digest", GENERATE_PINS,
                         ids=_pin_ids(GENERATE_PINS))
def test_generate_output_is_pinned(tmp_path, family, options, digest):
    path = tmp_path / "inst.json"
    assert main(["generate", "--family", family, *options, "-o", str(path)]) == 0
    assert _sha256(path.read_bytes()) == digest


# (solver, generate options, digest of the report file of a seed-7 solve)
SOLVE_PINS = [
    ("greedy", ["latin_random", "--n", "9", "--seed", "11"],
     "be3c298d746c3062d75b3d9b545f9f190b8f4653d9c214d11384688beec96dfd"),
    ("augment", ["latin_random", "--n", "9", "--seed", "11"],
     "fd02a5d27d848aae5888abda0777e675a3348c184e76acf699b65d0588bf6d85"),
    # reaches the repair augment
    ("sampling", ["ab_bipartite", "--n", "16", "--seed", "5"],
     "f7aa058164dc13d556a3546fcfd5ec32b82387ab99c3e202aba9a418df6fba48"),
    # the nibble places all five colours
    ("alspach", ["circulant_two_factor", "--d", "5", "--seed", "3"],
     "293ef20ac9562903d53109017bfb411d3e15dfa254a5ca155a096439b868b382"),
    # 31 vertices >= 4d: alspach's greedy path
    ("alspach", ["circulant_two_factor", "--d", "5", "--extra", "20"],
     "0171cdc3fdef6b903476c0633a381b62979b2cdd4c0230df00188272347377cd"),
    ("exact", ["latin_cayley", "--n", "6"],
     "9270de9533a3bfd0134ef9cbad4741df4d7530fe352dc4971e3bb8a2ae62c3ee"),
]


@pytest.mark.parametrize("solver, family_options, digest", SOLVE_PINS,
                         ids=_pin_ids(SOLVE_PINS))
def test_solve_report_is_pinned(tmp_path, monkeypatch, solver, family_options,
                                digest):
    # relative paths keep the manifest's command line free of tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert main(["generate", "--family", *family_options, "-o", "inst.json"]) == 0
    assert main(["solve", "--solver", solver, "--seed", "7",
                 "-o", "report.json", "inst.json"]) == 0
    assert _sha256((tmp_path / "report.json").read_bytes()) == digest


# theorem -> (n values, trials, seed, digest of the sorted-key report JSON)
CHECK_PINS = {
    "grinblat_weak": ([9, 16], 2, 1,
        "351e03b84aa98e97b9fbddd5e26fee338ad67fbd8aab122ff7804f09052221f8"),
    "grinblat_strong": ([16], 2, 2,
        "d27921af1b598a5a85616d9250c70e6efe9cebc5c1cd5d5c828873cea3983a80"),
    "ab_bipartite_strong": ([16, 32], 2, 3,
        "576c86f55f64de49119ee68c5970d3891a2c22181480ed710bd61dc7a26ccee0"),
    "ab_general_strong": ([16, 32], 2, 4,
        "1a67f4a0112c35e81bfa87a4a951eb805751d9f69b555691fc6c1e99937f628c"),
    "grinblat_multiplicity": ([16, 32], 2, 5,
        "21e6d96399981a19a08b321f951f013616be6fe1a0f29100d4b7135e4d15aac7"),
    "alspach_strong": ([5, 10], 2, 6,
        "1574c346a334f7e0036bfccfd431b0de7a3fae9bd39c90b861ce6d61ac69ec02"),
    "triangle_lb": ([3, 4, 5], 1, 7,
        "866fe4db1f2f4cd4fbcd508ffda24a12d243cfa721cef3e927de6c3e8ab15a46"),
    "multiplicity_lb": ([5, 21], 1, 8,
        "f33d1a7f5130e5e67ce6dc7f0c8ca7790c64fc439ca49160210d617861911de8"),
    "two_k4_lb": ([3], 1, 9,
        "9d00e6d81b4b8eb9df55ed44773fdb44cc95b8360de0b8ee7df722c0dca40573"),
    "latin_optimum": ([3, 4], 1, 10,
        "1bf34fadd0262b898284d95adaaeb534817a69f7430c8422eba6049cdfdb669b"),
    "expander_full": ([8, 12], 2, 11,
        "6ac739ba9fa13ee37cf26fd946f1d7900b0d8cee3a18c04d216c15968f37241a"),
    "edge_disjoint": ([16], 2, 12,
        "05b9d4639146258b89ea1ffe881e8fb63f458ca4f3f86f5c34fe40877ce0e506"),
    "reduction_lift": ([3, 5], 2, 13,
        "b04dc4ba29ede4d535567347f14a74d2b70f9d76b927a31304ebf0c5290e66f4"),
}


@pytest.mark.parametrize("theorem", list(CHECK_PINS))
def test_check_report_is_pinned(theorem):
    n_values, trials, seed, digest = CHECK_PINS[theorem]
    doc = check(theorem, n_values, trials, seed).to_json_dict()
    assert _sha256(json.dumps(doc, sort_keys=True).encode()) == digest


# family -> (n, surplus values, trials, seed, digest of the sorted-key rows)
SWEEP_PINS = {
    "ab_bipartite": (16, [0, 4, 16], 3, 1,
        "cd17e492951114755dea8f3239410ca6274beb9a5580a84a2dd2ddeb49ce295a"),
    "ab_general": (64, [0, 8], 2, 2,
        "bf743f228101b57abecbb0fe84b345f2c3c6a21aa9730fbe0eb3bd56d9d8f35c"),
    "grinblat": (12, [0, 10], 3, 3,
        "3bb5222cb53a8f8b88047ff3fb2caed17b2985d556f53650be24acd9e020365e"),
}


@pytest.mark.parametrize("family", list(SWEEP_PINS))
def test_sweep_rows_are_pinned(family):
    n, surplus, trials, seed, digest = SWEEP_PINS[family]
    rows = sweep_surplus(family, n, surplus, trials, seed)
    assert _sha256(json.dumps(rows, sort_keys=True).encode()) == digest
