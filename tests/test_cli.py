"""End-to-end command-line behaviour, run in process."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from endkit import curve_config_to_json, format_end_expr, parse_presentation, pretty_print
from endkit.cli import main

from conftest import curve_configs, end_exprs, presentations

LOCH = "surface loch_ness { root = H(root) }"
FLUTE = "surface flute { root = P(root, punc); punc = A(punc) }"
CANTOR = "surface cantor { root = P(root, root) }"
MIXED = "surface m1 { a = P(a, b); b = P(a, c); c = A(c) }"
MIXED_SWAPPED = "surface m2 { a = P(b, a); b = P(a, c); c = A(c) }"


@pytest.fixture
def surf(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text + "\n")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_classify_outputs(surf, capsys):
    a = surf("a.surf", "surface s finite S(g=1, b=0, p=1)")
    b = surf("b.surf", "surface t finite S(g=0, b=0, p=3)")
    code, out = run(capsys, "classify", a, b)
    assert code == 0
    assert out == '{"verdict":"NotHomeomorphic","witness":"genus"}\n'

    loch = surf("loch.surf", LOCH)
    code, out = run(capsys, "classify", loch, loch)
    assert code == 0
    assert out == '{"verdict":"Homeomorphic"}\n'


def test_classify_unknown_exits_2(surf, capsys):
    a = surf("m1.surf", MIXED)
    b = surf("m2.surf", MIXED_SWAPPED)
    code, out = run(capsys, "classify", a, b)
    assert code == 2
    assert json.loads(out)["verdict"] == "Unknown"


def test_decompose_census_literal(surf, capsys):
    s301 = surf("s301.surf", "surface s finite S(g=3, b=0, p=1)")
    code, out = run(capsys, "decompose", s301, "--mode", "strict")
    assert code == 0
    assert out == '{"pants":5,"punctured_disks":1}\n'


def test_decompose_json_and_dot(surf, capsys):
    loch = surf("loch.surf", LOCH)
    code, out = run(capsys, "decompose", loch, "--json", "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == {"pants": 3, "punctured_disks": 0}
    assert payload["complete"] is False and payload["depth"] == 3

    code, out = run(capsys, "decompose", loch, "--dot", "--depth", "2")
    assert code == 0
    assert out.startswith("graph decomposition {") and "Pants" in out


@pytest.mark.parametrize(
    "text, mode, case",
    [
        ("surface s finite S(g=0, b=0, p=1)", "strict", "PlaneExcludedError"),
        ("surface p { a = A(b); b = A(a) }", "lenient", "PlaneExcludedError"),
        ("surface t { r = A(h); h = H(x); x = A(y); y = A(x) }", "strict",
         "PuncturedTorusExcludedInStrictError"),
    ],
    ids=["finite-plane", "rule-plane", "rule-torus-strict"],
)
def test_decompose_error_object(surf, capsys, text, mode, case):
    path = surf("excluded.surf", text)
    code, out = run(capsys, "decompose", path, "--mode", mode)
    assert code == 1
    assert len(out.splitlines()) == 1
    err = json.loads(out)["error"]
    assert err["module"] == "decompose" and err["case"] == case
    assert err["message"]


def test_invariants(surf, capsys):
    flute = surf("flute.surf", FLUTE)
    code, out = run(capsys, "invariants", flute)
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 0
    assert payload["finite_type"] is False
    assert payload["cb"]["rank"] == 2 and payload["cb"]["degree"] == 1
    assert payload["ends_nonplanar"]["count"] == 0

    loch = surf("loch.surf", LOCH)
    _, out = run(capsys, "invariants", loch)
    payload = json.loads(out)
    assert payload["genus"] == "infinite"
    assert payload["ends"]["count"] == 1 and payload["ends_nonplanar"]["count"] == 1


def test_invariants_on_a_deep_comb(surf, capsys):
    k = 1200
    rules = [f"p{i} = P(t{i}, {f'p{i + 1}' if i < k - 1 else f't{k}'})" for i in range(k)]
    rules += [f"t{i} = A(t{i})" for i in range(k + 1)]
    comb = surf("comb.surf", "surface comb { " + "; ".join(rules) + " }")
    code, out = run(capsys, "invariants", comb)
    assert code == 0
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["ends"] == {"class": "finite", "count": k + 1}
    assert payload["cb"]["profile"] == [k + 1]



def test_realize_a_deep_tower(capsys):
    levels = 1200
    tower = "Seq(" * levels + "Pt(planar)" + ", planar)" * levels
    code, out = run(capsys, "realize", "0", tower, "--json")
    assert code == 0
    assert out.count("\n") == 1
    assert len(parse_presentation(json.loads(out)["presentation"]).rules) == levels + 1

def test_invariants_rank_cutoff(surf, capsys):
    flute = surf("flute.surf", FLUTE)
    _, out = run(capsys, "invariants", flute, "--rank-cutoff", "1")
    payload = json.loads(out)
    assert payload["cb"]["rank_exceeded"] is True


def test_negative_rank_cutoff_is_an_ends_error(surf, capsys):
    flute = surf("flute.surf", FLUTE)
    code, out = run(capsys, "invariants", flute, "--rank-cutoff", "-3")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["module"] == "ends"


def test_normalize_accepts_names_and_paths(surf, capsys):
    text = "surface s { root = P(mid, punc); mid = H(core); core = H(core); punc = A(punc) }"
    p = surf("s.surf", text)
    code, out = run(capsys, "normalize", p, "mid")
    assert code == 0 and "surface" in out

    code, out2 = run(capsys, "normalize", p, "0", "--json")
    assert code == 0
    assert "presentation" in json.loads(out2)

    code, out = run(capsys, "normalize", p, "7,7")
    assert code == 1
    assert json.loads(out)["error"]["module"] == "decompose"


def test_spine(surf, capsys):
    loch = surf("loch.surf", LOCH)
    code, out = run(capsys, "spine", loch)
    assert code == 0
    assert json.loads(out) == {"rank": "infinite", "core_states": ["root"]}

    code, out = run(capsys, "spine", loch, "--dot")
    assert code == 0 and out.startswith("digraph spine {")


def test_graph_phe(surf, capsys):
    loch = surf("loch.surf", LOCH)
    flute = surf("flute.surf", FLUTE)
    code, out = run(capsys, "graph-phe", loch, loch)
    assert code == 0 and json.loads(out) == {"verdict": "Yes"}
    code, out = run(capsys, "graph-phe", loch, flute)
    assert code == 0 and json.loads(out) == {"verdict": "No"}


def test_essential_pants(surf, capsys):
    cantor = surf("cantor.surf", CANTOR)
    code, out = run(capsys, "essential-pants", cantor)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"pants_id", "components", "census"}
    assert len(payload["components"]) >= 2

    small = surf("small.surf", "surface s finite S(g=1, b=0, p=1)")
    code, out = run(capsys, "essential-pants", small)
    assert code == 1
    assert json.loads(out)["error"]["case"] == "ComplexityTooLowError"


def _behind_chain(end: str) -> str:
    """A Cantor branch beside a 23-state annulus chain ending in ``end``."""
    chain = "; ".join(f"x{i} = A(x{i + 1})" for i in range(22))
    return f"surface s {{ root = P(c, x0); c = P(c, c); {chain}; {end} }}"


BINARY_TREE = "surface s { root = P(a1, a1); " + "".join(
    f"a{i} = P(a{i + 1}, a{i + 1}); " for i in range(1, 20)
) + "a20 = P(h, h); h = H(h) }"


@pytest.mark.parametrize(
    "command, extra, text, codes",
    [
        ("essential-pants", (), _behind_chain("x22 = H(y); y = H(y)"), {0}),
        ("normalize", ("x22", "--json"), _behind_chain("x22 = P(t, t); t = A(t)"), {0}),
        ("essential-pants", (), BINARY_TREE, {0}),
    ],
    ids=["handles-behind-cantor", "state-behind-cantor", "handles-behind-binary-tree"],
)
def test_occurrence_searches_past_a_big_unfolding(surf, capsys, command, extra, text, codes):
    code, out = run(capsys, command, surf("s.surf", text), *extra)
    assert code in codes
    assert len(out.splitlines()) == 1
    json.loads(out)


@pytest.fixture
def config_file(tmp_path):
    payload = {
        "target_circles": ["c0", "c1"],
        "components": [
            {"id": 0, "target": "c0", "kind": "Trivial"},
            {"id": 1, "target": "c0", "kind": "Trivial"},
            {"id": 2, "target": "c0", "kind": "Primitive", "label": {"degree": -2}},
            {"id": 3, "target": "c0", "kind": "Primitive", "label": "Homeo"},
            {"id": 4, "target": "c1", "kind": "Primitive", "label": "Homeo"},
        ],
        "nesting": {"0": None, "1": 0},
        "parallel_orders": {"c0": [3, 2]},
        "pi1_bijective": True,
        "global_degree": "plus-minus-one",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_rewrite_pipeline(config_file, capsys):
    code, out = run(capsys, "rewrite", config_file)
    assert code == 0
    payload = json.loads(out)
    assert [c["id"] for c in payload["final"]["components"]] == [3, 4]
    assert [s["rule"] for s in payload["trace"]] == [
        "r1_disk_removal",
        "r3_annulus_removal",
    ]
    assert any("coerced" in note for note in payload["notes"])


def test_rewrite_schedule_flag(config_file, capsys):
    code, out = run(capsys, "rewrite", config_file, "--schedule", "r1")
    assert code == 0
    payload = json.loads(out)
    assert [s["rule"] for s in payload["trace"]] == ["r1_disk_removal"]

    code, out = run(capsys, "rewrite", config_file, "--schedule", "r3")
    assert code == 1
    assert json.loads(out)["error"]["case"] == "LabelsNotNormalizedError"


def test_degree_check_both_spellings(tmp_path, capsys):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps({"proper": True, "boundary_embedding": [3, 3]}))
    code, out1 = run(capsys, "degree-check", str(path))
    assert code == 0
    code, out2 = run(capsys, "degree", "check", str(path))
    assert code == 0
    assert out1 == out2
    assert json.loads(out1)["abs_degree"] == 1

    path.write_text(json.dumps({"boundary_embedding": [2, 3]}))
    code, out = run(capsys, "degree-check", str(path))
    assert code == 1
    assert json.loads(out)["error"]["case"] == "BoundaryCountMismatchError"


def test_realize_and_family(surf, capsys):
    code, out = run(capsys, "realize", "2", "Union(Pt(planar), Pt(planar))")
    assert code == 0 and out.startswith("surface")

    code, out = run(capsys, "realize", "inf", "Pt(nonplanar)", "--json")
    assert code == 0

    code, out = run(capsys, "realize", "3", "Pt(nonplanar)")
    assert code == 1
    assert json.loads(out)["error"]["case"] == "InconsistentInvariantsError"

    code, out = run(capsys, "family", "3")
    assert code == 0
    assert json.loads(out)["count"] == 3

    code, out = run(capsys, "family", "65")
    assert code == 1
    assert json.loads(out)["error"]["module"] == "classify"


def test_missing_file_is_a_cli_error(capsys):
    code, out = run(capsys, "classify", "/nonexistent.surf", "/nonexistent.surf")
    assert code == 1
    assert json.loads(out)["error"]["module"] == "cli"


def test_syntax_error_names_the_surfaces_module(surf, capsys):
    bad = surf("bad.surf", "surface ( {{{")
    code, out = run(capsys, "invariants", bad)
    assert code == 1
    assert json.loads(out)["error"]["module"] == "surfaces"


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [["no-such-command"], [], ["degree"], ["invariants", "x.surf", "--rank-cutoff", "x"]],
    ids=["unknown-command", "no-command", "no-subcommand", "bad-int"],
)
def test_usage_errors_emit_one_json_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert (error["module"], error["case"]) == ("cli", "UsageError")


def test_output_is_deterministic(surf, capsys):
    cantor = surf("cantor.surf", CANTOR)
    _, first = run(capsys, "invariants", cantor)
    _, second = run(capsys, "invariants", cantor)
    assert first == second


def one_json_document(out: str):
    """The parsed document; fails unless ``out`` is exactly one line of
    standard JSON (no NaN or Infinity)."""
    assert out.endswith("\n") and out.count("\n") == 1, out

    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    return json.loads(out, parse_constant=reject)


def run_any(capsys, argv):
    """main(argv) with argparse's exits folded into the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


_S111 = {"s.surf": b"surface s finite S(g=1, b=1, p=1)"}
# past the 4,300 digits that int() converts on Python 3.11+
_LONG = "9" * 5000


@pytest.mark.parametrize(
    "files, argv, code, module",
    [
        ({"a.surf": b"surface s { r = A(r) } \xff"}, ["invariants", "a.surf"], 1, "cli"),
        ({}, ["family", "0"], 1, "classify"),
        ({}, ["family", "-1"], 1, "classify"),
        ({}, ["family", "65"], 1, "classify"),
        (_S111, ["decompose", "s.surf", "--depth", "1000000"], 0, None),
        (_S111, ["decompose", "s.surf", "--depth", "1000000000"], 1, "decompose"),
        (_S111, ["normalize", "s.surf", "mid"], 1, "decompose"),
        (_S111, ["normalize", "s.surf", "0", "--json"], 0, None),
        ({"d.json": b"null"}, ["degree-check", "d.json"], 1, "degree"),
        ({"d.json": b"[1, 2]"}, ["degree-check", "d.json"], 1, "degree"),
        ({}, ["realize", "\u00b2", "Pt(planar)"], 1, "surfaces"),
        ({"s.surf": f"surface s finite S(g={_LONG}, b=0, p=1)".encode()}, ["invariants", "s.surf"],
         1, "surfaces"),
        ({}, ["realize", _LONG, "Pt(planar)"], 1, "classify"),
        (_S111, ["normalize", "s.surf", _LONG], 1, "decompose"),
    ],
    ids=["non-utf8-surf", "family-0", "family-negative", "family-over-cap", "depth-at-cap",
         "depth-over-cap", "normalize-finite-name",
         "normalize-finite-path", "degree-null", "degree-list", "realize-superscript-genus",
         "long-triple", "realize-long-genus", "normalize-long-path"],
)
def test_former_crashes_give_one_json_document(files, argv, code, module, tmp_path, capsys):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    got, out = run_any(capsys, argv)
    assert got == code
    payload = one_json_document(out)
    if module is not None:
        assert payload["error"]["module"] == module


_HUGE = {"s.surf": b"surface s finite S(g=1000000000, b=0, p=1)"}


@pytest.mark.parametrize(
    "files, argv, module, case",
    [
        ({}, ["realize", "1000000000", "Pt(planar)", "--json"], "classify", "ClassifyError"),
        ({}, ["realize", "1000000000", "Union(Pt(planar), Pt(planar))"], "classify", "ClassifyError"),
        (_HUGE, ["invariants", "s.surf"], "surfaces", "PresentationError"),
        (_HUGE, ["classify", "s.surf", "s.surf"], "surfaces", "PresentationError"),
        (_HUGE, ["decompose", "s.surf", "--mode", "strict"], "surfaces", "PresentationError"),
        # each number fits int() and str(), their sum does not
        ({"s.surf": f"surface s finite S(g={'9' * 4300}, b={'9' * 4300}, p=1)".encode()},
         ["invariants", "s.surf"], "surfaces", "PresentationError"),
    ],
    ids=["realize-json", "realize-text", "invariants", "classify", "decompose", "sum-past-str"],
)
def test_genus_over_the_cap_is_one_json_error(files, argv, module, case, tmp_path, capsys):
    # a finite genus, or a triple's g + b + p, above GENUS_CAP is refused
    # before any of its O(g) rules is built
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    got, out = run_any(capsys, argv)
    assert got == 1
    error = one_json_document(out)["error"]
    assert (error["module"], error["case"]) == (module, case)
    assert "capped at" in error["message"] and "1000000" in error["message"]


@pytest.mark.parametrize(
    "argv", [["--help"], ["invariants", "--help"], ["degree", "check", "-h"]]
)
def test_help_is_one_json_document(argv, capsys):
    code, out = run_any(capsys, argv)
    assert code == 0
    assert one_json_document(out)["help"].startswith("usage: endkit")


# -- the CLI contract under fuzzed input -------------------------------------
#
# Inputs stay short: nesting deep enough to reach the recursion limit is a
# separate problem.

_SURF_TOKENS = (
    "surface", "s", "finite", "S", "g", "b", "p", "root", "x", "y", "A", "P", "H",
    "=", "{", "}", "(", ")", ";", ",", "0", "1", "2", "\u00b2", "\u00e9", "\x00",
)
_EXPR_TOKENS = (
    "Pt", "Cantor", "Seq", "Union", "planar", "nonplanar", "(", ")", ",", "#", "1", "-",
)
_JSON_KEYS = (
    "proper", "surjective", "boundary_embedding", "proper_homotopy_equivalence",
    "pseudo_phe", "target_plane_or_punctured_plane", "ends_map_injective",
    "orientation", "abs_degree", "pi1_surjective", "target_circles", "components",
    "nesting", "parallel_orders", "pi1_bijective", "global_degree", "id", "target",
    "kind", "label", "degree", "other",
)
_JSON_WORDS = ("Homeo", "Trivial", "Primitive", "unknown", "zero", "plus-minus-one", "C0", "0")

surf_files = st.one_of(
    # joined tight too, so that merged identifiers and tight punctuation occur
    st.builds(
        str.join, st.sampled_from(("", " ", "\n")), st.lists(st.sampled_from(_SURF_TOKENS), max_size=24)
    ).map(str.encode),
    presentations().map(pretty_print).map(str.encode),
    st.text(max_size=30).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(max_size=30),
)
surf_commands = st.sampled_from([
    ["invariants", "f"], ["classify", "f", "f"], ["decompose", "f", "--json"],
    ["spine", "f"], ["graph-phe", "f", "f"], ["essential-pants", "f"],
    ["normalize", "f", "0", "--json"], ["normalize", "f", "x", "--json"],
])
expr_texts = st.one_of(
    st.lists(st.sampled_from(_EXPR_TOKENS), max_size=16).map("".join),
    end_exprs().map(format_end_expr),
    st.text(max_size=20),
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 20), st.floats(),
    st.sampled_from((math.inf, -math.inf, math.nan, 0.5)),
    st.sampled_from(_JSON_WORDS), st.text(max_size=4),
)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=16,
)


@st.composite
def mutated_configs(draw):
    """A valid curve configuration with one value somewhere replaced."""
    doc = curve_config_to_json(draw(curve_configs(max_components=6)))
    slots, todo = [], [doc]
    while todo:
        node = todo.pop()
        for key in node if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    node, key = draw(st.sampled_from(slots))
    node[key] = draw(json_values)
    return doc


json_docs = st.one_of(
    json_values,
    st.dictionaries(st.sampled_from(_JSON_KEYS), json_values, max_size=6),
    curve_configs(max_components=6).map(curve_config_to_json),
    mutated_configs(),
)

_FUZZ = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def assert_contract(capsys, argv):
    code, out = run_any(capsys, argv)
    assert code in (0, 1, 2)
    one_json_document(out)


@_FUZZ
@given(data=surf_files, argv=surf_commands)
def test_cli_contract_on_fuzzed_presentations(data, argv, tmp_path, capsys):
    path = tmp_path / "f.surf"
    path.write_bytes(data)
    assert_contract(capsys, [str(path) if a == "f" else a for a in argv])


@_FUZZ
@given(genus=st.sampled_from(["0", "2", "inf", "\u00b2", "-1", "x"]), expr=expr_texts)
def test_cli_contract_on_fuzzed_expressions(genus, expr, capsys):
    assert_contract(capsys, ["realize", genus, expr, "--json"])


@_FUZZ
@given(doc=json_docs, command=st.sampled_from(["degree-check", "rewrite"]))
def test_cli_contract_on_fuzzed_json(doc, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert_contract(capsys, [command, str(path)])
