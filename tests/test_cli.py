"""End-to-end command-line behaviour, run in process."""

from __future__ import annotations

import json

import pytest

from endkit.cli import main

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


def test_decompose_error_object(surf, capsys):
    plane = surf("plane.surf", "surface s finite S(g=0, b=0, p=1)")
    code, out = run(capsys, "decompose", plane, "--mode", "strict")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["module"] == "decompose" and err["case"] == "PlaneExcludedError"
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
