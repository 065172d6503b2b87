import json
import re

import jsonschema
import pytest
from click.testing import CliRunner

from ringlattice import cli


E4_SPEC = """\
ring F2 = gf(2)
ring S = idealization(F2, module([2, 2]))
ext E4 = extension(S, base=[])
"""

E5_SPEC = """\
ring F2 = gf(2)
ring Rx = quotient(F2, [x^2])
ring K4 = gf(2, 2)
ring S = product(Rx, K4)
ext E5 = extension(S, base=[])
"""


@pytest.fixture()
def runner():
    return CliRunner()


def _write(tmp_path, text, name="inst.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analyze_diamond(runner, tmp_path):
    res = runner.invoke(cli.main, ["analyze", _write(tmp_path, E4_SPEC)])
    assert res.exit_code == 0, res.output
    assert "5 nodes" in res.output and "length 2" in res.output
    assert "NOT distributive" in res.output
    assert "M3" in res.output


def test_analyze_dot_and_json(runner, tmp_path):
    dot = tmp_path / "out.dot"
    js = tmp_path / "out.json"
    res = runner.invoke(cli.main, ["analyze", _write(tmp_path, E5_SPEC),
                                   "--dot", str(dot), "--json", str(js)])
    assert res.exit_code == 0, res.output
    text = dot.read_text()
    # well-formed digraph: one block, node and edge statements only
    assert text.startswith("digraph lattice {") and text.rstrip().endswith("}")
    body = text.splitlines()[1:-1]
    pat = re.compile(r'^\s*(rankdir=BT;|node \[.*\];|n\d+ \[label=".*"\];|'
                     r'n\d+ -> n\d+ \[label="[idr]"\];)$')
    assert all(pat.match(line) for line in body), body
    assert len(re.findall(r"->", text)) == 7  # the 6-node diagram's edges
    assert sorted(set(re.findall(r'label="([idr])"', text))) == ["d", "i", "r"]

    from importlib.resources import files
    schema = json.loads(
        files("ringlattice").joinpath("report_schema.json").read_text())
    doc = json.loads(js.read_text())
    jsonschema.validate(doc, schema)
    assert doc["lattice"]["node_count"] == 6
    assert doc["decomposition"]["u_closure"] is not None


def test_analyze_parse_error_reported(runner, tmp_path):
    res = runner.invoke(cli.main, ["analyze",
                                   _write(tmp_path, "ring R = zmod(0)\n")])
    assert res.exit_code != 0
    assert "modulus" in res.output


def test_analyze_cap_flag_beats_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("RINGLATTICE_CAP", "8")
    res = runner.invoke(cli.main, ["analyze", _write(tmp_path, E5_SPEC)])
    assert res.exit_code != 0 and "cap" in res.output
    res2 = runner.invoke(cli.main, ["analyze", _write(tmp_path, E5_SPEC),
                                    "--cap", "64"])
    assert res2.exit_code == 0


def test_verify_cap_flag_beats_env(runner, monkeypatch):
    # E5 has 16 elements: a cap of 8 is a reported error, not a traceback
    res = runner.invoke(cli.main, ["verify", "--cap", "8", "E5"])
    assert res.exit_code == 1 and "exceeds cap 8" in res.output
    monkeypatch.setenv("RINGLATTICE_CAP", "8")
    res = runner.invoke(cli.main, ["verify", "E5"])
    assert res.exit_code == 1 and "exceeds cap 8" in res.output
    res2 = runner.invoke(cli.main, ["verify", "E5", "--cap", "64"])
    assert res2.exit_code == 0, res2.output


def test_verify_rejects_a_negative_seed(runner, monkeypatch):
    # the seed is part of each random instance's name (RND_<seed>_<i>)
    res = runner.invoke(cli.main, ["verify", "E2", "--random", "1",
                                   "--seed", "-1"])
    assert res.exit_code == 2 and "non-negative" in res.output
    monkeypatch.setenv("RINGLATTICE_SEED", "-1")
    res = runner.invoke(cli.main, ["verify", "E2", "--random", "1"])
    assert res.exit_code == 2 and "non-negative" in res.output


def test_verify_single_instance(runner, tmp_path):
    js = tmp_path / "rep.json"
    res = runner.invoke(cli.main, ["verify", "E10", "--json", str(js)])
    assert res.exit_code == 0, res.output
    assert "catenarian" in res.output  # catalog expectation line
    doc = json.loads(js.read_text())
    assert doc["failures"] == 0
    by_check = {(r["instance"], r["check"]): r for r in doc["results"]}
    assert by_check[("E10", "expected:catenarian")]["status"] == "pass"


def test_verify_deterministic_bytes(runner, tmp_path):
    out = []
    for name in ("a.json", "b.json"):
        js = tmp_path / name
        res = runner.invoke(cli.main, ["verify", "E2", "--random", "3",
                                       "--seed", "7", "--json", str(js)])
        assert res.exit_code == 0, res.output
        out.append(js.read_bytes())
    assert out[0] == out[1]


def test_verify_seed_env_fallback(runner, tmp_path, monkeypatch):
    js1, js2 = tmp_path / "e1.json", tmp_path / "e2.json"
    monkeypatch.setenv("RINGLATTICE_SEED", "9")
    r1 = runner.invoke(cli.main, ["verify", "E2", "--random", "2",
                                  "--json", str(js1)])
    monkeypatch.delenv("RINGLATTICE_SEED")
    r2 = runner.invoke(cli.main, ["verify", "E2", "--random", "2", "--seed", "9",
                                  "--json", str(js2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert js1.read_bytes() == js2.read_bytes()


def test_interval_sampling_without_nodes_is_na(runner, tmp_path):
    # no instance matches, so no interval can be drawn: n/a, not a pass
    js = tmp_path / "rep.json"
    res = runner.invoke(cli.main, ["verify", "NOPE", "--intervals", "10",
                                   "--json", str(js)])
    assert res.exit_code == 0, res.output
    (row,) = json.loads(js.read_text())["results"]
    assert row["check"] == "random_interval_route_agreement"
    assert row["status"] == "n/a" and "two or more" in row["reason"]


def test_catalog_list(runner):
    res = runner.invoke(cli.main, ["catalog", "list"])
    assert res.exit_code == 0
    assert "E5" in res.output and "E19" in res.output
