import hashlib
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


# sha256 of the ``analyze --json`` file of every curated catalog instance
ANALYZE_JSON_SHA256 = {
    "E1": "6a4f7ef94920d74f72febbc27f2c5fba09e6a4f727068b5eedc9e33ae4de4a7b",
    "E2": "711c64e3e8fd0e5f639f2ae00fcca5749371aaad3da7095f332085a25e1b0f60",
    "E3": "1c49d154060b4c5b738b2597cd81a60d08a46226f4b73922bce685767121a581",
    "E4": "937597a6cdf3226e88998235e5fa3e7012cab81e7cdb0af4e74bef7c16d8b045",
    "E5": "d7b71ee593d6758c0e26c26177b1957c00fd6ee5bbf22304faf94074ea59a2dc",
    "E6": "a965a7d0409415385eed78d59eb0e8f8bd163605c56cee057f214efb37c65170",
    "E6u": "ea033939efd20400f0bba02b4d7f44cbbd20735900bddc1f773a4655cfaf2b8d",
    "E7": "c192796da5320f73679a75178f2d0c12e6af372f28fa6cdf4b06a9b60193f363",
    "E8": "ef921f1f6ae7f9979ac25cee2c40faaa0e7d918d9474f10aac4929461b0550ee",
    "E9": "2f9ee872f79931f2275fe127e0cb0ff78a0a0826d6eb95b1b5a293b70de9cf3a",
    "E10": "c9990aed7d56a7d2279cb973eb886928bd81087013de46b6e9820fd7d0e435cf",
    "E11": "ea6a76956cf01a7682c539ac9fd78cb97cf18b2de47c193e487c47c612060112",
    "E12": "3c7506f22769387cdd9fbf309710b32a0ca79a53074ae6a92df2d7a0bc42fa46",
    "E13": "bbb2f39a5cc9be5a9c1de88fe5db325cf23b61599e2b142b2b8b9254d9e57988",
    "E14": "36e445037d6c60db879cb70627081653a01bbccf23fce5629f3738575fbfa499",
    "E15": "87ef8fdbc756de45c14d5059e150ad224b323b7e3fecda80a56057773602abf1",
    "E16": "18f68de7b4495e78e4e817d6a1a442c0c1410f04a2c02c0699bb5cf79a2e5ffb",
    "E17": "a3c84d61edb8ea85e39f2cd576660e6c5de68e98c361b694517d10147fa9ae56",
    "E18": "e91dcb6ac0142075771f5bbb388d30c30159e33b4c34f5cf1aebb7dcef21bc46",
    "E19": "0d760306c2db5634143c835dc789e55e557c2f2180a9d014d9b360b5bf4bcfcb",
    "G3_4": "704db58a23402a016b2c6864d7f6096c728db7cbda29373c9f75f973967ce7f9",
    "G3_6": "ed6b2ebb8d79af964526ec44e3b361cbe3b37f3af717217d8516e67dd6474058",
}


def test_analyze_json_bytes_are_pinned(runner, tmp_path):
    from ringlattice import catalog as cat
    assert [inst.name for inst in cat.CATALOG] == list(ANALYZE_JSON_SHA256)
    for inst in cat.CATALOG:
        js = tmp_path / f"{inst.name}.json"
        res = runner.invoke(cli.main, ["analyze", _write(tmp_path, inst.spec),
                                       "--json", str(js)])
        assert res.exit_code == 0, res.output
        digest = hashlib.sha256(js.read_bytes()).hexdigest()
        assert digest == ANALYZE_JSON_SHA256[inst.name], inst.name
