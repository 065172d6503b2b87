import json

import jsonschema
import pytest

from ringlattice import verify, catalog as cat, dsl

from oracles import assert_lattice_axioms


@pytest.fixture(scope="module")
def small_report():
    return verify.run_catalog(pattern="E1")  # E1, E10 .. E19


def test_report_counts_and_ordering(small_report):
    rep = small_report
    names = [(r.instance, r.check) for r in rep.results]
    assert names == sorted(names)
    assert rep.failures == 0
    assert rep.meta["pass"] > 0


def test_report_json_schema(small_report, tmp_path):
    from importlib.resources import files
    schema = json.loads(
        files("ringlattice").joinpath("report_schema.json").read_text())
    doc = json.loads(small_report.to_json())
    jsonschema.validate(doc, schema)
    doc_t = json.loads(small_report.to_json(timings=True))
    jsonschema.validate(doc_t, schema)
    assert any("elapsed_ms" in r for r in doc_t["results"])
    assert not any("elapsed_ms" in r for r in doc["results"])


def test_applicable_counts_present(small_report):
    s = small_report.checks_summary
    assert all({"applicable", "pass", "fail", "na"} <= set(v) for v in s.values())
    ct = s["chain_type_profile"]
    assert ct["applicable"] == ct["pass"] + ct["fail"]


def test_iff_side_accounting():
    rep = verify.run_catalog(pattern="E4")
    s = rep.checks_summary["subintegral_distributive_iff_arithmetic"]
    assert s["lhs_false"] == 1  # the diamond is the negative-side witness


def test_every_catalog_instance_builds_and_expectations_typecheck():
    for inst in cat.CATALOG:
        E = dsl.build_extension(inst.spec)
        assert E.name == inst.name
        for e in inst.expectations:
            assert e.measure in verify.MEASURES, e.measure
            assert e.tag in ("TRIVIAL", "DERIVED", "PAPER")


def test_random_instances_deterministic_and_bounded():
    a = verify.generate_random_instances(3, 6)
    b = verify.generate_random_instances(3, 6)
    assert [i.spec for i in a] == [i.spec for i in b]
    for inst in a:
        E = dsl.build_extension(inst.spec)
        assert len(E.top) <= 64
        assert len(E.lattice().nodes) <= 220


def test_random_interval_agreement_smoke():
    pairs = verify.build_catalog_analyses(pattern="E5")
    done, bad = verify.random_interval_agreement([a for _, a in pairs],
                                                 count=50, seed=1)
    assert done == 50 and bad is None


def test_regen_matches_frozen_values(monkeypatch):
    # one oracle node set and lattice per instance, whatever the number of
    # lattice measures read off it (E4 has six)
    node_sets, lattices = [0], []
    oracle_lattice = verify.oracle_lattice

    def counting(node_set):
        def build(*args):
            node_sets[0] += 1
            return node_set(*args)
        return build

    def keeping(a):
        L, oracle = oracle_lattice(a)
        lattices.append(L)
        return L, oracle

    for name in ("brute_force_subrings", "frobenius_subfields"):
        monkeypatch.setattr(verify, name, counting(getattr(verify, name)))
    monkeypatch.setattr(verify, "oracle_lattice", keeping)
    rows, bad = verify.regen_report(pattern="E4")
    assert bad == 0
    oracles = {r["oracle"] for r in rows if r["oracle"]}
    assert "subset-scan" in oracles
    assert node_sets[0] == 1 and len(lattices) == 1
    assert_lattice_axioms(lattices[0])


def test_run_check_accepts_extension_directly():
    E = dsl.build_extension(cat.BY_NAME["E3"].spec)
    r = verify.run_check("u_closed_iff_i_extension", E)
    assert r.status == "pass"
    assert r.instance == "E3"


def test_run_check_names_an_unnamed_extension_adhoc():
    E = dsl.build_extension(cat.BY_NAME["E3"].spec)
    E.name = None
    assert verify.run_check("u_closed_iff_i_extension", E).instance == "adhoc"


def test_analysis_names_and_returns_the_extension():
    from ringlattice.extension import DEFAULT_NODE_LIMIT
    E = dsl.build_extension(cat.BY_NAME["E3"].spec)
    assert verify.Analysis("renamed", E, node_limit=DEFAULT_NODE_LIMIT) is E
    assert E.name == "renamed"
    with pytest.raises(ValueError, match="node_limit"):
        verify.Analysis("E3", E, node_limit=10)


def test_random_generator_does_not_retry_its_own_dsl_errors():
    # RND_-1_0 is not a DSL name: the generator raises instead of drawing
    # again forever
    with pytest.raises(dsl.DslError):
        verify.generate_random_instances(-1, 1)
