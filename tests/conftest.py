import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ringlattice import finring as fr
from ringlattice import extension as ex


@pytest.fixture(scope="session")
def F2():
    return fr.gf(2)


@pytest.fixture(scope="session")
def F4():
    return fr.gf(2, 2)


def prime_ext(S, gens=(), name=None):
    base = ex.generated_subring(S, ex.prime_subring(S), list(gens))
    return ex.Extension(S, base, name=name)


@pytest.fixture(scope="session")
def e1():
    F2 = fr.gf(2)
    S = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("x", 2),), 1)])])
    return prime_ext(S, name="E1")


@pytest.fixture(scope="session")
def e2():
    return prime_ext(fr.product_ring([fr.gf(2), fr.gf(2)]), name="E2")


@pytest.fixture(scope="session")
def e3():
    return prime_ext(fr.gf(2, 2), name="E3")


@pytest.fixture(scope="session")
def e4():
    return prime_ext(fr.idealization(fr.gf(2), (2, 2)), name="E4")


@pytest.fixture(scope="session")
def e5():
    F2 = fr.gf(2)
    Rx = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("x", 2),), 1)])])
    return prime_ext(fr.product_ring([Rx, fr.gf(2, 2)]), name="E5")


@pytest.fixture(scope="session")
def e6():
    F2 = fr.gf(2)
    Rt = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("t", 2),), 1)])])
    RX = fr.quotient_by_relations(
        Rt, [fr.resolve_relation(Rt, [((("x", 2),), 1)]),
             fr.resolve_relation(Rt, [((("t", 1), ("x", 1)), 1)])])
    S = fr.product_ring([Rt, RX])
    t_diag = fr.product_element(S, [Rt.varmap["t"], RX.varmap["t"]])
    return prime_ext(S, [t_diag], name="E6")


@pytest.fixture(scope="session")
def e9():
    F2 = fr.gf(2)
    Rx = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("x", 2),), 1)])])
    S = fr.product_ring([fr.gf(2, 2), Rx])
    e_first = fr.product_element(S, [fr.gf(2, 2).one, Rx.zero])
    return prime_ext(S, [e_first], name="E9")


@pytest.fixture(scope="session")
def e10():
    F4 = fr.gf(2, 2)
    S = fr.quotient_by_relations(F4, [fr.resolve_relation(F4, [((("y", 2),), 1)])])
    return prime_ext(S, name="E10")


@pytest.fixture(scope="session")
def reference_extensions():
    """Every catalog instance, then Pi5, V4 = F2 + F2^4 and Pi6 over their
    prime subrings: the instances the replaced routes are compared on."""
    from ringlattice import catalog, dsl
    out = [dsl.build_extension(inst.spec) for inst in catalog.CATALOG]
    for S in (fr.product_ring([fr.gf(2)] * 5),
              fr.idealization(fr.gf(2), (2, 2, 2, 2)),
              fr.product_ring([fr.gf(2)] * 6)):
        out.append(ex.Extension(S, ex.prime_subring(S)))
    return out
