import json

import numpy as np
import pytest

from arquiver.cli import fixtures_dir
from arquiver.errors import MalformedRelation, NotFiniteDimensional
from arquiver.exactlin import PrimeField
from arquiver.quivalg import (
    Quiver,
    algebra_from_json_dict,
    algebra_to_json_dict,
    build_algebra,
    opposite,
    t2_base_of,
    t2_of,
)

F5 = PrimeField(5)


def loop_algebra(power, p=5):
    """k[x]/(x^power) as a one-loop bound quiver algebra."""
    q = Quiver(1, [("x", 0, 0)])
    return build_algebra(q, [[(1, ("x",) * power)]], PrimeField(p))


def a2_algebra(p=5):
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], PrimeField(p))


def test_equal_algebras_built_apart_compare_equal_and_hash_the_same():
    a, b = loop_algebra(3), loop_algebra(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == a and a != loop_algebra(2) and a != loop_algebra(3, p=3)


def test_loop_square_dimension_and_basis():
    alg = loop_algebra(2)
    assert alg.dimension == 2
    assert alg.path_basis(0, 0) == [(0, ()), (0, ("x",))]


def test_loop_cube_basis_and_products():
    alg = loop_algebra(3)
    assert alg.dimension == 3
    assert alg.path_basis(0, 0) == [(0, ()), (0, ("x",)), (0, ("x", "x"))]
    assert alg.reduce_path(0, ("x", "x")) == {(0, ("x", "x")): 1}
    assert alg.reduce_path(0, ("x", "x", "x")) == {}
    assert alg.reduce_path(0, ("x", "x", "x", "x")) == {}


def test_a2_dimension():
    alg = a2_algebra()
    assert alg.dimension == 3
    assert alg.path_basis(0, 1) == [(0, ("a",))]
    assert alg.path_basis(1, 0) == []


def test_free_loop_not_finite_dimensional():
    q = Quiver(1, [("x", 0, 0)])
    with pytest.raises(NotFiniteDimensional):
        build_algebra(q, [], F5, degree_cap=10)


def test_malformed_relations():
    q = Quiver(2, [("a", 0, 1), ("b", 1, 0)])
    with pytest.raises(MalformedRelation):
        build_algebra(q, [[(1, ("a",))]], F5)  # too short
    with pytest.raises(MalformedRelation):
        build_algebra(q, [[(1, ("a", "a"))]], F5)  # not composable
    with pytest.raises(MalformedRelation):
        build_algebra(q, [[(1, ("a", "c"))]], F5)  # unknown id
    with pytest.raises(MalformedRelation):
        # terms with different endpoints in one relation
        build_algebra(q, [[(1, ("a", "b")), (1, ("b", "a"))]], F5)


def test_relation_coefficients_reduced_mod_p():
    # x^2 = 0 written with coefficient -1
    q = Quiver(1, [("x", 0, 0)])
    alg = build_algebra(q, [[(-1, ("x", "x"))]], F5)
    assert alg.dimension == 2


def test_opposite_involution_and_path_counts():
    for alg in (loop_algebra(3), a2_algebra(), t2_of(loop_algebra(2))[0]):
        op = opposite(alg)
        assert op.dimension == alg.dimension
        # a copy of op read back from JSON has no memo link to alg, so the
        # double reversal is really built here
        back = opposite(algebra_from_json_dict(algebra_to_json_dict(op)))
        assert back is not alg and back == alg
        assert back.quiver.arrows == alg.quiver.arrows
        assert back.relations == alg.relations
        n = alg.quiver.vertices
        for s in range(n):
            for t in range(n):
                assert len(op.path_basis(s, t)) == len(alg.path_basis(t, s))


def test_opposite_and_t2_links_live_on_the_object():
    a = loop_algebra(3)
    assert opposite(opposite(a)) is a
    assert t2_base_of(t2_of(a)[0])[0] is a
    assert t2_base_of(a) is None


def test_t2_algebra_read_from_json_has_no_base():
    rebuilt = algebra_from_json_dict(json.loads((fixtures_dir() / "t2_kx2.json").read_text()))
    assert t2_base_of(rebuilt) is None
    t2, _ = t2_of(loop_algebra(2))  # an equal base gives an equal algebra
    assert t2 == rebuilt
    assert t2_base_of(rebuilt) is None


def test_t2_dimensions_frozen():
    t2, corr = t2_of(loop_algebra(2))
    assert t2.dimension == 6
    assert corr == {0: (0, 1)}
    t2a, corr_a = t2_of(a2_algebra())
    assert t2a.dimension == 9
    assert corr_a == {0: (0, 2), 1: (1, 3)}


def test_t2_commutativity_relation_holds():
    # In T2(k[x]/x^2) the two degree-2 paths around the square agree
    alg = loop_algebra(2)
    t2, corr = t2_of(alg)
    lhs = t2.reduce_path(0, ("x.a", "eps0"))
    rhs = t2.reduce_path(0, ("eps0", "x.b"))
    assert lhs == rhs and lhs  # equal and nonzero


def test_json_round_trip():
    alg = t2_of(loop_algebra(3))[0]
    data = algebra_to_json_dict(alg)
    back = algebra_from_json_dict(data)
    assert back == alg
    assert back.dimension == alg.dimension


def test_semisimple_quiver():
    alg = build_algebra(Quiver(3, []), [], F5)
    assert alg.dimension == 3
    assert alg.path_basis(0, 0) == [(0, ())]
    assert alg.path_basis(0, 1) == []


def _reference_reduce_path(alg, source, arrows):
    """The degree-by-degree reduction that `reduce_path` replaced: the normal
    form of each prefix, times the next arrow, reduced again in its degree."""
    p = alg.field.p
    terms = {(): 1}
    for d, aid in enumerate(arrows, start=1):
        if d > alg._max_degree:
            return {}
        table = alg._deg[d]
        vec = np.zeros(len(table.paths), dtype=np.int64)
        for pa, c in terms.items():
            vec[table.index[pa + (aid,)]] = c % p
        pivots = list(table.pivot_rows)
        if pivots:
            vec = (vec - vec[pivots] @ table.red) % p
        terms = {table.paths[i]: int(c) for i, c in enumerate(vec) if c and i not in table.pivot_rows}
        if not terms:
            return {}
    return {(source, pa): c for pa, c in terms.items()}


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_path_matches_the_degree_by_degree_reference(p):
    seen = 0
    for name in ("a2", "kx2", "kx3", "t2_kx2"):
        data = json.loads((fixtures_dir() / f"{name}.json").read_text())
        base = algebra_from_json_dict({**data, "field_p": p})
        t2 = t2_of(base)[0]
        for alg in (base, opposite(base), t2, opposite(t2)):
            for v in range(alg.quiver.vertices):
                assert alg.reduce_path(v, ()) == {(v, ()): 1}
            for d in range(1, alg._max_degree + 1):
                for path in alg._deg[d].paths:
                    source = alg.quiver.arrow(path[0]).source
                    assert alg.reduce_path(source, path) == _reference_reduce_path(alg, source, path), path
                    seen += 1
    assert seen > 200
