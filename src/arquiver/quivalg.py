"""Quivers, admissible relations, and finite-dimensional bound quiver algebras.

A path is written in diagram order: (a, b) means "a first, then b", and is
composable when target(a) == source(b).  Basis elements of the algebra are
normal-form paths, stored as (source_vertex, tuple_of_arrow_ids); the trivial
path at vertex i is (i, ()).

Relations must be length-homogeneous: every term of one relation has the same
path length (and, as always for admissible relations, the same source and
target).  All fixture algebras and every construction in this package
(opposite, triangular 2x2) stay inside this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._gfkernel import rref as _rref
from .errors import MalformedRelation, NotFiniteDimensional, invariant
from .exactlin import Matrix, PrimeField


class Arrow(NamedTuple):
    id: str
    source: int
    target: int


class Quiver:
    """A finite quiver: `vertices` counts vertices 0..vertices-1."""

    __slots__ = ("vertices", "arrows", "_by_id")

    def __init__(self, vertices: int, arrows: Sequence):
        if vertices < 1:
            raise ValueError("a quiver needs at least one vertex")
        arrs = tuple(Arrow(str(a[0]), int(a[1]), int(a[2])) for a in arrows)
        by_id = {}
        for a in arrs:
            if a.id in by_id:
                raise ValueError(f"duplicate arrow id {a.id!r}")
            if not (0 <= a.source < vertices and 0 <= a.target < vertices):
                raise ValueError(f"arrow {a.id!r} endpoints out of range")
            by_id[a.id] = a
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrs)
        object.__setattr__(self, "_by_id", by_id)

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def arrow(self, arrow_id: str) -> Arrow:
        return self._by_id[arrow_id]

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and other.vertices == self.vertices
            and other.arrows == self.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({self.vertices}, {list(self.arrows)!r})"


@dataclass(frozen=True)
class RelationTerm:
    coefficient: int
    path: tuple[str, ...]


# A basis path: (source vertex, arrow ids in diagram order).
BasisPath = tuple[int, tuple[str, ...]]


class _DegreeTable:
    """Reduction data for one path degree d >= 1: the rref of the whole
    degree-d piece of the ideal, A1 I_{d-1} + I_{d-1} A1 plus the relations
    of degree d, over the length-d paths.  A path is a normal form unless it
    is a pivot, and a pivot path is congruent to minus the rest of its row,
    which lies on normal forms."""

    __slots__ = ("paths", "index", "red", "pivot_rows")

    def __init__(self, paths, index, red, pivots):
        self.paths = paths  # all length-d paths, as tuples of arrow ids
        self.index = index  # path -> position in `paths`
        self.red = red  # rref basis of the ideal's degree-d piece
        self.pivot_rows = {c: r for r, c in enumerate(pivots)}  # pivot position -> its row of red


class BoundQuiverAlgebra:
    """kQ/I for an admissible length-homogeneous ideal; use build_algebra()."""

    # _cache holds the links that opposite, t2_of and t2_base_of memoize on
    # this object, its Gorenstein dimension d (arsubcat.gorenstein_profile),
    # the knitted lists of its own modules: all indecomposables
    # (arsubcat.indec_pool, key "indec_pool") and, unless it is
    # self-injective, where that list serves, the GP ones with their tau_G
    # (arsubcat._gprj_members, key "gprj"), the projectives by vertex list
    # (repmod.projective_module, key "projectives") and one memo per module
    # value (repmod._memo_of, key "modules"); not part of equality or hash.
    __slots__ = (
        "field",
        "quiver",
        "relations",
        "dimension",
        "basis",
        "_by_source_target",
        "_deg",
        "_max_degree",
        "_cache",
    )

    def __init__(self, field, quiver, relations, basis, deg_tables, max_degree):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dimension", len(basis))
        by_st: dict[tuple[int, int], list[BasisPath]] = {}
        for bp in basis:
            by_st.setdefault((bp[0], path_target(quiver, bp)), []).append(bp)
        object.__setattr__(self, "_by_source_target", by_st)
        object.__setattr__(self, "_deg", deg_tables)
        object.__setattr__(self, "_max_degree", max_degree)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("BoundQuiverAlgebra is immutable")

    def path_basis(self, source: int, target: int) -> list[BasisPath]:
        return list(self._by_source_target.get((source, target), []))

    def reduce_path(self, source: int, arrows: tuple[str, ...]) -> dict[BasisPath, int]:
        """Normal form of a composable path, as {basis path: coefficient},
        read off the path's own column of its degree's `_DegreeTable`."""
        if not arrows:
            return {(source, ()): 1}
        if len(arrows) > self._max_degree:
            return {}
        table = self._deg[len(arrows)]
        i = table.index[arrows]
        if i not in table.pivot_rows:
            return {(source, table.paths[i]): 1}
        row = table.red[table.pivot_rows[i]]
        p = self.field.p
        return {(source, table.paths[j]): p - int(row[j]) for j in np.flatnonzero(row) if j != i}

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BoundQuiverAlgebra)
            and other.field == self.field
            and other.quiver == self.quiver
            and other.relations == self.relations
        )

    def __hash__(self):
        return hash((self.field, self.quiver, tuple(tuple(r) for r in self.relations)))

    def __repr__(self):
        return (
            f"BoundQuiverAlgebra(GF({self.field.p}), {self.quiver.vertices} vertices, "
            f"{len(self.quiver.arrows)} arrows, dim {self.dimension})"
        )


def path_target(quiver: Quiver, bp: BasisPath) -> int:
    v = bp[0]
    for aid in bp[1]:
        v = quiver.arrow(aid).target
    return v


def _validate_relations(quiver: Quiver, relations) -> tuple[tuple[RelationTerm, ...], ...]:
    cleaned = []
    for rel in relations:
        terms = []
        sig = None  # (source, target, length), shared by all terms
        for t in rel:
            term = t if isinstance(t, RelationTerm) else RelationTerm(int(t[0]), tuple(t[1]))
            if len(term.path) < 2:
                raise MalformedRelation(f"relation path too short: {term.path!r}")
            try:
                arrs = [quiver.arrow(aid) for aid in term.path]
            except KeyError as e:
                raise MalformedRelation(f"unknown arrow id in relation: {e.args[0]!r}") from None
            for a, b in zip(arrs, arrs[1:]):
                if a.target != b.source:
                    raise MalformedRelation(
                        f"non-composable pair {a.id!r} -> {b.id!r} in relation path {term.path!r}"
                    )
            this = (arrs[0].source, arrs[-1].target, len(term.path))
            if sig is None:
                sig = this
            elif this != sig:
                raise MalformedRelation(
                    "relation terms must share source, target and length; "
                    f"got {sig} vs {this} in {term.path!r}"
                )
            terms.append(RelationTerm(term.coefficient, tuple(term.path)))
        if terms:
            cleaned.append(tuple(terms))
    return tuple(cleaned)


_PATH_SPACE_LIMIT = 200_000


def build_algebra(quiver: Quiver, relations, field: PrimeField, degree_cap: int = 32) -> BoundQuiverAlgebra:
    """Construct kQ/I with a normal-form basis, degree by degree.

    Raises NotFiniteDimensional when normal forms survive at degree_cap, and
    MalformedRelation for structurally invalid relations.
    """
    rels = _validate_relations(quiver, relations)
    p = field.p
    by_degree: dict[int, list] = {}
    for rel in rels:
        by_degree.setdefault(len(rel[0].path), []).append(rel)

    basis: list[BasisPath] = [(i, ()) for i in range(quiver.vertices)]
    deg_tables: list = [None]  # index 0 unused; degree-0 normal forms are the idempotents
    # Degree-(d-1) data needed to span the ideal in degree d:
    prev_all_paths: list[tuple[str, ...]] = []  # all paths of length d-1 (for d-1 >= 1)
    prev_red = np.zeros((0, 0), dtype=np.int64)

    arrows = quiver.arrows
    d = 0
    while True:
        d += 1
        if d > degree_cap:
            raise NotFiniteDimensional(
                f"normal-form paths survive beyond degree cap {degree_cap}"
            )
        # all length-d paths
        if d == 1:
            paths = [(a.id,) for a in arrows]
        else:
            paths = [
                pa + (a.id,)
                for pa in prev_all_paths
                for a in arrows
                if quiver.arrow(pa[-1]).target == a.source
            ]
        if len(paths) > _PATH_SPACE_LIMIT:
            raise NotFiniteDimensional(
                f"path space exceeds {_PATH_SPACE_LIMIT} coordinates at degree {d}"
            )
        index = {pa: i for i, pa in enumerate(paths)}
        # ideal degree d = A1 * I_{d-1} + I_{d-1} * A1 + (relations of degree d),
        # one block per arrow and side; the rref does not depend on the row order.
        # A length-(d-1) path times an arrow is in index exactly when it composes.
        spans = [np.zeros((0, len(paths)), dtype=np.int64)]
        for a in arrows:
            for grown in ([pa + (a.id,) for pa in prev_all_paths], [(a.id,) + pa for pa in prev_all_paths]):
                hits = [j for j, q in enumerate(grown) if q in index]
                block = np.zeros((len(prev_red), len(paths)), dtype=np.int64)
                block[:, [index[grown[j]] for j in hits]] = prev_red[:, hits]
                spans.append(block[block.any(axis=1)])
        for rel in by_degree.get(d, []):
            vec = np.zeros((1, len(paths)), dtype=np.int64)
            for term in rel:
                vec[0, index[term.path]] = (vec[0, index[term.path]] + term.coefficient) % p
            spans.append(vec)
        red, pivots = _rref(np.concatenate(spans), p)
        red = red[: len(pivots)]
        deg_tables.append(_DegreeTable(paths, index, red, pivots))
        nf_positions = [i for i in range(len(paths)) if i not in deg_tables[-1].pivot_rows]
        basis.extend((quiver.arrow(paths[i][0]).source, paths[i]) for i in nf_positions)
        if not nf_positions:
            max_degree = d  # degree d is already all-zero; higher degrees vanish too
            break
        prev_all_paths, prev_red = paths, red

    return BoundQuiverAlgebra(field, quiver, rels, tuple(basis), deg_tables, max_degree)


def opposite(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """The opposite algebra: arrows and relation paths reversed, ids kept.

    Memoized on the algebra object, like the module memos of
    `repmod._memo_of`, since duality constructions call this inside loops;
    the link is kept both ways, so opposite(opposite(a)) is a.
    """
    cached = alg._cache.get("opposite")
    if cached is not None:
        return cached
    q = alg.quiver
    op_q = Quiver(q.vertices, [(a.id, a.target, a.source) for a in q.arrows])
    op_rels = [
        [RelationTerm(t.coefficient, tuple(reversed(t.path))) for t in rel]
        for rel in alg.relations
    ]
    op = build_algebra(op_q, op_rels, alg.field, degree_cap=alg._max_degree + 1)
    alg._cache["opposite"] = op
    op._cache["opposite"] = alg
    return op


def t2_of(alg: BoundQuiverAlgebra) -> tuple[BoundQuiverAlgebra, dict[int, tuple[int, int]]]:
    """Lower-triangular 2x2 matrix algebra over alg, as a bound quiver algebra.

    Returns (algebra, correspondence) where correspondence[i] = (i, i') gives
    the two copies of base vertex i.  Modules over it are morphisms between
    modules of the base algebra, realized by the connecting arrows eps<i>.
    Memoized on the algebra object, like the module memos of
    `repmod._memo_of`, so repeated calls share one triangular algebra, which
    links back to alg (see t2_base_of).
    """
    cached = alg._cache.get("t2")
    if cached is not None:
        return cached
    q = alg.quiver
    n = q.vertices
    arrows = []
    for a in q.arrows:
        arrows.append((f"{a.id}.a", a.source, a.target))
    for a in q.arrows:
        arrows.append((f"{a.id}.b", n + a.source, n + a.target))
    for i in range(n):
        arrows.append((f"eps{i}", i, n + i))
    rels = []
    for rel in alg.relations:
        rels.append([RelationTerm(t.coefficient, tuple(f"{x}.a" for x in t.path)) for t in rel])
    for rel in alg.relations:
        rels.append([RelationTerm(t.coefficient, tuple(f"{x}.b" for x in t.path)) for t in rel])
    p = alg.field.p
    for a in q.arrows:
        rels.append(
            [
                RelationTerm(1, (f"{a.id}.a", f"eps{a.target}")),
                RelationTerm(p - 1, (f"eps{a.source}", f"{a.id}.b")),
            ]
        )
    t2 = build_algebra(Quiver(2 * n, arrows), rels, alg.field, degree_cap=2 * alg._max_degree + 2)
    invariant(
        t2.dimension == 3 * alg.dimension,
        f"triangular algebra dimension {t2.dimension} != 3 * {alg.dimension}",
    )
    corr = {i: (i, n + i) for i in range(n)}
    alg._cache["t2"] = (t2, corr)
    t2._cache["t2_base"] = (alg, corr)
    return t2, corr


def t2_base_of(t2_alg: BoundQuiverAlgebra) -> tuple[BoundQuiverAlgebra, dict] | None:
    """(base algebra, correspondence) when t2_alg is an algebra returned by
    t2_of, else None.  The link lives on that object: an equal algebra built
    another way, e.g. read back from JSON, has none."""
    return t2_alg._cache.get("t2_base")


def algebra_to_json_dict(alg: BoundQuiverAlgebra) -> dict:
    return {
        "field_p": alg.field.p,
        "vertices": alg.quiver.vertices,
        "arrows": [{"id": a.id, "source": a.source, "target": a.target} for a in alg.quiver.arrows],
        "relations": [
            [{"coeff": t.coefficient, "path": list(t.path)} for t in rel] for rel in alg.relations
        ],
    }


# Input files.  Each reader declares the shape of its file once, and
# _check_shape checks a JSON value against it before anything is built.  A
# shape is one of:
# - int, str or bool: a value of exactly that JSON type, since int() would
#   take "10", 0.5 and true, and tuple() the characters of "xx";
# - [s]: a list of items of shape s;
# - a dict: a JSON object with no keys but these, each value of its shape; a
#   key whose shape is _Required(s) must be present, the others may be absent;
# - _Map(s): a JSON object from any keys to values of shape s;
# - _Nullable(s): a value of shape s, or null.


class _Required(NamedTuple):
    shape: object


class _Map(NamedTuple):
    shape: object


class _Nullable(NamedTuple):
    shape: object


def _json_names(kind: type) -> tuple[str, str]:
    """The name of the JSON type kind, singular with its article, and plural."""
    return {int: ("an integer", "integers"), str: ("a string", "strings"), bool: ("a boolean", "booleans"),
            list: ("a list", "lists"), dict: ("a JSON object", "JSON objects")}[kind]


def _check_shape(value, shape, where: str = "") -> None:
    """TypeError naming the dotted path of the first part of value that does
    not have the given shape; where is the path of value, "" for a file."""
    null = ""
    if isinstance(shape, _Nullable):
        if value is None:
            return
        shape, null = shape.shape, " or null"
    name = where or "the top level"
    if isinstance(shape, type):
        if type(value) is not shape:
            raise TypeError(f"{name} must be {_json_names(shape)[0]}{null}")
    elif isinstance(shape, list):
        item = shape[0]
        scalar = isinstance(item, type)  # a list of scalars is named as a whole
        if type(value) is not list or scalar and any(type(x) is not item for x in value):
            raise TypeError(f"{name} must be a list of {_json_names(item if scalar else type(item))[1]}")
        if not scalar:
            for i, x in enumerate(value):
                _check_shape(x, item, f"{where}[{i}]")
    elif type(value) is not dict:
        raise TypeError(f"{name} must be a JSON object")
    else:
        prefix = f"{where}." if where else ""
        for key, x in value.items():
            sub = shape.shape if isinstance(shape, _Map) else shape.get(key)
            if sub is None:
                raise TypeError(f"unknown key {prefix + str(key)!r}")
            _check_shape(x, sub.shape if isinstance(sub, _Required) else sub, prefix + str(key))
        for key, sub in shape.items() if isinstance(shape, dict) else ():
            if isinstance(sub, _Required) and key not in value:
                raise TypeError(f"{prefix}{key} is required")


def _per_vertex(values: list, count: int, where: str, over: str = "the algebra") -> tuple[int, ...]:
    """values, a checked list of integers, as a tuple; ValueError unless it
    holds a non-negative integer per vertex of `over`, which has count."""
    if len(values) != count or min(values, default=0) < 0:
        raise ValueError(f"{where} must hold a non-negative integer per vertex of {over} ({count}), got {values}")
    return tuple(values)


def _json_matrix(field: PrimeField, rows: list, shape: tuple[int, int], where: str) -> Matrix:
    """rows, a checked list of lists of integers, as a matrix over field with
    its entries read mod p; ValueError unless it has exactly that shape."""
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ValueError(f"{where} must be a {shape[0]} x {shape[1]} matrix")
    return Matrix(field, np.array([[x % field.p for x in row] for row in rows], dtype=np.int64).reshape(shape))


def algebra_from_json_dict(data: dict) -> BoundQuiverAlgebra:
    _check_shape(data, {
        "field_p": _Required(int),
        "vertices": _Required(int),
        "arrows": _Required([{"id": _Required(str), "source": _Required(int), "target": _Required(int)}]),
        "relations": [[{"coeff": _Required(int), "path": _Required([str])}]],
        "vertex_correspondence": _Map([int]),  # written by `arquiver t2`, not read
    })
    field = PrimeField(data["field_p"])
    quiver = Quiver(data["vertices"], [(a["id"], a["source"], a["target"]) for a in data["arrows"]])
    rels = [[RelationTerm(t["coeff"] % field.p, tuple(t["path"])) for t in rel] for rel in data.get("relations", [])]
    return build_algebra(quiver, rels, field)
