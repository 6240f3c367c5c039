"""Finite-dimensional right modules over a bound quiver algebra.

A module is a representation of the quiver itself: an arrow a: i -> j acts by
a matrix of shape dims[j] x dims[i], sending vertex-i column vectors to
vertex-j column vectors.  A path in diagram order (a1, a2) therefore acts by
M(a2) @ M(a1).

Representations and maps are immutable; every function returns new objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import exactlin
from ._gfcore_py import matmul as _matmul_stacks
from .errors import BudgetExhausted, invariant
from .exactlin import Matrix
from .quivalg import BoundQuiverAlgebra, opposite


class Representation:
    # _cover and _syzygy memoize the first resolution step (projective_cover,
    # syzygy_step); like _layout they are not part of equality or the hash.
    __slots__ = ("algebra", "dims", "arrow_maps", "_layout", "_cover", "_syzygy")

    def __init__(self, algebra: BoundQuiverAlgebra, dims, arrow_maps, validate: bool = True):
        dims = tuple(int(d) for d in dims)
        if len(dims) != algebra.quiver.vertices or any(d < 0 for d in dims):
            raise ValueError(f"bad dims {dims} for quiver with {algebra.quiver.vertices} vertices")
        maps = {}
        for a in algebra.quiver.arrows:
            m = arrow_maps[a.id]
            if not isinstance(m, Matrix):
                m = Matrix(algebra.field, m)
            if m.shape != (dims[a.target], dims[a.source]):
                raise ValueError(
                    f"arrow {a.id!r} map has shape {m.shape}, expected "
                    f"{(dims[a.target], dims[a.source])}"
                )
            maps[a.id] = m
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "arrow_maps", maps)
        object.__setattr__(self, "_layout", None)
        object.__setattr__(self, "_cover", None)
        object.__setattr__(self, "_syzygy", None)
        if validate:
            self._check_relations()

    def _check_relations(self):
        for rel in self.algebra.relations:
            src = self.algebra.quiver.arrow(rel[0].path[0]).source
            tgt = self.algebra.quiver.arrow(rel[0].path[-1]).target
            acc = Matrix.zeros(self.algebra.field, self.dims[tgt], self.dims[src])
            for term in rel:
                acc = exactlin.add(acc, exactlin.scale(term.coefficient, self.apply_path(src, term.path)))
            if not acc.is_zero():
                raise ValueError(f"relation {rel!r} does not vanish on this representation")

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def apply_path(self, source: int, arrows) -> Matrix:
        acc = Matrix.identity(self.algebra.field, self.dims[source])
        for aid in arrows:
            acc = exactlin.multiply(self.arrow_maps[aid], acc)
        return acc

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and other.algebra == self.algebra
            and other.dims == self.dims
            and other.arrow_maps == self.arrow_maps
        )

    def __hash__(self):
        return hash((self.dims, tuple(sorted((k, hash(v)) for k, v in self.arrow_maps.items()))))

    def __repr__(self):
        return f"Representation(dims={list(self.dims)})"


class ModuleMap:
    __slots__ = ("source", "target", "vertex_maps")

    def __init__(self, source: Representation, target: Representation, vertex_maps, validate: bool = True):
        if source.algebra != target.algebra:
            raise ValueError("module map between different algebras")
        vms = []
        for i in range(source.algebra.quiver.vertices):
            m = vertex_maps[i]
            if not isinstance(m, Matrix):
                m = Matrix(source.algebra.field, m)
            if m.shape != (target.dims[i], source.dims[i]):
                raise ValueError(
                    f"vertex {i} map has shape {m.shape}, expected "
                    f"{(target.dims[i], source.dims[i])}"
                )
            vms.append(m)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vertex_maps", tuple(vms))
        if validate:
            for a in source.algebra.quiver.arrows:
                lhs = exactlin.multiply(target.arrow_maps[a.id], vms[a.source])
                rhs = exactlin.multiply(vms[a.target], source.arrow_maps[a.id])
                if lhs != rhs:
                    raise ValueError(f"map does not intertwine arrow {a.id!r}")

    def __setattr__(self, name, value):
        raise AttributeError("ModuleMap is immutable")

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.vertex_maps)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and other.source == self.source
            and other.target == self.target
            and other.vertex_maps == self.vertex_maps
        )

    def __hash__(self):
        return hash(self.vertex_maps)

    def __repr__(self):
        return f"ModuleMap({list(self.source.dims)} -> {list(self.target.dims)})"


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("compose: middle objects differ")
    return ModuleMap(
        f.source,
        g.target,
        [exactlin.multiply(g.vertex_maps[i], f.vertex_maps[i]) for i in range(len(f.vertex_maps))],
        validate=False,
    )


def identity_map(m: Representation) -> ModuleMap:
    return ModuleMap(m, m, [Matrix.identity(m.algebra.field, d) for d in m.dims], validate=False)


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    return ModuleMap(
        source,
        target,
        [Matrix.zeros(source.algebra.field, target.dims[i], source.dims[i]) for i in range(len(source.dims))],
        validate=False,
    )


def add_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    return ModuleMap(
        f.source,
        f.target,
        [exactlin.add(a, b) for a, b in zip(f.vertex_maps, g.vertex_maps)],
        validate=False,
    )


def scale_map(c: int, f: ModuleMap) -> ModuleMap:
    return ModuleMap(f.source, f.target, [exactlin.scale(c, m) for m in f.vertex_maps], validate=False)


def zero_module(algebra: BoundQuiverAlgebra) -> Representation:
    n = algebra.quiver.vertices
    return Representation(
        algebra,
        (0,) * n,
        {a.id: Matrix.zeros(algebra.field, 0, 0) for a in algebra.quiver.arrows},
        validate=False,
    )


# ---------------------------------------------------------------------------
# hom spaces


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """Basis of Hom(m, n) as module maps.

    One linear system: unknowns are the stacked column-major vec(f_i), one
    block per vertex; each arrow a: i -> j contributes N(a) f_i = f_j M(a).
    The basis is `exactlin.kernel_basis`'s canonical form of that system in
    these coordinates.  `decompose` splits m along the first element of this
    basis that is neither nilpotent nor a unit, so the summands and their
    order in every report depend on it.
    """
    if m.algebra != n.algebra:
        raise ValueError("hom_basis between modules over different algebras")
    alg = m.algebra
    nv = alg.quiver.vertices
    offsets = [0]
    for i in range(nv):
        offsets.append(offsets[-1] + n.dims[i] * m.dims[i])
    # One zero block per arrow, stacked at the end: filling a single array of
    # the whole system instead raised the peak RSS of a homalg-large pass by
    # up to 16 MB, from allocator layout alone (numpy's own peak was equal).
    rows = []
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        mi, nj = m.dims[i], n.dims[j]
        if not nj * mi:
            continue
        block = np.zeros((nj * mi, offsets[-1]), dtype=np.int64)
        # Row (k, s) of the block is entry (s, k) of N(a) f_i - f_j M(a).  The
        # reshapes only split axes of a slice, so they are views into block.
        # vec(N(a) f_i) = (I_{m_i} (x) N(a)) vec(f_i): N(a) on the block diagonal
        view = block[:, offsets[i] : offsets[i + 1]].reshape(mi, nj, mi, n.dims[i])
        view[range(mi), :, range(mi), :] = n.arrow_maps[a.id].a
        # vec(f_j M(a)) = (M(a)^T (x) I_{n_j}) vec(f_j): M(a)^T on every diagonal
        view = block[:, offsets[j] : offsets[j + 1]].reshape(mi, nj, m.dims[j], nj)
        view[:, range(nj), :, range(nj)] -= m.arrow_maps[a.id].a.T
        rows.append(block)
    if rows:
        system = Matrix(alg.field, np.vstack(rows))
    else:
        system = Matrix.zeros(alg.field, 0, offsets[-1])
    null = exactlin.kernel_basis(system)
    out = []
    for c in range(null.cols):
        v = null.a[:, c]
        vms = []
        for i in range(nv):
            chunk = v[offsets[i] : offsets[i + 1]]
            vms.append(Matrix(alg.field, chunk.reshape((n.dims[i], m.dims[i]), order="F")))
        out.append(ModuleMap(m, n, vms, validate=False))
    return out


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_basis(m, n))


def map_from_coefficients(basis: list[ModuleMap], coeffs) -> ModuleMap:
    f = basis[0]
    out = zero_map(f.source, f.target)
    for c, g in zip(coeffs, basis):
        if c % f.source.algebra.field.p:
            out = add_maps(out, scale_map(int(c), g))
    return out


def is_mono(f: ModuleMap) -> bool:
    return all(exactlin.rank(vm) == f.source.dims[i] for i, vm in enumerate(f.vertex_maps))


def is_epi(f: ModuleMap) -> bool:
    return all(exactlin.rank(vm) == f.target.dims[i] for i, vm in enumerate(f.vertex_maps))


def flatten_map(f: ModuleMap) -> np.ndarray:
    """All vertex matrices of f as one vector (column-major per vertex)."""
    parts = [vm.a.reshape(-1, order="F") for vm in f.vertex_maps]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def solve_hom_equation(
    u: Representation,
    v: Representation,
    target: ModuleMap,
    pre: ModuleMap | None = None,
    post: ModuleMap | None = None,
) -> ModuleMap | None:
    """Some h in Hom(u, v) with post ∘ h ∘ pre == target, or None.

    pre defaults to the identity of u and post to the identity of v, so one
    solver covers extension problems (pre given, post absent: extend target
    along pre) and lifting problems (post given, pre absent: lift target
    through post).
    """
    basis = hom_basis(u, v)
    if not basis:
        return zero_map(u, v) if target.is_zero() else None
    cols = []
    for h in basis:
        g = h if pre is None else compose(h, pre)
        g = g if post is None else compose(post, g)
        cols.append(flatten_map(g))
    field = u.algebra.field
    system = Matrix(field, np.stack(cols, axis=1))
    rhs = Matrix(field, flatten_map(target).reshape(-1, 1))
    x = exactlin.solve(system, rhs)
    if x is None:
        return None
    return map_from_coefficients(basis, [int(c) for c in x.a[:, 0]])


# ---------------------------------------------------------------------------
# kernels, cokernels, images


def _restrict(m: Representation, incls: list[Matrix]) -> tuple[Representation, ModuleMap]:
    """(submodule, inclusion) for vertexwise basis columns `incls` of an
    arrow-invariant subspace of m."""
    alg = m.algebra
    maps = {}
    for a in alg.quiver.arrows:
        sol = exactlin.solve(incls[a.target], exactlin.multiply(m.arrow_maps[a.id], incls[a.source]))
        invariant(sol is not None, "subspace is not arrow-invariant")
        maps[a.id] = sol
    sub = Representation(alg, [b.cols for b in incls], maps, validate=False)
    return sub, ModuleMap(sub, m, incls, validate=False)


def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """(ker f, inclusion)."""
    return _restrict(f.source, [exactlin.kernel_basis(vm) for vm in f.vertex_maps])


def _complement_data(span: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """For a span inside k^n: (basis B of the span, complement basis E, projection onto E).

    The projection is along span(B): proj @ B == 0 and proj @ E == I.
    """
    field = span.field
    nn = span.rows
    b = exactlin.column_space_basis(span)
    aug = exactlin.hstack([b, Matrix.identity(field, nn)])
    _, pivots = exactlin.rref(aug)
    free_idx = [c - b.cols for c in pivots if c >= b.cols]
    e = Matrix(field, np.eye(nn, dtype=np.int64)[:, free_idx])
    s = exactlin.hstack([b, e])
    sinv = exactlin.inverse(s)
    invariant(sinv is not None, "span and complement are not a basis")
    proj = Matrix(field, sinv.a[b.cols :, :])
    return b, e, proj


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """(coker f, projection)."""
    n = f.target
    alg = n.algebra
    bs, es, projs = [], [], []
    for vm in f.vertex_maps:
        b, e, proj = _complement_data(vm)
        bs.append(b)
        es.append(e)
        projs.append(proj)
    dims = [e.cols for e in es]
    maps = {}
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        maps[a.id] = exactlin.multiply(projs[j], exactlin.multiply(n.arrow_maps[a.id], es[i]))
    cok = Representation(alg, dims, maps, validate=False)
    return cok, ModuleMap(n, cok, projs, validate=False)


def image(f: ModuleMap) -> tuple[Representation, ModuleMap, ModuleMap]:
    """(im f, inclusion into target, corestriction of f onto its image)."""
    im, incl = _restrict(f.target, [exactlin.column_space_basis(vm) for vm in f.vertex_maps])
    epis = []
    for b, vm in zip(incl.vertex_maps, f.vertex_maps):
        sol = exactlin.solve(b, vm)
        invariant(sol is not None, "map does not factor through its image")
        epis.append(sol)
    return im, incl, ModuleMap(f.source, im, epis, validate=False)


def direct_sum(summands: list[Representation]) -> tuple[Representation, list[ModuleMap], list[ModuleMap]]:
    """(sum, inclusions, projections)."""
    if not summands:
        raise ValueError("direct_sum of nothing; use zero_module")
    alg = summands[0].algebra
    field = alg.field
    nv = alg.quiver.vertices
    dims = [sum(s.dims[i] for s in summands) for i in range(nv)]
    maps = {}
    for a in alg.quiver.arrows:
        acc = summands[0].arrow_maps[a.id]
        for s in summands[1:]:
            acc = exactlin.direct_sum(acc, s.arrow_maps[a.id])
        maps[a.id] = acc
    total = Representation(alg, dims, maps, validate=False)
    incls, projs = [], []
    for k, s in enumerate(summands):
        ivms, pvms = [], []
        for i in range(nv):
            before = sum(t.dims[i] for t in summands[:k])
            ia = np.zeros((dims[i], s.dims[i]), dtype=np.int64)
            pa = np.zeros((s.dims[i], dims[i]), dtype=np.int64)
            for r in range(s.dims[i]):
                ia[before + r, r] = 1
                pa[r, before + r] = 1
            ivms.append(Matrix(field, ia))
            pvms.append(Matrix(field, pa))
        incls.append(ModuleMap(s, total, ivms, validate=False))
        projs.append(ModuleMap(total, s, pvms, validate=False))
    return total, incls, projs


# ---------------------------------------------------------------------------
# projectives and injectives


def simple_module(algebra: BoundQuiverAlgebra, vertex: int) -> Representation:
    """S(vertex): one-dimensional at vertex, all arrows acting by zero."""
    nv = algebra.quiver.vertices
    dims = tuple(1 if v == vertex else 0 for v in range(nv))
    maps = {
        a.id: Matrix.zeros(algebra.field, dims[a.target], dims[a.source])
        for a in algebra.quiver.arrows
    }
    return Representation(algebra, dims, maps, validate=False)


def indecomposable_projective(algebra: BoundQuiverAlgebra, vertex: int) -> Representation:
    """P(vertex): basis at vertex j is the normal-form paths vertex -> j."""
    return projective_module(algebra, (vertex,))


def projective_module(algebra: BoundQuiverAlgebra, verts) -> Representation:
    """Direct sum of P(v) for v in verts, with its path-basis layout attached."""
    verts = tuple(int(v) for v in verts)
    nv = algebra.quiver.vertices
    coords = {j: [] for j in range(nv)}
    for k, v in enumerate(verts):
        for j in range(nv):
            for bp in algebra.path_basis(v, j):
                coords[j].append((k, bp))
    index = {j: {pair: pos for pos, pair in enumerate(coords[j])} for j in range(nv)}
    dims = [len(coords[j]) for j in range(nv)]
    maps = {}
    for a in algebra.quiver.arrows:
        i, j = a.source, a.target
        mat = np.zeros((dims[j], dims[i]), dtype=np.int64)
        for pos, (k, bp) in enumerate(coords[i]):
            for nf, c in algebra.reduce_path(bp[0], bp[1] + (a.id,)).items():
                mat[index[j][(k, nf)], pos] = c
        maps[a.id] = Matrix(algebra.field, mat)
    rep = Representation(algebra, dims, maps, validate=False)
    object.__setattr__(rep, "_layout", ("proj", verts, coords))
    return rep


def regular_module(algebra: BoundQuiverAlgebra) -> Representation:
    return projective_module(algebra, tuple(range(algebra.quiver.vertices)))


def k_dual(m: Representation) -> Representation:
    """D(m): the dual module over the opposite algebra (transposed actions)."""
    op = opposite(m.algebra)
    maps = {}
    for a in op.quiver.arrows:
        maps[a.id] = exactlin.transpose(m.arrow_maps[a.id])
    dual = Representation(op, m.dims, maps, validate=False)
    layout = m._layout
    if layout is not None:
        kind, verts, coords = layout
        object.__setattr__(dual, "_layout", ("inj" if kind == "proj" else "proj", verts, coords))
    return dual


def dual_map(f: ModuleMap) -> ModuleMap:
    """D(f): D(target) -> D(source) over the opposite algebra."""
    return ModuleMap(
        k_dual(f.target),
        k_dual(f.source),
        [exactlin.transpose(vm) for vm in f.vertex_maps],
        validate=False,
    )


def indecomposable_injective(algebra: BoundQuiverAlgebra, vertex: int) -> Representation:
    return injective_module(algebra, (vertex,))


def injective_module(algebra: BoundQuiverAlgebra, verts) -> Representation:
    return k_dual(projective_module(opposite(algebra), verts))


def radical_spans(m: Representation) -> list[Matrix]:
    """Vertexwise spanning columns of rad M = (arrow ideal) . M."""
    alg = m.algebra
    spans = []
    for j in range(alg.quiver.vertices):
        cols = [m.arrow_maps[a.id] for a in alg.quiver.arrows if a.target == j]
        if cols:
            spans.append(exactlin.hstack(cols))
        else:
            spans.append(Matrix.zeros(alg.field, m.dims[j], 0))
    return spans


def top_dims(m: Representation) -> tuple[int, ...]:
    spans = radical_spans(m)
    return tuple(m.dims[j] - exactlin.rank(spans[j]) for j in range(len(m.dims)))


def projective_cover(m: Representation) -> ModuleMap:
    """The projective cover P(M) -> M; the source carries its summand layout.

    Computed once per module object, on its first call, and shared: later
    calls return the same ModuleMap.  Internal checks: the map is onto and its
    kernel is superfluous (contained in rad P).
    """
    if m._cover is None:
        object.__setattr__(m, "_cover", _build_projective_cover(m))
    return m._cover


def syzygy_step(m: Representation) -> tuple[ModuleMap, Representation, ModuleMap]:
    """(projective cover, Omega M, inclusion Omega M -> P(M)): the first step of
    the minimal projective resolution, computed once per module object and
    shared like the cover."""
    cover = projective_cover(m)
    if m._syzygy is None:
        object.__setattr__(m, "_syzygy", kernel(cover))
    return (cover, *m._syzygy)


def _build_projective_cover(m: Representation) -> ModuleMap:
    alg = m.algebra
    spans = radical_spans(m)
    verts: list[int] = []
    lifts: list[tuple[int, Matrix]] = []  # (vertex, chosen preimage of a top basis vector)
    for j in range(alg.quiver.vertices):
        _, e, _ = _complement_data(spans[j])
        for c in range(e.cols):
            verts.append(j)
            lifts.append((j, Matrix(alg.field, e.a[:, c : c + 1])))
    if not verts:
        invariant(m.is_zero(), "nonzero module with zero top")
        z = projective_module(alg, ())
        return ModuleMap(z, m, [Matrix.zeros(alg.field, d, 0) for d in m.dims], validate=False)
    cover_src = projective_module(alg, verts)
    _, _, coords = cover_src._layout
    vms = []
    for l in range(alg.quiver.vertices):
        mat = np.zeros((m.dims[l], cover_src.dims[l]), dtype=np.int64)
        for pos, (k, bp) in enumerate(coords[l]):
            vec = exactlin.multiply(m.apply_path(bp[0], bp[1]), lifts[k][1])
            mat[:, pos] = vec.a[:, 0]
        vms.append(Matrix(alg.field, mat))
    cover = ModuleMap(cover_src, m, vms, validate=True)
    # onto, with superfluous kernel
    rad_p = radical_spans(cover_src)
    for l in range(alg.quiver.vertices):
        invariant(exactlin.rank(vms[l]) == m.dims[l], "projective cover is not onto")
        kb = exactlin.kernel_basis(vms[l])
        if kb.cols:
            invariant(exactlin.image_membership(rad_p[l], kb), "cover kernel is not superfluous")
    return cover


def injective_envelope(m: Representation) -> ModuleMap:
    """The injective envelope M -> I(M), built as the dual of a projective cover."""
    cover = projective_cover(k_dual(m))
    env = dual_map(cover)  # D(D(m)) -> D(P); source is data-identical to m
    invariant(env.source == m, "envelope source differs from the module")
    return ModuleMap(m, env.target, env.vertex_maps, validate=False)


def projective_generators(proj: Representation) -> list[tuple[int, int]]:
    """For a projective built by projective_module: [(vertex, coordinate)] of
    each summand's generator (its trivial path)."""
    kind, verts, coords = proj._layout
    invariant(kind == "proj", "module was not built with a projective layout")
    out = []
    for k, v in enumerate(verts):
        out.append((v, coords[v].index((k, (v, ())))))
    return out


def projective_map_from_generator_images(
    src: Representation, tgt: Representation, gen_images: list[dict]
) -> ModuleMap:
    """The module map src -> tgt between layout-carrying projectives sending
    generator l to the element gen_images[l] of tgt (keyed (summand, basis path))."""
    alg = src.algebra
    _, verts_s, coords_s = src._layout
    _, verts_t, coords_t = tgt._layout
    nv = alg.quiver.vertices
    index_t = {v: {pair: pos for pos, pair in enumerate(coords_t[v])} for v in range(nv)}
    p = alg.field.p
    vms = [np.zeros((tgt.dims[v], src.dims[v]), dtype=np.int64) for v in range(nv)]
    for v in range(nv):
        for pos, (l, bp) in enumerate(coords_s[v]):
            for (k, q), c in gen_images[l].items():
                for nf, c2 in alg.reduce_path(q[0], q[1] + bp[1]).items():
                    vms[v][index_t[v][(k, nf)], pos] = (
                        vms[v][index_t[v][(k, nf)], pos] + c * c2
                    ) % p
    return ModuleMap(src, tgt, [Matrix(alg.field, m) for m in vms], validate=True)


def is_projective(m: Representation) -> bool:
    cover = projective_cover(m)
    return all(exactlin.kernel_basis(vm).cols == 0 for vm in cover.vertex_maps)


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class DecompositionCertificate:
    module: Representation
    summands: tuple[Representation, ...]
    inclusions: tuple[ModuleMap, ...]
    projections: tuple[ModuleMap, ...]
    indecomposability_evidence: tuple[str, ...]
    certified: bool


# Combinations of an End basis are enumerated only while p^t stays within
# this limit, in batches of about _ENUM_BATCH matrix entries (bounds peak RSS).
_EXACT_ENUM_LIMIT = 200_000
_ENUM_BATCH = 16_384


def _total_stack(maps: list[ModuleMap]) -> np.ndarray:
    """The block-diagonal total matrices of maps that share their source and
    target, stacked: shape (len(maps), dim target, dim source)."""
    src, tgt = maps[0].source.dims, maps[0].target.dims
    out = np.zeros((len(maps), sum(tgt), sum(src)), dtype=np.int64)
    for v, (r, c) in enumerate(zip(np.cumsum(tgt), np.cumsum(src))):
        out[:, r - tgt[v] : r, c - src[v] : c] = [f.vertex_maps[v].a for f in maps]
    return out


def _block_map(m: Representation, total: np.ndarray) -> ModuleMap:
    """The endomorphism of m with the block-diagonal total matrix `total`."""
    blocks = [total[e - d : e, e - d : e] for d, e in zip(m.dims, np.cumsum(m.dims))]
    return ModuleMap(m, m, blocks, validate=False)


def _complementary_split(m: Representation, part1, part2, failure: str):
    """Check that the inclusions of part1 = (m1, i1) and part2 = (m2, i2) make
    M = m1 (+) m2, and return (m1, i1, p1), (m2, i2, p2) with the projections;
    raise InternalInvariantError(failure) if they do not."""
    (m1, i1), (m2, i2) = part1, part2
    field = m.algebra.field
    p1, p2 = [], []
    for v in range(len(m.dims)):
        sinv = exactlin.inverse(exactlin.hstack([i1.vertex_maps[v], i2.vertex_maps[v]]))
        invariant(sinv is not None, failure)
        p1.append(Matrix(field, sinv.a[: m1.dims[v], :]))
        p2.append(Matrix(field, sinv.a[m1.dims[v] :, :]))
    return (m1, i1, ModuleMap(m, m1, p1, validate=False)), (m2, i2, ModuleMap(m, m2, p2, validate=False))


def _split_by_idempotent(m: Representation, e: np.ndarray):
    """M = im(e) + ker(e) for the total matrix e of an idempotent endomorphism
    (ker e = im(1 - e); `_block_map` reduces 1 - e mod p)."""
    parts = [image(_block_map(m, f))[:2] for f in (e, np.eye(m.total_dim, dtype=np.int64) - e)]
    return _complementary_split(m, *parts, "idempotent split is not a direct sum")


def _fitting_split(m: Representation, f: np.ndarray):
    """Fitting's lemma: M = ker f^e (+) im f^e for the total matrix f of an
    endomorphism, where e is the least power of two with e >= dim M (kernels
    and images of the powers of f have stabilized by then).  Returns (ker
    part, im part) as `_complementary_split` does; either part may be zero."""
    e = 1 << (m.total_dim - 1).bit_length()
    power = _block_map(m, _power_stack(f[None], e, m.algebra.field.p)[0])
    return _complementary_split(m, kernel(power), image(power)[:2], "Fitting split is not a direct sum")


def first_combination(totals: np.ndarray, p: int) -> list[int] | None:
    """Coefficients of the first GF(p)-combination of the stacked matrices
    `totals`, in lexicographic order, that is a nontrivial idempotent; or None.

    All p^len(totals) combinations may be visited, so callers keep that
    within `_EXACT_ENUM_LIMIT`.
    """
    dd = totals.shape[1]
    combos = itertools.product(range(p), repeat=len(totals))
    batch = max(1, _ENUM_BATCH // max(1, dd * dd))
    while True:
        chunk = list(itertools.islice(combos, batch))
        if not chunk:
            return None
        phi = np.tensordot(np.array(chunk, dtype=np.int64), totals, axes=(1, 0)) % p
        hits = np.flatnonzero(nontrivial_idempotent(phi, p))
        if hits.size:
            return [int(x) for x in chunk[hits[0]]]


def nontrivial_idempotent(phi: np.ndarray, p: int) -> np.ndarray:
    """Mask over a stack of square matrices: idempotent, and neither 0 nor the identity."""
    sq = _matmul_stacks(phi, phi, p)
    ident = np.eye(phi.shape[1], dtype=np.int64)
    return (sq == phi).all(axis=(1, 2)) & phi.any(axis=(1, 2)) & (phi != ident).any(axis=(1, 2))


def non_nilpotent(phi: np.ndarray, p: int) -> np.ndarray:
    """Mask over a stack of D x D matrices: phi^e is nonzero for e the least
    power of two >= D, that is, phi is not nilpotent."""
    return _power_stack(phi, 1 << (phi.shape[1] - 1).bit_length(), p).any(axis=(1, 2))


def _power_stack(phi: np.ndarray, e: int, p: int) -> np.ndarray:
    """phi^e mod p (e >= 1) for a stack of square matrices, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = phi if out is None else _matmul_stacks(out, phi, p)
        e >>= 1
        if not e:
            return out
        phi = _matmul_stacks(phi, phi, p)


def _span_basis(stack: np.ndarray, field) -> np.ndarray:
    """The matrices of a stack at the pivots of their span: a basis of it."""
    flat = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
    _, pivots = exactlin.rref(Matrix(field, flat.T))
    return stack[pivots]


def _product_span(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    """`_span_basis` of all products x @ y, x from the stack a (outer loop), y from b."""
    pairs = _matmul_stacks(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1, 1)), field.p)
    return _span_basis(pairs, field)


def _nilpotent_span(nil: np.ndarray, field) -> bool:
    """Whether the span N of a stack of D x D matrices has N^D = 0, that is,
    whether N generates a nilpotent algebra (a nilpotent algebra of D x D
    matrices is strictly triangular in some basis, so its D-th power is 0)."""
    basis = prods = _span_basis(nil, field)
    for _ in range(nil.shape[1] - 1):
        if not len(prods):
            return True
        prods = _product_span(basis, prods, field)
    return not len(prods)


def _decompose_indec_evidence(m, endos):
    """Decide indecomposability of m (End already computed). Returns (verdict, split)."""
    field = m.algebra.field
    p = field.p
    t = len(endos)
    if t == 1:
        return ("endomorphism algebra has dimension 1", True), None
    totals = _total_stack(endos)  # (t, D, D)
    dd = totals.shape[1]
    # q >= D, so f^q has the kernel and image of Fitting's lemma; and q is a
    # power of p, so (c + n)^q = c + n^q for a scalar c and any n
    q = 1
    while q < dd:
        q *= p
    powers = _power_stack(totals, q, p)
    scalars = powers[:, :1, :1] * np.eye(dd, dtype=np.int64)
    # 1. the first basis element f that is neither nilpotent nor a unit splits M
    for f, power, scalar in zip(totals, powers, scalars):
        if (power != scalar).any() and exactlin.rank(Matrix(field, power)) < dd:
            return None, _fitting_split(m, f)
    # 2. every f^q = c_f 1 makes each f - c_f nilpotent (c_f^q = c_f); if they
    # span an N with N^D = 0, End = k 1 + (the ideal generated by N) is local
    if (powers == scalars).all() and _nilpotent_span((totals - scalars) % p, field):
        return ("endomorphism algebra is local: scalars plus a nilpotent ideal", True), None
    # 3. neither settles it (say End/rad End is a larger field): search all of End
    if p**t <= _EXACT_ENUM_LIMIT:
        coeffs = first_combination(totals, p)
        if coeffs is None:
            return ("no nontrivial idempotent endomorphism (exhaustive search)", True), None
        return None, _split_by_idempotent(m, np.tensordot(coeffs, totals, axes=1) % p)
    return ("not split and not shown local; too large to search for idempotents", False), None


def decompose(m: Representation) -> DecompositionCertificate:
    """Split m into indecomposable summands with inclusion/projection maps.

    A piece whose endomorphism algebra has dimension t = 1 over GF(p) is
    indecomposable outright.  Every other piece, of dimension D, goes through
    three deterministic steps, in this order:

    1. Fitting split: the first End-basis element f that is neither
       nilpotent nor invertible splits the piece as ker f^e (+) im f^e, e >= D.
    2. Locality certificate: with q the least power of p with q >= D, every
       basis element has f^q = c_f 1, and the span N of the f - c_f 1 has
       N^D = 0.  Then End = k 1 (+) (nilpotent ideal) is local and the piece
       is indecomposable.
    3. Fallback, when neither step settles the piece: an exhaustive search of
       End for a nontrivial idempotent, which splits the piece or certifies
       it, while p^t <= `_EXACT_ENUM_LIMIT` (200,000).

    Every summand carries an evidence string.  `certified` is False only when
    some piece got past all three steps (End too large to search): then that
    piece may still decompose.
    """
    if m.is_zero():
        return DecompositionCertificate(m, (), (), (), (), True)
    work = [(m, identity_map(m), identity_map(m))]
    final = []
    certified = True
    while work:
        cur, incl, proj = work.pop()
        endos = hom_basis(cur, cur)
        verdict, split = _decompose_indec_evidence(cur, endos)
        if split is not None:
            (m1, i1, p1), (m2, i2, p2) = split
            work.append((m1, compose(incl, i1), compose(p1, proj)))
            work.append((m2, compose(incl, i2), compose(p2, proj)))
            continue
        evidence, ok = verdict
        certified = certified and ok
        final.append((cur, incl, proj, evidence))
    # deterministic order: sort by dims, then by entry data
    final.sort(key=lambda x: (tuple(x[0].dims), [vm.tolist() for vm in x[1].vertex_maps]))
    return DecompositionCertificate(
        m,
        tuple(f[0] for f in final),
        tuple(f[1] for f in final),
        tuple(f[2] for f in final),
        tuple(f[3] for f in final),
        certified,
    )


def require_certified(cert: DecompositionCertificate) -> DecompositionCertificate:
    if not cert.certified:
        raise BudgetExhausted(
            "decomposition could not be certified: a piece is neither split nor shown "
            "local, and its endomorphism algebra is too large to search"
        )
    return cert


# ---------------------------------------------------------------------------
# isomorphism


def indecomposable_isomorphism(m: Representation, n: Representation) -> ModuleMap | None:
    """An isomorphism m -> n between indecomposables, or None.

    Both m and n must be indecomposable (summands of a certified
    decomposition, say); the answer is then exact without decomposing again.
    End(m) is local, so its non-units form an ideal: if m = n, some g.f with
    f, g taken from the hom bases m -> n and n -> m is invertible.  On a
    decomposable side a None can be wrong.
    """
    if m.dims != n.dims:
        return None
    h1 = hom_basis(m, n)
    h2 = hom_basis(n, m)
    for f in h1:
        for g in h2:
            gf = compose(g, f)
            if all(exactlin.inverse(vm) is not None for vm in gf.vertex_maps):
                return f
    return None


def iso_class_index(reps: list[Representation], m: Representation) -> int:
    """Position of the class of the indecomposable m in reps, a list of pairwise
    non-isomorphic indecomposables; m is appended when its class is new."""
    for k, r in enumerate(reps):
        if indecomposable_isomorphism(m, r) is not None:
            return k
    reps.append(m)
    return len(reps) - 1


def match_indecomposables(
    a: tuple[Representation, ...], b: tuple[Representation, ...]
) -> list[tuple[int, ModuleMap]] | None:
    """Pair the indecomposables in a one-to-one with isomorphic ones in b.

    Entry k is (l, an isomorphism a[k] -> b[l]); None when the two lists are
    not the same multiset of iso classes.  Taking the first free partner is
    enough, because isomorphism is an equivalence relation.
    """
    if len(a) != len(b):
        return None
    used = [False] * len(b)
    pairs = []
    for s in a:
        for l, t in enumerate(b):
            if used[l]:
                continue
            iso = indecomposable_isomorphism(s, t)
            if iso is not None:
                used[l] = True
                pairs.append((l, iso))
                break
        else:
            return None
    return pairs


def is_isomorphic(m: Representation, n: Representation) -> bool:
    return isomorphism(m, n) is not None


def isomorphism(m: Representation, n: Representation) -> ModuleMap | None:
    """An explicit isomorphism m -> n, or None.

    Decomposes both sides and matches indecomposable summands with
    `match_indecomposables`.
    """
    if m.algebra != n.algebra:
        raise ValueError("isomorphism test between modules over different algebras")
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return identity_map(m) if n.is_zero() else None
    dm = decompose(m)
    dn = decompose(n)
    pairs = match_indecomposables(dm.summands, dn.summands)
    if pairs is None:
        return None
    out = zero_map(m, n)
    for k, (l, iso) in enumerate(pairs):
        out = add_maps(out, compose(dn.inclusions[l], compose(iso, dm.projections[k])))
    # out is invertible by construction (it matched a complete summand list)
    invariant(
        all(exactlin.inverse(vm) is not None for vm in out.vertex_maps),
        "matched summands do not assemble to an isomorphism",
    )
    return out


# ---------------------------------------------------------------------------
# random modules (for property tests and verification suites)


def random_module(algebra: BoundQuiverAlgebra, rng, max_mult: int = 2, max_gens: int = 2) -> Representation:
    """A random quotient P/U of a random projective by a random arrow-closed
    subspace of rad P.  Always a valid module; varied; exact."""
    nv = algebra.quiver.vertices
    verts = []
    for i in range(nv):
        verts.extend([i] * int(rng.integers(0, max_mult + 1)))
    if not verts:
        verts = [int(rng.integers(0, nv))]
    proj = projective_module(algebra, tuple(verts))
    rad = radical_spans(proj)
    gens = []
    for j in range(nv):
        k = int(rng.integers(0, max_gens + 1))
        if rad[j].cols == 0 or k == 0:
            gens.append(Matrix.zeros(algebra.field, proj.dims[j], 0))
            continue
        coeffs = Matrix(algebra.field, rng.integers(0, algebra.field.p, size=(rad[j].cols, k)))
        gens.append(exactlin.multiply(rad[j], coeffs))
    _, incl = _restrict(proj, _arrow_closure(proj, gens))
    coker, _ = cokernel(incl)
    return coker


def _arrow_closure(m: Representation, gens: list[Matrix]) -> list[Matrix]:
    """Close vertexwise column spans under all arrow actions; returns a
    basis of each closed span."""
    spans = [exactlin.column_space_basis(g) for g in gens]
    changed = True
    while changed:
        changed = False
        for a in m.algebra.quiver.arrows:
            i, j = a.source, a.target
            if spans[i].cols == 0:
                continue
            moved = exactlin.multiply(m.arrow_maps[a.id], spans[i])
            combined = exactlin.column_space_basis(exactlin.hstack([spans[j], moved]))
            if combined.cols != spans[j].cols:
                spans[j] = combined
                changed = True
    return spans


# ---------------------------------------------------------------------------
# JSON


def module_to_json_dict(m: Representation, algebra_id: str) -> dict:
    return {
        "algebra": algebra_id,
        "dims": list(m.dims),
        "arrow_maps": {a.id: m.arrow_maps[a.id].tolist() for a in m.algebra.quiver.arrows},
    }


def module_from_json_dict(algebra: BoundQuiverAlgebra, data: dict) -> Representation:
    dims = [int(d) for d in data["dims"]]
    maps = {}
    for a in algebra.quiver.arrows:
        rows = data.get("arrow_maps", {}).get(a.id, [])
        mat = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                mat[r, c] = int(x)
        maps[a.id] = Matrix(algebra.field, mat)
    return Representation(algebra, dims, maps, validate=True)
