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
from .quivalg import BoundQuiverAlgebra, _Required, _check_shape, _json_matrix, _per_vertex, opposite


class Representation:
    # _layout is (summand vertices, path-basis coordinates) on a module built
    # by projective_module and None on any other; _memo is None until the
    # first `_memo_of`, then the memo dict of this module's value (cover,
    # syzygy, presentation, Hom dimensions, ...), shared by every equal module
    # over the same algebra object.  Neither is part of equality or the hash.
    __slots__ = ("algebra", "dims", "arrow_maps", "_layout", "_memo")

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
        object.__setattr__(self, "_memo", None)
        if validate:
            self._check_relations()

    def _check_relations(self):
        stacks = {aid: m.a[None] for aid, m in self.arrow_maps.items()}
        for rel, broken in zip(self.algebra.relations, broken_relations(self.algebra, stacks)):
            if broken[0]:
                raise ValueError(f"relation {rel!r} does not vanish on this representation")

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other):
        return other is self or (
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


def broken_relations(algebra: BoundQuiverAlgebra, stacks: dict) -> list[np.ndarray]:
    """Which of N candidate representations of one dimension vector break
    each relation of the algebra.  stacks[a.id] holds the N matrices of arrow
    a, shape (N, rows, cols), with entries in [0, p); the result is one
    boolean mask over the N candidates per relation, in the algebra's order.

    This is the one relation check: a `Representation` validates itself as a
    stack of one, and the exhaustive enumeration that the tests use as a
    reference screens its candidates in batches.  Every path has two or more
    arrows, and each product and each term is reduced mod p, so nothing
    overflows int64.
    """
    p = algebra.field.p
    out = []
    for rel in algebra.relations:
        acc = 0
        for term in rel:
            path = stacks[term.path[0]]
            for aid in term.path[1:]:
                path = _matmul_stacks(stacks[aid], path, p)
            acc = (acc + term.coefficient % p * path) % p
        out.append(acc.any(axis=(1, 2)))
    return out


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
    out = []
    for v in exactlin.kernel_basis(system).a.T:
        vms, start = [], 0
        for ni, mi in zip(n.dims, m.dims):
            vms.append(Matrix(alg.field, v[start : start + ni * mi].reshape((ni, mi), order="F")))
            start += ni * mi
        out.append(ModuleMap(m, n, vms, validate=False))
    return out


def map_from_coefficients(basis: list[ModuleMap], coeffs) -> ModuleMap:
    """sum_k coeffs[k] basis[k]: one product per vertex, of the coefficient
    row with the stacked vertex maps of the basis."""
    f = basis[0]
    field = f.source.algebra.field
    c = np.asarray(coeffs, dtype=np.int64)[None] % field.p
    vms = []
    for v, (rows, cols) in enumerate(zip(f.target.dims, f.source.dims)):
        stack = np.stack([g.vertex_maps[v].a.reshape(-1) for g in basis])
        vms.append(Matrix._reduced(field, _matmul_stacks(c, stack, field.p).reshape(rows, cols)))
    return ModuleMap(f.source, f.target, vms, validate=False)


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


def _complement_data(span: Matrix) -> tuple[Matrix, Matrix]:
    """For a span inside k^n: (complement basis E, projection onto E along
    the span), so proj @ span == 0 and proj @ E == I.

    One row reduction T [span | I] = R gives both.  Its pivots left of the I
    block are span's pivot columns, B say; the other pivots give the unit
    vectors E.  The pivot columns of R are the unit vectors in order, so
    T [B | E] = I, and T is the I block of R: its rows past B project onto
    E.  Both depend on the column span of span alone.
    """
    field = span.field
    red, pivots = exactlin.rref(exactlin.hstack([span, Matrix.identity(field, span.rows)]))
    invariant(len(pivots) == span.rows, "span and complement are not a basis")
    nb = sum(c < span.cols for c in pivots)
    e = Matrix(field, np.eye(span.rows, dtype=np.int64)[:, [c - span.cols for c in pivots[nb:]]])
    return e, Matrix._reduced(field, red.a[nb:, span.cols :].copy())


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """(coker f, projection)."""
    n = f.target
    alg = n.algebra
    es, projs = [], []
    for vm in f.vertex_maps:
        e, proj = _complement_data(vm)
        es.append(e)
        projs.append(proj)
    dims = [e.cols for e in es]
    maps = {}
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        maps[a.id] = exactlin.multiply(projs[j], exactlin.multiply(n.arrow_maps[a.id], es[i]))
    cok = Representation(alg, dims, maps, validate=False)
    return cok, ModuleMap(n, cok, projs, validate=False)


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """(im f, inclusion into target)."""
    return _restrict(f.target, [exactlin.column_space_basis(vm) for vm in f.vertex_maps])


def direct_sum(summands: list[Representation]) -> tuple[Representation, list[ModuleMap], list[ModuleMap]]:
    """(sum, inclusions, projections)."""
    if not summands:
        raise ValueError("direct_sum of nothing; use zero_module")
    alg = summands[0].algebra
    if any(s.algebra != alg for s in summands):
        raise ValueError("direct_sum of modules over different algebras")
    field = alg.field
    nv = alg.quiver.vertices
    dims = [sum(s.dims[i] for s in summands) for i in range(nv)]
    maps = {
        a.id: Matrix._reduced(field, _block_diagonal([s.arrow_maps[a.id].a for s in summands]))
        for a in alg.quiver.arrows
    }
    total = Representation(alg, dims, maps, validate=False)
    # at each vertex, summand s sits in the columns end - d to end of the identity
    eyes = [np.eye(d, dtype=np.int64) for d in dims]
    incls, projs = [], []
    for s, ends in zip(summands, np.cumsum([s.dims for s in summands], axis=0)):
        cols = [eye[:, e - d : e] for eye, d, e in zip(eyes, s.dims, ends)]
        incls.append(ModuleMap(s, total, [Matrix(field, c) for c in cols], validate=False))
        projs.append(ModuleMap(total, s, [Matrix(field, c.T) for c in cols], validate=False))
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
    """Direct sum of P(v) for v in verts, with its path-basis layout attached.

    Only a one-vertex list builds P(v) from its paths, reducing each path
    times each arrow with `reduce_path`.  Any other list, the empty one and
    repeats included, is the block-diagonal sum of the P(v_k): its basis at
    j is (k, path) for k in summand order, then P(v_k)'s own order, so each
    arrow acts on it by the blocks of the summands.  Built once per (algebra
    object, vertex tuple), in algebra._cache, and shared: a later call with
    the same list returns the same module.
    """
    verts = tuple(int(v) for v in verts)
    built = algebra._cache.setdefault("projectives", {})
    if verts in built:
        return built[verts]
    nv = algebra.quiver.vertices
    if len(verts) == 1:
        paths = [algebra.path_basis(verts[0], j) for j in range(nv)]
        coords = {j: [(0, bp) for bp in paths[j]] for j in range(nv)}
        mats = {}
        for a in algebra.quiver.arrows:
            mat = mats[a.id] = np.zeros((len(paths[a.target]), len(paths[a.source])), dtype=np.int64)
            for pos, bp in enumerate(paths[a.source]):
                for nf, c in algebra.reduce_path(bp[0], bp[1] + (a.id,)).items():
                    mat[paths[a.target].index(nf), pos] = c
    else:
        parts = [projective_module(algebra, (v,)) for v in verts]
        coords = {j: [(k, bp) for k, part in enumerate(parts) for _, bp in part._layout[1][j]] for j in range(nv)}
        mats = {a.id: _block_diagonal([part.arrow_maps[a.id].a for part in parts]) for a in algebra.quiver.arrows}
    dims = [len(coords[j]) for j in range(nv)]
    maps = {aid: Matrix(algebra.field, mat) for aid, mat in mats.items()}
    rep = Representation(algebra, dims, maps, validate=False)
    object.__setattr__(rep, "_layout", (verts, coords))
    built[verts] = rep
    return rep


def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    rows, cols = np.cumsum([(0, 0)] + [b.shape for b in blocks], axis=0).T
    out = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for b, r, c in zip(blocks, rows, cols):
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
    return out


def zero_module(algebra: BoundQuiverAlgebra) -> Representation:
    """The zero module: the empty sum of projectives, one per algebra object."""
    return projective_module(algebra, ())


def regular_module(algebra: BoundQuiverAlgebra) -> Representation:
    return projective_module(algebra, tuple(range(algebra.quiver.vertices)))


def k_dual(m: Representation) -> Representation:
    """D(m): the dual module over the opposite algebra (transposed actions)."""
    op = opposite(m.algebra)
    maps = {}
    for a in op.quiver.arrows:
        maps[a.id] = exactlin.transpose(m.arrow_maps[a.id])
    return Representation(op, m.dims, maps, validate=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    """D(f): D(target) -> D(source) over the opposite algebra."""
    return ModuleMap(
        k_dual(f.target),
        k_dual(f.source),
        [exactlin.transpose(vm) for vm in f.vertex_maps],
        validate=False,
    )


def indecomposable_injective(algebra: BoundQuiverAlgebra, vertex: int) -> Representation:
    return k_dual(projective_module(opposite(algebra), (vertex,)))


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


def radical(m: Representation) -> tuple[Representation, ModuleMap]:
    """(rad M, inclusion): the submodule that `radical_spans` spans."""
    return _restrict(m, [exactlin.column_space_basis(s) for s in radical_spans(m)])


def _memo_of(m: Representation) -> dict:
    """The memo of m's value: one dict per distinct module over m.algebra,
    kept in m.algebra._cache["modules"] under the first equal module that
    asked, so it lives and dies with the algebra.  projective_cover
    ("cover", and "syzygy" for syzygy_step, built with it from the same
    kernel bases), _path_actions ("path_actions"),
    homalg.transpose ("transpose"), homalg.minimal_presentation
    ("presentation") and homalg._hom_dim ("homs": dim Hom(m, n) keyed by
    the object under "key" in n's memo) fill it on first use.  Each reads
    the values only, so equal modules share one result; m._memo keeps later
    lookups off the hash."""
    if m._memo is None:
        object.__setattr__(m, "_memo", m.algebra._cache.setdefault("modules", {}).setdefault(m, {}))
    return m._memo


def projective_cover(m: Representation) -> ModuleMap:
    """The projective cover P(M) -> M; the source carries its summand layout.

    Computed once per module value, on the first call for any module equal
    to m, and shared: later calls return the same ModuleMap, whose target
    is that first module.  Omega M is built with it, from the same kernel
    bases, and memoized beside it (`syzygy_step`).  Internal checks: the map
    is onto (its nullity at each vertex is dim P_v - dim M_v) and its kernel
    is superfluous (contained in rad P).
    """
    memo = _memo_of(m)
    if "cover" not in memo:
        memo["cover"], memo["syzygy"] = _build_projective_cover(m)
    return memo["cover"]


def syzygy_step(m: Representation) -> tuple[ModuleMap, Representation, ModuleMap]:
    """(projective cover, Omega M, inclusion Omega M -> P(M)): the first step of
    the minimal projective resolution.  Omega M is spanned by the kernel
    bases that the cover's checks computed, so it is built with the cover,
    once per module value, and shared like it."""
    return (projective_cover(m), *_memo_of(m)["syzygy"])


def _build_projective_cover(m: Representation) -> tuple[ModuleMap, tuple[Representation, ModuleMap]]:
    """(cover P(M) -> M, (Omega M, inclusion)): one kernel basis per vertex
    map serves the onto check, the superfluous-kernel check and Omega M."""
    alg = m.algebra
    spans = radical_spans(m)
    verts: list[int] = []
    lifts: list[np.ndarray] = []  # chosen preimages of the top basis vectors, one after another
    for j, span in enumerate(spans):
        e, _ = _complement_data(span)
        verts += [j] * e.cols
        lifts.append(e.a.T.ravel())
    cover_src = projective_module(alg, verts)
    phis = _maps_on_paths(cover_src, m, _path_actions(m), np.concatenate(lifts)[:, None])
    cover = ModuleMap(cover_src, m, [Matrix._reduced(alg.field, phi[:, :, 0].T) for phi in phis], validate=True)
    # onto (a nonzero module with zero top fails here), with superfluous kernel
    kbs = [exactlin.kernel_basis(vm) for vm in cover.vertex_maps]
    for kb, rad, p_dim, m_dim in zip(kbs, radical_spans(cover_src), cover_src.dims, m.dims):
        invariant(p_dim - kb.cols == m_dim, "projective cover is not onto")
        if kb.cols:
            invariant(exactlin.image_membership(rad, kb), "cover kernel is not superfluous")
    return cover, _restrict(cover_src, kbs)


def injective_envelope(m: Representation) -> ModuleMap:
    """The injective envelope M -> I(M), built as the dual of a projective cover."""
    cover = projective_cover(k_dual(m))
    env = dual_map(cover)  # D(D(m)) -> D(P); source is data-identical to m
    invariant(env.source == m, "envelope source differs from the module")
    return ModuleMap(m, env.target, env.vertex_maps, validate=False)


def projective_generators(proj: Representation) -> list[tuple[int, int]]:
    """For a projective built by projective_module: [(vertex, coordinate)] of
    each summand's generator (its trivial path)."""
    invariant(proj._layout is not None, "module was not built with a projective layout")
    verts, coords = proj._layout
    out = []
    for k, v in enumerate(verts):
        out.append((v, coords[v].index((k, (v, ())))))
    return out


def _path_actions(x: Representation) -> dict:
    """X(path) for every basis path of the algebra, keyed by the path; each
    path costs one product, onto the action of its prefix.  Built once per
    module value (`_memo_of`); the arrays are read-only, since every equal
    module shares them."""
    memo = _memo_of(x)
    if "path_actions" in memo:
        return memo["path_actions"]
    p = x.algebra.field.p
    acts: dict = {}

    def act(src, arrows):
        if (src, arrows) not in acts:
            acts[src, arrows] = (
                _matmul_stacks(x.arrow_maps[arrows[-1]].a, act(src, arrows[:-1]), p)
                if arrows
                else np.eye(x.dims[src], dtype=np.int64)
            )
        return acts[src, arrows]

    memo["path_actions"] = {bp: act(*bp) for bp in x.algebra.basis}
    for a in acts.values():
        a.setflags(write=False)
    return memo["path_actions"]


def _image_offsets(x: Representation, gen_verts) -> np.ndarray:
    """Where the image of each generator starts in (+)_k X_{v_k}."""
    return np.cumsum([0] + [x.dims[v] for v in gen_verts])


def _maps_on_paths(src: Representation, x: Representation, acts: dict, y: np.ndarray) -> list[np.ndarray]:
    """The maps src -> X, for a layout-carrying projective src, with generator
    images the columns of y: per vertex v a stack phi with phi[c, :, j] =
    X(path) y_k, the image under map j of src's basis path c = (k, path) at v.
    One stacked product per pair of vertices.  This is the one builder of
    maps out of a projective (Yoneda: Hom(P(v), X) = X e_v): projective
    covers, homalg's D(d) in the transpose and the class of an almost split
    sequence all come from it; Ext itself builds no map."""
    gen_verts, coords = src._layout
    p = x.algebra.field.p
    offsets = _image_offsets(x, gen_verts)
    out = []
    for v in range(len(x.dims)):
        phi = np.zeros((len(coords[v]), x.dims[v], y.shape[1]), dtype=np.int64)
        for u in sorted(set(gen_verts)) if x.dims[v] else ():
            at = [i for i, (k, _) in enumerate(coords[v]) if gen_verts[k] == u]
            if not at:
                continue
            paths = np.stack([acts[coords[v][i][1]] for i in at])
            starts = offsets[[coords[v][i][0] for i in at]]
            phi[at] = _matmul_stacks(paths, y[starts[:, None] + np.arange(x.dims[u])], p)
        out.append(phi)
    return out


def is_projective(m: Representation) -> bool:
    """The cover P(M) -> M is onto, so M is projective iff P(M) is no larger."""
    return projective_cover(m).source.dims == m.dims


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class DecompositionCertificate:
    summands: tuple[Representation, ...]
    inclusions: tuple[ModuleMap, ...]  # they fix the order of the summands
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


def _complementary_split(part1, part2, failure: str):
    """Check that the inclusions of part1 = (m1, i1) and part2 = (m2, i2) make
    M = m1 (+) m2, and return them; raise InternalInvariantError(failure) if
    they do not."""
    for i1, i2 in zip(part1[1].vertex_maps, part2[1].vertex_maps):
        invariant(exactlin.inverse(exactlin.hstack([i1, i2])) is not None, failure)
    return part1, part2


def _fitting_split(m: Representation, power: np.ndarray):
    """Fitting's lemma: M = ker f^q (+) im f^q for an endomorphism f and
    q >= dim M, when kernels and images of the powers of f have stabilized;
    `power` is the total matrix of f^q, as `_fitting_powers` gives it, or an
    idempotent, which is its own power.  Returns (ker part, im part) as
    `_complementary_split` does; either part may be zero."""
    power = _block_map(m, power)
    return _complementary_split(kernel(power), image(power), "Fitting split is not a direct sum")


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
    return stack[exactlin.pivots(Matrix(field, flat.T))]


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


def _fitting_powers(totals: np.ndarray, p: int) -> np.ndarray:
    """f^q for a stack of D x D matrices f, q the least power of p >= D: f^q
    has Fitting's kernel and image, so it is nonzero exactly when f is not
    nilpotent, and (c + n)^q = c + n^q for a scalar c."""
    q = 1
    while q < totals.shape[1]:
        q *= p
    return _power_stack(totals, q, p)


def _scalar_parts(powers: np.ndarray) -> np.ndarray:
    """c_f 1 for each f^q of a stack of `_fitting_powers`, c_f its (0, 0) entry."""
    return powers[:, :1, :1] * np.eye(powers.shape[1], dtype=np.int64)


def _local_radical(totals: np.ndarray, powers: np.ndarray, scalars: np.ndarray, field) -> np.ndarray | None:
    """`decompose`'s step 2: the stack of the f - c_f 1 when every f^q is its
    scalar part c_f 1 (`_scalar_parts`) and they span an N with N^D = 0, so
    End = k 1 + N is local with N = rad End."""
    nil = (totals - scalars) % field.p
    return nil if (powers == scalars).all() and _nilpotent_span(nil, field) else None


def _decompose_indec_evidence(m, endos):
    """`decompose`'s three steps on m, with End(m) already computed.  Returns
    ((evidence, certified), None) when they do not split m, and otherwise
    (None, x): the split is `_fitting_split(m, x)`, for the Fitting power x
    that step 1 tested or the nontrivial idempotent x of step 3 (its own
    Fitting power, so its split is ker x (+) im x)."""
    field = m.algebra.field
    p = field.p
    t = len(endos)
    if t == 1:
        return ("endomorphism algebra has dimension 1", True), None
    totals = _total_stack(endos)  # (t, D, D)
    dd = totals.shape[1]
    powers = _fitting_powers(totals, p)
    scalars = _scalar_parts(powers)
    # 1. the first basis element f that is neither nilpotent nor a unit splits M
    for power, scalar in zip(powers, scalars):
        if (power != scalar).any() and exactlin.rank(Matrix(field, power)) < dd:
            return None, power
    # 2. End is local with residue field GF(p)
    if _local_radical(totals, powers, scalars, field) is not None:
        return ("endomorphism algebra is local: scalars plus a nilpotent ideal", True), None
    # 3. neither settles it (say End/rad End is a larger field): search all of End
    if p**t <= _EXACT_ENUM_LIMIT:
        coeffs = first_combination(totals, p)
        if coeffs is None:
            return ("no nontrivial idempotent endomorphism (exhaustive search)", True), None
        return None, np.tensordot(coeffs, totals, axes=1) % p
    return ("not split and not shown local; too large to search for idempotents", False), None


def decompose(m: Representation) -> DecompositionCertificate:
    """Split m into indecomposable summands with their inclusions.

    A piece whose endomorphism algebra has dimension t = 1 over GF(p) is
    indecomposable outright.  Every other piece, of dimension D, goes through
    three deterministic steps, in this order:

    1. Fitting split: with q the least power of p with q >= D, the first
       End-basis element f that is neither nilpotent nor invertible splits
       the piece as ker f^e (+) im f^e, e >= D, read at e = q, the power
       that tested it.
    2. Locality certificate: every basis element has f^q = c_f 1, and the
       span N of the f - c_f 1 has N^D = 0.  Then End = k 1 (+) (nilpotent
       ideal) is local and the piece is indecomposable.
    3. Fallback, when neither step settles the piece: an exhaustive search of
       End for a nontrivial idempotent e, which splits the piece as
       ker e (+) im e or certifies it, while p^t <= `_EXACT_ENUM_LIMIT`
       (200,000).

    Every summand carries an evidence string.  `certified` is False only when
    some piece got past all three steps (End too large to search): then that
    piece may still decompose.
    """
    if m.is_zero():
        return DecompositionCertificate((), (), (), True)
    work = [(m, identity_map(m))]
    final = []
    certified = True
    while work:
        cur, incl = work.pop()
        endos = hom_basis(cur, cur)
        verdict, x = _decompose_indec_evidence(cur, endos)
        if x is not None:
            for part, part_incl in _fitting_split(cur, x):
                work.append((part, compose(incl, part_incl)))
            continue
        evidence, ok = verdict
        certified = certified and ok
        final.append((cur, incl, evidence))
    # deterministic order: sort by dims, then by the entries of the inclusion
    final.sort(key=lambda x: (tuple(x[0].dims), [vm.tolist() for vm in x[1].vertex_maps]))
    summands, inclusions, evidence = zip(*final)
    return DecompositionCertificate(summands, inclusions, evidence, certified)


def require_certified(cert: DecompositionCertificate) -> DecompositionCertificate:
    if not cert.certified:
        raise BudgetExhausted(
            "decomposition could not be certified: a piece is neither split nor shown "
            "local, and its endomorphism algebra is too large to search"
        )
    return cert


# ---------------------------------------------------------------------------
# isomorphism


def isomorphism(m: Representation, n: Representation) -> ModuleMap | None:
    """The first element of `hom_basis(m, n)` that is an isomorphism, or None.

    Precondition: one side is indecomposable (a certified summand, say).
    Then the test is exact: if phi: m -> n is an isomorphism, End(m) is
    local by Fitting's lemma, so the non-isomorphisms in Hom(m, n) form the
    proper subspace phi.rad End(m), which no basis lies in.  A returned map
    is always an isomorphism; when both sides are decomposable, a None can be
    wrong (compare certified summands with `same_classes` instead).
    """
    if m.algebra != n.algebra:
        raise ValueError("isomorphism test between modules over different algebras")
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return zero_map(m, n)
    return next((f for f in hom_basis(m, n) if is_mono(f)), None)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Whether `isomorphism(m, n)` finds one; exact under its precondition
    that one side is indecomposable."""
    return isomorphism(m, n) is not None


def iso_class_index(reps: list[Representation], m: Representation) -> int:
    """Position of the class of m in reps, a list of pairwise non-isomorphic
    indecomposables; m is appended when its class is new.  Each comparison is
    exact, as one side of it is indecomposable (`isomorphism`)."""
    for k, r in enumerate(reps):
        if isomorphism(m, r) is not None:
            return k
    reps.append(m)
    return len(reps) - 1


def same_classes(a, b) -> bool:
    """Whether two lists of indecomposables are the same multiset of iso
    classes (by Krull-Schmidt, whether their direct sums are isomorphic)."""
    classes = []
    count = lambda ms: sorted(iso_class_index(classes, x) for x in ms)
    return len(a) == len(b) and count(a) == count(b)


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


def _module_shape(algebra: BoundQuiverAlgebra) -> dict:
    """The shape of a module file over algebra (see quivalg._check_shape):
    `algebra` names it for the reader only, and `arrow_maps` holds a matrix
    for each arrow of the algebra and for nothing else."""
    arrows = {a.id: _Required([[int]]) for a in algebra.quiver.arrows}
    return {"algebra": str, "dims": _Required([int]), "arrow_maps": _Required(arrows)}


def _module_of(algebra: BoundQuiverAlgebra, data: dict, prefix: str = "") -> Representation:
    """The module of data, which has the shape of a module file; prefix
    starts the paths that errors name ("A." for the A of a morphism object)."""
    dims = _per_vertex(data["dims"], algebra.quiver.vertices, prefix + "dims")
    maps = {
        a.id: _json_matrix(algebra.field, data["arrow_maps"][a.id], (dims[a.target], dims[a.source]),
                           f"{prefix}arrow_maps.{a.id}")
        for a in algebra.quiver.arrows
    }
    return Representation(algebra, dims, maps, validate=True)


def module_from_json_dict(algebra: BoundQuiverAlgebra, data: dict) -> Representation:
    _check_shape(data, _module_shape(algebra))
    return _module_of(algebra, data)
