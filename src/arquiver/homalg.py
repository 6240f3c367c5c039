"""Homological constructions: minimal presentations, syzygies, transpose,
Auslander-Reiten translation, stable hom spaces, Ext and right minimal
versions.

The transpose of M is computed symbolically from a minimal projective
presentation P1 -> P0 -> M: the presentation matrix is read off as elements
x_{lk} in e_{j_l} A e_{i_k}, reversed into the opposite algebra, and the
transpose is the cokernel of the dual map between opposite projectives.

Stable Hom (`stable_hom_proj`) and Ext (`ext`) work in generator-image
coordinates along the minimal resolution ... -> P1 -> P0 -> M, read from
the memoized steps of M, Omega M, ... (`_presentation_relations`): a map f
out of a projective with generators g_k at vertices v_k is recorded by
y(f) = (f(g_k))_k in (+)_k X_{v_k}, which determines it (Yoneda:
Hom(P(v), X) = X e_v), so a Hom out of a projective needs no equations, and
f -> f.d is the matrix `_relation_system` of d.  Hom(M, X) is the kernel of
one such system, and Ext^i(M, N) is the cohomology of
Hom(P_{i-1}, N) -> Hom(P_i, N) -> Hom(P_{i+1}, N), whose two maps are such
systems.  The dimensions are ranks and kernels in these coordinates; stable
Hom builds no map, and Ext builds only the cocycles of its basis.  Every map
out of a projective is built from its generator images by
`repmod._maps_on_paths`: the projective cover, the dual D(d) in `transpose`
and the Ext cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactlin
from ._gfcore_py import matmul as _matmul_stacks
from .errors import BudgetExhausted, NotProjective, invariant
from .exactlin import Matrix
from .quivalg import opposite
from .repmod import (
    ModuleMap,
    Representation,
    add_maps,
    cokernel,
    compose,
    decompose,
    direct_sum,
    dual_map,
    hom_basis,
    indecomposable_injective,
    indecomposable_projective,
    injective_envelope,
    is_projective,
    k_dual,
    non_nilpotent,
    projective_cover,
    projective_generators,
    projective_module,
    same_classes,
    scale_map,
    solve_hom_equation,
    syzygy_step,
    _fitting_powers,
    _fitting_split,
    _image_offsets,
    _local_radical,
    _maps_on_paths,
    _path_actions,
    _product_span,
    _total_stack,
)


@dataclass(frozen=True)
class MinimalPresentation:
    p1: Representation
    p0: Representation
    d: ModuleMap  # p1 -> p0
    eps: ModuleMap  # p0 -> m


def minimal_presentation(m: Representation) -> MinimalPresentation:
    """Minimal projective presentation P1 --d--> P0 --eps--> M -> 0."""
    eps, ker, incl = syzygy_step(m)
    cover1 = projective_cover(ker)
    d = compose(incl, cover1)
    # exactness at p0: im d = ker eps
    invariant(compose(eps, d).is_zero(), "presentation is not a complex at P0")
    for v in range(m.algebra.quiver.vertices):
        invariant(exactlin.rank(d.vertex_maps[v]) == ker.dims[v], "presentation is not exact at P0")
    return MinimalPresentation(cover1.source, eps.source, d, eps)


def syzygy(m: Representation) -> Representation:
    """First syzygy: the kernel of the projective cover (zero for projectives).

    Computed once per module object and shared (see `repmod.syzygy_step`).
    """
    return syzygy_step(m)[1]


def cosyzygy(m: Representation) -> Representation:
    """First cosyzygy: the cokernel of the injective envelope."""
    cok, _ = cokernel(injective_envelope(m))
    return cok


# ---------------------------------------------------------------------------
# transpose and the AR translation


def dual_of_projective_map(g: ModuleMap) -> ModuleMap:
    """Hom(−, Λ) applied to a map between layout-carrying projectives.

    For g: P -> Q over Λ, returns g*: Q* -> P* over opposite(Λ), where R* is
    the projective over the opposite algebra on the same summand vertex list.
    Generator l of Q* goes to the element of P* read off the row of g at
    Q's summand l; raises NotProjective unless both ends were built by
    `repmod.projective_module`.
    """
    if g.source._layout is None or g.target._layout is None:
        raise NotProjective("dual_of_projective_map needs projective modules with their layout")
    op = opposite(g.source.algebra)
    tgt_verts, coords_tgt = g.target._layout
    pstar = projective_module(op, g.source._layout[0])
    qstar = projective_module(op, tgt_verts)
    coords_p = pstar._layout[1]
    offsets = _image_offsets(pstar, tgt_verts)
    y = np.zeros((offsets[-1], 1), dtype=np.int64)
    for k, (vk, pos) in enumerate(projective_generators(g.source)):
        # image of generator k of P: a column over Q's basis at vertex vk
        col = g.vertex_maps[vk].a[:, pos]
        for row in np.flatnonzero(col):
            l, bp = coords_tgt[vk][row]
            # bp runs tgt_verts[l] -> vk in the algebra; its reversal starts
            # at vk in the opposite algebra and need not be a normal form there
            for nf, c in op.reduce_path(vk, tuple(reversed(bp[1]))).items():
                y[offsets[l] + coords_p[tgt_verts[l]].index((k, nf))] += int(col[row]) * c
    phis = _maps_on_paths(qstar, pstar, _path_actions(pstar), y % op.field.p)
    return ModuleMap(qstar, pstar, [Matrix(op.field, phi[:, :, 0].T) for phi in phis], validate=True)


def transpose(m: Representation) -> Representation:
    """Tr(M) over the opposite algebra, from a minimal presentation.

    Tr of a projective is zero; projective summands of M never leak into the
    output because the presentation is minimal.  Computed once per module
    object and shared, like the projective cover.
    """
    if m._transpose is None:
        cok, _ = cokernel(dual_of_projective_map(minimal_presentation(m).d))
        object.__setattr__(m, "_transpose", cok)
    return m._transpose


def transpose_of_map(q: ModuleMap) -> ModuleMap:
    """Tr as a functor on the stable category: Tr(q): Tr(target) -> Tr(source).

    Lift q through both minimal presentations, dualize the presentation-level
    square, and descend to the transpose cokernels.  The representative
    depends on the (deterministic) lift; its stable class does not.
    """
    mpb = minimal_presentation(q.source)
    mpc = minimal_presentation(q.target)
    q0 = solve_hom_equation(mpb.p0, mpc.p0, compose(q, mpb.eps), post=mpc.eps)
    # q0 exists because P0 of the source is projective and eps is epi
    q1 = solve_hom_equation(mpb.p1, mpc.p1, compose(q0, mpb.d), post=mpc.d)
    # q1 exists because q0 ∘ d lands in ker(eps) = im(d) of the target
    dstar_b = dual_of_projective_map(mpb.d)
    dstar_c = dual_of_projective_map(mpc.d)
    tr_b, proj_b = cokernel(dstar_b)
    tr_c, proj_c = cokernel(dstar_c)
    induced = compose(proj_b, dual_of_projective_map(q1))
    # induced kills im(dstar_c) (dualize q0∘d_b = d_c∘q1), so it factors
    # uniquely through proj_c; any linear section of proj_c computes the factor
    field = tr_c.algebra.field
    vms = []
    for v in range(tr_c.algebra.quiver.vertices):
        section = exactlin.solve(proj_c.vertex_maps[v], Matrix.identity(field, tr_c.dims[v]))
        vms.append(exactlin.multiply(induced.vertex_maps[v], section))
    return ModuleMap(tr_c, tr_b, vms, validate=True)


def ar_translate_of_map(q: ModuleMap) -> ModuleMap:
    """tau = D Tr as a functor on the stable category: tau(source) -> tau(target)."""
    return dual_map(transpose_of_map(q))


def ar_translate(m: Representation) -> Representation:
    """tau(M) = D Tr M (zero for projectives)."""
    return k_dual(transpose(m))


def ar_translate_inverse(m: Representation) -> Representation:
    """tau^{-1}(M) = Tr D M (zero for injectives)."""
    return transpose(k_dual(m))


# ---------------------------------------------------------------------------
# stable hom and Ext in generator-image coordinates


@dataclass(frozen=True)
class StableHomSpace:
    source: Representation
    target: Representation
    total_dim: int
    factoring_dim: int
    stable_dim: int


def _presentation_relations(m: Representation) -> tuple[ModuleMap, list]:
    """The minimal presentation P1 --d--> P0 --eps--> M, read from the
    memoized resolution steps of M and of Omega M: (eps, relations), with one
    relation (u, column) per generator of P1, at its vertex u, holding its
    image under d over P0's basis at u.  d is read at those columns only."""
    eps, omega, incl = syzygy_step(m)
    cover1 = projective_cover(omega)
    p = m.algebra.field.p
    return eps, [
        (u, _matmul_stacks(incl.vertex_maps[u].a, cover1.vertex_maps[u].a[:, pos : pos + 1], p)[:, 0])
        for u, pos in projective_generators(cover1.source)
    ]


def _relation_system(eps: ModuleMap, relations, x: Representation, acts: dict) -> np.ndarray:
    """f -> f.d from Hom(P0, X) to Hom(P1, X) in generator-image coordinates,
    for P0 = eps.source and d given by `relations`: one block row per
    generator h of P1, sum_r c_r X(path_r) y_{k_r} where d(h) = sum_r c_r
    g_{k_r}.path_r.  Its kernel is Hom(coker d, X)."""
    gen_verts, coords = eps.source._layout
    p = x.algebra.field.p
    offsets = _image_offsets(x, gen_verts)
    system = np.zeros((sum(x.dims[u] for u, _ in relations), offsets[-1]), dtype=np.int64)
    row = 0
    for u, col in relations:
        for i in np.flatnonzero(col):
            k, bp = coords[u][i]
            part = system[row : row + x.dims[u], offsets[k] : offsets[k + 1]]
            part[...] = (part + int(col[i]) * acts[bp]) % p
        row += x.dims[u]
    return system


def stable_hom_proj(m: Representation, n: Representation) -> StableHomSpace:
    """Hom(m, n) modulo maps factoring through a projective.

    In the generator-image coordinates (module docstring) of the minimal
    presentation P1 --d--> P0 --eps--> M, Hom(M, X) is the kernel of the
    relation system of d for X.  A map factors through some projective iff
    it factors through the projective cover pi: P(N) -> N, so the factoring
    subspace is pi applied blockwise to the kernel for X = P(N).  total_dim
    and factoring_dim are the kernel dimension for N and that subspace's
    rank; no map is built.
    """
    if m.algebra != n.algebra:
        raise ValueError("stable_hom_proj between modules over different algebras")
    field = m.algebra.field
    p = field.p
    eps, relations = _presentation_relations(m)
    acts = _path_actions(n)
    system = _relation_system(eps, relations, n, acts)
    homs = exactlin.kernel_basis(Matrix(field, system)).a
    if not homs.shape[1]:
        return StableHomSpace(m, n, 0, 0, 0)
    cover = projective_cover(n)
    gens = projective_generators(eps.source)
    to_p = exactlin.kernel_basis(
        Matrix(field, _relation_system(eps, relations, cover.source, _path_actions(cover.source)))
    ).a
    starts = _image_offsets(cover.source, [v for v, _ in gens])
    through = np.vstack(
        [_matmul_stacks(cover.vertex_maps[v].a, to_p[starts[k] : starts[k + 1]], p) for k, (v, _) in enumerate(gens)]
    )
    # the reduced rows of through^T: a basis of the factoring maps, as columns
    red, pivots = exactlin.rref(Matrix(field, through.T))
    factoring = red.a[: len(pivots)].T
    invariant(not _matmul_stacks(system, factoring, p).any(), "a map through the projective cover is not in Hom(M, N)")
    return StableHomSpace(m, n, homs.shape[1], len(pivots), homs.shape[1] - len(pivots))


@dataclass(frozen=True)
class ExtSpace:
    dim: int
    cocycles: tuple[ModuleMap, ...]  # maps P_i -> n representing a basis of Ext^i


def _ext_coordinates(m: Representation, n: Representation, i: int):
    """`ext`'s coordinates: (eps_i, the path actions on n, the coboundary
    system, whose columns span B, and y, the cocycles of Ext^i's basis)."""
    field = n.algebra.field
    omega = m
    for _ in range(i - 1):
        omega = syzygy(omega)
    acts = _path_actions(n)
    bound = _relation_system(*_presentation_relations(omega), n, acts)
    eps_i, relations = _presentation_relations(syzygy(omega))
    closed = _relation_system(eps_i, relations, n, acts)
    invariant(not _matmul_stacks(closed, bound, field.p).any(), "resolution is not a complex: d d != 0")
    z = exactlin.kernel_basis(Matrix(field, closed)).a
    _, pivots = exactlin.rref(Matrix(field, np.hstack([bound, z])))
    return eps_i, acts, bound, z[:, [c - bound.shape[1] for c in pivots if c >= bound.shape[1]]]


def ext(m: Representation, n: Representation, i: int) -> ExtSpace:
    """Ext^i(m, n) for i >= 1: the cohomology of
    Hom(P_{i-1}, N) -> Hom(P_i, N) -> Hom(P_{i+1}, N) along the minimal
    projective resolution of m, in generator-image coordinates.

    The two maps are the relation systems of d_i and d_{i+1} for N, read from
    the presentations of Omega^{i-1} m and Omega^i m.  The cocycles Z are the
    kernel of the second and the coboundaries B the column span of the
    first; the members of Z's basis that are pivots of [B | Z] form a basis
    of Ext^i, and each is built as the map P_i -> n with those generator
    images.
    """
    if i < 1:
        raise ValueError("ext is implemented for i >= 1")
    if m.algebra != n.algebra:
        raise ValueError("ext between modules over different algebras")
    eps_i, acts, _, y = _ext_coordinates(m, n, i)
    if not y.shape[1]:
        return ExtSpace(0, ())
    phis = _maps_on_paths(eps_i.source, n, acts, y)
    cocycles = tuple(
        ModuleMap(eps_i.source, n, [Matrix(n.algebra.field, phi[:, :, j].T) for phi in phis], validate=False)
        for j in range(y.shape[1])
    )
    return ExtSpace(len(cocycles), cocycles)


def ext_dim(m: Representation, n: Representation, i: int) -> int:
    return ext(m, n, i).dim


def extension_from_cocycle(m: Representation, n: Representation, f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Middle term of the short exact sequence 0 -> n -> E -> m -> 0 whose
    class is the cocycle f: P1 -> n of ext(m, n, 1).

    f kills the image of d2, so it descends along the cover pi: P1 ->
    Omega(m) (d1 = kappa . pi, with kappa: Omega(m) -> P0); E is the pushout
    of kappa along that map, so E / n = P0 / Omega(m) = m.  Returns (E,
    inclusion of n); the projection onto m is not built, as no caller reads it.
    """
    eps, omega, kappa = syzygy_step(m)
    pi = projective_cover(omega)
    fbar = solve_hom_equation(omega, n, f, pre=pi) if (f.source, f.target) == (pi.source, n) else None
    if fbar is None:
        raise ValueError("extension_from_cocycle needs a cocycle of ext(m, n, 1)")
    p = m.algebra.field.p
    _, incls, _ = direct_sum([n, eps.source])
    g = add_maps(compose(incls[0], fbar), scale_map(p - 1, compose(incls[1], kappa)))
    e, proj_e = cokernel(g)
    return e, compose(proj_e, incls[0])


def almost_split_sequence(m: Representation, n: Representation | None = None) -> tuple[Representation, ModuleMap]:
    """0 -> N -> E -> M -> 0 for an indecomposable non-projective M, as
    `extension_from_cocycle` returns it: almost split for N = tau M, the
    default, and almost split inside a functorially finite, extension-closed
    subcategory that holds M when N is the relative translate there, such as
    N = tau_G M inside Gprj (Auslander and Smalo, "Almost split sequences in
    subcategories", J. Algebra 1981).  Such a subcategory has the same Ext^1,
    and the class spans the simple socle of Ext^1(M, N) as an End(N)-module
    (Auslander, Reiten and Smalo, ch. V); with End(N)/rad = GF(p) that socle
    is one vector.  In `ext`'s coordinates, r acts on the image of generator
    k by r at its vertex, so the socle is the kernel of one stack of Q (r y)
    over r spanning rad End(N), the rows of Q cutting out the coboundaries B."""
    if n is None:
        n = ar_translate(m)
    field = m.algebra.field
    p = field.p
    eps1, acts, bound, y = _ext_coordinates(m, n, 1)
    invariant(y.shape[1] > 0, "Ext^1(M, N) is zero")
    totals = _total_stack(hom_basis(n, n))
    rad = _local_radical(totals, _fitting_powers(totals, p), field)
    if rad is None:
        raise BudgetExhausted(f"End(N) for N of dims {list(n.dims)} has a residue field larger than GF({p})")
    q = exactlin.kernel_basis(Matrix(field, bound.T)).a.T  # q w = 0 iff w is in B
    verts, starts = eps1.source._layout[0], np.cumsum((0,) + n.dims)
    offsets = _image_offsets(n, verts)
    blocks = [(slice(starts[v], starts[v + 1]), slice(o, o + n.dims[v])) for v, o in zip(verts, offsets)]
    rad_y = np.concatenate([_matmul_stacks(rad[:, at, at], y[rows], p) for at, rows in blocks], axis=1)
    socle = exactlin.kernel_basis(Matrix(field, _matmul_stacks(q, rad_y, p).reshape(-1, y.shape[1]))).a
    invariant(socle.shape[1] == 1, f"the socle of Ext^1(M, N) over End(N) has dimension {socle.shape[1]}, not 1")
    xi = _matmul_stacks(y, socle, p)
    invariant(_matmul_stacks(q, xi, p).any(), "the almost split class is a coboundary")
    phis = _maps_on_paths(eps1.source, n, acts, xi)
    cocycle = ModuleMap(eps1.source, n, [Matrix(field, phi[:, :, 0].T) for phi in phis], validate=False)
    e, incl = extension_from_cocycle(m, n, cocycle)
    invariant(e.total_dim == m.total_dim + n.total_dim, "the almost split sequence has the wrong dimension")
    return e, incl


# ---------------------------------------------------------------------------
# right minimal version

# V = {u in End(M) : h.u = 0} is a right ideal of End(M), so its power chain
# V >= V^2 >= ... stabilizes at some W with W.W = W.  h is right minimal iff
# W = 0: the projection onto a summand of M inside ker h lies in every power.
# Conversely, a nonzero W is not nilpotent, so W/rad W is a nonzero product of
# matrix algebras M_n(GF(q)) (Wedderburn).  A nilpotent element has trace 0 in
# every factor, and the trace on one factor is a nonzero GF(p)-linear map, so
# the nilpotent elements of W span a proper subspace: every basis of W holds a
# non-nilpotent u.  Its stable Fitting image (Fitting's lemma) is a nonzero
# summand of M inside ker h, since h.u = 0.  Both the verdict and the split
# are deterministic.


def _stable_ideal_power(h: ModuleMap) -> np.ndarray:
    """Basis of the stable term of V >= V^2 >= ... for V = {u : h.u = 0}, as
    a stack of total matrices of endomorphisms of h.source."""
    m = h.source
    field = m.algebra.field
    endos = hom_basis(m, m)
    if not endos:
        return np.zeros((0, 0, 0), dtype=np.int64)
    totals = _total_stack(endos)
    t = len(totals)
    hu = _matmul_stacks(_total_stack([h])[0], totals, field.p)
    coeffs = exactlin.kernel_basis(Matrix(field, hu.reshape(t, -1).T))
    v = w = _matmul_stacks(coeffs.a.T, totals.reshape(t, -1), field.p).reshape(-1, *totals.shape[1:])
    # V^{k+1} lies in V^k; stop when it is as large, that is, equal
    while len(w) and len(w2 := _product_span(v, w, field)) < len(w):
        w = w2
    return w


def right_minimalize(h: ModuleMap) -> tuple[Representation, ModuleMap, Representation]:
    """Split h: M -> N as h1 (+) (M2 -> 0) with h1: M1 -> N right minimal.

    Returns (M1, h1, M2).  Each step splits off, by Fitting's lemma, the
    summand that the first non-nilpotent basis element of the stable ideal
    power carries into ker h (see above); no search is involved.
    """
    m = h.source
    p = m.algebra.field.p
    stripped: list[Representation] = []
    while True:
        w = _stable_ideal_power(h)
        if not len(w):
            break  # h is right minimal now
        hits = np.flatnonzero(non_nilpotent(w, p))
        invariant(hits.size > 0, "stable ideal power has a nilpotent basis")
        # the image part of the Fitting split lies inside ker h because the
        # witness does
        (ker_part, ker_incl, _), (im_part, im_incl, _) = _fitting_split(m, w[hits[0]])
        invariant(not im_part.is_zero(), "witness was nilpotent after all")
        invariant(compose(h, im_incl).is_zero(), "stripped part does not die under h")
        stripped.append(im_part)
        h = compose(h, ker_incl)
        m = ker_part
    if stripped:
        m2 = direct_sum(stripped)[0] if len(stripped) > 1 else stripped[0]
    else:
        m2 = projective_module(h.source.algebra, ())  # the zero module
    return m, h, m2


# ---------------------------------------------------------------------------
# self-injectivity and stable isomorphism


def is_selfinjective(alg) -> bool:
    """Whether the indecomposable projectives and injectives agree as multisets."""
    verts = range(alg.quiver.vertices)
    projectives = tuple(indecomposable_projective(alg, v) for v in verts)
    injectives = tuple(indecomposable_injective(alg, v) for v in verts)
    return same_classes(projectives, injectives)


def nonprojective_summands(m: Representation) -> list[Representation]:
    return [s for s in decompose(m).summands if not is_projective(s)]


def is_stably_isomorphic(m: Representation, n: Representation) -> bool:
    """Isomorphic after deleting projective direct summands from both sides."""
    return same_classes(nonprojective_summands(m), nonprojective_summands(n))
