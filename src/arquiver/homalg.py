"""Homological constructions: minimal presentations, syzygies, transpose,
Auslander-Reiten translation, stable hom spaces, Ext, right minimal versions,
and the Nakayama functor.

The transpose of M is computed symbolically from a minimal projective
presentation P1 -> P0 -> M: the presentation matrix is read off as elements
x_{lk} in e_{j_l} A e_{i_k}, reversed into the opposite algebra, and the
transpose is the cokernel of the dual map between opposite projectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactlin
from ._gfcore_py import matmul as _matmul_stacks
from .errors import NotProjective, invariant
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
    flatten_map,
    hom_basis,
    indecomposable_injective,
    indecomposable_projective,
    injective_envelope,
    injective_module,
    is_projective,
    k_dual,
    map_from_coefficients,
    match_indecomposables,
    non_nilpotent,
    projective_cover,
    projective_generators,
    projective_map_from_generator_images,
    projective_module,
    scale_map,
    solve_hom_equation,
    syzygy_step,
    _fitting_split,
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


def projective_resolution(m: Representation, length: int):
    """(projectives [P_0..P_length], differentials [d_1..d_length], eps).

    Each step is a minimal cover, so the resolution is minimal.  Its modules
    and covers are memoized along the chain M, Omega M, Omega^2 M, ...
    """
    eps = projective_cover(m)
    ps = [eps.source]
    ds = []
    omega = m
    for _ in range(length):
        _, omega, incl = syzygy_step(omega)
        cover = projective_cover(omega)
        ds.append(compose(incl, cover))
        ps.append(cover.source)
    return ps, ds, eps


# ---------------------------------------------------------------------------
# transpose and the AR translation


def dual_of_projective_map(g: ModuleMap) -> ModuleMap:
    """Hom(−, Λ) applied to a map between layout-carrying projectives.

    For g: P -> Q over Λ, returns g*: Q* -> P* over opposite(Λ), where R* is
    the projective over the opposite algebra on the same summand vertex list.
    """
    alg = g.source.algebra
    op = opposite(alg)
    src_verts = g.source._layout[1]
    tgt_verts = g.target._layout[1]
    gens_src = projective_generators(g.source)
    _, _, coords_tgt = g.target._layout
    pstar = projective_module(op, src_verts)
    qstar = projective_module(op, tgt_verts)
    gen_images: list[dict] = [dict() for _ in tgt_verts]
    p = alg.field.p
    for k, (vk, pos) in enumerate(gens_src):
        # image of generator k of P: a column over Q's basis at vertex vk
        col = g.vertex_maps[vk].a[:, pos]
        for row, (l, bp) in enumerate(coords_tgt[vk]):
            c = int(col[row])
            if not c:
                continue
            # bp runs tgt_verts[l] -> vk in the algebra; its reversal starts
            # at vk in the opposite algebra and need not be a normal form there
            for nf, c2 in op.reduce_path(vk, tuple(reversed(bp[1]))).items():
                key = (k, nf)
                gen_images[l][key] = (gen_images[l].get(key, 0) + c * c2) % p
    return projective_map_from_generator_images(qstar, pstar, gen_images)


def transpose(m: Representation) -> Representation:
    """Tr(M) over the opposite algebra, from a minimal presentation.

    Tr of a projective is zero; projective summands of M never leak into the
    output because the presentation is minimal.
    """
    pres = minimal_presentation(m)
    cok, _ = cokernel(dual_of_projective_map(pres.d))
    return cok


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
# stable hom


@dataclass(frozen=True)
class StableHomSpace:
    source: Representation
    target: Representation
    total_dim: int
    factoring_dim: int
    stable_dim: int
    stable_representatives: tuple[ModuleMap, ...]


def _quotient_data(field, sub: list[ModuleMap], total: list[ModuleMap]) -> tuple[ModuleMap, ...]:
    """Members of `total` whose classes form a basis of span(total)/span(sub),
    for sub inside span(total): the pivots of total after those of sub."""
    if not total:
        return ()
    flats = np.stack([flatten_map(f) for f in sub + total])
    _, pivots = exactlin.rref(exactlin.transpose(Matrix(field, flats)))
    return tuple(total[i - len(sub)] for i in pivots if i >= len(sub))


def _annihilated(basis: list[ModuleMap], images: list[ModuleMap]) -> list[ModuleMap]:
    """Basis of the combinations of `basis` whose matching combination of
    `images` (one image per basis element, under a linear map) is zero."""
    field = basis[0].source.algebra.field
    flats = np.stack([flatten_map(g) for g in images])
    coeffs = exactlin.kernel_basis(exactlin.transpose(Matrix(field, flats)))
    return [map_from_coefficients(basis, [int(x) for x in coeffs.a[:, c]]) for c in range(coeffs.cols)]


def _stable_space(m, n, through) -> StableHomSpace:
    total = hom_basis(m, n)
    reps = _quotient_data(m.algebra.field, through, total)
    return StableHomSpace(m, n, len(total), len(total) - len(reps), len(reps), reps)


def stable_hom_proj(m: Representation, n: Representation) -> StableHomSpace:
    """Hom(m, n) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the
    projective cover of n, so the factoring subspace is the image of
    Hom(m, P(n)) under post-composition with the cover.
    """
    cover = projective_cover(n)
    through = [compose(cover, g) for g in hom_basis(m, cover.source)]
    return _stable_space(m, n, through)


def stable_hom_inj(m: Representation, n: Representation) -> StableHomSpace:
    """Hom(m, n) modulo maps factoring through an injective (via the envelope of m)."""
    env = injective_envelope(m)
    through = [compose(g, env) for g in hom_basis(env.target, n)]
    return _stable_space(m, n, through)


# ---------------------------------------------------------------------------
# Ext


@dataclass(frozen=True)
class ExtSpace:
    dim: int
    cocycles: tuple[ModuleMap, ...]  # maps P_i -> n representing a basis of Ext^i
    projectives: tuple[Representation, ...]  # P_0 .. P_{i+1} of the minimal resolution
    differentials: tuple[ModuleMap, ...]  # d_1 .. d_{i+1}
    eps: ModuleMap


def ext(m: Representation, n: Representation, i: int) -> ExtSpace:
    """Ext^i(m, n) for i >= 1, from a minimal projective resolution of m."""
    if i < 1:
        raise ValueError("ext is implemented for i >= 1")
    ps, ds, eps = projective_resolution(m, i + 1)
    h_i = hom_basis(ps[i], n)
    if not h_i:
        return ExtSpace(0, (), tuple(ps), tuple(ds), eps)
    cocycles = _annihilated(h_i, [compose(h, ds[i]) for h in h_i])
    # coboundaries: g . d_i for g in Hom(P_{i-1}, n); these are cocycles already
    bound = [compose(g, ds[i - 1]) for g in hom_basis(ps[i - 1], n)]
    reps = _quotient_data(m.algebra.field, bound, cocycles)
    return ExtSpace(len(reps), reps, tuple(ps), tuple(ds), eps)


def ext_dim(m: Representation, n: Representation, i: int) -> int:
    return ext(m, n, i).dim


def extension_from_cocycle(
    m: Representation, n: Representation, space: ExtSpace, k: int = 0
) -> tuple[Representation, ModuleMap, ModuleMap]:
    """Middle term of the short exact sequence 0 -> n -> E -> m -> 0 whose
    class is space.cocycles[k], where space = ext(m, n, 1).

    The cocycle f: P1 -> n kills the image of d2, so it descends to the
    syzygy Omega(m) = im(d1); E is the pushout of Omega(m) -> P0 along that
    map.  Returns (E, inclusion of n, projection onto m).
    """
    if len(space.differentials) < 2:
        raise ValueError("extension_from_cocycle needs an ExtSpace computed for i = 1")
    f = space.cocycles[k]
    d1, eps = space.differentials[0], space.eps
    p = m.algebra.field.p
    cover, omega, kappa = syzygy_step(eps.target)
    invariant(cover is eps, "Ext space is not built on the shared projective cover")
    pi = solve_hom_equation(d1.source, omega, d1, post=kappa)
    fbar = solve_hom_equation(omega, n, f, pre=pi)
    total, incls, projs = direct_sum([n, d1.target])
    g = add_maps(compose(incls[0], fbar), scale_map(p - 1, compose(incls[1], kappa)))
    e, proj_e = cokernel(g)
    incl_n = compose(proj_e, incls[0])
    onto_m = solve_hom_equation(e, m, compose(eps, projs[1]), pre=proj_e)
    return e, incl_n, onto_m


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


def is_right_minimal(h: ModuleMap) -> bool:
    """Deterministic: the stable power of {u : h.u = 0} vanishes."""
    return not len(_stable_ideal_power(h))


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
# Nakayama functor and stable isomorphism


def is_selfinjective(alg) -> bool:
    """Whether the indecomposable projectives and injectives agree as multisets."""
    verts = range(alg.quiver.vertices)
    projectives = tuple(indecomposable_projective(alg, v) for v in verts)
    injectives = tuple(indecomposable_injective(alg, v) for v in verts)
    return match_indecomposables(projectives, injectives) is not None


def nakayama(p_mod: Representation) -> Representation:
    """nu(P) = D Hom(P, A): sends the projective on a vertex list to the
    injective on the same list.  Errors on non-projectives."""
    cover = projective_cover(p_mod)
    if not all(exactlin.kernel_basis(vm).cols == 0 for vm in cover.vertex_maps):
        raise NotProjective("nakayama functor applied to a non-projective module")
    verts = cover.source._layout[1]
    return injective_module(p_mod.algebra, verts)


def nonprojective_summands(m: Representation) -> list[Representation]:
    return [s for s in decompose(m).summands if not is_projective(s)]


def is_stably_isomorphic(m: Representation, n: Representation) -> bool:
    """Isomorphic after deleting projective direct summands from both sides."""
    return match_indecomposables(nonprojective_summands(m), nonprojective_summands(n)) is not None
