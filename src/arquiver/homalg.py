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
    first_combination,
    flatten_map,
    hom_basis,
    indecomposable_injective,
    indecomposable_projective,
    injective_envelope,
    injective_module,
    is_isomorphic,
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
    _EXACT_ENUM_LIMIT,
    _fitting_split,
    _total_matrix,
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


def _quotient_data(field, sub_flats, total_flats, total_maps):
    """dim and representatives of span(total)/span(sub), with sub inside span(total)."""
    if not len(total_flats):
        return 0, ()
    sub_rank = 0
    if len(sub_flats):
        sub_rank = exactlin.rank(Matrix(field, sub_flats))
    stacked = np.vstack([sub_flats, total_flats]) if len(sub_flats) else total_flats
    _, pivots = exactlin.rref(exactlin.transpose(Matrix(field, stacked)))
    reps = [total_maps[i - len(sub_flats)] for i in pivots if i >= len(sub_flats)]
    return len(pivots) - sub_rank, tuple(reps)


def _stable_space(m, n, through) -> StableHomSpace:
    total = hom_basis(m, n)
    field = m.algebra.field
    total_flats = (
        np.stack([flatten_map(f) for f in total]) if total else np.zeros((0, 0), dtype=np.int64)
    )
    sub_flats = (
        np.stack([flatten_map(f) for f in through])
        if through
        else np.zeros((0, total_flats.shape[1]), dtype=np.int64)
    )
    stable_dim, reps = _quotient_data(field, sub_flats, total_flats, total)
    return StableHomSpace(m, n, len(total), len(total) - stable_dim, stable_dim, reps)


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
    field = m.algebra.field
    h_i = hom_basis(ps[i], n)
    if not h_i:
        return ExtSpace(0, (), tuple(ps), tuple(ds), eps)
    # cocycles: h with h . d_{i+1} = 0
    post = [flatten_map(compose(h, ds[i])) for h in h_i]
    coeff_kernel = exactlin.kernel_basis(exactlin.transpose(Matrix(field, np.stack(post))))
    cocycle_maps = [
        map_from_coefficients(h_i, [int(x) for x in coeff_kernel.a[:, c]])
        for c in range(coeff_kernel.cols)
    ]
    # coboundaries: g . d_i for g in Hom(P_{i-1}, n); these are cocycles already
    bound = [compose(g, ds[i - 1]) for g in hom_basis(ps[i - 1], n)]
    total_flats = (
        np.stack([flatten_map(f) for f in cocycle_maps])
        if cocycle_maps
        else np.zeros((0, 0), dtype=np.int64)
    )
    sub_flats = (
        np.stack([flatten_map(f) for f in bound])
        if bound
        else np.zeros((0, total_flats.shape[1]), dtype=np.int64)
    )
    dim, reps = _quotient_data(field, sub_flats, total_flats, cocycle_maps)
    return ExtSpace(dim, reps, tuple(ps), tuple(ds), eps)


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
# V >= V^2 >= ... stabilizes.  h is right minimal iff the stable term W is
# zero: a projection onto a summand of M inside ker h is an idempotent of V
# surviving in every power, and conversely a nonzero stable W (W.W = W) is not
# contained in the radical -- it were nil otherwise -- so it contains a
# non-nilpotent element, whose stable Fitting power splits off a nonzero
# summand of M inside ker h.  The verdict is therefore deterministic; only
# locating the non-nilpotent element uses search (every candidate is verified
# exactly before use).

# Random combinations of the stable ideal power tried before enumerating it.
_WITNESS_TRIES = 128
_WITNESS_SEED = 0


def _independent_subset(maps: list[ModuleMap], field) -> list[ModuleMap]:
    if not maps:
        return []
    flats = np.stack([flatten_map(f) for f in maps])
    _, pivots = exactlin.rref(exactlin.transpose(Matrix(field, flats)))
    return [maps[i] for i in pivots]


def _stable_ideal_power(h: ModuleMap):
    """(basis of V^infinity, endomorphism basis of source) for V = {u : h.u = 0}."""
    m = h.source
    field = m.algebra.field
    endos = hom_basis(m, m)
    if not endos:
        return [], endos
    flats = np.stack([flatten_map(compose(h, e)) for e in endos])
    coeffs = exactlin.kernel_basis(exactlin.transpose(Matrix(field, flats)))
    vbasis = [
        map_from_coefficients(endos, [int(x) for x in coeffs.a[:, c]])
        for c in range(coeffs.cols)
    ]
    w = vbasis
    while w:
        products = [compose(u, x) for u in vbasis for x in w]
        w2 = _independent_subset(products, field)
        if len(w2) == len(w):
            break  # V^{k+1} = V^k as spans: the chain stabilized
        w = w2
    return w, endos


def is_right_minimal(h: ModuleMap) -> bool:
    """Deterministic: the stable power of {u : h.u = 0} vanishes."""
    w, _ = _stable_ideal_power(h)
    return not w


def right_minimalize(h: ModuleMap) -> tuple[Representation, ModuleMap, Representation]:
    """Split h: M -> N as h1 (+) (M2 -> 0) with h1: M1 -> N right minimal.

    Returns (M1, h1, M2).  Minimality verdicts are deterministic (see above).
    When a summand has to be split off, a non-nilpotent element of the stable
    ideal power W provably exists; the search for it tries the basis of W,
    then a fixed budget of `_WITNESS_TRIES` (128) random combinations drawn
    from `_WITNESS_SEED` (0) afresh on every call, then, while p^dim W <=
    `_EXACT_ENUM_LIMIT` (200,000), every combination.
    """
    rng = np.random.default_rng(_WITNESS_SEED)
    m = h.source
    stripped: list[Representation] = []
    while True:
        w, _ = _stable_ideal_power(h)
        if not w:
            break  # h is right minimal now
        p = m.algebra.field.p
        witness = None
        for u in w:
            if non_nilpotent(_total_matrix(u).a[None], p)[0]:
                witness = u
                break
        if witness is None:
            for _ in range(_WITNESS_TRIES):
                u = map_from_coefficients(
                    w, [int(x) for x in rng.integers(0, p, size=len(w))]
                )
                if non_nilpotent(_total_matrix(u).a[None], p)[0]:
                    witness = u
                    break
        if witness is None and p ** len(w) <= _EXACT_ENUM_LIMIT:
            combo = first_combination(w, non_nilpotent)
            invariant(combo is not None, "stable ideal power was nil after all")
            witness = map_from_coefficients(w, combo)
        if witness is None:
            raise BudgetExhausted(
                "a summand of the source dies under the map, but no splitting "
                "element was located within the search budget"
            )
        # the image part of the Fitting split lies inside ker h because the
        # witness does
        (ker_part, ker_incl, _), (im_part, im_incl, _) = _fitting_split(m, witness)
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
    n = alg.quiver.vertices
    remaining = [indecomposable_injective(alg, j) for j in range(n)]
    for i in range(n):
        pi = indecomposable_projective(alg, i)
        hit = next((k for k, inj in enumerate(remaining) if is_isomorphic(pi, inj)), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


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
