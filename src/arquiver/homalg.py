"""Homological constructions: minimal presentations, syzygies, transpose,
Auslander-Reiten translation, stable hom spaces, Ext and right minimal
versions.

The transpose of M is computed symbolically from a minimal projective
presentation P1 -> P0 -> M: the presentation matrix is read off as elements
x_{lk} in e_{j_l} A e_{i_k}, reversed into the opposite algebra, and the
transpose is the cokernel of the dual map between opposite projectives.

Stable Hom (`stable_hom_proj`) and Ext (`ext`) are sums of Hom dimensions
(`_hom_dim`, memoized per pair of module values) along two exact sequences,
stated in their docstrings.  dim Hom(A, N) is read in generator-image
coordinates along the minimal presentation P1 --d--> P0 --eps--> A
(`_presentation_relations`): a map f out of a projective with generators
g_k at vertices v_k is recorded by y(f) = (f(g_k))_k in (+)_k N_{v_k},
which determines it (Yoneda: Hom(P(v), N) = N e_v), so Hom(P0, N) needs no
equations, and Hom(A, N) is the kernel of f -> f.d, the matrix
`_relation_system` of d.  No map is built for either.  The one class built
as a map is the almost split class xi: P1 -> N of `almost_split_sequence`.
It and every other map out of a projective are built from their generator
images by `repmod._maps_on_paths`: the projective cover, the dual D(d) in
`transpose` and xi.
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
    cokernel,
    compose,
    decompose,
    direct_sum,
    dual_map,
    hom_basis,
    injective_envelope,
    is_projective,
    k_dual,
    non_nilpotent,
    projective_cover,
    projective_generators,
    projective_module,
    regular_module,
    same_classes,
    solve_hom_equation,
    syzygy_step,
    _fitting_powers,
    _fitting_split,
    _image_offsets,
    _local_radical,
    _maps_on_paths,
    _memo_of,
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

    Computed once per module value and shared (see `repmod.syzygy_step`).
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
    value and shared, like the projective cover (`repmod._memo_of`).
    """
    memo = _memo_of(m)
    if "transpose" not in memo:
        memo["transpose"] = cokernel(dual_of_projective_map(minimal_presentation(m).d))[0]
    return memo["transpose"]


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
    image under d over P0's basis at u.  d is read at those columns only.
    Built once per module value, when it checks eps.d = 0.  In the
    resolution of M, d_i = kappa.eps_i, so the check on Omega^i M gives
    d_i.d_{i+1} = 0, and as Hom(-, N) is a functor, the relation systems of
    d_i and d_{i+1} compose to Hom(d_i.d_{i+1}, N) = 0 for every N."""
    memo = _memo_of(m)
    if "presentation" not in memo:
        eps, omega, incl = syzygy_step(m)
        cover1 = projective_cover(omega)
        p = m.algebra.field.p
        relations = [
            (u, _matmul_stacks(incl.vertex_maps[u].a, cover1.vertex_maps[u].a[:, pos : pos + 1], p)[:, 0])
            for u, pos in projective_generators(cover1.source)
        ]
        killed = (not _matmul_stacks(eps.vertex_maps[u].a, col[:, None], p).any() for u, col in relations)
        invariant(all(killed), "the presentation is not a complex: eps does not kill a relation")
        memo["presentation"] = eps, relations
    return memo["presentation"]


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


def _hom_dim(a: Representation, n: Representation) -> int:
    """dim Hom(a, n): columns less rank of the relation system of a's
    presentation for n.  Memoized in a's memo under the token ("key") of
    n's memo, which lives as long as a memo holds it: an id() of a collected
    memo could be reused and alias another module's answer."""
    homs = _memo_of(a).setdefault("homs", {})
    key = _memo_of(n).setdefault("key", object())
    if key not in homs:
        system = _relation_system(*_presentation_relations(a), n, _path_actions(n))
        homs[key] = system.shape[1] - exactlin.rank(Matrix(n.algebra.field, system))
    return homs[key]


def stable_hom_proj(m: Representation, n: Representation) -> StableHomSpace:
    """Hom(m, n) modulo maps factoring through a projective.  A map factors
    through some projective iff it factors through the projective cover
    P(N) -> N, and Hom(M, -) is left exact, so 0 -> Hom(M, Omega N) ->
    Hom(M, P(N)) -> Hom(M, N) is exact and the image of its last map is the
    factoring subspace: total_dim is dim Hom(M, N) and factoring_dim is
    dim Hom(M, P(N)) - dim Hom(M, Omega N), between 0 and total_dim."""
    if m.algebra != n.algebra:
        raise ValueError("stable_hom_proj between modules over different algebras")
    total = _hom_dim(m, n)
    if not total:
        return StableHomSpace(m, n, 0, 0, 0)
    factoring = _hom_dim(m, projective_cover(n).source) - _hom_dim(m, syzygy(n))
    invariant(0 <= factoring <= total, "the maps through the projective cover are not a subspace of Hom(M, N)")
    return StableHomSpace(m, n, total, factoring, total - factoring)


@dataclass(frozen=True)
class ExtSpace:
    dim: int


def _ext_coordinates(m: Representation, n: Representation):
    """Ext^1(m, n) as the cohomology of Hom(P0, n) -> Hom(P1, n) ->
    Hom(P2, n), for `almost_split_sequence`: (eps1, the path actions on n,
    the coboundary system, whose columns span B, and y, whose columns are
    the generator images of cocycles P1 -> n that form a basis modulo B)."""
    acts = _path_actions(n)
    bound = _relation_system(*_presentation_relations(m), n, acts)
    eps1, relations = _presentation_relations(syzygy(m))
    closed = _relation_system(eps1, relations, n, acts)
    z = exactlin.kernel_basis(Matrix(n.algebra.field, closed)).a
    _, pivots = exactlin.rref(Matrix(n.algebra.field, np.hstack([bound, z])))
    return eps1, acts, bound, z[:, [c - bound.shape[1] for c in pivots if c >= bound.shape[1]]]


def ext(m: Representation, n: Representation, i: int) -> ExtSpace:
    """Ext^i(m, n) for i >= 1, as Ext^1(A, N) for A = Omega^{i-1} M: the
    exact sequence 0 -> Hom(A, N) -> Hom(P(A), N) -> Hom(Omega A, N) ->
    Ext^1(A, N) -> 0 gives dim Hom(Omega A, N) - dim Hom(P(A), N)
    + dim Hom(A, N), where dim Hom(P(A), N) is the sum of dim N_v over the
    generators of P(A) at v (Yoneda).  No map is built."""
    if i < 1:
        raise ValueError("ext is implemented for i >= 1")
    if m.algebra != n.algebra:
        raise ValueError("ext between modules over different algebras")
    omega = m
    for _ in range(i - 1):
        omega = syzygy(omega)
    gens = projective_cover(omega).source._layout[0]
    return ExtSpace(_hom_dim(syzygy(omega), n) - sum(n.dims[v] for v in gens) + _hom_dim(omega, n))


def ext_dim(m: Representation, n: Representation, i: int) -> int:
    return ext(m, n, i).dim


def almost_split_sequence(m: Representation, n: Representation | None = None) -> tuple[Representation, ModuleMap]:
    """0 -> N -> E -> M -> 0 for an indecomposable non-projective M, as (E,
    inclusion of N); the projection onto M is not built, as no caller reads
    it.  The sequence is almost split for N = tau M, the default, and almost
    split inside a functorially finite, extension-closed subcategory that
    holds M when N is the relative translate there, such as
    N = tau_G M inside Gprj (Auslander and Smalo, "Almost split sequences in
    subcategories", J. Algebra 1981).  Such a subcategory has the same Ext^1,
    and the class spans the simple socle of Ext^1(M, N) as an End(N)-module
    (Auslander, Reiten and Smalo, ch. V); with End(N)/rad = GF(p) that socle
    is one vector.  In `ext`'s coordinates, r acts on the image of generator
    k by r at its vertex, so the socle is the kernel of one stack of Q (r y)
    over r spanning rad End(N), the rows of Q cutting out the coboundaries B.

    With the class xi: P1 -> N and d1 = kappa.pi: P1 -> Omega M -> P0, E is
    the cokernel of (xi, -d1): P1 -> N (+) P0, so E / N = P0 / Omega M = M.
    pi is onto, so this map has the column span, vertex by vertex, of the
    pushout map (xi', -kappa) out of Omega M, with xi = xi'.pi.  If xi were
    not a cocycle, it would not kill ker pi, the rank would grow and dim E
    would fall short of dim M + dim N."""
    if n is None:
        n = ar_translate(m)
    field = m.algebra.field
    p = field.p
    eps1, acts, bound, y = _ext_coordinates(m, n)
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
    eps0, _, kappa = syzygy_step(m)
    d1 = compose(kappa, eps1)
    g = [Matrix(field, np.vstack([phi[:, :, 0].T, -d.a])) for phi, d in zip(phis, d1.vertex_maps)]
    e, proj = cokernel(ModuleMap(eps1.source, direct_sum([n, eps0.source])[0], g, validate=False))
    invariant(e.total_dim == m.total_dim + n.total_dim, "the almost split sequence has the wrong dimension")
    return e, ModuleMap(n, e, [Matrix(field, pv.a[:, :nv]) for pv, nv in zip(proj.vertex_maps, n.dims)], validate=False)


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
        (ker_part, ker_incl), (im_part, im_incl) = _fitting_split(m, w[hits[0]])
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
    """Whether the regular module is injective: its injective envelope is no
    larger, as `is_projective` asks of the cover.  The regular module is
    injective exactly when alg is self-injective (quasi-Frobenius)."""
    reg = regular_module(alg)
    return injective_envelope(reg).target.dims == reg.dims


def nonprojective_summands(m: Representation) -> list[Representation]:
    return [s for s in decompose(m).summands if not is_projective(s)]


def is_stably_isomorphic(m: Representation, n: Representation) -> bool:
    """Isomorphic after deleting projective direct summands from both sides."""
    return same_classes(nonprojective_summands(m), nonprojective_summands(n))
