"""Homological constructions: minimal presentations, syzygies, transpose,
Auslander-Reiten translation, stable hom spaces, Ext and right minimal
versions.

`minimal_presentation` is the one presentation builder, memoized per module
value: P1 --d--> P0 --eps--> M with d = kappa.pi, the inclusion of Omega M
after the cover of Omega M, and d's column at each generator of P1 (its
relations).  Hom, Ext, Tr, tau_P and the almost split sequence all read it.
The transpose is the cokernel of the dual d* between opposite projectives:
d's columns are read off as elements x_{lk} in e_{j_l} A e_{i_k} and
reversed into the opposite algebra.  The injective side is read through the
dual: Omega^-1 M = D Omega D M, and alg is self-injective iff D(alg) is
projective.

Stable Hom (`stable_hom_proj`) and Ext (`ext`) are sums of Hom dimensions
(`_hom_dim`, memoized per pair of module values) along two exact sequences,
stated in their docstrings; Hom into a projective cover P(N) is the sum of
Hom into its indecomposable summands P(v).  dim Hom(A, N) is read in
generator-image coordinates along A's presentation: a map f out of a
projective with generators g_k at vertices v_k is recorded by
y(f) = (f(g_k))_k in (+)_k N_{v_k}, which determines it (Yoneda:
Hom(P(v), N) = N e_v), so Hom(P0, N) needs no equations, and Hom(A, N) is
the kernel of f -> f.d, the matrix `_relation_system` of d's relations,
built one pair of vertices at a time from d's terms grouped by vertex
(`_grouped_terms`, kept with the presentation).  No map is built for
either.  The one class built as a map is the almost split class
xi: P1 -> N of `almost_split_sequence`.  Maps out of a projective are
built from their generator images: D(d) in `transpose` and xi by
`repmod._maps_on_paths`, and the projective cover, whose generator images
are unit vectors, by gathering columns of the path actions.
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
    is_projective,
    k_dual,
    projective_cover,
    projective_generators,
    projective_module,
    regular_module,
    same_classes,
    solve_hom_equation,
    syzygy_step,
    zero_module,
    _fitting_powers,
    _fitting_split,
    _image_offsets,
    _local_radical,
    _maps_on_paths,
    _memo_of,
    _path_actions,
    _scalar_parts,
    _total_stack,
)


@dataclass(frozen=True)
class MinimalPresentation:
    d: ModuleMap  # P1 -> P0
    eps: ModuleMap  # P0 -> m
    # (u, column) per generator of P1: its vertex u and its image under d
    # over P0's basis at u
    relations: tuple
    # d's terms c g_k.path in the d(h), for `_relation_system`, and whether
    # it regroups its rows or columns (see `_grouped_terms`)
    terms: dict
    regrouped: bool


def minimal_presentation(m: Representation) -> MinimalPresentation:
    """Minimal projective presentation P1 --d--> P0 --eps--> M -> 0, with
    d = kappa.pi for the cover pi: P1 -> Omega M and the inclusion kappa of
    Omega M into P0.  The one presentation builder: Hom, Ext, Tr, tau_P and
    the almost split sequence all read it.  Built once per module value
    (`repmod._memo_of`, key "presentation").

    One check runs when it is built.  Complex at P0: eps kills every
    relation column.  That is eps.d = 0, since eps.d is a module map out of
    P1 and P1 is generated by its generators, so eps.d vanishes iff it
    vanishes on each of them.  In the resolution of M, d_i = kappa.pi_i, so
    the check on Omega^i M gives d_i.d_{i+1} = 0, and as Hom(-, N) is a
    functor, the relation systems of d_i and d_{i+1} compose to
    Hom(d_i.d_{i+1}, N) = 0 for every N.  Exactness at P0 needs no check:
    kappa's vertex maps are canonical kernel bases, with an identity at
    their free rows, so kappa is injective, and pi is onto, which its own
    cover's onto check shows; so d = kappa.pi has rank dim Omega M at each
    vertex, and im d = im kappa = ker eps."""
    memo = _memo_of(m)
    if "presentation" not in memo:
        eps, omega, kappa = syzygy_step(m)
        pi = projective_cover(omega)
        d = compose(kappa, pi)
        relations = tuple((u, d.vertex_maps[u].a[:, pos]) for u, pos in projective_generators(pi.source))
        p = m.algebra.field.p
        killed = (not _matmul_stacks(eps.vertex_maps[u].a, col[:, None], p).any() for u, col in relations)
        invariant(all(killed), "the presentation is not a complex: eps does not kill a relation")
        memo["presentation"] = MinimalPresentation(d, eps, relations, *_grouped_terms(d, relations))
    return memo["presentation"]


def syzygy(m: Representation) -> Representation:
    """First syzygy: the kernel of the projective cover (zero for projectives).

    Computed once per module value and shared (see `repmod.syzygy_step`).
    """
    return syzygy_step(m)[1]


def cosyzygy(m: Representation) -> Representation:
    """First cosyzygy Omega^-1 M = D Omega D M: dualizing 0 -> Omega DM ->
    P(DM) -> DM -> 0 gives 0 -> M -> D P(DM) -> D Omega DM -> 0, whose middle
    map is the injective envelope.  It shares the syzygy of DM with
    tau^-1 = Tr D, which presents DM."""
    return k_dual(syzygy(k_dual(m)))


# ---------------------------------------------------------------------------
# transpose and the AR translation


def dual_of_projective_map(g: ModuleMap) -> ModuleMap:
    """Hom(−, Λ) applied to a map between layout-carrying projectives.

    For g: P -> Q over Λ, returns g*: Q* -> P* over opposite(Λ), where R* is
    the projective over the opposite algebra on the same summand vertex list.
    Generator l of Q* goes to the element of P* read off the row of g at
    Q's summand l; raises NotProjective unless both ends were built by
    `repmod.projective_module`.  g* is a module map with no check, by Yoneda
    (`repmod._maps_on_paths`): its target P* is a projective module.
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
    return ModuleMap(qstar, pstar, [Matrix._reduced(op.field, phi[:, :, 0].T) for phi in phis])


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

    The result h is a module map with no check, by the cokernel's universal
    property.  `induced` is one, from X = P1(q.target)* to Tr_b, and kills
    im(dstar_c) = ker(proj_c) (dualize q0∘d_b = d_c∘q1), so induced = h∘proj_c
    for one linear h, which any linear section of proj_c computes; then
    h Tr_c(a) proj_c = induced X(a) = Tr_b(a) h proj_c, and proj_c is onto.
    """
    mpb = minimal_presentation(q.source)
    mpc = minimal_presentation(q.target)
    q0 = solve_hom_equation(mpb.d.target, mpc.d.target, compose(q, mpb.eps), post=mpc.eps)
    # q0 exists because P0 of the source is projective and eps is epi
    q1 = solve_hom_equation(mpb.d.source, mpc.d.source, compose(q0, mpb.d), post=mpc.d)
    # q1 exists because q0 ∘ d lands in ker(eps) = im(d) of the target
    dstar_b = dual_of_projective_map(mpb.d)
    dstar_c = dual_of_projective_map(mpc.d)
    tr_b, proj_b = cokernel(dstar_b)
    tr_c, proj_c = cokernel(dstar_c)
    induced = compose(proj_b, dual_of_projective_map(q1))
    field = tr_c.algebra.field
    sections = [exactlin.solve(pv, Matrix.identity(field, d)) for pv, d in zip(proj_c.vertex_maps, tr_c.dims)]
    return ModuleMap(tr_c, tr_b, [exactlin.multiply(iv, s) for iv, s in zip(induced.vertex_maps, sections)])


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


def _grouped_terms(d: ModuleMap, relations: tuple) -> tuple[dict, bool]:
    """d's terms for `_relation_system`, grouped by the vertex u of the
    generator h of P1 and the vertex v of the generator k of P0: (u, v) ->
    (the place of u's first h among P1's generators sorted by vertex, the
    number of h at u, the same two for v among P0's, the basis paths
    v -> u with a term, and the coefficients c[h, 0, k, b] of g_k.path_b in
    d(h), h and k counted from the first at u and at v).  The flag says
    whether P1's or P0's generators are out of vertex order: a cover lists
    them in vertex order, but a module equal to a projective built from
    another list shares that projective's memo and cover."""
    gen_verts, coords = d.target._layout
    rel_verts = [u for u, _ in relations]
    # each generator's place among the generators at its vertex
    hp, kp = ([verts[:i].count(w) for i, w in enumerate(verts)] for verts in (rel_verts, gen_verts))
    paths: dict = {}
    entries: dict = {}
    for h, (u, col) in enumerate(relations):
        for i in np.flatnonzero(col):
            k, bp = coords[u][i]
            at = paths.setdefault((u, bp[0]), {})
            entries.setdefault((u, bp[0]), []).append((hp[h], kp[k], at.setdefault(bp, len(at)), col[i]))
    terms = {}
    for (u, v), at in paths.items():
        nh, nk = rel_verts.count(u), gen_verts.count(v)
        coeffs = np.zeros((nh, nk, len(at)), dtype=np.int64)
        h, k, b, c = np.array(entries[u, v]).T
        coeffs[h, k, b] = c
        terms[u, v] = (sorted(rel_verts).index(u), nh, sorted(gen_verts).index(v), nk, tuple(at), coeffs[:, None])
    return terms, rel_verts != sorted(rel_verts) or list(gen_verts) != sorted(gen_verts)


def _ungrouped(x: Representation, verts) -> np.ndarray:
    """Where each coordinate of (+)_k X_{v_k} lies in the same sum with the
    k sorted by vertex (stably)."""
    order = sorted(range(len(verts)), key=verts.__getitem__)
    starts = dict(zip(order, _image_offsets(x, [verts[k] for k in order])))
    return np.array([starts[k] + i for k, v in enumerate(verts) for i in range(x.dims[v])], dtype=np.intp)


def _relation_system(pres: MinimalPresentation, x: Representation, acts: dict) -> np.ndarray:
    """f -> f.d from Hom(P0, X) to Hom(P1, X) in generator-image coordinates,
    for the presentation P1 --d--> P0, d read at its relation columns: one
    block row per generator h of P1, sum_r c_r X(path_r) y_{k_r} where
    d(h) = sum_r c_r g_{k_r}.path_r.  Its kernel is Hom(coker d, X).

    Built from d's terms grouped by vertices (`_grouped_terms`), with P1's
    and P0's generators sorted by vertex: the blocks (h, k) for h at u and
    k at v then fill one rectangle, whose entries are the products of the
    coefficient table of (u, v) with the stack of the X(path), one product
    mod p per pair of vertices, laid out in the rectangle's row order, so
    the build holds one rectangle beside the system.  A pair with
    dim X_u = 0 or dim X_v = 0 has an empty rectangle and is skipped.  When the generators were out of
    vertex order, one gather puts the rows and columns back in their order."""
    p = x.algebra.field.p
    rel_verts, gen_verts = [u for u, _ in pres.relations], pres.d.target._layout[0]
    rows, cols = _image_offsets(x, sorted(rel_verts)), _image_offsets(x, sorted(gen_verts))
    system = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for (u, v), (h0, nh, k0, nk, paths, coeffs) in pres.terms.items():
        du, dv = x.dims[u], x.dims[v]
        if du and dv:
            # block[h, i, k, j] = sum_b c[h, 0, k, b] X(path_b)[i, j]: row (h, i), column (k, j)
            block = _matmul_stacks(coeffs, np.stack([acts[bp] for bp in paths], axis=1)[None], p)
            system[rows[h0] : rows[h0 + nh], cols[k0] : cols[k0 + nk]] = block.reshape(nh * du, nk * dv)
    if pres.regrouped:
        system = system[np.ix_(_ungrouped(x, rel_verts), _ungrouped(x, gen_verts))]
    return system


def _hom_dim(a: Representation, n: Representation) -> int:
    """dim Hom(a, n): columns less rank of the relation system of a's
    presentation for n.  Memoized in a's memo under the token ("key") of
    n's memo, which lives as long as a memo holds it: an id() of a collected
    memo could be reused and alias another module's answer.  A hit
    allocates nothing, and an empty system has rank 0 without a reduction."""
    a_memo, n_memo = _memo_of(a), _memo_of(n)
    if "homs" not in a_memo:
        a_memo["homs"] = {}
    if "key" not in n_memo:
        n_memo["key"] = object()
    homs, key = a_memo["homs"], n_memo["key"]
    if key not in homs:
        system = _relation_system(minimal_presentation(a), n, _path_actions(n))
        homs[key] = system.shape[1] - (exactlin.rank(Matrix._reduced(n.algebra.field, system)) if system.size else 0)
    return homs[key]


def stable_hom_proj(m: Representation, n: Representation) -> StableHomSpace:
    """Hom(m, n) modulo maps factoring through a projective.  A map factors
    through some projective iff it factors through the projective cover
    P(N) -> N, and Hom(M, -) is left exact, so 0 -> Hom(M, Omega N) ->
    Hom(M, P(N)) -> Hom(M, N) is exact and the image of its last map is the
    factoring subspace: total_dim is dim Hom(M, N) and factoring_dim is
    dim Hom(M, P(N)) - dim Hom(M, Omega N), between 0 and total_dim.
    Hom(M, -) is additive and P(N) is the sum of P(v_k) over the vertices
    v_k of its generators, so dim Hom(M, P(N)) is the sum of the
    dim Hom(M, P(v_k)): small systems, each memoized per pair and shared by
    every N, and no system over P(N) is built."""
    if m.algebra != n.algebra:
        raise ValueError("stable_hom_proj between modules over different algebras")
    total = _hom_dim(m, n)
    if not total:
        return StableHomSpace(m, n, 0, 0, 0)
    into_cover = sum(_hom_dim(m, projective_module(n.algebra, (v,))) for v in projective_cover(n).source._layout[0])
    factoring = into_cover - _hom_dim(m, syzygy(n))
    invariant(0 <= factoring <= total, "the maps through the projective cover are not a subspace of Hom(M, N)")
    return StableHomSpace(m, n, total, factoring, total - factoring)


@dataclass(frozen=True)
class ExtSpace:
    dim: int


def _ext_coordinates(m: Representation, n: Representation):
    """Ext^1(m, n) as the cohomology of Hom(P0, n) -> Hom(P1, n) ->
    Hom(P2, n), for `almost_split_sequence`: (the path actions on n, the
    coboundary system, whose columns span B, and y, whose columns are the
    generator images of cocycles P1 -> n that form a basis modulo B).  P1 is
    the P1 of m's presentation and the P0 of Omega m's, one memoized cover."""
    acts = _path_actions(n)
    bound = _relation_system(minimal_presentation(m), n, acts)
    closed = _relation_system(minimal_presentation(syzygy(m)), n, acts)
    z = exactlin.kernel_basis(Matrix(n.algebra.field, closed)).a
    pivots = exactlin.pivots(Matrix(n.algebra.field, np.hstack([bound, z])))
    return acts, bound, z[:, [c - bound.shape[1] for c in pivots if c >= bound.shape[1]]]


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
    The class xi = y s, for the one socle column s, is no coboundary: y's
    columns are independent modulo B, being the pivot columns of
    [bound | z] past bound, and s is nonzero, so Q xi is nonzero.

    With the class xi: P1 -> N and d = kappa.pi: P1 -> Omega M -> P0 of the
    presentation, E is the cokernel of (xi, -d): P1 -> N (+) P0, so
    E / N = P0 / Omega M = M.
    pi is onto, so this map has the column span, vertex by vertex, of the
    pushout map (xi', -kappa) out of Omega M, with xi = xi'.pi.  If xi were
    not a cocycle, it would not kill ker pi, the rank would grow and dim E
    would fall short of dim M + dim N."""
    if n is None:
        n = ar_translate(m)
    field = m.algebra.field
    p = field.p
    pres = minimal_presentation(m)
    acts, bound, y = _ext_coordinates(m, n)
    invariant(y.shape[1] > 0, "Ext^1(M, N) is zero")
    totals = _total_stack(hom_basis(n, n))
    powers = _fitting_powers(totals, p)
    rad = _local_radical(totals, powers, _scalar_parts(powers), field)
    if rad is None:
        raise BudgetExhausted(f"End(N) for N of dims {list(n.dims)} has a residue field larger than GF({p})")
    q = exactlin.kernel_basis(Matrix(field, bound.T)).a.T  # q w = 0 iff w is in B
    verts, starts = pres.d.source._layout[0], np.cumsum((0,) + n.dims)
    offsets = _image_offsets(n, verts)
    blocks = [(slice(starts[v], starts[v + 1]), slice(o, o + n.dims[v])) for v, o in zip(verts, offsets)]
    rad_y = np.concatenate([_matmul_stacks(rad[:, at, at], y[rows], p) for at, rows in blocks], axis=1)
    socle = exactlin.kernel_basis(Matrix(field, _matmul_stacks(q, rad_y, p).reshape(-1, y.shape[1]))).a
    invariant(socle.shape[1] == 1, f"the socle of Ext^1(M, N) over End(N) has dimension {socle.shape[1]}, not 1")
    xi = _matmul_stacks(y, socle, p)
    phis = _maps_on_paths(pres.d.source, n, acts, xi)
    g = [Matrix(field, np.vstack([phi[:, :, 0].T, -d.a])) for phi, d in zip(phis, pres.d.vertex_maps)]
    e, proj = cokernel(ModuleMap(pres.d.source, direct_sum([n, pres.d.target])[0], g))
    invariant(e.total_dim == m.total_dim + n.total_dim, "the almost split sequence has the wrong dimension")
    return e, ModuleMap(n, e, [Matrix(field, pv.a[:, :nv]) for pv, nv in zip(proj.vertex_maps, n.dims)])


# ---------------------------------------------------------------------------
# right minimal version


def right_minimalize(h: ModuleMap) -> tuple[Representation, ModuleMap, Representation]:
    """Split h: M -> N as h1 (+) (M2 -> 0) with h1: M1 -> N right minimal.

    Returns (M1, h1, M2).  V = {u in End(M) : h.u = 0} is closed under
    products, and h is right minimal iff V holds no nonzero idempotent: the
    projection onto a summand of M inside ker h lies in V.  Each step takes
    the first basis element u of V whose Fitting power u^q
    (`repmod._fitting_powers`) is nonzero and splits off im u^q, a nonzero
    summand of M (Fitting's lemma; a nonzero power has a nonzero image)
    inside ker h: V's coefficients are a kernel basis of the stacked h.T_k,
    so h.u = 0, hence h.u^q = 0 and h vanishes on im u^q.  When every
    basis element is nilpotent, V is nilpotent (the theorem is in
    `repmod._local_radical`), so it holds no idempotent and h is right
    minimal.  No search is involved, and the split is deterministic.
    """
    m = h.source
    field = m.algebra.field
    stripped: list[Representation] = []
    while endos := hom_basis(m, m):
        totals = _total_stack(endos)
        t = len(totals)
        hu = _matmul_stacks(_total_stack([h])[0], totals, field.p)
        coeffs = exactlin.kernel_basis(Matrix(field, hu.reshape(t, -1).T))
        v = _matmul_stacks(coeffs.a.T, totals.reshape(t, -1), field.p).reshape(-1, *totals.shape[1:])
        powers = _fitting_powers(v, field.p)
        hits = np.flatnonzero(powers.any(axis=(1, 2)))
        if not hits.size:
            break  # V is nilpotent: h is right minimal now
        (ker_part, ker_incl), (im_part, _) = _fitting_split(m, powers[hits[0]])
        stripped.append(im_part)
        h = compose(h, ker_incl)
        m = ker_part
    if stripped:
        m2 = direct_sum(stripped)[0] if len(stripped) > 1 else stripped[0]
    else:
        m2 = zero_module(h.source.algebra)
    return m, h, m2


# ---------------------------------------------------------------------------
# self-injectivity and stable isomorphism


def is_selfinjective(alg) -> bool:
    """Whether the regular module is injective, that is, its dual over the
    opposite algebra is projective (D swaps injectives and projectives).
    The regular module is injective exactly when alg is self-injective
    (quasi-Frobenius)."""
    return is_projective(k_dual(regular_module(alg)))


def nonprojective_summands(m: Representation) -> list[Representation]:
    return [s for s in decompose(m).summands if not is_projective(s)]


def is_stably_isomorphic(m: Representation, n: Representation) -> bool:
    """Isomorphic after deleting projective direct summands from both sides."""
    return same_classes(nonprojective_summands(m), nonprojective_summands(n))
