"""Auslander-Reiten theory relative to subcategories of a module category.

Provides the Gorenstein profile of an algebra, d = id of the regular module
on both sides (0 when self-injective), which every other question here reads
from the algebra of its module: membership tests for Gorenstein projectives
and for modules of finite projective dimension, the relative translations on
those two subcategories, a transpose for morphisms between projectives over
a self-injective algebra, duality verification by exact dimension counting
over explicit lists of indecomposables, and complete lists of
indecomposables, certified by knitting with almost split sequences and kept
on the algebra whose modules they list: all of ind alg (`indec_pool`), and
its Gorenstein projectives with tau_G (`_gprj_members`), over the triangular
algebra the GP objects of the morphism category that `classify_gp_census` tags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    InfiniteProjectiveDimension,
    NotGorensteinProjective,
    NotGorensteinWithinCap,
    NotLocallyProjective,
    NotOneGorenstein,
    NotSelfInjective,
    PreconditionError,
)
from .homalg import (
    almost_split_sequence,
    ar_translate,
    cosyzygy,
    dual_of_projective_map,
    ext_dim,
    is_selfinjective,
    minimal_presentation,
    right_minimalize,
    stable_hom_proj,
    syzygy,
    transpose,
)
from .morphcat import from_t2_module, imin, mimo
from .quivalg import BoundQuiverAlgebra, opposite, t2_base_of, t2_of
from .repmod import (
    ModuleMap,
    Representation,
    cokernel,
    compose,
    decompose,
    indecomposable_injective,
    indecomposable_projective,
    is_epi,
    is_isomorphic,
    is_mono,
    is_projective,
    iso_class_index,
    k_dual,
    projective_cover,
    radical,
    regular_module,
    require_certified,
    solve_hom_equation,
)

# ---------------------------------------------------------------------------
# Gorenstein profile

# gorenstein_profile gives up (d None) when the injective coresolution of the
# regular module, on either side, takes over _PROFILE_CAP steps or reaches a
# term above _PROFILE_DIM_CAP in total dimension (divergent coresolutions
# double at every step, so the depth cap alone would stall on huge kernels)
_PROFILE_CAP = 8
_PROFILE_DIM_CAP = 256


def _resolution_length(m: Representation, step, cap: int, dim_cap: float) -> int | None:
    """Length of the minimal resolution of m whose terms `step` (syzygy or
    cosyzygy) computes, or None when it does not reach zero within cap + 1
    steps or a term outgrows dim_cap."""
    steps = 0
    while not m.is_zero():
        if steps > cap or m.total_dim > dim_cap:
            return None
        m = step(m)
        steps += 1
    return max(steps - 1, 0)


def gorenstein_profile(alg: BoundQuiverAlgebra) -> int | None:
    """d = id alg, the injective dimension of the regular module on both
    sides (their maximum): 0 exactly when alg is self-injective, None when a
    cap above is hit on either side, so alg is not Gorenstein within them.
    Self-injectivity is asked first, so a large self-injective algebra does
    not hit the dimension cap.  Computed once per algebra (alg._cache)."""
    key = "gorenstein_profile"
    if key not in alg._cache:
        if is_selfinjective(alg):
            d = 0
        else:
            right, left = (
                _resolution_length(regular_module(a), cosyzygy, _PROFILE_CAP, _PROFILE_DIM_CAP)
                for a in (alg, opposite(alg))
            )
            d = None if right is None or left is None else max(right, left)
        alg._cache[key] = d
    return alg._cache[key]


def _gorenstein_d(alg: BoundQuiverAlgebra, needs: str) -> int:
    """`gorenstein_profile(alg)`; NotGorensteinWithinCap when it is None."""
    d = gorenstein_profile(alg)
    if d is None:
        raise NotGorensteinWithinCap(f"{needs} needs a Gorenstein algebra, and this one is not within the caps")
    return d


# ---------------------------------------------------------------------------
# membership tests


def is_gorenstein_projective(m: Representation) -> bool:
    """Over a d-Gorenstein algebra: Ext^i(m, regular) = 0 for 1 <= i <= d.
    Trivially true when the algebra is self-injective."""
    d = _gorenstein_d(m.algebra, "Gorenstein-projective membership")
    if d == 0 or m.is_zero():
        return True
    reg = regular_module(m.algebra)
    return all(ext_dim(m, reg, i) == 0 for i in range(1, d + 1))


def has_finite_projdim(m: Representation) -> int | None:
    """Projective dimension of m by minimal syzygies, or None when it is
    infinite.  Over a d-Gorenstein algebra a module of finite projective
    dimension n has pd <= d: Ext^n(m, regular) != 0 (the last map of the
    minimal resolution does not split), while Ext^i(-, regular) = 0 for
    i > d = id regular.  So at most d + 1 syzygies decide it."""
    d = _gorenstein_d(m.algebra, "deciding finite projective dimension")
    return _resolution_length(m, syzygy, d, float("inf"))


# ---------------------------------------------------------------------------
# relative translations


def tau_gprj(g: Representation) -> Representation:
    """Translation on Gorenstein projectives: apply the transpose, d minimal
    syzygies over the opposite algebra, the linear dual back, and d minimal
    syzygies again (`_tau_g_core`).  Projective summands go to zero: Tr
    drops them, as `_tau_g_core` says."""
    if not is_gorenstein_projective(g):
        raise NotGorensteinProjective("input is not Gorenstein projective")
    return _tau_g_core(g, gorenstein_profile(g.algebra))


def _tau_g_core(g: Representation, d: int) -> Representation:
    """`tau_gprj` of a Gorenstein projective g over a d-Gorenstein algebra,
    with neither check repeated.  Projective summands of g need no
    stripping, since every step starts from Tr and Tr drops them: the
    minimal presentation of M (+) P is M's with P added to P0 and given no
    relation, so d*: P0* -> P1* vanishes on P*, has the image of M's d*,
    and Tr(M (+) P) = Coker d* is Tr M; in particular Tr P is zero
    (Auslander, Reiten and Smalo, ch. IV)."""
    t = transpose(g)
    for _ in range(d):
        t = syzygy(t)
    t = k_dual(t)
    for _ in range(d):
        t = syzygy(t)
    return t


def _require_one_gorenstein(alg: BoundQuiverAlgebra) -> None:
    d = gorenstein_profile(alg)
    if d is None or d > 1:
        raise NotOneGorenstein("tau_pfin needs a 1-Gorenstein algebra")


def tau_pfin(m: Representation) -> Representation:
    """Translation on modules of finite projective dimension over a
    1-Gorenstein algebra: present the ordinary translate minimally, push the
    presentation map to a monomorphism with the same cokernel behaviour, and
    return the source of the right-minimized induced map from its cokernel
    to the translate (`_tau_p_core`).  Projective summands go to zero."""
    _require_one_gorenstein(m.algebra)
    if has_finite_projdim(m) is None:
        raise InfiniteProjectiveDimension("tau_pfin input must have finite projective dimension")
    return _tau_p_core(m)


def _tau_p_core(m: Representation) -> Representation:
    """`tau_pfin` of m of finite projective dimension over a 1-Gorenstein
    algebra, with no check repeated.  Projective summands of m need no
    stripping: pd(M (+) P) is finite exactly when pd M is, as Omega(M (+) P)
    is Omega M, and tau(M (+) P) = D Tr(M (+) P) is tau M, since Tr drops P
    (see `_tau_g_core`)."""
    t = ar_translate(m)
    if t.is_zero():
        return t
    pres = minimal_presentation(t)
    mono, sigma2 = mimo(pres.d)
    cok_mono, pm = cokernel(mono)
    # h: Coker mono -> t with h.pm = eps.sigma2, unique as pm is epi
    h = solve_hom_equation(cok_mono, t, compose(pres.eps, sigma2), pre=pm)
    minimized, _, _ = right_minimalize(h)
    return minimized


def tr_p_lambda(f: ModuleMap) -> ModuleMap:
    """Transpose of the object f: A -> B of the morphism category, for a
    map f between projective modules over a self-injective algebra:
    IMin(Coker f*) = (I0 -> I1) over the opposite algebra, for
    f* = Hom(f, alg), returned as that map I0 -> I1.

    The covers of A and B are isomorphisms, as both are projective, and
    carry f onto a map between layout-carrying projectives, which
    `dual_of_projective_map` dualizes.  Writing f = d (+) (Q = Q) (+)
    (A2 -> 0) (+) (0 -> B2) with d a minimal presentation of Coker f gives
    Coker f* = Tr(Coker f) (+) A2*: (Q = Q)* is an isomorphism and
    (0 -> B2)* has target 0."""
    if gorenstein_profile(f.source.algebra) != 0:
        raise NotSelfInjective("tr_p_lambda needs a self-injective algebra")
    if not (is_projective(f.source) and is_projective(f.target)):
        raise NotLocallyProjective("tr_p_lambda needs projective source and target")
    cover_a, cover_b = projective_cover(f.source), projective_cover(f.target)
    # f lifts through the cover of B, which is onto, as P(A) is projective
    lift = solve_hom_equation(cover_a.source, cover_b.source, compose(f, cover_a), post=cover_b)
    return imin(cokernel(dual_of_projective_map(lift))[0])


# ---------------------------------------------------------------------------
# duality verification


@dataclass(frozen=True)
class DualityReport:
    """Outcome of pairwise dimension checks dim Hom-bar(X, Y) versus
    dim Ext^1(Y, tau(X)) over one subcategory."""

    tag: str
    pairs: tuple[tuple[str, str, int, int, bool], ...]
    all_equal: bool


_DUALITY_TAGS = ("FULL", "GPRJ", "PFIN")


def verify_ar_duality(alg: BoundQuiverAlgebra, tag: str, indecs) -> DualityReport:
    """Check dim Hom-bar(X, Y) = dim Ext^1(Y, tau(X)) for every ordered pair
    from indecs with X non-projective, where tau is the translation matching
    tag: the ordinary translation (FULL), the Gorenstein-projective one
    (GPRJ), or the finite-projective-dimension one (PFIN), with the d of
    `gorenstein_profile(alg)`.

    indecs is a list of (id, Representation) pairs, each a certified
    indecomposable, so that `is_isomorphic` is exact on them.  The list must
    contain every nonzero translate up to isomorphism.  Either failure raises
    PreconditionError naming the member.  Each member is checked once, for
    indecomposability and for membership in the subcategory, and then
    translated without either check repeated.
    For projective X no translation is computed (it would vanish): the row is
    recorded with the right side zero and the left side still computed, so a
    nonzero stable hom out of a projective would surface as an inequality.
    """
    if tag not in _DUALITY_TAGS:
        raise ValueError(f"unknown subcategory tag {tag!r}")
    if tag == "FULL":
        translate = ar_translate
    elif tag == "GPRJ":
        d = gorenstein_profile(alg)
        translate = lambda x: _tau_g_core(x, d)
    else:
        _require_one_gorenstein(alg)
        translate = _tau_p_core
    items = sorted(indecs, key=lambda pair: pair[0])
    for xid, x in items:
        cert = decompose(x)
        if not (cert.certified and len(cert.summands) == 1):
            raise PreconditionError(f"{xid} is not a certified indecomposable")
        if tag == "GPRJ" and not is_gorenstein_projective(x):
            raise NotGorensteinProjective(f"{xid} is not Gorenstein projective")
        if tag == "PFIN" and has_finite_projdim(x) is None:
            raise InfiniteProjectiveDimension(f"{xid} has infinite projective dimension")
    translates = {}
    for xid, x in items:
        if is_projective(x):
            continue
        t = translate(x)
        translates[xid] = t
        # each y is a certified indecomposable, so the test is exact
        if not t.is_zero() and not any(is_isomorphic(t, y) for _, y in items):
            raise PreconditionError(
                f"indecomposable list is not closed: translate of {xid} is missing"
            )
    pairs = []
    for xid, x in items:
        for yid, y in items:
            lhs = stable_hom_proj(x, y).stable_dim
            rhs = ext_dim(y, translates[xid], 1) if xid in translates else 0
            pairs.append((xid, yid, lhs, rhs, lhs == rhs))
    return DualityReport(tag, tuple(pairs), all(p[4] for p in pairs))


# ---------------------------------------------------------------------------
# knitting: complete lists of indecomposables

# _knit raises BudgetExhausted at a member of larger total dimension
_KNIT_DIM_CAP = 20


def _knit(seeds, translate) -> tuple[tuple[Representation, Representation | None], ...]:
    """The list that starts from seeds, pairwise non-isomorphic
    indecomposables, and visits each member X once, in the order it joined.
    X adds, through `iso_class_index`, the summands of rad X if X is
    projective, and otherwise of E in `almost_split_sequence`
    0 -> t -> E -> X -> 0 with t = translate(X).  Returns (X, t) per member,
    t None for a projective X.  A member above `_KNIT_DIM_CAP` raises
    BudgetExhausted: over GF(p) there are finitely many modules of each
    dimension, so a list with no bound on its members never closes, and one
    cut off is not certified complete."""
    found, pairs = list(seeds), []
    for x in found:  # the loop reaches the members that join while it runs
        if x.total_dim > _KNIT_DIM_CAP:
            raise BudgetExhausted(f"knitting reached an indecomposable of total dimension {x.total_dim} > "
                                  f"{_KNIT_DIM_CAP}, so the list of indecomposables is not certified complete")
        if is_projective(x):
            t, before = None, radical(x)[0]
        else:
            t = translate(x)
            before = almost_split_sequence(x, t)[0]
        pairs.append((x, t))
        for s in require_certified(decompose(before)).summands:
            iso_class_index(found, s)
    return tuple(pairs)


def indec_pool(alg: BoundQuiverAlgebra, bound) -> tuple[Representation, ...]:
    """Indecomposable iso classes with dims under bound, sorted by dimension,
    from the list of all of them, knitted once per algebra (alg._cache).

    `_knit` starts from the indecomposable injectives; a projective X adds
    the summands of rad X, any other X those of E in the almost split
    sequence 0 -> tau X -> E -> X -> 0.  A list C closed this way is all of
    ind alg.  An indecomposable Y not in C has a nonzero map, not an
    isomorphism, into an injective in C (through its injective envelope).
    A non-isomorphism into a member of C factors through that member's sink
    map (rad X -> X or E -> X), whose source has its summands in C, none
    isomorphic to Y.  Repeating gives nonzero composites of arbitrarily many
    non-isomorphisms between indecomposables of bounded length, against the
    Harada-Sai lemma (Auslander, Reiten and Smalo, ch. VI).  So a
    representation-infinite algebra raises BudgetExhausted.
    """
    return tuple(m for m, _ in _pool_members(alg, bound))


def _knitted(alg: BoundQuiverAlgebra, key: str, knit, bound) -> list[tuple[Representation, Representation | None]]:
    """The (module, translate) pairs of the list knit() returns, knitted once
    per algebra (alg._cache[key]), with dims under bound (a cap per vertex of
    alg), sorted by dimension."""
    caps = tuple(int(b) for b in bound)
    if len(caps) != alg.quiver.vertices:
        raise ValueError("bound must give a cap per vertex")
    found = alg._cache.get(key)
    if found is None:
        alg._cache[key] = found = knit()
    fits = [pair for pair in found if all(d <= c for d, c in zip(pair[0].dims, caps))]
    return sorted(fits, key=lambda pair: (pair[0].total_dim, pair[0].dims))


def _pool_members(alg: BoundQuiverAlgebra, bound) -> list[tuple[Representation, Representation | None]]:
    """The members of `indec_pool` with their tau (None for a projective)."""
    # distinct vertices give distinct socles, so the injective seeds are not isomorphic
    knit = lambda: _knit([indecomposable_injective(alg, v) for v in range(alg.quiver.vertices)], ar_translate)
    return _knitted(alg, "indec_pool", knit, bound)


def _gprj_members(alg: BoundQuiverAlgebra, bound) -> list[tuple[Representation, Representation | None]]:
    """Every indecomposable Gorenstein-projective alg-module with dims under
    bound, with its tau_G (None for a projective), sorted by dimension, from
    the list knitted once per algebra (alg._cache, key "gprj").

    Over T2 = t2_of(base) of a self-injective base, Gprj T2 is the submodule
    category S(base) of monomorphisms (Ringel and Schmidmeier, Trans. AMS
    360, 2008), and T2 is 1-Gorenstein.  Gprj is functorially finite and
    extension-closed, so it has relative almost split sequences (Auslander
    and Smalo, J. Algebra 1981) with tau_G as the translate.  `_knit` starts
    from the indecomposable projective T2-modules; a projective X adds the
    summands of rad X, any other X those of E in 0 -> tau_G X -> E -> X -> 0.
    Both end in a sink map of X in Gprj.  A non-isomorphism Y -> X from an
    indecomposable Y lands in rad X, and rad X is in S(base), which is closed
    under submodules, so Mimo(rad X), the minimal right S(base)-approximation
    of rad X, is rad X itself.  E -> X is right almost split in Gprj.  A list
    C closed this way is all of ind Gprj: an indecomposable GP module Y not
    in C embeds in a projective, so it maps nonzero, not isomorphically, into
    a member of C, and the Harada-Sai argument of `indec_pool` applies inside
    Gprj.  No tau_G^-1 step and no connectivity check are needed.  Members
    are GP, indecomposable and non-projective by construction, so tau_G is
    `_tau_g_core` with d = 1.

    Over a self-injective alg, Gprj is all of mod alg and tau_G is tau: the
    list is `_pool_members`.  Over any other alg, Gprj need not hold rad X:
    the list is `indec_pool`, certified by the absolute knitting, cut down by
    `is_gorenstein_projective`, and needs alg Gorenstein within the caps
    (NotGorensteinWithinCap).  Either way a representation-infinite Gprj, or
    alg, raises BudgetExhausted.
    """
    n = alg.quiver.vertices
    base = t2_base_of(alg)
    if base is not None and gorenstein_profile(base[0]) == 0:
        knit = lambda: _knit([indecomposable_projective(alg, v) for v in range(n)], lambda x: _tau_g_core(x, 1))
        return _knitted(alg, "gprj", knit, bound)
    d = _gorenstein_d(alg, "knitting the Gorenstein projectives")
    if d == 0:
        return _pool_members(alg, bound)
    knit = lambda: tuple((x, None if t is None else _tau_g_core(x, d))
                         for x, t in _pool_members(alg, (_KNIT_DIM_CAP,) * n) if is_gorenstein_projective(x))
    return _knitted(alg, "gprj", knit, bound)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class GpCensus:
    """Indecomposable Gorenstein-projective objects of a morphism category,
    each tagged with its classification shape, plus counts per tag."""

    objects: tuple[tuple[str, str], ...]
    counts: dict[str, int]


def _census_tag(f: ModuleMap) -> tuple[str, str]:
    """Classification shape of an indecomposable Gorenstein-projective
    object f: A -> B and its key in GpCensus.counts.  Tested in order: (c)
    the kernel inclusion of a projective cover of an indecomposable
    non-projective module, (a) an isomorphism, (b) a zero source; anything
    else is OTHER.

    Shape (c) needs no comparison with the template (Omega g -> P(g)).  Let
    f be mono with B projective and g = coker f nonzero and not
    projective.  The epimorphism B -> g from a projective splits as
    B = P(g) (+) B2 with P(g) -> g a projective cover and B2 -> 0, so its
    kernel is A = Omega g (+) B2 and the object is
    (Omega g -> P(g)) (+) (B2 = B2).  The first summand is nonzero, so an
    indecomposable object has B2 = 0 and is the template; g is then
    indecomposable too, as a splitting of g splits the template.
    """
    if is_projective(f.target) and is_mono(f):
        g, _ = cokernel(f)
        if not g.is_zero() and not is_projective(g):
            return "C_SYZYGY", "c"
    if is_mono(f) and is_epi(f):
        return "A_IDENTITY", "a"
    if f.source.is_zero():
        return "B_COSOCLE", "b"
    return "OTHER", "other"


def classify_gp_census(alg: BoundQuiverAlgebra, bound) -> GpCensus:
    """Census of the indecomposable Gorenstein-projective objects of the
    morphism category of alg with dimension vectors under bound (first half
    of bound caps sources, second half targets), read from the knitted list
    of Gprj t2_of(alg) (`_gprj_members`)."""
    objects = []
    counts = {"a": 0, "b": 0, "c": 0, "other": 0}
    for i, (t2m, _) in enumerate(_gprj_members(t2_of(alg)[0], bound)):
        tag, count_key = _census_tag(from_t2_module(t2m))
        counts[count_key] += 1
        objects.append((f"g{i}:" + "x".join(str(d) for d in t2m.dims), tag))
    return GpCensus(tuple(objects), counts)


# ---------------------------------------------------------------------------
# translation-versus-syzygy comparison


def check_tau_is_syzygy(alg: BoundQuiverAlgebra, bound):
    """Compare tau_gprj against the minimal syzygy on every indecomposable
    non-projective Gorenstein projective with dims under bound.

    alg must be self-injective, where every module qualifies and d = 0 makes
    tau_gprj the ordinary tau, or a triangular matrix algebra returned by
    t2_of, which links it to its base; an equal algebra read from JSON has no
    such link.  The Gorenstein projectives and their translates are read
    from alg's own knitted list (`_gprj_members`).  Each translate is tau_G
    of an indecomposable non-projective GP module, itself indecomposable, so
    `is_isomorphic` is exact.  Returns (verdict, witnesses) with one witness
    (module, translate, syzygy) per failing module.
    """
    if t2_base_of(alg) is None and gorenstein_profile(alg) != 0:
        raise NotSelfInjective("comparison needs a self-injective algebra or a triangular algebra over one")
    witnesses = []
    for g, t in _gprj_members(alg, bound):
        if t is None:
            continue
        om = syzygy(g)
        if not is_isomorphic(om, t):
            witnesses.append((g, t, om))
    return (not witnesses), witnesses
