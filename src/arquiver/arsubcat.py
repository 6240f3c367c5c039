"""Auslander-Reiten theory relative to subcategories of a module category.

Provides the Gorenstein homological profile of an algebra (self-injectivity,
two-sided injective dimension of the regular module), membership tests for
Gorenstein projectives and for modules of finite projective dimension, the
relative translations on those two subcategories, a transpose for morphisms
between projectives over a self-injective algebra, duality verification by
exact dimension counting over explicit lists of indecomposables, and
complete lists of indecomposables, certified by knitting with almost split
sequences: all of ind alg (`indec_pool`), and the Gorenstein projectives of
the morphism category (`classify_gp_census`, tagged by classification
shape), knitted inside Gprj with its relative translate tau_G.
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
    ext_dim,
    is_selfinjective,
    minimal_presentation,
    nonprojective_summands,
    right_minimalize,
    stable_hom_proj,
    syzygy,
    transpose,
)
from .morphcat import (
    MorphObject,
    from_t2_module,
    imin,
    is_gp_in_h,
    mimo,
    to_t2_module,
    zero_morph_object,
)
from .quivalg import BoundQuiverAlgebra, opposite, t2_base_of, t2_of
from .repmod import (
    Representation,
    cokernel,
    compose,
    decompose,
    direct_sum,
    indecomposable_injective,
    indecomposable_projective,
    is_epi,
    is_isomorphic,
    is_mono,
    is_projective,
    iso_class_index,
    k_dual,
    projective_module,
    radical,
    regular_module,
    require_certified,
    solve_hom_equation,
    syzygy_step,
    top_dims,
    zero_module,
)

# ---------------------------------------------------------------------------
# Gorenstein profile


@dataclass(frozen=True)
class GorensteinProfile:
    """How far an algebra is from self-injective: d bounds the injective
    dimension of the regular module on both sides, when that is finite
    within the computed cap."""

    algebra: BoundQuiverAlgebra
    d: int | None
    is_selfinjective: bool
    is_d_gorenstein: bool
    cap_exceeded: bool = False


def _resolution_length(m: Representation, step, cap: int, dim_cap: float) -> int | None:
    """Length of the minimal resolution of m whose terms `step` (syzygy or
    cosyzygy) computes, or None when it does not reach zero within cap steps
    or a term outgrows dim_cap (divergent coresolutions double at every
    step, so the depth cap alone would stall on huge exact kernels)."""
    steps = 0
    while not m.is_zero():
        if steps > cap or m.total_dim > dim_cap:
            return None
        m = step(m)
        steps += 1
    return max(steps - 1, 0)


def gorenstein_profile(
    alg: BoundQuiverAlgebra, cap: int = 8, dim_cap: int = 256
) -> GorensteinProfile:
    """Detect self-injectivity and, failing that, compute the injective
    dimension of the regular module over the algebra and its opposite.
    Hitting either cap on either side is reported, not fatal.  Computed once
    per algebra and caps (alg._cache)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    key = ("gorenstein_profile", cap, dim_cap)
    found = alg._cache.get(key)
    if found is None:
        if is_selfinjective(alg):
            found = GorensteinProfile(alg, 0, True, True)
        else:
            right, left = (_resolution_length(regular_module(a), cosyzygy, cap, dim_cap) for a in (alg, opposite(alg)))
            if right is None or left is None:
                found = GorensteinProfile(alg, None, False, False, cap_exceeded=True)
            else:
                found = GorensteinProfile(alg, max(right, left), False, True)
        alg._cache[key] = found
    return found


# ---------------------------------------------------------------------------
# membership tests


def is_gorenstein_projective(m: Representation, profile: GorensteinProfile) -> bool:
    """Over a d-Gorenstein algebra: Ext^i(m, regular) = 0 for 1 <= i <= d.
    Trivially true when the algebra is self-injective."""
    if not profile.is_d_gorenstein or profile.d is None:
        raise NotGorensteinWithinCap(
            "Gorenstein-projective membership needs a d-Gorenstein profile"
        )
    if profile.is_selfinjective or m.is_zero():
        return True
    reg = regular_module(profile.algebra)
    return all(ext_dim(m, reg, i) == 0 for i in range(1, profile.d + 1))


def has_finite_projdim(m: Representation, cap: int = 16) -> int | None:
    """Projective dimension by iterating minimal syzygies until zero, or
    None when no zero syzygy appears within cap steps."""
    return _resolution_length(m, syzygy, cap, float("inf"))


# ---------------------------------------------------------------------------
# relative translations


def _nonprojective_part(m: Representation) -> Representation:
    """The direct sum of the non-projective summands of m, or the zero module."""
    parts = nonprojective_summands(m)
    if not parts:
        return zero_module(m.algebra)
    return parts[0] if len(parts) == 1 else direct_sum(parts)[0]


def tau_gprj(g: Representation, profile: GorensteinProfile) -> Representation:
    """Translation on Gorenstein projectives: apply the transpose, d minimal
    syzygies over the opposite algebra, the linear dual back, and d minimal
    syzygies again.  Projective summands go to zero."""
    if not is_gorenstein_projective(g, profile):
        raise NotGorensteinProjective("input is not Gorenstein projective")
    core = _nonprojective_part(g)
    return core if core.is_zero() else _tau_g_core(core, profile.d)


def _tau_g_core(g: Representation, d: int) -> Representation:
    """`tau_gprj` of a Gorenstein projective g without projective summands,
    over a d-Gorenstein algebra, with neither check repeated."""
    t = transpose(g)
    for _ in range(d):
        t = syzygy(t)
    t = k_dual(t)
    for _ in range(d):
        t = syzygy(t)
    return t


def tau_pfin(m: Representation, profile: GorensteinProfile) -> Representation:
    """Translation on modules of finite projective dimension over a
    1-Gorenstein algebra: present the ordinary translate minimally, push the
    presentation map to a monomorphism with the same cokernel behaviour, and
    return the right-minimized induced map's source between the cokernels."""
    if not (profile.is_d_gorenstein and profile.d is not None and profile.d <= 1):
        raise NotOneGorenstein("tau_pfin needs a 1-Gorenstein algebra")
    core = _nonprojective_part(m)
    if core.is_zero():
        return core
    if has_finite_projdim(core) is None:
        raise InfiniteProjectiveDimension(
            "tau_pfin input must have finite projective dimension"
        )
    t = ar_translate(core)
    if t.is_zero():
        return t
    pres = minimal_presentation(t)
    obj = MorphObject(pres.p1, pres.p0, pres.d)
    mono_obj, canon = mimo(obj)
    cok_mono, pm = cokernel(mono_obj.f)
    cok_orig, pf = cokernel(pres.d)
    h = solve_hom_equation(cok_mono, cok_orig, compose(pf, canon.sigma2), pre=pm)
    minimized, _, _ = right_minimalize(h)
    return minimized


def tr_p_lambda(obj: MorphObject) -> MorphObject:
    """Transpose of a morphism between projective modules over a
    self-injective algebra, landing in the morphism category over the
    opposite algebra as an injective-copresentation-minimal object."""
    alg = obj.algebra
    if not is_selfinjective(alg):
        raise NotSelfInjective("tr_p_lambda needs a self-injective algebra")
    if not (is_projective(obj.a) and is_projective(obj.b)):
        raise NotLocallyProjective("tr_p_lambda needs projective source and target")
    op = opposite(alg)
    _, _, killed = right_minimalize(obj.f)
    cok, _ = cokernel(obj.f)
    parts = []
    tr = transpose(cok)
    if not tr.is_zero():
        parts.append(tr)
    mult = top_dims(killed)
    verts = tuple(v for v in range(alg.quiver.vertices) for _ in range(mult[v]))
    if verts:
        parts.append(projective_module(op, verts))
    if not parts:
        return zero_morph_object(op)
    total = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
    return imin(total)


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


def verify_ar_duality(
    alg: BoundQuiverAlgebra,
    tag: str,
    indecs,
    profile: GorensteinProfile | None = None,
) -> DualityReport:
    """Check dim Hom-bar(X, Y) = dim Ext^1(Y, tau(X)) for every ordered pair
    from indecs with X non-projective, where tau is the translation matching
    tag: the ordinary translation (FULL), the Gorenstein-projective one
    (GPRJ), or the finite-projective-dimension one (PFIN).

    indecs is a list of (id, Representation) pairs.  The list must contain
    every nonzero translate up to isomorphism; otherwise PreconditionError.
    For projective X no translation is computed (it would vanish): the row is
    recorded with the right side zero and the left side still computed, so a
    nonzero stable hom out of a projective would surface as an inequality.
    """
    if tag not in _DUALITY_TAGS:
        raise ValueError(f"unknown subcategory tag {tag!r}")
    if profile is None:
        profile = gorenstein_profile(alg)
    if tag == "FULL":
        translate = ar_translate
    elif tag == "GPRJ":
        translate = lambda x: tau_gprj(x, profile)
    else:
        translate = lambda x: tau_pfin(x, profile)
    items = sorted(indecs, key=lambda pair: pair[0])
    for xid, x in items:
        if tag == "GPRJ" and not is_gorenstein_projective(x, profile):
            raise NotGorensteinProjective(f"{xid} is not Gorenstein projective")
        if tag == "PFIN" and has_finite_projdim(x) is None:
            raise InfiniteProjectiveDimension(
                f"{xid} has no finite projective dimension within cap 16"
            )
    translates = {}
    for xid, x in items:
        if is_projective(x):
            continue
        t = translate(x)
        translates[xid] = t
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


def _fits(dims, caps) -> bool:
    return all(d <= c for d, c in zip(dims, caps))


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
    caps = tuple(int(b) for b in bound)
    if len(caps) != alg.quiver.vertices:
        raise ValueError("bound must give a cap per vertex")
    found = alg._cache.get("indec_pool")
    if found is None:
        # distinct vertices give distinct socles, so these are not isomorphic
        injectives = [indecomposable_injective(alg, v) for v in range(alg.quiver.vertices)]
        alg._cache["indec_pool"] = found = _knit(injectives, ar_translate)
    return tuple(sorted((m for m, _ in found if _fits(m.dims, caps)), key=lambda m: (m.total_dim, m.dims)))


def _knit_gprj_t2(base: BoundQuiverAlgebra) -> tuple[tuple[Representation, Representation | None], ...]:
    """Every indecomposable Gorenstein-projective module over T2 = t2_of(base),
    with its tau_G (None for a projective), in the order knitted.

    Over a self-injective base, Gprj T2 is the submodule category S(base) of
    monomorphisms (Ringel and Schmidmeier, Trans. AMS 360, 2008), and T2 is
    1-Gorenstein.  Gprj is functorially finite and extension-closed, so it
    has relative almost split sequences (Auslander and Smalo, J. Algebra
    1981) with tau_G as the translate.  `_knit` starts from the
    indecomposable projective T2-modules; a projective X adds the summands of
    rad X, any other X those of E in 0 -> tau_G X -> E -> X -> 0.  Both end
    in a sink map of X in Gprj.  A non-isomorphism Y -> X from an
    indecomposable Y lands in rad X, and rad X is in S(base), which is closed
    under submodules, so Mimo(rad X), the minimal right S(base)-approximation
    of rad X, is rad X itself.  E -> X is right almost split in Gprj.  A list C
    closed this way is all of ind Gprj: an indecomposable GP module Y not in
    C embeds in a projective, so it maps nonzero, not isomorphically, into a
    member of C, and the Harada-Sai argument of `indec_pool` applies inside
    Gprj.  No tau_G^-1 step and no connectivity check are needed.  Members
    are GP, indecomposable and non-projective by construction, so tau_G is
    `_tau_g_core` with d = 1.

    Over any other base, Gprj T2 is smaller than the monomorphisms and rad X
    need not lie in it: the list is `indec_pool` of T2, certified by the
    absolute knitting, cut down by `is_gp_in_h`.  Either way a
    representation-infinite Gprj, or T2, raises BudgetExhausted.
    """
    t2, _ = t2_of(base)
    profile = gorenstein_profile(base)
    if profile.is_selfinjective:
        projectives = [indecomposable_projective(t2, v) for v in range(t2.quiver.vertices)]
        return _knit(projectives, lambda x: _tau_g_core(x, 1))

    def gp_test(mod):
        return is_gorenstein_projective(mod, profile)

    everything = indec_pool(t2, (_KNIT_DIM_CAP,) * t2.quiver.vertices)
    gps = [x for x in everything if is_gp_in_h(from_t2_module(x), gp_test)]
    d = gorenstein_profile(t2).d
    return tuple((x, None if is_projective(x) else _tau_g_core(x, d)) for x in gps)


def _gp_members(base: BoundQuiverAlgebra, bound) -> list[tuple[Representation, Representation | None]]:
    """The (module, tau_G) pairs of `_knit_gprj_t2` whose dims fit under bound
    (a cap per vertex of T2), sorted by dimension; the list is knitted once
    per base (base._cache, key "gp_census")."""
    caps = tuple(int(b) for b in bound)
    if len(caps) != 2 * base.quiver.vertices:
        raise ValueError("bound must cap each vertex of the triangular algebra")
    found = base._cache.get("gp_census")
    if found is None:
        base._cache["gp_census"] = found = _knit_gprj_t2(base)
    return sorted((pair for pair in found if _fits(pair[0].dims, caps)), key=lambda pair: (pair[0].total_dim, pair[0].dims))


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class GpCensus:
    """Indecomposable Gorenstein-projective objects of a morphism category,
    each tagged with its classification shape, plus counts per tag."""

    objects: tuple[tuple[str, str], ...]
    counts: dict[str, int]


def _census_tag(obj: MorphObject) -> tuple[str, str]:
    """Classification shape of an indecomposable Gorenstein-projective
    object and its key in GpCensus.counts.  Tested in order: (c) the kernel
    inclusion of a projective cover of an indecomposable non-projective
    module, (a) an isomorphism, (b) a zero source; anything else is OTHER."""
    f = obj.f
    if is_projective(obj.b) and is_mono(f):
        g, _ = cokernel(f)
        if not g.is_zero() and not is_projective(g):
            cover, k, incl = syzygy_step(g)
            template = MorphObject(k, cover.source, incl)
            if is_isomorphic(to_t2_module(obj), to_t2_module(template)):
                return "C_SYZYGY", "c"
    if is_mono(f) and is_epi(f):
        return "A_IDENTITY", "a"
    if obj.a.is_zero():
        return "B_COSOCLE", "b"
    return "OTHER", "other"


def classify_gp_census(alg: BoundQuiverAlgebra, bound) -> GpCensus:
    """Census of the indecomposable Gorenstein-projective objects of the
    morphism category of alg with dimension vectors under bound (first half
    of bound caps sources, second half targets), read from the knitted list
    of `_knit_gprj_t2`."""
    objects = []
    counts = {"a": 0, "b": 0, "c": 0, "other": 0}
    for i, (t2m, _) in enumerate(_gp_members(alg, bound)):
        tag, count_key = _census_tag(from_t2_module(t2m))
        counts[count_key] += 1
        objects.append((f"g{i}:" + "x".join(str(d) for d in t2m.dims), tag))
    return GpCensus(tuple(objects), counts)


# ---------------------------------------------------------------------------
# translation-versus-syzygy comparison


def check_tau_is_syzygy(alg: BoundQuiverAlgebra, bound):
    """Compare tau_gprj against the minimal syzygy on every indecomposable
    non-projective Gorenstein projective with dims under bound.

    Over a triangular matrix algebra the Gorenstein projectives and their
    translates are read from the knitted list of its base (bound caps the
    triangular dims).  That needs an algebra returned by t2_of, which links
    it to its base; an equal algebra read from JSON has no such link.  Over a
    self-injective algebra every module qualifies and the pool comes from
    indec_pool.  Returns (verdict, witnesses) with one witness
    (module, translate, syzygy) per failing module.
    """
    base_pair = t2_base_of(alg)
    if base_pair is not None:
        translated = [(g, t) for g, t in _gp_members(base_pair[0], bound) if t is not None]
    else:
        profile = gorenstein_profile(alg)
        if not profile.is_selfinjective:
            raise NotSelfInjective(
                "comparison needs a self-injective algebra or a triangular algebra over one"
            )
        translated = [(g, tau_gprj(g, profile)) for g in indec_pool(alg, bound) if not is_projective(g)]
    witnesses = []
    for g, t in translated:
        om = syzygy(g)
        if not is_isomorphic(om, t):
            witnesses.append((g, t, om))
    return (not witnesses), witnesses
