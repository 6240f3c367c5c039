"""Auslander-Reiten theory relative to subcategories of a module category.

Provides the Gorenstein homological profile of an algebra (self-injectivity,
two-sided injective dimension of the regular module), membership tests for
Gorenstein projectives and for modules of finite projective dimension, the
relative translations on those two subcategories, a transpose for morphisms
between projectives over a self-injective algebra, duality verification by
exact dimension counting over explicit lists of indecomposables, and an
exhaustive census of indecomposable Gorenstein-projective objects of the
morphism category, tagged by their classification shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationCapExceeded,
    InfiniteProjectiveDimension,
    NotGorensteinProjective,
    NotGorensteinWithinCap,
    NotLocallyProjective,
    NotOneGorenstein,
    NotSelfInjective,
    PreconditionError,
)
from .exactlin import Matrix
from .homalg import (
    ar_translate,
    ar_translate_inverse,
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
from .quivalg import BoundQuiverAlgebra, opposite, t2_base_of
from .repmod import (
    Representation,
    cokernel,
    compose,
    decompose,
    direct_sum,
    hom_basis,
    indecomposable_injective,
    indecomposable_projective,
    is_epi,
    is_isomorphic,
    is_mono,
    is_projective,
    iso_class_index,
    k_dual,
    map_from_coefficients,
    projective_module,
    random_module,
    regular_module,
    require_certified,
    simple_module,
    solve_hom_equation,
    syzygy_step,
    top_dims,
    zero_map,
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


def _injective_dimension(alg: BoundQuiverAlgebra, cap: int, dim_cap: int) -> int | None:
    """Length of the minimal injective coresolution of the right regular
    module, or None when it does not terminate within cap steps or the
    cosyzygies outgrow dim_cap (divergent coresolutions double at every
    step, so the depth cap alone would stall on huge exact kernels)."""
    m = regular_module(alg)
    steps = 0
    while not m.is_zero():
        if steps > cap or m.total_dim > dim_cap:
            return None
        m = cosyzygy(m)
        steps += 1
    return max(steps - 1, 0)


def gorenstein_profile(
    alg: BoundQuiverAlgebra, cap: int = 8, dim_cap: int = 256
) -> GorensteinProfile:
    """Detect self-injectivity and, failing that, compute the injective
    dimension of the regular module over the algebra and its opposite.
    Hitting either cap on either side is reported, not fatal."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if is_selfinjective(alg):
        return GorensteinProfile(alg, 0, True, True)
    right = _injective_dimension(alg, cap, dim_cap)
    left = _injective_dimension(opposite(alg), cap, dim_cap)
    if right is None or left is None:
        return GorensteinProfile(alg, None, False, False, cap_exceeded=True)
    return GorensteinProfile(alg, max(right, left), False, True)


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
    cur = m
    steps = 0
    while not cur.is_zero():
        if steps > cap:
            return None
        cur = syzygy(cur)
        steps += 1
    return max(steps - 1, 0)


# ---------------------------------------------------------------------------
# relative translations


def tau_gprj(g: Representation, profile: GorensteinProfile) -> Representation:
    """Translation on Gorenstein projectives: apply the transpose, d minimal
    syzygies over the opposite algebra, the linear dual back, and d minimal
    syzygies again.  Projective summands go to zero."""
    if not is_gorenstein_projective(g, profile):
        raise NotGorensteinProjective("input is not Gorenstein projective")
    parts = nonprojective_summands(g)
    if not parts:
        return zero_module(g.algebra)
    core = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
    t = transpose(core)
    for _ in range(profile.d):
        t = syzygy(t)
    t = k_dual(t)
    for _ in range(profile.d):
        t = syzygy(t)
    return t


def tau_pfin(m: Representation, profile: GorensteinProfile) -> Representation:
    """Translation on modules of finite projective dimension over a
    1-Gorenstein algebra: present the ordinary translate minimally, push the
    presentation map to a monomorphism with the same cokernel behaviour, and
    return the right-minimized induced map's source between the cokernels."""
    if not (profile.is_d_gorenstein and profile.d is not None and profile.d <= 1):
        raise NotOneGorenstein("tau_pfin needs a 1-Gorenstein algebra")
    parts = nonprojective_summands(m)
    if not parts:
        return zero_module(m.algebra)
    core = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
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
# exhaustive enumeration at fixture scale

# Most candidates an exhaustive enumeration may visit: p^(matrix entries)
# modules of one dimension vector, or p^(dim Hom) maps between two modules;
# beyond it the enumeration raises EnumerationCapExceeded.
_ENTRY_CAP = 200_000


def _all_modules_with_dims(alg: BoundQuiverAlgebra, dims):
    """One representative per isomorphism class of representations with the
    given dimension vector, by exhaustive matrix enumeration.  A class is
    keyed by the iso classes of its indecomposable summands (Krull-Schmidt)."""
    arrows = alg.quiver.arrows
    shapes = [(dims[a.target], dims[a.source]) for a in arrows]
    entries = sum(r * c for r, c in shapes)
    p = alg.field.p
    if entries > 64 or p**entries > _ENTRY_CAP:
        raise EnumerationCapExceeded(
            f"dimension vector {tuple(dims)} needs {p}^{entries} candidates"
        )
    classes: dict[tuple[int, ...], Representation] = {}  # first candidate per key
    indecs: list[Representation] = []
    for flat in itertools.product(range(p), repeat=entries):
        maps = {}
        pos = 0
        for a, (r, c) in zip(arrows, shapes):
            block = np.array(flat[pos : pos + r * c], dtype=np.int64).reshape(r, c)
            maps[a.id] = Matrix(alg.field, block)
            pos += r * c
        try:
            m = Representation(alg, dims, maps)
        except ValueError:
            continue
        summands = require_certified(decompose(m)).summands
        classes.setdefault(tuple(sorted(iso_class_index(indecs, s) for s in summands)), m)
    return list(classes.values())


def _iso_classes_within(alg: BoundQuiverAlgebra, caps):
    """Representatives of every iso class with dims bounded by caps
    coordinatewise, the zero module included."""
    out = []
    for dims in itertools.product(*(range(c + 1) for c in caps)):
        out.extend(_all_modules_with_dims(alg, dims))
    return out


def _collect_gp_morph_objects(base: BoundQuiverAlgebra, bound):
    """Indecomposable Gorenstein-projective modules over the triangular
    matrix algebra of base whose dimension vectors fit under bound, found by
    exhausting (A, B, f) triples and decomposing.  Returns (module, object)
    pairs sorted by dimension."""
    n = base.quiver.vertices
    bound = tuple(int(b) for b in bound)
    if len(bound) != 2 * n:
        raise ValueError("bound must cap each vertex of the triangular algebra")
    profile = gorenstein_profile(base)

    def gp_test(mod):
        return is_gorenstein_projective(mod, profile)

    pool_a = _iso_classes_within(base, bound[:n])
    pool_b = _iso_classes_within(base, bound[n:])
    p = base.field.p
    classes: list[Representation] = []
    for a_mod in pool_a:
        for b_mod in pool_b:
            basis = hom_basis(a_mod, b_mod)
            if p ** len(basis) > _ENTRY_CAP:
                raise EnumerationCapExceeded(
                    f"hom space between dims {a_mod.dims} and {b_mod.dims} "
                    f"has {p}^{len(basis)} elements"
                )
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                f = map_from_coefficients(basis, list(coeffs)) if basis else zero_map(a_mod, b_mod)
                obj = MorphObject(a_mod, b_mod, f)
                if obj.is_zero() or not is_gp_in_h(obj, gp_test):
                    continue
                for s in require_certified(decompose(to_t2_module(obj))).summands:
                    iso_class_index(classes, s)
    classes.sort(key=lambda s: (s.total_dim, s.dims))
    return [(s, from_t2_module(s)) for s in classes]


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class GpCensus:
    """Indecomposable Gorenstein-projective objects of a morphism category,
    each tagged with its classification shape, plus counts per tag."""

    objects: tuple[tuple[str, str], ...]
    counts: dict[str, int]


_TAG_TO_COUNT = {"A_IDENTITY": "a", "B_COSOCLE": "b", "C_SYZYGY": "c", "OTHER": "other"}


def _census_tag(obj: MorphObject) -> str:
    """Classification shape of an indecomposable Gorenstein-projective
    object.  Tested in order: (c) the kernel inclusion of a projective cover
    of an indecomposable non-projective module, (a) an isomorphism, (b) a
    zero source; anything else is OTHER."""
    f = obj.f
    if is_projective(obj.b) and is_mono(f):
        g, _ = cokernel(f)
        if not g.is_zero() and not is_projective(g):
            cover, k, incl = syzygy_step(g)
            template = MorphObject(k, cover.source, incl)
            if is_isomorphic(to_t2_module(obj), to_t2_module(template)):
                return "C_SYZYGY"
    if is_mono(f) and is_epi(f):
        return "A_IDENTITY"
    if obj.a.is_zero():
        return "B_COSOCLE"
    return "OTHER"


def classify_gp_census(alg: BoundQuiverAlgebra, bound) -> GpCensus:
    """Exhaustive census of the indecomposable Gorenstein-projective objects
    of the morphism category of alg with dimension vectors under bound
    (first half of bound caps sources, second half targets)."""
    found = _collect_gp_morph_objects(alg, bound)
    objects = []
    counts = {"a": 0, "b": 0, "c": 0, "other": 0}
    for i, (t2m, obj) in enumerate(found):
        tag = _census_tag(obj)
        counts[_TAG_TO_COUNT[tag]] += 1
        objects.append((f"g{i}:" + "x".join(str(d) for d in t2m.dims), tag))
    return GpCensus(tuple(objects), counts)


# ---------------------------------------------------------------------------
# indecomposables under a dimension bound


# Random modules drawn to top up the pool of indecomposables.
_POOL_SAMPLES = 40


def indec_pool(alg: BoundQuiverAlgebra, bound, seed: int = 0):
    """Indecomposable iso classes with dims under bound: simples, projectives
    and injectives seed the pool, `_POOL_SAMPLES` (40) random modules drawn
    from `seed` top it up, and the pool is closed under syzygy, cosyzygy and
    the translation both ways.
    Exhaustiveness at fixture scale is pinned by expected counts recorded in
    fixture manifests."""
    caps = tuple(int(b) for b in bound)
    nv = alg.quiver.vertices
    if len(caps) != nv:
        raise ValueError("bound must give a cap per vertex")
    pool: list[Representation] = []

    def add(m):
        size = len(pool)
        for s in require_certified(decompose(m)).summands:
            if all(d <= c for d, c in zip(s.dims, caps)):
                iso_class_index(pool, s)
        return len(pool) > size

    for v in range(nv):
        add(simple_module(alg, v))
        add(indecomposable_projective(alg, v))
        add(indecomposable_injective(alg, v))
    rng = np.random.default_rng(seed)
    for _ in range(_POOL_SAMPLES):
        add(random_module(alg, rng))
    changed = True
    while changed:
        changed = False
        for m in list(pool):
            for step in (syzygy, cosyzygy, ar_translate, ar_translate_inverse):
                if add(step(m)):
                    changed = True
    pool.sort(key=lambda m: (m.total_dim, m.dims))
    return pool


# ---------------------------------------------------------------------------
# translation-versus-syzygy comparison


def check_tau_is_syzygy(alg: BoundQuiverAlgebra, bound, seed: int = 0):
    """Compare tau_gprj against the minimal syzygy on every indecomposable
    non-projective Gorenstein projective with dims under bound.

    Over a triangular matrix algebra the Gorenstein projectives are found by
    the census enumeration over its base (bound caps the triangular dims).
    That needs an algebra returned by t2_of, which links it to its base; an
    equal algebra read from JSON has no such link.  Over a self-injective
    algebra every module qualifies and the pool comes from indec_pool.  Returns (verdict, witnesses) with one witness
    (module, translate, syzygy) per failing module.
    """
    profile = gorenstein_profile(alg)
    base_pair = t2_base_of(alg)
    if base_pair is not None:
        base, _ = base_pair
        gps = [t2m for t2m, _ in _collect_gp_morph_objects(base, bound)]
    elif profile.is_selfinjective:
        gps = indec_pool(alg, bound, seed=seed)
    else:
        raise NotSelfInjective(
            "comparison needs a self-injective algebra or a triangular algebra over one"
        )
    witnesses = []
    for g in gps:
        if is_projective(g):
            continue
        t = tau_gprj(g, profile)
        om = syzygy(g)
        if not is_isomorphic(t, om):
            witnesses.append((g, t, om))
    return (not witnesses), witnesses
