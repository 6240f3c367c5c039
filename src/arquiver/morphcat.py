"""The morphism category of a bound quiver algebra.

An object is a module map f: A -> B between right modules over one algebra;
a morphism is a commuting square (sigma1, sigma2).  The whole category is
equivalent to right modules over the triangular matrix algebra t2_of(Lambda):
vertex i carries A_i, its primed copy carries B_i, and the connecting arrow
eps<i> acts by f_i.  to_t2_module / from_t2_module realize that equivalence
on the nose, so every module-level operator (hom, ext, decompose, translate,
and factorization through solve_hom_equation) applies to morphism objects by
transport.

On top of the identification this module provides:

- mimo: the minimal enlargement of f: A -> B to a monomorphism
  A -> B (+) I(ker f), a minimal right approximation of f by mono objects;
- imin: the two-step minimal injective resolution of a module, viewed as
  an object here;
- is_gp_in_h: the Gorenstein-projectivity test for objects (source, target
  and cokernel Gorenstein projective over the base, and f mono);
- tau_s_lambda: the translation of the submodule category over a
  self-injective algebra, computed as mimo of the functorial translate of
  the cokernel projection B ->> coker(f).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotMono, NotSelfInjective, invariant
from .exactlin import Matrix
from .homalg import ar_translate_of_map, is_selfinjective
from .quivalg import BoundQuiverAlgebra, _Required, _check_shape, _json_matrix, t2_base_of, t2_of
from .repmod import (
    ModuleMap,
    Representation,
    add_maps,
    compose,
    cokernel,
    direct_sum,
    flatten_map,
    hom_basis,
    identity_map,
    injective_envelope,
    is_mono,
    kernel,
    map_from_coefficients,
    module_to_json_dict,
    solve_hom_equation,
    zero_map,
    _module_of,
    _module_shape,
)
from . import exactlin

import numpy as np


# ---------------------------------------------------------------------------
# objects and morphisms


@dataclass(frozen=True)
class MorphObject:
    """An object f: a -> b of the morphism category."""

    a: Representation
    b: Representation
    f: ModuleMap

    def __post_init__(self):
        if self.f.source != self.a or self.f.target != self.b:
            raise ValueError("MorphObject: f must run a -> b")

    @staticmethod
    def of_map(f: ModuleMap) -> "MorphObject":
        return MorphObject(f.source, f.target, f)

    @property
    def algebra(self) -> BoundQuiverAlgebra:
        return self.a.algebra

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __repr__(self):
        return f"MorphObject({list(self.a.dims)} -> {list(self.b.dims)})"


@dataclass(frozen=True)
class MorphMap:
    """A morphism (sigma1, sigma2): source -> target; the square commutes."""

    source: MorphObject
    target: MorphObject
    sigma1: ModuleMap
    sigma2: ModuleMap

    def __post_init__(self):
        if compose(self.target.f, self.sigma1) != compose(self.sigma2, self.source.f):
            raise ValueError("MorphMap: square does not commute")

    def is_zero(self) -> bool:
        return self.sigma1.is_zero() and self.sigma2.is_zero()


def identity_morph_map(obj: MorphObject) -> MorphMap:
    return MorphMap(obj, obj, identity_map(obj.a), identity_map(obj.b))


# ---------------------------------------------------------------------------
# the triangular-algebra identification


def to_t2_module(obj: MorphObject) -> Representation:
    """The module over t2_of(algebra) carrying (a at plain, b at primed).

    Built without re-checking the T2 relations: they hold by construction,
    since the base relations hold on a and b, and the commutativity
    relations say exactly that f is a module map."""
    alg = obj.algebra
    t2, _ = t2_of(alg)
    n = alg.quiver.vertices
    dims = tuple(obj.a.dims) + tuple(obj.b.dims)
    maps = {}
    for arr in alg.quiver.arrows:
        maps[f"{arr.id}.a"] = obj.a.arrow_maps[arr.id]
        maps[f"{arr.id}.b"] = obj.b.arrow_maps[arr.id]
    for i in range(n):
        maps[f"eps{i}"] = obj.f.vertex_maps[i]
    return Representation(t2, dims, maps, validate=False)


def from_t2_module(rep: Representation) -> MorphObject:
    """Inverse of to_t2_module; rep.algebra must be an algebra returned by
    t2_of (an equal algebra built another way has no link to its base)."""
    based = t2_base_of(rep.algebra)
    if based is None:
        raise ValueError("from_t2_module: algebra was not produced by t2_of")
    base, _ = based
    n = base.quiver.vertices
    a = Representation(
        base,
        rep.dims[:n],
        {arr.id: rep.arrow_maps[f"{arr.id}.a"] for arr in base.quiver.arrows},
        validate=False,
    )
    b = Representation(
        base,
        rep.dims[n:],
        {arr.id: rep.arrow_maps[f"{arr.id}.b"] for arr in base.quiver.arrows},
        validate=False,
    )
    f = ModuleMap(a, b, [rep.arrow_maps[f"eps{i}"] for i in range(n)], validate=True)
    return MorphObject(a, b, f)


# ---------------------------------------------------------------------------
# hom spaces of the morphism category, computed directly
#
# A morphism x -> y is a pair (s1, s2) with y.f∘s1 = s2∘x.f; the space is cut
# out of Hom(x.a, y.a) x Hom(x.b, y.b) by one linear condition.  Kept separate
# from the t2 route so the two can cross-check each other.


def morph_hom_basis(x: MorphObject, y: MorphObject) -> list[MorphMap]:
    h1 = hom_basis(x.a, y.a)
    h2 = hom_basis(x.b, y.b)
    if not h1 and not h2:
        return []
    field = x.algebra.field
    cols = []
    for s1 in h1:
        cols.append(flatten_map(compose(y.f, s1)))
    for s2 in h2:
        cols.append((-flatten_map(compose(s2, x.f))) % field.p)
    system = Matrix(field, np.stack(cols, axis=1))
    null = exactlin.kernel_basis(system)
    out = []
    for c in range(null.cols):
        v = [int(t) for t in null.a[:, c]]
        s1 = map_from_coefficients(h1, v[: len(h1)]) if h1 else zero_map(x.a, y.a)
        s2 = map_from_coefficients(h2, v[len(h1) :]) if h2 else zero_map(x.b, y.b)
        out.append(MorphMap(x, y, s1, s2))
    return out


def factor_morph_map_through(m: MorphMap, c: MorphMap) -> MorphMap | None:
    """Some h: m.source -> c.source with c∘h = m, or None.

    A lifting problem over t2_of(algebra), solved by transport: m and c become
    module maps with sigma1 at the plain vertices and sigma2 at the primed
    ones, and the solution splits back the same way.
    """
    x, y, z = m.source, c.source, c.target
    tx, ty, tz = to_t2_module(x), to_t2_module(y), to_t2_module(z)
    target = ModuleMap(tx, tz, m.sigma1.vertex_maps + m.sigma2.vertex_maps, validate=False)
    post = ModuleMap(ty, tz, c.sigma1.vertex_maps + c.sigma2.vertex_maps, validate=False)
    h = solve_hom_equation(tx, ty, target, post=post)
    if h is None:
        return None
    n = x.algebra.quiver.vertices
    return MorphMap(
        x,
        y,
        ModuleMap(x.a, y.a, h.vertex_maps[:n], validate=False),
        ModuleMap(x.b, y.b, h.vertex_maps[n:], validate=False),
    )


# ---------------------------------------------------------------------------
# Mimo: minimal monomorphism approximation


def mimo(obj: MorphObject) -> tuple[MorphObject, MorphMap]:
    """([f, e]: A -> B (+) I(ker f), canonical (1_A, [1_B, 0])).

    e extends the injective envelope of ker(f) along ker(f) -> A; any
    solution of that extension system yields the same object up to
    isomorphism.  The returned structure map is a monomorphism and the
    canonical morphism is a minimal right approximation of obj by objects
    with monomorphic structure map.
    """
    k, kappa = kernel(obj.f)
    if k.is_zero():
        return obj, identity_morph_map(obj)
    env = injective_envelope(k)
    env_target = env.target
    e = solve_hom_equation(obj.a, env_target, env, pre=kappa)
    invariant(e is not None, "extension along a monomorphism into an injective must exist")
    amalgam, incls, projs = direct_sum([obj.b, env_target])
    fe = add_maps(compose(incls[0], obj.f), compose(incls[1], e))
    invariant(is_mono(fe), "mimo output must be mono")
    mono = MorphObject(obj.a, amalgam, fe)
    canonical = MorphMap(mono, obj, identity_map(obj.a), projs[0])
    return mono, canonical


# ---------------------------------------------------------------------------
# IMin


def imin(n: Representation) -> MorphObject:
    """(I0 -> I1): the start of the minimal injective resolution of n."""
    env0 = injective_envelope(n)
    cok, proj = cokernel(env0)
    env1 = injective_envelope(cok)
    return MorphObject(env0.target, env1.target, compose(env1, proj))


# ---------------------------------------------------------------------------
# Gorenstein projectivity of an object


def is_gp_in_h(obj: MorphObject, gp_test) -> bool:
    """Whether obj is Gorenstein projective over the triangular algebra.

    Criterion: f mono, and a, b, coker(f) all pass the base-algebra test.
    """
    if not is_mono(obj.f):
        return False
    cok, _ = cokernel(obj.f)
    return bool(gp_test(obj.a) and gp_test(obj.b) and gp_test(cok))


# ---------------------------------------------------------------------------
# the translation of the submodule category over a self-injective algebra


def tau_s_lambda(obj: MorphObject) -> MorphObject:
    """Translate of a mono object, while the algebra is self-injective.

    Computed as mimo applied to the functorial stable translate of the
    cokernel projection q: B ->> coker(f) — the translate is taken over the
    base algebra and applied to the morphism q itself (lifting q through
    minimal presentations), not to (B -> coker f) as an object.  Taking the
    object-level translate over the triangular algebra instead produces a
    projective object already for (S = S) over k[x]/(x^2), so it cannot be
    the almost-split end.
    """
    alg = obj.algebra
    if not is_selfinjective(alg):
        raise NotSelfInjective("tau_s_lambda needs a self-injective base algebra")
    if not is_mono(obj.f):
        raise NotMono("tau_s_lambda is defined on objects with monomorphic structure map")
    _, proj = cokernel(obj.f)
    tq = ar_translate_of_map(proj)
    mono, _ = mimo(MorphObject.of_map(tq))
    return mono


# ---------------------------------------------------------------------------
# JSON


def morph_to_json_dict(obj: MorphObject, algebra_id: str) -> dict:
    return {
        "A": module_to_json_dict(obj.a, algebra_id),
        "B": module_to_json_dict(obj.b, algebra_id),
        "f": {
            "vertex_maps": {
                str(i): obj.f.vertex_maps[i].tolist() for i in range(len(obj.f.vertex_maps))
            }
        },
    }


def morph_from_json_dict(alg: BoundQuiverAlgebra, data: dict) -> MorphObject:
    module = _Required(_module_shape(alg))
    vertex_maps = {str(i): _Required([[int]]) for i in range(alg.quiver.vertices)}
    _check_shape(data, {"A": module, "B": module, "f": _Required({"vertex_maps": _Required(vertex_maps)})})
    a, b = _module_of(alg, data["A"], "A."), _module_of(alg, data["B"], "B.")
    vms = [
        _json_matrix(alg.field, data["f"]["vertex_maps"][str(i)], (b.dims[i], a.dims[i]), f"f.vertex_maps.{i}")
        for i in range(alg.quiver.vertices)
    ]
    return MorphObject(a, b, ModuleMap(a, b, vms, validate=True))
