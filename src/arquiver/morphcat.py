"""The morphism category of a bound quiver algebra.

An object is a module map f: A -> B between right modules over one algebra,
and is held as that `ModuleMap`: A and B are f.source and f.target.  The
whole category is equivalent to right modules over the triangular matrix
algebra t2_of(Lambda): vertex i carries A_i, its primed copy carries B_i,
and the connecting arrow eps<i> acts by f_i.  to_t2_module / from_t2_module
realize that equivalence on the nose, so a morphism f -> g, a commuting
square (sigma1, sigma2), is the `ModuleMap` to_t2_module(f) ->
to_t2_module(g) with sigma1 at the plain vertices and sigma2 at the primed
ones; it intertwines the eps<i> arrows iff the square commutes.  Every
module-level operator (hom, ext, decompose, translate, and factorization
through solve_hom_equation) applies to morphism objects by transport.

On top of the identification this module provides:

- mimo: the minimal enlargement of f: A -> B to a monomorphism
  A -> B (+) I(ker f), a minimal right approximation of f by mono objects;
- imin: the two-step minimal injective resolution of a module, viewed as
  an object here;
- is_gp_in_h: the Gorenstein-projectivity criterion for objects (source,
  target and cokernel Gorenstein projective over the base, and f mono), the
  reference the tests compare with `arsubcat.is_gorenstein_projective` over
  the triangular algebra, which is the one test the package decides with;
- tau_s_lambda: the translation of the submodule category over a
  self-injective algebra, computed as mimo of the functorial translate of
  the cokernel projection B ->> coker(f).
"""

from __future__ import annotations

from .errors import NotMono, NotSelfInjective, invariant
from .exactlin import Matrix
from .homalg import ar_translate_of_map, is_selfinjective
from .quivalg import BoundQuiverAlgebra, _Required, _check_shape, _json_matrix, t2_base_of, t2_of
from .repmod import (
    ModuleMap,
    Representation,
    add_maps,
    check_intertwines,
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
# the triangular-algebra identification


def to_t2_module(f: ModuleMap) -> Representation:
    """The module over t2_of(algebra) carrying (source at plain, target at
    primed).

    Built without re-checking the T2 relations: they hold by construction,
    since the base relations hold on source and target, and the
    commutativity relations say exactly that f is a module map."""
    a, b = f.source, f.target
    t2, _ = t2_of(a.algebra)
    arrows = a.algebra.quiver.arrows
    maps = {f"{arr.id}.{side}": x.arrow_maps[arr.id] for arr in arrows for side, x in (("a", a), ("b", b))}
    maps.update((f"eps{i}", vm) for i, vm in enumerate(f.vertex_maps))
    return Representation(t2, a.dims + b.dims, maps)


def from_t2_module(rep: Representation) -> ModuleMap:
    """Inverse of to_t2_module; rep.algebra must be an algebra returned by
    t2_of (an equal algebra built another way has no link to its base).

    Nothing is re-checked: t2_of's relations are the base relations on each
    copy, and a.eps = eps.b for every base arrow a: i -> j, which acts as
    eps_j A(a) = B(a) eps_i, so eps intertwines."""
    based = t2_base_of(rep.algebra)
    if based is None:
        raise ValueError("from_t2_module: algebra was not produced by t2_of")
    base, _ = based
    n = base.quiver.vertices
    a = Representation(base, rep.dims[:n], {arr.id: rep.arrow_maps[f"{arr.id}.a"] for arr in base.quiver.arrows})
    b = Representation(base, rep.dims[n:], {arr.id: rep.arrow_maps[f"{arr.id}.b"] for arr in base.quiver.arrows})
    return ModuleMap(a, b, [rep.arrow_maps[f"eps{i}"] for i in range(n)])


# ---------------------------------------------------------------------------
# hom spaces of the morphism category, computed directly
#
# A morphism x -> y is a pair (s1, s2) with y∘s1 = s2∘x; the space is cut out
# of Hom(x.source, y.source) x Hom(x.target, y.target) by one linear
# condition.  Kept separate from hom_basis over t2_of(algebra) so the two
# can cross-check each other.


def morph_hom_basis(x: ModuleMap, y: ModuleMap) -> list[ModuleMap]:
    """A basis of the morphisms x -> y, each the map to_t2_module(x) ->
    to_t2_module(y) with s1 at the plain vertices and s2 at the primed ones.
    Each intertwines unchecked: s1 and s2 are module maps, and the kernel
    vector that picks them solves y∘s1 = s2∘x, the square on the eps arrows."""
    h1 = hom_basis(x.source, y.source)
    h2 = hom_basis(x.target, y.target)
    if not h1 and not h2:
        return []
    field = x.source.algebra.field
    cols = []
    for s1 in h1:
        cols.append(flatten_map(compose(y, s1)))
    for s2 in h2:
        cols.append((-flatten_map(compose(s2, x))) % field.p)
    system = Matrix(field, np.stack(cols, axis=1))
    null = exactlin.kernel_basis(system)
    tx, ty = to_t2_module(x), to_t2_module(y)
    out = []
    for c in range(null.cols):
        v = [int(t) for t in null.a[:, c]]
        s1 = map_from_coefficients(h1, v[: len(h1)]) if h1 else zero_map(x.source, y.source)
        s2 = map_from_coefficients(h2, v[len(h1) :]) if h2 else zero_map(x.target, y.target)
        out.append(ModuleMap(tx, ty, s1.vertex_maps + s2.vertex_maps))
    return out


# ---------------------------------------------------------------------------
# Mimo: minimal monomorphism approximation


def mimo(f: ModuleMap) -> tuple[ModuleMap, ModuleMap]:
    """([f, e]: A -> B (+) I(ker f), [1_B, 0]: B (+) I(ker f) -> B).

    e extends the injective envelope of ker(f) along ker(f) -> A; any
    solution of that extension system yields the same object up to
    isomorphism.  The returned structure map is a monomorphism, and the
    canonical morphism (1_A, [1_B, 0]) to f is a minimal right approximation
    of f by objects with monomorphic structure map; only its B-part, the
    second map returned, carries information.  A mono f comes back as
    (f, 1_B).
    """
    k, kappa = kernel(f)
    if k.is_zero():
        return f, identity_map(f.target)
    env = injective_envelope(k)
    env_target = env.target
    e = solve_hom_equation(f.source, env_target, env, pre=kappa)
    invariant(e is not None, "extension along a monomorphism into an injective must exist")
    _, incls, projs = direct_sum([f.target, env_target])
    fe = add_maps(compose(incls[0], f), compose(incls[1], e))
    invariant(is_mono(fe), "mimo output must be mono")
    return fe, projs[0]


# ---------------------------------------------------------------------------
# IMin


def imin(n: Representation) -> ModuleMap:
    """(I0 -> I1): the start of the minimal injective resolution of n."""
    env0 = injective_envelope(n)
    cok, proj = cokernel(env0)
    env1 = injective_envelope(cok)
    return compose(env1, proj)


# ---------------------------------------------------------------------------
# Gorenstein projectivity of an object


def is_gp_in_h(f: ModuleMap, gp_test) -> bool:
    """Whether the object f is Gorenstein projective over the triangular
    algebra.

    Criterion: f mono, and its source, target and coker(f) all pass the
    base-algebra test.
    """
    if not is_mono(f):
        return False
    cok, _ = cokernel(f)
    return bool(gp_test(f.source) and gp_test(f.target) and gp_test(cok))


# ---------------------------------------------------------------------------
# the translation of the submodule category over a self-injective algebra


def tau_s_lambda(f: ModuleMap) -> ModuleMap:
    """Translate of a mono object, while the algebra is self-injective.

    Computed as mimo applied to the functorial stable translate of the
    cokernel projection q: B ->> coker(f) — the translate is taken over the
    base algebra and applied to the morphism q itself (lifting q through
    minimal presentations), not to (B -> coker f) as an object.  Taking the
    object-level translate over the triangular algebra instead produces a
    projective object already for (S = S) over k[x]/(x^2), so it cannot be
    the almost-split end.
    """
    if not is_selfinjective(f.source.algebra):
        raise NotSelfInjective("tau_s_lambda needs a self-injective base algebra")
    if not is_mono(f):
        raise NotMono("tau_s_lambda is defined on objects with monomorphic structure map")
    _, proj = cokernel(f)
    mono, _ = mimo(ar_translate_of_map(proj))
    return mono


# ---------------------------------------------------------------------------
# JSON


def morph_to_json_dict(f: ModuleMap, algebra_id: str) -> dict:
    return {
        "A": module_to_json_dict(f.source, algebra_id),
        "B": module_to_json_dict(f.target, algebra_id),
        "f": {"vertex_maps": {str(i): m.tolist() for i, m in enumerate(f.vertex_maps)}},
    }


def morph_from_json_dict(alg: BoundQuiverAlgebra, data: dict) -> ModuleMap:
    module = _Required(_module_shape(alg))
    vertex_maps = {str(i): _Required([[int]]) for i in range(alg.quiver.vertices)}
    _check_shape(data, {"A": module, "B": module, "f": _Required({"vertex_maps": _Required(vertex_maps)})})
    a, b = _module_of(alg, data["A"], "A."), _module_of(alg, data["B"], "B.")
    vms = [
        _json_matrix(alg.field, data["f"]["vertex_maps"][str(i)], (b.dims[i], a.dims[i]), f"f.vertex_maps.{i}")
        for i in range(alg.quiver.vertices)
    ]
    return check_intertwines(ModuleMap(a, b, vms))
