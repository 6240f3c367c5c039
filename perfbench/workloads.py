"""Inputs and timed passes of the benchmark workloads.

Everything here is built through the public arquiver API.  The `homalg-*`
inputs are constructed directly (simples, projectives, injectives, syzygies,
random quotients of projectives) and never through `repmod.decompose`, so
those workloads exercise homalg and exactlin without the decomposition layer.
"""

from __future__ import annotations

import numpy as np

from arquiver import exactlin, homalg, quivalg, repmod

def _algebra(p, vertices, arrows, relations):
    rels = [[quivalg.RelationTerm(c % p, tuple(path)) for c, path in rel] for rel in relations]
    return quivalg.build_algebra(quivalg.Quiver(vertices, arrows), rels, exactlin.PrimeField(p))


def _loop(p, n):
    """k[x]/(x^n): one vertex, one loop."""
    return _algebra(p, 1, [("x", 0, 0)], [[(1, ("x",) * n)]])


def _a3_radsq(p):
    """Radical-square-zero A3: 0 -a-> 1 -b-> 2 with ab = 0."""
    return _algebra(p, 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ("a", "b"))]])


def _comm_square(p):
    """Commutative square: 0 -a-> 1 -c-> 3, 0 -b-> 2 -d-> 3 with ac = bd."""
    return _algebra(
        p,
        4,
        [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)],
        [[(1, ("a", "c")), (-1, ("b", "d"))]],
    )


def small_algebras():
    """The five algebras of `homalg-small`, over GF(2), GF(3) and GF(5)."""
    return [
        ("kx4_p2", _loop(2, 4)),
        ("a3rsz_p3", _a3_radsq(3)),
        ("t2kx2_p5", quivalg.t2_of(_loop(5, 2))[0]),
        ("square_p3", _comm_square(3)),
        ("t2kx3_p2", quivalg.t2_of(_loop(2, 3))[0]),
    ]


def small_inputs(alg):
    """Simples, indecomposable projectives and injectives, and Omega S and
    Omega^-1 S for each simple S, with zero modules left out."""
    out = []
    for v in range(alg.quiver.vertices):
        s = repmod.simple_module(alg, v)
        out += [
            (f"S{v}", s),
            (f"P{v}", repmod.indecomposable_projective(alg, v)),
            (f"I{v}", repmod.indecomposable_injective(alg, v)),
            (f"OmS{v}", homalg.syzygy(s)),
            (f"CoS{v}", homalg.cosyzygy(s)),
        ]
    return [(name, m) for name, m in out if not m.is_zero()]


# Projective multiplicities and generator counts of the `homalg-large`
# modules.  Fixed, so the seed changes the entries of each module but not the
# projective it is a quotient of.
LARGE_SPECS = (
    ("a3rsz_p3", (3, 3, 3), (1, 1, 1)),
    ("a3rsz_p3", (12, 12, 12), (3, 3, 3)),
    ("square_p3", (2, 2, 2, 2), (1, 1, 1, 1)),
    ("square_p3", (6, 5, 5, 6), (2, 2, 2, 2)),
    ("t2kx2_p5", (3, 3), (1, 1)),
    ("t2kx2_p5", (8, 8), (3, 3)),
    ("kx4_p2", (4,), (1,)),
    ("kx4_p2", (12,), (3,)),
)


class _ScriptedDraws:
    """A numpy Generator stand-in for `repmod.random_module`: its scalar draws
    (projective multiplicities, then generator counts) come from a script,
    its array draws (the generator coefficients) from the seeded generator."""

    def __init__(self, rng, script):
        self._rng = rng
        self._script = list(script)

    def integers(self, low, high=None, size=None):
        if size is not None:
            return self._rng.integers(low, high, size=size)
        if not self._script:
            raise RuntimeError("random_module drew more scalars than scripted")
        return self._script.pop(0)


def large_inputs(seed, algebras, quick=False):
    """Seeded random modules for `homalg-large`, grouped by algebra.  Module
    k draws from its own generator seeded with (seed, k), so the reduced
    input set of `quick` is a subset of the full one."""
    groups: dict[str, list] = {}
    for k, (name, mults, gens) in enumerate(LARGE_SPECS):
        if quick and k % 2:
            continue
        draws = _ScriptedDraws(np.random.default_rng([seed, k]), list(mults) + list(gens))
        m = repmod.random_module(algebras[name], draws, max_mult=max(mults), max_gens=max(gens))
        mods = groups.setdefault(name, [])
        mods.append((f"R{k}", m))
    return list(groups.items())


MODULE_OPS = (
    ("omega", homalg.syzygy),
    ("omega_inv", homalg.cosyzygy),
    ("tr", homalg.transpose),
    ("tau", homalg.ar_translate),
    ("tau_inv", homalg.ar_translate_inverse),
)


def homalg_pass(groups, ext2=True):
    """One pass of the homological workload over [(algebra name, [(module
    name, module)])].

    Returns (table, attempted, failures).  The table holds every computed
    dimension; failures lists each operation that raised and each pair on
    which dim Hom_(X, Y) != dim Ext^1(Y, tau X).
    """
    table = {}
    attempted = 0
    failures = []

    def run(label, fn, *args):
        nonlocal attempted
        attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every error is a counted failure
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    for alg_name, mods in groups:
        mod_rows, pair_rows, tau = {}, {}, {}
        for x_name, x in mods:
            row = {}
            for op, fn in MODULE_OPS:
                res = run(f"{alg_name} {op}({x_name})", fn, x)
                row[op] = None if res is None else list(res.dims)
                if op == "tau":
                    tau[x_name] = res
            mod_rows[x_name] = row
        for x_name, x in mods:
            for y_name, y in mods:
                label = f"{alg_name} ({x_name}, {y_name})"
                hom = run(f"{label} stable hom", lambda: homalg.stable_hom_proj(x, y).stable_dim)
                e1 = None
                if tau[x_name] is not None:
                    e1 = run(f"{label} ext1", lambda: homalg.ext(y, tau[x_name], 1).dim)
                entry = [hom, e1]
                if ext2:
                    entry.append(run(f"{label} ext2", lambda: homalg.ext(x, y, 2).dim))
                if hom is not None and e1 is not None and hom != e1:
                    failures.append(f"{label}: dim Hom_ {hom} != dim Ext^1(Y, tau X) {e1}")
                pair_rows[f"{x_name},{y_name}"] = entry
        table[alg_name] = {"modules": mod_rows, "pairs": pair_rows}
    return table, attempted, failures
