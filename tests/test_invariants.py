"""Internal invariants: raised as InternalInvariantError, never as `assert`,
so that they still hold under `python -O`, and mapped to exit code 3."""

import ast
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import arquiver
from arquiver import cli, exactlin, homalg, morphcat, quivalg, repmod
from arquiver.errors import InternalInvariantError, PreconditionError
from arquiver.exactlin import PrimeField
from arquiver.quivalg import Quiver, build_algebra
from arquiver.repmod import (
    indecomposable_injective,
    indecomposable_projective,
    projective_cover,
    projective_generators,
    simple_module,
    zero_map,
    zero_module,
)

FIX = cli.fixtures_dir()
# the whole file runs in the CI step under python -O
pytestmark = pytest.mark.python_O


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(arquiver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_broken_invariant_raises_and_exits_3(capsys, monkeypatch):
    assert not issubclass(InternalInvariantError, PreconditionError)
    # with every basis row of P read as a generator row, rad P seems to be 0,
    # so every projective cover of a non-projective fails its check
    every_row = lambda proj: [(v, pos) for v, d in enumerate(proj.dims) for pos in range(d)]
    monkeypatch.setattr(repmod, "projective_generators", every_row)
    alg = build_algebra(Quiver(1, [("x", 0, 0)]), [[(1, ("x", "x"))]], PrimeField(5))
    with pytest.raises(InternalInvariantError, match="cover kernel is not superfluous"):
        projective_cover(simple_module(alg, 0))
    code = cli.main(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "syzygy"])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal error (InternalInvariantError): cover kernel is not superfluous" in err


def test_a_dropped_kernel_column_breaks_the_onto_check(monkeypatch):
    # the onto check reads the nullity of each vertex map: one kernel vector
    # short, P(S) seems to hit more than the one dimension of S
    basis = exactlin.kernel_basis
    monkeypatch.setattr(exactlin, "kernel_basis", lambda m: exactlin.Matrix(m.field, basis(m).a[:, 1:]))
    alg = build_algebra(Quiver(1, [("x", 0, 0)]), [[(1, ("x", "x"))]], PrimeField(5))
    with pytest.raises(InternalInvariantError, match="projective cover is not onto"):
        projective_cover(simple_module(alg, 0))


def _truncated_polynomials(n: int, p: int):
    """k[x]/(x^n) over GF(p)."""
    return build_algebra(Quiver(1, [("x", 0, 0)]), [[(1, ("x",) * n)]], PrimeField(p))


def test_an_almost_split_sequence_needs_a_nonzero_ext():
    # P is projective and I injective, so Ext^1(P, tau P) and Ext^1(S, I) are zero
    alg = _truncated_polynomials(2, 5)
    with pytest.raises(InternalInvariantError, match=r"Ext\^1\(M, N\) is zero"):
        homalg.almost_split_sequence(indecomposable_projective(alg, 0))
    with pytest.raises(InternalInvariantError, match=r"Ext\^1\(M, N\) is zero"):
        homalg.almost_split_sequence(simple_module(alg, 0), indecomposable_injective(alg, 0))


def test_mimo_needs_the_extension_into_the_envelope(monkeypatch):
    # S -> 0 has kernel S, whose envelope the extension system must reach
    monkeypatch.setattr(morphcat, "solve_hom_equation", lambda *args, **kwargs: None)
    alg = _truncated_polynomials(2, 5)
    s = simple_module(alg, 0)
    with pytest.raises(InternalInvariantError, match="extension along a monomorphism into an injective must exist"):
        morphcat.mimo(zero_map(s, zero_module(alg)))


def test_a_zero_extension_breaks_mimo_and_exits_3(capsys, monkeypatch):
    # with e = 0, [f, e] = 0 on S, which is not mono
    monkeypatch.setattr(morphcat, "solve_hom_equation", lambda source, target, *rest, **kw: zero_map(source, target))
    alg = _truncated_polynomials(2, 5)
    s = simple_module(alg, 0)
    with pytest.raises(InternalInvariantError, match="mimo output must be mono"):
        morphcat.mimo(zero_map(s, zero_module(alg)))
    code = cli.main(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S_to_zero.json"), "--op", "mimo"])
    assert code == 3
    assert "internal error (InternalInvariantError): mimo output must be mono" in capsys.readouterr().err


def test_t2_without_its_commutativity_relations_has_the_wrong_dimension(monkeypatch):
    # without x.a eps = eps x.b, those two paths stay independent and
    # x.a eps x.b survives: dim T2 = 8, not 3 * dim k[x]/(x^2)
    alg = _truncated_polynomials(2, 3)
    build = quivalg.build_algebra

    def without_eps(quiver, relations, field, **kwargs):
        kept = [rel for rel in relations if not any(a.startswith("eps") for t in rel for a in t.path)]
        return build(quiver, kept, field, **kwargs)

    monkeypatch.setattr(quivalg, "build_algebra", without_eps)
    with pytest.raises(InternalInvariantError, match="triangular algebra dimension") as raised:
        quivalg.t2_of(alg)
    assert str(raised.value) == "triangular algebra dimension 8 != 3 * 2"


def test_a_subspace_that_is_not_arrow_invariant_is_refused():
    # the generator of P(0) over k[x]/(x^4) spans no submodule: x moves it
    proj = indecomposable_projective(_truncated_polynomials(4, 5), 0)
    [(_, pos)] = projective_generators(proj)
    column = exactlin.Matrix(proj.algebra.field, np.eye(proj.dims[0], dtype=np.int64)[:, [pos]])
    with pytest.raises(InternalInvariantError, match="subspace is not arrow-invariant"):
        repmod._restrict(proj, [column])


def test_generators_need_a_projective_layout():
    with pytest.raises(InternalInvariantError, match="module was not built with a projective layout"):
        projective_generators(simple_module(_truncated_polynomials(2, 5), 0))


def test_a_nilpotent_map_that_is_not_its_fitting_power_gives_no_split():
    # x on P(0) over k[x]/(x^4): ker x and im x share the socle
    proj = indecomposable_projective(_truncated_polynomials(4, 5), 0)
    with pytest.raises(InternalInvariantError, match="Fitting split is not a direct sum"):
        repmod._fitting_split(proj, proj.arrow_maps["x"].a)


def _invariant_messages(source: str) -> list[tuple[int, tuple[str, ...]]]:
    """(line, constant parts of the message) for each `invariant(...)` call
    in `source`: the message itself when it is a literal, its literal parts
    when it is an f-string, and no parts when it is neither."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "invariant":
            message = node.args[1] if len(node.args) > 1 else None
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            found.append((node.lineno, tuple(p.value for p in parts if isinstance(p, ast.Constant))))
    return found


def _invariant_patterns(source: str) -> list[str]:
    """The literal `match=` patterns of `pytest.raises(InternalInvariantError, ...)`
    calls in `source`."""
    return [
        kw.value.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and node.args and ast.unparse(node.args[0]).endswith("InternalInvariantError")
        for kw in node.keywords
        if kw.arg == "match" and isinstance(kw.value, ast.Constant)
    ]


def _unfired_invariants(sources: dict[str, str], patterns: list[str]) -> list[str]:
    """"file:line: message" of each invariant whose message no pattern finds,
    with the constant parts of the message joined by " ... ".  A pattern
    finds a message when it matches inside one of its constant parts and in
    no other invariant's message, so a vague pattern fires nothing."""
    sites = [
        (f"{name}:{line}: {' ... '.join(parts)}", parts)
        for name, source in sources.items()
        for line, parts in _invariant_messages(source)
    ]
    hits = [[site for site, parts in sites if any(re.search(pattern, x) for x in parts)] for pattern in patterns]
    fired = {found[0] for found in hits if len(found) == 1}
    return [site for site, _ in sites if site not in fired]


def test_unfired_invariant_check_reads_every_form():
    sources = {
        "a.py": "def f(x):\n    invariant(x, 'x is gone')\n    errors.invariant(x > 0, f'{x} is not positive')\n",
        "b.py": "def g(x, why):\n    invariant(x, why)\n    invariant(x, 'x is not a basis')\n",
    }
    assert _invariant_messages(sources["a.py"]) == [(2, ("x is gone",)), (3, (" is not positive",))]
    tests = (
        "def test_f():\n    with pytest.raises(InternalInvariantError, match='is gone'):\n        f(0)\n"
        "    with pytest.raises(errors.InternalInvariantError, match=r'not posit'):\n        f(-1)\n"
        "    with pytest.raises(ValueError, match='not a basis'):\n        g(0, '')\n"
    )
    assert _invariant_patterns(tests) == ["is gone", "not posit"]
    # a message read from a variable can be found by no pattern, and a
    # pattern that finds two messages fires neither
    assert _unfired_invariants(sources, _invariant_patterns(tests)) == ["b.py:2: ", "b.py:3: x is not a basis"]
    assert _unfired_invariants(sources, ["is gone", "not"]) == [
        "a.py:3:  is not positive",
        "b.py:2: ",
        "b.py:3: x is not a basis",
    ]


# Messages of invariants that no test makes fire, each with the reason it
# stays.  Empty: a check in src/ is either fired by a test or proved in a
# docstring and removed.
_INVARIANTS_FIRED_BY_NO_TEST: dict[str, str] = {}


def test_every_invariant_is_fired_by_a_test():
    sources = {path.name: path.read_text() for path in sorted(Path(arquiver.__file__).parent.glob("*.py"))}
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    patterns = [pattern for path in tests for pattern in _invariant_patterns(path.read_text())]
    # the package's checks were read
    assert {"homalg.py", "repmod.py"} <= {name for name, source in sources.items() if _invariant_messages(source)}
    unfired = _unfired_invariants(sources, patterns)
    assert [site for site in unfired if site.split(": ", 1)[1] not in _INVARIANTS_FIRED_BY_NO_TEST] == []


_CONSTANT_NODES = (ast.Constant, ast.UnaryOp, ast.BinOp, ast.Tuple, ast.unaryop, ast.operator, ast.expr_context)
_CACHE_DECORATORS = {"cache", "lru_cache"}
_BUILTIN_TYPES = {"tuple", "list", "dict", "set", "frozenset", "type"}


def _is_type_alias(node) -> bool:
    """A builtin type subscripted by names, constants and `...`, such as
    tuple[int, tuple[str, ...]]: an immutable generic alias."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id in _BUILTIN_TYPES and _is_type_alias(node.slice)
    if isinstance(node, ast.Tuple):
        return all(_is_type_alias(e) for e in node.elts)
    return isinstance(node, (ast.Name, ast.Constant))


def _is_constant_expr(node) -> bool:
    """Immutable literal: constants combined by unary/binary operators and
    tuples, frozenset() of a set/tuple of such, or a type alias."""
    if isinstance(node, ast.Subscript):
        return _is_type_alias(node)
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "frozenset"
            and not node.keywords
            and all(
                isinstance(a, (ast.Set, ast.Tuple)) and all(_is_constant_expr(e) for e in a.elts)
                for a in node.args
            )
        )
    return all(isinstance(n, _CONSTANT_NODES) for n in ast.walk(node))


def _decorator_name(dec) -> str:
    dec = dec.func if isinstance(dec, ast.Call) else dec
    return dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")


def _module_state(source: str) -> tuple[list[int], list[str]]:
    """(line numbers of module-level state, names bound at module level).

    State is a module-level binding to anything but an immutable literal, or
    a function anywhere in the module wrapped in a functools cache."""
    tree = ast.parse(source)
    found, names = [], []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [ast.unparse(t) for t in targets]
            if node.value is not None and not _is_constant_expr(node.value):
                found.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            _decorator_name(d) in _CACHE_DECORATORS for d in node.decorator_list
        ):
            found.append(node.lineno)
    return sorted(found), names


def test_module_state_check_tells_constants_from_caches():
    constants = (
        "A = -1\nB = 2**16\nC = (1, 'x')\nD = frozenset({1, 2})\nE: int = 3\nF = None\n"
        "G = tuple[int, tuple[str, ...]]\n"
    )
    assert _module_state(constants) == ([], ["A", "B", "C", "D", "E", "F", "G"])
    stateful = (
        "A = {}\n"
        "B = []\n"
        "C = dict()\n"
        "D = (1, [])\n"
        "E = table['x']\n"
        "F = list[int]()\n"
        "G = tuple[[]]\n"
        "@functools.lru_cache(maxsize=None)\ndef f(m):\n    return m\n"
        "@cache\ndef g(m):\n    return m\n"
        "class K:\n    @functools.cache\n    def h(self):\n        return 0\n"
    )
    assert _module_state(stateful)[0] == [1, 2, 3, 4, 5, 6, 7, 9, 12, 16]  # def lines


def test_resolution_layers_hold_no_module_level_state():
    # memos live on the objects they describe (BoundQuiverAlgebra._cache, which
    # holds the module memos, the projectives and the knitted lists), so quivalg,
    # repmod, homalg, morphcat and arsubcat may bind only immutable literals
    # at module level
    found, defined = [], {}
    for name in ("quivalg.py", "repmod.py", "homalg.py", "morphcat.py", "arsubcat.py"):
        source = (Path(arquiver.__file__).parent / name).read_text()
        lines, bound = _module_state(source)
        found += [f"{name}:{n}" for n in lines]
        defs = [node.name for node in ast.parse(source).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defined[name] = set(bound + defs)
    assert found == []
    # every file was read
    assert {"opposite", "t2_of"} <= defined["quivalg.py"]
    assert {"_EXACT_ENUM_LIMIT", "decompose"} <= defined["repmod.py"]
    assert {"right_minimalize", "ext"} <= defined["homalg.py"]
    assert {"is_gp_in_h", "to_t2_module"} <= defined["morphcat.py"]
    assert {"_KNIT_DIM_CAP", "_knit", "_gprj_members"} <= defined["arsubcat.py"]


def _maps_beside_a_module(source: str) -> list[str]:
    """Classes with a field annotated `ModuleMap` beside one annotated
    `Representation`, or `tuple[ModuleMap, ...]` beside
    `tuple[Representation, ...]`.  Every such class the package had held the
    map's own source or target a second time (a morphism object (a, b, f), a
    presentation (p1, p0, d: p1 -> p0), a decomposition's summands beside
    their inclusions), which the map already carries."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            kinds = {ast.unparse(field.annotation) for field in node.body if isinstance(field, ast.AnnAssign)}
            if {"ModuleMap", "Representation"} <= kinds or {
                "tuple[ModuleMap, ...]",
                "tuple[Representation, ...]",
            } <= kinds:
                found.append(f"{node.lineno}: {node.name}")
    return found


def test_no_class_holds_a_module_map_beside_its_source_or_target():
    wrapper = "@dataclass\nclass Obj:\n    a: Representation\n    b: Representation\n    f: ModuleMap\n"
    assert _maps_beside_a_module(wrapper) == ["2: Obj"]
    tuples = "class Cert:\n    summands: tuple[Representation, ...]\n    inclusions: tuple[ModuleMap, ...]\n"
    assert _maps_beside_a_module(tuples) == ["1: Cert"]
    assert _maps_beside_a_module("class Square:\n    source: ModuleMap\n    sigma1: ModuleMap\n") == []
    paths = sorted(Path(arquiver.__file__).parent.glob("*.py"))
    assert {"morphcat.py", "homalg.py"} <= {path.name for path in paths}
    assert [f"{path.name}:{x}" for path in paths for x in _maps_beside_a_module(path.read_text())] == []


def _random_generator_uses(source: str) -> list[str]:
    """Lines that make a random generator: `default_rng`, any `np.random` /
    `numpy.random` attribute, or an import of `random` or `numpy.random`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name in ("random", "numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module in ("random", "numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "default_rng" or (
                node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            )
        else:
            hit = isinstance(node, ast.Name) and node.id == "default_rng"
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_random_generator_check_finds_every_form():
    for line in (
        "import random",
        "import numpy.random",
        "from random import choice",
        "from numpy import random",
        "from numpy.random import default_rng",
        "rng = np.random.default_rng(0)",
        "x = numpy.random.rand()",
        "rng = default_rng(0)",
    ):
        assert _random_generator_uses(line), line
    # taking a generator from the caller is allowed
    assert _random_generator_uses("def f(rng):\n    return rng.integers(0, 2)") == []


def test_resolution_layers_make_no_random_generator():
    # every job is deterministic: no module of the package draws random
    # numbers of its own (random_module takes its rng from the caller)
    paths = sorted(Path(arquiver.__file__).parent.glob("*.py"))
    assert {"repmod.py", "homalg.py", "arsubcat.py", "cli.py"} <= {path.name for path in paths}
    found = [f"{path.name}:{x}" for path in paths for x in _random_generator_uses(path.read_text())]
    assert found == []


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes named `_...` that no code in
    `sources` (file name -> text) reads by name or attribute, outside their
    own definition: dead helpers.  An import alone is not a use."""
    private, used = [], set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_"):
                private.append((name, own))
            for node in ast.walk(top):
                ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if ref and ref != own:
                    used.add(ref)
    return [f"{name}:{own}" for name, own in private if own not in used]


def test_dead_helper_check_finds_unused_private_defs():
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n"
        "class _Dead:\n    pass\n\ndef public():\n    return _used()\n",
        "b.py": "from .a import _Dead, _recursive\nimport a\n\nx = a._lonely\n\ndef _lonely():\n    pass\n",
    }
    assert _unreferenced_private_defs(sources) == ["a.py:_recursive", "a.py:_Dead"]


def test_package_has_no_dead_private_helpers():
    sources = {path.name: path.read_text() for path in sorted(Path(arquiver.__file__).parent.glob("*.py"))}
    assert _unreferenced_private_defs(sources) == []


def _validate_options(source: str) -> list[str]:
    """"line: name" of each `__init__` that takes a `validate` parameter and
    each call that passes `validate=`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            args = node.args
            if any(a.arg == "validate" for a in args.posonlyargs + args.args + args.kwonlyargs):
                found.append(f"{node.lineno}: __init__")
        elif isinstance(node, ast.Call) and any(kw.arg == "validate" for kw in node.keywords):
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return found


def test_validate_option_check_finds_every_form():
    source = (
        "class A:\n    def __init__(self, x, validate=True):\n        pass\n\n"
        "class B:\n    def __init__(self, *, validate: bool = False):\n        pass\n\n"
        "a = A(1, validate=False)\nb = m.B(validate=True)\n"
    )
    assert sorted(_validate_options(source)) == ["10: m.B", "2: __init__", "6: __init__", "9: A"]
    # a plain function may take a validate argument, and other keywords pass
    assert _validate_options("def f(validate):\n    return g(validated=1)\n") == []


def test_constructors_take_no_validate_option():
    # Representation and ModuleMap check shapes only: the file readers call
    # repmod.check_relations and check_intertwines, and every construction
    # inside the package carries its proof instead of a re-check
    paths = sorted(Path(arquiver.__file__).parent.glob("*.py"))
    assert {"repmod.py", "homalg.py", "morphcat.py"} <= {path.name for path in paths}
    assert [f"{path.name}:{x}" for path in paths for x in _validate_options(path.read_text())] == []


def _unread_imports(source: str) -> list[str]:
    """"line:name" for each name that an import in `source` binds and that
    no expression reads: a name passed only as a string, or only assigned
    to, is not read.  `import a.b` binds a."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}:{name}" for name, line in bound.items() if name not in read]


def test_unread_import_check_finds_every_form():
    source = (
        "from __future__ import annotations\nimport os.path\nimport json as js\nfrom a import (b, c as d, e)\n"
        "def test_x(monkeypatch):\n    monkeypatch.setattr(os, 'e', b)\n    d = js.loads('[]')\n"
    )
    # os is read through the binding of os.path; d is only assigned to, e only named in a string
    assert _unread_imports(source) == ["4:d", "4:e"]
    assert _unread_imports("import a\nfrom b import c\nprint(a, c())\n") == []


def test_test_modules_read_every_name_they_import():
    paths = sorted(Path(__file__).parent.glob("test_*.py"))
    assert {"test_homalg.py", "test_invariants.py"} <= {path.name for path in paths}
    found = [f"{path.name}:{x}" for path in paths for x in _unread_imports(path.read_text())]
    assert found == []


# Public names that no job reaches, kept on purpose; the walk starts at them
# too, so the helpers they call need no entry of their own.
_KEPT_WITHOUT_A_JOB = {
    "morph_hom_basis": "acceptance criterion 6: the direct Hom of the morphism category, returned as T2 maps, that "
    "the Mimo factorizations are checked over",
    "is_stably_isomorphic": "acceptance criterion 7: Tr Tr M is M up to projective summands",
    "tau_s_lambda": "ROADMAP item 5: Ringel and Schmidmeier's tau_S, the second route to the tau-syzygy verdict; it "
    "keeps ar_translate_of_map, transpose_of_map and NotMono",
}


def _read_names(tree, strings: bool = False) -> set[str]:
    """The names and attributes that `tree` reads and, with strings, every
    identifier inside its string constants and imports (such as the
    "repmod.hom_basis" of a span name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def _job_roots(cli_source: str, bench_sources: list[str]) -> set[str]:
    """Where the jobs start: every function of cli.py with the names it
    reads, and every identifier and string of the benchmark scripts."""
    roots = set()
    for top in ast.parse(cli_source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots |= {top.name} | _read_names(top)
    for source in bench_sources:
        roots |= _read_names(ast.parse(source), strings=True)
    return roots


def _unreached_public_defs(sources: dict[str, str], roots: set[str]) -> set[str]:
    """Top-level public functions and classes in `sources` (file name ->
    text) that a walk from `roots` does not reach.  The walk goes from each
    name it reaches to the names read in the body of every top-level def or
    class of that name, and in the value of every top-level assignment to it
    (a table of operations, say), in any file; an import alone is not a
    read."""
    defs, public = {}, set()
    for source in sources.values():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(top.name, []).append(top)
                if not top.name.startswith("_"):
                    public.add(top.name)
            elif isinstance(top, ast.Assign):
                for target in top.targets:
                    if isinstance(target, ast.Name):
                        defs.setdefault(target.id, []).append(top.value)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for top in defs.get(name, []) for n in _read_names(top)]
    return public - reached


def test_reachability_check_flags_what_no_job_reaches():
    cli_source = "from .a import job\n\nOPS = {'t': lambda: tabled()}\n\ndef main():\n    return job(), OPS\n"
    bench = ["SPANS = ('a.timed',)\n"]
    sources = {
        "cli.py": cli_source,
        "a.py": "def job():\n    return _helper()\n\ndef _helper():\n    return Shared()\n\nclass Shared:\n    pass\n\n"
        "def tabled():\n    pass\n\n"
        "def timed():\n    pass\n\ndef kept():\n    return kept_helper()\n\ndef kept_helper():\n    pass\n\n"
        "def dead():\n    return job()\n\nclass Dead:\n    pass\n",
        "b.py": "from .a import dead\n",
    }
    roots = _job_roots(cli_source, bench)
    # a call through a private helper, a module-level table and a name in a
    # benchmark string all count
    assert _unreached_public_defs(sources, roots) == {"kept", "kept_helper", "dead", "Dead"}
    # an allowlisted name is accepted, and so are the helpers it calls
    assert _unreached_public_defs(sources, roots | {"kept"}) == {"dead", "Dead"}


def test_package_keeps_only_what_a_job_reaches():
    package = Path(arquiver.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    bench = [path.read_text() for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))]
    assert bench
    roots = _job_roots(sources["cli.py"], bench)
    unreached = _unreached_public_defs(sources, roots)
    # every kept name still lacks a job (one that gained a job leaves the list) ...
    assert set(_KEPT_WITHOUT_A_JOB) <= unreached
    # ... and every other public def is reached by a job or through a kept name
    assert _unreached_public_defs(sources, roots | set(_KEPT_WITHOUT_A_JOB)) == set()


def _parser_tokens(source: str) -> int:
    """The tokens the parser reads: every token but comments and blank-line NLs."""
    skipped = (tokenize.COMMENT, tokenize.NL)
    return sum(tok.type not in skipped for tok in tokenize.generate_tokens(io.StringIO(source).readline))


def test_parser_token_count_skips_comments_and_blank_lines():
    assert _parser_tokens("x = 1\n") == 5  # NAME OP NUMBER NEWLINE ENDMARKER
    assert _parser_tokens("# a comment\n\nx = 1  # another\n") == 5


# CPython's parser peak memory steps up by about 0.45 MB once a source file
# passes this many tokens, and the manifests benchmark's peak RSS is set
# while the package compiles (ROADMAP, smaller findings).
_PARSER_TOKEN_STEP = 8192


def test_every_package_module_stays_below_the_parser_token_step():
    sources = {path.name: path.read_text() for path in sorted(Path(arquiver.__file__).parent.glob("*.py"))}
    assert "repmod.py" in sources
    over = {name: n for name, source in sources.items() if (n := _parser_tokens(source)) >= _PARSER_TOKEN_STEP}
    assert over == {}
