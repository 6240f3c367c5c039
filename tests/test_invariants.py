"""Internal invariants: raised as InternalInvariantError, never as `assert`,
so that they still hold under `python -O`, and mapped to exit code 3."""

import ast
from pathlib import Path

import pytest

import arquiver
from arquiver import cli, exactlin
from arquiver.errors import InternalInvariantError, PreconditionError
from arquiver.exactlin import PrimeField
from arquiver.quivalg import Quiver, build_algebra
from arquiver.repmod import projective_cover, simple_module

FIX = cli.fixtures_dir()


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(arquiver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_broken_invariant_raises_and_exits_3(capsys, monkeypatch):
    assert not issubclass(InternalInvariantError, PreconditionError)
    # with rad P never superfluous, every projective cover of a non-projective fails its check
    monkeypatch.setattr(exactlin, "image_membership", lambda span, vecs: False)
    alg = build_algebra(Quiver(1, [("x", 0, 0)]), [[(1, ("x", "x"))]], PrimeField(5))
    with pytest.raises(InternalInvariantError, match="cover kernel is not superfluous"):
        projective_cover(simple_module(alg, 0))
    code = cli.main(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "syzygy"])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal error (InternalInvariantError): cover kernel is not superfluous" in err
