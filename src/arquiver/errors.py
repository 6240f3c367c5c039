"""Exception types shared across the package.

Everything deriving from PreconditionError means "the input violated a
documented precondition"; the CLI maps these to exit code 2.  Anything else
escaping an operation is an internal invariant violation (exit code 3).
"""


class PreconditionError(Exception):
    pass


class InternalInvariantError(Exception):
    """A computed object broke a mathematical invariant: a bug, not bad input."""


def invariant(holds: bool, message: str) -> None:
    """Raise InternalInvariantError(message) unless `holds`; unlike `assert`,
    the check still runs under `python -O`."""
    if not holds:
        raise InternalInvariantError(message)


class NotFiniteDimensional(PreconditionError):
    """The bound quiver algebra is not finite-dimensional below the degree cap."""


class MalformedRelation(PreconditionError):
    """A relation references unknown arrows, is non-composable, or is too short."""


class BudgetExhausted(PreconditionError):
    """A computation stopped before certifying its answer: `repmod.decompose`
    met a piece it could neither split nor show local, with End too large to
    search; `homalg.almost_split_sequence` met End(N)/rad larger than GF(p);
    or a knitting passed its cap, so its list is not certified complete: the
    list of all indecomposables of `arsubcat.indec_pool`, or that of the
    Gorenstein projectives (`arsubcat._gprj_members`, read by
    `classify_gp_census` and `check_tau_is_syzygy`), which knits Gprj of a
    triangular algebra over a self-injective base, and otherwise all of the
    algebra's indecomposables."""


class NotProjective(PreconditionError):
    pass


class NotSelfInjective(PreconditionError):
    pass


class NotMono(PreconditionError):
    pass


class NotGorensteinWithinCap(PreconditionError):
    pass


class NotGorensteinProjective(PreconditionError):
    pass


class NotOneGorenstein(PreconditionError):
    pass


class InfiniteProjectiveDimension(PreconditionError):
    pass


class NotLocallyProjective(PreconditionError):
    pass
