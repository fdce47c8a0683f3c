"""The satisfaction engine name and the checker constructor.

Every formula is evaluated by the explicit packed-bitset engine
(:class:`~repro.core.checker.ModelChecker`); the set-based
:class:`~repro.core.reference.SetChecker` is kept only as the test oracle
and benchmark baseline.  ``engine`` remains a field of scenarios, journal
cell parameters and result payloads, always ``"bitset"``, so store keys,
journal keys and answers stay byte-identical with those recorded when the
repository shipped other backends.  :func:`validate_engine` rejects every
other name — including the removed ``symbolic`` and ``set`` backends — so
input naming them fails loudly instead of silently running on bitset.
"""

from __future__ import annotations

#: The known satisfaction engines.
ENGINES = ("bitset",)

#: The engine used when none is requested.
DEFAULT_ENGINE = "bitset"


def validate_engine(engine: str) -> str:
    """Check an engine name against the known backends.

    Returns the name unchanged; raises ``ValueError`` naming the engine
    otherwise (the task layer surfaces it via the runner's error channel,
    the service as a 400).
    """
    if engine not in ENGINES:
        raise ValueError(
            f"{engine!r} is not a satisfaction engine (expected one of {ENGINES})"
        )
    return engine


def checker_for(space, engine: str = DEFAULT_ENGINE):
    """A fresh :class:`~repro.core.checker.ModelChecker` over ``space``.

    ``engine`` is validated, so a caller holding a stale engine name fails
    here rather than being answered by a backend it did not ask for.
    """
    validate_engine(engine)
    return ModelChecker(space)


# This import lives at the bottom of the module, not at the top: repro.core's
# package init pulls in the synthesis layer, which imports this module, so a
# top-of-module import would hit the cycle while this module's names are
# still undefined.  By the time the import below executes, every public name
# above is bound, so the cycle resolves in either entry order — and the
# checker class is fully imported while the process is still
# single-threaded, which is what IMP01 demands (serving threads must never
# be first to execute an import).
from repro.core.checker import ModelChecker  # noqa: E402
