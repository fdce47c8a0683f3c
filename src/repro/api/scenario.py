"""The :class:`Scenario` value object: one fully-specified model configuration.

A scenario names everything an epistemic query needs — the information
exchange, the system size ``(n, t)``, the value domain, the failure model,
an optional horizon override and the protocol-variant flag — and is
validated once, at construction.  Its ``engine`` field is always
``"bitset"``: it stays in the canonical form so store and journal keys are
unchanged, and any other name is rejected.  It is
frozen and hashable, so it can key caches directly, and it has a canonical
JSON form (:meth:`Scenario.canonical_json`) that replaces the hand-rolled
``(task, params)`` store keys: two parameter dictionaries that mean the same
configuration always normalise to the same key, whatever defaults they spell
out.

The scenario/task mapping is bidirectional:

* :meth:`Scenario.from_task_params` builds a scenario from a task name and
  the loose keyword dictionary the experiment harness has always used,
  validating that every parameter is known and applicable to that task;
* :meth:`Scenario.to_params` renders the scenario back into the *minimal*
  parameter dictionary for a task — defaults omitted, the engine always
  explicit — which is exactly the form the pre-redesign result journals used
  for their keys, so old journals keep resuming and reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple

from repro.engines import DEFAULT_ENGINE, validate_engine
from repro.failures import FAILURE_MODELS

#: Exchanges usable for the Simultaneous Byzantine Agreement experiments.
SBA_EXCHANGES = ("floodset", "count", "diff", "dwork-moses")
#: Exchanges usable for the Eventual Byzantine Agreement experiments.
EBA_EXCHANGES = ("emin", "ebasic")

#: The experiment-task names, with the scenario fields each accepts beyond
#: the always-applicable core (exchange, n, t, failures, max_states, engine).
TASK_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sba-model-check": ("num_values", "rounds", "optimal_protocol"),
    "sba-temporal-only": ("num_values",),
    "sba-synthesis": ("num_values", "rounds"),
    "eba-model-check": (),
    "eba-synthesis": (),
}

#: Fields every task accepts.
_CORE_FIELDS = ("exchange", "num_agents", "max_faulty", "failures", "max_states", "engine")

#: The paper's default failure model per family: the SBA experiments
#: (Tables 1 and 2) run crash failures, the EBA experiments (Table 3) run
#: sending omissions — the model the ``P0`` optimality result is stated for.
FAMILY_DEFAULT_FAILURES = {"sba": "crash", "eba": "sending"}


def task_family(task: str) -> str:
    """The protocol family (``sba`` or ``eba``) of a task name."""
    if task not in TASK_FIELDS:
        raise ValueError(f"unknown task {task!r}; known tasks: {sorted(TASK_FIELDS)}")
    return task.split("-", 1)[0]


@dataclass(frozen=True)
class Scenario:
    """A validated, hashable model configuration for epistemic queries.

    ``failures=None`` means "the paper's default for the family" and is
    normalised at construction (``crash`` for SBA exchanges, ``sending``
    omissions for EBA exchanges), so two scenarios that mean the same
    configuration always compare and hash equal.
    """

    exchange: str
    num_agents: int
    max_faulty: int
    num_values: int = 2
    failures: Optional[str] = None
    rounds: Optional[int] = None
    optimal_protocol: bool = False
    max_states: Optional[int] = None
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if self.exchange not in SBA_EXCHANGES + EBA_EXCHANGES:
            raise ValueError(
                f"{self.exchange!r} is not a known exchange (expected one of "
                f"{SBA_EXCHANGES + EBA_EXCHANGES})"
            )
        for name in ("num_agents", "max_faulty", "num_values"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {self.num_agents}")
        if self.max_faulty < 0:
            raise ValueError(f"max_faulty must be >= 0, got {self.max_faulty}")
        if self.num_values < 2:
            raise ValueError(f"num_values must be >= 2, got {self.num_values}")
        if self.family == "eba" and self.num_values != 2:
            raise ValueError(
                "EBA exchanges fix the value domain to {0, 1}; "
                f"got num_values={self.num_values}"
            )
        if self.failures is None:
            object.__setattr__(self, "failures", self.default_failures())
        if self.failures not in FAILURE_MODELS:
            raise ValueError(
                f"{self.failures!r} is not a failure model (expected one of "
                f"{FAILURE_MODELS})"
            )
        if self.rounds is not None and (
            not isinstance(self.rounds, int) or isinstance(self.rounds, bool)
            or self.rounds < 0
        ):
            raise ValueError(f"rounds must be a non-negative integer, got {self.rounds!r}")
        if self.max_states is not None and (
            not isinstance(self.max_states, int) or isinstance(self.max_states, bool)
            or self.max_states < 1
        ):
            raise ValueError(f"max_states must be a positive integer, got {self.max_states!r}")
        validate_engine(self.engine)

    # ------------------------------------------------------------- structure

    @property
    def family(self) -> str:
        """The protocol family of the exchange: ``sba`` or ``eba``."""
        return "eba" if self.exchange in EBA_EXCHANGES else "sba"

    def default_failures(self) -> str:
        """The paper's default failure model for this scenario's family."""
        return FAMILY_DEFAULT_FAILURES[self.family]

    def check_task(self) -> str:
        """The model-checking task name for this scenario's family."""
        return f"{self.family}-model-check"

    def synthesis_task(self) -> str:
        """The synthesis task name for this scenario's family."""
        return f"{self.family}-synthesis"

    # ----------------------------------------------------------- canonical form

    def to_params(self, task: Optional[str] = None) -> Dict[str, object]:
        """The minimal task-parameter dictionary for this scenario.

        Fields at their defaults are omitted (the engine is always explicit),
        which is the exact form the experiment journals have always keyed
        cells by — the canonical encoding is therefore stable across the API
        redesign.  With a ``task``, fields the task does not accept must be
        at their defaults (a scenario with a horizon override cannot run a
        task that takes no ``rounds``), and only applicable fields are
        emitted.
        """
        applicable = set(_CORE_FIELDS)
        if task is not None:
            family = task_family(task)
            if family != self.family:
                article = "an SBA" if family == "sba" else "an EBA"
                raise ValueError(
                    f"{self.exchange!r} is not {article} exchange (expected one of "
                    f"{SBA_EXCHANGES if family == 'sba' else EBA_EXCHANGES})"
                )
            applicable |= set(TASK_FIELDS[task])
        else:
            applicable |= {"num_values", "rounds", "optimal_protocol"}

        params: Dict[str, object] = {
            "exchange": self.exchange,
            "num_agents": self.num_agents,
            "max_faulty": self.max_faulty,
            "engine": self.engine,
        }
        optional = {
            "num_values": (self.num_values, 2),
            "failures": (self.failures, self.default_failures()),
            "rounds": (self.rounds, None),
            "optimal_protocol": (self.optimal_protocol, False),
            "max_states": (self.max_states, None),
        }
        for name, (value, default) in optional.items():
            if value == default:
                continue
            if name not in applicable:
                raise ValueError(
                    f"task {task!r} does not take {name!r} (set to {value!r})"
                )
            params[name] = value
        return params

    def canonical_json(self) -> str:
        """The canonical JSON encoding of this scenario (defaults omitted).

        Equal scenarios — however their constructors spelled the defaults —
        produce byte-identical canonical JSON, so the string can key caches,
        stores and journals directly.
        """
        return json.dumps(self.to_params(), sort_keys=True, separators=(",", ":"))

    def cell_key(self, task: str) -> str:
        """The canonical store key of one experiment cell: task + scenario."""
        return json.dumps(
            [task, self.to_params(task)], sort_keys=True, separators=(",", ":")
        )

    # ----------------------------------------------------------- conversions

    @classmethod
    def from_task_params(
        cls, task: str, params: Mapping[str, object]
    ) -> "Scenario":
        """Build a scenario from a task name and its loose parameter dict.

        Unknown parameters and parameters the task does not accept raise
        ``ValueError`` — this is the validation layer the loose-kwargs API
        never had.
        """
        family = task_family(task)
        allowed = set(_CORE_FIELDS) | set(TASK_FIELDS[task])
        unknown = set(params) - allowed
        if unknown:
            raise ValueError(
                f"task {task!r} does not take parameters {sorted(unknown)} "
                f"(accepted: {sorted(allowed)})"
            )
        if "exchange" not in params:
            raise ValueError(f"task {task!r} requires an 'exchange' parameter")
        scenario = cls(**dict(params))
        if scenario.family != family:
            article = "an SBA" if family == "sba" else "an EBA"
            expected = SBA_EXCHANGES if family == "sba" else EBA_EXCHANGES
            raise ValueError(
                f"{scenario.exchange!r} is not {article} exchange "
                f"(expected one of {expected})"
            )
        return scenario

    def to_json(self) -> Dict[str, object]:
        """The fully-explicit JSON form (every field spelled out)."""
        data: Dict[str, object] = {field.name: getattr(self, field.name) for field in fields(self)}
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output (or any subset).

        Missing fields take their defaults; unknown fields raise
        ``ValueError`` so a typo'd request never silently runs the default.
        """
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields {sorted(unknown)} (known: {sorted(known)})"
            )
        return cls(**dict(data))
