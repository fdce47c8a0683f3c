"""Decision actions.

Following Section 3 of the paper, the decision layer of a protocol performs
one of two kinds of actions in each round:

* ``noop`` — represented by :data:`NOOP` (``None``), and
* ``decide_i(v)`` — represented by the integer value ``v`` being decided.

Representing a decision by its (non-negative) value keeps joint actions
hashable and cheap; the helpers below make intent explicit at call sites.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: The no-op action: the agent does not decide this round.
NOOP: Optional[int] = None

#: Type alias for a single agent's action.
Action = Optional[int]

#: Type alias for a joint action (one entry per agent, indexed by agent id).
JointAction = Tuple[Optional[int], ...]


def decide(value: int) -> int:
    """Return the action in which the agent decides on ``value``."""
    if value < 0:
        raise ValueError("decision values must be non-negative")
    return value


def is_decide(action: Action) -> bool:
    """True when ``action`` is a decision (as opposed to ``noop``)."""
    return action is not None
