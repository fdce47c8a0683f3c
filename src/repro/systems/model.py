"""The Byzantine-Agreement model: information exchange + failure model.

:class:`BAModel` combines an :class:`~repro.systems.exchange.InformationExchange`
with a :class:`~repro.failures.base.FailureModel` and exposes everything the
state-space builder, the model checker and the synthesizer need:

* the initial global states (all assignments of initial preferences times all
  initial environment states),
* the successor relation for one synchronous round, given the joint decision
  action chosen by the agents,
* agent observations (for the clock semantics of knowledge),
* the interpretation of atomic propositions,
* the indexical nonfaulty set ``N``.

A global state is a pair of an environment state (owned by the failure model)
and a tuple of per-agent local states (owned by the exchange).  Both parts are
hashable, so global states can be deduplicated per time level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.failures.base import DeliveryMode, FailureModel
from repro.systems.actions import Action, JointAction, NOOP
from repro.systems.exchange import InformationExchange


@dataclass(frozen=True)
class GlobalState:
    """A global state: environment state plus one local state per agent."""

    env: Hashable
    locals: Tuple[Tuple, ...]


class BAModel:
    """A Byzantine-Agreement model ``(E, F)`` over ``n`` agents.

    Parameters
    ----------
    exchange:
        The information-exchange protocol ``E``.
    failures:
        The failure model ``F``.  Must agree with the exchange on the number
        of agents and the failure bound.
    """

    def __init__(self, exchange: InformationExchange, failures: FailureModel) -> None:
        if exchange.num_agents != failures.num_agents:
            raise ValueError("exchange and failure model disagree on the number of agents")
        if exchange.max_faulty != failures.max_faulty:
            raise ValueError("exchange and failure model disagree on the failure bound")
        self.exchange = exchange
        self.failures = failures
        self.num_agents = exchange.num_agents
        self.num_values = exchange.num_values
        self.max_faulty = exchange.max_faulty
        # Memoisation of local-state updates; the same (agent, local, action,
        # received) combination recurs across many global states.
        self._update_cache: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------ setup

    def agents(self) -> range:
        """All agent identifiers."""
        return range(self.num_agents)

    def values(self) -> range:
        """The decision value domain ``V``."""
        return range(self.num_values)

    def default_horizon(self) -> int:
        """The number of rounds modelled (``t + 2`` by default)."""
        return self.exchange.default_horizon()

    def initial_states(self) -> Iterator[GlobalState]:
        """All initial global states (votes x initial environment states)."""
        for env in self.failures.initial_env_states():
            for votes in product(self.values(), repeat=self.num_agents):
                locals_ = tuple(
                    self.exchange.initial_local(agent, votes[agent])
                    for agent in self.agents()
                )
                yield GlobalState(env, locals_)

    # ------------------------------------------------------------- transitions

    def successors(
        self, state: GlobalState, joint_action: JointAction, time: int
    ) -> Iterator[GlobalState]:
        """All successor global states after one round.

        ``joint_action`` is the tuple of decision actions performed by the
        agents at time ``time`` (``NOOP`` for agents that do not decide).  The
        nondeterminism resolved here is the failure model's: which agents
        newly fail this round, and which unreliable messages are delivered.
        """
        failures = self.failures
        exchange = self.exchange
        env = state.env

        for choice in failures.round_choices(env):
            new_env = failures.apply_choice(env, choice)
            messages: List[Optional[Hashable]] = []
            for sender in self.agents():
                if not failures.can_send(env, choice, sender):
                    messages.append(None)
                else:
                    messages.append(
                        exchange.message(
                            sender, state.locals[sender], joint_action[sender], time
                        )
                    )

            recipient_options: List[Sequence[Tuple]] = []
            for recipient in self.agents():
                options = self._recipient_options(
                    state, joint_action, time, env, choice, messages, recipient
                )
                recipient_options.append(options)

            for locals_ in product(*recipient_options):
                yield GlobalState(new_env, tuple(locals_))

    def _recipient_options(
        self,
        state: GlobalState,
        joint_action: JointAction,
        time: int,
        env: Hashable,
        choice: Hashable,
        messages: Sequence[Optional[Hashable]],
        recipient: int,
    ) -> Sequence[Tuple]:
        """Distinct possible new local states of ``recipient`` this round."""
        certain: List[Tuple[int, Hashable]] = []
        optional: List[Tuple[int, Hashable]] = []
        for sender in self.agents():
            message = messages[sender]
            if message is None:
                continue
            mode = self.failures.delivery_mode(env, choice, sender, recipient)
            if mode is DeliveryMode.ALWAYS:
                certain.append((sender, message))
            elif mode is DeliveryMode.OPTIONAL:
                optional.append((sender, message))

        seen: Dict[Tuple, None] = {}
        for size in range(len(optional) + 1):
            for extra in combinations(optional, size):
                received = dict(certain)
                received.update(dict(extra))
                new_local = self._updated_local(
                    recipient,
                    state.locals[recipient],
                    joint_action[recipient],
                    received,
                    time,
                )
                seen.setdefault(new_local, None)
        return list(seen)

    def _updated_local(
        self,
        agent: int,
        local: Tuple,
        action: Action,
        received: Dict[int, Hashable],
        time: int,
    ) -> Tuple:
        """Apply the exchange update and the central decided/decision update."""
        key = (agent, local, action, tuple(sorted(received.items())), time)
        cached = self._update_cache.get(key)
        if cached is not None:
            return cached
        new_local = self.exchange.update(agent, local, action, received, time)
        if action is not NOOP and not local.decided:
            new_local = new_local._replace(decided=True, decision=action)
        self._update_cache[key] = new_local
        return new_local

    # ------------------------------------------------------------ observations

    def observation(self, state: GlobalState, agent: int) -> Tuple:
        """The clock-semantics observation of ``agent`` (time excluded)."""
        return self.exchange.observation(agent, state.locals[agent])

    def observation_features(self, state: GlobalState, agent: int) -> Dict[str, Hashable]:
        """Named observable features of ``agent`` in this state."""
        return self.exchange.observation_features(agent, state.locals[agent])

    def nonfaulty(self, state: GlobalState, agent: int) -> bool:
        """Whether ``agent`` is in the indexical nonfaulty set at this state."""
        return self.failures.nonfaulty(state.env, agent)

    def can_act(self, state: GlobalState, agent: int) -> bool:
        """Whether ``agent`` still executes its decision protocol."""
        return self.failures.can_act(state.env, agent)

    # ----------------------------------------------------------------- labels

    def eval_atom(
        self,
        state: GlobalState,
        time: int,
        key: Hashable,
        joint_action: Optional[JointAction] = None,
    ) -> bool:
        """Interpret a structured atomic proposition at a point.

        ``joint_action`` supplies the actions chosen at this point, which is
        needed only for the ``decides_now`` atoms.
        """
        kind = key[0] if isinstance(key, tuple) and key else key
        if kind == "init":
            _, agent, value = key
            return state.locals[agent].init == value
        if kind == "exists":
            _, value = key
            return any(local.init == value for local in state.locals)
        if kind == "decided":
            _, agent = key
            return bool(state.locals[agent].decided)
        if kind == "decision":
            _, agent, value = key
            local = state.locals[agent]
            return bool(local.decided) and local.decision == value
        if kind == "some_decided":
            _, value = key
            return any(
                local.decided and local.decision == value for local in state.locals
            )
        if kind == "decides_now":
            _, agent, value = key
            if joint_action is None:
                raise ValueError(
                    "decides_now atoms require the joint action at the point"
                )
            return joint_action[agent] == value
        if kind == "nonfaulty":
            _, agent = key
            return self.nonfaulty(state, agent)
        if kind == "time":
            _, when = key
            return time == when
        if kind == "obs":
            _, agent, feature, value = key
            features = self.observation_features(state, agent)
            if feature not in features:
                raise KeyError(
                    f"unknown observable feature {feature!r} for exchange "
                    f"{self.exchange.name!r}"
                )
            return features[feature] == value
        raise KeyError(f"unknown atomic proposition {key!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BAModel(exchange={self.exchange.name!r}, "
            f"failures={self.failures.name!r}, n={self.num_agents}, "
            f"t={self.max_faulty}, v={self.num_values})"
        )
