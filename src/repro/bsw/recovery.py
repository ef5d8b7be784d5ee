"""Recovery orchestration: from confirmed errors to degraded modes and back.

The paper's error-handling concept (Section 2) wants detection wired to
*reaction*: "a consistent and non ambiguous error handling … can also be
used as a means for mode management".  The seed repo had the pieces —
E2E/receiver verdicts, watchdog expiries, the debouncing
:class:`~repro.bsw.errors.ErrorManager`, :class:`~repro.bsw.modes.
ModeMachine` — but nothing closing the loop.  This module is that loop:

* :meth:`RecoveryOrchestrator.bind_e2e` turns an E2E receiver's verdict
  stream into PASSED/FAILED reports for a DEM event (and tracks the
  last valid value of the protected signal for substitution);
* :meth:`RecoveryOrchestrator.bind_watchdog` feeds alive-supervision
  expiries into the same debouncer;
* a confirmed DTC walks a per-event **escalation chain** —
  substitute last-good/default signal value → request a degraded mode →
  restart the partition via the watchdog — one level per hold period
  while the error stays confirmed;
* healing walks the chain back **in reverse order**, one level per
  ``heal_hold`` period, so a flapping fault cannot oscillate the
  vehicle between modes (hysteresis).

:func:`recovery_stack` wires the one stack both fault pipelines run on
an E2E-protected link (the campaign's reference world and every
resilience world): two DEM events, the nominal/limp/safe mode machine
and the orchestrator with its two escalation chains.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bsw.errors import ErrorEvent, ErrorManager, FAILED, PASSED
from repro.bsw.modes import ModeMachine
from repro.errors import ConfigurationError
from repro.sim.trace import Trace

#: Escalation level names, index == level (0 = no reaction active).
LEVEL_NONE = 0
LEVEL_SUBSTITUTE = 1
LEVEL_DEGRADE = 2
LEVEL_RESTART = 3
LEVEL_NAMES = ("none", "substitute", "degrade", "restart")


class RecoveryPolicy:
    """Escalation plan for one monitored error event.

    Levels are built from the configured reactions, in fixed order:
    substitution (needs ``signal``), degraded mode (needs
    ``degraded_mode``), partition restart (needs ``restart_entity`` or
    ``on_restart``).  Unconfigured reactions are skipped, so a policy
    can e.g. go straight from substitution to restart.
    """

    def __init__(self, event_name: str, *,
                 signal: Optional[str] = None,
                 substitute_value: Optional[int] = None,
                 degraded_mode: Optional[str] = None,
                 restart_entity: Optional[str] = None,
                 on_restart: Optional[Callable[[], None]] = None,
                 escalate_hold: int = 0,
                 heal_hold: int = 0):
        if escalate_hold < 0 or heal_hold < 0:
            raise ConfigurationError(
                f"policy {event_name}: holds must be >= 0")
        self.event_name = event_name
        self.signal = signal
        self.substitute_value = substitute_value
        self.degraded_mode = degraded_mode
        self.restart_entity = restart_entity
        self.on_restart = on_restart
        #: time a level must persist before escalating to the next.
        self.escalate_hold = escalate_hold
        #: time the event must stay healed before each de-escalation.
        self.heal_hold = heal_hold
        self.chain: list[str] = []
        if signal is not None:
            self.chain.append("substitute")
        if degraded_mode is not None:
            self.chain.append("degrade")
        if restart_entity is not None or on_restart is not None:
            self.chain.append("restart")
        if not self.chain:
            raise ConfigurationError(
                f"policy {event_name}: configure at least one reaction")
        #: 0 = healthy; 1..len(chain) = chain[level-1] active.
        self.level = 0

    def __repr__(self) -> str:
        return (f"<RecoveryPolicy {self.event_name} "
                f"chain={self.chain} level={self.level}>")


class RecoveryOrchestrator:
    """Per-ECU recovery loop over an ErrorManager's confirmations.

    The orchestrator listens for confirm/heal status changes, drives
    each event's :class:`RecoveryPolicy` up and down its escalation
    chain on simulator time, and performs the reactions against the
    bound COM stack, mode machine and watchdog.
    """

    def __init__(self, sim, errors: ErrorManager, *,
                 modes=None, watchdog=None, com=None,
                 nominal_mode: Optional[str] = None,
                 trace: Optional[Trace] = None):
        self.sim = sim
        self.errors = errors
        self.modes = modes
        self.watchdog = watchdog
        self.com = com
        self.trace = trace if trace is not None else Trace()
        self.nominal_mode = nominal_mode if nominal_mode is not None else (
            modes.current if modes is not None else None)
        self._policies: dict[str, RecoveryPolicy] = {}
        self._timers: dict[str, object] = {}
        self._last_good: dict[str, int] = {}
        errors.on_status_change(self._on_status)

    # ------------------------------------------------------------------
    # Configuration / wiring
    # ------------------------------------------------------------------
    def add_policy(self, policy: RecoveryPolicy) -> RecoveryPolicy:
        """Attach an escalation policy to a registered error event."""
        self.errors.event(policy.event_name)  # must exist (KeyError)
        if policy.event_name in self._policies:
            raise ConfigurationError(
                f"duplicate recovery policy for {policy.event_name!r}")
        if "substitute" in policy.chain and self.com is None:
            raise ConfigurationError(
                f"policy {policy.event_name}: substitution needs a COM "
                f"stack bound to the orchestrator")
        if "degrade" in policy.chain and self.modes is None:
            raise ConfigurationError(
                f"policy {policy.event_name}: degraded mode needs a "
                f"mode machine bound to the orchestrator")
        if (policy.restart_entity is not None
                and self.watchdog is None):
            raise ConfigurationError(
                f"policy {policy.event_name}: restart_entity needs a "
                f"watchdog bound to the orchestrator")
        self._policies[policy.event_name] = policy
        return policy

    def bind_e2e(self, receiver, event_name: str,
                 signal: Optional[str] = None) -> None:
        """Feed an E2E receiver's verdicts into an error event.

        OK verdicts report PASSED, everything else FAILED (with the
        verdict as freeze-frame context).  When ``signal`` is given and
        a COM stack is bound, the signal's delivered values are tracked
        as the last-good substitution source.
        """
        from repro.com.e2e import E2E_OK

        self.errors.event(event_name)  # must exist

        def on_verdict(verdict: str) -> None:
            status = PASSED if verdict == E2E_OK else FAILED
            self.errors.report(event_name, status,
                               context={"verdict": verdict,
                                        "pdu": receiver.ipdu.name})

        receiver.on_verdict(on_verdict)
        if signal is not None and self.com is not None:
            self.com.on_signal(
                signal,
                lambda value: self._last_good.__setitem__(signal, value))

    def bind_watchdog(self, event_of_entity: dict[str, str],
                      poll: Optional[int] = None) -> None:
        """Feed watchdog violations into error events.

        ``event_of_entity`` maps supervised entity names to DEM event
        names.  ``poll`` (ns) additionally samples each entity's health
        periodically, reporting PASSED while it is alive — that is what
        lets a watchdog-sourced DTC *heal* after the entity recovers.
        """
        if self.watchdog is None:
            raise ConfigurationError("no watchdog bound")
        for event_name in event_of_entity.values():
            self.errors.event(event_name)  # must exist
        previous = self.watchdog.on_violation

        def violated(entity_name: str) -> None:
            if previous is not None:
                previous(entity_name)
            event_name = event_of_entity.get(entity_name)
            if event_name is not None:
                self.errors.report(event_name, FAILED,
                                   context={"entity": entity_name,
                                            "source": "watchdog"})

        self.watchdog.on_violation = violated
        if poll is not None:
            def sample():
                for entity_name, event_name in event_of_entity.items():
                    status = self.watchdog.status(entity_name)
                    if not status["violated"] \
                            and status["missed_windows"] == 0:
                        self.errors.report(event_name, PASSED)
                self.sim.schedule(poll, sample)

            self.sim.schedule(poll, sample)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def level(self, event_name: str) -> int:
        """Current escalation level (0 = no reaction active)."""
        return self._policies[event_name].level

    def level_name(self, event_name: str) -> str:
        """Name of the active reaction ("none" when healthy)."""
        policy = self._policies[event_name]
        if policy.level == 0:
            return LEVEL_NAMES[LEVEL_NONE]
        return policy.chain[policy.level - 1]

    def last_good(self, signal: str) -> Optional[int]:
        """Last value of a tracked signal that passed the E2E check."""
        return self._last_good.get(signal)

    # ------------------------------------------------------------------
    # Escalation engine
    # ------------------------------------------------------------------
    def _on_status(self, event, confirmed: bool) -> None:
        policy = self._policies.get(event.name)
        if policy is None:
            return
        self._cancel_timer(policy)
        if confirmed:
            if policy.level == 0:
                self._escalate(policy, event)
            else:
                # Relapse during de-escalation: hold the current level
                # and resume the escalation clock from here.
                self._arm(policy, policy.escalate_hold,
                          lambda: self._escalate(policy, event))
        else:
            self._arm(policy, policy.heal_hold,
                      lambda: self._deescalate(policy, event))

    def _escalate(self, policy: RecoveryPolicy, event) -> None:
        if not event.confirmed:
            return
        if policy.level < len(policy.chain):
            policy.level += 1
            action = policy.chain[policy.level - 1]
            self.trace.log(self.sim.now, "recovery.escalate",
                           policy.event_name, action=action,
                           level=policy.level)
            getattr(self, f"_apply_{action}")(policy)
        elif policy.chain[-1] == "restart":
            # Top of the chain and still confirmed: keep retrying the
            # partition restart — a watchdog reset during an ongoing
            # fault re-latches, and only a retry after the fault clears
            # brings the partition (and its PASSED stream) back.
            self._apply_restart(policy)
        else:
            return
        retryable = (policy.level < len(policy.chain)
                     or (policy.chain[-1] == "restart"
                         and policy.escalate_hold > 0))
        if retryable:
            self._arm(policy, policy.escalate_hold,
                      lambda: self._escalate(policy, event))

    def _deescalate(self, policy: RecoveryPolicy, event) -> None:
        if event.confirmed or policy.level == 0:
            return
        action = policy.chain[policy.level - 1]
        policy.level -= 1
        self.trace.log(self.sim.now, "recovery.deescalate",
                       policy.event_name, action=action,
                       level=policy.level)
        getattr(self, f"_undo_{action}")(policy)
        if policy.level > 0:
            self._arm(policy, policy.heal_hold,
                      lambda: self._deescalate(policy, event))

    def _arm(self, policy: RecoveryPolicy, delay: int,
             fire: Callable[[], None]) -> None:
        self._timers[policy.event_name] = self.sim.schedule(delay, fire)

    def _cancel_timer(self, policy: RecoveryPolicy) -> None:
        handle = self._timers.pop(policy.event_name, None)
        if handle is not None:
            self.sim.cancel(handle)

    # ------------------------------------------------------------------
    # Reactions
    # ------------------------------------------------------------------
    def _apply_substitute(self, policy: RecoveryPolicy) -> None:
        value = policy.substitute_value
        if value is None:
            value = self._last_good.get(policy.signal)
        if value is None:  # never received: fall back to the spec default
            value = self.com._require(policy.signal).spec.initial
        self.com.substitute_signal(policy.signal, value)

    def _undo_substitute(self, policy: RecoveryPolicy) -> None:
        self.com.clear_substitution(policy.signal)

    def _apply_degrade(self, policy: RecoveryPolicy) -> None:
        self.modes.request(policy.degraded_mode)

    def _undo_degrade(self, policy: RecoveryPolicy) -> None:
        # Another policy may still require the degraded mode; only
        # return to nominal when this was the last one holding it.
        others_degraded = any(
            p is not policy and "degrade" in p.chain[:p.level]
            for p in self._policies.values())
        if not others_degraded and self.nominal_mode is not None:
            self.modes.request(self.nominal_mode)

    def _apply_restart(self, policy: RecoveryPolicy) -> None:
        if policy.restart_entity is not None:
            self.watchdog.reset(policy.restart_entity)
        if policy.on_restart is not None:
            policy.on_restart()
        self.trace.log(self.sim.now, "recovery.restart",
                       policy.restart_entity or policy.event_name)

    def _undo_restart(self, policy: RecoveryPolicy) -> None:
        pass  # a restart is a one-shot action; nothing to undo

    def __repr__(self) -> str:
        active = sum(1 for p in self._policies.values() if p.level > 0)
        return (f"<RecoveryOrchestrator policies={len(self._policies)} "
                f"active={active}>")


def recovery_stack(sim, trace: Trace, watchdog, com, receiver, signal: str,
                   producer: str, e2e_event: str, dtcs: tuple[int, int],
                   poll: int, hold: int):
    """Wire the protection/recovery stack of one E2E-protected link.

    DEM events ``e2e_event`` (threshold 2) and ``producer_alive``
    (threshold 2, fail step 2) store ``dtcs`` and escalate one level
    per ``hold`` into the nominal/limp/safe ``vehicle`` mode machine:
    the E2E event substitutes ``signal`` on ``com`` then degrades, the
    alive event degrades then restarts ``producer`` through
    ``watchdog``.  ``receiver``'s verdicts and the watchdog, sampled
    every ``poll``, feed them.  Returns ``(errors, modes, recovery)``.
    """
    e2e_dtc, alive_dtc = dtcs
    errors = ErrorManager("SYS", trace=trace, now=lambda: sim.now)
    errors.register(ErrorEvent(e2e_event, e2e_dtc, threshold=2))
    errors.register(ErrorEvent("producer_alive", alive_dtc, threshold=2,
                               fail_step=2))
    modes = ModeMachine("vehicle", ["nominal", "limp", "safe"], "nominal",
                        trace=trace)
    modes.bind_clock(lambda: sim.now)
    modes.allow_chain("nominal", "limp", "safe")
    modes.allow_chain("safe", "limp", "nominal")
    recovery = RecoveryOrchestrator(sim, errors, modes=modes,
                                    watchdog=watchdog, com=com, trace=trace)
    recovery.add_policy(RecoveryPolicy(
        e2e_event, signal=signal, degraded_mode="limp",
        escalate_hold=hold, heal_hold=hold))
    recovery.add_policy(RecoveryPolicy(
        "producer_alive", degraded_mode="limp", restart_entity=producer,
        escalate_hold=hold, heal_hold=hold))
    recovery.bind_e2e(receiver, e2e_event, signal=signal)
    recovery.bind_watchdog({producer: "producer_alive"}, poll=poll)
    return errors, modes, recovery
