"""JEDEC timing validation for simulated command streams.

The checker tracks, per bank, the time of the last ACT and PRE and
validates the core DDR4 constraints the characterization relies on:

* ``tRAS``: a row must stay open at least 36 ns (ACT -> PRE);
* ``tRP``: a bank must stay precharged at least 15 ns (PRE -> ACT);
* ``tRCD``: no RD/WR within 13.5 ns of the ACT;
* ``tRFC``: no command while a refresh is in flight;
* ``tRRD_S`` / ``tRRD_L``: minimum ACT-to-ACT spacing across banks
  (other / same bank group);
* ``tFAW``: at most four ACTs in any rolling tFAW window -- the JEDEC
  rate limit that caps how fast a multi-bank hammer can activate.

Violations raise :class:`~repro.errors.TimingViolationError` -- on the real
infrastructure they would silently corrupt the experiment, which is why the
paper's methodology (Section 3.1) keeps full control of command timing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.constants import DDR4Timings, DEFAULT_TIMINGS
from repro.errors import TimingViolationError

#: Tolerance for floating-point time comparisons (1 femtosecond).
_EPS = 1e-6


class TimingChecker:
    """Stateful validator for one chip's command stream."""

    def __init__(self, timings: DDR4Timings = DEFAULT_TIMINGS) -> None:
        timings.validate()
        self._t = timings
        self._last_act: Dict[int, float] = {}
        self._last_pre: Dict[int, float] = {}
        self._ref_done: float = float("-inf")
        #: Times of the four most recent ACTs, any bank (tFAW window).
        self._recent_acts: List[float] = []
        self._last_act_any: float = float("-inf")
        self._last_act_bank: int = -1

    @property
    def timings(self) -> DDR4Timings:
        return self._t

    def check_act(self, bank: int, now: float) -> None:
        self._check_ref_quiet(now, "ACT")
        last_pre = self._last_pre.get(bank)
        if last_pre is not None and now - last_pre < self._t.tRP - _EPS:
            raise TimingViolationError(
                f"tRP violation on bank {bank}: ACT at {now:.1f} ns, "
                f"only {now - last_pre:.1f} ns after PRE (tRP={self._t.tRP})"
            )
        # ACT-to-ACT spacing across banks (tRRD_S / tRRD_L by bank group).
        if self._last_act_bank >= 0 and self._last_act_bank != bank:
            same_group = (
                self._last_act_bank // self._t.banks_per_group
                == bank // self._t.banks_per_group
            )
            spacing = self._t.tRRD_L if same_group else self._t.tRRD_S
            if now - self._last_act_any < spacing - _EPS:
                name = "tRRD_L" if same_group else "tRRD_S"
                raise TimingViolationError(
                    f"{name} violation: ACT to bank {bank} at {now:.1f} ns, "
                    f"only {now - self._last_act_any:.1f} ns after the ACT "
                    f"to bank {self._last_act_bank} ({name}={spacing})"
                )
        # Rolling four-activate window (tFAW).
        if len(self._recent_acts) == 4:
            oldest = self._recent_acts[0]
            if now - oldest < self._t.tFAW - _EPS:
                raise TimingViolationError(
                    f"tFAW violation: 5th ACT at {now:.1f} ns, only "
                    f"{now - oldest:.1f} ns after the 4th-last ACT "
                    f"(tFAW={self._t.tFAW})"
                )
            self._recent_acts.pop(0)
        self._recent_acts.append(now)
        self._last_act_any = now
        self._last_act_bank = bank
        self._last_act[bank] = now

    def check_pre(self, bank: int, now: float) -> None:
        self._check_ref_quiet(now, "PRE")
        last_act = self._last_act.get(bank)
        if last_act is not None and now - last_act < self._t.tRAS - _EPS:
            raise TimingViolationError(
                f"tRAS violation on bank {bank}: PRE at {now:.1f} ns, "
                f"row open only {now - last_act:.1f} ns (tRAS={self._t.tRAS})"
            )
        self._last_pre[bank] = now

    def check_column(self, bank: int, now: float, what: str) -> None:
        self._check_ref_quiet(now, what)
        last_act = self._last_act.get(bank)
        if last_act is not None and now - last_act < self._t.tRCD - _EPS:
            raise TimingViolationError(
                f"tRCD violation on bank {bank}: {what} at {now:.1f} ns, "
                f"only {now - last_act:.1f} ns after ACT (tRCD={self._t.tRCD})"
            )

    def check_ref(self, now: float) -> float:
        """Validate a REF and return the time at which it completes."""
        self._check_ref_quiet(now, "REF")
        self._ref_done = now + self._t.tRFC
        return self._ref_done

    def shift_bank_history(self, bank: int, delta: float) -> None:
        """Move ``bank``'s ACT/PRE history and the tFAW window ``delta`` ns
        later, as if the commands that produced them had been issued
        that much later.

        Used by the interpreter's loop fast-forward: once the tFAW window
        and the last ACT hold only one loop's commands on ``bank``, the
        checker state after ``m`` more identical iterations is the
        current state shifted by ``m`` periods.
        """
        if bank in self._last_act:
            self._last_act[bank] += delta
        if bank in self._last_pre:
            self._last_pre[bank] += delta
        self._recent_acts = [t + delta for t in self._recent_acts]
        self._last_act_any += delta

    def _check_ref_quiet(self, now: float, what: str) -> None:
        if now < self._ref_done - _EPS:
            raise TimingViolationError(
                f"tRFC violation: {what} at {now:.1f} ns while refresh "
                f"completes at {self._ref_done:.1f} ns"
            )


def max_activation_rate(
    timings: DDR4Timings = DEFAULT_TIMINGS, n_banks: int = 1
) -> float:
    """Peak sustainable ACT rate (activations per ns).

    Single bank: one ACT per ``tRC = tRAS + tRP``.  Across banks the
    binding constraints are ``tRRD`` spacing and the four-ACT ``tFAW``
    window; the JEDEC rate ceiling is what bounds how many hammer
    activations fit in a refresh window no matter how the attack is
    spread.
    """
    if n_banks < 1:
        raise ValueError("n_banks must be positive")
    t_rc = timings.tRAS + timings.tRP
    if n_banks == 1:
        return 1.0 / t_rc
    per_faw = 4.0 / timings.tFAW
    per_rrd = 1.0 / timings.tRRD_L
    per_banks = n_banks / t_rc
    return min(per_faw, per_rrd, per_banks)


def max_activations_per_refresh_window(
    timings: DDR4Timings = DEFAULT_TIMINGS, n_banks: int = 1
) -> int:
    """Upper bound on ACTs any pattern can issue within ``tREFW``.

    The RowHammer security margin: a counting mitigation whose threshold
    exceeds this bound can never fire; the paper's ACmin values are
    meaningful precisely because they sit far below it.
    """
    return int(timings.tREFW * max_activation_rate(timings, n_banks))
