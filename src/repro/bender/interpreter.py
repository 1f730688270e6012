"""Program interpreter: executes DRAM Bender programs against a chip.

The interpreter owns simulated time.  Commands themselves are
zero-duration (the command bus is abstracted away); only ``WAIT``
instructions and refresh cycles (``tRFC``) advance the clock.  Every
command is validated against the JEDEC timing checker before it reaches
the bank, and every ``ACT``/``REF`` is reported to registered observers
(the hook used by mitigation mechanisms such as TRR).

**Loop fast-forward.**  The interpreter walks the program tree.  A hammer
loop runs command by command for a short warm-up, until the tFAW window
and the bank's last-activated row hold only the loop's own commands
(``max(1, ceil(4 / ACTs per iteration))`` iterations).  One more
iteration runs with the tracker recording each victim's deposit, and the
remaining ``m`` iterations are applied at once: every touched
accumulator gets ``+= m * D`` (``D`` the per-iteration deposit summed in
issue order), and the clock, the timing checker's ACT/PRE history and
the bank's time stamps move ``m`` whole periods later.  ``m * D`` instead
of ``m`` repeated adds is a rounding difference only; the clock and
checker times are exact whenever the waits are exact binary fractions
(tRP, tRAS and the paper's on-times are).  A loop is fast-forwarded only
if:

* no observer is attached and the temperature is the default constant;
* its body is ``ACT``/``PRE``/``WAIT`` only, on one bank, with no nested
  loop;
* no two activated physical rows are adjacent (a victim that is also
  activated would materialize its disturbance mid-loop, e.g. half-double);
* the bank has a disturbance tracker and no retention model;
* its count exceeds the warm-up plus the recorded iteration.

Every other loop -- in particular every loop under a TRR/PARA/Graphene
observer -- runs command by command.  A loop that nests loops is
unrolled one level and its inner loops are considered on their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.bender.isa import Instruction, Loop, Opcode, Program, flatten
from repro.bender.timing import TimingChecker
from repro.constants import CHARACTERIZATION_TEMPERATURE_C
from repro.dram.chip import Chip


@dataclass
class ExecutionResult:
    """Outcome of running one program.

    Attributes:
        reads: ``(bank, row, bits)`` per RD instruction, in program order.
        elapsed_ns: simulated time consumed by the program.
        activations: total number of ACT commands executed.
        refreshes: total number of REF commands executed.
    """

    reads: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)
    elapsed_ns: float = 0.0
    activations: int = 0
    refreshes: int = 0


#: Observer signature: (event, bank, row, now_ns).  Events are "ACT"
#: (row = activated logical row), "PRE" (row = -1), and "REF"
#: (bank = row = -1).
Observer = Callable[[str, int, int, float], None]


class Interpreter:
    """Executes programs against one simulated chip.

    Args:
        chip: the device under test.
        checker: JEDEC timing validator (a fresh one is created if omitted).
        temperature: callable returning the current device temperature in
            Celsius (defaults to the paper's 50 C characterization point).
        refresh_hook: called on each REF with the completion time; the
            SoftMC session uses it to advance the refresh pointer and to
            drive TRR.
    """

    def __init__(
        self,
        chip: Chip,
        checker: Optional[TimingChecker] = None,
        temperature: Optional[Callable[[], float]] = None,
        refresh_hook: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._chip = chip
        self._checker = checker if checker is not None else TimingChecker()
        self._temperature = temperature or (lambda: CHARACTERIZATION_TEMPERATURE_C)
        self._constant_temperature = temperature is None
        self._refresh_hook = refresh_hook
        self._observers: List[Observer] = []
        self._now: float = 0.0

    # ------------------------------------------------------------- observers

    def add_observer(self, observer: Observer) -> None:
        """Register an ACT/REF observer (e.g. a TRR sampler)."""
        self._observers.append(observer)

    # ------------------------------------------------------------- execution

    @property
    def now(self) -> float:
        """Current simulated time (ns since interpreter creation)."""
        return self._now

    def run(self, program: Program) -> ExecutionResult:
        """Execute ``program`` to completion and return its result."""
        result = ExecutionResult()
        start = self._now
        self._run_nodes(program.nodes, program, result)
        result.elapsed_ns = self._now - start
        return result

    def _run_nodes(self, nodes, program: Program, result: ExecutionResult) -> None:
        """Walk a node list: fast-forward eligible loops, step the rest."""
        stepped: list = []
        for node in nodes:
            if isinstance(node, Loop):
                warmup = self._fast_forward_warmup(node)
                nested = any(isinstance(child, Loop) for child in node.body)
                if warmup is not None or nested:
                    self._step(flatten(stepped), program, result)
                    stepped = []
                    if warmup is not None:
                        self._fast_forward(node, warmup, program, result)
                    else:
                        for _ in range(node.count):
                            self._run_nodes(node.body, program, result)
                    continue
            stepped.append(node)
        self._step(flatten(stepped), program, result)

    def _step(self, instructions, program: Program, result: ExecutionResult) -> None:
        """Execute instructions one command at a time."""
        for instr in instructions:
            op = instr.opcode
            if op is Opcode.WAIT:
                self._now += instr.operands[0]
            elif op is Opcode.ACT:
                bank_idx, row = instr.operands
                self._checker.check_act(bank_idx, self._now)
                # The chip scrambles the command-bus (logical) row address
                # to a physical row internally.
                physical = self._chip.to_physical(row)
                self._chip.bank(bank_idx).activate(
                    physical, self._now, temperature_c=self._temperature()
                )
                result.activations += 1
                self._notify("ACT", bank_idx, row)
            elif op is Opcode.PRE:
                (bank_idx,) = instr.operands
                self._checker.check_pre(bank_idx, self._now)
                self._chip.bank(bank_idx).precharge(self._now)
                self._notify("PRE", bank_idx, -1)
            elif op is Opcode.RD:
                (bank_idx,) = instr.operands
                self._checker.check_column(bank_idx, self._now, "RD")
                bank = self._chip.bank(bank_idx)
                row = bank.open_row
                bits = bank.read(row, self._now)
                result.reads.append((bank_idx, row, bits))
            elif op is Opcode.WR:
                bank_idx, data_id = instr.operands
                self._checker.check_column(bank_idx, self._now, "WR")
                bank = self._chip.bank(bank_idx)
                bank.write(bank.open_row, program.payload(data_id), self._now)
            elif op is Opcode.REF:
                done = self._checker.check_ref(self._now)
                self._now = done
                result.refreshes += 1
                if self._refresh_hook is not None:
                    self._refresh_hook(self._now)
                self._notify("REF", -1, -1)
            else:  # pragma: no cover - exhaustive over Opcode
                raise AssertionError(f"unhandled opcode {op}")

    # ------------------------------------------------------------ fast-forward

    def _fast_forward_warmup(self, loop: Loop) -> Optional[int]:
        """Stepped warm-up iterations before ``loop`` can be fast-forwarded,
        or ``None`` when it must be stepped command by command.

        After ``ceil(4 / acts)`` iterations (at least one) the tFAW window
        and the bank's last-activated row hold only this loop's commands,
        so every later iteration sees the same state shifted in time.
        """
        if self._observers or not self._constant_temperature:
            return None
        banks = set()
        rows = set()
        acts = 0
        for node in loop.body:
            if not isinstance(node, Instruction):
                return None
            op = node.opcode
            if op is Opcode.ACT:
                banks.add(node.operands[0])
                rows.add(self._chip.to_physical(node.operands[1]))
                acts += 1
            elif op is Opcode.PRE:
                banks.add(node.operands[0])
            elif op is not Opcode.WAIT:
                return None
        if acts == 0 or len(banks) != 1:
            return None
        (bank_idx,) = banks
        if not 0 <= bank_idx < self._chip.n_banks:
            return None
        # An activated row next to another one would be a victim whose
        # own activations materialize (and reset) its disturbance.
        if any(row + 1 in rows for row in rows):
            return None
        bank = self._chip.bank(bank_idx)
        if bank.tracker is None or bank.retention is not None:
            return None
        warmup = max(1, -(-4 // acts))
        # Warm-up, one recorded iteration, and at least one to skip.
        return warmup if loop.count > warmup + 1 else None

    def _fast_forward(
        self, loop: Loop, warmup: int, program: Program, result: ExecutionResult
    ) -> None:
        """Step ``warmup`` iterations, record one, apply the rest at once."""
        body = loop.body
        for _ in range(warmup):
            self._step(body, program, result)
        acts = [node.operands for node in body if node.opcode is Opcode.ACT]
        bank_idx = acts[0][0]
        bank = self._chip.bank(bank_idx)
        tracker = bank.tracker
        start = self._now
        tracker.start_recording()
        try:
            self._step(body, program, result)
        finally:
            deposits = tracker.stop_recording()
        skipped = loop.count - warmup - 1
        shift = skipped * (self._now - start)
        tracker.repeat_deposits(deposits, skipped)
        self._checker.shift_bank_history(bank_idx, shift)
        bank.shift_time({self._chip.to_physical(row) for _b, row in acts}, shift)
        self._now += shift
        result.activations += skipped * len(acts)

    # ----------------------------------------------------------------- helpers

    def _notify(self, event: str, bank: int, row: int) -> None:
        for observer in self._observers:
            observer(event, bank, row, self._now)
