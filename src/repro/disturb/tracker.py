"""Command-level disturbance accumulation.

The :class:`DisturbanceTracker` is attached to a simulated DRAM bank and is
notified of every aggressor activation (on precharge, when the actual
row-open time is known).  It maintains two non-negative accumulators per
victim cell -- hammer charge *gain* and press charge *loss* -- and decides
which stored bits have flipped when the row is read back.

This is the "honest" execution path: patterns compiled to DRAM Bender
programs drive it one activation at a time, except that the interpreter
fast-forwards observer-free hammer loops: it records one iteration's
deposits (:meth:`DisturbanceTracker.start_recording`) and adds them ``m``
times at once (:meth:`DisturbanceTracker.repeat_deposits`).  The
closed-form fast path in :mod:`repro.core.acmin` computes the same
quantities analytically; the test suite asserts the two agree.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.constants import CHARACTERIZATION_TEMPERATURE_C
from repro.disturb.model import DisturbanceModel
from repro.disturb.population import VictimRowCells

#: Distinct ``(t_on, temperature)`` magnitude sets kept per tracker; a
#: sweep of on-times or a drifting temperature just refills the cache.
_MAGNITUDE_CACHE_SIZE = 256


class DisturbanceTracker:
    """Accumulates read disturbance on victim rows of one bank.

    Args:
        model: the disturbance model supplying per-activation magnitudes.
        cells_for_row: provider of the per-cell susceptibility arrays of a
            physical row (typically a closure over the chip's population
            parameters).
        n_rows: number of rows in the bank (victims outside are ignored).
    """

    def __init__(
        self,
        model: DisturbanceModel,
        cells_for_row: Callable[[int], VictimRowCells],
        n_rows: int,
    ) -> None:
        self._model = model
        self._cells_for_row = cells_for_row
        self._n_rows = n_rows
        self._gain: Dict[int, np.ndarray] = {}
        self._loss: Dict[int, np.ndarray] = {}
        #: Model magnitudes per ``(t_on, temperature_c)``: a hammer loop
        #: re-asks the same few on-times on every activation.
        self._magnitudes: Dict[Tuple[float, float], Tuple[float, ...]] = {}
        #: Deposits since :meth:`start_recording` (victim -> [gain, loss]).
        self._record: Optional[Dict[int, List[np.ndarray]]] = None

    # ------------------------------------------------------------------ events

    def on_activation(
        self,
        aggressor_row: int,
        t_on: float,
        solo: bool,
        temperature_c: float = CHARACTERIZATION_TEMPERATURE_C,
    ) -> None:
        """Record one aggressor activation of duration ``t_on`` ns.

        ``solo`` marks a back-to-back re-activation of the same row
        (single-sided pattern), which weakens the hammer kick and applies
        the cell-dependent solo press efficiency -- see
        :mod:`repro.disturb.model`.
        """
        h, p, alpha, solo_gamma = self._magnitudes_at(t_on, temperature_c)
        gamma = solo_gamma if solo else 1.0
        delta = self._model.solo_hammer_factor if solo else 1.0
        below = aggressor_row - 1
        above = aggressor_row + 1
        for victim, agg_above in ((below, True), (above, False)):
            if not 0 <= victim < self._n_rows:
                continue
            cells = self._cells_for_row(victim)
            if agg_above:
                # The aggressor sits *above* this victim: weak press coupling.
                gain = cells.g_h_hi * h
                loss = cells.g_p_hi * alpha * p
            else:
                # Aggressor *below* the victim: dominant press coupling.
                gain = cells.g_h_lo * h
                loss = cells.g_p_lo * p
            if solo:
                gain = gain * delta * cells.solo_hammer_mod
                loss = loss * gamma**cells.solo_press_exp
            self._gain_acc(victim, cells)[:] += gain
            self._loss_acc(victim, cells)[:] += loss
            if self._record is not None:
                # ``gain``/``loss`` are fresh arrays: the record owns them.
                sums = self._record.get(victim)
                if sums is None:
                    self._record[victim] = [gain, loss]
                else:
                    sums[0] += gain
                    sums[1] += loss

    # --------------------------------------------------------- fast-forward

    def start_recording(self) -> None:
        """Start summing deposits per victim, in issue order."""
        self._record = {}

    def stop_recording(self) -> Dict[int, List[np.ndarray]]:
        """Stop recording; return ``{victim: [gain, loss]}`` deposited
        since :meth:`start_recording`."""
        record, self._record = self._record, None
        return record

    def repeat_deposits(self, deposits: Dict[int, List[np.ndarray]], times: int) -> None:
        """Add ``times`` more copies of recorded ``deposits`` at once.

        Each accumulator gets ``+= times * D`` -- equal to ``times``
        repeated ``+= D`` up to floating-point rounding.  The victims must
        not have been reset since the deposits were recorded.
        """
        for victim, (gain, loss) in deposits.items():
            self._gain[victim] += times * gain
            self._loss[victim] += times * loss

    def reset(self, rows: Iterable[int] = None) -> None:
        """Clear accumulated disturbance (all rows, or a subset).

        Used when rows are rewritten/refreshed: restoring the charge of a
        row erases its accumulated disturbance.
        """
        if rows is None:
            self._gain.clear()
            self._loss.clear()
            return
        for row in rows:
            self._gain.pop(row, None)
            self._loss.pop(row, None)

    # ----------------------------------------------------------------- queries

    def is_disturbed(self, row: int) -> bool:
        """Whether ``row`` holds any disturbance since its last reset."""
        return row in self._gain or row in self._loss

    def disturbed_rows(self) -> Iterable[int]:
        """Rows that have received any disturbance since the last reset."""
        return sorted(set(self._gain) | set(self._loss))

    def flip_mask(self, row: int, stored_bits: np.ndarray) -> np.ndarray:
        """Boolean mask of cells in ``row`` whose stored bit has flipped.

        A *discharged* cell flips when its accumulated hammer gain crosses
        its threshold; a *charged* cell flips when its accumulated press
        loss does.
        """
        cells = self._cells_for_row(row)
        gain = self._gain.get(row)
        loss = self._loss.get(row)
        flips = np.zeros(cells.n_cells, dtype=bool)
        if gain is None and loss is None:
            return flips
        charged = cells.charged_mask(stored_bits)
        if gain is not None:
            flips |= ~charged & (gain >= cells.theta)
        if loss is not None:
            flips |= charged & (loss >= cells.theta)
        return flips

    # ----------------------------------------------------------------- helpers

    def _magnitudes_at(self, t_on: float, temperature_c: float) -> Tuple[float, ...]:
        key = (t_on, temperature_c)
        values = self._magnitudes.get(key)
        if values is None:
            if len(self._magnitudes) >= _MAGNITUDE_CACHE_SIZE:
                self._magnitudes.clear()
            model = self._model
            values = self._magnitudes[key] = (
                model.hammer_kick(temperature_c),
                model.press_loss(t_on, temperature_c),
                model.alpha(t_on),
                model.solo_press_gamma(t_on),
            )
        return values

    def _gain_acc(self, row: int, cells: VictimRowCells) -> np.ndarray:
        acc = self._gain.get(row)
        if acc is None:
            acc = self._gain[row] = np.zeros(cells.n_cells)
        return acc

    def _loss_acc(self, row: int, cells: VictimRowCells) -> np.ndarray:
        acc = self._loss.get(row)
        if acc is None:
            acc = self._loss[row] = np.zeros(cells.n_cells)
        return acc
