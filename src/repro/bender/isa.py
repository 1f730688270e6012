"""Command ISA for the simulated DRAM Bender infrastructure.

Programs are trees of primitive instructions and counted loops, mirroring
the loop-structured programs that DRAM Bender/SoftMC hosts upload to the
FPGA.  Instructions carry no timestamps; simulated time advances only
through explicit ``WAIT`` instructions, so the programmer controls row-open
times exactly -- the property the paper's methodology depends on.

Primitive instructions:

========  =======================  ============================================
opcode    operands                 semantics
========  =======================  ============================================
``ACT``   bank, row                open ``row`` in ``bank``
``PRE``   bank                     close the open row of ``bank``
``RD``    bank                     read the open row (result collected)
``WR``    bank, data_id            write payload ``data_id`` to the open row
``REF``   --                       refresh step (advances tRFC; see softmc)
``WAIT``  nanoseconds              advance simulated time
========  =======================  ============================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple, Union

from repro.errors import ProgramError


class Opcode(enum.Enum):
    """Primitive DRAM Bender opcodes."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    WAIT = "WAIT"


@dataclass(frozen=True)
class Instruction:
    """One primitive instruction.

    ``operands`` depend on the opcode; see the module docstring.
    """

    opcode: Opcode
    operands: Tuple = ()

    def __post_init__(self) -> None:
        expected = {
            Opcode.ACT: 2,
            Opcode.PRE: 1,
            Opcode.RD: 1,
            Opcode.WR: 2,
            Opcode.REF: 0,
            Opcode.WAIT: 1,
        }[self.opcode]
        if len(self.operands) != expected:
            raise ProgramError(
                f"{self.opcode.value} expects {expected} operands, "
                f"got {len(self.operands)}"
            )
        if self.opcode is Opcode.WAIT and self.operands[0] < 0:
            raise ProgramError("WAIT duration must be non-negative")


Node = Union[Instruction, "Loop"]


@dataclass(frozen=True)
class Loop:
    """A counted loop over a body of nodes (loops may nest)."""

    count: int
    body: Tuple[Node, ...]

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ProgramError("loop count must be non-negative")


@dataclass
class Program:
    """A DRAM Bender program: a node tree plus a write-payload table.

    Payloads are registered once and referenced by id from ``WR``
    instructions, so a million-iteration hammer loop stays tiny.
    """

    nodes: List[Node] = field(default_factory=list)
    payloads: List = field(default_factory=list)

    def add_payload(self, bits) -> int:
        """Register a row-write payload; returns its ``data_id``."""
        self.payloads.append(bits)
        return len(self.payloads) - 1

    def payload(self, data_id: int):
        try:
            return self.payloads[data_id]
        except IndexError:
            raise ProgramError(f"undefined payload id {data_id}") from None

    def flat(self) -> Iterator[Instruction]:
        """Yield primitive instructions with loops unrolled (lazily)."""
        yield from flatten(self.nodes)

    def static_instruction_count(self) -> int:
        """Number of nodes before unrolling (program size, not runtime)."""
        return _count_nodes(self.nodes)

    def dynamic_instruction_count(self) -> int:
        """Number of primitive instructions after unrolling."""
        return _dynamic_count(self.nodes)


def flatten(nodes) -> Iterator[Instruction]:
    """Yield the primitive instructions of ``nodes``, loops unrolled."""
    for node in nodes:
        if isinstance(node, Instruction):
            yield node
        elif isinstance(node, Loop):
            for _ in range(node.count):
                yield from flatten(node.body)
        else:
            raise ProgramError(f"invalid program node {node!r}")


def _count_nodes(nodes) -> int:
    total = 0
    for node in nodes:
        if isinstance(node, Instruction):
            total += 1
        elif isinstance(node, Loop):
            total += _count_nodes(node.body)
        else:
            raise ProgramError(f"invalid program node {node!r}")
    return total


def _dynamic_count(nodes) -> int:
    total = 0
    for node in nodes:
        if isinstance(node, Instruction):
            total += 1
        elif isinstance(node, Loop):
            total += node.count * _dynamic_count(node.body)
        else:
            raise ProgramError(f"invalid program node {node!r}")
    return total
