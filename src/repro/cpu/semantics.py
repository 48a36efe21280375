"""Instruction execution semantics shared by the functional ISS and pipeline.

Keeping the EX-stage math in one place guarantees the cycle-accurate pipeline
and the golden-model ISS can never disagree about *what* an instruction does,
only about *when* it happens.

:data:`EX_TABLE` maps each mnemonic to a factory that compiles one
instruction's immediate into an EX closure ``(a, b, pc) -> (alu, redirect)``:
``a``/``b`` are the unsigned 32-bit operand values, ``alu`` is the ALU output
(the rd value for ALU ops, the effective address for memory ops, the link
value for jumps) and ``redirect`` is the new PC of a taken control transfer,
else ``None``.  :func:`slot_for` wraps that closure with the other per-word
facts a simulator needs, computed once per instruction word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple

from repro.isa.instructions import DecodedInstr, decode

#: bytes moved by each load/store mnemonic
MEM_SIZES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lw_l2": 4,
             "sb": 1, "sh": 2, "sw": 4, "sw_l2": 4}

#: loads that sign-extend their result
SIGNED_LOADS = frozenset({"lb", "lh"})

_M = 0xFFFFFFFF
#: the sign bit: ``x ^ _S`` orders unsigned 32-bit values as signed ones,
#: and ``(x ^ _S) - _S`` is the signed value
_S = 0x80000000

ExFn = Callable[[int, int, int], Tuple[int, Optional[int]]]

EX_TABLE = {
    "lui": lambda i: lambda a, b, pc: (i & _M, None),
    "auipc": lambda i: lambda a, b, pc: ((pc + i) & _M, None),
    "jal": lambda i: lambda a, b, pc: ((pc + 4) & _M, (pc + i) & _M),
    "jalr": lambda i: lambda a, b, pc: ((pc + 4) & _M, (a + i) & 0xFFFFFFFE),
    "beq": lambda i: lambda a, b, pc: (0, (pc + i) & _M if a == b else None),
    "bne": lambda i: lambda a, b, pc: (0, (pc + i) & _M if a != b else None),
    "blt": lambda i: lambda a, b, pc: (
        0, (pc + i) & _M if (a ^ _S) < (b ^ _S) else None),
    "bge": lambda i: lambda a, b, pc: (
        0, (pc + i) & _M if (a ^ _S) >= (b ^ _S) else None),
    "bltu": lambda i: lambda a, b, pc: (0, (pc + i) & _M if a < b else None),
    "bgeu": lambda i: lambda a, b, pc: (0, (pc + i) & _M if a >= b else None),
    "addi": lambda i: lambda a, b, pc: ((a + i) & _M, None),
    "slti": lambda i: lambda a, b, pc, k=(i & _M) ^ _S: (
        1 if (a ^ _S) < k else 0, None),
    "sltiu": lambda i: lambda a, b, pc, k=i & _M: (1 if a < k else 0, None),
    "xori": lambda i: lambda a, b, pc, k=i & _M: (a ^ k, None),
    "ori": lambda i: lambda a, b, pc, k=i & _M: (a | k, None),
    "andi": lambda i: lambda a, b, pc, k=i & _M: (a & k, None),
    "slli": lambda i: lambda a, b, pc, k=i & 0x1F: ((a << k) & _M, None),
    "srli": lambda i: lambda a, b, pc, k=i & 0x1F: (a >> k, None),
    "srai": lambda i: lambda a, b, pc, k=i & 0x1F: (
        (((a ^ _S) - _S) >> k) & _M, None),
    "add": lambda i: lambda a, b, pc: ((a + b) & _M, None),
    "sub": lambda i: lambda a, b, pc: ((a - b) & _M, None),
    "sll": lambda i: lambda a, b, pc: ((a << (b & 0x1F)) & _M, None),
    "slt": lambda i: lambda a, b, pc: (1 if (a ^ _S) < (b ^ _S) else 0, None),
    "sltu": lambda i: lambda a, b, pc: (1 if a < b else 0, None),
    "xor": lambda i: lambda a, b, pc: (a ^ b, None),
    "srl": lambda i: lambda a, b, pc: (a >> (b & 0x1F), None),
    "sra": lambda i: lambda a, b, pc: (
        (((a ^ _S) - _S) >> (b & 0x1F)) & _M, None),
    "or": lambda i: lambda a, b, pc: (a | b, None),
    "and": lambda i: lambda a, b, pc: (a & b, None),
    # the low 32 bits of a product do not depend on operand signedness
    "mul": lambda i: lambda a, b, pc: ((a * b) & _M, None),
    "ebreak": lambda i: lambda a, b, pc: (i & _M, None),
    "trans_bnn": lambda i: lambda a, b, pc: (i & _M, None),
    "trigger_bnn": lambda i: lambda a, b, pc: (i & _M, None),
    # The register payload travels on the ALU output into the transition
    # neuron addressed by the rd field (paper Fig 5c).
    "mv_neu": lambda i: lambda a, b, pc: (a, None),
}
for _name in MEM_SIZES:  # loads and stores compute their address
    EX_TABLE[_name] = EX_TABLE["addi"]


class Slot(NamedTuple):
    """One instruction word, predecoded for the simulators' run loops."""

    name: str
    ex: ExFn
    dest: int  # register written back, or -1 (none, or x0)
    src1: int  # registers read in EX; 0 (x0 reads as zero) when unused
    src2: int
    mem: int  # 0 no data access, 1 load, 2 store
    size: int  # bytes a load/store moves
    signed: bool  # the load sign-extends
    l2: bool  # the access targets the shared L2 (lw_l2/sw_l2)
    side: bool  # an NCPU side effect at commit: mv_neu, trigger_bnn, ...
    stops_fetch: bool  # ebreak/trans_bnn: nothing younger is fetched
    rd: int  # raw rd field (mv_neu's transition-neuron index)
    imm: int


#: :class:`Slot` field positions, for run loops that index a slot rather
#: than pay for a named-attribute lookup
(NAME, EX, DEST, SRC1, SRC2, MEM, SIZE, SIGNED, L2, SIDE, STOPS_FETCH, RD,
 IMM) = range(len(Slot._fields))


@lru_cache(maxsize=4096)
def slot_for(word: int) -> Slot:
    """Decode ``word`` once into a :class:`Slot`.

    Decoding is a pure function of the word, so slots are shared by every
    program and core; a bad word raises on each attempt (nothing cached).
    """
    instr = decode(word)
    spec, name = instr.spec, instr.name
    return Slot(
        name=name,
        ex=EX_TABLE[name](instr.imm),
        dest=instr.rd if spec.writes_rd and instr.rd else -1,
        src1=instr.rs1 if spec.reads_rs1 else 0,
        src2=instr.rs2 if spec.reads_rs2 else 0,
        mem=1 if spec.is_load else 2 if spec.is_store else 0,
        size=MEM_SIZES.get(name, 0),
        signed=name in SIGNED_LOADS,
        l2=name.endswith("_l2"),
        side=name in ("mv_neu", "trigger_bnn", "ebreak", "trans_bnn"),
        stops_fetch=name in ("ebreak", "trans_bnn"),
        rd=instr.rd,
        imm=instr.imm,
    )


@dataclass(frozen=True)
class ExecOutcome:
    """Result of the EX stage for one instruction.

    Attributes:
        alu: the ALU output — the rd write value for ALU ops, the effective
            address for memory ops, the link value (pc+4) for jumps.
        taken: whether a control transfer redirects the PC.
        target: the redirect target when ``taken``, else 0.
    """

    alu: int
    taken: bool = False
    target: int = 0


def execute(instr: DecodedInstr, rs1_val: int, rs2_val: int, pc: int) -> ExecOutcome:
    """Compute the EX-stage outcome of ``instr`` given its operand values."""
    ex = EX_TABLE[instr.name](instr.imm)
    alu, target = ex(rs1_val & _M, rs2_val & _M, pc)
    if target is None:
        return ExecOutcome(alu)
    return ExecOutcome(alu, taken=True, target=target)
