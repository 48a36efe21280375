"""The compiled EX table and the slot records every CPU simulator shares."""

import pytest

from repro.cpu import FastCPU, FunctionalCPU, PipelinedCPU
from repro.cpu import semantics
from repro.cpu.semantics import EX_TABLE, Slot, slot_for
from repro.errors import DecodingError
from repro.isa import assemble
from repro.isa.instructions import SPECS


def test_every_instruction_has_semantics():
    assert {spec.name for spec in SPECS} == set(EX_TABLE)


def test_field_positions_match_the_slot():
    positions = [getattr(semantics, field.upper()) for field in Slot._fields]
    assert positions == list(range(len(Slot._fields)))


@pytest.mark.parametrize("line, a, b, pc, expected", [
    ("add a0, a1, a2", 5, -7, 0, (0xFFFFFFFE, None)),
    ("mul a0, a1, a2", -3, 7, 0, (0xFFFFFFEB, None)),
    ("sra a0, a1, a2", -16, 2, 0, (0xFFFFFFFC, None)),
    ("slt a0, a1, a2", -1, 0, 0, (1, None)),
    ("sltu a0, a1, a2", -1, 0, 0, (0, None)),
    ("slti a0, a1, -1", -2, 0, 0, (1, None)),
    ("blt a1, a2, 8", -1, 0, 0x40, (0, 0x48)),
    ("bge a1, a2, 8", -1, 0, 0x40, (0, None)),
    ("jalr a0, 3(a1)", 0x100, 0, 0x40, (0x44, 0x102)),
    ("lw a0, -4(a1)", 0x100, 0, 0, (0xFC, None)),
])
def test_slot_ex_computes_alu_and_redirect(line, a, b, pc, expected):
    slot = slot_for(assemble(line).words[0])
    assert slot.ex(a & 0xFFFFFFFF, b & 0xFFFFFFFF, pc) == expected


@pytest.fixture
def patched_xor(monkeypatch):
    """``xor`` redefined in the EX table; slots rebuilt before and after."""
    monkeypatch.setitem(EX_TABLE, "xor",
                        lambda imm: lambda a, b, pc: (0xC0FFEE, None))
    slot_for.cache_clear()
    yield
    slot_for.cache_clear()


def test_every_simulator_computes_from_the_ex_table(patched_xor):
    program = assemble("li a0, 6\nli a1, 3\nxor a2, a0, a1\nebreak")
    cpus = [FunctionalCPU(program), PipelinedCPU(program), FastCPU(program)]
    for cpu in cpus:
        assert cpu.run().stop_reason == "halt"
    assert [cpu.regs.read(12) for cpu in cpus] == [0xC0FFEE] * 3


def test_slot_describes_the_word():
    slot = slot_for(assemble("lb a0, 3(a1)").words[0])
    assert (slot.name, slot.dest, slot.src1, slot.src2) == ("lb", 10, 11, 0)
    assert (slot.mem, slot.size, slot.signed, slot.l2) == (1, 1, True, False)
    store = slot_for(assemble("sw_l2 a0, 0(a1)").words[0])
    assert (store.dest, store.src1, store.src2, store.mem, store.l2) == (
        -1, 11, 10, 2, True)
    assert slot_for(assemble("addi zero, a0, 1").words[0]).dest == -1
    assert slot_for(assemble("trans_bnn").words[0]).stops_fetch


def test_bad_word_raises_every_time():
    for _ in range(2):
        with pytest.raises(DecodingError):
            slot_for(0xFFFFFFFF)
