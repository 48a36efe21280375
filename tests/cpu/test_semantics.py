"""The compiled EX table, the slot records and the ``execute`` API."""

import pytest

from repro.cpu import ExecOutcome, execute
from repro.cpu import semantics
from repro.cpu.semantics import EX_TABLE, Slot, slot_for
from repro.errors import DecodingError
from repro.isa import assemble
from repro.isa.instructions import SPECS, decode


def decoded(line):
    return decode(assemble(line).words[0])


def test_every_instruction_has_semantics():
    assert {spec.name for spec in SPECS} == set(EX_TABLE)


def test_field_positions_match_the_slot():
    positions = [getattr(semantics, field.upper()) for field in Slot._fields]
    assert positions == list(range(len(Slot._fields)))


@pytest.mark.parametrize("line, a, b, pc, expected", [
    ("add a0, a1, a2", 5, -7, 0, ExecOutcome(0xFFFFFFFE)),
    ("mul a0, a1, a2", -3, 7, 0, ExecOutcome(0xFFFFFFEB)),
    ("sra a0, a1, a2", -16, 2, 0, ExecOutcome(0xFFFFFFFC)),
    ("slt a0, a1, a2", -1, 0, 0, ExecOutcome(1)),
    ("sltu a0, a1, a2", -1, 0, 0, ExecOutcome(0)),
    ("slti a0, a1, -1", -2, 0, 0, ExecOutcome(1)),
    ("blt a1, a2, 8", -1, 0, 0x40, ExecOutcome(0, taken=True, target=0x48)),
    ("bge a1, a2, 8", -1, 0, 0x40, ExecOutcome(0)),
    ("jalr a0, 3(a1)", 0x100, 0, 0x40, ExecOutcome(0x44, taken=True,
                                                   target=0x102)),
    ("lw a0, -4(a1)", 0x100, 0, 0, ExecOutcome(0xFC)),
])
def test_execute_masks_operands_and_reports_redirects(line, a, b, pc,
                                                      expected):
    assert execute(decoded(line), a, b, pc) == expected


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
