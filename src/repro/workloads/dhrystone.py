"""A Dhrystone-like synthetic integer benchmark (paper Table 2).

The original Dhrystone mixes record assignments, string copies/compares,
integer arithmetic, conditionals, and function calls in fixed proportions.
This kernel reproduces that mix in RV32I assembly so the simulator can
measure a cycles-per-iteration figure; :mod:`repro.power.metrics` converts
it into DMIPS/MHz and DMIPS/mW exactly as the paper's Table 2 does
(1 DMIPS == 1757 Dhrystones/s).

The absolute score depends on this kernel's size the same way real
Dhrystone scores depend on the compiler; the paper's NCPU reports
0.86 DMIPS/MHz (~660 cycles/iteration) and ours lands in the same band.
"""

from __future__ import annotations

from repro.workloads import layout

#: scratch record locations (8-word "records", 32-byte strings)
RECORD_A = layout.RAW_BASE
RECORD_B = layout.RAW_BASE + 0x40
STRING_A = layout.RAW_BASE + 0x80
STRING_B = layout.RAW_BASE + 0xC0
RESULT_SLOT = layout.RAW_BASE + 0x100


def dhrystone_asm(iterations: int = 50) -> str:
    """The benchmark program; leaves a checksum in ``RESULT_SLOT``."""
    return f"""
    # ---- Dhrystone-like synthetic benchmark, {iterations} iterations
        li sp, {layout.SCRATCH0_BASE}
        li s0, {RECORD_A}
        li s1, {RECORD_B}
        li s2, {STRING_A}
        li s3, {STRING_B}
        li s4, 0                 # iteration counter
        li s5, {iterations}
        li s7, 0                 # checksum

        # initialize the records and strings
        li t0, 0
    init:
        slli t1, t0, 2
        add a0, s0, t1
        addi t2, t0, 17
        sw t2, 0(a0)
        add a0, s2, t1
        addi t2, t0, 65          # 'A' + i
        sw t2, 0(a0)
        add a0, s3, t1
        sw t2, 0(a0)
        addi t0, t0, 1
        li t1, 8
        blt t0, t1, init

    main_loop:
        # Proc1/Proc3: record assignments (two 8-word copies A <-> B)
        call proc_record
        call proc_record
        # Proc6-style pointer chase over the record (twice, plus another
        # record refresh, matching real Dhrystone's access-heavy profile)
        call proc_scan
        add s7, s7, a0
        call proc_record
        call proc_scan
        add s7, s7, a0
        # string copy (8 words) and compare, twice (Str_Comp dominates
        # real Dhrystone's profile)
        call proc_strcpy
        call proc_strcmp
        add s7, s7, a0           # fold the compare result
        call proc_strcpy
        call proc_strcmp
        add s7, s7, a0
        # integer arithmetic block (Proc7/Func1 style)
        addi t0, s4, 2
        addi t1, s4, 3
        add t2, t0, t1
        sub t3, t2, s4
        slli t4, t3, 2
        xor t5, t4, t0
        and t6, t5, t1
        or t2, t6, t3
        srai t2, t2, 1
        add s7, s7, t2
        # conditional chain (Func2/Func3 style)
        andi t0, s4, 3
        beqz t0, case_zero
        li t1, 1
        beq t0, t1, case_one
        addi s7, s7, 5
        j case_done
    case_zero:
        addi s7, s7, 1
        j case_done
    case_one:
        addi s7, s7, 3
    case_done:
        addi s4, s4, 1
        blt s4, s5, main_loop

        li a1, {RESULT_SLOT}
        sw s7, 0(a1)
        ebreak

    proc_record:
        lw t0, 0(s0)
        sw t0, 0(s1)
        lw t0, 4(s0)
        sw t0, 4(s1)
        lw t0, 8(s0)
        sw t0, 8(s1)
        lw t0, 12(s0)
        sw t0, 12(s1)
        lw t0, 16(s0)
        sw t0, 16(s1)
        lw t0, 20(s0)
        sw t0, 20(s1)
        lw t0, 24(s0)
        sw t0, 24(s1)
        lw t0, 28(s0)
        addi t0, t0, 1           # record version bump
        sw t0, 28(s1)
        ret

    proc_scan:
        # walk the record accumulating a checksum (load-heavy inner loop)
        li t0, 0
        li a0, 0
    scan_loop:
        slli t1, t0, 2
        add a1, s1, t1
        lw t2, 0(a1)
        add a0, a0, t2
        andi a0, a0, 0xff
        addi t0, t0, 1
        li t1, 8
        blt t0, t1, scan_loop
        ret

    proc_strcpy:
        li t0, 0
    strcpy_loop:
        slli t1, t0, 2
        add a0, s2, t1
        lw t2, 0(a0)
        add a0, s3, t1
        sw t2, 0(a0)
        addi t0, t0, 1
        li t1, 8
        blt t0, t1, strcpy_loop
        ret

    proc_strcmp:
        li t0, 0
        li a0, 0
    strcmp_loop:
        slli t1, t0, 2
        add a1, s2, t1
        lw t2, 0(a1)
        add a1, s3, t1
        lw t3, 0(a1)
        bne t2, t3, strcmp_diff
        addi t0, t0, 1
        li t1, 8
        blt t0, t1, strcmp_loop
        li a0, 1                 # equal
        ret
    strcmp_diff:
        li a0, 0
        ret
    """


def reference_checksum(iterations: int = 50) -> int:
    """Python model of the benchmark's checksum (for verification)."""
    # the record after copying: A = [17..24], B[7] bumped to 25
    record_b = list(range(17, 24)) + [25]
    scan = 0
    for value in record_b:
        scan = (scan + value) & 0xFF
    checksum = 0
    for i in range(iterations):
        checksum += 2 * scan  # two proc_scans over the copied record
        checksum += 2  # two strcmps always find the strings equal
        t2 = (i + 2) + (i + 3)
        t3 = t2 - i
        t4 = (t3 << 2) & 0xFFFFFFFF
        t5 = t4 ^ (i + 2)
        t6 = t5 & (i + 3)
        t2b = t6 | t3
        checksum += t2b >> 1
        selector = i & 3
        if selector == 0:
            checksum += 1
        elif selector == 1:
            checksum += 3
        else:
            checksum += 5
    return checksum & 0xFFFFFFFF


def measure_cycles_per_iteration(iterations: int = 50) -> float:
    """Run the benchmark on the CPU runtime (pipeline timing)."""
    from repro.cpu import run_program
    from repro.isa import assemble

    program = assemble(dhrystone_asm(iterations))
    _, result = run_program(program)
    if result.stop_reason != "halt":
        raise RuntimeError(f"benchmark did not halt: {result.stop_reason}")
    # subtract the fixed setup portion by measuring two lengths
    program2 = assemble(dhrystone_asm(iterations * 2))
    _, result2 = run_program(program2)
    return (result2.stats.cycles - result.stats.cycles) / iterations
