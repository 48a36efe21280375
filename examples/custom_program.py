"""Writing your own programs against the NCPU's custom RISC-V extension.

Shows the assembler (labels, pseudo-instructions, the five custom NCPU
instructions), the disassembler, pipeline statistics, and two NCPU cores
communicating through the shared incoherent L2 with ``sw_l2``/``lw_l2``.

Run:  python examples/custom_program.py
"""

from repro.core import NCPUSoC
from repro.cpu import run_program
from repro.isa import assemble, disassemble

# ---- assembling and inspecting --------------------------------------------
source = """
    # compute the 10th Fibonacci number
    li   a0, 0
    li   a1, 1
    li   t0, 10
fib:
    add  t1, a0, a1
    mv   a0, a1
    mv   a1, t1
    addi t0, t0, -1
    bnez t0, fib
    ebreak
"""
program = assemble(source)
print("disassembly:")
for line in disassemble(program.words[:6]):
    print("  " + line)

cpu, result = run_program(program)
stats = result.stats
print(f"\nfib(10) = {cpu.regs.read(10)}")
print(f"cycles={stats.cycles} instructions={stats.instructions} "
      f"IPC={stats.ipc:.3f} stalls={stats.stalls} flush-slots={stats.flushes}")
print("instruction mix:", dict(stats.instr_counts))

# ---- two cores talking through the shared L2 ------------------------------
soc = NCPUSoC(n_cores=2)

producer = assemble("""
    li   a0, 0
    li   a1, 1
    li   t0, 16
loop:
    add  t1, a0, a1
    mv   a0, a1
    mv   a1, t1
    addi t0, t0, -1
    bnez t0, loop
    sw_l2 a0, 0x80(zero)    # publish fib(18) to the global L2
    li   a0, 1
    sw_l2 a0, 0x84(zero)    # set the ready flag
    ebreak
""")

consumer = assemble("""
wait:
    lw_l2 t0, 0x84(zero)    # software-managed synchronization
    beqz  t0, wait
    lw_l2 a0, 0x80(zero)
    slli  a0, a0, 1         # double it, because we can
    ebreak
""")

soc.core(0).run_cpu_program(producer)
soc.core(1).run_cpu_program(consumer)
value = soc.core(1).registers.read(10)
print(f"\ncore1 read fib(18)={value // 2} from L2 and doubled it to {value}")
print(f"L2 traffic: core0 wrote {soc.core(0).env.l2_writes} words, "
      f"core1 issued {soc.core(1).env.l2_reads} reads")
