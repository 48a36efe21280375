"""MiBench-style embedded kernels (paper Fig 11a tests "multiple embedded
programs from the MiBench benchmark suite").

Each kernel is a self-contained RV32I program with a numpy/python golden
model; ``run_kernel`` executes it on the CPU runtime and checks
the result, returning the run statistics (used by the Fig 11a power-overhead
experiment, which needs each program's retired-instruction mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.cpu import FlatMemory, run_program
from repro.cpu.env import ExecStats
from repro.isa import assemble
from repro.workloads import layout

DATA = layout.RAW_BASE
OUT = layout.SCRATCH0_BASE


@dataclass
class KernelResult:
    name: str
    stats: ExecStats
    passed: bool


# ---------------------------------------------------------------------------
# crc32 (telecomm/CRC32): bitwise, polynomial 0xEDB88320
# ---------------------------------------------------------------------------

def crc32_reference(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def crc32_asm(n_bytes: int) -> str:
    return f"""
        li s0, {DATA}
        li s1, {n_bytes}
        li t0, -1                # crc = 0xffffffff
        li s2, 0xedb88320
        li t1, 0                 # index
    crc_byte:
        add a0, s0, t1
        lbu t2, 0(a0)
        xor t0, t0, t2
        li t3, 0
    crc_bit:
        andi t4, t0, 1
        srli t0, t0, 1
        beqz t4, crc_nopoly
        xor t0, t0, s2
    crc_nopoly:
        addi t3, t3, 1
        li t4, 8
        blt t3, t4, crc_bit
        addi t1, t1, 1
        blt t1, s1, crc_byte
        not t0, t0
        li a0, {OUT}
        sw t0, 0(a0)
        ebreak
    """


# ---------------------------------------------------------------------------
# qsort stand-in (auto/qsort): insertion sort of n words
# ---------------------------------------------------------------------------

def sort_asm(n: int) -> str:
    return f"""
        li s0, {DATA}
        li t0, 1                 # i
    sort_outer:
        slli t1, t0, 2
        add a0, s0, t1
        lw t2, 0(a0)             # key
        addi t3, t0, -1          # j
    sort_inner:
        bltz t3, sort_place
        slli t1, t3, 2
        add a0, s0, t1
        lw t4, 0(a0)
        ble t4, t2, sort_place
        sw t4, 4(a0)
        addi t3, t3, -1
        j sort_inner
    sort_place:
        addi t3, t3, 1
        slli t1, t3, 2
        add a0, s0, t1
        sw t2, 0(a0)
        addi t0, t0, 1
        li t1, {n}
        blt t0, t1, sort_outer
        ebreak
    """


# ---------------------------------------------------------------------------
# FIR filter (telecomm/FFT stand-in): 8-tap integer FIR over n samples
# ---------------------------------------------------------------------------

FIR_TAPS = [1, 3, 5, 7, 7, 5, 3, 1]


def fir_reference(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.int64)
    out = np.zeros(len(samples) - len(FIR_TAPS) + 1, dtype=np.int64)
    for i in range(len(out)):
        acc = sum(int(samples[i + j]) * tap for j, tap in enumerate(FIR_TAPS))
        out[i] = (acc >> 5) & 0xFFFFFFFF
    return out


def fir_asm(n_samples: int, taps_base: int = layout.SCRATCH1_BASE) -> str:
    n_out = n_samples - len(FIR_TAPS) + 1
    return f"""
        li s0, {DATA}
        li s1, {OUT}
        li s2, {taps_base}
        li t0, 0                 # output index
    fir_out:
        li t1, 0                 # tap index
        li t3, 0                 # acc
    fir_tap:
        add t2, t0, t1
        slli t2, t2, 2
        add a0, s0, t2
        lw t4, 0(a0)
        slli t2, t1, 2
        add a1, s2, t2
        lw t5, 0(a1)
        mul t4, t4, t5
        add t3, t3, t4
        addi t1, t1, 1
        li t4, {len(FIR_TAPS)}
        blt t1, t4, fir_tap
        srai t3, t3, 5
        slli t2, t0, 2
        add a1, s1, t2
        sw t3, 0(a1)
        addi t0, t0, 1
        li t4, {n_out}
        blt t0, t4, fir_out
        ebreak
    """


# ---------------------------------------------------------------------------
# bitcount (auto/bitcount): SWAR popcount over n words
# ---------------------------------------------------------------------------

def bitcount_asm(n_words: int) -> str:
    return f"""
        li s0, {DATA}
        li s3, 0x55555555
        li s4, 0x33333333
        li s5, 0x0f0f0f0f
        li t6, 0                 # total
        li t0, 0
    bc_word:
        slli t1, t0, 2
        add a0, s0, t1
        lw t2, 0(a0)
        srli t3, t2, 1
        and t3, t3, s3
        sub t2, t2, t3           # pairs
        srli t3, t2, 2
        and t3, t3, s4
        and t2, t2, s4
        add t2, t2, t3           # nibbles
        srli t3, t2, 4
        add t2, t2, t3
        and t2, t2, s5           # bytes
        srli t3, t2, 8
        add t2, t2, t3
        srli t3, t2, 16
        add t2, t2, t3
        andi t2, t2, 63
        add t6, t6, t2
        addi t0, t0, 1
        li t1, {n_words}
        blt t0, t1, bc_word
        li a0, {OUT}
        sw t6, 0(a0)
        ebreak
    """


# ---------------------------------------------------------------------------
# stringsearch (office/stringsearch): naive substring search
# ---------------------------------------------------------------------------

def stringsearch_asm(haystack_len: int, needle_len: int,
                     needle_base: int = layout.SCRATCH1_BASE) -> str:
    return f"""
        li s0, {DATA}            # haystack bytes
        li s1, {needle_base}     # needle bytes
        li a2, -1                # found position
        li t0, 0                 # start
    ss_start:
        li t1, 0                 # offset
    ss_cmp:
        add a0, s0, t0
        add a0, a0, t1
        lbu t2, 0(a0)
        add a1, s1, t1
        lbu t3, 0(a1)
        bne t2, t3, ss_next
        addi t1, t1, 1
        li t4, {needle_len}
        blt t1, t4, ss_cmp
        mv a2, t0                # match
        j ss_done
    ss_next:
        addi t0, t0, 1
        li t4, {haystack_len - needle_len + 1}
        blt t0, t4, ss_start
    ss_done:
        li a0, {OUT}
        sw a2, 0(a0)
        ebreak
    """


# ---------------------------------------------------------------------------
# matmul (dense 8x8, susan/matrix stand-in)
# ---------------------------------------------------------------------------

def matmul_asm(n: int, b_base: int = layout.SCRATCH1_BASE) -> str:
    return f"""
        li s0, {DATA}            # A
        li s1, {b_base}          # B
        li s2, {OUT}             # C
        li t0, 0                 # i
    mm_i:
        li t1, 0                 # j
    mm_j:
        li t3, 0                 # acc
        li t2, 0                 # k
    mm_k:
        li t4, {n}
        mul t5, t0, t4
        add t5, t5, t2
        slli t5, t5, 2
        add a0, s0, t5
        lw t5, 0(a0)             # A[i][k]
        li t4, {n}
        mul t6, t2, t4
        add t6, t6, t1
        slli t6, t6, 2
        add a1, s1, t6
        lw t6, 0(a1)             # B[k][j]
        mul t5, t5, t6
        add t3, t3, t5
        addi t2, t2, 1
        li t4, {n}
        blt t2, t4, mm_k
        li t4, {n}
        mul t5, t0, t4
        add t5, t5, t1
        slli t5, t5, 2
        add a1, s2, t5
        sw t3, 0(a1)
        addi t1, t1, 1
        li t4, {n}
        blt t1, t4, mm_j
        addi t0, t0, 1
        li t4, {n}
        blt t0, t4, mm_i
        ebreak
    """


# ---------------------------------------------------------------------------
# dijkstra (network/dijkstra): single-source shortest paths, dense matrix
# ---------------------------------------------------------------------------

DIJKSTRA_INF = 0x3FFFFFFF


def dijkstra_reference(adjacency: np.ndarray, source: int = 0) -> np.ndarray:
    n = len(adjacency)
    dist = np.full(n, DIJKSTRA_INF, dtype=np.int64)
    dist[source] = 0
    visited = np.zeros(n, dtype=bool)
    for _ in range(n):
        candidates = [(dist[i], i) for i in range(n) if not visited[i]]
        d, u = min(candidates)
        visited[u] = True
        for v in range(n):
            weight = int(adjacency[u][v])
            if weight and dist[u] + weight < dist[v]:
                dist[v] = dist[u] + weight
    return dist


def dijkstra_asm(n: int, dist_base: int = OUT,
                 visited_base: int = layout.SCRATCH2_BASE) -> str:
    """Dense-matrix Dijkstra from node 0; adjacency at DATA (n*n words)."""
    return f"""
        li s0, {DATA}            # adjacency
        li s1, {dist_base}       # dist
        li s2, {visited_base}    # visited flags
        li s3, {DIJKSTRA_INF}
        # init dist[i] = INF, visited = 0; dist[0] = 0
        li t0, 0
    dj_init:
        slli t1, t0, 2
        add a0, s1, t1
        sw s3, 0(a0)
        add a0, s2, t1
        sw x0, 0(a0)
        addi t0, t0, 1
        li t1, {n}
        blt t0, t1, dj_init
        sw x0, 0(s1)

        li s4, 0                 # outer iteration
    dj_outer:
        # find the unvisited node with minimum distance
        li t2, -1                # best index
        mv t3, s3                # best distance = INF
        li t0, 0
    dj_scan:
        slli t1, t0, 2
        add a0, s2, t1
        lw t4, 0(a0)
        bnez t4, dj_scan_next
        add a0, s1, t1
        lw t4, 0(a0)
        bge t4, t3, dj_scan_next
        mv t3, t4
        mv t2, t0
    dj_scan_next:
        addi t0, t0, 1
        li t1, {n}
        blt t0, t1, dj_scan
        bltz t2, dj_done         # all remaining unreachable
        # mark visited
        slli t1, t2, 2
        add a0, s2, t1
        li t4, 1
        sw t4, 0(a0)
        add a0, s1, t1
        lw s5, 0(a0)             # dist[u]
        # relax every edge u -> v
        li t5, {n}
        mul t6, t2, t5
        slli t6, t6, 2
        add s6, s0, t6           # &adj[u][0]
        li t0, 0
    dj_relax:
        slli t1, t0, 2
        add a0, s6, t1
        lw t4, 0(a0)             # weight
        beqz t4, dj_relax_next
        add t4, t4, s5           # dist[u] + w
        add a1, s1, t1
        lw t5, 0(a1)
        bge t4, t5, dj_relax_next
        sw t4, 0(a1)
    dj_relax_next:
        addi t0, t0, 1
        li t1, {n}
        blt t0, t1, dj_relax
        addi s4, s4, 1
        li t1, {n}
        blt s4, t1, dj_outer
    dj_done:
        ebreak
    """


# ---------------------------------------------------------------------------
# quicksort (auto/qsort proper): recursive, exercises the call stack
# ---------------------------------------------------------------------------

def quicksort_asm(n: int, stack_top: int = layout.SCRATCH2_BASE + 0x1000) -> str:
    """Recursive Hoare-style quicksort of n words at DATA."""
    return f"""
        li sp, {stack_top}
        li a0, 0                 # lo
        li a1, {n - 1}           # hi
        call qsort
        ebreak

    qsort:
        bge a0, a1, qs_return
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        mv s0, a0                # lo
        mv s1, a1                # hi
        # pivot = data[hi]
        li t0, {DATA}
        slli t1, s1, 2
        add t1, t0, t1
        lw t2, 0(t1)             # pivot
        mv t3, s0                # store index i
        mv t4, s0                # scan index j
    qs_partition:
        bge t4, s1, qs_swap_pivot
        slli t5, t4, 2
        li t0, {DATA}
        add t5, t0, t5
        lw t6, 0(t5)
        bge t6, t2, qs_part_next
        # swap data[i] <-> data[j]
        slli a2, t3, 2
        add a2, t0, a2
        lw a3, 0(a2)
        sw t6, 0(a2)
        sw a3, 0(t5)
        addi t3, t3, 1
    qs_part_next:
        addi t4, t4, 1
        j qs_partition
    qs_swap_pivot:
        li t0, {DATA}
        slli t5, t3, 2
        add t5, t0, t5
        lw a3, 0(t5)
        sw t2, 0(t5)
        sw a3, 0(t1)
        mv s2, t3                # pivot position
        # recurse left
        mv a0, s0
        addi a1, s2, -1
        call qsort
        # recurse right
        addi a0, s2, 1
        mv a1, s1
        call qsort
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        addi sp, sp, 16
    qs_return:
        ret
    """


# ---------------------------------------------------------------------------
# FNV-1a hash (security/sha stand-in: word-mixing loop)
# ---------------------------------------------------------------------------

def fnv1a_reference(data: bytes) -> int:
    state = 0x811C9DC5
    for byte in data:
        state ^= byte
        state = (state * 0x01000193) & 0xFFFFFFFF
    return state


def fnv1a_asm(n_bytes: int) -> str:
    return f"""
        li s0, {DATA}
        li t0, 0x811c9dc5        # offset basis
        li s2, 0x01000193        # prime
        li t1, 0
    fnv_byte:
        add a0, s0, t1
        lbu t2, 0(a0)
        xor t0, t0, t2
        mul t0, t0, s2
        addi t1, t1, 1
        li t3, {n_bytes}
        blt t1, t3, fnv_byte
        li a0, {OUT}
        sw t0, 0(a0)
        ebreak
    """


# ---------------------------------------------------------------------------
# integer square root (auto/basicmath): bit-by-bit method
# ---------------------------------------------------------------------------

def isqrt_reference(values) -> list:
    return [int(np.floor(np.sqrt(float(v)))) for v in values]


def isqrt_asm(n_values: int) -> str:
    return f"""
        li s0, {DATA}
        li s1, {OUT}
        li s2, 0                 # index
    sq_value:
        slli t0, s2, 2
        add a0, s0, t0
        lw a1, 0(a0)             # x
        li t1, 0                 # result
        li t2, 0x40000000        # bit
    sq_bit:
        beqz t2, sq_store
        add t3, t1, t2           # result + bit
        srli t1, t1, 1
        bltu a1, t3, sq_next
        sub a1, a1, t3
        add t1, t1, t2
    sq_next:
        srli t2, t2, 2
        j sq_bit
    sq_store:
        slli t0, s2, 2
        add a0, s1, t0
        sw t1, 0(a0)
        addi s2, s2, 1
        li t0, {n_values}
        blt s2, t0, sq_value
        ebreak
    """


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _write_bytes(memory, base: int, data: bytes) -> None:
    for index, byte in enumerate(data):
        memory.store(base + index, byte, 1)


def run_kernel(name: str, seed: int = 0) -> KernelResult:
    """Run one named kernel on the CPU runtime and verify its output."""
    rng = np.random.default_rng(seed)
    memory = FlatMemory(size=1 << 17)

    if name == "crc32":
        data = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
        _write_bytes(memory, DATA, data)
        program = assemble(crc32_asm(len(data)))
        _, result = run_program(program, memory=memory)
        passed = memory.load(OUT, 4) == crc32_reference(data)
    elif name == "sort":
        values = rng.integers(0, 10_000, size=32)
        memory.write_words(DATA, [int(v) for v in values])
        program = assemble(sort_asm(len(values)))
        _, result = run_program(program, memory=memory)
        got = memory.read_words(DATA, len(values))
        passed = got == sorted(int(v) for v in values)
    elif name == "fir":
        samples = rng.integers(-100, 100, size=64)
        memory.write_words(DATA, [int(v) & 0xFFFFFFFF for v in samples])
        memory.write_words(layout.SCRATCH1_BASE, FIR_TAPS)
        program = assemble(fir_asm(len(samples)))
        _, result = run_program(program, memory=memory)
        expected = fir_reference(samples)
        got = memory.read_words(OUT, len(expected))
        passed = got == [int(v) for v in expected]
    elif name == "bitcount":
        words = rng.integers(0, 2 ** 32, size=48, dtype=np.uint64)
        memory.write_words(DATA, [int(w) for w in words])
        program = assemble(bitcount_asm(len(words)))
        _, result = run_program(program, memory=memory)
        passed = memory.load(OUT, 4) == sum(bin(int(w)).count("1") for w in words)
    elif name == "stringsearch":
        haystack = bytes(rng.integers(97, 123, size=128, dtype=np.uint8))
        position = int(rng.integers(20, 100))
        needle = haystack[position:position + 6]
        _write_bytes(memory, DATA, haystack)
        _write_bytes(memory, layout.SCRATCH1_BASE, needle)
        program = assemble(stringsearch_asm(len(haystack), len(needle)))
        _, result = run_program(program, memory=memory)
        expected = haystack.find(needle)
        passed = memory.load(OUT, 4) == expected
    elif name == "matmul":
        n = 8
        a = rng.integers(-20, 20, size=(n, n))
        b = rng.integers(-20, 20, size=(n, n))
        memory.write_words(DATA, [int(v) & 0xFFFFFFFF for v in a.reshape(-1)])
        memory.write_words(layout.SCRATCH1_BASE,
                           [int(v) & 0xFFFFFFFF for v in b.reshape(-1)])
        program = assemble(matmul_asm(n))
        _, result = run_program(program, memory=memory)
        expected = (a @ b).reshape(-1)
        got = memory.read_words(OUT, n * n)
        passed = got == [int(v) & 0xFFFFFFFF for v in expected]
    elif name == "dijkstra":
        n = 10
        adjacency = rng.integers(0, 10, size=(n, n))
        np.fill_diagonal(adjacency, 0)
        memory.write_words(DATA, [int(v) for v in adjacency.reshape(-1)])
        program = assemble(dijkstra_asm(n))
        _, result = run_program(program, memory=memory)
        expected = dijkstra_reference(adjacency)
        got = memory.read_words(OUT, n)
        passed = got == [int(v) for v in expected]
    elif name == "quicksort":
        values = rng.integers(0, 100_000, size=48)
        memory.write_words(DATA, [int(v) for v in values])
        program = assemble(quicksort_asm(len(values)))
        _, result = run_program(program, memory=memory)
        got = memory.read_words(DATA, len(values))
        passed = got == sorted(int(v) for v in values)
    elif name == "fnv1a":
        data = bytes(rng.integers(0, 256, size=96, dtype=np.uint8))
        _write_bytes(memory, DATA, data)
        program = assemble(fnv1a_asm(len(data)))
        _, result = run_program(program, memory=memory)
        passed = memory.load(OUT, 4) == fnv1a_reference(data)
    elif name == "isqrt":
        values = rng.integers(0, 2 ** 31, size=24)
        memory.write_words(DATA, [int(v) for v in values])
        program = assemble(isqrt_asm(len(values)))
        _, result = run_program(program, memory=memory)
        expected = isqrt_reference(values)
        got = memory.read_words(OUT, len(values))
        passed = got == expected
    else:
        raise ValueError(f"unknown kernel {name!r}")

    if result.stop_reason != "halt":
        raise RuntimeError(f"{name} did not halt: {result.stop_reason}")
    return KernelResult(name=name, stats=result.stats, passed=passed)


KERNEL_NAMES = ("crc32", "sort", "fir", "bitcount", "stringsearch", "matmul",
                "dijkstra", "quicksort", "fnv1a", "isqrt")


def run_all(seed: int = 0) -> List[KernelResult]:
    return [run_kernel(name, seed=seed) for name in KERNEL_NAMES]


def instruction_mixes(seed: int = 0) -> Dict[str, Dict[str, int]]:
    """Retired-instruction mix per kernel (for the Fig 11a experiment)."""
    return {result.name: dict(result.stats.instr_counts)
            for result in run_all(seed=seed)}
