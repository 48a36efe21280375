"""Software BNN inference kernels for the RV32I CPU (paper Table 1).

Table 1 compares a *standalone CPU* running BNN inference in software
against the accelerator.  Two implementations are generated:

* **naive** — weights stored one int8 per byte, scalar multiply-accumulate
  (what simple compiled C looks like); the paper's standalone-CPU baseline,
* **packed** — weights and activations bit-packed, XNOR + SWAR popcount
  per 32 inputs; the optimized hand-written kernel.

Both produce exactly the same classification as :class:`repro.bnn.BNNModel`
(the unit tests prove it), and their measured cycle counts calibrate the
analytic estimates in :mod:`repro.bnn.reference`.

Memory layout (naive):  for each layer, ``fan_out*fan_in`` int8 weights then
``fan_out`` int32 biases, all layers consecutive from ``WEIGHTS_BASE``.
Activations ping-pong between two word buffers; the input activation vector
(one word per ±1 value) is written by the caller.  The predicted class index
lands in ``RESULT_BASE``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.bnn import quantize as q
from repro.bnn.model import BNNModel
from repro.workloads import layout

WEIGHTS_BASE = layout.RAW_BASE
RESULT_ADDR = layout.RESULT_BASE


def buffer_bases(model: BNNModel, implementation: str) -> Tuple[int, int, int]:
    """(act_a, act_b, scores) placed after the stored model, overlap-free."""
    if implementation == "naive":
        end = WEIGHTS_BASE
        for layer in model.layers:
            end += layer.fan_in * layer.fan_out
            end = (end + 3) & ~3
            end += 4 * layer.fan_out
    else:
        end = WEIGHTS_BASE
        for layer in model.layers:
            end += 4 * layer.fan_out * ((layer.fan_in + 31) // 32)
            end += 4 * layer.fan_out
    act_bytes = 4 * max(layer.fan_in for layer in model.layers)
    act_a = (end + 63) & ~63
    act_b = act_a + ((act_bytes + 63) & ~63)
    scores = act_b + ((act_bytes + 63) & ~63)
    return act_a, act_b, scores


# ---------------------------------------------------------------------------
# data placement
# ---------------------------------------------------------------------------

def write_naive_model(memory, model: BNNModel) -> List[Tuple[int, int]]:
    """Store int8 weights + int32 biases; returns per-layer (w_addr, b_addr)."""
    addr = WEIGHTS_BASE
    locations = []
    for layer in model.layers:
        w_addr = addr
        flat = layer.weights.reshape(-1)
        for index, value in enumerate(flat):
            memory.store(addr + index, int(value) & 0xFF, 1)
        addr += len(flat)
        addr = (addr + 3) & ~3  # word-align the biases
        b_addr = addr
        for index, bias in enumerate(layer.bias):
            memory.store(addr + 4 * index, int(bias) & 0xFFFFFFFF, 4)
        addr += 4 * len(layer.bias)
        locations.append((w_addr, b_addr))
    return locations


def write_packed_model(memory, model: BNNModel) -> List[Tuple[int, int]]:
    """Store bit-packed weights + int32 biases per layer."""
    addr = WEIGHTS_BASE
    locations = []
    for layer in model.layers:
        w_addr = addr
        packed = layer.packed_weights().reshape(-1)
        for index, word in enumerate(packed):
            memory.store(addr + 4 * index, int(word), 4)
        addr += 4 * len(packed)
        b_addr = addr
        for index, bias in enumerate(layer.bias):
            memory.store(addr + 4 * index, int(bias) & 0xFFFFFFFF, 4)
        addr += 4 * len(layer.bias)
        locations.append((w_addr, b_addr))
    return locations


def write_sign_activations(memory, x_sign: np.ndarray, base: int) -> None:
    for index, value in enumerate(np.asarray(x_sign, dtype=np.int64)):
        memory.store(base + 4 * index, int(value) & 0xFFFFFFFF, 4)


def write_packed_activations(memory, x_sign: np.ndarray, base: int) -> None:
    words = q.pack_bits(q.sign_to_bits(np.asarray(x_sign)))
    for index, word in enumerate(words):
        memory.store(base + 4 * index, int(word), 4)


# ---------------------------------------------------------------------------
# kernel generation
# ---------------------------------------------------------------------------

def naive_bnn_asm(model: BNNModel, locations: List[Tuple[int, int]],
                  bases: Tuple[int, int, int]) -> str:
    """Scalar int8 MAC inference for ``model``."""
    parts = ["    # ---- naive software BNN inference"]
    in_base, out_base, scores_base = bases
    for index, layer in enumerate(model.layers):
        w_addr, b_addr = locations[index]
        last = index == len(model.layers) - 1
        dest = scores_base if last else out_base
        parts.append(f"""
        # layer {index}: {layer.fan_in} -> {layer.fan_out}
        li s0, {w_addr}          # weight byte pointer (walks forward)
        li s1, {b_addr}
        li s2, {in_base}
        li s3, {dest}
        li t0, 0                 # neuron
    l{index}_neuron:
        slli t1, t0, 2
        add a1, s1, t1
        lw t3, 0(a1)             # acc = bias
        li t1, 0                 # input index
    l{index}_mac:
        add a0, s0, t1
        lb t4, 0(a0)             # weight (+-1)
        slli t2, t1, 2
        add a1, s2, t2
        lw t5, 0(a1)             # activation (+-1)
        mul t4, t4, t5
        add t3, t3, t4
        addi t1, t1, 1
        li t4, {layer.fan_in}
        blt t1, t4, l{index}_mac
        add s0, s0, t4           # next neuron's weight row
    """)
        if last:
            parts.append(f"""
        slli t1, t0, 2
        add a1, s3, t1
        sw t3, 0(a1)             # raw score
    """)
        else:
            parts.append(f"""
        li t4, 1
        bge t3, x0, l{index}_sign
        li t4, -1
    l{index}_sign:
        slli t1, t0, 2
        add a1, s3, t1
        sw t4, 0(a1)
    """)
        parts.append(f"""
        addi t0, t0, 1
        li t4, {layer.fan_out}
        blt t0, t4, l{index}_neuron
    """)
        in_base, out_base = out_base, in_base
    parts.append(_argmax_asm(model.n_classes, scores_base))
    return "\n".join(parts)


def packed_bnn_asm(model: BNNModel, locations: List[Tuple[int, int]],
                   bases: Tuple[int, int, int]) -> str:
    """Bit-packed XNOR + SWAR-popcount inference for ``model``."""
    parts = [f"""
    # ---- packed software BNN inference
        li s8, 0x55555555
        li s9, 0x33333333
        li s10, 0x0f0f0f0f
    """]
    in_base, out_base, scores_base = bases
    for index, layer in enumerate(model.layers):
        w_addr, b_addr = locations[index]
        last = index == len(model.layers) - 1
        dest = scores_base if last else out_base
        n_words = (layer.fan_in + 31) // 32
        tail = layer.fan_in % 32
        tail_mask = (1 << tail) - 1 if tail else 0xFFFFFFFF
        parts.append(f"""
        # layer {index}: {layer.fan_in} -> {layer.fan_out} ({n_words} words)
        li s0, {w_addr}
        li s1, {b_addr}
        li s2, {in_base}
        li s3, {dest}
        li s4, 0                 # output word accumulator
        li s5, 0                 # output bit position
        li t0, 0                 # neuron
    p{index}_neuron:
        li t1, 0                 # word index
        li t3, 0                 # match count
    p{index}_word:
        slli t2, t1, 2
        add a0, s0, t2
        lw t4, 0(a0)             # weight word
        add a1, s2, t2
        lw t5, 0(a1)             # activation word
        xor t4, t4, t5
        not t4, t4               # xnor
        li t6, {n_words - 1}
        bne t1, t6, p{index}_popc
        li t6, {tail_mask & 0xFFFFFFFF}
        and t4, t4, t6           # mask the padding bits
    p{index}_popc:
        srli t5, t4, 1
        and t5, t5, s8
        sub t4, t4, t5
        srli t5, t4, 2
        and t5, t5, s9
        and t4, t4, s9
        add t4, t4, t5
        srli t5, t4, 4
        add t4, t4, t5
        and t4, t4, s10
        srli t5, t4, 8
        add t4, t4, t5
        srli t5, t4, 16
        add t4, t4, t5
        andi t4, t4, 63
        add t3, t3, t4
        addi t1, t1, 1
        li t6, {n_words}
        blt t1, t6, p{index}_word
        li t6, {4 * n_words}
        add s0, s0, t6           # next neuron's weight row
    """)
        parts.append(f"""
        # dot = 2*matches - fan_in, then add bias
        slli t3, t3, 1
        addi t3, t3, {-layer.fan_in}
        slli t2, t0, 2
        add a1, s1, t2
        lw t4, 0(a1)
        add t3, t3, t4
    """)
        if last:
            parts.append(f"""
        add a1, s3, t2
        sw t3, 0(a1)
    """)
        else:
            parts.append(f"""
        slt t4, t3, x0
        xori t4, t4, 1           # bit = (pre >= 0)
        sll t4, t4, s5
        or s4, s4, t4
        addi s5, s5, 1
        li t4, 32
        bne s5, t4, p{index}_nobits
        slli t2, t0, 2
        srli t2, t2, 7           # word index = neuron//32
        slli t2, t2, 2
        add a1, s3, t2
        sw s4, 0(a1)
        li s4, 0
        li s5, 0
    p{index}_nobits:
    """)
        parts.append(f"""
        addi t0, t0, 1
        li t4, {layer.fan_out}
        blt t0, t4, p{index}_neuron
    """)
        if not last and layer.fan_out % 32:
            final_word = (layer.fan_out // 32) * 4
            parts.append(f"""
        li a1, {dest + final_word}
        sw s4, 0(a1)             # flush partial activation word
        li s4, 0
        li s5, 0
    """)
        in_base, out_base = out_base, in_base
    parts.append(_argmax_asm(model.n_classes, scores_base))
    return "\n".join(parts)


def _argmax_asm(n_classes: int, scores_base: int) -> str:
    return f"""
        # ---- argmax over {n_classes} scores
        li s0, {scores_base}
        lw t1, 0(s0)             # best score
        li t2, 0                 # best index
        li t0, 1
    argmax_loop:
        slli t3, t0, 2
        add a0, s0, t3
        lw t4, 0(a0)
        ble t4, t1, argmax_keep
        mv t1, t4
        mv t2, t0
    argmax_keep:
        addi t0, t0, 1
        li t4, {n_classes}
        blt t0, t4, argmax_loop
        li a0, {RESULT_ADDR}
        sw t2, 0(a0)
        ebreak
    """


# ---------------------------------------------------------------------------
# execution helpers
# ---------------------------------------------------------------------------

def run_software_bnn(model: BNNModel, x_sign: np.ndarray,
                     implementation: str = "naive"):
    """Run one software inference on the CPU runtime; returns
    (prediction, stats)."""
    from repro.cpu import FlatMemory, run_program
    from repro.isa import assemble

    memory = FlatMemory(size=1 << 18)
    bases = buffer_bases(model, implementation)
    if implementation == "naive":
        locations = write_naive_model(memory, model)
        write_sign_activations(memory, x_sign, bases[0])
        source = naive_bnn_asm(model, locations, bases)
    elif implementation == "packed":
        locations = write_packed_model(memory, model)
        write_packed_activations(memory, x_sign, bases[0])
        source = packed_bnn_asm(model, locations, bases)
    else:
        raise ValueError(f"unknown implementation {implementation!r}")
    program = assemble(source)
    _, result = run_program(program, memory=memory)
    if result.stop_reason != "halt":
        raise RuntimeError(f"software BNN did not halt: {result.stop_reason}")
    prediction = memory.load(RESULT_ADDR, 4)
    return prediction, result.stats
