"""A functional model of the Tofino sequencer datapath (§3.3.2, Fig. 4b).

Where :class:`~repro.sequencer.tofino.TofinoSequencerModel` accounts for
*resources*, this module executes the design: a parser, a sequence of
match-action stages whose stateful registers hold the history, and a
deparser that serializes the metadata into the SCR packet format.

The history lives in a byte-packed register file: items are laid out
back-to-back across the 32-bit registers (not word-aligned), which is what
lets 44 registers hold ⌊176 B / 18 B⌋ = 9 token-bucket items — the §4.3
capacity arithmetic.  Per packet:

* stage 1's register increments the **index pointer** (mod the slot
  count) and exports the old value as packet metadata — one
  RegisterAction;
* every **history register** reads its value out into packet metadata;
  registers overlapping the byte range of the slot at the old pointer
  additionally apply a *masked* read-modify-write with the current
  packet's field bytes — still a single stateful-ALU operation each;
* the deparser emits the dummy Ethernet header, the SCR header, the
  packed register bytes re-sliced into ring rows with the index pointer,
  and the original packet (§3.3.1).

Equivalence with the platform-independent sequencer is asserted by tests:
both produce byte-identical SCR packets for any input sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..core.packet_format import ScrPacketCodec
from ..packet import Packet
from ..programs.base import PacketProgram
from .tofino import TofinoPipelineSpec

__all__ = ["Register", "RegisterAction", "MauStage", "TofinoPipeline"]

_WORD_BYTES = 4
_WORD_MASK = 0xFFFFFFFF


@dataclass
class Register:
    """One stateful register (32 bits) with its ALU."""

    stage: int
    index: int
    value: int = 0


class RegisterAction:
    """A single-register stateful operation, as the ALU executes it."""

    def __init__(self, register: Register):
        self.register = register

    def increment_mod(self, modulus: int) -> Tuple[int, int]:
        """Index-pointer action: returns (old, new); new = (old+1) % modulus."""
        old = self.register.value
        self.register.value = (old + 1) % modulus
        return old, self.register.value

    def read_and_masked_write(self, mask: int, new_bits: int) -> int:
        """History action: read out; overwrite the masked bits.

        ``mask == 0`` is a pure read.  A partial mask is the boundary case
        of a byte-packed item straddling this register — still one ALU op.
        """
        old = self.register.value
        if mask:
            self.register.value = (old & ~mask | new_bits & mask) & _WORD_MASK
        return old


class MauStage:
    """One match-action stage holding up to R stateful registers."""

    def __init__(self, stage_index: int, num_registers: int):
        self.stage_index = stage_index
        self.registers = [Register(stage_index, i) for i in range(num_registers)]

    def actions(self) -> List[RegisterAction]:
        return [RegisterAction(r) for r in self.registers]


class TofinoPipeline:
    """The sequencer compiled onto a register pipeline for one program."""

    def __init__(
        self,
        program: PacketProgram,
        num_cores: int,
        spec: TofinoPipelineSpec = TofinoPipelineSpec(),
        dummy_eth: bool = True,
    ) -> None:
        self.program = program
        self.num_cores = num_cores
        self.spec = spec
        self.meta_bytes = program.metadata_size
        self.num_slots = num_cores
        total_bytes = self.num_slots * self.meta_bytes
        words_needed = max(1, math.ceil(total_bytes / _WORD_BYTES))
        words_available = (spec.stages - 1) * spec.stateful_alus_per_stage
        if words_needed > words_available:
            raise ValueError(
                f"{program.name} x{num_cores} cores needs {words_needed} "
                f"32-bit fields; the pipeline has {words_available} (§4.3)"
            )
        # stage 0 hosts the index pointer; history registers fill the rest.
        self.stages = [
            MauStage(s, spec.stateful_alus_per_stage) for s in range(spec.stages)
        ]
        self.index_action = RegisterAction(self.stages[0].registers[0])
        history_actions: List[RegisterAction] = []
        for stage in self.stages[1:]:
            history_actions.extend(stage.actions())
        self.history_actions = history_actions[:words_needed]
        self._history_bytes = total_bytes
        self.codec = ScrPacketCodec(
            meta_size=self.meta_bytes, num_slots=self.num_slots, dummy_eth=dummy_eth
        )
        self._seq = 0
        self._rr = 0

    # -- the per-packet datapath ---------------------------------------------------

    def process(self, pkt: Packet) -> Tuple[int, bytes, int]:
        """Run one packet through parser → stages → deparser.

        Returns (destination core, SCR packet bytes, sequence number) —
        the same contract as the behavioural sequencer.
        """
        self._seq += 1
        # Parser: extract the program's fields (the hardware parser mirrors
        # the program's metadata definition).
        new_meta = self.program.extract_metadata(pkt).pack()

        # Stage 0: bump the index pointer (in units of history slots).
        old_slot, _ = self.index_action.increment_mod(max(1, self.num_slots))

        # The byte range this packet's metadata overwrites, and the per-
        # register masks it induces (big-endian within each 32-bit word).
        write_start = old_slot * self.meta_bytes
        write_end = write_start + self.meta_bytes

        read_words: List[int] = []
        for word_index, action in enumerate(self.history_actions):
            word_start = word_index * _WORD_BYTES
            mask = 0
            bits = 0
            for b in range(_WORD_BYTES):
                offset = word_start + b
                if write_start <= offset < write_end:
                    shift = (_WORD_BYTES - 1 - b) * 8
                    mask |= 0xFF << shift
                    bits |= new_meta[offset - write_start] << shift
            read_words.append(action.read_and_masked_write(mask, bits))

        # Deparser: registers → packed bytes → ring rows (physical order).
        packed = b"".join(w.to_bytes(_WORD_BYTES, "big") for w in read_words)
        packed = packed[: self._history_bytes]
        rows = [
            packed[s * self.meta_bytes : (s + 1) * self.meta_bytes]
            for s in range(self.num_slots)
        ]
        data = self.codec.encode(
            seq=self._seq,
            timestamp_ns=pkt.timestamp_ns,
            ring_rows=rows,
            index_ptr=old_slot,
            original=pkt.to_bytes(),
        )
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        return core, data, self._seq

    def reset(self) -> None:
        for stage in self.stages:
            for register in stage.registers:
                register.value = 0
        self._seq = 0
        self._rr = 0
