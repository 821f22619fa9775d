"""Dynamic instruction streams: the generating walker and the bounded stream.

The :class:`StreamWalker` interprets a static :class:`~repro.workloads.program.Program`
— resolving branch directions, indirect targets and memory addresses from
the program's behaviour specs — and produces an endless sequence of
:class:`~repro.isa.instruction.DynamicInstruction` records, exactly like the
execution traces driving the paper's simulator.

The :class:`InstructionStream` bounds a walker to a run length and is what
the simulator consumes.  It walks exactly two kinds of walker: the
generating :class:`StreamWalker`, or the
:class:`~repro.workloads.tracefile.ArtifactReplayWalker` that replays a
recorded dynamic record — a compiled artifact or a loaded trace file.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.isa.instruction import DynamicInstruction
from repro.isa.opcodes import (
    FLOW_COND_BRANCH,
    FLOW_INDIRECT_JUMP,
    FLOW_RETURN,
    FLOW_SOFTWARE_INT,
)
from repro.workloads.behaviors import (
    make_branch_state,
    make_mem_state,
    make_switch_state,
)
from repro.workloads.program import Program

if TYPE_CHECKING:
    from repro.workloads.tracefile import ArtifactReplayWalker

#: Flow codes whose outcome consumes dynamic state (conditional branch,
#: return, indirect jump).  Phase signatures count the resolved targets of
#: exactly these instructions: the set is a pure function of the
#: instruction sequence, so the generating walker and artifact replay
#: profile identically (see :mod:`repro.sampling.phases`).
_DYN_CTI_FLOWS = (FLOW_COND_BRANCH, FLOW_RETURN, FLOW_INDIRECT_JUMP)


class StreamWalker:
    """Deterministically execute a program image into dynamic instructions.

    The walker owns one seeded RNG shared by all behaviour states, so a
    given ``(program, seed)`` pair always produces the identical stream.

    Interpretation is the innermost loop of every generator-driven
    simulation (one step per dynamic instruction), so the walker compiles
    each static instruction into a *plan* on first execution —
    flow-dispatch code, static targets and the bound behaviour-state
    methods — and replays the plan on every later visit, avoiding the enum
    chain and three dict probes per step.
    """

    __slots__ = (
        "program",
        "rng",
        "_branch_states",
        "_switch_states",
        "_mem_states",
        "_plans",
        "_skip_blocks",
        "_warm_blocks",
        "_warm_line_shift",
        "_pc",
        "_call_stack",
        "executed",
    )

    def __init__(self, program: Program, seed: int = 0):
        self.program = program
        self.rng = random.Random(seed)
        self._branch_states = {
            addr: make_branch_state(spec, self.rng)
            for addr, spec in program.branch_specs.items()
        }
        self._switch_states = {
            addr: make_switch_state(spec, self.rng)
            for addr, spec in program.switch_specs.items()
        }
        self._mem_states = {
            addr: make_mem_state(spec, self.rng)
            for addr, spec in program.mem_specs.items()
        }
        # address -> (instr, code, taken_target, fallthrough, next_taken,
        #             next_address, next_index, switch_targets), built lazily
        # so never-executed instructions cost nothing.
        self._plans: dict[int, tuple] = {}
        # address -> (count, effects, exit_pc) basic-block skip plans (see
        # _compile_skip_block), built lazily by :meth:`skip`.
        self._skip_blocks: dict[int, tuple] = {}
        # Same idea with warming effects (see _compile_warm_block); valid
        # for one icache line_shift at a time.
        self._warm_blocks: dict[int, tuple] = {}
        self._warm_line_shift = -1
        self._pc = program.entry
        self._call_stack: list[int] = []
        self.executed = 0

    def _compile_plan(self, instr) -> tuple:
        """Build the execution plan for one static instruction."""
        address = instr.address
        code = instr.flow_code
        if code == FLOW_SOFTWARE_INT:
            code = 0  # software interrupts fall through like plain instructions
        branch_state = self._branch_states.get(address)
        switch_state = self._switch_states.get(address)
        mem_state = self._mem_states.get(address)
        plan = (
            instr,
            code,
            instr.taken_target,
            instr.fallthrough,
            branch_state.next_taken if branch_state is not None else None,
            mem_state.next_address if mem_state is not None else None,
            switch_state.next_index if switch_state is not None else None,
            self.program.switch_targets.get(address),
        )
        self._plans[address] = plan
        return plan

    #: Skip-block compilation stops after this many instructions (bounds
    #: compile time on direct-jump cycles; a capped block simply chains
    #: into the next one).
    _SKIP_BLOCK_CAP = 128

    def _compile_skip_block(self, start: int) -> tuple:
        """Compile the basic block at ``start`` for block-granular skipping.

        Walks the *static* control flow from ``start`` for as long as it
        stays deterministic — plain instructions, direct jumps and calls —
        and stops at the first instruction whose outcome consumes dynamic
        state (conditional branch, indirect jump, return) or is unmapped.
        Returns ``(count, effects, exit_pc)``: ``count`` instructions are
        covered, ``effects`` is the ordered sequence of side effects a walk
        of the block performs — ``(True, fallthrough)`` pushes a call's
        return address, ``(False, next_mem)`` draws one memory address —
        and ``exit_pc`` is where per-instruction stepping resumes.  Replaying
        the effects in order keeps the shared RNG and the call stack
        bit-identical to an instruction-by-instruction walk.
        """
        plans_get = self._plans.get
        instructions = self.program.instructions
        effects: list[tuple] = []
        pc = start
        n = 0
        while n < self._SKIP_BLOCK_CAP:
            plan = plans_get(pc)
            if plan is None:
                instr = instructions.get(pc)
                if instr is None:
                    break  # unmapped: let the stepping path raise
                plan = self._compile_plan(instr)
            code = plan[1]
            next_mem = plan[5]
            if code == 0:
                if next_mem is not None:
                    effects.append((False, next_mem))
                pc = plan[3]
            elif code == 2:  # FLOW_DIRECT_JUMP
                if next_mem is not None:
                    effects.append((False, next_mem))
                pc = plan[2]
            elif code == 3:  # FLOW_CALL
                effects.append((True, plan[3]))
                if next_mem is not None:
                    effects.append((False, next_mem))
                pc = plan[2]
            else:
                break  # cond branch / return / indirect: dynamic outcome
            n += 1
        block = (n, tuple(effects), pc)
        self._skip_blocks[start] = block
        return block

    def skip(self, count: int, profile: dict | None = None) -> int:
        """Advance ``count`` instructions without materialising them.

        The fast-forward path of the sampled simulator: identical control
        flow and behaviour-state evolution to :meth:`next_batch` (every
        branch/memory/switch behaviour method is still called, so the RNG
        stream and walker state stay bit-identical to a full walk), but no
        :class:`~repro.isa.instruction.DynamicInstruction` is allocated.
        Straight-line stretches advance a compiled basic block at a time
        (one dict probe + the block's behaviour calls); only instructions
        with dynamic outcomes step individually.  Returns the number of
        instructions skipped (always ``count`` unless control flow faults).

        ``profile`` — a mutable mapping — additionally counts the resolved
        successor of every dynamic CTI (:data:`_DYN_CTI_FLOWS`) into it,
        the phase-signature observer of the adaptive sampler.  Dynamic
        CTIs are exactly the instructions this path steps individually, so
        profiling adds no work to the block-granular fast path.
        """
        plans_get = self._plans.get
        blocks_get = self._skip_blocks.get
        call_stack = self._call_stack
        pc = self._pc
        skipped = 0
        try:
            # Block-granular fast path: consume whole basic blocks plus
            # their terminating dynamic instruction while they fit.
            while True:
                block = blocks_get(pc)
                if block is None:
                    block = self._compile_skip_block(pc)
                n, effects, exit_pc = block
                if skipped + n + 1 > count:
                    break
                for is_push, payload in effects:
                    if is_push:
                        call_stack.append(payload)
                    else:
                        payload()
                pc = exit_pc
                skipped += n
                # One stepped instruction resolves the block terminator
                # (or continues a capped block).
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise WorkloadError(
                            f"{self.program.name}: control flowed to unmapped "
                            f"address {pc:#x}"
                        ) from exc
                    plan = self._compile_plan(instr)
                (_instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan
                if code:
                    if code == 1:  # FLOW_COND_BRANCH
                        pc = taken_target if next_taken() else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        pc = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        pc = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise WorkloadError(
                                f"{self.program.name}: return with empty call "
                                f"stack at {pc:#x}"
                            )
                        pc = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        pc = switch_targets[next_index()]
                else:
                    pc = fallthrough
                if profile is not None and (code == 1 or code >= 4):
                    profile[pc] = profile.get(pc, 0) + 1
                if next_mem is not None:
                    next_mem()
                skipped += 1
            # Instruction-granular tail for the remainder.
            for _ in range(count - skipped):
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise WorkloadError(
                            f"{self.program.name}: control flowed to unmapped "
                            f"address {pc:#x}"
                        ) from exc
                    plan = self._compile_plan(instr)
                (_instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan

                if code:
                    if code == 1:  # FLOW_COND_BRANCH
                        pc = taken_target if next_taken() else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        pc = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        pc = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise WorkloadError(
                                f"{self.program.name}: return with empty call "
                                f"stack at {pc:#x}"
                            )
                        pc = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        pc = switch_targets[next_index()]
                else:
                    pc = fallthrough

                if profile is not None and (code == 1 or code >= 4):
                    profile[pc] = profile.get(pc, 0) + 1
                if next_mem is not None:
                    next_mem()
                skipped += 1
        finally:
            self._pc = pc
            self.executed += skipped
        return skipped

    def _compile_warm_block(self, start: int, line_shift: int) -> tuple:
        """Compile the basic block at ``start`` for warmed skipping.

        Same block boundaries as :meth:`_compile_skip_block`, but the
        effect list additionally carries the warming work a walk of the
        block performs.  Effects are ``(kind, a, b)``:

        * ``0`` — memory access: ``touch(a())``
        * ``1`` — icache probe: ``fetch(a)`` when line ``b`` differs from
          the previous probed line (lines repeated *within* the block are
          already filtered statically; the runtime check only deduplicates
          across block boundaries)
        * ``2`` — static CTI (direct jump/call): ``train(a, True, b)``
        * ``3`` — call: push return address ``a``
        """
        plans_get = self._plans.get
        instructions = self.program.instructions
        effects: list[tuple] = []
        pc = start
        n = 0
        prev_line = None
        while n < self._SKIP_BLOCK_CAP:
            plan = plans_get(pc)
            if plan is None:
                instr = instructions.get(pc)
                if instr is None:
                    break
                plan = self._compile_plan(instr)
            code = plan[1]
            if code not in (0, 2, 3):
                break  # cond branch / return / indirect: dynamic outcome
            line = pc >> line_shift
            if line != prev_line:
                effects.append((1, pc, line))
                prev_line = line
            next_mem = plan[5]
            if code == 0:
                if next_mem is not None:
                    effects.append((0, next_mem, None))
                pc = plan[3]
            else:
                if code == 3:  # FLOW_CALL
                    effects.append((3, plan[3], None))
                effects.append((2, plan[0], plan[2]))
                if next_mem is not None:
                    effects.append((0, next_mem, None))
                pc = plan[2]
            n += 1
        block = (n, tuple(effects), pc)
        self._warm_blocks[start] = block
        return block

    def warm_skip(self, count: int, fetch, touch, train,
                  line_shift: int = 6) -> int:
        """:meth:`skip` with functional warming of caches and predictor.

        The sampled simulator's fast-forward with always-on warming
        (SMARTS-style): no :class:`DynamicInstruction` is allocated, but
        ``fetch(address)`` is probed once per new instruction-cache line
        (``line_shift`` = log2 of the line size), ``touch(mem_addr)`` once
        per memory access and ``train(instr, taken, next_address)`` once
        per CTI, so icache, dcache and branch-predictor state track the
        skipped stream.  Behaviour-state evolution is bit-identical to
        :meth:`skip`; straight-line stretches replay compiled warm blocks.
        """
        if line_shift != self._warm_line_shift:
            self._warm_blocks.clear()
            self._warm_line_shift = line_shift
        plans_get = self._plans.get
        blocks_get = self._warm_blocks.get
        call_stack = self._call_stack
        pc = self._pc
        last_line = -1
        skipped = 0
        try:
            while True:
                block = blocks_get(pc)
                if block is None:
                    block = self._compile_warm_block(pc, line_shift)
                n, effects, exit_pc = block
                if skipped + n + 1 > count:
                    break
                for kind, a, b in effects:
                    if kind == 0:
                        touch(a())
                    elif kind == 1:
                        if b != last_line:
                            fetch(a)
                            last_line = b
                    elif kind == 2:
                        train(a, True, b)
                    else:
                        call_stack.append(a)
                pc = exit_pc
                skipped += n
                # One stepped instruction resolves the block terminator
                # (or continues a capped block).
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise WorkloadError(
                            f"{self.program.name}: control flowed to unmapped "
                            f"address {pc:#x}"
                        ) from exc
                    plan = self._compile_plan(instr)
                (instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan
                line = pc >> line_shift
                if line != last_line:
                    fetch(pc)
                    last_line = line
                if code:
                    taken = True
                    if code == 1:  # FLOW_COND_BRANCH
                        taken = next_taken()
                        next_address = taken_target if taken else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        next_address = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        next_address = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise WorkloadError(
                                f"{self.program.name}: return with empty call "
                                f"stack at {pc:#x}"
                            )
                        next_address = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        next_address = switch_targets[next_index()]
                    train(instr, taken, next_address)
                    pc = next_address
                else:
                    pc = fallthrough
                if next_mem is not None:
                    touch(next_mem())
                skipped += 1
            # Instruction-granular tail for the remainder.
            for _ in range(count - skipped):
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise WorkloadError(
                            f"{self.program.name}: control flowed to unmapped "
                            f"address {pc:#x}"
                        ) from exc
                    plan = self._compile_plan(instr)
                (instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan

                line = pc >> line_shift
                if line != last_line:
                    fetch(pc)
                    last_line = line

                if code:
                    taken = True
                    if code == 1:  # FLOW_COND_BRANCH
                        taken = next_taken()
                        next_address = taken_target if taken else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        next_address = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        next_address = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise WorkloadError(
                                f"{self.program.name}: return with empty call "
                                f"stack at {pc:#x}"
                            )
                        next_address = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        next_address = switch_targets[next_index()]
                    train(instr, taken, next_address)
                    pc = next_address
                else:
                    pc = fallthrough

                if next_mem is not None:
                    touch(next_mem())
                skipped += 1
        finally:
            self._pc = pc
            self.executed += skipped
        return skipped

    def next_batch(self, count: int) -> list[DynamicInstruction]:
        """Step ``count`` instructions in one call, returning them in order.

        The stepping state is held in locals across the whole batch — the
        bulk interface the simulator's segmentation loop uses (the walker
        is endless, so a full batch is always produced unless control flow
        faults).
        """
        out: list[DynamicInstruction] = []
        append = out.append
        plans_get = self._plans.get
        call_stack = self._call_stack
        dyn_instr = DynamicInstruction
        pc = self._pc
        try:
            for _ in range(count):
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise WorkloadError(
                            f"{self.program.name}: control flowed to unmapped "
                            f"address {pc:#x}"
                        ) from exc
                    plan = self._compile_plan(instr)
                (instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan

                if code:
                    taken = True
                    if code == 1:  # FLOW_COND_BRANCH
                        taken = next_taken()
                        next_address = taken_target if taken else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        next_address = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        next_address = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise WorkloadError(
                                f"{self.program.name}: return with empty call "
                                f"stack at {pc:#x}"
                            )
                        next_address = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        next_address = switch_targets[next_index()]
                else:
                    taken = False
                    next_address = fallthrough

                mem_addr = next_mem() if next_mem is not None else None
                append(dyn_instr(instr, taken, next_address, mem_addr))
                pc = next_address
        finally:
            self._pc = pc
            self.executed += len(out)
        return out

    def next_columns(self, count: int, static_index: dict[int, int],
                     no_mem: int) -> tuple[list, list, list, list]:
        """Step ``count`` instructions, returning them as record columns.

        Advances the walker exactly as :meth:`next_batch` does — control
        flow, call stack, behaviour-state calls, ``executed`` and faults
        alike — but emits the compiled-artifact row layout instead of
        :class:`DynamicInstruction` objects: ``(index, taken, next, mem)``
        lists.  ``index`` numbers static instructions through
        ``static_index`` (address -> index), which is extended in
        first-execution order, so one mapping carried across calls
        numbers a whole record; ``mem`` holds ``no_mem`` for rows without
        a memory access.
        """
        index_col: list[int] = []
        taken_col: list[bool] = []
        next_col: list[int] = []
        mem_col: list[int] = []
        index_append = index_col.append
        taken_append = taken_col.append
        next_append = next_col.append
        mem_append = mem_col.append
        index_get = static_index.get
        plans_get = self._plans.get
        call_stack = self._call_stack
        pc = self._pc
        try:
            for _ in range(count):
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise WorkloadError(
                            f"{self.program.name}: control flowed to unmapped "
                            f"address {pc:#x}"
                        ) from exc
                    plan = self._compile_plan(instr)
                (_instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan

                if code:
                    taken = True
                    if code == 1:  # FLOW_COND_BRANCH
                        taken = next_taken()
                        next_address = taken_target if taken else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        next_address = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        next_address = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise WorkloadError(
                                f"{self.program.name}: return with empty call "
                                f"stack at {pc:#x}"
                            )
                        next_address = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        next_address = switch_targets[next_index()]
                else:
                    taken = False
                    next_address = fallthrough

                index = index_get(pc)
                if index is None:
                    index = static_index[pc] = len(static_index)
                index_append(index)
                taken_append(taken)
                next_append(next_address)
                mem_append(next_mem() if next_mem is not None else no_mem)
                pc = next_address
        finally:
            self._pc = pc
            self.executed += len(mem_col)
        return index_col, taken_col, next_col, mem_col


class InstructionStream:
    """A bounded dynamic stream over one of the two walkers.

    The walker is either the generating :class:`StreamWalker` or a
    :class:`~repro.workloads.tracefile.ArtifactReplayWalker` replaying a
    recorded dynamic record (a compiled artifact or a loaded trace file).
    Both implement the same bulk interface — ``next_batch``,
    ``skip(count, profile)`` and ``warm_skip`` — so a stream over either
    is bit-identical in the full-detail and the sampled regime alike; the
    walker is checked once, here, and any other iterator is rejected.
    ``consumed`` counts the instructions taken or skipped so far.
    """

    __slots__ = ("_walker", "_remaining", "_replay", "consumed")

    def __init__(self, walker: "StreamWalker | ArtifactReplayWalker",
                 limit: int):
        # Imported here: the tracefile module builds on this one.
        from repro.workloads.tracefile import ArtifactReplayWalker

        if not isinstance(walker, (StreamWalker, ArtifactReplayWalker)):
            raise WorkloadError(
                f"an InstructionStream walks a StreamWalker or an "
                f"ArtifactReplayWalker, not a {type(walker).__name__}"
            )
        if limit <= 0:
            raise WorkloadError(f"stream limit must be positive, got {limit}")
        self._walker = walker
        self._remaining = limit
        self._replay = isinstance(walker, ArtifactReplayWalker)
        self.consumed = 0

    @classmethod
    def from_artifact(cls, artifact, limit: int | None = None) -> "InstructionStream":
        """Replay a recorded :class:`~repro.workloads.tracefile.TraceArtifact`.

        ``limit`` defaults to (and is capped at) the record's length.  The
        stream is bit-identical to one over the generating walker — the
        engine's grid fast path rests on that equivalence.
        """
        total = len(artifact)
        if limit is None or limit > total:
            limit = total
        return cls(artifact.walker(), limit)

    @property
    def exhausted(self) -> bool:
        """True when no instructions remain to consume."""
        return self._remaining == 0

    def _advance(self, wanted: int, got: int) -> int:
        """Book ``got`` of ``wanted`` instructions (a short walk ends us)."""
        self._remaining = self._remaining - got if got == wanted else 0
        self.consumed += got
        return got

    def take(self) -> DynamicInstruction:
        """Consume and return the next instruction."""
        batch = self.take_batch(1)
        if not batch:
            raise WorkloadError("take() on exhausted stream")
        return batch[0]

    def take_batch(self, count: int) -> list[DynamicInstruction]:
        """Consume up to ``count`` instructions in one call (bulk take).

        An empty list means the stream is exhausted.
        """
        n = min(count, self._remaining)
        if n <= 0:
            return []
        batch = self._walker.next_batch(n)
        self._advance(n, len(batch))
        return batch

    def consume_raw(self, count: int):
        """Bulk-consume up to ``count`` recorded rows without decoding them.

        The columnar-warmup fast path: when the stream replays a recorded
        dynamic record, the rows are consumed as ``(walker, lo, index)`` —
        the replay walker, the global row number of the first row and the
        rows' static-table indices — and stream bookkeeping advances
        exactly as a ``take_batch`` of the same rows would.  Returns
        ``None`` over a generating walker (nothing is recorded) or once
        the budget is spent; callers then take instruction objects.
        """
        n = min(count, self._remaining)
        if not self._replay or n <= 0:
            return None
        lo, index = self._walker.raw_batch(n)
        self._advance(n, len(index))
        return self._walker, lo, index

    def skip(self, count: int, profile: dict | None = None) -> int:
        """Fast-forward past up to ``count`` instructions; returns how many.

        No instruction is materialised; ``consumed`` advances exactly as
        if they had been taken.  ``profile`` counts the resolved successor
        of every dynamic CTI in the skipped window into the given mapping
        — the adaptive sampler's phase-signature observer, identical for
        identical windows on both walkers.
        """
        n = min(count, self._remaining)
        if n <= 0:
            return 0
        return self._advance(n, self._walker.skip(n, profile))

    def warm_skip(self, count: int, fetch, touch, train,
                  line_shift: int = 6) -> int:
        """:meth:`skip` with functional warming; returns how many skipped.

        ``fetch(address)`` probes once per new instruction-cache line
        (``line_shift`` = log2 of the line size), ``touch(mem_addr)`` once
        per memory access and ``train(instr, taken, next_address)`` once
        per trainable CTI, in the walker's per-instruction effect order
        (see :meth:`StreamWalker.warm_skip`).
        """
        n = min(count, self._remaining)
        if n <= 0:
            return 0
        return self._advance(
            n, self._walker.warm_skip(n, fetch, touch, train, line_shift)
        )
