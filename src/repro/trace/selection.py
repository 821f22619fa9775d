"""Deterministic trace selection (§2.2).

The :class:`TraceSelector` consumes the in-order committed instruction
stream and partitions it into *trace-shaped segments*, applying the paper's
selection criteria:

* **Capacity** — frames of at most 64 uops.
* **Complete basic blocks** — segments terminate on CTIs, except for
  extremely large basic blocks that hit the capacity limit mid-block.
* **Terminating CTIs** — indirect jumps and software exceptions always
  terminate; backward taken branches terminate (cutting loops at iteration
  boundaries); RETURNs terminate only when they exit the outermost
  procedure context entered within the trace (tracked with a context
  counter — the inlining effect).
* **Joining** — consecutive *identical* segments are merged up to capacity,
  achieving explicit loop unrolling.

Because the criteria are pure functions of the committed stream, the same
partition is recovered on every execution — this determinism is what lets
PARROT compact TIDs into an address plus a branch-direction string.  The
same determinism makes TIDs *canonical*: a trace shape is fully identified
by (start, directions, branch count, instruction count), so the selector
hash-conses every TID it emits (:func:`~repro.trace.tid.intern_tid`) and
the join test degenerates to one pointer comparison.

This module is on the per-dynamic-instruction hot path of every
simulation; the selection state is kept as plain ints and the dispatch
uses the precomputed :attr:`~repro.isa.instruction.MacroInstruction.flow_code`
rather than enum chains.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.isa.instruction import DynamicInstruction
from repro.isa.opcodes import (
    FLOW_CALL,
    FLOW_COND_BRANCH,
    FLOW_DIRECT_JUMP,
    FLOW_RETURN,
    FLOW_SOFTWARE_INT,
)
from repro.trace.tid import TraceId, intern_tid
from repro.trace.trace import TRACE_CAPACITY_UOPS


@dataclass(slots=True)
class TraceSegment:
    """One trace-shaped slice of the committed stream.

    ``join_count`` is the number of identical base segments merged into
    this segment (>= 2 means the implicit unroller fired).  ``complete``
    is False only for the tail of a truncated stream: the buffered
    instructions never reached a termination condition, so the hardware
    would never have selected them — the machine must execute such a
    segment cold and keep it out of every TID-keyed structure (its TID
    can alias a real trace's).
    """

    tid: TraceId
    instructions: list[DynamicInstruction]
    uop_count: int
    join_count: int = 1
    complete: bool = True

    @property
    def num_instructions(self) -> int:
        """Dynamic instructions covered by this segment."""
        return len(self.instructions)


class TraceSelector:
    """Segment the committed stream according to the selection criteria."""

    __slots__ = (
        "capacity_uops",
        "_instructions",
        "_uops",
        "_start",
        "_directions",
        "_num_branches",
        "_context_depth",
        "_pending",
        "_pending_base_tid",
        "terminations",
    )

    def __init__(self, capacity_uops: int = TRACE_CAPACITY_UOPS):
        self.capacity_uops = capacity_uops
        self._instructions: list[DynamicInstruction] = []
        self._uops = 0
        # In-progress TID accumulator, inlined as plain ints (one TID is
        # built per segment, but the fields are touched per instruction).
        self._start: int | None = None
        self._directions = 0
        self._num_branches = 0
        self._context_depth = 0
        self._pending: TraceSegment | None = None
        #: TID of one base copy of the pending segment; joining requires the
        #: next base's (interned) TID to be this very object.
        self._pending_base_tid: TraceId | None = None
        # Selection statistics: termination-cause histogram, plus the
        # "joined" counter which counts merge events (a joined base also
        # appears under its own termination cause).
        self.terminations: dict[str, int] = {
            "capacity": 0,
            "backward_taken": 0,
            "indirect": 0,
            "exception": 0,
            "return_exit": 0,
            "joined": 0,
        }

    @property
    def pristine(self) -> bool:
        """True while no instruction has been fed (columnar-warmup gate)."""
        return (
            self._uops == 0
            and self._start is None
            and self._pending is None
            and not self._instructions
        )

    def columnar_scanner(self, materialize, addresses,
                         scan) -> "ColumnarSelector":
        """A :class:`ColumnarSelector` that can hand its state to us.

        Built through the selector so the warmup policy (a deliberately
        import-free module) never names the columnar class; the scanner
        shares this selector's capacity and finishes with
        :meth:`ColumnarSelector.transfer` into it.  ``scan`` is the
        record's window scan provider: ``scan(lo, hi)`` returns the
        selection-scan tables of rows ``[lo, hi)``.
        """
        return ColumnarSelector(
            self.capacity_uops, materialize, addresses, scan
        )

    # -- feeding ------------------------------------------------------------

    def feed(self, dyn: DynamicInstruction) -> list[TraceSegment]:
        """Consume one committed instruction; return any completed segments.

        At most two segments can complete on a single instruction (a
        capacity flush followed by a join flush).
        """
        completed = self.advance(dyn)
        return completed if completed is not None else []

    def segments(
        self, instructions: Iterable[DynamicInstruction]
    ) -> Iterator[TraceSegment]:
        """Partition a whole dynamic stream, in order (then flush).

        Bulk-consumption fast path: equivalent to feeding every instruction
        and flushing, without one list allocation per instruction.
        """
        advance = self.advance
        for dyn in instructions:
            completed = advance(dyn)
            if completed is not None:
                yield from completed
        yield from self.flush()

    def advance(self, dyn: DynamicInstruction) -> list[TraceSegment] | None:
        """Consume one instruction; return completed segments or None.

        This is the per-dynamic-instruction hot path: local bindings and
        int dispatch throughout, no allocations on the common (no segment
        completed) route.
        """
        completed: list[TraceSegment] | None = None
        instr = dyn.instr
        num_uops = instr.num_uops

        # Capacity: terminate *before* an instruction that would overflow.
        uops = self._uops
        if uops and uops + num_uops > self.capacity_uops:
            self.terminations["capacity"] += 1
            finished = self._push_base(self._close_base())
            if finished is not None:
                completed = [finished]

        if self._start is None:
            self._start = instr.address
            self._directions = 0
            self._num_branches = 0
            self._context_depth = 0

        self._instructions.append(dyn)
        self._uops += num_uops

        code = instr.flow_code
        if not code:
            return completed

        terminate = False
        if code == FLOW_COND_BRANCH:
            if dyn.taken:
                self._directions |= 1 << self._num_branches
                self._num_branches += 1
                if dyn.next_address <= instr.address:
                    self.terminations["backward_taken"] += 1
                    terminate = True
            else:
                self._num_branches += 1
        elif code == FLOW_DIRECT_JUMP:
            if dyn.next_address <= instr.address:
                self.terminations["backward_taken"] += 1
                terminate = True
        elif code == FLOW_CALL:
            self._context_depth += 1
        elif code == FLOW_RETURN:
            if self._context_depth == 0:
                self.terminations["return_exit"] += 1
                terminate = True
            else:
                self._context_depth -= 1
        elif code == FLOW_SOFTWARE_INT:
            self.terminations["exception"] += 1
            terminate = True
        else:  # FLOW_INDIRECT_JUMP
            self.terminations["indirect"] += 1
            terminate = True

        if terminate:
            finished = self._push_base(self._close_base())
            if finished is not None:
                if completed is None:
                    completed = [finished]
                else:
                    completed.append(finished)
        return completed

    def flush(self) -> list[TraceSegment]:
        """Emit whatever is buffered (stream end).

        The pending segment ended on a real termination condition and is
        complete; any instructions still in the selection buffer never
        terminated and are emitted as an *incomplete* segment.
        """
        completed: list[TraceSegment] = []
        if self._pending is not None:
            completed.append(self._pending)
            self._pending = None
            self._pending_base_tid = None
        if self._instructions:
            tid, instructions, uop_count = self._close_base()
            completed.append(
                TraceSegment(
                    tid=tid,
                    instructions=instructions,
                    uop_count=uop_count,
                    complete=False,
                )
            )
        return completed

    # -- internals -----------------------------------------------------------

    def _close_base(self) -> tuple[TraceId, list[DynamicInstruction], int]:
        assert self._start is not None
        tid = intern_tid(
            self._start,
            self._directions,
            self._num_branches,
            len(self._instructions),
        )
        base = (tid, self._instructions, self._uops)
        self._instructions = []
        self._uops = 0
        self._start = None
        self._context_depth = 0
        return base

    def load_state(
        self,
        *,
        instructions: list[DynamicInstruction],
        uops: int,
        start: int | None,
        directions: int,
        num_branches: int,
        context_depth: int,
        pending: TraceSegment | None,
        pending_base_tid: TraceId | None,
        terminations: dict[str, int],
    ) -> None:
        """Adopt in-progress selection state (columnar-warmup handover).

        The counterpart of :meth:`ColumnarSelector.transfer`: a fresh
        selector resumes exactly where a columnar scan over the same
        stream stopped, so segment boundaries flow continuously from a
        column-replayed warmup window into object-fed measurement.
        """
        self._instructions = instructions
        self._uops = uops
        self._start = start
        self._directions = directions
        self._num_branches = num_branches
        self._context_depth = context_depth
        self._pending = pending
        self._pending_base_tid = pending_base_tid
        for cause, count in terminations.items():
            self.terminations[cause] += count

    def _push_base(
        self, base: tuple[TraceId, list[DynamicInstruction], int]
    ) -> TraceSegment | None:
        """Join consecutive identical base segments up to capacity.

        Because selection is a pure function of the committed stream, an
        interned TID fully identifies a base segment's instruction path
        (start + directions + counts), so "identical base" is the pointer
        comparison ``tid is self._pending_base_tid`` — no per-instruction
        address comparison.
        """
        tid, instructions, uop_count = base
        pending = self._pending
        if (
            pending is not None
            and tid is self._pending_base_tid
            and pending.uop_count + uop_count <= self.capacity_uops
        ):
            # Merge: extend the pending segment with one more copy.
            old = pending.tid
            shift = old.num_branches
            pending.tid = intern_tid(
                old.start,
                old.directions | (tid.directions << shift),
                shift + tid.num_branches,
                old.num_instructions + tid.num_instructions,
            )
            pending.instructions.extend(instructions)
            pending.uop_count += uop_count
            pending.join_count += 1
            self.terminations["joined"] += 1
            return None
        self._pending = TraceSegment(
            tid=tid, instructions=instructions, uop_count=uop_count
        )
        self._pending_base_tid = tid
        return pending


class ColumnarSegment:
    """A completed trace-shaped segment over a recorded row range.

    Emitted by :class:`ColumnarSelector`: identical to a
    :class:`TraceSegment` for every consumer on the warmup path
    (``tid``/``uop_count``/``join_count``/``num_instructions`` are plain
    attributes or O(1) properties), but the ``instructions`` list is
    materialised lazily from the recorded columns — only the rare
    segment that crosses the hot threshold (and must be constructed into
    a trace) ever pays for building :class:`DynamicInstruction` objects.
    """

    __slots__ = ("tid", "uop_count", "join_count", "complete",
                 "_lo", "_hi", "_materialize", "_cached")

    def __init__(self, tid: TraceId, uop_count: int, lo: int, hi: int,
                 materialize):
        self.tid = tid
        self.uop_count = uop_count
        self.join_count = 1
        self.complete = True
        self._lo = lo
        self._hi = hi
        self._materialize = materialize
        self._cached: list[DynamicInstruction] | None = None

    @property
    def num_instructions(self) -> int:
        """Dynamic instructions covered by this segment."""
        return self._hi - self._lo

    @property
    def instructions(self) -> list[DynamicInstruction]:
        """The covered rows, decoded on first access."""
        cached = self._cached
        if cached is None:
            cached = self._materialize(self._lo, self._hi)
            self._cached = cached
        return cached


class ColumnarSelector:
    """Selection over a recorded dynamic record (the warmup fast path).

    Reproduces :meth:`TraceSelector.advance` exactly, but reads the
    record's window scan tables instead of :class:`DynamicInstruction`
    objects, and tracks each in-progress base as a row *range* instead of
    buffering instruction objects.  Joined bases are consecutive and
    therefore contiguous, so a row range survives joining.

    The scan ends with :meth:`transfer`, which materialises only the
    trailing in-progress state (buffered partial base + pending segment,
    at most ~2 capacity frames of instructions) into a fresh
    :class:`TraceSelector` so selection continues seamlessly into the
    object-fed measurement window.  Equivalence with the reference
    selector is pinned by property tests
    (``tests/test_sampling_phases.py``).
    """

    __slots__ = (
        "capacity_uops", "_materialize", "_addr_tab", "_scan",
        "_base_lo", "_row", "_uops", "_start", "_directions",
        "_num_branches", "_context_depth", "_pending", "_pending_base_tid",
        "terminations",
    )

    def __init__(self, capacity_uops: int, materialize, addresses, scan):
        self.capacity_uops = capacity_uops
        self._materialize = materialize
        self._addr_tab = addresses
        self._scan = scan
        self._base_lo = 0
        self._row = 0
        self._uops = 0
        self._start: int | None = None
        self._directions = 0
        self._num_branches = 0
        self._context_depth = 0
        self._pending: ColumnarSegment | None = None
        self._pending_base_tid: TraceId | None = None
        self.terminations: dict[str, int] = {
            "capacity": 0,
            "backward_taken": 0,
            "indirect": 0,
            "exception": 0,
            "return_exit": 0,
            "joined": 0,
        }

    def consume(self, lo: int, indices, offset: int, on_segment) -> None:
        """Scan one batch of recorded rows starting at global row ``lo``.

        ``indices`` are the rows' static-table indices.  ``offset`` is the
        number of instructions already consumed in the surrounding window;
        every completed segment is delivered through
        ``on_segment(segment, position)`` where ``position`` counts the
        emitting instruction (1-based, window-relative) — the same value
        the reference per-instruction loop would see in ``consumed``.
        State- and emission-identical to feeding
        :meth:`TraceSelector.advance`.

        The window scan provider scans exactly the batch's rows
        ``[lo, end)``: its cumulative-uop list is window-relative with a
        leading 0 (row ``r`` is at ``cum[r - lo + 1]``), its ctrl/cond
        rows are global.
        A base left open at the batch end carries over in the selector
        state, so batches chain exactly like one long window.

        Instead of dispatching every row, each iteration closes one whole
        base: the next candidate terminator comes from the ctrl-event
        rows (walking calls/returns only for the context counter), the
        cumulative-uop column answers "does it still fit?" in O(1) —
        with one ``bisect`` only on the capacity-close path — and the
        direction string is gathered from the conditional-branch rows of
        the closed range, visiting only events.  (Assumes every
        instruction decodes to at least one uop, as the ISA guarantees: a
        hypothetical zero-uop row directly after an over-capacity
        instruction would extend the base the reference loop closes.)
        """
        end = lo + len(indices)
        cum, ctrl_rows, ctrl_kinds, cond_rows, cond_taken = self._scan(
            lo, end
        )
        # ``cum[r - off]`` is the uop count of rows ``lo..r`` inclusive.
        off = lo - 1
        k = 0
        j = 0
        n_ctrl = len(ctrl_rows)
        n_cond = len(cond_rows)
        capacity = self.capacity_uops
        addr_tab = self._addr_tab
        terminations = self.terminations
        uops = self._uops
        start = self._start
        directions = self._directions
        num_branches = self._num_branches
        depth = self._context_depth
        base_lo = self._base_lo
        r = lo
        while r < end:
            if start is None:
                start = addr_tab[indices[r - lo]]
                directions = 0
                num_branches = 0
                depth = 0
                base_lo = r
            before = cum[r - lo]
            # Rows fit while their cumulative uops stay <= budget; the
            # first row beyond it is the reference loop's
            # terminate-before-overflow row.  An over-capacity *first*
            # row still enters the empty base.
            budget = before + capacity - uops
            giant = not uops and cum[r - off] > budget
            if giant:
                budget = cum[r - off]
            cause = None
            ev = -1
            capped = False
            while k < n_ctrl:
                row = ctrl_rows[k]
                if cum[row - off] > budget:
                    capped = True  # capacity closes at or before this event
                    break
                kind = ctrl_kinds[k]
                k += 1
                if kind == 0:  # call
                    depth += 1
                elif kind == 1:  # return
                    if depth:
                        depth -= 1
                    else:
                        ev, cause = row, "return_exit"
                        break
                elif kind == 2:
                    ev, cause = row, "backward_taken"
                    break
                elif kind == 3:
                    ev, cause = row, "indirect"
                    break
                else:
                    ev, cause = row, "exception"
                    break
            if cause is not None:
                # Terminating CTI at ``ev``: the base is [base_lo, ev].
                while j < n_cond:
                    row = cond_rows[j]
                    if row > ev:
                        break
                    if cond_taken[j]:
                        directions |= 1 << num_branches
                    num_branches += 1
                    j += 1
                terminations[cause] += 1
                finished = self._close_push(
                    start, directions, num_branches,
                    uops + cum[ev - off] - before, base_lo, ev + 1,
                )
                if finished is not None:
                    on_segment(finished, offset + (ev - lo) + 1)
                r = ev + 1
                uops = 0
                start = None
                depth = 0
                continue
            if not capped and cum[-1] > budget:
                capped = True
            if capped:
                e_cap = (
                    r + 1 if giant
                    else bisect_right(cum, budget, r - off) + off
                )
                if e_cap < end:
                    # Capacity close while processing row ``e_cap``; the
                    # base is [base_lo, e_cap) and ``e_cap`` opens the
                    # next one.
                    while j < n_cond:
                        row = cond_rows[j]
                        if row >= e_cap:
                            break
                        if cond_taken[j]:
                            directions |= 1 << num_branches
                        num_branches += 1
                        j += 1
                    terminations["capacity"] += 1
                    finished = self._close_push(
                        start, directions, num_branches,
                        uops + cum[e_cap - lo] - before, base_lo, e_cap,
                    )
                    if finished is not None:
                        on_segment(finished, offset + (e_cap - lo) + 1)
                    r = e_cap
                    uops = 0
                    start = None
                    continue
            # Batch exhausted mid-base: fold the tail into the carried
            # state and wait for the next batch (or the final transfer).
            while j < n_cond:
                if cond_taken[j]:
                    directions |= 1 << num_branches
                num_branches += 1
                j += 1
            uops += cum[-1] - before
            r = end
        self._uops = uops
        self._start = start
        self._directions = directions
        self._num_branches = num_branches
        self._context_depth = depth
        self._base_lo = base_lo
        self._row = end

    def _close_push(self, start, directions, num_branches, uops,
                    base_lo, end_row) -> ColumnarSegment | None:
        """Close the base ``[base_lo, end_row)`` and run the join rule."""
        tid = intern_tid(start, directions, num_branches, end_row - base_lo)
        pending = self._pending
        if (
            pending is not None
            and tid is self._pending_base_tid
            and pending.uop_count + uops <= self.capacity_uops
        ):
            old = pending.tid
            shift = old.num_branches
            pending.tid = intern_tid(
                old.start,
                old.directions | (tid.directions << shift),
                shift + tid.num_branches,
                old.num_instructions + tid.num_instructions,
            )
            pending._hi = end_row
            pending._cached = None
            pending.uop_count += uops
            pending.join_count += 1
            self.terminations["joined"] += 1
            return None
        self._pending = ColumnarSegment(
            tid, uops, base_lo, end_row, self._materialize
        )
        self._pending_base_tid = tid
        return pending

    def transfer(self, selector: TraceSelector) -> None:
        """Hand the in-progress state to ``selector`` (must be fresh).

        Materialises the buffered partial base and converts the pending
        segment into a real :class:`TraceSegment` (the detail window may
        join onto it or execute it), then merges the termination
        histogram — after this call, ``selector`` behaves exactly as if
        it had consumed the whole scanned window instruction by
        instruction.
        """
        pending = self._pending
        real_pending: TraceSegment | None = None
        if pending is not None:
            real_pending = TraceSegment(
                tid=pending.tid,
                instructions=pending.instructions,
                uop_count=pending.uop_count,
                join_count=pending.join_count,
            )
        buffered: list[DynamicInstruction] = []
        if self._start is not None:
            buffered = self._materialize(self._base_lo, self._row)
        selector.load_state(
            instructions=buffered,
            uops=self._uops,
            start=self._start,
            directions=self._directions,
            num_branches=self._num_branches,
            context_depth=self._context_depth,
            pending=real_pending,
            pending_base_tid=(
                self._pending_base_tid if real_pending is not None else None
            ),
            terminations=self.terminations,
        )
