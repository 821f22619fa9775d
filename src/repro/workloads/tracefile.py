"""Execution-trace files: capture, store and replay dynamic streams.

The paper's simulators are *trace-driven*: they replay recorded execution
traces of real applications (§3).  This module provides the same workflow
for this reproduction — capture any dynamic stream (synthetic or
otherwise) into a compact ``.npz`` trace file, and replay it later without
the generating program:

    >>> from repro.core.simulator import ParrotSimulator, RunOptions
    >>> from repro.models.configs import model_config
    >>> from repro.sampling.config import SamplingConfig
    >>> from repro.workloads import application
    >>> from repro.workloads.tracefile import capture_trace, TraceFile
    >>> wl = application("swim").build()
    >>> capture_trace(wl.stream(200_000), "swim.trace.npz")
    200000
    >>> trace = TraceFile.load("swim.trace.npz")
    >>> sim = ParrotSimulator(model_config("TON"))
    >>> full = sim.simulate(trace.stream(), app_name="swim",
    ...                     program=wl.program)
    >>> sampled = sim.simulate(trace.stream(),
    ...                        RunOptions(sampling=SamplingConfig()),
    ...                        app_name="swim", program=wl.program,
    ...                        length=len(trace))

A trace file is self-contained: it stores the static image of every
*executed* instruction (addresses, lengths, classes, complete uop
encodings) plus the dynamic record (instruction index, branch outcome,
successor, effective memory address), so third-party traces can be
converted into this format and run on all machine models.  A loaded trace
replays through the same :class:`ArtifactReplayWalker` as a compiled
artifact, so sampled runs fast-forward and functionally warm exactly like
runs over the generating walker (``program=`` only prewarms the
hierarchy; without it the run starts cold).

The second half of this module is the **compiled trace artifact** layer
used by the experiment engine's grid fast path.  Every machine model of an
application walks the bit-identical generated stream, so the engine
compiles each (app, seed, length) stream once — :func:`compile_artifact` —
into a content-keyed directory under the artifact cache
(``~/.cache/repro/artifacts`` beside the result store) and replays it for
every grid cell.  Unlike a portable trace file, an artifact additionally
persists the *full* program prewarm image (all static code addresses and
data ranges, in program order), so an artifact-driven run starts from the
exact hierarchy state a generator-driven run would; the dynamic record is
a flat uncompressed ``.npy`` loaded with ``mmap_mode="r"``, so parallel
pool workers replaying the same application share its pages through the
page cache instead of each re-walking the stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.isa.instruction import DynamicInstruction, MacroInstruction, Uop
from repro.isa.opcodes import (
    FLOW_CALL,
    FLOW_COND_BRANCH,
    FLOW_DIRECT_JUMP,
    FLOW_INDIRECT_JUMP,
    FLOW_RETURN,
    FLOW_SOFTWARE_INT,
    InstrClass,
    UopKind,
)
from repro.workloads.stream import _DYN_CTI_FLOWS, InstructionStream

#: Trace-file format version (stored in the archive for forward safety).
FORMAT_VERSION = 1

#: Compiled-trace-artifact format version.  Part of the artifact key, so
#: bumping it silently invalidates every cached artifact (same mechanism
#: as the result store's schema version).
ARTIFACT_SCHEMA_VERSION = 1

#: Sentinel for "no memory access" in the mem-address column.
_NO_MEM = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: Sentinel for "no immediate" in the uop imm column.
_NO_IMM = np.int64(-(1 << 62))

#: Dynamic-record row layout: one row per dynamic instruction, ``mem``
#: using :data:`_NO_MEM` for "no access".  An artifact's ``dyn.npy`` holds
#: it on disk; a loaded trace file holds it in memory.
_DYN_DTYPE = np.dtype([
    ("index", np.uint32),
    ("taken", np.bool_),
    ("next", np.uint64),
    ("mem", np.uint64),
])

#: Instructions pulled per bulk step while recording a stream.
_COMPILE_BATCH = 4096


def _static_arrays(statics: list[MacroInstruction]) -> dict[str, "np.ndarray"]:
    """Encode a static-instruction table as the on-disk column arrays."""
    uop_rows: list[tuple[int, int, int, int, int]] = []
    uop_offsets = [0]
    for instr in statics:
        for uop in instr.uops:
            uop_rows.append(
                (
                    int(uop.kind),
                    uop.dest,
                    uop.src1,
                    uop.src2,
                    uop.imm if uop.imm is not None else int(_NO_IMM),
                )
            )
        uop_offsets.append(len(uop_rows))
    return {
        "s_addr": np.array([i.address for i in statics], dtype=np.uint64),
        "s_len": np.array([i.length for i in statics], dtype=np.uint8),
        "s_class": np.array([int(i.iclass) for i in statics], dtype=np.uint8),
        "s_target": np.array(
            [i.taken_target if i.taken_target is not None else 0
             for i in statics],
            dtype=np.uint64,
        ),
        "s_has_target": np.array(
            [i.taken_target is not None for i in statics], dtype=np.bool_
        ),
        "uops": np.array(uop_rows, dtype=np.int64).reshape(-1, 5),
        "uop_offsets": np.array(uop_offsets, dtype=np.int64),
    }


def _decode_statics(data) -> list[MacroInstruction]:
    """Rebuild the static-instruction table from the column arrays.

    Reconstructed uops are interned per row, so two instructions sharing a
    decode template share one :class:`~repro.isa.instruction.Uop` object —
    the same flyweight discipline as
    :func:`~repro.isa.decoder.decode_template` (immutable by convention;
    mutating consumers copy first).
    """
    # Materialize every column exactly once: an NpzFile re-reads (and
    # decompresses) the full member on every subscript, so per-row
    # ``data[...]`` access is quadratic in disguise.
    addresses = data["s_addr"].tolist()
    lengths = data["s_len"].tolist()
    classes = data["s_class"].tolist()
    targets = data["s_target"].tolist()
    has_targets = data["s_has_target"].tolist()
    uop_rows = data["uops"].tolist()
    uop_offsets = data["uop_offsets"].tolist()
    no_imm = int(_NO_IMM)
    interned: dict[tuple, Uop] = {}
    instructions = []
    for i, address in enumerate(addresses):
        uops = []
        for row in uop_rows[uop_offsets[i]:uop_offsets[i + 1]]:
            row = tuple(row)
            uop = interned.get(row)
            if uop is None:
                uop = Uop(
                    UopKind(row[0]), row[1], row[2], row[3],
                    None if row[4] == no_imm else row[4],
                )
                interned[row] = uop
            uops.append(uop)
        instructions.append(
            MacroInstruction(
                address=address,
                length=lengths[i],
                iclass=InstrClass(classes[i]),
                uops=tuple(uops),
                taken_target=targets[i] if has_targets[i] else None,
            )
        )
    return instructions


def capture_trace(
    stream: InstructionStream,
    path: str | pathlib.Path,
) -> int:
    """Record ``stream`` into a trace file; returns instructions captured.

    Only the static instructions actually executed are stored, so cold
    code that never runs costs nothing.
    """
    records: list[tuple[int, bool, int, int | None]] = []
    static_index: dict[int, int] = {}
    statics: list[MacroInstruction] = []
    while True:
        batch = stream.take_batch(_COMPILE_BATCH)
        if not batch:
            break
        for dyn in batch:
            address = dyn.address
            index = static_index.get(address)
            if index is None:
                index = len(statics)
                static_index[address] = index
                statics.append(dyn.instr)
            records.append((index, dyn.taken, dyn.next_address, dyn.mem_addr))
    if not records:
        raise WorkloadError("cannot capture an empty stream")

    # ---- dynamic arrays ------------------------------------------------------
    d_index = np.array([r[0] for r in records], dtype=np.uint32)
    d_taken = np.array([r[1] for r in records], dtype=np.bool_)
    d_next = np.array([r[2] for r in records], dtype=np.uint64)
    d_mem = np.array(
        [r[3] if r[3] is not None else int(_NO_MEM) for r in records],
        dtype=np.uint64,
    )

    np.savez_compressed(
        path,
        version=np.array([FORMAT_VERSION]),
        **_static_arrays(statics),
        d_index=d_index, d_taken=d_taken, d_next=d_next, d_mem=d_mem,
    )
    return len(records)


class TraceFile:
    """A loaded execution trace, replayable as an instruction stream.

    The dynamic rows are held as an in-memory :class:`TraceArtifact`
    record, so :meth:`stream` replays through the same
    :class:`ArtifactReplayWalker` as a compiled artifact: full detail,
    fast-forward, functional warming and the columnar warmup path are
    bit-identical to a run over the generating walker.  A trace file
    carries no program image; pass ``program=`` to
    :meth:`~repro.core.simulator.ParrotSimulator.simulate` to prewarm the
    hierarchy, or prewarm from :meth:`code_addresses` and
    :meth:`touched_data_ranges`.
    """

    def __init__(self, instructions: list[MacroInstruction],
                 dyn: "np.ndarray"):
        self.instructions = instructions
        self._record = TraceArtifact(
            None, app_name="trace", suite="Custom", seed=None,
            length=len(dyn), instructions=instructions,
            prewarm_code=[], prewarm_data=[], dyn=dyn,
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "TraceFile":
        """Load a trace file written by :func:`capture_trace`."""
        with np.load(path) as data:
            version = int(data["version"][0])
            if version != FORMAT_VERSION:
                raise WorkloadError(
                    f"trace file {path}: format version {version} unsupported"
                )
            instructions = _decode_statics(data)
            index = data["d_index"]
            dyn = np.empty(len(index), dtype=_DYN_DTYPE)
            dyn["index"] = index
            dyn["taken"] = data["d_taken"]
            dyn["next"] = data["d_next"]
            dyn["mem"] = data["d_mem"]
        return cls(instructions, dyn)

    # -- replay ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._record)

    def stream(self, limit: int | None = None) -> InstructionStream:
        """Replay the trace as an :class:`InstructionStream`."""
        return self._record.stream(limit)

    def touched_data_ranges(self, line_bytes: int = 64) -> list[tuple[int, int]]:
        """Line-granular data ranges touched by the trace (for prewarming)."""
        mem = self._record._dyn["mem"]
        valid = mem[mem != _NO_MEM]
        if valid.size == 0:
            return []
        lines = np.unique(valid // line_bytes)
        return [(int(line) * line_bytes, line_bytes) for line in lines]

    def code_addresses(self) -> list[int]:
        """All static instruction addresses (for prewarming the L1I)."""
        return [instr.address for instr in self.instructions]


# -- compiled trace artifacts --------------------------------------------------


#: What :meth:`TraceArtifact.load` raises for an absent, torn, truncated
#: or foreign artifact directory; the cache treats every one as a miss.
_UNDECODABLE = (
    OSError, ValueError, KeyError, EOFError,
    zipfile.BadZipFile, zlib.error, WorkloadError,
)

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_artifact_root() -> pathlib.Path:
    """The artifact cache directory: ``<result-store root>/artifacts``."""
    env = os.environ.get(_ENV_CACHE_DIR, "").strip()
    base = pathlib.Path(env) if env else pathlib.Path.home() / ".cache" / "repro"
    return base / "artifacts"


def artifact_key(app_name: str, seed: int, length: int) -> str:
    """Content key of one compiled stream in the artifact cache.

    Covers everything the generated stream is a function of — the
    application, its generator seed and the run length — plus the artifact
    format version, so a format change can never serve stale bytes.
    """
    material = "|".join((
        f"schema={ARTIFACT_SCHEMA_VERSION}",
        f"app={app_name}",
        f"seed={seed}",
        f"length={length}",
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ArtifactReplayWalker:
    """Replay a recorded dynamic record through the walker interface.

    The record is a compiled artifact's ``dyn.npy`` or a loaded trace
    file's rows; this is the only walker besides the generating one that
    an :class:`~repro.workloads.stream.InstructionStream` accepts.

    Implements the same bulk surface as
    :class:`~repro.workloads.stream.StreamWalker` — ``next_batch``,
    ``skip`` and ``warm_skip`` — so an
    :class:`~repro.workloads.stream.InstructionStream` over it behaves
    bit-identically to one over the generating walker, in both the
    full-detail and the sampled regime.  There is no RNG and no call stack
    to evolve: every outcome is already recorded, so ``skip`` is a cursor
    move and ``warm_skip`` replays only the warming side effects (icache
    probe per new line, predictor training per dynamic CTI, dcache touch
    per memory access — the exact effect order of
    :meth:`~repro.workloads.stream.StreamWalker.warm_skip`).

    The record stays the artifact's memory-mapped structured array: every
    call slices the rows ``[lo, hi)`` it covers and decodes only the
    fields it needs, so a sampled run pays for the windows it touches,
    never for the whole record.
    """

    __slots__ = (
        "_artifact", "_instructions", "_raw", "_dyn_cti",
        "_pos", "_total", "executed",
    )

    def __init__(self, artifact: "TraceArtifact"):
        self._artifact = artifact
        self._instructions = artifact.instructions
        self._raw = artifact._dyn
        self._dyn_cti = None
        self._pos = 0
        self._total = len(artifact)
        self.executed = 0

    def next_batch(self, count: int) -> list[DynamicInstruction]:
        """Decode ``count`` recorded instructions in one call, in order."""
        i = self._pos
        end = min(i + count, self._total)
        if end <= i:
            return []
        out = self.materialize(i, end)
        self._pos = end
        self.executed += len(out)
        return out

    def raw_batch(self, count: int):
        """Consume up to ``count`` rows without decoding them.

        Returns ``(lo, index)`` — the global row number of the first
        consumed row and a plain-list slice of the static-table index
        column — without building any :class:`DynamicInstruction`.  The
        columnar-warmup fast path pairs this with
        :meth:`static_addresses`, :meth:`scan_tables` and
        :meth:`materialize`.
        """
        i = self._pos
        end = min(i + count, self._total)
        self._pos = end
        self.executed += end - i
        return i, self._raw["index"][i:end].tolist()

    def materialize(self, lo: int, hi: int) -> list[DynamicInstruction]:
        """Decode recorded rows ``[lo, hi)`` independently of the cursor.

        Iterates C-level ``zip`` over per-field ``tolist`` slices rather
        than indexing rows one by one — measurably faster on the
        bulk-replay path.
        """
        rows = self._raw[lo:hi]
        instructions = self._instructions
        no_mem = int(_NO_MEM)
        dyn_instr = DynamicInstruction
        return [
            dyn_instr(instructions[s], t, n, None if m == no_mem else m)
            for s, t, n, m in zip(
                rows["index"].tolist(),
                rows["taken"].tolist(),
                rows["next"].tolist(),
                rows["mem"].tolist(),
            )
        ]

    def static_addresses(self) -> list[int]:
        """Instruction address per static-table index (columnar selection).

        Shared with the owning artifact, so the table is built once per
        loaded record, not per walker.
        """
        return self._artifact._addresses()

    def scan_tables(self, lo: int, hi: int):
        """Selection-scan tables of rows ``[lo, hi)`` (boundary jumping).

        ``(cum_uops, ctrl_rows, ctrl_kinds, cond_rows, cond_taken)``:
        ``cum_uops`` holds the window's cumulative uop count with a
        leading 0 (``cum_uops[r - lo + 1]`` counts rows ``lo..r``), so
        capacity boundaries fall out of one ``bisect``; ``ctrl_rows``
        are the global rows whose flow can close a base or move the
        call-context counter — calls (kind 0), returns (1),
        backward-taken branches and backward direct jumps (2), indirect
        jumps (3) and software interrupts (4) — and ``cond_rows`` the
        global conditional-branch rows with their taken flags (the
        direction-string bits).  One vectorized pass over the window
        only; nothing outside it is read or kept.
        """
        rows = self._raw[lo:hi]
        idx = rows["index"]
        addr_np, flow_np, uops_np, _, _ = self._artifact._np_tables()
        code = flow_np[idx]
        taken = rows["taken"]
        backward = rows["next"] <= addr_np[idx]
        is_cond = code == FLOW_COND_BRANCH
        kind = np.full(len(rows), -1, dtype=np.int8)
        kind[code == FLOW_CALL] = 0
        kind[code == FLOW_RETURN] = 1
        kind[(is_cond & taken & backward)
             | ((code == FLOW_DIRECT_JUMP) & backward)] = 2
        kind[code == FLOW_INDIRECT_JUMP] = 3
        kind[code == FLOW_SOFTWARE_INT] = 4
        ctrl = np.flatnonzero(kind >= 0)
        cond = np.flatnonzero(is_cond)
        cum = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(uops_np[idx], out=cum[1:])
        return (
            cum.tolist(),
            (ctrl + lo).tolist(),
            kind[ctrl].tolist(),
            (cond + lo).tolist(),
            taken[cond].tolist(),
        )

    def skip(self, count: int, profile: dict | None = None) -> int:
        """Advance the cursor; no state to evolve, so this is O(1).

        With ``profile``, the skipped rows are additionally scanned as
        numpy columns and the resolved successors of dynamic CTIs
        (:data:`~repro.workloads.stream._DYN_CTI_FLOWS`) accumulate into
        the mapping — count-identical to a profiled
        :meth:`~repro.workloads.stream.StreamWalker.skip` over the same
        window, which the sampled store keys rely on (they do not encode
        whether a run replayed an artifact).
        """
        i = self._pos
        n = min(count, self._total - i)
        end = i + n
        if profile is not None and n:
            dyn_cti = self._dyn_cti
            if dyn_cti is None:
                dyn_cti = np.array(
                    [instr.flow_code in _DYN_CTI_FLOWS
                     for instr in self._instructions],
                    dtype=np.bool_,
                )
                self._dyn_cti = dyn_cti
            rows = self._raw[i:end]
            targets = rows["next"][dyn_cti[rows["index"]]]
            if targets.size:
                values, counts = np.unique(targets, return_counts=True)
                get = profile.get
                for value, c in zip(values.tolist(), counts.tolist()):
                    profile[value] = get(value, 0) + c
        self._pos = end
        self.executed += n
        return n

    def warm_skip(self, count: int, fetch, touch, train,
                  line_shift: int = 6) -> int:
        """Cursor-advance ``count`` records, replaying warming effects.

        Matches the generating walker's per-instruction effect order —
        icache ``fetch`` on a new line, predictor ``train`` for dynamic
        CTIs (software interrupts fall through untrained, exactly like the
        walker's remapped plans), then dcache ``touch`` — with the
        last-probed line reset per call.
        """
        i = self._pos
        end = min(i + count, self._total)
        if end <= i:
            return 0
        self._replay_warm(i, end, fetch, touch, train, line_shift, -1,
                          trainable_gate=True, touch_last=True)
        self._pos = end
        self.executed += end - i
        return end - i

    def warm_effects(self, lo: int, hi: int, fetch, touch, train,
                     line_shift: int, last_line: int = -1) -> int:
        """Replay the trace-warmup window's warming effects for rows
        ``[lo, hi)`` independently of the cursor.

        The columnar-warmup counterpart of the per-instruction loop in
        :meth:`~repro.sampling.warmup.WarmupPolicy.warm`: icache ``fetch``
        on a new line, dcache ``touch`` per access, then ``train`` for
        every CTI (``is_cti`` gate, not the skip path's ``trainable``).
        ``last_line`` carries the last-probed icache line across batches
        of one window; the updated value is returned.
        """
        return self._replay_warm(lo, hi, fetch, touch, train, line_shift,
                                 last_line, trainable_gate=False,
                                 touch_last=False)

    def _replay_warm(self, i: int, end: int, fetch, touch, train,
                     line_shift: int, last_line: int, *,
                     trainable_gate: bool, touch_last: bool) -> int:
        """Replay warming side effects for rows ``[i, end)``, compressed.

        The per-row scan is vectorized: one numpy pass computes which
        rows fire any warming effect (new icache line, trainable CTI,
        memory access) and the Python loop then visits only those rows —
        typically around half the window — with their fields gathered
        and decoded in one step each.  Within a row the effect order is
        exact: ``fetch``, then ``train``/``touch`` in the order the
        mirrored reference loop uses (``touch_last`` selects the skip
        path's fetch-train-touch or the warmup window's
        fetch-touch-train).  Returns the line of the last scanned row.
        """
        n = end - i
        if n <= 0:
            return last_line
        rows = self._raw[i:end]
        idx = rows["index"]
        addr_np, _, _, trainable_np, cti_np = self._artifact._np_tables()
        addr = addr_np[idx]
        lines = addr >> line_shift
        newline = np.empty(n, dtype=np.bool_)
        newline[0] = last_line < 0 or int(lines[0]) != last_line
        np.not_equal(lines[1:], lines[:-1], out=newline[1:])
        train_mask = (trainable_np if trainable_gate else cti_np)[idx]
        mem = rows["mem"]
        mem_mask = mem != _NO_MEM
        events = np.flatnonzero(newline | train_mask | mem_mask)
        instructions = self._instructions
        fired = zip(
            newline[events].tolist(),
            train_mask[events].tolist(),
            mem_mask[events].tolist(),
            addr[events].tolist(),
            idx[events].tolist(),
            rows["taken"][events].tolist(),
            rows["next"][events].tolist(),
            mem[events].tolist(),
        )
        if touch_last:
            for new, tr, mm, a, s, t, nx, m in fired:
                if new:
                    fetch(a)
                if tr:
                    train(instructions[s], t, nx)
                if mm:
                    touch(m)
        else:
            for new, tr, mm, a, s, t, nx, m in fired:
                if new:
                    fetch(a)
                if mm:
                    touch(m)
                if tr:
                    train(instructions[s], t, nx)
        return int(lines[-1])


class TraceArtifact:
    """A loaded compiled trace artifact: static image + mmap'd dyn record.

    The static instruction table and the program prewarm image are decoded
    eagerly (they are tiny); the dynamic record stays a memory-mapped
    structured array for the artifact's whole life.  Replay walkers decode
    it window by window — only the rows each call covers, only the fields
    it reads — so memory follows the windows a run touches, not the
    record's length, and pool workers replaying the same application
    share the record's pages through the page cache.

    A loaded :class:`TraceFile` keeps its rows in one too, held in memory
    with an empty prewarm image, and replays through the same walker.
    """

    __slots__ = (
        "path", "app_name", "suite", "seed", "length",
        "instructions", "prewarm_code", "prewarm_data",
        "_dyn", "_addr", "_np", "_segments",
    )

    def __init__(self, path, *, app_name, suite, seed, length,
                 instructions, prewarm_code, prewarm_data, dyn):
        self.path = path
        self.app_name = app_name
        self.suite = suite
        self.seed = seed
        self.length = length
        self.instructions = instructions
        self.prewarm_code = prewarm_code
        self.prewarm_data = prewarm_data
        self._dyn = dyn
        self._addr = None
        self._np = None
        self._segments = None

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "TraceArtifact":
        """Load one artifact directory written by :func:`compile_artifact`.

        Raises :class:`~repro.errors.WorkloadError` on a schema mismatch
        or a record-count mismatch (a torn or foreign directory); missing
        or undecodable files raise whatever their decoder does.  Every
        one of these is in :data:`_UNDECODABLE`, so callers can treat any
        failure as a cache miss.
        """
        directory = pathlib.Path(directory)
        meta = json.loads((directory / "meta.json").read_text())
        if meta.get("schema") != ARTIFACT_SCHEMA_VERSION:
            raise WorkloadError(
                f"artifact {directory}: schema {meta.get('schema')} "
                f"unsupported (expected {ARTIFACT_SCHEMA_VERSION})"
            )
        with np.load(directory / "static.npz") as data:
            instructions = _decode_statics(data)
            prewarm_code = data["pw_code"].tolist()
            prewarm_data = list(
                zip(data["pw_base"].tolist(), data["pw_extent"].tolist())
            )
        dyn = np.load(directory / "dyn.npy", mmap_mode="r")
        if dyn.dtype != _DYN_DTYPE or len(dyn) != meta["length"]:
            raise WorkloadError(
                f"artifact {directory}: dynamic record does not match its "
                f"metadata ({len(dyn)} rows, {meta['length']} expected)"
            )
        return cls(
            directory,
            app_name=meta["app"], suite=meta["suite"],
            seed=meta["seed"], length=meta["length"],
            instructions=instructions,
            prewarm_code=prewarm_code, prewarm_data=prewarm_data,
            dyn=dyn,
        )

    def __len__(self) -> int:
        return self.length

    def _addresses(self) -> list[int]:
        """Instruction address per static-table index."""
        if self._addr is None:
            self._addr = [instr.address for instr in self.instructions]
        return self._addr

    def _np_tables(self):
        """Per-static numpy tables for vectorized window scans.

        ``(addresses, flow, uops, trainable, cti)`` indexed by static-table
        index: addresses feed the icache-line scan and the backward-branch
        test, flow codes and uop counts the selection scan, ``trainable``
        gates :meth:`ArtifactReplayWalker.warm_skip` training — it mirrors
        the generating walker's plan compilation, where flow codes 1-5
        train and software interrupts (flow code 6) are remapped to plain
        fall-through — and ``cti`` gates the trace-warmup window's
        training (every CTI class, mirroring ``MacroInstruction.is_cti``).
        """
        if self._np is None:
            instructions = self.instructions
            flow_np = np.array(
                [instr.flow_code for instr in instructions], dtype=np.int8
            )
            self._np = (
                np.array(self._addresses(), dtype=np.uint64),
                flow_np,
                np.array([instr.num_uops for instr in instructions],
                         dtype=np.int64),
                (flow_np >= 1) & (flow_np <= 5),
                flow_np != 0,
            )
        return self._np

    def walker(self) -> ArtifactReplayWalker:
        """A fresh replay walker positioned at the first record."""
        return ArtifactReplayWalker(self)

    def stream(self, limit: int | None = None) -> InstructionStream:
        """Replay the artifact as an :class:`InstructionStream`."""
        return InstructionStream.from_artifact(self, limit)

    def segments(self) -> list:
        """The full record pre-partitioned into trace-shaped segments.

        Segmentation depends only on the recorded stream (never on the
        simulated machine), so the partition is computed once per loaded
        artifact and shared by every simulator replaying it — the
        cross-model amortization the engine's worker memos rely on.  The
        returned list's *identity* doubles as the segment-list fingerprint
        for :class:`~repro.core.simulator.ColdPlanCache`.  Callers must
        not mutate it.
        """
        if self._segments is None:
            from repro.core.simulator import segment_stream

            self._segments = list(segment_stream(self.stream()))
        return self._segments


def compile_artifact(
    app,
    seed: int,
    length: int,
    *,
    root: str | pathlib.Path | None = None,
) -> TraceArtifact:
    """Walk ``app``'s stream once and persist it as a compiled artifact.

    ``app`` is an :class:`~repro.workloads.suite.Application` (or anything
    with ``name``/``suite``/``build()``, where ``build()`` returns a
    workload with ``program`` and ``walker()``); ``seed`` is its generator
    seed — part of the content key, so a seed change keys to a fresh
    artifact.

    The walk goes straight into the dynamic record: the generating
    walker's :meth:`~repro.workloads.stream.StreamWalker.next_columns`
    emits ``_COMPILE_BATCH`` rows at a time as columns, which are
    slice-assigned into the preallocated ``dyn`` array, and the static
    table lists the executed instructions in first-execution order.  No
    :class:`DynamicInstruction` is built, and the record holds exactly
    the rows a ``workload.stream(length)`` would yield.

    An artifact already on disk is loaded instead; one that does not
    decode is recompiled and replaced.  The write is atomic (temp
    directory + ``os.replace``), and a concurrent compiler racing on the
    same key simply loses the rename and loads the winner's bytes.
    Returns the loaded artifact.
    """
    if length <= 0:
        raise WorkloadError(f"stream limit must be positive, got {length}")
    root = pathlib.Path(root) if root is not None else default_artifact_root()
    key = artifact_key(app.name, seed, length)
    final = root / key[:2] / key
    try:
        return TraceArtifact.load(final)
    except _UNDECODABLE:
        pass  # absent or corrupt: compile it, replacing any corrupt copy

    workload = app.build()
    program = workload.program
    walker = workload.walker()
    static_index: dict[int, int] = {}
    dyn = np.empty(length, dtype=_DYN_DTYPE)
    no_mem = int(_NO_MEM)
    for lo in range(0, length, _COMPILE_BATCH):
        hi = min(lo + _COMPILE_BATCH, length)
        index, taken, nxt, mem = walker.next_columns(
            hi - lo, static_index, no_mem
        )
        dyn["index"][lo:hi] = index
        dyn["taken"][lo:hi] = taken
        dyn["next"][lo:hi] = nxt
        dyn["mem"][lo:hi] = mem
    statics = [program.instructions[address] for address in static_index]

    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(f"{key}.tmp.{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        np.savez_compressed(
            tmp / "static.npz",
            **_static_arrays(statics),
            pw_code=np.array(
                list(program.instructions.keys()), dtype=np.uint64
            ),
            pw_base=np.array(
                [spec.base for spec in program.mem_specs.values()],
                dtype=np.uint64,
            ),
            pw_extent=np.array(
                [spec.extent for spec in program.mem_specs.values()],
                dtype=np.uint64,
            ),
        )
        np.save(tmp / "dyn.npy", dyn)
        (tmp / "meta.json").write_text(json.dumps(
            {
                "schema": ARTIFACT_SCHEMA_VERSION,
                "app": app.name,
                "suite": app.suite,
                "seed": seed,
                "length": length,
                "statics": len(statics),
                "key": key,
            },
            sort_keys=True,
        ))
        return _publish(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # gone already once published


def _publish(tmp: pathlib.Path, final: pathlib.Path) -> TraceArtifact:
    """Move the freshly written directory ``tmp`` to ``final`` and load it.

    ``os.replace`` refuses when ``final`` already holds a directory.  If
    that directory loads, a concurrent compiler won the race and its bytes
    are served (``tmp`` is left for the caller to discard).  If it does
    not, it is a corrupt artifact: it is renamed aside, ``tmp`` takes its
    place and the aside copy is deleted, so a reader sees the old
    directory, no directory or the new one, never a partly written one.
    """
    try:
        os.replace(tmp, final)
    except OSError:
        try:
            return TraceArtifact.load(final)
        except _UNDECODABLE:
            pass
        aside = final.with_name(f"{tmp.name}.corrupt")
        shutil.rmtree(aside, ignore_errors=True)
        try:
            os.replace(final, aside)
        except FileNotFoundError:
            pass  # a concurrent compiler moved it aside first
        try:
            os.replace(tmp, final)
        except OSError:
            pass  # ...and has already published the same bytes
        shutil.rmtree(aside, ignore_errors=True)
    return TraceArtifact.load(final)


@dataclass(frozen=True, slots=True)
class ArtifactInfo:
    """A snapshot of the artifact cache's contents.

    ``stale_tmp`` counts orphaned ``.tmp.<pid>`` directories from crashed
    compilers that the snapshot swept away.
    """

    path: pathlib.Path
    entries: int
    total_bytes: int
    schema_version: int = ARTIFACT_SCHEMA_VERSION
    stale_tmp: int = 0


class ArtifactCache:
    """Content-keyed persistent cache of compiled trace artifacts.

    One directory per (app, seed, length) stream, sharded like the result
    store (``<root>/<key[:2]>/<key>/``).  ``hits`` counts artifacts served
    from disk, ``compiles`` counts fresh stream walks.
    """

    def __init__(self, root: str | pathlib.Path | None = None):
        self.root = (
            pathlib.Path(root) if root is not None else default_artifact_root()
        )
        self.hits = 0
        self.compiles = 0

    def _dir(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / key

    def load(self, app_name: str, seed: int, length: int) -> TraceArtifact | None:
        """The cached artifact for one stream, or ``None`` on any miss."""
        try:
            artifact = TraceArtifact.load(
                self._dir(artifact_key(app_name, seed, length))
            )
        except _UNDECODABLE:
            return None
        self.hits += 1
        return artifact

    def get_or_compile(self, app, length: int) -> TraceArtifact:
        """The artifact for ``app`` at ``length``, compiling on a miss."""
        cached = self.load(app.name, app.seed, length)
        if cached is not None:
            return cached
        artifact = compile_artifact(app, app.seed, length, root=self.root)
        self.compiles += 1
        return artifact

    def _entries(self) -> list[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.glob("*/*")
            if (path / "meta.json").is_file()
        )

    def _sweep_stale_tmp(self) -> int:
        """Remove ``.tmp.<pid>`` directories orphaned by crashed compilers."""
        swept = 0
        if not self.root.is_dir():
            return swept
        for tmp in self.root.glob("*/*.tmp.*"):
            shutil.rmtree(tmp, ignore_errors=True)
            if not tmp.exists():
                swept += 1
        return swept

    def info(self) -> ArtifactInfo:
        """Artifact count and on-disk footprint; sweeps stale temp dirs."""
        stale = self._sweep_stale_tmp()
        entries = self._entries()
        total = 0
        for entry in entries:
            for part in entry.iterdir():
                try:
                    total += part.stat().st_size
                except OSError:
                    pass
        return ArtifactInfo(path=self.root, entries=len(entries),
                            total_bytes=total, stale_tmp=stale)

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        self._sweep_stale_tmp()
        removed = 0
        for entry in self._entries():
            shutil.rmtree(entry, ignore_errors=True)
            if not entry.exists():
                removed += 1
        for shard in self.root.glob("*") if self.root.is_dir() else ():
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return removed
