"""Correctness oracle: reference digests and the checks against them.

Every simulated statistic is deterministic, so a speed-only change must
reproduce each reference digest bit for bit.  The references live in
``refs/`` beside this file; ``python3 perfbench/regen.py`` rebuilds them
(which is itself a benchmark change).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

REFS = pathlib.Path(__file__).resolve().parent / "refs"


def digest(payload) -> str:
    """SHA-256 of the canonical JSON text of ``payload``."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_refs(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())


def check_cells(cells: dict, refs: dict) -> list[str]:
    """Failures among grid cells: each in-memory result and its store
    record must match the cell's reference digest."""
    failures = []
    for key, cell in sorted(cells.items()):
        want = refs["cells"].get(key, {}).get("digest")
        if want is None:
            failures.append(f"{key}: no reference digest")
        elif cell["digest"] != want:
            failures.append(f"{key}: result digest {cell['digest'][:12]} "
                            f"!= reference {want[:12]}")
        elif cell["stored"] != want:
            failures.append(f"{key}: store record does not match the result")
    return failures


def sampling_errors(cells: dict, refs: dict) -> tuple[float, float]:
    """Max over cells of the sampled-vs-full-detail IPC and EPI error, %."""
    ipc_err = epi_err = 0.0
    for key, cell in cells.items():
        full = refs["full"][key]
        ipc_err = max(ipc_err, abs(cell["ipc"] - full["ipc"]) / full["ipc"])
        epi_err = max(epi_err, abs(cell["epi"] - full["epi"]) / full["epi"])
    return 100 * ipc_err, 100 * epi_err


def response_digest(kind: str, payload: dict) -> str:
    """Digest of the deterministic part of one serve response body.

    A result body minus its ``lru`` flag (which depends on request
    order); a figure body's rendered ``text``.
    """
    if kind == "figure":
        return digest(payload.get("text"))
    return digest({k: v for k, v in payload.items() if k != "lru"})


def check_response(kind: str, key: str, status, body: bytes | None,
                   error: str | None, refs: dict) -> str | None:
    """Why one serve response is wrong, or ``None`` if it is right."""
    if error is not None:
        return f"{key}: {error}"
    if status != 200:
        return f"{key}: HTTP {status}"
    try:
        payload = json.loads(body)
    except ValueError:
        return f"{key}: body is not JSON"
    table = refs["figures" if kind == "figure" else "results"]
    if kind == "figure" and payload.get("simulated") != 0:
        return f"{key}: figure simulated {payload.get('simulated')} cells"
    if response_digest(kind, payload) != table.get(key):
        return f"{key}: body does not match the reference"
    return None
