"""Seeded workload inputs: grid sizes, app subsets and the serve request mix.

Everything a workload feeds the program is a pure function of the
``--seed`` argument and the application roster recorded in the
reference file, so a run can be repeated exactly and a claim re-checked
on a seed that was not used while making it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: The seven machine models, spelled out (``--models all`` is not a
#: valid sweep argument).
MODELS = ("N", "W", "TN", "TW", "TON", "TOW", "TOS")

#: Full-detail grid: the program's default run length.
GRID_LENGTH = 20_000
#: Apps per suite in the 8-app grid (the composition of the CLI's
#: balanced ``--apps 8`` prefix); the seed picks which apps.
GRID_SUITE_COUNTS = {"SpecInt": 2, "SpecFP": 2, "Office": 2,
                     "Multimedia": 1, "DotNet": 1}

SAMPLED_MODELS = ("N", "TON")
SAMPLED_LENGTH = 1_000_000
SAMPLED_SPEC = "adaptive"
#: The composition of the CLI's balanced ``--apps 4`` prefix.
SAMPLED_SUITE_COUNTS = {"SpecInt": 1, "SpecFP": 1, "Office": 1,
                        "Multimedia": 1}

#: Worker processes for grid evaluation (the host has two cores).
JOBS = 2

#: Serve request mix: warm-up requests (not timed) and the timed batch.
SERVE_WARMUP = 300
SERVE_BATCH = 1000
#: Figure requests per timed batch (2%).
SERVE_FIGURES_PER_BATCH = 20
#: Zipf exponent of result-cell popularity.  An assumption, not measured:
#: no request log of ``repro serve`` exists.  It largely sets the LRU hit
#: ratio, so see LAYERS.md before reading serve_reads figures as real traffic.
SERVE_ZIPF = 0.9
FIGURES = ("fig4_1", "fig4_2", "fig4_3", "fig4_4", "fig4_5", "fig4_6",
           "fig4_7", "fig4_8", "fig4_9", "fig4_10", "fig4_11", "headline")


def pick_apps(seed: int, suites: dict[str, list[str]],
              counts: dict[str, int]) -> list[str]:
    """A suite-balanced app subset: ``counts[suite]`` apps of each suite,
    chosen by ``seed``, listed round-robin across suites."""
    chosen = []
    for suite, count in counts.items():
        rng = random.Random(f"apps:{seed}:{suite}")
        chosen.append(rng.sample(suites[suite], count))
    return [app for group in itertools.zip_longest(*chosen)
            for app in group if app is not None]


@dataclass(frozen=True)
class Request:
    """One serve request: ``kind`` is ``result`` or ``figure``; ``key`` is
    the ``MODEL/APP`` cell or the figure name."""

    kind: str
    key: str

    @property
    def path(self) -> str:
        if self.kind == "figure":
            return f"/api/figure/{self.key}"
        model, app = self.key.split("/")
        return f"/api/result?model={model}&app={app}"


class RequestPlan:
    """The seeded serve request sequence.

    Result cells get Zipf popularity over a seed-shuffled ranking of all
    cells; each timed batch carries exactly
    :data:`SERVE_FIGURES_PER_BATCH` figure requests at seeded positions,
    cycling through a seed-shuffled order of the figures so every batch
    renders a similar mix.
    """

    def __init__(self, seed: int, cells: list[str]):
        self.seed = seed
        ranked = sorted(cells)
        random.Random(f"rank:{seed}").shuffle(ranked)
        self.ranked = ranked
        weights = [1.0 / (rank + 1) ** SERVE_ZIPF
                   for rank in range(len(ranked))]
        self._cumulative = list(itertools.accumulate(weights))
        figures = list(FIGURES)
        random.Random(f"figures:{seed}").shuffle(figures)
        self._figures = figures

    def _cell(self, rng: random.Random) -> str:
        point = rng.random() * self._cumulative[-1]
        return self.ranked[bisect.bisect_right(self._cumulative, point)]

    def warmup(self) -> list[Request]:
        rng = random.Random(f"warmup:{self.seed}")
        return [Request("result", self._cell(rng))
                for _ in range(SERVE_WARMUP)]

    def batch(self, index: int) -> list[Request]:
        rng = random.Random(f"batch:{self.seed}:{index}")
        batch = [Request("result", self._cell(rng))
                 for _ in range(SERVE_BATCH)]
        positions = sorted(rng.sample(range(SERVE_BATCH),
                                      SERVE_FIGURES_PER_BATCH))
        for offset, position in enumerate(positions):
            name = self._figures[
                (index * SERVE_FIGURES_PER_BATCH + offset) % len(self._figures)
            ]
            batch[position] = Request("figure", name)
        return batch
