"""In-memory spans around each layer of deltamachine, for the traced run.

The tracer wraps module attributes at run time and restores them afterwards;
nothing under ``src/`` is edited.  A wrapped call opens a span named after
its layer.  Spans are aggregated as they close:

* ``calls``: spans closed under the name;
* ``busy``: wall time of the outermost spans of the name (a layer calling
  itself is not counted twice);
* ``self``: span time minus the time of the child spans it caused.

Counts are recorded at the same boundaries.  Those derived from call
arguments, not observed work (Fisher-Yates steps, chunk bytes, table cells,
classified rows), are labelled as computed in the metric table.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Iterator

from deltamachine import cli, elastic, ensemble, machine, regimes, rng, serialize, spheres

#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("rng.draws", "count"),
    ("rng.busy_s", "s"),
    ("rng.draws_per_s", "1/s"),
    ("machine.kernel_calls", "count"),
    ("machine.kernel_busy_s", "s"),
    ("machine.kernel_self_s", "s"),
    ("machine.useful_step_ratio", "ratio"),
    ("machine.chunk_bytes_max", "B"),
    ("ensemble.calls", "count"),
    ("ensemble.chunks", "count"),
    ("ensemble.self_s", "s"),
    ("elastic.kernel_busy_s", "s"),
    ("spheres.tables", "count"),
    ("spheres.cells", "count"),
    ("spheres.busy_s", "s"),
    ("spheres.cells_per_s", "1/s"),
    ("regimes.rows", "count"),
    ("regimes.self_s", "s"),
    ("scattering.points", "count"),
    ("scattering.busy_s", "s"),
    ("serialize.busy_s", "s"),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "B"),
    ("cli.startup_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: Counts that must repeat exactly between runs with the same seed.
EXACT_COUNTS = (
    "rng.draws",
    "machine.kernel_calls",
    "machine.useful_step_ratio",
    "machine.chunk_bytes_max",
    "ensemble.calls",
    "ensemble.chunks",
    "spheres.tables",
    "spheres.cells",
    "regimes.rows",
    "scattering.points",
    "cli.output_bytes",
    "trace.spans",
)


class Tracer:
    def __init__(self) -> None:
        #: Per span name: [calls, busy, self, open depth].
        self._stats: dict[str, list] = {}
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        #: Open spans as [start, time of closed child spans].
        self._stack: list[list[float]] = []

    def _stat(self, name: str, index: int) -> float:
        return self._stats.get(name, (0, 0.0, 0.0))[index]

    def calls(self, name: str) -> int:
        return self._stat(name, 0)

    def busy(self, name: str) -> float:
        return self._stat(name, 1)

    def self_time(self, name: str) -> float:
        return self._stat(name, 2)

    def spans(self) -> int:
        return sum(stat[0] for stat in self._stats.values())

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        stack = self._stack
        stat = self._stats.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            frame = [0.0, 0.0]
            stack.append(frame)
            stat[3] += 1
            frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stat[0] += 1
                stat[2] += duration - frame[1]
                stat[3] -= 1
                if stat[3] == 0:
                    stat[1] += duration
                if stack:
                    stack[-1][1] += duration

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, on_call in _boundaries():
                original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
                saved.append((owner, attr, original))
                wrapped = self.wrap(name, original, on_call)
                if isinstance(owner, dict):
                    owner[attr] = wrapped
                else:
                    setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)


# -- counters recorded at the boundaries ---------------------------------------------


def _draws_at(t: Tracer, seeds, index) -> None:
    t.counts["rng.draws"] += int(seeds.size)


def _substream_seeds(t: Tracer, seed, start, count) -> None:
    t.counts["rng.draws"] += int(count)
    t.counts["ensemble.chunks"] += 1  # the ensemble layer derives seeds once per chunk


def _draw(t: Tracer, seed, index) -> None:
    t.counts["rng.draws"] += 1


def _kernel(t: Tracer, charges, k, trial_seeds) -> None:
    K, m = int(charges.size), int(trial_seeds.size)
    t.counts["machine.useful_steps"] += m * (K - k)
    t.counts["machine.steps"] += m * (K - 1)
    t.maxima["machine.chunk_bytes"] = max(t.maxima["machine.chunk_bytes"], m * K * charges.itemsize)


def _table(t: Tracer, K, *args, **kwargs) -> None:
    t.counts["spheres.cells"] += K * (K + 1)


def _classify(t: Tracer, K, *args, **kwargs) -> None:
    t.counts["regimes.rows"] += K


def _amplitudes(t: Tracer, *args, **kwargs) -> None:
    t.counts["scattering.points"] += 1


def _write_output(t: Tracer, args, rendered) -> None:
    t.counts["cli.output_bytes"] += len(rendered.encode())


def _boundaries() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, counter) of every wrapped boundary.

    A function imported by name into another module is wrapped in each
    module that calls it, so calls from every layer are seen.
    """
    points = [
        (rng, "draws_at", "rng", _draws_at),
        (rng, "substream_seeds", "rng", _substream_seeds),
        (rng, "draw", "rng", _draw),
        (machine, "_transmitted_mask", "machine.kernel", _kernel),
        (elastic, "_plus_mask", "elastic.kernel", None),
        (ensemble, "run_counted", "ensemble", None),
        (machine, "run_counted", "ensemble", None),
        (elastic, "run_counted", "ensemble", None),
    ]
    points += [(m, "probability_table", "spheres.table", _table) for m in (spheres, regimes, machine, cli)]
    points += [(m, "classify_table", "regimes", _classify) for m in (regimes, cli)]
    points += [(cli, "amplitudes", "scattering", _amplitudes)]
    points += [
        (cli, name, "scattering", None)
        for name in ("transmission_probability", "reflection_probability", "jump_condition_residual")
    ]
    points += [
        (serialize, name, "serialize", None)
        for name in (
            "fraction_payload", "table_payload", "table_csv_rows", "ensemble_payload",
            "outcome_pair_payload", "scatter_point_payload", "scatter_csv_rows", "verdicts_payload",
        )
    ]
    points += [(cli, name, "cli.render", None) for name in ("_render_json", "_render_csv", "_grid_text")]
    points += [(cli, "_write_output", "cli.write", _write_output)]
    points += [(cli._DISPATCH, command, "cli.command", None) for command in sorted(cli._DISPATCH)]
    return points


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, scale: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass (start-up and overhead excluded).

    ``scale`` rescales span times to the reference speed, as the benchmark
    does for operation times.
    """

    def busy(name: str) -> float:
        return t.busy(name) * scale

    def self_time(name: str) -> float:
        return t.self_time(name) * scale

    return {
        "rng.draws": t.counts["rng.draws"],
        "rng.busy_s": busy("rng"),
        "rng.draws_per_s": _ratio(t.counts["rng.draws"], busy("rng")),
        "machine.kernel_calls": t.calls("machine.kernel"),
        "machine.kernel_busy_s": busy("machine.kernel"),
        "machine.kernel_self_s": self_time("machine.kernel"),
        "machine.useful_step_ratio": _ratio(t.counts["machine.useful_steps"], t.counts["machine.steps"]),
        "machine.chunk_bytes_max": t.maxima["machine.chunk_bytes"],
        "ensemble.calls": t.calls("ensemble"),
        "ensemble.chunks": t.counts["ensemble.chunks"],
        "ensemble.self_s": self_time("ensemble"),
        "elastic.kernel_busy_s": busy("elastic.kernel"),
        "spheres.tables": t.calls("spheres.table"),
        "spheres.cells": t.counts["spheres.cells"],
        "spheres.busy_s": busy("spheres.table"),
        "spheres.cells_per_s": _ratio(t.counts["spheres.cells"], busy("spheres.table")),
        "regimes.rows": t.counts["regimes.rows"],
        "regimes.self_s": self_time("regimes"),
        "scattering.points": t.counts["scattering.points"],
        "scattering.busy_s": busy("scattering"),
        "serialize.busy_s": busy("serialize"),
        # Command bodies build the text and CSV grids; their self time is
        # rendering, as is the time in the render helpers they call.
        "cli.render_s": self_time("cli.command") + busy("cli.render"),
        "cli.output_bytes": t.counts["cli.output_bytes"],
        "trace.spans": t.spans(),
    }
