"""Experiment result container and registry."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "check_experiment",
]


@dataclass
class ExperimentResult:
    """A regenerated table/figure: rows plus provenance.

    ``rows`` are tuples aligned with ``columns``; ``paper_values`` carries
    the corresponding numbers printed in the paper (where the paper prints
    any) for side-by-side reporting in EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Tuple]
    notes: str = ""
    paper_values: Optional[Dict[str, object]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Render as an aligned monospace table."""

        def fmt(cell) -> str:
            if isinstance(cell, float):
                return float_format.format(cell)
            return str(cell)

        header = [str(c) for c in self.columns]
        body = [[fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"# {self.experiment_id}: {self.title}",
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        if self.notes:
            lines.append("")
            lines.append(self.notes.strip())
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable form (for ``repro-experiments run --json``).

        Dict keys that JSON cannot represent (e.g. the ``(mt, mr)`` tuples
        of some ``paper_values``) are stringified.
        """

        def sanitize(value):
            if isinstance(value, dict):
                return {str(k): sanitize(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [sanitize(v) for v in value]
            return value

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
            "paper_values": sanitize(self.paper_values),
            "metadata": sanitize(dict(self.metadata)),
        }

    def to_csv(self) -> str:
        """Comma-separated form: a header row plus one line per data row."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def column(self, name: str) -> List:
        """All values of one column, by name."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def select(self, **criteria) -> List[Tuple]:
        """Rows whose named columns equal the given values."""
        idxs = {name: list(self.columns).index(name) for name in criteria}
        return [
            row
            for row in self.rows
            if all(row[idxs[name]] == value for name, value in criteria.items())
        ]


#: experiment id -> module path (modules expose run()/check()).
EXPERIMENTS: Dict[str, str] = {
    "fig6": "repro.experiments.fig6_overlay_distance",
    "fig7": "repro.experiments.fig7_underlay_energy",
    "table1": "repro.experiments.table1_interweave_amplitude",
    "fig8": "repro.experiments.fig8_beam_pattern",
    "table2": "repro.experiments.table2_single_relay_ber",
    "table3": "repro.experiments.table3_multi_relay_ber",
    "table4": "repro.experiments.table4_underlay_per",
    "ebar": "repro.experiments.ebar_magnitudes",
    "game": "repro.experiments.game_baseline",
}


def _module(experiment_id: str):
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return importlib.import_module(EXPERIMENTS[experiment_id])


def _accepted_kwargs(experiment_id: str, kwargs: Dict[str, object]) -> Dict[str, object]:
    """Drop keyword arguments the experiment's ``run()`` does not accept.

    Experiments opt into capabilities (``seed``, ``fast``, ...) by declaring
    the parameter; the fan-out helper passes one kwargs dict for all of them.
    """
    params = inspect.signature(_module(experiment_id).run).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in params}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id and return its result."""
    return _module(experiment_id).run(**kwargs)


def _run_task(task) -> ExperimentResult:
    """One fan-out unit of :func:`run_experiments` (module-level: picklable)."""
    experiment_id, kwargs = task
    return _module(experiment_id).run(**kwargs)


def run_experiments(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    seed: Optional[int] = None,
    **kwargs,
) -> List[ExperimentResult]:
    """Run several experiments, optionally fanned over worker processes.

    Parameters
    ----------
    experiment_ids:
        Ids from :data:`EXPERIMENTS`, run (or dispatched) in the given order;
        results come back in the same order.
    jobs:
        Number of worker processes.  1 (default) runs in-process; the
        parallel path executes the exact same task functions with the exact
        same arguments, so results are bit-identical to the serial run.
    seed:
        When given, a :class:`numpy.random.SeedSequence` is spawned into one
        child per experiment and each task receives its child-derived seed.
        The derivation depends only on ``seed`` and the position in
        ``experiment_ids`` — not on scheduling — so serial and parallel runs
        see identical seeds.
    kwargs:
        Forwarded to each experiment's ``run()``, filtered to the keyword
        arguments it accepts (e.g. ``fast``).
    """
    from repro.utils.rng import spawn_seed_sequences

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    task_seeds: List[Optional[int]] = [None] * len(experiment_ids)
    if seed is not None:
        children = spawn_seed_sequences(seed, len(experiment_ids))
        task_seeds = [int(child.generate_state(1)[0]) for child in children]
    tasks = []
    for experiment_id, task_seed in zip(experiment_ids, task_seeds):
        task_kwargs = dict(kwargs)
        if task_seed is not None:
            task_kwargs["seed"] = task_seed
        tasks.append((experiment_id, _accepted_kwargs(experiment_id, task_kwargs)))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_task, tasks))
    return [_run_task(task) for task in tasks]


def check_experiment(result: ExperimentResult) -> None:
    """Run the shape assertions of the experiment that produced ``result``."""
    _module(result.experiment_id).check(result)
