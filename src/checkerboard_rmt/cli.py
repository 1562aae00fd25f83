"""Command-line entry point: experiment orchestration and artifact emission.

Every command resolves its configuration (flags > config file > defaults),
runs the computation, and only then writes its artifacts: data tables, a
histogram bundle where meaningful, and a manifest.json echoing the fully
resolved configuration so any run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import make_dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from ._parallel import parallel_map
from .algebra import DivisionAlgebra
from .analysis import compare_blip_to_hollow, split_regimes
from .ensembles import CheckerboardParams, HollowParams, sample_checkerboard, sample_hollow_batch
from .exceptions import CheckerboardError, ParameterError, RegimeOverlapError
from .moments import (
    alternating_binomial_sum,
    average_trial_moments,
    hollow_moment_oracle,
    measure_moments,
    trace_expansion_blip_moment,
)
from .spectra import (
    AtomicMeasure,
    BlipConfig,
    average_measures,
    batch_eigenvalues,
    blip_measure,
    bulk_measure,
    default_average_count,
    default_blip_half_degree,
    default_blip_range,
    eigensolve,
    histogram,
    trial_spectra,
)

CSV_VERSION_LINE = "# checkerboard-rmt v1"
SCHEMA_VERSION = 1
# Rows formatted per block, one block per pool item: bounds the per-row strings alive at once.
CSV_BLOCK_ROWS = 65_536


class _Field(NamedTuple):
    """One setting: its config field, its config-file key (also its flag, --key) and its rules."""

    name: str
    key: str
    kind: type  # int, float, str or Path
    default: object
    help: "str | None" = None
    choices: "tuple | None" = None

    def coerce(self, value):
        """The value as `kind`; strict JSON types, so booleans and 2.7 are not ints."""
        if value is None and self.default is None:
            return None
        ok = isinstance(value, _ACCEPTS[self.kind]) and not isinstance(value, bool)
        if not ok or (self.choices is not None and value not in self.choices):
            expected = f"one of {list(self.choices)}" if self.choices else self.kind.__name__
            raise ParameterError(f"config key {self.key!r} must be {expected}, got {value!r}")
        return self.kind(value)


_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str, Path: (str, os.PathLike)}

_FIELDS = (
    _Field("k", "k", int, 2, "congruence modulus k"),
    _Field("dim", "N", int, 100, "matrix dimension N"),
    _Field("w", "w", float, 1.0, "value on the congruent positions"),
    _Field("algebra", "algebra", str, "real", None, ("real", "complex", "quaternion")),
    _Field("dist", "dist", str, "normal", "entry distribution", ("normal", "rademacher")),
    _Field("trials", "trials", int, 1, "number of sampled matrices / MC trials"),
    _Field("g", "g", int, None, "matrices averaged per blip measure"),
    _Field("n", "n", int, None, "blip weight half-degree override"),
    _Field("m", "m", int, None, "single moment order (oracle)"),
    _Field("max_m", "max-m", int, 6, "highest moment order"),
    _Field("bins", "bins", int, 64, "histogram bin count"),
    _Field("exponent", "exponent", float, 0.65, "regime-splitting threshold exponent"),
    _Field("seed", "seed", int, 0, "master seed (64-bit)"),
    _Field("out", "out", Path, None, "output directory"),
    _Field("fmt", "format", str, "csv", "moment table format", ("csv", "json")),
)


def _check_config(config) -> None:
    """ExperimentConfig's __post_init__: coerce every field through its row, then check the bounds."""
    if config.command not in _COMMAND_TABLE:
        raise ParameterError(f"unknown command {config.command!r}")
    for field in _FIELDS:
        object.__setattr__(config, field.name, field.coerce(getattr(config, field.name)))
    for name in ("trials", "max_m", "bins"):
        if getattr(config, name) < 0:
            raise ParameterError(f"{name} must be nonnegative")


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [("command", str), *((field.name, field.kind) for field in _FIELDS)],
    frozen=True,
    namespace={"__doc__": "Fully resolved description of one run.", "__post_init__": _check_config},
)


def resolve_config(command: str, cli_values: dict, file_values: "dict | None" = None) -> ExperimentConfig:
    """Merge flag values over config-file values over built-in defaults."""
    merged = {field.name: field.default for field in _FIELDS}
    if command in _COMMAND_TABLE:
        merged.update(_COMMAND_TABLE[command].defaults)
    names = {field.key: field.name for field in _FIELDS}
    for key, value in (file_values or {}).items():
        if key not in names:
            raise ParameterError(f"unknown config key {key!r}; valid keys: {sorted(names)}")
        merged[names[key]] = value
    merged.update((name, value) for name, value in cli_values.items() if value is not None)
    if merged["out"] is None:
        merged["out"] = Path("results") / command
    return ExperimentConfig(command=command, **merged)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(column) -> Iterator[str]:
    """One column as text cells: the same text as `_cell`, without a call per float or integer cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(repr, column.tolist())  # shortest round-trip text, as _cell writes it
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(_cell, column)


def _csv_text(header, columns) -> str:
    """The CSV text of equal-length columns, formatted a block of rows at a time on the trial pool."""

    def block(start: int) -> str:
        cells = [_cells(column[start : start + CSV_BLOCK_ROWS]) for column in columns]
        return "\n".join(map(",".join, zip(*cells, strict=True)))

    blocks = parallel_map(block, range(0, len(columns[0]), CSV_BLOCK_ROWS))
    return "\n".join([CSV_VERSION_LINE, ",".join(header), *blocks]) + "\n"


def _json_text(payload: dict) -> str:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _previous_outputs(out_dir: Path) -> set:
    """Plain file names listed under `outputs` in the directory's manifest.json, if it reads."""
    try:
        listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        listed = None
    names = listed if isinstance(listed, list) else []
    return {name for name in names if isinstance(name, str) and Path(name).name == name and (out_dir / name).is_file()}


class _Artifacts:
    """Collects outputs in memory; nothing touches disk until write()."""

    def __init__(self):
        self.files: list = []  # (filename, text)

    def table(self, name: str, header, columns, fmt: str):
        """A table of equal-length columns, each a 1-d numpy array or a short list."""
        if fmt == "json":
            values = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in columns]
            rows = [list(row) for row in zip(*values, strict=True)]
            self.files.append((f"{name}.json", _json_text({"columns": list(header), "rows": rows})))
        else:
            self.files.append((f"{name}.csv", _csv_text(header, columns)))

    def csv(self, name: str, header, columns):
        self.table(name, header, columns, "csv")

    def json(self, name: str, payload: dict):
        self.files.append((f"{name}.json", _json_text(payload)))

    def text(self, filename: str, content: str):
        self.files.append((filename, content))

    def write(self, out_dir: Path, manifest: dict) -> list:
        """Write every file plus manifest.json, first deleting the outputs a previous
        run's manifest lists that this run does not write (nothing else is touched)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest)
        manifest["outputs"] = sorted(name for name, _ in self.files)
        for stale in _previous_outputs(out_dir) - set(manifest["outputs"]):
            (out_dir / stale).unlink()
        self.files.append(("manifest.json", _json_text(manifest)))
        for name, content in self.files:
            (out_dir / name).write_text(content)
        return [name for name, _ in self.files]


_SIDECAR = """{version}
# Plot sidecar for {csv_name}: run `gnuplot -p {gp_name}`.
set datafile separator comma
set style fill solid 0.6 border -1
set xlabel "location"
set ylabel "density"
plot "{csv_name}" skip 2 using (0.5*($1+$2)):3:($2-$1) with boxes notitle
"""


def emit_histogram_bundle(measure: AtomicMeasure, config: ExperimentConfig, artifacts: _Artifacts,
                          value_range=None, name: str = "histogram") -> None:
    """Histogram CSV plus a gnuplot sidecar so the figure renders without the library."""
    table = histogram(measure, config.bins, value_range)
    artifacts.csv(name, ("bin_lo", "bin_hi", "density"), (table.bin_lo, table.bin_hi, table.density))
    artifacts.text(
        f"{name}.gp",
        _SIDECAR.format(version=CSV_VERSION_LINE, csv_name=f"{name}.csv", gp_name=f"{name}.gp"),
    )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _eigenvalue_table(artifacts: _Artifacts, per_trial, n: int) -> None:
    """eigenvalues.csv: (trial, index, eigenvalue) columns from one length-n eigenvalue array per trial."""
    values = np.asarray(per_trial, dtype=float).reshape(-1, n)
    trials = len(values)
    columns = (np.repeat(np.arange(trials), n), np.tile(np.arange(n), trials), values.ravel())
    artifacts.csv("eigenvalues", ("trial", "index", "eigenvalue"), columns)


_MOMENT_HEADER = ("m", "value", "stderr")


def _moment_columns(values, stderrs) -> tuple:
    """(m, value, stderr) columns for m = 0..; stderr cells are empty without standard errors (one trial)."""
    return np.arange(len(values)), values, [None] * len(values) if stderrs is None else stderrs


def _checkerboard_params(config: ExperimentConfig) -> CheckerboardParams:
    return CheckerboardParams(
        dim=config.dim, k=config.k, w=config.w, algebra=config.algebra, distribution=config.dist, seed=config.seed
    )


def _cmd_sample(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = trial_spectra(_checkerboard_params(config), range(config.trials))
    _eigenvalue_table(artifacts, [s.eigenvalues for s in spectra], config.dim)
    return {}, 0


def _cmd_bulk(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = trial_spectra(_checkerboard_params(config), range(config.trials))
    measures = [bulk_measure(s) for s in spectra]
    moments = average_trial_moments(measures, config.max_m)
    _eigenvalue_table(artifacts, [s.eigenvalues for s in spectra], config.dim)
    artifacts.table("moments", _MOMENT_HEADER, _moment_columns(moments.values, moments.standard_errors), config.fmt)
    emit_histogram_bundle(average_measures(measures), config, artifacts)
    return {}, 0


def _blip_trials(config: ExperimentConfig) -> tuple:
    """g, n, the spectra and the blip measures of g sampled matrices (blip and compare)."""
    g = config.g if config.g is not None else default_average_count(config.dim)
    n = config.n if config.n is not None else default_blip_half_degree(config.dim)
    blip_cfg = BlipConfig.for_dimension(config.dim, config.k, n)
    spectra = trial_spectra(_checkerboard_params(config), range(g))
    return g, n, spectra, [blip_measure(s, config.k, blip_cfg) for s in spectra]


def _cmd_blip(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    g, n, spectra, measures = _blip_trials(config)
    center = float(config.k - 1)
    moments = average_trial_moments(measures, config.max_m, center=center)
    _eigenvalue_table(artifacts, [s.eigenvalues for s in spectra], config.dim)
    artifacts.table("moments", _MOMENT_HEADER, _moment_columns(moments.values, moments.standard_errors), config.fmt)
    emit_histogram_bundle(average_measures(measures), config, artifacts, value_range=default_blip_range(config.k))
    return {"g": g, "n": n, "moment_center": center}, 0


def _cmd_hollow(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    algebra = DivisionAlgebra.parse(config.algebra)
    params = HollowParams(k=config.k, algebra=algebra, seed=config.seed)
    eigs = batch_eigenvalues(sample_hollow_batch(params, config.trials), algebra)
    per_trial = eigs[:, None, :] ** np.arange(config.max_m + 1)[None, :, None]
    traces = per_trial.sum(axis=2) / config.k  # (trials, max_m + 1)
    values = traces.mean(axis=0)
    stderr = traces.std(axis=0, ddof=1) / math.sqrt(config.trials) if config.trials > 1 else None
    measure = AtomicMeasure(eigs.ravel(), np.full(eigs.size, 1.0 / eigs.size))
    _eigenvalue_table(artifacts, eigs, config.k)
    artifacts.table("moments", _MOMENT_HEADER, _moment_columns(values, stderr), config.fmt)
    emit_histogram_bundle(measure, config, artifacts, value_range=default_blip_range(config.k))
    return {"ensemble": f"hollow-{algebra.value}"}, 0


def _cmd_oracle(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    orders = [config.m] if config.m is not None else list(range(config.max_m + 1))
    results = [hollow_moment_oracle(config.k, m, config.algebra) for m in orders]
    values = [r.value for r in results]
    artifacts.table("moments", _MOMENT_HEADER, (orders, values, [None] * len(orders)), config.fmt)
    artifacts.json(
        "oracle",
        {
            "k": config.k,
            "algebra": DivisionAlgebra.parse(config.algebra).value,
            "results": [{"m": r.m, "value": r.value, "exact": str(r.exact)} for r in results],
        },
    )
    for r in results:
        print(f"hollow moment k={r.k} m={r.m} [{r.algebra.value}]: {r.value} (exact {r.exact})")
    return {"orders": orders}, 0


def _cmd_verify_split(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = trial_spectra(_checkerboard_params(config), range(config.trials))
    per_trial = []
    all_ok = True
    for trial, spectrum in enumerate(spectra):
        record = {"trial": trial}
        try:
            split = split_regimes(spectrum, config.k, config.w, config.exponent)
            record["blip_count"] = int(split.blip_eigenvalues.size)
            record["bulk_count"] = int(split.bulk_eigenvalues.size)
            record["ok"] = record["blip_count"] == config.k and record["bulk_count"] == config.dim - config.k
        except RegimeOverlapError as exc:
            record["ok"] = False
            record["error"] = str(exc)
        all_ok = all_ok and record["ok"]
        per_trial.append(record)
    artifacts.json(
        "report",
        {
            "command": "verify-split",
            "config": _config_echo(config),
            "threshold": float(config.dim**config.exponent),
            "target": config.dim * config.w / config.k,
            "per_trial": per_trial,
            "passed": all_ok,
        },
    )
    print(f"verify-split: {'PASS' if all_ok else 'FAIL'} over {config.trials} trials")
    return {}, 0 if all_ok else 1


def _cmd_verify_identities(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    checks = []
    for m in range(config.max_m + 1):
        for p in range(m + 1):
            got = alternating_binomial_sum(m, p)
            expected = (-1) ** m * math.factorial(m) if p == m else 0
            checks.append({"kind": "alternating-binomial", "m": m, "p": p, "value": got, "ok": got == expected})
    n = config.n if config.n is not None else 2
    blip_cfg = BlipConfig.for_dimension(config.dim, config.k, n)
    params = _checkerboard_params(config)
    for trial in range(config.trials):
        matrix = sample_checkerboard(params, trial)
        spectrum = eigensolve(matrix)
        direct = measure_moments(blip_measure(spectrum, config.k, blip_cfg), 2)
        for m in range(3):
            expansion = trace_expansion_blip_moment(matrix, config.k, blip_cfg, m)
            reference = direct[m]
            err = abs(expansion - reference) / max(1e-12, abs(reference))
            checks.append(
                {
                    "kind": "trace-expansion",
                    "trial": trial,
                    "m": m,
                    "relative_error": err,
                    "ok": bool(err <= 1e-9),
                }
            )
    all_ok = all(c["ok"] for c in checks)
    artifacts.json(
        "report",
        {"command": "verify-identities", "config": _config_echo(config), "checks": checks, "passed": all_ok},
    )
    print(f"verify-identities: {'PASS' if all_ok else 'FAIL'} ({len(checks)} checks)")
    return {"n": n}, 0 if all_ok else 1


def _cmd_compare(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    g, n, _, measures = _blip_trials(config)
    averaged = average_measures(measures)
    centered = AtomicMeasure(averaged.locations - (config.k - 1), averaged.weights)
    report = compare_blip_to_hollow(
        centered, config.k, config.algebra, hollow_trials=config.trials, seed=config.seed, max_m=config.max_m
    )
    artifacts.json("report", {"command": "compare", "config": _config_echo(config), **report.to_dict()})
    print(
        "compare: moment distances "
        + ", ".join(f"m{m}={d:.4f}" for m, d in sorted(report.moment_distances.items()))
        + f"; ks={report.ks_statistic:.4f}"
    )
    return {"g": g, "n": n}, 0


class _Command(NamedTuple):
    handler: Callable
    help: str
    defaults: dict  # overrides of the field defaults


_COMMAND_TABLE = {
    "sample": _Command(_cmd_sample, "sample checkerboard matrices and write their eigenvalues", dict(trials=1)),
    "bulk": _Command(_cmd_bulk, "bulk spectral measure: moments and histogram (w defaults to 0)",
                     dict(dim=400, w=0.0, trials=40)),
    "blip": _Command(_cmd_blip, "averaged blip measure: centered moments and histogram", dict(dim=600, w=1.0, max_m=4)),
    "hollow": _Command(_cmd_hollow, "hollow Gaussian ensemble: eigenvalues, moments, histogram", dict(trials=32000)),
    "oracle": _Command(_cmd_oracle, "exact hollow-ensemble moments; reads neither --trials nor --seed", {}),
    "verify-split": _Command(_cmd_verify_split, "check the two-regime eigenvalue split over many trials",
                             dict(dim=300, k=3, w=1.0, trials=20)),
    "verify-identities": _Command(_cmd_verify_identities, "check the exact combinatorial and trace identities",
                                  dict(max_m=12, trials=5, dim=8)),
    "compare": _Command(_cmd_compare, "compare a centered blip sample against hollow-ensemble draws",
                        dict(dim=600, w=1.0, trials=5000)),
}


def _config_echo(config: ExperimentConfig) -> dict:
    """Every field under its config-file key: the block works as a --config file for the same run."""
    echo = {field.key: getattr(config, field.name) for field in _FIELDS}
    echo["out"] = str(config.out)
    return echo


def run(config: ExperimentConfig) -> int:
    """Execute one command; writes all artifacts plus manifest.json, returns exit status."""
    artifacts = _Artifacts()
    derived, status = _COMMAND_TABLE[config.command].handler(config, artifacts)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": config.command,
        "config": _config_echo(config),
        "derived": derived,
    }
    names = artifacts.write(config.out, manifest)
    print(f"wrote {len(names)} files to {config.out}")
    return status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for field in _FIELDS:
        common.add_argument(f"--{field.key}", dest=field.name, type=field.kind, choices=field.choices, help=field.help)
    common.add_argument("--config", type=Path, default=None, help="JSON config file (flags override it)")

    parser = argparse.ArgumentParser(
        prog="checkerboard-rmt",
        description="Simulation and verification lab for checkerboard random matrix ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMAND_TABLE.items():
        sub.add_parser(name, parents=[common], help=command.help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = None
        if args.config is not None:
            file_values = json.loads(Path(args.config).read_text())
            if not isinstance(file_values, dict):
                raise ParameterError(f"config file {args.config} must hold a JSON object")
        cli_values = {field.name: getattr(args, field.name) for field in _FIELDS}
        config = resolve_config(args.command, cli_values, file_values)
        return run(config)
    except (CheckerboardError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
