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
import shutil
import sys
from dataclasses import make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._parallel import _check_trials, parallel_map
from .analysis import _check_exponent, compare_blip_to_hollow, split_regimes
from .ensembles import CheckerboardParams, HollowParams, sample_checkerboard
from .exceptions import CheckerboardError, ParameterError, RegimeOverlapError
from .moments import (
    _check_desk_scale,
    _check_max_m,
    alternating_binomial_sum,
    average_trial_moments,
    hollow_moment_oracle,
    hollow_moments,
    measure_moments,
    trace_expansion_blip_moments,
)
from .spectra import (
    AtomicMeasure,
    BlipConfig,
    _check_bins,
    average_measures,
    blip_measure,
    bulk_measure,
    default_average_count,
    default_blip_range,
    eigensolve,
    histogram,
    hollow_eigenvalues,
    trial_spectra,
)

CSV_VERSION_LINE = "# checkerboard-rmt v1"
SCHEMA_VERSION = 1
# Rows formatted and written per block, and per `%` conversion within a block.
CSV_BLOCK_ROWS = 65_536
CSV_PIECE_ROWS = 8_192


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
    for field in _FIELDS:
        value = getattr(config, field.name)
        if field.name in ("trials", "max_m", "bins") and value < 0:
            raise ParameterError(f"{field.key} must be nonnegative, got {value}")
    if config.g is not None and config.g < 1:  # a blip average over no matrices
        raise ParameterError(f"g must be positive, got {config.g}")


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


def _piece(columns, start: int, stop: int) -> str:
    """Rows start..stop of the columns as CSV text, in one `%` conversion.

    A row template such as "%d,%d,%r\n", repeated once per row, takes the
    piece's cells interleaved row by row: a float array's Python values take
    %r, an integer array's %d, and a None column is empty in every row.
    """
    width, codes, i = sum(column is not None for column in columns), [], 0
    cells = [None] * ((stop - start) * width)
    for column in columns:  # one slice at a time
        if column is None:
            codes.append("")
            continue
        values = column[start:stop]
        codes.append("%r" if values.dtype.kind == "f" else "%d")
        cells[i::width] = values.tolist()
        i += 1
    return (",".join(codes) + "\n") * (stop - start) % tuple(cells)


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length columns as a CSV file, formatting CSV_BLOCK_ROWS rows at a time.

    Each block is one item of `parallel_map`, which the worker holding it
    formats and writes to the block's own part file beside the file; the
    parent then appends the parts in order, deleting each once it is
    appended.  A block is CSV_PIECE_ROWS-row pieces of `_piece` joined, so no
    per-row string is made.  A column is None or anything that slices into
    float or integer arrays, such as `_TrialColumn`.
    """
    rows = len(columns[0])
    starts = range(0, rows, CSV_BLOCK_ROWS)
    parts = [path.with_name(f"{path.name}.{index}.part") for index in range(len(starts))]

    def write_block(start: int) -> None:
        stop = min(start + CSV_BLOCK_ROWS, rows)
        pieces = (_piece(columns, p, min(p + CSV_PIECE_ROWS, stop)) for p in range(start, stop, CSV_PIECE_ROWS))
        parts[start // CSV_BLOCK_ROWS].write_text("".join(pieces))

    try:
        with path.open("w") as handle:
            handle.write(f"{CSV_VERSION_LINE}\n{','.join(header)}\n")
            parallel_map(write_block, starts)
            for part in parts:
                with part.open() as source:
                    shutil.copyfileobj(source, handle)
                part.unlink()
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


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
    """Collects outputs; nothing touches disk until write(), which formats the CSV tables."""

    def __init__(self):
        self.files: list = []  # (filename, text, or a (header, columns) CSV table)

    def table(self, name: str, header, columns, fmt: str):
        """A table of columns as long as the first.

        Each column is a 1-d float or integer array, a `_TrialColumn` (CSV
        only) or None, which is empty in every CSV row and null in every JSON row.
        """
        if fmt == "json":
            count = len(columns[0])
            values = [[None] * count if column is None else column.tolist() for column in columns]
            rows = [list(row) for row in zip(*values, strict=True)]
            self.files.append((f"{name}.json", _json_text({"columns": list(header), "rows": rows})))
        else:
            self.files.append((f"{name}.csv", (header, columns)))

    def json(self, name: str, payload: dict):
        self.files.append((f"{name}.json", _json_text(payload)))

    def write(self, out_dir: Path, manifest: dict) -> list:
        """Write every file plus manifest.json, first deleting the outputs a previous
        run's manifest lists that this run does not write (nothing else is touched).

        The previous manifest goes before any file is written and the new one
        is written last, so a write that fails partway leaves no manifest.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest)
        manifest["outputs"] = sorted(name for name, _ in self.files)
        stale = _previous_outputs(out_dir) - set(manifest["outputs"])
        (out_dir / "manifest.json").unlink(missing_ok=True)
        for name in stale:
            (out_dir / name).unlink()
        self.json("manifest", manifest)
        for name, content in self.files:
            if isinstance(content, str):
                (out_dir / name).write_text(content)
            else:
                _write_csv(out_dir / name, *content)
        return [name for name, _ in self.files]


_SIDECAR = """{version}
# Plot sidecar for histogram.csv: run `gnuplot -p histogram.gp`.
set datafile separator comma
set style fill solid 0.6 border -1
set xlabel "location"
set ylabel "density"
plot "histogram.csv" skip 2 using (0.5*($1+$2)):3:($2-$1) with boxes notitle
"""


def emit_histogram_bundle(measure: AtomicMeasure, config: ExperimentConfig, artifacts: _Artifacts, value_range=None):
    """Histogram CSV plus a gnuplot sidecar so the figure renders without the library."""
    table = histogram(measure, config.bins, value_range)
    artifacts.table("histogram", ("bin_lo", "bin_hi", "density"), (table.bin_lo, table.bin_hi, table.density), "csv")
    artifacts.files.append(("histogram.gp", _SIDECAR.format(version=CSV_VERSION_LINE)))


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


class _TrialColumn:
    """The trial (row // n) or index (row % n) column of a table with n rows per trial, made a slice at a time."""

    def __init__(self, rows: int, n: int, index: bool):
        self.rows, self.n, self.index = rows, n, index

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, rows: slice) -> np.ndarray:
        numbers = np.arange(*rows.indices(self.rows))
        return numbers % self.n if self.index else numbers // self.n


def _eigenvalue_table(artifacts: _Artifacts, per_trial) -> None:
    """eigenvalues.csv: (trial, index, eigenvalue) columns from one equal-length eigenvalue array per trial."""
    table = np.asarray(per_trial, dtype=float)
    values, n = table.reshape(-1), table.shape[-1]
    columns = (_TrialColumn(values.size, n, False), _TrialColumn(values.size, n, True), values)
    artifacts.table("eigenvalues", ("trial", "index", "eigenvalue"), columns, "csv")


def _moment_table(artifacts: _Artifacts, orders: np.ndarray, values: np.ndarray, stderrs, fmt: str) -> None:
    """moments.csv (or .json): the m, value and stderr columns.

    A None `stderrs` (one trial, or exact values) leaves every stderr cell empty.
    """
    artifacts.table("moments", ("m", "value", "stderr"), (orders, values, stderrs), fmt)


def _checkerboard_params(config: ExperimentConfig) -> CheckerboardParams:
    return CheckerboardParams(
        dim=config.dim, k=config.k, w=config.w, algebra=config.algebra, distribution=config.dist, seed=config.seed
    )


def _cmd_sample(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = trial_spectra(_checkerboard_params(config), range(config.trials))
    _eigenvalue_table(artifacts, [s.eigenvalues for s in spectra])
    return {}, 0


def _cmd_bulk(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    _check_max_m(config.max_m)  # before anything is drawn
    _check_bins(config.bins)
    spectra = trial_spectra(_checkerboard_params(config), range(config.trials))
    measures = [bulk_measure(s) for s in spectra]
    moments = average_trial_moments(measures, config.max_m)
    _eigenvalue_table(artifacts, [s.eigenvalues for s in spectra])
    _moment_table(artifacts, np.arange(config.max_m + 1), moments.values, moments.standard_errors, config.fmt)
    emit_histogram_bundle(average_measures(measures), config, artifacts)
    return {}, 0


def _check_blip_run(config: ExperimentConfig) -> BlipConfig:
    """What `blip` and `compare` refuse before anything is drawn; returns the blip weight's config.

    `blip_measure` shifts by N/k and windows at k*lambda/N, which finds the
    outliers, near N*w/k, only for w = 1.  When k does not divide N the
    congruence classes differ in size, and the outliers sit near those sizes,
    up to (k-1)/k away from N/k at every N.
    """
    _check_max_m(config.max_m)
    blip_cfg = BlipConfig.for_dimension(config.dim, config.k, config.n)
    if config.dim % config.k:
        raise ParameterError(f"k must divide N: the blip window sits at N/k, got k={config.k}, N={config.dim}")
    if config.w != 1.0:
        raise ParameterError(f"w must be 1: the blip window sits at N/k, got {config.w}")
    return blip_cfg


def _blip_trials(config: ExperimentConfig, blip_cfg: BlipConfig) -> tuple:
    """g, the spectra and the blip measures of g sampled matrices (blip and compare)."""
    g = config.g if config.g is not None else default_average_count(config.dim)
    spectra = trial_spectra(_checkerboard_params(config), range(g))
    return g, spectra, [blip_measure(s, config.k, blip_cfg) for s in spectra]


def _cmd_blip(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    blip_cfg = _check_blip_run(config)
    _check_bins(config.bins)
    g, spectra, measures = _blip_trials(config, blip_cfg)
    center = float(config.k - 1)
    moments = average_trial_moments(measures, config.max_m, center=center)
    _eigenvalue_table(artifacts, [s.eigenvalues for s in spectra])
    _moment_table(artifacts, np.arange(config.max_m + 1), moments.values, moments.standard_errors, config.fmt)
    emit_histogram_bundle(average_measures(measures), config, artifacts, value_range=default_blip_range(config.k))
    return {"g": g, "n": blip_cfg.n, "moment_center": center}, 0


def _cmd_hollow(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    _check_max_m(config.max_m)  # before anything is drawn
    _check_bins(config.bins)
    eigs = hollow_eigenvalues(HollowParams(k=config.k, algebra=config.algebra, seed=config.seed), config.trials)
    moments = hollow_moments(eigs, config.max_m)
    measure = AtomicMeasure(eigs.ravel(), np.broadcast_to(1.0 / eigs.size, eigs.size))  # one weight, never copied
    _eigenvalue_table(artifacts, eigs)
    _moment_table(artifacts, np.arange(config.max_m + 1), moments.values, moments.standard_errors, config.fmt)
    emit_histogram_bundle(measure, config, artifacts, value_range=default_blip_range(config.k))
    return {"ensemble": f"hollow-{config.algebra}"}, 0


def _cmd_oracle(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    orders = [config.m] if config.m is not None else list(range(config.max_m + 1))
    exacts = [hollow_moment_oracle(config.k, m, config.algebra) for m in orders]
    values = [float(exact) for exact in exacts]
    _moment_table(artifacts, np.array(orders), np.array(values), None, config.fmt)
    results = [{"m": m, "value": value, "exact": str(exact)} for m, value, exact in zip(orders, values, exacts)]
    artifacts.json("oracle", {"k": config.k, "algebra": config.algebra, "results": results})
    for r in results:
        print(f"hollow moment k={config.k} m={r['m']} [{config.algebra}]: {r['value']} (exact {r['exact']})")
    return {"orders": orders}, 0


def _cmd_verify_split(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    _check_exponent(config.exponent)  # before anything is drawn
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
    blip_cfg = BlipConfig.for_dimension(config.dim, config.k, 2 if config.n is None else config.n)
    params = _checkerboard_params(config)
    _check_desk_scale(config.dim, blip_cfg.n)  # before trial 0 is drawn
    _check_trials(config.trials)
    for trial in range(config.trials):
        matrix = sample_checkerboard(params, trial)
        spectrum = eigensolve(matrix)
        direct = measure_moments(blip_measure(spectrum, config.k, blip_cfg), 2)
        for m, expansion in enumerate(trace_expansion_blip_moments(matrix, config.k, blip_cfg, 2)):
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
    return {"n": blip_cfg.n}, 0 if all_ok else 1


def _cmd_compare(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    blip_cfg = _check_blip_run(config)
    eigs = hollow_eigenvalues(HollowParams(k=config.k, algebra=config.algebra, seed=config.seed), config.trials)
    g, _, measures = _blip_trials(config, blip_cfg)
    averaged = average_measures(measures)
    centered = AtomicMeasure(averaged.locations - (config.k - 1), averaged.weights)
    report = compare_blip_to_hollow(centered, eigs, config.max_m)
    artifacts.json("report", {"command": "compare", "config": _config_echo(config), **vars(report)})
    print(
        "compare: moment distances "
        + ", ".join(f"m{m}={d:.4f}" for m, d in report.moment_distances.items())
        + f"; ks={report.ks_statistic:.4f}"
    )
    return {"g": g, "n": blip_cfg.n}, 0


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
    except (CheckerboardError, OSError, MemoryError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
