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
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import parallel_map
from .algebra import DivisionAlgebra
from .analysis import compare_blip_to_hollow, split_regimes
from .ensembles import CheckerboardParams, HollowParams, sample_checkerboard, sample_hollow_batch
from .exceptions import EnumerationBudgetError, ParameterError, RegimeOverlapError
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
    batch_eigenvalues,
    blip_measure,
    bulk_measure,
    default_average_count,
    default_blip_half_degree,
    default_blip_range,
    eigensolve,
    histogram,
)

CSV_VERSION_LINE = "# checkerboard-rmt v1"
SCHEMA_VERSION = 1

COMMANDS = ("sample", "bulk", "blip", "hollow", "oracle", "verify-split", "verify-identities", "compare")

_BASE_DEFAULTS = dict(
    k=2,
    dim=100,
    w=1.0,
    algebra="real",
    dist="normal",
    trials=1,
    g=None,
    n=None,
    m=None,
    max_m=6,
    bins=64,
    exponent=0.65,
    seed=0,
    out=None,
    fmt="csv",
)

_COMMAND_DEFAULTS = {
    "sample": dict(trials=1),
    "bulk": dict(dim=400, w=0.0, trials=40),
    "blip": dict(dim=600, w=1.0, max_m=4),
    "hollow": dict(trials=32000),
    "oracle": dict(trials=200_000),
    "verify-split": dict(dim=300, k=3, w=1.0, trials=20),
    "verify-identities": dict(max_m=12, trials=5, dim=8),
    "compare": dict(dim=600, w=1.0, trials=5000),
}

# config-file keys use the flag spellings
_FLAG_TO_FIELD = {
    "k": "k",
    "N": "dim",
    "w": "w",
    "algebra": "algebra",
    "dist": "dist",
    "trials": "trials",
    "g": "g",
    "n": "n",
    "m": "m",
    "max-m": "max_m",
    "bins": "bins",
    "exponent": "exponent",
    "seed": "seed",
    "out": "out",
    "format": "fmt",
}

_FIELD_TYPES = dict(
    k=int, dim=int, w=float, algebra=str, dist=str, trials=int, g=int, n=int, m=int,
    max_m=int, bins=int, exponent=float, seed=int, out=Path, fmt=str,
)
_OPTIONAL_FIELDS = ("g", "n", "m")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one run."""

    command: str
    k: int
    dim: int
    w: float
    algebra: str
    dist: str
    trials: int
    g: "int | None"
    n: "int | None"
    m: "int | None"
    max_m: int
    bins: int
    exponent: float
    seed: int
    out: Path
    fmt: str

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ParameterError(f"format must be csv or json, got {self.fmt!r}")
        for name in ("trials", "max_m", "bins"):
            if int(getattr(self, name)) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        object.__setattr__(self, "out", Path(self.out))


def resolve_config(command: str, cli_values: dict, file_values: "dict | None" = None) -> ExperimentConfig:
    """Merge flag values over config-file values over built-in defaults."""
    merged = dict(_BASE_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS.get(command, {}))
    for key, value in (file_values or {}).items():
        if key not in _FLAG_TO_FIELD:
            raise ParameterError(f"unknown config key {key!r}; valid keys: {sorted(_FLAG_TO_FIELD)}")
        merged[_FLAG_TO_FIELD[key]] = value
    for field, value in cli_values.items():
        if value is not None:
            merged[field] = value
    if merged["out"] is None:
        merged["out"] = Path("results") / command
    values = {}
    for field, kind in _FIELD_TYPES.items():
        value = merged[field]
        try:
            values[field] = None if value is None and field in _OPTIONAL_FIELDS else kind(value)
        except (TypeError, ValueError):
            key = next(flag for flag, name in _FLAG_TO_FIELD.items() if name == field)
            raise ParameterError(f"config key {key!r} must be {kind.__name__}, got {value!r}") from None
    return ExperimentConfig(command=command, **values)


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


def _csv_text(columns, rows) -> str:
    lines = [CSV_VERSION_LINE, ",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _table_payload(columns, rows) -> dict:
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


class _Artifacts:
    """Collects outputs in memory; nothing touches disk until write()."""

    def __init__(self):
        self.files: list = []  # (filename, text)

    def table(self, name: str, columns, rows, fmt: str):
        rows = [tuple(r) for r in rows]
        if fmt == "json":
            self.files.append((f"{name}.json", _json_text(_table_payload(columns, rows))))
        else:
            self.files.append((f"{name}.csv", _csv_text(columns, rows)))

    def csv(self, name: str, columns, rows):
        self.table(name, columns, rows, "csv")

    def json(self, name: str, payload: dict):
        self.files.append((f"{name}.json", _json_text(payload)))

    def text(self, filename: str, content: str):
        self.files.append((filename, content))

    def write(self, out_dir: Path, manifest: dict) -> list:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest)
        manifest["outputs"] = sorted(name for name, _ in self.files)
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
    artifacts.csv(name, ("bin_lo", "bin_hi", "density"), table.rows())
    artifacts.text(
        f"{name}.gp",
        _SIDECAR.format(version=CSV_VERSION_LINE, csv_name=f"{name}.csv", gp_name=f"{name}.gp"),
    )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _trial_spectra(params: CheckerboardParams, trials: int):
    def one(t: int):
        try:
            return eigensolve(sample_checkerboard(params, t))
        except Exception as exc:
            raise RuntimeError(f"trial {t} with seed {params.seed} failed: {exc}") from exc

    return parallel_map(one, range(trials))


def _eigenvalue_rows(spectra):
    return [
        (trial, index, float(value))
        for trial, spectrum in enumerate(spectra)
        for index, value in enumerate(spectrum.eigenvalues)
    ]


def _moment_rows(moment_vector):
    stderrs = moment_vector.standard_errors
    return [
        (m, float(moment_vector.values[m]), None if stderrs is None else float(stderrs[m]))
        for m in range(len(moment_vector.values))
    ]


def _checkerboard_params(config: ExperimentConfig) -> CheckerboardParams:
    return CheckerboardParams(
        dim=config.dim, k=config.k, w=config.w, algebra=config.algebra, distribution=config.dist, seed=config.seed
    )


def _cmd_sample(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = _trial_spectra(_checkerboard_params(config), config.trials)
    artifacts.csv("eigenvalues", ("trial", "index", "eigenvalue"), _eigenvalue_rows(spectra))
    return {}, 0


def _cmd_bulk(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = _trial_spectra(_checkerboard_params(config), config.trials)
    measures = [bulk_measure(s) for s in spectra]
    moments = average_trial_moments(measures, config.max_m)
    pooled = AtomicMeasure(
        np.concatenate([m.locations for m in measures]),
        np.concatenate([m.weights for m in measures]) / len(measures),
    )
    artifacts.csv("eigenvalues", ("trial", "index", "eigenvalue"), _eigenvalue_rows(spectra))
    artifacts.table("moments", ("m", "value", "stderr"), _moment_rows(moments), config.fmt)
    emit_histogram_bundle(pooled, config, artifacts)
    return {}, 0


def _cmd_blip(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    g = config.g if config.g is not None else default_average_count(config.dim)
    n = config.n if config.n is not None else default_blip_half_degree(config.dim)
    blip_cfg = BlipConfig.for_dimension(config.dim, config.k, n)
    spectra = _trial_spectra(_checkerboard_params(config), g)
    measures = [blip_measure(s, config.k, blip_cfg) for s in spectra]
    center = float(config.k - 1)
    moments = average_trial_moments(measures, config.max_m, center=center)
    averaged = AtomicMeasure(
        np.concatenate([m.locations for m in measures]),
        np.concatenate([m.weights for m in measures]) / g,
    )
    artifacts.csv("eigenvalues", ("trial", "index", "eigenvalue"), _eigenvalue_rows(spectra))
    artifacts.table("moments", ("m", "value", "stderr"), _moment_rows(moments), config.fmt)
    emit_histogram_bundle(averaged, config, artifacts, value_range=default_blip_range(config.k))
    return {"g": g, "n": n, "moment_center": center}, 0


def _cmd_hollow(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    algebra = DivisionAlgebra.parse(config.algebra)
    params = HollowParams(k=config.k, algebra=algebra, seed=config.seed)
    eigs = batch_eigenvalues(sample_hollow_batch(params, config.trials), algebra)
    rows = [
        (trial, index, float(eigs[trial, index]))
        for trial in range(eigs.shape[0])
        for index in range(eigs.shape[1])
    ]
    per_trial = eigs[:, None, :] ** np.arange(config.max_m + 1)[None, :, None]
    traces = per_trial.sum(axis=2) / config.k  # (trials, max_m + 1)
    values = traces.mean(axis=0)
    stderr = traces.std(axis=0, ddof=1) / math.sqrt(config.trials) if config.trials > 1 else np.zeros_like(values)
    measure = AtomicMeasure(eigs.ravel(), np.full(eigs.size, 1.0 / eigs.size))
    artifacts.csv("eigenvalues", ("trial", "index", "eigenvalue"), rows)
    artifacts.table(
        "moments",
        ("m", "value", "stderr"),
        [(m, float(values[m]), float(stderr[m])) for m in range(config.max_m + 1)],
        config.fmt,
    )
    emit_histogram_bundle(measure, config, artifacts, value_range=default_blip_range(config.k))
    return {"ensemble": f"hollow-{algebra.value}"}, 0


def _cmd_oracle(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    orders = [config.m] if config.m is not None else list(range(config.max_m + 1))
    results = [
        hollow_moment_oracle(config.k, m, config.algebra, trials=config.trials, seed=config.seed) for m in orders
    ]
    rows = [(r.m, r.value, r.stderr) for r in results]
    artifacts.table("moments", ("m", "value", "stderr"), rows, config.fmt)
    artifacts.json(
        "oracle",
        {
            "k": config.k,
            "algebra": DivisionAlgebra.parse(config.algebra).value,
            "results": [
                {
                    "m": r.m,
                    "value": r.value,
                    "method": r.method,
                    "exact": None if r.exact is None else str(r.exact),
                    "stderr": r.stderr,
                    "trials": r.trials,
                }
                for r in results
            ],
        },
    )
    for r in results:
        exact = "" if r.exact is None else f" (exact {r.exact})"
        print(f"hollow moment k={r.k} m={r.m} [{r.algebra.value}]: {r.value}{exact}")
    return {"orders": orders}, 0


def _cmd_verify_split(config: ExperimentConfig, artifacts: _Artifacts) -> tuple:
    spectra = _trial_spectra(_checkerboard_params(config), config.trials)
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
    g = config.g if config.g is not None else default_average_count(config.dim)
    n = config.n if config.n is not None else default_blip_half_degree(config.dim)
    blip_cfg = BlipConfig.for_dimension(config.dim, config.k, n)
    spectra = _trial_spectra(_checkerboard_params(config), g)
    measures = [blip_measure(s, config.k, blip_cfg) for s in spectra]
    averaged = AtomicMeasure(
        np.concatenate([m.locations for m in measures]) - (config.k - 1),
        np.concatenate([m.weights for m in measures]) / g,
    )
    report = compare_blip_to_hollow(
        averaged, config.k, config.algebra, hollow_trials=config.trials, seed=config.seed, max_m=config.max_m
    )
    artifacts.json("report", {"command": "compare", "config": _config_echo(config), **report.to_dict()})
    print(
        "compare: moment distances "
        + ", ".join(f"m{m}={d:.4f}" for m, d in sorted(report.moment_distances.items()))
        + f"; ks={report.ks_statistic:.4f}"
    )
    return {"g": g, "n": n}, 0


_HANDLERS = {
    "sample": _cmd_sample,
    "bulk": _cmd_bulk,
    "blip": _cmd_blip,
    "hollow": _cmd_hollow,
    "oracle": _cmd_oracle,
    "verify-split": _cmd_verify_split,
    "verify-identities": _cmd_verify_identities,
    "compare": _cmd_compare,
}


def _config_echo(config: ExperimentConfig) -> dict:
    echo = asdict(config)
    echo["out"] = str(config.out)
    return echo


def run(config: ExperimentConfig) -> int:
    """Execute one command; writes all artifacts plus manifest.json, returns exit status."""
    artifacts = _Artifacts()
    derived, status = _HANDLERS[config.command](config, artifacts)
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
    common.add_argument("--k", type=int, default=None, help="congruence modulus k")
    common.add_argument("--N", dest="dim", type=int, default=None, help="matrix dimension N")
    common.add_argument("--w", type=float, default=None, help="value on the congruent positions")
    common.add_argument("--algebra", choices=["real", "complex", "quaternion"], default=None)
    common.add_argument("--dist", choices=["normal", "rademacher"], default=None, help="entry distribution")
    common.add_argument("--trials", type=int, default=None, help="number of sampled matrices / MC trials")
    common.add_argument("--g", type=int, default=None, help="matrices averaged per blip measure")
    common.add_argument("--n", type=int, default=None, help="blip weight half-degree override")
    common.add_argument("--m", type=int, default=None, help="single moment order (oracle)")
    common.add_argument("--max-m", dest="max_m", type=int, default=None, help="highest moment order")
    common.add_argument("--bins", type=int, default=None, help="histogram bin count")
    common.add_argument("--exponent", type=float, default=None, help="regime-splitting threshold exponent")
    common.add_argument("--seed", type=int, default=None, help="master seed (64-bit)")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None, help="moment table format")
    common.add_argument("--config", type=Path, default=None, help="JSON config file (flags override it)")

    parser = argparse.ArgumentParser(
        prog="checkerboard-rmt",
        description="Simulation and verification lab for checkerboard random matrix ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "sample": "sample checkerboard matrices and write their eigenvalues",
        "bulk": "bulk spectral measure: moments and histogram (w defaults to 0)",
        "blip": "averaged blip measure: centered moments and histogram",
        "hollow": "hollow Gaussian ensemble: eigenvalues, moments, histogram",
        "oracle": "exact (or Monte Carlo) hollow-ensemble moments",
        "verify-split": "check the two-regime eigenvalue split over many trials",
        "verify-identities": "check the exact combinatorial and trace identities",
        "compare": "compare a centered blip sample against hollow-ensemble draws",
    }
    for name in COMMANDS:
        sub.add_parser(name, parents=[common], help=descriptions[name])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = None
        if args.config is not None:
            file_values = json.loads(Path(args.config).read_text())
            if not isinstance(file_values, dict):
                raise ParameterError(f"config file {args.config} must hold a JSON object")
        cli_values = {field: getattr(args, field) for field in _FIELD_TYPES}
        config = resolve_config(args.command, cli_values, file_values)
        return run(config)
    except (ParameterError, EnumerationBudgetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
