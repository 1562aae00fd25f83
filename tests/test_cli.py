"""End-to-end CLI runs: artifacts, manifests, determinism, error handling."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from checkerboard_rmt import cli
from checkerboard_rmt.cli import (
    CSV_BLOCK_ROWS,
    CSV_PIECE_ROWS,
    CSV_VERSION_LINE,
    _Artifacts,
    _eigenvalue_table,
    _TrialColumn,
    _write_csv,
    main,
    resolve_config,
    run,
)
from checkerboard_rmt.ensembles import CheckerboardParams, HollowParams, sample_checkerboard
from checkerboard_rmt.exceptions import CheckerboardError, ParameterError
from checkerboard_rmt.spectra import eigensolve, hollow_eigenvalues


def _run_cli(args):
    return main([str(a) for a in args])


def _read(path):
    return path.read_text()


def test_blip_command_artifacts(tmp_path):
    out = tmp_path / "blip"
    status = _run_cli(["blip", "--k", "2", "--N", "60", "--g", "6", "--seed", "3", "--out", out])
    assert status == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"eigenvalues.csv", "moments.csv", "histogram.csv", "histogram.gp", "manifest.json"}
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["command"] == "blip"
    assert manifest["config"]["N"] == 60
    assert manifest["config"]["seed"] == 3
    assert manifest["derived"]["g"] == 6
    assert manifest["derived"]["n"] == 8  # ceil(sqrt(60))
    assert sorted(manifest["outputs"]) == sorted(n for n in names if n != "manifest.json")
    moments = _read(out / "moments.csv").splitlines()
    assert moments[0] == CSV_VERSION_LINE
    assert moments[1] == "m,value,stderr"
    assert len(moments) == 2 + 5  # m = 0..4


def test_identical_configs_are_byte_identical_across_workers(tmp_path, monkeypatch):
    args = ["blip", "--k", "2", "--N", "48", "--g", "5", "--seed", "12"]
    monkeypatch.setenv("CHECKERBOARD_THREADS", "1")
    _run_cli(args + ["--out", tmp_path / "one"])
    monkeypatch.setenv("CHECKERBOARD_THREADS", "4")
    _run_cli(args + ["--out", tmp_path / "four"])
    for name in ("eigenvalues.csv", "moments.csv", "histogram.csv"):
        assert _read(tmp_path / "one" / name) == _read(tmp_path / "four" / name), name
    manifests = [json.loads(_read(tmp_path / d / "manifest.json")) for d in ("one", "four")]
    for manifest in manifests:
        manifest["config"].pop("out")
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["hollow", "--k", "16", "--trials", "9000", "--seed", "4"],
        ["hollow", "--k", "3", "--algebra", "quaternion", "--trials", "9000", "--seed", "4"],
    ],
    ids=["hollow-k16", "hollow-quaternion"],
)
def test_pooled_batch_chunks_are_byte_identical_across_workers(tmp_path, monkeypatch, argv):
    # several eigensolve chunks, solved serially or on four threads
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
        out = tmp_path / threads
        assert _run_cli([*argv, "--out", out]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] == outputs[1]


def _per_cell_csv_text(header, rows):
    """Reference writer: one conversion per cell, row by row."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [CSV_VERSION_LINE, ",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _assert_same_text(got, expected):
    """Equal texts, compared line by line: pytest's diff of two long unequal texts takes minutes."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for number, (line, reference) in enumerate(zip(got_lines, expected_lines)):
        assert line == reference, f"line {number}"
    assert len(got_lines) == len(expected_lines)


def _assert_writes_at_every_worker_count(path, header, columns, expected, monkeypatch):
    """`_write_csv` writes `expected` at 1, 2 and 3 workers and leaves no part file."""
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
        _write_csv(path, header, columns)
        _assert_same_text(path.read_bytes().decode(), expected)  # no newline translation
        assert [p.name for p in path.parent.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "rows", [0, 1, 17, CSV_PIECE_ROWS - 1, CSV_PIECE_ROWS, CSV_PIECE_ROWS + 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]
)
def test_csv_writer_matches_the_per_cell_rule(rows, tmp_path, monkeypatch):
    floats = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1 / 3, -2.5e300, 123456789.125]
    singles = [-0.0, np.nan, -np.inf, 1e-45, 0.1, 3.4e38]
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    columns = (
        np.resize(np.array(floats), rows),
        np.resize(np.array(singles, dtype=np.float32), rows),
        None,
        np.resize(np.array([i64.min, i64.max, 0, -1], dtype=np.int64), rows),
        np.resize(np.array([u64.max, 0], dtype=np.uint64), rows),
    )
    header = ("f64", "f32", "none", "i64", "u64")
    cells = [[None] * rows if column is None else column for column in columns]
    expected = _per_cell_csv_text(header, zip(*cells))
    _assert_writes_at_every_worker_count(tmp_path / "table.csv", header, columns, expected, monkeypatch)


@pytest.mark.parametrize(
    "n, trials, boundary",
    [(16, 4097, CSV_BLOCK_ROWS), (3, 21846, CSV_BLOCK_ROWS), (3, 2731, CSV_PIECE_ROWS)],
    ids=["n16", "trial-across-blocks", "trial-across-pieces"],
)
def test_eigenvalue_table_blocks_match_the_per_cell_rule(n, trials, boundary, tmp_path, monkeypatch):
    # 4097 trials of 16 end one trial into a second block; with n = 3 trial 21845 spans the block boundary
    # and trial 2730 the first piece boundary
    values = np.random.default_rng(n).standard_normal((trials, n))
    artifacts = _Artifacts()
    _eigenvalue_table(artifacts, values)
    [(name, (header, columns))] = artifacts.files
    assert name == "eigenvalues.csv" and boundary < len(columns[0]) <= 2 * boundary  # rows just past the boundary
    expected = _per_cell_csv_text(header, ((t, i, values[t, i]) for t in range(trials) for i in range(n)))
    _assert_writes_at_every_worker_count(tmp_path / name, header, columns, expected, monkeypatch)


def test_eigenvalue_table_write_holds_less_than_its_file(tmp_path, monkeypatch):
    # one worker formats every block in this process; it holds one block's text at a time, never the table's,
    # and no per-row strings
    monkeypatch.setenv("CHECKERBOARD_THREADS", "1")
    eigs = hollow_eigenvalues(HollowParams(16), 32768)
    tracemalloc.start()
    try:
        artifacts = _Artifacts()
        _eigenvalue_table(artifacts, eigs)
        artifacts.write(tmp_path, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "eigenvalues.csv").stat().st_size / 3


# 144,000 rows are three blocks: the parent formats the first (index 0), a child the last (index 2)
@pytest.mark.parametrize("block, threads", [(2, "2"), (0, "2"), (0, "3")], ids=["child-2", "parent-2", "parent-3"])
def test_a_failed_table_write_leaves_no_manifest_and_no_part_file(tmp_path, capsys, monkeypatch, block, threads):
    out = tmp_path / "run"
    assert _run_cli(["hollow", "--k", "2", "--trials", "10", "--out", out]) == 0
    slice_rows = _TrialColumn.__getitem__

    def fail_in_one_block(column, rows):
        if rows.start // CSV_BLOCK_ROWS == block:
            raise CheckerboardError("column failed")
        return slice_rows(column, rows)

    monkeypatch.setattr(_TrialColumn, "__getitem__", fail_in_one_block)
    monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
    assert _run_cli(["hollow", "--k", "16", "--trials", "9000", "--out", out]) == 2
    assert capsys.readouterr().err == "error: column failed\n"
    names = {p.name for p in out.iterdir()}
    assert "manifest.json" not in names and not [name for name in names if name.endswith(".part")]


def test_moment_table_json_format(tmp_path):
    out = tmp_path / "bulk"
    status = _run_cli(
        ["bulk", "--k", "2", "--N", "40", "--trials", "5", "--max-m", "4", "--seed", "1", "--out", out, "--format", "json"]
    )
    assert status == 0
    payload = json.loads(_read(out / "moments.json"))
    assert payload["columns"] == ["m", "value", "stderr"]
    assert len(payload["rows"]) == 5
    assert payload["schema_version"] == 1


@pytest.mark.parametrize("command", [["hollow", "--k", "2"], ["bulk", "--N", "10"], ["blip", "--N", "12", "--g", "1"]],
                         ids=["hollow", "bulk", "blip"])
def test_single_trial_moments_leave_stderr_empty(tmp_path, command):
    # one trial has no spread to report: an empty cell, not a claim of zero error
    out = tmp_path / command[0]
    assert _run_cli([*command, "--trials", "1", "--max-m", "2", "--out", out]) == 0
    rows = _read(out / "moments.csv").splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["", "", ""]


def test_sample_command_row_count(tmp_path):
    out = tmp_path / "sample"
    _run_cli(["sample", "--k", "2", "--N", "10", "--trials", "3", "--out", out])
    rows = _read(out / "eigenvalues.csv").splitlines()[2:]
    assert len(rows) == 30


def test_eigenvalue_table_lists_each_trial_in_index_order(tmp_path):
    out = tmp_path / "sample"
    assert _run_cli(["sample", "--k", "2", "--N", "5", "--trials", "3", "--seed", "4", "--out", out]) == 0
    rows = [row.split(",") for row in _read(out / "eigenvalues.csv").splitlines()[2:]]
    assert [(int(t), int(i)) for t, i, _ in rows] == [(t, i) for t in range(3) for i in range(5)]
    params = CheckerboardParams(dim=5, k=2, seed=4)
    expected = [eigensolve(sample_checkerboard(params, t)).eigenvalues for t in range(3)]
    assert [float(v) for _, _, v in rows] == np.concatenate(expected).tolist()


def test_hollow_command(tmp_path):
    out = tmp_path / "hollow"
    status = _run_cli(["hollow", "--k", "2", "--trials", "2000", "--max-m", "4", "--seed", "2", "--out", out])
    assert status == 0
    rows = _read(out / "moments.csv").splitlines()[2:]
    m2 = float(rows[2].split(",")[1])
    assert abs(m2 - 1.0) < 0.15  # second hollow moment tends to k - 1


# SHA-256 of hollow --k 3 --trials 9000 --seed 5: nine chunk streams, their moment traces and CSV text.
_GOLDEN_HOLLOW_CSV = {
    "real": ("def39a93a53f3e1aacdb031cd4f811283734c0399847cb0f73fe4eff381805bb",
             "6a2b030569fa7c84a9c11eee3d2ce9ecdfe1766fab28cc3989e9db0c6b9b253b"),
    "complex": ("966a7c0de25debebae021779af17880af5866447b4f3430f27fdd413e7b4501d",
                "45bfb34cc2ef518242bf5fbc8c20af24224a22eae6c4bf72251c1785968c1437"),
    "quaternion": ("e6ae164337c45f68f7f698df78f2417d54c04c004147ce6654a4023bdb5734df",
                   "ca51a9fe8194505178778c7af7aad4ab4efa2740c23104b5ac28e35d97c88f13"),
}


@pytest.mark.parametrize("algebra", sorted(_GOLDEN_HOLLOW_CSV))
def test_hollow_csv_bytes_are_pinned(tmp_path, algebra):
    out = tmp_path / algebra
    assert _run_cli(["hollow", "--k", "3", "--trials", "9000", "--seed", "5", "--algebra", algebra, "--out", out]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("moments.csv", "eigenvalues.csv"))
    assert digests == _GOLDEN_HOLLOW_CSV[algebra]


_BULK = ["bulk", "--k", "2", "--N", "40", "--trials", "5", "--max-m", "4", "--seed", "1"]
# SHA-256 of every table of one bulk and one blip run, and of the moment tables in JSON
# (bulk with standard errors, oracle with none).
_GOLDEN_TABLES = {
    "bulk": (_BULK, {
        "eigenvalues.csv": "ca8ae2d499defa2ba8679601318ac318baf0a5735fb793953cdbb2fa636ce9a7",
        "moments.csv": "92ee28a7256672b9cef77e236f38c4e4c2e38477f0dcbe652c620360d49442bb",
        "histogram.csv": "91534bd51bd62e8dc0ba2b1c58f82020c0bc5100ff42e285ca90385cefa23a24",
    }),
    "blip": (["blip", "--k", "2", "--N", "60", "--g", "6", "--seed", "3"], {
        "eigenvalues.csv": "637e5964fee86726ff3cb17ef21c39aa2854b8e2e32a007429730b7d8dc7975c",
        "moments.csv": "25436404ff3daf94da558d493a20f9e23ae92689eb34ab1439c5aef5a6f6d831",
        "histogram.csv": "12af4a92b6b78aef7255a3726ae2e75724d419b1c7886134c89c6b1b46b3073c",
    }),
    "bulk-json": ([*_BULK, "--format", "json"], {
        "moments.json": "d7e773917186f48270734afa2e05570d976a65099bc7881cca0a8ba862670f15",
    }),
    "oracle-json": (["oracle", "--k", "3", "--max-m", "8", "--format", "json"], {
        "moments.json": "627ed8d6aec435df99573b2275b6cff326d290ed5757f82da4ca3b28603ef222",
    }),
}


@pytest.mark.parametrize("run", sorted(_GOLDEN_TABLES))
def test_table_bytes_are_pinned(tmp_path, run):
    argv, golden = _GOLDEN_TABLES[run]
    out = tmp_path / run
    assert _run_cli([*argv, "--out", out]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in golden} == golden


def test_oracle_single_order(tmp_path, capsys):
    out = tmp_path / "oracle"
    status = _run_cli(["oracle", "--k", "3", "--m", "4", "--out", out])
    assert status == 0
    assert "10.0 (exact 10)" in capsys.readouterr().out
    payload = json.loads(_read(out / "oracle.json"))
    assert payload["results"][0]["exact"] == "10"


def test_oracle_table_and_quaternion(tmp_path):
    out = tmp_path / "oracle-q"
    status = _run_cli(
        ["oracle", "--k", "2", "--algebra", "quaternion", "--max-m", "4", "--trials", "20000", "--out", out]
    )
    assert status == 0
    payload = json.loads(_read(out / "oracle.json"))
    assert [r["m"] for r in payload["results"]] == [0, 1, 2, 3, 4]
    assert [r["exact"] for r in payload["results"]] == ["1", "0", "1", "0", "3/2"]
    assert all(set(r) == {"m", "value", "exact"} for r in payload["results"])


# SHA-256 of oracle --k 3 --max-m 8: oracle.json, moments.csv and the printed lines before "wrote ...".
_GOLDEN_ORACLE = {
    "real": ("4107a9fef592ca5dd3a3c1f527726c9a8d5f631b256f36423debe2187ce5f9a0",
             "bbfc2a6b35d68825d45efcae35eaf5621b8b5205593c8ec867560ae64359997d",
             "7d9cda64882556e89db40c19438dbd2bbdc5eb56a97e6b383640aff18340575a"),
    "complex": ("397bad38ff9b03cabc4a5ba178b3ee44b0aca1753eaa589e5d4ce0c26c88b787",
                "b5fc3bf44a6e92de1c518da1183a701f20ea1a0b5f0ea927ddd1fca806937d39",
                "d1cf4e3571617c54667bd648fd815b16a9e82fa49ac1a855de52dfc4c12ae3e6"),
    "quaternion": ("bb418ce40d82fcde886c363bc9154584eb6af7ea04f4a505cdccd22e0d256a5f",
                   "dd2c9222b43a2b961c4ce7914e91ab67531fcf1b42de940feecb96dfb905b353",
                   "58f7cbbfc2b9e0096aaf654b3aeb466ba0a84aab5c3fe36226b464a7489bf0f9"),
}


@pytest.mark.parametrize("algebra", sorted(_GOLDEN_ORACLE))
def test_oracle_artifacts_are_pinned(tmp_path, capsys, algebra):
    out = tmp_path / algebra
    assert _run_cli(["oracle", "--k", "3", "--max-m", "8", "--algebra", algebra, "--out", out]) == 0
    *lines, wrote = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote 3 files to {out}" and len(lines) == 9
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("oracle.json", "moments.csv"))
    assert (*digests, hashlib.sha256("\n".join(lines).encode()).hexdigest()) == _GOLDEN_ORACLE[algebra]


def test_verify_identities_passes(tmp_path):
    out = tmp_path / "ids"
    status = _run_cli(["verify-identities", "--max-m", "12", "--trials", "3", "--seed", "5", "--out", out])
    assert status == 0
    report = json.loads(_read(out / "report.json"))
    assert report["passed"] is True
    kinds = {c["kind"] for c in report["checks"]}
    assert kinds == {"alternating-binomial", "trace-expansion"}


def test_verify_split_passes(tmp_path):
    out = tmp_path / "split"
    status = _run_cli(
        ["verify-split", "--k", "3", "--N", "150", "--trials", "5", "--seed", "6", "--out", out]
    )
    assert status == 0
    report = json.loads(_read(out / "report.json"))
    assert report["passed"] is True
    assert all(t["blip_count"] == 3 for t in report["per_trial"])


def test_verify_split_fails_when_regimes_collide(tmp_path):
    # N too small for the exponent: the windows overlap, every trial errors
    out = tmp_path / "split-bad"
    status = _run_cli(
        ["verify-split", "--k", "3", "--N", "20", "--trials", "3", "--exponent", "0.9", "--seed", "6", "--out", out]
    )
    assert status == 1
    report = json.loads(_read(out / "report.json"))
    assert report["passed"] is False
    assert any("error" in t for t in report["per_trial"])


def test_failed_split_reports_each_overlap_on_one_line(tmp_path):
    out = tmp_path / "split-bad"
    argv = ["verify-split", "--k", "3", "--N", "20", "--trials", "3", "--exponent", "0.9", "--seed", "6", "--out", out]
    assert _run_cli(argv) == 1
    errors = [t["error"] for t in json.loads(_read(out / "report.json"))["per_trial"]]
    assert len(errors) == 3 and not any("\n" in error for error in errors)


def test_compare_command(tmp_path):
    out = tmp_path / "compare"
    status = _run_cli(
        ["compare", "--k", "2", "--N", "80", "--g", "4", "--trials", "500", "--seed", "7", "--out", out]
    )
    assert status == 0
    report = json.loads(_read(out / "report.json"))
    assert set(report["moment_distances"]) == {"1", "2", "3", "4", "5", "6"}
    assert 0.0 <= report["ks_statistic"] <= 1.0


@pytest.mark.parametrize("algebra", ["real", "quaternion"])
def test_compare_hollow_moments_are_the_hollow_commands(tmp_path, algebra):
    # compare's hollow side is `hollow`'s draw reduced by `hollow_moments`, value for value
    common = ["--k", "3", "--algebra", algebra, "--seed", "5", "--trials", "1500", "--max-m", "11"]
    assert _run_cli(["hollow", *common, "--out", tmp_path / "hollow"]) == 0
    assert _run_cli(["compare", *common, "--N", "60", "--g", "2", "--out", tmp_path / "compare"]) == 0
    rows = _read(tmp_path / "hollow" / "moments.csv").splitlines()[2:]
    report = json.loads(_read(tmp_path / "compare" / "report.json"))
    assert list(report["hollow_moments"]) == [str(m) for m in range(12)]  # numeric order past m = 9
    assert [float(row.split(",")[1]) for row in rows] == list(report["hollow_moments"].values())


def test_unknown_flag_exits_nonzero_without_outputs(tmp_path):
    out = tmp_path / "nothing"
    with pytest.raises(SystemExit) as exc:
        _run_cli(["bulk", "--bogus", "1", "--out", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_out_of_range_parameters_exit_nonzero_without_outputs(tmp_path):
    out = tmp_path / "nothing"
    status = _run_cli(["bulk", "--k", "5", "--N", "3", "--out", out])
    assert status == 2
    assert not out.exists()


def test_config_file_precedence(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"N": 24, "seed": 9, "g": 3}))
    out = tmp_path / "cfgd"
    status = _run_cli(["blip", "--config", cfg_path, "--seed", "11", "--out", out])
    assert status == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["config"]["N"] == 24  # from config file
    assert manifest["config"]["seed"] == 11  # flag overrides file
    assert manifest["derived"]["g"] == 3


def test_manifest_config_reruns_the_same_experiment(tmp_path):
    first = tmp_path / "first"
    argv = ["--k", "3", "--N", "12", "--w", "0.5", "--algebra", "complex", "--dist", "rademacher", "--trials", "3",
            "--max-m", "4", "--bins", "9", "--seed", "8", "--format", "json"]
    assert _run_cli(["bulk", *argv, "--out", first]) == 0
    cfg_path = tmp_path / "rerun.json"
    cfg_path.write_text(json.dumps(json.loads(_read(first / "manifest.json"))["config"]))
    second = tmp_path / "second"
    assert _run_cli(["bulk", "--config", cfg_path, "--out", second]) == 0
    for name in ("eigenvalues.csv", "moments.json", "histogram.csv", "histogram.gp"):
        assert _read(first / name) == _read(second / name), name
    configs = [json.loads(_read(run_dir / "manifest.json"))["config"] for run_dir in (first, second)]
    assert {**configs[0], "out": None} == {**configs[1], "out": None}


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"mystery": 1}))
    assert _run_cli(["blip", "--config", cfg_path, "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"'])
def test_config_file_must_hold_a_json_object(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    assert _run_cli(["bulk", "--config", cfg_path, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == f"error: config file {cfg_path} must hold a JSON object\n"
    assert not (tmp_path / "x").exists()


def test_resolve_config_refuses_an_unknown_command():
    with pytest.raises(ParameterError, match="^unknown command 'bogus'$"):
        resolve_config("bogus", {})


def test_config_file_rejects_badly_typed_values(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"k": "x"}))
    assert _run_cli(["blip", "--config", cfg_path, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'k'" in err
    assert not (tmp_path / "x").exists()


def test_oracle_past_enumeration_budget_is_an_error(tmp_path, capsys):
    assert _run_cli(["oracle", "--k", "2", "--m", "40", "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


# (argv, message, drawn): `drawn` runs are refused while drawing, the others before any draw
_REFUSED_RUNS = {
    "hollow-max-m": (["hollow", "--k", "2", "--max-m", "40"], "error: moment order cap is 32, got 40", False),
    "verify-split-no-trials": (["verify-split", "--trials", "0"], "error: trials must be positive, got 0", False),
    "verify-split-exponent": (["verify-split", "--exponent", "2"], "error: exponent must lie in (0.5, 1), got 2.0",
                              False),
    "verify-split-nan-exponent": (["verify-split", "--exponent", "nan", "--algebra", "complex"],
                                  "error: exponent must be finite, got nan", False),
    # every command refuses a value its manifest.json could not hold as JSON, whether it reads the field or not
    "oracle-nan-w": (["oracle", "--w", "nan"], "error: w must be finite, got nan", False),
    "hollow-inf-exponent": (["hollow", "--exponent", "inf"], "error: exponent must be finite, got inf", False),
    "hollow-config-nan-w": (["hollow", "--config", "nan-w.json"], "error: w must be finite, got nan", False),
    "verify-identities-N": (["verify-identities", "--N", "17"],
                            "error: desk-scale evaluation requires dim <= 16 and n <= 3, got dim=17, n=2", False),
    "verify-identities-n": (["verify-identities", "--n", "4"],
                            "error: desk-scale evaluation requires dim <= 16 and n <= 3, got dim=8, n=4", False),
    "sample-no-trials": (["sample", "--trials", "0"], "error: trials must be positive, got 0", False),
    "verify-identities-no-trials": (["verify-identities", "--trials", "0"], "error: trials must be positive, got 0",
                                    False),
    # a negative count names its flag: verify-identities would otherwise check no matrix and pass
    "oracle-negative-max-m": (["oracle", "--max-m", "-1"], "error: max-m must be nonnegative, got -1", False),
    "verify-identities-negative-trials": (["verify-identities", "--trials", "-1"],
                                          "error: trials must be nonnegative, got -1", False),
    "sample-negative-bins": (["sample", "--bins", "-1"], "error: bins must be nonnegative, got -1", False),
    "bulk-no-trials": (["bulk", "--trials", "0"], "error: trials must be positive, got 0", False),
    "blip-no-g": (["blip", "--g", "0"], "error: g must be positive, got 0", False),
    "blip-negative-g": (["blip", "--g", "-1"], "error: g must be positive, got -1", False),
    "compare-no-g": (["compare", "--g", "0"], "error: g must be positive, got 0", False),
    "compare-no-trials": (["compare", "--N", "60", "--trials", "0"], "error: trials must be positive, got 0", False),
    "bulk-max-m": (["bulk", "--algebra", "quaternion", "--max-m", "33"], "error: moment order cap is 32, got 33", False),
    "blip-max-m": (["blip", "--max-m", "40"], "error: moment order cap is 32, got 40", False),
    "compare-max-m": (["compare", "--algebra", "quaternion", "--max-m", "40"], "error: moment order cap is 32, got 40",
                      False),
    "compare-k": (["compare", "--k", "700"], "error: need 1 <= k <= dim, got k=700, dim=600", False),
    "blip-n": (["blip", "--n", "0"], "error: weight half-degree must be >= 1, got 0", False),
    "compare-n": (["compare", "--n", "0"], "error: weight half-degree must be >= 1, got 0", False),
    # the blip window sits at N/k, where the outliers are only for w = 1
    "blip-w": (["blip", "--w", "2"], "error: w must be 1: the blip window sits at N/k, got 2.0", False),
    "compare-w": (["compare", "--w", "0.5"], "error: w must be 1: the blip window sits at N/k, got 0.5", False),
    # classes of unequal size put the outliers up to (k-1)/k away from N/k, at every N
    "blip-k-not-dividing-N": (["blip", "--N", "601", "--k", "3"],
                              "error: k must divide N: the blip window sits at N/k, got k=3, N=601", False),
    "compare-k-not-dividing-N": (["compare", "--N", "601", "--k", "3"],
                                 "error: k must divide N: the blip window sits at N/k, got k=3, N=601", False),
    "bulk-no-bins": (["bulk", "--algebra", "quaternion", "--bins", "0"], "error: bins must be >= 1, got 0", False),
    "blip-no-bins": (["blip", "--bins", "0"], "error: bins must be >= 1, got 0", False),
    "hollow-no-bins": (["hollow", "--k", "16", "--bins", "0"], "error: bins must be >= 1, got 0", False),
    # arrays past 2**57 bytes, beyond any user address space of 4- or 5-level paging, and a trace that overflows
    "bulk-huge-N": (["bulk", "--N", "200000000", "--trials", "2"],
                    "error: Unable to allocate 284. PiB for an array with shape (1, 200000000, 200000000) and data "
                    "type float64", True),
    "hollow-huge-k": (["hollow", "--k", "200000000", "--trials", "1"],
                      "error: Unable to allocate 284. PiB for an array with shape (1, 1, 200000000, 200000000) and "
                      "data type float64", True),
    "bulk-huge-bins": (["bulk", "--N", "10", "--trials", "2", "--bins", "100000000000000000"],
                       "error: Unable to allocate 711. PiB for an array with shape (100000000000000000,) and data "
                       "type float64", True),
    "bulk-huge-w": (["bulk", "--N", "4", "--trials", "1", "--w", "1e308"],
                    "error: eigenvalue sum inf disagrees with trace inf (dim=4, algebra=real)", True),
}


@pytest.mark.parametrize("argv, message, drawn", list(_REFUSED_RUNS.values()), ids=list(_REFUSED_RUNS))
def test_refused_runs_end_in_one_error_line(tmp_path, capsys, monkeypatch, recwarn, argv, message, drawn):
    # before drawing, the samplers still refuse a zero count themselves, but fail on any draw
    def refuse_only(sampler):
        def draw(params, trials):
            if (len(trials) if isinstance(trials, range) else trials) > 0:
                raise AssertionError(f"{sampler.__name__} drew before the refusal")
            return sampler(params, trials)

        return draw

    def refuse(params, trial):
        raise AssertionError("sample_checkerboard drew before the refusal")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan-w.json").write_text('{"w": NaN}')  # json.loads reads NaN, though it is not JSON
    if not drawn:
        for name in ("trial_spectra", "hollow_eigenvalues"):
            monkeypatch.setattr(cli, name, refuse_only(getattr(cli, name)))
        monkeypatch.setattr(cli, "sample_checkerboard", refuse)
    out = tmp_path / "x"
    assert _run_cli([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert [str(w.message) for w in recwarn] == []  # a warning would print before the error line
    assert not out.exists()


@pytest.mark.parametrize(
    "algebra, message",
    [
        ("real", "error: eigenvalue sum inf disagrees with trace inf (dim=4, algebra=real)"),
        ("complex", "error: eigenvalue sum inf disagrees with trace inf (dim=4, algebra=complex)"),
        ("quaternion", "error: embedded spectrum is not doubled to relative 1e-8; worst pair (inf, inf)"),
    ],
    ids=["real", "complex", "quaternion"],
)
def test_non_finite_spectrum_ends_in_one_error_line(tmp_path, capsys, recwarn, algebra, message):
    # the trace check (real, complex) or the Kramers pair check (quaternion) fails on inf - inf, without a warning
    out = tmp_path / "x"
    assert _run_cli(["sample", "--w", "1e308", "--N", "4", "--algebra", algebra, "--out", out]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("w", ["1e9", "1e12"])
def test_large_stripe_quaternion_spectrum_passes_the_kramers_check(tmp_path, capsys, w):
    # the bulk pairs split by rounding of the outliers' size, eps * N * w / k, not of their own
    out = tmp_path / "x"
    assert _run_cli(["sample", "--w", w, "--N", "40", "--k", "2", "--trials", "2", "--algebra", "quaternion",
                     "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_compare_refuses_zero_trials_before_drawing(tmp_path, capsys, monkeypatch):
    def draw(*args):
        raise AssertionError("compare drew its blip matrices")

    monkeypatch.setattr(cli, "trial_spectra", draw)
    assert _run_cli(["compare", "--trials", "0", "--algebra", "quaternion", "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == "error: trials must be positive, got 0\n"


def test_oracle_odd_order_past_enumeration_budget_is_zero(tmp_path, capsys):
    assert _run_cli(["oracle", "--k", "2", "--m", "41", "--out", tmp_path / "x"]) == 0
    assert "(exact 0)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config, argv, env, message",
    [
        ({"algebra": "x"}, [], None, "config key 'algebra'"),
        ({"format": "xml"}, [], None, "config key 'format'"),
        ({"k": 2.7}, [], None, "config key 'k'"),
        ({"k": True}, [], None, "config key 'k'"),
        ({"trials": True}, [], None, "config key 'trials'"),
        ({"w": "1.5"}, [], None, "config key 'w'"),
        ({"seed": None}, [], None, "config key 'seed'"),
        (b"\xff\xfe not utf-8", [], None, "decode"),
        (None, ["--w", "1e308"], None, "trace"),
        (None, ["--algebra", "quaternion", "--w", "1e300"], None, "doubled"),
        (None, [], "x", "CHECKERBOARD_THREADS"),
    ],
    ids=["config-algebra", "config-format", "config-float-k", "config-bool-k", "config-bool-trials", "config-string-w",
         "config-null-seed", "config-not-utf8", "inf-spectrum", "quaternion-overflow", "threads-env"],
)
def test_bad_inputs_end_in_one_error_line(tmp_path, capsys, monkeypatch, config, argv, env, message):
    if config is not None:
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv = [*argv, "--config", cfg_path]
    if env is not None:
        monkeypatch.setenv("CHECKERBOARD_THREADS", env)
    out = tmp_path / "x"
    with np.errstate(all="ignore"):
        assert _run_cli(["sample", "--N", "10", *argv, "--out", out]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and message in last
    assert not out.exists()


def test_config_file_floats_take_any_json_number(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"w": 2, "exponent": 0.5, "g": None}))
    assert _run_cli(["bulk", "--config", cfg_path, "--N", "12", "--trials", "2", "--out", tmp_path / "ok"]) == 0
    config = json.loads((tmp_path / "ok" / "manifest.json").read_text())["config"]
    assert config["w"] == 2.0 and isinstance(config["w"], float) and config["exponent"] == 0.5


def test_reused_out_directory_drops_only_stale_listed_outputs(tmp_path):
    out = tmp_path / "run"
    common = ["--k", "2", "--N", "12", "--trials", "2", "--out", out]
    assert _run_cli(["bulk", *common]) == 0
    (out / "notes.txt").write_text("kept\n")
    assert _run_cli(["bulk", *common, "--format", "json"]) == 0
    names = {p.name for p in out.iterdir()}
    assert "moments.json" in names and "moments.csv" not in names and "notes.txt" in names
    assert _run_cli(["sample", *common]) == 0
    assert {p.name for p in out.iterdir()} == {"eigenvalues.csv", "manifest.json", "notes.txt"}
    # without a manifest nothing is deleted
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "moments.csv").write_text("not ours\n")
    assert _run_cli(["sample", "--N", "10", "--out", bare]) == 0
    assert (bare / "moments.csv").read_text() == "not ours\n"


def test_resolve_config_defaults():
    config = resolve_config("bulk", {f: None for f in (
        "k", "dim", "w", "algebra", "dist", "trials", "g", "n", "m",
        "max_m", "bins", "exponent", "seed", "out", "fmt",
    )})
    assert config.w == 0.0  # bulk experiments default to the rank-free ensemble
    assert config.dim == 400
    assert config.trials == 40


def test_rerun_same_config_identical(tmp_path):
    config = resolve_config("bulk", dict(
        k=2, dim=30, w=0.0, algebra=None, dist=None, trials=4, g=None, n=None, m=None,
        max_m=4, bins=16, exponent=None, seed=21, out=tmp_path / "a", fmt=None,
    ))
    run(config)
    config2 = resolve_config("bulk", dict(
        k=2, dim=30, w=0.0, algebra=None, dist=None, trials=4, g=None, n=None, m=None,
        max_m=4, bins=16, exponent=None, seed=21, out=tmp_path / "b", fmt=None,
    ))
    run(config2)
    for name in ("eigenvalues.csv", "moments.csv", "histogram.csv"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)
