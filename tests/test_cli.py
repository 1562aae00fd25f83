"""End-to-end CLI runs: artifacts, manifests, determinism, error handling."""

import json

import numpy as np
import pytest

from checkerboard_rmt.cli import CSV_BLOCK_ROWS, CSV_VERSION_LINE, _csv_text, main, resolve_config, run
from checkerboard_rmt.ensembles import CheckerboardParams, sample_checkerboard
from checkerboard_rmt.spectra import eigensolve


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
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    lines = [CSV_VERSION_LINE, ",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 17, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_csv_writer_matches_the_per_cell_rule(rows):
    floats = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1 / 3, -2.5e300, 123456789.125]
    singles = [-0.0, np.nan, -np.inf, 1e-45, 0.1, 3.4e38]
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    other = [None, True, False, np.True_, "x", "wick-exact", 7, 2.5, np.float64(0.1)]
    columns = (
        np.resize(np.array(floats), rows),
        np.resize(np.array(singles, dtype=np.float32), rows),
        np.resize(np.array([i64.min, i64.max, 0, -1], dtype=np.int64), rows),
        np.resize(np.array([u64.max, 0], dtype=np.uint64), rows),
        [other[i % len(other)] for i in range(rows)],
    )
    header = ("f64", "f32", "i64", "u64", "other")
    expected = _per_cell_csv_text(header, zip(*columns))
    assert _csv_text(header, columns) == expected


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


def test_compare_command(tmp_path):
    out = tmp_path / "compare"
    status = _run_cli(
        ["compare", "--k", "2", "--N", "80", "--g", "4", "--trials", "500", "--seed", "7", "--out", out]
    )
    assert status == 0
    report = json.loads(_read(out / "report.json"))
    assert set(report["moment_distances"]) == {"1", "2", "3", "4", "5", "6"}
    assert 0.0 <= report["ks_statistic"] <= 1.0


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
    assert _run_cli(["blip", "--config", cfg_path, "--N", "12", "--g", "2", "--out", tmp_path / "ok"]) == 0
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
