import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from goldbachnet import SweepSpec, cli, ensemble
from goldbachnet.baseline import sample_gnm
from goldbachnet.cli import main
from goldbachnet.figures import FIGURE_DEFAULTS, figure_tables


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_write_csv_cells_by_one_rule(tmp_path):
    floats = [0.1, 1e-05, 1e16, -0.0, float("inf"), float("nan")]
    path = tmp_path / "cells.csv"
    cli.write_csv(path, ["a", 2], [[None, 7, "x", *floats], [-3]])
    expected = ["", repr(7), "x", *map(repr, floats)]
    assert expected[3:] == ["0.1", "1e-05", "1e+16", "-0.0", "inf", "nan"]
    assert path.read_bytes() == ("a,2\n" + ",".join(expected) + "\n-3\n").encode()


def test_figure_defaults_cover_1_to_10():
    assert sorted(FIGURE_DEFAULTS) == list(range(1, 11))
    # presets whose conventional node count is 5000
    for fid in (2, 5, 7, 9, 10):
        assert FIGURE_DEFAULTS[fid]["snapshots"] == (5000,)


def test_figure2_columns_sum_to_one():
    tables = figure_tables(2, alphas=(0.0, 1.0), snapshots=(60,),
                           realizations=3, master_seed=4,
                           max_even_cap=20_000)
    table = tables["p_of_j"]
    for col in range(1, len(table.header)):
        total = sum(row[col] for row in table.rows if row[col] is not None)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_figure10_row_shape():
    tables = figure_tables(10, alphas=(-1.0, 1.0), snapshots=(50,),
                           realizations=2, master_seed=4, max_even_cap=20_000)
    table = tables["r_vs_alpha"]
    assert table.header == ["alpha", "r_mean", "r_std"]
    assert [row[0] for row in table.rows] == ["-1", "1"]


def test_figure6_growth_table():
    tables = figure_tables(6, alphas=(2.0, -2.0), realizations=2,
                           master_seed=4, max_even=400)
    table = tables["N_vs_M"]
    assert table.header[0] == "M"
    assert len(table.rows) == (400 - 8) // 2 + 1
    assert table.rows[0][0] == 1


@pytest.mark.parametrize("figure_id, stop", [
    (6, {"max_even": 100}),
    (10, {"snapshots": (50,), "max_even_cap": 20_000}),
])
def test_figure_passes_realizations_through(monkeypatch, figure_id, stop):
    # SweepSpec and growth_curves check the count as passed: 2.5 is refused
    # before any build, not truncated to 2, and a numpy int runs as its int
    def no_build(*args):
        raise AssertionError("built rows for a refused realization count")

    with monkeypatch.context() as patch:
        patch.setattr(ensemble, "_build_rows", no_build)
        with pytest.raises(TypeError):
            figure_tables(figure_id, alphas=(0.0,), realizations=2.5, **stop)
    tables = [figure_tables(figure_id, alphas=(0.0,), realizations=r, master_seed=4,
                            **stop) for r in (2, np.int64(2))]
    assert tables[1] == tables[0]


def test_figure9_counts_present_only():
    tables = figure_tables(9, alphas=(0.0,), snapshots=(60,), realizations=2,
                           master_seed=4, max_even_cap=20_000)
    table = tables["C_of_k"]
    assert table.header == ["k", "C_by_degree_mean[alpha=0]",
                            "C_by_degree_count[alpha=0]"]
    for row in table.rows:
        assert row[2] >= 1 or row[1] is None


def test_figure_rejects_bad_id():
    with pytest.raises(ValueError):
        figure_tables(11)


def test_cli_build_first_even(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["build", "--alpha", "0", "--max-even", "8", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    text = (out / "edges" / "graph.txt").read_text()
    assert text.splitlines()[1:] == ["3 5 8"]
    report = json.loads((out / "report.json").read_text())
    assert report["n_nodes"] == 2 and report["n_edges"] == 1
    assert "N=2 M=1" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {a["path"] for a in manifest["artifacts"]}
    produced = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert listed == produced


def test_cli_manifest_records_versions(tmp_path):
    import platform

    import numpy

    out = tmp_path / "run"
    assert main(["build", "--alpha", "0", "--max-even", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": numpy.__version__}
    assert "versions" not in {a["path"] for a in manifest["artifacts"]}


def test_cli_never_imports_scipy(tmp_path):
    """Importing the CLI, a build and a pooled sweep leave scipy unloaded."""
    code = textwrap.dedent("""\
        import sys
        from goldbachnet import cli
        out = sys.argv[1]
        assert "scipy" not in sys.modules, "import"
        assert cli.main(["build", "--alpha", "0", "--max-even", "200",
                         "--out", out + "/build"]) == 0
        assert "scipy" not in sys.modules, "build"
        assert cli.main(["sweep", "--alphas", "0", "--snapshots", "50",
                         "--realizations", "2", "--max-even-cap", "20000",
                         "--workers", "2", "--out", out + "/sweep"]) == 0
        assert "scipy" not in sys.modules, "sweep"
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_never_imports_numpy_ma(tmp_path):
    """A build with its report, figure 6 and an inline sweep leave numpy.ma
    unloaded (about 1.3 MB of resident memory in every process)."""
    code = textwrap.dedent("""\
        import sys
        from goldbachnet import cli
        out = sys.argv[1]
        assert cli.main(["build", "--alpha", "0", "--max-even", "200",
                         "--out", out + "/build"]) == 0
        assert cli.main(["figure", "6", "--max-even", "400", "--realizations", "2",
                         "--out", out + "/figure"]) == 0
        assert cli.main(["sweep", "--alphas", "0", "--snapshots", "50",
                         "--realizations", "2", "--max-even-cap", "20000",
                         "--out", out + "/sweep"]) == 0
        assert "numpy.ma" not in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_openssl_and_the_pool_only_when_used(tmp_path):
    """Importing the CLI loads neither OpenSSL nor the process-pool stack
    (about 3.5 and 2 MB resident); runs in one process never load the pool,
    and a pooled sweep still gets it."""
    code = textwrap.dedent("""\
        import sys
        from goldbachnet import cli
        out = sys.argv[1]
        pool_modules = ("concurrent.futures.process", "multiprocessing")
        loaded = [m for m in ("_hashlib",) + pool_modules if m in sys.modules]
        assert not loaded, loaded
        assert cli.main(["build", "--alpha", "0", "--max-even", "200",
                         "--out", out + "/build"]) == 0
        assert cli.main(["figure", "6", "--max-even", "400", "--realizations", "2",
                         "--out", out + "/figure"]) == 0
        assert cli.main(["sweep", "--alphas", "0", "--snapshots", "50",
                         "--realizations", "2", "--max-even-cap", "20000",
                         "--workers", "1", "--out", out + "/inline"]) == 0
        loaded = [m for m in pool_modules if m in sys.modules]
        assert not loaded, loaded
        assert cli.main(["sweep", "--alphas", "0", "--snapshots", "50",
                         "--realizations", "2", "--max-even-cap", "20000",
                         "--workers", "2", "--out", out + "/pooled"]) == 0
        assert all(m in sys.modules for m in pool_modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    inline = (tmp_path / "inline" / "sweep.json").read_bytes()
    assert (tmp_path / "pooled" / "sweep.json").read_bytes() == inline


def test_cli_build_minus_inf_seed_independent(tmp_path):
    outs = []
    for seed in ("1", "123456"):
        out = tmp_path / f"run{seed}"
        rc = main(["build", "--alpha", "-inf", "--max-even", "12",
                   "--seed", seed, "--out", str(out)])
        assert rc == 0
        outs.append((out / "edges" / "graph.txt").read_text().splitlines()[1:])
    assert outs[0] == outs[1] == ["3 5 8", "3 7 10", "5 7 12"]


def test_cli_build_rerun_byte_identical(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["build", "--alpha", "2", "--target-nodes", "100",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append({a["path"]: a["sha256"] for a in manifest["artifacts"]})
        for art in manifest["artifacts"]:
            assert (out / art["path"]).stat().st_size == art["bytes"]
    assert digests[0] == digests[1]


ALPHA_ERROR = "finite |alpha| must be <= 2.809e+306; use +inf/-inf"
BUILD_FLAG_ERRORS = [
    (["--alpha", "0", "--max-even", "1"], "max_even must be even and >= 8, got 1"),
    (["--alpha", "0", "--max-even", "7"], "max_even must be even and >= 8, got 7"),
    (["--alpha", "0", "--target-nodes", "1"], "target_nodes must be >= 2, got 1"),
    (["--alpha", "nan", "--max-even", "100"], "alpha must not be NaN"),
    # alpha * log(spread) would overflow to NaN weights
    (["--alpha", "1e308", "--max-even", "100"], ALPHA_ERROR),
    (["--alpha=-1e308", "--target-nodes", "100"], ALPHA_ERROR),
    (["--alpha", "0", "--max-even", "100", "--target-nodes", "10"],
     "set exactly one of max_even / target_nodes"),
    (["--alpha", "0"], "set exactly one of max_even / target_nodes"),
    (["--alpha", "0", "--max-even", "100", "--seed=-1"],
     "seed must fit in 64 unsigned bits"),
    (["--alpha", "0", "--max-even", "100", "--seed=18446744073709551616"],
     "seed must fit in 64 unsigned bits"),
    (["--alpha=-inf", "--max-even", "600", "--max-even-cap", "5000"],
     "build with max_even does not read max_even_cap"),
    # the sweep's rule for the sieve bound, checked before the sieve
    (["--alpha", "0", "--target-nodes", "100", "--max-even-cap", "1001"],
     "max_even_cap must be even and >= 8, got 1001"),
    (["--alpha", "0", "--target-nodes", "100", "--max-even-cap", "1"],
     "max_even_cap must be even and >= 8, got 1"),
    (["--alpha", "0", "--target-nodes", "100", "--max-even-cap", "7"],
     "max_even_cap must be even and >= 8, got 7"),
]


def test_cli_flag_errors_exit_2(tmp_path, capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError("a bad flag reached the sieve")

    monkeypatch.setattr(cli, "build_table", no_sieve)
    for flags, message in BUILD_FLAG_ERRORS:
        out = tmp_path / "bad"
        assert main(["build", *flags, "--out", str(out)]) == 2, flags
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    with pytest.raises(SystemExit) as err:
        main(["build", "--max-even", "100"])  # missing --alpha
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["figure", "11", "--out", str(tmp_path / "z")])
    assert err.value.code == 2


def test_cli_unwritable_out_exits_3_before_the_sieve(tmp_path, capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError("an unwritable --out reached the sieve")

    monkeypatch.setattr(cli, "build_table", no_sieve)
    monkeypatch.setattr(ensemble, "build_table", no_sieve)
    plain_file = tmp_path / "plain"
    plain_file.write_text("")
    for argv in (["build", "--alpha", "-2.5", "--target-nodes", "5000"],
                 ["sweep", "--alphas", "0,-2.5", "--snapshots", "500,2000",
                  "--realizations", "4"],
                 ["figure", "6"], ["figure", "10"]):
        for out in (plain_file / "x", plain_file, plain_file / "x" / "y"):
            assert main([*argv, "--out", str(out)]) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(out) in err
    assert plain_file.read_text() == "" and list(tmp_path.iterdir()) == [plain_file]


def test_cli_empty_lists_and_low_snapshots_exit_2(tmp_path, capsys):
    """An empty --alphas or --snapshots is an error, not the preset's list,
    and every snapshot and cap is checked as build checks its own."""
    cap = ["--max-even-cap", "20000"]
    for argv, message in (
            (["figure", "6", "--alphas", ",", "--max-even", "200"],
             "alphas must be nonempty"),
            (["figure", "10", "--alphas", ",", "--snapshots", "50", *cap],
             "alphas must be nonempty"),
            (["figure", "10", "--snapshots", ",", *cap],
             "snapshot_nodes must be nonempty, strictly increasing"),
            (["sweep", "--alphas", "0", "--snapshots", "0,50", *cap],
             "target_nodes must be >= 2, got 0"),
            (["sweep", "--alphas", "0", "--snapshots", "1", *cap],
             "target_nodes must be >= 2, got 1"),
            (["sweep", "--alphas", "0", "--snapshots", "50", "--max-even-cap", "1001"],
             "max_even_cap must be even and >= 8, got 1001"),
            (["sweep", "--alphas", "0,1e308", "--snapshots", "50", *cap],
             ALPHA_ERROR),
            (["figure", "6", "--alphas=-1e308", "--max-even", "200"],
             ALPHA_ERROR)):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cli_runtime_error_exit_3(tmp_path, capsys):
    rc = main(["build", "--alpha", "0", "--target-nodes", "99999",
               "--max-even-cap", "1000", "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "exhausted at 1000 " in err  # the cap is the last even consumed


def _worker_dies(*args):
    os._exit(1)


def _task_raises(*args):
    raise RuntimeError("injected fault")


@pytest.mark.parametrize("fault, message", [
    ("_worker_dies", "BrokenProcessPool("),
    ("_task_raises", "RuntimeError('injected fault')"),
])
def test_cli_failed_pool_exits_3_with_one_line(tmp_path, fault, message):
    """A pool worker that dies, or a metrics task that raises, ends a pooled
    sweep with exit 3 and one error line. The fault is a module-level
    function, so that it pickles, and the run has a timeout."""
    code = textwrap.dedent(f"""\
        import sys
        import test_figures_cli
        from goldbachnet import cli, ensemble
        ensemble._measure = test_figures_cli.{fault}
        sys.exit(cli.main(["sweep", "--alphas", "0", "--snapshots", "50",
                           "--realizations", "2", "--max-even-cap", "20000",
                           "--workers", "2", "--out", sys.argv[1]]))
    """)
    paths = [Path(cli.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: worker pool failed: {message}"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_cli_nan_alpha_exit_2(tmp_path):
    for argv in (["build", "--alpha", "nan", "--max-even", "100"],
                 ["sweep", "--alphas", "0,nan", "--snapshots", "50",
                  "--max-even-cap", "20000"],
                 ["figure", "6", "--alphas", "nan", "--max-even", "100"]):
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 2, argv


def test_cli_workers_below_one_exit_2(tmp_path, capsys):
    sweep = ["sweep", "--alphas", "0", "--snapshots", "50"]
    cap = ["--max-even-cap", "20000"]  # figure 6 does not read it
    for argv in ([*sweep, "--workers", "0", *cap], [*sweep, "--workers", "-3", *cap],
                 ["figure", "10", "--snapshots", "50", "--workers", "0", *cap],
                 ["figure", "6", "--max-even", "100", "--workers", "0"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert "error: workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_cli_seed_outside_uint64_exit_2(tmp_path, capsys, seed):
    for argv, name in ((["figure", "6"], "master_seed"),
                       (["sweep", "--alphas", "0", "--snapshots", "50"], "master_seed"),
                       (["build", "--alpha", "0", "--max-even", "100"], "seed")):
        out = tmp_path / argv[0]
        assert main(argv + [f"--seed={seed}", "--out", str(out)]) == 2, argv
        assert f"error: {name} must fit in 64 unsigned bits" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
        sample_gnm(10, 5, int(seed))


def test_cli_figure_flag_the_preset_does_not_read_exit_2(tmp_path, capsys):
    for argv, flag in ((["figure", "1", "--max-even", "5000"], "max_even"),
                       (["figure", "6", "--snapshots", "100"], "snapshots"),
                       (["figure", "6", "--clustering", "paper"], "clustering"),
                       (["figure", "6", "--max-even-cap", "10"], "max_even_cap")):
        out = tmp_path / argv[1]
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert f"error: figure {argv[1]} does not read {flag}" in capsys.readouterr().err
        assert not out.exists()


def test_cli_figure6_pooled_csv_byte_identical(tmp_path):
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["figure", "6", "--alphas", "inf,0.5,-2", "--max-even", "3000",
                     "--realizations", "3", "--seed", "5", "--workers", workers,
                     "--out", str(out)]) == 0
        texts.append((out / "fig6" / "N_vs_M.csv").read_bytes())
    assert texts[0] == texts[1]


def test_cli_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--alphas", "0,1", "--snapshots", "40,60",
               "--realizations", "2", "--seed", "3", "--format", "csv",
               "--max-even-cap", "20000", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["realizations"] == 2
    assert len(doc["cells"]) == 4
    header, rows = _read_csv(out / "cells.csv")
    assert header == ["alpha", "snapshot", "side", "field", "mean", "std",
                      "count"]
    assert all(len(row) == len(header) for row in rows)


def test_sweep_json_keys_are_the_spec_fields_and_the_run_record(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--alphas", "0", "--snapshots", "40", "--realizations", "1",
                 "--max-even-cap", "20000", "--out", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    spec_fields = [f.name for f in dataclasses.fields(SweepSpec)]
    assert sorted(doc) == sorted(spec_fields + ["seed_rule", "warnings", "cells"])


def test_cli_sweep_rerun_byte_identical(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["sweep", "--alphas", "0,-1.8", "--snapshots", "50",
                   "--realizations", "2", "--seed", "3",
                   "--max-even-cap", "20000", "--out", str(out)])
        assert rc == 0
        texts.append((out / "sweep.json").read_text())
    assert texts[0] == texts[1]


def test_cli_figure_csv_round_trip(tmp_path):
    out = tmp_path / "fig"
    rc = main(["figure", "10", "--alphas", "-1,1", "--snapshots", "50",
               "--realizations", "2", "--seed", "5",
               "--max-even-cap", "20000", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "fig10" / "r_vs_alpha.csv")
    assert header == ["alpha", "r_mean", "r_std"]
    assert all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row[1:]:
            if cell:
                float(cell)  # plain decimal notation, repr round-trip


def test_cli_negative_alpha_forms(tmp_path):
    out = tmp_path / "n"
    rc = main(["build", "--alpha", "-2.5", "--max-even", "100",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    rc = main(["build", "--alpha=-2.5", "--max-even", "100",
               "--seed", "2", "--out", str(tmp_path / "m")])
    assert rc == 0
    a = (out / "edges" / "graph.txt").read_text()
    b = (tmp_path / "m" / "edges" / "graph.txt").read_text()
    assert a == b


MANIFEST_CONFIGS = [
    (["build", "--alpha", "1.5", "--target-nodes", "150", "--seed", "42"],
     {"alpha": "1.5", "clustering": "standard", "max_even": None,
      "max_even_cap": 1_000_000, "seed": 42, "target_nodes": 150}),
    (["build", "--alpha=-inf", "--max-even", "600", "--seed", "7",
      "--clustering", "paper"],
     {"alpha": "-inf", "clustering": "paper", "max_even": 600,
      "max_even_cap": 1_000_000, "seed": 7, "target_nodes": None}),
    (["sweep", "--alphas", "0,-1.8", "--snapshots", "60,90", "--realizations", "3",
      "--seed", "42", "--max-even-cap", "20000", "--format", "csv", "--workers", "2"],
     {"alphas": ["0.0", "-1.8"], "clustering": "standard", "format": "csv",
      "max_even_cap": 20000, "realizations": 3, "seed": 42, "snapshots": [60, 90]}),
    (["figure", "10", "--alphas", "-1,1", "--snapshots", "50", "--realizations", "2",
      "--seed", "5", "--max-even-cap", "20000", "--clustering", "paper",
      "--workers", "2"],
     {"alphas": ["-1.0", "1.0"], "clustering": "paper", "figure": 10,
      "max_even": None, "max_even_cap": 20000, "realizations": 2, "seed": 5,
      "snapshots": [50]}),
    (["figure", "6"],
     {"alphas": None, "clustering": "standard", "figure": 6, "max_even": None,
      "max_even_cap": 1_000_000, "realizations": None, "seed": 1,
      "snapshots": None}),
]


@pytest.mark.parametrize("argv, config", MANIFEST_CONFIGS,
                         ids=["build-target", "build-max-even", "sweep-csv",
                              "figure-overrides", "figure-defaults"])
def test_cli_manifest_config(tmp_path, argv, config):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {**config, "out": str(out)}
