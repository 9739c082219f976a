"""Self-tests of the benchmark harness: output check, span arithmetic,
seed plumbing and the wrapping of goldbachnet entry points."""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, cli_argv  # noqa: E402

SMALL_BUILD = ("build", "--alpha", "-2.5", "--target-nodes", "200")


def _small_build(out_dir, seed=1):
    argv = cli_argv(SMALL_BUILD, seed, out_dir)
    assert runner.invoke(argv)["rc"] == 0
    return argv


def _problems(out_dir, argv, reference):
    return checks.check_invocation("build_one", out_dir, argv, 1, reference,
                                   target_nodes=200)


def _rewrite_manifest_digest(out_dir, rel):
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["artifacts"]:
        if entry["path"] == rel:
            entry["sha256"] = checks._sha256(out_dir / rel)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("rel", checks.ARTIFACTS["build_one"])
def test_one_byte_change_fails_output_check(tmp_path, rel):
    pristine = tmp_path / "pristine"
    argv = _small_build(pristine)
    manifest = json.loads((pristine / "manifest.json").read_text())
    reference = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    assert _problems(pristine, argv, reference) == []

    changed = tmp_path / "changed"
    shutil.copytree(pristine, changed)
    data = bytearray((changed / rel).read_bytes())
    data[len(data) // 2] ^= 0x01
    (changed / rel).write_bytes(bytes(data))
    assert _problems(changed, argv, reference)
    # a manifest that vouches for the change is still caught by the pinned digest
    _rewrite_manifest_digest(changed, rel)
    assert _problems(changed, argv, reference)


def test_self_times_on_synthetic_tree():
    tree = [
        # id, parent, name, start, end, count
        (0, spans.ROOT_PARENT, "cli.main", 0.0, 10.0, 0),
        (1, 0, "a", 1.0, 4.0, 0),
        (2, 0, "b", 3.0, 6.0, 0),   # overlaps a: the union [1, 6] is covered once
        (3, 1, "c", 1.5, 2.5, 0),
        (4, 0, "d", 8.0, 9.0, 0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})


def test_self_times_add_up_to_wall():
    tree = [
        (0, spans.ROOT_PARENT, "cli.main", 0.0, 10.0, 0),
        (1, 0, "ensemble.run_sweep", 0.5, 9.5, 0),
        (2, 1, "netbuild.build_many", 1.0, 2.0, 40),
        (3, 2, "goldbach.decompose", 1.2, 1.4, 7),
        (4, 1, "netbuild.build_many", 4.0, 5.0, 60),
        (5, 1, "metrics.clustering", 6.0, 7.0, 0),
    ]
    assert sum(spans.self_times(tree).values()) == pytest.approx(10.0)
    assert spans.self_sum_problem(tree, 10.0) is None
    assert spans.self_sum_problem(tree, 11.0) is not None

    m = spans.layer_metrics(tree, untraced_wall_s=9.0, untraced_parallel_wall_s=2.5,
                            workers=2, traced_wall_s=10.0, artifact_bytes=5)
    assert m["netbuild.build_many_self_s"][0] == pytest.approx(1.8)
    assert m["netbuild.edges"][0] == 100
    assert m["netbuild.edges_per_decompose"][0] == pytest.approx(100.0)
    assert m["goldbach.pairs"][0] == 7
    # cells [1, 4] and [4, 9.5], minus the traced-only clustering part
    assert m["ensemble.cell_max_s"][0] == pytest.approx(4.5)
    assert m["ensemble.cell_mean_s"][0] == pytest.approx(3.75)
    assert m["ensemble.parallel_eff"][0] == pytest.approx(7.5 / 5.0)
    assert m["ensemble.self_s"][0] == pytest.approx(9.0 - 3.0)
    assert m["trace.overhead_s"][0] == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_cli(name, tmp_path):
    from goldbachnet.cli import make_parser

    args = run.parse_args(["--workload", name, "--seed", "12345"])
    argv = cli_argv(WORKLOADS[args.workload].argv, args.seed, tmp_path)
    assert make_parser().parse_args(argv).seed == 12345
    _small_build(tmp_path, seed=args.seed)
    assert json.loads((tmp_path / "manifest.json").read_text())["master_seed"] == 12345


def _module_attributes():
    return {(name, key): id(value)
            for name, mod in sys.modules.items()
            if name == "goldbachnet" or name.startswith("goldbachnet.")
            for key, value in vars(mod).items()}


def test_wrap_unwrap_restores_module_attributes(tmp_path):
    import goldbachnet.cli
    import goldbachnet.ensemble
    import goldbachnet.metrics

    before = _module_attributes()
    original = goldbachnet.metrics.compute_report
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        assert goldbachnet.metrics.compute_report is not original
        assert goldbachnet.ensemble.compute_report is goldbachnet.metrics.compute_report
        assert goldbachnet.cli.main(cli_argv(SMALL_BUILD, 1, tmp_path)) == 0
    finally:
        spans.uninstall(patches)
    assert _module_attributes() == before
    names = {s[2] for s in recorder.spans}
    assert {"cli.main", "netbuild.build_many", "goldbach.decompose",
            "metrics.compute_report", "metrics.clustering"} <= names
    root = [s for s in recorder.spans if s[1] == spans.ROOT_PARENT]
    assert [s[2] for s in root] == ["cli.main"]
    assert spans.self_sum_problem(recorder.spans, root[0][4] - root[0][3]) is None
