"""The A/B runner's statistics, seeds and base export (no benchmark runs;
CI runs ``benchmarks/ab.py --smoke`` end to end)."""

import ab

LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}


def test_clear_speedup_is_a_gain():
    base = [10.0, 10.4, 9.8, 10.1, 10.3, 9.9, 10.2, 10.0, 10.5, 9.7]
    head = [b - 1.5 for b in base]
    row = ab.summarise(LATENCY, base, head)
    assert row["wins"] == 10 and row["verdict"] == "gain"
    assert row["change"] > 0.1
    # read as throughput, the same numbers are a 15% loss: inside the
    # 25% bound, so not "worse"
    assert ab.summarise(THROUGHPUT, base, head)["verdict"] == "same"


def test_ten_pairs_needed():
    base = [10.0, 10.4, 9.8, 10.1, 10.3, 9.9, 10.2, 10.0, 10.5]
    row = ab.summarise(LATENCY, base, [b - 1.5 for b in base])
    assert row["wins"] == 9 and row["verdict"] == "same"


def test_nine_of_ten_wins_needed():
    base = [10.0] * 10
    head = [8.0] * 8 + [10.5, 10.5]
    assert ab.summarise(LATENCY, base, head)["verdict"] == "same"


def test_median_delta_must_exceed_base_iqr():
    base = [9.0, 11.0] * 5  # IQR 2, inside the 25% bound
    head = [b - 1.0 for b in base]
    row = ab.summarise(LATENCY, base, head)
    assert row["wins"] == 10 and row["verdict"] == "same"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [8.0, 12.0] * 5  # IQR 4: 40% of the median, bound 25%
    row = ab.summarise(LATENCY, base, [b - 1.0 for b in base])
    assert row["wins"] == 10 and row["verdict"] == "unresolved"
    # a wide head side is unresolved too
    assert ab.summarise(LATENCY, [10.0] * 4,
                        [8.0, 12.0] * 2)["verdict"] == "unresolved"
    # unless every head run beats every base run
    assert ab.summarise(LATENCY, base, [5.0, 6.0] * 5)["verdict"] == "gain"
    assert ab.summarise(LATENCY, base[:4], [5.0, 6.0] * 2)["verdict"] == "same"
    # a median beyond the bound is worse, however wide the spread
    assert ab.summarise(LATENCY, base[:4], [14.0, 18.0] * 2)["verdict"] == "worse"


def test_regression_beyond_bound_is_worse():
    base = [10.0] * 4
    assert ab.summarise(LATENCY, base, [13.0] * 4)["verdict"] == "worse"
    assert ab.summarise(LATENCY, base, [12.0] * 4)["verdict"] == "same"
    assert ab.summarise(THROUGHPUT, base, [7.0] * 4)["verdict"] == "worse"


def test_pair_seeds_repeat_from_the_root_seed():
    seeds = ab.pair_seeds(123, 10)
    assert seeds == ab.pair_seeds(123, 10)
    assert len(set(seeds)) == 10 and seeds != ab.pair_seeds(124, 10)


def test_failed_share():
    runs = [{"attempted": 10, "failed": 1}, {"attempted": 30, "failed": 0}]
    assert ab.failed_share(runs) == 1 / 40
    assert ab.failed_share([]) == 0.0


def test_export_revision_holds_the_benchmark(tmp_path):
    tree = ab.export_revision("HEAD", tmp_path)
    assert (tree / "perfbench" / "run.py").is_file()
    assert (tree / "src" / "repro" / "__init__.py").is_file()


def test_host_factor_runs_the_reference_kernel_out_of_process():
    factor = ab.host_factor()
    assert 0.01 < factor < 100.0


def test_host_spread():
    spread = ab.host_spread([1.0, 0.9, 1.1, 1.0, 1.2])
    assert spread["median"] == 1.0
    assert abs(spread["iqr_rel"] - 0.1) < 1e-12
    assert (spread["min"], spread["max"]) == (0.9, 1.2)


#: perfbench stdout, abridged: an in-process workload and service-mixed.
INPROC_STDOUT = """\
platform: {"nproc": 2}
host speed: wide reference kernel median 4.731 ms, factors 0.602-0.711; \
unscaled latency p50 84.812 ms
latency_p50_ms                        59.9824 ms
{"correct": true, "attempted": 96, "failed": 0, "metrics": {}}
"""
SERVICE_STDOUT = """\
platform: {"nproc": 2}
unscaled: hit p50 1.284 ms, closed loop 281.0 requests/s; open loop 120/s; \
generator late p99 0.41 ms
{"correct": true, "attempted": 50, "failed": 0, "metrics": {}}
"""


def test_unscaled_p50_is_read_from_perfbench_stdout():
    assert ab.unscaled_p50(INPROC_STDOUT) == 84.812
    assert ab.unscaled_p50(SERVICE_STDOUT) == 1.284
    assert ab.unscaled_p50('{"metrics": {}}') is None


def test_unscaled_p50_pairs_get_a_verdict():
    """Only the pairs where both sides printed an unscaled p50 are
    summarised, lower is better, under the latency bound."""
    manifest = {"end_to_end": [THROUGHPUT, LATENCY]}
    metric = ab.unscaled_metric(manifest)
    assert metric == {"name": "unscaled_p50_ms", "better": "lower",
                      "bound": 0.25}
    base = [84.6, 84.8, 85.0, 84.9]
    head = [80.0, None, 82.0, 81.0]
    runs = {
        "base": [{"unscaled_p50_ms": v} for v in base] + [{}],
        "head": [{"unscaled_p50_ms": v} for v in head] + [
            {"unscaled_p50_ms": 70.0}],
    }
    pairs = ab.unscaled_pairs(runs)
    assert pairs == ([84.6, 85.0, 84.9], [80.0, 82.0, 81.0])
    row = ab.summarise(metric, *pairs)
    assert row["pairs"] == 3 and row["wins"] == 3
    assert row["base_median"] == 84.9 and row["head_median"] == 81.0
    assert row["verdict"] == "same"  # a gain needs ten pairs
    assert ab.unscaled_pairs({"base": [{}], "head": [{}]}) == ([], [])


def test_export_worktree_copies_the_tree_as_it_stands(tmp_path):
    """Uncommitted edits and untracked files ride along; ignored files,
    deleted files, ``.git`` and ``.perfbench`` do not."""
    import subprocess

    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
             *args], cwd=root, check=True, capture_output=True,
        )

    (root / ".gitignore").write_text("*.log\n.perfbench/\n")
    (root / "src" / "kept.py").write_text("committed\n")
    (root / "src" / "gone.py").write_text("committed\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (root / "src" / "kept.py").write_text("edited\n")
    (root / "src" / "gone.py").unlink()
    (root / "src" / "new.py").write_text("untracked\n")
    (root / "run.log").write_text("ignored\n")
    (root / ".perfbench").mkdir()
    (root / ".perfbench" / "store").write_text("scratch\n")

    tree = ab.export_worktree(tmp_path / "out", root=root)
    assert tree == tmp_path / "out" / "head"
    files = sorted(
        p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()
    )
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (tree / "src" / "kept.py").read_text() == "edited\n"
