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
