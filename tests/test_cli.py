"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.network import build_mlp, save_network


@pytest.fixture
def saved_net(tmp_path):
    net = build_mlp(
        2, [8, 6], activation={"name": "sigmoid", "k": 0.5},
        init={"name": "uniform", "scale": 0.1}, output_scale=0.05, seed=40,
    )
    return str(save_network(net, tmp_path / "net.npz"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.command == "experiments" and args.names == []

    def test_certify_requires_epsilons(self, saved_net):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["certify", saved_net])


class TestCommands:
    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "theorem2" in out

    def test_experiments_unknown_name(self, capsys):
        assert main(["experiments", "nope"]) == 2

    def test_experiments_single(self, capsys):
        assert main(["experiments", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out and "PASS" in out

    def test_report_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        md = tmp_path / "EXPERIMENTS.md"
        code = main(
            ["report", "--results-dir", str(missing), "--output", str(md)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err
        assert not md.exists() and not missing.exists()

    def test_certify(self, saved_net, capsys):
        code = main(
            ["certify", saved_net, "--epsilon", "0.5", "--epsilon-prime", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RobustnessCertificate" in out

    def test_certify_byzantine(self, saved_net, capsys):
        code = main(
            [
                "certify", saved_net, "--epsilon", "0.5",
                "--epsilon-prime", "0.1", "--mode", "byzantine",
                "--capacity", "1.0",
            ]
        )
        assert code == 0

    def test_inspect(self, saved_net, capsys):
        assert main(["inspect", saved_net]) == 0
        out = capsys.readouterr().out
        assert "FeedForwardNetwork" in out and "DAG: True" in out

    def test_survival(self, saved_net, capsys):
        code = main(
            [
                "survival", saved_net, "--p-fail", "0.05",
                "--epsilon", "0.5", "--epsilon-prime", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certified P" in out

    def test_campaign_monte_carlo(self, saved_net, capsys):
        code = main(
            [
                "campaign", saved_net, "--distribution", "2,1",
                "--n-scenarios", "200", "--batch", "8", "--seed", "3",
                "--threshold", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CampaignResult(n=200" in out
        assert "fraction exceeding" in out

    def test_campaign_exhaustive(self, saved_net, capsys):
        code = main(
            ["campaign", saved_net, "--exhaustive", "1", "--batch", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "14 configurations" in out and "CampaignResult(n=14" in out

    def test_campaign_float32_and_faults(self, saved_net, capsys):
        for fault in ("byzantine", "stuck"):
            code = main(
                [
                    "campaign", saved_net, "--distribution", "1,1",
                    "--n-scenarios", "50", "--batch", "4",
                    "--dtype", "float32", "--fault", fault,
                ]
            )
            assert code == 0

    def test_campaign_full_fault_taxonomy(self, saved_net, capsys):
        """Every fault model in the taxonomy runs from the CLI — the
        stochastic and synapse kinds included (synapse faults read the
        distribution as per-stage counts, length L+1)."""
        cases = (
            ("noise", "1,1"),
            ("intermittent", "1,1"),
            ("sign-flip", "1,1"),
            ("offset", "1,1"),
            ("synapse-crash", "1,1,1"),
            ("synapse-byzantine", "1,1,1"),
            ("synapse-noise", "1,1,1"),
        )
        for fault, dist in cases:
            code = main(
                [
                    "campaign", saved_net, "--distribution", dist,
                    "--n-scenarios", "30", "--batch", "4",
                    "--fault", fault, "--sigma", "0.05",
                ]
            )
            assert code == 0, fault
            assert "CampaignResult(n=30" in capsys.readouterr().out

    def test_campaign_backends(self, saved_net, capsys):
        """Every engine tier runs from the CLI."""
        line = [
            "campaign", saved_net, "--distribution", "1,1",
            "--n-scenarios", "60", "--batch", "4", "--seed", "5",
        ]
        for backend in ("numpy", "quantized-int8", "float16"):
            code = main(line + ["--backend", backend])
            assert code == 0, backend
            assert "CampaignResult(n=60" in capsys.readouterr().out
        # The quantized tiers run in-process: a fan-out is an error.
        assert main(line + ["--backend", "float16", "--workers", "2"]) == 2
        assert "runs in-process" in capsys.readouterr().err

    def test_campaign_profile_prints_phase_table(self, saved_net, capsys):
        code = main(
            [
                "campaign", saved_net, "--distribution", "1,1",
                "--n-scenarios", "40", "--batch", "4", "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("sampling", "compile", "gemm", "corrections",
                      "reduction", "total"):
            assert phase in out

    def test_campaign_dump_spec_carries_backend(self, saved_net, capsys):
        code = main(
            [
                "campaign", saved_net, "--distribution", "1,1",
                "--n-scenarios", "40", "--backend", "float16",
                "--dump-spec",
            ]
        )
        assert code == 0
        payload = __import__("json").loads(capsys.readouterr().out)
        assert payload["engine"]["backend"] == "float16"

    def test_campaign_synapse_distribution_length_checked(
        self, saved_net, capsys
    ):
        code = main(
            [
                "campaign", saved_net, "--distribution", "1,1",
                "--fault", "synapse-crash", "--n-scenarios", "5",
                "--batch", "2",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_campaign_bad_distribution(self, saved_net, capsys):
        assert main(
            ["campaign", saved_net, "--distribution", "a,b"]
        ) == 2

    def test_campaign_requires_mode(self, saved_net, capsys):
        """Without --spec, one of --distribution/--exhaustive is still
        required — the check moved from argparse into the spec builder."""
        assert main(["campaign", saved_net]) == 2
        err = capsys.readouterr().err
        assert "--distribution" in err and "--exhaustive" in err

    def test_chaos_default_run(self, saved_net, capsys):
        code = main(
            [
                "chaos", saved_net, "--epsilon", "0.5",
                "--epsilon-prime", "0.1", "--epochs", "12",
                "--replicas", "8", "--rate", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ChaosReport(replicas=8, epochs=12" in out
        assert "availability" in out and "MTBF" in out
        assert "detector threshold" in out

    def test_chaos_policies_and_processes(self, saved_net, capsys):
        cases = (
            ["--policy", "rejuvenate", "--period", "4",
             "--process", "poisson"],
            ["--policy", "repair", "--process", "bursts",
             "--detector", "cusum"],
            ["--policy", "spare", "--spares", "2", "--process", "blasts",
             "--traffic", "bursty"],
            ["--process", "weibull", "--traffic", "diurnal",
             "--detector", "certified", "--workers", "2"],
        )
        for extra in cases:
            code = main(
                [
                    "chaos", saved_net, "--epsilon", "0.5",
                    "--epsilon-prime", "0.1", "--epochs", "10",
                    "--replicas", "6", "--rate", "0.1",
                ]
                + extra
            )
            assert code == 0, extra
            assert "ChaosReport" in capsys.readouterr().out


class TestTypedErrors:
    """Malformed inputs end in a one-line ``error:`` and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--epsilon", "0.5", "--epsilon-prime", "0.1"],
        ["inspect"],
        ["campaign", "--distribution", "1,1", "--n-scenarios", "5"],
        ["survival", "--p-fail", "0.05", "--epsilon", "0.5",
         "--epsilon-prime", "0.1"],
        ["chaos", "--epsilon", "0.5", "--epsilon-prime", "0.1",
         "--epochs", "2", "--replicas", "2"],
    ], ids=lambda argv: argv[0])
    def test_missing_network_archive(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing.npz")
        assert main(argv[:1] + [missing] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.npz" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra, needle", [
        (["--process", "weibull", "--weibull-shape", "0"],
         "shape must be > 0"),
        (["--process", "bursts", "--rate", "5"], "per-epoch probability"),
        (["--process", "blasts", "--rate", "1.5"], "per-epoch probability"),
    ])
    def test_chaos_values_are_not_clamped(self, saved_net, capsys, extra,
                                          needle):
        argv = ["chaos", saved_net, "--epsilon", "0.5",
                "--epsilon-prime", "0.1", "--dump-spec"]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err

    def test_campaign_value_for_a_valueless_fault(self, saved_net, capsys):
        argv = ["campaign", saved_net, "--distribution", "1,1",
                "--fault", "noise", "--value", "2", "--dump-spec"]
        assert main(argv) == 2
        assert "value= is meaningless" in capsys.readouterr().err

    def test_exhaustive_rejects_sampled_only_flags(self, saved_net, capsys):
        argv = ["campaign", saved_net, "--exhaustive", "1", "--sigma", "0.3",
                "--dump-spec"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--sigma only applies to Monte-Carlo campaigns" in err


class TestArgumentHardening:
    """Invalid worker counts / epochs / rates die as argparse errors
    (exit code 2 with a clear message), across every command."""

    def _expect_argparse_error(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    def test_campaign_rejects_negative_workers(self, saved_net, capsys):
        self._expect_argparse_error(
            capsys,
            ["campaign", saved_net, "--distribution", "1,1",
             "--workers", "-1"],
            "worker count must be >= 0",
        )

    def test_run_all_rejects_negative_jobs(self, capsys):
        self._expect_argparse_error(
            capsys, ["run-all", "--jobs", "-3"], "worker count must be >= 0"
        )

    def test_chaos_rejects_negative_workers(self, saved_net, capsys):
        self._expect_argparse_error(
            capsys,
            ["chaos", saved_net, "--epsilon", "0.5", "--epsilon-prime",
             "0.1", "--workers", "-2"],
            "worker count must be >= 0",
        )

    def test_chaos_rejects_nonpositive_epochs(self, saved_net, capsys):
        for bad in ("-5", "0"):
            self._expect_argparse_error(
                capsys,
                ["chaos", saved_net, "--epsilon", "0.5",
                 "--epsilon-prime", "0.1", "--epochs", bad],
                "positive integer",
            )

    def test_chaos_rejects_negative_rate(self, saved_net, capsys):
        self._expect_argparse_error(
            capsys,
            ["chaos", saved_net, "--epsilon", "0.5", "--epsilon-prime",
             "0.1", "--rate", "-0.5"],
            "nonnegative",
        )

    def test_campaign_rejects_nonpositive_scenario_counts(
        self, saved_net, capsys
    ):
        self._expect_argparse_error(
            capsys,
            ["campaign", saved_net, "--distribution", "1,1",
             "--n-scenarios", "0"],
            "positive integer",
        )
        self._expect_argparse_error(
            capsys,
            ["campaign", saved_net, "--distribution", "1,1",
             "--chunk-size", "-8"],
            "positive integer",
        )

    def test_non_integer_worker_count(self, saved_net, capsys):
        self._expect_argparse_error(
            capsys,
            ["campaign", saved_net, "--distribution", "1,1",
             "--workers", "two"],
            "expected an integer",
        )
