"""Tests for the gpu-aco CLI and the experiments __main__."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core import ACOParams
from repro.experiments.__main__ import main as exp_main


class TestDevicesCommand:
    def test_devices_lists_both(self, capsys):
        assert cli_main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Tesla C1060" in out
        assert "Tesla M2050" in out
        assert "no (emulated)" in out


class TestSolveCommand:
    def test_solve_paper_instance(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--construction", "8",
             "--pheromone", "1", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best tour length" in out
        assert "Tesla M2050" in out

    def test_solve_device_selection(self, capsys):
        rc = cli_main(["solve", "att48", "--iterations", "1", "--device", "c1060"])
        assert rc == 0
        assert "Tesla C1060" in capsys.readouterr().out

    def test_solve_tsplib_file(self, tmp_path, capsys):
        from repro.tsp import uniform_instance, write_tsplib

        path = tmp_path / "demo.tsp"
        write_tsplib(uniform_instance(20, seed=1, name="demo"), path)
        rc = cli_main(["solve", str(path), "--iterations", "1", "--ants", "10"])
        assert rc == 0
        assert "demo" in capsys.readouterr().out

    def test_invalid_construction_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["solve", "att48", "--construction", "9"])

    def test_solve_replicas_batched(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--replicas", "3", "--seed", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 batched replicas" in out
        assert "best overall" in out
        # per-replica rows with consecutive seeds
        assert " 5 " in out and " 6 " in out and " 7 " in out


class TestBackendsCommand:
    def test_backends_lists_registry(self, capsys):
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "cupy" in out
        assert "registered array backends" in out

    def test_backends_reports_unavailability_reason(self, capsys):
        from repro.backend import CupyBackend

        available, reason = CupyBackend.probe()
        if available:
            pytest.skip("cupy importable here")
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        # The cupy row must carry the probe failure, not a bare "no".
        assert reason.split(":")[0] in out

    def test_solve_with_backend_flag(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "1", "--backend", "numpy"]
        )
        assert rc == 0
        assert "[backend numpy]" in capsys.readouterr().out

    def test_solve_replicas_with_backend_flag(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "1", "--replicas", "2",
             "--backend", "numpy"]
        )
        assert rc == 0
        assert "[backend numpy]" in capsys.readouterr().out

    def test_solve_unavailable_backend_exits_cleanly(self, capsys):
        from repro.backend import CupyBackend

        if CupyBackend.probe()[0]:
            pytest.skip("cupy importable here")
        with pytest.raises(SystemExit, match="unavailable"):
            cli_main(["solve", "att48", "--iterations", "1", "--backend", "cupy"])

    def test_solve_unknown_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli_main(["solve", "att48", "--backend", "tpu"])

    def test_sweep_with_backend_flag(self, capsys):
        rc = cli_main(
            ["sweep", "att48", "--iterations", "1", "--param", "rho=0.3",
             "--backend", "numpy"]
        )
        assert rc == 0
        assert "1 grid points" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_grid(self, capsys):
        rc = cli_main(
            ["sweep", "att48", "--iterations", "2", "--param", "rho=0.3,0.7",
             "--replicas", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 grid points x 2 replicas = 4 batched colonies" in out
        assert "parameter sweep" in out

    def test_sweep_bad_param_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "att48", "--param", "rho"])

    def test_sweep_repeated_axis_extends(self, capsys):
        rc = cli_main(
            ["sweep", "att48", "--iterations", "1", "--param", "rho=0.2",
             "--param", "rho=0.8"]
        )
        assert rc == 0
        assert "2 grid points" in capsys.readouterr().out

    def test_sweep_unsweepable_field(self, capsys):
        rc = cli_main(["sweep", "att48", "--iterations", "1", "--param", "nn=5,10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot sweep" in err and "nn" in err


class TestReportEvery:
    def test_solve_report_every(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "4", "--report-every", "3"]
        )
        assert rc == 0
        assert "best tour length" in capsys.readouterr().out

    def test_solve_report_every_matches_default(self, capsys):
        cli_main(["solve", "att48", "--iterations", "3", "--seed", "9"])
        base = capsys.readouterr().out
        cli_main(
            ["solve", "att48", "--iterations", "3", "--seed", "9",
             "--report-every", "3"]
        )
        amortized = capsys.readouterr().out
        line = next(
            ln for ln in base.splitlines() if ln.startswith("best tour length")
        )
        assert line in amortized

    def test_replicas_report_every(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "4", "--replicas", "2",
             "--report-every", "2"]
        )
        assert rc == 0
        assert "best overall" in capsys.readouterr().out

    def test_sweep_report_every(self, capsys):
        rc = cli_main(
            ["sweep", "att48", "--iterations", "3", "--param", "rho=0.3,0.7",
             "--report-every", "3"]
        )
        assert rc == 0
        assert "2 grid points" in capsys.readouterr().out

    def test_invalid_report_every_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["solve", "att48", "--report-every", "0"])
        with pytest.raises(SystemExit):
            cli_main(
                ["sweep", "att48", "--param", "rho=0.5", "--report-every", "-2"]
            )


class TestNoBenchCommand:
    def test_bench_subcommand_is_gone(self, capsys):
        # Throughput is measured by perfbench/run.py; the CLI has no wrapper.
        with pytest.raises(SystemExit) as err:
            cli_main(["bench", "--list"])
        assert err.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestNoMaxWaitFlag:
    @pytest.mark.parametrize("shards", ["0", "2"])
    def test_max_wait_ms_is_rejected(self, capsys, shards):
        # Launch is work-conserving; there is no batching timer to set.
        with pytest.raises(SystemExit) as err:
            cli_main(["serve", "--shards", shards, "--max-wait-ms", "20"])
        assert err.value.code == 2
        assert "unrecognized arguments: --max-wait-ms" in capsys.readouterr().err


class TestSolveVariants:
    def test_solve_acs(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--variant", "acs"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "variant acs" in out
        assert "best tour length" in out

    def test_solve_mmas(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--variant", "mmas"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "variant mmas" in out
        assert "trail reinitialisations" in out

    def test_mmas_accepts_construction_choice(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "1", "--variant", "mmas",
             "--construction", "4"]
        )
        assert rc == 0

    def test_acs_rejects_construction(self):
        with pytest.raises(SystemExit, match="construction"):
            cli_main(
                ["solve", "att48", "--variant", "acs", "--construction", "5"]
            )

    def test_variants_reject_pheromone(self):
        for variant in ("acs", "mmas"):
            with pytest.raises(SystemExit, match="pheromone"):
                cli_main(
                    ["solve", "att48", "--variant", variant, "--pheromone", "2"]
                )

    def test_variants_compose_with_replicas(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--variant", "acs",
             "--replicas", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 batched replicas" in out and "variant acs" in out

    def test_variants_compose_with_report_every(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "4", "--variant", "mmas",
             "--report-every", "2"]
        )
        assert rc == 0
        assert "best tour length" in capsys.readouterr().out

    def test_variants_compose_with_replicas_and_report_every(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "4", "--variant", "mmas",
             "--replicas", "4", "--report-every", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 batched replicas" in out and "variant mmas" in out

    def test_variants_compose_with_backend(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--variant", "acs",
             "--backend", "numpy"]
        )
        assert rc == 0
        assert "backend numpy" in capsys.readouterr().out

    def test_variant_unavailable_backend_fails_loudly(self):
        # An explicitly requested unavailable backend is still a clean
        # usage error (strict resolution), not a silent fallback.
        import importlib.util

        if importlib.util.find_spec("cupy") is not None:
            pytest.skip("cupy installed; unavailable-backend path untestable")
        with pytest.raises(SystemExit, match="cupy"):
            cli_main(
                ["solve", "att48", "--variant", "acs", "--backend", "cupy"]
            )

    def test_sweep_variant_flag(self, capsys):
        rc = cli_main(
            ["sweep", "att48", "--iterations", "2", "--variant", "mmas",
             "--param", "rho=0.3,0.7", "--replicas", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "variant mmas" in out
        assert "4 batched colonies" in out

    def test_sweep_variant_rejects_owned_kernels(self):
        with pytest.raises(SystemExit, match="pheromone"):
            cli_main(
                ["sweep", "att48", "--variant", "acs", "--param", "rho=0.3",
                 "--pheromone", "2"]
            )
        with pytest.raises(SystemExit, match="construction"):
            cli_main(
                ["sweep", "att48", "--variant", "acs", "--param", "rho=0.3",
                 "--construction", "4"]
            )

    def test_serve_config_errors_exit_cleanly(self):
        # Service config errors must be usage messages, not tracebacks
        # out of asyncio.run.
        with pytest.raises(SystemExit, match="workers"):
            cli_main(["serve", "--workers", "0"])
        with pytest.raises(SystemExit, match="max_pending"):
            cli_main(["serve", "--max-pending", "2", "--max-batch", "8"])
        with pytest.raises(SystemExit, match="max_batch"):
            cli_main(["serve", "--max-batch", "0"])

    def test_variant_as_unchanged_defaults(self, capsys):
        # --variant as with no kernel flags keeps the paper defaults.
        rc = cli_main(["solve", "att48", "--iterations", "1", "--variant", "as"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "construction v8" in out and "pheromone v1" in out


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "att48", "--iterations", "0"], "iterations must be >= 1"),
            (["solve", "att48", "--ants", "0"], "n_ants must be >= 1"),
            (["solve", "att48", "--nn", "0"], "nn must be >= 1"),
            (["sweep", "att48", "--param", "rho=0.5", "--iterations", "0"],
             "iterations must be >= 1"),
            (["sweep", "att48", "--param", "rho=0.5", "--ants", "0"],
             "n_ants must be >= 1"),
        ],
    )
    def test_bad_flag_value_is_an_error_line(self, argv, message):
        # A bad value is a one-line usage error, not an ACOConfigError
        # traceback.
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert str(err.value.code).startswith("error: ")
        assert message in str(err.value.code)


class TestOneSolvePath:
    @pytest.mark.parametrize("variant", ["as", "acs", "mmas"])
    def test_replicas_1_reproduces_library_view(self, variant, capsys):
        from repro.core import AntColonySystem, AntSystem, MaxMinAntSystem
        from repro.tsp import load_instance

        view_cls = {
            "as": AntSystem, "acs": AntColonySystem, "mmas": MaxMinAntSystem
        }[variant]
        view = view_cls(load_instance("att48"), ACOParams(seed=4)).run(3)
        rc = cli_main(
            ["solve", "att48", "--iterations", "3", "--seed", "4",
             "--variant", variant]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"best tour length: {view.best_length}" in lines
        assert "modeled kernel times" in lines
        if variant == "mmas":
            assert (
                f"trail reinitialisations: {view.trail_reinitialisations}"
                in lines
            )


class TestObservabilityFlags:
    def test_solve_profile_prints_phase_table(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--seed", "3", "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase wall-clock (profile)" in out
        assert "construct" in out and "host-sync" in out
        assert "total (phases)" in out

    def test_solve_profile_matches_unprofiled_result(self, capsys):
        # --profile routes through the engine at B=1; the result must not move.
        assert cli_main(["solve", "att48", "--iterations", "2", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        assert cli_main(
            ["solve", "att48", "--iterations", "2", "--seed", "3", "--profile"]
        ) == 0
        profiled = capsys.readouterr().out
        import re

        def get_best(out):
            return re.search(r"best (?:tour length|overall): (\d+)", out).group(1)

        assert get_best(plain) == get_best(profiled)

    def test_solve_trace_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = cli_main(
            ["solve", "att48", "--iterations", "2", "--replicas", "2",
             "--report-every", "2", "--trace", str(trace)]
        )
        assert rc == 0
        assert f"chrome trace written to {trace}" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert any(e["cat"] == "construct" for e in events)

    def test_profile_phase_sum_close_to_wall(self, capsys):
        rc = cli_main(
            ["solve", "att48", "--iterations", "4", "--replicas", "2",
             "--report-every", "2", "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        total_row = next(
            line for line in out.splitlines() if "total (phases)" in line
        )
        # Last column is the phases' share of the (unrounded) wall-clock.
        wall_pct = float(total_row.split()[-1].rstrip("%"))
        # The acceptance bound: phases within 10% of the measured wall.
        assert 90.0 <= wall_pct <= 100.5

    def test_stats_unreachable_server_fails_cleanly(self, capsys):
        rc = cli_main(["stats", "--port", "1"])  # nothing listens there
        assert rc == 1
        assert "cannot scrape stats" in capsys.readouterr().err


class TestCheckpointCLI:
    def _best(self, out: str) -> int:
        for line in out.splitlines():
            if line.startswith("best overall:"):
                return int(line.split()[2])
        raise AssertionError(f"no 'best overall' line in:\n{out}")

    def test_checkpoint_then_resume_matches_clean_run(self, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        base = ["solve", "att48", "--report-every", "3", "--seed", "5"]
        assert cli_main(base + ["--iterations", "6", "--checkpoint", str(ck)]) == 0
        assert ck.exists()
        capsys.readouterr()
        assert cli_main(
            base + ["--iterations", "12", "--resume", str(ck)]
        ) == 0
        resumed_out = capsys.readouterr().out
        assert "resumed from" in resumed_out
        assert cli_main(base + ["--iterations", "12", "--profile"]) == 0
        clean_out = capsys.readouterr().out
        assert self._best(resumed_out) == self._best(clean_out)

    def test_resume_at_or_past_target_is_a_noop(self, tmp_path, capsys):
        ck = tmp_path / "done.npz"
        base = ["solve", "att48", "--report-every", "2", "--seed", "3"]
        assert cli_main(base + ["--iterations", "4", "--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        assert cli_main(base + ["--iterations", "4", "--resume", str(ck)]) == 0
        assert "nothing to run" in capsys.readouterr().out

    def test_checkpoint_every_validation(self, tmp_path):
        ck = tmp_path / "ck.npz"
        with pytest.raises(SystemExit):
            cli_main(["solve", "att48", "--checkpoint-every", "3"])
        with pytest.raises(SystemExit):
            cli_main(
                ["solve", "att48", "--report-every", "2", "--checkpoint",
                 str(ck), "--checkpoint-every", "3"]
            )

    def test_resume_from_garbage_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(SystemExit) as err:
            cli_main(["solve", "att48", "--iterations", "4", "--resume", str(bad)])
        assert "cannot resume" in str(err.value)

    def test_resume_config_mismatch_fails_cleanly(self, tmp_path):
        ck = tmp_path / "ck.npz"
        assert cli_main(
            ["solve", "att48", "--iterations", "4", "--report-every", "2",
             "--seed", "5", "--checkpoint", str(ck)]
        ) == 0
        with pytest.raises(SystemExit) as err:
            cli_main(
                ["solve", "att48", "--iterations", "8", "--seed", "6",
                 "--resume", str(ck)]
            )
        assert "cannot resume" in str(err.value)

    def test_health_unreachable_server_fails_cleanly(self, capsys):
        rc = cli_main(["stats", "--port", "1", "--health"])
        assert rc == 1
        assert "cannot scrape health" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_single_artefact(self, capsys):
        assert exp_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Scatter to Gather" in out
        assert "model" in out and "paper" in out

    def test_report_writes_file(self, tmp_path, capsys):
        path = tmp_path / "EXP.md"
        assert exp_main(["report", str(path)]) == 0
        content = path.read_text()
        assert "## table2" in content
        assert "## fig5" in content
        assert "Known gaps" in content

    def test_unknown_command(self, capsys):
        assert exp_main(["frobnicate"]) == 2

    def test_no_args_prints_usage(self, capsys):
        assert exp_main([]) == 2

    def test_cli_forwards_experiments(self, capsys):
        assert cli_main(["experiments", "fig5"]) == 0
        assert "pheromone update speed-up" in capsys.readouterr().out
