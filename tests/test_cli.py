"""Tests for the command-line interface."""

import pytest

from repro.cli import main

PROGRAM = """
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(ann, bob).
par(bob, cal).
par(cal, dot).
"""

FACTS = """
par(dot, eve).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "anc.dl"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.dl"
    path.write_text(FACTS)
    return str(path)


class TestRunCommand:
    def test_run_prints_answer(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        output = capsys.readouterr().out
        assert "anc/2: 6 facts" in output
        assert "anc(ann, dot)" in output

    def test_run_with_extra_facts(self, program_file, facts_file, capsys):
        assert main(["run", program_file, "--facts", facts_file]) == 0
        output = capsys.readouterr().out
        assert "anc/2: 10 facts" in output

    def test_run_with_stats(self, program_file, capsys):
        assert main(["run", program_file, "--stats"]) == 0
        assert "firings: 6" in capsys.readouterr().out

    def test_run_naive_method(self, program_file, capsys):
        assert main(["run", program_file, "--method", "naive"]) == 0
        assert "anc/2: 6 facts" in capsys.readouterr().out

    def test_run_query_filter(self, program_file, capsys):
        assert main(["run", program_file, "--query", "anc"]) == 0
        assert "anc/2" in capsys.readouterr().out

    def test_limit_truncates(self, program_file, capsys):
        assert main(["run", program_file, "--limit", "2"]) == 0
        assert "... (4 more)" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.dl"]) == 2
        assert "error:" in capsys.readouterr().err


class TestParallelCommand:
    @pytest.mark.parametrize("scheme", [
        "example1", "example2", "example3", "hash", "wolfson", "general"])
    def test_every_scheme_checks_out(self, program_file, scheme, capsys):
        code = main(["parallel", program_file, "--scheme", scheme,
                     "-n", "3", "--check"])
        output = capsys.readouterr().out
        assert code == 0
        assert "matches sequential evaluation: True" in output

    def test_tradeoff_scheme_with_keep(self, program_file, capsys):
        code = main(["parallel", program_file, "--scheme", "tradeoff",
                     "--keep", "0.5", "-n", "2", "--check"])
        assert code == 0

    def test_stats_summary(self, program_file, capsys):
        assert main(["parallel", program_file, "--stats", "-n", "2"]) == 0
        output = capsys.readouterr().out
        assert "rounds:" in output
        assert "sent:" in output

    def test_detect_termination(self, program_file, capsys):
        assert main(["parallel", program_file, "-n", "2",
                     "--detect-termination"]) == 0

    def test_delay_injection_still_correct(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "3", "--check",
                     "--delay-prob", "0.4", "--seed", "11"])
        output = capsys.readouterr().out
        assert code == 0
        assert "matches sequential evaluation: True" in output

    def test_delay_prob_out_of_range_is_the_library_error(self,
                                                          program_file,
                                                          capsys):
        code = main(["parallel", program_file, "-n", "2",
                     "--delay-prob", "1.5"])
        error = capsys.readouterr().err
        assert code == 2
        assert "delay_probability must be in [0, 1], got 1.5" in error

    @pytest.mark.mp
    def test_mp_execution(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "2", "--mp", "--check"])
        output = capsys.readouterr().out
        assert code == 0
        assert "real multiprocessing run" in output
        assert "matches sequential evaluation: True" in output

    @pytest.mark.mp
    def test_mp_stats_include_wall_seconds(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "2", "--mp", "--stats"])
        output = capsys.readouterr().out
        assert code == 0
        assert "wall_seconds:" in output

    @pytest.mark.mp
    def test_mp_stats_include_worker_timings(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "2", "--mp", "--stats"])
        output = capsys.readouterr().out
        assert code == 0
        lines = [line.split(": ", 1)[1] for line in output.splitlines()
                 if line.startswith("  worker ")]
        assert len(lines) == 2
        for line in lines:
            timings = {key: float(value) for key, value in
                       (field.split("=") for field in line.split())}
            assert set(timings) == {"inbox_wait_s", "drain_s", "step_s",
                                    "send_s", "longest_step_s", "cpu_s"}
            assert min(timings.values()) >= 0.0
            assert timings["longest_step_s"] <= timings["step_s"]
            assert timings["cpu_s"] > 0.0
        assert ("the coordinator steps worker 0 itself: unless it was "
                "restarted, its cpu_s is the coordinator process's CPU"
                in output)
        phases = []
        for line in output.splitlines():
            if line.startswith("  coordinator "):
                name, fields = line[len("  coordinator "):].split(": ")
                wall, cpu = (float(field.split("=")[1])
                             for field in fields.split())
                phases.append((name, wall, cpu))
        # Forked first, one RESULT in per worker, pooled, returned.
        names = [name for name, _, _ in phases]
        assert names[0] == "forked" and names[-2:] == ["pooled", "returned"]
        assert sorted(names[1:-2]) == ["result 0", "result 1"]
        for earlier, later in zip(phases, phases[1:]):
            assert 0.0 <= earlier[1] <= later[1]
            assert 0.0 <= earlier[2] <= later[2]


class TestTraceCommand:
    @pytest.fixture
    def trace_file(self, program_file, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["parallel", program_file, "-n", "2",
                     "--trace", str(path)]) == 0
        capsys.readouterr()  # swallow the parallel command's output
        return str(path)

    def test_parallel_announces_trace(self, program_file, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["parallel", program_file, "-n", "2",
                     "--trace", str(path)]) == 0
        assert f"trace written to {path}" in capsys.readouterr().out

    def test_trace_renders_report(self, trace_file, capsys):
        assert main(["trace", trace_file]) == 0
        output = capsys.readouterr().out
        assert "trace report" in output
        assert "per-processor timeline" in output
        assert "makespan" in output

    def test_trace_json_summary(self, trace_file, capsys):
        import json

        assert main(["trace", trace_file, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["executor"] == "simulator"
        assert summary["firings"] > 0

    def test_trace_cost_knobs(self, trace_file, capsys):
        assert main(["trace", trace_file, "--send-cost", "2.0",
                     "--round-overhead", "1.0"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_trace_json_makespan_uses_the_cost_knobs(self, trace_file,
                                                    capsys):
        import json
        import re

        knobs = ["--send-cost", "10", "--recv-cost", "3",
                 "--round-overhead", "2"]
        assert main(["trace", trace_file, "--json"]) == 0
        default = json.loads(capsys.readouterr().out)["makespan"]
        assert main(["trace", trace_file, "--json", *knobs]) == 0
        priced = json.loads(capsys.readouterr().out)["makespan"]
        assert main(["trace", trace_file, *knobs]) == 0
        rendered = re.search(r"makespan: ([0-9.]+) work units",
                             capsys.readouterr().out)
        assert priced == float(rendered.group(1)) > default

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/run.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err


class TestNetworkCommand:
    def test_cycle_reported_and_no_channels(self, program_file, capsys):
        assert main(["network", program_file]) == 0
        output = capsys.readouterr().out
        assert "cycle at positions (2,)" in output
        assert "0 of 2 possible channels" in output

    def test_explicit_positions(self, program_file, capsys):
        assert main(["network", program_file, "--positions", "1"]) == 0
        output = capsys.readouterr().out
        assert "v(r) = <Z>" in output

    def test_linear_form(self, tmp_path, capsys):
        path = tmp_path / "chain3.dl"
        path.write_text("""
            p(U, V, W) :- s(U, V, W).
            p(U, V, W) :- p(V, W, Z), q(U, Z).
        """)
        assert main(["network", str(path), "--linear", "1,-1,1"]) == 0
        output = capsys.readouterr().out
        assert "acyclic" in output
        assert "[-1, 0, 1, 2]" in output

    def test_not_a_sirup_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.dl"
        path.write_text("""
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), anc(Z, Y).
        """)
        assert main(["network", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestWorkloadsCommand:
    def test_lists_kinds(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "chain" in output
        assert "same-generation" in output


class TestRecoveryFlags:
    def test_checkpoint_without_mp_rejected(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "2",
                     "--recovery", "checkpoint"])
        assert code == 2
        assert "--mp" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--inject-fault", "kill:1@2"],
        ["--recovery", "restart"],
        ["--inject-fault", "dup:0.2", "--inject-fault", "kill:1@100000"],
    ], ids=["kill", "restart", "kill-beside-channel-fault"])
    def test_kills_and_recovery_need_mp(self, program_file, capsys, flags):
        """The simulator kills no processor: one error naming ``--mp``,
        before the program is even loaded."""
        code = main(["parallel", program_file, "-n", "2", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "--mp" in captured.err

    @pytest.mark.faultinjection
    def test_channel_fault_under_mp_is_the_library_error(self, program_file,
                                                         capsys):
        code = main(["parallel", program_file, "-n", "2", "--mp",
                     "--inject-fault", "dup:0.2"])
        assert code == 2
        assert ("channel faults (drop/delay/dup) are a simulator model"
                in capsys.readouterr().err)

    @pytest.mark.faultinjection
    def test_channel_fault_in_simulator_still_checks_out(self, program_file,
                                                         capsys):
        code = main(["parallel", program_file, "-n", "2", "--check",
                     "--inject-fault", "dup:0.2"])
        assert code == 0
        assert ("matches sequential evaluation: True"
                in capsys.readouterr().out)

    @pytest.mark.mp
    @pytest.mark.faultinjection
    def test_mp_checkpoint_recovery_end_to_end(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "2", "--mp", "--check",
                     "--recovery", "checkpoint", "--checkpoint-interval", "1",
                     "--max-restarts", "2", "--inject-fault", "kill:1@2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "matches sequential evaluation: True" in output

    @pytest.mark.mp
    def test_bad_ack_deadline_errors_cleanly(self, program_file, capsys):
        code = main(["parallel", program_file, "-n", "2", "--mp",
                     "--ack-deadline", "0"])
        assert code == 2
        assert "ack deadline" in capsys.readouterr().err
