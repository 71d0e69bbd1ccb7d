"""CLI tests: compile / scan / workload / experiment plumbing."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


@pytest.fixture()
def pattern_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("ab{40}c\na[bc]de\n# a comment\n\nxy*z\n")
    return path


@pytest.fixture()
def input_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"noise " * 5 + b"a" + b"b" * 40 + b"c abde xyz")
    return path


class TestCompile:
    def test_compile_writes_ruleset(
        self, pattern_file, tmp_path, capsys, monkeypatch
    ):
        # The mode counts assert the *auto* selection; a RAP_MODE
        # differential leg would legitimately shift them.
        monkeypatch.delenv("RAP_MODE", raising=False)
        out = tmp_path / "rules.json"
        code = main(["compile", str(pattern_file), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "rap-repro-ruleset"
        assert len(doc["regexes"]) == 3
        stdout = capsys.readouterr().out
        assert "compiled 3 regexes" in stdout
        assert "0 NFA, 1 DFA, 1 NBVA, 1 LNFA" in stdout

    def test_rejections_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a(\n")
        out = tmp_path / "out.json"
        code = main(["compile", str(bad), "-o", str(out)])
        assert code == 1
        assert "rejected" in capsys.readouterr().err

    def test_forced_mode(self, pattern_file, tmp_path):
        out = tmp_path / "nfa.json"
        code = main(
            [
                "compile",
                str(pattern_file),
                "-o",
                str(out),
                "--force-mode",
                "NFA",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["mode"] == "NFA" for r in doc["regexes"])


class TestScan:
    def test_scan_patterns(self, pattern_file, input_file, capsys):
        code = main(["scan", "--patterns", str(pattern_file), str(input_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert "matches over" in captured.err
        lines = [line for line in captured.out.splitlines() if line]
        assert lines, "the planted payloads must match"
        end, regex_id, pattern = lines[0].split("\t")
        assert int(end) >= 0 and pattern

    def test_scan_compiled_ruleset(self, pattern_file, input_file, tmp_path, capsys):
        out = tmp_path / "rules.json"
        main(["compile", str(pattern_file), "-o", str(out)])
        code = main(
            ["scan", "--ruleset", str(out), str(input_file), "--metrics"]
        )
        assert code == 0
        assert "RAP:" in capsys.readouterr().err

    def test_scan_results_identical_between_paths(
        self, pattern_file, input_file, tmp_path, capsys
    ):
        main(["scan", "--patterns", str(pattern_file), str(input_file)])
        direct = capsys.readouterr().out
        out = tmp_path / "rules.json"
        main(["compile", str(pattern_file), "-o", str(out)])
        capsys.readouterr()
        main(["scan", "--ruleset", str(out), str(input_file)])
        via_file = capsys.readouterr().out
        assert direct == via_file


class TestScanFaultPolicies:
    @pytest.fixture()
    def mixed_rules(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("GATTACA\na(\n")
        return path

    @pytest.fixture()
    def stream(self, tmp_path):
        path = tmp_path / "in.bin"
        path.write_bytes(b"xxGATTACAyy")
        return path

    def test_default_fail_is_structured_exit_2(
        self, mixed_rules, stream, capsys
    ):
        code = main(
            ["scan", "--patterns", str(mixed_rules), str(stream), "--no-cache"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "pattern: 'a('" in err
        assert "phase: 'compile'" in err

    def test_quarantine_is_partial_exit_4(self, mixed_rules, stream, capsys):
        code = main(
            [
                "scan",
                "--patterns",
                str(mixed_rules),
                str(stream),
                "--no-cache",
                "--on-error",
                "quarantine",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        # The healthy pattern still matched and printed.
        assert "GATTACA" in captured.out
        assert "quarantined: 'a('" in captured.err
        assert "partial: 1 pattern(s) quarantined" in captured.err

    def test_all_quarantined_exit_4_without_scanning(
        self, tmp_path, stream, capsys
    ):
        rules = tmp_path / "allbad.txt"
        rules.write_text("a(\n")
        code = main(
            [
                "scan",
                "--patterns",
                str(rules),
                str(stream),
                "--no-cache",
                "--on-error",
                "quarantine",
            ]
        )
        assert code == 4
        assert "all patterns quarantined" in capsys.readouterr().err

    def test_skip_drops_offenders_cleanly(self, mixed_rules, stream, capsys):
        code = main(
            [
                "scan",
                "--patterns",
                str(mixed_rules),
                str(stream),
                "--no-cache",
                "--on-error",
                "skip",
            ]
        )
        assert code == 0
        assert "GATTACA" in capsys.readouterr().out

    def test_supervision_flags_parse_and_run(self, mixed_rules, stream, capsys):
        args = build_parser().parse_args(
            ["experiment", "fig1", "--timeout", "30", "--retries", "1"]
        )
        assert args.timeout == 30.0
        assert args.retries == 1
        # A scan forks nothing to supervise: each flag is an unknown option,
        # never a silent no-op.
        scan = ["scan", "--patterns", str(mixed_rules), str(stream)]
        for flag, value in ("--jobs", "2"), ("--timeout", "1"), ("--retries", "1"):
            with pytest.raises(SystemExit) as info:
                main([*scan, flag, value])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestWorkload:
    def test_known_benchmark(self, capsys):
        code = main(["workload", "Snort", "--size", "6"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all("\t" in line for line in lines)

    def test_anmlzoo_benchmark(self, capsys):
        code = main(["workload", "Dotstar", "--size", "4"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_unknown_benchmark(self, capsys):
        code = main(["workload", "NotAThing"])
        assert code == 2
        assert "known:" in capsys.readouterr().err


class TestInspect:
    def test_inspect_summarizes(self, pattern_file, tmp_path, capsys):
        out = tmp_path / "rules.json"
        main(["compile", str(pattern_file), "-o", str(out)])
        capsys.readouterr()
        code = main(["inspect", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "regexes:" in text
        assert "hardware states:" in text
        assert "utilization:" in text


class TestCustomHardware:
    def test_compile_with_hw_file(self, pattern_file, tmp_path, capsys):
        import json as _json

        from repro.hardware.config import HardwareConfig

        hw = HardwareConfig(
            cam_cols=64,
            local_switch_dim=64,
            tiles_per_array=32,
            global_switch_dim=256,
        )
        hw_path = tmp_path / "hw.json"
        hw_path.write_text(_json.dumps(hw.to_json()))
        out = tmp_path / "rules.json"
        code = main(
            ["compile", str(pattern_file), "-o", str(out), "--hw", str(hw_path)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # the custom 64-column tiles constrain the tile plans
        for regex in doc["regexes"]:
            for request in regex["tile_requests"]:
                total = (
                    request["cc_columns"]
                    + request["bv_columns"]
                    + request["set1_columns"]
                )
                assert total <= 64

    def test_hw_round_trip(self):
        from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig

        assert HardwareConfig.from_json(DEFAULT_CONFIG.to_json()) == DEFAULT_CONFIG

    def test_hw_unknown_key_rejected(self):
        from repro.hardware.config import HardwareConfig

        with pytest.raises(ValueError):
            HardwareConfig.from_json({"frobnicator": 7})


class TestExperiment:
    def test_experiment_names_cover_all_artifacts(self):
        assert sorted(EXPERIMENTS) == [
            "all",
            "fig1",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "table2",
            "table3",
            "table4",
        ]

    def test_fig1_runs_small(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(
            ["experiment", "fig1", "--size", "12", "--input-length", "1500"]
        )
        assert code == 0
        assert "Fig. 1" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServeCLI:
    """Serve/loadgen flag plumbing: structured exit codes, validation."""

    def test_serve_help_documents_flags_and_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--max-sessions", "--idle-timeout", "--drain-seconds"):
            assert flag in out
        # The epilog spells out the structured exit codes.
        assert "2" in out and "5" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-sessions", "0"],
            ["--idle-timeout", "0"],
            ["--drain-seconds", "-1"],
            ["--max-rss-mb", "-5"],
            ["--port", "70000"],
        ],
    )
    def test_invalid_config_exits_2_before_binding(
        self, flags, tmp_path, capsys
    ):
        code = main(
            ["serve", "--checkpoint-dir", str(tmp_path / "ck"), *flags]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        # The offending flag is named in the structured context.
        assert flags[0].lstrip("-").replace("-", "_").split("_")[0] in err

    def test_loadgen_rejects_bad_fault_plan_before_connecting(
        self, pattern_file, capsys
    ):
        code = main(
            [
                "loadgen",
                "--port",
                "1",
                "--patterns",
                str(pattern_file),
                "--fault-plan",
                "bogus@0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRetiredNumpyBackend:
    """The per-pattern ``numpy`` tier is gone: the flag refuses the name,
    a stale environment resolves to python and says so."""

    def test_backend_flag_rejects_numpy(self, pattern_file, input_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "scan",
                    "--patterns",
                    str(pattern_file),
                    str(input_file),
                    "--backend",
                    "numpy",
                ]
            )
        assert err.value.code == 2
        assert "invalid choice: 'numpy'" in capsys.readouterr().err

    def test_stale_env_is_explained(
        self, pattern_file, input_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("RAP_BACKEND", "numpy")
        code = main(
            [
                "scan",
                "--patterns",
                str(pattern_file),
                str(input_file),
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: python (unknown backend 'numpy')" in out
