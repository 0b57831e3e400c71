import copy
import dataclasses
import json

import pytest

from nocldpc.cli import main
from nocldpc.configgen import ConfigImage


def run(argv):
    return main(argv)


class TestInspect:
    def test_bundled_code_summary(self, tmp_path, capsys):
        rc = run(["inspect", "--code", "wimax_2304_1152", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "7296" in out
        data = json.loads((tmp_path / "inspect.json").read_text())
        assert data["messages_per_iteration"] == 7296
        assert data["n_cols"] == 2304 and data["n_rows"] == 1152
        assert "manifest_hash" in data

    def test_toy_alist_file(self, tmp_path, capsys):
        alist = tmp_path / "toy.alist"
        alist.write_text(
            "6 3\n2 3\n2 2 2 1 1 1\n3 3 3\n1 3\n1 2\n2 3\n1\n2\n3\n1 2 4\n2 3 5\n1 3 6\n"
        )
        rc = run(["inspect", "--code", str(alist), "--format", "alist"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 x 3" in out

    def test_missing_file(self, capsys):
        rc = run(["inspect", "--code", "no_such_code_xyz"])
        assert rc != 0
        assert "error" in capsys.readouterr().err


class TestPartitionAndSimulate:
    def test_partition_writes_mapping(self, tmp_path):
        rc = run([
            "partition", "--code", "wimax_576_288", "--torus-n", "5",
            "--seed", "3", "--rp-baseline", "10", "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "partition.json").read_text())
        assert summary["cutset_messages"] < summary["rp_baseline_mean"]
        assert (tmp_path / "mapping.json").exists()

    def test_simulate_and_genconfig(self, tmp_path, capsys):
        rc = run([
            "simulate", "--code", "wimax_576_288", "--torus-n", "5",
            "--seed", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        rc = run([
            "genconfig", "--code", "wimax_576_288",
            "--mapping", str(tmp_path / "mapping.json"),
            "--trace", str(tmp_path / "trace.json"),
            "--binary", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "config_rm.bin").exists()
        summary = json.loads((tmp_path / "simulate.json").read_text())
        assert summary["k_i"] > 0

    def test_simulate_rejects_fifo_pow2(self, tmp_path, capsys):
        # FIFO depths are sized by genconfig and pipeline; simulate builds no image
        with pytest.raises(SystemExit) as exc:
            run([
                "simulate", "--code", "wimax_576_288", "--torus-n", "1",
                "--fifo-pow2", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "--fifo-pow2" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()

    def test_genconfig_rejects_malformed_inputs(self, tmp_path, capsys):
        run(["simulate", "--code", "wimax_576_288", "--torus-n", "5",
             "--seed", "2", "--out", str(tmp_path)])
        for text in ("[1, 2]", json.dumps({"format": "nocldpc-trace-v1"})):
            (tmp_path / "bad.json").write_text(text)
            rc = run([
                "genconfig", "--code", "wimax_576_288",
                "--mapping", str(tmp_path / "mapping.json"),
                "--trace", str(tmp_path / "bad.json"), "--out", str(tmp_path),
            ])
            assert rc == 2
            assert "error:" in capsys.readouterr().err
        (tmp_path / "bad.json").write_text("[1]")
        rc = run([
            "genconfig", "--code", "wimax_576_288", "--mapping", str(tmp_path / "bad.json"),
            "--trace", str(tmp_path / "trace.json"), "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        # serving orders naming a check outside the code or one check twice,
        # an assignment shorter than the code and one holding a float
        good = json.loads((tmp_path / "mapping.json").read_text())
        cases = []
        for first, why in ((10**6, "outside"), (-1, "outside"), (good["order"][0][1], "twice")):
            bad = copy.deepcopy(good)
            bad["order"][0][0] = first
            cases.append((bad, why))
        bad = copy.deepcopy(good)
        bad["assignment"].pop()
        cases.append((bad, "assigns 287 checks"))
        bad = copy.deepcopy(good)
        bad["assignment"][0] += 0.5
        cases.append((bad, "assignment must be a list of integers"))
        for bad, why in cases:
            (tmp_path / "bad.json").write_text(json.dumps(bad))
            rc = run([
                "genconfig", "--code", "wimax_576_288", "--mapping", str(tmp_path / "bad.json"),
                "--trace", str(tmp_path / "trace.json"), "--out", str(tmp_path),
            ])
            assert rc == 2
            err = capsys.readouterr().err
            assert "error:" in err and why in err

    def test_genconfig_rejects_padded_trace_k_i(self, tmp_path, capsys):
        # idle cycles after the last landing: validate_config refuses such an
        # image, so genconfig must not write one
        run(["simulate", "--code", "wimax_576_288", "--torus-n", "5",
             "--seed", "2", "--out", str(tmp_path)])
        obj = json.loads((tmp_path / "trace.json").read_text())
        obj["k_i"] += 50
        (tmp_path / "padded.json").write_text(json.dumps(obj))
        rc = run([
            "genconfig", "--code", "wimax_576_288", "--mapping", str(tmp_path / "mapping.json"),
            "--trace", str(tmp_path / "padded.json"), "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "last flit lands" in capsys.readouterr().err
        assert not (tmp_path / "config.json").exists()

    @pytest.mark.parametrize("command,stages", [
        ("partition", {"load", "partition"}),
        ("simulate", {"load", "partition", "schedule", "simulate"}),
    ])
    def test_json_times_each_stage(self, command, stages, tmp_path):
        rc = run([command, "--code", "wimax_576_288", "--torus-n", "2", "--out", str(tmp_path)])
        assert rc == 0
        stage_s = json.loads((tmp_path / f"{command}.json").read_text())["stage_s"]
        assert set(stage_s) == stages
        assert all(isinstance(s, float) and s >= 0 for s in stage_s.values())


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """Paths of wimax_576_288 configuration images on 4x4 and 5x5 tori, by side."""
    paths = {}
    for side in (4, 5):
        out = tmp_path_factory.mktemp(f"side{side}")
        assert run(["simulate", "--code", "wimax_576_288", "--torus-n", str(side),
                    "--out", str(out)]) == 0
        assert run(["genconfig", "--code", "wimax_576_288", "--mapping", str(out / "mapping.json"),
                    "--trace", str(out / "trace.json"), "--out", str(out)]) == 0
        paths[side] = out / "config.json"
    return paths


class TestSwitch:
    def test_rejects_malformed_images(self, tmp_path, capsys):
        for text in ("[1]", json.dumps({"format": "nocldpc-config-v1", "rm": 3})):
            (tmp_path / "bad.json").write_text(text)
            rc = run(["switch", "--config1", str(tmp_path / "bad.json"),
                      "--config2", str(tmp_path / "bad.json")])
            assert rc == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--torus-n", "--buffer-size"])
    def test_rejects_nonpositive_numbers(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["switch", "--k1", "491", "--k2", "466", flag, "0"])
        assert exc.value.code == 2
        assert f"{flag}: must be > 0" in capsys.readouterr().err

    def test_images_of_one_side_plan(self, images, capsys):
        rc = run(["switch", "--config1", str(images[5]), "--config2", str(images[5]),
                  "--torus-n", "5"])
        assert rc == 0
        assert "over 5 buses" in capsys.readouterr().out

    def test_rejects_image_edited_without_reseal(self, images, tmp_path, capsys):
        # a changed label without a new digest used to plan and pass
        obj = json.loads(images[5].read_text())
        obj["label"] = "edited"
        (tmp_path / "edited.json").write_text(json.dumps(obj))
        rc = run(["switch", "--config1", str(images[5]), "--config2", str(tmp_path / "edited.json")])
        assert rc == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_rejects_image_with_padded_k_i(self, images, tmp_path, capsys):
        # idle words appended to the program and resealed used to plan the
        # switch buffer from the padded k_i
        img = ConfigImage.from_json(images[5].read_text())
        padded = dataclasses.replace(img, k_i=img.k_i + 500, rm=[w + (0,) * 500 for w in img.rm],
                                     digest=None)
        (tmp_path / "padded.json").write_text(padded.to_json())
        rc = run(["switch", "--config1", str(tmp_path / "padded.json"),
                  "--config2", str(images[5])])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "last routing word" in captured.err
        assert "B=" not in captured.out

    @pytest.mark.parametrize("side1,side2,torus_n", [(5, 4, []), (4, 5, []), (5, 5, ["--torus-n", "4"])])
    def test_rejects_torus_side_mismatch(self, images, side1, side2, torus_n, capsys):
        # a 5x5 and a 4x4 image used to plan over the first image's 5 buses
        # and print PASS
        rc = run(["switch", "--config1", str(images[side1]), "--config2", str(images[side2]),
                  *torus_n])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "tori" in captured.err
        assert "PASS" not in captured.out

    def test_worked_case_passes(self, tmp_path, capsys):
        rc = run(["switch", "--k1", "491", "--k2", "466", "--torus-n", "5",
                  "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "minimum 766" in out
        assert "PASS" in out

    def test_forced_tiny_buffer_fails(self, capsys):
        rc = run(["switch", "--k1", "491", "--k2", "466", "--torus-n", "5",
                  "--buffer-size", "700"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_same_code_to_itself(self, capsys):
        rc = run(["switch", "--k1", "300", "--k2", "300", "--torus-n", "5"])
        assert rc == 0


class TestBerAndThroughput:
    def test_ber_csv(self, tmp_path, capsys):
        rc = run([
            "ber", "--code", "wimax_576_288", "--snr", "1.5,2.5",
            "--min-errors", "30", "--max-frames", "64", "--itmax", "4",
            "--seed", "5", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "ber.csv").read_text().strip().splitlines()
        assert lines[0].startswith("snr_db,")
        assert len(lines) == 3
        data = json.loads((tmp_path / "ber.json").read_text())
        assert len(data["points"]) == 2

    @pytest.mark.parametrize("snr", ["4000", "-4000", "3080"])
    def test_ber_rejects_snr_without_noise_sigma(self, snr, tmp_path, capsys):
        # 10^(snr/10) overflows or underflows, or 2 / sigma^2 does: these used
        # to exit 1 with a traceback, or decode inf LLRs
        rc = run([
            "ber", "--code", "wimax_576_288", f"--snr={snr}", "--max-frames", "1",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "noise sigma" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    def test_throughput_formula(self, capsys):
        rc = run(["throughput", "--k-i", "843", "--f-clk", "300e6",
                  "--itmax", "10", "--block-length", "2304"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "82.0 Mb/s" in out

    @pytest.mark.parametrize("flag,value", [
        ("--k-i", "0"), ("--k-i", "-483"), ("--itmax", "0"), ("--avg-iterations", "0"),
        ("--f-clk", "nan"),
    ])
    def test_throughput_rejects_nonpositive_numbers(self, flag, value, capsys):
        argv = {"--k-i": "843", "--f-clk": "300e6", "--itmax": "10", "--block-length": "2304"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            run(["throughput", *(x for kv in argv.items() for x in kv)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{flag}: must be > 0" in captured.err and "Mb/s" not in captured.out

    def test_throughput_scales(self, capsys):
        run(["throughput", "--k-i", "843", "--f-clk", "300e6",
             "--itmax", "5", "--block-length", "2304"])
        out = capsys.readouterr().out
        assert "164.0 Mb/s" in out


class TestPipeline:
    def test_end_to_end_small_code(self, tmp_path, capsys):
        rc = run([
            "pipeline", "--code", "wimax_576_288", "--torus-n", "5",
            "--seed", "1", "--check-frames", "3", "--rp-baseline", "5",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay      PASS" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["replay_matches_golden"] is True
        assert report["cut_below_random_baseline"] is True
        for name in ("mapping.json", "trace.json", "config.json"):
            assert (tmp_path / name).exists()

    def test_report_times_each_stage(self, tmp_path, capsys):
        rc = run([
            "pipeline", "--code", "wimax_576_288", "--torus-n", "2",
            "--seed", "1", "--check-frames", "1", "--rp-baseline", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        stage_s = json.loads((tmp_path / "report.json").read_text())["stage_s"]
        assert set(stage_s) == {"load", "partition", "schedule", "simulate", "genconfig",
                                "replay-verify"}
        assert all(isinstance(s, float) and s >= 0 for s in stage_s.values())

    def test_report_counts_collector_runs(self, tmp_path, capsys):
        import gc

        threshold, enabled = gc.get_threshold(), gc.isenabled()
        rc = run([
            "pipeline", "--code", "wimax_576_288", "--torus-n", "2",
            "--seed", "1", "--check-frames", "1", "--rp-baseline", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        runs = json.loads((tmp_path / "report.json").read_text())["gc"]
        assert set(runs) == {"gen0", "gen1", "gen2"}
        assert all(type(n) is int and n >= 0 for n in runs.values())
        assert runs["gen0"] > 0  # the partitioner alone allocates enough to run it
        # reading the counts leaves the collector as it was
        assert (gc.get_threshold(), gc.isenabled()) == (threshold, enabled)

    def test_replay_spot_check_compares_final_llrs(self, tmp_path, capsys, monkeypatch):
        import nocldpc.cli as cli

        real = cli.replay_decode

        def off_by_one(*args, **kwargs):  # same bits and iterations, other LLRs
            res = real(*args, **kwargs)
            res.final_llrs = res.final_llrs + 1
            return res

        monkeypatch.setattr(cli, "replay_decode", off_by_one)
        rc = run([
            "pipeline", "--code", "wimax_576_288", "--torus-n", "2",
            "--seed", "1", "--check-frames", "1", "--rp-baseline", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "replay      FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["replay_matches_golden"] is False

    def test_rejects_threads(self, tmp_path, capsys):
        # --threads belongs to ber only; pipeline decodes nothing in batches
        with pytest.raises(SystemExit) as exc:
            run([
                "pipeline", "--code", "wimax_576_288", "--torus-n", "1",
                "--threads", "2", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--rp-baseline", "0"), ("--check-frames", "0"), ("--check-frames", "-1"),
    ])
    def test_rejects_nonpositive_counts(self, flag, value, tmp_path, capsys):
        # no random baseline to beat, or no replay frame compared, is no pass
        with pytest.raises(SystemExit) as exc:
            run([
                "pipeline", "--code", "wimax_576_288", "--torus-n", "2",
                flag, value, "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert f"{flag}: must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_single_pe_degenerate(self, tmp_path, capsys):
        rc = run([
            "pipeline", "--code", "wimax_576_288", "--torus-n", "1",
            "--seed", "1", "--check-frames", "2", "--rp-baseline", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["network_messages"] == 0
        assert report["k_i"] == 0
        assert report["replay_matches_golden"] is True
        # with one PE there is no traffic to beat, so only replay gates
        assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_pe_pipeline_below_zero_rejected(command, tmp_path, capsys):
    # a negative depth used to reach the simulator, which deadlocked or let
    # checks emit before their block read ended; zero stays valid
    argv = [command, "--code", "wimax_576_288", "--torus-n", "2", "--out", str(tmp_path)]
    if command == "pipeline":
        argv += ["--check-frames", "1", "--rp-baseline", "1"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--pe-pipeline", "-10"])
    assert exc.value.code == 2
    assert "--pe-pipeline: must be >= 0" in capsys.readouterr().err
    assert run(argv + ["--pe-pipeline", "0"]) == 0


@pytest.mark.parametrize("argv,flag", [
    (["ber", "--snr", "nan", "--max-frames", "1"], "--snr"),
    (["ber", "--snr", "2.0,inf", "--max-frames", "1"], "--snr"),
    (["ber", "--snr", "2.0", "--max-frames", "1", "--alpha", "nan"], "--alpha"),
    (["pipeline", "--torus-n", "1", "--check-snr", "-inf"], "--check-snr"),
    (["partition", "--torus-n", "2", "--rp-baseline", "-3"], "--rp-baseline"),
])
def test_rejects_bad_numbers(argv, flag, tmp_path, capsys):
    # a negative --rp-baseline used to write a NaN baseline mean and exit 0
    try:
        rc = run([*argv, "--code", "wimax_576_288", "--out", str(tmp_path)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["inspect", "--code", "{dir}"],
    ["genconfig", "--code", "wimax_576_288", "--mapping", "{dir}", "--trace", "{file}"],
    ["partition", "--code", "wimax_576_288", "--torus-n", "2", "--out", "{file}"],
], ids=["inspect-code-dir", "genconfig-mapping-dir", "partition-out-file"])
def test_unusable_path_exits_2(argv, tmp_path, capsys):
    # a directory read as a file, or an existing file made the output
    # directory, used to end in a traceback (IsADirectoryError, FileExistsError)
    (tmp_path / "file").write_text("")
    rc = run([a.format(dir=tmp_path, file=tmp_path / "file") for a in argv])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
