import csv
import hashlib
import importlib
import io
import pkgutil
import time

import pytest

import naswot
from naswot import cli
from naswot.cli import main
from naswot.scoring import Score
from naswot.searchspace import Genotype, OpKind, parse_arch

from oracles import unkept_score

ZERO_ARCH = str(Genotype.uniform(OpKind.ZEROISE))
CONV_ARCH = str(Genotype.uniform(OpKind.CONV_3X3))

DESK = ["--preset", "desk", "--batch-size", "8", "--seed", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    """Split an output file into (comment lines, csv rows)."""
    text = path.read_text(encoding="utf-8")
    comments = [l for l in text.splitlines() if l.startswith("#")]
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return comments, list(csv.reader(io.StringIO(body)))


class TestScoreCommand:
    def test_zeroise_prints_singular_and_exits_zero(self, capsys):
        code, out, err = run(capsys, "score", ZERO_ARCH, *DESK)
        assert code == 0
        assert "status SINGULAR" in out
        assert err == ""

    def test_valid_arch_prints_score(self, capsys):
        code, out, _ = run(capsys, "score", CONV_ARCH, *DESK)
        assert code == 0
        assert "status VALID" in out
        assert any(line.startswith("score ") for line in out.splitlines())

    def test_stdout_byte_identical_across_reruns(self, capsys):
        _, first, _ = run(capsys, "score", CONV_ARCH, *DESK)
        _, second, _ = run(capsys, "score", CONV_ARCH, *DESK)
        assert first == second

    def test_dump_normalized_kernel_has_unit_diagonal(self, capsys, tmp_path):
        out_file = tmp_path / "kernel.csv"
        code, _, _ = run(capsys, "score", CONV_ARCH, *DESK,
                         "--dump-kernel", "normalized", "--out", str(out_file))
        assert code == 0
        comments, rows = read_rows(out_file)
        assert comments and all(c.startswith("# ") for c in comments)
        matrix = [[float(v) for v in row] for row in rows]
        assert len(matrix) == 8
        assert all(matrix[i][i] == 1.0 for i in range(8))

    def test_malformed_arch_fails_with_tagged_error(self, capsys):
        code, _, err = run(capsys, "score", "|junk|", *DESK)
        assert code == 1
        assert err.startswith("error: MalformedArchString:")
        assert err.rstrip().endswith("'|junk|'")  # message quoting stays balanced

    def test_dump_without_out_path_fails(self, capsys):
        # rejected before the forward pass, so nothing reaches stdout
        code, out, err = run(capsys, "score", CONV_ARCH, *DESK, "--dump-kernel", "raw")
        assert code == 1
        assert "error:" in err
        assert out == ""


class TestDumpKernelCommand:
    def test_raw_kernel_diagonal_is_unit_count(self, capsys, tmp_path):
        out_file = tmp_path / "k.csv"
        code, _, _ = run(capsys, "dump-kernel", CONV_ARCH, *DESK, "--out", str(out_file))
        assert code == 0
        _, rows = read_rows(out_file)
        matrix = [[float(v) for v in row] for row in rows]
        diag = {matrix[i][i] for i in range(len(matrix))}
        assert len(diag) == 1 and diag.pop() > 0

    def test_reruns_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "dump-kernel", CONV_ARCH, *DESK, "--out", str(a))
        run(capsys, "dump-kernel", CONV_ARCH, *DESK, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_without_out_path_fails(self, capsys, monkeypatch):
        def forward_pass(*args):
            raise AssertionError("the forward pass ran before the --out check")

        monkeypatch.setattr("naswot.cli.forward_collect_codes", forward_pass)
        code, out, err = run(capsys, "dump-kernel", CONV_ARCH, *DESK)
        assert code == 1
        assert err == "error: ValueError: kernel dump requires --out <path>\n"
        assert out == ""


class TestSearchCommand:
    def test_run_log_has_n_rows_and_chosen_is_max(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        code, out, _ = run(capsys, "search", *DESK, "--n", "10", "--out", str(log))
        assert code == 0
        comments, rows = read_rows(log)
        assert rows[0] == ["index", "arch", "score", "status", "accuracy"]
        assert len(rows) == 11
        scores = [float(r[2]) for r in rows[1:] if r[2]]
        printed = next(l for l in out.splitlines() if l.startswith("score "))
        assert printed == f"score {format(max(scores), '.6g')}"

    def test_rerun_log_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "search", *DESK, "--n", "6", "--out", str(a))
        run(capsys, "search", *DESK, "--n", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_scoring_matches_serial(self, capsys, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        run(capsys, "search", *DESK, "--n", "8", "--jobs", "1", "--out", str(serial))
        run(capsys, "search", *DESK, "--n", "8", "--jobs", "3", "--out", str(parallel))
        s = read_rows(serial)[1]
        p = read_rows(parallel)[1]
        assert s == p

    @pytest.mark.parametrize("jobs,least", [("1", 0.2), ("2", 0.1)])
    def test_walltime_covers_scoring(self, capsys, monkeypatch, jobs, least):
        # four draws at 0.05 s a score: one thread waits 0.2 s, two 0.1 s
        def slow_scorer(genotype):
            time.sleep(0.05)
            return Score(float(len(str(genotype))))

        monkeypatch.setattr("naswot.cli.make_scorer", lambda config, batch: slow_scorer)
        code, out, _ = run(capsys, "search", *DESK, "--n", "4", "--jobs", jobs)
        assert code == 0
        walltime = next(l for l in out.splitlines() if l.startswith("walltime "))
        assert float(walltime.split()[1]) >= least

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run(capsys, "search", *DESK, "--n", "2", "--jobs", jobs)
        assert code == 1
        assert err == f"error: ValueError: --jobs must be at least 1, got {jobs}\n"
        assert out == ""

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_rejected(self, capsys, n):
        code, out, err = run(capsys, "search", *DESK, "--n", n)
        assert code == 1
        assert err == "error: ValueError: --n must be at least 1\n"
        assert out == ""


class TestEvolutionCommands:
    def test_rea_budget_equals_population(self, capsys, tmp_path, full_bench_csv):
        log = tmp_path / "rea.csv"
        code, out, _ = run(capsys, "rea", "--bench", str(full_bench_csv), "--seed", "1",
                           "--pop", "6", "--tournament", "3", "--budget", "6", "--out", str(log))
        assert code == 0
        _, rows = read_rows(log)
        assert len(rows) == 7  # header + initial population only
        accs = [float(r[4]) for r in rows[1:]]
        printed = next(l for l in out.splitlines() if l.startswith("accuracy "))
        assert printed == f"accuracy {format(max(accs), '.6g')}"

    def test_rea_rerun_byte_identical(self, capsys, tmp_path, full_bench_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rea", "--bench", str(full_bench_csv), "--seed", "2",
                "--pop", "5", "--tournament", "2", "--budget", "12"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args,stdout_sha256,log_sha256", [
        (["--seed", "1", "--pop", "10", "--tournament", "5", "--budget", "200"],
         "793f86278e882cc4747e263f8fff2fe12aa624b13b3aa09364fe61902caa5ff2",
         "4364164e78c814d9082b26d0b4e788d22cf6c6df72ebcfca50af31aee3e0e1cd"),
        (["--seed", "7", "--pop", "6", "--tournament", "3", "--seconds", "90", "--eval-cost", "1",
          "--metric", "test_acc"],
         "dcfee942b399661d11a6999906c8a153512353cea310321a8e30cd9290df5080",
         "669d8d4b92fe5c40550655b4114eaf7071d4fe9d6e24110a5c4ff8dacdcde5a5"),
    ], ids=["budget", "seconds-test-acc"])
    def test_rea_output_bytes_pinned(self, capsys, tmp_path, monkeypatch, full_bench_csv,
                                     args, stdout_sha256, log_sha256):
        """rea's stdout (bar walltime) and run log, pinned by digest.  rea
        builds no network, so they hold on every BLAS kernel family."""
        monkeypatch.chdir(full_bench_csv.parent)  # the log echoes --bench as given
        log = tmp_path / "rea.csv"
        code, out, _ = run(capsys, "rea", "--bench", full_bench_csv.name, *args, "--out", str(log))
        assert code == 0
        kept = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("walltime "))
        assert hashlib.sha256(kept.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(log.read_bytes()).hexdigest() == log_sha256

    def test_rea_missing_arch_names_it(self, capsys, tmp_path):
        bench = tmp_path / "tiny.csv"
        bench.write_text(
            f"arch,dataset,val_acc,test_acc\n{CONV_ARCH},cifar10,90.0,89.0\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "rea", "--bench", str(bench), "--seed", "0",
                           "--pop", "4", "--tournament", "2", "--budget", "4")
        assert code == 1
        assert err.startswith("error: EvaluatorMiss:")
        assert "|" in err  # the offending arch string is spelled out

    def test_area_log_covers_pool_and_children(self, capsys, tmp_path, full_bench_csv):
        log = tmp_path / "area.csv"
        code, _, _ = run(capsys, "area", "--bench", str(full_bench_csv), *DESK,
                         "--pool", "8", "--pop", "4", "--tournament", "2",
                         "--budget", "10", "--out", str(log))
        assert code == 0
        _, rows = read_rows(log)
        assert len(rows) == 1 + 8 + 6  # header + scored pool + evolved children
        pool_rows = rows[1:9]
        assert all(r[3] in ("VALID", "SINGULAR", "NON_FINITE") for r in pool_rows)
        evaluated = [r for r in pool_rows if r[4]]
        assert len(evaluated) == 4  # the retained population has accuracies
        child_rows = rows[9:]
        assert all(r[4] and not r[2] for r in child_rows)

    def test_area_rerun_byte_identical(self, capsys, tmp_path, full_bench_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["area", "--bench", str(full_bench_csv), *DESK, "--pool", "6",
                "--pop", "3", "--tournament", "2", "--budget", "8"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seconds_budget_requires_eval_cost(self, capsys, full_bench_csv):
        code, _, err = run(capsys, "rea", "--bench", str(full_bench_csv),
                           "--pop", "4", "--tournament", "2", "--seconds", "100")
        assert code == 1
        assert "eval-cost" in err

    def test_seconds_budget_converts_to_evaluations(self, capsys, tmp_path, full_bench_csv):
        log = tmp_path / "log.csv"
        code, _, _ = run(capsys, "rea", "--bench", str(full_bench_csv), "--seed", "3",
                         "--pop", "4", "--tournament", "2", "--seconds", "90",
                         "--eval-cost", "10", "--out", str(log))
        assert code == 0
        _, rows = read_rows(log)
        assert len(rows) == 10  # header + floor(90/10) evaluations

    @pytest.mark.parametrize("command", ["rea", "area"])
    @pytest.mark.parametrize("seconds,cost", [("-5", "1"), ("0", "1"), ("nan", "1"), ("inf", "1"), ("90", "inf"),
                                              ("1e300", "1e-300")])
    def test_bad_time_budget_fails_with_one_error_line(self, capsys, tmp_path, full_bench_csv,
                                                       command, seconds, cost):
        log = tmp_path / "log.csv"
        network = DESK if command == "area" else []  # rea builds no network
        code, out, err = run(capsys, command, "--bench", str(full_bench_csv), *network,
                             "--pop", "4", "--tournament", "2", "--seconds", seconds,
                             "--eval-cost", cost, "--out", str(log))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: --") and err.count("\n") == 1
        assert not log.exists()


class TestCorrelateCommand:
    def test_report_rows_and_summary(self, capsys, tmp_path, full_bench_csv):
        report = tmp_path / "report.csv"
        code, out, _ = run(capsys, "correlate", "--bench", str(full_bench_csv), *DESK,
                           "--n", "6", "--out", str(report))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("tau ")
        assert lines[1] == "n 6"
        assert lines[2].startswith("excluded ")
        _, rows = read_rows(report)
        assert rows[0] == ["arch", "score", "status", "accuracy"]
        assert len(rows) == 7

    def test_scores_are_score_network_scores(self, capsys, tmp_path, full_bench_csv):
        report = tmp_path / "report.csv"
        args = ["correlate", "--bench", str(full_bench_csv), *DESK, "--n", "6", "--out", str(report)]
        assert run(capsys, *args)[0] == 0
        config, batch = cli._config_and_batch(cli._resolve_settings(cli._build_parser().parse_args(args)))
        _, rows = read_rows(report)
        for arch, value, status, _ in rows[1:]:
            want = unkept_score(parse_arch(arch), config, batch)
            assert (value, status) == ((repr(want.value) if want.is_valid else ""), want.status.name)

    def test_rerun_byte_identical(self, capsys, tmp_path, full_bench_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["correlate", "--bench", str(full_bench_csv), *DESK, "--n", "5"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestAblateCommand:
    def test_inits_mode_rows(self, capsys, tmp_path):
        out_file = tmp_path / "ab.csv"
        code, _, _ = run(capsys, "ablate", CONV_ARCH, *DESK, "--mode", "inits",
                         "--repeats", "3", "--out", str(out_file))
        assert code == 0
        _, rows = read_rows(out_file)
        assert rows[0] == ["group", "repeat", "score", "status", "normalized"]
        assert len(rows) == 4
        assert {r[0] for r in rows[1:]} == {"inits"}

    def test_batch_sizes_mode_emits_all_groups_with_normalization(self, capsys, tmp_path):
        out_file = tmp_path / "sizes.csv"
        code, _, _ = run(capsys, "ablate", CONV_ARCH, "--preset", "desk", "--seed", "1",
                         "--mode", "batch_sizes", "--repeats", "2", "--out", str(out_file))
        assert code == 0
        _, rows = read_rows(out_file)
        groups = [r[0] for r in rows[1:]]
        assert groups == ["32", "32", "64", "64", "128", "128", "256", "256"]
        normalized = [float(r[4]) for r in rows[1:] if r[3] == "VALID"]
        assert all(v >= 1.0 or abs(v - 1.0) < 1e-12 for v in normalized)

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ablate", CONV_ARCH, *DESK, "--mode", "batches", "--repeats", "2"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cifar10_input_shape_error_matches_score(self, capsys, tmp_path):
        # enough zero records for a desk batch, so only the shape check can fail
        (tmp_path / "data_batch_1.bin").write_bytes(bytes(8 * 3073))
        source = f"cifar10:{tmp_path}"
        _, _, score_err = run(capsys, "score", CONV_ARCH, *DESK, "--input", source)
        code, _, err = run(capsys, "ablate", CONV_ARCH, *DESK, "--input", source, "--mode", "inits",
                           "--repeats", "1", "--out", str(tmp_path / "ab.csv"))
        assert code == 1
        assert err == score_err == "error: ValueError: cifar10 input needs input_shape 3,32,32, not (3, 8, 8)\n"

    def test_missing_out_rejected(self, capsys):
        code, _, err = run(capsys, "ablate", CONV_ARCH, *DESK, "--mode", "inits")
        assert code == 1
        assert "error:" in err

    def test_unknown_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["ablate", CONV_ARCH, "--mode", "gradient"])


FOREIGN_FLAGS = [
    (["score", CONV_ARCH, *DESK], ["--jobs", "4"]),
    (["score", CONV_ARCH, *DESK], ["--bench", "t.csv"]),
    (["dump-kernel", CONV_ARCH, *DESK], ["--n", "3"]),
    (["search", *DESK], ["--seconds", "5", "--eval-cost", "1"]),
    (["search", *DESK], ["--dump-kernel", "raw"]),
    (["rea", "--bench", "t.csv"], ["--preset", "desk"]),
    (["rea", "--bench", "t.csv"], ["--batch-size", "8"]),
    (["area", "--bench", "t.csv", *DESK], ["--jobs", "2"]),
    (["correlate", "--bench", "t.csv", *DESK], ["--pop", "4"]),
    (["ablate", CONV_ARCH, *DESK, "--mode", "inits"], ["--n", "3"]),
]


class TestFlagsPerSubcommand:
    # each subcommand parses only the flags it reads; any other flag is
    # an argument error, not a silently ignored setting
    @pytest.mark.parametrize("argv,foreign", FOREIGN_FLAGS,
                             ids=[f"{argv[0]}{foreign[0]}" for argv, foreign in FOREIGN_FLAGS])
    def test_foreign_flag_fails_like_an_unknown_flag(self, capsys, argv, foreign):
        with pytest.raises(SystemExit) as exc:
            main(argv + foreign)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(foreign)}\n")


class TestConfigResolution:
    def test_config_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset=desk\nbatch_size=8\nseed=3\n", encoding="utf-8")
        out_file = tmp_path / "k.csv"
        run(capsys, "dump-kernel", CONV_ARCH, "--config", str(cfg), "--out", str(out_file))
        comments, _ = read_rows(out_file)
        assert "# seed=3" in comments
        assert "# batch_size=8" in comments
        assert "# preset=desk" in comments

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset=desk\nbatch_size=8\nseed=3\n", encoding="utf-8")
        out_file = tmp_path / "k.csv"
        run(capsys, "dump-kernel", CONV_ARCH, "--config", str(cfg),
            "--seed", "5", "--out", str(out_file))
        comments, _ = read_rows(out_file)
        assert "# seed=5" in comments

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed=9\n", encoding="utf-8")
        code, _, err = run(capsys, "score", CONV_ARCH, "--config", str(cfg))
        assert code == 1
        assert "warp_speed" in err

    @pytest.mark.parametrize("argv,line", [
        (["score", CONV_ARCH, *DESK], "jobs=4"),
        (["score", CONV_ARCH, *DESK], "jobs=0"),
        (["search", *DESK, "--n", "2"], "eval_cost=1"),
        (["rea", "--bench", "t.csv"], "preset=desk"),
        (["rea", "--bench", "t.csv"], "init_seed=3"),
        (["correlate", "--bench", "t.csv", *DESK], "pool=4"),
    ], ids=["score-jobs", "score-jobs0", "search-eval_cost", "rea-preset", "rea-init_seed", "correlate-pool"])
    def test_config_key_the_subcommand_does_not_read_rejected(self, capsys, tmp_path, argv, line):
        # like a foreign flag, a foreign config key is an error, not a
        # silently ignored setting
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=3\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        key = line.partition("=")[0]
        assert code == 1
        assert out == ""
        assert err == f"error: ValueError: {cfg}:2: {argv[0]} does not read setting {key!r}\n"

    def test_network_fields_settable_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stem_channels=4\ncells_per_stage=1\ninput_shape=3x8x8\nbatch_size=8\n",
                       encoding="utf-8")
        code, out, _ = run(capsys, "score", CONV_ARCH, "--config", str(cfg))
        assert code == 0
        assert "status VALID" in out

    def test_two_entry_input_shape_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset=desk\nbatch_size=8\ninput_shape=3x8\n", encoding="utf-8")
        code, out, err = run(capsys, "score", CONV_ARCH, "--config", str(cfg))
        assert code == 1
        assert err == "error: ValueError: input_shape must be three ints (channels, height, width), got (3, 8)\n"
        assert out == ""

    def test_negative_seed_rejected_by_name(self, capsys):
        code, out, err = run(capsys, "score", CONV_ARCH, "--preset", "desk", "--batch-size", "8", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: ValueError: seed must be an int >= 0, got -1\n"

    def test_negative_init_seed_in_config_rejected_by_name(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset=desk\nbatch_size=8\ninit_seed=-1\n", encoding="utf-8")
        code, out, err = run(capsys, "score", CONV_ARCH, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: ValueError: init_seed must be an int >= 0, got -1\n"

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_bn_epsilon_rejected(self, capsys, tmp_path, epsilon):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset=desk\nbatch_size=8\nbn_epsilon={epsilon}\n", encoding="utf-8")
        code, out, err = run(capsys, "score", CONV_ARCH, "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ValueError:") and err.count("\n") == 1
        assert out == ""

    def test_header_echoes_only_the_settings_the_subcommand_reads(self, capsys, tmp_path, full_bench_csv):
        bench = str(full_bench_csv)
        network = {"batch_size", "init_seed", "input", "preset"}
        evolution = {"bench", "budget", "metric", "pop", "tournament"}
        cases = {
            "score": (["score", CONV_ARCH, *DESK, "--dump-kernel", "raw"],
                      {"arch", "dump_kernel", *network}),
            "dump-kernel": (["dump-kernel", CONV_ARCH, *DESK], {"arch", "dump_kernel", *network}),
            "search": (["search", *DESK, "--n", "3"], {"jobs", "n", *network}),
            "rea": (["rea", "--bench", bench, "--pop", "3", "--tournament", "2", "--budget", "3"],
                    evolution),
            "area": (["area", "--bench", bench, *DESK, "--pool", "4", "--pop", "2",
                      "--tournament", "2", "--budget", "3"], {"pool", *evolution, *network}),
            "correlate": (["correlate", "--bench", bench, *DESK, "--n", "3"],
                          {"bench", "metric", "n", *network}),
            "ablate": (["ablate", CONV_ARCH, *DESK, "--mode", "batches", "--repeats", "2"],
                       {"arch", "mode", "repeats", *network}),
        }
        assert set(cases) == set(cli._SUBCOMMANDS)
        for name, (argv, own) in cases.items():
            path = tmp_path / f"{name}.csv"
            assert run(capsys, *argv, "--out", str(path))[0] == 0, name
            comments, _ = read_rows(path)
            keys = [c[2:].partition("=")[0] for c in comments]
            assert keys == sorted({"seed", "subcommand", *own}), name

    def test_every_output_file_starts_with_config_echo(self, capsys, tmp_path, full_bench_csv):
        produced = []
        for name, args in {
            "search": ["search", *DESK, "--n", "3"],
            "rea": ["rea", "--bench", str(full_bench_csv), "--pop", "3",
                    "--tournament", "2", "--budget", "3"],
            "ablate": ["ablate", CONV_ARCH, *DESK, "--mode", "batches", "--repeats", "2"],
            "kernel": ["dump-kernel", CONV_ARCH, *DESK],
        }.items():
            path = tmp_path / f"{name}.csv"
            assert run(capsys, *args, "--out", str(path))[0] == 0
            produced.append(path)
        for path in produced:
            first = path.read_text(encoding="utf-8").splitlines()[0]
            assert first.startswith("# ")


class TestErrors:
    def test_every_library_error_is_an_expected_error(self):
        # the CLI reports an expected error as one tagged line; a library
        # error outside _EXPECTED_ERRORS would escape as a traceback
        errors = set()
        for info in pkgutil.iter_modules(naswot.__path__):
            module = importlib.import_module(f"naswot.{info.name}")
            errors |= {obj for obj in vars(module).values()
                       if isinstance(obj, type) and issubclass(obj, Exception)
                       and obj.__module__.startswith("naswot.")}
        exported = {getattr(naswot, name) for name in naswot.__all__}
        assert {e for e in exported if isinstance(e, type) and issubclass(e, Exception)} <= errors
        assert len(errors) >= 11
        for error in errors:
            assert issubclass(error, cli._EXPECTED_ERRORS), error.__name__

    def test_missing_bench_file_is_one_tagged_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "rea", "--bench", str(tmp_path / "absent.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: MissingFile: ") and err.count("\n") == 1
