import gc
import warnings

import pytest

from rangemodes import Config, NaiveSeq, RangeModeEngine
from rangemodes.cli import (
    TraceError,
    build_parser,
    fit_loglog_slope,
    generate_trace,
    load_family,
    main,
    run_bench,
    run_fuzz,
    run_intersect,
    run_trace,
)


class TestTrace:
    def test_basic_trace(self):
        lines = ["I 0 5", "I 1 7", "I 2 5", "Q 0 2"]
        assert list(run_trace(lines)) == ["2 5"]

    def test_singleton_trace(self):
        assert list(run_trace(["I 0 1", "Q 0 0"])) == ["1 1"]

    def test_query_on_empty_sequence(self):
        with pytest.raises(TraceError) as err:
            list(run_trace(["Q 0 0"]))
        assert err.value.line_no == 1

    def test_comments_and_blanks_skipped(self):
        lines = ["# header", "", "I 0 3", "  ", "Q 0 0"]
        assert list(run_trace(lines)) == ["1 3"]

    def test_malformed_line_reports_number(self):
        with pytest.raises(TraceError) as err:
            list(run_trace(["I 0 1", "X 1 2 3"]))
        assert err.value.line_no == 2

    def test_non_numeric_field(self):
        with pytest.raises(TraceError) as err:
            list(run_trace(["I zero 1"]))
        assert err.value.line_no == 1

    def test_ties_sorted_ascending(self):
        lines = ["I 0 9", "I 0 4", "Q 0 1"]
        assert list(run_trace(lines)) == ["1 4 9"]

    def test_pure_function_of_text(self):
        lines = generate_trace(seed=5, ops=300, max_len=60, alphabet=4)
        assert list(run_trace(lines)) == list(run_trace(lines))


class TestGenerateTrace:
    def test_deterministic(self):
        a = generate_trace(1, 500, 100, 6)
        b = generate_trace(1, 500, 100, 6)
        assert a == b

    def test_respects_bounds(self):
        lines = generate_trace(7, 2000, 50, 3)
        length = 0
        for line in lines:
            parts = line.split()
            if parts[0] == "I":
                assert 0 <= int(parts[1]) <= length
                length += 1
                assert length <= 50
            elif parts[0] == "D":
                assert 0 <= int(parts[1]) < length
                length -= 1
            else:
                lo, hi = int(parts[1]), int(parts[2])
                assert 0 <= lo <= hi < length

    def test_mix_roughly_40_20_40(self):
        lines = generate_trace(3, 10000, 10**9, 5)
        kinds = [line[0] for line in lines]
        assert 0.30 < kinds.count("I") / len(kinds) < 0.50
        assert 0.10 < kinds.count("D") / len(kinds) < 0.30
        assert 0.30 < kinds.count("Q") / len(kinds) < 0.50


class TestFuzz:
    def test_small_run_succeeds(self):
        report = run_fuzz(seed=1, ops=800, max_len=120, alphabet=5)
        assert report.ok
        assert report.queries > 0

    def test_reports_are_reproducible(self):
        a = run_fuzz(seed=9, ops=500, max_len=80, alphabet=4)
        b = run_fuzz(seed=9, ops=500, max_len=80, alphabet=4)
        assert a == b
        assert a.summary() == b.summary()

    def test_fault_injection_produces_reproducer(self):
        class BrokenEngine(RangeModeEngine):
            def modes(self, lo, hi):
                result = super().modes(lo, hi)
                if len(self) > 40:  # inject a wrong answer late in the run
                    return type(result)(result.multiplicity + 1, result.modes)
                return result

        report = run_fuzz(
            seed=2,
            ops=600,
            max_len=100,
            alphabet=4,
            engine_factory=lambda: BrokenEngine((), Config()),
        )
        assert not report.ok
        assert report.reproducer
        assert "DIVERGENCE" in report.summary()
        # The reproducer replays to the recorded failure.
        replayed = list(run_trace(report.reproducer))
        oracle = NaiveSeq()
        answers = []
        for line in report.reproducer:
            parts = line.split()
            if parts[0] == "I":
                oracle.insert_at(int(parts[1]), int(parts[2]))
            elif parts[0] == "D":
                oracle.delete_at(int(parts[1]))
            else:
                res = oracle.modes(int(parts[1]), int(parts[2]))
                answers.append(" ".join([str(res.multiplicity), *map(str, res.modes)]))
        assert replayed == answers  # honest engine agrees with the oracle

    def test_audit_hook_runs(self):
        report = run_fuzz(
            seed=4,
            ops=400,
            max_len=60,
            alphabet=3,
            config=Config(audit_mode=True),
            audit_every=100,
        )
        assert report.ok


class TestBench:
    def test_zero_repetitions_header_only(self):
        rows = list(run_bench([64, 128], alphabet=4, repetitions=0))
        assert rows == ["n,sigma_prime,op,median_ns,output_size"]

    def test_rows_and_slope_summary(self):
        rows = list(run_bench([64, 256], alphabet=4, mix=("insert", "modes"), repetitions=5))
        header, *rest = rows
        assert header == "n,sigma_prime,op,median_ns,output_size"
        data = [row for row in rest if not row.startswith("#")]
        slopes = [row for row in rest if row.startswith("# slope")]
        assert len(data) == 4  # two sizes x two ops
        for row in data:
            n, sigma, op, median, out = row.split(",")
            assert int(n) in (64, 256)
            assert int(sigma) <= 4
            assert op in ("insert", "modes")
            assert int(median) >= 0
            assert int(out) >= 0
        assert len(slopes) == 2

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            list(run_bench([16], alphabet=2, mix=("sort",), repetitions=1))

    def test_slope_fit(self):
        # t = n^2 exactly -> slope 2.
        points = [(10, 100.0), (100, 10000.0), (1000, 1000000.0)]
        assert abs(fit_loglog_slope(points) - 2.0) < 1e-9


FAMILY_TEXT = """\
# two sets over {0,1}
2 2
2 0 1
1 0
"""


class TestIntersectCommand:
    def family(self):
        return load_family(FAMILY_TEXT.splitlines())

    def test_query_and_updates(self):
        family = self.family()
        out = list(
            run_intersect(family, ["? 1 2", "+ 2 1", "? 1 2", "- 2 0", "? 1 2"])
        )
        assert out == ["0", "0 1", "1"]

    def test_disjoint_prints_dash(self):
        family = load_family(["2 2", "1 0", "1 1"])
        assert list(run_intersect(family, ["? 1 2"])) == ["-"]

    def test_bad_query_line_number(self):
        family = self.family()
        with pytest.raises(TraceError) as err:
            list(run_intersect(family, ["? 1 2", "? 9 9"]))
        assert err.value.line_no == 2

    def test_family_header_errors(self):
        with pytest.raises(TraceError):
            load_family([])
        with pytest.raises(TraceError):
            load_family(["1"])
        with pytest.raises(TraceError):
            load_family(["2 2", "1 0"])  # missing a set line
        with pytest.raises(TraceError):
            load_family(["2 1", "3 0 1"])  # count does not match members


class TestMain:
    def test_trace_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "ops.trace"
        trace.write_text("I 0 5\nI 1 7\nI 2 5\nQ 0 2\n")
        assert main(["trace", str(trace)]) == 0
        assert capsys.readouterr().out == "2 5\n"

    def test_trace_alpha_flag(self, tmp_path, capsys):
        trace = tmp_path / "ops.trace"
        trace.write_text("I 0 1\nI 1 2\nI 2 1\nQ 0 2\n")
        assert main(["trace", str(trace), "--alpha", "1/2", "--audit"]) == 0
        assert capsys.readouterr().out == "2 1\n"

    def test_trace_error_exit_code(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("Q 0 0\n")
        assert main(["trace", str(trace)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_fuzz_subcommand(self, capsys):
        code = main(
            ["fuzz", "--seed", "3", "--ops", "300", "--max-len", "50", "--alphabet", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: OK" in out

    @pytest.mark.parametrize(
        ("flags", "header_end"),
        [([], "alpha=1/3 audit=False"), (["--alpha", "2/5", "--audit"], "alpha=2/5 audit=True")],
        ids=["default", "alpha-audit"],
    )
    def test_fuzz_header_names_config(self, capsys, flags, header_end):
        code = main(["fuzz", "--seed", "3", "--ops", "50", "--max-len", "20", *flags])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(header_end)

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [
            ("trace", "--alpha", "2"),
            ("trace", "--alpha", "abc"),
            ("trace", "--alpha", "1/0"),
            ("fuzz", "--alphabet", "0"),
            ("bench", "--alphabet", "0"),
            ("bench", "--mix", "sort"),
            ("bench", "--mix", "insert,sort"),
            ("bench", "--sizes", "abc"),
            ("bench", "--sizes", "0"),
            ("bench", "--sizes", ","),
            ("bench", "--repetitions", "0"),
        ],
    )
    def test_bad_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        trace = tmp_path / "ops.trace"
        trace.write_text("I 0 1\nQ 0 0\n")
        argv = [command, flag, value] + ([str(trace)] if command == "trace" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "{missing}"],
            ["intersect", "--family", "{missing}", "{queries}"],
            ["intersect", "--family", "{family}", "{missing}"],
        ],
    )
    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys, argv):
        paths = {
            "missing": tmp_path / "absent" / "x.trace",
            "family": tmp_path / "family.txt",
            "queries": tmp_path / "queries.txt",
        }
        paths["family"].write_text(FAMILY_TEXT)
        paths["queries"].write_text("? 1 2\n")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "x.trace" in err

    def test_missing_query_file_closes_the_family_file(self, tmp_path, capsys):
        family = tmp_path / "family.txt"
        family.write_text(FAMILY_TEXT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(SystemExit):
                main(["intersect", "--family", str(family), str(tmp_path / "absent.txt")])
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert "absent.txt" in capsys.readouterr().err

    def test_bench_subcommand(self, capsys):
        code = main(
            ["bench", "--sizes", "32,64", "--repetitions", "2", "--alphabet", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,sigma_prime,op,median_ns,output_size"

    def test_intersect_subcommand(self, tmp_path, capsys):
        fam = tmp_path / "family.txt"
        fam.write_text(FAMILY_TEXT)
        queries = tmp_path / "queries.txt"
        queries.write_text("? 1 2\n")
        assert main(["intersect", "--family", str(fam), str(queries)]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fuzz_divergence_dumps_reproducer(self, tmp_path, capsys, monkeypatch):
        from rangemodes import cli as cli_module
        from rangemodes.cli import FuzzReport

        fake = FuzzReport(
            False, 3, 1, 0, failure="op 2: Q 0 0 -> mismatch", reproducer=["I 0 1", "Q 0 0"]
        )
        monkeypatch.setattr(cli_module, "run_fuzz", lambda **kwargs: fake)
        dump = tmp_path / "repro.trace"
        code = main(["fuzz", "--seed", "1", "--ops", "3", "--dump", str(dump)])
        assert code == 1
        assert dump.read_text() == "I 0 1\nQ 0 0\n"
        assert "DIVERGENCE" in capsys.readouterr().out
