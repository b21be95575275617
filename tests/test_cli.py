import gc
import random
import warnings

import pytest
from probe import ignore_capacity, priced_bytes

from rangemodes import InvariantError, NaiveSeq, RangeModeEngine, multiset
from rangemodes.cli import (
    TraceError,
    build_parser,
    generate_trace,
    load_family,
    main,
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
        for bad in ("X 1 2 3", "I 0 1 2"):  # unknown op, wrong field count
            with pytest.raises(TraceError) as err:
                list(run_trace(["I 0 1", bad]))
            assert err.value.line_no == 2

    def test_non_numeric_field(self):
        with pytest.raises(TraceError) as err:
            list(run_trace(["I zero 1"]))
        assert err.value.line_no == 1

    def test_ties_sorted_ascending(self):
        lines = ["I 0 9", "I 0 4", "Q 0 1"]
        assert list(run_trace(lines)) == ["1 4 9"]

    def test_relocate_lines(self):
        # [5, 7, 5] -> [5, 5, 7] -> [7, 5, 5]
        lines = ["I 0 5", "I 1 7", "I 2 5", "Q 0 1", "R 1 2", "Q 0 1", "R 2 0", "Q 0 0"]
        assert list(run_trace(lines)) == ["1 5 7", "2 5", "1 7"]
        for bad in ("R 0 3", "R 3 0", "R 0"):  # out of range, wrong field count
            with pytest.raises(TraceError) as err:
                list(run_trace([*lines, bad]))
            assert err.value.line_no == len(lines) + 1

    def test_relocations_match_the_oracle(self):
        rng = random.Random(7)
        oracle = NaiveSeq()
        lines, want = [], []
        for _ in range(600):
            n = len(oracle)
            roll = rng.random()
            if n < 2 or roll < 0.3:
                pos, symbol = rng.randint(0, n), rng.randrange(4)
                oracle.insert_at(pos, symbol)
                lines.append(f"I {pos} {symbol}")
            elif roll < 0.7:
                src, dst = rng.randrange(n), rng.randrange(n)
                oracle.relocate(src, dst)
                lines.append(f"R {src} {dst}")
            else:
                lo = rng.randrange(n)
                hi = rng.randint(lo, n - 1)
                result = oracle.modes(lo, hi)
                want.append(" ".join(map(str, [result.multiplicity, *result.modes])))
                lines.append(f"Q {lo} {hi}")
        assert list(run_trace(lines)) == want

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
            elif parts[0] == "R":
                assert 0 <= int(parts[1]) < length and 0 <= int(parts[2]) < length
            else:
                lo, hi = int(parts[1]), int(parts[2])
                assert 0 <= lo <= hi < length

    def test_mix_roughly_40_20_32_8(self):
        lines = generate_trace(3, 10000, 10**9, 5)
        kinds = [line[0] for line in lines]
        assert 0.30 < kinds.count("I") / len(kinds) < 0.50
        assert 0.10 < kinds.count("D") / len(kinds) < 0.30
        assert 0.27 < kinds.count("Q") / len(kinds) < 0.37
        assert 0.05 < kinds.count("R") / len(kinds) < 0.11

    def test_half_the_relocations_are_short(self):
        moves = [line.split() for line in generate_trace(3, 10000, 10**9, 5) if line[0] == "R"]
        short = sum(abs(int(src) - int(dst)) <= 16 for _, src, dst in moves)
        assert 0.4 < short / len(moves) < 0.65


    def test_shrinks_to_a_quarter_after_max_len(self):
        lengths = []
        length = 0
        for line in generate_trace(4, 3000, 80, 4):
            length += {"I": 1, "D": -1}.get(line[0], 0)
            lengths.append(length)
        top = lengths.index(80)
        bottom = top + lengths[top:].index(20)
        # Growth resumes only at a quarter, then reaches max_len again.
        assert max(lengths[top + 1 : bottom]) < 80
        assert 80 in lengths[bottom:]


class TestFuzz:
    def test_small_run_succeeds(self):
        report = run_fuzz(seed=1, ops=800, max_len=120, alphabet=5)
        assert report.ok
        assert report.queries > 0

    def test_small_max_len_run_halves_and_ends_ok(self, monkeypatch):
        engines = []
        honest_init = RangeModeEngine.__init__

        def tracked_init(self, *args, **kwargs):
            honest_init(self, *args, **kwargs)
            engines.append(self)

        monkeypatch.setattr(RangeModeEngine, "__init__", tracked_init)
        report = run_fuzz(seed=4, ops=3000, max_len=80, alphabet=4, audit_every=100)
        assert report.ok and report.ops == 3000
        (engine,) = engines
        # Short early lengths halve tiny layouts in any run; this one also
        # halves the largest layout, length 64, on the way down from 80.
        events = engine.reset_events
        assert ("halve", 32) in events[events.index(("double", 64)) :]

    def test_reports_are_reproducible(self):
        a = run_fuzz(seed=9, ops=500, max_len=80, alphabet=4)
        b = run_fuzz(seed=9, ops=500, max_len=80, alphabet=4)
        assert a == b
        assert a.summary() == b.summary()

    def test_fault_injection_produces_reproducer(self, monkeypatch):
        honest_modes = RangeModeEngine.modes

        def broken_modes(self, lo, hi):
            result = honest_modes(self, lo, hi)
            if len(self) > 40:  # inject a wrong answer late in the run
                return type(result)(result.multiplicity + 1, result.modes)
            return result

        monkeypatch.setattr(RangeModeEngine, "modes", broken_modes)
        report = run_fuzz(seed=2, ops=600, max_len=100, alphabet=4)
        monkeypatch.undo()
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
            elif parts[0] == "R":
                oracle.relocate(int(parts[1]), int(parts[2]))
            else:
                res = oracle.modes(int(parts[1]), int(parts[2]))
                answers.append(" ".join([str(res.multiplicity), *map(str, res.modes)]))
        assert replayed == answers  # honest engine agrees with the oracle

    @pytest.mark.parametrize(
        ("fault", "failure"),
        [("raise", "-> engine raised InvariantError("), ("wrong-symbol", "-> engine=")],
        ids=["raise", "wrong-symbol"],
    )
    def test_delete_fault_is_a_divergence(self, tmp_path, capsys, monkeypatch, fault, failure):
        honest_delete = RangeModeEngine.delete

        def broken_delete(self, pos):
            late = len(self) > 40  # inject the fault late in the run
            if late and fault == "raise":
                raise InvariantError("injected")
            symbol = honest_delete(self, pos)
            return symbol + 1 if late else symbol

        monkeypatch.setattr(RangeModeEngine, "delete", broken_delete)
        report = run_fuzz(seed=2, ops=600, max_len=100, alphabet=4)
        dump = tmp_path / "repro.trace"
        argv = ["fuzz", "--seed", "2", "--ops", "600", "--max-len", "100", "--alphabet", "4"]
        assert main([*argv, "--dump", str(dump)]) == 1
        monkeypatch.undo()
        assert not report.ok
        assert failure in report.failure
        assert report.ops == len(report.reproducer)
        assert report.reproducer[-1].startswith("D ")
        assert dump.read_text().splitlines() == report.reproducer
        assert failure in capsys.readouterr().out
        list(run_trace(report.reproducer))  # the honest engine replays it cleanly

    @pytest.mark.parametrize(
        "bad",
        [{"ops": 0}, {"ops": -5}, {"max_len": 0}, {"alphabet": 0}, {"audit_every": -1}],
        ids=["ops-0", "ops-neg", "max_len-0", "alphabet-0", "audit_every-neg"],
    )
    def test_vacuous_counts_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_fuzz(**{"seed": 0, "ops": 10, "max_len": 10, "alphabet": 2, **bad})

    def test_audit_hook_runs(self):
        report = run_fuzz(seed=4, ops=400, max_len=60, alphabet=3, audit_every=100)
        assert report.ok

    def test_block_over_capacity_is_a_divergence(self, monkeypatch):
        # The block an insert targets takes it, full or not: no overflow rebuild.
        ignore_capacity(monkeypatch)
        trace = generate_trace(seed=4, ops=400, max_len=60, alphabet=3)
        engine = RangeModeEngine()
        ops = {"I": engine.insert, "D": engine.delete, "R": engine.relocate, "Q": engine.modes}
        for step, line in enumerate(trace):
            name, *args = line.split()
            ops[name](*map(int, args))
            if max(engine.block_sizes()) > engine.capacity:
                break
        else:
            pytest.fail("no op of the trace overfills a block")
        report = run_fuzz(seed=4, ops=400, max_len=60, alphabet=3)
        assert not report.ok
        assert report.failure.startswith(f"op {step}: {line} -> a block holds ")
        assert f"over capacity {engine.capacity}" in report.failure
        assert report.reproducer == trace[: step + 1]


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
        for bad in ("? 9 9", "? 1"):  # no such set, wrong field count
            with pytest.raises(TraceError) as err:
                list(run_intersect(family, ["? 1 2", bad]))
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
        assert main(["trace", str(trace), "--alpha", "1/2"]) == 0
        assert capsys.readouterr().out == "2 1\n"

    def test_trace_error_exit_code(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("Q 0 0\n")
        assert main(["trace", str(trace)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "intersect"])
    def test_memory_guard_is_a_line_error(self, tmp_path, capsys, monkeypatch, command):
        # An empty engine's 3 slots are priced as 9 ints, offset words, chunk
        # words and edit masks, each a header and a list slot, 3 chunk word
        # lists, each a header and a list slot and a list slot for the 0
        # that leads it, and 3 arrays of up to 2 one-byte column ids with
        # their growth room, each a header and a list slot too; that fits,
        # and the first symbol, a widening to one column, does not.
        fits = sum(priced_bytes(3, 0, 3, 2, "B").values())
        monkeypatch.setattr(multiset, "_memory_limit", lambda: fits)
        family = tmp_path / "family.txt"
        family.write_text("2 2\n2 0 1\n1 0\n")
        ops = tmp_path / "ops.txt"
        ops.write_text("I 0 1\n" if command == "trace" else "? 1 2\n")
        flags = ["--family", str(family)] if command == "intersect" else []
        assert main([command, *flags, str(ops)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: summary table needs ")

    def test_fuzz_subcommand(self, capsys):
        code = main(
            ["fuzz", "--seed", "3", "--ops", "300", "--max-len", "50", "--alphabet", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: OK" in out

    @pytest.mark.parametrize(
        ("flags", "header_end"),
        [([], "alpha=1/3"), (["--alpha", "2/5"], "alpha=2/5")],
        ids=["default", "alpha"],
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
            ("fuzz", "--ops", "0"),
            ("fuzz", "--ops", "-5"),
            ("fuzz", "--max-len", "0"),
            ("fuzz", "--audit-every", "-1"),
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
            ["trace", "--audit"],
            ["fuzz", "--audit"],
            ["fuzz", "--audit", "5"],  # not taken for --audit-every
            ["intersect", "--family", "family.txt", "--audit"],
        ],
        ids=["trace", "fuzz", "fuzz-with-value", "intersect"],
    )
    def test_audit_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --audit" in err

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

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

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
