import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema import validate as schema_validate

from normality_lab import cantor_system, cli, experiments as exp, save_system
from normality_lab.cli import _write_csv, build_parser, main
from normality_lab.ifs import system_to_dict

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "normality_lab" / "schemas"
     / "summary.schema.json").read_text())


@pytest.fixture(scope="module")
def cantor_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("systems") / "cantor.json"
    save_system(cantor_system(), path)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestClassifyCommand:
    def test_cantor_base3(self, cantor_file, capsys):
        code, out = run_cli(["classify", "--system", cantor_file,
                             "--base", "3", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["verdict"] == "MatchesObstructionForm"
        assert payload["results"]["normality_witness"]["found"] is False

    def test_cantor_base2(self, cantor_file, capsys):
        code, out = run_cli(["classify", "--system", cantor_file,
                             "--base", "2", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["verdict"] == "FailsItem1"
        assert payload["results"]["normality_witness"] == {
            "found": True, "map": 1}

    @pytest.fixture(scope="class")
    def semiprime_file(self, tmp_path_factory):
        # slope 1/(P Q), P and Q the first primes after 10^45 and 10^46
        from normality_lab import make_system
        pq = (10 ** 45 + 9) * (10 ** 46 + 121)
        path = tmp_path_factory.mktemp("systems") / "semiprime.json"
        save_system(make_system([(f"1/{pq}", "0"),
                                 (f"1/{pq}", f"{pq - 1}/{pq}")]), path)
        return str(path)

    def test_semiprime_slope_is_decided(self, semiprime_file, capsys):
        start = time.perf_counter()
        code, out = run_cli(["classify", "--system", semiprime_file,
                             "--base", "2", "--format", "json"], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        results = json.loads(out)["results"]
        assert results["verdict"] == "FailsItem1"
        assert results["normality_witness"] == {"found": True, "map": 1}
        assert [m["commensurable"] for m in results["per_map"]] == [False,
                                                                    False]

    def test_classify_leaves_sympy_unloaded(self, semiprime_file):
        probe = ("import sys\n"
                 "from normality_lab.cli import main\n"
                 f"assert main(['classify', '--system', {semiprime_file!r},"
                 " '--base', '2']) == 0\n"
                 "assert 'sympy' not in sys.modules\n"
                 "assert 'mpmath' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_malformed_rational(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"maps": [{"s": "1/0", "t": "0"}], "weights": ["1"]}')
        code = main(["classify", "--system", str(bad), "--base", "2"])
        assert code == 4

    def test_invalid_system(self, tmp_path, capsys):
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps({
            "maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}],
            "weights": ["1/2", "1/3"], "hull": ["0", "1"]}))
        code = main(["validate", "--system", str(bad)])
        assert code == 2

    def test_bad_flag(self, cantor_file, capsys):
        code = main(["classify", "--system", cantor_file])  # missing --base
        assert code == 4

    def test_unreadable_system(self, capsys):
        code = main(["validate", "--system", "/nonexistent/x.json"])
        assert code != 0

    def test_beta_orbit_from_a_point_finer_than_floats(self, cantor_file,
                                                       tmp_path, capsys):
        # the sampled start point needs a radius near 2^-2460, far below
        # the smallest float
        out = tmp_path / "beta.csv"
        code = main(["beta-orbit", "--system", cantor_file, "--beta", "5/2",
                     "--length", "1800", "--out", str(out)])
        assert code == 0
        rows = [line for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 1801  # header + one row per point

    @pytest.mark.parametrize("argv", [
        ["orbit", "--base", "2", "--samples", "0"],
        ["orbit", "--base", "2", "--length", "-5"],
        ["normality", "--base", "2", "--samples", "0"],
        ["normality", "--base", "2", "--length", "-3"],
        ["correlations", "--source", "uniform", "--samples", "0"],
        ["correlations", "--source", "uniform", "--length", "-1"],
        ["spacings", "--source", "uniform", "--samples", "0"],
        ["spacings", "--source", "uniform", "--length", "-2"],
        ["martingale", "--base", "2", "--samples", "0", "--N-list", "10"],
        ["beta-orbit", "--beta", "5/2", "--x", "1/2", "--length", "-4"],
        ["power-orbit", "--x", "3/2", "--length", "-4"],
        ["orbit", "--base", "2", "--samples", "abc"],
        # SeedSequence rejects negative entropy
        ["orbit", "--base", "2", "--seed", "-1"],
        ["digits", "--base", "2", "--seed", "-1"],
        ["fourier", "--q", "6561", "--budget", "-1"],
        ["fourier", "--q", "6561", "--budget", "0"],
        ["beta-orbit", "--beta", "5/2", "--x", "1/2",
         "--precision-bits", "-5"],
        ["power-orbit", "--x", "3/2", "--precision-bits", "0"],
        # resource caps; the exact orbits never read --precision-bits, so
        # these cases allocate nothing even where the cap is missing
        ["normality", "--base", "2", "--length", "50",
         "--q-max", str(10 ** 60)],
        ["normality", "--base", "2", "--length", "50", "--q-max", "100001"],
        ["beta-orbit", "--beta", "5/2", "--x", "1/2",
         "--precision-bits", str(2 ** 16 + 1)],
        ["power-orbit", "--x", "3/2", "--precision-bits", "100000000000"],
        # a NaN threshold passed no sample, and NaN and infinity were
        # printed into the JSON summary
        *(["normality", "--base", "2", "--length", "50", f"{flag}={value}"]
          for flag in ("--disc-threshold", "--weyl-threshold")
          for value in ("nan", "inf", "-inf")),
    ])
    def test_rejected_at_parse_time(self, cantor_file, capsys, argv):
        assert main(argv + ["--system", cantor_file]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: argument --")

    @pytest.mark.parametrize("argv, dest, cap", [
        (["normality", "--base", "2", "--system", "x"], "q_max", 10 ** 5),
        (["beta-orbit", "--beta", "5/2"], "precision_bits", 2 ** 16),
        (["power-orbit", "--x", "3/2"], "precision_bits", 2 ** 16),
        (["spacings", "--source", "uniform"], "length", 2 ** 22),
        (["correlations", "--source", "uniform"], "length", 2 ** 22),
        (["beta-orbit", "--beta", "5/2"], "length", 2 ** 22),
        (["power-orbit", "--x", "3/2"], "length", 2 ** 22),
    ])
    def test_caps_are_inclusive(self, argv, dest, cap):
        flag = "--" + dest.replace("_", "-")
        args = build_parser().parse_args(argv + [flag, str(cap)])
        assert getattr(args, dest) == cap

    @pytest.mark.parametrize("argv", [
        ["orbit", "--base", "2"],
        ["normality", "--base", "2"],
        ["correlations", "--source", "uniform"],
        ["spacings", "--source", "uniform"],
    ])
    def test_zero_length_is_a_validation_error(self, cantor_file, capsys,
                                               argv):
        assert main(argv + ["--length", "0", "--system", cantor_file]) == 2

    @pytest.mark.parametrize("argv", [
        ["orbit", "--base", "1"],
        ["normality", "--base", "1"],
        ["correlations", "--source", "orbit", "--base", "1"],
    ])
    def test_base_one_exits_without_hanging(self, cantor_file, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "normality_lab.cli", *argv,
             "--system", cantor_file], capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 2
        assert "base must be >= 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, code", [
        # NaN fails every comparison: it emptied the float chain's live set
        # (martingale) or expanded the transform toward its node budget
        (["martingale", "--base", "2", "--q", "1", "--N-list", "50",
          "--tol", "nan"], 4),
        (["fourier", "--q", "3", "--tol", "nan"], 4),
        (["decay", "--tol", "0"], 4),
        (["decay", "--tol", "-1e-6"], 4),
        (["decay", "--tol", "inf"], 4),
        (["decay", "--per-band", "0"], 4),
        (["spacings", "--source", "uniform", "--s-grid", "0:5:0"], 4),
        (["spacings", "--source", "uniform", "--s-grid", "0:5:-0.5"], 4),
        (["orbit", "--base", "2", "--out", "/nonexistent/dir/x.csv"], 4),
        # (1, 2^16] holds the roots 2, 3 and 4
        (["beta-orbit", "--beta-poly", "1,-9,26,-24", "--x", "1/3"], 2),
        # the sampled start point is sized by log2(beta)
        (["beta-orbit", "--beta", "0"], 2),
        (["beta-orbit", "--beta-poly", "1,2", "--beta-lo", "-3",
          "--beta-hi", "-1"], 2),
        # float(1e400) overflows; the half-width is compared exactly
        (["correlations", "--source", "uniform", "--length", "10",
          "--box", "1e400"], 2),
        # a frequency past the float range is valid input
        (["fourier", "--q", "1e400"], 0),
        # the cylinder modes' float chain cannot hold this q
        (["martingale", "--base", "2", "--q", str(10 ** 400), "--N-list",
          "50"], 2),
        (["martingale", "--base", "2", "--q", "", "--N-list", "50"], 4),
        # digits are int64: bases from 2^63 are rejected, 2^62 runs
        (["orbit", "--base", str(2 ** 63), "--length", "5"], 2),
        (["normality", "--base", str(2 ** 63), "--length", "5"], 2),
        (["correlations", "--source", "orbit", "--base", str(2 ** 63),
          "--length", "5"], 2),
        (["digits", "--base", str(2 ** 63), "--count", "5"], 2),
        (["martingale", "--base", str(2 ** 63), "--N-list", "5"], 2),
        (["digits", "--base", str(2 ** 62), "--count", "5"], 0),
        # the root 1 + 2^-20 is decided > 1 exactly, not from a 2^-16
        # enclosure; a root at exactly 1 is still rejected
        (["beta-orbit", "--beta-poly", "1048576,-1048577", "--beta-lo", "1",
          "--beta-hi", "2", "--x", "1/3", "--length", "5"], 0),
        (["beta-orbit", "--beta-poly", "1,-1", "--beta-lo", "1/2",
          "--beta-hi", "3", "--x", "1/3", "--length", "5"], 2),
        (["beta-orbit", "--beta-poly", "1,-1", "--beta-lo", "0",
          "--beta-hi", "2", "--x", "1/3", "--length", "5"], 2),
        # exact multipliers at or below 1
        (["beta-orbit", "--beta", "1/2", "--x", "1/3"], 2),
        (["power-orbit", "--x", "1/2"], 2),
        # numpy refused this q-max with a ValueError (exit 1)
        (["normality", "--base", "2", "--length", "50",
          "--q-max", str(10 ** 60)], 4),
        (["power-orbit", "--x", "3/2", "--precision-bits", "100000000000"],
         4),
        # a negative guard was read as a cell-boundary failure (exit 3)
        (["orbit", "--length", "3000", "--base", "2", "--guard", "-100000"],
         4),
        (["digits", "--base", "2", "--guard", "-1"], 4),
        (["normality", "--base", "2", "--length", "50", "--guard", "-1"], 4),
        # digit counts past 2^22: base**count was formed before any check,
        # and a run did not return within the timeout
        (["digits", "--base", "2", "--count", "1000000000000"], 4),
        (["orbit", "--base", "2", "--length", "1000000000000"], 4),
        (["normality", "--base", "2", "--length", "1000000000000"], 4),
        (["digits", "--base", "2", "--guard", "1000000000000"], 4),
        # under 2^22 digits, over 2^22 bits: checked before the word
        (["digits", "--base", "10", "--count", "4000000"], 4),
        # the stopping walk, which runs first, is capped at
        # N^2 log2(p) <= 2^30
        (["martingale", "--base", "2", "--N-list", "10,1000000000000"], 4),
        (["martingale", "--base", str(2 ** 40), "--N-list", "200000"], 4),
        # numpy failed to allocate the sample (exit 1 with a traceback)
        (["spacings", "--source", "uniform", "--length", "1000000000000"], 4),
        # ... or a grid of 10^12 points, counted now before it is made
        (["spacings", "--source", "uniform", "--length", "10",
          "--s-grid", "0:1e9:1e-3"], 4),
        # samples x length x q-max Weyl terms at most 2^28: this one is
        # about a minute of Weyl sums
        (["normality", "--base", "2", "--length", "100000",
          "--q-max", "10000"], 4),
        # the exact carries: length x integer bits at most 2.5e10, checked
        # before the loop; at these lengths they ran for hours
        (["power-orbit", "--x", "7/3", "--length", str(2 ** 22)], 4),
        (["power-orbit", "--x", "3/2", "--length", str(2 ** 22)], 4),
        (["beta-orbit", "--beta", "5/2", "--x", "1/3",
          "--length", str(2 ** 22)], 4),
        (["correlations", "--source", "uniform",
          "--length", "1000000000000"], 4),
        # --j-max is a size, checked at parse time like the others (exit 2
        # from decay_profile before)
        (["decay", "--j-max", "41"], 4),
        (["decay", "--j-max", "-1"], 4),
        # a system file holding Cantor's definition with one field
        # replaced: tracebacks (exit 1) before, or a string or three
        # entries silently taken as a hull
        *[(argv, 4) for field in ({"hull": 5}, {"hull": []},
                                  {"hull": ["0"]}, {"hull": {"a": 1}},
                                  {"weights": 5}, {"hull": "01"},
                                  {"hull": ["0", "1", "2"]})
          for argv in (["validate", "--system", field],
                       ["fourier", "--q", "1", "--system", field])],
        # --samples times one sample's size, checked before any sample
        (["orbit", "--base", "2", "--length", "100000",
          "--samples", "100"], 4),
        (["normality", "--base", "2", "--length", "100000",
          "--samples", "100"], 4),
        (["correlations", "--source", "uniform", "--length", "100000",
          "--samples", "100"], 4),
        (["correlations", "--source", "power", "--x", "3/2", "--length",
          "0", "--samples", str(10 ** 12)], 4),
        (["spacings", "--source", "power", "--x", "3/2", "--length", "20",
          "--samples", "10000"], 4),
        (["spacings", "--source", "orbit", "--base", "10", "--length",
          "100000", "--samples", "20"], 4),
        (["martingale", "--base", "2", "--N-list", "20000",
          "--samples", "3"], 4),
    ])
    def test_bad_input_exits_with_its_code(self, cantor_file, tmp_path, argv,
                                           code):
        # a dict is a system file: Cantor's definition updated with it
        for i, arg in enumerate(argv):
            if isinstance(arg, dict):
                path = tmp_path / "system.json"
                path.write_text(json.dumps(
                    {**system_to_dict(cantor_system()), **arg}))
                argv = [*argv[:i], str(path), *argv[i + 1:]]
        if "--system" not in argv:
            argv = [*argv, "--system", cantor_file]
        proc = subprocess.run(
            [sys.executable, "-m", "normality_lab.cli", *argv],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if "--out" in argv:
            assert "/nonexistent/dir/x.csv" in proc.stderr

    @pytest.mark.parametrize("field, value", [
        ("maps", 5), ("maps", [{"s": "1/3"}]), ("weights", 5),
        ("weights", "11"), ("hull", []), ("hull", ["0", "1", "2"]),
        ("hull", "01"),
    ])
    def test_a_malformed_system_field_is_named(self, tmp_path, capsys, field,
                                               value):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(
            {**system_to_dict(cantor_system()), field: value}))
        start = time.perf_counter()
        assert main(["fourier", "--q", "1", "--system", str(path)]) == 4
        assert time.perf_counter() - start < 1.0
        assert f"'{field}' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["beta-orbit", "--beta", "1/2", "--x", "1/3"],
        ["beta-orbit", "--beta", "1", "--x", "1/3"],
        ["power-orbit", "--x", "1/2"],
        ["power-orbit", "--x", "1"],
    ])
    def test_multiplier_not_above_one_is_named(self, capsys, argv):
        assert main(argv) == 2
        assert "need a multiplier certified > 1" in capsys.readouterr().err

    def test_sampled_start_shares_the_multiplier_check(self, cantor_file,
                                                       capsys):
        errs = []
        for start in (["--system", cantor_file], ["--x", "1/3"]):
            assert main(["beta-orbit", "--beta", "1/2", *start]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]

    _GOLDEN = ["beta-orbit", "--beta-poly", "1,-1,-1", "--beta-lo", "1",
               "--beta-hi", "2"]

    @pytest.mark.parametrize("flags", [
        # 1025 values at 65536 bits and 9800 at 6882: length x bits > 2^26
        ["--x", "2/7", "--length", "1025", "--precision-bits", "65536"],
        ["--x", "2/7", "--length", "9800"],
        # a 2^20-bit floor ran the ball loop for half a minute
        ["--x", "2/7", "--length", "100", "--precision-bits", "1048576"],
    ])
    def test_ball_work_over_the_caps_exits_4(self, capsys, flags):
        assert main(self._GOLDEN + flags) == 4
        assert "config error" in capsys.readouterr().err

    def test_ball_caps_are_checked_before_sampling(self, cantor_file, capsys,
                                                   monkeypatch):
        # 7200 values of beta = 5/2 would need a 9595-bit start point
        monkeypatch.setattr(exp, "sampled_point",
                            lambda *a: pytest.fail("point was sampled"))
        assert main(["beta-orbit", "--system", cantor_file, "--beta", "5/2",
                     "--length", "7200"]) == 4
        assert "over the caps" in capsys.readouterr().err

    def test_a_decay_grid_over_the_cap_exits_4_at_once(self, cantor_file,
                                                       capsys):
        # 2^40 per band up to j = 40 asks for about 2^41 points; band 30
        # alone was a set of 2^30 ints, built before any check
        t0 = time.perf_counter()
        assert main(["decay", "--system", cantor_file, "--j-max", "40",
                     "--per-band", str(2 ** 40)]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "over the cap of 65536" in capsys.readouterr().err

    @pytest.mark.parametrize("j_max, per_band, passes", [
        (16, 512, True),       # the default: 4,607 leading integers
        (16, 8192, True),      # 40,959 leading integers
        (40, 1, True),
        (16, 2 ** 16, False),  # 131,071 leading integers
        (15, 2 ** 15, False),  # 65,535 leading integers and 16 x 2 powers
    ])
    def test_decay_grid_bound(self, cantor_file, monkeypatch, j_max,
                              per_band, passes):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(exp, "decay_profile", reached)
        argv = ["decay", "--system", cantor_file, "--j-max", str(j_max),
                "--per-band", str(per_band)]
        if passes:
            with pytest.raises(Reached):
                main(argv)
        else:
            assert main(argv) == 4

    def test_sampled_start_is_sized_from_the_certified_beta(
            self, cantor_file, tmp_path, monkeypatch):
        # the golden ratio's certified enclosure, not the bracket end,
        # bounds beta: a wider bracket samples the same point
        targets = []
        sample = exp.sampled_point
        monkeypatch.setattr(exp, "sampled_point", lambda *a: (
            targets.append(a[2]) or sample(*a)))
        for hi in ("2", "65536"):
            assert main(["beta-orbit", "--system", cantor_file,
                         "--beta-poly", "1,-1,-1", "--beta-lo", "1",
                         "--beta-hi", hi, "--length", "300",
                         "--out", str(tmp_path / "out")]) == 0
        assert targets[0] == targets[1]


# The exit-code property gives one flag (or none) a literal from
# _ODD_LITERALS, each bad input for some flag, and every other flag a
# valid small value, so each run stays small and reaches past parsing
_ODD_LITERALS = ["0", "-1", "1", "1/0", "nan", "inf", "1e400", "abc"]
_SMALL_INTS = [str(i) for i in range(65)]
_SIZE_FLAGS = {"--length", "--count", "--N-list", "--samples", "--j-max",
               "--per-band", "--q-max", "--k"}
_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@st.composite
def _argvs(draw, system_file):
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flags = [a for a in _SUBCOMMANDS[name]._actions if a.option_strings
             and a.option_strings[-1] not in ("--help", "--out")]
    odd = draw(st.sampled_from([None] + flags))
    argv = [name]
    for action in flags:
        flag = action.option_strings[-1]
        if action is odd:
            value = draw(st.sampled_from(_ODD_LITERALS))
        elif flag == "--system":
            value = system_file
        elif action.choices:
            value = draw(st.sampled_from(sorted(action.choices)))
        else:
            value = draw(st.sampled_from(_SMALL_INTS))
        # sizes are always given, so no run falls back to a large default
        if (action is odd or action.required or flag in _SIZE_FLAGS
                or draw(st.booleans())):
            argv.append(f"{flag}={value}")
    return argv


class TestExitCodeProperty:
    @settings(max_examples=1500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_input_ends_in_a_documented_code(self, cantor_file, data):
        argv = data.draw(_argvs(cantor_file))
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(20)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3, 4), argv


class TestBenchmarkTracer:
    """The benchmark's tracer wraps functions at the bindings it names; a
    renamed binding would break its traced runs."""

    @staticmethod
    def _spans():
        path = Path(__file__).parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        return spans

    def test_install_and_restore(self, cantor_file, capsys):
        spans = self._spans()
        rec = spans.Recorder()
        try:
            spans.install(rec)
            patched = list(rec._patches)
            assert main(["power-orbit", "--x", "3/2", "--length", "5"]) == 0
            assert main(["martingale", "--base", "2", "--q", "1",
                         "--N-list", "20", "--system", cantor_file]) == 0
        finally:
            rec.restore()
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original
        names = {s.name for s in rec.spans}
        assert {"experiments.run_power_orbit", "sampling.power_orbit",
                "martingale.stopping_records", "sampling.digits",
                "sampling.orbit_sequence"} <= names

    def test_transform_spans(self, cantor_file, golden_files, capsys):
        # the transform layer's metrics read the fourier.fourier_exact spans
        # under fourier.decay_profile; the exact cylinder modes of an
        # inhomogeneous system must still run under the recorder
        spans = self._spans()
        rec = spans.Recorder()
        try:
            spans.install(rec)
            assert main(["decay", "--j-max", "3", "--per-band", "4",
                         "--system", cantor_file]) == 0
            assert main(["martingale", "--base", "2", "--q", "1,2",
                         "--N-list", "20", "--system",
                         golden_files["inh"]]) == 0
        finally:
            rec.restore()
        by_id = {s.id: s for s in rec.spans}
        assert any(s.name == "fourier.fourier_exact" and s.parent in by_id
                   and by_id[s.parent].name == "fourier.decay_profile"
                   for s in rec.spans)


class TestOutputs:
    def test_csv_deterministic(self, cantor_file, tmp_path, capsys):
        outs = []
        for i in range(2):
            path = tmp_path / f"orbit{i}.csv"
            code = main(["orbit", "--system", cantor_file, "--base", "2",
                         "--length", "50", "--seed", "9",
                         "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_metadata_header(self, cantor_file, capsys):
        code, out = run_cli(["digits", "--system", cantor_file, "--base", "3",
                             "--count", "5", "--seed", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# tool=normality-lab"
        assert any(line.startswith("# system_hash=") for line in lines)
        assert any(line.startswith("# parameters=") for line in lines)
        assert "n,digit" in lines

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["classify", "--base", "3"],
        ["fourier", "--q", "7/3"],
        ["decay", "--j-max", "8", "--per-band", "16"],
        ["orbit", "--base", "2", "--length", "30"],
        ["digits", "--base", "3", "--count", "20"],
        ["normality", "--base", "2", "--length", "200", "--q-max", "3",
         "--guard", "8"],
        ["martingale", "--base", "2", "--q", "1", "--N-list", "20,50"],
    ])
    def test_json_summaries_validate_against_schema(self, cantor_file,
                                                    capsys, argv):
        code, out = run_cli(argv + ["--system", cantor_file,
                                    "--format", "json"], capsys)
        assert code == 0
        schema_validate(json.loads(out), SCHEMA)

    @pytest.mark.parametrize("argv", [
        ["beta-orbit", "--beta", "5/2", "--x", "1/2", "--length", "10"],
        ["power-orbit", "--x", "3/2", "--length", "10"],
        ["correlations", "--source", "uniform", "--length", "500"],
        ["spacings", "--source", "uniform", "--length", "500",
         "--s-grid", "0:3:0.5"],
    ])
    def test_systemless_summaries_validate(self, capsys, argv):
        code, out = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        schema_validate(json.loads(out), SCHEMA)

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_full_device_exits_4(self, cantor_file, capsys, fmt):
        code = main(["digits", "--system", cantor_file, "--base", "2",
                     "--count", "100", "--format", fmt, "--out", "/dev/full"])
        assert code == 4
        assert "cannot write output file" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_full_stdout_exits_4(self, cantor_file, fmt):
        # `normality-lab digits ... > /dev/full`: exit 4 as with --out, and
        # no traceback from the write or from the flush at exit
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "normality_lab.cli", "digits",
                 "--system", cantor_file, "--base", "2", "--count", "100",
                 "--format", fmt],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 4
        assert "cannot write output" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_closed_pipe_ends_the_run_quietly(self, cantor_file):
        # `normality-lab digits ... | head -1`: the reader leaves while the
        # table is still being written, a block at a time
        proc = subprocess.Popen(
            [sys.executable, "-m", "normality_lab.cli", "digits", "--system",
             cantor_file, "--base", "2", "--count", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"# tool=normality-lab\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_csv_peak_stays_near_the_json_peak(self, cantor_file, tmp_path):
        # the table is written a block of rows at a time, never whole: the
        # CSV run peaked at 2.6x the JSON run when it was built first
        probe = ("import resource, sys\n"
                 "from normality_lab.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(code, resource.getrusage("
                 "resource.RUSAGE_SELF).ru_maxrss)\n")
        peaks = {}
        for fmt in ("csv", "json"):
            proc = subprocess.run(
                [sys.executable, "-c", probe, "digits", "--system",
                 cantor_file, "--base", "2", "--count", "500000",
                 "--format", fmt, "--out", str(tmp_path / f"digits.{fmt}")],
                capture_output=True, text=True, timeout=120)
            code, peaks[fmt] = map(int, proc.stdout.split())
            assert code == 0, proc.stderr
        assert peaks["csv"] <= 1.3 * peaks["json"], peaks

    def test_entry_point_smoke(self, cantor_file):
        proc = subprocess.run(
            [sys.executable, "-m", "normality_lab.cli", "classify",
             "--system", cantor_file, "--base", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "MatchesObstructionForm" not in proc.stderr


_META = {"tool": "t", "version": "0", "subcommand": "s", "seed": 1,
         "system_hash": None, "parameters": {}}
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 1e-05, 1e16])
_TEXT = st.text(st.sampled_from(',"\n\r;') | st.characters(
    blacklist_categories=("Cs",)), max_size=8)
_ELEMENTS = {"int": st.integers(), "float": _FLOATS, "bool": st.booleans(),
             "text": _TEXT}
_ELEMENTS["mixed"] = st.one_of(*_ELEMENTS.values(), _FLOATS.map(np.float64))
_ARRAY_ELEMENTS = dict(_ELEMENTS, int=st.integers(-2 ** 63, 2 ** 63 - 1))
_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_,
           "text": str}


@st.composite
def _columns(draw, n_rows):
    kind = draw(st.sampled_from(sorted(_ELEMENTS)))
    form = draw(st.sampled_from(
        ["list"] + (["array"] if kind in _DTYPES else [])
        + (["range"] if kind == "int" else [])))
    if form == "range":
        start = draw(st.integers(-10 ** 20, 10 ** 20))
        step = draw(st.integers(1, 10 ** 6) | st.integers(-10 ** 6, -1))
        return range(start, start + n_rows * step, step)
    elements = (_ARRAY_ELEMENTS if form == "array" else _ELEMENTS)[kind]
    values = draw(st.lists(elements, min_size=n_rows, max_size=n_rows))
    return np.array(values, dtype=_DTYPES[kind]) if form == "array" \
        else values


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 50))
    names = draw(st.lists(_TEXT, min_size=1, max_size=6, unique=True))
    return {name: draw(_columns(n_rows)) for name in names}


class TestCsvWriter:
    """`_write_csv` formats a column at a time; its bytes are those of the
    csv module writing the same table row by row."""

    @staticmethod
    def _written(table) -> str:
        buf = io.StringIO()
        _write_csv(buf, _META, table)
        return buf.getvalue().split("\n", 6)[6]     # after the metadata

    @staticmethod
    def _csv_module(table) -> str:
        buf = io.StringIO()
        if len(next(iter(table.values()))):
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(table)
            writer.writerows(zip(*table.values()))
        return buf.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(table=_tables())
    def test_bytes_match_the_csv_module(self, table):
        assert self._written(table) == self._csv_module(table)

    @pytest.mark.parametrize("column", [[], range(0), np.array([])])
    def test_a_table_without_rows_has_no_header(self, column):
        assert self._written({"a": column, "b": []}) == ""

    @settings(max_examples=100, deadline=None)
    @given(table=_tables(), rows=st.integers(1, 3))
    @example(table={"a": range(7), "b": np.arange(7.0), "": [""] * 7},
             rows=3)
    @example(table={"": ["", "x,y", "", ""]}, rows=1)
    @example(table={"a": [], "b": range(0)}, rows=2)
    def test_blocks_of_rows_write_the_same_bytes(self, table, rows):
        with mock.patch.object(cli, "_BLOCK_ROWS", rows):
            assert self._written(table) == self._csv_module(table)


class TestSequentialRuns:
    def test_first_of_three_samples_is_the_single_sample_run(self, cantor_file,
                                                             capsys):
        rows = {}
        for samples in ("1", "3"):
            code, out = run_cli(["orbit", "--system", cantor_file,
                                 "--base", "3", "--length", "120",
                                 "--samples", samples, "--seed", "4"], capsys)
            assert code == 0
            lines = [line for line in out.splitlines()
                     if not line.startswith("#")]
            rows[samples] = lines
        first = [line for line in rows["3"][1:] if line.startswith("0,")]
        assert rows["1"][1:] == first
        assert len(rows["3"]) == 1 + 3 * 120

    def test_runners_and_loader_are_looked_up_per_call(self, cantor_file,
                                                       monkeypatch, capsys):
        # the benchmark's tracer replaces these attributes in place
        from normality_lab import cli, experiments
        calls = []

        def wrap(owner, name):
            inner = getattr(owner, name)

            def traced(*a, **k):
                calls.append(name)
                return inner(*a, **k)
            monkeypatch.setattr(owner, name, traced)

        wrap(experiments, "run_digits")
        wrap(cli, "load_system")
        code, _ = run_cli(["digits", "--system", cantor_file, "--base", "2",
                           "--count", "10"], capsys)
        assert code == 0
        assert calls == ["load_system", "run_digits"]

    def test_each_subcommand_has_one_runner(self):
        runners = {name for name in dir(exp) if name.startswith("run_")}
        assert runners == {"run_" + name.replace("-", "_")
                           for name in _SUBCOMMANDS}

    @pytest.mark.parametrize("subcommand", ["correlations", "spacings"])
    def test_power_source_runs_once_per_run(self, subcommand, monkeypatch,
                                            capsys):
        # x^n mod 1 draws nothing at random: every sample is the same orbit
        from normality_lab import experiments
        calls = []
        inner = experiments.power_orbit

        def counted(*a, **k):
            calls.append(a)
            return inner(*a, **k)
        monkeypatch.setattr(experiments, "power_orbit", counted)
        code, out = run_cli([subcommand, "--source", "power", "--x", "5/2",
                             "--length", "200", "--samples", "3"], capsys)
        assert code == 0
        assert len(calls) == 1
        rows = [line.split(",", 1) for line in out.splitlines()[1:]
                if not line.startswith("#")]
        per_sample = [[r[1] for r in rows if r[0] == str(i)]
                      for i in range(3)]
        assert per_sample[0] and per_sample[0] == per_sample[1] \
            == per_sample[2]

    def test_martingale_honours_the_node_budget(self, golden_files, capsys):
        def columns(extra):
            code, out = run_cli(["martingale", "--system", golden_files["inh"],
                                 "--base", "2", "--q", "1,3",
                                 "--N-list", "20,70", *extra], capsys)
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]
                    if not line.startswith("#")]
            return [r[3:5] for r in rows], [r[5:7] for r in rows]

        empirical, cylinder = columns([])
        empirical_1, cylinder_1 = columns(["--budget", "1"])
        assert empirical_1 == empirical
        assert cylinder_1 != cylinder

    def test_martingale_medians_match_a_scan_of_the_table(self, golden_files):
        from normality_lab.ifs import load_system
        from normality_lab.experiments import run_martingale
        args = argparse.Namespace(base=2, q="1,1,3", n_list="30,10,30",
                                  samples=2, seed=5, tol=1e-6,
                                  budget=10 ** 7)
        table, results = run_martingale(args, load_system(golden_files["inh"]))
        rows = list(zip(table["q"], table["N"], table["gap"]))
        assert len(rows) == 2 * 3 * 2
        assert results["median_gaps"] == {
            f"q={q},N={n}": float(np.median(
                [g for rq, rn, g in rows if rq == q and rn == n]))
            for q in (1, 3) for n in (10, 30)}

    def test_import_leaves_sympy_unloaded(self):
        probe = ("import sys\n"
                 "import normality_lab.cli\n"
                 "assert 'sympy' not in sys.modules\n"
                 "assert 'mpmath' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_algebraic_beta_orbit_leaves_mpmath_unloaded(self):
        probe = ("import sys\n"
                 "from normality_lab.cli import main\n"
                 "assert main(['beta-orbit', '--beta-poly', '1,-1,-1',"
                 " '--beta-lo', '1', '--beta-hi', '2', '--x', '2/7',"
                 " '--length', '50']) == 0\n"
                 "assert 'sympy' not in sys.modules\n"
                 "assert 'mpmath' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_parser_is_built_once_and_not_at_import(self):
        probe = ("import normality_lab.cli as cli\n"
                 "assert cli._parser.cache_info().currsize == 0\n"
                 "for _ in range(2):\n"
                 "    assert cli.main(['validate', '--system', 'x']) == 4\n"
                 "info = cli._parser.cache_info()\n"
                 "assert (info.misses, info.hits) == (1, 1), info\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


# sha256 of whole outputs for a fixed set of (system, base, length, seed).
# The orbit/digits/normality cases were recorded before the product-tree
# composition and the vectorised digit and orbit read-off landed; the
# martingale/decay/fourier cases before the fraction-free cylinder modes and
# the integer-pair transform; the correlations/spacings cases before the
# runners became sequential loops and the uniform source moved to
# `uniform_sample`; the beta-orbit/power-orbit cases before beta and power
# orbits shared one ball-iteration loop; the classify cases before
# log-commensurability was decided over a gcd-built coprime base instead of
# prime factorizations; the exact beta-orbit, integer power JSON and
# Python-integer window orbit cases before exact beta and power orbits shared
# one integer carry; the validate, multi-sample orbit, long orbit JSON and
# one-row digits cases before CSV tables became columnar; the long
# golden-ratio and 65536-bit beta-orbit cases before ball orbits stepped bare
# integers and algebraic enclosures took Newton steps; the long digits, base
# 8/16 and `ninths` cases before leaves were folded as int64 vectors, one
# floor decided the digit cell and power-of-two bases were read from bytes.
# Any change to these bytes is a change of behaviour.
GOLDEN_SYSTEMS = {
    "cantor": [("1/3", "0"), ("1/3", "2/3")],
    "mixed": [("1/2", "0"), ("1/4", "3/4")],
    "flip": [("-1/2", "0"), ("-1/2", "1/2")],
    "inh": [("1/3", "0"), ("1/2", "1/2")],
    # the middle offset 1/3 is not of the form k / 2^j
    "gap3": [("1/4", "0"), ("1/4", "1/3"), ("1/4", "3/4")],
    # 1/12 has the primes of 6 but not its exponent ratios
    "twelfths": [("1/12", "0"), ("1/12", "11/12")],
    # fails validation twice: a slope of modulus >= 1 and weights summing
    # to 5/6, so its `failures` cell joins two names with ';'
    "invalid": [("1/3", "0"), ("2", "2/3")],
    # hull [0, 2/3]: the two hull ends have different denominators
    "ninths": [("1/3", "0"), ("1/3", "4/9")],
}
GOLDEN_WEIGHTS = {"mixed": ["2/3", "1/3"], "invalid": ["1/2", "1/3"]}
_GOLDEN_POLY = ["--beta-poly", "1,-1,-1", "--beta-lo", "1",
                "--beta-hi", "2"]

GOLDEN_CASES = {
    "orbit-cantor-b2": (["orbit", "--base", "2", "--length", "300",
                         "--seed", "1"], "cantor"),
    "orbit-mixed-b10-x2": (["orbit", "--base", "10", "--length", "200",
                            "--samples", "2", "--seed", "7"], "mixed"),
    "orbit-flip-b3": (["orbit", "--base", "3", "--length", "250",
                       "--seed", "5"], "flip"),
    "orbit-cantor-b17": (["orbit", "--base", "17", "--length", "120",
                          "--seed", "3"], "cantor"),
    "orbit-mixed-b100": (["orbit", "--base", "100", "--length", "80",
                          "--seed", "2"], "mixed"),
    "digits-cantor-b3": (["digits", "--base", "3", "--count", "500",
                          "--seed", "4"], "cantor"),
    "digits-mixed-b2": (["digits", "--base", "2", "--count", "1000",
                         "--seed", "11"], "mixed"),
    "digits-flip-b10": (["digits", "--base", "10", "--count", "400",
                         "--seed", "6"], "flip"),
    "digits-cantor-b36": (["digits", "--base", "36", "--count", "200",
                           "--seed", "9"], "cantor"),
    "normality-cantor-b2": (["normality", "--base", "2", "--length", "2000",
                             "--samples", "2", "--q-max", "4",
                             "--seed", "1", "--format", "json"], "cantor"),
    "normality-mixed-b10": (["normality", "--base", "10", "--length", "5000",
                             "--samples", "2", "--q-max", "3",
                             "--seed", "3", "--format", "json"], "mixed"),
    "normality-flip-b3": (["normality", "--base", "3", "--length", "300",
                           "--q-max", "3", "--guard", "8",
                           "--seed", "8", "--format", "json"], "flip"),
    # q = 5000 is past the float-chain cutoff, so the exact fallback runs
    # for the homogeneous systems too
    "martingale-cantor-b2-x2": (["martingale", "--base", "2",
                                 "--q", "0,1,2,5000", "--N-list", "40,150,600",
                                 "--samples", "2", "--seed", "1"], "cantor"),
    "martingale-cantor-b3": (["martingale", "--base", "3", "--q", "0,1,5000",
                              "--N-list", "50,300", "--seed", "4"], "cantor"),
    "martingale-flip-b10": (["martingale", "--base", "10", "--q", "0,3,5000",
                             "--N-list", "30,120", "--seed", "12"], "flip"),
    "martingale-inh-b2-x2": (["martingale", "--base", "2", "--q", "0,1,3",
                              "--N-list", "20,70", "--samples", "2",
                              "--seed", "5"], "inh"),
    "martingale-inh-b3": (["martingale", "--base", "3", "--q", "0,2,5000",
                           "--N-list", "15,40", "--seed", "6"], "inh"),
    "martingale-mixed-b10-x2": (["martingale", "--base", "10",
                                 "--q", "0,1,7,5000", "--N-list", "10,40",
                                 "--samples", "2", "--seed", "7"], "mixed"),
    # negative q, a negative slope product and a long walk
    "martingale-flip-b2-long": (["martingale", "--base", "2",
                                 "--q=-3,-1,2", "--N-list", "500,3000",
                                 "--seed", "9", "--format", "json"], "flip"),
    "decay-cantor": (["decay", "--j-max", "12", "--per-band", "16",
                      "--tol", "1e-8"], "cantor"),
    "decay-inh": (["decay", "--j-max", "9", "--per-band", "8"], "inh"),
    # a 40-node budget is hit in four of the eleven bands
    "decay-mixed-budget": (["decay", "--j-max", "10", "--per-band", "8",
                            "--tol", "1e-9", "--budget", "40"], "mixed"),
    "fourier-cantor-6561": (["fourier", "--q", "6561", "--tol", "1e-12"],
                            "cantor"),
    "fourier-mixed-negative": (["fourier", "--q=-355/113"], "mixed"),
    "fourier-inh-negative": (["fourier", "--q=-98765/64", "--tol", "1e-10"],
                             "inh"),
    # a system of None runs without --system
    "correlations-uniform-x2": (["correlations", "--source", "uniform",
                                 "--length", "800", "--k", "3",
                                 "--samples", "2", "--seed", "2"], None),
    "correlations-power-x2": (["correlations", "--source", "power",
                               "--x", "5/2", "--length", "300",
                               "--triangle", "1/3", "--samples", "2",
                               "--seed", "4"], None),
    "correlations-orbit-x2": (["correlations", "--source", "orbit",
                               "--base", "3", "--length", "400",
                               "--samples", "2", "--seed", "6"], "flip"),
    "spacings-uniform-x2": (["spacings", "--source", "uniform",
                             "--length", "600", "--s-grid", "0:4:0.25",
                             "--samples", "2", "--seed", "1"], None),
    "spacings-power-x2": (["spacings", "--source", "power", "--x", "3/2",
                           "--length", "250", "--samples", "2",
                           "--seed", "3", "--format", "json"], None),
    "spacings-orbit-x2": (["spacings", "--source", "orbit", "--base", "10",
                           "--length", "300", "--s-grid", "0:3:0.5",
                           "--samples", "2", "--seed", "5"], "mixed"),
    # ball iteration with an algebraic beta from a rational start
    "beta-orbit-golden-poly": (["beta-orbit", *_GOLDEN_POLY, "--x", "2/7",
                                "--length", "400"], None),
    "beta-orbit-golden-poly-json": (["beta-orbit", *_GOLDEN_POLY,
                                     "--x", "2/7", "--length", "400",
                                     "--format", "json"], None),
    # T^2(1) = 1 exactly: every restart straddles, the sample is truncated
    "beta-orbit-golden-straddle": (["beta-orbit", *_GOLDEN_POLY, "--x", "1",
                                    "--length", "5", "--format", "json"],
                                   None),
    "beta-orbit-precision-bits": (["beta-orbit", *_GOLDEN_POLY,
                                   "--x", "5/11", "--length", "150",
                                   "--precision-bits", "4000"], None),
    # the largest golden-ratio orbit of the benchmark
    "beta-orbit-golden-poly-long": (["beta-orbit", *_GOLDEN_POLY,
                                     "--x", "1234/56789", "--length", "1800"],
                                    None),
    # a 65536-bit floor: the golden ratio is refined to 2^-65538
    "beta-orbit-precision-bits-65536": (["beta-orbit", *_GOLDEN_POLY,
                                         "--x", "2/7", "--length", "100",
                                         "--precision-bits", "65536",
                                         "--format", "json"], None),
    # a wide bracket for the golden ratio, sampled start: recorded before
    # the start point was sized from the certified enclosure of beta
    "beta-orbit-golden-sampled-wide-bracket": (
        ["beta-orbit", "--beta-poly", "1,-1,-1", "--beta-lo", "1",
         "--beta-hi", "65536", "--length", "900", "--seed", "3"], "cantor"),
    "beta-orbit-exact": (["beta-orbit", "--beta", "5/2", "--x", "1/3",
                          "--length", "300"], None),
    # ball iteration from a sampled point of the attractor
    "beta-orbit-cantor-sampled": (["beta-orbit", "--beta", "5/2",
                                   "--length", "300", "--seed", "2"],
                                  "cantor"),
    "beta-orbit-cantor-sampled-json": (["beta-orbit", "--beta", "5/2",
                                        "--length", "300", "--seed", "2",
                                        "--format", "json"], "cantor"),
    "power-orbit-three-halves": (["power-orbit", "--x", "3/2",
                                  "--length", "400"], None),
    "power-orbit-three-halves-json": (["power-orbit", "--x", "3/2",
                                       "--length", "400", "--format", "json"],
                                      None),
    "power-orbit-seven-thirds": (["power-orbit", "--x", "7/3",
                                  "--length", "400"], None),
    "power-orbit-near-one": (["power-orbit", "--x", "101/100",
                              "--length", "700"], None),
    # den = 1: every value is 0
    "power-orbit-integer": (["power-orbit", "--x", "5", "--length", "200"],
                            None),
    "correlations-power-large-num": (["correlations", "--source", "power",
                                      "--x", "1023/2", "--length", "300",
                                      "--seed", "2"], None),
    # the root 3/2 sits on the first bisection midpoint of [1, 2]
    "beta-orbit-root-on-midpoint": (["beta-orbit", "--beta-poly", "2,-3",
                                     "--beta-lo", "1", "--beta-hi", "2",
                                     "--x", "2/7", "--length", "300"], None),
    # sqrt(2) from non-dyadic endpoints
    "beta-orbit-sqrt2-nondyadic": (["beta-orbit", "--beta-poly", "1,0,-2",
                                    "--beta-lo", "4/3", "--beta-hi", "3/2",
                                    "--x", "1/3", "--length", "300"], None),
    # exact beta orbits: integer beta, a negative start, beta near 1
    "beta-orbit-exact-integer-beta": (["beta-orbit", "--beta", "3",
                                       "--x", "7/5"], None),
    "beta-orbit-exact-negative-x": (["beta-orbit", "--beta", "7/3",
                                     "--x=-2/5"], None),
    "beta-orbit-exact-near-one-json": (["beta-orbit", "--beta", "1025/1024",
                                        "--x", "1/7", "--format", "json"],
                                       None),
    "power-orbit-integer-json": (["power-orbit", "--x", "2",
                                  "--format", "json"], None),
    # base^k_tail is past 2^64: the tail windows are Python integers
    "orbit-mixed-b1000": (["orbit", "--base", "1000", "--length", "150",
                           "--seed", "3"], "mixed"),
    "orbit-cantor-b2p40": (["orbit", "--base", str(2 ** 40 + 15),
                            "--length", "100", "--seed", "4"], "cantor"),
    # every verdict, integer and non-integer log ratios, both witness maps
    "classify-cantor-b3": (["classify", "--base", "3"], "cantor"),
    "classify-cantor-b9-json": (["classify", "--base", "9",
                                 "--format", "json"], "cantor"),
    "classify-flip-b3": (["classify", "--base", "3"], "flip"),
    "classify-inh-b3-json": (["classify", "--base", "3", "--format", "json"],
                             "inh"),
    "classify-mixed-b8-json": (["classify", "--base", "8",
                                "--format", "json"], "mixed"),
    "classify-gap3-b2": (["classify", "--base", "2"], "gap3"),
    "classify-gap3-b2-json": (["classify", "--base", "2", "--format", "json"],
                              "gap3"),
    "classify-twelfths-b6-json": (["classify", "--base", "6",
                                   "--format", "json"], "twelfths"),
    "classify-twelfths-b144": (["classify", "--base", "144"], "twelfths"),
    # a bool column and a ';'-joined string column, passing and failing
    "validate-cantor": (["validate"], "cantor"),
    "validate-invalid": (["validate"], "invalid"),
    "orbit-cantor-b2-x3": (["orbit", "--base", "2", "--length", "150",
                            "--samples", "3", "--seed", "2"], "cantor"),
    # JSON summarises the orbit without writing its table
    "orbit-cantor-b2-long-json": (["orbit", "--base", "2",
                                   "--length", "10000", "--seed", "3",
                                   "--format", "json"], "cantor"),
    "digits-cantor-b2-one": (["digits", "--base", "2", "--count", "1",
                              "--seed", "5"], "cantor"),
    # power-of-two denominators: the dyadic carry of the exact orbit
    "power-orbit-dyadic-large-num": (["power-orbit", "--x", "1023/2",
                                      "--length", "3000"], None),
    "beta-orbit-exact-dyadic-json": (["beta-orbit", "--beta", "5/2",
                                      "--x", "3/1024", "--length", "1500",
                                      "--format", "json"], None),
    "spacings-power-dyadic": (["spacings", "--source", "power",
                               "--x", "513/2", "--length", "2000"], None),
    "correlations-power-dyadic-k3": (["correlations", "--source", "power",
                                      "--x", "33/2", "--k", "3",
                                      "--length", "1500"], None),
    # words past ten thousand symbols: many int64 leaves and a big floor
    "digits-cantor-b2-40000": (["digits", "--base", "2", "--count", "40000",
                                "--seed", "2"], "cantor"),
    # C = 2^s: the floor of the digit cell is a shift
    "digits-mixed-b10-20000": (["digits", "--base", "10", "--count",
                                "20000", "--seed", "3"], "mixed"),
    # power-of-two bases other than 2, negative slopes
    "digits-flip-b8": (["digits", "--base", "8", "--count", "3000",
                        "--seed", "4"], "flip"),
    "digits-flip-b16-json": (["digits", "--base", "16", "--count", "2500",
                              "--seed", "5", "--format", "json"], "flip"),
    "digits-ninths-b10": (["digits", "--base", "10", "--count", "3000",
                           "--seed", "6"], "ninths"),
    "digits-ninths-b2-json": (["digits", "--base", "2", "--count", "5000",
                               "--seed", "7", "--format", "json"], "ninths"),
    "orbit-ninths-b3": (["orbit", "--base", "3", "--length", "400",
                         "--seed", "8"], "ninths"),
}
# exit codes of the cases that do not end in 0
GOLDEN_EXIT = {"validate-invalid": 2}

GOLDEN_SHA256 = {
    "classify-cantor-b3":
        "aa47afc3795fb2a97a3b51506fafbf304bf09b8575093656330593d3fb7e35ed",
    "classify-cantor-b9-json":
        "d6d6bb4f62422efdf808e299cdd61cdb6fd5fecbc2e4e20b783161ce4cc03015",
    "classify-flip-b3":
        "5ac64d98fceddca4c4f8edaf9da60c6a8373eb1cf999a1d291ed9cd078c1c7db",
    "classify-gap3-b2":
        "fdea698b5ce1b31d4d51f164ab567fad7b345376966cb17fb31db1d18e77f864",
    "classify-gap3-b2-json":
        "42bff09a8c687abc1447a37c791c0a812e6c29333f30def191eef4fcc93042ce",
    "classify-inh-b3-json":
        "72e82142c64669a33432e7b1f8748fc7e185a4ab965c39507805c0a85fa3998e",
    "classify-mixed-b8-json":
        "32afb5235570bb92bb29d00751d8841079435d5912205b79f0e31af68e73010e",
    "classify-twelfths-b144":
        "76bed292c85dc50355e71dc595c29f9176b2384b51133460e77fa5e6d97508fa",
    "classify-twelfths-b6-json":
        "4e300ab1649ed634c7457e0f860503aae5838fc1b55ce98d12a0c1487d93b9e0",
    "beta-orbit-cantor-sampled":
        "92a2c9027cd7c65551934d8000cb6953d0a54b2b9c9915b2cf8741d2b5cd2074",
    "beta-orbit-cantor-sampled-json":
        "490507dfdc33cb43637a2a53e7f7d2ccbdf94940ffa64b3e27d6b63b6387f490",
    "beta-orbit-exact":
        "62a799d5a2e6b75ac7982a946f8cdb08ae461dda03f0851efbc149dbbf303007",
    "beta-orbit-exact-integer-beta":
        "4222836e3123c3780fef3f0ce5cbcdde535b1c504fd14f769d7224dbc235510c",
    "beta-orbit-exact-near-one-json":
        "7a6f41ae116a332bb87577e7b6f5e2ba406ddc10d14dc1fcca603f4b2b180c79",
    "beta-orbit-exact-negative-x":
        "2dd4227caccaf251e01ff70a78a903113e23b937b84b66e7e5141f843ee8042f",
    "beta-orbit-golden-sampled-wide-bracket":
        "3fc521e51cbed4bf4d80dcae3c80874e4a4b846c818f7b9974c35f3fdd6d11c0",
    "beta-orbit-golden-poly":
        "94d97e81cd884bd12a6a8bdd4020657aac1ee28f7ae267950feb9e9fd5ecd127",
    "beta-orbit-golden-poly-json":
        "7ef8630eb8e8112a1ea2be627bc55c644b32a664d52d7d71a5beff51b7c2b39e",
    "beta-orbit-golden-straddle":
        "97ecea0b0f60d0ef132185c328f34e552b0d07c5c8bf9eee4b69e3075ff35535",
    "beta-orbit-root-on-midpoint":
        "4aacd2e087370e3e2e4b4672bb7f91f3f3498c9c75b97a299784dfd9d82d1524",
    "beta-orbit-sqrt2-nondyadic":
        "13054e85f9c75afb30730fc1abbad4f5658ca5c95dc0a5d555e4b26c50a9f448",
    "beta-orbit-precision-bits":
        "01c4cdc89e6f9b357514b366083cbcc1eef043cb32f3809bc60111296d0e751f",
    "beta-orbit-golden-poly-long":
        "28c98d742018142ddf0b644b5e7440606fc2db7f538fac0e24aca8242124a5c7",
    "beta-orbit-precision-bits-65536":
        "c7e47e40874907a37c6c7f6977ad641f76040e05bbb38b954745f9ca525275d3",
    "correlations-orbit-x2":
        "2895c9dd40154498d1dd31409b874f10c928fd02098e4ba1f3e16be95cdfc210",
    "correlations-power-large-num":
        "a21ab4045f6e00102c9f824a0158b540bb0fb51f318af0697f0a5dba4c103ffb",
    "correlations-power-x2":
        "8f3813c3d9f60076dc3b2e88560f9e3340c6cf4a12d3e4a2e7fb522c3bca2069",
    "correlations-uniform-x2":
        "b2e274bc338fe2bb3826db79c166b778411d53636e63e93cb908aebedd57c8ce",
    "decay-cantor":
        "e2d27757d939b1d1b00ed4233c45485e70be7a058782701b2a7b9781007d681b",
    "decay-inh":
        "21ea09bd04313d850ad4c8f95b5f697703e15108867ca0093ee1f97c3547e2a0",
    "decay-mixed-budget":
        "d88d7dd5ffeeeb634df3b75b036c5333e99b116207dc2c4d8f85f640387377ee",
    "digits-cantor-b3":
        "ae2cdd3b9b368bc7d025faebbaeb1a549ba681c6d1d496c93b482c12d07c83e2",
    "digits-cantor-b36":
        "28c3237b255b7362db7c51c87acb02c4289203d8240c3a52ddd66973381f16f9",
    "digits-flip-b10":
        "675287909969b9492dd768586c23c74884a2042b5a5e71ff526a6feb548907c8",
    "digits-mixed-b2":
        "0d7455e98e550aa6132a4e21e09888abdc3d9d4125978ede7cd12f31bb55316e",
    "fourier-cantor-6561":
        "7a8a8a087112573c58dab3e7118a6b536e6e737e36013b93139d54bafecc0acd",
    "fourier-inh-negative":
        "ea58035ef6877bb07c1214c0a97836cb01e283a44e2449b92f73e5399b6a21b5",
    "fourier-mixed-negative":
        "115010b61e568ef262a60a06bd1bd9304ade157fbbdf1ba7b550fce5d5c3f4e1",
    "martingale-cantor-b2-x2":
        "82e4e7cd9759c970e26089295dd9aa7e3ae4cab80c00d4de5d93ddd0aa947904",
    "martingale-cantor-b3":
        "e0b4ced5f7befb4534f592e5aee2ab63660c242b534f23d720c7bedad529f416",
    "martingale-flip-b10":
        "ed4416ce3e148f326a1fc36081629fb59f094ff723ac55c821cb70eda266ac65",
    "martingale-flip-b2-long":
        "b78c9f71fbe4c66d7660466749480eb8190e9e1bc027b0c25171d833d0898646",
    "martingale-inh-b2-x2":
        "95d713710219744e2d4644c8d4166dd60ba72a53956812bc01164bbf47e183f5",
    "martingale-inh-b3":
        "9f055f9ffb633612341667372d0290f9876a1160d6044da45931b15ffef2bf2a",
    "martingale-mixed-b10-x2":
        "ee65cbb2e679715077eb45f1ffb3953d2b7f52a946b15fffcd560cef4306e0de",
    "normality-cantor-b2":
        "19544969ed4126dd3c48d789006ae96cf8a7090bdaf6f643478c59132d3311cd",
    "normality-flip-b3":
        "5289c51f7f82a9f3f0ce7784a532c0d2f79c5c3e38d15d954dcb87798932b87b",
    "normality-mixed-b10":
        "a7b803e23a06a87f23d779c5b0cbfe3e0c9c1ca8a2de54ba1e1dd0832d8713a5",
    "orbit-cantor-b17":
        "65b05926ef3f24b495376045dde82184a5df986d8cda74ce622b4215a8f6a707",
    "orbit-cantor-b2":
        "51aee964219a6c896bef788b5aaa08089f6c9180a0c177ee6141832c1d96c989",
    "orbit-cantor-b2p40":
        "87f0b0287c73eb98d5f7145270b8fb13c6db0e79aa1d3d0703620873dff67d23",
    "orbit-flip-b3":
        "023c29d3af3f26befd35e0564cb4f08c6578ab419619f1edb769e1725a0b673b",
    "orbit-mixed-b10-x2":
        "f302cfa9348cbe1d5d6e68c942abd841a60f0675eb0bf1778cb063e0f8e27d7f",
    "orbit-mixed-b1000":
        "03cc1f8269c6e9ee6aa618776fe1cfdab82bf88e89b2d34c9d5fc0846be32ab3",
    "orbit-mixed-b100":
        "cfa050b3421b3a878ff9c01693e5e517c4ed25426d72227089f5c79493c7c68d",
    "power-orbit-integer":
        "33ef25d7a747d5bf4682973f7dc7a525f9829ac4578b10f71cb4b9ac8aca29d5",
    "power-orbit-integer-json":
        "ca8dcfb65bd98452d19ff0cdc31c9ffe5fde069d0ece32ce4d987834b1fc09a8",
    "power-orbit-near-one":
        "60297dd82af94b892457966e99ece0b3dc62ebd37697e5f4273379d8d567e3ac",
    "power-orbit-seven-thirds":
        "7e6b17473c73f4081a93fa09d364be0c19836b707afa52dd2472e1943bd967d3",
    "power-orbit-three-halves":
        "c8e40432bdd5806ea11497e07bfca946c94af4db6c04c894a1757725366e7b5d",
    "power-orbit-three-halves-json":
        "6bbb65d3597a223be820420b3981dfec0741875211b6c092efb331e27cdb992a",
    "spacings-orbit-x2":
        "bd03a817509e1417c17f508fe820917ef22abb42627195be0f54b63d853ee2d0",
    "spacings-power-x2":
        "3f954e17f1aee4ed26f017a79d20627095751b2f458e26e10d9f6c1fdb54da25",
    "spacings-uniform-x2":
        "650011fd9ae53343d6434c8993563562944c042a18ac5500f626efd7f49a96e0",
    "validate-cantor":
        "8dd151caa6e80940b98b0e0d41ff5851602f6fca43c656c3badfecaf46711c64",
    "validate-invalid":
        "840ccc5dc1f713eac2b5f1a5bf2e813f748f1d69b6b909ec22cf985c813847b1",
    "orbit-cantor-b2-x3":
        "5cd35550e445f500ce56b3d70cf15d79308432f50960c4711ab0575298e0bd82",
    "orbit-cantor-b2-long-json":
        "5fce3f518955c452a81ba5b1ac4b5d2a75282b2258c79f1d8ba769c890f8af68",
    "digits-cantor-b2-one":
        "fe06ce1d25f05e3ebfde0c43b2be95dc23ea2e5fdaa48aa29dfbc00d2cc845a2",
    "power-orbit-dyadic-large-num":
        "604786686da04cb79f47912e93aeee433a1526da2da021fc1bbbd5ee20238ddc",
    "beta-orbit-exact-dyadic-json":
        "1062b59b18daa4a18912ddae4a538f3c6e32a3378dc3c929a5a958bb469714b7",
    "spacings-power-dyadic":
        "ab2f552238ed52e46c17eef0e440fcac64446bdc7b519f420794de8d44ed4474",
    "correlations-power-dyadic-k3":
        "cdbc7549cc5073c063f6d5bdae07d1baae1452c5f8f39b429b1f5cea4cb2a7f3",
    "digits-cantor-b2-40000":
        "3fd0232a27655f2596806b00ce86a5a378825b4be3d7fc3756543eb766c7b672",
    "digits-flip-b16-json":
        "5ec800e8b51f9ec00975920b579dc5573c8057dc1cf4464d515e771a6783cbee",
    "digits-flip-b8":
        "a5c6dba22bfcf5e80e40070ea0dc18286776c53843893c56c25573d0517c2e67",
    "digits-mixed-b10-20000":
        "b3084acf5fd2f42e06c55844f02ec60e1c63f78870873e53b20c38d68e087fce",
    "digits-ninths-b10":
        "77497965b289d914a65c41f3767f04a69f5c98bd28c871659d9771ea354d8610",
    "digits-ninths-b2-json":
        "f6815d37e97dbbe0f8b221c3369750983621ff45a81b9d97314496350f74c1d7",
    "orbit-ninths-b3":
        "91b8f9f849166a826fbc07c43d4b592c38cbffd6468f2af3d5f9fa256449b8aa",
}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    from normality_lab import make_system
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, maps in GOLDEN_SYSTEMS.items():
        path = root / f"{name}.json"
        save_system(make_system(maps, GOLDEN_WEIGHTS.get(name),
                                check=name != "invalid"), path)
        paths[name] = str(path)
    return paths


class TestGoldenOutputs:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_output_bytes_unchanged(self, case, golden_files, tmp_path):
        argv, system = GOLDEN_CASES[case]
        if system is not None:
            argv = argv + ["--system", golden_files[system]]
        out = tmp_path / "out"
        code = main(argv + ["--out", str(out)])
        assert code == GOLDEN_EXIT.get(case, 0)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[case]
