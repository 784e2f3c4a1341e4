import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate as schema_validate

from normality_lab import cantor_system, save_system
from normality_lab.cli import main

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
    ])
    def test_rejected_at_parse_time(self, cantor_file, capsys, argv):
        assert main(argv + ["--system", cantor_file]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: argument --")

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

    def test_entry_point_smoke(self, cantor_file):
        proc = subprocess.run(
            [sys.executable, "-m", "normality_lab.cli", "classify",
             "--system", cantor_file, "--base", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "MatchesObstructionForm" not in proc.stderr


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
# `uniform_sample`.  Any change to these bytes is a change of behaviour.
GOLDEN_SYSTEMS = {
    "cantor": [("1/3", "0"), ("1/3", "2/3")],
    "mixed": [("1/2", "0"), ("1/4", "3/4")],
    "flip": [("-1/2", "0"), ("-1/2", "1/2")],
    "inh": [("1/3", "0"), ("1/2", "1/2")],
}
GOLDEN_WEIGHTS = {"mixed": ["2/3", "1/3"]}

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
}

GOLDEN_SHA256 = {
    "correlations-orbit-x2":
        "2895c9dd40154498d1dd31409b874f10c928fd02098e4ba1f3e16be95cdfc210",
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
    "orbit-flip-b3":
        "023c29d3af3f26befd35e0564cb4f08c6578ab419619f1edb769e1725a0b673b",
    "orbit-mixed-b10-x2":
        "f302cfa9348cbe1d5d6e68c942abd841a60f0675eb0bf1778cb063e0f8e27d7f",
    "orbit-mixed-b100":
        "cfa050b3421b3a878ff9c01693e5e517c4ed25426d72227089f5c79493c7c68d",
    "spacings-orbit-x2":
        "bd03a817509e1417c17f508fe820917ef22abb42627195be0f54b63d853ee2d0",
    "spacings-power-x2":
        "3f954e17f1aee4ed26f017a79d20627095751b2f458e26e10d9f6c1fdb54da25",
    "spacings-uniform-x2":
        "650011fd9ae53343d6434c8993563562944c042a18ac5500f626efd7f49a96e0",
}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    from normality_lab import make_system
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, maps in GOLDEN_SYSTEMS.items():
        path = root / f"{name}.json"
        save_system(make_system(maps, GOLDEN_WEIGHTS.get(name)), path)
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
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[case]
