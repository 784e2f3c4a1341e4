"""The benchmark's workloads: seeded op streams and per-op output checks.

An op is one in-process call of ``normality_lab.cli.main(argv)`` that writes
its CSV or JSON to a file.  A workload is a fixed cycle of op kinds; op i has
kind ``cycle[i % len(cycle)]`` and draws its sizes and inputs from one
``random.Random`` seeded by (workload, seed), so the same seed gives the same
ops.  No two ops of a run share an input: an op whose argv was already drawn
is drawn again, so a cache kept across calls can only gain where real inputs
share work.  Sizes are drawn from ranges whose op times overlap, which keeps
the run's latency percentiles away from the steps between op kinds.

Every check returns the work units the op completed (the workload's
throughput unit) or raises CheckFailed.  The checks test invariants that hold
for any seed; `run.py` also compares output digests at the default seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

SYSTEMS = Path(__file__).resolve().parent / "systems"

# Orbit values are certified to 2**-50 (SequenceSample contract).
ORBIT_ACCURACY = 2.0 ** -50


class CheckFailed(Exception):
    """An op's output broke an invariant."""


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple          # subcommand and flags, without --format and --out
    fmt: str             # "csv" or "json"
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Kind:
    name: str
    fmt: str
    draw: Callable[[random.Random, float], tuple]  # (rng, u) -> (argv, expect)
    check: Callable[[Op, str], int]          # (op, output text) -> units


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    cycle: tuple         # kind names, in op order


def _system(name: str) -> str:
    return str(SYSTEMS / f"{name}.json")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ------------------------------------------------------------ output parsing

def _csv_rows(op: Op, text: str) -> list:
    lines = text.splitlines()
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    _require(meta.get("tool") == "normality-lab", "missing tool metadata")
    _require(meta.get("subcommand") == op.argv[0],
             f"subcommand {meta.get('subcommand')!r} != {op.argv[0]!r}")
    _require("parameters" in meta and "system_hash" in meta,
             "missing parameter metadata")
    return list(csv.DictReader(lines[i:]))


def _json_results(op: Op, text: str) -> dict:
    payload = json.loads(text)
    _require(payload.get("tool") == "normality-lab", "missing tool metadata")
    _require(payload.get("subcommand") == op.argv[0], "wrong subcommand")
    return payload["results"]


def _unit_values(values, what: str) -> None:
    for v in values:
        _require(0.0 <= float(v) < 1.0, f"{what} {v} outside [0, 1)")


def _consecutive(rows: list, key: str, start: int, what: str) -> None:
    _require([int(r[key]) for r in rows] == list(range(start, start + len(rows))),
             f"{what} indices are not consecutive from {start}")


# ------------------------------------------------------------------- checks

def check_orbit(op: Op, text: str) -> int:
    length, samples = op.expect["length"], op.expect["samples"]
    if op.fmt == "csv":
        rows = _csv_rows(op, text)
        _require(len(rows) == samples * length,
                 f"{len(rows)} rows, want {samples * length}")
        _unit_values((r["value"] for r in rows), "orbit value")
        _consecutive(rows[:length], "n", 0, "orbit")
    else:
        res = _json_results(op, text)
        _require(res["length"] == length and res["samples"] == samples,
                 "orbit length/samples mismatch")
        _require(res["accuracy"] <= ORBIT_ACCURACY,
                 f"orbit accuracy {res['accuracy']} > 2^-50")
        _require(len(res["discrepancy"]) == samples
                 and all(0.0 < d <= 1.0 for d in res["discrepancy"]),
                 "bad discrepancy list")
    return samples * length


def check_normality(op: Op, text: str) -> int:
    length, samples = op.expect["length"], op.expect["samples"]
    base = op.expect["base"]
    res = _json_results(op, text)
    _require(res["length"] == length and res["samples"] == samples,
             "normality length/samples mismatch")
    per = res["per_sample"]
    _require([s["sample"] for s in per] == list(range(samples)),
             "per-sample records out of order")
    for s in per:
        _require(0.0 < s["discrepancy"] <= 1.0, "discrepancy outside (0, 1]")
        _require(0.0 <= s["max_weyl_modulus"] <= 1.0 + 1e-9,
                 "Weyl modulus above 1")
        freqs = s["digit_freqs"]
        _require(all(0 <= int(d) < base for d in freqs), "digit outside base")
        _require(abs(sum(freqs.values()) - 1.0) < 1e-9,
                 "digit frequencies do not sum to 1")
    return samples * length


def check_martingale(op: Op, text: str) -> int:
    qs, n_list = op.expect["qs"], op.expect["n_list"]
    rows = _csv_rows(op, text)
    _require(len(rows) == len(qs) * len(n_list),
             f"{len(rows)} rows, want {len(qs) * len(n_list)}")
    _require([(int(r["q"]), int(r["N"])) for r in rows]
             == [(q, n) for q in qs for n in n_list], "q/N grid mismatch")
    for r in rows:
        e = complex(float(r["empirical_re"]), float(r["empirical_im"]))
        c = complex(float(r["cylinder_re"]), float(r["cylinder_im"]))
        gap = float(r["gap"])
        _require(abs(e) <= 1.0 + 1e-9 and abs(c) <= 1.0 + 1e-6,
                 "mode modulus above 1")
        _require(abs(gap - abs(e - c)) <= 1e-12, "gap != |empirical - cylinder|")
    return op.expect["n_max"] * len(qs)


def check_fourier(op: Op, text: str) -> int:
    rows = _csv_rows(op, text)
    _require(len(rows) == 1, "fourier writes one row")
    r = rows[0]
    _require(Fraction(r["q"]) == Fraction(op.expect["q"]), "frequency mismatch")
    err = float(r["error_bound"])
    if r["budget_exceeded"] != "True":
        _require(err <= op.expect["tol"], f"error bound {err} > tol")
    _require(float(r["modulus"]) <= 1.0 + err + 1e-12, "|F_q| above 1")
    _require(int(r["nodes"]) >= 1, "no nodes expanded")
    return 1


def check_decay(op: Op, text: str) -> int:
    j_max, tol = op.expect["j_max"], op.expect["tol"]
    rows = _csv_rows(op, text)
    _require(len(rows) == j_max + 1, f"{len(rows)} bands, want {j_max + 1}")
    _consecutive(rows, "band", 0, "band")
    values = 0
    for j, r in enumerate(rows):
        _require(int(r["q_lo"]) == 1 << j and int(r["q_hi"]) == 2 << j,
                 "band edges wrong")
        _require(0.0 <= float(r["sup_modulus"]) <= 1.0 + tol,
                 "band sup outside [0, 1]")
        _require((1 << j) <= Fraction(r["argmax_q"]) < (2 << j),
                 "argmax outside its band")
        _require(int(r["samples"]) >= 1, "empty band")
        values += int(r["samples"])
    return values


def _check_sequence_csv(op: Op, text: str) -> int:
    rows = _csv_rows(op, text)
    _require(1 <= len(rows) <= op.expect["length"], "row count out of range")
    _unit_values((r["value"] for r in rows), "sequence value")
    _consecutive(rows, "n", 1, "sequence")
    return len(rows)


def check_beta_orbit(op: Op, text: str) -> int:
    length = op.expect["length"]
    if op.fmt == "csv":
        return _check_sequence_csv(op, text)
    res = _json_results(op, text)
    meta = res["metadata"]
    for key in ("beta", "precision_bits", "restarts", "start_index"):
        _require(key in meta, f"beta_orbit metadata lacks {key!r}")
    _require(meta["precision_bits"] > 0 and 0 <= meta["restarts"] <= 4,
             "beta_orbit precision metadata out of range")
    want = meta["straddled_at"] - 1 if "straddled_at" in meta else length
    _require(res["length"] == want, "beta_orbit length mismatch")
    _require(res["length"] == 0 or 0.0 < res["discrepancy"] <= 1.0,
             "discrepancy outside (0, 1]")
    return res["length"]


def check_power_orbit(op: Op, text: str) -> int:
    length = op.expect["length"]
    if op.fmt == "csv":
        n = _check_sequence_csv(op, text)
        _require(n == length, "power orbit truncated")
        return n
    res = _json_results(op, text)
    _require(res["length"] == length, "power orbit length mismatch")
    _require(res["metadata"].get("exact") is True, "rational x must be exact")
    _require(0.0 < res["discrepancy"] <= 1.0, "discrepancy outside (0, 1]")
    return length


def check_correlations(op: Op, text: str) -> int:
    rows = _csv_rows(op, text)
    _require(len(rows) == 1, "one sample, one row")
    r = rows[0]
    _require(int(r["k"]) == op.expect["k"], "k mismatch")
    value, integral = float(r["value"]), float(r["integral"])
    # the default box of half-width 1/2 integrates to 1 in every dimension
    _require(integral == 1.0, "box integral != 1")
    _require(math.isfinite(value) and value >= 0.0, "R_k not a finite count")
    _require(abs(float(r["deviation"]) - abs(value - integral)) <= 1e-12,
             "deviation != |R_k - integral|")
    return op.expect["length"]


def check_spacings(op: Op, text: str) -> int:
    rows = _csv_rows(op, text)
    _require(len(rows) == 51, f"{len(rows)} grid points, want 51")
    last = 0.0
    for r in rows:
        s, g = float(r["s"]), float(r["G"])
        _require(last <= g <= 1.0, "spacing CDF not monotone in [0, 1]")
        _require(abs(float(r["poisson"]) - (1.0 - math.exp(-s))) <= 1e-12,
                 "Poisson reference wrong")
        last = g
    return op.expect["length"]


# --------------------------------------------------------------- op kinds

def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 32))


def _size(u: float, lo: int, hi: int) -> int:
    return lo + int(u * (hi - lo + 1))


def _split(u: float, n: int) -> tuple:
    """One of n choices, and a fresh uniform value, from one uniform u."""
    i = min(int(u * n), n - 1)
    return i, u * n - i


def _orbit(system: str, base: int, lo: int, hi: int):
    def draw(rng, u):
        length = _size(u, lo, hi)
        argv = ("orbit", "--system", _system(system), "--base", str(base),
                "--length", str(length), "--samples", "1", "--seed", _seed(rng))
        return argv, {"length": length, "samples": 1}
    return draw


def _normality(system: str, base: int, lo: int, hi: int):
    def draw(rng, u):
        length = _size(u, lo, hi)
        argv = ("normality", "--system", _system(system), "--base", str(base),
                "--length", str(length), "--samples", "2", "--seed", _seed(rng))
        return argv, {"length": length, "samples": 2, "base": base}
    return draw


def _martingale(system: str, lo: int, hi: int):
    def draw(rng, u):
        n = _size(u, lo, hi)
        n_list = [n // 4, n // 2, n]
        argv = ("martingale", "--system", _system(system), "--base", "2",
                "--q", "1,2,3", "--N-list", ",".join(map(str, n_list)),
                "--seed", _seed(rng))
        return argv, {"qs": [1, 2, 3], "n_list": n_list, "n_max": n}
    return draw


def _tol(rng: random.Random, lo: int, hi: int) -> float:
    """A tolerance drawn from [10^-hi, 10^-lo], log-uniformly; a continuous
    draw, so a kind's inputs do not run out however many ops a run makes."""
    return 10.0 ** -rng.uniform(lo, hi)


def _decay(system: str, j_lo: int, j_hi: int, pb_lo: int, pb_hi: int):
    def draw(rng, u):
        j, v = _split(u, j_hi - j_lo + 1)
        j_max, per_band = j_lo + j, _size(v, pb_lo, pb_hi)
        tol = _tol(rng, 5, 7)
        argv = ("decay", "--system", _system(system), "--j-max", str(j_max),
                "--per-band", str(per_band), "--tol", repr(tol))
        return argv, {"j_max": j_max, "tol": tol}
    return draw


def _fourier_rational(system: str):
    def draw(rng, u):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 5),
                     rng.randint(1, 64))
        argv = ("fourier", "--system", _system(system), f"--q={q}")
        return argv, {"q": str(q), "tol": 1e-9}
    return draw


def _fourier_resonance(rng, u):
    # Cantor resonances 3^m: |F| does not decay along them
    q = 3 ** rng.randint(8, 600)
    tol = _tol(rng, 9, 12)
    argv = ("fourier", "--system", _system("cantor"), "--q", str(q),
            "--tol", repr(tol))
    return argv, {"q": str(q), "tol": tol}


def _start_point(rng) -> str:
    den = rng.randint(10 ** 3, 10 ** 5)
    return f"{rng.randint(1, den - 1)}/{den}"


_BETA_LENGTHS = (900, 1800)


def _beta_golden(rng, u):
    length = _size(u, *_BETA_LENGTHS)
    argv = ("beta-orbit", "--beta-poly", "1,-1,-1", "--beta-lo", "1",
            "--beta-hi", "2", "--x", _start_point(rng), "--length", str(length))
    return argv, {"length": length}


def _beta_sampled(rng, u):
    length = _size(u, *_BETA_LENGTHS)
    argv = ("beta-orbit", "--system", _system("cantor"), "--beta", "5/2",
            "--length", str(length), "--seed", _seed(rng))
    return argv, {"length": length}


def _power(lo: int, hi: int):
    def draw(rng, u):
        length = _size(u, lo, hi)
        return ("power-orbit", "--x", "3/2", "--length", str(length)), \
            {"length": length}
    return draw


def _source(source: str, rng: random.Random) -> tuple:
    """The flags that pick one sequence of the source.  A power source gets
    a seeded x = p/2 with p odd in [33, 1023], so its ops do not read
    prefixes of one orbit.  The cost per value grows with log p, and over
    this range it varies within a factor 1.5."""
    if source == "power":
        return ("--x", f"{2 * rng.randint(16, 511) + 1}/2")
    return ("--seed", _seed(rng))


def _correlations(source: str, ks: tuple, lo: int, hi: int):
    def draw(rng, u):
        i, v = _split(u, len(ks))
        k, length = ks[i], _size(v, lo, hi)
        argv = ("correlations", "--source", source, "--k", str(k),
                "--length", str(length), *_source(source, rng))
        return argv, {"k": k, "length": length}
    return draw


def _spacings(source: str, lo: int, hi: int):
    def draw(rng, u):
        length = _size(u, lo, hi)
        argv = ("spacings", "--source", source, "--length", str(length),
                *_source(source, rng))
        return argv, {"length": length}
    return draw


_CHECKS = {
    "orbit": check_orbit, "normality": check_normality,
    "martingale": check_martingale, "fourier": check_fourier,
    "decay": check_decay, "beta-orbit": check_beta_orbit,
    "power-orbit": check_power_orbit, "correlations": check_correlations,
    "spacings": check_spacings,
}


def _kind(name: str, fmt: str, draw) -> Kind:
    return Kind(name, fmt, draw, _CHECKS[name.split(".")[0]])


KINDS = {k.name: k for k in (
    _kind("orbit.cantor2.csv", "csv", _orbit("cantor", 2, 8000, 16000)),
    _kind("orbit.cantor2.json", "json", _orbit("cantor", 2, 8000, 16000)),
    _kind("orbit.mixed10.csv", "csv", _orbit("mixed", 10, 2700, 4700)),
    _kind("orbit.mixed10.json", "json", _orbit("mixed", 10, 2700, 4700)),
    _kind("normality.cantor2", "json", _normality("cantor", 2, 6500, 13000)),
    _kind("normality.mixed10", "json", _normality("mixed", 10, 1300, 2400)),
    _kind("martingale.cantor", "csv", _martingale("cantor", 300, 800)),
    _kind("martingale.inh", "csv", _martingale("inh", 60, 115)),
    _kind("decay.cantor", "csv", _decay("cantor", 8, 10, 16, 40)),
    _kind("decay.mixed", "csv", _decay("mixed", 8, 10, 16, 40)),
    _kind("decay.inh", "csv", _decay("inh", 5, 7, 6, 12)),
    _kind("fourier.rational.cantor", "csv", _fourier_rational("cantor")),
    _kind("fourier.rational.mixed", "csv", _fourier_rational("mixed")),
    _kind("fourier.rational.inh", "csv", _fourier_rational("inh")),
    _kind("fourier.resonance.cantor", "csv", _fourier_resonance),
    _kind("beta-orbit.golden.csv", "csv", _beta_golden),
    _kind("beta-orbit.golden.json", "json", _beta_golden),
    _kind("beta-orbit.sampled", "json", _beta_sampled),
    _kind("power-orbit.csv", "csv", _power(2400, 4400)),
    _kind("power-orbit.json", "json", _power(2400, 4400)),
    _kind("correlations.uniform.k2", "csv",
          _correlations("uniform", (2,), 2700, 6700)),
    _kind("correlations.uniform.k3", "csv",
          _correlations("uniform", (3,), 2000, 5300)),
    _kind("correlations.uniform.k4", "csv",
          _correlations("uniform", (4,), 1000, 2300)),
    _kind("correlations.power", "csv",
          _correlations("power", (2, 3, 4), 1000, 2000)),
    _kind("spacings.uniform", "csv", _spacings("uniform", 67000, 133000)),
    _kind("spacings.power", "csv", _spacings("power", 1300, 2700)),
)}

WORKLOADS = {w.name: w for w in (
    Workload("orbit-digits", "certified digits", (
        "orbit.cantor2.csv", "normality.cantor2", "orbit.mixed10.csv",
        "normality.mixed10", "orbit.cantor2.json", "orbit.mixed10.json")),
    Workload("martingale", "cylinder modes", (
        "martingale.cantor", "martingale.inh")),
    Workload("fourier", "transform values", (
        "decay.cantor", "fourier.rational.cantor", "decay.mixed",
        "fourier.rational.mixed", "decay.inh", "fourier.rational.inh",
        "fourier.resonance.cantor")),
    Workload("fine-scale", "sequence values", (
        "beta-orbit.golden.csv", "power-orbit.csv", "correlations.uniform.k2",
        "correlations.uniform.k3", "correlations.uniform.k4",
        "correlations.power", "spacings.uniform", "spacings.power",
        "beta-orbit.golden.json", "power-orbit.json")),
)}


@dataclass(frozen=True)
class Defect:
    kind: str            # the op kind that fails
    error: str           # the exception type it raises
    raised_in: str       # the library function it is raised from
    where: str


# Op kinds that fail at this commit through a known defect, by the workload
# that probes them.  No counted op of a run may fail, so a known-failing kind
# stays out of the workload's cycle: each run draws one op of it at the
# workload's sizes and runs it outside the counted ops, to show whether the
# defect still reproduces.
KNOWN_DEFECTS = {
    # math.log(float(target)) after the target radius 2^-(L*log2(beta)+80)
    # underflows to 0.0, for L >= ~760 at beta = 5/2
    "fine-scale": Defect("beta-orbit.sampled", "ValueError", "sampled_point",
                         "sampling.py:563"),
}

_MAX_REDRAWS = 1000
_GOLDEN = (math.sqrt(5) - 1) / 2


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The workload's op stream for one seed; no input repeats.

    Every kind but power-orbit (x = 3/2, thousands of lengths) draws from an
    unbounded input space.  Should a kind still find no fresh input, the
    stream ends there instead of repeating one.

    Each kind's sizes follow the additive recurrence u_j = u_0 + j * phi
    (mod 1) from a seeded start u_0, so every run spreads its sizes evenly
    over the kind's range; the size mix then differs little between seeds
    and the run-to-run spread is mostly the machine's.
    """
    cycle = WORKLOADS[workload].cycle
    rng = random.Random(f"{workload}:{seed}")
    phase = {name: rng.random() for name in sorted(set(cycle))}
    drawn = dict.fromkeys(phase, 0)
    seen = set()
    index = 0
    while True:
        kind = KINDS[cycle[index % len(cycle)]]
        for _ in range(_MAX_REDRAWS):
            u = (phase[kind.name] + drawn[kind.name] * _GOLDEN) % 1.0
            drawn[kind.name] += 1
            argv, expect = kind.draw(rng, u)
            if argv not in seen:
                break
        else:
            return
        seen.add(argv)
        yield Op(index, kind.name, argv, kind.fmt, expect)
        index += 1


def defect_op(workload: str, seed: int) -> Op:
    """The one op of the workload's known defect that a run probes."""
    kind = KINDS[KNOWN_DEFECTS[workload].kind]
    rng = random.Random(f"{workload}:{seed}:defect")
    argv, expect = kind.draw(rng, rng.random())
    return Op(-1, kind.name, argv, kind.fmt, expect)


def check(op: Op, text: str) -> int:
    """Check one op's output; returns the work units it completed."""
    try:
        return KINDS[op.kind].check(op, text)
    except (ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
