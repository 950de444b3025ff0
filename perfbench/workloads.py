"""The three workloads: inputs made from a seed, one round of operations, checks.

A round runs every operation of its workload a fixed number of times, so the
share of failed operations is the same in every run whatever its length.
An operation *fails* when the program raises or a command crashes; it is
*incorrect* when it completes with an output its check rejects.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Round:
    """What one round measured: timing samples per named figure, operation counts, verdicts."""

    wall_s: float = 0.0
    samples: dict = field(default_factory=dict)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    trace_summaries: list = field(default_factory=list)
    traced_wall_s: float = 0.0
    child_maxrss_kb: int = 0

    def sample(self, figure: str, seconds: float) -> None:
        self.samples.setdefault(figure, []).append(seconds)

    def attempt(self, kind: str, call):
        """Run one operation; return (result, seconds), or (None, None) when the program raised."""
        self.attempted[kind] += 1
        t0 = perf_counter()
        try:
            value = call()
        except Exception:  # the operation failed: count it and keep measuring the rest
            self.failed[kind] += 1
            self.failures.append(f"{kind}: {traceback.format_exc(limit=3)}")
            return None, None
        return value, perf_counter() - t0

    def verify(self, check, *args) -> bool:
        try:
            check(*args)
        except checks.CheckError as exc:
            self.problems.append(str(exc))
            return False
        return True


def _draw_state(rng, dim: int):
    """Diagonal real width in [0.7, 1.4], linear term with real and imaginary parts in [-1, 1]."""
    a = rng.uniform(0.7, 1.4, dim)
    b = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    return a, b


# ---------------------------------------------------------------------------
# norm-engine: coorbit_norm_log at p = 2 on all five groups, plus one weighted norm


def interleaved(slow_steps, fast_batch) -> None:
    """Run fast_batch before, between and after the slow steps.

    Short operations then sample the whole round rather than one stretch of
    it, so a burst of load from elsewhere on the machine moves few of them.
    """
    fast_batch()
    for step in slow_steps:
        step()
        fast_batch()


@dataclass
class NormCase:
    figure: str
    repeats: int  # per round for a slow case, per batch for a fast one
    fast: bool
    rep: object
    f: object
    g: object
    spec: object
    expected: float
    rtol: float


# group, lambda, mu, acting dimension, whether the norm takes milliseconds,
# repeats; a fast norm runs that many times in each of the round's batches
NORM_GROUPS = (
    ("heisenberg", 1.0, 0.0, 1, True, 12),
    ("g6_16", 1.0, 1.0, 2, True, 12),
    ("g5_3", 1.0, 0.0, 2, False, 2),
    ("g6_19", 1.0, 1.0, 2, False, 2),
    ("dynin_folland", 1.0, 0.0, 3, False, 1),
)
WEIGHTED_REPEATS = 2


class NormEngine:
    name = "norm-engine"
    figures = tuple(f"norm_s.{g[0]}" for g in NORM_GROUPS) + ("norm_s.weighted",)

    def build(self, seed: int, out_dir: str):
        from coorbit_lab.coorbit import NormSpec, coorbit_norm_log, power_weight
        from coorbit_lab.gaussian import Gaussian, unit_gaussian
        from coorbit_lab.groups import group_spec
        from coorbit_lab.representations import RepSpec

        rng = np.random.default_rng(seed)
        cases = []
        for name, lam, mu, dim, fast, repeats in NORM_GROUPS:
            a, b = _draw_state(rng, dim)
            expected = (
                checks.gaussian_l2(a, b)
                * checks.gaussian_l2(np.ones(dim), np.zeros(dim))
                / math.sqrt(checks.formal_dimension(name, lam, mu))
            )
            cases.append(
                NormCase(
                    f"norm_s.{name}",
                    repeats,
                    fast,
                    RepSpec(group_spec(name), lam, mu),
                    Gaussian(np.diag(a), b),
                    unit_gaussian(dim),
                    NormSpec(p=2.0),
                    expected,
                    1e-6,
                )
            )
        a, b = _draw_state(rng, 1)
        spec = NormSpec(p=2.0, weight=power_weight(1.0, (0, 1)))
        expected = checks.heisenberg_weighted_grid_norm(a[0], b[0], 1.0, spec.box_half, spec.resolution, 1.0)
        cases.append(
            NormCase(
                "norm_s.weighted",
                WEIGHTED_REPEATS,
                False,
                RepSpec(group_spec("heisenberg"), 1.0),
                Gaussian(np.diag(a), b),
                unit_gaussian(1),
                spec,
                expected,
                1e-9,
            )
        )
        first = cases[0]
        coorbit_norm_log(first.rep, first.f, first.g, first.spec)  # first-call costs belong to set-up
        return cases

    def _norm(self, case: NormCase, rnd: Round) -> None:
        from coorbit_lab.coorbit import coorbit_norm_log

        log_norm, seconds = rnd.attempt(case.figure, lambda: coorbit_norm_log(case.rep, case.f, case.g, case.spec))
        if seconds is not None:
            rnd.sample(case.figure, seconds)
            rnd.verify(checks.close, case.figure, math.exp(log_norm), case.expected, case.rtol)

    def round(self, cases, rnd: Round) -> None:
        fast = [c for c in cases if c.fast]
        slow = [c for c in cases if not c.fast]
        steps = [c for i in range(max(c.repeats for c in slow)) for c in slow if i < c.repeats]

        def fast_batch():
            for case in fast:
                for _ in range(case.repeats):
                    self._norm(case, rnd)

        interleaved([lambda c=c: self._norm(c, rnd) for c in steps], fast_batch)


# ---------------------------------------------------------------------------
# orbit-scans: the six CLI scan tasks at p = 1 through orbit_scan

BASE_U = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
BASE_U_MIN_FIT = 32.0
SCAN_P = 1.0
MODULATION_REPEATS = 4  # per batch: the modulation scans take milliseconds


@dataclass
class ScanCase:
    label: str
    task: object
    mode: str  # "slope" or "invariant"
    expected: float


class OrbitScans:
    name = "orbit-scans"
    figures = ("scan_s.modulation", "scan_s.coorbit")

    def build(self, seed: int, out_dir: str):
        from coorbit_lab.coorbit import chirp_scan_task, df_modulation_task, g53_curve_tasks, modulation_norm_log

        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.85, 1.15))
        p = SCAN_P
        own, modulation, sibling = g53_curve_tasks(p)
        # exponents from the paper: 1/p - 1/2 on the line, 2/p - 1 for the planar
        # cross chirp and the 7-dimensional chirp direction, 1/(2p) - 1/4 on G6,19
        modulation_cases = [
            ScanCase("chirp-1d", chirp_scan_task(p), "slope", 1.0 / p - 0.5),
            ScanCase("chirp-2d-cross", chirp_scan_task(p, cross=True), "slope", 2.0 / p - 1.0),
            ScanCase("g53-curve-modulation", modulation, "slope", 1.0 / p - 0.5),
            ScanCase("df-chirp-direction", df_modulation_task(p), "slope", 2.0 / p - 1.0),
        ]
        coorbit_cases = [
            ScanCase("g53-curve-own", own, "invariant", 0.0),
            ScanCase("g53-curve-sibling", sibling, "slope", 0.5 / p - 0.25),
        ]
        u_values = tuple(u * scale for u in BASE_U)
        first = modulation_cases[0].task
        f, g = first.prepare(u_values[0])
        modulation_norm_log(f, g, first.norm)  # first-call costs belong to set-up
        return modulation_cases, coorbit_cases, u_values, BASE_U_MIN_FIT * scale

    def _scan(self, case: ScanCase, u_values, u_min_fit, rnd: Round):
        from coorbit_lab.coorbit import orbit_scan

        result, seconds = rnd.attempt(case.label, lambda: orbit_scan(case.task, u_values, u_min_fit))
        if seconds is None:
            return None
        if case.mode == "slope":
            rnd.verify(checks.slope, case.label, result.slope, case.expected)
        else:
            rnd.verify(checks.invariant, case.label, np.exp(result.log_norms))
        return seconds

    def round(self, inputs, rnd: Round) -> None:
        modulation_cases, coorbit_cases, u_values, u_min_fit = inputs
        coorbit_times = []

        def modulation_batch():
            for _ in range(MODULATION_REPEATS):
                times = [self._scan(c, u_values, u_min_fit, rnd) for c in modulation_cases]
                if None not in times:
                    rnd.sample("scan_s.modulation", sum(times))

        steps = [lambda c=c: coorbit_times.append(self._scan(c, u_values, u_min_fit, rnd)) for c in coorbit_cases]
        interleaved(steps, modulation_batch)
        if None not in coorbit_times:
            rnd.sample("scan_s.coorbit", sum(coorbit_times))


# ---------------------------------------------------------------------------
# cli-checks: four CLI kinds in fresh processes, twice, plus one malformed config

CLI_KINDS = ("verify-gaussian", "rep-selftest", "density", "frame-sweep")
# a 3-entry state.f_quad for the 2-dimensional acting space of g5_3: a config
# error that the CLI contract answers with exit code 3
MALFORMED = "[experiment]\nkind = coorbit-norm\n\n[group]\nname = g5_3\n\n[state]\nf_quad = 1.0,1.0,1.0\n"
CHILD_TIMEOUT_S = 150.0


@dataclass
class ChildResult:
    code: int
    seconds: float
    maxrss_kb: int
    stdout: str
    stderr: str


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root: str, log_prefix: str) -> ChildResult:
    """Run a command to its end; wall time from spawn to reaping, and its peak RSS."""
    with open(log_prefix + ".out", "w+") as out, open(log_prefix + ".err", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, seconds, usage.ru_maxrss, out.read(), err.read())


class CliChecks:
    name = "cli-checks"
    figures = tuple(f"cli_s.{k}" for k in CLI_KINDS)

    def build(self, seed: int, out_dir: str):
        from coorbit_lab.cli import parse_config

        cfg_dir = os.path.join(out_dir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        configs = {}
        for kind in CLI_KINDS:
            text = f"[experiment]\nkind = {kind}\n"
            parse_config(text)
            configs[kind] = _write(os.path.join(cfg_dir, f"{kind}.cfg"), text)
        parse_config(MALFORMED)  # the fault shows only when the run starts
        configs["malformed"] = _write(os.path.join(cfg_dir, "malformed.cfg"), MALFORMED)
        return seed, configs, out_dir

    def _cli_pass(self, inputs, tag: str, rnd: Round, traced: bool) -> dict:
        seed, configs, out_dir = inputs
        root = os.getcwd()
        csvs = {}
        for kind in CLI_KINDS:
            run_dir = os.path.join(out_dir, tag, kind)
            os.makedirs(run_dir, exist_ok=True)
            argv = [sys.executable, "-m", "coorbit_lab.cli"]
            if traced:
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), "--trace-out", os.path.join(run_dir, "trace")]
            argv += [kind, "--config", configs[kind], "--out", run_dir, "--seed", str(seed)]
            rnd.attempted[kind] += 1
            res = run_child(argv, root, os.path.join(run_dir, "log"))
            rnd.child_maxrss_kb = max(rnd.child_maxrss_kb, res.maxrss_kb)
            if res.code not in (0, 2) or "Traceback" in res.stderr:
                rnd.failed[kind] += 1
                rnd.failures.append(f"{kind}: exit {res.code}\n{res.stderr[-2000:]}")
                continue
            if traced:
                with open(os.path.join(run_dir, "trace.summary.json")) as fh:
                    rnd.trace_summaries.append(json.load(fh))
            else:
                rnd.sample(f"cli_s.{kind}", res.seconds)
            with open(os.path.join(run_dir, f"{kind}.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(run_dir, f"{kind}.csv"), "rb") as fh:
                csvs[kind] = fh.read()
            if rnd.verify(checks.exit_status, kind, res.code, 0, res.stderr):
                rnd.verify(checks.summary_passes, kind, summary)
            if kind == "density":
                rnd.verify(checks.density_table, csvs[kind].decode())
            elif kind == "frame-sweep":
                rnd.verify(checks.frame_table, csvs[kind].decode(), checks.formal_dimension("heisenberg", 1.0))
        return csvs

    def _malformed(self, inputs, rnd: Round) -> None:
        _, configs, out_dir = inputs
        run_dir = os.path.join(out_dir, "malformed")
        os.makedirs(run_dir, exist_ok=True)
        argv = [sys.executable, "-m", "coorbit_lab.cli", "coorbit-norm", "--config", configs["malformed"], "--out", run_dir]
        rnd.attempted["malformed-config"] += 1
        res = run_child(argv, os.getcwd(), os.path.join(run_dir, "log"))
        try:
            checks.exit_status("malformed coorbit-norm config", res.code, 3, res.stderr)
        except checks.CheckError as exc:
            rnd.failed["malformed-config"] += 1
            rnd.failures.append(str(exc))

    def round(self, inputs, rnd: Round, traced: bool = False) -> None:
        """Two passes over the four kinds with the same seed; the second may be traced."""
        t0 = perf_counter()
        first = self._cli_pass(inputs, "pass-a", rnd, traced=False)
        t1 = perf_counter()
        second = self._cli_pass(inputs, "pass-b", rnd, traced=traced)
        t2 = perf_counter()
        for kind in CLI_KINDS:
            if kind in first and kind in second:
                rnd.verify(checks.same_bytes, kind, first[kind], second[kind])
        self._malformed(inputs, rnd)
        if traced:
            rnd.wall_s, rnd.traced_wall_s = t1 - t0, t2 - t1


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


WORKLOADS = {w.name: w for w in (NormEngine(), OrbitScans(), CliChecks())}
