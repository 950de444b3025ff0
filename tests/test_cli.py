"""Config parsing and the checks it makes, and the experiment runners."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coorbit_lab import cli, frames
from coorbit_lab.cli import ConfigError, main, parse_config
from coorbit_lab.gaussian import chirp, stft_closed, unit_gaussian
from coorbit_lab.groups import group_spec
from coorbit_lab.numerics import TailMassWarning

MINIMAL_SCAN = """\
[scan]
task = chirp-1d
p = 1.0
"""


def test_parse_fills_defaults():
    cfg = parse_config(MINIMAL_SCAN, kind="orbit-scan")
    assert cfg.kind == "orbit-scan"
    assert cfg.seed == 0
    assert cfg["scan.p"] == 1.0
    assert cfg["scan.u_values"] == (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
    assert cfg["tolerance.slope"] == 0.02


def test_parse_kind_from_file():
    text = "[experiment]\nkind = orbit-scan\n\n" + MINIMAL_SCAN
    cfg = parse_config(text)
    assert cfg.kind == "orbit-scan"


def test_kind_mismatch_rejected():
    text = "[experiment]\nkind = density\n"
    with pytest.raises(ConfigError, match="kind"):
        parse_config(text, kind="orbit-scan")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config("[experiment]\nkind = juggle\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="scan.task"):
        parse_config("[scan]\np = 2.0\n", kind="orbit-scan")


def test_unknown_key_cites_line():
    text = "[scan]\ntask = chirp-1d\nglitter = 7\n"
    with pytest.raises(ConfigError, match="line 3.*scan.glitter"):
        parse_config(text, kind="orbit-scan")


def test_type_mismatch_cites_line_and_key():
    text = "[scan]\ntask = chirp-1d\np = fast\n"
    with pytest.raises(ConfigError, match="line 3.*scan.p.*float"):
        parse_config(text, kind="orbit-scan")


def test_duplicate_key_rejected():
    text = "[scan]\ntask = chirp-1d\ntask = chirp-1d\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text, kind="orbit-scan")


def test_entry_before_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("task = chirp-1d\n", kind="orbit-scan")


def test_malformed_section_header():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[scan\ntask = chirp-1d\n", kind="orbit-scan")


def test_small_exponent_rejected_with_norm_invariant():
    text = "[group]\nname = g5_3\n\n[norm]\np = 0.5\n"
    with pytest.raises(ConfigError, match="line 5.*norm.p.*>= 1"):
        parse_config(text, kind="coorbit-norm")


def test_unknown_task_rejected():
    with pytest.raises(ConfigError, match="unknown task"):
        parse_config("[scan]\ntask = warble\n", kind="orbit-scan")


def test_unknown_group_rejected():
    with pytest.raises(ConfigError, match="unknown group"):
        parse_config("[lattice]\ngroup = so3\n", kind="density")


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n[scan]\n# another\ntask = chirp-1d\n"
    cfg = parse_config(text, kind="orbit-scan")
    assert cfg["scan.task"] == "chirp-1d"


def run_cli(tmp_path, name, text, kind, extra=()):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / f"out-{name}"
    code = main([kind, "--config", str(path), "--out", str(out), *extra])
    return code, out


def test_orbit_scan_end_to_end(tmp_path):
    code, out = run_cli(tmp_path, "scan.cfg", MINIMAL_SCAN, "orbit-scan")
    assert code == 0
    summary = json.loads((out / "orbit-scan.json").read_text())
    assert summary["experiment"] == "orbit-scan"
    assert summary["pass"] is True
    assert abs(summary["metrics"]["slope"] - 0.5) < 0.02
    lines = (out / "orbit-scan.csv").read_text().splitlines()
    assert lines[0] == "u,norm,space"
    assert len(lines) == 7


def test_orbit_scan_tolerance_violation_exits_2(tmp_path):
    text = MINIMAL_SCAN + "\n[tolerance]\nexpected = 5.0\n"
    code, out = run_cli(tmp_path, "bad-slope.cfg", text, "orbit-scan")
    assert code == 2
    summary = json.loads((out / "orbit-scan.json").read_text())
    assert summary["pass"] is False


def test_orbit_scan_records_centers_and_warnings(tmp_path):
    code, out = run_cli(tmp_path, "own.cfg", "[scan]\ntask = g53-curve-own\n", "orbit-scan")
    assert code == 0
    metrics = json.loads((out / "orbit-scan.json").read_text())["metrics"]
    assert metrics["warnings"] == []
    assert len(metrics["centers"]) == 6 and all(len(c) == 1 for c in metrics["centers"])
    _, out = run_cli(tmp_path, "chirp.cfg", MINIMAL_SCAN, "orbit-scan")
    metrics = json.loads((out / "orbit-scan.json").read_text())["metrics"]
    assert metrics["centers"] == [] and metrics["warnings"] == []


def test_every_norm_spec_field_is_set_by_a_norm_key():
    # a NormSpec field that no [norm] key sets is a knob that nothing reaches;
    # the weight is set by weight_s and weight_coords together
    from coorbit_lab.coorbit import NormSpec

    keys = {name.removeprefix("norm.") for name in cli._KINDS["coorbit-norm"].schema if name.startswith("norm.")}
    for field in dataclasses.fields(NormSpec):
        assert ({"weight_s", "weight_coords"} if field.name == "weight" else {field.name}) <= keys, field.name


def test_orbit_scan_default_ladder_is_the_engines():
    # the schema spells the ladder out, so that parsing a config loads no norm
    # engine; so it spells out every other default it copies from the library
    from coorbit_lab.coorbit import DEFAULT_SCAN, NormSpec, orbit_scan
    from coorbit_lab.representations import homomorphism_check

    def defaults(fn):
        return {name: param.default for name, param in inspect.signature(fn).parameters.items()}

    norm_spec = {field.name: field.default for field in dataclasses.fields(NormSpec)}
    estimate = [key for key in cli._KINDS["frame-sweep"].schema if key.startswith("estimate.")]
    library = {
        ("orbit-scan", "scan.u_values"): DEFAULT_SCAN,
        ("orbit-scan", "scan.u_min_fit"): defaults(orbit_scan)["u_min_fit"],
        **{("coorbit-norm", f"norm.{k}"): norm_spec[k] for k in ("p", "box_half", "resolution")},
        **{("frame-sweep", key): defaults(frames.frame_bounds_estimate)[key.split(".")[1]] for key in estimate},
        ("density", "lattice.n_points"): defaults(frames.tiling_check)["n_points"],
        **{("rep-selftest", f"suite.{k}"): defaults(homomorphism_check)[k] for k in ("n_pairs", "box")},
    }
    assert len(estimate) == 3
    assert {pair: cli._KINDS[pair[0]].schema[pair[1]][1] for pair in library} == library


def test_orbit_scan_tail_mass_fails_the_run(tmp_path, monkeypatch):
    # a weighted scan whose spectrogram spreads along xi as u grows: a box of
    # half-width 1 holds the small u and cuts u = 8 alone
    from coorbit_lab.coorbit import NormSpec, NormTask, chirp_scan_task, power_weight

    def spilling(p):
        spec = NormSpec(p=p, weight=power_weight(0.0, (1,)), box_half=1.0)
        base = chirp_scan_task(p)
        return NormTask("spill", spec, base.states, base.window)

    monkeypatch.setitem(cli._SCAN_TASKS, "chirp-1d", (spilling, "slope", lambda p: 0.0))
    text = (
        "[scan]\ntask = chirp-1d\np = 4.0\nu_values = 0.1,0.4,0.8,8.0\nu_min_fit = 0.0\n"
        "\n[tolerance]\nslope = 10.0\n"
    )
    with pytest.warns(TailMassWarning, match="u = 8:"):
        code, out = run_cli(tmp_path, "spill.cfg", text, "orbit-scan")
    assert code == 2
    summary = json.loads((out / "orbit-scan.json").read_text())
    assert summary["pass"] is False
    (message,) = summary["metrics"]["warnings"]
    assert message.startswith("modulation norm at u = 8:")


def test_orbit_scan_needs_three_distinct_u_values(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "same.cfg", MINIMAL_SCAN + "u_values = 40,40,40\n", "orbit-scan")
    assert code == 3
    assert "distinct" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,line,key",
    [("u_values = 10,20,40,40\n", 4, "scan.u_values"), ("u_min_fit = 1e6\n", 4, "scan.u_min_fit")],
    ids=["one-u-past-32", "none-past-1e6"],
)
def test_orbit_scan_with_one_abscissa_past_u_min_exits_3(tmp_path, capsys, text, line, key):
    # three distinct u, but only u = 40 lies past u_min_fit = 32, or none past
    # 1e6: no slope, which the settings alone decide, so no norm is taken
    code, out = run_cli(tmp_path, "one.cfg", MINIMAL_SCAN + text, "orbit-scan")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}, key '{key}': need at least two distinct u values")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "text",
    ["u_values = -10,20,40,80\nu_min_fit = -100\n", "u_values = 10,20,40,80,nan\n", "u_min_fit = nan\n"],
    ids=["fitted-u-negative", "u-nan", "u-min-fit-nan"],
)
def test_orbit_scan_fit_window_is_checked_at_parse_time(tmp_path, capfd, text):
    # the fit takes the log of every u from u_min_fit on; each of these
    # reached LAPACK or the engine before it was refused
    code, out = run_cli(tmp_path, "window.cfg", MINIMAL_SCAN + text, "orbit-scan")
    assert code == 3
    captured = capfd.readouterr()
    assert captured.err.startswith("config error: line ")
    assert "DLASCL" not in captured.out + captured.err
    assert not out.exists()


def test_config_error_exits_3(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("[scan]\ntask = warble\n")
    assert main(["orbit-scan", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert main(["orbit-scan", "--config", str(tmp_path / "absent.cfg")]) == 3
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe[scan]\n")
    assert main(["orbit-scan", "--config", str(binary), "--out", str(tmp_path)]) == 3
    # an output directory that cannot be made
    good = tmp_path / "good.cfg"
    good.write_text("[suite]\ngroup = heisenberg\nn_pairs = 5\n")
    assert main(["rep-selftest", "--config", str(good), "--out", str(binary)]) == 3


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_bad_seed_flag_exits_3(tmp_path, capsys, seed):
    # --seed is checked as the config's own seed is: a non-negative int
    code, out = run_cli(tmp_path, "s.cfg", "[suite]\nn_pairs = 5\n", "rep-selftest", extra=("--seed", seed))
    assert code == 3
    assert capsys.readouterr().err.startswith("config error: key '--seed': ")
    assert not out.exists()


# every error tolerance, and the density factor, with the lines a config
# needs before its [tolerance] section
_TOLERANCES = [
    ("verify-gaussian", "", key) for key in ("closed", "determinant", "grid")
] + [
    ("orbit-scan", "[scan]\ntask = chirp-1d\n\n", key) for key in ("slope", "invariance")
] + [
    ("coorbit-norm", "[group]\nname = heisenberg\n\n", "orthogonality"),
    ("frame-sweep", "", "ratio"),
    ("frame-sweep", "", "density_factor"),
    ("rep-selftest", "", "homomorphism"),
    ("rep-selftest", "", "unitarity"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("kind,head,key", _TOLERANCES, ids=[f"{kind}-{key}" for kind, _, key in _TOLERANCES])
def test_bad_tolerance_exits_3_and_names_its_line(tmp_path, capsys, kind, head, key, value):
    # a NaN bound passes nothing and a NaN density factor checks nothing: rep-selftest
    # exited 2 on a NaN or negative bound and 0 on an infinite one, and frame-sweep 0
    # on a NaN density factor, with no spacing counted as subcritical
    text = head + f"[tolerance]\n{key} = {value}\n"
    code, out = run_cli(tmp_path, "tol.cfg", text, kind)
    assert code == 3
    line = head.count("\n") + 2
    assert capsys.readouterr().err.startswith(f"config error: line {line}, key 'tolerance.{key}': must be finite and")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_expected_slope_exits_3_and_names_its_line(tmp_path, capsys, value):
    # a NaN or infinite expected slope ran the scan and exited 2, with the
    # slope written as null; a negative slope stays a valid expectation
    head = "[scan]\ntask = chirp-1d\n\n[tolerance]\n"
    assert parse_config(head + "expected = -0.5\n", kind="orbit-scan")["tolerance.expected"] == -0.5
    code, out = run_cli(tmp_path, "expected.cfg", head + f"expected = {value}\n", "orbit-scan")
    assert code == 3
    assert capsys.readouterr().err.startswith("config error: line 5, key 'tolerance.expected': must be finite")
    assert not out.exists()


# a Heisenberg group whose bracket form is past its budget, in each kind that builds one
_HUGE_H = [
    ("coorbit-norm", "[group]\nname = heisenberg\n", "group"),
    ("density", "[lattice]\ngroup = heisenberg\n", "lattice"),
    ("rep-selftest", "[suite]\ngroup = heisenberg\n", "suite"),
]


@pytest.mark.parametrize(
    "kind,text,where",
    [
        ("coorbit-norm", "[group]\nname = g5_3\nlam = 0\n", "line 3, key 'group.lam'"),
        ("coorbit-norm", "[group]\nname = heisenberg\nmu = 1\n", "line 3, key 'group.mu'"),
        ("coorbit-norm", "[group]\nname = heisenberg\nheisenberg_d = 0\n", "line 3, key 'group.heisenberg_d'"),
        ("coorbit-norm", "[group]\nname = g5_3\n\n[norm]\nbox_half = -1\n", "line 5, key 'norm.box_half'"),
        (
            "coorbit-norm",
            "[group]\nname = heisenberg\n\n[norm]\nweight_s = 1\nweight_coords = 5\n",
            "line 6, key 'norm.weight_coords'",
        ),
        ("frame-sweep", "[sweep]\nlam = 0\n", "line 2, key 'sweep.lam'"),
        ("density", "[lattice]\ngroup = heisenberg\nheisenberg_d = 0\n", "line 3, key 'lattice.heisenberg_d'"),
    ]
    + [(kind, head + "heisenberg_d = 1000000\n", f"line 3, key '{sec}.heisenberg_d'") for kind, head, sec in _HUGE_H],
    ids=["g5_3-lam-0", "heisenberg-mu-1", "heisenberg-d-0", "box-half", "weight-coords", "sweep-lam-0", "lattice-d-0"]
    + [f"{kind}-heisenberg-d-1e6" for kind, _, _ in _HUGE_H],
)
def test_value_a_library_object_rejects_names_its_line(kind, text, where):
    # the group record, RepSpec, weight and NormSpec are built at parse time
    with pytest.raises(ConfigError) as info:
        parse_config(text, kind=kind)
    assert str(info.value).startswith(where + ": ")


def test_late_config_error_exits_3(tmp_path, capsys):
    # f_quad can only be checked against the group's acting dimension inside
    # the runner: the config parses (the benchmark's CLI set-up parses it too)
    text = "[group]\nname = g5_3\n\n[state]\nf_quad = 1.0,1.0,1.0\n"
    assert parse_config(text, kind="coorbit-norm")["state.f_quad"] == (1.0, 1.0, 1.0)
    code, _ = run_cli(tmp_path, "late.cfg", text, "coorbit-norm")
    assert code == 3
    assert capsys.readouterr().err.startswith("config error: line 5, key 'state.f_quad': ")


# coorbit-norm values that a Gaussian, a weight or the norm engine rejects,
# with the key each config error must name
_BAD_STATE_AND_WEIGHT = [
    (f"state-f-quad-{v}", f"[group]\nname = heisenberg\n\n[state]\nf_quad = {v}\n", "state.f_quad")
    for v in ("-1.0", "0.0")
] + [
    (
        f"{name}-weight-coord-{c}",
        f"[group]\nname = {name}\n\n[norm]\nweight_s = 1.0\nweight_coords = {c}\n",
        "norm.weight_coords",
    )
    for name, c in (("g5_3", 4), ("heisenberg", 5), ("heisenberg", -1), ("heisenberg", "0,0"))
] + [
    (f"weight-s-{s}", f"[group]\nname = heisenberg\n\n[norm]\nweight_s = {s}\nweight_coords = 0\n", "norm.weight_s")
    for s in ("nan", "inf", "-inf", "1e308", "-1e308")
]


@pytest.mark.parametrize(
    "kind,text",
    [
        ("coorbit-norm", "[group]\nname = g5_3\nlam = 0\n"),
        ("coorbit-norm", "[group]\nname = g6_19\nmu = 0\n"),
        ("coorbit-norm", "[group]\nname = heisenberg\n\n[norm]\nbox_half = -1\n"),
        ("frame-sweep", "[sweep]\nlam = 0\n"),
        ("density", "[lattice]\ngroup = heisenberg\nheisenberg_d = 0\n"),
        ("rep-selftest", "[suite]\nn_pairs = -3\n"),
        ("density", "[lattice]\neps = nan\n"),
        ("frame-sweep", "[sweep]\neps_values = 0.5,inf\n"),
        ("coorbit-norm", "[group]\nname = heisenberg\nlam = nan\n"),
        ("coorbit-norm", "[group]\nname = dynin_folland\nlam = 1e200\n"),
        ("coorbit-norm", "[group]\nname = g5_3\n\n[norm]\nresolution = 1e-7\n"),
        ("coorbit-norm", "[group]\nname = heisenberg\n\n[state]\nf_quad = inf\n"),
        ("coorbit-norm", "[group]\nname = heisenberg\n\n[state]\nf_lin = -1e300\n"),
        (
            "frame-sweep",
            "[sweep]\nlam = -1e300\neps_values = 1e7\n\n[estimate]\nlattice_radius = 1e8\ndict_halfrange = 1.0\n",
        ),
        *(("coorbit-norm", text) for _, text, _ in _BAD_STATE_AND_WEIGHT),
    ],
    ids=[
        "g5_3-lam-0",
        "g6_19-mu-0",
        "negative-box",
        "sweep-lam-0",
        "heisenberg-d-0",
        "negative-pairs",
        "density-eps-nan",
        "sweep-eps-inf",
        "lam-nan",
        "dynin-d-pi-past-double-range",
        "g5_3-mesh-over-the-node-budget",
        "state-f-quad-inf",
        "state-l2-norm-past-double-range",
        "sweep-lam-times-reach-past-double-range",
        *(case for case, _, _ in _BAD_STATE_AND_WEIGHT),
    ],
)
def test_value_the_library_rejects_exits_3(tmp_path, capsys, kind, text):
    # a RepSpec, NormSpec, QuasiLattice or group record that rejects a config
    # value, or a work budget it exceeds, is a config error, not a traceback,
    # and raises no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = run_cli(tmp_path, "rejected.cfg", text, kind)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text,key", [case[1:] for case in _BAD_STATE_AND_WEIGHT], ids=[case[0] for case in _BAD_STATE_AND_WEIGHT]
)
def test_bad_state_and_weight_values_name_their_key(tmp_path, capsys, text, key):
    code, _ = run_cli(tmp_path, "bad.cfg", text, "coorbit-norm")
    assert code == 3
    assert f"key '{key}'" in capsys.readouterr().err


def test_frame_sweep_at_a_huge_lambda_keeps_its_formal_dimension(tmp_path):
    # det B = 1e600 overflows, d_pi = 1e300 does not; the Gram exponents that
    # overflow are exact zeros, and every sweep point lies below the density
    text = "[sweep]\nlam = -1e300\neps_values = 0.5,1.25\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, "huge.cfg", text, "frame-sweep")
    assert code == 0
    summary = _strict_json((out / "frame-sweep.json").read_text())
    assert summary["metrics"]["formal_dimension"] == pytest.approx(1e300, rel=1e-12)
    assert summary["metrics"]["worst_subcritical_ratio"] < 0.01


@pytest.mark.parametrize(
    "text",
    [
        "[samples]\ndims = 4\n",
        "[samples]\nclosed = -1\n",
        "[samples]\ngrid = -2\n",
        "[samples]\ndeterminant = -1\n",
    ],
    ids=["dims-4", "negative-closed", "negative-grid", "negative-determinant"],
)
def test_verify_gaussian_rejects_counts_and_dims_at_parse_time(text):
    with pytest.raises(ConfigError, match="line 2.*samples"):
        parse_config(text, kind="verify-gaussian")


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("solve diverged"),
        ValueError("matrix is singular"),
        OverflowError("result out of range"),
        MemoryError("Unable to allocate 10.5 TiB"),
    ],
)
def test_numerical_error_writes_the_json_and_exits_2(tmp_path, capsys, monkeypatch, exc):
    def failing_runner(config):
        raise exc

    monkeypatch.setitem(cli._KINDS, "density", cli._KINDS["density"]._replace(run=failing_runner))
    code, out = run_cli(tmp_path, "num.cfg", "[lattice]\ngroup = heisenberg\n", "density")
    assert code == 2
    summary = json.loads((out / "density.json").read_text())
    assert summary["pass"] is False
    assert summary["error"] == f"{type(exc).__name__}: {exc}"
    assert not (out / "density.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "Traceback" not in err


def _strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens, as strict parsers do."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_nan_error_fails_the_run(tmp_path):
    # elements of size 1e300 overflow the Heisenberg phases to NaN; the builtin
    # max drops a NaN that follows a number, which let this run exit 0.  The
    # JSON stays strict: the NaN metric is written as null
    assert math.isnan(cli._worst([0.0, math.nan])) and cli._worst([]) == 0.0
    text = "[suite]\ngroup = heisenberg\nn_pairs = 5\nbox = 1e300\n"
    with pytest.warns(RuntimeWarning, match="invalid value"):
        code, out = run_cli(tmp_path, "huge.cfg", text, "rep-selftest")
    assert code == 2
    summary = _strict_json((out / "rep-selftest.json").read_text())
    assert summary["pass"] is False
    assert summary["metrics"]["max_homomorphism_error"] is None


def test_non_finite_values_are_written_as_null():
    value = {"a": (1.5, math.inf), "b": [np.float64(-math.inf), {"c": math.nan}], "d": np.int64(3)}
    assert cli._finite_or_null(value) == {"a": [1.5, None], "b": [None, {"c": None}], "d": 3}


_CAPPED_CLI = """
import resource, sys
limit = 4 * 2**30  # 4 GiB of address space, in this process only
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from coorbit_lab.cli import main
sys.exit(main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


def _run_capped(tmp_path, kind, text):
    """Run kind on config text in a child process capped at 4 GiB of address space."""
    path = tmp_path / "capped.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, "-c", _CAPPED_CLI, kind, str(path), str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env), out


@pytest.mark.parametrize(
    "eps_values,count",
    [("0.5,1e-5", "lattice labels on a 2-dimensional quotient: 1,440,002,400,001"), ("0.02", "104,387,089")],
    ids=["labels", "gram"],
)
def test_frame_sweep_over_the_work_budget_exits_3(tmp_path, eps_values, count):
    # at eps = 1e-5 the frame-bound estimate would ask for a 10.5 TiB label
    # grid, at eps = 0.02 for 361,201 x 289 Gram entries; both are refused as
    # config errors naming the count before anything is allocated, so a
    # 4 GiB address-space cap is never reached
    proc, out = _run_capped(tmp_path, "frame-sweep", f"[sweep]\neps_values = {eps_values}\n")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("config error: frame bounds: ") and "Traceback" not in proc.stderr
    assert f"{count} exceeds the work budget" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "text,count",
    [
        ("[lattice]\ngroup = heisenberg\nheisenberg_d = 5\n", "labels in three 10-dimensional boxes: 29,296,875"),
        ("[lattice]\ngroup = dynin_folland\nn_points = 100000000\n", "of 100,000,000 points: 600,000,000"),
    ],
    ids=["labels", "points"],
)
def test_density_over_the_work_budget_exits_3(tmp_path, text, count):
    # 3 x 5^10 box labels at heisenberg_d = 5 (about 4 GB), and 10^8 points
    # in six coordinates (4.8 GB), are refused before they are allocated
    proc, out = _run_capped(tmp_path, "density", text)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("config error: ") and "Traceback" not in proc.stderr
    assert f"{count} exceeds the work budget" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,text,count",
    [
        ("density", "[lattice]\ngroup = all\nheisenberg_d = 5\n", "labels in three 10-dimensional boxes: 29,296,875"),
        ("frame-sweep", "[sweep]\neps_values = 0.5,1e-5\n", "lattice labels on a 2-dimensional quotient"),
        ("frame-sweep", "[sweep]\neps_values = 0.5,0.02\n", "Gram entries of 361,201 lattice points x 289"),
    ],
    ids=["density-all-groups", "frame-sweep-labels", "frame-sweep-gram"],
)
def test_a_run_over_the_work_budget_is_refused_before_any_lattice_work(
    tmp_path, capsys, monkeypatch, kind, text, count
):
    # no group or spacing before the refused one may do its lattice work
    calls = []
    for name in ("tiling_check", "lattice_points_in_box", "_coefficients"):

        def counting(*args, name=name, original=getattr(frames, name), **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(frames, name, counting)
    code, out = run_cli(tmp_path, "over.cfg", text, kind)
    assert code == 3
    assert count in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "kind,text",
    [
        ("density", "[lattice]\ngroup = heisenberg\neps = 1e300\nn_points = 50\n"),
        ("frame-sweep", "[sweep]\neps_values = 1e300\n"),
    ],
    ids=["density", "frame-sweep"],
)
def test_box_volume_past_double_range_exits_2_with_the_cause(tmp_path, capsys, kind, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "huge.cfg", text, kind)
    assert code == 2
    summary = _strict_json((out / f"{kind}.json").read_text())
    assert summary["pass"] is False
    assert summary["error"] == (
        "ValueError: the volume of a box of half-width 1.65e+301 at spacing eps = 1e+300 is past double range"
    )
    assert "Traceback" not in capsys.readouterr().err


def test_density_over_the_label_budget_exits_3_before_its_box_volume(tmp_path, capsys):
    # at heisenberg_d = 300 the box volume is past double range, but the
    # 3 x 5^600 labels are over the budget first: a config error, not a failed run
    code, out = run_cli(tmp_path, "wide.cfg", "[lattice]\ngroup = heisenberg\nheisenberg_d = 300\n", "density")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: density: lattice labels in three 600-dimensional boxes: about 10^420")
    assert "Traceback" not in err and not out.exists()


def test_density_at_a_sheared_boundary_spacing_passes(tmp_path):
    # g5_3 and g6_19 have lattice points exactly on their box boundary at eps = 0.3
    code, out = run_cli(tmp_path, "edge.cfg", "[lattice]\neps = 0.3\nn_points = 500\n", "density")
    assert code == 0
    assert json.loads((out / "density.json").read_text())["pass"] is True


@pytest.mark.parametrize("fault", ["duplicate", "outside", "missing"])
def test_a_failed_density_verification_fails_both_kinds(tmp_path, monkeypatch, fault):
    enumerate_box = frames.lattice_points_in_box

    def faulty(lat, center, r):
        ks = enumerate_box(lat, center, r)
        if fault == "duplicate":
            return np.vstack([ks, ks[:1]])
        if fault == "missing":  # every label left lies in its box, and none repeats
            return ks[1:]
        below = ks[np.argmin(ks[:, -1])] - np.eye(lat.ndim, dtype=np.int64)[-1]  # one step past the lowest label
        return np.vstack([ks, below])

    monkeypatch.setattr(frames, "lattice_points_in_box", faulty)
    assert frames.beurling_density(frames.QuasiLattice(group_spec("heisenberg", 1), 0.75))["verified"] is False
    for kind, text in (
        ("density", "[lattice]\ngroup = heisenberg\nn_points = 50\n"),
        ("frame-sweep", "[sweep]\neps_values = 0.5\n\n[estimate]\nlattice_radius = 2.0\ndict_halfrange = 1.0\n"),
    ):
        code, out = run_cli(tmp_path, f"{kind}.cfg", text, kind)
        assert code == 2, kind
        assert json.loads((out / f"{kind}.json").read_text())["pass"] is False
        assert (out / f"{kind}.csv").exists()


def test_lattice_labels_beyond_int64_exit_2_with_the_cause(tmp_path, capsys):
    text = "[lattice]\ngroup = heisenberg\neps = 1e-300\nn_points = 50\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "tiny.cfg", text, "density")
    assert code == 2
    summary = _strict_json((out / "density.json").read_text())
    assert summary["pass"] is False
    assert summary["error"].startswith("ValueError: lattice labels at spacing eps = 1e-300")
    assert "Traceback" not in capsys.readouterr().err


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from coorbit_lab.cli import main
configs = {
    "verify-gaussian": "[samples]\\nclosed = 5\\ngrid = 1\\ndeterminant = 2\\n",
    "orbit-scan": "[scan]\\ntask = chirp-1d\\n",
    "coorbit-norm": "[group]\\nname = heisenberg\\n",
    "frame-sweep": "[sweep]\\neps_values = 0.5\\n[estimate]\\nlattice_radius = 2.0\\ndict_halfrange = 1.0\\n",
    "density": "[lattice]\\ngroup = heisenberg\\nn_points = 50\\n",
    "rep-selftest": "[suite]\\ngroup = heisenberg\\nn_pairs = 5\\n",
}
codes = []
for kind, text in configs.items():
    path = f"{sys.argv[1]}/{kind}.cfg"
    with open(path, "w") as fh:
        fh.write(text)
    codes.append(main([kind, "--config", path, "--out", sys.argv[1]]))
print(codes)
"""


def test_runtime_needs_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0]"


# cheap settings per kind; the property below overrides one value at a time
_CHEAP = {
    "coorbit-norm": {"group.name": "heisenberg"},
    "density": {"lattice.group": "heisenberg", "lattice.n_points": "50"},
    "frame-sweep": {
        "sweep.eps_values": "1.25",
        "estimate.lattice_radius": "2.0",
        "estimate.dict_halfrange": "1.0",
    },
    "verify-gaussian": {"samples.closed": "5", "samples.grid": "1", "samples.determinant": "2"},
    "rep-selftest": {"suite.group": "heisenberg", "suite.n_pairs": "5"},
    "orbit-scan": {"scan.task": "chirp-1d", "scan.u_values": "10.0,40.0,80.0"},
}
_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e300, 1e-300])


def _value_for(tag):
    if tag.endswith("int"):
        return st.integers(-3, 2).map(str)
    if tag.endswith("ints"):
        return st.lists(st.integers(-1, 4), min_size=1, max_size=2).map(lambda v: ",".join(map(str, v)))
    if tag.endswith("floats"):
        return st.lists(_SPECIAL_FLOATS | st.just(1.25), min_size=1, max_size=2).map(
            lambda v: ",".join(map(repr, v))
        )
    return _SPECIAL_FLOATS.map(repr)


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(sorted(_CHEAP)))
    schema = cli._KINDS[kind].schema
    keys = sorted(k for k, (tag, _) in schema.items() if tag != "str")
    key = draw(st.sampled_from(keys))
    values = {**_CHEAP[kind], key: draw(_value_for(schema[key][0]))}
    sections = {}
    for dotted, value in values.items():
        sec, _, name = dotted.partition(".")
        sections.setdefault(sec, []).append(f"{name} = {value}")
    return kind, "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_configs())
def test_every_config_value_exits_0_2_or_3_without_traceback(case):
    # NaN, infinity, zero and negative values in every numeric key of the cheap
    # kinds; a RuntimeWarning (an overflow, say) counts as a failure too
    kind, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = f"{tmp}/case.cfg"
        with open(path, "w") as fh:
            fh.write(text)
        code = main([kind, "--config", path, "--out", tmp])
    assert code in (0, 2, 3), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("config error:")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_gaussian_draws_are_the_scalar_loop_draws(d):
    C, x, xi = cli._closed_samples(np.random.default_rng(11), d, 40)
    rng = np.random.default_rng(11)
    for i in range(40):
        Ci = rng.uniform(-3.0, 3.0, (d, d))
        np.testing.assert_array_equal(C[i], (Ci + Ci.T) / 2.0)
        np.testing.assert_array_equal(x[i], rng.uniform(-2.0, 2.0, d))
        np.testing.assert_array_equal(xi[i], rng.uniform(-2.0, 2.0, d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_reference_matches_the_scalar_algebra(d):
    C, x, xi = cli._closed_samples(np.random.default_rng(30 + d), d, 200)
    got = cli._closed_reference(C, x, xi)
    window = unit_gaussian(d)
    for i in range(200):
        want = abs(stft_closed(chirp(window, C[i]), window, x[i], xi[i]))
        assert abs(got[i] - want) <= 1e-12


def test_rep_selftest_end_to_end(tmp_path):
    text = "[suite]\ngroup = g5_3\nn_pairs = 40\n"
    code, out = run_cli(tmp_path, "reps.cfg", text, "rep-selftest")
    assert code == 0
    summary = json.loads((out / "rep-selftest.json").read_text())
    assert summary["metrics"]["max_homomorphism_error"] < 1e-12


def test_rep_selftest_sees_a_flipped_phase(tmp_path, monkeypatch):
    # the phase theta of every group's representation with its sign flipped:
    # pi is then no homomorphism, and only the phase shows it
    def flipped(name, heisenberg_d=1):
        grp = group_spec(name, heisenberg_d)

        def rep_factors(rep, a, C, S):
            theta, m, v = grp.rep_factors(rep, a, C, S)
            return -theta, m, v

        return dataclasses.replace(grp, rep_factors=rep_factors)

    monkeypatch.setattr(cli, "group_spec", flipped)
    code, out = run_cli(tmp_path, "flipped.cfg", "[suite]\nn_pairs = 40\n", "rep-selftest")
    assert code == 2
    assert json.loads((out / "rep-selftest.json").read_text())["pass"] is False
    rows = (out / "rep-selftest.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(float(row.split(",")[1]) > 1e-3 for row in rows)


def test_density_end_to_end(tmp_path):
    text = "[lattice]\ngroup = heisenberg\nn_points = 500\n"
    code, out = run_cli(tmp_path, "dens.cfg", text, "density")
    assert code == 0
    rows = (out / "density.csv").read_text().splitlines()
    assert rows[0].startswith("group,eps")
    assert rows[1].split(",")[3] == "0"  # zero tiling failures


def test_verify_gaussian_end_to_end(tmp_path):
    text = "[samples]\nclosed = 50\ngrid = 2\ndeterminant = 20\n"
    code, out = run_cli(tmp_path, "vg.cfg", text, "verify-gaussian")
    assert code == 0
    summary = json.loads((out / "verify-gaussian.json").read_text())
    assert summary["metrics"]["max_closed_error"] < 1e-10


def test_coorbit_norm_end_to_end(tmp_path):
    text = "[group]\nname = heisenberg\n\n[norm]\np = 2.0\n"
    code, out = run_cli(tmp_path, "co.cfg", text, "coorbit-norm")
    assert code == 0
    summary = json.loads((out / "coorbit-norm.json").read_text())
    assert summary["metrics"]["relative_error"] < 1e-6


def test_coorbit_norm_tail_mass_fails_the_run(tmp_path):
    # at p = 1 the g5_3 coefficients spread far past a box of half-width 0.5
    text = "[group]\nname = g5_3\n\n[norm]\np = 1.0\nbox_half = 0.5\n"
    with pytest.warns(TailMassWarning):
        code, out = run_cli(tmp_path, "tail.cfg", text, "coorbit-norm")
    assert code == 2
    summary = json.loads((out / "coorbit-norm.json").read_text())
    assert summary["pass"] is False
    assert len(summary["metrics"]["warnings"]) == 1
    assert "outer quadrature shell" in summary["metrics"]["warnings"][0]


@pytest.mark.parametrize("group,key,value", [("g6_16", "mu", "1e200"), ("g6_19", "mu", "1e300")])
def test_node_quadratics_past_double_range_exit_2(tmp_path, capsys, group, key, value):
    # the Hessians of the node quadratics leave double range, at the one node
    # of g6_16 or first in the recentring probe of g6_19; the run names that,
    # and no RuntimeWarning is raised on the way.  mu has grading weight 0,
    # so the unit character keeps it
    text = f"[group]\nname = {group}\n{key} = {value}\n\n[norm]\np = 1.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "huge.cfg", text, "coorbit-norm")
    assert code == 2
    summary = _strict_json((out / "coorbit-norm.json").read_text())
    assert summary["error"] == "OverflowError: the log-modulus quadratics leave double range"
    assert capsys.readouterr().err.startswith("numerical error: OverflowError")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="mu cancels in the g6_16 engine (ROADMAP item 9)")
def test_g6_16_norm_at_a_large_mu_is_the_norm_at_mu_0(tmp_path):
    # the CLI face of test_g6_16_norm_does_not_depend_on_a_large_mu: the
    # unit-window p = 1 norm is 2 whatever mu is, but this run exits 0 with
    # pass true, no warning and norm 1.772453850905516
    text = "[group]\nname = g6_16\nmu = 1e8\n\n[norm]\np = 1.0\n"
    code, out = run_cli(tmp_path, "mu.cfg", text, "coorbit-norm")
    summary = _strict_json((out / "coorbit-norm.json").read_text())
    assert code == 0 and summary["pass"] is True
    assert summary["metrics"]["norm"] == pytest.approx(2.0, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", ["1e300", "-1e160"])
def test_huge_lambda_is_taken_through_the_dilation(tmp_path, lam):
    # heisenberg's norm is meshed at lambda = +-1: where the node quadratics
    # at lambda itself leave double range, the norm is |lambda|^(-1/p) times
    # the norm at lambda = 1, p = 1 here (the default state is the unit
    # Gaussian, whose norms at lambda = -1 and 1 agree)
    def norm(value):
        text = f"[group]\nname = heisenberg\nlam = {value}\n\n[norm]\np = 1.0\n"
        code, out = run_cli(tmp_path, f"lam{value}.cfg", text, "coorbit-norm")
        assert code == 0
        return _strict_json((out / "coorbit-norm.json").read_text())["metrics"]["norm"]

    assert norm(lam) == pytest.approx(abs(float(lam)) ** -1.0 * norm("1.0"), rel=1e-12)


def test_run_warnings_meet_the_callers_filters(tmp_path):
    # a run records its warnings for the JSON, then issues them again: a
    # filter that turns them into errors acts on them
    text = "[group]\nname = g5_3\n\n[norm]\np = 1.0\nbox_half = 0.5\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", TailMassWarning)
        with pytest.raises(TailMassWarning, match="outer quadrature shell"):
            run_cli(tmp_path, "tail.cfg", text, "coorbit-norm")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", ["1.0", "1.5"])
def test_coorbit_norm_past_double_range_exits_2(tmp_path, capsys, p):
    # f_lin = 94.454... is the largest linear term whose L2 norm is finite;
    # at p < 2 the norm exceeds the L2 norm and is past double range.  Its
    # exp overflowed to inf, which was written as "norm": null with pass true
    text = f"[group]\nname = heisenberg\n\n[norm]\np = {p}\n\n[state]\nf_lin = 94.45406403100851\n"
    code, out = run_cli(tmp_path, "huge.cfg", text, "coorbit-norm")
    assert code == 2
    summary = _strict_json((out / "coorbit-norm.json").read_text())
    assert summary["pass"] is False
    assert summary["error"].startswith("OverflowError: ")
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_coorbit_norm_on_dynin_folland_uses_the_closed_form(tmp_path):
    text = "[group]\nname = dynin_folland\n"
    code, out = run_cli(tmp_path, "df.cfg", text, "coorbit-norm")
    assert code == 0
    metrics = json.loads((out / "coorbit-norm.json").read_text())["metrics"]
    assert metrics["formal_dimension"] == 1.0
    assert metrics["formal_dimension_source"] == "closed-form"
    assert 0.0 < metrics["relative_error"] < 1e-3
    assert metrics["warnings"] == []


def test_frame_sweep_end_to_end(tmp_path):
    text = "[sweep]\neps_values = 0.5,1.25\n"
    code, out = run_cli(tmp_path, "fs.cfg", text, "frame-sweep")
    assert code == 0
    rows = (out / "frame-sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,density,A_est,B_est"
    assert len(rows) == 3


def test_same_seed_gives_byte_identical_csv(tmp_path):
    text = "[samples]\nclosed = 40\ngrid = 2\ndeterminant = 10\n"
    _, out_a = run_cli(tmp_path, "a.cfg", text, "verify-gaussian", extra=("--seed", "7"))
    _, out_b = run_cli(tmp_path, "b.cfg", text, "verify-gaussian", extra=("--seed", "7"))
    bytes_a = (out_a / "verify-gaussian.csv").read_bytes()
    bytes_b = (out_b / "verify-gaussian.csv").read_bytes()
    assert bytes_a == bytes_b
    _, out_c = run_cli(tmp_path, "c.cfg", text, "verify-gaussian", extra=("--seed", "8"))
    assert (out_c / "verify-gaussian.csv").read_bytes() != bytes_a


@pytest.mark.parametrize("lam", ["1e-310", "-4e-320"])
def test_subnormal_lambda_is_one_config_error_under_warnings_as_errors(tmp_path, lam):
    # refused before slogdet sees it: no RuntimeWarning, so no traceback
    # under -W error, only the config error line and exit 3
    path = tmp_path / "tiny.cfg"
    path.write_text(f"[group]\nname = g6_16\nlam = {lam}\n")
    out = tmp_path / "out"
    cmd = [sys.executable, "-W", "error", "-m", "coorbit_lab.cli", "coorbit-norm", "--config", str(path), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("config error: ") and "below the smallest normal double" in line
    assert not out.exists()


def test_console_entry_point(tmp_path):
    path = tmp_path / "reps.cfg"
    path.write_text("[suite]\ngroup = heisenberg\nn_pairs = 20\n")
    proc = subprocess.run(
        [sys.executable, "-m", "coorbit_lab.cli", "rep-selftest", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
