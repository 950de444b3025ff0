"""Config parsing, canonical serialization, and the experiment runners."""

import json
import subprocess
import sys

import pytest

from coorbit_lab.cli import ConfigError, main, parse_config, serialize_config
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
    assert cfg.get("scan", "p") == 1.0
    assert cfg.get("scan", "u_values") == (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
    assert cfg.get("tolerance", "slope") == 0.02


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


def test_canonical_round_trip_is_idempotent():
    cfg = parse_config(MINIMAL_SCAN, kind="orbit-scan")
    canon = serialize_config(cfg)
    cfg2 = parse_config(canon)
    assert cfg2 == cfg
    assert serialize_config(cfg2) == canon


def test_canonical_form_golden():
    canon = serialize_config(parse_config(MINIMAL_SCAN, kind="orbit-scan"))
    assert canon == (
        "[experiment]\n"
        "kind = orbit-scan\n"
        "seed = 0\n"
        "\n"
        "[scan]\n"
        "task = chirp-1d\n"
        "p = 1.0\n"
        "u_values = 10.0,20.0,40.0,80.0,160.0,320.0\n"
        "u_min_fit = 32.0\n"
        "\n"
        "[tolerance]\n"
        "slope = 0.02\n"
        "invariance = 0.01\n"
    )


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n[scan]\n# another\ntask = chirp-1d\n"
    cfg = parse_config(text, kind="orbit-scan")
    assert cfg.get("scan", "task") == "chirp-1d"


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


def test_config_error_exits_3(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("[scan]\ntask = warble\n")
    assert main(["orbit-scan", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert main(["orbit-scan", "--config", str(tmp_path / "absent.cfg")]) == 3


def test_late_config_error_exits_3(tmp_path, capsys):
    # f_quad can only be checked against the group's acting dimension inside the runner
    text = "[group]\nname = g5_3\n\n[state]\nf_quad = 1.0,1.0,1.0\n"
    code, _ = run_cli(tmp_path, "late.cfg", text, "coorbit-norm")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "state.f_quad" in err


@pytest.mark.parametrize(
    "kind,text",
    [
        ("coorbit-norm", "[group]\nname = g5_3\nlam = 0\n"),
        ("coorbit-norm", "[group]\nname = g6_19\nmu = 0\n"),
        ("coorbit-norm", "[group]\nname = heisenberg\n\n[norm]\nbox_half = -1\n"),
        ("frame-sweep", "[sweep]\nlam = 0\n"),
        ("density", "[lattice]\ngroup = heisenberg\nheisenberg_d = 0\n"),
        ("rep-selftest", "[suite]\nn_pairs = -3\n"),
    ],
    ids=["g5_3-lam-0", "g6_19-mu-0", "negative-box", "sweep-lam-0", "heisenberg-d-0", "negative-pairs"],
)
def test_value_the_library_rejects_exits_3(tmp_path, capsys, kind, text):
    # a RepSpec, NormSpec, QuasiLattice or group record that rejects a config
    # value is a config error, not a traceback
    code, _ = run_cli(tmp_path, "rejected.cfg", text, kind)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_rep_selftest_end_to_end(tmp_path):
    text = "[suite]\ngroup = g5_3\nn_pairs = 40\n"
    code, out = run_cli(tmp_path, "reps.cfg", text, "rep-selftest")
    assert code == 0
    summary = json.loads((out / "rep-selftest.json").read_text())
    assert summary["metrics"]["max_homomorphism_error"] < 1e-12


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


def test_console_entry_point(tmp_path):
    path = tmp_path / "reps.cfg"
    path.write_text("[suite]\ngroup = heisenberg\nn_pairs = 20\n")
    proc = subprocess.run(
        [sys.executable, "-m", "coorbit_lab.cli", "rep-selftest", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
