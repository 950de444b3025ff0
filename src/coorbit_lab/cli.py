"""Experiment runner behind the ``coorbit-lab`` command.

Each invocation runs one experiment kind from a small line-oriented config
file, writes a CSV table plus a JSON summary into the output directory, and
exits 0 on success, 2 when a declared tolerance is violated, and 3 on a bad
config, including a value that only a group, representation, norm or lattice
can reject.  Given the same config and seed the CSV output is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .coorbit import (
    DEFAULT_SCAN,
    NormSpec,
    chirp_scan_task,
    coorbit_norm_log,
    df_modulation_task,
    g53_curve_tasks,
    orbit_scan,
    power_weight,
)
from .frames import (
    QuasiLattice,
    beurling_density,
    frame_bounds_estimate,
    tiling_check,
)
from .gaussian import (
    Gaussian,
    chirp,
    chirp_stft_modulus,
    delta_matrix,
    l2_norm,
    log_gauss_integrals,
    unit_gaussian,
)
from .groups import GROUPS, group_spec
from .numerics import GridSpec, TailMassWarning, WorkBudgetError, dft_stft
from .representations import RepSpec, homomorphism_check, known_formal_dimension, unitarity_check

_REQUIRED = object()
_TWO_PI = 2.0 * np.pi
_LOG_MAX = math.log(sys.float_info.max)


class ConfigError(Exception):
    """Raised for any malformed or invalid config; carries line and key context."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if key is not None:
            parts.append(f"key {key!r}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    params: dict

    @property
    def kind(self) -> str:
        return self.params[("experiment", "kind")]

    @property
    def seed(self) -> int:
        return self.params[("experiment", "seed")]

    def get(self, section: str, key: str):
        return self.params[(section, key)]


# ---------------------------------------------------------------------------
# schemas: (section, key) -> (type tag, default); _REQUIRED means no default.
# Type tags: int, float, str, floats (comma list), ints (comma list);
# an "opt-" prefix admits the absence of the key with a None value.

_COMMON = {
    ("experiment", "kind"): ("str", None),
    ("experiment", "seed"): ("int", 0),
}

SCHEMAS: dict[str, dict] = {
    "verify-gaussian": {
        **_COMMON,
        ("samples", "closed"): ("int", 1000),
        ("samples", "determinant"): ("int", 100),
        ("samples", "grid"): ("int", 20),
        ("samples", "dims"): ("ints", (1, 2)),
        ("tolerance", "closed"): ("float", 1e-10),
        ("tolerance", "determinant"): ("float", 1e-10),
        ("tolerance", "grid"): ("float", 1e-6),
    },
    "orbit-scan": {
        **_COMMON,
        ("scan", "task"): ("str", _REQUIRED),
        ("scan", "p"): ("float", 1.0),
        ("scan", "u_values"): ("floats", DEFAULT_SCAN),
        ("scan", "u_min_fit"): ("float", 32.0),
        ("tolerance", "slope"): ("float", 0.02),
        ("tolerance", "invariance"): ("float", 0.01),
        ("tolerance", "expected"): ("opt-float", None),
    },
    "coorbit-norm": {
        **_COMMON,
        ("group", "name"): ("str", _REQUIRED),
        ("group", "heisenberg_d"): ("int", 1),
        ("group", "lam"): ("float", 1.0),
        ("group", "mu"): ("float", 0.0),
        ("norm", "p"): ("float", 2.0),
        ("norm", "box_half"): ("float", 8.0),
        ("norm", "resolution"): ("float", 0.125),
        ("norm", "weight_s"): ("opt-float", None),
        ("norm", "weight_coords"): ("opt-ints", None),
        ("state", "f_quad"): ("opt-floats", None),
        ("state", "f_lin"): ("opt-floats", None),
        ("tolerance", "orthogonality"): ("float", 1e-3),
    },
    "frame-sweep": {
        **_COMMON,
        ("sweep", "lam"): ("float", 1.0),
        ("sweep", "eps_values"): ("floats", (0.5, 0.7, 0.9, 1.1, 1.25, 1.5)),
        ("estimate", "lattice_radius"): ("float", 6.0),
        ("estimate", "dict_halfrange"): ("float", 4.0),
        ("estimate", "dict_step"): ("float", 0.5),
        ("tolerance", "ratio"): ("float", 0.01),
        ("tolerance", "density_factor"): ("float", 0.95),
    },
    "density": {
        **_COMMON,
        ("lattice", "group"): ("str", "all"),
        ("lattice", "heisenberg_d"): ("int", 1),
        ("lattice", "eps"): ("float", 0.75),
        ("lattice", "n_points"): ("int", 10000),
    },
    "rep-selftest": {
        **_COMMON,
        ("suite", "group"): ("str", "all"),
        ("suite", "heisenberg_d"): ("int", 1),
        ("suite", "n_pairs"): ("int", 500),
        ("suite", "box"): ("float", 2.0),
        ("tolerance", "homomorphism"): ("float", 1e-10),
        ("tolerance", "unitarity"): ("float", 1e-10),
    },
}

_SECTION_ORDER = {
    kind: tuple(dict.fromkeys(section for section, _ in schema))
    for kind, schema in SCHEMAS.items()
}


def _coerce(tag: str, raw: str, line: int, key: str):
    base = tag[4:] if tag.startswith("opt-") else tag
    try:
        if base == "int":
            return int(raw)
        if base == "float":
            return float(raw)
        if base == "floats":
            return tuple(float(tok) for tok in raw.split(","))
        if base == "ints":
            return tuple(int(tok) for tok in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(f"expected {base}, got {raw!r}", line, key) from None


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse the line-oriented config format.

    Sections are ``[name]`` lines, entries are ``key = value``; blank lines
    and ``#`` comments are skipped.  Every diagnostic names the offending
    line and key.  The experiment kind may come from the file, the argument,
    or both (they must then agree).
    """
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError("malformed section header", line_no)
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line_no)
        if section is None:
            raise ConfigError("entry before any [section] header", line_no, key)
        if (section, key) in entries:
            raise ConfigError("duplicate key", line_no, f"{section}.{key}")
        entries[(section, key)] = (value, line_no)

    file_kind = entries.get(("experiment", "kind"))
    if kind is None:
        if file_kind is None:
            raise ConfigError("missing required key", key="experiment.kind")
        kind = file_kind[0]
    elif file_kind is not None and file_kind[0] != kind:
        raise ConfigError(
            f"config is for kind {file_kind[0]!r}, not {kind!r}", file_kind[1], "experiment.kind"
        )
    if kind not in SCHEMAS:
        line = file_kind[1] if file_kind else None
        raise ConfigError(f"unknown experiment kind {kind!r}", line, "experiment.kind")

    schema = SCHEMAS[kind]
    positions: dict[tuple[str, str], int] = {}
    params: dict[tuple[str, str], object] = {}
    for (sec, key), (raw, line_no) in entries.items():
        if (sec, key) == ("experiment", "kind"):
            continue
        if (sec, key) not in schema:
            raise ConfigError("unknown key", line_no, f"{sec}.{key}")
        tag = schema[(sec, key)][0]
        params[(sec, key)] = _coerce(tag, raw, line_no, f"{sec}.{key}")
        positions[(sec, key)] = line_no
    for (sec, key), (tag, default) in schema.items():
        if (sec, key) == ("experiment", "kind") or (sec, key) in params:
            continue
        if default is _REQUIRED:
            raise ConfigError("missing required key", key=f"{sec}.{key}")
        params[(sec, key)] = default
    params[("experiment", "kind")] = kind

    _semantic_check(kind, params, positions)
    return ExperimentConfig(params)


@contextmanager
def _rejected_values(section: str):
    """Report a value the library rejects (a ValueError from building a group,
    RepSpec, NormSpec or QuasiLattice) as a ConfigError on the config section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), key=section) from None


def _pos(positions, sec, key):
    return positions.get((sec, key))


def _positive(value) -> bool:
    """A finite positive number; NaN and infinity fail both tests."""
    return value > 0 and math.isfinite(value)


def _semantic_check(kind: str, params: dict, positions: dict) -> None:
    """Cross-field validation; errors cite the line that set the bad value."""
    def fail(sec, key, message):
        raise ConfigError(message, _pos(positions, sec, key), f"{sec}.{key}")

    def check_norm_spec(sec, **kwargs):
        try:
            NormSpec(**kwargs)
        except ValueError as exc:
            fail(sec, "p", str(exc))

    def check_group(sec, key):
        name = params[(sec, key)]
        if name != "all" and name not in GROUPS:
            fail(sec, key, f"unknown group {name!r}; expected one of {', '.join(GROUPS)} or all")

    def check_positive(sec, key):
        values = params[(sec, key)]
        if not all(_positive(v) for v in (values if isinstance(values, tuple) else (values,))):
            fail(sec, key, f"{key} must be finite and positive")

    if params[("experiment", "seed")] < 0:
        fail("experiment", "seed", "seed must be non-negative")
    if kind == "orbit-scan":
        task = params[("scan", "task")]
        if task not in _SCAN_TASKS:
            fail("scan", "task", f"unknown task {task!r}; expected one of {', '.join(sorted(_SCAN_TASKS))}")
        check_norm_spec("scan", p=params[("scan", "p")])
        if len(set(params[("scan", "u_values")])) < 3:
            fail("scan", "u_values", "need at least three distinct scan points for a fit")
    elif kind == "coorbit-norm":
        check_group("group", "name")
        if params[("group", "name")] == "all":
            fail("group", "name", "coorbit-norm runs one group at a time")
        spec_kwargs = {"p": params[("norm", "p")]}
        ws, wc = params[("norm", "weight_s")], params[("norm", "weight_coords")]
        if (ws is None) != (wc is None):
            fail("norm", "weight_s", "weight_s and weight_coords must be given together")
        if ws is not None:
            if not math.isfinite(ws):
                fail("norm", "weight_s", "weight_s must be finite")
            spec_kwargs["weight"] = power_weight(ws, wc)
        check_norm_spec("norm", **spec_kwargs)
    elif kind == "verify-gaussian":
        for d in params[("samples", "dims")]:
            try:
                GridSpec.default_for(d)
            except ValueError as exc:
                fail("samples", "dims", str(exc))
        for key in ("closed", "grid", "determinant"):
            if params[("samples", key)] < 0:
                fail("samples", key, f"{key} must be non-negative")
    elif kind == "density":
        check_group("lattice", "group")
        check_positive("lattice", "eps")
        if params[("lattice", "n_points")] < 1:
            fail("lattice", "n_points", "n_points must be positive")
    elif kind == "rep-selftest":
        check_group("suite", "group")
        if params[("suite", "n_pairs")] < 0:
            fail("suite", "n_pairs", "n_pairs must be non-negative")
        check_positive("suite", "box")
    elif kind == "frame-sweep":
        check_positive("sweep", "eps_values")
        for key in ("lattice_radius", "dict_step"):
            check_positive("estimate", key)
        halfrange = params[("estimate", "dict_halfrange")]
        if not (halfrange >= 0 and math.isfinite(halfrange)):
            fail("estimate", "dict_halfrange", "dict_halfrange must be finite and non-negative")


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form: schema order, one key per line, repr-stable values."""
    schema = SCHEMAS[config.kind]
    lines = []
    for sec in _SECTION_ORDER[config.kind]:
        body = []
        for (s, key), (tag, _default) in schema.items():
            if s != sec:
                continue
            value = config.params[(s, key)]
            if value is None:
                continue
            body.append(f"{key} = {_format_value(value)}")
        if body:
            lines.append(f"[{sec}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# experiment handlers: each returns (csv_header, csv_rows, metrics, passed)

def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _closed_samples(rng, d: int, n: int):
    """n draws of (C, x, xi): C symmetrized from U[-3, 3], x and xi from U[-2, 2].

    One block of uniforms with its columns scaled as rng.uniform scales them,
    so the values and their order are those of n scalar draws of C, x and xi
    in turn.
    """
    u = rng.random((n, d * d + 2 * d))
    C = (-3.0 + 6.0 * u[:, : d * d]).reshape(n, d, d)
    x = -2.0 + 4.0 * u[:, d * d : d * d + d]
    xi = -2.0 + 4.0 * u[:, d * d + d :]
    return (C + np.swapaxes(C, -1, -2)) / 2.0, x, xi


def _closed_reference(C, x, xi):
    """|<N_C phi, M_xi T_x phi>| through the generic Gaussian integral, one row per sample.

    N_C phi has quad I + iC; M_xi T_x phi has quad I, lin 2 pi (x + i xi) and
    log amplitude -pi |x|^2.  The integrand N_C phi conj(M_xi T_x phi) is the
    Gaussian with quad 2I + iC, lin 2 pi (x - i xi) and that log amplitude,
    integrated by the solve and the eigenvalue branch of the algebra; the
    covariance form of the closed form plays no part.
    """
    d = x.shape[-1]
    quad = 2.0 * np.eye(d) + 1j * C
    lin = _TWO_PI * x - _TWO_PI * 1j * xi
    log_amp = -((np.pi * x)[:, None, :] @ x[:, :, None])[:, 0, 0]
    return np.abs(np.exp(log_gauss_integrals(quad, lin, log_amp)))


def _worst(errors) -> float:
    """The largest error, 0 for none; a NaN stays NaN (the builtin max drops
    it when it comes second), so the tolerance test fails on it."""
    return float(np.max(np.fromiter(errors, dtype=float), initial=0.0))


def _run_verify_gaussian(config: ExperimentConfig):
    rng = np.random.default_rng(config.seed)
    tol_closed = config.get("tolerance", "closed")
    tol_grid = config.get("tolerance", "grid")
    tol_det = config.get("tolerance", "determinant")
    rows = []
    for d in config.get("samples", "dims"):
        window = unit_gaussian(d)
        C, x, xi = _closed_samples(rng, d, config.get("samples", "closed"))
        errs = np.abs(_closed_reference(C, x, xi) - chirp_stft_modulus(C, x, xi))
        rows.extend(("closed", d, i, err) for i, err in enumerate(errs))
        grid = GridSpec.default_for(d)
        freq_keep = 2.0
        for i in range(config.get("samples", "grid")):
            C = rng.uniform(-1.5, 1.5, (d, d))
            C = (C + C.T) / 2.0
            x = rng.uniform(-1.0, 1.0, d)
            f = chirp(window, C)
            _, freq, S = dft_stft(f, window, grid, shifts=[x])
            mesh = np.stack(np.meshgrid(*([freq] * d), indexing="ij"), axis=-1)
            keep = np.all(np.abs(mesh) <= freq_keep, axis=-1)
            predicted = chirp_stft_modulus(C, x, mesh[keep])
            err = float(np.abs(np.abs(S[0][keep]) - predicted).max())
            rows.append(("grid", d, i, err))
    for i in range(config.get("samples", "determinant")):
        d = 1 + i % 2
        C = rng.uniform(-3.0, 3.0, (d, d))
        C = (C + C.T) / 2.0
        err = abs(
            np.linalg.det(delta_matrix(C)) * np.linalg.det(4.0 * np.eye(d) + C @ C) - 1.0
        )
        rows.append(("determinant", d, i, err))
    max_closed, max_grid, max_det = (
        _worst(err for check, _, _, err in rows if check == name) for name in ("closed", "grid", "determinant")
    )
    metrics = {
        "max_closed_error": max_closed,
        "max_grid_error": max_grid,
        "max_determinant_error": max_det,
    }
    passed = max_closed < tol_closed and max_grid < tol_grid and max_det < tol_det
    return ("check", "dim", "index", "error"), rows, metrics, passed


@contextmanager
def _shown_warnings():
    """Record every warning the block raises, for the JSON, and print it to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _tail_mass(caught) -> bool:
    """Mass left outside a quadrature box: the norm is not what it claims."""
    return any(issubclass(w.category, TailMassWarning) for w in caught)


# task name -> (factory(p), expectation mode, expected slope as a function of p)
_SCAN_TASKS = {
    "chirp-1d": (lambda p: chirp_scan_task(p), "slope", lambda p: 1.0 / p - 0.5),
    "chirp-2d-cross": (lambda p: chirp_scan_task(p, cross=True), "slope", lambda p: 2.0 / p - 1.0),
    "g53-curve-own": (lambda p: g53_curve_tasks(p)[0], "invariant", lambda p: 0.0),
    "g53-curve-modulation": (lambda p: g53_curve_tasks(p)[1], "slope", lambda p: 1.0 / p - 0.5),
    "g53-curve-sibling": (lambda p: g53_curve_tasks(p)[2], "slope", lambda p: 0.5 / p - 0.25),
    "df-chirp-direction": (lambda p: df_modulation_task(p), "slope", lambda p: 2.0 / p - 1.0),
}


def _run_orbit_scan(config: ExperimentConfig):
    name = config.get("scan", "task")
    p = config.get("scan", "p")
    factory, mode, expected_fn = _SCAN_TASKS[name]
    task = factory(p)
    expected = config.get("tolerance", "expected")
    if expected is None:
        expected = expected_fn(p)
    with _shown_warnings() as caught:
        result = orbit_scan(
            task,
            u_values=config.get("scan", "u_values"),
            u_min_fit=config.get("scan", "u_min_fit"),
        )
    norms = np.exp(result.log_norms)
    rows = [(u, n, task.label) for u, n in zip(result.u_values, norms)]
    metrics = {
        "task": name,
        "p": p,
        "space": task.label,
        "growth": result.growth,
        "slope": result.slope,
        "intercept": result.intercept,
        "expected_slope": expected,
        "centers": result.centers,
        "warnings": [str(w.message) for w in caught],
    }
    if mode == "invariant":
        deviation = float(np.max(np.abs(norms / norms[0] - 1.0)))
        tol = config.get("tolerance", "invariance")
        metrics["max_relative_deviation"] = deviation
        metrics["invariance_tolerance"] = tol
        passed = deviation <= tol
    else:
        tol = config.get("tolerance", "slope")
        metrics["slope_tolerance"] = tol
        passed = abs(result.slope - expected) <= tol
    passed = passed and not _tail_mass(caught)
    return ("u", "norm", "space"), rows, metrics, passed


def _build_state(config, dim):
    quad = config.get("state", "f_quad")
    lin = config.get("state", "f_lin")
    if quad is None and lin is None:
        return unit_gaussian(dim)
    if quad is None:
        quad = (1.0,) * dim
    if len(quad) != dim:
        raise ConfigError(f"f_quad needs {dim} entries for this group", key="state.f_quad")
    if lin is not None and len(lin) != dim:
        raise ConfigError(f"f_lin needs {dim} entries for this group", key="state.f_lin")
    for key, values in (("f_quad", quad), ("f_lin", lin or ())):
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} entries must be finite", key=f"state.{key}")
    if min(quad) <= 0:
        raise ConfigError("f_quad entries must be positive", key="state.f_quad")
    f = Gaussian(np.diag(quad), None if lin is None else np.asarray(lin))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = l2_norm(f)
    if not math.isfinite(norm):
        raise ConfigError("the state's L2 norm is past double range", key="state")
    return f


def _run_coorbit_norm(config: ExperimentConfig):
    name = config.get("group", "name")
    with _rejected_values("group"):
        grp = group_spec(name, config.get("group", "heisenberg_d"))
        rep = RepSpec(grp, config.get("group", "lam"), config.get("group", "mu"))
    f = _build_state(config, rep.acting_dim)
    g = unit_gaussian(rep.acting_dim)
    weight = None
    if config.get("norm", "weight_s") is not None:
        coords = config.get("norm", "weight_coords")
        n = rep.group.quotient_dim
        if not all(0 <= i < n for i in coords):
            raise ConfigError(f"weight_coords must lie in 0..{n - 1} for this group", key="norm.weight_coords")
        weight = power_weight(config.get("norm", "weight_s"), coords)
    with _rejected_values("norm"):
        spec = NormSpec(
            p=config.get("norm", "p"),
            weight=weight,
            box_half=config.get("norm", "box_half"),
            resolution=config.get("norm", "resolution"),
        )
    with _shown_warnings() as caught:
        log_norm = coorbit_norm_log(rep, f, g, spec)
    if not log_norm <= _LOG_MAX:
        raise OverflowError(f"the norm exp({log_norm!r}) is not a finite double")
    value = float(np.exp(log_norm))
    metrics = {"group": name, "p": spec.p, "norm": value, "warnings": [str(w.message) for w in caught]}
    passed = not _tail_mass(caught)
    if spec.p == 2.0 and weight is None:
        d_pi = known_formal_dimension(rep)
        predicted = l2_norm(f) * l2_norm(g) / np.sqrt(d_pi)
        rel = abs(value - predicted) / predicted
        metrics.update(
            {
                "formal_dimension": d_pi,
                "formal_dimension_source": "closed-form",
                "predicted_norm": float(predicted),
                "relative_error": float(rel),
            }
        )
        passed = passed and rel < config.get("tolerance", "orthogonality")
    rows = [(name, spec.p, value)]
    return ("group", "p", "norm"), rows, metrics, passed


def _run_frame_sweep(config: ExperimentConfig):
    lam = config.get("sweep", "lam")
    with _rejected_values("sweep"):
        rep = RepSpec(group_spec("heisenberg", 1), lam)
    d_pi = known_formal_dimension(rep)
    factor = config.get("tolerance", "density_factor")
    ratio_tol = config.get("tolerance", "ratio")
    rows = []
    subcritical = []  # frame-bound ratios below the critical density
    for eps in config.get("sweep", "eps_values"):
        with _rejected_values("sweep"):
            lat = QuasiLattice(rep.group, eps)
        dens = beurling_density(lat)
        fb = frame_bounds_estimate(
            rep,
            eps=eps,
            lattice_radius=config.get("estimate", "lattice_radius"),
            dict_halfrange=config.get("estimate", "dict_halfrange"),
            dict_step=config.get("estimate", "dict_step"),
        )
        rows.append((eps, dens["estimate"], fb.lower, fb.upper))
        if dens["estimate"] < factor * d_pi:
            subcritical.append(fb.ratio)
    metrics = {
        "lam": lam,
        "formal_dimension": d_pi,
        "ratio_tolerance": ratio_tol,
        "worst_subcritical_ratio": _worst(subcritical),
    }
    passed = all(ratio < ratio_tol for ratio in subcritical)
    return ("eps", "density", "A_est", "B_est"), rows, metrics, passed


def _density_groups(config, section):
    name = config.get(section, "group")
    hd = config.get(section, "heisenberg_d")
    with _rejected_values(section):
        return [group_spec(n, hd) for n in (GROUPS if name == "all" else (name,))]


def _run_density(config: ExperimentConfig):
    eps = config.get("lattice", "eps")
    n_points = config.get("lattice", "n_points")
    rows = []
    passed = True
    worst = 0
    for grp in _density_groups(config, "lattice"):
        with _rejected_values("lattice"):
            lat = QuasiLattice(grp, eps)
        tiles = tiling_check(lat, n_points=n_points, seed=config.seed)
        dens = beurling_density(lat, seed=config.seed)
        rows.append(
            (
                grp.name,
                eps,
                n_points,
                tiles["failures"],
                tiles["neighbor_violations"],
                dens["estimate"],
                dens["expected"],
            )
        )
        worst = max(worst, tiles["failures"], tiles["neighbor_violations"])
        passed = passed and tiles["ok"] and dens["verified"]
    metrics = {"eps": eps, "n_points": n_points, "worst_failures": worst}
    return (
        ("group", "eps", "n_points", "failures", "neighbor_violations", "density", "expected_density"),
        rows,
        metrics,
        passed,
    )


def _selftest_rep(grp) -> RepSpec:
    # a two-dimensional centre takes a second parameter, which 6,19 needs nonzero
    return RepSpec(grp, 1.0, 1.0 if grp.center_dim == 2 else 0.0)


def _run_rep_selftest(config: ExperimentConfig):
    tol_hom = config.get("tolerance", "homomorphism")
    tol_unit = config.get("tolerance", "unitarity")
    rows = []
    for grp in _density_groups(config, "suite"):
        rep = _selftest_rep(grp)
        hom = homomorphism_check(
            rep,
            n_pairs=config.get("suite", "n_pairs"),
            seed=config.seed,
            box=config.get("suite", "box"),
        )
        unit = unitarity_check(rep, seed=config.seed)
        rows.append((grp.name, hom["max_error"], unit["max_error"]))
    max_hom = _worst(row[1] for row in rows)
    max_unit = _worst(row[2] for row in rows)
    metrics = {"max_homomorphism_error": max_hom, "max_unitarity_error": max_unit}
    passed = max_hom < tol_hom and max_unit < tol_unit
    return ("group", "homomorphism_error", "unitarity_error"), rows, metrics, passed


_RUNNERS = {
    "verify-gaussian": _run_verify_gaussian,
    "orbit-scan": _run_orbit_scan,
    "coorbit-norm": _run_coorbit_norm,
    "frame-sweep": _run_frame_sweep,
    "density": _run_density,
    "rep-selftest": _run_rep_selftest,
}


def run(config: ExperimentConfig, out_dir: str = ".") -> int:
    """Run one experiment; write <kind>.csv and <kind>.json under out_dir.

    A setting over one of the library's work budgets is a config error,
    raised before any work is done.  A numerical failure inside the run (a
    RuntimeError, ValueError, ArithmeticError or MemoryError that is not a
    config error) writes the JSON alone, with pass false and the error, and
    returns 2.  The JSON is strict: a non-finite number is written as null.
    """
    error = None
    try:
        header, rows, metrics, passed = _RUNNERS[config.kind](config)
    except WorkBudgetError as exc:
        raise ConfigError(str(exc)) from None
    except (RuntimeError, ValueError, ArithmeticError, MemoryError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        print(f"numerical error: {error}", file=sys.stderr)
        metrics, passed = {}, False
    os.makedirs(out_dir, exist_ok=True)
    if error is None:
        csv_path = os.path.join(out_dir, f"{config.kind}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")
    summary = {
        "experiment": config.kind,
        "params": _params_tree(config),
        "metrics": metrics,
        "pass": bool(passed),
    }
    if error is not None:
        summary["error"] = error
    json_path = os.path.join(out_dir, f"{config.kind}.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True, allow_nan=False, default=_jsonable)
        fh.write("\n")
    return 0 if passed else 2


def _params_tree(config: ExperimentConfig) -> dict:
    tree: dict[str, dict] = {}
    for (sec, key), value in sorted(config.params.items()):
        tree.setdefault(sec, {})[key] = value
    return tree


def _finite_or_null(value):
    """value with every non-finite float replaced by None, which strict JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coorbit-lab",
        description="Run one verification experiment from a config file.",
    )
    parser.add_argument("kind", choices=tuple(SCHEMAS))
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        config = parse_config(text, kind=args.kind)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be non-negative", key="--seed")
            params = dict(config.params)
            params[("experiment", "seed")] = args.seed
            config = ExperimentConfig(params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        return run(config, args.out)
    except ConfigError as exc:  # a value only the runner can check against the group
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
