"""Experiment runner behind the ``coorbit-lab`` command.

Each invocation runs one experiment kind from a small line-oriented config
file, writes a CSV table plus a JSON summary into the output directory, and
exits 0 on success, 2 when a declared tolerance is violated, and 3 on a bad
config.  parse_config checks every value once: the schema tag holds each
value's type and domain, and the kind's builder makes the group records,
representations, norm specs, lattices, scan task and grids its runner uses,
so a value that one of them rejects is reported with its line and key.  The
run itself checks only what needs more than the config: the state against
the group, the weight against the norm's mesh, and the work budgets.  Given
the same config and seed the CSV output is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

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
from .numerics import GridSpec, TailMassWarning, WeightRangeError, WorkBudgetError, dft_stft
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
    # the library objects the kind's builder made from params, for its runner
    built: dict = field(default_factory=dict, compare=False, repr=False)

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
# A tag is [opt-][domain-]base.  Bases: int, float, str, floats (comma list),
# ints (comma list).  An "opt-" prefix admits the absence of the key with a
# None value; a domain holds for every entry of the value.

_DOMAINS = {
    "pos": ("finite and positive", lambda v: 0 < v < math.inf),
    "nonneg": ("finite and non-negative", lambda v: 0 <= v < math.inf),
    "fin": ("finite", lambda v: -math.inf < v < math.inf),
    "ge1": ("finite and >= 1", lambda v: 1 <= v < math.inf),
}

_COMMON = {
    ("experiment", "kind"): ("str", None),
    ("experiment", "seed"): ("nonneg-int", 0),
}

SCHEMAS: dict[str, dict] = {
    "verify-gaussian": {
        **_COMMON,
        ("samples", "closed"): ("nonneg-int", 1000),
        ("samples", "determinant"): ("nonneg-int", 100),
        ("samples", "grid"): ("nonneg-int", 20),
        ("samples", "dims"): ("ints", (1, 2)),
        ("tolerance", "closed"): ("float", 1e-10),
        ("tolerance", "determinant"): ("float", 1e-10),
        ("tolerance", "grid"): ("float", 1e-6),
    },
    "orbit-scan": {
        **_COMMON,
        ("scan", "task"): ("str", _REQUIRED),
        ("scan", "p"): ("ge1-float", 1.0),
        ("scan", "u_values"): ("fin-floats", (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)),  # coorbit.DEFAULT_SCAN
        ("scan", "u_min_fit"): ("fin-float", 32.0),
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
        ("norm", "p"): ("ge1-float", 2.0),
        ("norm", "box_half"): ("pos-float", 8.0),
        ("norm", "resolution"): ("pos-float", 0.125),
        ("norm", "weight_s"): ("opt-fin-float", None),
        ("norm", "weight_coords"): ("opt-ints", None),
        ("state", "f_quad"): ("opt-pos-floats", None),
        ("state", "f_lin"): ("opt-fin-floats", None),
        ("tolerance", "orthogonality"): ("float", 1e-3),
    },
    "frame-sweep": {
        **_COMMON,
        ("sweep", "lam"): ("float", 1.0),
        ("sweep", "eps_values"): ("pos-floats", (0.5, 0.7, 0.9, 1.1, 1.25, 1.5)),
        ("estimate", "lattice_radius"): ("pos-float", 6.0),
        ("estimate", "dict_halfrange"): ("nonneg-float", 4.0),
        ("estimate", "dict_step"): ("pos-float", 0.5),
        ("tolerance", "ratio"): ("float", 0.01),
        ("tolerance", "density_factor"): ("float", 0.95),
    },
    "density": {
        **_COMMON,
        ("lattice", "group"): ("str", "all"),
        ("lattice", "heisenberg_d"): ("int", 1),
        ("lattice", "eps"): ("pos-float", 0.75),
        ("lattice", "n_points"): ("pos-int", 10000),
    },
    "rep-selftest": {
        **_COMMON,
        ("suite", "group"): ("str", "all"),
        ("suite", "heisenberg_d"): ("int", 1),
        ("suite", "n_pairs"): ("nonneg-int", 500),
        ("suite", "box"): ("pos-float", 2.0),
        ("tolerance", "homomorphism"): ("float", 1e-10),
        ("tolerance", "unitarity"): ("float", 1e-10),
    },
}


def _coerce(tag: str, raw: str, line: int | None, key: str):
    *prefixes, base = tag.split("-")
    if base == "str":
        return raw
    parse = int if base.startswith("int") else float
    try:
        values = tuple(parse(tok) for tok in (raw.split(",") if base.endswith("s") else [raw]))
    except ValueError:
        raise ConfigError(f"expected {base}, got {raw!r}", line, key) from None
    for prefix in prefixes:
        if prefix in _DOMAINS and not all(_DOMAINS[prefix][1](v) for v in values):
            raise ConfigError(f"must be {_DOMAINS[prefix][0]}, got {raw!r}", line, key)
    return values if base.endswith("s") else values[0]


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse the line-oriented config format and build the kind's library objects.

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
    lines: dict[str, int] = {}
    params: dict[tuple[str, str], object] = {}
    for (sec, key), (raw, line_no) in entries.items():
        if (sec, key) == ("experiment", "kind"):
            continue
        if (sec, key) not in schema:
            raise ConfigError("unknown key", line_no, f"{sec}.{key}")
        params[(sec, key)] = _coerce(schema[(sec, key)][0], raw, line_no, f"{sec}.{key}")
        lines[f"{sec}.{key}"] = line_no
    for (sec, key), (tag, default) in schema.items():
        if (sec, key) == ("experiment", "kind") or (sec, key) in params:
            continue
        if default is _REQUIRED:
            raise ConfigError("missing required key", key=f"{sec}.{key}")
        params[(sec, key)] = default
    params[("experiment", "kind")] = kind
    return ExperimentConfig(params, _BUILDERS[kind](_Parsed(params, lines)))


class _Parsed:
    """The parsed values of one config, and the line of each key the file sets."""

    def __init__(self, params: dict, lines: dict):
        self.params, self.lines = params, lines

    def __getitem__(self, key: str):
        return self.params[tuple(key.split("."))]

    def error(self, message: str, *keys: str) -> ConfigError:
        """A ConfigError on the first of keys that the file sets (else the first), at its line."""
        key = next((k for k in keys if k in self.lines), keys[0])
        return ConfigError(message, self.lines.get(key), key)

    def build(self, keys: tuple[str, ...], factory, *args, **kwargs):
        """factory(*args, **kwargs); a ValueError it raises is a ConfigError on keys."""
        try:
            return factory(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc), *keys) from None


# ---------------------------------------------------------------------------
# builders: each makes, from the parsed values of its kind, the library
# objects its runner reads from ExperimentConfig.built

def _coorbit():
    """The coorbit module, imported on first use: only the two norm kinds load it."""
    from . import coorbit

    return coorbit


# task name -> (factory(p), expectation mode, expected slope as a function of p)
_SCAN_TASKS = {
    "chirp-1d": (lambda p: _coorbit().chirp_scan_task(p), "slope", lambda p: 1.0 / p - 0.5),
    "chirp-2d-cross": (lambda p: _coorbit().chirp_scan_task(p, cross=True), "slope", lambda p: 2.0 / p - 1.0),
    "g53-curve-own": (lambda p: _coorbit().g53_curve_tasks(p)[0], "invariant", lambda p: 0.0),
    "g53-curve-modulation": (lambda p: _coorbit().g53_curve_tasks(p)[1], "slope", lambda p: 1.0 / p - 0.5),
    "g53-curve-sibling": (lambda p: _coorbit().g53_curve_tasks(p)[2], "slope", lambda p: 0.5 / p - 0.25),
    "df-chirp-direction": (lambda p: _coorbit().df_modulation_task(p), "slope", lambda p: 2.0 / p - 1.0),
}


def _groups(v: _Parsed, key: str, every: bool) -> list:
    """The records of the group key names; with every, "all" names each group."""
    name, sec = v[key], key.split(".")[0]
    choices = (*GROUPS, "all") if every else GROUPS
    if name not in choices:
        raise v.error(f"unknown group {name!r}; expected one of {', '.join(choices)}", key)
    hd = v[f"{sec}.heisenberg_d"]
    return [v.build((f"{sec}.heisenberg_d",), group_spec, n, hd) for n in (GROUPS if name == "all" else (name,))]


def _build_verify_gaussian(v: _Parsed) -> dict:
    return {"grids": [v.build(("samples.dims",), GridSpec.default_for, d) for d in v["samples.dims"]]}


def _build_orbit_scan(v: _Parsed) -> dict:
    name = v["scan.task"]
    if name not in _SCAN_TASKS:
        raise v.error(f"unknown task {name!r}; expected one of {', '.join(sorted(_SCAN_TASKS))}", "scan.task")
    if len(set(v["scan.u_values"])) < 3:
        raise v.error("need at least three distinct scan points for a fit", "scan.u_values")
    lowest = min((u for u in v["scan.u_values"] if u >= v["scan.u_min_fit"]), default=1.0)
    if lowest <= 0:
        raise v.error(
            f"every u from u_min_fit on enters the slope fit and must be positive, got {lowest:g}", "scan.u_min_fit"
        )
    return {"task": _SCAN_TASKS[name][0](v["scan.p"])}


def _build_coorbit_norm(v: _Parsed) -> dict:
    from .coorbit import NormSpec, power_weight

    (grp,) = _groups(v, "group.name", every=False)
    rep = v.build(("group.lam", "group.mu"), RepSpec, grp, v["group.lam"], v["group.mu"])
    s, coords = v["norm.weight_s"], v["norm.weight_coords"]
    if (s is None) != (coords is None):
        raise v.error("weight_s and weight_coords must be given together", "norm.weight_s", "norm.weight_coords")
    weight = None
    if s is not None:
        n = grp.quotient_dim
        if not all(0 <= i < n for i in coords):
            raise v.error(f"weight_coords must lie in 0..{n - 1} for this group", "norm.weight_coords")
        weight = v.build(("norm.weight_coords",), power_weight, s, coords)
    spec = v.build(
        ("norm.resolution", "norm.box_half"),
        NormSpec,
        p=v["norm.p"],
        weight=weight,
        box_half=v["norm.box_half"],
        resolution=v["norm.resolution"],
    )
    return {"rep": rep, "spec": spec}


def _build_frame_sweep(v: _Parsed) -> dict:
    from .frames import QuasiLattice

    rep = v.build(("sweep.lam",), RepSpec, group_spec("heisenberg", 1), v["sweep.lam"])
    return {"rep": rep, "lattices": [QuasiLattice(rep.group, eps) for eps in v["sweep.eps_values"]]}


def _build_density(v: _Parsed) -> dict:
    from .frames import QuasiLattice

    return {"lattices": [QuasiLattice(grp, v["lattice.eps"]) for grp in _groups(v, "lattice.group", every=True)]}


def _build_rep_selftest(v: _Parsed) -> dict:
    # a two-dimensional centre takes a second parameter, which 6,19 needs nonzero
    grps = _groups(v, "suite.group", every=True)
    return {"reps": [RepSpec(grp, 1.0, 1.0 if grp.center_dim == 2 else 0.0) for grp in grps]}


_BUILDERS = {
    "verify-gaussian": _build_verify_gaussian,
    "orbit-scan": _build_orbit_scan,
    "coorbit-norm": _build_coorbit_norm,
    "frame-sweep": _build_frame_sweep,
    "density": _build_density,
    "rep-selftest": _build_rep_selftest,
}


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
    for grid in config.built["grids"]:
        d = grid.dim
        window = unit_gaussian(d)
        C, x, xi = _closed_samples(rng, d, config.get("samples", "closed"))
        errs = np.abs(_closed_reference(C, x, xi) - chirp_stft_modulus(C, x, xi))
        rows.extend(("closed", d, i, err) for i, err in enumerate(errs))
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
    """Record every warning the block raises, for the JSON, then issue each
    again under the caller's filters (which may show it, or raise it)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _tail_mass(caught) -> bool:
    """Mass left outside a quadrature box: the norm is not what it claims."""
    return any(issubclass(w.category, TailMassWarning) for w in caught)


def _run_orbit_scan(config: ExperimentConfig):
    from .coorbit import orbit_scan

    name = config.get("scan", "task")
    p = config.get("scan", "p")
    _, mode, expected_fn = _SCAN_TASKS[name]
    task = config.built["task"]
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
    """The state f of a coorbit-norm run; its entries are checked against the
    acting dimension dim, which only the group fixes."""
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
    f = Gaussian(np.diag(quad), None if lin is None else np.asarray(lin))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = l2_norm(f)
    if not math.isfinite(norm):
        raise ConfigError("the state's L2 norm is past double range", key="state")
    return f


def _run_coorbit_norm(config: ExperimentConfig):
    from .coorbit import coorbit_norm_log

    name = config.get("group", "name")
    rep, spec = config.built["rep"], config.built["spec"]
    f = _build_state(config, rep.acting_dim)
    g = unit_gaussian(rep.acting_dim)
    with _shown_warnings() as caught:
        try:
            log_norm = coorbit_norm_log(rep, f, g, spec)
        except WeightRangeError as exc:
            raise ConfigError(str(exc), key="norm.weight_s") from None
    if not log_norm <= _LOG_MAX:
        raise OverflowError(f"the norm exp({log_norm!r}) is not a finite double")
    value = float(np.exp(log_norm))
    metrics = {"group": name, "p": spec.p, "norm": value, "warnings": [str(w.message) for w in caught]}
    passed = not _tail_mass(caught)
    if spec.p == 2.0 and spec.weight is None:
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
    from .frames import beurling_density, density_box, frame_bounds_estimate, frame_section

    lam = config.get("sweep", "lam")
    rep = config.built["rep"]
    d_pi = known_formal_dimension(rep)
    factor = config.get("tolerance", "density_factor")
    ratio_tol = config.get("tolerance", "ratio")
    settings = {key: config.get("estimate", key) for key in ("lattice_radius", "dict_halfrange", "dict_step")}
    for lat in config.built["lattices"]:  # every eps's checks before any lattice work
        density_box(lat)
        frame_section(rep, lat.eps, **settings)
    rows = []
    subcritical = []  # frame-bound ratios below the critical density
    verified = True
    for lat in config.built["lattices"]:
        dens = beurling_density(lat)
        verified = verified and dens["verified"]
        fb = frame_bounds_estimate(rep, eps=lat.eps, **settings)
        rows.append((lat.eps, dens["estimate"], fb.lower, fb.upper))
        if dens["estimate"] < factor * d_pi:
            subcritical.append(fb.ratio)
    metrics = {
        "lam": lam,
        "formal_dimension": d_pi,
        "ratio_tolerance": ratio_tol,
        "worst_subcritical_ratio": _worst(subcritical),
    }
    passed = verified and all(ratio < ratio_tol for ratio in subcritical)
    return ("eps", "density", "A_est", "B_est"), rows, metrics, passed


def _run_density(config: ExperimentConfig):
    from .frames import beurling_density, density_box, tiling_budget, tiling_check

    eps = config.get("lattice", "eps")
    n_points = config.get("lattice", "n_points")
    for lat in config.built["lattices"]:  # every group's checks before any lattice work
        tiling_budget(lat, n_points)
        density_box(lat)
    rows = []
    passed = True
    worst = 0
    for lat in config.built["lattices"]:
        tiles = tiling_check(lat, n_points=n_points, seed=config.seed)
        dens = beurling_density(lat, seed=config.seed)
        rows.append(
            (
                lat.group.name,
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


def _run_rep_selftest(config: ExperimentConfig):
    tol_hom = config.get("tolerance", "homomorphism")
    tol_unit = config.get("tolerance", "unitarity")
    rows = []
    for rep in config.built["reps"]:
        hom = homomorphism_check(
            rep,
            n_pairs=config.get("suite", "n_pairs"),
            seed=config.seed,
            box=config.get("suite", "box"),
        )
        unit = unitarity_check(rep, seed=config.seed)
        rows.append((rep.group.name, hom["max_error"], unit["max_error"]))
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
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return 0 if passed else 2


def _params_tree(config: ExperimentConfig) -> dict:
    tree: dict[str, dict] = {}
    for (sec, key), value in sorted(config.params.items()):
        tree.setdefault(sec, {})[key] = value
    return tree


def _finite_or_null(value):
    """value with numpy scalars made Python ones and every non-finite float
    replaced by None, which strict JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coorbit-lab",
        description="Run one verification experiment from a config file.",
    )
    parser.add_argument("kind", choices=tuple(SCHEMAS))
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read(), kind=args.kind)
        if args.seed is not None:
            seed = _coerce(SCHEMAS[args.kind][("experiment", "seed")][0], args.seed, None, "--seed")
            config = replace(config, params={**config.params, ("experiment", "seed"): seed})
        return run(config, args.out)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
