"""Correctness checks for the benchmark's outputs, computed apart from gausstomo.

Every check takes an output table as the CLI wrote it, together with the
inputs the benchmark sent, and returns a list of error strings (empty when
the output holds).  Reference values come from this file's own numpy
arithmetic or from properties the method must have; nothing here imports
the program or compares against a stored copy of its output.
"""

from __future__ import annotations

import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# Ratio checks allow this many standard deviations of Monte Carlo noise.
Z_SIGMA = 6.0


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """(embedded config, column names, rows of string fields) of a CSV table."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# gausstomo "):
        raise ValueError("missing the embedded-config header line")
    marker = " config "
    config = json.loads(lines[0][lines[0].index(marker) + len(marker):])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not have {len(columns)} fields")
    return config, columns, rows


def offset(eta: float, scheme: str) -> float:
    """Identity offset between the Wigner and the data covariance of a scheme."""
    if scheme == "homodyne":
        return (1.0 - eta) / (2.0 * eta)
    if scheme == "heterodyne":
        return (2.0 - eta) / (2.0 * eta)
    if scheme == "hypothetical":
        return 0.0
    raise ValueError(f"unknown scheme {scheme!r}")


def wigner_matrix(mu: float, lam: float, phi: float = 0.0) -> np.ndarray:
    """2x2 Wigner covariance R diag(mu/(2 lam), mu lam/2) R^T, R = R(-phi).

    This is the package's phi convention: the off-diagonal element is
    (mu/2)(lam - 1/lam) sin(2 phi)/2, so the major axis sits at pi/2 - phi.
    """
    c, s = math.cos(phi), math.sin(phi)
    r = np.array([[c, s], [-s, c]])
    return r @ np.diag([mu / (2.0 * lam), mu * lam / 2.0]) @ r.T


def coords(m: np.ndarray) -> np.ndarray:
    """(g1, g2, g3) coordinates of a symmetric 2x2 matrix."""
    return np.array([m[0, 0], m[1, 1], SQRT2 * m[0, 1]])


def bound_closed(d1, d2, scheme: str):
    """Cramer-Rao bound from the data covariance's eigenvalues (arrays allowed)."""
    tr = d1 + d2
    det = d1 * d2
    if scheme == "homodyne":
        return 2.0 * tr * (tr + 3.0 * np.sqrt(det))
    return 2.0 * (tr * tr - det)


def bound_of_state(mu, lam, eta, scheme: str, hypothetical: bool = False):
    """Bound of a state (mu, lam, eta); hypothetical mode drops the offsets."""
    delta = 0.0 if hypothetical else offset(eta, scheme)
    return bound_closed(mu / (2.0 * lam) + delta, mu * lam / 2.0 + delta, scheme)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_embedded(config: dict, expect: dict, errors: list[str]):
    for key, value in expect.items():
        if config.get(key) != value:
            errors.append(f"embedded config {key} = {config.get(key)!r}, sent {value!r}")


# ---------------------------------------------------------------- fig5

FIG5_COLUMNS = ["n", "scheme", "kind", "trial_index", "axis_major", "axis_minor",
                "orientation", "hs_distance_sq", "converged", "representative"]


def check_fig5(text: str, mu: float, lam: float, eta: float,
               n_values: list[int], trials: int, master_seed: int) -> list[str]:
    """fig5 table: true ellipse, per-trial HS distance from the axes, aggregates.

    Each trial's data covariance is rebuilt from its semi-axes and
    orientation, the scheme offset is subtracted, and the squared HS
    distance to the Wigner covariance must match the table's column.
    """
    errors: list[str] = []
    try:
        config, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"fig5: {exc}"]
    if columns != FIG5_COLUMNS:
        return [f"fig5: columns {columns}"]
    _check_embedded(config, {"experiment": "fig5", "n_values": n_values, "trials": trials,
                             "spec": {"mu": mu, "lambda": lam, "phi": 0.0, "eta": eta},
                             "seed": {"master_seed": master_seed, "stream_id": 0}}, errors)
    truth = coords(wigner_matrix(mu, lam))
    lanes = [(scheme, n) for scheme in ("homodyne", "heterodyne") for n in n_values]
    per_lane = trials + 2
    if len(rows) != per_lane * len(lanes):
        return errors + [f"fig5: {len(rows)} rows, expected {per_lane * len(lanes)}"]
    for i, (scheme, n) in enumerate(lanes):
        lane = rows[i * per_lane:(i + 1) * per_lane]
        tag = f"fig5 {scheme} N={n}"
        kinds = [r[2] for r in lane]
        if kinds != ["true"] + ["estimate"] * trials + ["aggregate"]:
            errors.append(f"{tag}: row kinds {kinds}")
            continue
        if any(int(r[0]) != n or r[1] != scheme for r in lane):
            errors.append(f"{tag}: rows of another lane")
        major, minor, orient = (float(v) for v in lane[0][4:7])
        if not (_close(major, math.sqrt(mu * lam / 2.0), 1e-12)
                and _close(minor, math.sqrt(mu / (2.0 * lam)), 1e-12)
                and _close(orient, math.pi / 2.0, 1e-12)):
            errors.append(f"{tag}: true ellipse ({major}, {minor}, {orient}) is not "
                          f"(sqrt(mu lam/2), sqrt(mu/(2 lam)), pi/2)")
        delta = offset(eta, scheme)
        hs_values = []
        for j, r in enumerate(lane[1:-1]):
            a, b, theta, hs = (float(v) for v in r[4:8])
            hs_values.append(hs)
            if int(r[3]) != j or r[9] != ("true" if j == 0 else "false"):
                errors.append(f"{tag}: trial row {j} has index {r[3]}, representative {r[9]}")
            if scheme == "heterodyne" and r[8] != "true":
                errors.append(f"{tag}: heterodyne trial {j} reports converged={r[8]}")
            if math.isnan(a) and math.isnan(b) and math.isnan(theta) \
                    and scheme == "homodyne" and r[8] == "false" and hs >= 0.0:
                # the documented row of a fit whose raw data covariance is
                # not positive definite: it has no ellipse to rebuild
                continue
            if not all(math.isfinite(v) for v in (a, b, theta)) or not a >= b > 0:
                errors.append(f"{tag}: trial {j} axes ({a}, {b}, {theta}) are not an ellipse")
                continue
            c, s = math.cos(theta), math.sin(theta)
            eff = np.array([a * a * c * c + b * b * s * s,
                            a * a * s * s + b * b * c * c,
                            SQRT2 * (a * a - b * b) * s * c])
            est = eff - np.array([delta, delta, 0.0])
            hs_ref = float(np.sum((est - truth) ** 2))
            tol = 1e-9 * (1.0 + hs_ref + float(np.sum(eff * eff)))
            if not abs(hs - hs_ref) <= tol:
                errors.append(f"{tag}: trial {j} hs_distance_sq {hs!r}, axes give {hs_ref!r}")
        agg = float(lane[-1][7])
        mean = math.fsum(hs_values) / len(hs_values)
        if not _close(agg, mean, 1e-12):
            errors.append(f"{tag}: aggregate {agg!r} is not the trial mean {mean!r}")
    return errors


# ---------------------------------------------------------------- crb-attainment

def _hom_fisher_inverse(mu: float, lam: float, eta: float, nodes: int = 4096) -> np.ndarray:
    """Inverse of the scaled homodyne Fisher matrix, by a plain trapezoid rule.

    F = (1/pi) int_0^pi v v^T / (2 C^2) dtheta with v = (c^2, s^2, sqrt2 s c)
    and C = v . g over the homodyne data covariance; the integrand is smooth
    and periodic, so the uniform rule converges geometrically.
    """
    g = coords(wigner_matrix(mu, lam)) + np.array([1.0, 1.0, 0.0]) * offset(eta, "homodyne")
    theta = np.arange(nodes) * (math.pi / nodes)
    c, s = np.cos(theta), np.sin(theta)
    v = np.stack([c * c, s * s, SQRT2 * s * c])
    cvar = g @ v
    f = np.einsum("in,n,jn->ij", v, 1.0 / (2.0 * cvar * cvar * nodes), v)
    return np.linalg.inv(f)


def estimator_covariance(mu: float, lam: float, eta: float, scheme: str) -> np.ndarray:
    """Covariance of sqrt(N) (G_est - G) in (g1, g2, g3) coordinates.

    Heterodyne: exact at every N for the zero-mean second-moment estimator,
    C[(ij),(kl)] = G_ik G_jl + G_il G_jk; homodyne: the Cramer-Rao limit
    F^-1, which the ML fit attains as N grows.
    """
    if scheme == "homodyne":
        return _hom_fisher_inverse(mu, lam, eta)
    m = wigner_matrix(mu, lam) + offset(eta, scheme) * np.eye(2)
    pairs = [(0, 0), (1, 1), (0, 1)]
    scale = [1.0, 1.0, SQRT2]
    cov = np.empty((3, 3))
    for p, (i, j) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            cov[p, q] = scale[p] * scale[q] * (m[i, k] * m[j, l] + m[i, l] * m[j, k])
    return cov


def ratio_sigma(mu: float, lam: float, eta: float, scheme: str, trials: int) -> float:
    """Standard deviation of the mean of `trials` values of N |dG|^2 / H.

    N |dG|^2 is a quadratic form sum_i l_i chi^2_1 in the eigenvalues l_i
    of the estimator covariance, so its variance is 2 sum_i l_i^2.
    """
    lam_i = np.linalg.eigvalsh(estimator_covariance(mu, lam, eta, scheme))
    h = float(np.sum(lam_i))
    return math.sqrt(2.0 * float(np.sum(lam_i ** 2)) / trials) / h


def check_crb(text: str, mu: float, lam: float, eta: float, scheme: str,
              n: int, trials: int, master_seed: int) -> tuple[list[str], float]:
    """crb-attainment table: closed-form bound and a statistical ratio window.

    Returns (errors, ratio) so that ratios of independent runs can be pooled.
    """
    errors: list[str] = []
    try:
        config, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"crb: {exc}"], math.nan
    if columns != ["N", "scheme", "mean_N_times_mse", "crb", "ratio"] or len(rows) != 1:
        return [f"crb: columns {columns}, {len(rows)} rows"], math.nan
    _check_embedded(config, {"experiment": "crb-attainment", "scheme": scheme,
                             "n_values": [n], "trials": trials,
                             "spec": {"mu": mu, "lambda": lam, "phi": 0.0, "eta": eta},
                             "seed": {"master_seed": master_seed, "stream_id": 0}}, errors)
    row = rows[0]
    tag = f"crb {scheme} N={n} seed={master_seed}"
    mean_scaled, crb, ratio = (float(v) for v in row[2:5])
    if int(row[0]) != n or row[1] != scheme:
        errors.append(f"{tag}: row {row}")
    h = float(bound_of_state(mu, lam, eta, scheme))
    if not _close(crb, h, 1e-12):
        errors.append(f"{tag}: crb {crb!r}, closed form gives {h!r}")
    if not _close(ratio, mean_scaled / h, 1e-12):
        errors.append(f"{tag}: ratio {ratio!r} is not mean_N_times_mse / bound")
    window = Z_SIGMA * ratio_sigma(mu, lam, eta, scheme, trials)
    if not abs(ratio - 1.0) <= window:
        errors.append(f"{tag}: ratio {ratio!r} outside 1 +- {window:.3g}")
    return errors, ratio


def check_pooled_ratio(ratios: list[float], mu: float, lam: float, eta: float,
                       scheme: str, trials: int) -> list[str]:
    """Mean ratio over independent seeds, in the window shrunk by sqrt(runs)."""
    window = Z_SIGMA * ratio_sigma(mu, lam, eta, scheme, trials * len(ratios))
    pooled = math.fsum(ratios) / len(ratios)
    if not abs(pooled - 1.0) <= window:
        return [f"crb {scheme}: mean ratio {pooled!r} over {len(ratios)} seeds "
                f"outside 1 +- {window:.3g}"]
    return []


# ---------------------------------------------------------------- bounds

def check_surface(text: str, lambdas: list[float], mus: list[float],
                  etas: list[float], mode: str) -> list[str]:
    """surface table: every row against the closed forms on numpy arrays.

    Also the paper's constants where the grid holds (1, 1, 1): gamma 0.3
    in hypothetical mode and 1.2 in real mode.
    """
    errors: list[str] = []
    try:
        config, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"surface: {exc}"]
    if columns != ["lambda", "mu", "eta", "h_hom", "h_het", "gamma", "mode"]:
        return [f"surface: columns {columns}"]
    _check_embedded(config, {"experiment": "surface",
                             "grid": {"lambda": lambdas, "mu": mus, "eta": etas,
                                      "mode": mode}}, errors)
    eta_g, lam_g, mu_g = (a.ravel() for a in np.meshgrid(etas, lambdas, mus, indexing="ij"))
    if len(rows) != eta_g.size:
        return errors + [f"surface {mode}: {len(rows)} rows, expected {eta_g.size}"]
    if any(r[6] != mode for r in rows):
        errors.append(f"surface {mode}: a row of another mode")
    table = np.array([[float(v) for v in r[:6]] for r in rows])
    hyp = mode == "hypothetical"
    h_hom = bound_of_state(mu_g, lam_g, eta_g, "homodyne", hyp)
    h_het = bound_of_state(mu_g, lam_g, eta_g, "heterodyne", hyp)
    expect = np.column_stack([lam_g, mu_g, eta_g, h_hom, h_het, h_het / h_hom])
    bad = ~np.isclose(table, expect, rtol=1e-12, atol=0.0)
    for i, j in zip(*np.nonzero(bad)):
        errors.append(f"surface {mode} row {i} {columns[j]}: {table[i, j]!r}, "
                      f"closed form {expect[i, j]!r}")
        if len(errors) > 10:
            break
    at_unit = (lam_g == 1.0) & (mu_g == 1.0) & (eta_g == 1.0)
    constant = 0.3 if hyp else 1.2
    for i in np.nonzero(at_unit)[0]:
        if abs(table[i, 5] - constant) > 1e-12:
            errors.append(f"surface {mode}: gamma(1, 1, 1) = {table[i, 5]!r}, paper {constant}")
    return errors


def area_gap(lam, eta):
    """(s_sigma - s_Sigma, s_sigma) at mu = 1: (pi/2) Tr G_hom against pi sqrt(det G_het)."""
    dh, dt = offset(eta, "homodyne"), offset(eta, "heterodyne")
    a, b = 1.0 / (2.0 * lam), lam / 2.0
    s_sigma = 0.5 * math.pi * (a + b + 2.0 * dh)
    s_big = math.pi * math.sqrt((a + dt) * (b + dt))
    return s_sigma - s_big, s_sigma


def check_lambda_crit(text: str, etas: list[float]) -> list[str]:
    """lambda-crit table: the two region areas agree at each returned lambda."""
    errors: list[str] = []
    try:
        config, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"lambda-crit: {exc}"]
    if columns != ["eta", "lambda_crit"] or len(rows) != len(etas):
        return [f"lambda-crit: columns {columns}, {len(rows)} rows"]
    _check_embedded(config, {"experiment": "lambda-crit", "eta_values": etas}, errors)
    for eta, (eta_s, lam_s) in zip(etas, rows):
        lam = float(lam_s)
        if float(eta_s) != eta or not 1e-6 < lam < 1.0:
            errors.append(f"lambda-crit: row ({eta_s}, {lam_s}) for eta {eta}")
            continue
        gap, scale = area_gap(lam, eta)
        if not abs(gap) <= 1e-9 * scale:
            errors.append(f"lambda-crit eta={eta}: areas differ by {gap!r} at {lam!r}")
    return errors


def check_regions(text: str, mu: float, lam: float, phi: float, eta: float,
                  samples: int) -> list[str]:
    """regions table: sigma and Sigma recomputed, and conditional <= marginal.

    sigma is the homodyne marginal std, Sigma the heterodyne conditional
    one.  The same-covariance inequality is Sigma^2 <= u^T G_het u =
    sigma^2 + 1/(2 eta), with equality on the principal axes; sigma >= Sigma
    itself does not hold there, where Sigma^2 - sigma^2 = 1/(2 eta).
    """
    errors: list[str] = []
    try:
        config, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"regions: {exc}"]
    if columns != ["theta", "sigma", "Sigma"] or len(rows) != samples:
        return [f"regions: columns {columns}, {len(rows)} rows"]
    _check_embedded(config, {"experiment": "regions", "samples": samples,
                             "spec": {"mu": mu, "lambda": lam, "phi": phi, "eta": eta}},
                    errors)
    table = np.array([[float(v) for v in r] for r in rows])
    theta = 2.0 * math.pi * np.arange(samples) / samples
    u = np.stack([np.cos(theta), np.sin(theta)])
    w = wigner_matrix(mu, lam, phi)
    g_hom = w + offset(eta, "homodyne") * np.eye(2)
    g_het = w + offset(eta, "heterodyne") * np.eye(2)
    sigma2 = np.einsum("in,ij,jn->n", u, g_hom, u)
    big2 = 1.0 / np.einsum("in,ij,jn->n", u, np.linalg.inv(g_het), u)
    tag = f"regions ({mu:.4g}, {lam:.4g}, {phi:.4g}, {eta:.4g})"
    if not np.allclose(table[:, 0], theta, rtol=1e-14, atol=1e-14):
        errors.append(f"{tag}: angles are not 2 pi k / samples")
    if not np.allclose(table[:, 1] ** 2, sigma2, rtol=1e-10, atol=0.0):
        errors.append(f"{tag}: sigma is not sqrt(u^T G_hom u)")
    if not np.allclose(table[:, 2] ** 2, big2, rtol=1e-9, atol=0.0):
        errors.append(f"{tag}: Sigma is not (u^T G_het^-1 u)^(-1/2)")
    marginal_het = table[:, 1] ** 2 + 1.0 / (2.0 * eta)
    if np.any(table[:, 2] ** 2 > marginal_het * (1.0 + 1e-10)):
        errors.append(f"{tag}: conditional Sigma exceeds the heterodyne marginal")
    return errors


def check_fisher(records: list[tuple]) -> list[str]:
    """Fisher cross-check records against each other and the closed forms.

    Each record is (mu, lam, phi, eta, crb_hom, crb_het, quadrature inverse
    trace, heterodyne inverse trace, closed homodyne inverse trace).
    """
    errors: list[str] = []
    for mu, lam, phi, eta, hom, het, quad_it, het_it, closed_it in records:
        tag = f"fisher ({mu:.4g}, {lam:.4g}, {phi:.4g}, {eta:.4g})"
        h_hom = float(bound_of_state(mu, lam, eta, "homodyne"))
        h_het = float(bound_of_state(mu, lam, eta, "heterodyne"))
        if not (_close(hom, h_hom, 1e-12) and _close(het, h_het, 1e-12)):
            errors.append(f"{tag}: crb_hom {hom!r} / crb_het {het!r}, "
                          f"closed forms {h_hom!r} / {h_het!r}")
        if not abs(quad_it - hom) <= 1e-8 * hom:
            errors.append(f"{tag}: quadrature inverse trace {quad_it!r} vs crb_hom {hom!r}")
        if not abs(het_it - het) <= 1e-10 * het:
            errors.append(f"{tag}: heterodyne inverse trace {het_it!r} vs crb_het {het!r}")
        if not abs(closed_it - hom) <= 1e-10 * hom:
            errors.append(f"{tag}: closed homodyne inverse trace {closed_it!r} vs {hom!r}")
    return errors
