"""Independent checks of kerrsense output files.

Every check is computed here from closed forms and from inequalities the
physics must satisfy; nothing is compared with a stored copy of earlier
output.  Each check function returns a list of failure messages, and each
message starts with the check's id (the word before the colon), so a test can
tell which check rejected a row.

Ids: status, linear, mai-bound, row-count, hierarchy, uncertainty,
photon-bound, vacuum, fig3-ordering, squeezing-law, fit-slope, fit-points,
wigner-shape, wigner-norm, wigner-bound, missing-file, bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# The documented ordering slack of chi^-2 <= chi^-2_MAI <= F_Q.
ORDER_SLACK = 1e-6
# chi2inv_1 is computed as 1 / (v_min + sigma2) with sigma2 = 0.
LINEAR_RTOL = 1e-12
# Vacuum figures are exact up to rounding in the eigenbasis.
VACUUM_ATOL = 1e-9
# Pure-state inequalities hold exactly; this absorbs rounding only.
BOUND_RTOL = 1e-9
# fig1 K = 0 traces converge their dimension to 1e-8 relative.
SQUEEZING_RTOL = 1e-6
# Riemann sum of W over the snapshot grid; the grid clips ~1e-7 of the weight.
WIGNER_NORM_TOL = 1e-3
# Slope of F_Q = a N + 4 cannot exceed the squeezed-vacuum value.
MAX_SLOPE = 8.0

NUMERIC = ("delta", "epsilon", "kerr", "gamma", "kt", "dim", "N", "v_min", "chi2inv_1",
           "chi2inv_2", "chi2inv_3", "f_q", "chi2inv_mai")


def parse_rows(text: str) -> list[dict]:
    """CSV text to dicts; empty cells become None, numbers become floats."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {key: (float(raw[key]) if raw.get(key) else None) for key in NUMERIC}
        row["status"] = raw.get("status")
        rows.append(row)
    return rows


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _where(i: int, row: dict) -> str:
    return (f"row {i} (delta={row['delta']}, epsilon={row['epsilon']}, kerr={row['kerr']}, "
            f"gamma={row['gamma']}, kt={row['kt']})")


def check_rows(rows: list[dict], expected_rows: int | None = None) -> list[str]:
    """Checks that hold for every row of every sweep CSV."""
    out = []
    if expected_rows is not None and len(rows) != expected_rows:
        out.append(f"row-count: {len(rows)} rows, grid has {expected_rows}")
    for i, row in enumerate(rows):
        at = _where(i, row)
        v, f_q = row["v_min"], row["f_q"]
        c1, mai = row["chi2inv_1"], row["chi2inv_mai"]
        if row["status"] != "ok":
            out.append(f"status: {at} has status {row['status']!r}")
        if v is not None and c1 is not None and not (v > 0 and _close(c1, 1.0 / v, LINEAR_RTOL)):
            out.append(f"linear: {at} chi2inv_1={c1} but 1/v_min={1.0 / v if v else math.inf}")
        if mai is not None and f_q is not None and not mai <= f_q + ORDER_SLACK:
            out.append(f"mai-bound: {at} chi2inv_mai={mai} > f_q={f_q}")
        if row["gamma"] == 0.0:
            out += _lossless_checks(at, row)
        if row["epsilon"] == 0.0 or row["kt"] == 0.0:
            for key, value in (("N", 0.0), ("v_min", 0.5), ("f_q", 2.0)):
                got = row[key]
                if got is not None and not abs(got - value) <= VACUUM_ATOL:
                    out.append(f"vacuum: {at} {key}={got}, vacuum has {value}")
    return out


def _lossless_checks(at: str, row: dict) -> list[str]:
    out = []
    chain = [(k, row[k]) for k in ("chi2inv_1", "chi2inv_2", "chi2inv_3", "f_q")
             if row[k] is not None]
    for (ka, a), (kb, b) in zip(chain, chain[1:]):
        if not a <= b + ORDER_SLACK:
            out.append(f"hierarchy: {at} {ka}={a} > {kb}={b}")
    n, v, f_q = row["N"], row["v_min"], row["f_q"]
    if v is not None and f_q is not None and not v * f_q >= 1.0 - BOUND_RTOL:
        out.append(f"uncertainty: {at} v_min * f_q = {v * f_q} < 1")
    if n is not None and f_q is not None:
        n_pos = max(n, 0.0)
        cap = 2.0 * (1.0 + 2.0 * n_pos + 2.0 * math.sqrt(n_pos * (n_pos + 1.0)))
        if not f_q <= cap * (1.0 + BOUND_RTOL):
            out.append(f"photon-bound: {at} f_q={f_q} > 2(1 + 2N + 2 sqrt(N(N+1))) = {cap}")
    return out


def check_fig3_ordering(rows: list[dict]) -> list[str]:
    """Lossless fig3 rows: chi2inv_1 <= chi2inv_mai <= f_q within the slack."""
    out = []
    for i, row in enumerate(rows):
        if row["gamma"] != 0.0:
            continue
        c1, mai, f_q = row["chi2inv_1"], row["chi2inv_mai"], row["f_q"]
        if None in (c1, mai, f_q) or not (c1 <= mai + ORDER_SLACK and mai <= f_q + ORDER_SLACK):
            out.append(f"fig3-ordering: {_where(i, row)} chi2inv_1={c1}, "
                       f"chi2inv_mai={mai}, f_q={f_q}")
    return out


def check_squeezing_law(rows: list[dict]) -> list[str]:
    """fig1 K = 0 traces: v_min = e^{-4 eps t}/2 and N = sinh^2(2 eps t)."""
    out = []
    for i, row in enumerate(rows):
        if row["kerr"] != 0.0:
            continue
        r = 2.0 * row["epsilon"] * row["kt"]  # kt is the bare time when K = 0
        v_law, n_law = 0.5 * math.exp(-2.0 * r), math.sinh(r) ** 2
        if row["v_min"] is None or not _close(row["v_min"], v_law, SQUEEZING_RTOL):
            out.append(f"squeezing-law: {_where(i, row)} v_min={row['v_min']}, law {v_law}")
        if row["N"] is None or not _close(row["N"], n_law, SQUEEZING_RTOL, VACUUM_ATOL):
            out.append(f"squeezing-law: {_where(i, row)} N={row['N']}, law {n_law}")
    return out


def check_fits(fits: list[dict], rows: list[dict], expected_fits: int,
               kt_points: int) -> list[str]:
    """scaling fits: one per epsilon, slope a <= 8, points mirror the rows."""
    out = []
    if len(fits) != expected_fits:
        out.append(f"row-count: {len(fits)} fits, epsilon axis has {expected_fits}")
    start = 0
    for fit in fits:
        a, points = fit["a"], fit["points"]
        if not a <= MAX_SLOPE:
            out.append(f"fit-slope: epsilon/K={fit['epsilon_over_k']} slope a={a} > {MAX_SLOPE}")
        block = rows[start:start + len(points)]
        start += len(points)
        if not 0 < len(points) <= kt_points or [[r["N"], r["f_q"]] for r in block] != points:
            out.append(f"fit-points: epsilon/K={fit['epsilon_over_k']} points do not match "
                       f"its {len(block)} rows")
    if start != len(rows):
        out.append(f"row-count: {len(rows)} rows, fits hold {start} points")
    return out


def check_wigner(name: str, snap: dict) -> list[str]:
    """Snapshot W(x, p): shape, sum W dx dp = 1, and |W| <= 1/pi."""
    x, p, w = snap["x_grid"], snap["p_grid"], snap["w"]
    if len(w) != len(x) or any(len(r) != len(p) for r in w):
        return [f"wigner-shape: {name} W is not len(x_grid) x len(p_grid)"]
    out = []
    dx = (x[-1] - x[0]) / (len(x) - 1)
    dp = (p[-1] - p[0]) / (len(p) - 1)
    total = math.fsum(v for r in w for v in r) * dx * dp
    if not abs(total - 1.0) <= WIGNER_NORM_TOL:
        out.append(f"wigner-norm: {name} sum W dx dp = {total}")
    peak = max(abs(v) for r in w for v in r)
    if not peak <= (1.0 + BOUND_RTOL) / math.pi:
        out.append(f"wigner-bound: {name} max |W| = {peak} > 1/pi")
    return out


def check_invocation(inv, directory: Path) -> tuple[list[str], dict[str, str]]:
    """Run every check on one invocation's outputs.

    Returns the failures and the sha256 of each output file, which the caller
    compares across repetitions of the invocation.
    """
    main = directory / inv.argv[inv.argv.index("--out") + 1]
    files = [main]
    if inv.kind == "fig1":
        files.append(main.with_name(main.stem + "_optima.csv"))
    elif inv.kind == "scaling":
        files.append(main.with_name(main.stem + "_fits.json"))
    elif inv.kind == "fig3":
        files += [main.with_name(f"{main.stem}_wigner_{s}.json") for s in inv.extra["snapshots"]]
    missing = [f.name for f in files if not f.is_file()]
    if missing:
        return [f"missing-file: {', '.join(missing)}"], {}
    hashes = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

    rows = parse_rows(main.read_text())
    out = check_rows(rows, inv.expected_rows)
    if inv.kind == "fig1":
        out += check_squeezing_law(rows)
        out += check_rows(parse_rows(files[1].read_text()), inv.extra["optima_rows"])
    elif inv.kind == "scaling":
        fits = json.loads(files[1].read_text())
        out += check_fits(fits, rows, inv.extra["fits"], inv.extra["kt_points"])
    elif inv.kind == "fig3":
        out += check_fig3_ordering(rows)
        for f in files[1:]:
            out += check_wigner(f.name, json.loads(f.read_text()))
    return out, hashes


def compare_bytes(name: str, first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Output bytes must repeat exactly across repetitions of an invocation."""
    if first == again:
        return []
    differ = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
    return [f"bytes: {name} output differs between repetitions: {', '.join(differ)}"]
