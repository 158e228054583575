"""Artifact persistence (one JSON writer, CSV tables) and report diffing.

A report's shape is fixed by the code that builds it.  Its packaged
contract is schemas/report.schema.json, which the tests check reports
against; a run does not.
"""

import csv
import json
import math

from .errors import ConfigError, SchemaMismatchError

SCHEMA_VERSION = "2"

# the drift budget of a constant that its report's budgets do not name
DEFAULT_BUDGET = 0.30


def write_json(path, obj):
    """obj through json_safe, indented, key-sorted and newline-terminated:
    the same object always gives the same bytes."""
    with open(path, "w") as fh:
        json.dump(json_safe(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def load_report(path):
    """The JSON object in path.  ConfigError naming path when the file
    cannot be read or holds no JSON object, and naming the field too when
    a section compare reads is malformed: budgets, balls, a ball or its
    constants, or solver not an object, or a budget not a number."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc.strerror}") \
            from exc
    except ValueError as exc:   # invalid JSON or undecodable bytes
        raise ConfigError(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise ConfigError(f"report {path} is not a JSON object")
    budgets, balls = report.get("budgets", {}), report.get("balls", {})
    objects = [("budgets", budgets), ("balls", balls),
               ("solver", report.get("solver", {}))]
    if isinstance(balls, dict):
        for ball_id, ball in balls.items():
            objects.append((f"balls.{ball_id}", ball))
            if isinstance(ball, dict):
                objects.append((f"balls.{ball_id}.constants",
                                ball.get("constants", {})))
    for field, value in objects:
        if not isinstance(value, dict):
            raise ConfigError(f"report {path}: {field} is not an object")
    for key, budget in budgets.items():
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise ConfigError(f"report {path}: budgets.{key} is not a "
                              f"number")
    return report


def json_safe(x):
    """Recursively replace non-finite floats (JSON has no inf/nan)."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    if hasattr(x, "item"):
        return json_safe(x.item())
    return x


def write_csv(path, header, rows):
    """header, then rows of Python numbers and strings, via csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _walk_constants(report):
    out = {}
    for ball_id, ball in sorted(report.get("balls", {}).items()):
        for name, value in sorted(ball.get("constants", {}).items()):
            if isinstance(value, (int, float)):
                out[f"{ball_id}.{name}"] = float(value)
    for name, value in sorted(report.get("solver", {}).items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"solver.{name}"] = float(value)
    return out


def compare(report_a, report_b):
    """Tabulate constant drift between two runs.

    Returns (rows, flagged) where rows are (key, a, b, drift, budget, ok)
    and drift = |a - b| / max(|a|, |b|).  A key's budget is report_a's
    budget of that key, else its default, else DEFAULT_BUDGET.  Keys
    present in only one report are skipped (refinement pairs may differ in
    resolvable bands).
    """
    if report_a.get("schema_version") != report_b.get("schema_version"):
        raise SchemaMismatchError(
            f"schema versions differ: {report_a.get('schema_version')} vs "
            f"{report_b.get('schema_version')}")
    budgets = report_a.get("budgets") or {}
    default = float(budgets.get("default", DEFAULT_BUDGET))
    ca, cb = _walk_constants(report_a), _walk_constants(report_b)
    rows, flagged = [], []
    for key in sorted(set(ca) & set(cb)):
        a, b = ca[key], cb[key]
        scale = max(abs(a), abs(b))
        drift = 0.0 if scale == 0 else abs(a - b) / scale
        budget = float(budgets.get(key, default))
        ok = drift <= budget
        rows.append((key, a, b, drift, budget, ok))
        if not ok:
            flagged.append(key)
    return rows, flagged


def format_diff(rows, flagged):
    if not rows:
        return "no shared constants\n"
    lines = [f"{'constant':44s} {'a':>12s} {'b':>12s} {'drift':>8s}  ok"]
    for key, a, b, drift, budget, ok in rows:
        lines.append(f"{key:44s} {a:12.5g} {b:12.5g} {drift:8.2%}  "
                     f"{'yes' if ok else 'NO'}")
    lines.append(f"{len(flagged)} of {len(rows)} constants over budget")
    return "\n".join(lines) + "\n"
