"""Command-line front end.

Subcommands: analyze, order, growth, energy, critpoint, corpus-verify.
Exit codes: 0 success, 1 usage or input error, 2 verdict mismatch
(corpus-verify), 3 numerical failure.  JSON output prints floats with 17
significant digits so reports round-trip byte-for-byte.  Every command is
deterministic and takes no seed: nothing draws random numbers.  The
growth fit runs at dim K <= 1 only; at dim K > 1 it is a numerical
failure, and critpoint's order-4 test is the check.  A reader that closes
the output pipe early (rigidkit ... | head) ends the command quietly with
exit 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import corpus as corpus_mod
from .critpoint import (
    fourth_derivative_test,
    order2k_family_test,
    polynomial_from_monomial_list,
    second_order_rigidity_test,
)
from .energy import FAMILIES, EnergySpec, PolyTrajectory, energy_along_trajectory
from .errors import FrameworkValidationError, RigidkitError
from .framework import (
    Framework,
    _as_float_rows,
    load_framework,
    pin_with_permutation,
    rigidity_matrix,
)
from .growth import fit_growth_order
from .jets import MAX_ORDER
from .ladder import (
    DEFAULT_LADDER_TOL,
    DEFAULT_MAX_K,
    OrderReport,
    _disconnected_reason,
    rigidity_order,
    solve_ladder,
)
from .linear import kernel_decomposition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# canonical JSON rendering (17 significant digits, sorted keys)
# ---------------------------------------------------------------------------

def _render_numbers(values: list, shape: tuple[int, ...], spec: str, indent: int) -> str:
    """render_json's text for a nested list of the given shape holding
    values (row-major) as numbers, formatted by one %-operation: the cost
    follows the number of values, not a call per list."""
    text = spec
    for depth in range(len(shape) - 1, -1, -1):   # innermost list first
        pad = " " * (indent + depth)
        text = "[\n" + pad + " " + (",\n" + pad + " ").join([text] * shape[depth]) + "\n" + pad + "]"
    return text % tuple(values)


def render_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad} "{key}": {render_json(obj[key], indent + 1).lstrip()}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        # "%.17g" and "%d" give format(x, ".17g") and str(n) byte for byte
        if all(type(v) is float for v in obj):
            return _render_numbers(obj, (len(obj),), "%.17g", indent)
        if all(type(v) is int for v in obj):
            return _render_numbers(obj, (len(obj),), "%d", indent)
        items = [f"{pad} {render_json(v, indent + 1).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        if obj.size and obj.dtype.kind in "fiu":
            spec = "%.17g" if obj.dtype.kind == "f" else "%d"
            return _render_numbers(obj.ravel().tolist(), obj.shape, spec, indent)
        return render_json(obj.tolist(), indent)
    raise TypeError(f"cannot render {type(obj)}")


def _emit_json(obj) -> None:
    print(render_json(obj))


def _framework_hash(fw: Framework) -> str:
    # the text of framework_to_dict(fw), with the vertices and edges
    # rendered from arrays in one pass each, not built as lists first
    canon = {"dimension": fw.dimension, "vertices": fw.vertices,
             "edges": np.column_stack(fw.edge_index_arrays()) + 1}
    if fw.labels is not None:
        canon["labels"] = list(fw.labels)
    return hashlib.sha256(render_json(canon).encode("utf-8")).hexdigest()


def _fields(report, omit=()) -> dict:
    """A report dataclass's fields by name, less those named in omit."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name not in omit}


def _order_report_dict(rep: OrderReport) -> dict:
    out = _fields(rep, omit=("witness", "kernel_method", "rank_margin"))
    out["residuals"] = [_fields(r) for r in rep.residuals]
    return out


def _print_residuals(rep: OrderReport) -> None:
    for r in rep.residuals:
        mark = "rejected" if rep.verdict == "order" and r.level == rep.order else "solved"
        print(
            f"  level {r.level:>2}: residual {r.residual:.6e}  threshold {r.threshold:.6e}  [{mark}]"
        )


def _load_and_pin(path: str, auto_permute: bool = True):
    fw = load_framework(path)
    pf, iso, perm = pin_with_permutation(fw, auto_permute=auto_permute)
    return fw, pf, perm


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    t_start = time.perf_counter()
    fw, pf, perm = _load_and_pin(args.path, auto_permute=not args.no_permute)
    t_pin = time.perf_counter()
    rep = rigidity_order(pf, max_k=args.max_k, tol=args.tol, energy_family=args.family)
    t_order = time.perf_counter()
    growth = None
    if args.growth:
        spec = EnergySpec.for_framework(pf.base, args.family)
        try:
            growth = fit_growth_order(spec, pf)
        except RigidkitError as exc:
            growth = exc
    t_end = time.perf_counter()

    report = {
        "path": args.path,
        "hash": _framework_hash(fw),
        "n_vertices": fw.n_vertices,
        "n_edges": fw.n_edges,
        "n_free": pf.n_free,
        "dim_K": rep.dim_K,
        "kernel": {"method": rep.kernel_method, "rank_margin": rep.rank_margin},
        "pinning_permutation": [v + 1 for v in perm],
        "verdict": _order_report_dict(rep),
        "timings_s": {
            "pin": t_pin - t_start,
            "order": t_order - t_pin,
            "growth": t_end - t_order,
            "total": t_end - t_start,
        },
    }
    if growth is not None:
        if isinstance(growth, Exception):
            report["growth"] = {"error": str(growth)}
        else:
            report["growth"] = (_fields(growth, omit=("m_values", "tangent_ratio"))
                                | {"tangent_grad_ratio": growth.tangent_ratio})
    # witness coefficients are bulky; analyze keeps a summary only
    if rep.witness is not None:
        report["verdict"]["witness_degree"] = rep.witness.degree
        report["verdict"]["witness_coeff_norms"] = np.linalg.norm(rep.witness.coeffs, axis=1).tolist()

    if args.json:
        _emit_json(report)
    else:
        print(f"framework: {args.path} (n={fw.n_vertices}, |G|={fw.n_edges}, N={pf.n_free})")
        if perm != list(range(fw.n_vertices)):
            print(f"pinning permutation: {[v + 1 for v in perm]}")
        print(f"dim K = {rep.dim_K}")
        print(f"verdict: {rep.summary()}")
        _print_residuals(rep)
        if growth is not None:
            if isinstance(growth, Exception):
                print(f"growth fit: failed ({growth})")
            else:
                print(
                    f"growth fit [{growth.family}]: s = {growth.fitted_s:.3f} "
                    f"(nu = {growth.nu_hat:.3f}, r2 = {growth.r2:.5f})"
                )
                for note in growth.notes:
                    print(f"  note: {note}")
    return EXIT_OK


def cmd_order(args) -> int:
    fw, pf, perm = _load_and_pin(args.path)
    rep = rigidity_order(pf, max_k=args.max_k, tol=args.tol)
    if args.json:
        out = _order_report_dict(rep)
        if rep.witness is not None:
            out["witness"] = {"coeffs": rep.witness.coeffs.tolist()}
        out["pinning_permutation"] = [v + 1 for v in perm]
        _emit_json(out)
    else:
        print(rep.summary())
        _print_residuals(rep)
        if rep.witness is not None:
            print("witness coefficients (rows = t^1, t^2, ...):")
            for l, row in enumerate(rep.witness.coeffs, start=1):
                print(f"  t^{l}: " + " ".join(f"{v: .12e}" for v in row))
    return EXIT_OK


def cmd_growth(args) -> int:
    if not (np.isfinite(args.rmin) and np.isfinite(args.rmax) and 0.0 < args.rmin < args.rmax):
        raise _UsageError("need finite 0 < --rmin < --rmax")
    fw, pf, _ = _load_and_pin(args.path)
    spec = EnergySpec.for_framework(pf.base, args.family)
    fit = fit_growth_order(spec, pf, r_min=args.rmin, r_max=args.rmax, n_radii=args.n)
    rows = [
        {"r": r, "m_r": m, "log_r": float(np.log(r)), "log_m": float(np.log(m))}
        for r, m in zip(fit.radii, fit.m_values)
    ]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("r,m_r,log_r,log_m\n")
            for row in rows:
                fh.write(
                    f"{row['r']:.17g},{row['m_r']:.17g},{row['log_r']:.17g},{row['log_m']:.17g}\n"
                )
    for row, steps, ratio in zip(rows, fit.newton_steps, fit.tangent_ratio):
        print(f"r = {row['r']:.6e}   m(r) = {row['m_r']:.6e}   "
              f"newton steps = {steps}   |g_tan|/|g| = {ratio:.1e}")
    print(
        f"fit [{fit.family}]: s = {fit.fitted_s:.4f}, nu = {fit.nu_hat:.4f}, r2 = {fit.r2:.6f}"
    )
    for note in fit.notes:
        print(f"note: {note}")
    return EXIT_OK


def _load_trajectory(path: str) -> PolyTrajectory:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if "witness" in data:
            data = data["witness"]
        return PolyTrajectory(_as_float_rows(data["coeffs"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: not a trajectory ({type(exc).__name__}: {exc})") from exc


def cmd_energy(args) -> int:
    fw, pf, _ = _load_and_pin(args.path)
    spec = EnergySpec.for_framework(pf.base, args.family)
    traj = _load_trajectory(args.traj)
    if traj.n_free != pf.n_free:
        raise _InputError(
            f"trajectory has {traj.n_free} coordinates, framework has {pf.n_free} free"
        )
    jet = energy_along_trajectory(spec, pf, traj, args.order)
    cond = jet.condition()
    lines = ["order,coefficient,condition"]
    for i, (c, q) in enumerate(zip(jet.c, cond)):
        lines.append(f"{i},{c:.17g},{q:.6g}")
    text = "\n".join(lines)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _inapplicable(reason: str) -> int:
    _emit_json({"classification": "inapplicable", "reason": reason})
    return EXIT_OK


def cmd_critpoint(args) -> int:
    if args.poly:
        if args.path or args.order is not None or args.family is not None:
            raise _UsageError("--poly takes no framework file, --order or --family")
        with open(args.poly, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            target = polynomial_from_monomial_list(data)
        except ValueError as exc:
            raise _InputError(f"{args.poly}: {exc}") from exc
        rep = fourth_derivative_test(target)
        _emit_json(_fields(rep))
        return EXIT_OK
    if not args.path:
        raise _UsageError("critpoint needs --poly or a framework file")
    fw, pf, _ = _load_and_pin(args.path)
    # a disconnected graph is flexible, as analyze decides by the graph check
    disconnected = _disconnected_reason(pf.base)
    if disconnected is not None:
        return _inapplicable(disconnected)
    spec = EnergySpec.for_framework(pf.base, args.family or "harmonic")
    kd = kernel_decomposition(rigidity_matrix(pf))
    if kd.dim_K == 0:
        return _inapplicable("dim K = 0: the framework is first-order rigid")
    if args.order is None:
        rep = second_order_rigidity_test(pf, spec, kd)
        _emit_json(_fields(rep))
        return EXIT_OK
    k = args.order
    if kd.dim_K > 1:
        return _inapplicable(f"the order-2k family test needs dim K = 1, got {kd.dim_K}")
    ladder = solve_ladder(pf, kd, max_k=k)
    if ladder.verdict == "order" and ladder.order is not None and ladder.order < k:
        return _inapplicable(f"no (1,{k - 1})-flex exists: ladder certifies order {ladder.order}")
    rep = order2k_family_test(pf, spec, ladder.witness, k, kd=kd)
    _emit_json(_fields(rep))
    return EXIT_OK


def cmd_corpus_verify(args) -> int:
    names = list(corpus_mod.CORPUS_NAMES)
    failures = 0
    for name in names:
        pf, _, _ = pin_with_permutation(corpus_mod.load_corpus(name))
        rep = rigidity_order(pf)
        got = rep.order if rep.verdict == "order" else None
        expected = corpus_mod.EXPECTED_ORDERS[name]
        ok = got == expected
        failures += 0 if ok else 1
        status = "ok" if ok else "MISMATCH"
        print(f"{name:>20}: computed {got}  expected {expected}  [{status}]")
    print(f"{len(names) - failures}/{len(names)} match")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int, high: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about a third of a small analyze."""
    p = _Parser(prog="rigidkit", description="Rigidity orders of bar-and-joint frameworks")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full analysis: pin, dim K, rigidity order")
    a.add_argument("path")
    a.add_argument("--max-k", type=_int_at_least(2, MAX_ORDER), default=DEFAULT_MAX_K)
    a.add_argument("--tol", type=_positive_float, default=DEFAULT_LADDER_TOL)
    a.add_argument("--family", choices=FAMILIES, default="harmonic")
    a.add_argument("--growth", action="store_true", help="also fit the energy growth order")
    a.add_argument("--json", action="store_true")
    a.add_argument("--no-permute", action="store_true",
                   help="fail instead of permuting vertices when the leading set is degenerate")
    a.set_defaults(func=cmd_analyze)

    o = sub.add_parser("order", help="rigidity order with ladder residuals and witness")
    o.add_argument("path")
    o.add_argument("--max-k", type=_int_at_least(2, MAX_ORDER), default=DEFAULT_MAX_K)
    o.add_argument("--tol", type=_positive_float, default=DEFAULT_LADDER_TOL)
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_order)

    g = sub.add_parser("growth", help="minimal energy gap on spheres and log-log fit")
    g.add_argument("path")
    g.add_argument("--family", choices=FAMILIES, default="harmonic")
    g.add_argument("--rmin", type=float, default=1e-3)
    g.add_argument("--rmax", type=float, default=1e-1)
    g.add_argument("--n", type=_int_at_least(2), default=12, help="number of radii")
    g.add_argument("--csv")
    g.set_defaults(func=cmd_growth)

    e = sub.add_parser("energy", help="energy jet coefficients along a trajectory (CSV)")
    e.add_argument("path")
    e.add_argument("--family", choices=FAMILIES, required=True)
    e.add_argument("--traj", required=True, help="JSON with witness coefficients")
    e.add_argument("--order", type=_int_at_least(1, MAX_ORDER), required=True)
    e.add_argument("--csv")
    e.set_defaults(func=cmd_energy)

    c = sub.add_parser("critpoint", help="derivative tests at a degenerate critical point")
    c.add_argument("path", nargs="?")
    c.add_argument("--poly", help='polynomial target JSON: [{"exps": [..], "coef": r}, ...]')
    c.add_argument("--family", choices=FAMILIES,
                   help="energy family for a framework file (default harmonic)")
    c.add_argument("--order", type=_int_at_least(2, MAX_ORDER // 2),
                   help="run the order-2k family test at k=ORDER (framework file only)")
    c.set_defaults(func=cmd_critpoint)

    v = sub.add_parser("corpus-verify", help="recompute the bundled corpus orders")
    v.set_defaults(func=cmd_corpus_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    code = EXIT_OK
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone away; point stdout at devnull so the
        # interpreter's own flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, FrameworkValidationError, _InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RigidkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
