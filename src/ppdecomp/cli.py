"""Command-line interface.

Subcommands: ``decompose`` (views in, result JSON and optional diagnostics
out), ``simulate`` (benchmark grid to a CSV table), ``diagnose`` (diagnostic
SVG/JSON from a stored result), and ``noise-spectrum`` (analytical law and
optional empirical sample). Exit codes: 0 success, 2 usage or input error,
3 numerical infeasibility; a failure prints one ``error: <label>: <message>``
line, label and code from ``ERRORS``. Every run is deterministic given its
flags and seed on one numpy/BLAS build and BLAS thread count (the last digits
of epsilon1_hat can differ between thread counts), and file writes are atomic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bootstrap import BootstrapConfig
from .decomposition import DecompositionResult, ProductSpectrum, decompose_multiview
from .diagnostics import build_report, export_json, render_svg
from .exceptions import (BootstrapInfeasible, DimensionMismatch, InvalidInput,
                         ParseError)
from .matrixio import atomic_write_text, read_matrix_csv
from .noise import (NoiseSpectrumLaw, noise_density, noise_law,
                    sample_noise_spectrum, singular_value_threshold)
from .simulate import SimConfig, run_benchmark

DEFAULT_SEED = 42

# Exception type -> (label, exit code) of main's "error: <label>: ..." line; first match wins.
ERRORS = {DimensionMismatch: ("dimension mismatch", 2), ParseError: ("parse", 2),
          json.JSONDecodeError: ("parse", 2), InvalidInput: ("invalid input", 2),
          OSError: ("io", 2), BootstrapInfeasible: ("bootstrap infeasible", 3)}


def _basis_json(basis: np.ndarray) -> dict:
    return {
        "ambient_dim": int(basis.shape[0]),
        "rank": int(basis.shape[1]),
        "columns": [[float(v) for v in basis[:, j]] for j in range(basis.shape[1])],
    }


def _float_vector(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"expected a list of numbers, got shape {out.shape}")
    return out


def _basis_from_json(obj: dict) -> np.ndarray:
    n, cols = int(obj["ambient_dim"]), obj["columns"]
    basis = np.asarray(cols, dtype=float).T if cols else np.zeros((n, 0))
    if basis.ndim != 2 or basis.shape[0] != n or not np.all(np.isfinite(basis)):
        raise ValueError(f"basis columns must hold {n} finite numbers each")
    return basis


def _result_json(result: DecompositionResult, seed: int, bootstrap_reps: int) -> str:
    payload = {
        "n": int(result.joint.shape[0]),
        "views": len(result.individuals),
        "marginal_ranks": [int(r) for r in result.marginal_ranks],
        "joint_rank": int(result.joint_rank),
        "epsilon1_hat": float(result.epsilon1_hat),
        "sigma_hats": [float(s) for s in result.sigma_hats],
        "binding_pair": [int(i) for i in result.binding_pair],
        "spectrum": {
            "values": [float(v) for v in result.spectrum.values],
            "bootstrap_threshold": float(result.spectrum.bootstrap_threshold),
            "noise_threshold": float(result.spectrum.noise_threshold),
        },
        "joint": _basis_json(result.joint),
        "individuals": [_basis_json(b) for b in result.individuals],
        "seed": int(seed),
        "bootstrap_reps": int(bootstrap_reps),
    }
    return json.dumps(payload, indent=1) + "\n"


def _parse_ranks(text: str):
    if text == "auto":
        return None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidInput(f"--ranks must be 'auto' or comma-separated integers, got {text!r}") from None


def _cmd_decompose(args) -> int:
    views = [read_matrix_csv(p, has_header=args.has_header) for p in args.view]
    ranks = _parse_ranks(args.ranks)
    result = decompose_multiview(
        views, ranks=ranks,
        bootstrap=BootstrapConfig(replicates=args.bootstrap_reps, seed=args.seed))
    atomic_write_text(args.out, _result_json(result, args.seed, args.bootstrap_reps))
    if args.diagnostic or args.diagnostic_json:
        report = build_report(result)
        if args.diagnostic:
            atomic_write_text(args.diagnostic, render_svg(report))
        if args.diagnostic_json:
            atomic_write_text(args.diagnostic_json, export_json(report))
    return 0


def _parse_simulation_config(path: str) -> dict:
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}: line {lineno} is not 'key = value'", line=lineno)
            key, _, value = stripped.partition("=")
            raw[key.strip()] = (value.strip(), lineno)

    def take(key, convert, default=None, required=False):
        if key not in raw:
            if required:
                raise ParseError(f"{path}: missing required key '{key}'")
            return default
        value, lineno = raw.pop(key)
        try:
            return convert(value)
        except (ValueError, InvalidInput):
            raise ParseError(f"{path}: bad value for key '{key}': {value!r}",
                             line=lineno) from None

    def items(convert):
        return lambda v: tuple(convert(tok) for tok in v.split(","))

    cfg = {
        "n": take("n", int, required=True),
        "dims": take("p", items(int), required=True),
        "joint_rank": take("joint_rank", int, required=True),
        "individual_ranks": take("individual_ranks", items(int), required=True),
        "angles": take("angles", items(float), required=True),
        "snrs": take("snrs", items(float), required=True),
        "rank_modes": take("rank_modes", items(str.strip), required=True),
        "reps": take("reps", int, required=True),
        "seed": take("seed", int, default=DEFAULT_SEED),
        "bootstrap_reps": take("bootstrap_reps",
                               lambda v: BootstrapConfig(replicates=int(v)).replicates,
                               default=100),
        "sv_range": take("sv_range", items(float), default=(1.0, 2.0)),
    }
    if raw:
        key = sorted(raw)[0]
        raise ParseError(f"{path}: unknown key '{key}'", line=raw[key][1])
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _parse_simulation_config(args.config)
    grid = [
        SimConfig(n=cfg["n"], dims=cfg["dims"], joint_rank=cfg["joint_rank"],
                  individual_ranks=cfg["individual_ranks"], angle_deg=angle,
                  snr=snr, seed=0, rank_mode=mode, sv_range=cfg["sv_range"])
        for angle in cfg["angles"]
        for snr in cfg["snrs"]
        for mode in cfg["rank_modes"]
    ]
    rows = run_benchmark(grid, reps=cfg["reps"], master_seed=cfg["seed"],
                         bootstrap_reps=cfg["bootstrap_reps"])
    lines = ["angle,snr,rank_mode,mean_F_raw,mean_F_x10,stderr,reps,cell_seed"]
    for row in rows:
        lines.append(",".join([
            repr(row.angle_deg), repr(row.snr), row.rank_mode,
            repr(row.mean_f_raw), repr(row.mean_f_scaled),
            repr(row.stderr_scaled), str(row.reps), str(row.cell_seed),
        ]))
        for failure in row.failures:
            print(f"warning: cell ({row.angle_deg}, {row.snr}, {row.rank_mode}): "
                  f"{failure}", file=sys.stderr)
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_noise_spectrum(args) -> int:
    empirical = None
    if args.n is not None or args.r1 is not None or args.r2 is not None:
        if None in (args.n, args.r1, args.r2):
            raise InvalidInput("--n, --r1 and --r2 must be given together")
        if args.q1 is not None or args.q2 is not None:
            raise InvalidInput("pass --q1/--q2 or --n/--r1/--r2, not both (sampling takes q = r/n)")
        squared = sample_noise_spectrum(args.n, args.r1, args.r2, args.seed)
        empirical = {
            "n": args.n, "r1": args.r1, "r2": args.r2, "seed": args.seed,
            "squared_singular_values": [float(v) for v in squared],
        }
        q1, q2 = args.r1 / args.n, args.r2 / args.n
    else:
        if args.q1 is None or args.q2 is None:
            raise InvalidInput("pass --q1/--q2 or --n/--r1/--r2")
        q1, q2 = args.q1, args.q2
    law = noise_law(q1, q2)
    payload = {**dataclasses.asdict(law), "sv_threshold": singular_value_threshold(law),
               "density": _density_samples(law)}
    if empirical is not None:
        payload["empirical"] = empirical
    atomic_write_text(args.out, json.dumps(payload, indent=1) + "\n")
    return 0


def _density_samples(law: NoiseSpectrumLaw):
    if law.lambda_plus <= law.lambda_minus:
        return []
    lams = np.linspace(law.lambda_minus, law.lambda_plus, 201)
    return np.column_stack([lams, noise_density(law, lams)]).tolist()


def _load_result_json(path: str) -> DecompositionResult:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        n = int(payload["n"])
        spectrum = ProductSpectrum(
            values=_float_vector(payload["spectrum"]["values"]),
            bootstrap_threshold=float(payload["spectrum"]["bootstrap_threshold"]),
            noise_threshold=float(payload["spectrum"]["noise_threshold"]),
        )
        joint = _basis_from_json(payload["joint"])
        individuals = [_basis_from_json(b) for b in payload["individuals"]]
        result = DecompositionResult(
            joint=joint,
            individuals=individuals,
            marginal_ranks=tuple(int(r) for r in payload["marginal_ranks"]),
            joint_rank=int(payload["joint_rank"]),
            spectrum=spectrum,
            epsilon1_hat=float(payload["epsilon1_hat"]),
            sigma_hats=tuple(float(s) for s in payload["sigma_hats"]),
            view_bases=[],
            binding_pair=tuple(payload.get("binding_pair", (0, 1))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: not a decomposition result file ({exc})") from None
    if n < 1 or any(b.shape[0] != n for b in [joint, *individuals]):
        raise InvalidInput(f"{path}: n = {n} must be >= 1 and equal every basis's ambient_dim")
    drawn = np.concatenate([spectrum.values,
                            [spectrum.bootstrap_threshold, spectrum.noise_threshold]])
    if not np.all((drawn >= 0.0) & (drawn <= 1.0)):
        raise InvalidInput(f"{path}: spectrum values and thresholds must be finite "
                           f"and lie in [0, 1]")
    pair = result.binding_pair
    if len(pair) != 2 or pair[0] == pair[1] or not all(
            type(i) is int and 0 <= i < len(result.marginal_ranks) for i in pair):
        raise InvalidInput(f"{path}: binding_pair {list(pair)} does not name two distinct "
                           f"views of {len(result.marginal_ranks)}")
    return result


def _cmd_diagnose(args) -> int:
    if not args.svg and not args.json_out:
        raise InvalidInput("pass --svg and/or --json")
    report = build_report(_load_result_json(args.result))
    if args.truth:
        with open(args.truth) as fh:
            sidecar = json.load(fh)
        histogram = report.pop("histogram")       # stays the last key
        try:
            if "truth_lines" in sidecar:
                report["truth_lines"] = _float_vector(sidecar["truth_lines"]).tolist()
            if "theorem1_intervals" in sidecar:
                report["theorem1_intervals"] = [
                    [float(lo), float(hi)] for lo, hi in sidecar["theorem1_intervals"]]
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"{args.truth}: not a truth sidecar ({exc})") from None
        intervals = report.get("theorem1_intervals", [])
        ends = [*report.get("truth_lines", []), *(v for pair in intervals for v in pair)]
        if not all(0.0 <= v <= 1.0 for v in ends) or any(lo > hi for lo, hi in intervals):
            raise InvalidInput(f"{args.truth}: truth lines and interval ends must be finite "
                               f"and lie in [0, 1], with lo <= hi")
        report["histogram"] = histogram
    if args.svg:
        atomic_write_text(args.svg, render_svg(report))
    if args.json_out:
        atomic_write_text(args.json_out, export_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppdecomp",
        description="Joint/individual subspace decomposition of multi-view data "
                    "via the product-of-projections spectrum.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose two or more view CSVs")
    p_dec.add_argument("--view", action="append", required=True,
                       help="view CSV path (repeat; at least two)")
    p_dec.add_argument("--ranks", default="auto",
                       help="'auto' or comma-separated marginal ranks, one per view")
    p_dec.add_argument("--bootstrap-reps", type=int, default=100)
    p_dec.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_dec.add_argument("--has-header", action="store_true",
                       help="views carry a single header row")
    p_dec.add_argument("--out", default="result.json")
    p_dec.add_argument("--diagnostic", help="also write a diagnostic SVG here")
    p_dec.add_argument("--diagnostic-json", help="also write the diagnostic report JSON here")
    p_dec.set_defaults(func=_cmd_decompose)

    p_sim = sub.add_parser("simulate", help="run a seeded benchmark grid")
    p_sim.add_argument("--config", required=True, help="key=value grid config file")
    p_sim.add_argument("--out", default="benchmark.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_noise = sub.add_parser("noise-spectrum",
                             help="analytical random-projection spectrum law")
    p_noise.add_argument("--q1", type=float)
    p_noise.add_argument("--q2", type=float)
    p_noise.add_argument("--n", type=int)
    p_noise.add_argument("--r1", type=int)
    p_noise.add_argument("--r2", type=int)
    p_noise.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_noise.add_argument("--out", default="noise_spectrum.json")
    p_noise.set_defaults(func=_cmd_noise_spectrum)

    p_diag = sub.add_parser("diagnose", help="diagnostic plot from a stored result")
    p_diag.add_argument("--result", required=True, help="result JSON from 'decompose'")
    p_diag.add_argument("--truth", help="optional truth sidecar JSON (simulation mode)")
    p_diag.add_argument("--svg", help="output SVG path")
    p_diag.add_argument("--json", dest="json_out", help="output report JSON path")
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERRORS) as exc:
        label, code = next(row for exc_type, row in ERRORS.items() if isinstance(exc, exc_type))
        message = (f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
                   if isinstance(exc, json.JSONDecodeError) else exc)
        print(f"error: {label}: {message}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
