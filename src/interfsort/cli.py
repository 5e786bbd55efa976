"""Command-line front end.

Subcommands: design, verify, sweep, montecarlo, simulate, ams-compare.
All quantities are SI: masses in kg (or unified atomic mass units in
species files via mass_u), velocities in m/s, lengths in m, phases in rad.
Every output file gets a sibling <file>.manifest.json sufficient to
reproduce it bit-exactly.  numpy is loaded by the commands that compute
arrays (sweep, montecarlo, simulate); verify, whose N x N residuals are
plain floats, design, unless the design is infeasible, and ams-compare run
without it.

Exit codes: 0 success, 1 usage or input error, 2 infeasible design.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from . import _np as np
from .ams import ams_radius, ams_separation
from .constants import ATOMIC_MASS_KG, ELEMENTARY_CHARGE, PLANCK_H
from .design import (
    DEFAULT_MAX_WINDING,
    PHASE_TOL,
    InfeasibleDesignError,
    MmiGeometry,
    de_broglie_wavelength,
    load_design,
    load_json,
    load_species_file,
    mmi_length,
    save_design,
    solve_n_path,
    verify_design,
)
from .leakage import monte_carlo_leakage, sweep_leakage, write_sweep_csv
from .spectrum import run_experiment

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; remap to the input-error code
    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_manifest(out_path: str | Path, command: str, params: dict,
                    seed: int | None, started: float) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "tool_version": __version__,
        "seed": seed,
        "outputs": [str(out_path)],
        "duration_s": time.perf_counter() - started,
        "constants": {
            "planck_h_J_s": PLANCK_H,
            "atomic_mass_kg": ATOMIC_MASS_KG,
            "elementary_charge_C": ELEMENTARY_CHARGE,
        },
    }
    _write_json(str(out_path) + ".manifest.json", manifest)


def _parse_range(text: str) -> tuple[float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected 'min,max', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range bounds must be finite, got {text!r}")
    if hi < lo:
        raise ValueError(f"empty range: {text!r}")
    return lo, hi


def _describe_obstruction(obstruction: dict) -> str:
    """One line naming why N*A_k*x = k*s*A_0 (mod N*A_0) fails for a path."""
    if obstruction["type"] == "congruence":
        # the rows k >= 2 hold exactly on the multiples of P, given row 1
        return (f"no multiple x of P = {obstruction['step']} solves row 1, N*A_1*x = s*A_0 "
                f"(mod {obstruction['modulus']}): gcd(N*A_1*P, N*A_0) = "
                f"{obstruction['gcd']} does not divide s*A_0")
    return (f"the shortest solution x = {obstruction['x']} needs windings up to "
            f"{obstruction['max_winding_needed']}")


def cmd_design(args) -> int:
    started = time.perf_counter()
    species = load_species_file(args.species_file)
    params = {
        "species_file": str(args.species_file),
        "velocity_mps": args.velocity,
        "max_winding": args.max_winding,
        "mmi_width_m": args.mmi_width,
    }
    coupler = None
    if args.mmi_width is not None:
        # built before solving, so that no file records a width it refuses
        lam_min = min(de_broglie_wavelength(sp.mass, args.velocity) for sp in species)
        coupler = MmiGeometry(width=args.mmi_width,
                              length=mmi_length(args.mmi_width, lam_min, len(species)),
                              ports=len(species))
    try:
        design = solve_n_path(species, args.velocity, max_winding=args.max_winding)
    except InfeasibleDesignError as exc:
        _write_json(args.out, {"feasible": False, "reason": str(exc), "report": exc.report})
        _write_manifest(args.out, "design", params, None, started)
        print(f"infeasible: {exc}", file=sys.stderr)
        x_max = exc.report.get("residual_x_max")
        for s, info in exc.report.get("paths", {}).items():
            scan = (f"min residual {info['min_residual_rad']:.3e} rad over x <= {x_max}"
                    if x_max else "no x keeps every winding within the bound")
            print(f"  path {s}: {scan}; {_describe_obstruction(info['obstruction'])}",
                  file=sys.stderr)
        return EXIT_INFEASIBLE

    if coupler is not None:
        design = dataclasses.replace(design, coupler=coupler)
    save_design(design, args.out)
    _write_manifest(args.out, "design", params, None, started)

    print(f"feasible design for {design.n} species at v = {design.velocity} m/s")
    print("  s  delta_L [m]")
    for s, dl in enumerate(design.delta_lengths):
        print(f"  {s}  {dl:.6e}")
    print("  windings n_ks (rows = mass index k):")
    for row in design.windings:
        print("   ", list(row))
    if design.coupler is not None:
        print(f"  coupler: W = {design.coupler.width:.3e} m, "
              f"length = {design.coupler.length:.6e} m, {design.coupler.ports} ports")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0 <= args.phase_tol < math.pi:
        raise ValueError(f"--phase-tol must be non-negative and below pi, got {args.phase_tol}")
    design = load_design(args.design_file)
    residuals = verify_design(design)
    magnitudes = [abs(r) for row in residuals for r in row]
    worst = math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)
    print("phase residuals [rad] (rows = mass index k, columns = path s):")
    for row in residuals:
        print("  " + "  ".join(f"{r: .3e}" for r in row))
    print(f"max |residual| = {worst:.3e} rad (tolerance {args.phase_tol:.1e})")
    if not worst <= args.phase_tol:  # a NaN residual is invalid too
        print("design INVALID", file=sys.stderr)
        return EXIT_INFEASIBLE
    print("design valid")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    ratios = tuple(float(x) for x in args.ratios.split(","))
    lo1, hi1 = _parse_range(args.delta1_range)
    lo2, hi2 = _parse_range(args.delta2_range)
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    d1s = np.linspace(lo1, hi1, args.steps)
    d2s = np.linspace(lo2, hi2, args.steps)
    grid = sweep_leakage(d1s, d2s, ratios)
    write_sweep_csv(args.out, d1s, d2s, grid, all_entries=args.full)
    _write_manifest(args.out, "sweep", {
        "n": len(ratios), "ratios": list(ratios),
        "delta1_range_rad": [lo1, hi1], "delta2_range_rad": [lo2, hi2],
        "steps": args.steps, "full": args.full,
    }, None, started)
    p00 = grid[..., 0, 0]
    print(f"swept {args.steps}x{args.steps} grid; "
          f"p00 in [{p00.min():.6f}, {p00.max():.6f}]")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    started = time.perf_counter()
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    design = load_design(args.design_file)
    result = monte_carlo_leakage(design, args.sigma_l, args.trials, args.seed)
    payload = {
        "diagonal_mean": list(result.mean),
        "diagonal_std": list(result.std),
        "trials": result.trials,
        "seed": result.seed,
        "sigma_L_m": result.sigma_length,
        "species": [sp.name for sp in design.species],
    }
    _write_json(args.out, payload)
    _write_manifest(args.out, "montecarlo", {
        "design_file": str(args.design_file), "sigma_L_m": args.sigma_l,
        "trials": args.trials,
    }, args.seed, started)
    for name, mean, std in zip(payload["species"], result.mean, result.std):
        print(f"  {name}: p_kk = {mean:.6f} +/- {std:.6f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = load_json(args.config_file)
    result = run_experiment(config)
    _write_json(args.out, result)
    _write_manifest(args.out, "simulate", {"config_file": str(args.config_file)},
                    result["seed"], started)
    print("counts:", result["counts"])
    for name, a, s in zip(result["species"], result["reconstructed_abundances"],
                          result["uncertainties"]):
        print(f"  {name}: abundance = {a:.6f} +/- {s:.6f}")
    return EXIT_OK


def cmd_ams_compare(args) -> int:
    started = time.perf_counter()
    species = load_species_file(args.species_file)
    charge = args.charge_e * ELEMENTARY_CHARGE
    if args.charge_e != 0 and charge == 0:
        raise ValueError(f"--charge-e {args.charge_e} times e = {ELEMENTARY_CHARGE} C "
                         f"underflows to 0 C")
    radii = [ams_radius(sp.mass, args.velocity, charge, args.b_field) for sp in species]
    rows = []
    print(f"magnetic deflection at v = {args.velocity} m/s, B = {args.b_field} T, "
          f"q = {args.charge_e} e")
    for sp, r in zip(species, radii):
        sep = ams_separation(species[0].mass, charge, sp.mass, charge,
                             args.velocity, args.b_field)
        rows.append({"name": sp.name, "mass_kg": sp.mass, "radius_m": r,
                     "delta_R_vs_first_m": sep})
        print(f"  {sp.name}: R = {r:.6e} m, dR vs {species[0].name} = {sep:.6e} m")
    if args.out:
        _write_json(args.out, {"velocity_mps": args.velocity, "b_field_T": args.b_field,
                               "charge_e": args.charge_e, "species": rows})
        _write_manifest(args.out, "ams-compare", {
            "species_file": str(args.species_file), "velocity_mps": args.velocity,
            "b_field_T": args.b_field, "charge_e": args.charge_e,
        }, None, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="interfsort",
        description="Design and simulate interferometric mass sorters. "
                    "Units: masses kg (or mass_u in species files), velocities m/s, "
                    "lengths m, phases rad.",
    )
    parser.add_argument("--version", action="version", version=f"interfsort {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("design", help="solve sorting path lengths for a species list")
    p.add_argument("species_file", help="JSON array of {name, mass_kg|mass_u}")
    p.add_argument("--velocity", type=float, required=True, help="common velocity in m/s")
    p.add_argument("--max-winding", type=int, default=DEFAULT_MAX_WINDING,
                   help="bound W on the path offsets x_s = dL_s/lambda_0 and the windings; "
                        "it also bounds the mass-ratio denominators, to min(N*W, 22360)")
    p.add_argument("--mmi-width", type=float, default=None,
                   help="coupler width in m; adds coupler length to the design")
    p.add_argument("--out", required=True, help="output design JSON path")
    p.set_defaults(handler=cmd_design)

    p = sub.add_parser("verify", help="check the phase residuals of a design")
    p.add_argument("design_file", help="design JSON written by the design command")
    p.add_argument("--phase-tol", type=float, default=PHASE_TOL,
                   help="max allowed residual in rad, below pi")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sweep", help="exit-probability grid over two phase errors")
    p.add_argument("--ratios", default="1,1,1",
                   help="comma-separated mass ratios m_k/m_0 of the 3 species "
                        "(dimensionless)")
    p.add_argument("--delta1-range", required=True,
                   help="min,max of the first phase error in rad "
                        "(use --delta1-range=-a,b for negative bounds)")
    p.add_argument("--delta2-range", required=True,
                   help="min,max of the second phase error in rad")
    p.add_argument("--steps", type=int, default=101, help="grid points per axis")
    p.add_argument("--full", action="store_true", help="write all p_ks columns")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("montecarlo", help="leakage statistics under Gaussian path noise")
    p.add_argument("design_file", help="design JSON")
    p.add_argument("--sigma-l", type=float, required=True,
                   help="path-length noise std in m")
    p.add_argument("--trials", type=int, default=1000, help="number of noise samples")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=cmd_montecarlo)

    p = sub.add_parser("simulate", help="end-to-end acquisition and spectrum unfolding")
    p.add_argument("config_file",
                   help="JSON config: species, velocity_mps, abundances, "
                        "total_particles, seed, errors")
    p.add_argument("--out", required=True, help="output results JSON path")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("ams-compare", help="magnetic-deflection reference table")
    p.add_argument("species_file", help="JSON array of {name, mass_kg|mass_u}")
    p.add_argument("--velocity", type=float, required=True, help="velocity in m/s")
    p.add_argument("--b-field", type=float, default=1.0, help="magnetic field in T")
    p.add_argument("--charge-e", type=float, default=1.0,
                   help="charge per species in units of e")
    p.add_argument("--out", default=None, help="optional output JSON path")
    p.set_defaults(handler=cmd_ams_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
