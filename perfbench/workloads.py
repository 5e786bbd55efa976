"""The three benchmark workloads: seeded inputs, one request per slot, checks.

Each workload turns a seed into a fixed list of request slots. The worker
replays that list in a closed loop; `run` is the timed request, `collect`
gathers what `check` needs without being timed, and `check` compares the
output with the references in `oracles` at the tolerances of the tests.
`check` returns an error message (None when the output is right) and a
dict of per-slot facts that feed the diagnostics.

Slots of different kinds are interleaved evenly rather than shuffled, so
any prefix of a pass has the workload's mix and a run cut at its deadline
measures the same mix as a whole pass.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from interfsort.design import (
    InfeasibleDesignError,
    NonCommensurableMassesError,
    Species,
    de_broglie_wavelength,
    mmi_length,
    path_error_budget,
    save_design,
    solve_n_path,
    verify_design,
)
from interfsort.leakage import (
    PathFluctuation,
    PhaseErrorVector,
    analytic_leakage_n3,
    design_leakage,
    phases_from_fluctuation,
    simulate_leakage,
)
from interfsort.spectrum import reconstruct_spectrum, run_experiment, simulate_counts

import oracles as ref

MMI_WIDTH = 1e-6                 # m
EDGE_5A = 2 * np.pi / 15         # criterion 5a error square half-width, rad
EDGE_5B = (2 * np.pi / 3) / 10   # criterion 5b error square half-width, rad
PAPER_RATIOS = (1.0, 7 / 6, 8 / 6)
CRITERION_6 = [(6, 7), (6, 7, 8), (3, 4, 5), (4, 5, 6, 7), (2, 3), (9, 10, 11)]
CRITERION_INFEASIBLE = [tuple(range(12, 17)), tuple(range(12, 19))]
PULL_LIMIT = 5.0                 # sigmas
# a multinomial sigma from any nonzero count is at least 1/total >= 1e-7,
# so anything below this is the sigma = 0 of an empty or full channel
ZERO_SIGMA = 1e-12


def species_u(masses_u) -> tuple[Species, ...]:
    return tuple(Species(f"m{a}", a * ref.ATOMIC_MASS_KG) for a in masses_u)


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def interleave(groups, rng) -> list:
    """Spread each group's members evenly over the combined order."""
    keyed = []
    for g, members in enumerate(groups):
        order = rng.permutation(len(members))
        for pos, idx in enumerate(order):
            keyed.append(((pos + 0.5) / len(members), g, members[idx]))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [item[2] for item in keyed]


def feasible_masses(rng, n: int, i: int) -> tuple[list[int], list[int]]:
    """The i-th feasible set of N integer masses, reference mass A_0 = N*c.

    With A_k = k*d (mod A_0) and gcd(d, A_0) = 1, path s sorts at
    x_s = s*c/d (mod A_0). c and d mod A_0 follow a fixed schedule in i, so
    the path offsets, and with them the solver's search length, are the same
    for every seed; the seed picks the masses. The oracle confirms each set.
    """
    c = 1 + (i // 2) % 6
    a0 = n * c
    units = [d for d in range(1, a0 + 1) if math.gcd(d, a0) == 1]
    d0 = units[(i // 12) % len(units)]
    while True:
        if i % 2 == 0:  # arithmetic progression
            d = d0 + a0 * int(rng.integers(0, 4))
            masses = [a0 + k * d for k in range(n)]
        else:
            masses = [a0] + [(k * d0) % a0 + a0 * int(rng.integers(0, 4)) for k in range(1, n)]
        if len(set(masses)) != n or min(masses) < 1:
            continue
        xs = ref.min_path_windings(masses)
        if None not in xs:
            return masses, xs


def infeasible_masses(rng, n: int, ap: bool) -> list[int]:
    """Integer masses with no sorting path: the reference mass is coprime to N.

    The k = 1 congruence then needs N | s, so all N-1 paths fail and the
    search cost depends on N alone, which keeps the tail steady over seeds.
    """
    while True:
        a0 = int(rng.integers(5, 61))
        if math.gcd(a0, n) != 1:
            continue
        if ap:
            d = int(rng.integers(1, 13))
            masses = [a0 + k * d for k in range(n)]
        else:
            pool = np.setdiff1d(np.arange(2, 201), [a0])
            masses = [a0] + [int(m) for m in rng.choice(pool, n - 1, replace=False)]
        if all(x is None for x in ref.min_path_windings(masses)):
            return masses


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).max())


class Workload:
    name = ""

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        raise NotImplementedError

    def run(self, slot: dict, tracer):
        raise NotImplementedError

    def collect(self, slot: dict, out):
        return out

    def check(self, slot: dict, out) -> tuple[str | None, dict]:
        raise NotImplementedError


# --- design-scan -------------------------------------------------------------

class DesignScan(Workload):
    """Solve, verify and bound one species set per request."""

    name = "design-scan"
    FEASIBLE = {2: 18, 3: 18, 4: 18, 5: 18, 6: 17, 7: 17}
    # 14 of 120 infeasible: p50 (rank 60) reads the feasible path, and the
    # tail (rank 110, ten beyond) lands inside the N = 4 block of the
    # infeasible sets, whose cost is fixed by N. Few large infeasible sets
    # keep a pass near one second, so each slot repeats often in a run.
    INFEASIBLE = {3: 2, 4: 4, 5: 5, 6: 2, 7: 1}

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        groups = []
        for feasible, quota in ((True, self.FEASIBLE), (False, self.INFEASIBLE)):
            fixed = CRITERION_6 if feasible else CRITERION_INFEASIBLE
            for n, count in quota.items():
                sets = [list(m) for m in fixed if len(m) == n]
                while len(sets) < count:
                    sets.append(feasible_masses(rng, n, len(sets))[0] if feasible
                                else infeasible_masses(rng, n, len(sets) % 2 == 0))
                groups.append([self._slot(m, log_uniform(rng, 1.0, 1000.0)) for m in sets])
        return interleave(groups, rng)

    @staticmethod
    def _slot(masses, velocity):
        xs = ref.min_path_windings(masses)
        feasible = None not in xs
        return {"n": len(masses), "masses_u": masses, "species": species_u(masses),
                "velocity": velocity, "feasible": feasible, "xs": xs,
                "matrices": 1 if feasible else 0}

    def run(self, slot, t):
        try:
            design = t.call("design.solve_n_path", solve_n_path, slot["species"], slot["velocity"])
        except (InfeasibleDesignError, NonCommensurableMassesError) as exc:
            return {"feasible": False, "report": getattr(exc, "report", {})}
        residuals = t.call("design.verify_design", verify_design, design)
        leak = t.call("leakage.design_leakage", design_leakage, design,
                      attrs={"n": design.n, "matrices": 1})
        lams = [t.call("design.de_broglie_wavelength", de_broglie_wavelength,
                       sp.mass, design.velocity) for sp in design.species]
        length = t.call("design.mmi_length", mmi_length, MMI_WIDTH, min(lams), design.n)
        budget = t.call("design.path_error_budget", path_error_budget, lams, design.n)
        return {"feasible": True, "design": design, "residuals": residuals,
                "leakage": leak, "mmi": length, "budget": budget}

    def check(self, slot, out):
        if out["feasible"] != slot["feasible"]:
            return (f"masses {slot['masses_u']}: solver feasible={out['feasible']}, "
                    f"congruences say {slot['feasible']}"), {}
        if not slot["feasible"]:
            return None, {}
        design = out["design"]
        masses = [sp.mass for sp in design.species]
        v = slot["velocity"]
        lam0 = ref.wavelength(masses[0], v)
        if not all(ref.close(design.delta_lengths[s], x * lam0)
                   for s, x in enumerate(slot["xs"], start=1)):
            return f"masses {slot['masses_u']}: path lengths are not the shortest", {}
        if [list(r) for r in design.windings] != ref.expected_windings(slot["masses_u"], slot["xs"]):
            return f"masses {slot['masses_u']}: wrong windings", {}
        own = ref.design_residuals(masses, design.delta_lengths, v)
        if np.abs(out["residuals"]).max() > ref.PHASE_TOL or np.abs(own).max() > ref.PHASE_TOL:
            return f"masses {slot['masses_u']}: phase residual above tolerance", {}
        dev = _max_dev(out["leakage"], ref.exit_probabilities(own))
        if (_max_dev(out["leakage"], np.eye(design.n)) > ref.DESIGN_LEAK_TOL
                or np.abs(out["leakage"].sum(axis=1) - 1).max() > ref.PROB_TOL):
            return f"masses {slot['masses_u']}: design leakage differs from identity", {}
        lam_min = min(ref.wavelength(m, v) for m in masses)
        if not (ref.close(out["mmi"], 4 * MMI_WIDTH**2 / (lam_min * design.n))
                and ref.close(out["budget"], lam_min / design.n)):
            return f"masses {slot['masses_u']}: coupler length or error budget wrong", {}
        return None, {"ref_dev": dev}


# --- acquisition -------------------------------------------------------------

def _abundances(rng, n: int, trace: bool) -> np.ndarray:
    a = rng.dirichlet(np.ones(n))
    if trace:
        picks = rng.choice(n, size=int(rng.integers(1, max(1, n // 4) + 1)), replace=False)
        a[picks] = 10 ** rng.uniform(-7, -3, size=picks.size)
    return a / a.sum()


class Acquisition(Workload):
    """Phase errors -> exit probabilities -> counts -> unfolded spectrum."""

    name = "acquisition"
    # Cost grows with N, so the N blocks are ranked in order. p50 (ranks 50
    # and 51 of 100) falls in the middle of the N = 5 block and the tail
    # (p90, ten beyond) in the middle of the N = 16 block. The four N = 32
    # slots take most of a pass's time and so carry the throughput.
    QUOTA = {2: 13, 3: 13, 4: 13, 5: 16, 6: 10, 7: 10, 8: 10, 16: 11, 32: 4}
    TRACE_SLOTS = 3     # of every 5 slots of one N carry trace species
    # explicit random dphi, sigma_L path-noise draws, and an explicit zero
    # dphi: the ideal sorter, where trace species leave channels empty
    ERRORS = ("delta", "sigma", "ideal")
    COND_LIMIT = 1e6  # far inside the program's 1e8, so no request is refused

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        groups = [[self._slot(rng, n, self.ERRORS[i % 3], i % 5 < self.TRACE_SLOTS)
                   for i in range(count)]
                  for n, count in self.QUOTA.items()]
        return interleave(groups, rng)

    def _slot(self, rng, n, errors, trace):
        while True:
            a0 = int(rng.integers(20, 201))
            offsets = rng.choice(np.arange(1, max(2 * n, a0 // 2)), n - 1, replace=False)
            masses = [a0] + sorted(a0 + int(o) for o in offsets)
            species = species_u(masses)
            ratios = tuple(sp.mass / species[0].mass for sp in species)
            velocity = log_uniform(rng, 1.0, 1000.0)
            slot = {"n": n, "species": species, "ratios": ratios, "velocity": velocity,
                    "matrices": 1}
            if errors == "ideal":
                base = slot["base"] = (0.0,) * (n - 1)
            elif errors == "delta":
                base = slot["base"] = tuple(rng.uniform(-1, 1, n - 1) * rng.uniform(0.05, 0.3))
            else:
                lam0 = ref.wavelength(species[0].mass, velocity)
                sigma = rng.uniform(0.03, 0.2) * lam0 / (2 * np.pi)
                lengths = rng.normal(0.0, sigma, n)
                slot["fluct"] = PathFluctuation(tuple(lengths))
                base = ref.base_errors_from_lengths(lengths, species[0].mass, velocity)
            slot["phase"] = ref.phase_matrix(ratios, base)
            slot["ref"] = ref.exit_probabilities(slot["phase"])
            if np.linalg.cond(slot["ref"].T) > self.COND_LIMIT:
                continue
            slot["abundances"] = _abundances(rng, n, trace)
            slot["total"] = int(log_uniform(rng, 1e3, 1e7))
            slot["seed"] = int(rng.integers(2**31))
            return slot

    def run(self, slot, t):
        n = slot["n"]
        if "base" in slot:
            errs = t.call("leakage.PhaseErrorVector", PhaseErrorVector,
                          n, slot["base"], slot["ratios"])
        else:
            errs = t.call("leakage.phases_from_fluctuation", phases_from_fluctuation,
                          slot["fluct"], slot["species"], slot["velocity"])
        leak = t.call("leakage.simulate_leakage", simulate_leakage, errs,
                      attrs={"n": n, "matrices": 1})
        record = t.call("spectrum.simulate_counts", simulate_counts,
                        slot["abundances"], leak, slot["total"], slot["seed"])
        recovered, sigma = t.call("spectrum.reconstruct_spectrum", reconstruct_spectrum,
                                  record, leak)
        return {"leakage": leak, "record": record, "abundances": recovered, "sigma": sigma}

    def check(self, slot, out):
        n, leak = slot["n"], out["leakage"]
        dev = _max_dev(leak, slot["ref"])
        if n == 3:
            base = slot["phase"][0, 1:]
            _, probs = analytic_leakage_n3(base[0], base[1], slot["ratios"][1], slot["ratios"][2])
            dev = max(dev, _max_dev(leak, probs))
        if dev > ref.PROB_TOL or np.abs(leak.sum(axis=1) - 1).max() > ref.PROB_TOL:
            return f"N={n}: exit probabilities differ from the closed form by {dev:.2e}", {}
        counts = np.array(out["record"].counts)
        if counts.size != n or counts.min() < 0 or counts.sum() != slot["total"]:
            return f"N={n}: counts do not sum to {slot['total']}", {}
        a, sigma = out["abundances"], out["sigma"]
        if a.min() < -ref.SIMPLEX_TOL or abs(a.sum() - 1) > ref.SIMPLEX_TOL:
            return f"N={n}: abundances leave the simplex", {}
        if "first" not in slot:
            again = simulate_counts(slot["abundances"], leak, slot["total"], slot["seed"])
            slot["first"] = (again.counts, *reconstruct_spectrum(again, leak))
        counts0, a0, sigma0 = slot["first"]
        if out["record"].counts != counts0 or not (np.array_equal(a, a0) and np.array_equal(sigma, sigma0)):
            return f"N={n}: same seed gave different counts or spectrum", {}
        truth = slot["abundances"]
        plain = np.linalg.solve(leak.T, counts / slot["total"])
        facts = {
            "ref_dev": dev,
            "nnls": bool(plain.min() < -1e-12),
            "zero_count": bool(counts.min() == 0),
            "covered": bool(np.all(np.abs(a - truth) <= PULL_LIMIT * sigma)),
            "zero_sigma": bool(np.any(sigma < ZERO_SIGMA)),
        }
        return None, facts


# --- cli-cold ------------------------------------------------------------------

class CliCold(Workload):
    """A fresh `python -m interfsort.cli` process per request, six commands in turn."""

    name = "cli-cold"
    COMMANDS = ("design", "verify", "sweep", "montecarlo", "simulate", "ams-compare")
    ROUNDS = 4          # 24 requests; the tail is then p58, ten beyond
    SWEEP_STEPS = 21
    MC_TRIALS = 100

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        slots = []
        for r in range(self.ROUNDS):
            masses, xs = feasible_masses(rng, 3, r)
            velocity = log_uniform(rng, 1.0, 1000.0)
            species_file = workdir / f"species{r}.json"
            species_file.write_text(json.dumps(
                [{"name": f"m{m}", "mass_u": m} for m in masses]), encoding="utf-8")
            species = species_u(masses)
            design = solve_n_path(species, velocity)
            design_file = workdir / f"design{r}.json"
            save_design(design, design_file)
            lam0 = ref.wavelength(species[0].mass, velocity)
            edge = EDGE_5A if r % 2 == 0 else EDGE_5B
            nearby = (1.0, *(x * (1 + rng.uniform(-0.05, 0.05)) for x in PAPER_RATIOS[1:]))
            ratios = PAPER_RATIOS if r == 0 else nearby
            config = {
                "species": [{"name": f"m{m}", "mass_u": m} for m in masses],
                "velocity_mps": velocity,
                "abundances": _abundances(rng, 3, trace=r % 2 == 1).tolist(),
                "total_particles": int(log_uniform(rng, 1e3, 1e6)),
                "seed": int(rng.integers(2**31)),
                "errors": ({"delta_phi_rad": list(rng.uniform(-0.3, 0.3, 2))} if r % 2 == 0
                           else {"sigma_L_m": rng.uniform(0.03, 0.2) * lam0 / (2 * np.pi)}),
            }
            config_file = workdir / f"config{r}.json"
            config_file.write_text(json.dumps(config), encoding="utf-8")
            common = {"n": 3, "masses_u": masses, "xs": xs, "velocity": velocity,
                      "species": species, "design": design, "config": config}
            mc = {"sigma": rng.uniform(0.02, 0.3) * lam0 / (2 * np.pi),
                  "seed": int(rng.integers(2**31))}
            ams = {"velocity": log_uniform(rng, 1e3, 1e5), "b_field": rng.uniform(0.5, 2.0)}
            argvs = {
                "design": [str(species_file), "--velocity", repr(velocity),
                           "--mmi-width", repr(MMI_WIDTH)],
                "verify": [str(design_file)],
                "sweep": ["--ratios", ",".join(repr(x) for x in ratios),
                          f"--delta1-range={-edge!r},{edge!r}",
                          f"--delta2-range={-edge!r},{edge!r}",
                          "--steps", str(self.SWEEP_STEPS)],
                "montecarlo": [str(design_file), "--sigma-l", repr(mc["sigma"]),
                               "--trials", str(self.MC_TRIALS), "--seed", str(mc["seed"])],
                "simulate": [str(config_file)],
                "ams-compare": [str(species_file), "--velocity", repr(ams["velocity"]),
                                "--b-field", repr(ams["b_field"])],
            }
            for cmd in self.COMMANDS:
                out = None if cmd == "verify" else workdir / f"{cmd}{r}.{'csv' if cmd == 'sweep' else 'json'}"
                argv = [cmd, *argvs[cmd]] + (["--out", str(out)] if out else [])
                matrices = {"sweep": self.SWEEP_STEPS**2, "montecarlo": self.MC_TRIALS,
                            "simulate": 1}.get(cmd, 0)
                slots.append({**common, "command": cmd, "argv": argv, "out": out,
                              "edge": edge, "ratios": ratios, "mc": mc, "ams": ams,
                              "matrices": matrices})
        return slots

    def run(self, slot, t):
        return t.call(f"cli.{slot['command']}", subprocess.run,
                      [sys.executable, "-m", "interfsort.cli", *slot["argv"]],
                      capture_output=True, text=True, timeout=120)

    def collect(self, slot, proc):
        text = slot["out"].read_text(encoding="utf-8") if slot["out"] and slot["out"].exists() else None
        return {"rc": proc.returncode, "stderr": proc.stderr.strip()[-300:], "text": text}

    def check(self, slot, out):
        cmd = slot["command"]
        if out["rc"] != 0:
            return f"{cmd} exited {out['rc']}: {out['stderr']}", {}
        if cmd == "verify":
            return None, {}
        if out["text"] is None:
            return f"{cmd} wrote no output file", {}
        return getattr(self, "_check_" + cmd.replace("-", "_"))(slot, out["text"])

    def _check_design(self, slot, text):
        data = json.loads(text)
        masses = [sp.mass for sp in slot["species"]]
        v = slot["velocity"]
        lam0 = ref.wavelength(masses[0], v)
        lam_min = min(ref.wavelength(m, v) for m in masses)
        ok = (all(ref.close(dl, x * lam0) for dl, x in zip(data["delta_L_m"][1:], slot["xs"]))
              and data["windings"] == ref.expected_windings(slot["masses_u"], slot["xs"])
              and ref.close(data["coupler"]["length_m"], 4 * MMI_WIDTH**2 / (lam_min * 3)))
        return (None if ok else f"design of {slot['masses_u']} is wrong"), {}

    def _check_sweep(self, slot, text):
        rows = list(csv.reader(text.splitlines()))[1:]
        values = np.array(rows, dtype=float)
        if values.shape != (self.SWEEP_STEPS**2, 3):
            return f"sweep CSV has shape {values.shape}", {}
        _, probs = analytic_leakage_n3(values[:, 0], values[:, 1], *slot["ratios"][1:])
        dev = _max_dev(values[:, 2], probs[0, 0])
        if dev > ref.PROB_TOL:
            return f"sweep p00 off by {dev:.2e}", {"ref_dev": dev}
        if (slot["ratios"] == PAPER_RATIOS and slot["edge"] == EDGE_5A
                and abs(values[:, 2].min() - ref.MIN_P00_5A) > ref.MIN_P00_5A_TOL):
            return f"min p00 on the 5a square is {values[:, 2].min():.4f}", {"ref_dev": dev}
        return None, {"ref_dev": dev}

    def _check_montecarlo(self, slot, text):
        data = json.loads(text)
        design = slot["design"]
        mean, std = ref.monte_carlo_diagonals([sp.mass for sp in design.species], design.velocity,
                                              slot["mc"]["sigma"], self.MC_TRIALS, slot["mc"]["seed"])
        dev = max(_max_dev(data["diagonal_mean"], mean), _max_dev(data["diagonal_std"], std))
        return (None if dev <= ref.PROB_TOL else f"montecarlo off by {dev:.2e}"), {"ref_dev": dev}

    def _check_simulate(self, slot, text):
        data = json.loads(text)
        config = slot["config"]
        ratios = [sp.mass / slot["species"][0].mass for sp in slot["species"]]
        errors = config["errors"]
        if "delta_phi_rad" in errors:
            base = errors["delta_phi_rad"]
        else:  # the draw run_experiment makes from the config seed
            rng = np.random.default_rng(np.random.SeedSequence(entropy=config["seed"], spawn_key=(1,)))
            lengths = rng.normal(0.0, errors["sigma_L_m"], size=3)
            base = ref.base_errors_from_lengths(lengths, slot["species"][0].mass, slot["velocity"])
        dev = _max_dev(data["leakage_matrix"], ref.exit_probabilities(ref.phase_matrix(ratios, base)))
        a = np.array(data["reconstructed_abundances"])
        in_process = run_experiment(config)
        ok = (dev <= ref.PROB_TOL and sum(data["counts"]) == config["total_particles"]
              and a.min() >= -ref.SIMPLEX_TOL and abs(a.sum() - 1) <= ref.SIMPLEX_TOL
              and data["counts"] == in_process["counts"]
              and data["reconstructed_abundances"] == in_process["reconstructed_abundances"])
        return (None if ok else f"simulate output wrong (dev {dev:.2e})"), {"ref_dev": dev}

    def _check_ams_compare(self, slot, text):
        data = json.loads(text)
        q = 1.602176634e-19
        v, b = slot["ams"]["velocity"], slot["ams"]["b_field"]
        ok = all(ref.close(row["radius_m"], sp.mass * v / (q * b))
                 for row, sp in zip(data["species"], slot["species"]))
        return (None if ok else "ams-compare radii wrong"), {}


WORKLOADS = {w.name: w for w in (DesignScan, Acquisition, CliCold)}
