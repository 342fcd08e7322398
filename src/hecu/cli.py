"""Experiment driver: subcommands, CSV/SVG artifacts, and run manifests.

Every run resolves its configuration (defaults < config file < flags),
writes deterministic artifacts into --out, and drops a run manifest with
the resolved settings and a checksum per output file.  CSV fields carry 17
significant digits; reruns with identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .model import (DomainError, ModelParams, PhysicalParams, load_config, nu_from_physical,
                    params_for_nu_I0)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _number(token: str) -> float:
    try:
        x = float(token)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise DomainError(f"not a finite number: {token!r}")
    return x


def _parse_range(text: str) -> list[float]:
    """`a:b:step` (half-open upper end) or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"range must be a:b:step, got {text!r}")
        a, b, step = (_number(p) for p in parts)
        if step <= 0 or b <= a:
            raise DomainError(f"bad range {text!r}")
        out = []
        x = a
        while x < b - 1e-12:
            out.append(round(x, 12))
            x += step
        return out
    return [_number(text)]


def _parse_list(text: str) -> list[float]:
    return [_number(tok) for tok in text.replace(",", " ").split()]


class _Run:
    """Collects artifacts in memory; nothing touches disk until success.

    Made before the computation: its clock times the whole run."""

    def __init__(self, out_dir: Path, command: str):
        self.out_dir = out_dir
        self.command = command
        self.files: dict[str, str] = {}
        self.counters: dict | None = None   # run diagnostics, not checksummed
        self.t0 = time.time()

    def add_csv(self, name: str, header: list[str], rows: list[tuple]) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        self.files[name] = "\n".join(lines) + "\n"

    def add_text(self, name: str, text: str) -> None:
        self.files[name] = text

    def add_svg_polyline(self, name: str, xs, ys, title: str) -> None:
        width, height = 800, 400
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        finite = np.isfinite(xs) & np.isfinite(ys)
        xs, ys = xs[finite], ys[finite]
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        sx = (width - 60) / (x1 - x0 if x1 > x0 else 1.0)
        sy = (height - 60) / (y1 - y0 if y1 > y0 else 1.0)
        pts = " ".join(
            f"{30 + (x - x0) * sx:.2f},{height - 30 - (y - y0) * sy:.2f}"
            for x, y in zip(xs, ys))
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>\n'
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="1"/>\n</svg>\n')
        self.files[name] = svg

    def flush(self, resolved: dict) -> None:
        """Write the artifacts and the manifest with the resolved settings."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        checksums = {}
        for name, text in self.files.items():
            data = text.encode("utf-8")
            (self.out_dir / name).write_bytes(data)
            checksums[name] = hashlib.sha256(data).hexdigest()
        manifest = {
            "tool_version": __version__,
            "command": self.command,
            "resolved": resolved,
            "wall_clock_s": round(time.time() - self.t0, 3),
            "outputs": checksums,
        }
        if self.counters is not None:
            manifest["counters"] = self.counters
        (self.out_dir / "run_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _surface(args) -> PhysicalParams:
    """The surface of --config, else the default one; loaded once per run,
    before any work."""
    return load_config(args.config) if args.config else PhysicalParams()


def _surface_record(physical: PhysicalParams) -> dict:
    """The surface a run used, for its manifest: the config file may change later."""
    return {**asdict(physical), "nu": nu_from_physical(physical.a, physical.alpha)}


def _operating_point(args) -> ModelParams:
    """nu I0 from --nuI0 at epsilon 1 (on --config when given), else the
    default horseshoe operating point, which no config file changes."""
    if args.nuI0 is not None:
        return params_for_nu_I0(_parse_range(args.nuI0)[0], 1.0, _surface(args))
    if args.config:
        raise DomainError("--config needs --nuI0: the default operating point ignores it")
    from .horseshoe import select_operating_point
    return select_operating_point()


def _cmd_melnikov(args) -> int:
    from .separatrix import melnikov_coeff_closed, melnikov_coeff_quadrature
    run = _Run(Path(args.out), "melnikov")
    nu_values = _parse_range(args.nuI0)
    physical = _surface(args)
    series = physical.corrugation
    rows = []
    for nu_I0 in nu_values:
        for k in range(1, args.kmax + 1):
            closed = melnikov_coeff_closed(k, nu_I0, series)
            quad = melnikov_coeff_quadrature(k, nu_I0, series)
            rel = abs(quad - closed) / abs(closed) if closed != 0 else 0.0
            rows.append((k, nu_I0, closed.real, closed.imag,
                         quad.real, quad.imag, rel))
    run.add_csv("melnikov.csv",
                ["k", "nuI0", "closed_re", "closed_im", "quad_re", "quad_im",
                 "rel_err"], rows)
    run.flush({
        "nuI0": nu_values, "kmax": args.kmax, "config": args.config,
        "surface": _surface_record(physical)})
    print(f"wrote {run.out_dir / 'melnikov.csv'} ({len(rows)} rows)")
    return 0


def _cmd_splitting(args) -> int:
    from .integrate import IntegrationCounters
    from .manifolds import (measure_splitting, stable_sheet_from_unstable,
                            unstable_sheet)
    run = _Run(Path(args.out), "splitting")
    nu_values = _parse_range(args.nuI0)
    eps_values = _parse_list(args.epsilon)
    physical = _surface(args)
    rows = []
    counters = IntegrationCounters()
    for nu_I0 in nu_values:
        for eps in eps_values:
            params = params_for_nu_I0(nu_I0, eps, physical)
            sheet = unstable_sheet(params, [args.u], tol=args.tol,
                                   theta_modes=args.modes)
            counters.add(sheet.counters)
            stable = stable_sheet_from_unstable(sheet)
            for k in range(1, args.kmax + 1):
                s = measure_splitting(sheet, stable, args.u, k,
                                      require_signal=False)
                rows.append((s.nu_I0, s.epsilon, s.u, s.k, s.amp_J, s.phase_J,
                             s.amp_P, s.phase_P, s.noise_floor))
    run.add_csv("splitting.csv",
                ["nuI0", "epsilon", "u", "k", "ampJ", "phaseJ", "ampP",
                 "phaseP", "noise_floor"], rows)
    run.counters = asdict(counters)
    run.flush({
        "nuI0": nu_values, "epsilon": eps_values, "u": args.u,
        "kmax": args.kmax, "modes": args.modes, "tol": args.tol,
        "config": args.config, "surface": _surface_record(physical)})
    print(f"wrote {run.out_dir / 'splitting.csv'} ({len(rows)} rows)")
    return 0


def _cmd_sweep(args) -> int:
    from .integrate import IntegrationCounters
    from .manifolds import fit_scaling, splitting_sweep
    run = _Run(Path(args.out), "sweep")
    nu_values = _parse_range(args.nuI0)
    eps_values = _parse_list(args.epsilon)
    if len(eps_values) != 1:
        raise DomainError("sweep takes a single epsilon")
    counters = IntegrationCounters()
    samples = splitting_sweep(nu_values, eps_values[0], u=args.u,
                              tol=args.tol, counters=counters)
    fit = fit_scaling(samples, basis="nu_plus_one")
    lit = fit_scaling(samples, basis="nu")
    rows = [(s.nu_I0, s.amp_J, fit.rho, fit.sigma) for s in samples]
    run.add_csv("sweep.csv", ["nuI0", "amp", "rho_fit", "sigma_fit"], rows)
    run.counters = asdict(counters)
    run.flush({
        "nuI0": nu_values, "epsilon": eps_values[0], "u": args.u, "tol": args.tol,
        "fit": {"basis": "nu_plus_one", "rho": fit.rho, "sigma": fit.sigma},
        "fit_literal_nu_basis": {"rho": lit.rho, "sigma": lit.sigma}})
    print(f"rho = {fit.rho:.5f}, sigma = {fit.sigma:.5f} (prefactor basis nuI0+1)")
    print(f"literal nuI0 basis: rho = {lit.rho:.5f}, sigma = {lit.sigma:.5f}")
    print(f"wrote {run.out_dir / 'sweep.csv'}")
    return 0


def _cmd_inner(args) -> int:
    from .inner import extract_fk, solve_inner, theta_v_constant
    run = _Run(Path(args.out), "inner")
    eps_values = _parse_list(args.epsilon)
    physical = _surface(args)
    rows = []
    picard = {}
    tables = {}
    for eps in eps_values:
        params = params_for_nu_I0(6.0, eps, physical)
        sol = solve_inner(params, depth=12.0, modes=args.modes, tol=args.tol)
        diff = extract_fk(params, ks=tuple(range(1, args.kmax + 1)),
                          modes=args.modes, tol=args.tol, solutions={12.0: sol})
        picard[f"{eps:g}"] = diff.diagnostics["picard"]
        tables[f"{eps:g}"] = (sol.diagnostics["filon_tables_built"]
                              + diff.diagnostics["filon_tables_built"])
        theta_v = theta_v_constant(sol)
        for k in range(1, args.kmax + 1):
            rows.append((eps, k, diff.f[k].real, diff.f[k].imag, diff.err[k],
                         theta_v, sol.residual))
    run.counters = {"picard": picard, "filon_tables_built": tables}
    run.add_csv("inner.csv",
                ["epsilon", "k", "f_re", "f_im", "err_est", "theta_V",
                 "residual"], rows)
    run.flush({
        "epsilon": eps_values, "kmax": args.kmax, "modes": args.modes,
        "tol": args.tol, "config": args.config, "surface": _surface_record(physical)})
    f1 = diff.f[1].real / eps_values[-1]
    print(f"f1/eps = {f1:.8f}; paper variants: pi r1/2 = "
          f"{math.pi * 0.06 / 2:.8f}, pi r1/4 = {math.pi * 0.06 / 4:.8f}, "
          f"Melnikov-implied pi r1/8 = {math.pi * 0.06 / 8:.8f}")
    print(f"wrote {run.out_dir / 'inner.csv'}")
    return 0


def _cmd_horseshoe(args) -> int:
    from .horseshoe import build_strips, setup_horseshoe, verify_cones
    run = _Run(Path(args.out), "horseshoe")
    params = _operating_point(args)
    lab = setup_horseshoe(params)
    family = build_strips(lab, (lab.base_count + 1, lab.base_count + 4))
    report = verify_cones(lab, family, samples_per_strip=args.samples)
    lines = [
        f"operating point: nu I0 = {params.nu_I0:g}, epsilon = {params.epsilon:g}",
        f"base excursion count: {lab.base_count}",
        f"rectangle size delta_q = {lab.delta_q:.3e}",
        f"strips: {sorted(family.strips)} (mu_h mu_v = {family.mu_h * family.mu_v:.3e})",
        f"hausdorff to W^u: {family.diagnostics['hausdorff']}",
        f"cone report: eta = {report.eta:.3f}, kappa = {report.kappa:.3e}, "
        f"pass rate = {report.pass_rate:.1%} of {report.n_samples}",
        f"expansion exponent vs strip depth: {report.expansion_exponent:.3f}",
        f"fd_agreement (worst relative disagreement of h and h/4 Jacobians): "
        f"{report.fd_agreement:.3g}",
        f"H2 inequality 0 < kappa < 1 - eta^2: "
        f"{0 < report.kappa < 1 - report.eta * report.eta}",
    ]
    rows = [(n, st.tau_lo.mean(), st.tau_hi.mean(), st.lipschitz(),
             report.per_strip_expansion.get(n, math.nan))
            for n, st in sorted(family.strips.items())]
    run.add_text("horseshoe_report.txt", "\n".join(lines) + "\n")
    run.add_csv("cone_samples.csv",
                ["strip", "tau_lo", "tau_hi", "lipschitz", "median_expansion"],
                rows)
    run.counters = {
        "setup": lab.diagnostics["counters"],
        "trace_residual": lab.diagnostics["trace_residual"],
        "n_crossings": lab.diagnostics["n_crossings"],
        "strips": family.diagnostics["counters"],
        "edge_error": family.diagnostics["edge_error"],
        "cones": report.counters,
        "cone_v_lines": [{"v_rel": v, "samples": n, "pass_rate": rate}
                         for v, (n, rate) in sorted(report.v_lines.items())],
    }
    run.flush({
        "nuI0": params.nu_I0, "samples": args.samples, "config": args.config,
        "surface": _surface_record(params.physical)})
    print("\n".join(lines))
    return 0


def _cmd_oscillate(args) -> int:
    from .horseshoe import oscillatory_demo
    run = _Run(Path(args.out), "oscillate")
    params = _operating_point(args)
    demo = oscillatory_demo(params, k=args.k, z_ret=args.zret)
    orbit = demo["orbit"]
    rows = list(zip(orbit["t"], orbit["x"], orbit["z"], orbit["p_x"],
                    orbit["p_z"]))
    run.counters = {"itinerary": asdict(demo["itinerary"]), "lift": demo["lift"],
                    "arrival_gaps": demo["arrival_gaps"].tolist(),
                    "height_law": demo["height_law"].tolist()}
    run.add_csv("oscillate.csv", ["t", "x", "z", "px", "pz"], rows)
    run.add_svg_polyline("oscillate_z.svg", orbit["t"], orbit["z"],
                         f"z(t): {args.k} growing excursions")
    run.flush({
        "k": args.k, "zret": args.zret, "nuI0": params.nu_I0,
        "config": args.config, "surface": _surface_record(params.physical),
        "maxima": demo["maxima"],
        "strictly_increasing": demo["strictly_increasing"]})
    print(f"height maxima: {['%.4f' % m for m in demo['maxima']]}")
    print(f"z_max - (2/alpha) ln(advance): {['%.5f' % h for h in demo['height_law']]}")
    print(f"strictly increasing: {demo['strictly_increasing']}, "
          f"returns below z_ret: {demo['returns_below']}")
    print(f"wrote {run.out_dir / 'oscillate.csv'}")
    return 0 if demo["strictly_increasing"] and demo["returns_below"] else 1


def _cmd_verify_all(args) -> int:
    from .acceptance import ALL_CRITERIA, run_all
    run = _Run(Path(args.out), "verify-all")
    indices = None
    if args.only is not None:
        tokens = args.only.replace(",", " ").split()
        indices = [int(tok) for tok in tokens if tok.isdecimal() and int(tok) in ALL_CRITERIA]
        if not tokens or len(indices) < len(tokens):
            raise DomainError(f"--only takes criteria {min(ALL_CRITERIA)}-{max(ALL_CRITERIA)}, "
                              f"got {args.only!r}")
    results = run_all(indices=indices)
    n_fail = sum(1 for r in results if not r.passed)
    run.add_text("acceptance_report.txt",
                 "\n".join(r.line() for r in results) + "\n")
    run.add_csv("acceptance.csv",
                ["criterion", "passed", "seconds"],
                [(r.index, int(r.passed), r.seconds) for r in results])
    run.counters = {str(r.index): r.values["counters"] for r in results if "counters" in r.values}
    run.flush({"only": args.only})
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hecu",
        description="Numerical laboratory for He-Cu chaotic surface scattering")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags its handler reads
    shared = {
        "--config": dict(default=None, help="model config file"),
        "--out": dict(default="out", help="output directory"),
        "--tol": dict(type=float, default=1e-11),
        "--modes": dict(type=int, default=8),
    }

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("melnikov", help="Melnikov coefficients, closed form vs quadrature")
    add(p, "--config", "--out")
    p.add_argument("--nuI0", required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(fn=_cmd_melnikov)

    p = sub.add_parser("splitting", help="measure splitting harmonics")
    add(p, "--config", "--out", "--tol", "--modes")
    p.add_argument("--nuI0", required=True)
    p.add_argument("--epsilon", default="1e-4")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=1)
    p.set_defaults(fn=_cmd_splitting)

    p = sub.add_parser("sweep", help="scaling-law fit over nu I0")
    add(p, "--out", "--tol")
    p.add_argument("--nuI0", required=True)
    p.add_argument("--epsilon", default="1e-4")
    p.add_argument("--u", type=float, default=1.0)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("inner", help="inner-equation constants f_k")
    add(p, "--config", "--out", "--tol", "--modes")
    p.add_argument("--epsilon", default="1e-3")
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(fn=_cmd_inner)

    p = sub.add_parser("horseshoe", help="strip/cone verification report")
    add(p, "--config", "--out")
    p.add_argument("--nuI0", default=None, help="operating point; required with --config")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_horseshoe)

    p = sub.add_parser("oscillate", help="oscillatory orbit demonstration")
    add(p, "--config", "--out")
    p.add_argument("--nuI0", default=None, help="operating point; required with --config")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--zret", type=float, default=8.0)
    p.set_defaults(fn=_cmd_oscillate)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    add(p, "--out")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion indices")
    p.set_defaults(fn=_cmd_verify_all)

    return ap


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        # a count of zero or an empty list leaves nothing to compute: reject
        # it before any work
        for flag in ("kmax", "samples", "k", "modes"):
            if getattr(args, flag, 1) < 1:
                raise DomainError(f"--{flag} must be at least 1")
        # a nan or infinite float flag would reach the solves, which fail on it
        # late or never stop
        for flag in ("u", "tol", "zret"):
            if not math.isfinite(getattr(args, flag, 0.0)):
                raise DomainError(f"--{flag} must be a finite number")
        if getattr(args, "tol", 1.0) <= 0:
            raise DomainError("--tol must be positive")
        if "epsilon" in args and not _parse_list(args.epsilon):
            raise DomainError("--epsilon lists no value")
        return args.fn(args)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
