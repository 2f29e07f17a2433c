"""Command-line surface: generate schemes, verify identities, simulate, count.

Exit codes: 0 success, 1 verification or consistency failure, 2 usage error,
3 fiducial search failure, 4 I/O error (a file that cannot be written or read).

`count` takes 2 <= d <= COUNT_MAX_D (4096); its pair counts cost O(d^2).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, clifford, mub, protocol, sic
from .jsonio import FIDUCIAL_CACHE, cache_dir, dump_json, povm_to_dict
from .report import Check, VerificationReport

SIC_SEARCH_MAX_D = 12
MUB_MAX_D = 64
CLIFFORD_GEN_DS = (2, 3, 5)
COUNT_MAX_D = 4096


class UsageError(ValueError):
    pass


def _fiducial(d: int, args) -> sic.Fiducial:
    if not 2 <= d <= SIC_SEARCH_MAX_D:
        raise UsageError(f"sic supports 2 <= d <= {SIC_SEARCH_MAX_D}, got {d}")
    try:
        cfg = sic.FiducialSearchConfig(seed=args.seed, restarts=args.restarts,
                                       tol=args.search_tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cache = None if args.no_cache else os.path.join(cache_dir(), FIDUCIAL_CACHE)
    return sic.get_fiducial(d, cfg, cache_path=cache)


def _group(d: int) -> clifford.CliffordGroup:
    if d not in CLIFFORD_GEN_DS:
        raise UsageError(f"clifford supports d in {CLIFFORD_GEN_DS}, got {d}")
    return clifford.enumerate_clifford(d)


def _mub_family(d: int) -> mub.MubFamily:
    if not 2 <= d <= MUB_MAX_D or not clifford.is_prime(d):
        raise UsageError(f"mub requires prime d <= {MUB_MAX_D}: d must be prime")
    return mub.mub_prime(d)


def _metadata(args) -> dict:
    return {"seed": getattr(args, "seed", None), "version": __version__,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _print_report(report: VerificationReport) -> None:
    print(f"scheme={report.scheme} d={report.d}")
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"  {c.name:<{width}}  measured={c.measured:.3e}  tol={c.tolerance:.1e}  {status}")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")


def cmd_gen(args) -> int:
    d = args.d
    if args.scheme == "sic":
        f = _fiducial(d, args)
        povm = sic.weyl_orbit(f)
        doc = povm_to_dict(povm, "sic", d)
        doc["fiducial_residual"] = f.residual
    elif args.scheme == "mub":
        povm = mub.mub_povm(_mub_family(d))
        doc = povm_to_dict(povm, "mub", d)
    else:
        povm = clifford.clifford_povm(_group(d))
        doc = povm_to_dict(povm, "clifford", d)
    dump_json(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    d = args.d
    if args.scheme == "sic":
        f = _fiducial(d, args)
        report = sic.verify_sic_identity(d, f, tol=args.tol)
    elif args.scheme == "mub":
        _mub_family(d)
        report = mub.verify_mub_identity(d)
        if args.tol is not None:
            # override the metric tolerances; exact integer checks keep tol 0
            report.checks = [Check.from_deviation(c.name, c.measured, args.tol)
                             if c.tolerance > 0 else c for c in report.checks]
    else:
        if d in (2, 3):
            report = clifford.verify_clifford_identity(d, _group(d))
        elif d == 5:
            report, _ = clifford.verify_clifford_group(d, _group(d))
        else:
            raise UsageError(f"clifford verification supports d in (2, 3, 5), got {d}")
    report.metadata.update(_metadata(args))
    if args.json or args.out:
        dump_json(report.to_dict(), args.out)
    else:
        _print_report(report)
    return 0 if report.overall else 1


def cmd_simulate(args) -> int:
    d = args.d
    if not 0 <= args.fidelity <= 1:
        raise UsageError(f"fidelity must lie in [0, 1], got {args.fidelity}")
    if not 1 <= args.shots <= protocol.MAX_SHOTS:
        raise UsageError(f"shots must lie in [1, {protocol.MAX_SHOTS}], got {args.shots}")
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    if args.scheme == "sic":
        povm = sic.weyl_orbit(_fiducial(d, args))
        state = protocol.isotropic_state(d, args.fidelity)
    elif args.scheme == "mub":
        povm = mub.mub_povm(_mub_family(d))
        state = protocol.isotropic_state(d, args.fidelity)
    else:
        if d not in (2, 3):
            raise UsageError(f"clifford simulation supports d in (2, 3), got {d}")
        povm = clifford.clifford_povm(_group(d))
        state = protocol.double_isotropic_state(d, args.fidelity)
    transcript = protocol.run_protocol(povm, state, args.shots, args.seed)
    doc = {"schema": 1, "scheme": args.scheme, "d": d, "fidelity": args.fidelity}
    doc.update(transcript.to_dict())
    if args.json or args.out:
        dump_json(doc, args.out)
    else:
        print(f"scheme={args.scheme} d={d} fidelity={args.fidelity} shots={args.shots} seed={args.seed}")
        print(f"  estimate = {transcript.estimate:.6f}")
        print(f"  analytic = {transcript.analytic:.6f}")
        print(f"  stderr   = {transcript.stderr:.6f}")
        print(f"  3-sigma consistent: {transcript.consistent_3sigma}")
    return 0 if transcript.consistent_3sigma else 1


def cmd_count(args) -> int:
    d = args.d
    if not 2 <= d <= COUNT_MAX_D:
        raise UsageError(f"count supports 2 <= d <= {COUNT_MAX_D}, got {d}")
    nu = clifford.pair_product_counts(d)
    doc = {
        "schema": 1,
        "d": d,
        "nu_values": nu.tolist(),
        "formula_value": clifford.cardinality_from_pair_counts(nu),
        "prime_formula_value": d ** 3 * (d * d - 1) if clifford.is_prime(d) else None,
        "enumerated": None,
    }
    if args.enumerate or d in (2, 3):
        if d in CLIFFORD_GEN_DS:
            doc["enumerated"] = len(_group(d))
    if args.json or args.out:
        dump_json(doc, args.out)
    else:
        for key, val in doc.items():
            if key != "schema":
                print(f"  {key} = {val}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entverify",
        description="Discrete one-way LOCC tests for maximally entangled states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme_positional=True):
        if scheme_positional:
            p.add_argument("scheme", choices=["sic", "mub", "clifford"])
        p.add_argument("--d", type=int, required=True, help="local dimension")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write JSON to this file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=50, help="fiducial search restarts")
        p.add_argument("--search-tol", type=float, default=1e-8,
                       help="fiducial search residual target")
        p.add_argument("--no-cache", action="store_true", help="skip the fiducial cache")

    p_gen = sub.add_parser("gen", help="generate a scheme POVM as JSON")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run the certification checks")
    common(p_verify)
    p_verify.add_argument("--tol", type=float, default=None, help="override check tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="protocol simulation (samples outcome counts)")
    p_sim.add_argument("--scheme", choices=["sic", "mub", "clifford"], required=True)
    common(p_sim, scheme_positional=False)
    p_sim.add_argument("--fidelity", type=float, required=True)
    p_sim.add_argument("--shots", type=int, default=100000)
    p_sim.set_defaults(func=cmd_simulate)

    p_count = sub.add_parser("count", help="Clifford group cardinality data")
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--enumerate", action="store_true",
                         help="cross-check by enumeration where supported")
    p_count.add_argument("--json", action="store_true")
    p_count.add_argument("--out", help="write JSON to this file")
    p_count.set_defaults(func=cmd_count)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sic.FiducialSearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
