"""Command-line surface: generate schemes, verify identities, simulate, count.

Supported d, from the SCHEMES table and the same for gen, verify and simulate:
  sic       2 <= d <= 12
  mub       prime d <= 64
  clifford  d in (2, 3, 5); verify checks the group and the two-pair identity at each
`verify --tol` overrides every nonzero check tolerance, for every scheme.
A sic fiducial at d >= 4 is searched (seeded by --seed) and certified on
every run; nothing is stored between runs.

Exit codes: 0 success, 1 verification or consistency failure, 2 usage error,
3 fiducial search failure, 4 I/O error (a file that cannot be written or read).

`count` takes 2 <= d <= COUNT_MAX_D (4096); its pair counts cost O(d^2). It
enumerates the Clifford group's coset representatives as a cross-check
(enumerated is their number times d^2) always at d = 2, 3, at d = 5 only
with --enumerate, and never at any other d (enumerated is then null).
verify and simulate read the Clifford orbit from its coset representatives;
only gen forms the whole orbit.

A command imports only its own scheme's module: SCHEMES maps each name to
a factory of its record, and scheme_record(name) imports entverify.<name>
and makes the record on its first call (functools.cache keeps it); protocol
is imported by simulate alone. The search options are checked once, into the
FiducialSearchConfig that every build takes, and a failed search is caught,
through linalg, so mub and clifford never import sic.

`python -m entverify.cli` and the `entverify` script run console_main: it
calls main(), then gc.freeze(), then exits with main's code. Freezing moves
every object the process made into the permanent generation, which the
collection at interpreter shutdown does not walk; with numpy loaded that
collection takes about 14 ms of every process (2-CPU VM). main() leaves the
collector alone, because it is also called in process.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from . import __version__
from .jsonio import dump_json, dump_povm
from .linalg import FiducialSearchConfig, FiducialSearchError, is_prime
from .report import Check, VerificationReport

COUNT_MAX_D = 4096


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class Scheme:
    """Supported d (2 <= d <= max_d, primes only if `prime`) and each command's steps."""

    max_d: int
    prime: bool
    build: Callable    # (d, FiducialSearchConfig) -> fiducial, MUBs or Clifford coset reps
    povm: Callable     # built data -> RankOnePovm of every outcome, which gen writes
    certify: Callable  # (d, built data) -> VerificationReport
    sampled: Callable | None = None   # built data -> the RankOnePovm simulate reads, if not povm
    gen_fields: Callable = lambda data: {}   # built data -> gen's fields after the elements

    def supports(self, d: int) -> bool:
        return 2 <= d <= self.max_d and (not self.prime or is_prime(d))


SCHEMES = {   # scheme name -> (its module entverify.<name> -> its Scheme); the parsers' choices
    "sic": lambda sic: Scheme(
        12, False, sic.get_fiducial, sic.weyl_orbit, sic.verify_sic_identity,
        gen_fields=lambda f: {"fiducial_residual": f.residual}),
    "mub": lambda mub: Scheme(
        64, True, lambda d, config: mub.mub_prime(d), mub.mub_povm, mub.verify_mub_identity),
    "clifford": lambda clifford: Scheme(
        5, True, lambda d, config: clifford.clifford_representatives(d),
        lambda reps: clifford.clifford_povm(clifford.weyl_cosets(reps)),
        clifford.verify_clifford_identity, sampled=clifford.coset_povm),
}


@functools.cache
def scheme_record(name: str) -> Scheme:
    """The Scheme of name, made from its module entverify.<name> on the first call."""
    return SCHEMES[name](importlib.import_module(f"{__package__}.{name}"))


def _scheme(args) -> tuple[Scheme, FiducialSearchConfig]:
    """The record of args.scheme and the search options; a bad d or option is a usage error."""
    try:
        config = FiducialSearchConfig(args.seed, args.restarts, args.search_tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    scheme = scheme_record(args.scheme)
    if not scheme.supports(args.d):
        limit = f"{'prime d' if scheme.prime else '2 <= d'} <= {scheme.max_d}"
        raise UsageError(f"{args.scheme} supports {limit}, got d={args.d}")
    return scheme, config


def _print_report(report: VerificationReport) -> None:
    print(f"scheme={report.scheme} d={report.d}")
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"  {c.name:<{width}}  measured={c.measured:.3e}  tol={c.tolerance:.1e}  {status}")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")


def cmd_gen(args) -> int:
    scheme, config = _scheme(args)
    data = scheme.build(args.d, config)
    dump_povm(scheme.povm(data), args.out, scheme=args.scheme, d=args.d, **scheme.gen_fields(data))
    return 0


def cmd_verify(args) -> int:
    scheme, config = _scheme(args)
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise UsageError(f"tol must be non-negative and finite, got {args.tol}")
    report = scheme.certify(args.d, scheme.build(args.d, config))
    if args.tol is not None:
        # exact integer checks keep tolerance 0; every other check takes --tol
        report.checks = [Check.from_deviation(c.name, c.measured, args.tol)
                         if c.tolerance > 0 else c for c in report.checks]
    report.metadata.update(seed=args.seed, version=__version__,
                           created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    if args.json or args.out is not None:
        dump_json(report.to_dict(), args.out)
    else:
        _print_report(report)
    return 0 if report.overall else 1


def cmd_simulate(args) -> int:
    from . import protocol

    d = args.d
    if not 0 <= args.fidelity <= 1:
        raise UsageError(f"fidelity must lie in [0, 1], got {args.fidelity}")
    if not 1 <= args.shots <= protocol.MAX_SHOTS:
        raise UsageError(f"shots must lie in [1, {protocol.MAX_SHOTS}], got {args.shots}")
    scheme, config = _scheme(args)
    povm = (scheme.sampled or scheme.povm)(scheme.build(d, config))
    make_state = protocol.isotropic_state if povm.pairs == 1 else protocol.double_isotropic_state
    transcript = protocol.run_protocol(povm, make_state(d, args.fidelity), args.shots, args.seed)
    doc = {"schema": 1, "scheme": args.scheme, "d": d, "fidelity": args.fidelity}
    doc.update(transcript.to_dict())
    if args.json or args.out is not None:
        dump_json(doc, args.out)
    else:
        print(f"scheme={args.scheme} d={d} fidelity={args.fidelity} shots={args.shots} seed={args.seed}")
        print(f"  estimate = {transcript.estimate:.6f}")
        print(f"  analytic = {transcript.analytic:.6f}")
        print(f"  stderr   = {transcript.stderr:.6f}")
        print(f"  3-sigma consistent: {transcript.consistent_3sigma}")
    return 0 if transcript.consistent_3sigma else 1


def cmd_count(args) -> int:
    from . import clifford

    d = args.d
    if not 2 <= d <= COUNT_MAX_D:
        raise UsageError(f"count supports 2 <= d <= {COUNT_MAX_D}, got {d}")
    nu = clifford.pair_product_counts(d)
    formula_value = clifford.cardinality_from_pair_counts(nu)   # d^3 (d^2 - 1) at prime d, or raises
    doc = {
        "schema": 1,
        "d": d,
        "nu_values": nu.tolist(),
        "formula_value": formula_value,
        "prime_formula_value": formula_value if is_prime(d) else None,
        "enumerated": None,
    }
    if (args.enumerate or d in (2, 3)) and scheme_record("clifford").supports(d):
        doc["enumerated"] = len(clifford.clifford_representatives(d)) * d * d
    if args.json or args.out is not None:
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
            p.add_argument("scheme", choices=SCHEMES)
        p.add_argument("--d", type=int, required=True, help="local dimension")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write JSON to this file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=50, help="fiducial search restarts")
        p.add_argument("--search-tol", type=float, default=1e-8,
                       help="fiducial search residual target")

    p_gen = sub.add_parser("gen", help="generate a scheme POVM as JSON")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run the certification checks")
    common(p_verify)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every nonzero check tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="protocol simulation (samples outcome counts)")
    p_sim.add_argument("--scheme", choices=SCHEMES, required=True)
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
    except FiducialSearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    """The process entry: main(), gc.freeze(), then exit with main's code (module docstring)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
