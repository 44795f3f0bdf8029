"""Command-line front end: sample runs, verification suite, target listing."""

import argparse
import json
import sys

from .errors import GhmcError
from .model import catalog_entries
from .runspec import SpecError, execute, load_run_spec


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ghmc", description="Generalized Hamiltonian Monte Carlo engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run chains from a spec file")
    p_sample.add_argument("spec", help="path to the run spec file")
    p_sample.add_argument("--seed", type=int, default=None, help="override the chain seed")
    p_sample.add_argument("--out-dir", default=None, help="directory for output files")

    sub.add_parser("verify", help="run the geometric verification suite")

    p_list = sub.add_parser("list-targets", help="list built-in targets")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def cmd_sample(args) -> int:
    try:
        report = execute(load_run_spec(args.spec), out_dir=args.out_dir, seed_override=args.seed)
    except SpecError as exc:
        print(f"spec error: {args.spec}: {exc}", file=sys.stderr)
        return 2
    except GhmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diag = report.diagnostics
    print(
        f"wrote {len(report.samples_files)} chain(s), "
        f"{diag['chains'] * diag['num_samples']} samples total"
    )
    for path in report.samples_files:
        print(f"  samples:      {path}")
    print(f"  diagnostics:  {report.diagnostics_file}")
    print(
        f"  accept rate {diag['accept_rate']:.3f}, "
        f"divergences {diag['divergence_count']} "
        f"({100.0 * diag['divergence_fraction']:.1f}%), "
        f"wall time {diag['wall_time_s']:.2f}s"
    )
    if diag["divergence_fraction"] > 0.5:
        print("error: divergence storm (>50% of transitions diverged)", file=sys.stderr)
        return 3
    return 0


def run_checks():
    # the suite loads here, when the verify command runs, not at import
    from .verify import run_checks as run_suite
    return run_suite()


def cmd_verify() -> int:
    results = run_checks()
    name_w = max(len(r.name) for r in results)
    print(f"{'check':<{name_w}}  {'result':6}  {'measured':>10}  requirement")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.name:<{name_w}}  {status:6}  {r.measured:>10.3g}  {r.requirement}"
            f"  [{r.seconds:.1f}s]"
        )
        if r.detail and not r.passed:
            print(f"{'':<{name_w}}          {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"\n{len(failed)} check(s) failed:", file=sys.stderr)
        for r in failed:
            print(f"  {r.name}: measured {r.measured:.3g} ({r.detail})", file=sys.stderr)
        return 1
    print(f"\nall {len(results)} checks passed")
    return 0


def cmd_list_targets(args) -> int:
    entries = catalog_entries()
    if args.json:
        payload = [
            {
                "name": e.name,
                "params": {key: doc for key, (_, doc) in e.params.items()},
                "analytic_moments": e.has_moments,
            }
            for e in entries
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    name_w = max(len(e.name) for e in entries)
    for e in entries:
        moments = "analytic moments" if e.has_moments else "no analytic moments"
        print(f"{e.name:<{name_w}}  ({moments})")
        for key, (_, doc) in sorted(e.params.items()):
            print(f"{'':<{name_w}}    {key}: {doc}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sample":
        return cmd_sample(args)
    if args.command == "verify":
        return cmd_verify()
    return cmd_list_targets(args)


if __name__ == "__main__":
    sys.exit(main())
