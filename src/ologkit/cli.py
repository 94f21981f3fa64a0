"""The ``olog`` command line tool.

Commands: ``check`` (validate a schema, and optionally an instance against
it), ``simulate`` (generate a chain instance and write it out), ``iso``
(search for an instance isomorphism), ``analogy`` (generate the two default
instances and match them), and ``pullback`` (print a canonical pullback).

Exit codes: 0 success, 1 semantic violation, 2 parse/usage error,
3 parameter constraint, 4 internal error (a bug, reported as one line).
Reports are deterministic except for the trailing ``elapsed_ms`` line, which
is always last so tools can strip it before comparing runs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path as FsPath
from typing import TypeVar

from .bundled import BUNDLED_FILES, bundled_schema, bundled_text
from .chains import (
    PROTEIN_DEFAULTS,
    SOCIAL_MATCHED_DEFAULTS,
    Comparators,
    SimParams,
    build_chain,
    classify,
    generate_instance,
    link_failure_noise,
    system_failure_extension,
)
from .diagnostics import Diagnostic, has_errors
from .dsl import parse_instance, parse_schema, read_source, serialize_instance
from .errors import OlogError
from .instance import (
    Instance,
    IsoResult,
    check_all_equations,
    check_instance_isomorphism,
    compute_pullback,
    validate_instance,
    verify_all_fiber_products,
)
from .ordering import natural_order
from .schema import OlogSchema, validate_schema

__all__ = ["main"]

_Input = TypeVar("_Input", OlogSchema, Instance)

_EXIT_CODES = {
    "ok": 0,
    "violation": 1,
    "parse-error": 2,
    "param-constraint": 3,
    "internal": 4,
}


class RunReport:
    """Structured, deterministic report printed by every command."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: list[str] = []
        self.body: list[str] = []
        self.verdict = "ok"

    def input(self, shown: str) -> None:
        self.inputs.append(shown)

    def line(self, text: str) -> None:
        self.body.append(text)

    def fail(self, verdict: str) -> None:
        if self.verdict == "ok":
            self.verdict = verdict

    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]

    def render(self, quiet: bool, elapsed_ms: int) -> str:
        if quiet:
            return self.verdict
        lines = [f"command: {self.command}"]
        lines.extend(f"input: {shown}" for shown in self.inputs)
        lines.extend(self.body)
        lines.append(f"verdict: {self.verdict}")
        lines.append(f"elapsed_ms: {elapsed_ms}")
        return "\n".join(lines)


def _read_input(path: str) -> tuple[str, str]:
    """File contents plus a display name; falls back to the bundled data files."""
    fspath = FsPath(path)
    if fspath.exists():
        return read_source(path), path
    if fspath.name in BUNDLED_FILES and str(fspath) == fspath.name:
        return bundled_text(fspath.name), f"bundled:{fspath.name}"
    raise FileNotFoundError(f"no such file: {path}")


def _load(path: str, report: RunReport, parse: Callable[[str, str], _Input]) -> _Input:
    """Read an input, list it on the report, and parse it."""
    text, shown = _read_input(path)
    report.input(shown)
    return parse(text, shown)


def _valid(diags: list[Diagnostic], report: RunReport, prefix: str = "") -> bool:
    """Report the diagnostics; False, a violation, if any is an error."""
    for diag in diags:
        report.line(f"{prefix}{diag}")
    if has_errors(diags):
        report.fail("violation")
        return False
    return True


def _check_instance_body(
    schema: OlogSchema, instance: Instance, report: RunReport, label: str = ""
) -> bool:
    """Validate + equations + fiber products; True iff everything is clean."""
    prefix = f"{label}: " if label else ""
    if not _valid(validate_instance(schema, instance), report, prefix):
        return False
    total = sum(len(elems) for elems in instance.sets.values())
    report.line(f"{prefix}instance {instance.name!r}: {total} elements")
    clean = True
    for index, eq_report in enumerate(check_all_equations(schema, instance)):
        start, end = schema._resolution.usable[index]  # the schema validated
        desc = f"eq {start}..{end} : {eq_report.equation}"
        if eq_report.holds:
            report.line(f"{prefix}{desc} AllHold ({eq_report.checked} elements)")
        else:
            eid, lhs_val, rhs_val = eq_report.witness
            report.line(
                f"{prefix}{desc} Counterexample at {eid}: {lhs_val} != {rhs_val}"
            )
            clean = False
    for fp_report in verify_all_fiber_products(schema, instance):
        apex = fp_report.declaration.apex
        if fp_report.holds:
            report.line(
                f"{prefix}pullback {apex} PASS ({fp_report.apex_size} pairs)"
            )
        else:
            report.line(
                f"{prefix}pullback {apex} FAIL {fp_report.witness_kind} "
                f"{' '.join(fp_report.witness)}"
            )
            clean = False
    if not clean:
        report.fail("violation")
    return clean


def _cmd_check(args: argparse.Namespace, report: RunReport, comparators: Comparators) -> None:
    schema = _load(args.schema, report, parse_schema)
    valid = _valid(validate_schema(schema), report)
    report.line(
        f"schema {schema.name!r}: {len(schema.boxes)} boxes, "
        f"{len(schema.arrows)} arrows, {len(schema.equations)} equations, "
        f"{len(schema.fiber_products)} pullbacks"
    )
    if valid and args.instance is not None:
        instance = _load(args.instance, report, parse_instance)
        _check_instance_body(schema, instance, report)


def _simulate_params(args: argparse.Namespace) -> SimParams:
    """The options given, over the domain's defaults."""
    defaults = SimParams()
    if args.domain == "social":
        noise = link_failure_noise(args.msg_success, args.msg_len)
        glue = noise if args.glue_fail is None else args.glue_fail
        defaults = SimParams(
            brick_count=100,
            glue_failure=glue,
            lifeline_resting=glue,
            lifeline_failure=float("inf"),
            domain="social",
        )
    given = {
        "brick_count": args.bricks,
        "glue_failure": args.glue_fail,
        "brick_failure": args.brick_fail,
        "lifeline_resting": args.ll_rest,
        "lifeline_failure": args.ll_fail,
    }
    return replace(
        defaults,
        lifeline_present=args.lifeline,
        **{name: value for name, value in given.items() if value is not None},
    )


def _cmd_simulate(args: argparse.Namespace, report: RunReport, comparators: Comparators) -> None:
    params = _simulate_params(args)
    schema = bundled_schema()
    instance = generate_instance(params, schema, comparators)
    chain = build_chain(params)
    failure = system_failure_extension(chain)
    verdict = classify(chain, comparators)
    report.line(f"failure={failure:g} class={verdict.value}")
    total = sum(len(elems) for elems in instance.sets.values())
    report.line(f"elements={total}")
    if args.out is not None:
        FsPath(args.out).write_text(serialize_instance(instance), encoding="utf-8")
        report.line(f"wrote {args.out}")


def _report_mapping(report: RunReport, mapping: dict[str, dict[str, str]]) -> None:
    for box_id in natural_order(mapping):
        shown = ", ".join(f"{src}->{dst}" for src, dst in mapping[box_id].items())
        report.line(f"{box_id}: {shown}")


def _not_found(result: IsoResult) -> str:
    detail = f" {result.detail}" if result.detail else ""
    return f"NotFound certificate={result.certificate}{detail}"


def _cmd_iso(args: argparse.Namespace, report: RunReport, comparators: Comparators) -> None:
    schema = _load(args.schema, report, parse_schema)
    if not _valid(validate_schema(schema), report):
        return
    pair = [_load(path, report, parse_instance) for path in (args.instance_a, args.instance_b)]
    # A list, not a generator, so all() cannot stop before the second report.
    if not all([_valid(validate_instance(schema, i), report, f"{i.name}: ") for i in pair]):
        return
    result = check_instance_isomorphism(schema, *pair)
    if result.found:
        report.line("Found")
        _report_mapping(report, result.mapping)
    else:
        report.line(_not_found(result))
        report.fail("violation")


def _cmd_analogy(args: argparse.Namespace, report: RunReport, comparators: Comparators) -> None:
    schema = bundled_schema()
    protein_params = replace(PROTEIN_DEFAULTS, brick_count=args.bricks_a)
    social_params = replace(SOCIAL_MATCHED_DEFAULTS, brick_count=args.bricks_b)
    instances: list[Instance] = []
    clean = True
    for params in (protein_params, social_params):
        instance = generate_instance(params, schema, comparators)
        instances.append(instance)
        clean = _check_instance_body(schema, instance, report, label=params.domain) and clean
    if not clean:
        return
    result = check_instance_isomorphism(schema, instances[0], instances[1])
    if result.found:
        matched = sum(len(pairs) for pairs in result.mapping.values())
        report.line(f"iso: Found ({matched} elements matched)")
    else:
        report.line(f"iso: {_not_found(result)}")
        report.fail("violation")


def _cmd_pullback(args: argparse.Namespace, report: RunReport, comparators: Comparators) -> None:
    schema = _load(args.schema, report, parse_schema)
    if not _valid(validate_schema(schema), report):
        return
    instance = _load(args.instance, report, parse_instance)
    if not _valid(validate_instance(schema, instance), report):
        return
    pairs = compute_pullback(schema, instance, args.leg1, args.leg2)
    report.line(f"pullback along {args.leg1}, {args.leg2}: {len(pairs)} pairs")
    for x, y in pairs:
        report.line(f"({x}, {y})")


_HANDLERS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "iso": _cmd_iso,
    "analogy": _cmd_analogy,
    "pullback": _cmd_pullback,
}


@functools.cache  # built on the first call; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    defaults = Comparators()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--eps-rel",
        type=float,
        default=argparse.SUPPRESS,
        help=f"relative tolerance for rough equality (default {defaults.eps_rel})",
    )
    common.add_argument(
        "--kappa",
        type=float,
        default=argparse.SUPPRESS,
        help=f"separation factor for much-greater (default {defaults.kappa})",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print only the verdict",
    )

    parser = argparse.ArgumentParser(
        prog="olog",
        parents=[common],
        description="Schemas, instances, and chain-failure simulation. "
        "File arguments fall back to the bundled paper.olog / protein.oinst / "
        "social.oinst when no such file exists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate a schema and optional instance")
    p.add_argument("schema")
    p.add_argument("instance", nargs="?")

    p = sub.add_parser("simulate", parents=[common], help="generate a chain instance")
    p.add_argument("--domain", choices=["protein", "social"], default="protein")
    p.add_argument("--bricks", type=int, help="number of bricks (default 9 protein / 100 social)")
    p.add_argument("--glue-fail", type=float, help="glue failure extension")
    p.add_argument("--brick-fail", type=float, help="brick failure extension (default inf)")
    p.add_argument("--lifeline", action="store_true", help="back every segment with a lifeline")
    p.add_argument("--ll-rest", type=float, help="lifeline resting extension")
    p.add_argument("--ll-fail", type=float, help="lifeline failure extension")
    p.add_argument("--msg-len", type=int, default=50, help="links per message (social glue default)")
    p.add_argument("--msg-success", type=float, default=0.5, help="target message success rate")
    p.add_argument("-o", "--out", help="write the generated instance here")

    p = sub.add_parser("iso", parents=[common], help="search for an instance isomorphism")
    p.add_argument("schema")
    p.add_argument("instance_a")
    p.add_argument("instance_b")

    p = sub.add_parser("analogy", parents=[common], help="generate and match the two default instances")
    p.add_argument("--bricks-a", type=int, default=9, help="bricks in the protein instance")
    p.add_argument("--bricks-b", type=int, default=9, help="bricks in the social instance")

    p = sub.add_parser("pullback", parents=[common], help="print the canonical pullback of two legs")
    p.add_argument("schema")
    p.add_argument("instance")
    p.add_argument("leg1")
    p.add_argument("leg2")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    started = time.perf_counter()
    report = RunReport(args.command)
    try:
        comparators = Comparators(
            **{name: getattr(args, name) for name in ("eps_rel", "kappa") if name in args}
        )
        _HANDLERS[args.command](args, report, comparators)
    except OlogError as exc:
        report.line(f"error[{exc.code}]: {exc.message}")
        report.fail(exc.verdict)
    except OSError as exc:
        report.line(f"error: {exc}")
        report.fail("parse-error")
    except Exception as exc:  # a bug; exceptions outside Exception still propagate
        report.line(f"error[INTERNAL]: {type(exc).__name__}: {exc}")
        report.fail("internal")

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    try:
        print(report.render(getattr(args, "quiet", False), elapsed_ms), flush=True)
    except BrokenPipeError:
        # The reader left early (`olog check ... | head -1`). Point stdout at
        # devnull so the flush at exit cannot raise again; the verdict stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
