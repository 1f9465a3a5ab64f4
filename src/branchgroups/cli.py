"""Batch command-line surface.

Subcommands: ``wp`` (word problem), ``portrait``, ``conj`` (conjugacy
certificate), ``chain`` (quotient chain report), ``verify`` (seeded
verification suites).  Every command is deterministic for a fixed
configuration and input.

Configuration precedence: command-line flag, then environment variable
(``BRANCHGROUPS_GROUP``, ``BRANCHGROUPS_DEPTH_CAP``,
``BRANCHGROUPS_VERTEX_CAP``, ``BRANCHGROUPS_FORMAT``,
``BRANCHGROUPS_SEED``), then the built-in default.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import resfin, suites, wordcalc
from .resfin import build_level_map, format_quotient_map, kernel_min_length_check, oracle_from_selector, parse_group_descriptor
from .treeauto import CapExceeded, portrait, portrait_dot, portrait_text
from .wordcalc import ParseError, SearchBounds, conjugacy_certificate, decide, normal_form, parse_tokens, token_length

SCHEMA = 1

_DEFAULTS = {
    "group": "dihedral_infinite",
    "depth_cap": 12,
    "vertex_cap": 2_000_000,
    "format": "text",
    "seed": 0,
}

_ENV = {
    "group": "BRANCHGROUPS_GROUP",
    "depth_cap": "BRANCHGROUPS_DEPTH_CAP",
    "vertex_cap": "BRANCHGROUPS_VERTEX_CAP",
    "format": "BRANCHGROUPS_FORMAT",
    "seed": "BRANCHGROUPS_SEED",
}


class UsageError(ValueError):
    pass


def _setting(args, name, cast=str):
    value = getattr(args, name, None)
    if value is not None:
        return value
    env = os.environ.get(_ENV[name])
    if env is not None:
        try:
            return cast(env)
        except ValueError:
            raise UsageError(f"bad value {env!r} for {_ENV[name]}") from None
    return _DEFAULTS[name]


def _resolve_oracle(args):
    selector = _setting(args, "group")
    if selector.startswith("file:"):
        path = selector[5:]
        with open(path, "r", encoding="utf-8") as fh:
            return parse_group_descriptor(fh.read())
    return oracle_from_selector(selector)


def _emit(args, payload, text_lines):
    fmt = _setting(args, "format")
    if fmt == "json":
        payload = dict(payload)
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_word(oracle, path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_tokens(oracle, text)


def cmd_wp(args):
    oracle = _resolve_oracle(args)
    tokens = _read_word(oracle, args.word_file)
    # checked on the raw tokens, so that no work precedes the cap
    sigma_length = token_length(tokens)
    depth_cap = _setting(args, "depth_cap", int)
    if 2 * sigma_length > depth_cap:
        raise CapExceeded(f"decision depth {2 * sigma_length} exceeds the depth cap {depth_cap}")
    word = normal_form(oracle, tokens, sigma_length=sigma_length)
    decision = decide(word)
    payload = {
        "command": "wp",
        "trivial": decision.trivial,
        "ell": decision.ell,
        "depth": decision.depth,
        "witness": str(decision.witness) if decision.witness else None,
    }
    if decision.trivial:
        lines = [f"trivial (ell={decision.ell})"]
    else:
        lines = [
            f"nontrivial (ell={decision.ell}, depth={decision.depth})",
            f"witness {decision.witness}",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_portrait(args):
    oracle = _resolve_oracle(args)
    depth_cap = _setting(args, "depth_cap", int)
    if args.depth > depth_cap:
        raise CapExceeded(f"portrait depth {args.depth} exceeds the depth cap {depth_cap}")
    tokens = _read_word(oracle, args.word_file)
    word = normal_form(oracle, tokens)
    p = portrait(word.to_aut(), args.depth, cap=_setting(args, "vertex_cap", int))
    fmt = _setting(args, "format")
    if fmt == "dot":
        print(portrait_dot(p))
    elif fmt == "json":
        payload = {
            "schema": SCHEMA,
            "command": "portrait",
            "depth": args.depth,
            "vertices": [{"path": str(v), "label": str(p.labels[v])} for v in p.vertices()],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(portrait_text(p))
    return 0


def _parse_seed_spec(oracle, text):
    body = text.strip()
    if body.startswith("H(") and body.endswith(")"):
        body = body[2:-1]
    if "|" not in body:
        body = body + "|()"
    gtext, mtext = body.split("|", 1)
    from .alphabet import Seed, marker_perm

    gword = resfin.parse_word(oracle, gtext)
    marker = marker_perm(mtext) if mtext.strip() else marker_perm("()")
    return Seed(oracle, gword, marker)


def cmd_conj(args):
    oracle = _resolve_oracle(args)
    g = _parse_seed_spec(oracle, args.g)
    k = _parse_seed_spec(oracle, args.k)
    bounds = SearchBounds(
        h_radius=args.h_radius,
        max_h_count=args.max_h_count,
        depth=args.depth,
        vertex_cap=_setting(args, "vertex_cap", int),
    )
    cert = conjugacy_certificate(g, k, bounds)
    verified = wordcalc.verify_certificate(cert, g, k)
    payload = {
        "command": "conj",
        "kind": cert.kind,
        "depth": cert.depth,
        "verified": verified,
        "note": cert.note,
    }
    lines = [f"certificate {cert.kind} (depth={cert.depth})"]
    if cert.kind == "conjugate":
        payload["conjugator"] = str(cert.conjugator)
        lines.append(f"conjugator {cert.conjugator}")
    elif cert.kind == "not_conjugate":
        payload["level"] = cert.level
        payload["cycle_types"] = [list(ct) for ct in cert.cycle_types]
        lines.append(f"level {cert.level}")
        lines.append(f"cycle types {cert.cycle_types[0]} vs {cert.cycle_types[1]}")
    lines.append(f"re-verified: {'yes' if verified else 'NO'}")
    _emit(args, payload, lines)
    return 0 if verified else 1


def cmd_chain(args):
    oracle = _resolve_oracle(args)
    depth_cap = _setting(args, "depth_cap", int)
    qm = build_level_map(oracle, args.level)
    radius = min(args.level, depth_cap)
    report = kernel_min_length_check(oracle, args.level, radius)
    text = format_quotient_map(qm)
    payload = {
        "command": "chain",
        "level": args.level,
        "order": qm.quotient.order,
        "kernel_check": report,
        "table": text,
    }
    lines = text.splitlines()
    lines.append(
        f"kernel check radius {radius}: {'pass' if report['passed'] else 'FAIL'}"
        + (f" (counterexample {report['counterexample']})" if report["counterexample"] else "")
    )
    _emit(args, payload, lines)
    return 0 if report["passed"] else 1


def cmd_verify(args):
    oracle = _resolve_oracle(args)
    seed = _setting(args, "seed", int)
    report = suites.run_suite(args.suite, oracle, seed=seed)
    report = dict(report)
    report["schema"] = SCHEMA
    report["group"] = oracle.name
    report["seed"] = seed
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


def build_parser():
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS defaults keep a subcommand from clobbering a value that was
    # given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", default=argparse.SUPPRESS,
                        help="group selector: dihedral_infinite | integers | finite:<order> | product:<a>,<b> | file:<descriptor>")
    common.add_argument("--depth-cap", dest="depth_cap", type=int, default=argparse.SUPPRESS,
                        help="maximum evaluation depth")
    common.add_argument("--vertex-cap", dest="vertex_cap", type=int, default=argparse.SUPPRESS,
                        help="maximum materialized vertex count")
    common.add_argument("--format", choices=["text", "json", "dot"], default=argparse.SUPPRESS,
                        help="output format")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized suites")

    parser = argparse.ArgumentParser(
        prog="branchgroups",
        description="Decision procedures for branch groups built over a residually finite input group.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp", parents=[common], help="decide the word problem for a word file")
    p.add_argument("word_file", help="path to a token file, or - for stdin")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("portrait", parents=[common], help="emit the portrait of a word")
    p.add_argument("word_file")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("conj", parents=[common], help="conjugacy certificate for two seed elements")
    p.add_argument("g", help="seed element literal, e.g. 't|()' or 'H(t|(x y z))'")
    p.add_argument("k")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--h-radius", dest="h_radius", type=int, default=1)
    p.add_argument("--max-h-count", dest="max_h_count", type=int, default=1)
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("chain", parents=[common], help="report the level-n quotient of the input group")
    p.add_argument("level", type=int)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
