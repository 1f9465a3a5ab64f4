"""Batch command-line surface.

Subcommands: ``wp`` (word problem), ``portrait``, ``conj`` (conjugacy
certificate), ``chain`` (quotient chain report), ``verify`` (seeded
verification suites).  Every command is deterministic for a fixed
configuration and input.

The shared settings (``--group``, ``--depth-cap``, ``--vertex-cap``,
``--format``, ``--seed``) are flags of the top-level parser, so they come
before the command: ``branchgroups --group integers chain 3``.  The
vertex cap is set once, on the oracle, and bounds all that any command
builds from it.  A depth cap below 0 or a vertex cap below 1 is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded.

:func:`main` builds its parser once per process (:func:`_parser`) and
parses each call into a fresh namespace, so a second call in the same
interpreter skips the argparse construction, about 0.6 ms.  A
console-script process makes one call and gains nothing.  What the parser
binds is bound at that first call: each subcommand's ``func=`` handler and
``verify``'s ``choices=sorted(suites.SUITES)``, so a patch to a
``cli.cmd_*`` function or a suite added after the first call is not seen.
Output is unaffected: argparse reads ``sys.stdout``, ``sys.stderr`` and
the terminal width when it prints, not when it is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import suites, wordcalc
from .resfin import (
    DEFAULT_VERTEX_CAP,
    CapExceeded,
    build_level_map,
    format_quotient_map,
    kernel_min_length_check,
    oracle_from_selector,
)
from .treeauto import portrait, portrait_dot, portrait_text
from .wordcalc import ParseError, SearchBounds, conjugacy_certificate, decide, normal_form, parse_tokens, token_length

SCHEMA = 1
_json_str = json.encoder.encode_basestring_ascii  # json.dumps's own string encoder

class UsageError(ValueError):
    pass


def _emit(args, payload, text_lines):
    if args.format == "json":
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
    oracle = oracle_from_selector(args.group, args.vertex_cap)
    tokens = _read_word(oracle, args.word_file)
    # checked on the raw tokens, so that no work precedes the cap
    sigma_length = token_length(tokens)
    if 2 * sigma_length > args.depth_cap:
        raise CapExceeded(f"decision depth {2 * sigma_length} exceeds the depth cap {args.depth_cap}")
    word = normal_form(oracle, tokens)
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
    if args.depth < 0:
        raise UsageError(f"portrait depth must be at least 0, got {args.depth}")
    oracle = oracle_from_selector(args.group, args.vertex_cap)
    if args.depth > args.depth_cap:
        raise CapExceeded(f"portrait depth {args.depth} exceeds the depth cap {args.depth_cap}")
    tokens = _read_word(oracle, args.word_file)
    word = normal_form(oracle, tokens)
    p = portrait(word.to_aut(), args.depth)
    if args.format == "dot":
        print(portrait_dot(p))
    elif args.format == "json":
        # the bytes json.dumps(..., sort_keys=True) writes for a payload
        # whose "vertices" are {"path", "label"} dicts, written from each
        # level's section ids with no dict per vertex
        labels = [_json_str(label) for label in p.section_labels]
        vertices = ", ".join(
            ", ".join(map('{{"label": {}, "path": {}}}'.format, map(labels.__getitem__, ids), map(_json_str, texts)))
            for texts, ids in zip(p.level_texts(), p.levels)
        )
        print(f'{{"command": "portrait", "depth": {args.depth}, "schema": {SCHEMA}, "vertices": [{vertices}]}}')
    else:
        print(portrait_text(p))
    return 0


def _parse_seed_spec(oracle, text):
    """A seed literal ``t``, ``t|()`` or ``H(t|())`` (see
    :func:`wordcalc.parse_seed`)."""
    body = text.strip()
    if body.startswith("H(") and body.endswith(")"):
        body = body[2:-1]
    if "|" not in body:
        body = body + "|()"
    return wordcalc.parse_seed(oracle, body)


def cmd_conj(args):
    if args.depth < 1:
        raise UsageError(f"conj depth must be at least 1, got {args.depth}")
    oracle = oracle_from_selector(args.group, args.vertex_cap)
    g = _parse_seed_spec(oracle, args.g)
    k = _parse_seed_spec(oracle, args.k)
    bounds = SearchBounds(depth=args.depth)
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
    oracle = oracle_from_selector(args.group, args.vertex_cap)
    if args.level > args.depth_cap:
        raise CapExceeded(f"chain level {args.level} exceeds the depth cap {args.depth_cap}")
    qm = build_level_map(oracle, args.level)
    report = kernel_min_length_check(oracle, args.level)
    text = format_quotient_map(qm)
    payload = {
        "command": "chain",
        "level": args.level,
        "order": qm.quotient.order,
        "kernel_check": report,
        "table": text,
    }
    check = f"kernel check radius {args.level}: {'pass' if report['passed'] else 'FAIL'}"
    if report["counterexample"]:
        check += f" (counterexample {report['counterexample']})"
    _emit(args, payload, [text, check])
    return 0 if report["passed"] else 1


def cmd_verify(args):
    oracle = oracle_from_selector(args.group, args.vertex_cap)
    report = dict(suites.run_suite(args.suite, oracle, seed=args.seed))
    report["schema"] = SCHEMA
    report["group"] = oracle.name
    report["seed"] = args.seed
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="branchgroups",
        description="Decision procedures for branch groups built over a residually finite input group.",
    )
    parser.add_argument("--group", default="dihedral_infinite",
                        help="group selector: dihedral_infinite | integers | finite:<order> | product:<a>,<b>")
    parser.add_argument("--depth-cap", type=int, default=12, help="maximum evaluation depth")
    parser.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP,
                        help="for every command: maximum finite group order, codes of a quotient-chain fold "
                             "(so letters of an alphabet), and vertices of a level permutation or portrait")
    parser.add_argument("--format", choices=["text", "json", "dot"], default="text", help="output format")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp", help="decide the word problem for a word file")
    p.add_argument("word_file", help="path to a token file, or - for stdin")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("portrait", help="emit the portrait of a word")
    p.add_argument("word_file")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("conj", help="conjugacy certificate for two seed elements")
    p.add_argument("g", help="seed element literal, e.g. 't|()' or 'H(t|(x y z))'")
    p.add_argument("k")
    p.add_argument("--depth", type=int, default=4,
                   help="deepest tree level whose cycle types are compared; "
                        "conjugators are proved by the word-problem decider whatever the depth")
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("chain", help="report the level-n quotient of the input group")
    p.add_argument("level", type=int)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.depth_cap < 0:
            raise UsageError(f"--depth-cap must be at least 0, got {args.depth_cap}")
        if args.vertex_cap < 1:
            raise UsageError(f"--vertex-cap must be at least 1, got {args.vertex_cap}")
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
