"""Command line interface.

Exit codes: 0 success, 1 failed expectation, 2 usage error, 3 invalid
input or a failed write to standard output, 141 standard output closed
by the reader before all was written.
"""
from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Any

from .arrows import generate_transfer, llp_dual, rlp_dual
from .bousfield import (
    golden_arrows,
    is_weakly_connected,
    left_localize,
    localization_graph,
    reachable_from_trivial,
    right_localize,
)
from .errors import LatmodError, UnknownLabel
from .lattice import Arrow, FiniteLattice, is_modular
from .models import (
    af_interval,
    derive_classes,
    enumerate_model_structures,
    enumerate_weak_equivalence_sets,
    verify_model_axioms,
)
from .serialize import (
    load_arrow_set,
    load_lattice,
    load_model,
    localization_graph_dot,
    models_dot,
    serialize_arrow_set,
    serialize_golden_reports,
    serialize_localization_graph,
    serialize_model,
    systems_dot,
)
from .transfers import singly_generated_transfers, transfer_catalog


_EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmod",
        description="Transfer systems, model structures, and Bousfield "
        "localizations on finite lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lattice = sub.add_parser("lattice", help="validate and describe lattices")
    lattice_sub = lattice.add_subparsers(dest="subcommand", required=True)
    for name in ("check", "info"):
        p = lattice_sub.add_parser(name)
        _add_lattice_arg(p)

    transfers = sub.add_parser("transfers", help="transfer system operations")
    transfers_sub = transfers.add_subparsers(dest="subcommand", required=True)
    p = transfers_sub.add_parser("enumerate")
    _add_lattice_arg(p)
    p.add_argument("--format", choices=("json", "dot", "count"), default="json")
    p.add_argument("--out")
    for name in ("dual", "generate"):
        p = transfers_sub.add_parser(name)
        _add_lattice_arg(p)
        p.add_argument("--arrows", required=True, help="arrow set JSON file")
        p.add_argument("--out")

    models = sub.add_parser("models", help="model structure operations")
    models_sub = models.add_subparsers(dest="subcommand", required=True)
    p = models_sub.add_parser("enumerate")
    _add_lattice_arg(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("json", "dot", "csv"), default="json")
    p.add_argument("--out")
    p = models_sub.add_parser("verify")
    _add_lattice_arg(p)
    p.add_argument("--weq", required=True, help="arrow set JSON file")
    p.add_argument("--af", required=True, help="arrow set JSON file")
    p.add_argument("--expect-valid", action="store_true")
    p = models_sub.add_parser("interval")
    _add_lattice_arg(p)
    p.add_argument("--weq", required=True, help="arrow set JSON file")
    p.add_argument("--format", choices=("json", "count", "dot"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("localize", help="Bousfield localization")
    _add_lattice_arg(p)
    p.add_argument("--model", required=True, help="model JSON file (weq, af)")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--at", required=True, metavar="SRC,TGT")
    p.add_argument("--out")

    graph = sub.add_parser("graph", help="the localization graph")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    p = graph_sub.add_parser("localizations")
    _add_lattice_arg(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p = graph_sub.add_parser("reach")
    _add_lattice_arg(p)
    p.add_argument("--expect-all", action="store_true")

    p = sub.add_parser("reproduce", help="recompute the headline counts")
    p.add_argument("--paper-checks", action="store_true")
    return parser


def _add_lattice_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lattice",
        required=True,
        help="lattice JSON file or builtin:<name> (n5, chain3, grid2x1, ...)",
    )


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise LatmodError(f"cannot write {out}: {exc}") from exc


def _emit_json(data: Any, out: str | None) -> None:
    import json

    _emit(json.dumps(data, indent=2) + "\n", out)


def _parse_at(lat: FiniteLattice, text: str) -> Arrow:
    # Labels may contain commas (product lattices), so try every split
    # point and keep the ones naming a real arrow.
    found = []
    for i, ch in enumerate(text):
        if ch != ",":
            continue
        src, tgt = text[:i], text[i + 1 :]
        try:
            found.append(lat.arrow(src, tgt))
        except UnknownLabel:
            continue
    if not found:
        raise UnknownLabel(f"--at {text!r} does not name an arrow")
    if len(set(found)) > 1:
        raise LatmodError(f"--at {text!r} is ambiguous")
    return found[0]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_lattice(args: argparse.Namespace) -> int:
    lat = load_lattice(args.lattice)
    mod = "modular" if is_modular(lat) else "nonmodular"
    if args.subcommand == "check":
        print(f"OK: lattice, {mod}")
        return 0
    print(f"elements: {lat.n} ({', '.join(lat.labels)})")
    print(f"covers: {', '.join(lat.arrow_name(c) for c in lat.covers)}")
    print(f"arrows: {len(lat.arrows)}")
    print(f"bottom: {lat.labels[lat.bottom]}  top: {lat.labels[lat.top]}")
    print(f"modular: {'yes' if mod == 'modular' else 'no'}")
    return 0


def _cmd_transfers(args: argparse.Namespace) -> int:
    lat = load_lattice(args.lattice)
    if args.subcommand == "enumerate":
        catalog = transfer_catalog(lat)
        if args.format == "count":
            _emit(f"{len(catalog)}\n", args.out)
        elif args.format == "dot":
            dot = systems_dot(catalog.systems, name="transfer_systems")
            _emit(dot, args.out)
        else:
            _emit_json(
                {
                    "count": len(catalog),
                    "systems": [serialize_arrow_set(s) for s in catalog],
                },
                args.out,
            )
        return 0
    aset = load_arrow_set(lat, args.arrows)
    if args.subcommand == "dual":
        _emit_json(
            {
                "llp": llp_dual(aset).label_pairs(),
                "rlp": rlp_dual(aset).label_pairs(),
            },
            args.out,
        )
    else:
        _emit_json(serialize_arrow_set(generate_transfer(aset)), args.out)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    lat = load_lattice(args.lattice)
    if args.subcommand == "enumerate":
        structures = enumerate_model_structures(lat)
        if args.count_only:
            _emit(f"{len(structures)}\n", args.out)
        elif args.format == "csv":
            import csv

            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["weq", "t_min", "t_max", "af_count", "af_interval"])
            # Catalog order refines containment, so each interval runs
            # from t_min(W) to t_max(W).
            for weq in enumerate_weak_equivalence_sets(lat):
                interval = af_interval(weq)
                writer.writerow(
                    [
                        weq.signature(),
                        interval[0].signature(),
                        interval[-1].signature(),
                        len(interval),
                    ]
                    + [s.signature() for s in interval]
                )
            _emit(buf.getvalue(), args.out)
        elif args.format == "dot":
            _emit(models_dot(structures), args.out)
        else:
            _emit_json(
                {
                    "count": len(structures),
                    "models": [serialize_model(m) for m in structures],
                },
                args.out,
            )
        return 0
    if args.subcommand == "verify":
        weq = load_arrow_set(lat, args.weq)
        af = load_arrow_set(lat, args.af)
        try:
            model = derive_classes(weq, af)
            valid = verify_model_axioms(model)
        except LatmodError:
            valid = False
        _emit_json({"valid": valid}, None)
        return 0 if valid or not args.expect_valid else 1
    weq = load_arrow_set(lat, args.weq)
    interval = af_interval(weq)
    if args.format == "count":
        _emit(f"{len(interval)}\n", args.out)
    elif args.format == "dot":
        _emit(systems_dot(interval, name="af_interval"), args.out)
    else:
        _emit_json(
            {
                "weq": weq.label_pairs(),
                "t_min": interval[0].label_pairs(),
                "t_max": interval[-1].label_pairs(),
                "count": len(interval),
                "interval": [s.label_pairs() for s in interval],
            },
            args.out,
        )
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    lat = load_lattice(args.lattice)
    model = load_model(lat, args.model)
    at = _parse_at(lat, args.at)
    localize = left_localize if args.side == "left" else right_localize
    payload: dict[str, Any] = {"model": serialize_model(localize(model, at))}
    if args.side == "right" and at in lat.covers:
        payload["golden_arrows"] = serialize_golden_reports(golden_arrows(model, at))
    _emit_json(payload, args.out)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    lat = load_lattice(args.lattice)
    graph = localization_graph(lat)
    if args.subcommand == "localizations":
        if args.format == "json":
            _emit_json(serialize_localization_graph(graph), args.out)
        else:
            _emit(localization_graph_dot(graph), args.out)
        return 0
    reached = reachable_from_trivial(graph)
    total = len(graph)
    print(f"reachable from trivial: {len(reached)}/{total}")
    connected = is_weakly_connected(graph)
    print(f"weakly connected: {'yes' if connected else 'no'}")
    if args.expect_all and len(reached) != total:
        return 1
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if not args.paper_checks:
        print("nothing to do (pass --paper-checks)", file=sys.stderr)
        return 2
    n5 = load_lattice("builtin:n5")
    square = load_lattice("builtin:square")
    n5_graph = localization_graph(n5)
    reached = len(reachable_from_trivial(n5_graph))
    checks = [
        ("transfer systems on N5", 26, len(transfer_catalog(n5))),
        (
            "weak equivalence sets on N5",
            22,
            len(enumerate_weak_equivalence_sets(n5)),
        ),
        ("model structures on N5", 70, len(enumerate_model_structures(n5))),
        (
            "model structures on [1]x[1]",
            23,
            len(enumerate_model_structures(square)),
        ),
        ("reachable from trivial on N5", "70/70", f"{reached}/{len(n5_graph)}"),
        (
            "singly generated systems on N5",
            8,
            len(singly_generated_transfers(n5)),
        ),
    ]
    failures = 0
    for name, expected, actual in checks:
        ok = str(expected) == str(actual)
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"{name:<34} expected {expected!s:>7}  actual {actual!s:>7}  {status}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "lattice": _cmd_lattice,
        "transfers": _cmd_transfers,
        "models": _cmd_models,
        "localize": _cmd_localize,
        "graph": _cmd_graph,
    }.get(args.command, _cmd_reproduce)
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except LatmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeEncodeError) as exc:
        # The reader went away (`latmod ... | head -1`), the write failed
        # (`> /dev/full`), or the locale cannot encode a label.  Point
        # stdout at devnull so the interpreter's final flush cannot fail
        # again.  A closed pipe exits with the status a shell reports for
        # death by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return _EXIT_BROKEN_PIPE
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
