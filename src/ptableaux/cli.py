"""Command line interface: conversions, operators, graphs, LR, commutators.

Exit status: 0 on success, 1 on invalid input, 2 on an internal invariant
failure (a bug, reported distinctly).
"""
from __future__ import annotations

import argparse
import json
import sys

from .bijections import (
    Biword,
    NNMatrix,
    biword_from_matrix,
    biword_from_parsed,
    dual,
    matrix_from_ptableau,
    parsed_from_biword,
    ptableau_from_word,
    rsk,
    word_from_ptableau,
)
from .core import (
    ParsedWord,
    PTableau,
    Word,
    _grid_from_text,
    is_anti_partition_shaped,
    is_minimally_parsed,
    is_partition_shaped,
    is_yamanouchi,
    minimal_parsing,
    validate_ptableau,
)
from .errors import (
    InternalInvariantError,
    PTableauError,
    ShapeError,
    SizeLimitExceeded,
)
from .evacuation import (
    evacuate,
    evacuation_as_operators,
    is_bss_perforated,
    lusztig_involution,
    push_down,
    push_up,
)
from .graph import component, decompose, export_dot, export_json, words_closure
from .operators import apply_ops, to_highest_weight
from .tensor import (
    classical_lr_fillings,
    highest_weight_ptableau,
    lr_coefficient,
    satisfies_word_condition,
    tensor,
)


def _read_input(value: str) -> str:
    """Inline string, path to a file, or "-" for standard input."""
    if value == "-":
        return sys.stdin.read()
    try:
        with open(value) as handle:
            return handle.read()
    except OSError:
        return value


def _parse_partition(text: str):
    text = text.strip()
    if not text or text == "0":
        return ()
    return tuple(int(t) for t in text.split(","))


def _load_parsed(text: str, rank, cuts) -> ParsedWord:
    if "|" in text or cuts:
        if cuts:
            text = cuts
        return ParsedWord.from_text(text, rank)
    return minimal_parsing(Word.from_text(text, rank))


def _load_ptableau(text: str) -> PTableau:
    text = text.strip()
    if text.startswith("{"):
        return PTableau.from_json(text)
    return PTableau.from_text(text)


def _sniff_type(text: str, declared: str) -> str:
    """The model named by --from/--type, or the one ``text`` looks like."""
    if declared != "auto":
        return declared
    stripped = text.strip()
    if stripped.startswith("{") or "." in stripped or "\n" in stripped:
        return "ptab"
    return "word"


def _load_seed(text: str, args, as_ptableau: bool = True):
    """The --type/--rank/--parse input of apply, hw and crystal: a ptableau,
    or a parsed word, which ``as_ptableau`` replaces by its ptableau."""
    if _sniff_type(text, args.type) == "ptab":
        return _load_ptableau(text)
    pw = _load_parsed(text, args.rank, args.parse)
    return ptableau_from_word(pw) if as_ptableau else pw


def _emit_ptableau(tab: PTableau, fmt: str) -> str:
    if fmt == "json":
        return tab.to_json()
    return tab.to_text()


def cmd_convert(args) -> int:
    text = _read_input(args.value)
    source = _sniff_type(text, args.source)
    # normalize the input to a parsed word, the pivot model
    if source in ("word", "parsed"):
        pw = _load_parsed(text, args.rank, args.parse)
    elif source == "ptab":
        pw = word_from_ptableau(_load_ptableau(text))
    elif source == "biword":
        pw = parsed_from_biword(Biword.from_text(text))
    elif source == "matrix":
        pw = parsed_from_biword(biword_from_matrix(NNMatrix.from_text(text)))
    else:
        raise PTableauError(f"unknown source model {source}")

    target = args.target
    if target == "word":
        out = pw.word.to_text()
    elif target == "parsed":
        out = pw.to_text()
    elif target == "ptab":
        out = _emit_ptableau(ptableau_from_word(pw), args.format)
    elif target == "dual":
        out = _emit_ptableau(dual(ptableau_from_word(pw)), args.format)
    elif target == "biword":
        bw = biword_from_parsed(pw)
        out = json.dumps(bw.to_json_obj(), sort_keys=True) if args.format == "json" else bw.to_text()
    elif target == "matrix":
        m = matrix_from_ptableau(ptableau_from_word(pw))
        out = json.dumps(m.to_json_obj(), sort_keys=True) if args.format == "json" else m.to_text()
    elif target == "rsk":
        pair = rsk(biword_from_parsed(pw))
        if args.format == "json":
            out = json.dumps(
                {"P": pair.insertion.to_json_obj(), "Q": pair.recording.to_json_obj()},
                sort_keys=True,
            )
        else:
            out = pair.insertion.to_text() + "\n\n" + pair.recording.to_text()
    else:
        raise PTableauError(f"unknown target model {target}")
    print(out)
    return 0


def _parse_ops(text: str):
    ops = []
    for token in text.replace(",", " ").split():
        kind, idx = token[0], token[1:]
        if kind not in ("e", "f") or not idx.isdigit():
            raise PTableauError(f"bad operator token {token!r}")
        ops.append((kind, int(idx)))
    return ops


def cmd_apply(args) -> int:
    obj = _load_seed(_read_input(args.input), args, as_ptableau=False)
    out = apply_ops(obj, _parse_ops(args.ops))
    if out is None:
        print("NULL")
    elif isinstance(out, PTableau):
        print(_emit_ptableau(out, args.format))
    else:
        print(out.to_text())
    return 0


def cmd_hw(args) -> int:
    top, seq = to_highest_weight(_load_seed(_read_input(args.input), args))
    print(_emit_ptableau(top, args.format))
    print("ops: " + " ".join(f"e{i}" for i in seq))
    return 0


def cmd_crystal(args) -> int:
    seed = _load_seed(_read_input(args.seed), args)
    graph = component(seed, max_nodes=args.max_nodes)
    if args.format == "dot":
        print(export_dot(graph))
    elif args.format == "json":
        print(export_json(graph))
    else:
        label = ",".join(str(p) for p in graph.weight_label)
        print(f"nodes: {len(graph)}")
        print(f"edges: {len(graph.edges)}")
        print(f"highest weight: ({label})")
    return 0


def cmd_decompose(args) -> int:
    # rank**length, with the exponent clipped where it already exceeds the
    # cap, so a huge --length is refused without computing a huge power
    count = args.rank ** min(args.length, args.max_nodes.bit_length() + 1)
    if count > args.max_nodes:
        raise SizeLimitExceeded(
            f"{args.rank}**{args.length} words exceed --max-nodes {args.max_nodes}"
        )
    # ranks 0 and 1 have at most one word, however long: cap its letters too
    if args.length > args.max_nodes:
        raise SizeLimitExceeded(
            f"words of {args.length} letters exceed --max-nodes {args.max_nodes}"
        )
    comps = decompose(
        words_closure(args.rank, args.length), max_nodes=args.max_nodes
    )
    rows = []
    for graph in comps:
        label = ",".join(str(p) for p in graph.weight_label if p)
        rows.append(
            {
                "weight": label or "0",
                "size": len(graph),
                "highestWeight": graph.highest_weight_node.to_text(),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        for row in rows:
            print(f"({row['weight']}) size {row['size']} top {row['highestWeight']}")
        print(f"components: {len(rows)}")
    return 0


def cmd_lr(args) -> int:
    mu = _parse_partition(args.mu)
    nu = _parse_partition(args.nu)
    lam = _parse_partition(args.lam)
    n = args.rank
    g_mu = component(highest_weight_ptableau(mu, rows=n))
    g_nu = component(highest_weight_ptableau(nu, rows=n))
    coeff = lr_coefficient(g_mu, g_nu, lam)
    if args.verify:
        try:
            oracle = len(classical_lr_fillings(lam, mu, nu))
        except ShapeError:
            oracle = 0
        flag = "ok" if oracle == coeff else "MISMATCH"
        print(f"{args.lam} {coeff} {oracle} {flag}")
        if flag != "ok":
            raise InternalInvariantError(
                "crystal count disagrees with the classical enumeration"
            )
    else:
        print(f"{args.lam} {coeff}")
    return 0


def cmd_evac(args) -> int:
    tab = _load_ptableau(_read_input(args.input))
    print(_emit_ptableau(evacuate(tab), args.format))
    print("ops: " + " ".join(f"f{i}" for i in evacuation_as_operators(tab)))
    return 0


def cmd_lusztig(args) -> int:
    tab = _load_ptableau(_read_input(args.input))
    print(_emit_ptableau(lusztig_involution(tab), args.format))
    return 0


def cmd_commute(args) -> int:
    if args.input:
        product = _load_ptableau(_read_input(args.input))
        if args.split is None:
            raise PTableauError("--split is required with a pre-tensored input")
        split = args.split
    else:
        if not (args.left and args.right):
            raise PTableauError("provide --left and --right, or --in with --split")
        left = _load_ptableau(_read_input(args.left))
        right = _load_ptableau(_read_input(args.right))
        product = tensor(left, right)
        split = left.content_bound
    results = {}
    if args.algorithm in ("push-down", "both"):
        results["push-down"] = push_down(product, split)
    if args.algorithm in ("push-up", "both"):
        results["push-up"] = push_up(product, split)
    if len(results) == 2 and results["push-down"] != results["push-up"]:
        raise InternalInvariantError("push-down and push-up disagree")
    out = next(iter(results.values()))
    print(_emit_ptableau(out, args.format))
    return 0


def cmd_check(args) -> int:
    rows = _grid_from_text(_read_input(args.input))
    try:
        tab = validate_ptableau(rows)
    except PTableauError as exc:
        print(f"fail valid-ptableau: {exc}")
        print(f"ok bss-perforated: {is_bss_perforated(rows)}")
        return 1
    label = ",".join(str(p) for p in tab.weight())
    print("ok valid-ptableau")
    print(f"ok weight: ({label})")
    print(f"ok columns: {tab.cols}")
    for name, result in (
        ("partition-shaped", is_partition_shaped(tab)),
        ("anti-partition-shaped", is_anti_partition_shaped(tab)),
        ("minimally-parsed", is_minimally_parsed(tab)),
        ("word-condition", satisfies_word_condition(tab)),
        ("bss-perforated", is_bss_perforated(tab.grid)),
        ("yamanouchi-word", is_yamanouchi(word_from_ptableau(tab).word)),
    ):
        print(f"ok {name}: {result}")
    return 0


def _add_model_options(p, formats=("text", "json"), max_nodes=False):
    """The --type/--rank/--parse/--format options of apply, hw and crystal."""
    p.add_argument("--type", choices=["word", "ptab", "auto"], default="auto")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--parse", default=None)
    if max_nodes:
        p.add_argument("--max-nodes", type=int, default=10**6)
    p.add_argument("--format", choices=list(formats), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptab",
        description="perforated tableaux: crystal graph computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = ["word", "parsed", "ptab", "biword", "matrix"]
    targets = models + ["dual", "rsk"]

    p = sub.add_parser("convert", help="convert between combinatorial models")
    p.add_argument("--from", dest="source", choices=models + ["auto"], default="auto")
    p.add_argument("--to", dest="target", choices=targets, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--parse", default=None, help="explicit parsing with | cuts")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("value")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("apply", help="apply an operator chain like 'e2 f1'")
    p.add_argument("--ops", required=True)
    p.add_argument("--in", dest="input", required=True)
    _add_model_options(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("hw", help="raise to the highest weight element")
    p.add_argument("--in", dest="input", required=True)
    _add_model_options(p)
    p.set_defaults(func=cmd_hw)

    p = sub.add_parser("crystal", help="build the connected crystal component")
    p.add_argument("--seed", required=True)
    _add_model_options(p, ("text", "json", "dot"), max_nodes=True)
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("decompose", help="decompose all words of a given length")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument(
        "--max-nodes",
        type=int,
        default=10**6,
        help="refuse sizes with more than this many words (rank**length)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("evac", help="evacuate a highest weight ptableau")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_evac)

    p = sub.add_parser("lusztig", help="Lusztig involution of a highest weight")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_lusztig)

    p = sub.add_parser("commute", help="commutator of a highest weight tensor")
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument(
        "--algorithm",
        choices=["push-down", "push-up", "both"],
        default="both",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("check", help="validate a grid and report predicates")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PTableauError, SizeLimitExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
