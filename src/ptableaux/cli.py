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
    dual,
    matrix_from_biword,
    matrix_from_ptableau,
    ptableau_from_word,
    rsk,
    word_from_ptableau,
)
from .core import (
    ParsedWord,
    PTableau,
    Word,
    _grid_from_text,
    _letters_from_text,
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
from .graph import (
    _too_many_words,
    component,
    decompose,
    export_dot,
    export_json,
    words_closure,
)
from .operators import apply_ops, to_highest_weight
from .tensor import (
    _partition,
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
    return _partition(int(t) for t in text.split(","))


def _read_model(text: str, model: str = "ptab", rank=None, cuts=None):
    """``text`` read as ``model`` (--from/--type): a ParsedWord for a word or
    a parsed word, else the PTableau of its count matrix.  "auto" reads JSON,
    or text with a "." or a line break, as a ptableau and anything else as a
    word; ``rank`` (--rank) and ``cuts`` (--parse) apply to words only."""
    stripped = text.strip()
    if model == "auto":
        looks_ptab = stripped.startswith("{") or "." in stripped or "\n" in stripped
        model = "ptab" if looks_ptab else "word"
    if model not in ("word", "parsed"):
        if cuts:
            raise PTableauError(f"--parse cuts words, not a {model} input")
        if rank is not None:
            raise PTableauError(f"--rank applies to words, not a {model} input")
        if model == "ptab" and stripped.startswith("{"):
            return PTableau.from_json(stripped)
        if model == "ptab":
            return PTableau.from_text(stripped)
        if model == "biword":
            mat = matrix_from_biword(Biword.from_text(text))
        else:
            mat = NNMatrix.from_text(text)
        # a matrix holds the counts of the dual
        return dual(PTableau._from_counts(mat.entries, mat.cols))
    if cuts:
        pw = ParsedWord.from_text(cuts, rank)
        letters = [a for piece in text.split("|") for a in _letters_from_text(piece)]
        if pw.word.letters != tuple(letters):
            raise PTableauError(f"--parse {cuts} does not cut the letters of {stripped}")
        return pw
    if "|" in text:
        return ParsedWord.from_text(text, rank)
    return minimal_parsing(Word.from_text(text, rank))


def _write(model, fmt: str) -> None:
    """Print ``model``: its JSON object under --format json, if it has one,
    else its text."""
    if fmt == "json" and hasattr(model, "to_json_obj"):
        print(json.dumps(model.to_json_obj(), sort_keys=True))
    else:
        print(model.to_text())


def cmd_convert(args) -> int:
    # every model is read as one ptableau: its count matrix is the pivot,
    # and every target is written from it
    tab = _read_model(_read_input(args.value), args.model, args.rank, args.parse)
    tab = ptableau_from_word(tab) if isinstance(tab, ParsedWord) else tab
    target = args.target
    if target in ("word", "parsed"):
        pw = word_from_ptableau(tab)
        _write(pw.word if target == "word" else pw, args.format)
    elif target in ("ptab", "dual"):
        _write(tab if target == "ptab" else dual(tab), args.format)
    elif target in ("biword", "matrix"):
        mat = matrix_from_ptableau(tab)
        _write(biword_from_matrix(mat) if target == "biword" else mat, args.format)
    else:
        pair = rsk(biword_from_matrix(matrix_from_ptableau(tab)))
        if args.format == "json":
            obj = {"P": pair.insertion.to_json_obj(), "Q": pair.recording.to_json_obj()}
            print(json.dumps(obj, sort_keys=True))
        else:
            print(pair.insertion.to_text() + "\n\n" + pair.recording.to_text())
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
    obj = _read_model(_read_input(args.input), args.model, args.rank, args.parse)
    out = apply_ops(obj, _parse_ops(args.ops))
    if out is None:
        print("NULL")
    else:
        _write(out, args.format)
    return 0


def cmd_hw(args) -> int:
    seed = _read_model(_read_input(args.input), args.model, args.rank, args.parse)
    seed = ptableau_from_word(seed) if isinstance(seed, ParsedWord) else seed
    top, seq = to_highest_weight(seed)
    _write(top, args.format)
    print("ops: " + " ".join(f"e{i}" for i in seq))
    return 0


def cmd_crystal(args) -> int:
    seed = _read_model(_read_input(args.seed), args.model, args.rank, args.parse)
    seed = ptableau_from_word(seed) if isinstance(seed, ParsedWord) else seed
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
    if _too_many_words(args.rank, args.length, args.max_nodes):
        raise SizeLimitExceeded(
            f"{args.rank}**{args.length} words exceed --max-nodes {args.max_nodes}"
        )
    # ranks 0 and 1 have at most one word, however long: cap its letters too
    if args.length > args.max_nodes:
        raise SizeLimitExceeded(
            f"words of {args.length} letters exceed --max-nodes {args.max_nodes}"
        )
    comps = decompose(
        words_closure(args.rank, args.length, max_nodes=args.max_nodes),
        max_nodes=args.max_nodes,
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
            # no irreducible of GL_n has more than n rows
            oracle = 0 if any(lam[n:]) else len(classical_lr_fillings(lam, mu, nu))
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
    tab = _read_model(_read_input(args.input))
    _write(evacuate(tab), args.format)
    print("ops: " + " ".join(f"f{i}" for i in evacuation_as_operators(tab)))
    return 0


def cmd_lusztig(args) -> int:
    _write(lusztig_involution(_read_model(_read_input(args.input))), args.format)
    return 0


def cmd_commute(args) -> int:
    if args.input:
        product = _read_model(_read_input(args.input))
        if args.split is None:
            raise PTableauError("--split is required with a pre-tensored input")
        split = args.split
    else:
        if not (args.left and args.right):
            raise PTableauError("provide --left and --right, or --in with --split")
        left = _read_model(_read_input(args.left))
        right = _read_model(_read_input(args.right))
        product = tensor(left, right)
        split = left.content_bound
    results = {}
    if args.algorithm in ("push-down", "both"):
        results["push-down"] = push_down(product, split)
    if args.algorithm in ("push-up", "both"):
        results["push-up"] = push_up(product, split)
    if len(results) == 2 and results["push-down"] != results["push-up"]:
        raise InternalInvariantError("push-down and push-up disagree")
    _write(next(iter(results.values())), args.format)
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
    p.add_argument("--type", dest="model", choices=["word", "ptab", "auto"], default="auto")
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
    p.add_argument("--from", dest="model", choices=models + ["auto"], default="auto")
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
        help=(
            "refuse sizes with more than this many words (rank**length)"
            " or a --length above it"
        ),
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
