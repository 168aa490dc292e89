"""Command-line frontend.

Exit codes: 0 for YES/success, 1 for NO/absence, 2 for usage, parse, or
I/O errors, 3 for a bad ``GRIG_MAX_DEPTH``, a quotient build that fails
to certify, or an internal invariant violation.  Identity elements print
as "1" to match the input syntax.  The global ``--json`` flag switches
every command to a machine-readable single-object output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import engine, quotient, search, sptree, words


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_reduce(args) -> int:
    w = words.parse(args.word)
    _emit(args, {"word": words.format_word(w)}, [words.format_word(w)])
    return 0


def _cmd_norm(args) -> int:
    w = words.parse(args.word)
    weights = words.TABULATED_WEIGHTS if args.table_weights else words.EXACT_WEIGHTS
    value = words.norm(w, weights)
    _emit(args, {"word": words.format_word(w), "norm": value}, [f"{value:.4f}"])
    return 0


def _cmd_equal(args) -> int:
    u, v = words.parse(args.word1), words.parse(args.word2)
    same = words.equal(u, v)
    _emit(args, {"equal": same}, ["YES" if same else "NO"])
    return 0 if same else 1


def _cmd_conj(args) -> int:
    u, v = words.parse(args.word1), words.parse(args.word2)
    res = engine.solve([u, v])
    conj = res.record(u).rep is res.record(v).rep
    payload = {"conjugate": conj}
    if conj:
        payload["q_set"] = quotient.mask_cosets(res.q_set(u, v))
    _emit(args, payload, ["YES" if conj else "NO"])
    return 0 if conj else 1


def _read_words_file(path: str) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(words.parse(line))
    return out


def _cmd_pairs(args) -> int:
    inputs = _read_words_file(args.file)
    found = engine.conjugate_pairs(inputs)
    if found is None:
        _emit(args, {"pair": None}, ["NONE"])
        return 1
    _emit(args, {"pair": list(found)}, [f"{found[0]} {found[1]}"])
    return 0


def _cmd_conjugator(args) -> int:
    u, v = words.parse(args.word1), words.parse(args.word2)
    x = search.find_conjugator(u, v)
    if x is None:
        _emit(args, {"conjugator": None}, ["NONE"])
        return 1
    payload = {"conjugator": words.format_word(x)}
    lines = [words.format_word(x)]
    if args.verify:
        if not words.equal(u, words.product(words.product(words.inverse(x), v), x)):
            raise AssertionError(f"conjugator of length {len(x)} failed the --verify re-check")
        # Polynomial length: log_n |x| over n input letters, as monitored
        # by acceptance criterion 8 against its bound of 8.
        log_n = math.log(max(len(x), 1), max(2, len(u) + len(v)))
        payload.update({"verified": True, "length": len(x), "length_log_n": log_n})
        lines.append("verified: YES")
        lines.append(f"length {len(x)}, log_n {log_n:.2f} (bound 8)")
    _emit(args, payload, lines)
    return 0


def _cmd_tree(args) -> int:
    w = words.parse(args.word)
    tree = sptree.build_tree(w)
    payload = {
        "word": words.format_word(w),
        "vertex_count": tree.vertex_count,
        "total_norm": tree.total_norm,
        "total_label_length": tree.total_label_len,
        "height": tree.height,
    }
    lines = [
        f"vertices\t{tree.vertex_count}",
        f"total_norm\t{tree.total_norm:.4f}",
        f"height\t{tree.height}",
    ]
    if args.stats:
        n = words.norm(w)
        t9 = sptree.build_tree9(w)
        payload.update(
            {
                "norm": n,
                "t9_vertex_count": t9.vertex_count,
                "t9_total_norm": t9.total_norm,
                "total_norm_over_norm": tree.total_norm / n if n else None,
                "t9_norm_over_norm": t9.total_norm / n if n else None,
                "t9_vertices_over_norm": t9.vertex_count / n if n else None,
                "label_length_over_length": tree.total_label_len / len(w) if w else None,
            }
        )
        lines.append(f"norm\t{n:.4f}")
        lines.append(f"t9_vertices\t{t9.vertex_count}")
        lines.append(f"t9_total_norm\t{t9.total_norm:.4f}")
        if n:
            lines.append(f"ratio_total_norm\t{tree.total_norm / n:.4f}\t(bound 275)")
            lines.append(f"ratio_t9_norm\t{t9.total_norm / n:.4f}\t(bound 35)")
            lines.append(f"ratio_t9_vertices\t{t9.vertex_count / n:.4f}\t(bound 4)")
        if w:
            lines.append(
                f"ratio_label_letters\t{tree.total_label_len / len(w):.4f}\t(bound 800)"
            )
    _emit(args, payload, lines)
    return 0


def _cmd_table9(args) -> int:
    weights = words.TABULATED_WEIGHTS
    rows = []
    for w in words.norm9_universe(weights):
        kids = ",".join(words.format_word(c) for c in words.split_children(w))
        rows.append((words.format_word(w), words.norm(w, weights), kids))
    if args.json:
        print(
            json.dumps(
                [{"word": w, "norm": n, "descendants": k} for w, n, k in rows]
            )
        )
    else:
        for w, n, k in rows:
            print(f"{w}\t{n:.4f}\t{k}")
    return 0


def _cmd_quotient_dump(args) -> int:
    t = quotient.get_tables()
    if args.json:
        print(
            json.dumps(
                {
                    "stabilizer_depth": t.stabilizer_depth,
                    "mul": [list(row) for row in t.mul],
                    "inv": list(t.inv),
                    "gen_coset": t.gen_coset,
                    "pairs": [list(p) for p in t.pairs],
                    "lift": {f"{g0},{g1}": t.lift[(g0 << 4) | g1] for g0, g1 in t.pairs},
                    "base_q": {
                        words.format_word(w): quotient.mask_cosets(m) for w, m in t.base_q.items()
                    },
                }
            )
        )
        return 0
    print(f"stabilizer_depth\t{t.stabilizer_depth}")
    print("# mul")
    for i, row in enumerate(t.mul):
        print(f"{i}\t" + "\t".join(str(x) for x in row))
    print("# inv")
    print("\t".join(str(x) for x in t.inv))
    print("# gen_coset")
    for ch in "abcd":
        print(f"{ch}\t{t.gen_coset[ch]}")
    print("# lift (g0, g1, lifted)")
    for g0, g1 in t.pairs:
        print(f"{g0}\t{g1}\t{t.lift[(g0 << 4) | g1]}")
    print("# base_q")
    for w in ("", "a", "b", "c", "d"):
        print(
            f"{words.format_word(w)}\t"
            + ",".join(str(g) for g in quotient.mask_cosets(t.base_q[w]))
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grigconj",
        description="Decision procedures for the first Grigorchuk group.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="rewrite a word to reduced form")
    p.add_argument("word")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("norm", help="weighted norm of a word")
    p.add_argument("word")
    p.add_argument(
        "--table-weights",
        action="store_true",
        help="use the rounded weights of the reference table",
    )
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("equal", help="decide equality of two words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("conj", help="decide conjugacy of two words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("pairs", help="find a conjugate pair in a word list file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("conjugator", help="construct a conjugating element")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_conjugator)

    p = sub.add_parser("tree", help="splitting-tree statistics")
    p.add_argument("word")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("table9", help="the norm < 9 universe as TSV")
    p.set_defaults(func=_cmd_table9)

    p = sub.add_parser("quotient-dump", help="dump the derived quotient tables")
    p.set_defaults(func=_cmd_quotient_dump)

    return parser


# Invariant violations inside the library.  They must not reach the exit
# codes 0/1, which read as answers.
_INTERNAL_ERRORS = (
    AssertionError,
    engine.CapacityViolation,
    search.LiftResidual,
    search.BaseIncomplete,
    quotient.SandwichGap,
)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (words.InvalidCharacter, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (quotient.ConfigError, quotient.BuildDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INTERNAL_ERRORS as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
