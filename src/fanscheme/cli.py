"""JSON command line for fans, chart monoids, and property reports.

Exit codes: 0 on success, 1 for unreadable or malformed documents, usage
errors, Hilbert bases over their work budget (monoids.HILBERT_POINT_BUDGET)
and output integers past the interpreter's int/str digit limit, 2 when the
input is well-formed but mathematically rejected (fan validation failures,
inconsistent base descriptions).  Integer vectors travel as arrays of
decimal strings; plain integers are accepted on input.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .cones import cone_from_rays
from .fans import (
    Fan,
    FanError,
    complete_under_faces,
    fullify,
    is_complete,
    is_full,
    is_regular,
    validate_fan,
)
from .monoids import HilbertBudgetError, _cone_lattice_hilbert, dual_monoid
from .scheme import (
    BaseDescriptor,
    InconsistentBaseError,
    _DigitLimitError,
    _int_from_json,
    _int_to_json,
    build_atlas,
    check_separation_condition,
    is_openly_immersive,
    property_report,
)

EXIT_OK = 0
EXIT_DOCUMENT = 1
EXIT_REJECTED = 2


class DocumentError(Exception):
    """The input cannot be read or does not follow the format."""


def _json_text(x, pad="\n"):
    """json.dumps(x, sort_keys=True, indent=2) for exactly the types the
    commands emit: dicts with str keys, lists, tuples, str, int, bool and
    None.  Any other type, a subclass included, raises TypeError.  The same
    bytes without the pure-Python encoder that indent selects in json."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict:
        if not x:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in sorted(x.items())
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is int:
        return repr(x)
    if kind is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    raise TypeError("%s is not JSON serializable" % kind.__name__)


def _emit(payload):
    sys.stdout.write(_json_text(payload) + "\n")


def _vec_json(v):
    return [_int_to_json(c) for c in v]


def _vecs_json(vs):
    return [_vec_json(v) for v in vs]


def _load_json(path):
    def parse_int(text):
        # the decoder's own int() would end with a hint to call
        # sys.set_int_max_str_digits, which a command line user cannot do
        try:
            return _int_from_json(text, "an integer")
        except ValueError as e:
            raise DocumentError("%s: %s" % (path, e))

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as e:
        raise DocumentError("cannot read %s: %s" % (path, e.strerror or e))
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, bytes that are not UTF-8, or nesting past the
        # interpreter's stack
        raise DocumentError("%s is not valid JSON: %s" % (path, e))


def _document_int(value, where):
    try:
        return _int_from_json(value, where)
    except ValueError as e:
        raise DocumentError(str(e))


def _vector(value, rank, where):
    if not isinstance(value, list) or len(value) != rank:
        raise DocumentError(
            "%s must be an array of %d coordinates" % (where, rank)
        )
    return tuple(_document_int(x, where) for x in value)


def load_fan_document(path, auto_close=True):
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise DocumentError("fan document must be a JSON object")
    unknown = sorted(set(doc) - {"lattice_rank", "cones", "options"})
    if unknown:
        raise DocumentError("unknown fan document keys: %s" % ", ".join(unknown))
    if "lattice_rank" not in doc:
        raise DocumentError("fan document needs a lattice_rank")
    rank = _document_int(doc["lattice_rank"], "lattice_rank")
    if rank < 0:
        raise DocumentError("lattice_rank must be nonnegative")
    options = doc.get("options", {})
    if not isinstance(options, dict) or set(options) - {"auto_close_faces"}:
        raise DocumentError("options allows only auto_close_faces")
    close = options.get("auto_close_faces", True)
    if not isinstance(close, bool):
        raise DocumentError("auto_close_faces must be a boolean")
    cones_doc = doc.get("cones", [])
    if not isinstance(cones_doc, list):
        raise DocumentError("cones must be an array")
    cones = []
    for pos, entry in enumerate(cones_doc):
        if not isinstance(entry, dict) or set(entry) - {"rays"}:
            raise DocumentError(
                "cone %d must be an object with a rays array" % pos
            )
        rays_doc = entry.get("rays", [])
        if not isinstance(rays_doc, list):
            raise DocumentError("cone %d rays must be an array" % pos)
        rays = [_vector(r, rank, "cone %d ray" % pos) for r in rays_doc]
        try:
            cones.append(cone_from_rays(rank, rays))
        except ValueError as e:
            raise DocumentError("cone %d: %s" % (pos, e))
    fan = Fan(rank, cones)
    if close and auto_close:
        fan = complete_under_faces(fan)
    return fan


def load_base_document(path):
    doc = _load_json(path)
    try:
        return BaseDescriptor.from_json_dict(doc)
    except InconsistentBaseError:
        raise
    except ValueError as e:
        raise DocumentError("%s: %s" % (path, e))


def _load_valid_fan(args):
    """The fan of the document, validated; it carries its face index."""
    fan = load_fan_document(args.fan, auto_close=not args.no_auto_close)
    validate_fan(fan)
    return fan


def _pick_cone(fan, index):
    if not 0 <= index < len(fan.cones):
        raise DocumentError(
            "cone index %d out of range: the fan has %d cones"
            % (index, len(fan.cones))
        )
    return fan.cones[index]


def _cmd_validate(fan, args):
    return {"valid": True, "lattice_rank": fan.rank, "cones": len(fan.cones)}


def _cmd_hilbert(fan, args):
    c = _pick_cone(fan, args.cone)
    pointed, lin = _cone_lattice_hilbert(c)
    return {
        "cone": args.cone,
        "hilbert_basis": _vecs_json(pointed),
        "lineality_basis": _vecs_json(lin),
    }


def _cmd_dual(fan, args):
    m = dual_monoid(_pick_cone(fan, args.cone))
    return {
        "cone": args.cone,
        "generators": _vecs_json(m.generators),
        "hilbert_basis": _vecs_json(m.hilbert_pointed),
        "lineality_basis": _vecs_json(m.hilbert_lineality),
    }


def _cmd_faces(fan, args):
    c = _pick_cone(fan, args.cone)
    lattice = validate_fan(fan).lattices[c]
    out = []
    for f in lattice:
        out.append({
            "dim": f.dim,
            "rays": _vecs_json(f.rays),
            "witness": _vec_json(lattice.witnesses[f]),
        })
    return {"cone": args.cone, "faces": out}


def _cmd_regularity(fan, args):
    report = is_regular(fan)
    return {
        "regular": report.regular,
        "cones": [
            {"index": i, "regular": ok}
            for i, (_, ok) in enumerate(report.entries)
        ],
    }


def _cmd_complete(fan, args):
    return {"complete": is_complete(fan), "full": is_full(fan)}


def _cmd_atlas(fan, args):
    atlas = build_atlas(fan)
    immersion = is_openly_immersive(atlas.system, search_bound=args.search_bound)
    separation = check_separation_condition(atlas.system)
    return {
        "charts": [
            {"label": i, "generators": _vecs_json(m.generators)}
            for i, m in enumerate(atlas.charts)
        ],
        "transitions": [
            {
                "lower": i,
                "upper": j,
                "element": _vec_json(cert.element),
                "shifts": [
                    {"generator": _vec_json(h), "power": k}
                    for h, k in cert.shifts
                ],
            }
            for i, j, cert in atlas.transitions
        ],
        "sections": [s.label for s in atlas.sections],
        "openly_immersive": immersion.verdict,
        "separated": separation.separated,
    }


def _cmd_fullify(fan, args):
    result = fullify(fan)
    return {
        "torus_rank": result.torus_rank,
        "basis": _vecs_json(result.basis),
        "complement": _vecs_json(result.complement),
        "reduced": {
            "lattice_rank": result.reduced.rank,
            "cones": [{"rays": _vecs_json(c.rays)} for c in result.reduced.cones],
        },
        "cone_map": [
            [result.original.index(a), result.reduced.index(b)]
            for a, b in result.cone_map
        ],
    }


def _cmd_report(fan, args):
    base = load_base_document(args.base) if args.base else BaseDescriptor()
    return [r.to_json_dict() for r in property_report(fan, base)]


_OPTIONS = {  # flag -> add_argument keywords
    "--fan": dict(required=True, metavar="PATH", help="fan document (JSON)"),
    "--no-auto-close": dict(action="store_true",
                            help="do not add missing faces before validating"),
    "--cone": dict(required=True, type=int, metavar="INDEX",
                   help="index into the fan's cone list"),
    "--base": dict(metavar="PATH",
                   help="base descriptor document (JSON); "
                        "defaults to an all-unknown base"),
    "--search-bound": dict(type=int, default=6, metavar="N",
                           help="generator-sum bound for immersion searches"),
}

_COMMANDS = (  # name, handler, help, options beyond --fan and --no-auto-close
    ("validate", _cmd_validate, "check the fan axioms", ()),
    ("hilbert", _cmd_hilbert, "Hilbert basis of one cone's lattice points",
     ("--cone",)),
    ("dual", _cmd_dual, "generators of one cone's chart monoid", ("--cone",)),
    ("faces", _cmd_faces, "face lattice of one cone with witnesses",
     ("--cone",)),
    ("regularity", _cmd_regularity, "cone-by-cone regularity report", ()),
    ("complete", _cmd_complete, "completeness and fullness of the fan", ()),
    ("atlas", _cmd_atlas, "charts, transitions, sections, and gluing checks",
     ("--search-bound",)),
    ("fullify", _cmd_fullify, "split off the torus factor", ()),
    ("report", _cmd_report, "cited property report over a described base",
     ("--base",)),
)


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared after it.

    Parsing never mutates it: parse_args fills a fresh Namespace, help and
    usage text is formatted when printed (reading COLUMNS and the current
    sys.stdout or sys.stderr then), and each subcommand's run default is a
    module function that looks its callees up at call time.  So only
    in-process callers of entry save the set-up; a console-script run
    builds the parser once either way.  It is never built at import.
    """
    parser = argparse.ArgumentParser(
        prog="fanscheme",
        description="exact fans, chart monoids, and property reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in ("--fan", "--no-auto-close") + options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(run=run)
    return parser


def entry(argv=None):
    """Run one subcommand on argv (default sys.argv[1:]) and return its
    exit code.  The parser is built on the first call and shared, never
    mutated, by later calls in the same process (_build_parser); a
    console-script run builds it once either way.  Every subcommand runs on
    the validated fan of its --fan document, loaded here once."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_DOCUMENT if e.code else EXIT_OK
    try:
        if getattr(args, "search_bound", 0) < 0:
            raise DocumentError(
                "--search-bound must be nonnegative, got %d" % args.search_bound
            )
        payload = args.run(_load_valid_fan(args), args)
    except (DocumentError, HilbertBudgetError, _DigitLimitError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_DOCUMENT
    except (FanError, InconsistentBaseError) as e:
        rejected = {"error": str(e), "kind": e.kind}
        if args.command == "validate":
            rejected["valid"] = False
        _emit(rejected)
        return EXIT_REJECTED
    _emit(payload)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(entry())
