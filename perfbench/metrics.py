"""Per-layer metrics of the traced run, and what each should move.

BENCHMARK.json gives every metric its unit and direction; this module
computes the per-layer ones from a Tracer and records, for each, the
end-to-end metrics and workloads it should move (``MOVES``) and the
workloads where it should stay flat.  selfcheck.py checks that both
agree with BENCHMARK.json.
"""

from tracer import LAYERS, ROOT_LAYER

# what the tracer records beyond plain call counts
MEASURES = {
    "monoids.dual_monoid": lambda m: len(m.generators),
    "monoids.hilbert_basis": len,
    "monoids.check_openly_immersive_pair": lambda r: int(r.verdict != "unknown"),
    "scheme.check_separation_condition": lambda r: len(r.entries),
}
for _name in ("monoid_algebra.AlgebraElement.from_terms",
              "monoid_algebra.multiply", "monoid_algebra.localization_image",
              "monoid_algebra.base_change", "monoid_algebra.exp_map"):
    MEASURES[_name] = lambda a: len(a.terms)

CONTEXTS = {
    "monoids.dual_monoid": "hilbert",
    "monoids.hilbert_basis": "hilbert",
    "monoids.check_openly_immersive_pair": "immersion",
}
CONTEXT_COUNTS = (
    ("hilbert", "cones.contains_point"),
    ("immersion", "monoids.monoid_contains"),
)
DISTINCT_ARGS = ("cones.faces",)

HILBERT_CALLS = ("monoids.dual_monoid", "monoids.hilbert_basis")
DD_BUILDS = ("cones.cone_from_rays", "cones.intersect_cones", "cones.dual_cone")
ALGEBRA_TERMS = tuple(n for n in MEASURES if n.startswith("monoid_algebra."))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_counts(t):
    """Every per-layer count of one traced pass; these repeat exactly
    between runs with the same seed."""
    faces = t.count("cones.faces")
    hilbert_out = sum(t.measured.get(n, 0) for n in HILBERT_CALLS)
    return {
        "cli.calls": t.layer_calls("cli"),
        "scheme.separation_pairs": t.measured.get(
            "scheme.check_separation_condition", 0),
        "scheme.from_fan_calls": t.count("scheme.MonoidSystem.from_fan"),
        "fans.validate_calls": t.count("fans.validate_fan"),
        "monoid_algebra.calls": t.layer_calls("monoid_algebra"),
        "monoid_algebra.terms_out": sum(t.measured.get(n, 0) for n in ALGEBRA_TERMS),
        "monoids.hilbert_calls": sum(t.count(n) for n in HILBERT_CALLS),
        "monoids.hilbert_yield": _ratio(
            hilbert_out, t.in_context[("hilbert", "cones.contains_point")]),
        "monoids.contains_calls": t.count("monoids.monoid_contains"),
        "monoids.immersion_yield": _ratio(
            t.measured.get("monoids.check_openly_immersive_pair", 0),
            t.in_context[("immersion", "monoids.monoid_contains")]),
        "cones.dd_builds": sum(t.count(n) for n in DD_BUILDS),
        "cones.faces_calls": faces,
        "cones.faces_repeat_ratio": _ratio(faces, len(t.args_seen["cones.faces"])),
        "cones.contains_point_calls": t.count("cones.contains_point"),
        "lattice.calls": t.layer_calls("lattice"),
        "lattice.hnf_calls": t.count("lattice.hnf_rows"),
        "lattice.smith_calls": t.count("lattice.smith_rows"),
    }


def layer_times(t, traced_wall):
    """Self time of every layer and of the harness around the calls."""
    out = {"%s.self_s" % layer: t.layer_self_time(layer) for layer in LAYERS}
    out["%s.self_s" % ROOT_LAYER] = t.layer_self_time(ROOT_LAYER)
    out["trace.wall_s"] = traced_wall
    return out


# metric -> (end-to-end metrics it should move, workloads where it should
# move them, workloads where it should stay flat)
_TORIC = ("toric_cli",)
_HILB = ("hilbert_singular",)
_EXPL = ("explicit_systems",)
_ALL = _TORIC + _HILB + _EXPL
_FACE = ("wall_s", "job_p90_ms")
_BOX = ("wall_s", "peak_rss_mb")
MOVES = {
    "cones.self_s": (_FACE, _TORIC, _HILB),
    "cones.dd_builds": (_FACE, _TORIC, _HILB),
    "cones.faces_calls": (_FACE, _TORIC, _HILB),
    "cones.faces_repeat_ratio": (_FACE, _TORIC, _HILB),
    "fans.self_s": (_FACE, _TORIC, _HILB),
    "fans.validate_calls": (_FACE, _TORIC, _HILB),
    "lattice.hnf_calls": (_FACE, _TORIC, _HILB),
    "monoids.self_s": (_BOX, _HILB, _TORIC),
    "monoids.hilbert_calls": (_BOX, _HILB, _TORIC),
    "monoids.hilbert_yield": (_BOX, _HILB, _TORIC),
    "cones.contains_point_calls": (_BOX, _HILB, _TORIC),
    "monoids.contains_calls": (("wall_s", "job_p50_ms"), _TORIC + _EXPL, ()),
    "scheme.self_s": (("wall_s", "job_p50_ms"), _TORIC + _EXPL, ()),
    "scheme.separation_pairs": (("wall_s", "job_p50_ms"), _TORIC + _EXPL, ()),
    "scheme.from_fan_calls": (("wall_s", "job_p50_ms"), _TORIC + _EXPL, ()),
    "monoids.immersion_yield": (("wall_s", "job_p50_ms"), _EXPL, ()),
    "monoid_algebra.self_s": (("wall_s", "job_p50_ms"), _EXPL, ()),
    "monoid_algebra.calls": (("wall_s", "job_p50_ms"), _EXPL, ()),
    "monoid_algebra.terms_out": (("wall_s", "job_p50_ms"), _EXPL, ()),
    "cli.self_s": (("job_p50_ms",), _TORIC, ()),
    "cli.calls": (("job_p50_ms",), _TORIC, ()),
    "lattice.self_s": (("wall_s",), _ALL, ()),
    "lattice.calls": (("wall_s",), _ALL, ()),
    "lattice.smith_calls": (("wall_s",), _ALL, ()),
    "bench.self_s": ((), (), _ALL),
    "trace.wall_s": (("wall_s",), _ALL, ()),
    "trace.overhead_ratio": ((), (), _ALL),
}
