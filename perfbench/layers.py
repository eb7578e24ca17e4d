"""The per-layer metrics, computed from aggregated spans and workload counts.

Each layer is a module of squaretriads.  `calls` are exact counts of
wrapped calls during the traced input; `self_s` is the sum of the spans'
self time; `max_s` is the longest single call.  Counts that are not span
statistics (triads found, output sizes, pool CPU) come from the workload.
"""

from __future__ import annotations

from spans import totals

# spans whose calls and self time are reported
_CALLS_AND_SELF = (
    "exactnum.is_perfect_square",
    "exactnum.factorize",
    "exactnum.sum_of_two_squares",
    "exactnum.squarefree_decompose",
    "exactnum.is_prime",
    "multipoly.poly_gcd",
    "multipoly.poly_sqrt",
    "multipoly.poly_divide_exact",
    "multipoly.RatFunc.arith",
    "multipoly.evaluate",
    "multipoly.exact_sqrt",
    "triads.verify_triad",
    "triads.canonicalize",
    "triads.rational_to_integer_triad",
    "triads.is_sum_two_rational_squares",
    "quartic.fermat_ascend",
    "quartic.choudhry_compose",
    "families.evaluate_family",
)
# spans whose self time alone is reported
_SELF_ONLY = (
    "multipoly.poly_lcm",
    "multipoly.squarefree_decomposition",
    "pipeline.cubic_root_triple",
    "pipeline.polynomialize_roots",
    "pipeline.canonical_triple",
    "pipeline.square_witnesses",
    "ecurve.ec_mul",
    "ecurve.xy_to_quartic",
    "ecurve.line_to_plane",
)
_GCD_KINDS = ("univar", "bivar_hom", "general")


def _stat(span: str, key: str, tag: str | None = None):
    return lambda agg, extra: totals(agg, span, tag)[key]


def _ratio(span: str, tag: str):
    def compute(agg, extra):
        calls = totals(agg, span)["calls"]
        return totals(agg, span, tag)["calls"] / calls if calls else 0.0

    return compute


def _extra(key: str):
    return lambda agg, extra: extra.get(key, 0)


def _catalogue():
    out = [
        ("search.search_triads.self_s", "s", _stat("search.search_triads", "self_s")),
        ("search.triads_found", "count", _extra("search.triads_found")),
        ("search.pool.child_cpu_s", "s", _extra("search.pool.child_cpu_s")),
        ("search.pool.utilization", "ratio", _extra("search.pool.utilization")),
    ]
    for span in _CALLS_AND_SELF:
        out.append((span + ".calls", "count", _stat(span, "calls")))
        out.append((span + ".self_s", "s", _stat(span, "self_s")))
        if span == "exactnum.is_perfect_square":
            out.append((span + ".hit_ratio", "ratio", _ratio(span, "hit")))
        elif span == "exactnum.factorize":
            out.append((span + ".max_s", "s", _stat(span, "max_s")))
        elif span == "multipoly.poly_sqrt":
            out.append((span + ".none_ratio", "ratio", _ratio(span, "none")))
        elif span == "multipoly.poly_gcd":
            for kind in _GCD_KINDS:
                out.append(("%s.%s.calls" % (span, kind), "count", _stat(span, "calls", kind)))
                out.append(("%s.%s.self_s" % (span, kind), "s", _stat(span, "self_s", kind)))
    for span in _SELF_ONLY:
        out.append((span + ".self_s", "s", _stat(span, "self_s")))
    out += [
        ("ecurve.generate_family.degree_sum", "count", _extra("ecurve.generate_family.degree_sum")),
        ("ecurve.generate_family.terms_sum", "count", _extra("ecurve.generate_family.terms_sum")),
        ("ecurve.generate_family.coeff_bits_max", "bits", _extra("ecurve.generate_family.coeff_bits_max")),
        ("trace.overhead_s", "s", _extra("trace.overhead_s")),
    ]
    return tuple(out)


# (name, unit, compute(span aggregate, workload counts)) in report order
PER_LAYER = _catalogue()


def absent_metrics(workload: str, metrics: dict) -> dict[str, str]:
    """Why each per-layer metric that reads 0 on this workload is absent."""
    out = {}
    for name, (value, _unit) in metrics.items():
        if value:
            continue
        if name.startswith("search.pool."):
            reason = "no process pool on this workload"
        elif name.startswith("ecurve.generate_family."):
            reason = "no families are generated on this workload"
        elif workload == "search-par":
            reason = (
                "not reached on the parent side; spans inside the forked pool workers are not "
                "collected, so this workload reports the parent side and search.pool.child_cpu_s"
            )
        else:
            reason = "this workload does not reach it"
        out[name] = reason
    return out
