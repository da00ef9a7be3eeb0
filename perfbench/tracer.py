"""Traced child: run one stanleypf CLI invocation with spans around the
public functions of each module, then write the spans out.

Usage: python tracer.py SPANS_FILE OP_ID -- CLI_ARGS...

Wrappers are installed before ``stanleypf.cli`` is imported, because
``cli._SERIES_FOR_STAT`` binds the ``stanley`` series functions at import
time, and every ``from ... import`` binding of a wrapped function in any
stanleypf module is rebound too, so no call escapes the trace. Nothing in
the package is edited.

Each span is kept in memory as (name, start_ns, end_ns, parent, op_id,
busy_ns, counts), where parent is the index of the enclosing span or -1,
and the list is written as JSON when the op ends (null for a stream that
was never finished).
``busy_ns`` is the time the span's own code ran: the whole span for a
function, only the time spent inside ``next`` for a partition stream.
``counts`` holds the computed op counts of a few layers.

A stream's ``next`` is timed on one item in SAMPLE_STRIDE, less the cost
of the clock reads themselves, and its busy time is the mean of those
samples times the number of ``next`` calls. Timing every item would cost
two clock reads per partition, about 0.5 µs on a 2-core Xeon VM, which on
the oracle's 6,639,349 partitions made the traced op some 40% slower and
booked most of that in the consumer's self time; sampled, the tracer adds
tens of nanoseconds per item.

The functions in LEAVES run once per partition or per cell (about 130,000
``hook_length`` calls in one cli-cached-mix cycle). They get no span per
call: their calls and busy time are summed per enclosing span and written
as one record for each, with ``counts["calls"]`` holding the number of
calls, so the tracer's own cost per call stays a few hundred nanoseconds.

``partitions._parts_stream`` is wrapped only where ``stanley`` binds it,
which is the stream the brute-force oracle runs on (1,295,970 partitions
at n <= 50 in a verify-oracle50 op); ``partitions_of`` drives its own stream unwrapped, so no
stream time is counted twice.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from itertools import islice
from time import perf_counter_ns as clock

TRACED = {
    "partitions": ("partitions_of", "_parts_stream", "classify", "hook_length", "corner_parity_check"),
    "stanley": (
        "table_from_enumeration", "p_series", "f_series", "t_series_andrews",
        "t_series_half_sum", "u_series", "v_series", "u_progression_series",
    ),
    "series_core": (
        "series_mul", "series_reciprocal", "expand_product", "eta_quotient",
        "expand_theta", "series_dilate", "extract_progression",
    ),
    "verify": (
        "run_suite", "suite_series", "suite_combinatorial", "check_proof_steps",
        "check_congruences", "check_hook_parity", "check_corner_lemma",
        "check_hook_counting", "check_conjugation_pairing", "check_jtp", "assert_series_equal",
    ),
    "cli": (
        "main", "cache_load", "cache_store", "render_bfile", "render_csv", "render_json",
        "cmd_table", "cmd_export", "cmd_verify", "cmd_partition",
    ),
}

SAMPLE_STRIDE = 16
_END = object()

LEAVES = ("partitions.classify", "partitions.hook_length", "partitions.corner_parity_check")

spans: list = []
_stack: list[int] = []
_op_id = 0
_clock_cost = 0
# (leaf name, parent span) -> [calls, busy_ns, first start_ns, last end_ns]
_leaves: dict[tuple[str, int], list[int]] = {}


def _record(idx, name, start, end, parent, busy, counts):
    spans[idx] = (name, start, end, parent, _op_id, busy, counts)


def _wrap_function(name, fn, pre=None, post=None):
    @wraps(fn)
    def traced(*args, **kwargs):
        counts = pre(*args, **kwargs) if pre else None
        idx = len(spans)
        spans.append(None)
        parent = _stack[-1] if _stack else -1
        _stack.append(idx)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            _stack.pop()
            _record(idx, name, start, end, parent, end - start, counts)
        if post:
            _record(idx, name, start, end, parent, end - start, post(result, counts))
        return result

    return traced


def _wrap_leaf(name, fn):
    @wraps(fn)
    def traced(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            key = (name, _stack[-1] if _stack else -1)
            tally = _leaves.get(key)
            if tally is None:
                _leaves[key] = [1, end - start, start, end]
            else:
                tally[0] += 1
                tally[1] += end - start
                tally[3] = end

    return traced


def _clock_ns():
    """Median time between two back-to-back clock reads, which each timed
    ``next`` also carries."""
    pairs = []
    for _ in range(2001):
        t0 = clock()
        pairs.append(clock() - t0)
    return sorted(pairs)[1000]


def _wrap_generator(name, fn):
    @wraps(fn)
    def traced(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = _stack[-1] if _stack else -1
        timed = samples = items = 0
        start = clock()
        it = iter(fn(*args, **kwargs))
        try:
            while True:
                t0 = clock()
                item = next(it, _END)
                timed += clock() - t0 - _clock_cost
                samples += 1
                if item is _END:
                    return
                items += 1
                yield item
                for item in islice(it, SAMPLE_STRIDE - 1):
                    items += 1
                    yield item
        finally:
            # every next() (items + 1 of them) is costed at the timed ones' mean
            busy = max(0, timed) * (items + 1) // samples if samples else 0
            _record(idx, name, start, clock(), parent, busy, {"items": items})

    return traced


def _leaf_records():
    return [
        (name, first, last, parent, _op_id, busy, {"calls": calls})
        for (name, parent), (calls, busy, first, last) in _leaves.items()
    ]


# --- computed op counts -----------------------------------------------------

def _mul_count(a, b):
    # inner-loop multiplications of series_mul: sum_i [a_i != 0] (n + 1 - i)
    n = min(a.order, b.order)
    return {"coeff_mults": sum(n + 1 - i for i in range(n + 1) if a.coeffs[i])}


def _reciprocal_count(a):
    n = a.order
    return {"coeff_mults": sum(n + 1 - j for j in range(1, n + 1) if a.coeffs[j])}


def _binomial_count(spec, order):
    passes = 0
    for _sign, offset, step, exponent in spec.factors:
        if exponent:
            start = offset if offset else step
            passes += len(range(start, order + 1, step)) * abs(exponent)
    return {"binomial_passes": passes}


def _suite_count(reports, _counts):
    return {"checks_run": len(reports), "checks_passed": sum(1 for r in reports if r.passed)}


def _visited_count(_result, counts):
    # partitions yielded by the oracle streams that ran inside this call
    return {"partitions_visited": sum(
        s[6]["items"] for s in spans[counts["first_span"]:]
        if s is not None and s[0] == "partitions._parts_stream"
    )}


def _cache_count(values, _counts):
    return {"hits": 1} if values is not None else {"misses": 1}


HOOKS = {
    "series_core.series_mul": (_mul_count, None),
    "series_core.series_reciprocal": (_reciprocal_count, None),
    "series_core.expand_product": (_binomial_count, None),
    "stanley.table_from_enumeration": (lambda *_a, **_k: {"first_span": len(spans)}, _visited_count),
    "verify.run_suite": (None, _suite_count),
    "cli.cache_load": (None, _cache_count),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("stanleypf") and m]


def _trace_enumeration():
    """Span the oracle's partition stream and empty its memo."""
    import stanleypf.stanley as stanley

    stanley._parts_stream = _wrap_generator("partitions._parts_stream", stanley._parts_stream)
    # the memo must start empty, as in a fresh invocation
    stanley._enumeration_counts.cache_clear()


def _install(layers):
    modules = _package_modules()
    for layer in layers:
        defining = sys.modules[f"stanleypf.{layer}"]
        for fname in TRACED[layer]:
            if fname == "_parts_stream":
                continue  # see _trace_enumeration
            orig = getattr(defining, fname)
            name = f"{layer}.{fname}"
            if fname == "partitions_of":
                wrapper = _wrap_generator(name, orig)
            elif name in LEAVES:
                wrapper = _wrap_leaf(name, orig)
            else:
                wrapper = _wrap_function(name, orig, *HOOKS.get(name, (None, None)))
            # rebind the name wherever a module imported it, not only where defined
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    global _op_id, _clock_cost
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE OP_ID -- CLI_ARGS...")
    spans_path, _op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    _clock_cost = _clock_ns()

    import stanleypf  # noqa: F401  (imports every layer except cli)

    _trace_enumeration()
    _install(("partitions", "stanley", "series_core", "verify"))
    import stanleypf.cli as cli

    _install(("cli",))
    try:
        rc = cli.main(cli_args)
        sys.stdout.flush()
    finally:
        with open(spans_path, "w") as fh:
            json.dump(spans + _leaf_records(), fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
