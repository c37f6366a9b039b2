"""Hypothesis properties: every way the service encodes a body agrees.

A sweep body reaches the wire three ways — encoded whole in the worker
(``work.*_body``), assembled from a stream's NDJSON lines (``sweep_body``),
or replayed from the result cache — and a stream's lines come from
``work.*_lines``.  These properties pin each of them to the one canonical
encoder, ``encode_payload`` / ``encode_ndjson_line``, byte for byte,
including the floats JSON spells specially (NaN, ±Infinity, -0.0) and
subnormals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import work
from repro.service.httpio import encode_ndjson_line, encode_payload, sweep_body
from repro.service.schemas import OverlayRequest, UnderlayRequest

specials = st.sampled_from(
    (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 2.2e-308)
)
numbers = st.floats(allow_nan=True, allow_infinity=True) | specials
sizes = st.integers(min_value=0, max_value=16)


def _row(keys, ints):
    """Rows of one sweep shape: ``ints`` keys hold ints, the rest floats."""
    return st.fixed_dictionaries(
        {key: (sizes if key in ints else numbers) for key in keys}
    )


overlay_shaped = _row(
    ("d1", "m", "bandwidth", "p_direct", "p_relay", "e1", "b_direct", "d2",
     "b_simo", "d3", "b_miso"),
    ("m", "b_direct", "b_simo", "b_miso"),
).map(lambda row: dict(row, feasible=bool(row["d2"] == row["d2"])))
underlay_shaped = _row(
    ("mt", "mr", "b", "d", "distance", "total_pa", "peak_pa"), ("mt", "mr", "b")
)
# Strings (with newlines, quotes and non-ASCII) must survive the join too.
texty = st.dictionaries(st.text(max_size=4), st.text() | numbers | sizes, max_size=4)
rows = st.lists(overlay_shaped | underlay_shaped | texty, max_size=40)

counts = st.integers(min_value=1, max_value=4)
bandwidths = st.sampled_from((10e3, 20e3, 40e3))
conventions = st.sampled_from(("paper", "diversity_only"))
d1_axes = st.lists(st.floats(min_value=1.0, max_value=400.0), min_size=1, max_size=12)
distance_axes = st.lists(
    st.floats(min_value=1.0, max_value=2000.0), min_size=1, max_size=12
)


def _rows_payload(computed):
    return encode_payload({"rows": computed, "count": len(computed)})


@given(rows)
@settings(max_examples=300, deadline=None)
def test_sweep_body_equals_the_payload_encoding(drawn):
    lines = [encode_payload(row) for row in drawn]
    assert sweep_body(lines) == _rows_payload(drawn)


def test_empty_sweep_body():
    assert sweep_body([]) == _rows_payload([]) == b'{"count": 0, "rows": []}'


@given(rows)
@settings(max_examples=100, deadline=None)
def test_ndjson_line_is_the_payload_encoding_plus_newline(drawn):
    for row in drawn:
        assert encode_ndjson_line(row) == encode_payload(row) + b"\n"


@given(d1_axes, counts, bandwidths, conventions)
@settings(max_examples=40, deadline=None)
def test_overlay_lines_and_body(axis, m, bandwidth, convention):
    request = OverlayRequest(
        d1=tuple(axis), m=m, bandwidth=bandwidth, convention=convention
    )
    computed = work.overlay_rows(request)
    lines = work.overlay_lines(request)
    assert [line + b"\n" for line in lines] == [
        encode_ndjson_line(row) for row in computed
    ]
    assert work.overlay_body(request) == _rows_payload(computed) == sweep_body(lines)


@given(distance_axes, counts, counts, bandwidths, conventions)
@settings(max_examples=40, deadline=None)
def test_underlay_lines_and_body(axis, mt, mr, bandwidth, convention):
    request = UnderlayRequest(
        p=1e-3, mt=mt, mr=mr, d=5.0, distances=tuple(axis), bandwidth=bandwidth,
        convention=convention,
    )
    computed = work.underlay_rows(request)
    lines = work.underlay_lines(request)
    assert [line + b"\n" for line in lines] == [
        encode_ndjson_line(row) for row in computed
    ]
    assert work.underlay_body(request) == _rows_payload(computed) == sweep_body(lines)


def test_64_point_sweeps_of_both_kinds():
    """The plan-sweep benchmark's size: 64 points per request."""
    overlay = OverlayRequest(
        d1=tuple(5.0 + 5.0 * i for i in range(64)), m=2, bandwidth=40e3
    )
    underlay = UnderlayRequest(
        p=1e-3, mt=2, mr=3, d=5.0, distances=tuple(10.0 * (i + 1) for i in range(64)),
        bandwidth=10e3,
    )
    for rows_fn, lines_fn, body_fn, request in (
        (work.overlay_rows, work.overlay_lines, work.overlay_body, overlay),
        (work.underlay_rows, work.underlay_lines, work.underlay_body, underlay),
    ):
        computed = rows_fn(request)
        assert len(computed) == 64
        assert body_fn(request) == _rows_payload(computed) == sweep_body(lines_fn(request))
