import copy
import json

import oracles
import traffic
from httpgen import Sample


def _sample(request, status=200, body=b"", rows=()):
    sample = Sample(request, str(request.index))
    sample.status, sample.body, sample.rows = status, body, list(rows)
    return sample


def _stream_sample():
    request = traffic.Request(
        index=0, due_s=0.0, kind="underlay_sweep", stream=True,
        body=traffic.encode(traffic.underlay_body(traffic.sweep_axis(40.0))))
    rows = oracles.Direct().expected("underlay_sweep", json.loads(request.body))
    lines = [json.dumps(row, sort_keys=True).encode() + b"\n" for row in rows]
    return _sample(request, rows=lines + [b'{"count": 64, "done": true}\n'])


def test_a_correct_stream_passes_structure_and_direct_checks():
    sample = _stream_sample()
    assert oracles.check_structure(sample) is None
    assert oracles.Direct().check(sample) is None


def test_a_truncated_or_altered_stream_fails():
    truncated = _stream_sample()
    truncated.rows = truncated.rows[:-2] + truncated.rows[-1:]
    assert "terminal row" in oracles.check_structure(truncated)
    altered = _stream_sample()
    row = json.loads(altered.rows[5])
    row["total_pa"] *= 1.0 + 1e-12
    altered.rows[5] = json.dumps(row).encode()
    assert oracles.check_structure(altered) is None
    assert "differs" in oracles.Direct().check(altered)


def test_accounting_reconciles_and_catches_a_lost_row():
    sample = _stream_sample()
    before = {
        "requests_by_endpoint": {"/metrics": 1},
        "responses_by_status": {},
        "streams": {"rows": 7},
        "result_cache": {"hits": 0},
        "coalesce": {"requests": 0},
        "pool": {"completed": 3},
    }
    after = copy.deepcopy(before)
    after["requests_by_endpoint"].update({"/metrics": 2, "/v1/underlay/energy": 1})
    after["responses_by_status"]["200"] = 2
    after["streams"]["rows"] += 65
    after["pool"]["completed"] += 1
    assert oracles.accounting("plan-sweep", before, after, [sample]) == []
    after["streams"]["rows"] -= 1
    (mismatch,) = oracles.accounting("plan-sweep", before, after, [sample])
    assert "streams.rows" in mismatch
    assert len(oracles.accounting("plan-unique", before, after, [sample])) == 3
