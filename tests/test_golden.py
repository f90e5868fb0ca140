"""The golden run record (``golden/__init__.py``): the grid's runs still
produce what ``golden/runs.jsonl`` holds.  Under the record's BLAS
fingerprint they match it to the byte; under any other, the byte test
skips, saying so, and the relative test is the one that checks."""

import json

import pytest

import golden


@pytest.fixture(scope="module")
def current():
    return golden.runs()


def test_record_matches_to_the_byte(current):
    recorded_fingerprint, _ = golden.read()
    if recorded_fingerprint != golden.fingerprint():
        pytest.skip(
            f"BLAS fingerprint {golden.fingerprint()} is not the record's "
            f"{recorded_fingerprint}: compared within REL_TOL only"
        )
    recorded = golden.RECORD.read_text(encoding="utf-8").splitlines()[1:]
    changed = golden.differences([json.loads(line) for line in recorded], current)
    assert [json.dumps(run) for run in current] == recorded, "\n".join(changed)


def test_record_matches_within_the_bound(current):
    _, recorded = golden.read()
    changed = golden.differences(recorded, current, exact=False)
    assert not changed, "\n".join(changed)
