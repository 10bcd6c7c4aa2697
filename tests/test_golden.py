"""Behaviour lock: every solver still reproduces ``tests/golden.json``.

A failure here means a change altered what a solver returns for a fixed
seed: its happy count, colouring, optimality flag or final labels.  See
``tests/make_golden.py`` for what is pinned and when regenerating is right.
"""

import json

import pytest

from make_golden import GOLDEN_PATH, INSTANCES, digests

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_instance():
    assert sorted(GOLDEN) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden(name):
    got = digests(name)
    want = GOLDEN[name]
    assert sorted(got) == sorted(want)
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"{name}: {len(changed)} of {len(want)} solves changed, first {changed[:3]}"
