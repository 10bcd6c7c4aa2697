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


def test_check_reports_moved_digests_and_writes_nothing(tmp_path, monkeypatch, capsys):
    import make_golden

    name = "edgeless-n7"
    lock = {name: dict(GOLDEN[name])}
    path = tmp_path / "golden.json"
    monkeypatch.setattr(make_golden, "INSTANCES", {name: INSTANCES[name]})
    monkeypatch.setattr(make_golden, "GOLDEN_PATH", path)
    path.write_text(json.dumps(lock))
    assert make_golden.main(["--check"]) == 0
    case = sorted(lock[name])[0]
    lock[name][case] = {**lock[name][case], "happy": -1}
    text = json.dumps(lock)
    path.write_text(text)
    assert make_golden.main(["--check"]) == 1
    assert f"{name}: 1 of {len(lock[name])} digests moved" in capsys.readouterr().out
    assert path.read_text() == text
