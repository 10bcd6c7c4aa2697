"""The delta-scored introduce and the selecting ``Beam`` against the array-first
reference and its insort beam, entry by entry and RNG state by RNG state."""

import random
from contextlib import contextmanager

import pytest

from mhv.harness import GeneratorParams, generate, hardest_regime
from mhv.heuristic import Beam, HeuristicConfig, HeuristicSolver, LabelWeights, PartialSolution
from mhv.treedec import NodeKind, make_nice, min_fill_decompose

from corpus import tree_instance
from introduce_reference import ReferenceBeam, reference_introduce


def _state(solver, sol):
    return (*solver.arrays(sol), sol.counts, sol.score)


@contextmanager
def _bulk_offers_only():
    """Fail on any ``Beam.insert`` call and on more than two ``Beam.extend``
    calls: an introduce offers its backup list and its main list in bulk."""
    insert, extend = Beam.insert, Beam.extend
    calls = []

    def no_insert(beam, sol, rng):
        raise AssertionError("introduce offered an entry through Beam.insert")

    def counted_extend(beam, offers, rng):
        calls.append(beam)
        return extend(beam, offers, rng)

    Beam.insert, Beam.extend = no_insert, counted_extend
    try:
        yield
    finally:
        Beam.insert, Beam.extend = insert, extend
    assert len(calls) <= 2, f"introduce made {len(calls)} Beam.extend calls"


class _CheckedSolver(HeuristicSolver):
    """Runs the reference on a copy of the RNG before every introduce."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.introduces = 0
        self.dropped = 0
        self.samples = 0
        self.backups = 0

    def handle_introduce(self, idx, child_beam):
        rng = random.Random()
        rng.setstate(self.rng.getstate())
        want, main = reference_introduce(self, idx, list(child_beam), rng)
        with _bulk_offers_only():
            got = super().handle_introduce(idx, child_beam)
        assert [_state(self, s) for s in got] == [_state(self, s) for s in want.entries], (
            f"node {idx}"
        )
        assert self.rng.getstate() == rng.getstate(), f"node {idx}: RNG draws differ"
        self.introduces += 1
        self.dropped += main.dropped
        self.samples += main.samples
        self.backups += want is not main
        return got


def _sweep(n, seed):
    return generate(GeneratorParams(n=n, p=4.0 / (n - 1), k=3, q=0.5, seed=seed))


def _instances():
    rng = random.Random(606)
    yield "tree-n40", tree_instance(rng, 40)
    yield "tree-n30-q0.4", tree_instance(rng, 30, q=0.4)
    yield "hard-n30", generate(hardest_regime(30, 3, seed=61))
    yield "hard-n34", generate(hardest_regime(34, 3, seed=62))
    yield "sweep-n36", _sweep(36, 63)
    yield "sweep-n40", _sweep(40, 64)


INSTANCES = dict(_instances())
WIDTHS = (1, 4, 67)


def _check_against_reference(name, width, weights):
    inst = INSTANCES[name]
    g, col = inst.graph, inst.colouring
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    config = HeuristicConfig(
        width=width,
        weights=weights,
        join_loop_choice="random",
        seed=width,
        check_invariants=True,
    )
    solver = _CheckedSolver(g, col, nice, config)
    solver.solve()
    assert solver.introduces == sum(1 for node in nice.nodes if node.kind == NodeKind.INTRODUCE)
    if width < 67 or name.startswith("hard"):
        assert solver.dropped > 0, "no introduce left an emission out"
    return solver


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_introduce_matches_array_first_reference(name, width):
    _check_against_reference(name, width, LabelWeights())


def test_introduce_reference_exercises_the_tie_sample():
    """Some introduce cuts through a run of equal scores, so the sampled
    survivors and their draws are compared too."""
    assert _check_against_reference("hard-n30", 4, LabelWeights()).samples > 0


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_introduce_matches_reference_under_other_weights(name, width):
    """Scores are read per label, so a non-default weight set is compared
    too."""
    _check_against_reference(name, width, LabelWeights(1, -10, -5, 0))


def test_introduce_reference_exercises_the_backup_list():
    """Some introduce above returns its backup list, so the demoting path is
    compared too."""
    backups = 0
    for name in ("hard-n30", "hard-n34"):
        inst = INSTANCES[name]
        nice = make_nice(min_fill_decompose(inst.graph, seed=0), inst.graph)
        solver = _CheckedSolver(inst.graph, inst.colouring, nice, HeuristicConfig(width=1))
        solver.solve()
        backups += solver.backups
    assert backups > 0


@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5])
def test_beam_matches_insort_reference(capacity):
    """One offer at a time, random scores with many ties keep the same
    entries, in the same order, with the same RNG draws, as the reference."""
    for seed in range(40):
        offers = random.Random(seed)
        beam, reference = Beam(capacity), ReferenceBeam(capacity)
        rng, rng_ref = random.Random(seed), random.Random(seed)
        for _ in range(60):
            sol = PartialSolution(0, (0, 0, 0, 0), offers.randint(-3, 3))
            # Full and below the worst score: turned down without a draw.
            rejects = len(beam) >= capacity and sol.score < beam.scores[0]
            before = rng.getstate()
            accepted = beam.insert(sol, rng)
            assert accepted == reference.insert(sol, rng_ref)
            if rejects:
                assert not accepted and rng.getstate() == before
            assert beam.entries == reference.entries
            assert rng.getstate() == rng_ref.getstate()


def _offers(rng, count):
    """``count`` opaque entries whose scores tie often, over a spread picked
    per run."""
    spread = rng.choice((1, 3, 10))
    return [
        PartialSolution(0, (0, 0, 0, 0), rng.randint(-spread, spread)) for _ in range(count)
    ]


@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5, 67])
def test_beam_extend_matches_insort_reference(capacity):
    """Offers split into random chunks, each offered in one ``extend`` call,
    keep the entries, scores and RNG draws of the reference, checked after
    every call."""
    for seed in range(30):
        chunks = random.Random(seed)
        sols = _offers(chunks, 5 * capacity + 40)
        beam, reference = Beam(capacity), ReferenceBeam(capacity)
        rng, rng_ref = random.Random(seed), random.Random(seed)
        start = 0
        while start < len(sols):
            stop = start + chunks.randint(0, capacity + 5)
            chunk = sols[start:stop]
            beam.extend([(sol.score, sol) for sol in chunk], rng)
            reference.extend(chunk, rng_ref)
            assert beam.entries == reference.entries
            assert beam.scores == [sol.score for sol in reference.entries]
            assert rng.getstate() == rng_ref.getstate()
            start = stop


@pytest.mark.parametrize("capacity", [1, 3, 67])
def test_beam_insert_is_a_one_offer_extend(capacity):
    for seed in range(20):
        sols = _offers(random.Random(seed), 3 * capacity + 20)
        one, bulk = Beam(capacity), Beam(capacity)
        rng_one, rng_bulk = random.Random(seed), random.Random(seed)
        for sol in sols:
            bulk.extend([(sol.score, sol)], rng_bulk)
            assert one.insert(sol, rng_one) == (sol in bulk.entries)
            assert one.entries == bulk.entries and one.scores == bulk.scores
            assert rng_one.getstate() == rng_bulk.getstate()
