"""Prefix-loop reference for ``HeuristicSolver.handle_join``.

The join as first written: one loop over the outer list that merges each
outer solution with its exact partner and, while no exact merge has been
made, merges each one without a partner with its nearest inner solution into
a backup list.  The backup list is returned only if no exact merge was made,
so every backup built before the first exact partner is thrown away whenever
one follows.  It checks the solver's join, which builds backups only when
no outer solution has an exact partner, but for the draws of ``greedy_match``.
"""

from __future__ import annotations

from mhv.heuristic import _FIRST_IS_OUTER, Beam, HeuristicSolver, PartialSolution, entry_rank


class PrefixJoinSolver(HeuristicSolver):
    """A solver whose joins build the backups of the outer prefix before the
    first exact partner, whatever the merge method."""

    def handle_join(self, idx: int, first: Beam, second: Beam) -> Beam:
        node = self.nice.nodes[idx]
        bag = tuple(sorted(node.bag))
        first_is_outer = _FIRST_IS_OUTER[self.config.join_loop_choice](self.rng, first, second)
        outer, inner = (first, second) if first_is_outer else (second, first)
        cb, lw, lanes = self._cb, self._lw, self._lanes
        key_lane = (1 << cb) - 1 | 1 << cb
        key_mask = 0
        for v in bag:
            key_mask |= key_lane << lw * lanes[v]
        inner_entries = sorted(inner.entries, key=entry_rank, reverse=True)
        partners: dict[int, PartialSolution] = {}
        for inner_sol in inner_entries:
            partners.setdefault(inner_sol.state & key_mask, inner_sol)
        exact: list[tuple[int, PartialSolution]] = []
        backup: list[tuple[int, PartialSolution]] = []
        masks = ring = None
        for outer_sol in outer:
            partner = partners.get(outer_sol.state & key_mask)
            if partner is not None:
                merged = self.merge_exact(outer_sol, partner)
                exact.append((merged.score, merged))
            elif not exact:
                if masks is None:
                    masks = self.distance_masks(bag, outer_sol)
                    ring = self._ring(outer_sol.layout, node.bag)
                nearest = min(inner_entries, key=lambda sol: self.tuple_distance(outer_sol, sol, masks))
                for merged in self.merge_heuristic(outer_sol, nearest, bag, ring):
                    backup.append((merged.score, merged))
        beam = Beam(self.config.width)
        beam.extend(exact or backup, self.rng)
        return beam
