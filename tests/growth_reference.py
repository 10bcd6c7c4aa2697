"""Linear-scan reference for Growth-MHV's picks and relabelling.

Growth-MHV as first written: ``_pick`` scans every vertex for the one of the
wanted label with the highest degree, then the lowest id, and
``_relabel_around`` recomputes every label within three hops of the vertices
a step handled.  It checks ``GrowthRun``, whose picks read per-class heaps
and whose relabelling covers two hops.  The step cascade and its RNG draws
are ``GrowthRun.step`` itself, so a caller can compare the two runs' centres,
colours, labels and RNG states after every step.
"""

from __future__ import annotations

from mhv.baselines import GrowthLabel, GrowthRun, _coloured_label, _uncoloured_label


class ReferenceGrowthRun(GrowthRun):
    def _pick(self, wanted: GrowthLabel) -> int | None:
        best = None
        best_key: tuple[int, int] | None = None
        for v in range(self.g.n):
            if self.labels[v] != wanted:
                continue
            key = (-self.g.degrees[v], v)
            if best_key is None or key < best_key:
                best_key = key
                best = v
        return best

    def _relabel_around(self, sources: list[int]) -> None:
        # Labels can shift up to three edges away from a coloured vertex.
        region = set(sources)
        frontier = list(region)
        for _ in range(3):
            nxt: list[int] = []
            for v in frontier:
                for u in self.g.adjacency[v]:
                    if u not in region:
                        region.add(u)
                        nxt.append(u)
            frontier = nxt
        for v in region:
            if self.colours[v]:
                self.labels[v] = _coloured_label(self.g, self.colours, v)
        for v in region:
            if not self.colours[v]:
                self.labels[v] = _uncoloured_label(self.g, self.colours, self.labels, v)
