"""Span recorders around the program's public functions.

Each wrapped function is replaced, in the namespace of the module that calls
it, by a wrapper that records a span (name, start, end, parent, op id) in
memory and bumps the counters of its layer.  `Tracer.install` returns the
originals so the caller can restore them.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter
from math import prod
from time import perf_counter

from threedom import engine, groups, manifold, witness


def _parse_count(c, args, result):
    c["manifold.parse_manifold.chars"] += len(args[0])


def _cover_count(c, args, result):
    c["engine.seifert_cover_parameters.degree_sum"] += result[1]


def _schema_count(c, args, result):
    c["witness.branched_cover_schema.target_pieces"] += len(result.target.pieces)


def _oracle_count(c, args, result):
    c["groups.rank_oracle.cosets"] += prod(args[0].orders)


def _verify_count(c, args, result):
    c["witness.verify_schema.checks"] += len(result.checks)
    c["witness.verify_schema.zero_check_passes"] += result.passed and not result.checks


def _fold_count(c, args, result):
    c["groups.stallings_fold.letters"] += sum(map(len, args[0]))
    c["groups.stallings_fold.vertices"] += result.vertex_count()


# (module, attribute, span name, counter) for every call site that is traced.
TARGETS = (
    (manifold, "parse_manifold", "manifold.parse_manifold", _parse_count),
    (witness, "parse_manifold", "manifold.parse_manifold", _parse_count),
    (manifold, "normalize_manifold", "manifold.normalize_manifold", None),
    (engine, "dominated_by_product", "engine.dominated_by_product", None),
    (engine, "dominated_by_nontrivial_circle_bundle",
     "engine.dominated_by_nontrivial_circle_bundle", None),
    (engine, "dominated_by_any_circle_bundle", "engine.dominated_by_any_circle_bundle", None),
    (engine, "presentable_by_products", "engine.presentable_by_products", None),
    (engine, "cross_check", "engine.cross_check", None),
    (engine, "seifert_cover_parameters", "engine.seifert_cover_parameters", _cover_count),
    (engine, "product_branched_cover_schema", "witness.branched_cover_schema", _schema_count),
    (engine, "bundle_branched_cover_schema", "witness.branched_cover_schema", _schema_count),
    (witness, "schema_to_dict", "witness.schema_to_dict", None),
    (witness, "schema_from_dict", "witness.schema_from_dict", None),
    (witness, "verify_schema", "witness.verify_schema", _verify_count),
    (witness, "stallings_fold", "groups.stallings_fold", _fold_count),
    (groups, "reidemeister_schreier_rank_oracle", "groups.rank_oracle", _oracle_count),
)


class Tracer:
    """In-memory span list plus per-layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._op_start = 0

    def begin_op(self, op: int) -> None:
        """Start operation `op`, closing any span a deadline cut short."""
        now = perf_counter()
        for span in self.spans[self._op_start:]:
            if span[2] is None:
                span[2] = now
        self._stack.clear()
        self._op_start = len(self.spans)
        self.op = op

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result
        return wrapper

    def install(self) -> list[tuple]:
        """Replace every target by its wrapper; returns what to restore."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _, _ in TARGETS]
        for (module, attr, name, count), (_, _, fn) in zip(TARGETS, originals):
            setattr(module, attr, self._wrap(name, fn, count))
        return originals

    @staticmethod
    def restore(originals: list[tuple]) -> None:
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    def self_ms(self) -> Counter:
        """Total self time per span name, in milliseconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += (end - start - child) * 1e3
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path) -> None:
        """One JSON array per span: name, start and end (s), parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
