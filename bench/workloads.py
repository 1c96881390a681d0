"""Seeded inputs for the three benchmark workloads.

Every workload is a list of ``Item``s built from ``--seed`` alone, so the
same seed gives the same inputs.  Each item records the traffic
properties later changes may depend on: state count, cost kind, whether
the normalized cost has a zero-cost pair, and how many cost entries came
from floats with large-denominator exact values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import oracle

BUILTIN_NAMES = ("coin_game", "three_state_abs", "two_coin", "zero_class")

#: scaled_worst state counts: both sides of the n > 6 grid-skip boundary.
#: n = 6 itself (5 s a report) and n >= 10 are left out to fit a run.
SCALED_NS = (2, 3, 4, 5, 7, 8, 9)
SCALED_ESTIMATORS = ("mode", "mean", "median", "bayes")
SCALED_SEARCH = {"resolution": 0.1, "refine_iterations": 10}
SCALED_PASSES = 8

EXPLICIT_NS = tuple(range(2, 13))
EXPLICIT_KINDS = ("matrix_ties", "matrix_float", "payoff", "abs", "squared", "zero_one")
EXPLICIT_CYCLES = 40


@dataclass(frozen=True)
class Item:
    """One report the closed loop runs."""

    key: str
    n: int
    kind: str
    fmt: str
    text: str | None  # scenario document; None for a built-in
    doc: dict | None
    cost: tuple  # normalized cost, exact
    zero_pair: bool
    float_entries: int
    entries: int


def _item(key: str, n: int, kind: str, fmt: str, cost_kind: str, data, embedding,
          doc: dict | None = None) -> Item:
    raw = oracle.raw_cost(cost_kind, data, embedding, n)
    cost = oracle.normalize(raw)
    return Item(
        key=key,
        n=n,
        kind=kind,
        fmt=fmt,
        text=None if doc is None else json.dumps(doc),
        doc=doc,
        cost=tuple(map(tuple, cost)),
        zero_pair=any(cost[s][t] == 0 for s in range(n) for t in range(n) if s != t),
        float_entries=sum(1 for row in raw for v in row if v.denominator != 1),
        entries=n * n,
    )


def _doc_item(doc: dict, kind: str, fmt: str) -> Item:
    (cost_kind, data), = doc["cost"].items()
    return _item(doc["name"], len(doc["states"]), kind, fmt, cost_kind, data,
                 doc.get("embedding"), doc)


def builtins_items(seed: int) -> list[Item]:
    """The four shipped built-ins; they take no input, so the seed is unused."""
    import costrisk

    scenarios = costrisk.builtin_scenarios()
    items = []
    for name in BUILTIN_NAMES:
        sc = scenarios[name]
        data = sc.cost_profile if sc.cost_kind == "profile" else sc.cost_matrix
        items.append(
            _item(name, len(sc.states), sc.cost_kind, "json", sc.cost_kind, data, sc.embedding)
        )
    return items


def scaled_items(seed: int) -> list[Item]:
    """Worst-case documents with cost |x_s - x_t|^p on n evenly spaced
    states, one estimator a document and p drawn from (1, 2) per document.
    A pass holds every (n, estimator) pair once; each pass draws anew."""
    rng = random.Random(f"scaled_worst:{seed}")
    items = []
    for k in range(SCALED_PASSES):
        for n in SCALED_NS:
            xs = [float(i) for i in range(n)]
            for est in SCALED_ESTIMATORS:
                p = rng.uniform(1.0, 2.0)
                raw = [[abs(a - b) ** p for b in xs] for a in xs]
                doc = {
                    "name": f"scaled_{k}_n{n}_{est}",
                    "states": [f"x{i}" for i in range(n)],
                    "embedding": xs,
                    "cost": {"matrix": raw},
                    "distribution": "worst_case",
                    "estimators": [est],
                    "search": dict(SCALED_SEARCH),
                }
                items.append(_doc_item(doc, "matrix", "json"))
    return items


def _diag_to_column(raw, pick) -> None:
    n = len(raw)
    for t in range(n):
        raw[t][t] = pick(raw[s][t] for s in range(n))


def _embedding(rng: random.Random, n: int) -> list[float]:
    return [v / 1000 for v in sorted(rng.sample(range(-3000, 3001), n))]


def _explicit_doc(rng: random.Random, index: int, n: int, kind: str, with_embedding: bool):
    labels = [f"s{i}" for i in range(n)]
    embedding = _embedding(rng, n)
    if kind == "matrix_ties":
        # tests/conftest.random_valid_cost without the /20, which
        # normalization removes: many ties and zero-cost pairs
        raw = [[rng.randint(-5, 15) for _ in range(n)] for _ in range(n)]
        _diag_to_column(raw, min)
        cost = {"matrix": raw}
    elif kind == "matrix_float":
        raw = [[round(rng.uniform(0.0, 10.0), 3) for _ in range(n)] for _ in range(n)]
        _diag_to_column(raw, min)
        cost = {"matrix": raw}
    elif kind == "payoff":
        raw = [[round(rng.uniform(-5.0, 5.0), 2) for _ in range(n)] for _ in range(n)]
        _diag_to_column(raw, max)
        cost = {"payoff": raw}
    else:
        cost = {"profile": kind}
    weights = [rng.choice((0, 1, 2, 3, rng.randint(0, 40))) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    doc = {
        "name": f"explicit_{index}",
        "states": labels,
        "cost": cost,
        "distribution": [w / total for w in weights],
        "estimators": ["mode", "mean", "median", "bayes"] if with_embedding else ["mode", "bayes"],
    }
    if with_embedding:
        doc["embedding"] = embedding
    return doc


def explicit_items(seed: int) -> list[Item]:
    """Explicit-posterior documents, n = 2..12 over six cost kinds.

    Every cycle holds each (n, kind) pair once in seeded order; across
    cycles each pair alternates text and json output, and with and without
    an embedding (which adds the mean and median estimators; abs and
    squared always have one).  So the mix is the same for every seed and
    only the contents vary.
    """
    rng = random.Random(f"explicit_batch:{seed}")
    cells = [(n, kind) for kind in EXPLICIT_KINDS for n in EXPLICIT_NS]
    items = []
    for cycle in range(EXPLICIT_CYCLES):
        order = list(range(len(cells)))
        rng.shuffle(order)
        for k in order:
            n, kind = cells[k]
            with_embedding = kind in ("abs", "squared") or (k // 2 + cycle) % 2 == 0
            doc = _explicit_doc(rng, len(items), n, kind, with_embedding)
            items.append(_doc_item(doc, kind, ("text", "json")[(k + cycle) % 2]))
    return items


WORKLOADS = {
    "builtins": builtins_items,
    "scaled_worst": scaled_items,
    "explicit_batch": explicit_items,
}

#: Items in one pass of each workload: a run stops only at a pass end,
#: so every run holds the same mix.
PASS_SIZE = {
    "builtins": len(BUILTIN_NAMES),
    "scaled_worst": len(SCALED_NS) * len(SCALED_ESTIMATORS),
    "explicit_batch": len(EXPLICIT_NS) * len(EXPLICIT_KINDS),
}


def traffic(items: list[Item]) -> dict:
    """Traffic properties of the reports a run attempted."""
    hist: dict[str, int] = {}
    kinds: dict[str, int] = {}
    for it in items:
        hist[str(it.n)] = hist.get(str(it.n), 0) + 1
        kinds[it.kind] = kinds.get(it.kind, 0) + 1
    count = max(1, len(items))
    return {
        "reports": len(items),
        "n_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
        "cost_kind_mix": {k: round(v / count, 4) for k, v in sorted(kinds.items())},
        "zero_pair_share": round(sum(it.zero_pair for it in items) / count, 4),
        "float_entry_share": round(
            sum(it.float_entries for it in items) / max(1, sum(it.entries for it in items)), 4
        ),
    }
