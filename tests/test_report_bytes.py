"""Golden report bytes: the built-in reports and a seeded batch of
explicit-posterior reports must not change by a byte.

The built-in hashes are sha256 digests of ``costrisk builtin NAME
--format FMT`` stdout; the explicit hashes digest the concatenated
reports of ``_explicit_docs()`` in one format.  A change that moves any
of them changes what users see and must say so.
"""

import hashlib
import json
import random

import pytest

from costrisk.cli import main
from costrisk.scenario import parse_scenario, render_report, run_scenario

GOLDEN = {
    ("coin_game", "json"): "0d9ca18e8fcd4855c5c52a634069eb5406a781484414e46ce45594fb42ceed64",
    ("coin_game", "text"): "3b2e48bebd7e9058d1adca20d40d6cfe5cf7c275d7cc7755d530ef17b7eae9a3",
    ("three_state_abs", "json"): "2cd32a6fc3dbc1fc4fdb6030d2c1144f33e9661e86f8753fcee29d9492dae062",
    ("three_state_abs", "text"): "5aa3d07a95a84daea1866a00a9fdb9138639a86a5832e8dc44fe5d55e9a7bcc0",
    ("two_coin", "json"): "0bdf9d5ba007464ec6eafd6120facc29cd4afbf8179f985db20420b94f80d004",
    ("two_coin", "text"): "c3ab1e69712771e16e88808c5428d7a78a17754d2595c438abd7ee9313731489",
    ("zero_class", "json"): "f932fd79a8908473044bbed0cc84f16731537bc003f2c1b0b02521bb3a377d1c",
    ("zero_class", "text"): "891cbacfad7c4bf40b72e8403ca52de10a0d6b3645076da260593cbafe3b3221",
}


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_builtin_report_bytes(name, fmt, capsys):
    assert main(["builtin", name, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[(name, fmt)]


EXPLICIT_KINDS = ("matrix_ties", "matrix_float", "payoff", "abs", "squared", "zero_one")

EXPLICIT_GOLDEN = {
    "json": "31970a7eb4a0f4378bcf886e81c4779d293b6e28be870a6c2ca3dcc073a0506f",
    "text": "d64d8531e4e1bfda92c3250307d7d1b47a8f481470482131c601fc6b13a554f8",
}


def _explicit_docs():
    """66 explicit-posterior documents: every n = 2..12 with every cost
    kind once (11 and 6 are coprime), alternately with and without an
    embedding; abs and squared always have one."""
    rng = random.Random(20261017)
    docs = []
    for k in range(66):
        n = 2 + k % 11
        kind = EXPLICIT_KINDS[k % 6]
        if kind == "matrix_ties":
            # small integers: ties and zero-cost pairs after normalization
            raw = [[rng.randint(-5, 15) for _ in range(n)] for _ in range(n)]
            for t in range(n):
                raw[t][t] = min(raw[s][t] for s in range(n))
            cost = {"matrix": raw}
        elif kind == "matrix_float":
            raw = [[round(rng.uniform(0.0, 10.0), 3) for _ in range(n)] for _ in range(n)]
            for t in range(n):
                raw[t][t] = min(raw[s][t] for s in range(n))
            cost = {"matrix": raw}
        elif kind == "payoff":
            raw = [[round(rng.uniform(-5.0, 5.0), 2) for _ in range(n)] for _ in range(n)]
            for t in range(n):
                raw[t][t] = max(raw[s][t] for s in range(n))
            cost = {"payoff": raw}
        else:
            cost = {"profile": kind}
        # float probabilities w / total need not sum to exactly 1
        weights = [rng.choice((0, 1, 2, 3, rng.randint(0, 40))) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        embedded = kind in ("abs", "squared") or (k // 6) % 2 == 0
        doc = {
            "name": f"explicit_{k}",
            "states": [f"s{i}" for i in range(n)],
            "cost": cost,
            "distribution": [w / total for w in weights],
            "estimators": ["mode", "mean", "median", "bayes"] if embedded else ["mode", "bayes"],
        }
        if embedded:
            doc["embedding"] = [v / 1000 for v in sorted(rng.sample(range(-3000, 3001), n))]
        docs.append(json.dumps(doc))
    return docs


def test_explicit_report_bytes():
    digests = {fmt: hashlib.sha256() for fmt in EXPLICIT_GOLDEN}
    for text in _explicit_docs():
        report = run_scenario(parse_scenario(text))
        for fmt, digest in digests.items():
            digest.update(render_report(report, fmt).encode("utf-8"))
    assert {fmt: d.hexdigest() for fmt, d in digests.items()} == EXPLICIT_GOLDEN
