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
    ("coin_game", "json"): "1ecc4d4b9d04ec7bfbe31b4147278db8e9750fe2a00d443cd012165864996760",
    ("coin_game", "text"): "cd30049ce46ff76fa78531ce1f59329aa3743974d263f95be04a055c3fed32bf",
    ("three_state_abs", "json"): "348b97c0a8437271829dc17325fd1d0806df3f6142ce5b8c87129334274a850e",
    ("three_state_abs", "text"): "3b13ffefa1645a9b5e34949cac38d6f2c388ba6671119231cb0ab79b053c9540",
    ("two_coin", "json"): "c09a2072d331634710d56341ff79d0bc4e4d04e35f2fd358270d4d5d07d68c4b",
    ("two_coin", "text"): "110dc86b5aa18fd05efa454e24e1f84e447fd1024360c4f0621354140323e4b7",
    ("zero_class", "json"): "b02b6395a2251a35b8144cd292851f65aac6e4e1e7b960061a0465e1f440cfa3",
    ("zero_class", "text"): "fc0f7611e3da3f26416bf80232ad995c24aa1f0dc36ddc0af3f2631ced44ca99",
}


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_builtin_report_bytes(name, fmt, capsys):
    assert main(["builtin", name, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[(name, fmt)]


EXPLICIT_KINDS = ("matrix_ties", "matrix_float", "payoff", "abs", "squared", "zero_one")

EXPLICIT_GOLDEN = {
    "json": "b9e8d4dcac222036b50f105e06c85e8cee1e7e332d2111ddecaad850ccfcbae0",
    "text": "5253db51a35ec8a938e45461c9336929d554b5da9ea2b280ac85bef18c370919",
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
