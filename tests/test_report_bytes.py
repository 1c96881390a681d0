"""Golden report bytes: the built-in reports must not change by a byte.

The hashes are sha256 digests of ``costrisk builtin NAME --format FMT``
stdout.  A change that moves any of them changes what users see and
must say so.
"""

import hashlib

import pytest

from costrisk.cli import main

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
