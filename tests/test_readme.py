"""The README's library example runs and states what it computes.

The example is executed as written; each value its comments state must
be what the package computes, to the digits shown.  An API change that
leaves the README stale then fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_its_comments_hold():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(),
                            re.DOTALL)
    scope: dict = {}
    exec(compile(example, str(README), "exec"), scope)
    eq, ts, hc = scope["eq"], scope["ts"], scope["hc"]
    stated = [
        f"m = {eq.m:.3f}, a = {eq.a:.4f}",
        f"tau = {ts.tau:.5f}, omega = {ts.omega:.5f}, mode {ts.n0}",
        f"c1 = {hc.c1.real:.4f} - {-hc.c1.imag:.4f}i, mu2 > 0",
        "beta2 < 0",
    ]
    for claim in stated:
        assert claim in example
    assert hc.mu2 > 0.0
    assert hc.beta2 < 0.0
