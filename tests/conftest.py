"""Fixtures shared by the test modules."""

import pytest

from ifslab import _blocks, cli, measures
from ifslab.restrictions import Phi


@pytest.fixture
def phi_floors(monkeypatch):
    """Every argument ``Phi.floor`` is called with while the test runs, in
    call order; the floors themselves are unchanged."""
    calls = []
    floor = Phi.floor

    def spy(self, n):
        calls.append(n)
        return floor(self, n)

    monkeypatch.setattr(Phi, "floor", spy)
    return calls


@pytest.fixture
def forced_blocks(monkeypatch):
    """Force the block count of localdim's sample blocks and boxdim's line
    blocks, down to one sample or line a block (splitting still needs
    os.fork); return the list of (lo, hi) of every block forked since."""
    forked = []
    fork_block = _blocks._fork_block

    def spy(run_block, lo, hi, children):
        forked.append((lo, hi))
        return fork_block(run_block, lo, hi, children)

    def force(blocks):
        forked.clear()
        monkeypatch.setattr(_blocks, "_cpu_count", lambda: blocks)
        monkeypatch.setattr(measures, "_BLOCK_MIN_SAMPLES", 1)
        monkeypatch.setattr(cli, "_READ_BLOCK_LINES", 1)

    monkeypatch.setattr(_blocks, "_fork_block", spy)
    force.forked = forked
    return force
