"""Bounded hypothesis settings, so the property tests keep tier-1 fast
and reproducible: a fixed example budget, no per-example deadline, a
derandomized search and no example database left behind.  The in_blocks
fixture runs a kernel under numtheory's one block rule, whole and split."""

import pytest
from hypothesis import settings

import sparsemod.numtheory as numtheory

settings.register_profile("tier1", max_examples=60, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def in_blocks(monkeypatch):
    """in_blocks(module, kernel, *args) -> (whole, split, blocks): kernel's
    result under the default rule, and again with numtheory.SWEEP_ENTRIES
    at 1, so that each block holds about p entries; blocks lists how many
    row blocks each of the two runs took, read from module.row_blocks."""
    def run(module, kernel, *args):
        blocks = []

        def counted(*rule_args):
            slices = list(numtheory.row_blocks(*rule_args))
            blocks.append(len(slices))
            return iter(slices)

        monkeypatch.setattr(module, "row_blocks", counted)
        whole = kernel(*args)
        with monkeypatch.context() as m:
            m.setattr(numtheory, "SWEEP_ENTRIES", 1)
            split = kernel(*args)
        return whole, split, blocks
    return run
