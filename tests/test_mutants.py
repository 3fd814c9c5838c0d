"""The mutant table of tests/mutants.py still applies to the source."""

from mutants import MUTANTS, ROOT


def test_every_anchor_occurs_once():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new in MUTANTS:
        assert old != new, name
        assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1, name
