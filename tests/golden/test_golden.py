"""Every golden CLI entry reproduces its expected bytes (see regen.py)."""

import regen


def test_every_entry_matches(tmp_path):
    expected = regen.load_expected()
    got = regen.observe_all(tmp_path)
    assert [regen.entry_key(r) for r in got] == [regen.entry_key(r) for r in expected]
    differ = [regen.entry_key(w) for g, w in zip(got, expected) if g != w]
    assert not differ, f"{len(differ)} golden entries differ: {differ}"
