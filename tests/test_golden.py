"""The golden fixture: filters, objectives and couplings reproduce tests/golden.json.

``make_golden.py`` holds the grid and writes the file.  Forward values must
match exactly; gradient projections and max-abs values to 1e-13 relative.
"""

import json

import make_golden as mg

GRAD_RTOL = 1e-13


def _grad_mismatches(got: dict, want: dict) -> list:
    out = []
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            out.append(f"gradient {name!r} present on one side only")
            continue
        w = [float.fromhex(v) for v in want[name]]
        g = [float.fromhex(v) for v in got[name]]
        for i, (a, b) in enumerate(zip(g, w)):
            if abs(a - b) > GRAD_RTOL * max(abs(b), w[-1]):
                out.append(f"gradient {name!r}[{i}]: {a!r} != {b!r}")
    return out


def mismatches(got, want) -> list:
    """What differs between a recomputed entry and its golden value."""
    if not isinstance(want, dict) or "grads" not in want:
        return [] if got == want else [f"{got!r} != {want!r}"]
    out = [f"{k}: {got.get(k)!r} != {v!r}" for k, v in want.items() if k != "grads" and got.get(k) != v]
    return out + _grad_mismatches(got["grads"], want["grads"])


def test_grad_comparison_is_relative():
    want = {"value": "0x1.0p+0", "grads": {"a": [(1.0).hex(), (2.0).hex(), (0.0).hex(), (3.0).hex()]}}
    near = {"value": "0x1.0p+0", "grads": {"a": [(1.0 + 1e-15).hex(), (2.0).hex(), (1e-14).hex(), (3.0).hex()]}}
    far = {"value": "0x1.0p+0", "grads": {"a": [(1.0 + 1e-12).hex(), (2.0).hex(), (0.0).hex(), (3.0).hex()]}}
    assert mismatches(near, want) == []
    assert len(mismatches(far, want)) == 1
    assert len(mismatches({**near, "value": "0x1.0000000000001p+0"}, want)) == 1


def test_golden_values_are_reproduced():
    want = json.loads(mg.GOLDEN.read_text())
    got = mg.compute()
    assert sorted(got) == sorted(want)
    bad = [f"{key}: {m}" for key in sorted(want) for m in mismatches(got[key], want[key])]
    assert not bad, f"{len(bad)} golden mismatches:\n" + "\n".join(bad[:20])


def test_check_reports_every_bit_level_move():
    want = {
        "same": {"value": "0x1.0p+0", "grads": {"a": [(1.0).hex()]}},
        "grad": {"value": "0x1.0p+0", "grads": {"a": [(1.0).hex()]}},
        "states": [[0, 1], [1, 1]],
        "gone": "0x1.0p+0",
    }
    got = {
        "same": want["same"],
        "grad": {"value": "0x1.0p+0", "grads": {"a": [(1.0 + 2**-52).hex()]}},  # inside GRAD_RTOL
        "states": [[0, 1], [1, 0]],
        "new": "0x1.0p+0",
    }
    moved = mg.moved_keys(got, want)
    assert sorted(moved) == ["gone", "grad", "new", "states"]
    assert moved["grad"] == 2**-52
    assert moved["states"] == moved["gone"] == moved["new"] == float("inf")


def test_check_names_the_fields_that_moved():
    want = {"value": "0x1.0p+0", "grad_value": "0x1.0p+0", "grads": {"a": [(1.0).hex()]}}
    got = {**want, "grads": {"a": [(1.0 + 2**-52).hex()]}, "extra": "0x1.0p+0"}
    assert mg.moved_fields(got, want) == ["extra", "grads"]
    assert mg.moved_fields(want, want) == []
    assert mg.moved_fields([[0, 1]], [[1, 0]]) == []  # an enumeration's paths are no fields
    assert mg.moved_fields(None, want) == []  # a key on one side only
