"""Output checks shared by the benchmark driver and its tests (standard library only).

Reference outputs are compared the way ``zetastrip compare`` compares
reports: numbers by relative deviation (default 1e-9), everything else by
equality, and any difference in structure is a deviation.
"""

from __future__ import annotations

import math

REFERENCE_REL_TOL = 1e-9


def flatten(value, prefix: str = "") -> dict[str, object]:
    """Leaf values of nested dicts/lists keyed by dotted/indexed path."""
    out: dict[str, object] = {}
    if isinstance(value, dict):
        for key in value:
            out.update(flatten(value[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{index}]"))
    else:
        out[prefix] = value
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def deviations(current, reference, rel_tol: float = REFERENCE_REL_TOL) -> list[str]:
    """Fields where ``current`` departs from ``reference``; empty when they agree."""
    flat_cur = flatten(current)
    flat_ref = flatten(reference)
    found = [f"{name}: missing" for name in sorted(set(flat_ref) - set(flat_cur))]
    found += [f"{name}: not in reference" for name in sorted(set(flat_cur) - set(flat_ref))]
    for name in sorted(set(flat_cur) & set(flat_ref)):
        a, b = flat_cur[name], flat_ref[name]
        if _is_number(a) != _is_number(b):
            found.append(f"{name}: {type(a).__name__} vs reference {type(b).__name__}")
        elif _is_number(a):
            diff = abs(float(a) - float(b))
            if diff == 0.0:
                continue
            scale = max(abs(float(a)), abs(float(b)))
            relative = diff / scale if scale > 0.0 else math.inf
            if not relative <= rel_tol:
                found.append(f"{name}: {a!r} vs reference {b!r} (relative {relative:.2e})")
        elif type(a) is not type(b) or a != b:
            found.append(f"{name}: {a!r} vs reference {b!r}")
    return found


def apply_reference(items: list[dict], reference: dict[str, object]) -> list[dict]:
    """Mark each item failed whose outputs deviate from its reference entry.

    ``reference`` maps item names to recorded outputs.  An item with no
    recorded entry fails too, so a changed item list cannot pass unnoticed.
    """
    checked = []
    for item in items:
        item = dict(item)
        if item["name"] not in reference:
            found = ["no reference entry"]
        else:
            found = deviations(item["outputs"], reference[item["name"]])
        if found:
            item["ok"] = False
            item["detail"] = f"{item['detail']}; reference deviation: {'; '.join(found[:3])}"
        checked.append(item)
    return checked
