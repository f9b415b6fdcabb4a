"""``repro.core.knobs`` — central, validated environment-knob parsing.

Every deployment-facing knob used to be parsed at its point of use
with a bare ``int(os.environ[...])`` — so ``REPRO_SHADE_WORKERS=abc``
detonated as a raw ``ValueError`` in the middle of a draw, and
``REPRO_SHADE_WORKERS=-1`` silently produced nonsense scheduling.  This
module is the one place knob strings become values: a malformed or
out-of-range knob falls back to its default and warns **once** per
(knob, raw value) pair, naming both, instead of crashing the call
that happened to read it.

Reads stay lazy (per call, like :mod:`repro.core.cache`'s) so tests
that monkeypatch the environment see changes immediately; only the
warning is deduplicated process-wide.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Optional, Set, Tuple

__all__ = ["float_knob", "int_knob", "reset_warned"]

_WARNED: Set[Tuple[str, str]] = set()


def reset_warned() -> None:
    """Forget which (knob, value) pairs already warned (test hook)."""
    _WARNED.clear()


def _fallback(name: str, raw: str, reason: str, default):
    key = (name, raw)
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(
            f"ignoring {name}={raw!r} ({reason}); "
            f"using default {default!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    return default


def int_knob(
    name: str,
    default: Optional[int],
    *,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> Optional[int]:
    """Read an integer knob; unset/empty → ``default``, malformed or
    out-of-range → ``default`` plus a single warning."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        return _fallback(name, raw, "not an integer", default)
    if minimum is not None and value < minimum:
        return _fallback(name, raw, f"below minimum {minimum}", default)
    if maximum is not None and value > maximum:
        return _fallback(name, raw, f"above maximum {maximum}", default)
    return value


def float_knob(
    name: str,
    default: Optional[float],
    *,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> Optional[float]:
    """Read a float knob with the same fall-back-and-warn-once
    contract as :func:`int_knob`."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        return _fallback(name, raw, "not a number", default)
    if not math.isfinite(value):
        # NaN never compares in range, and ±inf sails over any maximum
        # — a timeout of "inf" must not disable the deadline silently.
        return _fallback(name, raw, "not finite", default)
    if minimum is not None and value < minimum:
        return _fallback(name, raw, f"below minimum {minimum}", default)
    if maximum is not None and value > maximum:
        return _fallback(name, raw, f"above maximum {maximum}", default)
    return value
