"""Catalog of M-estimator losses and their half-quadratic weight functions.

Each catalog entry is a symmetric penalty ``phi(e)`` of a scalar residual
with ``phi(0) = 0``, together with the weight function

    ``delta(e) = phi'(e) / e``

extended by continuity at ``e = 0``.  In the multiplicative half-quadratic
decomposition ``phi(e) = min_p (1/2) p e^2 + psi(p)`` the optimal auxiliary
weight for a fixed residual is exactly ``delta(e)``, which is what the
alternating solver uses; ``psi`` itself never needs to be evaluated.

Catalog (``s`` denotes the scale field):

=========  ================================  ==============================
kind       phi(e)                            delta(e)
=========  ================================  ==============================
welsch     1 - exp(-e^2 / s^2)               (2/s^2) exp(-e^2 / s^2)
l1l2       sqrt(1 + e^2) - 1                 1 / sqrt(1 + e^2)
huber      e^2 / (4 s)      for |e| < 2 s    1 / max(|e|, 2 s)
           |e| - s          otherwise
fair       s^2 (|e|/s - ln(1 + |e|/s))       1 / (1 + |e|/s)
logcosh    ln(cosh(e))                       tanh(e) / e
=========  ================================  ==============================

``welsch`` is bounded (``phi < 1``) and redescending: its weight decays to
zero for large residuals, which is what buys outlier robustness.  The other
four are convex and unbounded with weights decaying like ``1/|e|`` or
slower.  ``l1l2`` and ``logcosh`` are fixed-shape: their ``scale`` is
ignored and treated as 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import EnsembleError

WELSCH = "welsch"
L1L2 = "l1l2"
HUBER = "huber"
FAIR = "fair"
LOGCOSH = "logcosh"

#: All loss kinds, in catalog order.
KINDS = (WELSCH, L1L2, HUBER, FAIR, LOGCOSH)

#: Kinds whose shape actually depends on the scale field.
SCALED_KINDS = (WELSCH, HUBER, FAIR)

#: Convex members of the catalog (everything but welsch).
CONVEX_KINDS = (L1L2, HUBER, FAIR, LOGCOSH)

#: Default fitting ensemble: one redescending + two convex losses.
DEFAULT_ENSEMBLE_TEXT = "welsch,l1l2,huber"

#: Welsch scales at or below this overflow the weight ``2 / s^2`` at 0.
WELSCH_MIN_SCALE = math.sqrt(2.0 / sys.float_info.max)

#: Welsch and fair scales above this overflow ``s^2``: welsch's weight
#: ``2/s^2`` reads 0 and fair's ``phi(0) = s^2 * 0`` NaN.
SQUARE_MAX_SCALE = math.sqrt(sys.float_info.max)

#: Huber scales outside this closed range take the weight ``1/(2s)`` at 0
#: out of the float range, to inf below it and to 0 above it.
HUBER_SCALE_RANGE = (math.nextafter(0.5 / sys.float_info.max, math.inf),
                     sys.float_info.max / 2.0)


@dataclass(frozen=True)
class LossSpec:
    """One catalog loss: a ``kind`` plus its positive ``scale``.

    The scale is sigma for welsch, epsilon for huber and c for fair; it is
    ignored for the fixed-shape kinds (l1l2, logcosh).

    Raises :class:`EnsembleError` if ``kind`` is not one of ``KINDS``, if
    ``scale`` is not a finite positive real, or if the kernels leave the
    float range at ``e = 0``: a welsch ``scale`` not above
    :data:`WELSCH_MIN_SCALE`, a welsch or fair ``scale`` above
    :data:`SQUARE_MAX_SCALE`, or a huber ``scale`` outside
    :data:`HUBER_SCALE_RANGE`.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise EnsembleError(
                f"unknown loss kind {self.kind!r}; expected one of {', '.join(KINDS)}")
        scale = float(self.scale)
        if not np.isfinite(scale) or scale <= 0.0:
            raise EnsembleError(
                f"loss {self.kind!r} needs a finite positive scale, got {self.scale!r}")
        if self.kind == WELSCH and not scale > WELSCH_MIN_SCALE:
            raise EnsembleError(f"loss 'welsch' needs a scale above {WELSCH_MIN_SCALE!r}, "
                                f"where its weight 2/s^2 is finite, got {self.scale!r}")
        if self.kind in (WELSCH, FAIR) and scale > SQUARE_MAX_SCALE:
            raise EnsembleError(f"loss {self.kind!r} needs a scale of at most "
                                f"{SQUARE_MAX_SCALE!r}, where s^2 is finite, got {self.scale!r}")
        lo, hi = HUBER_SCALE_RANGE
        if self.kind == HUBER and not lo <= scale <= hi:
            raise EnsembleError(f"loss 'huber' needs a scale from {lo!r} to {hi!r}, where "
                                f"its weight 1/(2s) is finite and positive, got {self.scale!r}")

    def uses_scale(self) -> bool:
        return self.kind in SCALED_KINDS

    def effective_key(self):
        """Identity used for duplicate detection: scale only counts where
        it changes the function."""
        return (self.kind, float(self.scale) if self.uses_scale() else None)

    def label(self) -> str:
        """Short CLI-grammar form, e.g. ``welsch:1.5`` or ``l1l2``."""
        if self.uses_scale() and float(self.scale) != 1.0:
            return f"{self.kind}:{_fmt_scale(self.scale)}"
        return self.kind


@dataclass(frozen=True)
class EnsembleSpec:
    """Ordered collection of at least one :class:`LossSpec`, no two of
    them the same function.

    Duplicates are judged on the effective function: two ``l1l2`` entries
    collide regardless of their (ignored) scales, while ``huber:0.5`` and
    ``huber:1.0`` are distinct.  Raises :class:`EnsembleError`, naming the
    first problem found.
    """

    losses: tuple[LossSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "losses", tuple(self.losses))
        if self.m == 0:
            raise EnsembleError("ensemble must contain at least one loss")
        seen = set()
        for spec in self.losses:
            key = spec.effective_key()
            if key in seen:
                raise EnsembleError(f"duplicate loss {spec.label()!r} in ensemble")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.losses)

    def labels(self) -> tuple[str, ...]:
        return tuple(spec.label() for spec in self.losses)


def phi(spec: LossSpec, e):
    """Loss value ``phi(e)``, elementwise over ``e``.

    Parameters
    ----------
    spec : LossSpec
        A catalog loss (see :class:`LossSpec`).
    e : float or ndarray
        Residuals; any shape.

    Returns
    -------
    float or ndarray
        Same shape as ``e``; non-negative, zero at zero.  A residual whose
        square overflows may give ``inf``.
    """
    arr = np.asarray(e, dtype=float)
    arr = arr.reshape(1) if arr.ndim == 0 else arr
    kind, s = spec.kind, float(spec.scale)
    # each formula's steps write into its first step's new array: a call
    # makes one array the size of ``e``, not one per operation
    if kind == WELSCH:  # -expm1(-e^2 / s^2)
        out = arr * arr
        np.negative(out, out=out)
        out /= s * s
        np.expm1(out, out=out)
        np.negative(out, out=out)
    elif kind == L1L2:  # sqrt(1 + e^2) - 1
        out = arr * arr
        out += 1.0
        np.sqrt(out, out=out)
        out -= 1.0
    elif kind == HUBER:  # e^2 / (4s) where |e| < 2s, else |e| - s
        out = np.abs(arr)
        small = out < 2.0 * s
        quad = arr * arr
        quad /= 4.0 * s
        out -= s
        np.copyto(out, quad, where=small)
    elif kind == FAIR:
        r = np.abs(arr) / s
        # where |e|/s overflows, r - log1p(r) would be inf - inf
        gap = np.subtract(r, np.log1p(r), out=np.full_like(r, np.inf),
                          where=~np.isinf(r))
        out = (s * s) * gap
    else:  # logcosh
        # log(cosh(e)) = logaddexp(e, -e) - log 2, stable for large |e|
        out = np.negative(arr)
        np.logaddexp(arr, out, out=out)
        out -= np.log(2.0)
    return out.item() if np.ndim(e) == 0 else out


def delta(spec: LossSpec, e):
    """Half-quadratic weight ``delta(e) = phi'(e)/e``, elementwise.

    Continuous at 0: ``delta(0)`` is ``2/s^2`` (welsch), ``1`` (l1l2,
    fair, logcosh) or ``1/(2 s)`` (huber).  Always positive and finite,
    though the welsch weight underflows to 0.0 for ``|e| >> s``, and every
    weight reaches 0.0 where ``e^2`` overflows.
    """
    arr = np.asarray(e, dtype=float)
    arr = arr.reshape(1) if arr.ndim == 0 else arr
    kind, s = spec.kind, float(spec.scale)
    # one new array per call, as in :func:`phi`
    if kind == WELSCH:  # (2/s^2) exp(-e^2 / s^2)
        out = arr * arr
        np.negative(out, out=out)
        out /= s * s
        np.exp(out, out=out)
        out *= 2.0 / (s * s)
    elif kind == L1L2:  # 1 / sqrt(1 + e^2)
        out = arr * arr
        out += 1.0
        np.sqrt(out, out=out)
        np.divide(1.0, out, out=out)
    elif kind == HUBER:  # 1 / max(|e|, 2s)
        out = np.abs(arr)
        np.maximum(out, 2.0 * s, out=out)
        np.divide(1.0, out, out=out)
    elif kind == FAIR:  # 1 / (1 + |e|/s)
        out = np.abs(arr)
        out /= s
        out += 1.0
        np.divide(1.0, out, out=out)
    else:  # logcosh
        zero = arr == 0.0
        safe = np.where(zero, 1.0, arr)
        out = np.where(zero, 1.0, np.tanh(safe) / safe)
    return out.item() if np.ndim(e) == 0 else out


def parse_ensemble(text: str) -> EnsembleSpec:
    """Parse the CLI grammar ``kind[:scale](,kind[:scale])*``.

    Example: ``"welsch:1.5,l1l2,huber:0.5"``.  Kind tokens are
    case-insensitive; omitted scales default to 1.  Each token's own error
    is raised in token order, before any duplicate.
    """
    if text is None or text.strip() == "":
        raise EnsembleError("empty ensemble specification")
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise EnsembleError(f"empty loss token in {text!r}")
        kind, sep, scale_text = token.partition(":")
        kind = kind.strip().lower()
        if sep:
            try:
                scale = float(scale_text)
            except ValueError:
                raise EnsembleError(
                    f"bad scale {scale_text!r} for loss {kind!r}") from None
        else:
            scale = 1.0
        specs.append(LossSpec(kind=kind, scale=scale))
    return EnsembleSpec(losses=tuple(specs))


def _fmt_scale(scale: float) -> str:
    text = repr(float(scale))
    return text[:-2] if text.endswith(".0") else text
