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
huber      e^2 / (4 s)      for |e| < 2 s    1 / (2 s)    for |e| < 2 s
           |e| - s          otherwise        1 / |e|      otherwise
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

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DuplicateLossError,
    EmptyEnsembleError,
    EnsembleError,
    NonPositiveScaleError,
    UnknownLossError,
)

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


@dataclass(frozen=True)
class LossSpec:
    """One catalog loss: a ``kind`` plus its positive ``scale``.

    The scale is sigma for welsch, epsilon for huber and c for fair; it is
    ignored for the fixed-shape kinds (l1l2, logcosh).  Construction does
    not validate -- call :func:`validate_ensemble` (the solver does).
    """

    kind: str
    scale: float = 1.0

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
    """Ordered collection of at least one :class:`LossSpec`."""

    losses: tuple[LossSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "losses", tuple(self.losses))

    @property
    def m(self) -> int:
        return len(self.losses)

    def labels(self) -> tuple[str, ...]:
        return tuple(spec.label() for spec in self.losses)


def validate_loss(spec: LossSpec) -> None:
    """Check a single loss against the catalog invariants.

    Raises
    ------
    UnknownLossError
        ``kind`` is not one of ``KINDS``.
    NonPositiveScaleError
        ``scale`` is not a finite positive real.
    """
    if spec.kind not in KINDS:
        raise UnknownLossError(
            f"unknown loss kind {spec.kind!r}; expected one of {', '.join(KINDS)}")
    scale = float(spec.scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise NonPositiveScaleError(
            f"loss {spec.kind!r} needs a finite positive scale, got {spec.scale!r}")


def validate_ensemble(ensemble: EnsembleSpec) -> None:
    """Check an ensemble: non-empty, valid members, no duplicate losses.

    Duplicates are judged on the effective function: two ``l1l2`` entries
    collide regardless of their (ignored) scales, while ``huber:0.5`` and
    ``huber:1.0`` are distinct.

    Raises
    ------
    EmptyEnsembleError, UnknownLossError, NonPositiveScaleError,
    DuplicateLossError
    """
    if not isinstance(ensemble, EnsembleSpec):
        raise EnsembleError(f"expected EnsembleSpec, got {type(ensemble).__name__}")
    if ensemble.m == 0:
        raise EmptyEnsembleError("ensemble must contain at least one loss")
    seen = set()
    for spec in ensemble.losses:
        validate_loss(spec)
        key = spec.effective_key()
        if key in seen:
            raise DuplicateLossError(f"duplicate loss {spec.label()!r} in ensemble")
        seen.add(key)


def phi(spec: LossSpec, e):
    """Loss value ``phi(e)``, elementwise over ``e``.

    Parameters
    ----------
    spec : LossSpec
        Assumed valid (see :func:`validate_loss`).
    e : float or ndarray
        Residuals; any shape.

    Returns
    -------
    float or ndarray
        Same shape as ``e``; non-negative, zero at zero.  A residual whose
        square overflows may give ``inf``.
    """
    arr = np.asarray(e, dtype=float)
    kind, s = spec.kind, float(spec.scale)
    if kind == WELSCH:
        out = -np.expm1(-(arr * arr) / (s * s))
    elif kind == L1L2:
        out = np.sqrt(1.0 + arr * arr) - 1.0
    elif kind == HUBER:
        a = np.abs(arr)
        out = np.where(a < 2.0 * s, arr * arr / (4.0 * s), a - s)
    elif kind == FAIR:
        r = np.abs(arr) / s
        # where |e|/s overflows, r - log1p(r) would be inf - inf
        gap = np.subtract(r, np.log1p(r), out=np.full_like(r, np.inf),
                          where=~np.isinf(r))
        out = (s * s) * gap
    elif kind == LOGCOSH:
        # log(cosh(e)) = logaddexp(e, -e) - log 2, stable for large |e|
        out = np.logaddexp(arr, -arr) - np.log(2.0)
    else:
        raise UnknownLossError(f"unknown loss kind {kind!r}")
    return float(out) if np.ndim(e) == 0 else out


def delta(spec: LossSpec, e):
    """Half-quadratic weight ``delta(e) = phi'(e)/e``, elementwise.

    Continuous at 0: ``delta(0)`` is ``2/s^2`` (welsch), ``1`` (l1l2,
    fair, logcosh) or ``1/(2 s)`` (huber).  Always positive and finite,
    though the welsch weight underflows to 0.0 for ``|e| >> s``, and every
    weight reaches 0.0 where ``e^2`` overflows.
    """
    arr = np.asarray(e, dtype=float)
    kind, s = spec.kind, float(spec.scale)
    if kind == WELSCH:
        out = (2.0 / (s * s)) * np.exp(-(arr * arr) / (s * s))
    elif kind == L1L2:
        out = 1.0 / np.sqrt(1.0 + arr * arr)
    elif kind == HUBER:
        a = np.abs(arr)
        small = a < 2.0 * s
        safe = np.where(small, 1.0, a)  # avoid 1/0 in the dead branch
        out = np.where(small, 1.0 / (2.0 * s), 1.0 / safe)
    elif kind == FAIR:
        out = 1.0 / (1.0 + np.abs(arr) / s)
    elif kind == LOGCOSH:
        zero = arr == 0.0
        safe = np.where(zero, 1.0, arr)
        out = np.where(zero, 1.0, np.tanh(safe) / safe)
    else:
        raise UnknownLossError(f"unknown loss kind {kind!r}")
    return float(out) if np.ndim(e) == 0 else out


def parse_ensemble(text: str) -> EnsembleSpec:
    """Parse the CLI grammar ``kind[:scale](,kind[:scale])*``.

    Example: ``"welsch:1.5,l1l2,huber:0.5"``.  Kind tokens are
    case-insensitive; omitted scales default to 1.  The result is
    validated before returning.
    """
    if text is None or text.strip() == "":
        raise EmptyEnsembleError("empty ensemble specification")
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
    ensemble = EnsembleSpec(losses=tuple(specs))
    validate_ensemble(ensemble)
    return ensemble


def _fmt_scale(scale: float) -> str:
    text = repr(float(scale))
    return text[:-2] if text.endswith(".0") else text
