"""Named weight families for experiments and the command line.

Three families cover every parameter regime the solvers distinguish:

  two-bump            one compactly supported positive bump and one
                      negative bump; amplitudes and geometry tune the sign
                      of the pairing with the first eigenfunction. The
                      defaults give a strongly negative pairing.
  orthogonal-two-bump two-bump rebalanced so the raw pairing is slightly
                      positive, then shifted by a constant so the pairing
                      vanishes to roundoff. The shift makes the weight
                      negative outside the positive bump, so exactly one
                      positive component survives.
  perturbed           the orthogonal-two-bump weight `base` plus
                      mu*||base||_inf*b, with b a nonnegative cosine bump
                      centred at b_center (default center_minus), of width
                      b_width (default 0.12*(x_hi - x_lo)) and amplitude
                      b_amp (default 0.4*||base||_inf). This is the family
                      of the three-solution scan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .eigen import EigenPair, first_eigenpair, orthogonalize_weight, pairing
from .errors import ConfigError
from .grid import Mesh, Weight, cos_bump

if TYPE_CHECKING:
    from .sweeps import RunConfig

__all__ = [
    "TwoBumpParams",
    "two_bump",
    "orthogonal_two_bump",
    "bump_weight",
    "perturbed",
    "build_weight",
]

MU_MAX_FRACTION = 0.5  # refuse when mu*||b||_inf exceeds this times ||a||_inf


@dataclass(frozen=True)
class TwoBumpParams:
    amp_plus: float = 20.0
    center_plus: float = 0.7
    width_plus: float = 0.2
    amp_minus: float = 60.0
    center_minus: float = 0.25
    width_minus: float = 0.22


def two_bump(mesh: Mesh, params: TwoBumpParams = TwoBumpParams()) -> Weight:
    vals = params.amp_plus * cos_bump(mesh, params.center_plus, params.width_plus)
    vals -= params.amp_minus * cos_bump(mesh, params.center_minus, params.width_minus)
    return Weight(mesh, vals)


def bump_weight(mesh: Mesh, center: float, width: float, amp: float = 1.0) -> Weight:
    """Single nonnegative bump, e.g. the perturbation direction b."""
    return Weight(mesh, amp * cos_bump(mesh, center, width))


_ORTHO_DEFAULTS = TwoBumpParams(
    amp_plus=10.0,
    center_plus=0.25,
    width_plus=0.25,
    amp_minus=10.0,
    center_minus=0.75,
    width_minus=0.2,
)


def orthogonal_two_bump(
    mesh: Mesh,
    p: float,
    q: float,
    params: TwoBumpParams = _ORTHO_DEFAULTS,
    eigen_tol: float = 1e-9,
    margin: float = 0.05,
) -> Weight:
    """Two-bump weight with pairing exactly zero at the discrete level.

    The positive amplitude is first rebalanced so the raw pairing is
    positive by the given relative margin; the constant shift of the
    orthogonalization is then positive and small, which keeps a single
    positive component inside the positive bump's support.
    """
    pair = first_eigenpair(mesh, p, eigen_tol)
    plus = Weight(mesh, params.amp_plus * cos_bump(mesh, params.center_plus, params.width_plus))
    minus_vals = params.amp_minus * cos_bump(mesh, params.center_minus, params.width_minus)
    minus = Weight(mesh, minus_vals)
    p_plus = pairing(plus, pair, q)
    p_minus = pairing(minus, pair, q)
    if p_plus <= 0.0 or p_minus <= 0.0:
        raise ConfigError("bump geometry gives a degenerate pairing; widen the bumps")
    amp_plus = params.amp_plus * (1.0 + margin) * p_minus / p_plus
    raw = Weight(mesh, amp_plus / params.amp_plus * plus.values - minus_vals)
    return orthogonalize_weight(raw, pair, q)


def perturbed(base: Weight, b: Weight, mu: float) -> Weight:
    """base + mu*b with a refusal heuristic for oversized perturbations."""
    if base.mesh != b.mesh:
        raise ConfigError("base weight and perturbation live on different meshes")
    if np.min(b.values) < 0.0:
        raise ConfigError("perturbation direction must be nonnegative")
    if mu < 0.0:
        raise ConfigError("mu must be nonnegative")
    if mu * b.linf() > MU_MAX_FRACTION * base.linf():
        raise ConfigError(
            f"mu={mu} exceeds the perturbation window ({MU_MAX_FRACTION} * ||a||_inf / ||b||_inf)"
        )
    return Weight(base.mesh, base.values + mu * b.values)


def build_weight(mesh: Mesh, config: RunConfig) -> tuple[Weight, Weight]:
    """A run config's weight family on the mesh, as (base, weight).

    The two-bump geometry keys of the config override the family's
    defaults one by one. base is the weight itself, except for perturbed,
    where it is the orthogonal two-bump weight before the perturbation.
    """
    family = config.weight_family
    if family == "file":
        if not config.weight_file:
            raise ConfigError("weight_family=file requires weight_file")
        try:
            weight = Weight(mesh, np.loadtxt(config.weight_file))
        except ValueError as exc:
            raise ConfigError(f"weight file {config.weight_file}: {exc}") from None
        return weight, weight
    if family not in ("two-bump", "orthogonal-two-bump", "perturbed"):
        raise ConfigError(f"unknown weight family: {family!r}")
    defaults = TwoBumpParams() if family == "two-bump" else _ORTHO_DEFAULTS
    given = {f.name: getattr(config, f.name) for f in fields(TwoBumpParams)}
    params = replace(defaults, **{name: v for name, v in given.items() if v is not None})
    if family == "two-bump":
        weight = two_bump(mesh, params)
        return weight, weight
    base = orthogonal_two_bump(mesh, config.p, config.q, params)
    if family == "orthogonal-two-bump":
        return base, base
    scale = base.linf()
    b = bump_weight(
        mesh,
        params.center_minus if config.b_center is None else config.b_center,
        0.12 * (config.x_hi - config.x_lo) if config.b_width is None else config.b_width,
        amp=0.4 * scale if config.b_amp is None else config.b_amp,
    )
    return base, perturbed(base, b, config.mu * scale)
