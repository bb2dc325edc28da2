"""Wide-area message latency model.

The PlanetLab deployment spans geographically distributed nodes; the
message-level simulator charges each overlay hop a latency drawn from a
shifted log-normal — the standard heavy-tailed shape of Internet RTT
distributions — parameterized to PlanetLab-like medians (~80 ms
one-way).  The paper's analysis notes dissemination delay does not
affect *next*-update detection times (§3.1), but it does affect how
fast a given diff reaches subscribers, which the deployment experiment
measures end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class LatencyModel:
    """Per-message one-way delay sampler.

    ``floor`` is the minimum propagation delay; the log-normal body
    adds queueing and path variance.  A deterministic ``rng`` seed
    keeps experiments reproducible.
    """

    floor: float = 0.01  # 10 ms minimum propagation
    median: float = 0.08  # PlanetLab-like one-way median
    sigma: float = 0.6  # log-normal shape (heavy tail)
    seed: int = 0
    #: Multiplier applied to every sample — fault injection dials this
    #: up to model wide-area congestion/degradation, then restores it.
    scale: float = 1.0
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        if self.floor < 0 or self.median <= self.floor:
            raise ValueError("need 0 <= floor < median")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self.rng = random.Random(self.seed)
        import math

        self._mu = math.log(self.median - self.floor)
        # The true (construction-time) scale degradations stack onto;
        # restore() recovers it *exactly*, with no f × 1/f float
        # residue, however many windows overlapped.
        self._baseline = self.scale
        self._degradations: dict[int, float] = {}
        self._next_token = 0

    def degrade(self, factor: float) -> int:
        """Multiply all subsequent delays by ``factor`` (composable).

        Returns a token identifying *this* degradation window, so
        overlapping windows compose: each :meth:`restore` removes one
        window's factor and recomputes the product over the survivors
        from the true baseline — the old single-global-factor scheme
        let overlapping windows restore to a stacked wrong baseline.
        """
        if factor <= 0:
            raise ValueError("degradation factor must be positive")
        token = self._next_token
        self._next_token += 1
        self._degradations[token] = factor
        self.scale *= factor
        return token

    def restore(self, token: int | None = None) -> None:
        """End a degradation window (all of them when ``token`` is None).

        Idempotent against the true baseline: with no surviving
        windows the scale is *exactly* the construction-time value
        (not a ``f * (1/f)`` float approximation of it), and with
        survivors it is the baseline times exactly their factors.
        An unknown or already-restored token is a no-op.
        """
        if token is None:
            self._degradations.clear()
        elif self._degradations.pop(token, None) is None:
            return
        scale = self._baseline
        for factor in self._degradations.values():
            scale *= factor
        self.scale = scale

    def sample(self) -> float:
        """One message delay in seconds."""
        return self.scale * (
            self.floor + self.rng.lognormvariate(self._mu, self.sigma)
        )


@dataclass
class JitterModel:
    """Uniform extra delay standing in for message reordering.

    A synchronous hop has no queue in which messages can actually
    overtake each other, so the fault plane models reordering as a
    U(0, width) delay added to end-to-end delivery — the window inside
    which a message could have been overtaken.  ``width`` is mutable
    (the fault timeline raises and lowers it); a zero width samples
    nothing, drawing no randomness.
    """

    width: float = 0.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def sample(self) -> float:
        """One reorder delay in seconds (0.0 when the model is off)."""
        if self.width <= 0.0:
            return 0.0
        return self.rng.uniform(0.0, self.width)
