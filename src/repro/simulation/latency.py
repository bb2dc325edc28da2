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

import math
import random
from dataclasses import dataclass, field

#: Minimum one-way propagation delay (10 ms).
FLOOR = 0.01
#: PlanetLab-like one-way median delay.
MEDIAN = 0.08
#: Log-normal shape of the delay body (heavy tail).
SIGMA = 0.6
_MU = math.log(MEDIAN - FLOOR)


@dataclass
class LatencyModel:
    """Per-message one-way delay sampler.

    ``FLOOR`` is the minimum propagation delay; the log-normal body
    adds queueing and path variance.  A deterministic ``rng`` seed
    keeps experiments reproducible.
    """

    seed: int = 0
    #: Multiplier applied to every sample — fault injection dials this
    #: up to model wide-area congestion/degradation, then restores it.
    scale: float = field(default=1.0, init=False)
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
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

    def restore(self, token: int) -> None:
        """End the degradation window ``token`` names.

        Idempotent: with no surviving windows the scale is *exactly*
        1.0 (not a ``f * (1/f)`` float approximation of it), and with
        survivors it is exactly the product of their factors.
        An unknown or already-restored token is a no-op.
        """
        if self._degradations.pop(token, None) is None:
            return
        scale = 1.0
        for factor in self._degradations.values():
            scale *= factor
        self.scale = scale

    def sample(self) -> float:
        """One message delay in seconds."""
        return self.scale * (FLOOR + self.rng.lognormvariate(_MU, SIGMA))

