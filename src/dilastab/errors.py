"""Exception types for grid, parameter, and estimation failures."""


class DilastabError(Exception):
    """Base class for all package-specific errors."""


class GridMissingUnit(DilastabError):
    """Background extraction needs the point t = 1 on the grid."""


class OffGrid(DilastabError):
    """A requested time does not lie on the path's grid."""


class TimeChangeRange(DilastabError):
    """Argument outside the range of the time change."""


class NonPositiveTime(DilastabError):
    """Operation requires strictly positive times."""


class DegenerateDelta(DilastabError):
    """Operation undefined at delta = 0."""


class WrongRegime(DilastabError):
    """Parameter regime does not match the requested quantity."""


class NotEnoughSamples(DilastabError):
    """Sample sequence shorter than the cascade construction needs."""


class OracleOutOfDomain(DilastabError):
    """Closed-form log-characteristic function unavailable for these inputs."""


class InadmissibleParams(DilastabError):
    """Simulation requested for parameters rejected by the admissibility check."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"inadmissible parameters: {verdict.reason or verdict.status}")


class NonFiniteSum(DilastabError):
    """A test point's sum theta_j X(t_j) leaves the float range on some path."""


class LowMagnitude(DilastabError):
    """Empirical CF magnitude fell below the log-estimator floor."""

    def __init__(self, r, magnitude, floor):
        self.r = r
        self.magnitude = magnitude
        self.floor = floor
        super().__init__(
            f"|cf| = {magnitude:.4g} is below the floor {floor:.4g} "
            f"at ray position r = {r:.4g}; the unwrapped log-CF is unreliable there"
        )


class PhaseAmbiguous(DilastabError):
    """A ray's unwrapped phase at r = 1 moves by whole turns when its steps are halved."""

    def __init__(self, r_steps, turns):
        self.r_steps, self.turns = r_steps, turns
        super().__init__(
            f"the unwrapped phase at r = 1 moves by {turns} turns when the ray's r_steps = "
            f"{r_steps} positions are doubled; raise --r-steps (r_steps)"
        )
