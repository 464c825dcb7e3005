"""Exception types shared across the package."""


class SpecError(ValueError):
    """A tree-spec document or group name is malformed."""


class ResourceLimitError(RuntimeError):
    """An expansion or search would exceed a configured size cap."""


class StrategyFault(RuntimeError):
    """A strategy broke the game rules (overspent budget or protected a
    burning vertex).  Carries the round in which the fault occurred."""

    def __init__(self, round_no: int, reason: str):
        super().__init__(f"round {round_no}: {reason}")
        self.round_no = round_no
        self.reason = reason


class SynthesisError(RuntimeError):
    """Cutset-strategy synthesis exhausted its depth budget without finding
    a min cut that fits its rounds (rate at or below the branching number,
    or the depth cap is too small)."""


class SurroundCapError(RuntimeError):
    """wait_and_surround ran out of ball before the budget overtook a
    sphere.  Carries the per-round budget-vs-sphere trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace
