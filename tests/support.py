"""Helpers shared by the test modules."""

from corrdyn.bimodule import SampledFunction


def constant_function(value, domain: str = "correspondence") -> SampledFunction:
    """The constant function value on the given domain."""
    if domain == "path":
        return SampledFunction(domain, lambda pts: value, label=f"const {value}")
    if domain == "base":
        return SampledFunction(domain, lambda z: value, label=f"const {value}")
    return SampledFunction(domain, lambda z, w: value, label=f"const {value}")
