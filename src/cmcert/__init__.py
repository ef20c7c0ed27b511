"""Certification toolkit for exponential/trigamma gap analysis.

Exact polynomial positivity certificates, rigorous series enclosures for the
special functions involved, monotonicity and unimodality analysis of the
Bessel-kernel ratio functions, and completely-monotonic-degree evidence for
the gap between a stretched exponential and the trigamma function.  The
package defines no names of its own: import each from its module.
"""

import importlib.util
import sys

__version__ = "1.0.0"

_SUBMODULES = ("enclosure", "poly", "specfun", "expring", "seriesratio",
               "cmdegree")

# Each submodule is registered in sys.modules, where perfbench's tracer
# finds it, and bound here now, but a LazyLoader runs it on its first
# attribute access, so a command compiles only what it uses.
for _name in _SUBMODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
