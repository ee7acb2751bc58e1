"""ternalg: exact symbolic workbench for order-two parafermions, ternary
superspace and the cubic extension of the Poincare algebra."""

from .cyclo import Cyclo, Q, Rational
from .algebra import (Element, GeneratorSystem, commutator, anticommutator,
                      sym3, colour3, nested_action)
from .superspace import (MetricSignature, SuperspaceConfig, SuperspaceAlgebra,
                         build)
from .order3 import StructureConstants3, cubic_poincare, check_lie_order3
from .colour import (CommutationFactor, GradeVector, paper_factor,
                     colour_weights, col3_weights)
from .report import CheckReport, emit_json, emit_text
from .suites import SuiteSpec, run_suite

__all__ = [
    "CheckReport", "emit_json", "emit_text", "SuiteSpec", "run_suite",
    "Cyclo", "Q", "Rational",
    "Element", "GeneratorSystem", "commutator", "anticommutator",
    "sym3", "colour3", "nested_action",
    "MetricSignature", "SuperspaceConfig", "SuperspaceAlgebra", "build",
    "StructureConstants3", "cubic_poincare", "check_lie_order3",
    "CommutationFactor", "GradeVector", "paper_factor", "colour_weights",
    "col3_weights",
]

__version__ = "0.1.0"
