"""Executable GSOS semantics with a coherence checker for compiler security."""

from .terms import Node, Var, parse_term, print_term
from .languages import language_registry
from .compilers import compiler_registry, compile_term
from .checker import CampaignConfig, check_coherence, check_context_closure, check_preservation
from .semantics import check_bisim, run, step

__all__ = [
    "CampaignConfig",
    "Node",
    "Var",
    "check_bisim",
    "check_coherence",
    "check_context_closure",
    "check_preservation",
    "compile_term",
    "compiler_registry",
    "language_registry",
    "parse_term",
    "print_term",
    "run",
    "step",
]

__version__ = "0.1.0"
