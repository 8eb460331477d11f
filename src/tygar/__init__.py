"""Type-directed component synthesis via abstract transition nets."""

from .lattice import (
    CONCRETE,
    AbstractCover,
    close_under_meet,
    meet,
    mgu,
    refines,
    subsumes,
    weakenings,
)
from .synth import (
    SynthConfig,
    Synthesizer,
    initial_cover,
    refine,
    syn_abstract,
    synthesize,
)
from .typecheck import apply_transformer, check, infer
from .types import (
    BOTTOM,
    App,
    FnType,
    Library,
    NormalForm,
    PolyType,
    TermApp,
    TermVar,
    Var,
    canonical,
    render_term,
    render_type,
)

__all__ = [
    "AbstractCover", "App", "BOTTOM", "CONCRETE", "FnType", "Library",
    "NormalForm", "PolyType", "SynthConfig", "Synthesizer", "TermApp",
    "TermVar", "Var", "apply_transformer", "canonical", "check",
    "close_under_meet", "infer", "initial_cover", "meet", "mgu", "refine",
    "refines", "render_term", "render_type", "subsumes", "syn_abstract",
    "synthesize", "weakenings",
]
