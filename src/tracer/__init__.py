"""Omission-aware fact verification toolkit.

Half-truths pass ordinary fact checks: every stated figure is accurate,
and the misleading part is what went unsaid. This package re-assesses
such claims by splitting evidence into what the claim presents and what
it hides, recovering the claim's intended message, testing which unstated
assumptions that message depends on, retrieving the hidden evidence that
bears on those assumptions, and revising the verdict accordingly.

All model interaction flows through a gateway with a deterministic
scripted backend and a persistent cache, so the whole pipeline runs and
replays offline.
"""

__version__ = "0.1.0"
