"""Exact calculators for Euler-characteristic invariants of stratified spaces.

A census layer works from finite summaries of stratified spaces (strata,
frontier order, link data) and solves for local and global Euler
obstructions, fiberwise Brasselet numbers and their corrections at infinity,
all in exact integer arithmetic.  A verification harness cross-checks the
identities tying these invariants together, on shipped catalog censuses and
on user-supplied ones.  A separate simplicial layer (``euler_calculus``)
integrates integer weights on finite simplicial complexes and pushes them
forward along simplicial maps.  It runs the ``fubini`` subcommand, which
checks the projection formula on a map bundle.  It reads no census, and no
census invariant or census test reads it.

Each public name is imported from the module that defines it.
``import strat_euler`` compiles no submodule.
"""

__version__ = "0.1.0"
