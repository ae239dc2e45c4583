"""Suite-wide hypothesis settings.

The profile drops hypothesis's explain phase and keeps every other phase.
After shrinking a failure, that phase reruns the failing example many times
and reports each rerun through pytest's repr_failure, which parses the
test's whole module (ast.parse of a file of some 2000 lines) every time; on
the solver's property tests that took minutes per failing test.  No
example, shrink step or assertion changes: a failing test fails with the
same minimal example, without the "explanation" lines.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "suite", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("suite")
