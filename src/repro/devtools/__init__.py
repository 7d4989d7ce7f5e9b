"""Developer tooling for the reproduction (not used at simulation time).

One subsystem lives here: :mod:`repro.devtools.analyze`, an AST-based
static analyzer enforcing the paper's domain invariants (phase-id
ranges, the predictor observe/predict contract, replayable determinism,
float-comparison hygiene, lossless checkpoints, a non-blocking serve
path) across the simulator sources.
"""
