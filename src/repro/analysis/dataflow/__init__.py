"""Flow-analysis support for the lint rules: :mod:`repro.analysis.dataflow.cfg`
builds per-function control-flow graphs with exception, ``finally`` and
``with`` edges."""
