"""Experiment harnesses regenerating each of the paper's tables and figures.

Each module regenerates the experiments with these ids (README.md's
"Layout" section maps the rest of the package):

* :mod:`repro.experiments.seq_io` — E1/E2 (Eq. 1, Thm 1.1, Thm 1.3)
* :mod:`repro.experiments.expansion_exp` — E3 (Lemma 4.3, Cor. 4.4)
* :mod:`repro.experiments.structure_exp` — E4/E5/E11 (Figs. 2–3, §5.1.1)
* :mod:`repro.experiments.table1` — E6/E7/E10 (Table I, §6.1)
* :mod:`repro.experiments.latency_exp` — E8 (footnote 8)
* :mod:`repro.experiments.strong_scaling` — E12 (memory-independent floor
  and perfect strong-scaling range, arXiv:1202.3177)
* :mod:`repro.experiments.report` — plain-text table rendering

Graph-heavy experiments build through :mod:`repro.engine` (content-addressed
cache + parallel grid runner); ``python -m repro sweep`` and
``python -m repro scaling`` expose the same sweeps from the command line.
"""

from repro.experiments.report import render_table

__all__ = ["render_table"]
