"""Experiments: the paper's figures and Section-5 claims as measurements.

The paper has no results tables -- it is a design document -- so each
experiment here reproduces a *mechanism figure* or a *scalability claim*
as a measurable run on the simulated testbed, prints the table the paper
would have shown, and checks the claimed shape.  See DESIGN.md section 3
for the experiment index and EXPERIMENTS.md for recorded outcomes.

===  ==========================================================
E1   the binding walk of Figs. 13/17 and its cache behaviour
E2   bounded object→Binding-Agent load (5.2.1)
E3   combining trees flatten LegionClass load (5.2.2)
E4   class cloning relieves hot classes (5.2.2)
E5   activation/deactivation/migration lifecycle (Fig. 11)
E6   stale-binding detection and repair under churn (4.1.4)
E7   replication semantics mask replica failures (4.3, Fig. 1)
E8   Create/Derive/InheritFrom relations and class types (2.1)
E9   the distributed-systems principle end to end (5.2)
E10  bootstrap: bring-up from nothing (4.2.1)
E11  site autonomy: magistrates/hosts refuse untrusted work (2.2, Fig. 9)
E12  LOID allocation: uniqueness and structure at scale (3.2)
E13  availability under scheduled chaos: self-healing runtime (4.1.4)
E14  load-adaptive class cloning (5.2.2)
E15  goodput under overload: admission control + backpressure
E16  geo-replication: locality, WAN traffic, repair that yields (4.3)
E17  operating-mode governor: banded health + policy coupling
E18  the scenario catalog across the subsystem matrix
===  ==========================================================

Run any of them with :func:`repro.experiments.runner.run_experiment`.
"""

from repro.experiments.common import ExperimentResult, count_messages, populate

__all__ = ["ExperimentResult", "count_messages", "populate"]
