"""Ready-made biological models.

* :mod:`repro.models.neurospora` -- the paper's benchmark: circadian
  oscillations driven by transcriptional regulation of the *frq* gene in
  Neurospora (Leloup, Gonze & Goldbeter 1999), as both a flat reaction
  network and a compartmentalised CWC model (nucleus inside cell);
* :mod:`repro.models.lotka_volterra` -- the classic stochastic
  prey/predator system: oscillatory with random extinctions, the standard
  stress test for load balancing across trajectories;
* :mod:`repro.models.toggle_switch` -- a bistable genetic toggle switch
  (multi-stable: the GPU worst case discussed in the paper, and the
  natural k-means clustering demo);
* :mod:`repro.models.mm_enzyme` -- Michaelis-Menten enzyme kinetics
  (homogeneous and mono-stable: the GPU best case);
* :mod:`repro.models.cell_population` -- a growing/dividing cell
  population: compartments created and destroyed at runtime, the
  CWC-native stress test for tree matching and the propensity cache.
"""

from repro.models.neurospora import (
    NeurosporaParams,
    neurospora_network,
    neurospora_cwc_model,
)
from repro.models.lotka_volterra import lotka_volterra_network
from repro.models.toggle_switch import toggle_switch_network
from repro.models.mm_enzyme import mm_enzyme_network
from repro.models.cell_population import cell_population_model, count_cells

#: the models a run may name (name -> factory(omega)): the one registry
#: behind the CLI's ``--model`` and the service's ``model`` field, so
#: "the same config via the CLI" is well defined
MODELS = {
    "neurospora": lambda omega: neurospora_network(omega=omega),
    "neurospora-cwc": lambda omega: neurospora_cwc_model(omega=omega),
    "lotka-volterra": lambda omega: lotka_volterra_network(omega=omega),
    "toggle": lambda omega: toggle_switch_network(omega=omega),
    "enzyme": lambda omega: mm_enzyme_network(omega=omega),
}

__all__ = [
    "MODELS",
    "NeurosporaParams",
    "neurospora_network",
    "neurospora_cwc_model",
    "lotka_volterra_network",
    "toggle_switch_network",
    "mm_enzyme_network",
    "cell_population_model",
    "count_cells",
]
