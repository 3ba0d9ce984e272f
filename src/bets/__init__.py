"""Generative modeling and inference for travel-selected epidemic case data.

The package models four per-person event times -- begin of stay in the
source city, end of stay, infection, and symptom onset -- conditioned on the
selection event "infected during the stay, departed before the quarantine,
and eventually symptomatic".  On top of that model it provides maximum
likelihood fits of the epidemic growth rate and the incubation-period
distribution (with right-truncation and no-growth variants that demonstrate
and correct selection biases), a rejection-sampling simulator, and a
discrete-day Bayesian nonparametric treatment sampled by random-walk
Metropolis-Hastings.

Only __version__ is exported here; import every other name from its submodule.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
