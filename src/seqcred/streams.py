"""Every random stream in seqcred: which root and spawn key feed what.

A stream is ``SeedSequence(root, spawn_key=key)``; this module is the only
place that builds one.  A data set is simulated from the first uint64 word
of its stream (``seed_int``); every other consumer hands its stream to
``numpy.random.default_rng``.  Below, ``cell`` is an experiment's cell index,
``sig`` its signal index and ``rep`` the replication.

  root             spawn key                          consumer
  ---------------  ---------------------------------  ----------------------------------
  estimator seed   (rep, 0)                           replicate,
                                                      oversmoothing_probability and
                                                      overshrinkage: data set rep
  estimator seed   (rep, 1)                           replicate: center search, then its
                                                      verification batch, whose distances
                                                      are the replication's; under the
                                                      posterior mean, the distance batch only
  signal_seed      (sig,)                             generate_signal, same at every eps
  master_seed      (cell,)                            CSV seed column; contraction,
                                                      coverage-size and overshrinkage
                                                      estimator seed
  master_seed      (cell, k)                          small-ball estimator seed, k = 0
                                                      oracle rate, k = 1 sigma-sum
  master_seed      (PILOT_KEY, cell)                  coverage-size pilot estimator seed
  master_seed      (cell, 0)                          scale-adaptation covers_check
  master_seed      (SIGNAL_KEY, sig, rep)             oracle-inequality data set rep
  master_seed      (PILOT_KEY, SIGNAL_KEY, sig, rep)  oracle-inequality pilot data set
  ball --seed      (0,)                               ``seqcred ball`` center search
  ball --seed      (1,)                               ``seqcred ball`` radius draws

An estimator seed that is itself a stream has its key extended, so inside an
experiment the contraction, coverage-size and overshrinkage data set rep
comes from (cell, rep, 0).  The oracle-inequality keys hold no cell index
and no trailing 0: every eps column of a signal sees the same noise, so
ratios of pivotal quantities cancel along the eps grid instead of adding
Monte-Carlo noise to the slope.
Functions that take a plain ``seed`` (``simulate``, ``default_center``,
``radius_at_level``, ``sample_posterior``, ``covers_check``) pass it to
``numpy.random.default_rng`` and spawn nothing.
"""

from __future__ import annotations

import numpy as np

from .model import ModelConfig, ObservedData, Signal, simulate

__all__ = ["PILOT_KEY", "SIGNAL_KEY", "stream", "seed_int", "data_set"]

#: spawn-key prefix reserving a seed namespace for pilot replications
PILOT_KEY = 782134
#: spawn-key prefix for signal-level streams shared across the eps grid
SIGNAL_KEY = 550927


def stream(root: int | np.random.SeedSequence | None, *key: int) -> np.random.SeedSequence:
    """The stream at spawn key ``key`` below ``root``.

    An int or None root gives ``SeedSequence(root, spawn_key=key)``; a
    SeedSequence root keeps its entropy and has its spawn key extended.
    """
    if isinstance(root, np.random.SeedSequence):
        return np.random.SeedSequence(root.entropy, spawn_key=tuple(root.spawn_key) + key)
    return np.random.SeedSequence(root, spawn_key=key)


def seed_int(ss: np.random.SeedSequence) -> int:
    """The first uint64 word of a stream, as an int seed."""
    return int(ss.generate_state(1, np.uint64)[0])


def data_set(
    model: ModelConfig,
    signal: Signal,
    ss: int | np.random.SeedSequence | None,
    *key: int,
) -> ObservedData:
    """Simulate the data set of stream ``key`` below ``ss``."""
    return simulate(model, signal, seed_int(stream(ss, *key)))
