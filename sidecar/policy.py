"""The formal user-extension surface for frontier policy (SURVEY.md §2.9).

The reference exposes no crawl policy at all (it is a per-file CLI, not a
crawler); the north-rule crawl loop has two policy knobs — the priority a
discovered link enters the frontier with, and the per-host politeness
budget.  This module declares them as an explicit protocol so a user can
re-prioritize or re-budget a crawl WITHOUT editing ``sidecar/crawl.py`` /
``sidecar/frontier.py``, the same way ``sidecar/detect/protocol.py`` opens
up the detector set.

Both hooks are batch-vectorized (numpy in, numpy out) because they run
inside ``map_batches`` / ``copartition`` hot stages.  Determinism contract:
a policy must be a pure function of its inputs — the single-threaded oracle
(``sidecar/oracle.py``) routes through the SAME policy object, which is what
keeps bit-for-bit crawl equality testable (see
``tests/test_crawl.py::test_custom_policy_bit_for_bit``).

``policy=None`` everywhere means the built-in behavior (graph-emitted link
priorities, constant ``budget_per_host``) with zero per-row overhead — the
hot paths only consult a policy when one is installed.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class FrontierPolicy(Protocol):
    """Priority + politeness-budget policy for the crawl frontier.

    Determinism contract — hooks must be ELEMENTWISE pure: each output
    element may depend only on ITS OWN row's inputs (url/priority/depth,
    or host/default), never on the other rows in the array.  The engine
    invokes hooks on block/group slices whose boundaries vary with
    parallelism, while the oracle invokes them per row — a batch-relative
    computation (e.g. normalizing by the slice max) would be "pure" per
    call yet diverge run to run.
    """

    name: str

    def link_priority(self, urls: list[str], priorities: np.ndarray,
                      depths: np.ndarray) -> np.ndarray:
        """Priorities for newly discovered links (vectorized).

        ``priorities`` are the graph-emitted defaults; ``depths`` are the
        depths the links will enter the frontier with.  Returns float64.
        """
        ...  # pragma: no cover

    def host_budget(self, hosts: np.ndarray, default: int) -> np.ndarray:
        """Per-host politeness budget (vectorized, one entry per row).

        ``default`` is the crawl's configured ``budget_per_host``.
        Returns int64 >= 0.
        """
        ...  # pragma: no cover
