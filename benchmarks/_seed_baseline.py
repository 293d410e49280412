"""Pinned replica of the seed revision's object-path fit, for pairing.

The library's JSONL loader, NMF loop and Ψ-row interpreter have since
been vectorized; a paired "legacy vs frame" benchmark that called the
*current* code on both arms would silently stop measuring the data-path
rewrite the moment the shared stages got faster.  This module freezes
the seed implementations the comparison is defined against:

* the row-object JSONL loader (one ``SnapshotRow`` and one numpy vector
  per line, plus the parsed header),
* the multiplicative-update NMF with a full ``‖V - WΨ‖`` reconstruction
  every sweep,
* the per-row hazard interpreter (index maps rebuilt per call).

Stages whose implementation is unchanged since the seed — the Python
state-diff loop, exception detection, min-max normalization and weight
sparsification — are imported from the library.  ``fit_seed`` mirrors
the seed's ``VN2.fit_states`` stage order exactly, so its Ψ must match
the frame path's bit-for-bit (the benchmark asserts this).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.exceptions import detect_exceptions
from repro.core.interpretation import RootCauseInterpreter
from repro.core.nmf import _init_nndsvd, frobenius_loss
from repro.core.normalization import MinMaxNormalizer
from repro.core.sparsify import sparsify_weights
from repro.core.states import build_states_python
from repro.metrics.catalog import HAZARDS, METRIC_NAMES
from repro.traces.records import GroundTruth, SnapshotRow

_EPS = 1e-10


def load_rows_jsonl_seed(path) -> Tuple[List[SnapshotRow], dict]:
    """The seed's JSONL loader: one row object per line.

    Returns ``(rows, header)``; the header's ground truth and arrivals are
    parsed into ``GroundTruth`` objects and ``(time, node)`` tuples, the
    per-record work the seed's trace container did on load.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        assert list(header["metric_names"]) == list(METRIC_NAMES)
        rows: List[SnapshotRow] = []
        for line in fh:
            obj = json.loads(line)
            rows.append(
                SnapshotRow(
                    node_id=obj["node_id"],
                    epoch=obj["epoch"],
                    generated_at=obj["generated_at"],
                    received_at=obj["received_at"],
                    values=np.asarray(obj["values"], dtype=float),
                )
            )
    header["ground_truth"] = [
        GroundTruth(
            kind=g["kind"],
            node_ids=tuple(g["node_ids"]),
            start=g["start"],
            end=g["end"],
        )
        for g in header.get("ground_truth", [])
    ]
    header["arrivals"] = [(t, n) for t, n in header.get("arrivals", [])]
    return rows, header


def nmf_seed(
    V: np.ndarray, r: int, n_iter: int = 300, tol: float = 1e-5
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed's Algorithm 1 loop: fresh arrays and a full
    reconstruction-based loss every sweep (NNDSVD init)."""
    W, Psi = _init_nndsvd(V, r)
    previous_loss = frobenius_loss(V, W, Psi)
    for _ in range(n_iter):
        numerator = W.T @ V
        denominator = W.T @ W @ Psi + _EPS
        Psi *= numerator / denominator
        numerator = V @ Psi.T
        denominator = W @ (Psi @ Psi.T) + _EPS
        W *= numerator / denominator
        loss = frobenius_loss(V, W, Psi)
        if previous_loss > 0 and (
            (previous_loss - loss) / max(previous_loss, _EPS) < tol
        ):
            break
        previous_loss = loss
    return W, Psi


class SeedInterpreter(RootCauseInterpreter):
    """The seed's per-row scorers: index maps rebuilt on every call."""

    def family_of(self, display_row: np.ndarray) -> str:
        sums = {"environment": 0.0, "link": 0.0, "protocol": 0.0}
        for name, value in zip(self.metric_names, display_row):
            sums[self._family_of_metric[name]] += abs(float(value))
        return max(sums, key=sums.get)

    def counter_reset_score(self, display_row: np.ndarray) -> float:
        counter_idx = [
            i
            for i, name in enumerate(self.metric_names)
            if self._family_of_metric[name] == "protocol"
        ]
        gauge_idx = [
            i
            for i, name in enumerate(self.metric_names)
            if self._family_of_metric[name] != "protocol"
        ]
        if not counter_idx or not gauge_idx:
            return 0.0
        counter_mean = float(np.mean(display_row[counter_idx]))
        gauge_mean = float(np.mean(display_row[gauge_idx]))
        if counter_mean < -0.5 and counter_mean < gauge_mean - 0.25:
            return -counter_mean
        return 0.0

    def hazard_scores(self, display_row: np.ndarray):
        index_of = {name: i for i, name in enumerate(self.metric_names)}
        scored = []
        for hazard in HAZARDS:
            contributions = []
            for position, trigger in enumerate(hazard.triggers):
                idx = index_of.get(trigger)
                if idx is None:
                    continue
                value = float(display_row[idx])
                direction = hazard.direction_of(position)
                if direction == 0:
                    contributions.append(abs(value))
                else:
                    contributions.append(max(0.0, value * direction))
            if not contributions:
                continue
            score = float(np.mean(contributions))
            specificity = np.sqrt(min(len(contributions), 5) / 5.0)
            score *= float(specificity)
            if score > 0:
                scored.append((hazard.name, score))
        reset = self.counter_reset_score(display_row)
        if reset > 0.0:
            scored = [(n, s) for n, s in scored if n != "node_reboot"]
            scored.append(("node_reboot", 1.0 + reset))
        scored.sort(key=lambda pair: pair[1], reverse=True)
        return scored

    def _hazard_scores_batch(self, rows: np.ndarray):
        return [self.hazard_scores(row) for row in rows]


def fit_seed(
    rows: Iterable[SnapshotRow],
    rank: int = 20,
    filter_exceptions: bool = True,
) -> np.ndarray:
    """The seed's ``VN2.fit(trace)``, stage for stage; returns Ψ."""
    states = build_states_python(rows)
    # Online exception-scoring statistics (a separate pass in the seed).
    values = states.values
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (values - mean) / std
    _max_eps = float(np.max((z * z).sum(axis=1)))

    if filter_exceptions:
        training = detect_exceptions(states, threshold_ratio=0.01).states
    else:
        training = states
    normalizer = MinMaxNormalizer.fit(training.values, pad_fraction=0.05)
    E = normalizer.transform(training.values)
    W, Psi = nmf_seed(E, rank, n_iter=300)
    sparsify_weights(W, retention=0.9)
    interpreter = SeedInterpreter()
    energies = np.linalg.norm(Psi - normalizer.rest_point(), axis=1)
    interpreter.interpret(
        normalizer.display(Psi), energies=energies, usage=None
    )
    return Psi
