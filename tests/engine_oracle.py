"""An engine oracle written apart from `ostta.tur`: the online rule of the
paper, one sample at a time in plain loops over a checkpoint's arrays and a
bank's rows.

A step embeds the sample with its own tanh MLP, takes the k most similar
bank rows by (-similarity, row id), and their unit mean as the centroid. The
best source prototype (the unit class means of the bank) and the best
target prototype of that centroid agree, or not. If they agree, the sample
takes that label and the target prototype moves toward it. If not, the
follow-up prototype of the head's class moves toward it, and then the best
follow-up prototype labels it, the last one meaning unknown. A prototype
moves by the EMA weight and is renormalized. Every argmax takes the lowest
index among equals.
"""
import numpy as np

from ostta.data import UNKNOWN

# as perfbench/checks.py: two scores closer than this may order either way
# in another summation order, so a step that compares them is not checked
NEAR_TIE = 1e-9


def _unit(v):
    return v / np.sqrt(np.dot(v, v))


def _best(scores):
    """The index of the largest score, the lowest among equals, and its gap to the next."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[0], (scores[order[0]] - scores[order[1]] if len(order) > 1 else np.inf)


class Oracle:
    def __init__(self, params, bank, k: int, ema_weight: float):
        self.layers = list(zip(params.weights, params.biases, params.activations))
        self.head = params.head
        self.rows, self.k, self.phi = bank.embeddings, k, ema_weight
        classes = range(len(params.head) - 1)
        self.source = [_unit(self.rows[bank.labels == c].mean(axis=0)) for c in classes]
        self.target = [p.copy() for p in self.source]
        self.followup = [_unit(row) for row in params.head]

    def _embed(self, x):
        a = np.asarray(x, dtype=np.float64)
        for w, b, activation in self.layers:
            a = w @ a + b
            a = np.tanh(a) if activation == "tanh" else a
        return _unit(a)

    def _ema(self, row, z):
        return _unit(self.phi * z + (1.0 - self.phi) * row)

    def step(self, x):
        """(label, route, source match, target match) of the next sample, after
        which the tables hold its update; None, with the tables untouched,
        where two scores that decide the step are closer than NEAR_TIE."""
        z = self._embed(x)
        sims = [float(np.dot(row, z)) for row in self.rows]
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
        gaps = [sims[order[self.k - 1]] - sims[order[self.k]]] if self.k < len(sims) else []
        centroid = _unit(sum(self.rows[i] for i in order[: self.k]) / self.k)
        k_src, gap_src = _best([np.dot(p, centroid) for p in self.source])
        k_tgt, gap_tgt = _best([np.dot(p, centroid) for p in self.target])
        gaps += [gap_src, gap_tgt]
        if k_src == k_tgt:
            table, row, label, route = self.target, k_src, k_src, "agreed"
        else:
            row, gap_head = _best([np.dot(h, z) for h in self.head])
            moved = self._ema(self.followup[row], z)
            best, gap_label = _best([np.dot(moved if i == row else p, z)
                                     for i, p in enumerate(self.followup)])
            table, gaps = self.followup, gaps + [gap_head, gap_label]
            label, route = (UNKNOWN if best == len(self.source) else best), "followup"
        if min(gaps) < NEAR_TIE:
            return None
        table[row] = self._ema(table[row], z)
        return label, route, k_src, k_tgt


def replay(oracle: Oracle, xs):
    """The oracle's records over the rows of xs, up to the first step it does not check."""
    records = []
    for x in xs:
        record = oracle.step(x)
        if record is None:
            break
        records.append(record)
    return records
