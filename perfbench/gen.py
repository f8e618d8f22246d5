"""Seeded planted-partition graphs for the benchmark.

Every graph is dense-ish, weighted, connected by construction, and carries
the partition it was planted with, so the oracles can score a clustering
against it. Three kinds:

* unsigned: positive edges inside and between blocks, sparser and lighter
  between;
* signed balanced: blocks are grouped into two sides; edges between blocks
  on the same side are positive, edges across the sides negative, so the
  sides are the balance bipartition;
* signed unbalanced: every edge between two blocks is negative and every
  pair of blocks is joined, so with three or more blocks there is a cycle
  with an odd number of negative edges.

Node labels are shuffled so that blocks are not contiguous ranges.
"""

from dataclasses import dataclass

import numpy as np

# the 9-node reference graph of the test suite (unit weights), used for the
# cold-start launches that measure set-up time
W1_EDGES = ((1, 2), (1, 4), (2, 5), (3, 6), (4, 5), (5, 9), (6, 9), (7, 8), (8, 9))
W1_TEXT = "9\n" + "".join(f"{i} {j} 1.0\n" for i, j in W1_EDGES)

# weights are uniform on these ranges (magnitudes; the sign comes from the kind)
W_IN = (0.5, 1.5)
W_OUT = (0.1, 0.6)
# edge probabilities inside a block and between two blocks
P_IN = 0.7
P_OUT = 0.12


@dataclass(frozen=True)
class Planted:
    W: np.ndarray  # n x n symmetric, zero diagonal
    blocks: np.ndarray  # 0-based planted block id per node
    sides: np.ndarray | None  # +/-1 per node when the graph is balanced
    kind: str  # "unsigned" | "balanced" | "unbalanced"

    @property
    def n(self):
        return self.W.shape[0]

    @property
    def k(self):
        return int(self.blocks.max()) + 1


def planted(rng, sizes, kind):
    """Planted partition with the given block sizes.

    For "balanced", the first half of the blocks (rounded up) form side +1.
    """
    if kind not in ("unsigned", "balanced", "unbalanced"):
        raise ValueError(f"unknown kind {kind!r}")
    k = len(sizes)
    block_of = np.repeat(np.arange(k), sizes)
    n = block_of.size
    side_of_block = np.where(np.arange(k) < (k + 1) // 2, 1, -1)

    W = np.zeros((n, n))
    same = block_of[:, None] == block_of[None, :]
    p = np.where(same, P_IN, P_OUT)
    mask = np.triu(rng.random((n, n)) < p, 1)
    # spanning path inside each block, and one edge between every pair of
    # blocks, so the graph is connected and an unbalanced cycle exists
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    for b, (s, size) in enumerate(zip(starts, sizes)):
        idx = np.arange(s, s + size)
        mask[idx[:-1], idx[1:]] = True
        for c in range(b + 1, k):
            i = s + rng.integers(size)
            j = starts[c] + rng.integers(sizes[c])
            mask[i, j] = True
    mag = np.where(same, rng.uniform(*W_IN, size=(n, n)), rng.uniform(*W_OUT, size=(n, n)))
    if kind == "unsigned":
        sign = np.ones((n, n))
    elif kind == "balanced":
        s = side_of_block[block_of]
        sign = s[:, None] * s[None, :]
    else:
        sign = np.where(same, 1.0, -1.0)
    W[mask] = (mag * sign)[mask]
    W = W + W.T

    perm = rng.permutation(n)  # node perm[i] plays planted node i
    Wp = np.zeros_like(W)
    Wp[np.ix_(perm, perm)] = W
    blocks = np.empty(n, dtype=int)
    blocks[perm] = block_of
    sides = None
    if kind == "balanced":
        sides = np.empty(n, dtype=int)
        sides[perm] = side_of_block[block_of]
    return Planted(W=Wp, blocks=blocks, sides=sides, kind=kind)


def absolute(p):
    """The unsigned graph |W| with the same planted blocks."""
    return Planted(W=np.abs(p.W), blocks=p.blocks, sides=None, kind="unsigned")


def graph_text(W):
    """Edge-list text in the CLI's format; weights as repr of a Python float
    (numpy 2 scalars repr as np.float64(...), which the parser rejects)."""
    n = W.shape[0]
    rows, cols = np.nonzero(np.triu(W, 1))
    lines = [str(n)]
    lines += [f"{i + 1} {j + 1} {float(W[i, j])!r}" for i, j in zip(rows, cols)]
    return "\n".join(lines) + "\n"
