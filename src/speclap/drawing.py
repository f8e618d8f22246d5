"""Minimal-energy orthogonal drawings of unsigned and signed graphs."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import DimensionTooLarge, NoNegativeEdges
from .graph import _connected, _nonnegative, connected_components, orient
from .laplacian import is_balanced, laplacian, quadratic_form

# fixed stylesheet: the geometry is the contract, the style is not
_SVG_STYLE = (
    "circle { fill: #1f6feb; stroke: #0b3d91; stroke-width: 1; }\n"
    "line { stroke: #444; stroke-width: 2; }\n"
    "line.neg { stroke: #d32f2f; stroke-dasharray: 6 4; }\n"
)
_VIEW = 1000.0
_MARGIN = 50.0
_RADIUS = 8.0


@dataclass(frozen=True)
class DrawingMatrix:
    R: np.ndarray  # row i = coordinates of node i
    n: int
    eigenvalues: np.ndarray | None = None  # min(n + 1, m) smallest, from the solve R came from


def energy(g, R, signed=False):
    """Spring energy tr(R^T L R) (signed: Lbar) of a drawing: the sum of the
    quadratic forms of its axes. A vector is a one-axis drawing."""
    R = R.R if isinstance(R, DrawingMatrix) else R
    return float(np.sum(quadratic_form(g, R, signed)))


def _drawing(g, kind, n, first):
    """Eigenvectors u_{first+1}..u_{first+n} of the Laplacian from one solve
    for the min(n + 1, m) smallest eigenpairs."""
    if n < 1:
        raise ValueError(f"drawing dimension must be at least 1, got {n}")
    if n + first > g.m:
        raise DimensionTooLarge(f"dimension {n} too large for {g.m} nodes")
    vals, vecs = eigen.smallest_k(laplacian(g, kind).M, min(n + 1, g.m))
    return DrawingMatrix(R=vecs[:, first : first + n].copy(), n=n, eigenvalues=vals)


def spectral_drawing(g, n):
    """Orthogonal balanced drawing from eigenvectors u_2..u_{n+1} of L.
    The graph must be connected and its weights nonnegative (a negative
    weight raises NegativeWeightInUnsignedMode; signed_drawing draws
    signed graphs)."""
    _connected(connected_components(g)[1])
    _nonnegative(g, "spectral_drawing", "signed_drawing (draw --signed)")
    return _drawing(g, "unnormalized", n, 1)


def signed_drawing(g, n, bipartite=False):
    """Drawing of a signed graph from the eigenvectors of Lbar.

    Unbalanced graph: u_1..u_n. Balanced graph: u_2..u_{n+1} (nonbipartite
    request), or u_1, u_2 when a 2-d bipartite drawing is asked for.
    """
    report = is_balanced(g)
    if not g.has_negative_edges:
        raise NoNegativeEdges("use spectral_drawing for all-positive graphs")
    if report.balanced and bipartite and n != 2:
        raise ValueError("the bipartite drawing is only defined for n = 2")
    first = 1 if report.balanced and not bipartite else 0
    return _drawing(g, "signed_unnormalized", n, first)


def _map_to_viewbox(R):
    lo = R.min(axis=0)
    hi = R.max(axis=0)
    span = float(max((hi - lo).max(), 1e-12))
    scale = (_VIEW - 2 * _MARGIN) / span
    center = 0.5 * (lo + hi)
    XY = (R - center) * scale
    XY[:, 1] = -XY[:, 1]  # SVG y grows downward
    return XY + _VIEW / 2


def _svg_text(R2, g):
    # each node's coordinates are formatted once, from Python floats
    # (formatting a numpy scalar costs several times more), and reused by
    # every edge that meets the node
    XY = [(f"{x:.2f}", f"{y:.2f}") for x, y in _map_to_viewbox(R2).tolist()]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">',
        f"<style>{_SVG_STYLE}</style>",
    ]
    for i, j, w in orient(g).edges:
        cls = ' class="neg"' if w < 0 else ""
        x1, y1 = XY[i - 1]
        x2, y2 = XY[j - 1]
        parts.append(f'<line{cls} x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    radius = f"{_RADIUS:.0f}"
    for x, y in XY:
        parts.append(f'<circle cx="{x}" cy="{y}" r="{radius}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(R, g, path):
    """Write the drawing as SVG. A 3-d drawing produces two files
    (columns 1-2 and 1-3) with -xy/-xz suffixes. R (a DrawingMatrix or its
    R) must be finite: ValueError before any file or warning."""
    R = eigen._finite(R.R if isinstance(R, DrawingMatrix) else R)
    path = str(path)
    if R.shape[1] == 2:
        views = [(path, [0, 1])]
    elif R.shape[1] == 3:
        warnings.warn("3-d drawing: emitting two 2-d projections")
        stem = path[:-4] if path.endswith(".svg") else path
        views = [(f"{stem}-xy.svg", [0, 1]), (f"{stem}-xz.svg", [0, 2])]
    else:
        raise ValueError("SVG output is defined for 2-d and 3-d drawings only")
    for p, cols in views:
        with open(p, "w", encoding="utf-8") as f:
            f.write(_svg_text(R[:, cols], g))
    return [p for p, _ in views]


def emit_csv(R, path):
    """Raw coordinates: header node,x1..xn, one row per node, 1-based ids.
    R (a DrawingMatrix or its R) must be finite: ValueError before the file
    is opened."""
    R = eigen._finite(R.R if isinstance(R, DrawingMatrix) else R)
    header = "node," + ",".join(f"x{k + 1}" for k in range(R.shape[1]))
    lines = [header]
    for i, row in enumerate(R.tolist(), start=1):
        lines.append(str(i) + "," + ",".join(repr(float(v)) for v in row))
    with open(str(path), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
