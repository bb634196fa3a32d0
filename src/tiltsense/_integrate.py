"""Composite Gauss-Legendre quadrature with panel doubling, over one or several planes.

The first pass evaluates each panel at the ORDER nodes of the rule and at the
COMPANION_ORDER nodes of a lower Gauss-Legendre rule, in the same call.  A
plane whose two sums agree within COMPANION_SHARE of its tolerance is done
with the ORDER-point sum; any other plane goes on doubling its panels from 2
per segment, against its 1-panel sum, as if the companion were not there.
"""

from __future__ import annotations

import numpy as np

ORDER = 64  # nodes per panel
MAX_PANELS = 512  # panels per segment past which doubling gives up
# planes that share one pass at most: bounds the (planes, nodes) arrays, whose cost
# per node is flat from about 1,500 nodes on, so a larger group would gain nothing
MAX_PLANES = 16

# the companion rule of the first pass: exact to degree 65 where the rule is exact to
# 127, so the gap between their sums is about the companion's error, well above the rule's
COMPANION_ORDER = 33
# the share of a plane's tolerance within which the companion confirms its first sum.
# Near z = 0.1 z_R and a few small-angle guards, where the rule is not yet converging
# fast, a joint decomposition confirmed within the full tolerance can end 1e-11 of its
# total off a dense rule, and one confirmed within a tenth 1.04e-13 off; every plane of
# the benchmark's sweeps (seeds 1-60) is confirmed within 0.024
COMPANION_SHARE = 0.03

# the positive half of np.polynomial.legendre.leggauss(ORDER), whose nodes and
# weights are exactly symmetric about 0; numpy.polynomial costs 3-4 ms to import
_HALF_NODES = np.array([
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
])
_HALF_WEIGHTS = np.array([
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
])
_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])

# the center and the positive half of leggauss(COMPANION_ORDER), just as symmetric
_COMPANION_HALF_NODES = np.array([
    0.0, 0.0936310658547334, 0.18643929882799157, 0.27760909715249704,
    0.36633925774807335, 0.4518500172724507, 0.5333899047863476, 0.610242345836379,
    0.6817319599697428, 0.7472304964495622, 0.8061623562741665, 0.8580096526765041,
    0.9023167677434336, 0.9386943726111684, 0.9668229096899927, 0.9864557262306425,
    0.9974246942464552,
])
_COMPANION_HALF_WEIGHTS = np.array([
    0.09376844616020989, 0.09335642606559606, 0.0921239866433169, 0.09008195866063853,
    0.08724828761884425, 0.08364787606703865, 0.07931236479488672, 0.07427985484395407,
    0.06859457281865666, 0.06230648253031733, 0.05547084663166369, 0.048147742818711634,
    0.04040154133166948, 0.032300358632328253, 0.023915548101749853, 0.015321701512935382,
    0.006606227847587528,
])
_COMPANION_NODES = np.concatenate([-_COMPANION_HALF_NODES[:0:-1], _COMPANION_HALF_NODES])
_COMPANION_WEIGHTS = np.concatenate([_COMPANION_HALF_WEIGHTS[:0:-1], _COMPANION_HALF_WEIGHTS])


class PlaneError(RuntimeError):
    """A failure at the plane of index ``plane``; ``reason`` is that plane's one-plane message."""

    def __init__(self, reason, plane=0):
        super().__init__(reason)
        self.reason, self.plane = reason, plane


class ConvergenceError(PlaneError):
    """The quadrature failed to reach the requested tolerance."""


def take_planes(value, planes):
    """A column's entries at the planes of index ``planes`` (a 1-d array); a float is every plane's."""
    return value if np.ndim(value) == 0 else value[planes]


def integrate_interval(f, lo, hi, breakpoints=(), rtol=1e-11, atol=0.0):
    """Integrate f over [lo, hi], split at the interior breakpoints.

    The breakpoints come in ascending order, or ValueError is raised; those
    outside (lo, hi) are ignored, and a breakpoint given more than once is one
    edge.  Every segment gets the same number of equal panels.  The first
    pass, of 1 panel per segment, also sums the companion rule on each panel;
    if the two sums agree within COMPANION_SHARE of max(atol, rtol |sum|) in
    every component, the ORDER-point sum is the result.  Otherwise the panel
    count doubles until two successive sums agree within max(atol, rtol |sum|)
    in every component.  f may return an array whose last axis runs over the
    nodes, one integral per component.

    With array bounds, one entry per plane, each plane is its own integral,
    with its own edges (each breakpoint a float or one value per plane) and
    its own convergence, and the result's last axes are the bounds' shape.  A
    pass calls f(x, planes) on the planes not yet converged: ``planes`` holds
    their indices and x, of shape (len(planes), nodes), their nodes; f
    returns an array whose last two axes are those of x.  A plane keeps the
    sum of the pass at which it converged and drops out of the later passes,
    so it is evaluated at exactly the nodes of a one-plane call and its sum
    has the same bits.  Planes share passes in groups of at most MAX_PLANES.

    Float bounds are the one-plane batch: f(x) then takes the 1-d array of
    the plane's nodes, and the result is a float, or an array over f's
    components.
    """
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:  # the one-plane batch, f taking that plane's nodes
        one_plane = f
        f = lambda x, planes: one_plane(x[0])[..., None, :]  # noqa: E731
    columns = (np.asarray(v, dtype=float).ravel() for v in (lo, hi, *breakpoints))
    low, high, *points = np.broadcast_arrays(*columns)
    points = np.stack(points, axis=-1) if points else np.empty((len(low), 0))
    if np.isnan(points).any() or (points[:, 1:] < points[:, :-1]).any():
        raise ValueError("each plane's breakpoints must ascend, with no NaN")
    # each plane's inner edges: its points inside (lo, hi), less any that repeats the one before
    inner = (low[:, None] < points) & (points < high[:, None])
    inner[:, 1:] &= points[:, 1:] != points[:, :-1]
    # counted and grouped with the float and mask operations of a pass: an integer
    # reduction would page in numpy loops that raise a cold command's peak memory
    counts = np.sum(np.where(inner, 1.0, 0.0), axis=-1)
    index = np.arange(len(low))
    result = None
    # planes with the same number of segments share a pass, the groups in order of first plane
    for count in dict.fromkeys(counts.tolist()):
        members, count = index[counts == count], int(count)
        for start in range(0, len(members), MAX_PLANES):
            planes = members[start:start + MAX_PLANES]
            inner_edges = points[planes][inner[planes]].reshape(len(planes), count)
            edges = np.column_stack([low[planes], inner_edges, high[planes]])
            total = _passes(f, edges, planes, rtol, atol)
            if result is None:
                result = np.empty(total.shape[:-1] + (len(low),))
            result[..., planes] = total
    result = result.reshape(result.shape[:-1] + np.broadcast_shapes(np.shape(lo), np.shape(hi)))
    return float(result) if result.ndim == 0 else result


def _rule(edges, panels, nodes, weights):
    """The nodes, (planes, nodes), of ``panels`` equal panels per segment, and their weights."""
    half = (0.5 * np.diff(edges) / panels)[..., None]
    centers = edges[:, :-1, None] + (2.0 * np.arange(panels) + 1.0) * half
    x = (centers[..., None] + half[..., None] * nodes).reshape(len(edges), -1)
    weights = np.broadcast_to(half[..., None] * weights, centers.shape + weights.shape)
    return x, weights.reshape(x.shape)


def _passes(f, edges, planes, rtol, atol):
    """Sums over the planes ``planes`` whose segment edges are the rows of ``edges``."""
    result = None  # the sums of the planes converged so far, once a plane is left open
    pending = np.arange(len(planes))  # the planes still open, as indices into ``planes``
    previous, panels = None, 1
    while panels <= MAX_PANELS:
        x, weights = _rule(edges, panels, _NODES, _WEIGHTS)
        if previous is None:  # the first pass: the companion's nodes follow the rule's
            companion, companion_weights = _rule(edges, panels, _COMPANION_NODES, _COMPANION_WEIGHTS)
            values = f(np.concatenate([x, companion], axis=-1), planes[pending])
            values, companion = values[..., :x.shape[-1]], values[..., x.shape[-1]:]
            # its sum is to agree with the companion's within a share of the tolerance
            reference, share = np.sum(companion * companion_weights, axis=-1), COMPANION_SHARE
        else:
            values, reference, share = f(x, planes[pending]), previous, 1.0
        total = np.sum(values * weights, axis=-1)
        finite = np.isfinite(total).reshape(-1, len(pending)).all(axis=0)
        if not finite.all():
            at = int(np.argmin(finite))
            detail = f": the integrand is not finite there (sum {total[..., at]})"
            raise _failure(edges[at], planes[pending[at]], detail)
        gap = np.abs(total - reference)
        done = gap <= share * np.maximum(atol, rtol * np.abs(total))
        done = done.reshape(-1, len(pending)).all(axis=0)
        if result is None:
            if done.all():
                return total
            result = np.empty(total.shape[:-1] + (len(planes),))
        result[..., pending[done]] = total[..., done]
        if done.all():
            return result
        open_ = ~done
        edges, pending, total, gap = edges[open_], pending[open_], total[..., open_], gap[..., open_]
        previous, panels = total, 2 * panels
    raise _failure(
        edges[0], planes[pending[0]],
        f" with {MAX_PANELS} panels per segment; the last two sums differ by "
        f"{np.max(gap[..., 0]):.3e}",
    )


def _failure(edges, plane, detail):
    span = f"quadrature did not converge on [{edges[0]:.6e}, {edges[-1]:.6e}]"
    return ConvergenceError(span + detail, int(plane))
