"""Independent generators and verifiers: Markov-condition-satisfying sources, stabilizer
entropies over GF(2), exact quantum-Markov-chain triples, and a brute-force
maximum-entropy solver used as the second route against the closed-form value."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import GeometryError, Region, Vertex, as_region, as_vertex, cluster_region
from .marginal_store import MarginalSet, Window
from .operator_core import (
    LOCAL_DIM,
    DensityOperator,
    StateError,
    apply_on_sites,
    check_dim_guard,
    embed_operator,
    partial_trace,
    product_operator,
    _entropy_from_eigs,
    _eigh,
    _transpose_in_place,
)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# -- random matrices ---------------------------------------------------------


def haar_unitary(dim: int, rng) -> np.ndarray:
    rng = _rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(dim: int, rng) -> np.ndarray:
    rng = _rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_density_matrix(dim: int, rng) -> np.ndarray:
    """Full-rank Wishart state G G^dag / tr."""
    rng = _rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


def random_state(region, rng) -> DensityOperator:
    region = as_region(region)
    return DensityOperator(region, random_density_matrix(LOCAL_DIM ** len(region), rng))


def basis_state(region, digits: Sequence[int]) -> DensityOperator:
    region = as_region(region)
    idx = 0
    for dgt in digits:
        idx = idx * LOCAL_DIM + int(dgt)
    dim = LOCAL_DIM ** len(region)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[idx, idx] = 1.0
    return DensityOperator(region, mat)


def ghz_state(region) -> DensityOperator:
    """(|0...0> + |1...1>)/sqrt(2) as a density operator."""
    region = as_region(region)
    dim = LOCAL_DIM ** len(region)
    vec = np.zeros(dim, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return DensityOperator(region, np.outer(vec, vec.conj()))


def maximally_mixed(region) -> DensityOperator:
    region = as_region(region)
    dim = LOCAL_DIM ** len(region)
    return DensityOperator(region, np.eye(dim, dtype=complex) / dim)


# -- classical Markov chains -------------------------------------------------


@dataclass
class ClassicalChain:
    """An inhomogeneous finite Markov chain: initial distribution plus one stochastic
    matrix per bond, T[c][i, j] = p(x_{c+1} = j | x_c = i)."""

    initial: np.ndarray
    transitions: list

    @classmethod
    def random(cls, length: int, rng) -> "ClassicalChain":
        """A chain of ``length`` bits whose probabilities are uniform draws shifted up by 0.1, then normalized."""
        rng = _rng(rng)
        init = rng.random(LOCAL_DIM) + 0.1
        init /= init.sum()
        trans = []
        for _ in range(length - 1):
            t = rng.random((LOCAL_DIM, LOCAL_DIM)) + 0.1
            t /= t.sum(axis=1, keepdims=True)
            trans.append(t)
        return cls(init, trans)

    @classmethod
    def repetition(cls, length: int) -> "ClassicalChain":
        return cls(np.full(LOCAL_DIM, 1.0 / LOCAL_DIM), [np.eye(LOCAL_DIM) for _ in range(length - 1)])

    @property
    def length(self) -> int:
        return len(self.transitions) + 1

    def joint(self, a: int, b: int) -> np.ndarray:
        """Joint probability tensor over consecutive positions a..b inclusive."""
        out = self.initial
        for t in self.transitions[:a]:
            out = out @ t
        for c in range(a, b):
            out = out[..., :, None] * self.transitions[c][(None,) * (out.ndim - 1)]
        return out.reshape((LOCAL_DIM,) * (b - a + 1))

    def marginal(self, positions: Sequence[int]) -> np.ndarray:
        """Probability tensor over an arbitrary sorted subset of positions."""
        positions = sorted(positions)
        lo, hi = positions[0], positions[-1]
        out = self.joint(lo, hi)
        keep = {p - lo for p in positions}
        for ax in reversed(range(hi - lo + 1)):
            if ax not in keep:
                out = out.sum(axis=ax)
        return out


def _conjugate_sites(mat: np.ndarray, region: Region, unitaries: dict) -> np.ndarray:
    """U mat U^dag for U the product of the site unitaries, one leg at a time; ``mat`` is consumed.

    U M U^dag = (conj(U) (U M)^T)^T, with both transposes made in place, so
    every leg gets a contiguous matrix and the result is contiguous.  A caller
    that hands over its only reference has at most two output-size arrays
    alive: a leg's input and its output.
    """
    legs = [(i, unitaries[v]) for i, v in enumerate(region) if v in unitaries]
    if not legs:
        return mat
    for i, u in legs:
        mat = apply_on_sites(u, mat, [i])
    _transpose_in_place(mat)
    for i, u in legs:
        mat = apply_on_sites(u.conj(), mat, [i])
    _transpose_in_place(mat)
    return mat


class RowMarkovSource:
    """Independent classical Markov chains along rows (or columns), conjugated site-by-site.

    Every Markov condition holds exactly for these states, and all marginals
    are available analytically, so arbitrarily large windows can be served
    without materializing the global state.
    """

    def __init__(
        self,
        window: Window,
        seed=0,
        orientation: str = "rows",
        unitaries: str = "haar",
        chains: list | None = None,
    ):
        if orientation not in ("rows", "columns"):
            raise ValueError(f"orientation must be 'rows' or 'columns', got {orientation!r}")
        self.window = window
        self.orientation = orientation
        self.seed = seed
        rng = _rng(seed)
        n_chains = window.height if orientation == "rows" else window.width
        chain_len = window.width if orientation == "rows" else window.height
        if chains is None:
            chains = [ClassicalChain.random(chain_len, rng) for _ in range(n_chains)]
        if len(chains) != n_chains or any(c.length != chain_len for c in chains):
            raise ValueError("chain list does not match the window geometry")
        self.chains = list(chains)
        self.site_unitaries: dict[Vertex, np.ndarray] = {}
        if unitaries not in ("haar", "real", "none"):
            raise ValueError(f"unitaries must be 'haar', 'real', or 'none', got {unitaries!r}")
        if unitaries != "none":
            make = haar_unitary if unitaries == "haar" else random_orthogonal
            for v in window.sites():
                self.site_unitaries[v] = make(LOCAL_DIM, rng)

    def _chain_and_pos(self, v: Vertex) -> tuple[int, int]:
        if self.orientation == "rows":
            return v[1], v[0]
        return v[0], v[1]

    def probability_tensor(self, region) -> np.ndarray:
        """Joint distribution of the unconjugated (classical) state on ``region``."""
        region = as_region(region)
        if not self.window.contains_region(region):
            raise GeometryError(f"region {region} extends outside the window")
        groups = {}
        for v in region:
            c, p = self._chain_and_pos(v)
            groups.setdefault(c, []).append((p, v))
        # every site lies on its chain, so the chains' marginals cover the region
        n, pos = len(region), {v: i for i, v in enumerate(region)}
        out = np.ones((LOCAL_DIM,) * n)
        for c, items in groups.items():
            items.sort()
            tensor = self.chains[c].marginal([p for p, _ in items])
            axes = [pos[v] for _, v in items]
            shape = [LOCAL_DIM if i in axes else 1 for i in range(n)]
            out = out * np.transpose(tensor, np.argsort(axes)).reshape(shape)
        return out

    def marginal(self, region) -> DensityOperator:
        region = as_region(region)
        p = self.probability_tensor(region).reshape(-1).astype(complex)
        mat = _conjugate_sites(np.diag(p), region, self.site_unitaries)
        return DensityOperator(region, mat)

    def region_entropy(self, region) -> float:
        """Exact entropy in bits from the classical distribution; unitaries do not change it."""
        region = as_region(region)
        if not region:
            return 0.0
        return _entropy_from_eigs(self.probability_tensor(region).reshape(-1))

    def marginal_set(self) -> MarginalSet:
        margs = {a: self.marginal(cluster_region(a, 3, 3)) for a in self.window.cluster_anchors()}
        return MarginalSet(self.window, margs)

    def global_state(self) -> DensityOperator:
        self.window.check_dense_guard()
        return self.marginal(self.window.sites())


def gen_row_markov(window: Window, seed=0, orientation: str = "rows", unitaries: str = "haar") -> RowMarkovSource:
    return RowMarkovSource(window, seed, orientation, unitaries)


def gen_repetition_rows(window: Window, unitaries: str = "none", seed=0) -> RowMarkovSource:
    """Rows of perfectly correlated classical bits: one bit of entropy per row."""
    chains = [ClassicalChain.repetition(window.width) for _ in range(window.height)]
    return RowMarkovSource(window, seed=seed, unitaries=unitaries, chains=chains)


class ProductSource:
    """Independent single-site states; the degenerate base case of every check."""

    def __init__(self, window: Window, site_states: dict | None = None, seed=0):
        self.window = window
        rng = _rng(seed)
        self.site_states: dict[Vertex, np.ndarray] = {}
        for v in window.sites():
            if site_states and v in site_states:
                self.site_states[v] = np.asarray(site_states[v], dtype=complex)
            else:
                self.site_states[v] = random_density_matrix(LOCAL_DIM, rng)

    def marginal(self, region) -> DensityOperator:
        return product_operator([DensityOperator((v,), self.site_states[v]) for v in as_region(region)])

    def region_entropy(self, region) -> float:
        total = 0.0
        for v in as_region(region):
            w = np.linalg.eigvalsh(self.site_states[v])
            total += _entropy_from_eigs(w)
        return total

    def marginal_set(self) -> MarginalSet:
        margs = {a: self.marginal(cluster_region(a, 3, 3)) for a in self.window.cluster_anchors()}
        return MarginalSet(self.window, margs)

    def global_state(self) -> DensityOperator:
        self.window.check_dense_guard()
        return self.marginal(self.window.sites())


def gen_product(window: Window, site_states: dict | None = None, seed=0) -> ProductSource:
    return ProductSource(window, site_states, seed)


def ghz_row_source(window: Window):
    """(marginal_set, global_state) of the qubit state with a coherent GHZ across the top row and |0> on every other
    site, under the dense guard.

    With width 3 the full GHZ row sits inside every cluster, so the Markov checks must fail.
    """
    window.check_dense_guard()
    row = window.height - 1
    row_sites = as_region([(x, row) for x in range(window.width)])
    rest = as_region([v for v in window.sites() if v[1] != row])
    state = product_operator([ghz_state(row_sites), basis_state(rest, [0] * len(rest))])
    return MarginalSet.from_global(state, window), state


def depolarize_marginal(ms: MarginalSet, anchor, eps: float) -> MarginalSet:
    """Replace the marginal at the set's ``anchor`` by (1-eps) rho + eps I/D, 0 <= eps <= 1, breaking consistency."""
    anchor = as_vertex(anchor)
    if anchor not in ms.marginals:
        raise GeometryError(f"{anchor} is not a cluster anchor of the window; its anchors are {list(ms.anchors())}")
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    margs = dict(ms.marginals)
    op = margs[anchor]
    margs[anchor] = DensityOperator(op.region, (1.0 - eps) * op.matrix + eps * np.eye(op.dim) / op.dim)
    return MarginalSet(ms.window, margs)


# -- stabilizer states over GF(2) ---------------------------------------------


def gf2_rank(mat: np.ndarray) -> int:
    m = (np.asarray(mat, dtype=np.uint8) & 1).copy()
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivots = np.nonzero(m[rank:, c])[0]
        if pivots.size == 0:
            continue
        pivot = rank + pivots[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, c])[0]
        hits = hits[hits != rank]
        m[hits] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


_PAULI = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass
class StabilizerState:
    """A qubit stabilizer group given by generator bit rows [X-part | Z-part].

    Represents the state (1/2^n) * sum over the group; global phases are never
    stored since entropies do not need them.  Mixed states correspond to fewer
    than n generators.
    """

    sites: Region
    generators: np.ndarray

    def __post_init__(self):
        self.sites = as_region(self.sites)
        gens = (np.asarray(self.generators, dtype=np.uint8) & 1).reshape(-1, 2 * len(self.sites))
        n = len(self.sites)
        k = gens.shape[0]
        if gf2_rank(gens) != k:
            raise StateError("stabilizer generators are not independent over GF(2)")
        x, z = gens[:, :n], gens[:, n:]
        sym = (x @ z.T + z @ x.T) % 2
        if sym.any():
            raise StateError("stabilizer generators do not commute")
        self.generators = gens

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def k(self) -> int:
        return self.generators.shape[0]

    def region_entropy(self, region) -> int:
        """|A| - dim of the subgroup supported inside A; an exact integer in bits."""
        region = as_region(region)
        if not region:
            return 0
        pos = {v: i for i, v in enumerate(self.sites)}
        try:
            inside = [pos[v] for v in region]
        except KeyError as exc:
            raise GeometryError(f"site {exc.args[0]} is not part of the state") from exc
        outside = [i for i in range(self.n) if i not in set(inside)]
        cols = outside + [self.n + i for i in outside]
        rank_out = gf2_rank(self.generators[:, cols]) if cols else 0
        return len(region) - (self.k - rank_out)

    def to_dense(self) -> DensityOperator:
        check_dim_guard(2 ** self.n, 2 ** 10)
        rho = np.eye(2 ** self.n, dtype=complex)
        # the product of the commuting projectors (1 + g)/2, each Pauli string applied leg by leg
        for row in self.generators:
            g_rho = rho
            for i in range(self.n):
                xb, zb = int(row[i]), int(row[self.n + i])
                if xb or zb:
                    g_rho = apply_on_sites(_PAULI[(xb, zb)], g_rho, [i])
            rho = (rho + g_rho) / 2.0
        return DensityOperator(self.sites, rho / rho.trace())


def repetition_rows(window: Window) -> StabilizerState:
    """Z_i Z_{i+1} along every row: each row is a perfectly correlated classical pair state."""
    sites = window.sites()
    pos = {v: i for i, v in enumerate(sites)}
    n = len(sites)
    gens = []
    for y in range(window.height):
        for x in range(window.width - 1):
            row = np.zeros(2 * n, dtype=np.uint8)
            row[n + pos[(x, y)]] = 1
            row[n + pos[(x + 1, y)]] = 1
            gens.append(row)
    return StabilizerState(sites, np.array(gens, dtype=np.uint8))


def ghz_stabilizer(sites) -> StabilizerState:
    """X...X together with nearest Z Z pairs: the pure GHZ state."""
    sites = as_region(sites)
    n = len(sites)
    gens = [np.concatenate([np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)])]
    for i in range(n - 1):
        row = np.zeros(2 * n, dtype=np.uint8)
        row[n + i] = row[n + i + 1] = 1
        gens.append(row)
    return StabilizerState(sites, np.array(gens, dtype=np.uint8))


# -- exact quantum Markov chains ----------------------------------------------


def tripartite_regions(dA: int, dB: int, dC: int) -> tuple[Region, Region, Region]:
    """Consecutive row sites carrying the three tensor factors."""
    def n_sites(dim):
        n = round(np.log(dim) / np.log(LOCAL_DIM))
        if LOCAL_DIM ** n != dim:
            raise ValueError(f"dimension {dim} is not a power of 2")
        return n

    na, nb, nc = n_sites(dA), n_sites(dB), n_sites(dC)
    xs = list(range(na + nb + nc))
    a = as_region([(x, 0) for x in xs[:na]])
    b = as_region([(x, 0) for x in xs[na:na + nb]])
    c = as_region([(x, 0) for x in xs[na + nb:]])
    return a, b, c


def gen_qmc_triple(
    dA: int,
    dB: int,
    dC: int,
    blocks: Sequence[tuple[int, int]],
    seed=0,
) -> DensityOperator:
    """Sample an exact quantum Markov chain via the direct-sum structure of B.

    B decomposes as a direct sum of bL_j (x) bR_j sectors; on each sector the
    state factorizes as rho_{A,bL} (x) rho_{bR,C}, which forces I(A:C|B) = 0
    identically.  ``blocks`` lists the (dim bL_j, dim bR_j) pairs and must fit
    inside dB.
    """
    rng = _rng(seed)
    used = sum(l * r for l, r in blocks)
    if used > dB:
        raise ValueError(f"block structure needs dimension {used}, but dB = {dB}")
    if not blocks:
        raise ValueError("need at least one block")
    a_reg, b_reg, c_reg = tripartite_regions(dA, dB, dC)
    weights = rng.dirichlet(np.full(len(blocks), 5.0)) if len(blocks) > 1 else np.array([1.0])
    weights = (weights + 0.05) / (weights + 0.05).sum()
    big = np.zeros((dA, dB, dC, dA, dB, dC), dtype=complex)
    off = 0
    for (l, r), w in zip(blocks, weights):
        al = random_density_matrix(dA * l, rng).reshape(dA, l, dA, l)
        rc = random_density_matrix(r * dC, rng).reshape(r, dC, r, dC)
        t = np.einsum("aubv,xcyd->auxcbvyd", al, rc)  # (a, bl, br, c, a', bl', br', c')
        big[:, off:off + l * r, :, :, off:off + l * r, :] += w * t.reshape(dA, l * r, dC, dA, l * r, dC)
        off += l * r
    dim = dA * dB * dC
    mat = big.reshape(dim, dim)
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(as_region(a_reg + b_reg + c_reg), mat / mat.trace().real)


# -- brute-force maximum entropy ------------------------------------------------


class MaxEntConvergenceError(RuntimeError):
    """Dual optimization failed to push the marginal residual below tolerance."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"max-entropy solver stalled at marginal residual {residual:.3e} "
            f"after {iterations} iterations (constraints may be infeasible)"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass
class MaxEntSolution:
    value: float
    state: DensityOperator
    dual_residual: float
    iterations: int


def _herm_from_vec(x: np.ndarray, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[np.diag_indices(dim)] = x[:dim]
    iu = np.triu_indices(dim, 1)
    n_off = iu[0].size
    m[iu] = x[dim:dim + n_off] + 1j * x[dim + n_off:]
    m[(iu[1], iu[0])] = np.conj(m[iu])
    return m


def _vec_from_herm(g: np.ndarray, dim: int) -> np.ndarray:
    iu = np.triu_indices(dim, 1)
    return np.concatenate([g[np.diag_indices(dim)].real, 2 * g[iu].real, 2 * g[iu].imag])


def brute_force_maxent(
    constraints: Sequence[tuple],
    global_region,
    *,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> MaxEntSolution:
    """Maximize von Neumann entropy subject to marginal constraints; the value is in bits.

    Works on the dual of the exponential family rho(lambda) = exp(sum of
    embedded lambda_r) / Z, which is smooth and convex, so the quasi-Newton
    iteration converges to the unique optimum whenever the constraints are
    mutually consistent and full-rank.  This is an oracle: clarity and a
    certifiable residual beat speed.
    """
    from scipy.optimize import minimize

    global_region = as_region(global_region)
    dim = LOCAL_DIM ** len(global_region)
    check_dim_guard(dim, 2 ** 12)
    cons = []
    for region, op in constraints:
        region = as_region(region)
        if not set(region) <= set(global_region):
            raise GeometryError(f"constraint region {region} is outside the global region")
        target = op.matrix if isinstance(op, DensityOperator) else np.asarray(op, dtype=complex)
        if target.shape != (LOCAL_DIM ** len(region),) * 2:
            raise StateError(f"constraint on {region} has wrong dimension {target.shape}")
        cons.append((region, target))

    sizes = [LOCAL_DIM ** len(r) for r, _ in cons]
    param_sizes = [d * d for d in sizes]
    offsets = np.concatenate([[0], np.cumsum(param_sizes)])

    def split(x):
        return [x[offsets[i]:offsets[i + 1]] for i in range(len(cons))]

    def gibbs(x):
        """log Z, the Boltzmann weights and rho = exp(H) / Z for H = sum of embedded multipliers."""
        h = np.zeros((dim, dim), dtype=complex)
        for (region, _), piece, d_r in zip(cons, split(x), sizes):
            h += embed_operator(_herm_from_vec(piece, d_r), region, global_region)
        w, u = _eigh(h)
        shift = w.max()
        expw = np.exp(w - shift)
        z = expw.sum()
        p = expw / z
        rho = (u * p) @ u.conj().T
        return shift + np.log(z), p, 0.5 * (rho + rho.conj().T)

    def objective(x):
        val, _, rho = gibbs(x)
        state = DensityOperator(global_region, rho)
        grads = []
        for (region, target), piece, d_r in zip(cons, split(x), sizes):
            lam = _herm_from_vec(piece, d_r)
            val -= float(np.trace(target @ lam).real)
            marg = partial_trace(state, region).matrix
            grads.append(_vec_from_herm(marg - target, d_r))
        return val, np.concatenate(grads) if grads else np.zeros(0)

    def solve_state(x):
        _, p, rho = gibbs(x)
        state = DensityOperator(global_region, rho / rho.trace().real)
        residual = 0.0
        for region, target in cons:
            diff = partial_trace(state, region).matrix - target
            residual = max(residual, 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum()))
        return state, p, residual

    # L-BFGS stops on its own ftol well before tight residuals; warm restarts
    # reset its curvature memory and keep pushing until the residual certifies
    x = np.zeros(int(offsets[-1]))
    iterations = 0
    state, p, residual = solve_state(x)
    for _ in range(12):
        if residual <= tol or iterations >= max_iter:
            break
        result = minimize(
            objective,
            x,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": min(max_iter - iterations, 20000),
                "ftol": 1e-18,
                "gtol": 1e-14,
                "maxcor": 50,
                "maxls": 100,
            },
        )
        x = result.x
        iterations += max(int(result.nit), 1)
        prev = residual
        state, p, residual = solve_state(x)
        if residual >= prev * 0.99:
            break
    if residual > tol:
        raise MaxEntConvergenceError(residual, iterations)
    value = _entropy_from_eigs(np.sort(p))
    return MaxEntSolution(value, state, residual, iterations)
