"""Descriptor steering under quarter-turn rotations.

If a descriptor network is rotation *equivariant*, rotating its input image
by a quarter turn transforms every descriptor by one fixed linear map W, so
descriptions of an image rotated k quarter turns can be matched against the
original by multiplying the original descriptions with W^k.

This module estimates W from paired descriptor sets: a least-squares fit
(normal equations with a fixed ridge) and a robust L1 fit by subgradient
descent over all three rotation multiples jointly, where the k-fold matrix
power is differentiated with the product rule. A synthetic generator
produces exactly-equivariant descriptor sets (plus optional noise) so the
whole estimation pipeline can be validated end to end, and a mutual
nearest-neighbor matcher measures how much steering helps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _readonly

R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
MNN_BLOCK_ROWS = 128  # similarity rows per block in mutual nearest-neighbour search
LSQ_RIDGE = 1e-8  # added to the least-squares Gram diagonal
L1_PATIENCE = 50  # stagnant L1 iterations before the step halves


@dataclass(frozen=True)
class DescriptorSet:
    coords: np.ndarray  # (N, 2) keypoint coordinates in extent units
    descs: np.ndarray  # (N, D)

    def __post_init__(self) -> None:
        coords = _readonly(np.atleast_2d(self.coords))
        descs = _readonly(np.atleast_2d(self.descs))
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 1:
            raise ValueError("coords must have shape (N, 2) with N >= 1")
        if descs.shape[0] != coords.shape[0]:
            raise ValueError("descs must have one row per keypoint")
        if descs.shape[1] < 1:
            raise ValueError("descriptors must have at least one dimension")
        if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(descs))):
            raise ValueError("descriptor sets must be finite")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "descs", descs)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.descs.shape[1]


@dataclass(frozen=True)
class SteeringMatrix:
    w: np.ndarray  # (D, D)

    def __post_init__(self) -> None:
        w = _readonly(self.w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("steering matrix must be square")
        if not np.all(np.isfinite(w)):
            raise ValueError("steering matrix must be finite")
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def power(self, k: int) -> np.ndarray:
        """W^k; k = 0 gives the identity, k = 1 the read-only ``w`` itself."""
        if k < 0:  # matrix_power would invert W instead
            raise ValueError("k must be nonnegative")
        return np.linalg.matrix_power(self.w, k)


def rotate_keypoints(coords: np.ndarray, k: int) -> np.ndarray:
    """x -> R90^k x, k quarter turns (mod 4) about the extent center, with R90: (u, v) -> (-v, u)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return coords @ np.linalg.matrix_power(R90, int(k) % 4).T


def random_c4_steering(dim: int, seed: int = 0) -> SteeringMatrix:
    """Block-diagonal 2x2 rotations by +-90 or 180 degrees; exactly W^4 = I."""
    if dim < 2 or dim % 2:
        raise ValueError(f"descriptor dimension must be even and at least 2, got {dim}")
    rng = np.random.default_rng(seed)
    blocks = {
        0: np.array([[0.0, -1.0], [1.0, 0.0]]),  # +90
        1: np.array([[0.0, 1.0], [-1.0, 0.0]]),  # -90
        2: np.array([[-1.0, 0.0], [0.0, -1.0]]),  # 180
    }
    w = np.zeros((dim, dim))
    for b, choice in enumerate(rng.integers(0, 3, dim // 2)):
        w[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = blocks[int(choice)]
    return SteeringMatrix(w)


def synth_equivariant(
    n: int,
    dim: int,
    w_true: SteeringMatrix | None = None,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> list[DescriptorSet]:
    """Descriptor sets for k = 0..3 quarter turns satisfying exact steering.

    Row i of every set corresponds to the same keypoint, so index agreement
    is the ground-truth matching. Descriptors of set k are
    ``W_true^k @ base + noise``; keypoints rotate about the extent center.
    """
    if n < 1:
        raise ValueError(f"need at least one keypoint, got n={n}")
    if not 0 <= noise_sigma < np.inf:  # also refuses NaN
        raise ValueError(f"noise sigma must be nonnegative and finite, got {noise_sigma}")
    if w_true is None:
        w_true = random_c4_steering(dim, seed=seed)
    if w_true.dim != dim:
        raise ValueError("steering matrix dimension mismatch")
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, (n, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    coords = rng.uniform(-1.0, 1.0, (n, 2))
    sets = []
    for k in range(4):
        descs = base @ w_true.power(k).T
        if noise_sigma > 0:
            descs = descs + rng.normal(0.0, noise_sigma, descs.shape)
        sets.append(DescriptorSet(rotate_keypoints(coords, k), descs))
    return sets


def fit_steering_lsq(base: DescriptorSet, rotated: DescriptorSet) -> tuple[SteeringMatrix, float]:
    """Least-squares W from one rotation step; returns (W, RMS residual).

    Solves the normal equations ``W (G^T G + LSQ_RIDGE I) = G_rot^T G``. A
    system that stays singular, because the Gram entries dwarf the ridge,
    raises instead.
    """
    if len(base) != len(rotated):
        raise ValueError("descriptor sets must be index-aligned")
    g = base.descs
    gr = rotated.descs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        gram = g.T @ g + LSQ_RIDGE * np.eye(g.shape[1])
        moment = g.T @ gr
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(moment))):
        raise ValueError("descriptors too large for a least-squares fit: the Gram matrix overflows")
    try:
        wt = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient fit; supply more pairs") from exc
    w = wt.T
    with np.errstate(over="ignore"):  # an overflow is refused below
        residual = float(np.sqrt(np.mean((gr - g @ w.T) ** 2)))
    if not np.isfinite(residual):
        raise ValueError("descriptors too large for a least-squares fit: the residual overflows")
    return SteeringMatrix(w), residual


@dataclass(frozen=True)
class L1FitResult:
    w: SteeringMatrix
    initial_loss: float
    final_loss: float
    iterations: int
    final_step: float


def fit_steering_l1(
    pairs: dict[int, tuple[DescriptorSet, DescriptorSet]],
    iters: int = 2000,
    step: float = 5e-3,
    seed: int = 0,
    init: np.ndarray | None = None,
) -> L1FitResult:
    """Robust multi-rotation fit: subgradient descent on the summed L1 loss.

    Each iteration draws one rotation multiple k from the available pairs and
    steps along that term's subgradient. The step is constant but halves
    whenever the full multi-k loss stagnates for ``L1_PATIENCE`` iterations or
    goes non-finite, and the trajectory then restarts from the best iterate
    (re-evaluated, not stored); a step too large so backs off instead of failing.
    One residual and one sign buffer, allocated once per call and shared by every
    k, spare the iterations any (N, D) temporary. Defaults to warm-starting at the
    smallest k's least-squares fit; the best iterate is returned, so the final
    loss never exceeds the initial one.
    """
    if not pairs:
        raise ValueError("no descriptor pairs supplied")
    if not 0 < step < np.inf:  # also refuses NaN
        raise ValueError(f"step must be positive and finite, got {step}")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    for k, (base, rotated) in pairs.items():
        if k not in (1, 2, 3):
            raise ValueError("rotation multiples must come from {1, 2, 3}")
        if len(base) != len(rotated):
            raise ValueError("descriptor sets must be index-aligned")
    dims = sorted({ds.dim for pair in pairs.values() for ds in pair})
    if len(dims) > 1:
        raise ValueError(f"descriptor sets must share one width, got widths {dims}")
    w = fit_steering_lsq(*pairs[min(pairs)])[0].w.copy() if init is None else np.array(init, dtype=float)
    if w.shape != (dims[0], dims[0]):
        raise ValueError(f"init must be {dims[0]}x{dims[0]} to match the descriptors, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("init must be finite")
    rng = np.random.default_rng(seed)
    ks = sorted(pairs)
    # A residual and a sign buffer shared by every k, not one pair per k: the
    # smaller working set stays in cache. views[k] is k's (residual, signs).
    bufs = np.empty((2, max(rotated.descs.size for _, rotated in pairs.values())))
    views = {k: bufs[:, : r.descs.size].reshape(2, *r.descs.shape) for k, (_, r) in pairs.items()}

    def evaluate(w, next_k):
        """W^0..W^3 and the summed L1 loss; leaves the signs of next_k's residual in its view."""
        w2 = w @ w
        powers = (np.eye(w.shape[0]), w, w2, w2 @ w)  # as np.linalg.matrix_power forms them
        total = 0.0
        for k, (base, rotated) in pairs.items():
            r = np.subtract(rotated.descs, np.matmul(base.descs, powers[k].T, out=views[k][0]), out=views[k][0])
            if k == next_k:
                np.sign(r, out=views[k][1])
            total += float(np.abs(r, out=r).sum())
        return powers, total

    # The draw rng.choice(ks) makes, without its overhead; each k is drawn one
    # step ahead so that evaluate keeps only that term's signs.
    k = ks[int(rng.integers(len(ks)))]
    powers, initial = evaluate(w, k)
    best_w, best_loss = w, initial
    since_improvement = 0
    current_step = float(step)
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up backs off below
        for it in range(1, iters + 1):
            # The k-step term's subgradient (matrix-power product rule) at the iterate.
            g_m = -(views[k][1].T @ pairs[k][0].descs)  # d loss / d (W^k)
            grad = np.zeros_like(w)
            for j in range(k):
                grad += powers[j].T @ g_m @ powers[k - 1 - j].T
            w = w - current_step * grad
            k = ks[int(rng.integers(len(ks)))]
            powers, loss = evaluate(w, k)
            if loss < best_loss - 1e-15:
                best_w, best_loss = w, loss
                since_improvement = 0
            else:
                since_improvement += 1
            if since_improvement >= L1_PATIENCE or not np.isfinite(loss):
                current_step *= 0.5
                since_improvement = 0
                if current_step < 1e-18:
                    break
                # Restart from the best point; re-evaluating it restores its signs bit for bit.
                w = best_w
                powers = evaluate(w, k)[0]
    return L1FitResult(
        w=SteeringMatrix(best_w),
        initial_loss=initial,
        final_loss=best_loss,
        iterations=it,
        final_step=current_step,
    )


def apply_steering(w: SteeringMatrix, k: int, descs: np.ndarray) -> np.ndarray:
    """Multiply descriptors by W^k (k = 0 is the identity)."""
    if k not in (0, 1, 2, 3):
        raise ValueError("k must be in {0, 1, 2, 3}")
    descs = np.atleast_2d(np.asarray(descs, dtype=float))
    if descs.shape[1] != w.dim:
        raise ValueError(f"descriptor dim {descs.shape[1]} does not match W ({w.dim})")
    return descs @ w.power(k).T


def _mutual_nn_indices(descs_a: np.ndarray, descs_b: np.ndarray):
    """Mutual cosine nearest neighbours (ia, ib, similarity), the first max winning
    ties. Row blocks update each column's running max, so memory is O(block * m)."""
    if descs_a.shape[1] != descs_b.shape[1]:
        raise ValueError(f"descriptor widths differ: {descs_a.shape[1]} and {descs_b.shape[1]}")
    na = np.linalg.norm(descs_a, axis=1)
    nb = np.linalg.norm(descs_b, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("descriptors must have nonzero norm")
    n, m = descs_a.shape[0], descs_b.shape[0]
    nn_ab = np.empty(n, dtype=int)
    col_max, nn_ba = np.full(m, -np.inf), np.zeros(m, dtype=int)
    cols = np.arange(m)
    sim_buf, den_buf = np.empty((2, min(n, MNN_BLOCK_ROWS), m))
    for start in range(0, n, MNN_BLOCK_ROWS):
        stop = min(start + MNN_BLOCK_ROWS, n)
        sim = np.matmul(descs_a[start:stop], descs_b.T, out=sim_buf[: stop - start])
        den = np.einsum("i,j->ij", na[start:stop], nb, out=den_buf[: stop - start])  # np.outer's bits
        np.divide(sim, den, out=sim)
        nn_ab[start:stop] = np.argmax(sim, axis=1)
        # argmax over axis 0 would copy the block into a third buffer; the
        # spent denominators hold its transpose instead.
        sim_t = den_buf.reshape(-1)[: sim.size].reshape(m, stop - start)
        np.copyto(sim_t, sim.T)
        top = np.argmax(sim_t, axis=1)
        top_sim = sim[top, cols]
        better = top_sim > col_max  # strict, so an earlier block keeps a tie
        col_max[better] = top_sim[better]
        nn_ba[better] = top[better] + start
    ids = np.arange(n)
    mutual = nn_ba[nn_ab] == ids
    ia = ids[mutual]
    ib = nn_ab[mutual]
    return ia, ib, col_max[ib]


@dataclass(frozen=True)
class MatchingAccuracy:
    without_steering: float
    with_steering: float
    n_keypoints: int


def rotation_matching_eval(
    base: DescriptorSet, rotated: DescriptorSet, w: SteeringMatrix, k: int
) -> MatchingAccuracy:
    """Fraction of keypoints correctly matched, with and without steering.

    Assumes row i of ``rotated`` is the true match of row i of ``base``
    (the synthetic generator's convention). Accuracy is the number of mutual
    nearest-neighbor matches landing on the true index divided by the number
    of keypoints.
    """
    if len(base) != len(rotated):
        raise ValueError("descriptor sets must be index-aligned")
    n = len(base)
    ia, ib, _ = _mutual_nn_indices(base.descs, rotated.descs)
    raw = float(np.sum(ia == ib)) / n
    ia, ib, _ = _mutual_nn_indices(apply_steering(w, k, base.descs), rotated.descs)
    steered = float(np.sum(ia == ib)) / n
    return MatchingAccuracy(without_steering=raw, with_steering=steered, n_keypoints=n)
