"""Subspace and element operations that only the tests need."""

from aregularity.exact_linalg import DimensionError, Subspace
from aregularity.subalgebras import rank_trials, trial_prime


def zero_element(L) -> list[int]:
    """The zero element of L."""
    return [0] * L.dim


def random_element(L, rng, bound: int = 9) -> list[int]:
    """An element of L with coordinates uniform in [-bound, bound]."""
    return [rng.randint(-bound, bound) for _ in range(L.dim)]


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise DimensionError("ambient dimension mismatch")


def contains_subspace(u: Subspace, v: Subspace) -> bool:
    """Whether v lies inside u."""
    _check_ambient(u, v)
    return all(u.contains_vector(x) for x in v.basis)


def sum_with(u: Subspace, v: Subspace) -> Subspace:
    """The sum u + v."""
    _check_ambient(u, v)
    return Subspace.span(list(u.basis) + list(v.basis), u.ambient_dim)


def generic_point(L, rows, sample_rows, rng, trials, bound):
    """Generic point x of V = span(sample_rows) for the centralizer in
    span(rows): ``rank_trials`` modulo ``trial_prime(0)``, then the exact
    kernel at the best sample.  Returns (x, the kernel coefficient vectors
    over ``rows`` at x, the kernel dimension)."""
    best = rank_trials(L, rows, sample_rows, rng, trials, bound, trial_prime(0))
    lam = best.kernel()
    return best.x, lam, len(lam)
