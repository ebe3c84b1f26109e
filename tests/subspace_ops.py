"""Subspace operations that only the tests need."""

from aregularity.exact_linalg import DimensionError, Subspace


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
