"""Decision procedures for a-regularity of a reductive pair (g, h).

A pair is a-regular iff the orthogonal complement of h meets the regular
locus of g.  Three routes decide this:

* regular-element: sample h-perp for an exactly verified regular witness
  (YES is deterministic; NO carries a Schwartz-Zippel failure bound, sound
  because regularity is an open condition on the irreducible linear space
  h-perp, so it either holds generically or nowhere).  Samples are tested
  in the defining representation, by Krylov ranks at random vectors;
  ``decide`` re-verifies a YES witness with the ad rank, a second exact
  criterion;
* abelian-stabilizer: the generic stabilizer of the h-action on h-perp has
  abelian identity component iff the pair is a-regular.  Its sampled
  trials are ranked modulo a random 61-bit prime, and its report's failure
  bound adds each such pass's chance of a prime dividing the rank minor to
  the Schwartz-Zippel terms;
* numerical: complexity + rank + dim h = dim of a Borel subalgebra, with
  complexity and rank obtained from the stabilizer dimension counts
  (2c + rk = dim g - 2 dim h + dim h_*, rk = rank g - rank h_*).

A fourth route applies to symmetric embeddings: the centralizer in h of a
Cartan subspace c of the (-1)-eigenspace q equals the generic stabilizer,
so the pair is a-regular iff that centralizer is abelian (no painted node
on the involution diagram).  It is exact, with failure bound 0: a
semisimple sample x of q with abelian z_q(x) certifies c = z_q(x) and
z_h(c) = z_h(x) (Kostant-Rallis), and ad x has one rank on h and on q, so
z_h(c) is abelian iff dim h - dim q + 2 dim c = rank g.

``decide`` runs every applicable route and, when given a catalog, the
table lookup; any disagreement raises instead of being resolved silently,
since the routes are provably equivalent and a split certifies an
implementation, sampling or table bug.  A NO therefore needs every route
to agree, and the NO certificate carries the regular-element route's
Schwartz-Zippel bound alone: that route by itself bounds the chance of a
false NO.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .subalgebras import (
    Embedding,
    GenericityError,
    GenericStabilizerReport,
    cartan_subspace_stabilizer,
    generic_stabilizer,
    perp,
    random_combination,
    sample_bounds,
    stabilizer,
    sz_bound,
)

if TYPE_CHECKING:
    from .catalog import Catalog


class RouteDisagreementError(RuntimeError):
    """The decision routes returned different verdicts.

    Carries all route outputs; signals a bug or a sampling failure and is
    never resolved silently."""

    def __init__(self, routes: dict[str, bool]):
        self.routes = routes
        super().__init__(f"decision routes disagree: {routes}")


class CertificateError(RuntimeError):
    """A YES certificate failed its exact re-verification (an internal bug)."""


@dataclass(frozen=True)
class DecisionConfig:
    seed: int = 0
    trials: int = 8
    coeff_bound: int = 1 << 20

    def reseeded(self, offset: int) -> "DecisionConfig":
        return DecisionConfig(self.seed + offset, self.trials, self.coeff_bound)


# certificate kinds
@dataclass(frozen=True)
class ExactRegularElement:
    witness: tuple


@dataclass(frozen=True)
class AbelianStabilizer:
    report: GenericStabilizerReport


@dataclass(frozen=True)
class Numerical:
    c: int
    rk: int


@dataclass(frozen=True)
class RandomizedNegative:
    failure_bound: Fraction


@dataclass(frozen=True)
class VerdictInvariants:
    c: int
    rk: int
    dim_h_star: int
    dim_borel: int


@dataclass(frozen=True)
class Verdict:
    a_regular: bool
    certificate: object
    routes_agreed: tuple[str, ...]
    invariants: VerdictInvariants


def _report(e: Embedding, cfg: DecisionConfig) -> GenericStabilizerReport:
    return generic_stabilizer(e, seed=cfg.seed, trials=cfg.trials,
                              coeff_bound=cfg.coeff_bound)


def knop_invariants(e: Embedding, cfg: DecisionConfig = DecisionConfig()) -> dict:
    """Complexity c, rank rk, and stabilizer dimensions of the pair.

    rk = rank(g) - rank(h_*) and 2c + rk = dim g - 2 dim h + dim h_*; a
    non-integral or negative value indicates a sampling failure and raises
    a retriable GenericityError."""
    rep = _report(e, cfg)
    L = e.ambient
    rk = L.rank - rep.reductive_rank
    twice_c = L.dim - 2 * e.dim_h + rep.dim - rk
    if rk < 0 or twice_c < 0 or twice_c % 2:
        raise GenericityError(
            f"inconsistent invariants (2c = {twice_c}, rk = {rk}); retry "
            "with a different seed")
    return {"c": twice_c // 2, "rk": rk, "dim_h_star": rep.dim,
            "rank_h_star": rep.reductive_rank}


def _invariants(e: Embedding, cfg: DecisionConfig) -> VerdictInvariants:
    k = knop_invariants(e, cfg)
    return VerdictInvariants(c=k["c"], rk=k["rk"], dim_h_star=k["dim_h_star"],
                             dim_borel=e.ambient.borel_dim())


def find_regular_witness(e: Embedding, cfg: DecisionConfig) -> Optional[list]:
    """An exactly verified regular element of h-perp, or None.

    Samples x follow ``sample_bounds`` on the stream seed ^ 0x5EED.  Each is
    tested by ``LieAlgebra.krylov_regular`` at vectors drawn in the same box
    from a stream of their own, so the samples do not depend on them."""
    L = e.ambient
    rows = perp(e).basis
    if not rows:
        return None
    rng = random.Random(cfg.seed ^ 0x5EED)
    vector_rng = random.Random(cfg.seed ^ 0x4B52)
    for bound in sample_bounds(cfg.trials, cfg.coeff_bound):
        x = random_combination(rng, rows, bound, L.dim)
        if L.krylov_regular(x, L.krylov_vectors(vector_rng, bound)):
            return x
    return None


def decide_regular_element(e: Embedding,
                           cfg: DecisionConfig = DecisionConfig()) -> Verdict:
    """YES with an exact regular witness in h-perp, else certified-random NO,
    whose ``sz_bound`` degree is the larger of dim g and the Krylov minors'
    joint degree sum_f k_f(k_f + 1)/2 (``LieAlgebra.krylov_regular``)."""
    witness = e._cache.get(("witness", cfg.seed, cfg.trials, cfg.coeff_bound))
    if witness is None:
        witness = find_regular_witness(e, cfg)
        e._cache[("witness", cfg.seed, cfg.trials, cfg.coeff_bound)] = witness
    inv = _invariants(e, cfg)
    if witness is not None:
        return Verdict(True, ExactRegularElement(tuple(witness)),
                       ("regular_element",), inv)
    L = e.ambient
    degree = sum(k * (k + 1) // 2 for k in (f.krylov_length for f in L.factors))
    bound = sz_bound(max(L.dim, degree), cfg.coeff_bound, cfg.trials)
    return Verdict(False, RandomizedNegative(bound), ("regular_element",), inv)


def decide_abelian_stabilizer(e: Embedding,
                              cfg: DecisionConfig = DecisionConfig()) -> Verdict:
    """YES iff the generic stabilizer of the h-action on h-perp is abelian."""
    rep = _report(e, cfg)
    inv = _invariants(e, cfg)
    return Verdict(rep.is_abelian, AbelianStabilizer(rep),
                   ("abelian_stabilizer",), inv)


def decide_numerical(e: Embedding,
                     cfg: DecisionConfig = DecisionConfig()) -> Verdict:
    """YES iff c + rk + dim h equals the Borel dimension of g."""
    inv = _invariants(e, cfg)
    yes = inv.c + inv.rk + e.dim_h == inv.dim_borel
    return Verdict(yes, Numerical(inv.c, inv.rk), ("numerical",), inv)


def satake_route(e: Embedding, cfg: DecisionConfig = DecisionConfig()) -> Verdict:
    """Symmetric-pair route: abelian z_h(c) for a Cartan subspace c of q.

    This is the computational surrogate for the involution diagram having
    no painted nodes; z_h(c) realizes the generic stabilizer exactly.  c
    comes from one sample x certified by ``cartan_subspace_stabilizer`` on
    a stream of its own (seed + 17); z_h(c) = z_h(x) is counted exactly,
    not solved, so ``failure_bound`` is 0, and its basis
    ``stabilizer(e, x)`` is built only when read."""
    c, x = cartan_subspace_stabilizer(
        e, seed=cfg.seed + 17, trials=cfg.trials, coeff_bound=cfg.coeff_bound)
    dim, rank = e.dim_h - perp(e).dim + c.dim, e.ambient.rank - c.dim
    rep = GenericStabilizerReport(
        dim=dim, is_abelian=dim == rank, reductive_rank=rank,
        trials=cfg.trials, coefficient_bound=cfg.coeff_bound,
        failure_bound=Fraction(0), build_basis=lambda: stabilizer(e, x))
    inv = _invariants(e, cfg)
    return Verdict(rep.is_abelian, AbelianStabilizer(rep), ("satake",), inv)


def decide(e: Embedding, cfg: DecisionConfig = DecisionConfig(),
           catalog: Optional[Catalog] = None) -> Verdict:
    """Run all applicable routes; error on any disagreement.

    With a ``catalog``, the verdict of the row matching the pair (if that
    row has one) joins the comparison as the route ``catalog``.  The
    strongest certificate is returned: an exact regular witness for YES,
    the randomized bound for NO."""
    results: dict[str, Verdict] = {
        "regular_element": decide_regular_element(e, cfg),
        "abelian_stabilizer": decide_abelian_stabilizer(e, cfg),
        "numerical": decide_numerical(e, cfg),
    }
    if e.theta_cols is not None:
        results["satake"] = satake_route(e, cfg)
    booleans = {name: v.a_regular for name, v in results.items()}
    hit = catalog.lookup(e) if catalog is not None else None
    if hit is not None and hit[0].verdict is not None:
        booleans["catalog"] = hit[0].verdict
    answers = set(booleans.values())
    if len(answers) != 1:
        raise RouteDisagreementError(booleans)
    answer = answers.pop()
    inv = results["regular_element"].invariants
    routes = tuple(sorted(booleans))
    if answer:
        cert = results["regular_element"].certificate
        # re-verify the witness: B(h_i, w) = 0 on every row of h, read off
        # the Gram table rather than perp's kernel, and exact regularity by
        # the ad rank, a criterion independent of the hunt's Krylov rank
        L = e.ambient
        if not (isinstance(cert, ExactRegularElement)
                and L.is_regular(cert.witness)[0]
                and not any(L.killing_form(hr, cert.witness)
                            for hr in e.h_basis.basis)):
            raise CertificateError("YES witness failed exact re-verification")
        return Verdict(True, cert, routes, inv)
    return Verdict(False, results["regular_element"].certificate, routes, inv)
