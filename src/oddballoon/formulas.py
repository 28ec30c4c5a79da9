"""Closed-form quantities: the bounded-matching/degree edge maximum, the
base construction size, and the full Turan value for a good ballooning."""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

from .balloon import BalloonSpec, BipartiteTree, analyze
from .decomp import b_family
from .graphs import ParameterError
from .oracle import ex_exact


def chvatal_hanson(nu: int, delta: int) -> int:
    """max{e(G) : nu(G) <= nu, Delta(G) <= delta} = nu*delta +
    floor(delta/2) * floor(nu / ceil(delta/2))."""
    if nu < 0 or delta < 0:
        raise ParameterError("chvatal_hanson needs nonnegative arguments")
    if nu == 0 or delta == 0:
        return 0
    return nu * delta + (delta // 2) * (nu // ((delta + 1) // 2))


def e_base(n: int, a: int) -> int:
    """Edges of the base construction: a-1 universal vertices joined to a
    balanced complete bipartite graph on the rest."""
    if a < 1:
        raise ParameterError("e_base needs a >= 1")
    if n < a:
        raise ParameterError(f"e_base needs n >= a (got n={n}, a={a})")
    m = n - a + 1
    return (a - 1) * m + m * m // 4


@dataclass(frozen=True)
class TuranReport:
    """The closed-form value split into its three summands."""

    n: int
    a: int
    k: int
    k1: int
    branch: str
    base: int
    middle: int
    tail: int
    total: int
    large_n_only: bool = True  # the closed form is proved for large n only

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        tail_kind = f"({self.k - 1})^2" if self.branch == "k_gt_k1" else f"f({self.k - 1},{self.k - 1})"
        lines = [
            f"n                 = {self.n}",
            f"a, k, k1          = {self.a}, {self.k}, {self.k1}   [branch {self.branch}]",
            f"base  e(G(n,2,a)) = {self.base}",
            f"middle ex(a-1,B)  = {self.middle}",
            f"tail  {tail_kind:<11} = {self.tail}",
            f"total             = {self.total}",
            "note: value proved for sufficiently large n",
        ]
        return "\n".join(lines)


def turan_number(n: int, tree: BipartiteTree, spec: BalloonSpec) -> TuranReport:
    """The closed-form Turan value for the good ballooning, with the middle
    term computed exactly by the small-n oracle."""
    rep = analyze(tree, spec)
    a, k, k1 = rep.a, rep.k, rep.k1
    base = e_base(n, a)
    middle = _middle_term(tree, spec, a).value
    tail = chvatal_hanson(k - 1, k - 1) if rep.branch == "k_eq_k1" else (k - 1) ** 2
    return TuranReport(
        n=n,
        a=a,
        k=k,
        k1=k1,
        branch=rep.branch,
        base=base,
        middle=middle,
        tail=tail,
        total=base + middle + tail,
    )


@lru_cache(maxsize=64)
def _middle_term(tree: BipartiteTree, spec: BalloonSpec, a: int):
    """ex(a-1, B) for the covering family B, as an oracle ExResult: the value
    is the middle summand, and the witness, on vertices 0..a-2, is the
    B-free graph the construction places inside its universal set.  Cached,
    so a `turan_number` and an `extremal_candidate` on one spec build the
    covering family once."""
    return ex_exact(a - 1, b_family(tree, spec))
