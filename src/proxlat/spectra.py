"""Prime round filters, spectra, finite-space topology, and duality checks.

Desk-scale caveat, recorded once here: every finite space is
Alexandrov, so its open sets are exactly the up-sets of the
specialization preorder, every saturated set is open (the opens are
closed under all intersections), and every subset is compact. The
compact-saturated family therefore coincides with the opens, all
finite T0 spaces are sober and spectral, and distinctions the theory
draws between spectral and stably compact spaces are invisible at this
scale. What remains testable is everything on the lattice side.

Two facts of this kind replace searches:

* A family of subsets that holds the empty and the full set is a
  topology exactly when U | up[x] is a member for every member U and
  every point x outside U, where up[x] is the intersection of the
  members holding x. Necessity: up[x] is an intersection of members.
  Sufficiency: with U empty, each up[x] is a member. Every member holds
  up[x] with each of its points x, so it is an up-set of the order
  x <= y iff y in up[x]; every up-set V is reached from the empty set
  by adding up[x] for the points x of V, one at a time, and each step
  stays in the family. So the family is exactly the up-sets, closed
  under union and intersection. finite_space checks it in
  O(|opens| n) instead of comparing every pair of opens.
* On a distributive join-strong carrier, q -> U_q is an order
  isomorphism from (Fix mu, <=) onto the opens of the spectrum. Recall
  a R b iff a <= mu(b) iff nu(a) <= b. mu(d) R d, and a round filter is
  an up-set closed upward under R that holds, with each member, a
  member R-below it; so U_d = U_{mu(d)}, and every open, U_d or the
  empty or the full set (U_{mu(bot)} and U_top), is U_q for a fixed
  point q. The map is monotone. It reflects the order: take q2 not
  below q1 in Fix mu. Then q2 R q2, so nu(q2) <= q2, and nu(q2) is not
  below q1, since nu(q2) <= q1 would give q2 <= mu(q1) = q1. As nu is
  idempotent, up nu(q2) is a round filter; it holds q2 and misses the
  round ideal down q1. The prime filter theorem gives a prime round
  filter between them: a point in U_q2 and not in U_q1.
  spectral_case_check reads its pair of j-morphisms off this
  isomorphism instead of searching for them.

`spectrum` and `canext_via_duality` are kept on their carrier
(lattice.kept), so dual maps and morphext.compare_with_dual read the
kept builds instead of making them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .bitset import bits, is_subset, preimage, transpose
from .canext import (
    CanonicalExtension,
    _commuting_iso,
    make_extension,
    pi_extension,
    require_join_strong,
    verify_extension,
)
from .errors import (
    ExtensionError,
    InternalCheckError,
    InvalidRoundSubset,
    NotAJMorphism,
    NotDistributive,
    NotJoinStrong,
    NotT0,
    ProxlatError,
)
from .lattice import (
    FiniteLattice,
    LatticeMap,
    _lattice_of_sets,
    _order_isomorphism,
    _set_label,
    antisymmetry_witness,
    kept,
    lattice_from_up,
)
from .proximity import (
    ProximityLattice,
    ProximityMorphism,
    RoundSubset,
    is_round_filter,
    is_round_ideal,
    order_proximity,
    proximity_lattice,
    proximity_morphism,
    round_filter_masks,
)
from .relations import Relation, compose


# ---------------------------------------------------------------------------
# Finite spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSpace:
    points: int
    opens: tuple[int, ...]       # sorted point-set masks
    labels: tuple[str, ...]

    @property
    def full(self) -> int:
        return (1 << self.points) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self.opens


def finite_space(labels, opens) -> FiniteSpace:
    """Validate a topology: empty and full present, every open inside
    the carrier, and the family closed under union and intersection,
    checked through the specialization order (module docstring)."""
    n = len(labels)
    fam = set(opens)
    full = (1 << n) - 1
    if 0 not in fam or full not in fam:
        raise ProxlatError("a topology contains the empty and the full set")
    if any(u & ~full for u in fam):
        raise ProxlatError("open set outside the carrier")
    family = tuple(sorted(fam, key=lambda m: (m.bit_count(), m)))
    space = FiniteSpace(n, family, tuple(labels))
    up = specialization(space)
    if any(u | up[x] not in fam for u in fam for x in bits(full & ~u)):
        raise ProxlatError("opens are not closed under union/intersection")
    return space


def specialization(space: FiniteSpace) -> tuple[int, ...]:
    """up[x] = {y : every open containing x contains y}."""
    up = [space.full] * space.points
    for u in space.opens:
        for x in bits(u):
            up[x] &= u
    return tuple(up)


def is_t0(space: FiniteSpace) -> bool:
    return antisymmetry_witness(specialization(space)) is None


def saturated_lattice(space: FiniteSpace) -> FiniteLattice:
    """The lattice of saturated sets, here the opens, under inclusion."""
    return _lattice_of_sets(space.opens, space.labels)


def co_compact_dual(space: FiniteSpace) -> FiniteSpace:
    """Opens become complements of compact saturated sets, here the opens;
    taking the dual twice gives back the original space."""
    return finite_space(space.labels, [space.full & ~k for k in space.opens])


def all_posets(n: int) -> Iterator[tuple[int, ...]]:
    """All partial orders on 0..n-1 as up-set masks (labelled, exhaustive).

    The strict pairs (a, b), a != b, are numbered in lexicographic order
    and each order is read as the binary number of the pairs it holds;
    orders come in increasing order of that number. The pairs (a, _) are
    consecutive digits, higher for higher a, so the search sets whole
    rows up[a], the last first, each in increasing order of its mask. It
    keeps a row when the rows set so far are antisymmetric and
    transitive; such rows end in an order (the rest on the diagonal), so
    no branch is dead.
    """
    up = [1 << a for a in range(n)]

    def rows(a: int) -> Iterator[tuple[int, ...]]:
        free = (1 << n) - 1 & ~(1 << a)
        for x in range(a + 1, n):  # x <= a: up[a] lies in up[x], misses x
            if up[x] >> a & 1:
                free &= up[x] & ~(1 << x)
        s = 0
        while True:  # the subsets s of free, in increasing order
            if all(is_subset(up[y], s) for y in bits(s >> a + 1 << a + 1)):
                up[a] = 1 << a | s
                yield from rows(a - 1) if a else (tuple(up),)
            if s == free:
                break
            s = (s - free) & free

    yield from rows(n - 1) if n else ((),)


def all_t0_spaces(n: int) -> Iterator[FiniteSpace]:
    """Every T0 topology on n labelled points: up-set families of the
    partial orders on the carrier."""
    labels = [str(i) for i in range(n)]
    for up in all_posets(n):
        yield finite_space(labels, [u for u in range(1 << n) if all(
            is_subset(up[x], u) for x in bits(u))])


def find_homeomorphism(a: FiniteSpace, b: FiniteSpace) -> Optional[tuple[int, ...]]:
    """A bijection carrying opens onto opens, by search; None if absent.

    The opens of a finite space, T0 or not, are exactly the up-sets of
    its specialization preorder, and a bijection carries the up-sets of
    one preorder onto those of another exactly when it is an isomorphism
    of the preorders. So the search is an order-isomorphism search on
    the two specialization preorders. It returns some homeomorphism,
    not necessarily the lexicographically first.
    """
    return _order_isomorphism(specialization(a), specialization(b))


# ---------------------------------------------------------------------------
# Prime round filters and spectra
# ---------------------------------------------------------------------------

def _is_prime_filter_mask(lat: FiniteLattice, mask: int) -> bool:
    """Whether the up-set `mask` is prime: bot is not in it, and when
    the join of two elements is in it, one of them is (all finite joins
    follow by induction).

    The precondition is that `mask` is an up-set, as every round filter
    is. Then its complement D is a down-set, and a down-set is closed
    under binary joins iff it holds its own join: if a and b are in D,
    their join lies below the join of D, and down-closure brings it into
    D; conversely the join of a nonempty D is a finite join of members.
    So the up-set is prime iff bot is not in it (D is nonempty) and the
    join of D is not in it, one O(n) join instead of O(n^2) pairs. The
    first condition needs no test of its own: if bot is in the up-set,
    D is empty and its join is bot. The argument uses no distributivity.
    """
    return not mask >> lat.join_mask(lat.full & ~mask) & 1


def prime_round_filters(p: ProximityLattice, *,
                        allow_nondistributive: bool = False) -> tuple[int, ...]:
    """All prime round filters, as member masks, in canonical order.

    Distributivity is required for the spectrum theory; exploratory
    runs on nondistributive carriers need the explicit flag.
    """
    if not p.distributive and not allow_nondistributive:
        raise NotDistributive("prime filters live on distributive carriers; "
                              "pass allow_nondistributive=True to explore")
    return tuple(m for m in round_filter_masks(p)
                 if _is_prime_filter_mask(p.lattice, m))


def _require_prime_filter_theorem(p: ProximityLattice, use: str) -> None:
    """NotDistributive or NotJoinStrong unless p is a carrier that the
    prime filter theorem holds on."""
    if not p.distributive:
        raise NotDistributive(f"{use} needs a distributive carrier")
    if not p.join_strong:
        raise NotJoinStrong(f"{use} needs a join-strong carrier")


def prime_filter_between(p: ProximityLattice, g: RoundSubset,
                         j: RoundSubset) -> Optional[RoundSubset]:
    """A prime round filter containing g and avoiding j, when disjoint.

    The finite family of round filters that contain g and avoid j has
    maximal members; any maximal member is prime (this needs the
    distributive, join-strong hypotheses and is asserted with a full
    witness on failure). Returns None when g meets j.
    """
    _require_prime_filter_theorem(p, "the prime filter theorem")
    if g.kind != "filter" or not is_round_filter(p, g.members):
        raise InvalidRoundSubset("g must be a round filter of p")
    if j.kind != "ideal" or not is_round_ideal(p, j.members):
        raise InvalidRoundSubset("j must be a round ideal of p")
    if g.members & j.members:
        return None
    family = [m for m in round_filter_masks(p)
              if is_subset(g.members, m) and not m & j.members]
    maximal = [m for m in family
               if not any(m != m2 and is_subset(m, m2) for m2 in family)]
    chosen = min(maximal)
    if not _is_prime_filter_mask(p.lattice, chosen):
        raise InternalCheckError(
            "maximal separating filter failed to be prime", witness=chosen)
    return RoundSubset(p, chosen, "filter")


@dataclass(frozen=True)
class SpectrumResult:
    source: ProximityLattice
    space: FiniteSpace
    point_filters: tuple[int, ...]   # point index -> filter mask in L
    basic_open: tuple[int, ...]      # d in L -> point mask U_d


@kept
def spectrum(p: ProximityLattice) -> SpectrumResult:
    """The space of prime round filters with basic opens U_d = {F : d in F}.

    The basic opens are closed under intersection (U_d meet U_e is
    U_{d and e}) and, by primality, under union (U_{d or e}), so together
    with the empty set they are the whole topology; both identities are
    asserted below.

    Found once per carrier and kept on it, so dual_map and the duality
    build read the kept result; a call that raises keeps nothing. The
    result names p as its source, a reference cycle that gc collects.
    """
    if not p.distributive:
        raise NotDistributive("spectra need distributive carriers")
    points = prime_round_filters(p)
    k = len(points)
    basic = transpose(points, p.size)
    for d in range(p.size):
        for e in range(p.size):
            if basic[p.lattice.meet[d][e]] != basic[d] & basic[e]:
                raise InternalCheckError("basic opens broke intersections",
                                         witness=(d, e))
            if basic[p.lattice.join[d][e]] != basic[d] | basic[e]:
                raise InternalCheckError("primality broke unions",
                                         witness=(d, e))
    labels = [_set_label(fm, p.lattice.labels) for fm in points]
    space = finite_space(labels, set(basic) | {0, (1 << k) - 1})
    return SpectrumResult(p, space, points, basic)


# ---------------------------------------------------------------------------
# Presentations of finite spaces
# ---------------------------------------------------------------------------

def open_basis_presentation(space: FiniteSpace) -> ProximityLattice:
    """All opens under inclusion, related by interpolation through a
    compact saturated set. On finite carriers every open is itself
    saturated, so d interpolates below e exactly when d lies inside e
    (take the set d itself): the result is the order proximity lattice
    of the opens, join-strong, increasing, and distributive.
    """
    if not is_t0(space):
        raise NotT0("open-basis presentations are for T0 spaces")
    p = order_proximity(saturated_lattice(space))
    if not (p.join_strong and p.increasing and p.distributive):
        raise InternalCheckError("open-basis presentation lost expected flags")
    return p


def compsat_basis_presentation(space: FiniteSpace) -> ProximityLattice:
    """Meet-strong presentation on the compact saturated sets, realized
    as the opposite of the open-basis presentation of the co-compact
    dual (complements identify the two carriers)."""
    from .proximity import opposite_proximity
    p = open_basis_presentation(co_compact_dual(space))
    out = opposite_proximity(p)
    if not (out.meet_strong and out.distributive):
        raise InternalCheckError("compsat presentation lost expected flags")
    return out


def pairs_presentation(space: FiniteSpace) -> ProximityLattice:
    """The doubly strong presentation on pairs (open d, saturated e)
    with d inside e, ordered componentwise, related by e inside d'."""
    if not is_t0(space):
        raise NotT0("pair presentations are for T0 spaces")
    opens = space.opens
    elems = [(d, e) for d in opens for e in opens if is_subset(d, e)]
    elems.sort(key=lambda de: (de[0].bit_count() + de[1].bit_count(), de))
    n = len(elems)
    up, rows = [0] * n, [0] * n
    for i, (d, e) in enumerate(elems):
        for j, (d2, e2) in enumerate(elems):
            if is_subset(d, d2) and is_subset(e, e2):
                up[i] |= 1 << j
            if is_subset(e, d2):
                rows[i] |= 1 << j
    labels = [f"({_set_label(d, space.labels)}"
              f",{_set_label(e, space.labels)})" for d, e in elems]
    lat = lattice_from_up(labels, up)
    p = proximity_lattice(lat, Relation(n, n, tuple(rows)))
    if not (p.doubly_strong and p.distributive):
        raise InternalCheckError("pair presentation lost expected flags")
    return p


# ---------------------------------------------------------------------------
# Canonical extension via the spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityResult:
    spectrum: SpectrumResult
    sat_lattice: FiniteLattice
    sat_sets: tuple[int, ...]
    extension: CanonicalExtension        # the saturated-set realization
    pi_ext: CanonicalExtension           # the polarity construction
    iso: LatticeMap                      # pi_ext.C -> sat_lattice


@kept
def canext_via_duality(p: ProximityLattice) -> DualityResult:
    """Realize the pi extension on the saturated sets of the spectrum.

    d goes to its basic open U_d; the result verifies as a pi extension
    and is uniquely isomorphic to the polarity construction, with
    commuting embeddings. Failures raise InternalCheckError since both
    facts are theorems for distributive join-strong carriers; a carrier
    that is not distributive raises NotDistributive from the spectrum,
    and one that is not join-strong NotJoinStrong once the spectrum
    is built, before the saturated-set extension is.

    Built on the kept spectrum and pi extension of p, once per carrier,
    and kept on it, so compare_with_dual reads the kept result; a build
    that raises keeps nothing. The result reaches p through its spectrum
    and extensions, a reference cycle that gc collects.
    """
    spec_res = spectrum(p)
    # checked here: the pi build below checks it too, but only after the
    # saturated-set extension has failed to verify as a pi extension
    require_join_strong(p)
    sats = spec_res.space.opens
    sat_lat = saturated_lattice(spec_res.space)
    position = {m: i for i, m in enumerate(sats)}
    embed = tuple(position[spec_res.basic_open[d]] for d in range(p.size))
    ext = make_extension("pi", p, sat_lat, embed)
    report = verify_extension(ext)
    if not report.passes("pi"):
        raise InternalCheckError("saturated-set realization failed to verify",
                                 witness=report.witnesses)
    pi = pi_extension(p)
    # check_uniqueness(pi, ext), with ext verified once, just above
    if not verify_extension(pi).passes("pi"):
        raise ExtensionError("input does not verify as a pi extension")
    iso = _commuting_iso(pi, ext)
    if iso is None:
        raise InternalCheckError("no isomorphism onto the saturated sets")
    return DualityResult(spec_res, sat_lat, sats, ext, pi, iso)


def spectrum_roundtrip(space: FiniteSpace) -> bool:
    """The spectrum of the open-basis presentation is homeomorphic to
    the space itself; the witness is searched for."""
    spec_res = spectrum(open_basis_presentation(space))
    return find_homeomorphism(space, spec_res.space) is not None


# ---------------------------------------------------------------------------
# Dual maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualMap:
    """The continuous map between spectra induced by a j-morphism,
    sending a prime round filter to its preimage."""

    morphism: ProximityMorphism
    domain: SpectrumResult      # spectrum of the morphism target
    codomain: SpectrumResult    # spectrum of the morphism source
    point_map: tuple[int, ...]


def dual_map(t: ProximityMorphism) -> DualMap:
    if not t.is_j:
        raise NotAJMorphism("only j-morphisms dualize to continuous maps")
    dom = spectrum(t.target)
    cod = spectrum(t.source)
    position = {m: i for i, m in enumerate(cod.point_filters)}
    point_map = []
    for fm in dom.point_filters:
        pre = t.T.preimage(fm)
        if pre not in position:
            raise InternalCheckError(
                "preimage of a prime filter is not a prime filter", witness=fm)
        point_map.append(position[pre])
    for d in range(t.source.size):
        if not dom.space.is_open(preimage(point_map, cod.basic_open[d])):
            raise InternalCheckError("dual map is not continuous", witness=d)
    return DualMap(t, dom, cod, tuple(point_map))


# ---------------------------------------------------------------------------
# Retractions and the idempotent-splitting picture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralProximitySpace:
    """A finite T0 space with a continuous idempotent self-map."""

    space: FiniteSpace
    f: tuple[int, ...]


def _continuous(dom: FiniteSpace, cod: FiniteSpace, g) -> bool:
    return all(dom.is_open(preimage(g, u)) for u in cod.opens)


def _is_map(g, dom: FiniteSpace, cod: FiniteSpace) -> bool:
    return len(g) == dom.points and all(
        isinstance(y, int) and 0 <= y < cod.points for y in g)


def spectral_proximity_space(space: FiniteSpace, f) -> SpectralProximitySpace:
    f = tuple(f)
    if not is_t0(space):
        raise NotT0("spectral proximity spaces are T0 at this scale")
    if not _is_map(f, space, space):
        raise ProxlatError(f"the self-map must send each of the "
                           f"{space.points} points to one of them, not {f}")
    if not _continuous(space, space, f):
        raise ProxlatError("the retraction must be continuous")
    if any(f[f[x]] != f[x] for x in range(space.points)):
        raise ProxlatError("the self-map must be idempotent")
    return SpectralProximitySpace(space, f)


def karoubi_check(x: SpectralProximitySpace, x2: SpectralProximitySpace,
                  g) -> bool:
    """g is a morphism of retraction pairs: continuous with
    f' after g = g = g after f. The retraction itself is the identity
    morphism of its own pair."""
    g = tuple(g)
    if not _is_map(g, x.space, x2.space):
        return False
    if not _continuous(x.space, x2.space, g):
        return False
    absorbed_left = all(x2.f[g[p]] == g[p] for p in range(x.space.points))
    absorbed_right = all(g[x.f[p]] == g[p] for p in range(x.space.points))
    return absorbed_left and absorbed_right


def retract_image(x: SpectralProximitySpace) -> FiniteSpace:
    """The image of the retraction with the subspace topology; at this
    scale the result is again a finite T0 space."""
    image = sorted(set(x.f))
    labels = [x.space.labels[p] for p in image]
    return finite_space(labels, {preimage(image, u) for u in x.space.opens})


# ---------------------------------------------------------------------------
# The reflexive/spectral case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralCaseReport:
    reflexive: bool
    phi: ProximityMorphism
    psi: ProximityMorphism


def spectral_case_check(p: ProximityLattice) -> SpectralCaseReport:
    """The j-isomorphism between p and the order proximity lattice on
    the opens of its spectrum, read off Fix mu (module docstring).

    phi relates d to the opens inside U_d, and psi relates the open U_q,
    q in Fix mu, to down q. Then phi;psi relates d to down mu(d), the
    row of R^-1, and psi;phi relates U_q to the opens inside it, the
    row of the identity of the order proximity lattice. On a reflexive
    carrier mu(d) <= q iff d <= q, so psi relates U to
    {d : U_d inside U}, and the pair is the natural candidates.

    Both composites are checked. Each is a theorem on a distributive
    join-strong carrier, so a failure, or a Fix mu that U does not
    match one to one with the opens, raises InternalCheckError. A
    carrier that is not distributive raises NotDistributive, and one
    that is not join-strong NotJoinStrong.
    """
    _require_prime_filter_theorem(p, "the spectral comparison")
    spec_res = spectrum(p)
    basic = spec_res.basic_open
    opens = spec_res.space.opens
    fixed = [q for q in range(p.size) if p.mu[q] == q]
    fixed_at = {basic[q]: q for q in fixed}
    if len(fixed_at) != len(fixed) or len(fixed_at) != len(opens):
        raise InternalCheckError("Fix mu does not match the opens one to one",
                                 witness=tuple(basic[q] for q in fixed))
    e = order_proximity(saturated_lattice(spec_res.space))
    position = {u: i for i, u in enumerate(opens)}
    phi_rows = tuple(e.lattice.down[position[basic[d]]] for d in range(p.size))
    psi_rows = tuple(p.lattice.down[fixed_at[u]] for u in opens)
    phi = proximity_morphism(p, e, Relation(p.size, e.size, phi_rows))
    psi = proximity_morphism(e, p, Relation(e.size, p.size, psi_rows))
    if not (phi.is_j and psi.is_j
            and compose(phi.T, psi.T) == p.R.converse()
            and compose(psi.T, phi.T) == e.R.converse()):
        raise InternalCheckError("phi and psi are not inverse j-morphisms")
    return SpectralCaseReport(p.reflexive, phi, psi)
