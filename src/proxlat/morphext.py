"""Extending proximity morphisms to the canonical extensions.

A proximity morphism T from (L, R) to (M, S) has principal rows
T[a] = down tau(a) and principal columns T^-1[m] = up rho(m), with
tau(a) in Fix mu_S and rho(m) in Fix nu_R; tau preserves finite meets
and tau o mu_R = tau, and dually rho preserves finite joins (proximity
module docstring). A verified extension embeds its fixed points one to
one onto C and reflects their order: C_pi is (Fix mu, <=) with
e(a) = e(mu(a)), C_sigma is (Fix nu, <=) with e(a) = e(nu(a)) (canext
module docstring). As a R b iff a <= mu(b) iff nu(a) <= b, q R nu(q)
gives q <= mu(nu(q)), and for q in Fix mu, q R q gives nu(q) <= q, so
mu(nu(q)) = q; dually nu(mu(x)) = x on Fix nu. So nu maps Fix mu one
to one onto Fix nu, and a sigma build too embeds Fix mu one to one
onto C. _fixed_point_at reads the q in Fix mu at each element of C,
and raises ExtensionError for a record that is no such bijection. Both
extensions are then one read of tau, e(q) -> e(tau(q)), which agrees
with T and is monotone by construction; neither is checked.

* pi(T). The pi-extension is defined in two stages (Gehrke & Jonsson,
  "Bounded distributive lattice expansions", Math. Scand. 94, 2004):
  stage 1 sends a round ideal element y to the join of the embedded
  image of T over {a : e(a) <= y}, stage 2 sends u to the meet of
  stage 1 over the round ideal elements above u. Every element of C is
  an ideal element e(q). {a : e(a) <= e(q)} is {a : mu_R(a) <= q},
  whose T-image is down tau(q), as tau is monotone, tau o mu_R = tau
  and q is a member; so stage 1 sends e(q) to e(tau(q)), it is
  monotone, and stage 2 is the identity. On e(a) it gives
  e(tau(mu_R(a))) = e(tau(a)), the join of e[T[a]].
* sigma(T). T^-1 is a proximity morphism from (M^op, S^-1) to
  (L^op, R^-1) with tau = rho, and a sigma build is the pi build of
  the opposite upside down, so pi(T^-1) in the sigma order is
  g(e(y)) = e(rho(y)), y in Fix nu_S. nu preserves finite joins and
  fixes bot, so joins in C_sigma are joins of the carrier, g preserves
  all of them with rho, and sigma(T) is its upper adjoint,
  e(x) -> e(join {y : rho(y) <= x}). rho(y) <= x iff x T y iff
  y <= tau(x) = z, and the y in Fix nu_S below z are those below
  nu_S(z), itself below z as z <= mu_S(z). So the join is nu_S(z),
  and sigma(T)(e(x)) = e(nu_S(tau(x))) = e(tau(x)). For q in Fix mu_R,
  e(q) = e(x) with x = nu_R(q), and tau(x) = tau(mu_R(x)) = tau(q).

pi(T) preserves all meets, as tau does and Fix mu is meet-closed;
sigma(T) does as an upper adjoint; both preserve directed joins of
round ideal elements, being monotone (check_preservation). For
j-morphisms pi(T) also preserves nonempty finite joins of round ideal
elements; whether it preserves all joins is settled here only through
the duality, in the distributive case.

Both are functorial on every composable pair of proximity morphisms.
Row a of T;U is the union of down tau_U(m) over m <= tau_T(a), so
tau_{T;U} = tau_U o tau_T and pi(T;U) = pi(U) o pi(T). Column c of T;U
is {a : rho_U(c) <= tau_T(a)} = up rho_T(rho_U(c)), so
rho_{T;U} = rho_T o rho_U, g_{T;U} = g_T o g_U, and their upper
adjoints compose in reverse: sigma(T;U) = sigma(U) o sigma(T).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import preimage
from .canext import CanonicalExtension, _mask_of
from .errors import (
    ExtensionError,
    KindMismatch,
    NotAProximityMorphism,
    NotDistributive,
)
from .lattice import _unordered_pair, _unpreserved_join, down_preimages, opposite
from .proximity import ProximityMorphism, _tops, fixed_points
from .spectra import canext_via_duality


@dataclass(frozen=True)
class ExtendedMap:
    kind: str
    morphism: ProximityMorphism
    source_ext: CanonicalExtension
    target_ext: CanonicalExtension
    table: tuple[int, ...]


def _fixed_point_at(e: CanonicalExtension) -> tuple[int, ...]:
    """The fixed point of mu that e embeds at each element of C, pi or
    sigma; ExtensionError unless e maps Fix mu one to one onto C."""
    fixed = fixed_points(e.source)
    at = {e.embed[q]: q for q in fixed}
    if len(at) != len(fixed) or sorted(at) != list(range(e.C.size)):
        raise ExtensionError(f"the {e.kind} embedding does not map Fix mu "
                             "one to one onto C")
    return tuple(map(at.__getitem__, range(e.C.size)))


def require_proximity(t: ProximityMorphism, verb: str = "extend_pi") -> None:
    """NotAProximityMorphism unless t is one, as extending it needs."""
    if not t.is_proximity:
        raise NotAProximityMorphism(f"{verb} needs a proximity morphism")


def _extend(kind: str, t: ProximityMorphism, e_src: CanonicalExtension,
            e_tgt: CanonicalExtension) -> ExtendedMap:
    """e(q) -> e(tau(q)) for q in Fix mu of the source, the kind's
    extension of t (module docstring)."""
    verb = f"extend_{kind}"
    if e_src.kind != kind or e_tgt.kind != kind:
        raise KindMismatch(f"{verb} needs {kind} extensions on both sides")
    require_proximity(t, verb)
    if not (t.source.same_carrier(e_src.source)
            and t.target.same_carrier(e_tgt.source)):
        raise KindMismatch("morphism endpoints do not match the extensions")
    _fixed_point_at(e_tgt)  # the table reads the target's embedding too
    tau, embed = _tops(t.target.lattice, t.T.rows), e_tgt.embed
    table = tuple(embed[tau[q]] for q in _fixed_point_at(e_src))
    return ExtendedMap(kind, t, e_src, e_tgt, table)


def extend_pi(t: ProximityMorphism, e_src: CanonicalExtension,
              e_tgt: CanonicalExtension) -> ExtendedMap:
    """Extend a proximity morphism between the pi extensions of its
    endpoints: e(q) -> e(tau(q)) for q in Fix mu."""
    return _extend("pi", t, e_src, e_tgt)


def extend_sigma(t: ProximityMorphism, e_src: CanonicalExtension,
                 e_tgt: CanonicalExtension) -> ExtendedMap:
    """Extend a proximity morphism between the sigma extensions of its
    endpoints: the upper adjoint of the pi-extension of T^-1 between the
    opposites, e(q) -> e(tau(q)) for q in Fix mu."""
    return _extend("sigma", t, e_src, e_tgt)


@dataclass(frozen=True)
class PreservationReport:
    """Preservation checks over the whole (finite) extension, read in
    the map's own lattices whatever its kind: a sigma map is an upper
    adjoint, so it preserves all meets of C_sigma as a pi map does those
    of C_pi (module docstring). `approximable` is the j flag.

    `finite_ideal_joins` is about nonempty finite joins of round ideal
    elements, checked at the binary instances. The empty join, the
    bottom of C, is an ideal element too, but it is not required: the
    full relation on C2 is a proximity morphism whose extension sends
    that bottom to the top. `all_joins` does include the empty join.
    """

    kind: str
    approximable: bool
    all_meets: bool
    directed_ideal_joins: bool
    finite_ideal_joins: bool
    all_joins: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def required_ok(self) -> bool:
        """The properties that hold for every extended proximity morphism,
        plus finite ideal joins when the morphism is approximable."""
        return self.all_meets and self.directed_ideal_joins and (
            self.finite_ideal_joins or not self.approximable)

    def flags(self) -> dict[str, bool]:
        return {
            "all_meets": self.all_meets,
            "directed_ideal_joins": self.directed_ideal_joins,
            "finite_ideal_joins": self.finite_ideal_joins,
            "all_joins": self.all_joins,
        }


def check_preservation(m: ExtendedMap) -> PreservationReport:
    """Quantify the preservation properties over the finite extension.

    Arbitrary meets and joins reduce to the empty and binary instances,
    and nonempty finite joins of round ideal elements to the binary
    ones. Each failed property gets one witness, its first failed
    instance: the empty meet (join) as (top,) ((bot,)) before any
    binary pair (u, v).
    Directed joins of round ideal elements reduce to monotonicity on
    them: a finite directed family D has a greatest member g, so its
    join is g, and the map preserves it exactly when every y in D has
    table[y] <= table[g]. Every pair y <= g of ideal elements is such a
    family, so the check over pairs is exact at every size.
    """
    c_src, c_tgt = m.source_ext.C, m.target_ext.C
    ideal_elems = m.source_ext.ideal_elements()
    table = m.table
    every = range(c_src.size)
    all_meets = _unpreserved_join(opposite(c_src), opposite(c_tgt), table, every)
    all_joins = _unpreserved_join(c_src, c_tgt, table, every)
    # preserved meets make the map monotone, preserved joins those of ideals
    directed = finite = None
    if all_meets is not None:
        ideal_mask, rows = _mask_of(ideal_elems), [0] * c_src.size
        for y in ideal_elems:
            rows[y] = c_src.up[y] & ideal_mask
        directed = _unordered_pair(down_preimages(opposite(c_tgt), table), table, rows)
    if all_joins is not None:
        finite = _unpreserved_join(c_src, c_tgt, table, ideal_elems, empty=False)
    found = (("all_meets", all_meets), ("directed_ideal_joins", directed),
             ("finite_ideal_joins", finite), ("all_joins", all_joins))
    flags = {name: witness is None for name, witness in found}
    return PreservationReport(
        kind=m.kind,
        approximable=m.morphism.is_j,
        witnesses=tuple((name, w) for name, w in found if w is not None),
        **flags,
    )


def compare_with_dual(m: ExtendedMap, dual) -> bool:
    """Check that the extended map, transported to the saturated-set
    lattices of the spectra, is the preimage map of the dual point map.

    `dual` is the DualMap of the same morphism, or of one with the same
    endpoints and relation; any other raises KindMismatch, as does a
    map that is not a pi map. Requires distributive sources and
    extensions built by pi_extension. The duality builds of both
    carriers are the ones kept on them (canext_via_duality), so a run
    over many morphisms between a few carriers builds each once.
    """
    if m.kind != "pi":
        raise KindMismatch("the duality transport reads pi maps only")
    t, s = m.morphism, dual.morphism
    if not (t.source.distributive and t.target.distributive):
        raise NotDistributive("the duality transport needs distributive carriers")
    if s is not t and not (s.source.same_carrier(t.source)
                           and s.target.same_carrier(t.target) and s.T == t.T):
        raise KindMismatch("dual map belongs to a different morphism")
    d_src = canext_via_duality(t.source)
    d_tgt = canext_via_duality(t.target)
    if d_src.pi_ext.C != m.source_ext.C or d_tgt.pi_ext.C != m.target_ext.C:
        raise KindMismatch("extensions must be the canonical pi extensions")

    src_opens, tgt_opens = d_src.spectrum.space.opens, d_tgt.spectrum.space.opens
    for u in range(m.source_ext.C.size):
        sat_u = src_opens[d_src.iso.table[u]]
        if tgt_opens[d_tgt.iso.table[m.table[u]]] != preimage(
                dual.point_map, sat_u):
            return False
    return True
