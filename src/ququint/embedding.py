"""Storing logical qubits inside qudit levels.

A five-level site can host two qubits ``a`` and ``b`` plus one spare level:
level = 2a + b for levels 0..3, with level 4 left free as transient working
space. Alternatively one qubit can live in levels {0, 1} of a site of any
dimension, with every higher level kept free. Both layouts are described by
an :class:`EmbeddingMap`, which also understands two special roles:

- a *bystander*: a five-level site whose slot A is mapped but whose slot B
  belongs to a qubit outside the circuit being compiled; its b-bit is
  marginalized out at read-out and must be preserved by every gate;
- *work sites*: sites with no mapped qubit at all (used by the borrowed-qubit
  ladder); they must start and end at level 0.

:meth:`EmbeddingMap.decode` flags register indices off the computational
levels; a read-out reports their probability as leakage, never silently
renormalized. :class:`OutcomeView` shows an outcome array as bitstrings.
"""

from __future__ import annotations

import functools
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import HADAMARD, PAULI_Z, LevelPairGate, QuditRegister, TwoLevelUnitary

# Layouts of the last qubit of an odd count, see :func:`default_embedding`.
ODD_VARIANTS = ("single", "neighbor")


class EmbeddingError(ValueError):
    """The embedding is inconsistent or does not support the request."""


class QubitSlot(Enum):
    """Which part of a site's level structure a qubit occupies."""

    A = "a"          # high bit of a two-qubit site: levels {0,2} vs {1,3}
    B = "b"          # low bit of a two-qubit site: levels {0,1} vs {2,3}
    SINGLE = "single"  # sole qubit of a site, levels {0,1}


@dataclass(frozen=True)
class EmbeddingMap:
    """Assignment of logical qubits to (site, slot) positions.

    Args:
        register: The hosting register.
        assignments: One (site, slot) pair per logical qubit, in qubit order.

    Slots A and B require a five-level site. A site may host the pair
    {A, B}, slot A alone (bystander site), a SINGLE qubit, or nothing
    (work site).
    """

    register: QuditRegister
    assignments: tuple[tuple[int, QubitSlot], ...]

    def __post_init__(self):
        # a slot already a QubitSlot member is kept as it is: Enum lookup by
        # value is slow, and every compiled layout passes members
        object.__setattr__(
            self,
            "assignments",
            tuple(
                (int(s), slot if type(slot) is QubitSlot else QubitSlot(slot))
                for s, slot in self.assignments
            ),
        )
        if not self.assignments:
            # an empty bitstring would pass every all-ones test vacuously
            raise EmbeddingError("an embedding must map at least one qubit")
        # site -> its slots in qubit order, kept per site as ``_site_slots``;
        # ``in`` on a list compares by identity, so no Enum member is hashed
        table: dict[int, list[QubitSlot]] = {}
        num_sites = self.register.num_sites
        for site, slot in self.assignments:
            if not 0 <= site < num_sites:
                raise EmbeddingError(f"site {site} out of range")
            slots = table.setdefault(site, [])
            if slot in slots:
                raise EmbeddingError(f"slot {slot.value} of site {site} mapped twice")
            slots.append(slot)
        for site, slots in table.items():
            dim = self.register.dims[site]
            if QubitSlot.SINGLE in slots and len(slots) > 1:
                raise EmbeddingError(
                    f"site {site} mixes a single-qubit slot with pair slots"
                )
            if (QubitSlot.A in slots or QubitSlot.B in slots) and dim != 5:
                raise EmbeddingError(
                    f"pair slots need a five-level site, site {site} has dimension {dim}"
                )
            if QubitSlot.B in slots and QubitSlot.A not in slots:
                raise EmbeddingError(f"site {site} uses slot B without slot A")
        site_slots = tuple(tuple(table.get(site, ())) for site in range(num_sites))
        object.__setattr__(self, "_site_slots", site_slots)

    @property
    def qubit_count(self) -> int:
        return len(self.assignments)

    def slots_of(self, site: int) -> set[QubitSlot]:
        return set(self._site_slots[site]) if 0 <= site < len(self._site_slots) else set()

    @functools.cached_property
    def bystander_sites(self) -> tuple[int, ...]:
        """Sites whose slot B belongs to a qubit outside this map."""
        return tuple(s for s, slots in enumerate(self._site_slots) if slots == (QubitSlot.A,))

    @functools.cached_property
    def work_sites(self) -> tuple[int, ...]:
        """Sites hosting no mapped qubit; they must stay at level 0."""
        return tuple(s for s, slots in enumerate(self._site_slots) if not slots)

    @functools.cached_property
    def level_ceilings(self) -> tuple[int, ...]:
        """Highest computational level of each site: 0 on work sites, 1 on
        SINGLE sites, 3 on pair and bystander sites (level 4 is working
        space). A basis label decodes to qubits iff no digit exceeds it."""
        return tuple(
            0 if not slots else 1 if slots[0] is QubitSlot.SINGLE else 3
            for slots in self._site_slots
        )

    @functools.cached_property
    def _encoder(self) -> tuple[np.ndarray, int]:
        """``encode``'s weight of each qubit and offset of bystander bit 1."""
        strides = self.register.strides
        weights = np.array(
            [strides[s] * (2 if slot is QubitSlot.A else 1) for s, slot in self.assignments],
            dtype=np.int64,
        )
        weights.flags.writeable = False
        return weights, sum(strides[s] for s in self.bystander_sites)

    @functools.cached_property
    def _decoder(self) -> tuple:
        """``decode``'s stride, dimension, ceiling (None when no level lies
        above it) and (digit bit, outcome bit) of each hosted qubit, per site."""
        n = self.qubit_count
        bits = [[] for _ in self._site_slots]
        for q, (site, slot) in enumerate(self.assignments):
            bits[site].append((1 if slot is QubitSlot.A else 0, n - 1 - q))
        return tuple(
            (stride, dim, top if top < dim - 1 else None, tuple(b))
            for stride, dim, top, b in zip(
                self.register.strides, self.register.dims, self.level_ceilings, bits
            )
        )

    def encode(self, bits, bystander: int = 0) -> np.ndarray:
        """Flat register index of each row of an (m, n) or (n,) array of
        qubit bits, qubit 0 first: each qubit weighs its site's stride,
        doubled on slot A; every bystander site adds its stride times
        ``bystander``; work sites stay at level 0."""
        if bystander not in (0, 1):
            raise ValueError(f"bystander bit must be 0 or 1, got {bystander}")
        weights, offset = self._encoder
        return np.asarray(bits, dtype=np.int64) @ weights + bystander * offset

    def decode(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """``(outcome, computational)`` of flat register indices: the qubit
        bitstring as an integer, qubit 0 most significant and bystander bits
        dropped, and whether no site digit exceeds its ceiling."""
        idx = np.asarray(indices, dtype=np.int64)
        outcome = np.zeros(idx.shape, dtype=np.int64)
        computational = np.ones(idx.shape, dtype=bool)
        for stride, dim, top, bits in self._decoder:
            digit = idx // stride % dim
            for low, shift in bits:
                outcome |= (digit >> low & 1) << shift
            if top is not None:
                computational &= digit <= top
        return outcome, computational


def default_embedding(n: int, odd_variant: str = "single") -> EmbeddingMap:
    """Canonical layout of ``n`` qubits on five-level sites.

    Even ``n`` uses n/2 sites with qubits 2k, 2k+1 on site k (slots A, B).
    Odd ``n`` places the first n-1 qubits the same way and the last qubit on
    one extra site, either alone (``odd_variant="single"``) or on slot A with
    slot B reserved for a bystander (``odd_variant="neighbor"``).

    Raises:
        ValueError: If ``n < 2`` or the variant name is unknown.
    """
    if n < 2:
        raise ValueError(f"need at least two qubits, got {n}")
    if odd_variant not in ODD_VARIANTS:
        raise ValueError(f"unknown odd variant {odd_variant!r}")
    assignments = []
    for q in range(n - (n % 2)):
        assignments.append((q // 2, QubitSlot.A if q % 2 == 0 else QubitSlot.B))
    num_sites = n // 2
    if n % 2:
        num_sites += 1
        last = num_sites - 1
        if odd_variant == "single":
            assignments.append((last, QubitSlot.SINGLE))
        else:
            assignments.append((last, QubitSlot.A))
    return EmbeddingMap(QuditRegister((5,) * num_sites), tuple(assignments))


def _parse_bits(bits, n: int) -> list[int]:
    """The ``n`` bits of a string like ``"0110"`` or a sequence of 0/1."""
    try:
        out = [int(b) if b in (0, 1, "0", "1") else -1 for b in bits]
    except TypeError:  # not a sequence
        out = None
    if out is None or len(out) != n or -1 in out:
        raise ValueError(f"expected {n} bits of 0 or 1, got {bits!r}")
    return out


def embed_basis_state(bits, emap: EmbeddingMap, bystander: int = 0) -> tuple[int, ...]:
    """Register basis label holding the given qubit bitstring.

    Args:
        bits: Bit per logical qubit (string like ``"0110"`` or a sequence).
        emap: The embedding to encode under.
        bystander: Bit stored in every unmapped slot B (default 0).

    Returns:
        Per-site level tuple; work sites are at level 0.
    """
    values = _parse_bits(bits, emap.qubit_count)
    return emap.register.label(int(emap.encode(values, bystander)))


def lift_single_qubit_gate(
    u: TwoLevelUnitary, qubit: int, emap: EmbeddingMap
) -> list[LevelPairGate]:
    """Level-pair realization of a one-qubit gate on an embedded qubit.

    Slot A lifts to the commuting pair u^(0,2) u^(1,3), slot B to
    u^(0,1) u^(2,3), and a SINGLE slot to the lone u^(0,1). The product acts
    as ``u`` on the embedded qubit, as identity on any co-resident qubit,
    and fixes every higher level.
    """
    if not 0 <= qubit < emap.qubit_count:
        raise IndexError(f"qubit {qubit} out of range for {emap.qubit_count} qubits")
    site, slot = emap.assignments[qubit]
    if slot is QubitSlot.A:
        return [LevelPairGate(site, 0, 2, u), LevelPairGate(site, 1, 3, u)]
    if slot is QubitSlot.B:
        return [LevelPairGate(site, 0, 1, u), LevelPairGate(site, 2, 3, u)]
    return [LevelPairGate(site, 0, 1, u)]


def lift_hadamard(qubit: int, emap: EmbeddingMap) -> list[LevelPairGate]:
    return lift_single_qubit_gate(HADAMARD, qubit, emap)


def intra_ququint_cz(site: int, emap: EmbeddingMap) -> LevelPairGate:
    """Controlled-Z between the two qubits co-located on one site.

    Realized as Z on levels (0, 3), i.e. diag(1, 1, 1, -1, 1): only the
    |11> level of the embedded pair picks up the sign.

    Raises:
        EmbeddingError: If the site does not host both pair slots.
    """
    if emap.slots_of(site) != {QubitSlot.A, QubitSlot.B}:
        raise EmbeddingError(f"site {site} does not host a full qubit pair")
    return LevelPairGate(site, 0, 3, PAULI_Z)


class OutcomeView(Mapping):
    """Read-only ``{bitstring: probability}`` view of a qubit outcome array,
    bitstring x (qubit 0 leftmost) at index x. Keys are formatted only while
    iterating; a lookup takes only an n-character ``str`` of 0s and 1s."""

    def __init__(self, probabilities: np.ndarray):
        self.probabilities = probabilities.view()
        self.probabilities.flags.writeable = False
        self._n = len(probabilities).bit_length() - 1

    def __getitem__(self, key) -> float:
        if not (isinstance(key, str) and len(key) == self._n and not key.strip("01")):
            raise KeyError(key)
        return self.probabilities.item(int(key, 2))

    def __iter__(self):
        return map(f"{{:0{self._n}b}}".format, range(len(self.probabilities)))

    def __len__(self) -> int:
        return len(self.probabilities)

    def items(self) -> ItemsView:
        return _OutcomeItems(self)

    def values(self) -> ValuesView:
        return _OutcomeValues(self)


class _OutcomeItems(ItemsView):
    """Items iterated as the keys zipped with the array's floats, with no
    per-key lookup; membership and set operations stay ``ItemsView``'s."""

    def __iter__(self):
        return zip(self._mapping, self._mapping.probabilities.tolist())


class _OutcomeValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.probabilities.tolist())
