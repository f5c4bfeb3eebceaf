"""Term model for the RDFS substrate.

The paper (Section 3) models an ontology as a set of triples
``O ⊆ R × P × (R ∪ L)`` over a global set of resources ``R``, literals
``L`` and properties ``P``.  This module provides the three corresponding
term types:

* :class:`Resource` — an identifier for a real-world object (instance or
  class).
* :class:`Literal` — a string, number or date.  Literals are shared across
  ontologies and compared by literal-similarity functions
  (:mod:`repro.literals`).
* :class:`Relation` — a binary predicate.  Every relation has an inverse
  (``r.inverse``); PARIS materializes all inverse statements, which is why
  literals may appear in subject position (a "minor digression from the
  standard", Section 3).

All terms are immutable, hashable and slotted so they can be used as
dictionary keys in the hot loops of the aligner.
"""

from __future__ import annotations

from typing import Union


class Term:
    """Base class for all RDF terms.

    Terms compare by value and are safe to use as dictionary keys.  The
    concrete subclasses are :class:`Resource`, :class:`Literal` and
    :class:`Relation`.
    """

    __slots__ = ()

    @property
    def is_literal(self) -> bool:
        """Whether this term is a literal value."""
        return isinstance(self, Literal)

    @property
    def is_resource(self) -> bool:
        """Whether this term is a resource (instance or class)."""
        return isinstance(self, Resource)


class Resource(Term):
    """An identifier for a real-world object.

    A resource may denote an *instance* (e.g. ``Elvis``) or a *class*
    (e.g. ``singer``); the distinction is tracked by the
    :class:`~repro.rdf.ontology.Ontology` that contains it, not by the
    term itself, because the same name could play either role in
    different ontologies.

    Parameters
    ----------
    name:
        The URI or local name identifying the resource.  Names are
        compared exactly; two resources with the same name are the same
        term.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        if not isinstance(name, str):
            raise TypeError(f"resource name must be a string, got {type(name).__name__}")
        if not name:
            raise ValueError("resource name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("R", name)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Resource is immutable")

    def __reduce__(self):
        # Slotted immutables reject the default __setstate__; rebuild
        # through the constructor so terms can cross process boundaries
        # (pool workers ship scored terms back to the parent).
        return (Resource, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Resource) and other.name == self.name

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Resource({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Literal(Term):
    """A literal value: a string, a number, or a date rendered as a string.

    The paper clamps literal equivalence probabilities up front
    (Section 5.3).  We therefore store literals as their lexical form
    plus an optional datatype tag; similarity functions in
    :mod:`repro.literals` decide what "equal" means.

    Parameters
    ----------
    value:
        Lexical form of the literal (always stored as ``str``; numeric
        inputs are converted).
    datatype:
        Optional datatype hint such as ``"string"``, ``"integer"``,
        ``"decimal"`` or ``"date"``.  Kept for normalization
        (Section 5.3 discusses stripping datatype and dimension
        information); ignored by term equality.
    """

    __slots__ = ("value", "datatype", "_hash")

    def __init__(self, value: Union[str, int, float], datatype: str | None = None) -> None:
        if isinstance(value, bool):
            raise TypeError("boolean literals are not part of the paper's model")
        if isinstance(value, (int, float)):
            if datatype is None:
                datatype = "integer" if isinstance(value, int) else "decimal"
            value = repr(value) if isinstance(value, float) else str(value)
        if not isinstance(value, str):
            raise TypeError(f"literal value must be str/int/float, got {type(value).__name__}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", hash(("L", value)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def __reduce__(self):
        return (Literal, (self.value, self.datatype))

    def __eq__(self, other: object) -> bool:
        # Datatype is a hint only: "42"^^integer and "42" are one term.
        return isinstance(other, Literal) and other.value == self.value

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.datatype:
            return f"Literal({self.value!r}, datatype={self.datatype!r})"
        return f"Literal({self.value!r})"

    def __str__(self) -> str:
        return self.value


class Relation(Term):
    """A binary predicate, possibly the inverse of a named predicate.

    ``Relation("wasBornIn")`` is the forward relation;
    ``Relation("wasBornIn").inverse`` is the relation written
    ``wasBornIn⁻`` in the paper, satisfying
    ``r(x, y) ⇔ r⁻(y, x)``.  Double inversion returns the forward
    relation (``r.inverse.inverse == r``).

    Parameters
    ----------
    name:
        Name of the underlying predicate.
    inverted:
        ``True`` if this term denotes the inverse direction.
    """

    __slots__ = ("name", "inverted", "_hash")

    #: Textual marker used when rendering inverse relations.
    INVERSE_SUFFIX = "^-1"

    def __init__(self, name: str, inverted: bool = False) -> None:
        if not isinstance(name, str):
            raise TypeError(f"relation name must be a string, got {type(name).__name__}")
        if not name:
            raise ValueError("relation name must be non-empty")
        if name.endswith(self.INVERSE_SUFFIX):
            raise ValueError(
                f"relation name must not end with {self.INVERSE_SUFFIX!r}; "
                "use inverted=True or .inverse instead"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inverted", bool(inverted))
        object.__setattr__(self, "_hash", hash(("P", name, bool(inverted))))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Relation is immutable")

    def __reduce__(self):
        return (Relation, (self.name, self.inverted))

    @property
    def inverse(self) -> "Relation":
        """The relation ``r⁻`` with arguments swapped."""
        return Relation(self.name, not self.inverted)

    @property
    def base(self) -> "Relation":
        """The forward (non-inverted) relation underlying this term."""
        return self if not self.inverted else Relation(self.name, False)

    @classmethod
    def parse(cls, text: str) -> "Relation":
        """Parse a relation from text, honouring the ``^-1`` suffix.

        >>> Relation.parse("actedIn^-1")
        Relation('actedIn', inverted=True)
        """
        if text.endswith(cls.INVERSE_SUFFIX):
            return cls(text[: -len(cls.INVERSE_SUFFIX)], inverted=True)
        return cls(text)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and other.name == self.name
            and other.inverted == self.inverted
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.inverted:
            return f"Relation({self.name!r}, inverted=True)"
        return f"Relation({self.name!r})"

    def __str__(self) -> str:
        return self.name + (self.INVERSE_SUFFIX if self.inverted else "")


#: Type alias for anything allowed in subject/object position.  Because
#: inverse statements are materialized, literals may appear as subjects.
Node = Union[Resource, Literal]
