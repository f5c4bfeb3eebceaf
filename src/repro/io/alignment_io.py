"""Serialization of alignment results.

An :class:`~repro.core.result.AlignmentResult` persists as a directory
of TSV files — one per alignment kind — plus a small metadata header:

* ``instances.tsv``   — ``left  right  probability`` (all stored pairs)
* ``assignment.tsv``  — the maximal assignment, left → right
* ``relations12.tsv`` / ``relations21.tsv`` — relation inclusions
* ``classes12.tsv``  / ``classes21.tsv``    — class inclusions
* ``meta.tsv``        — ontology names, iteration count, convergence

The instance equalities can additionally be exported as
``owl:sameAs`` links in N-Triples (:func:`write_sameas_links`), the
interchange format of the Linked Open Data world the paper targets.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..core.matrix import SubsumptionMatrix
from ..core.result import AlignmentResult, Assignment
from ..core.store import EquivalenceStore
from ..rdf.terms import Relation, Resource

#: Conventional URI of the owl:sameAs property.
OWL_SAMEAS_URI = "http://www.w3.org/2002/07/owl#sameAs"


def render_assignment_rows(rows: List[Tuple[str, str, float]]) -> str:
    """Render ``(left, right, probability)`` rows as sorted TSV text.

    The one TSV shape used everywhere results are exchanged: the
    ``save_result`` files below and the alignment service's
    ``GET /alignment?format=tsv`` response.
    """
    return "".join(
        f"{left}\t{right}\t{probability:.6f}\n" for left, right, probability in sorted(rows)
    )


def _write_rows(path: Path, rows: List[Tuple[str, str, float]]) -> None:
    path.write_text(render_assignment_rows(rows), encoding="utf-8")


def _read_rows(path: Path) -> List[Tuple[str, str, float]]:
    rows = []
    if not path.exists():
        return rows
    with path.open("r", encoding="utf-8") as stream:
        for line_number, raw in enumerate(stream, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path.name}:{line_number}: expected 3 fields, got {len(fields)}"
                )
            rows.append((fields[0], fields[1], float(fields[2])))
    return rows


def save_result(result: AlignmentResult, directory: Union[str, Path]) -> Path:
    """Persist an alignment result; returns the directory written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_rows(
        directory / "instances.tsv",
        [(l.name, r.name, p) for l, r, p in result.instances.items()],
    )
    _write_rows(
        directory / "assignment.tsv",
        [(l.name, r.name, p) for l, (r, p) in result.assignment12.items()],
    )
    _write_rows(
        directory / "relations12.tsv",
        [(str(a), str(b), p) for a, b, p in result.relations12.items()],
    )
    _write_rows(
        directory / "relations21.tsv",
        [(str(a), str(b), p) for a, b, p in result.relations21.items()],
    )
    _write_rows(
        directory / "classes12.tsv",
        [(a.name, b.name, p) for a, b, p in result.classes12.items()],
    )
    _write_rows(
        directory / "classes21.tsv",
        [(a.name, b.name, p) for a, b, p in result.classes21.items()],
    )
    with (directory / "meta.tsv").open("w", encoding="utf-8") as stream:
        stream.write(f"left\t{result.left_name}\n")
        stream.write(f"right\t{result.right_name}\n")
        stream.write(f"iterations\t{result.num_iterations}\n")
        stream.write(f"converged\t{int(result.converged)}\n")
    return directory


def load_result(directory: Union[str, Path]) -> AlignmentResult:
    """Load an alignment result saved by :func:`save_result`.

    Iteration snapshots are not persisted; the loaded result carries
    the final state and the iteration count only.
    """
    directory = Path(directory)
    meta: Dict[str, str] = {}
    with (directory / "meta.tsv").open("r", encoding="utf-8") as stream:
        for line in stream:
            key, _, value = line.rstrip("\n").partition("\t")
            meta[key] = value
    instances = EquivalenceStore()
    for left, right, probability in _read_rows(directory / "instances.tsv"):
        instances.set(Resource(left), Resource(right), probability)
    relations12: SubsumptionMatrix[Relation] = SubsumptionMatrix()
    for left, right, probability in _read_rows(directory / "relations12.tsv"):
        relations12.set(Relation.parse(left), Relation.parse(right), probability)
    relations21: SubsumptionMatrix[Relation] = SubsumptionMatrix()
    for left, right, probability in _read_rows(directory / "relations21.tsv"):
        relations21.set(Relation.parse(left), Relation.parse(right), probability)
    classes12: SubsumptionMatrix[Resource] = SubsumptionMatrix()
    for left, right, probability in _read_rows(directory / "classes12.tsv"):
        classes12.set(Resource(left), Resource(right), probability)
    classes21: SubsumptionMatrix[Resource] = SubsumptionMatrix()
    for left, right, probability in _read_rows(directory / "classes21.tsv"):
        classes21.set(Resource(left), Resource(right), probability)
    return AlignmentResult(
        left_name=meta.get("left", "left"),
        right_name=meta.get("right", "right"),
        instances=instances,
        assignment12=instances.maximal_assignment(),
        assignment21=instances.maximal_assignment(reverse=True),
        relations12=relations12,
        relations21=relations21,
        classes12=classes12,
        classes21=classes21,
        converged=bool(int(meta.get("converged", "0"))),
        num_iterations=int(meta.get("iterations", "0")),
    )


def write_sameas_links(
    assignment: Assignment,
    target: Union[str, Path],
    threshold: float = 0.0,
) -> int:
    """Export a maximal assignment as ``owl:sameAs`` N-Triples links.

    Returns the number of links written.  This is the LOD-cloud
    interchange format: each line asserts
    ``<left> owl:sameAs <right> .``
    """
    path = Path(target)
    count = 0
    with path.open("w", encoding="utf-8") as stream:
        for left, (right, probability) in sorted(
            assignment.items(), key=lambda item: item[0].name
        ):
            if probability < threshold:
                continue
            stream.write(f"<{left.name}> <{OWL_SAMEAS_URI}> <{right.name}> .\n")
            count += 1
    return count
