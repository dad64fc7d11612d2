"""JSON serialization for algebras, spaces, and gradings.

An algebra file is a dimension plus a sparse bracket table; a space
file wraps an algebra with index lists for the splitting, a metric on
m, and optionally a block grading and a display name.  All indices are
zero-based and omitted bracket pairs mean zero.  Schema problems raise
ParseError carrying a dotted location path into the document; the
mathematical validators (Jacobi, reductivity, definiteness) fire with
their own error types once the document parses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import ParseError
from .lie import LieAlgebra, build_lie_algebra
from .reductive import InvariantMetric, ReductiveDecomposition
from .spectrum import BlockGrading


def _as_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", location=location)
    return value


def _as_real(value, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", location=location)
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not math.isfinite(real):  # json also reads NaN and Infinity
        raise ParseError(f"expected a finite number, got {value!r}", location=location)
    return real


def _as_object(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}",
                         location=location)
    return value


def _as_list(value, location: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected a list, got {type(value).__name__}",
                         location=location)
    return value


def _index(value, dim: int, location: str) -> int:
    i = _as_int(value, location)
    if not 0 <= i < dim:
        raise ParseError(f"index {i} out of range for dimension {dim}",
                         location=location)
    return i


def _sub(location: str, field: str) -> str:
    return f"{location}.{field}" if location else field


# --- algebras -----------------------------------------------------------


def algebra_from_dict(data, tol=DEFAULT_TOL, location: str = "algebra") -> LieAlgebra:
    data = _as_object(data, location)
    if "dim" not in data:
        raise ParseError("missing field 'dim'", location=location)
    dim = _as_int(data["dim"], _sub(location, "dim"))
    if dim < 0:
        raise ParseError(f"dimension must be nonnegative, got {dim}",
                         location=_sub(location, "dim"))

    labels = None
    if data.get("basis") is not None:
        raw = _as_list(data["basis"], _sub(location, "basis"))
        if len(raw) != dim:
            raise ParseError(
                f"basis lists {len(raw)} labels for dimension {dim}",
                location=_sub(location, "basis"))
        for pos, lab in enumerate(raw):
            if not isinstance(lab, str):
                raise ParseError(f"expected a string label, got {lab!r}",
                                 location=_sub(location, f"basis[{pos}]"))
        labels = tuple(raw)

    brackets: dict = {}
    seen: set = set()
    for pos, item in enumerate(_as_list(data.get("brackets", []),
                                        _sub(location, "brackets"))):
        loc = _sub(location, f"brackets[{pos}]")
        item = _as_object(item, loc)
        for key in ("i", "j", "out"):
            if key not in item:
                raise ParseError(f"missing field {key!r}", location=loc)
        i = _index(item["i"], dim, f"{loc}.i")
        j = _index(item["j"], dim, f"{loc}.j")
        if i == j:
            raise ParseError("a basis element brackets with itself to zero; "
                             "remove the entry", location=loc)
        if (min(i, j), max(i, j)) in seen:
            raise ParseError(f"duplicate bracket entry for pair ({i}, {j})",
                             location=loc)
        seen.add((min(i, j), max(i, j)))
        out = _as_object(item["out"], f"{loc}.out")
        row = {}
        for key, value in out.items():
            key_loc = f"{loc}.out[{key!r}]"
            try:
                k = int(key)
                if str(k) != key:  # "02", " 2", "+2" and "1_0" would alias another key
                    raise ValueError
            except (TypeError, ValueError):
                raise ParseError(f"component key must be an integer string in decimal "
                                 f"form, got {key!r}", location=key_loc) from None
            if not 0 <= k < dim:
                raise ParseError(f"index {k} out of range for dimension {dim}",
                                 location=key_loc)
            row[k] = _as_real(value, key_loc)
        brackets[(i, j)] = row
    return build_lie_algebra(dim, brackets, basis_labels=labels, tol=tol)


def algebra_to_dict(algebra: LieAlgebra) -> dict:
    brackets = [
        {"i": i, "j": j, "out": {str(k): v for k, v in row.items()}}
        for (i, j), row in algebra.brackets.items()
    ]
    return {
        "dim": algebra.dim,
        "basis": list(algebra.basis_labels),
        "brackets": brackets,
    }


# --- metrics and gradings ----------------------------------------------


def metric_from_dict(data, m_dim: int, location: str = "metric") -> InvariantMetric:
    data = _as_object(data, location)
    has_diag = "diag" in data
    has_matrix = "matrix" in data
    if has_diag and has_matrix:
        raise ParseError("give either 'diag' or 'matrix', not both",
                         location=location)
    if has_diag:
        raw = _as_list(data["diag"], f"{location}.diag")
        if len(raw) != m_dim:
            raise ParseError(f"diagonal has {len(raw)} entries but m has "
                             f"dimension {m_dim}", location=f"{location}.diag")
        diag = [_as_real(v, f"{location}.diag[{p}]") for p, v in enumerate(raw)]
        return InvariantMetric.from_diag(diag)
    if has_matrix:
        raw = _as_list(data["matrix"], f"{location}.matrix")
        if len(raw) != m_dim:
            raise ParseError(f"matrix has {len(raw)} rows but m has "
                             f"dimension {m_dim}", location=f"{location}.matrix")
        rows = []
        for r, row in enumerate(raw):
            row = _as_list(row, f"{location}.matrix[{r}]")
            if len(row) != m_dim:
                raise ParseError(f"row has {len(row)} entries, expected {m_dim}",
                                 location=f"{location}.matrix[{r}]")
            rows.append([_as_real(v, f"{location}.matrix[{r}][{p}]")
                         for p, v in enumerate(row)])
        return InvariantMetric(np.array(rows))
    raise ParseError("metric needs a 'diag' or 'matrix' field", location=location)


def metric_to_dict(metric: InvariantMetric) -> dict:
    g = np.asarray(metric.matrix)
    if np.count_nonzero(g - np.diag(np.diagonal(g))) == 0:
        return {"diag": [float(v) for v in np.diagonal(g)]}
    return {"matrix": [[float(v) for v in row] for row in g]}


def grading_from_dict(data, location: str = "grading") -> BlockGrading:
    data = _as_object(data, location)
    for key in ("blocks", "signs"):
        if key not in data:
            raise ParseError(f"missing field {key!r}", location=location)
    raw_blocks = _as_list(data["blocks"], f"{location}.blocks")
    blocks = []
    for b, block in enumerate(raw_blocks):
        block = _as_list(block, f"{location}.blocks[{b}]")
        blocks.append(tuple(_as_int(v, f"{location}.blocks[{b}][{p}]")
                            for p, v in enumerate(block)))
    raw_signs = _as_list(data["signs"], f"{location}.signs")
    signs = tuple(_as_int(v, f"{location}.signs[{p}]")
                  for p, v in enumerate(raw_signs))
    return BlockGrading(blocks=tuple(blocks), signs=signs)


def grading_to_dict(grading: BlockGrading) -> dict:
    return {
        "blocks": [list(block) for block in grading.blocks],
        "signs": list(grading.signs),
    }


# --- space files --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpaceFile:
    """Parsed contents of a space document."""

    decomposition: ReductiveDecomposition
    metric: InvariantMetric
    grading: BlockGrading | None
    name: str | None

    @property
    def algebra(self) -> LieAlgebra:
        return self.decomposition.algebra


def space_from_dict(data, tol=DEFAULT_TOL) -> SpaceFile:
    data = _as_object(data, "")
    for key in ("algebra", "decomposition", "metric"):
        if key not in data:
            raise ParseError(f"missing field {key!r}", location=key)
    algebra = algebra_from_dict(data["algebra"], tol=tol)

    split = _as_object(data["decomposition"], "decomposition")
    for key in ("k", "m"):
        if key not in split:
            raise ParseError(f"missing field {key!r}", location="decomposition")
    k = tuple(_index(v, algebra.dim, f"decomposition.k[{p}]")
              for p, v in enumerate(_as_list(split["k"], "decomposition.k")))
    m = tuple(_index(v, algebra.dim, f"decomposition.m[{p}]")
              for p, v in enumerate(_as_list(split["m"], "decomposition.m")))
    dec = ReductiveDecomposition(algebra, k, m)

    metric = metric_from_dict(data["metric"], len(m))

    grading = None
    if data.get("grading") is not None:
        grading = grading_from_dict(data["grading"])

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"expected a string, got {name!r}", location="name")
    return SpaceFile(decomposition=dec, metric=metric, grading=grading, name=name)


def space_to_dict(dec: ReductiveDecomposition, metric: InvariantMetric,
                  grading: BlockGrading | None = None,
                  name: str | None = None) -> dict:
    out = {
        "algebra": algebra_to_dict(dec.algebra),
        "decomposition": {
            "k": list(dec.k_indices),
            "m": list(dec.m_indices),
        },
        "metric": metric_to_dict(metric),
    }
    if grading is not None:
        out["grading"] = grading_to_dict(grading)
    if name is not None:
        out["name"] = name
    return out


# --- file helpers -------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", location=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         location=f"{path}:{exc.lineno}:{exc.colno}") from exc


def load_algebra(path: str, tol=DEFAULT_TOL) -> LieAlgebra:
    data = _load_json(path)
    data = _as_object(data, "")
    # allow either a bare algebra document or a space file
    if "algebra" in data:
        return algebra_from_dict(data["algebra"], tol=tol)
    return algebra_from_dict(data, tol=tol, location="")


def load_space(path: str, tol=DEFAULT_TOL) -> SpaceFile:
    return space_from_dict(_load_json(path), tol=tol)


def load_grading(path: str) -> BlockGrading:
    return grading_from_dict(_load_json(path), location="grading")


def dump_space(path: str, dec, metric, grading=None, name=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(space_to_dict(dec, metric, grading=grading, name=name),
                  handle, indent=2)
        handle.write("\n")
