import numpy as np
import pytest

from homoglab import cell, coeff


@pytest.fixture(scope="session")
def identity_field():
    return coeff.builtin("constant", value=np.eye(2))


@pytest.fixture(scope="session")
def layered_field():
    return coeff.builtin("layered")


@pytest.fixture(scope="session")
def known_defect_field():
    # the identity raised by 1/4 on 1 < y1 < 2: periodic but for one inner
    # period, which a field read at y mod 1 never reaches
    eye = np.eye(2)[None, :, :, None, None]
    return coeff.CoefficientField(
        lambda y: (1.0 + 0.25 * ((1.0 < y[:, 0]) & (y[:, 0] < 2.0)))[:, None, None, None, None] * eye)


@pytest.fixture(scope="session")
def layered_cell64(layered_field):
    return cell.solve(layered_field, 64)


@pytest.fixture(scope="session")
def layered_cell128(layered_field):
    return cell.solve(layered_field, 128)


class _RecordingLU:
    """A sparse LU that reports the columns of every solve to record."""

    def __init__(self, lu, record):
        self.lu, self.nnz, self._record = lu, lu.nnz, record

    def solve(self, b):
        self._record(b)
        return self.lu.solve(b)


@pytest.fixture
def exact_part_calls(monkeypatch):
    """The list that gets (columns, all-zero columns) of every call into an
    exact part of a Solver from now on: the solve of a cell template, of a
    Dirichlet or a Neumann operator, the transform's _precondition and the
    solve of a sparse LU, plain or bordered, factored after this fixture is
    set up."""
    from homoglab import mesh
    calls = []

    def record(b):
        B = np.asarray(b).reshape(b.shape[0], -1)
        calls.append((B.shape[1], int((~B.any(axis=0)).sum())))

    template_solve, precondition = mesh._CellTemplate.solve, mesh.Solver._precondition
    factor = mesh.AssembledOperator._factor

    def recording_template(self, B):
        record(B)
        return template_solve(self, B)

    def recording_precondition(self, v):
        record(v)
        return precondition(self, v)

    monkeypatch.setattr(mesh._CellTemplate, "solve", recording_template)
    monkeypatch.setattr(mesh.Solver, "_precondition", recording_precondition)
    monkeypatch.setattr(mesh.AssembledOperator, "_factor",
                        lambda self, matrix: _RecordingLU(factor(self, matrix), record))
    return calls
