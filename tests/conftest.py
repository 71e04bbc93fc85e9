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


@pytest.fixture
def exact_part_calls(monkeypatch):
    """The list that gets (columns, all-zero columns) of every call into the
    exact part of a Solver built from now on: each solve of its cell
    template, transform or sparse LU, conjugate-gradient steps included."""
    from homoglab import mesh
    calls = []
    init = mesh.Solver.__init__

    def recording(self, op, part):
        solve = part.solve

        def recorded(B):
            calls.append((B.shape[1], int((~B.any(axis=0)).sum())))
            return solve(B)

        part.solve = recorded
        init(self, op, part)

    monkeypatch.setattr(mesh.Solver, "__init__", recording)
    return calls
