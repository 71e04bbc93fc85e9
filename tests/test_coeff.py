import numpy as np
import pytest

from homoglab import coeff


def test_validate_identity(identity_field):
    rep = coeff.validate(identity_field, samples=8)
    assert rep.rayleigh_min == pytest.approx(1.0, abs=1e-12)
    assert rep.rayleigh_max == pytest.approx(1.0, abs=1e-12)
    assert rep.mu_measured == pytest.approx(1.0, abs=1e-12)


def test_validate_layered_range(layered_field):
    # a(y) = 2 + sin(2 pi y1) has range [1, 3]; the sample lattice comes
    # within O(1/samples) of the extrema
    rep = coeff.validate(layered_field, samples=64)
    assert rep.rayleigh_min == pytest.approx(1.0, abs=2e-2)
    assert rep.rayleigh_max == pytest.approx(3.0, abs=2e-2)


def test_validate_checkerboard_against_dense_sampling():
    field = coeff.builtin("smoothed-checkerboard", contrast=10.0)
    rep = coeff.validate(field, samples=64)
    # independent dense-sampling oracle for the scalar range
    t = (np.arange(400) + 0.5) / 400
    yy = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    a = field(yy)[:, 0, 0, 0, 0]
    assert a.min() >= 1.0 - 1e-9 and a.max() <= 10.0 + 1e-9
    assert rep.rayleigh_min >= a.min() - 1e-9
    assert rep.rayleigh_max <= a.max() + 1e-9
    assert 1.0 / 10.0 <= rep.mu_measured <= 10.0


def test_validate_trigonometric_mu():
    field = coeff.builtin("trigonometric")
    rep = coeff.validate(field, samples=64)
    # dense-sampling oracle: range of 2 + 0.5 cos cos is [1.5, 2.5]
    assert rep.rayleigh_min >= 2.0 / 3.0
    assert rep.rayleigh_min == pytest.approx(1.5, abs=2e-2)
    assert rep.rayleigh_max == pytest.approx(2.5, abs=2e-2)


def test_validate_rejects_nonelliptic():
    bad = coeff.CoefficientField(
        coeff._isotropic(lambda pts: np.sin(2 * np.pi * pts[:, 0]), 1))
    with pytest.raises(coeff.EllipticityError):
        coeff.validate(bad, samples=16)


def test_validate_rejects_nonfinite():
    bad = coeff.CoefficientField(
        coeff._isotropic(lambda pts: 1.0 / (pts[:, 0] - pts[:, 0]), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(coeff.CoefficientError):
            coeff.validate(bad, samples=4)


def test_rescale_constant(identity_field):
    sc = coeff.rescale(identity_field, 1 / 8)
    v = sc(np.array([0.3, 0.7]))
    assert np.allclose(v[:, :, 0, 0], np.eye(2))


def test_rescale_layered_substitution(layered_field):
    sc = coeff.rescale(layered_field, 0.25)
    # x = (1/8, 0) -> y = (1/2, 0), a = 2 + sin(pi) = 2
    assert sc(np.array([0.125, 0.0]))[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-14)


def test_rescale_epsilon_one_is_identity(layered_field):
    pts = np.random.default_rng(0).random((50, 2))
    sc = coeff.rescale(layered_field, 1.0)
    assert np.array_equal(sc(pts), layered_field(pts))


def test_rescale_composition(layered_field):
    # A(x/eps) is the base field at x/eps, bitwise; a rescaled field is not
    # rescaled again
    pts = np.random.default_rng(1).random((50, 2))
    once = coeff.rescale(layered_field, 0.125)
    assert np.array_equal(once(pts), layered_field(pts / 0.125))
    with pytest.raises(coeff.CoefficientError):
        coeff.rescale(once, 0.5)


def test_rescaled_field_carries_its_period(layered_field):
    sc = coeff.rescale(layered_field, 0.25)
    assert layered_field.epsilon is None and sc.epsilon == 0.25
    assert (sc.family, sc.params, sc.m) == (layered_field.family, layered_field.params,
                                            layered_field.m)
    # a cache never confuses a rescaled field with its base or another period
    keys = {layered_field.key(), sc.key(), coeff.rescale(layered_field, 0.5).key()}
    assert len(keys) == 3
    assert sc.key() == coeff.rescale(coeff.builtin("layered"), 0.25).key()


def test_rescaled_field_evaluates_its_base_once(layered_field, monkeypatch):
    # one call of the rescaled field is one call of CoefficientField.__call__,
    # so a count of evaluated points counts each point once
    calls = []
    call = coeff.CoefficientField.__call__
    monkeypatch.setattr(coeff.CoefficientField, "__call__",
                        lambda self, pts: calls.append(len(pts)) or call(self, pts))
    coeff.rescale(layered_field, 0.25)(np.zeros((7, 2)))
    assert calls == [7]


def test_rescale_rejects_nonpositive(layered_field):
    with pytest.raises(coeff.CoefficientError):
        coeff.rescale(layered_field, 0.0)
    with pytest.raises(coeff.CoefficientError):
        coeff.rescale(layered_field, -1.0)


@pytest.mark.parametrize("eps", [np.inf, np.nan])
def test_rescale_rejects_a_period_that_is_not_finite(layered_field, eps):
    # an infinite period would reach assembly and end in OverflowError there
    with pytest.raises(coeff.CoefficientError, match="finite and positive"):
        coeff.rescale(layered_field, eps)


_EYE = np.eye(2)[None, :, :, None, None]


def _drifting_field():
    """A hand-built evaluator that is not periodic: 1 + (y1 - 2 y2)/4 times
    the identity."""
    return coeff.CoefficientField(
        lambda y: (1.0 + 0.25 * (y[:, 0] - 2.0 * y[:, 1]))[:, None, None, None, None] * _EYE)


def _skewed_adjoint():
    """The adjoint of a non-symmetric hand-built field whose skew part grows
    with y2."""
    skew = np.array([[0.0, 0.8], [-0.8, 0.0]])[None, :, :, None, None]
    return coeff.CoefficientField(
        lambda y: 2.0 * _EYE + y[:, 1, None, None, None, None] * skew).adjoint()


@pytest.mark.parametrize("tag,params", [
    ("constant", {}),
    ("layered", {}),
    ("layered", {"wavevector": (1, 1)}),
    ("trigonometric", {}),
    ("smoothed-checkerboard", {}),
    ("known-defect", {}),
    ("drifting", {}),
    ("user", {"expr": "2 + y1 * y2"}),
    ("skewed-adjoint", {}),
    ("rescaled-drifting", {"eps": 1 / 8}),
])
def test_periodicity_exact_on_dyadic_points(tag, params, known_defect_field):
    # 1e4 random dyadic points and integer shifts (of the period eps for a
    # rescaled field) reproduce values bitwise, for every kind of field:
    # builtin, hand-built, expression, adjoint and rescaled
    built = {"known-defect": lambda: known_defect_field, "drifting": _drifting_field,
             "skewed-adjoint": _skewed_adjoint,
             "rescaled-drifting": lambda eps: coeff.rescale(_drifting_field(), eps)}
    field = built.get(tag, lambda **kw: coeff.builtin(tag, **kw))(**params)
    rng = np.random.default_rng(3)
    y = rng.integers(0, 1024, size=(10000, 2)) / 1024.0
    z = rng.integers(-5, 6, size=(10000, 2)) * params.get("eps", 1.0)
    assert np.abs(field(y + z) - field(y)).max() == 0.0


def test_symmetry_flag_transpose(layered_field):
    rng = np.random.default_rng(4)
    pts = rng.random((200, 2))
    vals = layered_field(pts)
    assert coeff.symmetric_table(vals)
    assert np.array_equal(vals, vals.transpose(0, 2, 1, 4, 3))


def test_adjoint_of_nonsymmetric_constant():
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    field = coeff.builtin("constant", value=A)
    pts = np.random.default_rng(5).random((10, 2))
    assert not coeff.symmetric_table(field(pts))
    star = field.adjoint()
    assert np.allclose(star(pts)[:, :, :, 0, 0], A.T)
    # the adjoint of A(x/eps) keeps the period
    star = coeff.rescale(field, 0.125).adjoint()
    assert star.epsilon == 0.125 and not coeff.symmetric_table(star(pts))
    assert np.allclose(star(pts)[:, :, :, 0, 0], A.T)


def test_adjoint_keys_are_equal_only_for_equal_values():
    # f, f* and f**: a key shared by two of them is shared only by equal
    # values, so a cell cache never hands the cell of A to A^T
    pts = np.random.default_rng(6).random((10, 2))
    for field in (coeff.builtin("constant", value=[[2.0, 0.5], [0.0, 1.0]]),
                  coeff.rescale(coeff.builtin("constant", value=[[2.0, 0.5], [0.0, 1.0]]), 0.25),
                  _skewed_adjoint()):
        chain = [field, field.adjoint(), field.adjoint().adjoint()]
        for f in chain:
            for g in chain:
                if f.key() == g.key():
                    assert np.array_equal(f(pts), g(pts))
        assert not np.array_equal(chain[0](pts), chain[1](pts))
        assert np.array_equal(chain[0](pts), chain[2](pts))


def test_symmetric_table_is_the_constant_rule():
    # max |a_ij^{ab} - a_ji^{ba}| <= 1e-12 max |a|: a tensor symmetric to
    # roundoff counts as symmetric, a skew a_12 or a skew m x m block does not
    A = np.einsum("ij,ab->ijab", [[2.0, 0.3], [0.3, 1.0]], np.eye(2))
    table = np.broadcast_to(A, (5, 4, 2, 2, 2, 2))
    assert coeff.symmetric_table(table)
    assert coeff.symmetric_table(table + 1e-13 * np.arange(16.0).reshape(2, 2, 2, 2))
    for index in [(0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0)]:
        skew = np.zeros((2, 2, 2, 2))
        skew[index] = 1e-10
        assert not coeff.symmetric_table(table + skew)


def test_builtin_rejects_bad_parameters():
    with pytest.raises(coeff.EllipticityError):
        coeff.builtin("layered", base=1.0, amp=2.0)
    with pytest.raises(coeff.EllipticityError):
        coeff.builtin("smoothed-checkerboard", contrast=-1.0)
    with pytest.raises(coeff.CoefficientError):
        coeff.builtin("smoothed-checkerboard", width=0.0)
    with pytest.raises(coeff.CoefficientError):
        coeff.builtin("nope")


@pytest.mark.parametrize("tag, params, name", [
    ("user", {}, "expr"),
    ("user", {"expr": 2.0}, "expr"),
    ("layered", {"m": "x"}, "m"),
    ("layered", {"m": 2.0}, "m"),
    ("layered", {"base": "2"}, "base"),
    ("trigonometric", {"amp": None}, "amp"),
    ("smoothed-checkerboard", {"contrast": [10.0]}, "contrast"),
    ("smoothed-checkerboard", {"width": "narrow"}, "width"),
])
def test_builtin_names_a_parameter_of_the_wrong_type(tag, params, name):
    with pytest.raises(coeff.CoefficientError, match=f"parameter {name} must be"):
        coeff.builtin(tag, **params)


def test_builtin_rejects_unknown_parameters():
    with pytest.raises(coeff.CoefficientError, match="no parameter d"):
        coeff.builtin("layered", d=3)
    with pytest.raises(coeff.CoefficientError, match="no parameter width"):
        coeff.builtin("constant", width=0.5)


def test_expression_field_matches_layered(layered_field):
    field = coeff.builtin("user", expr="2 + sin(2*pi*y1)")
    pts = np.random.default_rng(6).random((100, 2))
    assert np.allclose(field(pts), layered_field(pts), atol=1e-14)


def test_expression_rejects_unsafe_syntax():
    for expr in ("__import__('os')", "y3", "(lambda: 1)()", "y1.real", "'a'"):
        with pytest.raises(coeff.CoefficientError):
            coeff.from_expression(expr)


@pytest.mark.parametrize("expr", ["-1", "0*y1", "sin(2*pi*y1)"])
def test_expression_rejects_a_field_that_is_not_elliptic(expr):
    # checked where the expression enters, not by a singular factor or a
    # failed corrector downstream
    with pytest.raises(coeff.EllipticityError, match="not positive"):
        coeff.builtin("user", expr=expr)


def test_measured_mu_meets_the_analytic_constant():
    # min(inf a, 1 / sup a) of the default layered (a in [1, 3]),
    # trigonometric ([1.5, 2.5]) and checkerboard ([1, 10]) fields
    for tag, mu in (("layered", 1 / 3), ("trigonometric", 0.4), ("smoothed-checkerboard", 0.1)):
        rep = coeff.validate(coeff.builtin(tag), samples=32)
        assert rep.mu_measured >= mu - 1e-9


def test_user_expression_takes_m():
    from homoglab.ratelab import coefficient_from_spec
    pts = np.array([[0.1, 0.2], [0.7, 0.4]])
    eye = np.einsum("ij,ab->ijab", np.eye(2), np.eye(2))
    for field in (coeff.builtin("user", m=2, expr="2 + y1"),
                  coefficient_from_spec({"family": "user", "params": {"expr": "2 + y1", "m": 2}})):
        assert field.m == 2
        assert np.array_equal(field(pts), (2 + pts[:, 0])[:, None, None, None, None] * eye)
    assert coeff.builtin("user", m=2, expr="2").key() != coeff.builtin("user", expr="2").key()
