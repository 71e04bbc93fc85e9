"""Periodic coefficient tensors a_ij^{ab}(y) and their epsilon rescalings.

Coefficient fields are supplied as analytic evaluators (pure functions of
the sample point), never as gridded data, so every mesh resolution samples
them exactly.  A field is 1-periodic by construction: it reads its
evaluator at y mod 1 only.  It carries a symmetry flag meaning
a_ij^{ab}(y) = a_ji^{ba}(y), and its period: 1 (epsilon None), or epsilon
for the field A(x/eps) that rescale returns.  Ellipticity is measured by
validate, never declared.

Index convention throughout the package: a tensor value at a point has
shape (d, d, m, m) indexed [i, j, alpha, beta], acting on gradients as
a_ij^{ab} dU^b/dx_j dV^a/dx_i.
"""

from __future__ import annotations

import ast
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientError",
    "EllipticityError",
    "CoefficientField",
    "ValidationReport",
    "builtin",
    "component_field",
    "diagonal_blocks",
    "from_expression",
    "rescale",
    "validate",
]

BUILTIN_FAMILIES = ("constant", "layered", "trigonometric", "smoothed-checkerboard", "user")


class CoefficientError(ValueError):
    """Invalid coefficient definition or parameters."""


class EllipticityError(CoefficientError):
    """The field is not elliptic: a sampled Rayleigh quotient, or a
    builtin's lower bound, is not positive."""


class CoefficientField:
    """Periodic tensor field with its symmetry flag and its period.

    The evaluator maps an (npts, d) array of points of the unit cell to an
    (npts, d, d, m, m) array, with d = 2 (every mesh is
    two-dimensional).  epsilon is None for a field of period 1 and the
    period of a rescaled field A(x/eps) (see rescale).  A call maps each
    point x to y = x, or x/eps when rescaled, and reads the evaluator at
    y mod 1, so every field repeats under integer shifts of y, and integer
    shifts of exactly representable points reproduce values bitwise.
    Instances are immutable after construction and safe to share across
    concurrent evaluations.
    """

    d = 2

    def __init__(self, evaluator, m=1, family="user", symmetric=True, params=None, epsilon=None):
        if m < 1:
            raise CoefficientError(f"need m >= 1, got m={m}")
        if epsilon is not None and not 0.0 < epsilon < np.inf:
            raise CoefficientError(f"epsilon must be finite and positive, got {epsilon}")
        self._evaluator = evaluator
        self.m = int(m)
        self.family = family
        self.symmetric = bool(symmetric)
        self.params = dict(params or {})
        self.epsilon = None if epsilon is None else float(epsilon)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        if squeeze:
            pts = pts[None, :]
        if pts.shape[-1] != self.d:
            raise CoefficientError(f"points have dimension {pts.shape[-1]}, field has d={self.d}")
        flat = pts.reshape(-1, self.d)
        if self.epsilon is not None:
            flat = flat / self.epsilon
        vals = np.asarray(self._evaluator(flat % 1.0), dtype=float)
        expect = (flat.shape[0], self.d, self.d, self.m, self.m)
        if vals.shape != expect:
            raise CoefficientError(f"evaluator returned shape {vals.shape}, expected {expect}")
        vals = vals.reshape(pts.shape[:-1] + expect[1:])
        return vals[0] if squeeze else vals

    def adjoint(self):
        """Coefficient of the adjoint operator: a*_ij^{ab}(y) = a_ji^{ba}(y)."""
        if self.symmetric:
            return self
        base = self._evaluator

        def star(pts):
            return np.transpose(np.asarray(base(pts)), (0, 2, 1, 4, 3))

        return CoefficientField(star, m=self.m, family=self.family, symmetric=False,
                                params={**self.params, "adjoint": True}, epsilon=self.epsilon)

    def key(self):
        """Hashable identity used for caching cell solutions.

        Builtin families and expression fields are keyed on their content,
        which fixes their values, and on their period.  Any other field is
        keyed on its evaluator object as well, so two hand-built fields with
        equal params but different evaluators never share a key; the key
        also keeps that evaluator alive, so its identity cannot be reused.
        """
        items = tuple(sorted((k, repr(v)) for k, v in self.params.items()))
        content = (self.family, self.d, self.m, self.epsilon, items)
        if self.family in BUILTIN_FAMILIES and (self.family != "user" or "expr" in self.params):
            return content
        return content + (self._evaluator,)

    def __repr__(self):
        scaled = "" if self.epsilon is None else f", epsilon={self.epsilon}"
        return (f"CoefficientField(family={self.family!r}, d={self.d}, m={self.m}, "
                f"params={self.params}{scaled})")


def rescale(field: CoefficientField, epsilon: float) -> CoefficientField:
    """A(y) -> A(x/eps).  epsilon is the period length in domain coordinates.

    The rescaled field shares the base field's evaluator and records eps,
    which its calls divide by.  A field that is already rescaled raises
    CoefficientError.
    """
    if not isinstance(field, CoefficientField) or field.epsilon is not None:
        raise CoefficientError("rescale expects a CoefficientField of period 1")
    return CoefficientField(field._evaluator, m=field.m, family=field.family,
                            symmetric=field.symmetric, params=field.params, epsilon=epsilon)


def component_field(field: CoefficientField, a: int) -> CoefficientField:
    """The m = 1 field a^{aa} of component a of field, over its evaluator
    and with its period and symmetry flag: the field of the diagonal block a
    of a component-decoupled system.  The component of a constant is the
    constant (a, a) block of its tensor; any other is a "user" field, keyed
    on its evaluator."""
    ev = field._evaluator
    family, params = "user", {"component": a}
    if field.family == "constant" and "value" in field.params:
        family = "constant"
        params = {"value": np.asarray(field.params["value"])[:, :, a:a + 1, a:a + 1].tolist()}
    return CoefficientField(lambda y: np.asarray(ev(y))[..., a:a + 1, a:a + 1], m=1,
                            family=family, symmetric=field.symmetric, params=params,
                            epsilon=field.epsilon)


def diagonal_blocks(*tables):
    """The distinct diagonal blocks of a component-decoupled system, from
    tables of its values, each (..., m, m): None when m = 1 or when some
    a^{ab}, a != b, is not exactly zero in some table; otherwise one
    (a, components) pair per distinct block, in component order, where a
    is its first component and components every b whose a^{bb} equals
    a^{aa} (np.array_equal) in every table.

    This is the one decoupling rule: the cell applies it to its tables at
    the Gauss points and the nodes, the assembled operator to the block
    table it is assembled from.
    """
    m = tables[0].shape[-1]
    off = ~np.eye(m, dtype=bool)
    if m == 1 or any(t[..., off].any() for t in tables):
        return None
    groups = []
    for b in range(m):
        for a, components in groups:
            if all(np.array_equal(t[..., b, b], t[..., a, a]) for t in tables):
                components.append(b)
                break
        else:
            groups.append((b, [b]))
    return [(a, tuple(components)) for a, components in groups]


# ---------------------------------------------------------------------------
# builtin families


def _isotropic(scalar_fn, m):
    """Wrap a scalar a(y) as the isotropic tensor a(y) delta_ij delta^{ab}."""
    eye = np.einsum("ij,ab->ijab", np.eye(2), np.eye(m))

    def ev(pts):
        a = np.asarray(scalar_fn(pts), dtype=float)
        return a[:, None, None, None, None] * eye[None]

    return ev


def _constant_field(value, m):
    d = 2
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        tensor = float(value) * np.einsum("ij,ab->ijab", np.eye(d), np.eye(m))
    elif value.shape == (d, d):
        tensor = np.einsum("ij,ab->ijab", value, np.eye(m))
    elif value.shape == (d, d, m, m):
        tensor = value.copy()
    else:
        raise CoefficientError(f"constant family takes a scalar, ({d},{d}) or ({d},{d},{m},{m}) array")
    # a computed tensor (hatA) is symmetric only to roundoff
    skew = np.abs(tensor - tensor.transpose(1, 0, 3, 2)).max()
    sym = bool(skew <= 1e-12 * np.abs(tensor).max())
    mat = tensor.transpose(0, 2, 1, 3).reshape(d * m, d * m)
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs.min() <= 0.0:
        raise EllipticityError(f"constant tensor is not elliptic (min eigenvalue {eigs.min():.3g})")

    def ev(pts):
        return np.broadcast_to(tensor, (pts.shape[0],) + tensor.shape).copy()

    return CoefficientField(ev, m=m, family="constant", symmetric=sym,
                            params={"value": tensor.tolist()})


def _layered_field(base, amp, axis, wavevector, m):
    d = 2
    if base - abs(amp) <= 0.0:
        raise EllipticityError(f"layered field base-|amp| = {base - abs(amp)} is not positive")
    if wavevector is None:
        if axis not in range(d):
            raise CoefficientError(f"layered axis must be in 0..{d-1}")
        wavevector = tuple(1 if k == axis else 0 for k in range(d))
    wavevector = tuple(int(k) for k in wavevector)
    if len(wavevector) != d or not any(wavevector):
        raise CoefficientError(f"wavevector must be a nonzero integer {d}-vector")
    kvec = np.asarray(wavevector, dtype=float)

    def scalar(pts):
        return base + amp * np.sin(2.0 * np.pi * (pts @ kvec))

    return CoefficientField(_isotropic(scalar, m), m=m, family="layered", symmetric=True,
                            params={"base": base, "amp": amp, "wavevector": wavevector})


def _trigonometric_field(base, amp, m):
    if base - abs(amp) <= 0.0:
        raise EllipticityError("trigonometric field is not uniformly positive")

    def scalar(pts):
        out = base + amp * np.cos(2.0 * np.pi * pts[:, 0]) * np.cos(2.0 * np.pi * pts[:, 1])
        return out

    return CoefficientField(_isotropic(scalar, m), m=m, family="trigonometric", symmetric=True,
                            params={"base": base, "amp": amp})


def _checkerboard_field(contrast, width, m):
    if contrast <= 0.0:
        raise EllipticityError(f"contrast must be positive, got {contrast}")
    if width <= 0.0:
        raise CoefficientError(f"smoothing width must be positive, got {width}")
    # smooth periodic switch ~ 1 on (0, 1/2), ~ 0 on (1/2, 1), transition width ~ width
    scale = 1.0 / (2.0 * np.pi * width)

    def switch(t):
        return 0.5 * (1.0 + np.tanh(np.sin(2.0 * np.pi * t) * scale))

    def scalar(pts):
        q1 = switch(pts[:, 0])
        q2 = switch(pts[:, 1])
        mask = q1 * q2 + (1.0 - q1) * (1.0 - q2)
        return 1.0 + (contrast - 1.0) * mask

    return CoefficientField(_isotropic(scalar, m), m=m, family="smoothed-checkerboard",
                            symmetric=True,
                            params={"contrast": contrast, "width": width})


def _param(params, name, default, kind=numbers.Real):
    """params[name], or default when absent; CoefficientError naming the
    parameter unless the value is of that kind (a bool never is)."""
    value = params.pop(name, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        what = {numbers.Integral: "an integer", str: "an expression string"}.get(kind, "a number")
        raise CoefficientError(f"parameter {name} must be {what}, got {value!r}")
    return value


def builtin(tag, m=1, **params) -> CoefficientField:
    """Construct one of the builtin coefficient families by tag; a parameter
    the family does not take, or one of the wrong type, raises
    CoefficientError."""
    m = _param({"m": m}, "m", 1, numbers.Integral)
    if tag == "constant":
        field = _constant_field(params.pop("value", 1.0), m)
    elif tag == "layered":
        field = _layered_field(_param(params, "base", 2.0), _param(params, "amp", 1.0),
                               params.pop("axis", 0), params.pop("wavevector", None), m)
    elif tag == "trigonometric":
        field = _trigonometric_field(_param(params, "base", 2.0), _param(params, "amp", 0.5), m)
    elif tag == "smoothed-checkerboard":
        field = _checkerboard_field(_param(params, "contrast", 10.0),
                                    _param(params, "width", 1.0 / 16.0), m)
    elif tag == "user":
        field = from_expression(_param(params, "expr", None, str), m)
    else:
        raise CoefficientError(f"unknown builtin family {tag!r}; choose from {BUILTIN_FAMILIES}")
    if params:
        raise CoefficientError(f"the {tag} family takes no parameter {', '.join(sorted(params))}")
    return field


# ---------------------------------------------------------------------------
# user fields from expression strings

_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_EXPR_NAMES = {"pi": math.pi}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_EXPR_UNARY = (ast.USub, ast.UAdd)


def _check_expr_node(node):
    if isinstance(node, ast.Expression):
        _check_expr_node(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
        _check_expr_node(node.left)
        _check_expr_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _EXPR_UNARY):
        _check_expr_node(node.operand)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS) \
                or len(node.args) != 1 or node.keywords:
            raise CoefficientError("only sin(.), cos(.), exp(.) calls are allowed in expressions")
        _check_expr_node(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in ("y1", "y2") and node.id not in _EXPR_NAMES:
            raise CoefficientError(f"unknown name {node.id!r} in expression (allowed: y1, y2, pi)")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise CoefficientError(f"non-numeric constant {node.value!r} in expression")
    else:
        raise CoefficientError(f"disallowed syntax {type(node).__name__} in expression")


def from_expression(expr: str, m=1) -> CoefficientField:
    """Isotropic coefficient a(y) delta_ij delta^{ab} with m components, from
    an arithmetic expression a over y1, y2.

    Allowed: +, -, *, /, **, sin, cos, exp, pi and numeric constants.  The
    field is checked by validate, so an a that is not positive at the
    sample points raises EllipticityError (CoefficientError if it is not
    finite there).
    """
    tree = ast.parse(expr, mode="eval")
    _check_expr_node(tree)
    code = compile(tree, "<coefficient>", "eval")

    def scalar(pts):
        env = {"y1": pts[:, 0], "y2": pts[:, 1], **_EXPR_NAMES, **_EXPR_FUNCS}
        out = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],))

    field = CoefficientField(_isotropic(scalar, m), m=m, family="user", symmetric=True,
                             params={"expr": expr})
    validate(field)
    return field


# ---------------------------------------------------------------------------
# sampled validation


@dataclass
class ValidationReport:
    rayleigh_min: float
    rayleigh_max: float
    samples: int

    @property
    def mu_measured(self):
        """Best Legendre constant consistent with the sampled quotients."""
        return min(self.rayleigh_min, 1.0 / self.rayleigh_max)


def validate(field, samples=16, seed=0, xi_samples=32) -> ValidationReport:
    """Sampled ellipticity diagnostics for a field.

    Raises CoefficientError on non-finite values and EllipticityError when
    the sampled lower Rayleigh quotient is not positive.
    """
    if samples < 2:
        raise CoefficientError("need at least 2 samples per axis")
    d, m = field.d, field.m
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0.0, 1.0, samples, endpoint=False) + 0.5 / samples for _ in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    vals = field(grid)
    if not np.all(np.isfinite(vals)):
        raise CoefficientError("evaluator returned non-finite values")

    xi = rng.standard_normal((xi_samples, d, m))
    xi /= np.sqrt(np.einsum("kia,kia->k", xi, xi))[:, None, None]
    quot = np.einsum("nijab,kia,kjb->nk", vals, xi, xi)
    rmin, rmax = float(quot.min()), float(quot.max())
    if rmin <= 0.0:
        raise EllipticityError(f"sampled lower Rayleigh quotient {rmin:.3g} is not positive")

    return ValidationReport(rayleigh_min=rmin, rayleigh_max=rmax, samples=grid.shape[0])
