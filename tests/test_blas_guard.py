"""Guard: numpy BLAS/LAPACK calls in the library need a deliberate decision.

numpy and scipy each ship their own OpenBLAS with its own thread pool, and a
call into one right after a threaded call into the other waits on the first
pool's spinning threads (see the ``rssfield.gp`` module docstring). Products
on the estimation path therefore go through scipy. This test scans the source
for every ``@``, ``np.dot``, ``np.vdot``, ``np.inner``, ``np.matmul``,
``np.tensordot`` and ``np.linalg.*`` call and fails on any that is
not listed below with its reason.

It also guards the memory order of factorizations: every ``cholesky(`` and
``dpotrf(`` call is listed with the reason for the layout it passes, so a new
one cannot bring back the transposing C-to-F copy of a symmetric matrix
unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rssfield"

# (file, source text of the expression) -> why it may stay in numpy
ALLOWED = {
    ("baseline.py", "np.linalg.pinv(bordered)"):
        "singular-system fallback only; kept in numpy so the fallback's result is unchanged",
    ("bounds.py", "v.T @ v"): "4 x 4 information matrix; below OpenBLAS's threading threshold",
    ("bounds.py", "np.linalg.eigvalsh(info)"): "4 x 4 information matrix",
    ("bounds.py", "np.linalg.pinv(info, rcond=_SINGULAR_RCOND, hermitian=True)"): "4 x 4 information matrix",
    ("bounds.py", "np.linalg.inv(info)"): "4 x 4 information matrix",
    ("bounds.py", "g @ info_inv"): "(m, 4) times 4 x 4; below OpenBLAS's threading threshold at m = 4096",
    ("empbayes.py", "r @ r"): "vector . vector",
    ("empbayes.py", "lin @ np.column_stack([e, free])"):
        "(5, N) times (N, 3): the fix solve's derivative sums; below OpenBLAS's threading threshold",
    ("empbayes.py", "(coef[:, None, :] * e.T) @ e"):
        "three (2, N) times (N, 2): the fix solve's derivative sums; below OpenBLAS's threading threshold",
    ("empbayes.py", "jac.T @ np.column_stack([jac, r])"):
        "(2, N) times (N, 3): the fix solve's Gauss-Newton term and gradient; below OpenBLAS's threading threshold",
    ("empbayes.py", "np.linalg.eigh(hess[np.ix_(free, free)])"): "the fix solve's Hessian, at most 2 x 2",
    ("empbayes.py", "vecs.T @ grad[free]"): "at most 2 x 2 times a 2-vector (the fix solve's Newton step)",
    ("empbayes.py", "vecs @ along"): "at most 2 x 2 times a 2-vector (the fix solve's Newton step)",
    ("experiments.py", "diff @ diff"): "vector . vector",
    ("gp.py", "resid @ beta"): "vector . vector (kernel-fit objective: the data-fit term)",
    ("gp.py", "beta @ matvec(expo, beta)"):
        "vector . vector (kernel-fit objective: beta^T E beta; the product E beta is scipy's matvec)",
    ("gp.py", "beta @ matvec(expo_d, beta)"):
        "vector . vector (kernel-fit objective: beta^T (E o D) beta; the product is scipy's matvec)",
    ("localize.py", "w @ snapshot.positions"):
        "vector times the (N, 2) positions; below OpenBLAS's threading threshold",
}


# (file, source text of the call) -> why its operand has the memory order it has
FACTORIZATIONS = {
    ("gp.py", "dpotrf(f, lower=1, clean=clean, overwrite_a=1)"):
        "every covariance factorization (chol_with_jitter, _nlml_objective), in place on an "
        "F-ordered buffer: the matrices are exactly symmetric, so a C-ordered one enters as its "
        "F-ordered view; chol_with_jitter factors the caller's matrix itself and with check_only "
        "restores it from its untouched triangle afterwards, else keeps the factor in its lower "
        "triangle (condition's training covariance, read only by potrs and trtrs), and the "
        "kernel-fit objective factors the C it rebuilt in its own buffer, with clean=1 so that "
        "after potri the flat buffer holds only C^-1's triangle for the trace ddots",
    ("synth.py", "cholesky(corr.T, lower=True, overwrite_a=True, check_finite=False)"):
        "synth._factor_in_place, for the grid correlation and the sensor conditional K_ss - V^T V "
        "(once per sensor roster), both exactly symmetric (subtract_gram leaves the conditional "
        "so): the F-ordered view is the same matrix, factored in place in its buffer; "
        "gp.check_finite scans it one block of rows at a time instead of scipy's boolean scan",
}


_PRODUCTS = [["dot"], ["vdot"], ["inner"], ["matmul"], ["tensordot"]]


def _is_numpy_call(node) -> bool:
    """np.dot, np.vdot, np.inner, np.matmul or np.tensordot(...) (or numpy.*),
    or np.linalg.<anything>(...): numpy's ways into its OpenBLAS pool."""
    if not isinstance(node, ast.Call):
        return False
    parts = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in ("np", "numpy"):
        return False
    parts.reverse()
    return parts in _PRODUCTS or (len(parts) == 2 and parts[0] == "linalg")


def _is_matmul(node) -> bool:
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)


def _numpy_blas_calls():
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if _is_matmul(node) or _is_numpy_call(node):
                found.append((path.name, ast.get_source_segment(text, node), node.lineno))
    return found


def _factorization_calls():
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("cholesky", "dpotrf"):
                found.append((path.name, ast.get_source_segment(text, node), node.lineno))
    return found


def test_every_numpy_blas_call_is_allowlisted():
    unlisted = [f"{name}:{line}: {expr}" for name, expr, line in _numpy_blas_calls() if (name, expr) not in ALLOWED]
    assert not unlisted, (
        "numpy BLAS/LAPACK calls outside the allowlist (route them through scipy, "
        "e.g. rssfield.gp.matvec, or allowlist them with a reason):\n" + "\n".join(unlisted)
    )


def test_every_factorization_is_allowlisted_with_its_memory_order():
    unlisted = [f"{name}:{line}: {expr}" for name, expr, line in _factorization_calls()
                if (name, expr) not in FACTORIZATIONS]
    assert not unlisted, (
        "Cholesky calls outside the allowlist (factor an exactly symmetric matrix through "
        "rssfield.gp.chol_with_jitter, or allowlist the call with the reason for its layout):\n"
        + "\n".join(unlisted)
    )


def test_allowlist_has_no_stale_entries():
    present = {(name, expr) for name, expr, _ in _numpy_blas_calls()}
    stale = sorted(set(ALLOWED) - present)
    assert not stale, f"allowlisted calls no longer in the source: {stale}"
    present = {(name, expr) for name, expr, _ in _factorization_calls()}
    stale = sorted(set(FACTORIZATIONS) - present)
    assert not stale, f"allowlisted factorizations no longer in the source: {stale}"


def test_every_numpy_product_is_detected():
    calls = ["np.dot(a, b)", "numpy.vdot(a, b)", "np.inner(a, b)", "np.matmul(a, b)",
             "np.tensordot(a, b, 1)", "np.linalg.solve(a, b)"]
    for text in calls:
        assert _is_numpy_call(ast.parse(text, mode="eval").body), text
    for text in ["np.multiply(a, b)", "np.add.outer(a, b)", "dgemv(1.0, a, x)"]:
        assert not _is_numpy_call(ast.parse(text, mode="eval").body), text
