"""The public surface: the names the ``twotime`` package re-exports, pinned as one sorted list
so that adding or dropping a name shows as an explicit diff of this file. The system is the CLI and
the acceptance criteria: a pinned name that neither uses stays only with a reason recorded here."""

import ast
import importlib
import io
import os
import re
import tokenize
import types
from pathlib import Path

import twotime

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BlochVector",
    "ChannelFamily",
    "ComplementarityReport",
    "CorrelatorInstance",
    "DensityMatrix",
    "FreeParticle",
    "GaussianPrep",
    "IrrealityReport",
    "LambdaReport",
    "MinFormReport",
    "Observable",
    "PrecessionConfig",
    "SIGMA",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "TorquePair",
    "TwoTimeOperator",
    "UncertaintyReport",
    "binary_entropy",
    "bloch_lambda_nu",
    "bloch_to_state",
    "bound_rhs",
    "complementarity_bound_check",
    "dephase",
    "displacement_stats",
    "figure1_scan",
    "heisenberg_correlator",
    "instantaneous_torque",
    "irreality",
    "lambda_operator",
    "min_form_check",
    "pauli_heisenberg",
    "precession_channel",
    "prepare_eigenstate",
    "qutrit_gap_fixture",
    "random_density_matrix",
    "random_hermitian",
    "realize",
    "relative_entropy",
    "row_angles",
    "torque_irreality_pair",
    "tpm_correlator",
    "tpm_joint_distribution",
    "uncertainty_report",
    "von_neumann_entropy",
]


def test_package_reexports_exactly_the_pinned_public_names():
    # Submodules (``twotime.cli`` appears once some test imports it) are not re-exports.
    names = [name for name, value in vars(twotime).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES

# Why each public name that no module of src/ and no acceptance criterion uses stays public.
UNUSED_BY_THE_SYSTEM = {
    "dephase": "the map Phi_A that defines J(A|rho); BENCHMARK.json's per-layer list names realism.dephase",
    "random_hermitian": "the public draw of one Hermitian matrix; tests/test_properties.py draws its Hamiltonians with it",
    "relative_entropy": "S(rho || Phi_A(sigma)) of J's variational form; BENCHMARK.json's per-layer list names "
                        "qcore.relative_entropy",
}


def test_every_public_name_is_used_by_the_system_or_has_a_recorded_reason():
    # A name counts as used where it is read, bare or as an attribute; definitions and imports do not count.
    used = set()
    for path in [*sorted((ROOT / "src" / "twotime").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            used.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    assert sorted(UNUSED_BY_THE_SYSTEM) == [name for name in PUBLIC_NAMES if name not in used]


def test_oracles_import_nothing_from_the_library():
    # The brute-force oracles the kernels are checked against must not share the kernels' code.
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [name for name in modules if name.split(".")[0] == "twotime"]


def test_a_src_named_on_pythonpath_is_the_package_under_test():
    # conftest puts this checkout's src after the PYTHONPATH entries, so one named there is the package tested.
    named = [Path(entry) for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if entry and (Path(entry) / "twotime" / "__init__.py").is_file()]
    src = named[0] if named else ROOT / "src"
    assert Path(twotime.__file__).resolve().is_relative_to(src.resolve())


def test_no_module_but_qcore_reads_projectors():
    # Observable's projectors are formed on first use and nowhere else; the kernels work from its frame.
    readers = [path.name for path in sorted((ROOT / "src" / "twotime").glob("*.py")) if path.name != "qcore.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "projectors"]
    assert readers == []


def test_every_code_name_the_readme_quotes_resolves():
    # Dotted paths such as twotime.qcore._states, and the short module._name form such as qcore.CELL_TIE_MARGIN:
    # a renamed or deleted name fails here rather than leaving the README stale.
    modules = "|".join(path.stem for path in (ROOT / "src" / "twotime").glob("*.py") if path.stem != "__init__")
    pattern = rf"(?<![\w./])(twotime\.(?:{modules})(?:\.\w+)*|(?:{modules})(?:\.\w+)+)"
    quoted = set(re.findall(pattern, (ROOT / "README.md").read_text()))
    unresolved = []
    for name in sorted(quoted):
        module, *attributes = name.removeprefix("twotime.").split(".")
        value = importlib.import_module(f"twotime.{module}")
        for attribute in attributes:
            value = getattr(value, attribute, None)
        unresolved += [name] if value is None else []
    assert len(quoted) >= 18 and unresolved == []


def test_no_source_line_is_packed():
    # Lines of src/ are a size measure only while none is wider than the widest one (133 characters) or holds two
    # statements: a ';', or a compound statement's header (if, for, def, else, ...) with its body after the ':'.
    compound = {"if", "elif", "else", "for", "while", "with", "try", "except", "finally", "def", "class", "async"}
    packed = []
    for path in sorted((ROOT / "src" / "twotime").glob("*.py")):
        text = path.read_text()
        packed += [f"{path.name}:{n}: wide" for n, line in enumerate(text.splitlines(), 1) if len(line) > 133]
        statement, depth = [], 0  # the tokens of the current logical line, and its bracket depth
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type in (tokenize.NEWLINE, tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
                statement = [] if token.type == tokenize.NEWLINE else statement
                continue
            header = statement and statement[0].string in compound and statement[-1].string == ":" and depth == 0
            if token.string == ";" or header:  # a ';', or a token after a header's ':' in the same logical line
                packed.append(f"{path.name}:{token.start[0]}: two statements")
            depth += (token.string in "([{") - (token.string in ")]}") if token.type == tokenize.OP else 0
            statement.append(token)
    assert packed == []


def test_no_column_is_mapped_one_python_float_at_a_time():
    # Columns go through numpy ufuncs whole: no np.fromiter, np.vectorize or np.frompyfunc, and no map over a .tolist(),
    # so a per-float math.exp, say, cannot come back into src/.
    per_float = {"fromiter", "vectorize", "frompyfunc"}
    calls = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in sorted((ROOT / "src" / "twotime").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and (ast.unparse(node.func).split(".")[-1] in per_float or (
                 ast.unparse(node.func) == "map" and any(".tolist(" in ast.unparse(arg) for arg in node.args[1:])))]
    assert calls == []


def test_no_module_but_qcore_tests_a_parameters_type():
    # The ingress rule (qcore._numbers and qcore._count) decides once what counts as a number, a count or a numeric array,
    # and qcore._typed what counts as an object parameter: no other module tests isinstance(..., bool | np.bool_ | str |
    # bytes | numbers.* | a library type or Generator), compares a .dtype with bool or reads a .dtype.kind.
    banned = {"bool", "np.bool_", "numpy.bool_", "str", "bytes", "Observable", "DensityMatrix", "ChannelFamily",
              "TwoTimeOperator", "np.random.Generator"}

    def type_test(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            return any(ast.unparse(kind) in banned or ast.unparse(kind).startswith("numbers.") for kind in kinds)
        if isinstance(node, ast.Compare):
            sides = [ast.unparse(side) for side in (node.left, *node.comparators)]
            return any(side.endswith(".dtype") for side in sides) and any(side in banned - {"str", "bytes"} for side in sides)
        return isinstance(node, ast.Attribute) and node.attr == "kind" and ast.unparse(node.value).endswith(".dtype")

    tests = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in sorted((ROOT / "src" / "twotime").glob("*.py")) if path.name != "qcore.py"
             for node in ast.walk(ast.parse(path.read_text())) if type_test(node)]
    assert tests == []


def test_finite_checks_only_computed_quantities():
    # qcore._numbers rejects a NaN or inf parameter at ingress, so qcore._finite is left for quantities computed from
    # checked ones: no _finite keyword may name a parameter of its enclosing function or a field of its dataclass.
    def scopes(tree):  # (function, the names its inputs go by) for each top-level function and method
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                fields = {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)}
                yield from ((item, fields) for item in node.body if isinstance(item, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                yield node, set()

    keywords, inputs_named = [], []
    for path in sorted((ROOT / "src" / "twotime").glob("*.py")):
        for function, fields in scopes(ast.parse(path.read_text())):
            inputs = fields | {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_finite":
                    keywords += [keyword.arg for keyword in node.keywords]
                    inputs_named += [f"{path.name}:{node.lineno}: {k.arg}" for k in node.keywords if k.arg in inputs]
    assert keywords and inputs_named == []


# Where @ stays in src/: a real product, or one product of 2-D operands (one BLAS call either way). A complex stack
# goes through qcore._matmul, since @ makes one zgemm call per matrix of a stack.
AT_SITES = {
    "correlators._tpm_gaps: a_frame[0][:, None] @ joint @ b_frame[0][:, :, None]": "real: eigenvalues and joints",
    "correlators._tpm_joints: a_sums @ (_matmul(t, x) * t.conj()).real.swapaxes(1, 2) @ b_sums.swapaxes(1, 2)": "real",
    "correlators._tpm_joints: a_sums @ np.diagonal(x, axis1=1, axis2=2).real[..., None]": "real: bool sums of marginals",
    "correlators.lambda_operator: alpha @ alpha": "2-D: one projector",
    "correlators.tpm_correlator: a_values @ joint @ b_values": "real: eigenvalues and one joint",
    "dynamics.ChannelFamily.propagate_state: u @ m @ u.conj().T": "2-D: one matrix",
    "qcore.Observable.projectors: v @ v.conj().T": "2-D: one eigenspace's columns",
    "qcore._norms: vectors[:, None, :] @ vectors[:, :, None]": "real, and bitwise np.linalg.norm's",
    "realism.complementarity_bound_check: vectors[0].conj().T @ vectors[1]": "2-D: the pair's frames",
    "realism.min_form_check: frame.conj().T @ rho.matrix @ frame": "2-D: rho in A's frame",
    "realism.min_form_check.scores: sigmas.reshape(len(sigmas), -1) @ to_diagonal": "2-D: (n, d^2) x (d^2, d)",
}


def test_no_complex_stack_is_multiplied_with_at():
    # Each outermost @ of src/ by its enclosing function; np.matmul only inside qcore._matmul itself.
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult) and not (
                    isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                sites.append(f"{module}.{'.'.join(scope)}: {ast.unparse(child)}")
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith(".matmul") and scope != ["_matmul"]:
                sites.append(f"{module}.{'.'.join(scope)}: {ast.unparse(child.func)}")
            visit(child, module, inner)

    for path in sorted((ROOT / "src" / "twotime").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    assert sorted(sites) == sorted(AT_SITES)


# The shared checks on the realism path: their passing path takes methods and ufuncs, not numpy's Python wrappers.
CHECK_HELPERS = ("_require", "_symmetrized", "_unit_traces", "_ginibres", "_relative_entropies")


def test_check_helpers_call_no_numpy_reduction_wrapper():
    wrappers = {"np.ravel", "np.min", "np.any", "np.trace", "np.diagonal"}
    tree = ast.parse((ROOT / "src" / "twotime" / "qcore.py").read_text())
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in CHECK_HELPERS}
    calls = [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, helper in helpers.items() for node in ast.walk(helper)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in wrappers]
    assert sorted(helpers) == sorted(CHECK_HELPERS) and calls == []
