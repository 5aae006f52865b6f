"""One ingress rule for every public number, count and numeric array, checked on the whole public surface.

Each name of ``test_surface.PUBLIC_NAMES`` has a valid baseline call here (a constant or an output-only record has
a reason instead). One argument at a time is replaced by a malformed or extreme value. The call must then either
return a finite result of its documented type or raise ``ValueError`` or ``TypeError``, with no warning (every
warning is an error here). A value of the wrong type (a bool, a str, bytes, None, an array of the wrong rank, or a
float given as a count) must be rejected, and its message must name the parameter by the word the function's other
messages use for it. A number or numeric array of the right type and rank with a NaN or infinite entry must raise
``ValueError("<that word> must be finite, got <the first such entry>")``, as ``qcore._numbers`` raises it.

An object-typed parameter (an ``Observable``, a ``DensityMatrix``, a ``ChannelFamily``, a ``TwoTimeOperator`` or a
``Generator``) given None, an ndarray or another library type must raise ``TypeError("<name> must be of type <type>,
got <its type>")``, as ``qcore._typed`` raises it. An eigenvalue index is a Python index (a bool selects as a list
index does), so it gets no value of the wrong type. Objects built from extreme finite numbers (observables and
Hamiltonians scaled toward the float max, kets with parts near it) are probed too: each call returns a finite result
or raises ``ValueError``, with no warning.
"""

import ast
import dataclasses
import inspect
import itertools
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotime
from test_surface import PUBLIC_NAMES, ROOT
from twotime import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    ChannelFamily,
    ComplementarityReport,
    CorrelatorInstance,
    DensityMatrix,
    FreeParticle,
    GaussianPrep,
    IrrealityReport,
    LambdaReport,
    MinFormReport,
    Observable,
    PrecessionConfig,
    TorquePair,
    TwoTimeOperator,
    UncertaintyReport,
)

A, B = Observable(SIGMA_X), Observable(SIGMA_Z)
CHANNEL = ChannelFamily(np.diag([0.0, 1.0]))
RHO = DensityMatrix.from_ket([1.0, 1.0])
OP = TwoTimeOperator("product", A, B, 0.0, 1.0, CHANNEL)
PREP, PARTICLE = GaussianPrep(0.0, 0.0, 1.0, 1.0), FreeParticle(1.0)
Z_HAT = (0.0, 0.0, 1.0)

NOT_CALLED = {
    "SIGMA": "a constant: the Pauli matrices, read-only",
    "SIGMA_X": "a constant, read-only",
    "SIGMA_Y": "a constant, read-only",
    "SIGMA_Z": "a constant, read-only",
    "ComplementarityReport": "output-only record of complementarity_bound_check",
    "CorrelatorInstance": "output-only record of qutrit_gap_fixture",
    "IrrealityReport": "output-only record of irreality",
    "LambdaReport": "output-only record of lambda_operator",
    "MinFormReport": "output-only record of min_form_check",
    "TorquePair": "output-only record of torque_irreality_pair",
    "UncertaintyReport": "output-only record of uncertainty_report",
}

# Each output-only record is a namedtuple, and some are built by position (IrrealityReport(*columns)), so a field
# reorder would silently swap values: the fields are pinned in order.
OUTPUT_FIELDS = {
    "ComplementarityReport": ("lhs", "rhs", "slack", "entropy_first", "entropy_second", "entropy_state"),
    "CorrelatorInstance": ("A", "B", "t1", "t2", "channel", "rho0"),
    "IrrealityReport": ("irreality", "entropy_dephased", "entropy_state"),
    "LambdaReport": ("matrix", "min_eigenvalue", "trace", "physical"),
    "MinFormReport": ("irreality", "identity_gap", "min_margin", "infinite_samples", "n_samples"),
    "TorquePair": ("irr_torque", "irr_spin", "r", "theta", "phi"),
    "UncertaintyReport": ("spread_t1", "spread_t2", "displacement_spread", "product_value", "product_bound",
                          "product_slack", "weighted_value", "weighted_bound", "weighted_slack"),
}


class Param(NamedTuple):
    value: object  # the baseline value
    word: str  # the word the function's messages use for this parameter
    kind: str  # "number", "size" (a count that allocates), "seed", "array", "keys" (broadcast to 1-D) or "elementwise"


class Entry(NamedTuple):
    call: Callable
    returns: type | tuple
    params: dict


def number(value, word):
    return Param(value, word, "number")


def array(value, word):
    return Param(np.asarray(value), word, "array")


ENTRIES = {
    "BlochVector": Entry(BlochVector, BlochVector, {"components": array([0.3, 0.0, 0.4], "Bloch vector")}),
    "BlochVector.from_angles": Entry(BlochVector.from_angles, BlochVector,
                                     {"r": number(0.5, "r"), "theta": number(1.0, "theta"), "phi": number(2.0, "phi")}),
    "ChannelFamily": Entry(ChannelFamily, ChannelFamily, {"hamiltonian": array(np.diag([0.0, 1.0]), "matrix")}),
    "ChannelFamily.unitary_at": Entry(CHANNEL.unitary_at, np.ndarray, {"t": number(0.5, "time")}),
    "ChannelFamily.propagate_state": Entry(CHANNEL.propagate_state, np.ndarray,
                                           {"matrix": array(RHO.matrix, "matrix"), "t": number(0.5, "time")}),
    "DensityMatrix": Entry(DensityMatrix, DensityMatrix, {"matrix": array(np.diag([0.25, 0.75]), "matrix")}),
    "DensityMatrix.from_ket": Entry(DensityMatrix.from_ket, DensityMatrix, {"ket": array([1.0, 1j], "ket")}),
    "DensityMatrix.maximally_mixed": Entry(DensityMatrix.maximally_mixed, DensityMatrix, {"dim": Param(2, "dim", "size")}),
    "FreeParticle": Entry(FreeParticle, FreeParticle, {"mass": number(1.5, "mass")}),
    "GaussianPrep": Entry(GaussianPrep, GaussianPrep, {"x0": number(0.1, "x0"), "p0": number(-0.2, "p0"),
                                                       "dx": number(1.0, "dx"), "dp": number(0.8, "dp"),
                                                       "xp_corr": number(0.1, "xp_corr")}),
    "Observable": Entry(Observable, Observable, {"matrix": array(np.diag([1.0, -1.0, 2.0]), "matrix")}),
    "PrecessionConfig": Entry(PrecessionConfig, PrecessionConfig,
                              {"h_hat": array(Z_HAT, "unit vector"), "tau": number(0.7, "tau")}),
    # A TwoTimeOperator is a specification: it checks its times' type and finiteness when built, their phases E*t where
    # realized.
    "TwoTimeOperator": Entry(lambda t1, t2: twotime.realize(TwoTimeOperator("product", A, B, t1, t2, CHANNEL)), Observable,
                             {"t1": number(0.0, "t1"), "t2": number(1.0, "t2")}),
    "binary_entropy": Entry(twotime.binary_entropy, (float, np.ndarray), {"u": Param(0.3, "binary entropy argument",
                                                                                     "elementwise")}),
    "bloch_lambda_nu": Entry(twotime.bloch_lambda_nu, tuple, {"r_hat1": array([0.6, 0.0, 0.8], "unit vector")}),
    "bloch_to_state": Entry(twotime.bloch_to_state, DensityMatrix, {"r": array([0.0, 0.5, 0.0], "Bloch vector")}),
    "bound_rhs": Entry(twotime.bound_rhs, float, {"r": number(0.5, "radius")}),
    "complementarity_bound_check": Entry(lambda: twotime.complementarity_bound_check(RHO), ComplementarityReport, {}),
    "dephase": Entry(lambda: twotime.dephase(B, RHO), DensityMatrix, {}),
    "displacement_stats": Entry(lambda t1, t2: twotime.displacement_stats(PREP, PARTICLE, t1, t2), tuple,
                                {"t1": number(0.0, "t1"), "t2": number(2.0, "t2")}),
    "figure1_scan": Entry(twotime.figure1_scan, tuple, {"r_values": array([0.5, 1.0], "radius"),
                                                        "n": Param(3, "n", "size"), "seed": Param(7, "seed", "seed")}),
    "heisenberg_correlator": Entry(lambda: twotime.heisenberg_correlator(OP, RHO), float, {}),
    "instantaneous_torque": Entry(twotime.instantaneous_torque, tuple,
                                  {"h_hat": array(Z_HAT, "unit vector"), "tau": number(0.7, "tau")}),
    "irreality": Entry(lambda: twotime.irreality(B, RHO), IrrealityReport, {}),
    "lambda_operator": Entry(lambda projector, t1: twotime.lambda_operator(projector, RHO, t1, CHANNEL), LambdaReport,
                             {"projector": array(np.diag([1.0, 0.0]), "matrix"), "t1": number(0.5, "time")}),
    "min_form_check": Entry(lambda n_samples, seed: twotime.min_form_check(B, RHO, n_samples, seed), MinFormReport,
                            {"n_samples": Param(5, "n_samples", "size"), "seed": Param(3, "seed", "seed")}),
    "pauli_heisenberg": Entry(lambda: twotime.pauli_heisenberg(PrecessionConfig(Z_HAT, 0.7)), tuple, {}),
    "precession_channel": Entry(twotime.precession_channel, ChannelFamily, {"h_hat": array(Z_HAT, "unit vector")}),
    # The eigenvalue index k is a Python index, as Observable.eigenstate takes it: not probed.
    "prepare_eigenstate": Entry(lambda: twotime.prepare_eigenstate(TwoTimeOperator("sum", A, B, 0.0, 1.0, CHANNEL), 0),
                                DensityMatrix, {}),
    "qutrit_gap_fixture": Entry(twotime.qutrit_gap_fixture, CorrelatorInstance, {}),
    "random_density_matrix": Entry(lambda dim: twotime.random_density_matrix(dim, np.random.default_rng(0)),
                                   DensityMatrix, {"dim": Param(3, "dim", "size")}),
    "random_hermitian": Entry(lambda dim: twotime.random_hermitian(dim, np.random.default_rng(0)), np.ndarray,
                              {"dim": Param(3, "dim", "size")}),
    "realize": Entry(lambda: twotime.realize(OP), Observable, {}),
    "relative_entropy": Entry(lambda: twotime.relative_entropy(RHO, DensityMatrix.maximally_mixed(2)), float, {}),
    # The keys are checked as one broadcast pair, so one word names both.
    "row_angles": Entry(twotime.row_angles, tuple, {"seed": Param(7, "seed", "seed"),
                                                    "band": Param([0, 1], "band and sample keys", "keys"),
                                                    "index": Param([2, 3], "band and sample keys", "keys")}),
    "torque_irreality_pair": Entry(twotime.torque_irreality_pair, TorquePair,
                                   {"r_vec": array([0.1, 0.2, 0.3], "Bloch vector")}),
    "tpm_correlator": Entry(lambda t1, t2: twotime.tpm_correlator(A, B, t1, t2, CHANNEL, RHO), float,
                            {"t1": number(0.0, "t1"), "t2": number(1.0, "t2")}),
    "tpm_joint_distribution": Entry(lambda t1, t2: twotime.tpm_joint_distribution(A, B, t1, t2, CHANNEL, RHO), tuple,
                                    {"t1": number(0.0, "t1"), "t2": number(1.0, "t2")}),
    "uncertainty_report": Entry(lambda t1, t2: twotime.uncertainty_report(PREP, PARTICLE, t1, t2), UncertaintyReport,
                                {"t1": number(0.0, "t1"), "t2": number(2.0, "t2")}),
    "von_neumann_entropy": Entry(lambda: twotime.von_neumann_entropy(RHO), float, {}),
}

WRONG_TYPE = [True, np.True_, "1", b"1", None]  # rejected wherever a number, a count or an array is expected
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -0.0, -1]
HUGE = 2**200  # given only to seeds: a size parameter allocates by its count


def wrong_rank(param):
    return np.full(np.shape(param.value) + (2,), 0.5)


def with_a_non_finite_entry(param):
    # The baseline array with its last entry NaN, +inf or -inf in turn; a scalar gets these values from EXTREMES.
    arrays = []
    for bad in (math.nan, math.inf, -math.inf) if np.ndim(param.value) else ():
        arrays.append(np.array(param.value) + 0.0)  # a float (or complex) copy
        arrays[-1].flat[-1] = bad
    return arrays


def must_reject(param, value) -> bool:
    """True when ``value`` has the wrong type for ``param``, so the call must name it in a ValueError or TypeError."""
    if any(value is probe for probe in WRONG_TYPE):
        return True
    if param.kind in ("size", "seed"):  # a count is a non-negative int, and a bool is not one
        return not (type(value) is int and value >= 0)
    if param.kind == "keys":  # a scalar key broadcasts against the other column
        return np.ndim(value) > 1
    return param.kind != "elementwise" and np.ndim(value) != np.ndim(param.value)


def non_finite(param, value) -> bool:
    """True when ``value`` is a number or numeric array of the right type and rank for ``param`` with a NaN or
    infinite entry, so the call must raise ValueError("<word> must be finite, got ...")."""
    return not must_reject(param, value) and np.asarray(value).dtype.kind in "fc" and not np.isfinite(value).all()


def finite(value) -> bool:
    if isinstance(value, (str, bool, np.bool_)) or value is None:
        return True
    if isinstance(value, (int, float, np.number)):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "USb" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    for attribute in ("matrix", "hamiltonian", "components"):
        if hasattr(value, attribute):
            return finite(getattr(value, attribute))
    raise AssertionError(f"no finiteness rule for {type(value).__name__}")


def check(label, name, value):
    entry = ENTRIES[label]
    param = entry.params[name]
    kwargs = {key: p.value for key, p in entry.params.items()} | {name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = entry.call(**kwargs)
        except (ValueError, TypeError) as error:
            assert not must_reject(param, value) or param.word in str(error), (label, name, value, str(error))
            named = type(error) is ValueError and str(error).startswith(f"{param.word} must be finite, got ")
            assert named or not non_finite(param, value), (label, name, value, str(error))
            return
    assert not must_reject(param, value) and not non_finite(param, value), (label, name, value, result)
    assert isinstance(result, entry.returns) and finite(result), (label, name, value, result)


PROBED = [(label, name) for label, entry in ENTRIES.items() for name in entry.params]


def test_every_public_name_has_a_baseline_call_or_a_reason():
    called = {label.split(".")[0] for label in ENTRIES}
    assert sorted(called | set(NOT_CALLED)) == PUBLIC_NAMES and not called & set(NOT_CALLED)


def test_each_output_record_is_a_tuple_with_its_pinned_fields():
    records = [name for name, reason in NOT_CALLED.items() if reason.startswith("output-only record")]
    assert sorted(records) == sorted(OUTPUT_FIELDS)
    for name, fields in OUTPUT_FIELDS.items():
        record = getattr(twotime, name)
        assert issubclass(record, tuple) and record._fields == fields, name


def test_every_dataclass_validates_its_fields():
    # A dataclass in src/ is a validated input; a record without a __post_init__ check is an output, so a namedtuple.
    classes = [(path.name, node) for path in sorted((ROOT / "src" / "twotime").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
               and any(ast.unparse(decorator).startswith("dataclass") for decorator in node.decorator_list)]
    unchecked = [f"{name}: {node.name}" for name, node in classes
                 if "__post_init__" not in {item.name for item in node.body if isinstance(item, ast.FunctionDef)}]
    assert classes and unchecked == []


@pytest.mark.parametrize("label", sorted(ENTRIES))
def test_each_baseline_call_returns_a_finite_result_of_its_type(label):
    entry = ENTRIES[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = entry.call(**{key: param.value for key, param in entry.params.items()})
    assert isinstance(result, entry.returns) and finite(result)


@pytest.mark.parametrize("label, name", PROBED, ids=[f"{label}-{name}" for label, name in PROBED])
def test_each_listed_probe_is_rejected_or_gives_a_finite_result(label, name):
    param = ENTRIES[label].params[name]
    for value in [*WRONG_TYPE, *EXTREMES, wrong_rank(param), *with_a_non_finite_entry(param),
                  *([HUGE] if param.kind == "seed" else [])]:
        check(label, name, value)


def drawn_values(param):
    counts = st.integers(1, 8) | st.integers(max_value=-1)  # never 0 (an empty draw) and never a huge size
    if param.kind == "seed":
        counts = st.integers(min_value=-(2**70), max_value=2**256)
    shaped = st.builds(lambda values, shape: np.resize(np.array(values, dtype=float), shape),
                       st.lists(st.floats(), min_size=1, max_size=9), st.just(np.shape(param.value)))
    return st.floats() | counts | st.sampled_from(WRONG_TYPE) | shaped


@pytest.mark.parametrize("label, name", PROBED, ids=[f"{label}-{name}" for label, name in PROBED])
@settings(max_examples=25)
@given(data=st.data())
def test_a_drawn_value_is_rejected_or_gives_a_finite_result(label, name, data):
    check(label, name, data.draw(drawn_values(ENTRIES[label].params[name])))


# Kets whose moduli or squares leave the float range, and observables and Hamiltonians up to the float max.
EXTREME_KETS = [[1.5e308 + 1.5e308j, 0.0], [1.7e308, -1.7e308j], [5e-324, 1e-310j]]
OBSERVABLES = [Observable(scale * m) for scale in (1.0, 1e300, 1.7e308, -1.7e308) for m in (SIGMA_X, SIGMA_Z, np.diag([1.0, 0.5]))]
CHANNELS = [CHANNEL, ChannelFamily(1e300 * SIGMA_X), ChannelFamily(1.7e308 * SIGMA_Z)]
STATES = [RHO, DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix.from_ket([1.0, -1j])]

OBJECT_CALLS = {
    "DensityMatrix.from_ket": (DensityMatrix.from_ket, DensityMatrix, [EXTREME_KETS]),
    "tpm_correlator": (lambda a, b, channel, rho: twotime.tpm_correlator(a, b, 0.0, 1.0, channel, rho), float,
                       [OBSERVABLES, OBSERVABLES, CHANNELS, STATES]),
    "tpm_joint_distribution": (lambda a, b, channel, rho: twotime.tpm_joint_distribution(a, b, 0.0, 1.0, channel, rho),
                               tuple, [OBSERVABLES, OBSERVABLES, CHANNELS, STATES]),
    "heisenberg_correlator": (lambda kind, a, b, channel, rho: twotime.heisenberg_correlator(
        TwoTimeOperator(kind, a, b, 0.0, 1.0, channel), rho), float, [("product", "sum"), OBSERVABLES, OBSERVABLES, CHANNELS, STATES]),
    "realize": (lambda kind, a, b, channel: twotime.realize(TwoTimeOperator(kind, a, b, 0.0, 1.0, channel)), Observable,
                [("product", "sum"), OBSERVABLES, OBSERVABLES, CHANNELS]),
    "prepare_eigenstate": (lambda kind, a, b: twotime.prepare_eigenstate(TwoTimeOperator(kind, a, b, 0.0, 1.0, CHANNEL), 0),
                           DensityMatrix, [("product", "sum"), OBSERVABLES, OBSERVABLES]),
    "irreality": (twotime.irreality, IrrealityReport, [OBSERVABLES, STATES]),
    "dephase": (twotime.dephase, DensityMatrix, [OBSERVABLES, STATES]),
    "min_form_check": (lambda a, rho: twotime.min_form_check(a, rho, 5, 3), MinFormReport, [OBSERVABLES, STATES]),
    "complementarity_bound_check": (twotime.complementarity_bound_check, ComplementarityReport,
                                    [STATES, OBSERVABLES, OBSERVABLES]),
    "lambda_operator": (lambda rho, channel: twotime.lambda_operator(np.diag([1.0, 0.0]), rho, 0.5, channel), LambdaReport,
                        [STATES, CHANNELS]),
}


@pytest.mark.parametrize("label", sorted(OBJECT_CALLS))
def test_objects_from_extreme_finite_numbers_give_a_finite_result_or_a_value_error(label):
    call, returns, argument_lists = OBJECT_CALLS[label]
    for arguments in itertools.product(*argument_lists):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(*arguments)
            except ValueError:
                continue
        assert isinstance(result, returns) and finite(result), (label, arguments, result)


# Each public callable that takes a library object: its call by keyword, and its object parameters' baselines.
GENERATOR = np.random.Generator
OBJECT_PARAMS = {
    "von_neumann_entropy": (twotime.von_neumann_entropy, {"rho": RHO}),
    "relative_entropy": (twotime.relative_entropy, {"rho": RHO, "eta": DensityMatrix.maximally_mixed(2)}),
    "random_density_matrix": (lambda rng: twotime.random_density_matrix(2, rng), {"rng": np.random.default_rng(0)}),
    "random_hermitian": (lambda rng: twotime.random_hermitian(2, rng), {"rng": np.random.default_rng(0)}),
    "dephase": (twotime.dephase, {"A": B, "rho": RHO}),
    "irreality": (twotime.irreality, {"A": B, "rho": RHO}),
    "min_form_check": (lambda A, rho: twotime.min_form_check(A, rho, 5, 3), {"A": B, "rho": RHO}),
    "complementarity_bound_check": (twotime.complementarity_bound_check, {"rho": RHO, "first": A, "second": Observable(SIGMA_Y)}),
    "TwoTimeOperator": (lambda A, B, channel: TwoTimeOperator("product", A, B, 0.0, 1.0, channel),
                        {"A": A, "B": B, "channel": CHANNEL}),
    "realize": (twotime.realize, {"op": OP}),
    "heisenberg_correlator": (twotime.heisenberg_correlator, {"op": OP, "rho0": RHO}),
    "prepare_eigenstate": (lambda op: twotime.prepare_eigenstate(op, 0), {"op": OP}),
    "tpm_joint_distribution": (lambda A, B, channel, rho0: twotime.tpm_joint_distribution(A, B, 0.0, 1.0, channel, rho0),
                               {"A": A, "B": B, "channel": CHANNEL, "rho0": RHO}),
    "tpm_correlator": (lambda A, B, channel, rho0: twotime.tpm_correlator(A, B, 0.0, 1.0, channel, rho0),
                       {"A": A, "B": B, "channel": CHANNEL, "rho0": RHO}),
    "lambda_operator": (lambda rho0, channel: twotime.lambda_operator(np.diag([1.0, 0.0]), rho0, 0.5, channel),
                        {"rho0": RHO, "channel": CHANNEL}),
}
OBJECT_PROBES = [(label, name) for label, (_, params) in OBJECT_PARAMS.items() for name in params]


def object_parameters(value):
    # (name, type) of each parameter of a public callable annotated with a library object type (or Generator).
    kinds = {Observable, DensityMatrix, ChannelFamily, TwoTimeOperator, GENERATOR, "np.random.Generator"}
    return [(name, param.annotation) for name, param in inspect.signature(value).parameters.items()
            if param.annotation in kinds]


def test_every_object_parameter_is_probed():
    annotated = {(label, name) for label in PUBLIC_NAMES if callable(value := getattr(twotime, label))
                 for name, _ in object_parameters(value)}
    assert annotated and annotated == set(OBJECT_PROBES)


@pytest.mark.parametrize("label, name", OBJECT_PROBES, ids=[f"{label}-{name}" for label, name in OBJECT_PROBES])
def test_an_object_parameter_of_another_type_raises_a_type_error_naming_it(label, name):
    call, params = OBJECT_PARAMS[label]
    kind = dict(object_parameters(getattr(twotime, label)))[name]
    kind = GENERATOR if kind == "np.random.Generator" else kind
    other = CHANNEL if kind is not ChannelFamily else A  # a library object of another type
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**params)  # the baseline call passes
        for value in (None, np.eye(2), other):
            if value is None and label == "complementarity_bound_check" and name != "rho":
                with pytest.raises(ValueError, match="^give both observables of the pair or neither$"):
                    call(**params | {name: value})  # None for both selects the default pair, so one None is a ValueError
                continue
            with pytest.raises(TypeError) as info:
                call(**params | {name: value})
            assert str(info.value) == f"{name} must be of type {kind.__name__}, got {type(value).__name__}", (label, name)
