"""The error taxonomy: every exception class k3auto defines either has an
exit code, through InputError (2) or VerificationFailure (1), or is one of
the named internal errors, which reach a user only through a loader that
wraps them with their line."""
import importlib
import inspect
import pkgutil

import k3auto
from k3auto.errors import InputError, VerificationFailure

INTERNAL = (
    "ZeroInputError",
    "MixedFieldsError",
    "ZeroDenominatorError",
    "ZeroDenominatorOnSurfaceError",
    "NonLinearNonMinimalPlaceError",
)


def defined_exceptions() -> dict[str, type]:
    out = {}
    for info in pkgutil.iter_modules(k3auto.__path__):
        module = importlib.import_module(f"k3auto.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj.__module__ == module.__name__
            ):
                out[name] = obj
    return out


def test_every_exception_class_has_an_exit_code_or_is_named_internal():
    classes = defined_exceptions()
    assert set(INTERNAL) <= set(classes)
    for name, cls in classes.items():
        bases = [base for base in (InputError, VerificationFailure) if issubclass(cls, base)]
        if name in INTERNAL:
            assert bases == [], name
        else:
            assert len(bases) == 1, name


def test_user_reachable_classes_sit_under_their_exit_code():
    classes = defined_exceptions()
    verification = (
        "RigidityError",
        "InconsistentCycleError",
        "TooManyFixedPointsError",
        "AnchorOnMobileCurveError",
        "IncompatibleActionsError",
        "UnderdeterminedActionError",
        "NotAMorphismError",
        "NotConstantFactorError",
        "OrderBoundExceededError",
    )
    inputs = (
        "ExpressionSyntaxError",
        "UnknownVariableError",
        "UnknownLatticeError",
        "GroupTooLargeError",
        "NonMinimalError",
        "UnclassifiableError",
    )
    for name in verification:
        assert issubclass(classes[name], VerificationFailure), name
    for name in inputs:
        assert issubclass(classes[name], InputError), name


def test_input_error_prefixes_a_line_only_when_given():
    assert str(InputError("bad value", 3)) == "line 3: bad value"
    assert str(InputError("bad value")) == "bad value"
    assert InputError("bad value").line is None
