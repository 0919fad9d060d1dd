"""Tests for repro.util: errors, validation, deterministic randomness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationError,
    ViewError,
)
from repro.util.randomness import SeedSequenceFactory, child_rng
from repro.util.validate import (
    check_in,
    check_int_range,
    check_non_negative,
    check_positive,
    check_probability,
    require,
)


class TestErrors:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (ConfigurationError, SimulationError, ScheduleError, ProtocolError, ViewError):
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)

    def test_schedule_error_is_simulation_error(self):
        assert issubclass(ScheduleError, SimulationError)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false_with_message(self):
        with pytest.raises(ConfigurationError, match="broken invariant"):
            require(False, "broken invariant")


class TestCheckPositive:
    def test_accepts_positive_int_and_float(self):
        assert check_positive("x", 3) == 3.0
        assert check_positive("x", 0.5) == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", float("nan"))
        with pytest.raises(ConfigurationError):
            check_positive("x", float("inf"))

    def test_rejects_non_number(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", "5")  # type: ignore[arg-type]


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -0.001)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside(self, value):
        with pytest.raises(ConfigurationError):
            check_probability("p", value)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), None, "0.5", [0.5]],
        ids=["nan", "inf", "-inf", "none", "string", "list"],
    )
    def test_rejects_non_finite_and_non_numeric(self, value):
        # NaN must not sneak through interval comparisons, and type
        # confusion (strings, containers, None) must fail loudly at
        # configuration time rather than deep inside a loss draw.
        with pytest.raises(ConfigurationError, match="p"):
            check_probability("p", value)

    def test_error_names_the_parameter_and_value(self):
        with pytest.raises(ConfigurationError, match=r"hello_loss_rate.*1\.5"):
            check_probability("hello_loss_rate", 1.5)


class TestCheckIn:
    def test_accepts_member(self):
        assert check_in("mode", "a", ["a", "b"]) == "a"

    def test_rejects_non_member_and_names_options(self):
        with pytest.raises(ConfigurationError, match="'a'"):
            check_in("mode", "z", ["a", "b"])


class TestCheckIntRange:
    def test_accepts_in_range(self):
        assert check_int_range("k", 3, 1, 5) == 3

    def test_rejects_below_low(self):
        with pytest.raises(ConfigurationError):
            check_int_range("k", 0, 1)

    def test_rejects_above_high(self):
        with pytest.raises(ConfigurationError):
            check_int_range("k", 9, 1, 5)

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_int_range("k", True, 0)

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_int_range("k", 2.0, 1)  # type: ignore[arg-type]


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        a = SeedSequenceFactory(7).rng("placement").random(4)
        b = SeedSequenceFactory(7).rng("placement").random(4)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        f = SeedSequenceFactory(7)
        a = f.rng("a").random(4)
        b = f.rng("b").random(4)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeedSequenceFactory(1).rng("x").random(4)
        b = SeedSequenceFactory(2).rng("x").random(4)
        assert not np.array_equal(a, b)

    def test_multipart_names(self):
        f = SeedSequenceFactory(7)
        a = f.rng("hello", 3).random()
        b = f.rng("hello", 4).random()
        assert a != b

    def test_creation_order_irrelevant(self):
        f1 = SeedSequenceFactory(9)
        _ = f1.rng("first")
        late = f1.rng("second").random(3)
        f2 = SeedSequenceFactory(9)
        early = f2.rng("second").random(3)
        assert np.array_equal(late, early)

    def test_seed_property(self):
        assert SeedSequenceFactory(42).seed == 42

    def test_seed_and_root_seed_together_rejected(self):
        # root_seed= was removed in 2.0: it is an unknown keyword now.
        with pytest.raises(TypeError, match="root_seed"):
            SeedSequenceFactory(1, root_seed=2)

    def test_seed_required(self):
        with pytest.raises(TypeError, match="seed"):
            SeedSequenceFactory()


class TestChildRng:
    def test_child_is_independent_generator(self, rng):
        child = child_rng(rng)
        assert child is not rng
        assert isinstance(child, np.random.Generator)
