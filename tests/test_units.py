"""Tests for time units and the error hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro import errors
from repro.units import (MS, NS, S, US, bit_time, fmt_time, ms, ns, seconds,
                         to_ms, to_s, to_us, us)


def test_unit_constants_ratios():
    assert US == 1000 * NS
    assert MS == 1000 * US
    assert S == 1000 * MS


def test_constructors_round_to_int():
    assert us(1.5) == 1500
    assert ms(0.25) == 250_000
    assert seconds(2) == 2_000_000_000
    assert ns(7.4) == 7
    assert isinstance(ms(1.3), int)


def test_converters_roundtrip():
    assert to_us(us(123)) == 123.0
    assert to_ms(ms(5)) == 5.0
    assert to_s(seconds(3)) == 3.0


def test_fmt_time_picks_unit():
    assert fmt_time(0) == "0"
    assert fmt_time(250) == "250ns"
    assert fmt_time(us(3)) == "3.000us"
    assert fmt_time(ms(1.5)) == "1.500ms"
    assert fmt_time(seconds(2)) == "2.000s"
    assert fmt_time(-ms(1)) == "-1.000ms"


def test_bit_time_common_rates():
    assert bit_time(500_000) == 2000   # CAN 500k
    assert bit_time(10_000_000) == 100  # FlexRay 10M
    assert bit_time(1_000_000_000) == 1


def test_bit_time_rejects_nonpositive():
    with pytest.raises(ValueError):
        bit_time(0)
    with pytest.raises(ValueError):
        bit_time(-5)


@given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_ms_us_consistency(value):
    assert ms(value) == pytest.approx(us(value * 1000), abs=1)


def test_error_hierarchy_all_derive_from_repro_error():
    for name in ("ConfigurationError", "SimulationError", "SchedulingError",
                 "AnalysisError", "ContractError", "CompositionError",
                 "ProtocolError"):
        exc_type = getattr(errors, name)
        assert issubclass(exc_type, errors.ReproError)
        assert issubclass(exc_type, Exception)


def test_catching_base_catches_all():
    with pytest.raises(errors.ReproError):
        raise errors.ProtocolError("x")
