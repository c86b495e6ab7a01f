"""Property-based tests (hypothesis) for the core data structures and maths."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ising.model import IsingModel, QUBOModel, bits_to_spins, spins_to_bits
from repro.metrics.ttb import InstanceSolutionProfile
from repro.mimo.frame import ber_required_for_fer, frame_error_rate_from_ber
from repro.modulation import get_constellation
from repro.modulation.gray import (
    binary_to_gray,
    bits_from_int,
    bits_to_int,
    gray_decode,
    gray_encode,
    gray_to_binary,
)
from repro.transform.posttranslate import gray_to_quamax_bits, quamax_to_gray_bits
from repro.transform.qubo_builder import build_ml_qubo, ml_metric_from_bits
from repro.transform.symbols import get_transform

# Keep hypothesis deadlines generous: several strategies build numpy problems.
COMMON_SETTINGS = settings(max_examples=40, deadline=None)


# --------------------------------------------------------------------------- #
# Gray coding
# --------------------------------------------------------------------------- #
class TestGrayProperties:
    @COMMON_SETTINGS
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_gray_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @COMMON_SETTINGS
    @given(st.integers(min_value=0, max_value=2**12 - 2))
    def test_adjacent_gray_codes_differ_in_one_bit(self, value):
        diff = gray_encode(value) ^ gray_encode(value + 1)
        assert bin(diff).count("1") == 1

    @COMMON_SETTINGS
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**12 - 1))
    def test_bits_int_roundtrip(self, width, value):
        value = value % (1 << width)
        assert bits_to_int(bits_from_int(value, width)) == value

    @COMMON_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12))
    def test_binary_gray_bitvector_roundtrip(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        np.testing.assert_array_equal(gray_to_binary(binary_to_gray(bits)), bits)


# --------------------------------------------------------------------------- #
# Ising / QUBO equivalence
# --------------------------------------------------------------------------- #
def ising_strategy(max_variables=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_variables))
        linear = [draw(st.floats(min_value=-5, max_value=5,
                                 allow_nan=False, allow_infinity=False))
                  for _ in range(n)]
        couplings = {}
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    couplings[(i, j)] = draw(st.floats(
                        min_value=-5, max_value=5,
                        allow_nan=False, allow_infinity=False))
        offset = draw(st.floats(min_value=-10, max_value=10,
                                allow_nan=False, allow_infinity=False))
        return IsingModel(num_variables=n, linear=np.array(linear),
                          couplings=couplings, offset=offset)
    return build()


class TestIsingQuboProperties:
    @COMMON_SETTINGS
    @given(ising_strategy(), st.integers(min_value=0, max_value=2**6 - 1))
    def test_conversion_preserves_energy(self, ising, state):
        bits = np.array([(state >> k) & 1 for k in range(ising.num_variables)],
                        dtype=np.uint8)
        qubo = ising.to_qubo()
        assert qubo.energy(bits) == pytest.approx(
            ising.energy(bits_to_spins(bits)), rel=1e-9, abs=1e-7)

    @COMMON_SETTINGS
    @given(ising_strategy())
    def test_double_conversion_preserves_spectrum(self, ising):
        back = ising.to_qubo().to_ising()
        for state in range(1 << ising.num_variables):
            bits = np.array([(state >> k) & 1
                             for k in range(ising.num_variables)], dtype=np.uint8)
            spins = bits_to_spins(bits)
            assert back.energy(spins) == pytest.approx(ising.energy(spins),
                                                       rel=1e-9, abs=1e-7)

    @COMMON_SETTINGS
    @given(ising_strategy(), st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_scales_energies(self, ising, factor):
        scaled = ising.scaled(factor)
        spins = np.ones(ising.num_variables)
        assert scaled.energy(spins) == pytest.approx(factor * ising.energy(spins),
                                                     rel=1e-9, abs=1e-7)

    @COMMON_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16))
    def test_spin_bit_roundtrip(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        np.testing.assert_array_equal(spins_to_bits(bits_to_spins(bits)), bits)


# --------------------------------------------------------------------------- #
# ML reduction invariants
# --------------------------------------------------------------------------- #
class TestReductionProperties:
    @COMMON_SETTINGS
    @given(st.sampled_from(["BPSK", "QPSK", "16-QAM"]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=2**12 - 1))
    def test_qubo_energy_equals_ml_metric(self, constellation, num_users, seed,
                                          assignment):
        rng = np.random.default_rng(seed)
        channel = rng.normal(size=(num_users, num_users)) \
            + 1j * rng.normal(size=(num_users, num_users))
        received = rng.normal(size=num_users) + 1j * rng.normal(size=num_users)
        qubo = build_ml_qubo(channel, received, constellation)
        n = qubo.num_variables
        bits = np.array([(assignment >> k) & 1 for k in range(n)], dtype=np.uint8)
        metric = ml_metric_from_bits(channel, received, constellation, bits)
        assert qubo.energy(bits) == pytest.approx(metric, rel=1e-7, abs=1e-7)

    @COMMON_SETTINGS
    @given(st.sampled_from(["16-QAM", "64-QAM"]),
           st.integers(min_value=0, max_value=2**12 - 1))
    def test_posttranslation_is_a_bijection(self, constellation, value):
        transform = get_transform(constellation)
        n = transform.bits_per_symbol
        bits = np.array([(value >> k) & 1 for k in range(n)], dtype=np.uint8)
        roundtrip = gray_to_quamax_bits(
            quamax_to_gray_bits(bits, constellation), constellation)
        np.testing.assert_array_equal(roundtrip, bits)

    @COMMON_SETTINGS
    @given(st.sampled_from(["BPSK", "QPSK", "16-QAM", "64-QAM"]),
           st.integers(min_value=0, max_value=2**12 - 1))
    def test_translated_bits_label_the_transmitted_symbol(self, name, value):
        transform = get_transform(name)
        constellation = get_constellation(name)
        n = transform.bits_per_symbol
        bits = np.array([(value >> k) & 1 for k in range(n)], dtype=np.uint8)
        symbol = transform.to_symbol(bits)
        gray = quamax_to_gray_bits(bits, name)
        np.testing.assert_array_equal(gray, constellation.symbol_to_bits(symbol))


# --------------------------------------------------------------------------- #
# Metrics invariants
# --------------------------------------------------------------------------- #
def profile_strategy():
    @st.composite
    def build(draw):
        num_solutions = draw(st.integers(min_value=1, max_value=6))
        weights = [draw(st.floats(min_value=0.01, max_value=1.0,
                                  allow_nan=False)) for _ in range(num_solutions)]
        total = sum(weights)
        probabilities = np.array([w / total for w in weights])
        num_bits = draw(st.integers(min_value=4, max_value=64))
        errors = np.array([draw(st.integers(min_value=0, max_value=num_bits))
                           for _ in range(num_solutions)], dtype=float)
        # Energy-rank order: sort errors so rank 0 is the "best" solution,
        # which mirrors how real profiles are built (not required by Eq. 9,
        # but it makes the floor interpretation meaningful).
        errors = np.sort(errors)
        duration = draw(st.floats(min_value=1.0, max_value=10.0))
        return InstanceSolutionProfile(probabilities=probabilities,
                                       bit_errors=errors, num_bits=num_bits,
                                       anneal_duration_us=duration)
    return build()


class TestMetricsProperties:
    @COMMON_SETTINGS
    @given(profile_strategy(), st.integers(min_value=1, max_value=9))
    def test_expected_ber_monotone_in_anneals(self, profile, exponent):
        smaller = profile.expected_ber(2 ** (exponent - 1))
        larger = profile.expected_ber(2 ** exponent)
        assert larger <= smaller + 1e-12

    @COMMON_SETTINGS
    @given(profile_strategy())
    def test_expected_ber_bounded(self, profile):
        for anneals in (1, 10, 1000):
            value = profile.expected_ber(anneals)
            assert 0.0 <= value <= 1.0

    @COMMON_SETTINGS
    @given(profile_strategy())
    # Roundoff regression: the reversed cumsum left the full tail one ulp
    # under 1, and the 10,000th power pushed the BER below the floor.
    @example(InstanceSolutionProfile(
        probabilities=np.array([0.35254674572380823, 0.26441024104205807,
                                0.24435857831381366, 0.13868443492032015]),
        bit_errors=np.array([4.0, 4.0, 4.0, 4.0]), num_bits=4,
        anneal_duration_us=1.0))
    def test_expected_ber_never_below_floor(self, profile):
        assert profile.expected_ber(10_000) >= profile.floor_ber - 1e-12

    @COMMON_SETTINGS
    @given(st.floats(min_value=1e-9, max_value=0.5), st.integers(min_value=1,
                                                                 max_value=1500))
    def test_fer_ber_inverse(self, ber, frame_size):
        fer = frame_error_rate_from_ber(ber, frame_size)
        assert 0.0 <= fer <= 1.0
        # Inversion loses precision once the FER saturates towards 1.
        if 0 < fer < 1 - 1e-9:
            recovered = ber_required_for_fer(fer, frame_size)
            assert recovered == pytest.approx(ber, rel=1e-4)
